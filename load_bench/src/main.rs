//! `load_bench`: the measured end-to-end serving benchmark.
//!
//! ```text
//! load_bench --workload NAME --seed N --seconds S --trace 0|1
//! load_bench [--workload NAME] [--seed N] [--seconds S]
//!            [--smoke | --repeat N | --self-test] [--out FILE]
//! ```
//!
//! The first form is one run in this process and ends with one JSON
//! result line; the second runs a set of such runs, each in a fresh child
//! process so peak memory and CPU are per workload, and summarizes them.
//! See `README.md` beside `Cargo.toml` for the workloads, the metrics and
//! how to read the ledger.

mod cluster;
mod ledger;
mod oracle;
mod probes;
mod run;
mod spec;
mod stats;
mod workloads;

use serde::Value;
use spec::{as_f64, END_TO_END, FAILED_SHARE_FLOOR, PER_LAYER};
use stats::Quartiles;
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;
use workloads::Kind;

const DEFAULT_SEED: u64 = 0x7EA4_4E70;
/// Exit code of a run that produced no result (bad usage, a pinned
/// `TEAMNET_THREADS`, a late open-loop generator).
const EXIT_INVALID: u8 = 2;

#[derive(Debug, Default)]
struct Args {
    workload: Option<Kind>,
    seed: Option<u64>,
    seconds: Option<u64>,
    trace: Option<bool>,
    smoke: bool,
    repeat: Option<usize>,
    self_test: bool,
    out: Option<String>,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        let number = |text: &str| {
            text.parse::<u64>()
                .map_err(|_| format!("{flag}: `{text}` is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let known = || Kind::ALL.map(Kind::name).join(", ");
                args.workload =
                    Some(Kind::from_name(name).ok_or_else(|| {
                        format!("unknown workload `{name}` (known: {})", known())
                    })?);
            }
            "--seed" => args.seed = Some(number(value()?)?),
            "--seconds" => args.seconds = Some(number(value()?)?.max(1)),
            "--trace" => args.trace = Some(number(value()?)? != 0),
            "--repeat" => args.repeat = Some(number(value()?)?.max(1) as usize),
            "--out" => args.out = Some(value()?.to_owned()),
            "--smoke" => args.smoke = true,
            "--self-test" => args.self_test = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

/// Kernel threads each node of a `k`-node team gets: its share of the
/// host's cores. The paper's experts run on a device each; the nodes of a
/// loopback cluster share one host. Left at the kernels' default, every
/// node fans each conv and matmul out over all `nproc` cores at once,
/// K × `nproc` runnable threads on `nproc` cores, and the run times the
/// scheduler, not the program.
fn node_threads(nproc: usize, k: usize) -> usize {
    (nproc / k).max(1)
}

/// One run in this process: prints every metric by name and unit, then
/// the result line.
fn single_run(kind: Kind, args: &Args, traced: bool) -> ExitCode {
    let seed = args.seed.unwrap_or(DEFAULT_SEED);
    let seconds = Duration::from_secs(
        args.seconds
            .unwrap_or_else(|| run_seconds(manifest().as_ref())),
    );
    // Before the first kernel call and the first thread: the pool reads
    // its default once per process.
    let threads = node_threads(nproc(), kind.team().k);
    std::env::set_var(teamnet_tensor::pool::THREADS_ENV, threads.to_string());
    println!(
        "load_bench {} seed={seed} seconds={} trace={} nproc={} node_threads={threads}",
        kind.name(),
        seconds.as_secs(),
        u8::from(traced),
        nproc()
    );
    let (outcome, table) = if traced {
        (
            run::per_layer(kind, seed, seconds, args.self_test),
            PER_LAYER,
        )
    } else {
        (
            run::end_to_end(kind, seed, seconds, args.self_test),
            END_TO_END,
        )
    };
    let result = match outcome {
        Ok(result) => result,
        Err(invalid) => {
            eprintln!("error: {invalid}");
            return ExitCode::from(EXIT_INVALID);
        }
    };
    result.print(table);
    println!(
        "attempted {} failed {} failed_share {:.6}",
        result.attempted,
        result.failed,
        result.failed_share()
    );
    let line = serde_json::to_string(&result.to_json(table)).expect("result line");
    println!("{line}");
    if result.failed_share() > FAILED_SHARE_FLOOR {
        eprintln!(
            "error: failed_share {:.6} exceeds {FAILED_SHARE_FLOOR}",
            result.failed_share()
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// `BENCHMARK.json` in the working directory, when run from the root of
/// a checkout.
fn manifest() -> Option<Value> {
    serde_json::from_str(&std::fs::read_to_string("BENCHMARK.json").ok()?).ok()
}

/// The run length `BENCHMARK.json` fixes.
fn run_seconds(manifest: Option<&Value>) -> u64 {
    manifest
        .and_then(|m| m.get("run_seconds").and_then(as_f64))
        .map_or(24, |s| s as u64)
}

/// The regression bound `BENCHMARK.json` fixes for an end-to-end metric.
fn bound_of(manifest: Option<&Value>, metric: &str) -> Option<f64> {
    manifest?
        .get("end_to_end")?
        .as_seq()?
        .iter()
        .find(|m| m.get("name").and_then(Value::as_str) == Some(metric))?
        .get("bound")
        .and_then(as_f64)
}

/// What a child run reported.
struct ChildRun {
    exit_ok: bool,
    result: Option<Value>,
}

impl ChildRun {
    fn metric(&self, name: &str) -> Option<f64> {
        self.result
            .as_ref()?
            .get("metrics")?
            .get(name)?
            .get("value")
            .and_then(as_f64)
    }

    /// The `metrics` object of the result line, as printed.
    fn metrics(&self) -> Value {
        self.result
            .as_ref()
            .and_then(|r| r.get("metrics"))
            .cloned()
            .unwrap_or(Value::Null)
    }

    fn count(&self, key: &str) -> u64 {
        self.result
            .as_ref()
            .and_then(|r| r.get(key).and_then(as_f64))
            .map_or(0, |v| v as u64)
    }
}

/// Runs one workload once in a fresh process of this same program and
/// parses the result line. The child's own report goes to our stderr so
/// stdout stays the summary.
fn child_run(kind: Kind, seed: u64, seconds: u64, traced: bool, self_test: bool) -> ChildRun {
    let exe = std::env::current_exe().expect("path of this program");
    let mut command = Command::new(exe);
    command
        .args(["--workload", kind.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if self_test {
        command.arg("--self-test");
    }
    let output = command.output().expect("spawn child run");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    let result = serde_json::from_str::<Value>(last)
        .ok()
        .filter(|v| v.get("metrics").is_some());
    if result.is_none() {
        eprint!("{stdout}");
    }
    ChildRun {
        exit_ok: output.status.success(),
        result,
    }
}

fn command_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_owned(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_owned(),
        )
}

/// Negative control: a run against a corrupted reference must report
/// failed operations and exit non-zero. Passes (exit 0) when it does.
fn self_test(seed: u64) -> ExitCode {
    let run = child_run(Kind::MlpTcpTrickle, seed, 3, false, true);
    let failed = run.count("failed");
    if !run.exit_ok && failed >= 1 {
        println!("self-test: corrupted reference caught ({failed} failed operations, run exited non-zero)");
        ExitCode::SUCCESS
    } else {
        println!(
            "self-test: corrupted reference NOT caught (failed={failed}, exit ok={})",
            run.exit_ok
        );
        ExitCode::FAILURE
    }
}

/// The full set: every selected workload, `repeat` end-to-end runs and
/// one per-layer run each, with a per-metric summary against the bounds.
fn run_set(args: &Args) -> ExitCode {
    let seed = args.seed.unwrap_or(DEFAULT_SEED);
    if args.self_test {
        return self_test(seed);
    }
    let manifest = manifest();
    let seconds = args.seconds.unwrap_or(if args.smoke {
        2
    } else {
        run_seconds(manifest.as_ref())
    });
    let repeat = args.repeat.unwrap_or(1);
    let kinds: Vec<Kind> = args.workload.map_or(Kind::ALL.to_vec(), |k| vec![k]);
    let mut all_ok = true;
    let mut report = Vec::new();

    for &kind in &kinds {
        let runs: Vec<ChildRun> = (0..repeat)
            .map(|_| child_run(kind, seed, seconds, false, false))
            .collect();
        let layers = child_run(kind, seed, seconds, true, false);
        all_ok &= layers.exit_ok && runs.iter().all(|r| r.exit_ok && r.result.is_some());

        println!(
            "\n== {} ({repeat} end-to-end run(s) of {seconds} s) ==",
            kind.name()
        );
        for &(name, unit) in END_TO_END {
            let samples: Vec<f64> = runs.iter().filter_map(|r| r.metric(name)).collect();
            let bound = bound_of(manifest.as_ref(), name);
            match Quartiles::of(&samples) {
                Some(q) => {
                    let bound_text = bound.map_or("-".to_owned(), |b| format!("{b:.3}"));
                    // Set-up time is gated on its median only.
                    let over = name != "setup_s" && bound.is_some_and(|b| q.spread() > b);
                    println!(
                        "{name:<22} median {:>12.4} {unit:<5} q1 {:>12.4} q3 {:>12.4} spread {:.4} bound {bound_text}{}",
                        q.median,
                        q.q1,
                        q.q3,
                        q.spread(),
                        if over { "  SPREAD > BOUND" } else { "" },
                    );
                    all_ok &= !over;
                }
                None => println!(
                    "{name:<22} {:>12.4} {unit}",
                    samples.first().copied().unwrap_or(f64::NAN)
                ),
            }
        }
        for &(name, unit) in PER_LAYER {
            if let Some(value) = layers.metric(name) {
                println!("{name:<36} {value:>16.4} {unit}");
            }
        }
        let attempted: u64 = runs.iter().map(|r| r.count("attempted")).sum();
        let failed: u64 = runs.iter().map(|r| r.count("failed")).sum();
        println!("attempted {attempted} failed {failed}");
        if let (Some(first), true) = (runs.first(), args.out.is_some()) {
            report.push((
                kind.name().to_owned(),
                Value::Map(vec![
                    (
                        "attempted".into(),
                        serde::Serialize::to_json_value(&attempted),
                    ),
                    ("failed".into(), serde::Serialize::to_json_value(&failed)),
                    ("end_to_end".into(), first.metrics()),
                    ("per_layer".into(), layers.metrics()),
                ]),
            ));
        }
    }

    if let Some(path) = &args.out {
        let text = |s: String| Value::Str(s);
        let header = Value::Map(vec![
            (
                "nproc".into(),
                serde::Serialize::to_json_value(&(nproc() as u64)),
            ),
            (
                "rustc".into(),
                text(command_line_of("rustc", &["--version"])),
            ),
            (
                "commit".into(),
                text(command_line_of("git", &["rev-parse", "HEAD"])),
            ),
            ("seed".into(), serde::Serialize::to_json_value(&seed)),
            ("seconds".into(), serde::Serialize::to_json_value(&seconds)),
            (
                "repeat".into(),
                serde::Serialize::to_json_value(&(repeat as u64)),
            ),
        ]);
        let doc = Value::Map(vec![
            ("header".into(), header),
            ("workloads".into(), Value::Map(report)),
        ]);
        let json = serde_json::to_string_pretty(&doc).expect("results document");
        if let Err(e) = std::fs::write(path, json + "\n") {
            eprintln!("error: could not write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("\nwrote {path}");
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("error: {message}");
            return ExitCode::from(EXIT_INVALID);
        }
    };
    // The kernels' thread pool follows TEAMNET_THREADS; a pinned value
    // would make every figure a property of the caller's shell.
    if std::env::var_os(teamnet_tensor::pool::THREADS_ENV).is_some() {
        eprintln!(
            "error: {} is set; unset it: each run sets its nodes' share of the cores itself",
            teamnet_tensor::pool::THREADS_ENV
        );
        return ExitCode::from(EXIT_INVALID);
    }
    match (args.trace, args.workload) {
        (Some(traced), Some(kind)) => single_run(kind, &args, traced),
        (Some(_), None) => {
            eprintln!("error: --trace needs --workload");
            ExitCode::from(EXIT_INVALID)
        }
        (None, _) => run_set(&args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &[&str]) -> Result<Args, String> {
        parse_args(&words.iter().map(|w| (*w).to_owned()).collect::<Vec<_>>())
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let args = parse(&[
            "--workload",
            "cnn_round",
            "--seed",
            "7",
            "--seconds",
            "20",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(args.workload, Some(Kind::CnnRound));
        assert_eq!(
            (args.seed, args.seconds, args.trace),
            (Some(7), Some(20), Some(true))
        );
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--seed"]).is_err());
        assert!(parse(&["--seconds", "soon"]).is_err());
        assert!(parse(&["--frobnicate"]).is_err());
        let set = parse(&["--smoke", "--repeat", "3", "--out", "x.json"]).unwrap();
        assert!(set.smoke && set.trace.is_none());
        assert_eq!((set.repeat, set.out.as_deref()), (Some(3), Some("x.json")));
    }

    #[test]
    fn nodes_share_the_hosts_cores() {
        assert_eq!(node_threads(2, 2), 1);
        assert_eq!(node_threads(2, 3), 1);
        assert_eq!(node_threads(8, 2), 4);
        assert_eq!(node_threads(1, 3), 1);
    }

    #[test]
    fn bounds_are_read_from_the_manifest() {
        let manifest: Value =
            serde_json::from_str(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json");
        for &(name, _) in END_TO_END {
            let bound = bound_of(Some(&manifest), name).expect(name);
            assert!(bound > 0.0 && bound <= 0.25, "{name}: {bound}");
        }
        assert_eq!(bound_of(Some(&manifest), "no_such_metric"), None);
        assert_eq!(bound_of(None, "setup_s"), None);
    }
}
