//! `cargo xtask` — workspace tooling for the TeamNet reproduction.
//!
//! Subcommands, each exiting non-zero on any diagnostic. Every analysis
//! subcommand accepts `--json`, which prints the diagnostics to stdout as
//! a stable machine-readable array (see [`json`]; the schema is pinned by
//! a golden-file test) and moves the human summary to stderr.
//!
//! **`cargo xtask check [--json]`** — fast per-line invariants:
//!
//! 0. **Manifest audit** — workspace resolver + path-only dependencies
//!    (see [`manifest`]).
//! 1. **Invariant lints** — rejects panic-prone constructs in non-test
//!    library code and enforces crate-root hygiene headers (see [`lint`]
//!    for the rule table; suppress a finding with `// lint: allow(<rule>)`).
//! 2. **Static shape check** — builds every model configuration from the
//!    paper through `teamnet-nn`'s `shape_check` pass (see [`shapes`]).
//!
//! **`cargo xtask audit [--json]`** — symbol-aware cross-crate analysis.
//! The workspace is lexed and its symbol table + call graph built **once**
//! (see [`symbols`]) and shared across all passes; the summary line
//! reports per-pass timings:
//!
//! 1. **Lock order** — lock-acquisition graph across `net`/`core`; fails
//!    on inconsistent ordering cycles and locks held across network I/O
//!    (see [`locks`]; rules `lock-order`, `lock-across-io`).
//! 2. **Determinism taint** — hasher/clock/entropy nondeterminism
//!    reachable from protocol encode/decode, the inference runtime, and
//!    the simulator (see [`taint`]; rules `det-map`, `det-clock`,
//!    `det-rng`).
//! 3. **Protocol exhaustiveness** — every `PayloadKind` variant built and
//!    dispatched, every `NetError` variant produced (see [`protocol`];
//!    rules `protocol-constructed`, `protocol-handled`, `error-produced`).
//! 4. **Narrowing casts** — unchecked truncating `as` casts reachable
//!    from the codec/envelope/cost roots (see [`cast`]; rule
//!    `cast-truncate`).
//! 5. **FSM conformance** — every `PayloadKind` dispatch in `core`,
//!    `partition` and `moe` must
//!    live inside the pure transition functions of `core::fsm`, and every
//!    `step` function must handle every payload variant without a
//!    wildcard arm (see [`conformance`]; rules `fsm-dispatch`,
//!    `fsm-coverage`).
//! 6. **Trace propagation** — every envelope / serve-frame send site in
//!    `core` and `serve` must attach a trace context so cross-node traces
//!    assemble without orphans, and `partition` / `moe` may not send or
//!    receive on a transport at all: their strategies run on core's
//!    round (see [`tracerule`]; rule `trace-propagation`).
//!
//! **`cargo xtask mc [--json] [--allow-truncation]`** — bounded
//! explicit-state model checking of the protocol FSMs: exhaustive BFS
//! over message interleavings on a small-model cluster with a budgeted
//! fault adversary, a compiled-in protocol mutant as negative control
//! (its minimized counterexample is printed as a message-sequence
//! diagram), and a seeded cross-check of the fault adversary against the
//! live `ChaosTransport` (see [`mc`] and [`netmodel`]; DESIGN.md §15).
//! Explored-state and transition counts on stdout are byte-stable
//! run-to-run; timings go to stderr. Exceeding an exploration budget
//! fails loudly unless `--allow-truncation` acknowledges the bounded
//! coverage.
//!
//! **`cargo xtask cost [--check] [--json]`** — static per-expert resource
//! certification: prices the full paper model grid (parameter bytes,
//! FLOPs, liveness-analyzed peak activation bytes, framed bytes-on-wire)
//! through `teamnet_nn::cost` and writes `COST.json` at the workspace
//! root; with `--check` it diffs against the checked-in file instead and
//! fails on drift (see [`cost`]). Each run self-tests by rejecting a
//! deliberately mis-costed fixture.
//!
//! **`cargo xtask trace-report <trace.jsonl>`** — ingests a span trace
//! written by a `teamnet_obs::JsonlSink` and prints the per-span latency
//! table (count / p50 / p99 / total, from the log2-bucket histograms of
//! `teamnet_obs::report`). Exits non-zero on a malformed event line or an
//! empty span table — the CI traced-smoke stage relies on both.
//!
//! **`cargo xtask trace-assemble NODE=FILE.jsonl [NODE=FILE.jsonl ...]
//! [--dag]`** — merges per-node JSONL traces into one causal DAG
//! (`teamnet_obs::assemble`), reconciling clocks from per-edge send/recv
//! deltas, and prints the byte-stable per-round critical-path table
//! attributing each round's wall time to compute / wire / wait / retry.
//! Orphan spans or malformed lines exit non-zero — the CI cross-node
//! assembly stage relies on it.
//!
//! Implemented with `std` only: the sandbox has no crates-io access, so no
//! `syn`/`clippy-utils`; the static passes work on comment/string-masked
//! source (see [`lexer`]). The `mc` subcommand additionally links the
//! workspace crates themselves — it checks the *production* transition
//! functions, not a parallel model.

mod cast;
mod conformance;
mod cost;
mod json;
mod lexer;
mod lint;
mod locks;
mod manifest;
mod mc;
mod netmodel;
mod protocol;
mod shapes;
mod symbols;
mod taint;
mod tracerule;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// One finding from any pass; rendered as `path:line: [rule] message`.
#[derive(Debug)]
pub struct Diagnostic {
    /// Workspace-relative file path (or a logical location like
    /// `mc://recovery` for passes without a source file).
    pub path: String,
    /// 1-based line, or 0 when the finding has no line.
    pub line: usize,
    /// Stable rule identifier, also the `lint: allow(...)` key.
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.line > 0 {
            write!(
                f,
                "{}:{}: [{}] {}",
                self.path, self.line, self.rule, self.message
            )
        } else {
            write!(f, "{}: [{}] {}", self.path, self.rule, self.message)
        }
    }
}

/// The workspace root, two levels above this crate's manifest.
pub fn workspace_root() -> PathBuf {
    let mut dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    dir.pop();
    dir.pop();
    dir
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let json = args.iter().any(|a| a == "--json");
    match args.first().map(String::as_str) {
        Some("check") => run_check(json),
        Some("audit") => run_audit(json),
        Some("mc") => run_mc(json, args.iter().any(|a| a == "--allow-truncation")),
        Some("cost") => run_cost(args.iter().any(|a| a == "--check"), json),
        Some("trace-report") => run_trace_report(args.get(1).map(String::as_str)),
        Some("trace-assemble") => run_trace_assemble(&args[1..]),
        Some(other) => {
            eprintln!(
                "unknown subcommand `{other}`; usage: \
                 cargo xtask <check|audit|mc|cost|trace-report|trace-assemble>"
            );
            ExitCode::from(2)
        }
        None => {
            eprintln!(
                "usage: cargo xtask <check [--json]|audit [--json]|mc [--json] \
                 [--allow-truncation]|cost [--check] [--json]|trace-report FILE.jsonl|\
                 trace-assemble NODE=FILE.jsonl [NODE=FILE.jsonl ...] [--dag]>"
            );
            ExitCode::from(2)
        }
    }
}

/// Runs one pass, recording its wall time for the summary line.
fn timed<T>(
    timings: &mut Vec<(&'static str, Duration)>,
    name: &'static str,
    pass: impl FnOnce() -> T,
) -> T {
    let start = Instant::now();
    let out = pass();
    timings.push((name, start.elapsed()));
    out
}

fn render_timings(timings: &[(&'static str, Duration)]) -> String {
    timings
        .iter()
        .map(|(name, d)| format!("{name} {}ms", d.as_millis()))
        .collect::<Vec<_>>()
        .join(", ")
}

/// Shared epilogue: renders diagnostics (JSON to stdout in `--json` mode,
/// human-readable to stderr otherwise) and the OK summary, and picks the
/// exit code.
fn finish(pass: &str, json_mode: bool, diags: &[Diagnostic], ok_summary: String) -> ExitCode {
    if json_mode {
        print!("{}", json::render(diags));
    }
    if diags.is_empty() {
        if json_mode {
            eprintln!("{ok_summary}");
        } else {
            println!("{ok_summary}");
        }
        ExitCode::SUCCESS
    } else {
        if !json_mode {
            for d in diags {
                eprintln!("{d}");
            }
        }
        eprintln!("xtask {pass}: {} diagnostic(s)", diags.len());
        ExitCode::FAILURE
    }
}

fn run_trace_report(path: Option<&str>) -> ExitCode {
    let Some(path) = path else {
        eprintln!("usage: cargo xtask trace-report FILE.jsonl");
        return ExitCode::from(2);
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("trace-report: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match teamnet_obs::report::analyze(&text) {
        Ok(report) => {
            if report.rows.is_empty() {
                eprintln!("trace-report: {path} contains no completed spans");
                return ExitCode::FAILURE;
            }
            print!("{}", teamnet_obs::report::render_table(&report));
            println!(
                "{} event(s), {} span name(s)",
                report.events,
                report.rows.len()
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("trace-report: {path}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `trace-assemble NODE=FILE.jsonl ...` — merges per-node JSONL traces
/// into one causal DAG (re-parenting cross-node spans along the trace
/// contexts the frames carried), reconciles clocks from per-edge
/// send/recv deltas, and prints the byte-stable per-round critical-path
/// attribution table. `--dag` additionally prints the assembled span
/// forest. Orphan spans (a remote parent no input file accounts for) and
/// malformed lines fail loudly with a non-zero exit.
fn run_trace_assemble(args: &[String]) -> ExitCode {
    let mut inputs: Vec<(u64, String)> = Vec::new();
    let mut dag = false;
    for arg in args {
        if arg == "--dag" {
            dag = true;
            continue;
        }
        let parsed = arg
            .split_once('=')
            .and_then(|(node, path)| Some((node.parse::<u64>().ok()?, path)));
        let Some((node, path)) = parsed else {
            eprintln!("trace-assemble: bad argument `{arg}` (want NODE=FILE.jsonl)");
            return ExitCode::from(2);
        };
        match std::fs::read_to_string(path) {
            Ok(text) => inputs.push((node, text)),
            Err(e) => {
                eprintln!("trace-assemble: cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if inputs.is_empty() {
        eprintln!(
            "usage: cargo xtask trace-assemble NODE=FILE.jsonl [NODE=FILE.jsonl ...] [--dag]"
        );
        return ExitCode::from(2);
    }
    match teamnet_obs::assemble::assemble(&inputs) {
        Ok(assembled) => {
            for w in &assembled.warnings {
                eprintln!("trace-assemble: warning: {w}");
            }
            if dag {
                print!("{}", assembled.render_dag());
            }
            print!("{}", assembled.critical_path_report());
            println!(
                "{} span(s), {} wire edge(s) across {} node(s)",
                assembled.spans.len(),
                assembled.edges.len(),
                assembled.skews.len()
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("trace-assemble: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run_check(json_mode: bool) -> ExitCode {
    let root = workspace_root();
    let mut diags = Vec::new();
    let mut timings = Vec::new();

    // The workspace is lexed and masked exactly once; every pass below
    // shares the same model instead of re-reading the tree.
    let model = timed(&mut timings, "lex+symbols", || {
        symbols::Model::load_workspace(&root)
    });
    timed(&mut timings, "manifest", || {
        manifest::check(&root, &mut diags)
    });
    let (files, lines) = timed(&mut timings, "lint", || lint::check(&model, &mut diags));
    let configs = timed(&mut timings, "shapes", || shapes::check(&mut diags));

    finish(
        "check",
        json_mode,
        &diags,
        format!(
            "xtask check: OK — manifest audited, {files} files / {lines} lines linted, \
             {configs} model configurations shape-checked [{}]",
            render_timings(&timings)
        ),
    )
}

fn run_cost(check_only: bool, json_mode: bool) -> ExitCode {
    let mut diags = Vec::new();
    let certified = cost::check(check_only, &mut diags);
    let action = if check_only {
        "matches the computed table"
    } else {
        "written"
    };
    finish(
        "cost",
        json_mode,
        &diags,
        format!(
            "xtask cost: OK — {certified} model configuration(s) certified \
             (params / FLOPs / liveness peak / wire bytes); {} {action}; \
             negative control: mis-costed fixture rejected",
            cost::COST_FILE
        ),
    )
}

fn run_audit(json_mode: bool) -> ExitCode {
    let root = workspace_root();
    let mut diags = Vec::new();
    let mut timings = Vec::new();

    // Lex + symbol tables are built once and shared by all five passes.
    let model = timed(&mut timings, "lex+symbols", || {
        symbols::Model::load_workspace(&root)
    });
    let locks = timed(&mut timings, "locks", || locks::check(&model, &mut diags));
    let tainted = timed(&mut timings, "taint", || taint::check(&model, &mut diags));
    let variants = timed(&mut timings, "protocol", || {
        protocol::check(&model, &mut diags)
    });
    let cast_audited = timed(&mut timings, "cast", || cast::check(&model, &mut diags));
    let (dispatch_sites, step_fns) = timed(&mut timings, "fsm-conformance", || {
        conformance::check(&model, &mut diags)
    });
    let send_sites = timed(&mut timings, "trace-propagation", || {
        tracerule::check(&model, &mut diags)
    });

    finish(
        "audit",
        json_mode,
        &diags,
        format!(
            "xtask audit: OK — {} fns / {} call edges modeled; lock order consistent \
             across {locks} lock(s), no lock held across I/O; determinism taint clean \
             over {tainted} reachable fn(s); {variants} protocol variant(s) constructed, \
             dispatched and produced; no unchecked narrowing cast over {cast_audited} \
             wire/cost-reachable fn(s); {dispatch_sites} payload dispatch site(s) \
             confined to core::fsm, {step_fns} step fn(s) fully covered; \
             {send_sites} send site(s) attach trace contexts [{}]",
            model.fns.len(),
            model.call_edge_count(),
            render_timings(&timings)
        ),
    )
}

fn run_mc(json_mode: bool, allow_truncation: bool) -> ExitCode {
    let mut diags = Vec::new();
    let mut timings = Vec::new();
    let lines = timed(&mut timings, "mc", || {
        mc::check(allow_truncation, &mut diags)
    });

    // The explored-state / transition counts are byte-stable run-to-run;
    // anything timing-dependent stays on stderr so stdout can be diffed.
    for line in &lines {
        if json_mode {
            eprintln!("{line}");
        } else {
            println!("{line}");
        }
    }
    eprintln!("xtask mc timings: [{}]", render_timings(&timings));
    finish(
        "mc",
        json_mode,
        &diags,
        "xtask mc: OK — all invariants hold over the explored state space; \
         negative control caught; fault model matches ChaosTransport"
            .to_string(),
    )
}
