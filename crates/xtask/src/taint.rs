//! Determinism taint audit: flags sources of run-to-run nondeterminism
//! reachable from the protocol and simulation paths.
//!
//! A seeded chaos run is only replayable if nothing on the protocol path
//! consults hasher state, the wall clock, or OS entropy. This pass walks
//! the call graph from the **determinism roots** — envelope/codec
//! encode/decode, entropy scoring, the master inference runtime, and the
//! whole simulator — and rejects, in any reachable non-test function:
//!
//! | rule        | rejects                                               |
//! |-------------|-------------------------------------------------------|
//! | `det-map`   | `HashMap`/`HashSet` (unseeded hasher ⇒ iteration and  |
//! |             | tie-break order varies per process)                   |
//! | `det-clock` | `Instant::now()` / `SystemTime::now()` (wall-clock    |
//! |             | reads belong behind the injectable `Clock`)           |
//! | `det-rng`   | `thread_rng()` / `from_entropy()` / `rand::random()`  |
//! |             | (OS-seeded randomness; use a seeded StdRng)           |
//! | `det-sleep` | `thread::sleep(` (a sleep on a protocol path is time  |
//! |             | no injected `Clock` can fake; treat a timed-out wait  |
//! |             | as a miss instead)                                    |
//!
//! Escape with a statement-scoped `// lint: allow(<rule>)` comment at the
//! site — e.g. the single sanctioned `Instant::now()` inside
//! `SystemClock` and the condvar wall-clock deadlines in the mailbox.
//!
//! Reachability is the name-based over-approximation of
//! [`crate::symbols`]: it may pull in unrelated same-named functions
//! (extra scrutiny, harmless) but cannot follow function pointers or
//! macro-generated calls (documented in DESIGN.md §10).

use crate::symbols::Model;
use crate::Diagnostic;

/// Files whose functions seed the reachability walk. Everything under
/// `crates/simnet/src/` and `crates/obs/src/` is a root as well: the
/// simulator for replayability, the observability crate because a wall
/// clock smuggled into a tracer or sink would silently break the
/// byte-identical trace contract of `tests/obs_determinism.rs`.
const ROOT_FILES: &[&str] = &[
    "crates/net/src/envelope.rs",
    "crates/net/src/codec.rs",
    "crates/core/src/entropy.rs",
    "crates/core/src/runtime.rs",
    // The IO shell both of them send and receive through: its router and
    // its receive wait sit on every round's path.
    "crates/core/src/shell.rs",
    // The recovery subsystem must re-place experts identically across
    // identical seeds: a wall-clock or hasher here would break the
    // byte-identical transcripts of `tests/recovery_soak.rs`.
    "crates/core/src/recover.rs",
    "crates/tensor/src/pool.rs",
    // The resource certificate must be byte-stable across runs: a clock,
    // hasher or entropy read here would make `cargo xtask cost --check`
    // flap.
    "crates/nn/src/cost.rs",
];

const SIMNET_PREFIX: &str = "crates/simnet/src/";
const OBS_PREFIX: &str = "crates/obs/src/";
/// The serving front-end is a root too: every admission decision and
/// flush trigger reads the injected `Clock`, and `tests/serve_soak.rs`
/// asserts byte-identical trace/metrics transcripts across identical
/// seeds — a wall-clock or hasher anywhere in the serve path breaks it.
const SERVE_PREFIX: &str = "crates/serve/src/";

/// Runs the taint pass, appending diagnostics. Returns the number of
/// reachable functions audited (for the summary line).
pub fn check(model: &Model, diags: &mut Vec<Diagnostic>) -> usize {
    let (reachable, lines) = model.reachable_lines(|sf| {
        ROOT_FILES.contains(&sf.rel_path.as_str())
            || sf.rel_path.starts_with(SIMNET_PREFIX)
            || sf.rel_path.starts_with(OBS_PREFIX)
            || sf.rel_path.starts_with(SERVE_PREFIX)
    });
    for (idx, file, lineno, line) in lines {
        for (rule, pattern, why) in RULES {
            if line.contains(pattern) && !file.masked.is_allowed(lineno, rule) {
                diags.push(Diagnostic {
                    path: file.rel_path.clone(),
                    line: lineno,
                    rule,
                    message: format!(
                        "{why} (in `{}`, reachable from a determinism root)",
                        model.fn_display(idx)
                    ),
                });
            }
        }
    }
    reachable
}

type Rule = (&'static str, &'static str, &'static str);

const RULES: &[Rule] = &[
    (
        "det-map",
        "HashMap",
        "HashMap iteration order depends on unseeded hasher state; use BTreeMap",
    ),
    (
        "det-map",
        "HashSet",
        "HashSet iteration order depends on unseeded hasher state; use BTreeSet",
    ),
    (
        "det-clock",
        "Instant::now()",
        "wall-clock read on a protocol path; take time from the injected Clock",
    ),
    (
        "det-clock",
        "SystemTime::now()",
        "wall-clock read on a protocol path; take time from the injected Clock",
    ),
    (
        "det-rng",
        "thread_rng(",
        "OS-seeded randomness on a protocol path; use a seeded StdRng",
    ),
    (
        "det-rng",
        "from_entropy(",
        "OS-seeded randomness on a protocol path; use a seeded StdRng",
    ),
    (
        "det-rng",
        "rand::random(",
        "OS-seeded randomness on a protocol path; use a seeded StdRng",
    ),
    (
        "det-sleep",
        "thread::sleep(",
        "sleep on a protocol path; no injected Clock can fake it — wait on a deadline instead",
    ),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbols::Model;

    fn run(files: &[(&str, &str, &str)]) -> Vec<Diagnostic> {
        let model = Model::build(files);
        let mut diags = Vec::new();
        check(&model, &mut diags);
        diags
    }

    #[test]
    fn hashmap_reachable_from_a_root_is_caught() {
        // decode (a root file fn) calls pick, which iterates a HashMap.
        let diags = run(&[(
            "net",
            "crates/net/src/envelope.rs",
            "pub fn decode(b: u8) {\n    pick(b);\n}\n\
             fn pick(b: u8) {\n    let m: HashMap<u8, u8> = make();\n    m.iter();\n}\n",
        )]);
        assert!(
            diags.iter().any(|d| d.rule == "det-map" && d.line == 5),
            "{diags:?}"
        );
    }

    #[test]
    fn unreachable_nondeterminism_is_not_flagged() {
        let diags = run(&[(
            "net",
            "crates/net/src/tcp.rs",
            "fn connect_helper() {\n    let d = Instant::now();\n    use_it(d);\n}\n",
        )]);
        assert!(diags.is_empty(), "tcp.rs is not a root: {diags:?}");
    }

    #[test]
    fn clock_read_is_caught_and_escapable() {
        let diags = run(&[(
            "core",
            "crates/core/src/runtime.rs",
            "pub fn infer() {\n    let bad = Instant::now();\n    \
             // lint: allow(det-clock)\n    let fine = Instant::now();\n    use_both(bad, fine);\n}\n",
        )]);
        let clock: Vec<_> = diags.iter().filter(|d| d.rule == "det-clock").collect();
        assert_eq!(clock.len(), 1, "{diags:?}");
        assert_eq!(clock[0].line, 2);
    }

    #[test]
    fn rng_reachable_through_a_method_call_is_caught() {
        // simnet files are roots wholesale; the rng sits one hop away in
        // another crate, reached by method-name resolution.
        let diags = run(&[
            (
                "simnet",
                "crates/simnet/src/sim.rs",
                "pub fn step(&mut self) {\n    self.link.jitter();\n}\n",
            ),
            (
                "net",
                "crates/net/src/faults.rs",
                "pub fn jitter(&self) -> u64 {\n    thread_rng().gen()\n}\n",
            ),
        ]);
        assert!(
            diags
                .iter()
                .any(|d| d.rule == "det-rng" && d.path.ends_with("faults.rs")),
            "{diags:?}"
        );
    }

    #[test]
    fn wall_clock_smuggled_into_a_trace_sink_is_caught() {
        // Deliberately-bad fixture: a sink that stamps records with
        // `Instant::now()` would desynchronize two identical seeded runs —
        // every obs file is a taint root, so the pass must flag it.
        let diags = run(&[(
            "obs",
            "crates/obs/src/trace.rs",
            "pub fn record(&self, line: &str) {\n    \
             let stamp = Instant::now();\n    self.push(stamp, line);\n}\n",
        )]);
        assert!(
            diags
                .iter()
                .any(|d| d.rule == "det-clock" && d.path.ends_with("trace.rs") && d.line == 2),
            "{diags:?}"
        );
    }

    #[test]
    fn hashmap_in_a_metrics_registry_is_caught() {
        let diags = run(&[(
            "obs",
            "crates/obs/src/metrics.rs",
            "pub fn snapshot(&self) {\n    \
             let m: HashMap<String, u64> = gather();\n    emit(m);\n}\n",
        )]);
        assert!(
            diags.iter().any(|d| d.rule == "det-map" && d.line == 2),
            "{diags:?}"
        );
    }

    #[test]
    fn a_sleep_reachable_from_a_root_is_caught_and_escapable() {
        // infer (a root file fn) calls pause, which sleeps; the escaped
        // sleep in the same fn is let through.
        let diags = run(&[(
            "core",
            "crates/core/src/recover.rs",
            "pub fn tick() {\n    pause();\n}\n\
             fn pause() {\n    std::thread::sleep(D);\n    \
             // lint: allow(det-sleep)\n    std::thread::sleep(D);\n}\n",
        )]);
        let sleeps: Vec<_> = diags.iter().filter(|d| d.rule == "det-sleep").collect();
        assert_eq!(sleeps.len(), 1, "{diags:?}");
        assert_eq!(sleeps[0].line, 5);
    }

    #[test]
    fn test_code_is_exempt() {
        let diags = run(&[(
            "core",
            "crates/core/src/runtime.rs",
            "pub fn infer() {\n    ok();\n}\n\
             #[cfg(test)]\nmod tests {\n    fn t() {\n        let x = Instant::now();\n    }\n}\n",
        )]);
        assert!(diags.is_empty(), "{diags:?}");
    }
}
