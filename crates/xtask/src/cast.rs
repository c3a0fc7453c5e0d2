//! Narrowing-cast audit: flags unchecked truncating `as` casts on the
//! wire-format and resource-certification paths.
//!
//! A `usize as u32` silently wraps on 64-bit hosts: a frame length, tensor
//! dimension or byte count above `u32::MAX` would encode as garbage and
//! the receiver would mis-frame every following byte. The same failure
//! mode corrupts a resource certificate, where a truncated byte count
//! turns an honest upper bound into an under-estimate that admits an
//! expert onto a device it cannot fit on. This pass walks the call graph
//! from the codec, envelope and cost-model roots and rejects, in any
//! reachable non-test function, an `as` cast to a type of 32 bits or
//! fewer (rule `cast-truncate`).
//!
//! Casts that are provably in range — guarded by an explicit bounds
//! assertion, or reading a value that entered as the target type — are
//! escaped with a statement-scoped `// lint: allow(cast-truncate)`
//! comment citing the guard, exactly like the determinism-taint escapes.
//!
//! Reachability is the name-based over-approximation of
//! [`crate::symbols`] (DESIGN.md §10): it may audit unrelated same-named
//! functions, which is extra scrutiny, not a false *negative*.

use crate::symbols::Model;
use crate::Diagnostic;

/// Files whose functions seed the reachability walk: everything that
/// serializes bytes for the wire, plus the static cost model whose
/// numbers gate device admission.
const ROOT_FILES: &[&str] = &[
    "crates/net/src/codec.rs",
    "crates/net/src/envelope.rs",
    "crates/nn/src/cost.rs",
];

/// Target types whose `as` casts can drop bits from the wider integers
/// (`usize`/`u64`/`i64`) these paths compute with.
const NARROW_TARGETS: &[&str] = &["u8", "u16", "u32", "i8", "i16", "i32"];

/// Runs the pass, appending diagnostics. Returns the number of reachable
/// functions audited (for the summary line).
pub fn check(model: &Model, diags: &mut Vec<Diagnostic>) -> usize {
    let (reachable, lines) = model.reachable_lines(|sf| ROOT_FILES.contains(&sf.rel_path.as_str()));
    for (idx, file, lineno, line) in lines {
        if file.masked.is_allowed(lineno, "cast-truncate") {
            continue;
        }
        for target in narrowing_casts(line) {
            diags.push(Diagnostic {
                path: file.rel_path.clone(),
                line: lineno,
                rule: "cast-truncate",
                message: format!(
                    "narrowing `as {target}` can silently truncate (in `{}`, reachable \
                     from a wire/cost root); bounds-check first, then \
                     `// lint: allow(cast-truncate)` citing the guard",
                    model.fn_display(idx)
                ),
            });
        }
    }
    reachable
}

/// The narrowing target types cast to on `line`, word-bounded on both
/// sides so `as usize` or an identifier like `as_u32` never matches.
fn narrowing_casts(line: &str) -> Vec<&'static str> {
    let mut hits = Vec::new();
    for &target in NARROW_TARGETS {
        let needle = format!(" as {target}");
        let mut from = 0usize;
        while let Some(pos) = line.get(from..).and_then(|rest| rest.find(&needle)) {
            let at = from + pos;
            let end = at + needle.len();
            let bounded = line
                .get(end..)
                .and_then(|rest| rest.chars().next())
                .map_or(true, |c| !c.is_alphanumeric() && c != '_');
            if bounded && !hits.contains(&target) {
                hits.push(target);
            }
            from = end;
        }
    }
    hits
}

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
    fn narrowing_cast_in_a_root_is_caught() {
        // Deliberately-bad fixture: an unchecked length truncation in the
        // frame encoder, the exact bug class the rule exists for.
        let diags = run(&[(
            "net",
            "crates/net/src/codec.rs",
            "pub fn encode_frame(payload: &[u8]) {\n    \
             let len = payload.len() as u32;\n    put(len);\n}\n",
        )]);
        assert!(
            diags
                .iter()
                .any(|d| d.rule == "cast-truncate" && d.line == 2),
            "{diags:?}"
        );
    }

    #[test]
    fn cast_reachable_through_a_call_is_caught() {
        let diags = run(&[
            (
                "nn",
                "crates/nn/src/cost.rs",
                "pub fn framed_tensor_bytes(&self, dims: &[usize]) -> u64 {\n    \
                 header_field(dims.len())\n}\n",
            ),
            (
                "nn",
                "crates/nn/src/helpers.rs",
                "pub fn header_field(n: usize) -> u64 {\n    (n as u16).into()\n}\n",
            ),
        ]);
        assert!(
            diags
                .iter()
                .any(|d| d.rule == "cast-truncate" && d.path.ends_with("helpers.rs")),
            "{diags:?}"
        );
    }

    #[test]
    fn allow_comment_escapes_a_guarded_cast() {
        let diags = run(&[(
            "net",
            "crates/net/src/codec.rs",
            "pub fn encode_frame(payload: &[u8]) {\n    \
             assert!(payload.len() <= MAX_FRAME_LEN);\n    \
             // lint: allow(cast-truncate)\n    \
             let len = payload.len() as u32;\n    put(len);\n}\n",
        )]);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn unreachable_and_test_casts_are_exempt() {
        let diags = run(&[(
            "net",
            "crates/net/src/tcp.rs",
            "fn helper(n: usize) -> u32 {\n    n as u32\n}\n\
             #[cfg(test)]\nmod tests {\n    fn t(n: usize) -> u8 {\n        n as u8\n    }\n}\n",
        )]);
        assert!(diags.is_empty(), "tcp.rs is not a root: {diags:?}");
    }

    #[test]
    fn widening_and_lookalike_tokens_do_not_match() {
        assert!(narrowing_casts("let x = n as u64;").is_empty());
        assert!(narrowing_casts("let x = n as usize;").is_empty());
        assert!(narrowing_casts("let x = v.as_u32();").is_empty());
        assert_eq!(narrowing_casts("let x = n as u32;"), vec!["u32"]);
        assert_eq!(narrowing_casts("(n as u8, m as i16)"), vec!["u8", "i16"]);
    }
}
