//! FSM conformance audit: protocol dispatch must live in the checked
//! state machines (DESIGN.md §15).
//!
//! The model checker (`cargo xtask mc`) only proves anything about the
//! protocol if the *shipping* handlers are the transition functions it
//! drives. A handler that matches on `PayloadKind` outside
//! `crates/core/src/fsm.rs` is protocol logic the explorer never sees —
//! exactly how checked code rots into a parallel spec. Two rules, over
//! **non-test** lines of the `core` crate and of the strategy crates that
//! run on its round (`partition`, `moe`):
//!
//! | rule           | requires                                              |
//! |----------------|-------------------------------------------------------|
//! | `fsm-dispatch` | no `PayloadKind::X` *dispatch* (match arm `=>`,       |
//! |                | or-pattern `\|`, or `if let … =`) outside `fsm.rs`;   |
//! |                | plain construction (`Envelope::new(_, PayloadKind::X, |
//! |                | …)`) and `==`/`!=` comparisons stay legal everywhere  |
//! | `fsm-coverage` | every `fn step` in `fsm.rs` names all `PayloadKind`   |
//! |                | variants (a transition or an explicit typed rejection |
//! |                | per kind) and contains no wildcard `_ =>` arm, which  |
//! |                | would silently swallow new kinds                      |
//!
//! Escapes use the usual `// lint: allow(<rule>)` on the offending line
//! (for `fsm-dispatch`) or on the `fn step` line (for `fsm-coverage`).

use crate::protocol::enum_variants;
use crate::symbols::Model;
use crate::Diagnostic;

const FSM_FILE: &str = "crates/core/src/fsm.rs";
const PAYLOAD_FILE: &str = "crates/net/src/envelope.rs";
const DISPATCH_CRATES: [&str; 3] = ["core", "partition", "moe"];

/// Runs both conformance rules. Returns `(dispatch_sites, step_fns)`
/// audited, for the summary line.
pub fn check(model: &Model, diags: &mut Vec<Diagnostic>) -> (usize, usize) {
    let sites = check_dispatch(model, diags);
    let steps = check_coverage(model, diags);
    (sites, steps)
}

/// `fsm-dispatch`: flags `PayloadKind::<Variant>` used as a dispatch
/// pattern in non-test code of [`DISPATCH_CRATES`] outside `fsm.rs`. Returns the number
/// of `PayloadKind::` sites inspected.
fn check_dispatch(model: &Model, diags: &mut Vec<Diagnostic>) -> usize {
    let mut inspected = 0usize;
    for file in &model.files {
        if !DISPATCH_CRATES.contains(&file.crate_name.as_str()) || file.rel_path == FSM_FILE {
            continue;
        }
        for (idx, line) in file.masked.lines.iter().enumerate() {
            if file.test_mask.get(idx).copied().unwrap_or(false) {
                continue;
            }
            for tail in dispatch_tails(line) {
                inspected += 1;
                if is_dispatch_tail(tail) && !file.masked.is_allowed(idx + 1, "fsm-dispatch") {
                    diags.push(Diagnostic {
                        path: file.rel_path.clone(),
                        line: idx + 1,
                        rule: "fsm-dispatch",
                        message: format!(
                            "`PayloadKind` dispatched outside the checked state machines \
                             ({FSM_FILE}); route this handler through an fsm `step` \
                             function so `cargo xtask mc` can explore it: `{}`",
                            line.trim()
                        ),
                    });
                }
            }
        }
    }
    inspected
}

/// For each `PayloadKind::<Ident>` occurrence on `line`, yields the text
/// immediately following the variant identifier.
fn dispatch_tails(line: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut start = 0usize;
    while let Some(pos) = line.get(start..).and_then(|s| s.find("PayloadKind::")) {
        let after = start + pos + "PayloadKind::".len();
        let rest = line.get(after..).unwrap_or("");
        let ident_len = rest
            .chars()
            .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
            .count();
        if ident_len > 0 {
            out.push(rest.get(ident_len..).unwrap_or(""));
        }
        start = after + ident_len.max(1);
    }
    out
}

/// Whether the text after a `PayloadKind::<Variant>` token marks a
/// dispatch: a match arm (`=>`), an or-pattern (`|`, but not `||` or
/// `|=`), or an `if let` binding (`= ` that is not `==`).
fn is_dispatch_tail(tail: &str) -> bool {
    let t = tail.trim_start();
    if t.starts_with("=>") {
        return true;
    }
    if t.starts_with('|') && !t.starts_with("||") && !t.starts_with("|=") {
        return true;
    }
    // `if let PayloadKind::X = expr` — a `=` not part of `==` / `=>`.
    t.starts_with('=') && !t.starts_with("==") && !t.starts_with("=>")
}

/// `fsm-coverage`: every `fn step` in `fsm.rs` must name every
/// `PayloadKind` variant (transition or explicit typed rejection) and
/// must not contain a wildcard `_ =>` arm. Returns the number of `step`
/// functions audited.
fn check_coverage(model: &Model, diags: &mut Vec<Diagnostic>) -> usize {
    let Some(variants) = enum_variants(model, PAYLOAD_FILE, "PayloadKind") else {
        diags.push(Diagnostic {
            path: PAYLOAD_FILE.to_string(),
            line: 1,
            rule: "fsm-coverage",
            message: "could not locate `pub enum PayloadKind` to audit step coverage".into(),
        });
        return 0;
    };
    let Some(file_idx) = model.files.iter().position(|f| f.rel_path == FSM_FILE) else {
        diags.push(Diagnostic {
            path: FSM_FILE.to_string(),
            line: 1,
            rule: "fsm-coverage",
            message: "protocol state-machine module is missing; \
                      the mc explorer has nothing to drive"
                .into(),
        });
        return 0;
    };
    let file = &model.files[file_idx];
    let mut audited = 0usize;
    for f in &model.fns {
        if f.file != file_idx || f.name != "step" || f.is_test {
            continue;
        }
        let Some((start, end)) = f.body else { continue };
        audited += 1;
        if file.masked.is_allowed(f.line, "fsm-coverage") {
            continue;
        }
        let body = &file.masked.lines[start..=end.min(file.masked.lines.len() - 1)];
        for (variant, _) in &variants {
            let needle = format!("PayloadKind::{variant}");
            let named = body.iter().any(|l| {
                l.find(&needle).is_some_and(|pos| {
                    // Word boundary: `PayloadKind::Load` must not satisfy
                    // coverage of `LoadExpert`.
                    !l[pos + needle.len()..]
                        .chars()
                        .next()
                        .is_some_and(|c| c.is_ascii_alphanumeric() || c == '_')
                })
            });
            if !named {
                diags.push(Diagnostic {
                    path: FSM_FILE.to_string(),
                    line: f.line,
                    rule: "fsm-coverage",
                    message: format!(
                        "fn step has no transition or typed rejection for \
                         `PayloadKind::{variant}`; every kind must be handled explicitly"
                    ),
                });
            }
        }
        for (j, l) in body.iter().enumerate() {
            if l.trim_start().starts_with("_ =>") {
                diags.push(Diagnostic {
                    path: FSM_FILE.to_string(),
                    line: start + j + 1,
                    rule: "fsm-coverage",
                    message: "wildcard `_ =>` arm in an fsm step function would silently \
                              swallow new payload kinds; name each variant explicitly"
                        .into(),
                });
            }
        }
    }
    audited
}

#[cfg(test)]
mod tests {
    use super::*;

    const ENUMS: &str = "pub enum PayloadKind {\n    Input,\n    Result,\n    LoadAck,\n}\n";

    /// A conforming fsm: one step fn naming every variant, no wildcard.
    const GOOD_FSM: &str = "pub fn step() {\n    match kind {\n        PayloadKind::Input => a(),\n        PayloadKind::Result => b(),\n        PayloadKind::LoadAck => reject(),\n    }\n}\n";

    fn run(files: &[(&str, &str, &str)]) -> Vec<Diagnostic> {
        let mut inputs = vec![("net", "crates/net/src/envelope.rs", ENUMS)];
        inputs.extend_from_slice(files);
        let model = Model::build(&inputs);
        let mut diags = Vec::new();
        check(&model, &mut diags);
        diags
    }

    #[test]
    fn conforming_layout_passes() {
        let diags = run(&[
            ("core", "crates/core/src/fsm.rs", GOOD_FSM),
            (
                "core",
                "crates/core/src/runtime.rs",
                "fn shell() {\n    send(Envelope::new(round, PayloadKind::Input, payload));\n    if env.kind != PayloadKind::LoadAck {\n        skip();\n    }\n}\n",
            ),
        ]);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn dispatch_bypass_fixture_is_caught() {
        // The deliberately-bad fixture from the issue: a handler matching
        // payloads directly instead of routing through fsm::step.
        let diags = run(&[
            ("core", "crates/core/src/fsm.rs", GOOD_FSM),
            (
                "core",
                "crates/core/src/shadow.rs",
                "fn rogue_handler(env: Envelope) {\n    match env.kind {\n        PayloadKind::Input => process(env),\n        PayloadKind::Result | PayloadKind::LoadAck => drop(env),\n    }\n}\n",
            ),
        ]);
        let dispatch: Vec<&Diagnostic> =
            diags.iter().filter(|d| d.rule == "fsm-dispatch").collect();
        assert_eq!(dispatch.len(), 3, "{diags:?}");
        assert!(dispatch.iter().all(|d| d.path.ends_with("shadow.rs")));
    }

    #[test]
    fn if_let_dispatch_is_caught_but_comparisons_are_not() {
        let diags = run(&[
            ("core", "crates/core/src/fsm.rs", GOOD_FSM),
            (
                "core",
                "crates/core/src/runtime.rs",
                "fn shell(env: Envelope) {\n    if let PayloadKind::Input = env.kind {\n        go();\n    }\n    let fine = env.kind == PayloadKind::Result;\n}\n",
            ),
        ]);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, "fsm-dispatch");
        assert_eq!(diags[0].line, 2);
    }

    #[test]
    fn dispatch_inside_fsm_and_tests_is_legal() {
        let diags = run(&[
            ("core", "crates/core/src/fsm.rs", GOOD_FSM),
            (
                "core",
                "crates/core/src/runtime.rs",
                "fn shell() {}\n#[cfg(test)]\nmod tests {\n    fn t() {\n        match k {\n            PayloadKind::Input => {}\n            PayloadKind::Result | PayloadKind::LoadAck => {}\n        }\n    }\n}\n",
            ),
        ]);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn incomplete_step_coverage_is_caught() {
        // step handles Input but is silent on Result and LoadAck.
        let diags = run(&[(
            "core",
            "crates/core/src/fsm.rs",
            "pub fn step() {\n    match kind {\n        PayloadKind::Input => a(),\n        other => ignore(other),\n    }\n}\n",
        )]);
        let missing: Vec<&str> = diags
            .iter()
            .filter(|d| d.rule == "fsm-coverage")
            .map(|d| d.message.as_str())
            .collect();
        assert_eq!(missing.len(), 2, "{diags:?}");
        assert!(missing.iter().any(|m| m.contains("PayloadKind::Result")));
        assert!(missing.iter().any(|m| m.contains("PayloadKind::LoadAck")));
    }

    #[test]
    fn wildcard_arm_in_step_is_caught() {
        let diags = run(&[(
            "core",
            "crates/core/src/fsm.rs",
            "pub fn step() {\n    match kind {\n        PayloadKind::Input => a(),\n        PayloadKind::Result => b(),\n        PayloadKind::LoadAck => c(),\n        _ => swallow(),\n    }\n}\n",
        )]);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, "fsm-coverage");
        assert!(diags[0].message.contains("wildcard"));
    }

    #[test]
    fn variant_prefix_does_not_satisfy_coverage() {
        // Naming `LoadAckExtra` must not count as covering `LoadAck`.
        let diags = run(&[(
            "core",
            "crates/core/src/fsm.rs",
            "pub fn step() {\n    match kind {\n        PayloadKind::Input => a(),\n        PayloadKind::Result => b(),\n        PayloadKind::LoadAckExtra => c(),\n        other => reject(other),\n    }\n}\n",
        )]);
        assert!(
            diags
                .iter()
                .any(|d| d.rule == "fsm-coverage" && d.message.contains("`PayloadKind::LoadAck`")),
            "{diags:?}"
        );
    }

    #[test]
    fn missing_fsm_module_is_loud() {
        let diags = run(&[("core", "crates/core/src/runtime.rs", "fn shell() {}\n")]);
        assert!(
            diags
                .iter()
                .any(|d| d.rule == "fsm-coverage" && d.message.contains("missing")),
            "{diags:?}"
        );
    }

    #[test]
    fn allow_escapes_both_rules() {
        let diags = run(&[
            (
                "core",
                "crates/core/src/fsm.rs",
                "// lint: allow(fsm-coverage)\npub fn step() {\n    match kind {\n        PayloadKind::Input => a(),\n        _ => swallow(),\n    }\n}\n",
            ),
            (
                "core",
                "crates/core/src/legacy.rs",
                "fn old(k: PayloadKind) {\n    // lint: allow(fsm-dispatch)\n    if let PayloadKind::Input = k {\n        go();\n    }\n}\n",
            ),
        ]);
        assert!(diags.is_empty(), "{diags:?}");
    }
}
