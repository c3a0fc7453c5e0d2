//! Trace-propagation audit: every envelope / serve-frame send site in
//! `core` and `serve` must attach a trace context (DESIGN.md §17).
//!
//! Cross-node causal tracing only works if *every* hop stamps the frame:
//! one untraced send site and the receiver's spans fall out of the
//! assembled DAG as orphans. The rule is function-scoped over **non-test**
//! lines: a function that sends protocol frames
//! (`transport.send(...)`, `write_serve_frame(...)`,
//! `encode_serve_frame(...)`) must show evidence of trace attachment
//! somewhere in its body — `encode_traced(`, a `_traced(`
//! variant, `send_ctx(`, `current_ctx(` or `send_event(`.
//!
//! | exempt                       | why                                    |
//! |------------------------------|----------------------------------------|
//! | `crates/core/src/fsm.rs`     | pure FSMs are trace-free by design     |
//! |                              | (§15); their IO shells attach contexts |
//! | sends of a literal `&[]`     | raw unenveloped frames (shutdown)      |
//! | `// lint: allow(trace-propagation)` | pass-through helpers whose      |
//! |                              | callers pre-stamp the payload          |

use crate::symbols::Model;
use crate::Diagnostic;

const FSM_FILE: &str = "crates/core/src/fsm.rs";
const RULE: &str = "trace-propagation";

/// Send-site anchors: calls that put a protocol frame on the wire.
const ANCHORS: [&str; 3] = [
    "transport.send(",
    "write_serve_frame(",
    "encode_serve_frame(",
];

/// Evidence that the enclosing function attaches a trace context.
const EVIDENCE: [&str; 5] = [
    "encode_traced(",
    "_traced(",
    "send_ctx(",
    "current_ctx(",
    "send_event(",
];

/// Runs the rule over the `core` and `serve` crates. Returns the number
/// of send sites audited, for the summary line.
pub fn check(model: &Model, diags: &mut Vec<Diagnostic>) -> usize {
    let mut audited = 0usize;
    for f in &model.fns {
        if f.is_test {
            continue;
        }
        let Some(file) = model.files.get(f.file) else {
            continue;
        };
        let in_scope =
            (file.crate_name == "core" && file.rel_path != FSM_FILE) || file.crate_name == "serve";
        if !in_scope {
            continue;
        }
        let Some((start, end)) = f.body else { continue };
        let end = end.min(file.masked.lines.len().saturating_sub(1));
        let body = &file.masked.lines[start..=end];
        let has_evidence = body.iter().any(|l| EVIDENCE.iter().any(|e| l.contains(e)));
        for (j, line) in body.iter().enumerate() {
            let idx = start + j;
            if file.test_mask.get(idx).copied().unwrap_or(false) {
                continue;
            }
            if !ANCHORS.iter().any(|a| anchors_call(line, a)) {
                continue;
            }
            audited += 1;
            // Raw unenveloped frames (shutdown pings) carry no trace.
            if line.contains("&[]") {
                continue;
            }
            if has_evidence || file.masked.is_allowed(idx + 1, RULE) {
                continue;
            }
            diags.push(Diagnostic {
                path: file.rel_path.clone(),
                line: idx + 1,
                rule: RULE,
                message: format!(
                    "protocol frame sent without attaching a trace context; stamp it \
                     (`encode_traced` / a `_traced` frame writer) so the \
                     receiver's spans stay connected in the assembled cross-node DAG: `{}`",
                    line.trim()
                ),
            });
        }
    }
    audited
}

/// Whether `line` calls `anchor` itself (not a `_traced` superset of it):
/// the match must not be immediately preceded by an identifier character
/// and the anchor text itself must end at the `(`.
fn anchors_call(line: &str, anchor: &str) -> bool {
    let mut from = 0usize;
    while let Some(pos) = line.get(from..).and_then(|s| s.find(anchor)) {
        let at = from + pos;
        let preceded = at > 0
            && line[..at]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_ascii_alphanumeric() || c == '_');
        if !preceded {
            return true;
        }
        from = at + anchor.len();
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(files: &[(&str, &str, &str)]) -> Vec<Diagnostic> {
        let model = Model::build(files);
        let mut diags = Vec::new();
        check(&model, &mut diags);
        diags
    }

    #[test]
    fn traced_send_sites_pass() {
        let diags = run(&[(
            "core",
            "crates/core/src/runtime.rs",
            "fn shell(t: &dyn Transport) {\n    let ctx = obs.tracer.current_ctx(trace_id);\n    let payload = env.encode_traced(ctx);\n    transport.send(peer, TAG_INPUT, &payload).unwrap();\n}\n",
        )]);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn untraced_send_fixture_is_caught() {
        // The deliberately-bad fixture from the issue: an envelope encoded
        // and sent with no trace context anywhere in the function.
        let diags = run(&[(
            "core",
            "crates/core/src/rogue.rs",
            "fn rogue(t: &dyn Transport) {\n    let payload = Envelope::new(round, PayloadKind::Input, body).encode();\n    transport.send(peer, TAG_INPUT, &payload).unwrap();\n}\n",
        )]);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, RULE);
        assert_eq!(diags[0].line, 3);
    }

    #[test]
    fn untraced_serve_frame_is_caught_and_traced_writer_passes() {
        let diags = run(&[(
            "serve",
            "crates/serve/src/rogue.rs",
            "fn reply(w: &mut dyn Write) {\n    write_serve_frame(w, ServeMsgKind::Reply, id, &payload).unwrap();\n}\nfn reply_traced(w: &mut dyn Write) {\n    write_serve_frame_traced(w, ServeMsgKind::Reply, id, ctx, &payload).unwrap();\n}\n",
        )]);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].line, 2);
    }

    #[test]
    fn fsm_raw_frames_tests_and_allow_are_exempt() {
        let diags = run(&[
            // Pure FSMs are out of scope entirely.
            (
                "core",
                "crates/core/src/fsm.rs",
                "fn emit(t: &dyn Transport) {\n    transport.send(peer, TAG_INPUT, &frame.encode()).unwrap();\n}\n",
            ),
            // A raw `&[]` frame (shutdown) has no envelope to stamp.
            (
                "core",
                "crates/core/src/runtime.rs",
                "fn shutdown(t: &dyn Transport) {\n    transport.send(peer, TAG_SHUTDOWN, &[]).unwrap();\n}\n#[cfg(test)]\nmod tests {\n    fn t() {\n        transport.send(0, TAG_INPUT, &payload).unwrap();\n    }\n}\n",
            ),
            // Pass-through helper whose caller pre-stamps the payload.
            (
                "core",
                "crates/core/src/retry.rs",
                "fn forward(t: &dyn Transport, payload: &[u8]) {\n    // lint: allow(trace-propagation)\n    transport.send(peer, TAG_INPUT, payload).unwrap();\n}\n",
            ),
        ]);
        assert!(diags.is_empty(), "{diags:?}");
    }
}
