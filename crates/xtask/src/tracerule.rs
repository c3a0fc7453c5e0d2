//! Trace-propagation audit: every envelope / serve-frame send site in
//! `core` and `serve` must attach a trace context (DESIGN.md §17), and
//! the strategy crates (`partition`, `moe`) must not touch the wire at
//! all.
//!
//! Cross-node causal tracing only works if *every* hop stamps the frame:
//! one untraced send site and the receiver's spans fall out of the
//! assembled DAG as orphans. Over **non-test** lines:
//!
//! * in `core`, an enveloped `transport.send(...)` may appear in exactly
//!   one place — `fn send` of the IO shell (`crates/core/src/shell.rs`),
//!   which every master and worker send goes through and which records
//!   the stamp it finds on the frame. Any other site is a diagnostic;
//! * in `serve`, a function that writes or encodes a frame
//!   (`write_serve_frame(...)`, `encode_serve_frame(...)`) must show
//!   where the context it passes comes from;
//! * in `partition` and `moe`, whose strategies run on core's round
//!   (DESIGN.md §18), any `transport.send(...)` and any transport
//!   receive (`.recv(`) is a private loop coming back: it would know
//!   nothing of round stamps, the one deadline, health or tracing.
//!
//! Evidence of trace attachment in a function body is a context derived
//! from the open span (`current_ctx(`), a fresh trace id
//! (`derive_trace_id(`) or the recorded send half of the edge
//! (`send_event(`).
//!
//! | exempt                       | why                                    |
//! |------------------------------|----------------------------------------|
//! | `crates/core/src/fsm.rs`     | pure FSMs are trace-free by design     |
//! |                              | (§15); the IO shell attaches contexts  |
//! | `// lint: allow(trace-propagation)` | a reasoned, statement-scoped    |
//! |                              | exception                              |

use crate::symbols::Model;
use crate::Diagnostic;

const FSM_FILE: &str = "crates/core/src/fsm.rs";
/// The one core file — and function — allowed to call `transport.send(`.
const SHELL_FILE: &str = "crates/core/src/shell.rs";
const SHELL_SEND_FN: &str = "send";
const RULE: &str = "trace-propagation";

/// Send-site anchors: calls that put a protocol frame on the wire.
const ANCHORS: [&str; 3] = [
    "transport.send(",
    "write_serve_frame(",
    "encode_serve_frame(",
];

/// Crates whose strategies run on core's round and own no wire access.
const STRATEGY_CRATES: [&str; 2] = ["partition", "moe"];

/// The transport receive: legal in core's shell and worker loop, a
/// private receive loop anywhere in a strategy crate.
const RECV_ANCHOR: &str = ".recv(";

/// Evidence that the enclosing function attaches a trace context.
const EVIDENCE: [&str; 3] = ["current_ctx(", "derive_trace_id(", "send_event("];

/// Runs the rule over the `core`, `serve` and strategy crates. Returns
/// the number of send sites audited, for the summary line.
pub fn check(model: &Model, diags: &mut Vec<Diagnostic>) -> usize {
    let mut audited = 0usize;
    for f in &model.fns {
        if f.is_test {
            continue;
        }
        let Some(file) = model.files.get(f.file) else {
            continue;
        };
        let in_core = file.crate_name == "core" && file.rel_path != FSM_FILE;
        let in_strategy = STRATEGY_CRATES.contains(&file.crate_name.as_str());
        if !in_core && !in_strategy && file.crate_name != "serve" {
            continue;
        }
        let Some((start, end)) = f.body else { continue };
        let end = end.min(file.masked.lines.len().saturating_sub(1));
        let body = &file.masked.lines[start..=end];
        let has_evidence = body.iter().any(|l| EVIDENCE.iter().any(|e| l.contains(e)));
        // In core only the shell's send function may touch the wire.
        let is_sanctioned = !in_core || (file.rel_path == SHELL_FILE && f.name == SHELL_SEND_FN);
        for (j, line) in body.iter().enumerate() {
            let idx = start + j;
            if file.test_mask.get(idx).copied().unwrap_or(false) {
                continue;
            }
            let sends = ANCHORS.iter().any(|a| anchors_call(line, a));
            let receives = in_strategy && line.contains(RECV_ANCHOR);
            if !sends && !receives {
                continue;
            }
            audited += 1;
            if in_strategy {
                if !file.masked.is_allowed(idx + 1, RULE) {
                    diags.push(Diagnostic {
                        path: file.rel_path.clone(),
                        line: idx + 1,
                        rule: RULE,
                        message: format!(
                            "a strategy crate touches the wire; run the step as an \
                             `Exchange` on `InferenceSession::round` and serve the peer with \
                             `serve_worker_with_config`, which stamp, retry, time out and \
                             trace every frame: `{}`",
                            line.trim()
                        ),
                    });
                }
                continue;
            }
            if (is_sanctioned && has_evidence) || file.masked.is_allowed(idx + 1, RULE) {
                continue;
            }
            let message = if is_sanctioned {
                format!(
                    "protocol frame sent without attaching a trace context; pass one derived \
                     from the open span (`current_ctx`) so the receiver's spans stay connected \
                     in the assembled cross-node DAG: `{}`",
                    line.trim()
                )
            } else {
                format!(
                    "envelope sent around the IO shell; call `shell::send` (the one audited \
                     `transport.send` in core), which records the frame's trace stamp: `{}`",
                    line.trim()
                )
            };
            diags.push(Diagnostic {
                path: file.rel_path.clone(),
                line: idx + 1,
                rule: RULE,
                message,
            });
        }
    }
    audited
}

/// Whether `line` calls `anchor` itself (not a longer name ending in it,
/// and not the anchor's own `fn` definition): the match must not be
/// immediately preceded by an identifier character or the `fn` keyword,
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
        if !preceded && !line[..at].ends_with("fn ") {
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
    fn the_shell_send_function_passes() {
        let diags = run(&[(
            "core",
            "crates/core/src/shell.rs",
            "fn send(t: &dyn Transport, frame: &[u8]) {\n    transport.send(to, tag, frame).unwrap();\n    if let Some(ctx) = peek_trace(frame) {\n        obs.tracer.send_event(label, to, ctx, len);\n    }\n}\n",
        )]);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn a_second_send_site_is_caught_even_in_the_shell_file() {
        // Stamped or not: only `fn send` of the shell touches the wire.
        let diags = run(&[(
            "core",
            "crates/core/src/shell.rs",
            "fn sneak(t: &dyn Transport) {\n    let ctx = obs.tracer.current_ctx(trace_id);\n    transport.send(peer, TAG_INPUT, &msg.encode(Some(ctx))).unwrap();\n}\n",
        )]);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].line, 3);
        assert!(diags[0].message.contains("shell::send"), "{diags:?}");
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
            "fn reply(w: &mut dyn Write) {\n    write_serve_frame(w, ServeMsgKind::Reply, id, None, &payload).unwrap();\n}\nfn reply_traced(w: &mut dyn Write) {\n    let ctx = frame.trace.map(|c| obs.tracer.current_ctx(c.trace_id));\n    write_serve_frame(w, ServeMsgKind::Reply, id, ctx, &payload).unwrap();\n}\npub fn write_serve_frame(w: &mut dyn Write) {\n    write_all_vectored(w, &head, payload).unwrap();\n}\n",
        )]);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].line, 2);
    }

    #[test]
    fn a_strategy_crate_may_not_send_or_receive_at_all() {
        // The private worker loop this rule keeps out: a raw input
        // receive, an unstamped reply, a raw stop frame.
        let diags = run(&[(
            "partition",
            "crates/partition/src/branch.rs",
            "fn serve(t: &dyn Transport) {\n    let x = transport.recv(master, TAG_IN, POLL);\n    transport.send(master, TAG_OUT, &reply).unwrap();\n    transport.send(master, TAG_STOP, &[]).unwrap();\n}\nfn fine(s: &mut InferenceSession) {\n    session.round(transport, exchange).unwrap();\n}\n",
        )]);
        assert_eq!(diags.len(), 3, "{diags:?}");
        assert!(diags
            .iter()
            .all(|d| d.rule == RULE && d.message.contains("Exchange")));
    }

    #[test]
    fn a_raw_empty_frame_in_core_is_caught() {
        // No frame in core goes out unenveloped: even the shutdown is an
        // envelope sent through the shell.
        let diags = run(&[(
            "core",
            "crates/core/src/runtime.rs",
            "fn shutdown(t: &dyn Transport) {\n    transport.send(peer, TAG_INPUT, &[]).unwrap();\n}\n",
        )]);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("shell::send"), "{diags:?}");
    }

    #[test]
    fn fsm_tests_and_allow_are_exempt() {
        let diags = run(&[
            // Pure FSMs are out of scope entirely.
            (
                "core",
                "crates/core/src/fsm.rs",
                "fn emit(t: &dyn Transport) {\n    transport.send(peer, TAG_INPUT, &frame.encode(None)).unwrap();\n}\n",
            ),
            // Test code may drive the wire directly.
            (
                "core",
                "crates/core/src/runtime.rs",
                "#[cfg(test)]\nmod tests {\n    fn t() {\n        transport.send(0, TAG_INPUT, &payload).unwrap();\n    }\n}\n",
            ),
            // A reasoned, statement-scoped exception.
            (
                "core",
                "crates/core/src/retry.rs",
                "fn forward(t: &dyn Transport, payload: &[u8]) {\n    // lint: allow(trace-propagation)\n    transport.send(peer, TAG_INPUT, payload).unwrap();\n}\n",
            ),
        ]);
        assert!(diags.is_empty(), "{diags:?}");
    }
}
