//! Protocol exhaustiveness audit: wire-enum variants must be exercised.
//!
//! The wire protocol is only as tested as the variants that actually
//! flow through it. A `PayloadKind` that nothing constructs is dead wire
//! format; one the master's dispatch never handles is a silent drop when
//! a peer sends it; a `NetError` nothing produces is an error path the
//! fault-tolerance tests can never reach. This pass parses the two
//! protocol enums and checks, over **non-test** lines only:
//!
//! | rule                  | requires                                        |
//! |-----------------------|-------------------------------------------------|
//! | `protocol-constructed`| each `PayloadKind` variant is built somewhere   |
//! |                       | *outside* `envelope.rs` (the defining file and  |
//! |                       | its wire codec don't count as real producers)   |
//! | `protocol-handled`    | each `PayloadKind` variant is matched in the    |
//! |                       | protocol state machines, `crates/core/src/fsm.rs`|
//! | `error-produced`      | each `NetError` variant is constructed outside  |
//! |                       | `error.rs` (its `Display`/`From` impls within   |
//! |                       | the defining file don't count)                  |
//!
//! Known over-approximation: a `PayloadKind::X` in a match *pattern*
//! counts as "constructed" — we accept that because every current
//! variant that is matched is also genuinely built, and distinguishing
//! the two needs real parsing (DESIGN.md §10). Escapes use the usual
//! `// lint: allow(<rule>)` on the variant's definition line.

use crate::symbols::Model;
use crate::Diagnostic;

const PAYLOAD_FILE: &str = "crates/net/src/envelope.rs";
const ERROR_FILE: &str = "crates/net/src/error.rs";
const DISPATCH_FILE: &str = "crates/core/src/fsm.rs";
const SERVE_WIRE_FILE: &str = "crates/serve/src/wire.rs";
const SERVE_ERROR_FILE: &str = "crates/serve/src/error.rs";
const SERVE_DISPATCH_FILE: &str = "crates/serve/src/tcp.rs";

/// Runs the exhaustiveness pass. Returns the number of enum variants
/// audited (for the summary line).
pub fn check(model: &Model, diags: &mut Vec<Diagnostic>) -> usize {
    let mut audited = 0;
    audited += check_enum(
        model,
        diags,
        "PayloadKind",
        PAYLOAD_FILE,
        &[
            Requirement {
                rule: "protocol-constructed",
                scope: Scope::AnywhereExceptDefiningFile,
                missing: "is never constructed outside its defining file; dead wire format?",
            },
            Requirement {
                rule: "protocol-handled",
                scope: Scope::OnlyIn(DISPATCH_FILE),
                missing:
                    "is never handled in the protocol state machines (crates/core/src/fsm.rs); \
                          peers sending it would be silently dropped",
            },
        ],
    );
    audited += check_enum(
        model,
        diags,
        "NetError",
        ERROR_FILE,
        &[Requirement {
            rule: "error-produced",
            scope: Scope::AnywhereExceptDefiningFile,
            missing: "is never produced outside its defining file; unreachable error path",
        }],
    );
    audited += check_enum(
        model,
        diags,
        "ServeMsgKind",
        SERVE_WIRE_FILE,
        &[
            Requirement {
                rule: "protocol-constructed",
                scope: Scope::AnywhereExceptDefiningFile,
                missing:
                    "is never constructed outside its defining file; dead serving wire format?",
            },
            Requirement {
                rule: "protocol-handled",
                scope: Scope::OnlyIn(SERVE_DISPATCH_FILE),
                missing: "is never handled by the serving front-end (crates/serve/src/tcp.rs); \
                          clients sending it would be silently dropped",
            },
        ],
    );
    audited += check_enum(
        model,
        diags,
        "ServeError",
        SERVE_ERROR_FILE,
        &[Requirement {
            rule: "error-produced",
            scope: Scope::AnywhereExceptDefiningFile,
            missing: "is never produced outside its defining file; unreachable rejection path",
        }],
    );
    audited
}

struct Requirement {
    rule: &'static str,
    scope: Scope,
    missing: &'static str,
}

enum Scope {
    /// `Enum::Variant` must appear in some non-test line of any file
    /// other than the one defining the enum.
    AnywhereExceptDefiningFile,
    /// `Enum::Variant` must appear in a non-test line of this file.
    OnlyIn(&'static str),
}

fn check_enum(
    model: &Model,
    diags: &mut Vec<Diagnostic>,
    enum_name: &str,
    defining_file: &str,
    reqs: &[Requirement],
) -> usize {
    // A defining file absent from the model altogether means the model
    // is a partial fixture (the unit tests below); a present file whose
    // enum cannot be found means the audit anchor rotted — diagnose it.
    let Some(def_idx) = model.files.iter().position(|f| f.rel_path == defining_file) else {
        return 0;
    };
    let Some(variants) = enum_variants(model, defining_file, enum_name) else {
        diags.push(Diagnostic {
            path: defining_file.to_string(),
            line: 1,
            rule: "protocol-constructed",
            message: format!("could not locate `pub enum {enum_name}` to audit"),
        });
        return 0;
    };
    for (variant, def_line) in &variants {
        let needle = format!("{enum_name}::{variant}");
        for req in reqs {
            let found = model.files.iter().enumerate().any(|(idx, file)| {
                match req.scope {
                    Scope::AnywhereExceptDefiningFile => {
                        if idx == def_idx {
                            return false;
                        }
                    }
                    Scope::OnlyIn(path) => {
                        if file.rel_path != path {
                            return false;
                        }
                    }
                }
                file.masked.lines.iter().enumerate().any(|(j, line)| {
                    !file.test_mask.get(j).copied().unwrap_or(false) && line.contains(&needle)
                })
            });
            let def_file = &model.files[def_idx];
            if !found && !def_file.masked.is_allowed(*def_line, req.rule) {
                diags.push(Diagnostic {
                    path: defining_file.to_string(),
                    line: *def_line,
                    rule: req.rule,
                    message: format!("`{needle}` {}", req.missing),
                });
            }
        }
    }
    variants.len()
}

/// Parses the variant names (and their 1-based definition lines) of
/// `pub enum <name>` in `rel_path`, from the comment/string-masked
/// source. Returns `None` if the enum is not found.
pub(crate) fn enum_variants(
    model: &Model,
    rel_path: &str,
    enum_name: &str,
) -> Option<Vec<(String, usize)>> {
    let file = model.files.iter().find(|f| f.rel_path == rel_path)?;
    let lines = &file.masked.lines;
    let header = format!("pub enum {enum_name}");
    let start = lines.iter().position(|l| {
        l.contains(&header)
            && l[l.find(&header).unwrap() + header.len()..]
                .chars()
                .next()
                .map_or(true, |c| !c.is_alphanumeric() && c != '_')
    })?;
    let end = crate::lint::matching_brace_end(lines, start);

    let mut variants = Vec::new();
    let mut depth = 0usize; // brace depth relative to the enum body
    for (j, line) in lines.iter().enumerate().take(end + 1).skip(start) {
        if depth == if j == start { 0 } else { 1 } {
            // Variant names start a (possibly attribute-prefixed) line
            // inside the body with an uppercase identifier; struct-variant
            // fields are snake_case and deeper, so neither matches.
            let after_body_open = if j == start {
                match line.find('{') {
                    Some(pos) => &line[pos + 1..],
                    None => "",
                }
            } else {
                line.as_str()
            };
            let trimmed = after_body_open.trim_start();
            let ident: String = trimmed
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect();
            if ident.chars().next().is_some_and(|c| c.is_ascii_uppercase()) {
                variants.push((ident, j + 1));
            }
        }
        depth += line.matches('{').count();
        depth = depth.saturating_sub(line.matches('}').count());
    }
    Some(variants)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbols::Model;

    const ENUMS: &str =
        "pub enum PayloadKind {\n    Batch,\n    Logits { round: u64 },\n    Probe,\n}\n";
    const ERRORS: &str = "pub enum NetError {\n    Timeout,\n    Closed,\n}\n";

    fn run(extra: &[(&str, &str, &str)]) -> Vec<Diagnostic> {
        let mut files = vec![
            ("net", "crates/net/src/envelope.rs", ENUMS),
            ("net", "crates/net/src/error.rs", ERRORS),
        ];
        files.extend_from_slice(extra);
        let model = Model::build(&files);
        let mut diags = Vec::new();
        check(&model, &mut diags);
        diags
    }

    #[test]
    fn unconstructed_and_unhandled_variants_are_caught() {
        // Batch is constructed and handled; Logits is constructed but not
        // handled; Probe is neither. Timeout is produced, Closed is not.
        let diags = run(&[
            (
                "core",
                "crates/core/src/fsm.rs",
                "fn dispatch() {\n    handle(PayloadKind::Batch);\n    NetError::Timeout;\n}\n",
            ),
            (
                "net",
                "crates/net/src/mailbox.rs",
                "fn emit() {\n    make(PayloadKind::Logits { round: 0 });\n}\n",
            ),
        ]);
        let rules: Vec<(&str, &str)> = diags
            .iter()
            .map(|d| (d.rule, d.message.split('`').nth(1).unwrap()))
            .collect();
        assert!(
            rules.contains(&("protocol-handled", "PayloadKind::Logits")),
            "{diags:?}"
        );
        assert!(
            rules.contains(&("protocol-constructed", "PayloadKind::Probe")),
            "{diags:?}"
        );
        assert!(
            rules.contains(&("protocol-handled", "PayloadKind::Probe")),
            "{diags:?}"
        );
        assert!(
            rules.contains(&("error-produced", "NetError::Closed")),
            "{diags:?}"
        );
        assert!(
            !rules
                .iter()
                .any(|(_, n)| *n == "PayloadKind::Batch" || *n == "NetError::Timeout"),
            "{diags:?}"
        );
    }

    #[test]
    fn construction_inside_the_defining_file_does_not_count() {
        // envelope.rs itself constructs Probe (e.g. in its wire codec);
        // that must not satisfy protocol-constructed.
        let enums_with_codec = "pub enum PayloadKind {\n    Batch,\n    Logits { round: u64 },\n    Probe,\n}\n\
             fn from_wire() {\n    PayloadKind::Probe;\n    PayloadKind::Batch;\n    PayloadKind::Logits { round: 0 };\n}\n";
        let model = Model::build(&[
            ("net", "crates/net/src/envelope.rs", enums_with_codec),
            ("net", "crates/net/src/error.rs", ERRORS),
            (
                "core",
                "crates/core/src/fsm.rs",
                "fn dispatch() {\n    handle(PayloadKind::Batch);\n    handle(PayloadKind::Logits { round: 0 });\n    NetError::Timeout;\n    NetError::Closed;\n}\n",
            ),
            (
                "net",
                "crates/net/src/mailbox.rs",
                "fn emit() {\n    make(PayloadKind::Batch);\n    make(PayloadKind::Logits { round: 0 });\n}\n",
            ),
        ]);
        let mut diags = Vec::new();
        check(&model, &mut diags);
        // Probe is built only inside envelope.rs itself, which must not
        // count — so both requirements fire for it, and nothing else.
        assert_eq!(diags.len(), 2, "{diags:?}");
        assert!(
            diags
                .iter()
                .all(|d| d.message.contains("PayloadKind::Probe")),
            "{diags:?}"
        );
        assert!(diags.iter().any(|d| d.rule == "protocol-constructed"));
        assert!(diags.iter().any(|d| d.rule == "protocol-handled"));
    }

    #[test]
    fn test_only_usage_does_not_count() {
        let diags = run(&[(
            "core",
            "crates/core/src/fsm.rs",
            "fn dispatch() {\n    handle(PayloadKind::Batch);\n}\n\
             #[cfg(test)]\nmod tests {\n    fn t() {\n        PayloadKind::Probe;\n        NetError::Closed;\n    }\n}\n",
        )]);
        assert!(
            diags
                .iter()
                .any(|d| d.rule == "protocol-handled" && d.message.contains("Probe")),
            "{diags:?}"
        );
        assert!(
            diags
                .iter()
                .any(|d| d.rule == "error-produced" && d.message.contains("Closed")),
            "{diags:?}"
        );
    }

    // The recovery protocol's wire enums, as fixtures: the two
    // re-placement variants must satisfy both protocol rules.
    const RECOVERY_ENUMS: &str =
        "pub enum PayloadKind {\n    Input,\n    Result,\n    LoadExpert,\n    LoadAck,\n}\n";

    #[test]
    fn recovery_variants_constructed_and_handled_pass() {
        // Mirrors the real topology: recover.rs constructs both
        // recovery kinds (master side), fsm.rs handles them in the
        // worker/master state machines.
        let model = Model::build(&[
            ("net", "crates/net/src/envelope.rs", RECOVERY_ENUMS),
            ("net", "crates/net/src/error.rs", ERRORS),
            (
                "core",
                "crates/core/src/recover.rs",
                "fn transfer() {\n    send(PayloadKind::LoadExpert);\n    expect(PayloadKind::LoadAck);\n    NetError::Timeout;\n    NetError::Closed;\n}\n",
            ),
            (
                "core",
                "crates/core/src/fsm.rs",
                "fn dispatch() {\n    handle(PayloadKind::Input);\n    handle(PayloadKind::Result);\n    handle(PayloadKind::LoadExpert);\n    handle(PayloadKind::LoadAck);\n}\n",
            ),
            (
                "net",
                "crates/net/src/mailbox.rs",
                "fn emit() {\n    make(PayloadKind::Input);\n    make(PayloadKind::Result);\n    make(PayloadKind::LoadAck);\n}\n",
            ),
        ]);
        let mut diags = Vec::new();
        check(&model, &mut diags);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn unhandled_load_expert_is_caught() {
        // Deliberately-bad fixture: LoadExpert is constructed by the
        // migration sender but missing from the dispatch — exactly the
        // silent-drop regression this rule exists to catch.
        let model = Model::build(&[
            ("net", "crates/net/src/envelope.rs", RECOVERY_ENUMS),
            ("net", "crates/net/src/error.rs", ERRORS),
            (
                "core",
                "crates/core/src/recover.rs",
                "fn transfer() {\n    send(PayloadKind::LoadExpert);\n    expect(PayloadKind::LoadAck);\n    NetError::Timeout;\n    NetError::Closed;\n}\n",
            ),
            (
                "core",
                "crates/core/src/fsm.rs",
                "fn dispatch() {\n    handle(PayloadKind::Input);\n    handle(PayloadKind::Result);\n    handle(PayloadKind::LoadAck);\n}\n",
            ),
            (
                "net",
                "crates/net/src/mailbox.rs",
                "fn emit() {\n    make(PayloadKind::Input);\n    make(PayloadKind::Result);\n}\n",
            ),
        ]);
        let mut diags = Vec::new();
        check(&model, &mut diags);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, "protocol-handled");
        assert!(
            diags[0].message.contains("PayloadKind::LoadExpert"),
            "{}",
            diags[0].message
        );
    }

    // The serving front-end's wire enum, as fixtures: every kind must be
    // constructed somewhere and dispatched in tcp.rs.
    const SERVE_ENUMS: &str =
        "pub enum ServeMsgKind {\n    Request,\n    Reply,\n    Reject,\n    Goodbye,\n}\n";
    const SERVE_ERRORS: &str = "pub enum ServeError {\n    Overloaded,\n    Closed,\n}\n";

    #[test]
    fn serve_kind_missing_from_dispatch_is_caught() {
        // Goodbye is sent by clients but absent from the tcp.rs dispatch:
        // an idle client's hangup frame would be silently dropped.
        let model = Model::build(&[
            ("net", "crates/net/src/envelope.rs", ENUMS),
            ("net", "crates/net/src/error.rs", ERRORS),
            ("serve", "crates/serve/src/wire.rs", SERVE_ENUMS),
            ("serve", "crates/serve/src/error.rs", SERVE_ERRORS),
            (
                "core",
                "crates/core/src/fsm.rs",
                "fn dispatch() {\n    handle(PayloadKind::Batch);\n    handle(PayloadKind::Logits { round: 0 });\n    handle(PayloadKind::Probe);\n    NetError::Timeout;\n    NetError::Closed;\n}\n",
            ),
            (
                "net",
                "crates/net/src/mailbox.rs",
                "fn emit() {\n    make(PayloadKind::Batch);\n    make(PayloadKind::Logits { round: 0 });\n    make(PayloadKind::Probe);\n}\n",
            ),
            (
                "serve",
                "crates/serve/src/tcp.rs",
                "fn serve() {\n    handle(ServeMsgKind::Request);\n    handle(ServeMsgKind::Reply);\n    handle(ServeMsgKind::Reject);\n    ServeError::Overloaded;\n    ServeError::Closed;\n}\n",
            ),
            (
                "serve",
                "crates/serve/src/engine.rs",
                "fn client() {\n    send(ServeMsgKind::Goodbye);\n}\n",
            ),
        ]);
        let mut diags = Vec::new();
        check(&model, &mut diags);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, "protocol-handled");
        assert!(
            diags[0].message.contains("ServeMsgKind::Goodbye"),
            "{}",
            diags[0].message
        );
    }

    #[test]
    fn unproduced_serve_error_is_caught() {
        let model = Model::build(&[
            ("serve", "crates/serve/src/error.rs", SERVE_ERRORS),
            (
                "serve",
                "crates/serve/src/engine.rs",
                "fn admit() {\n    reject(ServeError::Overloaded);\n}\n",
            ),
        ]);
        let mut diags = Vec::new();
        check(&model, &mut diags);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, "error-produced");
        assert!(
            diags[0].message.contains("ServeError::Closed"),
            "{}",
            diags[0].message
        );
    }

    #[test]
    fn allow_on_the_variant_line_escapes() {
        let enums = "pub enum PayloadKind {\n    Batch,\n    // lint: allow(protocol-constructed)\n    // lint: allow(protocol-handled)\n    Probe,\n}\n";
        let model = Model::build(&[
            ("net", "crates/net/src/envelope.rs", enums),
            ("net", "crates/net/src/error.rs", ERRORS),
            (
                "core",
                "crates/core/src/fsm.rs",
                "fn dispatch() {\n    handle(PayloadKind::Batch);\n    NetError::Timeout;\n    NetError::Closed;\n}\n",
            ),
            (
                "net",
                "crates/net/src/mailbox.rs",
                "fn emit() {\n    make(PayloadKind::Batch);\n}\n",
            ),
        ]);
        let mut diags = Vec::new();
        check(&model, &mut diags);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn struct_variant_fields_are_not_mistaken_for_variants() {
        let model = Model::build(&[(
            "net",
            "crates/net/src/envelope.rs",
            "pub enum PayloadKind {\n    Logits {\n        round: u64,\n        bytes: Vec<u8>,\n    },\n}\n",
        )]);
        let variants = enum_variants(&model, "crates/net/src/envelope.rs", "PayloadKind").unwrap();
        let names: Vec<&str> = variants.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["Logits"]);
    }
}
