//! A lightweight per-crate symbol table and function-level call graph.
//!
//! Built on the comment/string-masked source from [`crate::lexer`], this
//! module gives the audit passes ([`crate::locks`], [`crate::taint`],
//! [`crate::protocol`]) three things a line-oriented lint cannot offer:
//!
//! 1. **Function extents** — which lines belong to which `fn`, with
//!    `#[cfg(test)]` code identified so passes only judge shipping code;
//! 2. **Call edges** — for every function, the set of callee *names* it
//!    invokes (free calls, method calls and the last segment of path
//!    calls all collapse to a bare name);
//! 3. **Reachability** — BFS over those edges from a root set.
//!
//! Callee resolution is purely name-based: a call to `recv(` links to
//! *every* workspace function named `recv`, regardless of receiver type.
//! This over-approximates the true call graph (extra edges, never missing
//! ones for direct calls), which is the safe direction for taint and
//! lock-order analysis. The known false-negative holes — function
//! pointers, callbacks invoked through variables, and macros expanding to
//! calls — are documented in DESIGN.md §10.

use crate::lexer::{self, Masked};
use crate::lint;
use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::Path;

/// One masked source file plus the metadata every pass needs.
pub struct SourceFile {
    /// Crate directory name (`net`, `core`, …).
    pub crate_name: String,
    /// Workspace-relative path with `/` separators (diagnostic location).
    pub rel_path: String,
    /// Comment/string-masked source with `lint: allow` directives.
    pub masked: Masked,
    /// `test_mask[i]` is true when 0-based line `i` is inside
    /// `#[cfg(test)]`-gated code.
    pub test_mask: Vec<bool>,
}

/// One function definition.
pub struct FnInfo {
    /// Bare function name (no path, no generics).
    pub name: String,
    /// Index into [`Model::files`].
    pub file: usize,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// 0-based inclusive line range of the whole item (signature through
    /// closing brace); `None` for bodyless trait-method signatures.
    pub body: Option<(usize, usize)>,
    /// True when the definition sits inside `#[cfg(test)]` code.
    pub is_test: bool,
    /// Bare names of everything this function calls.
    pub calls: BTreeSet<String>,
}

/// The whole-workspace model the audit passes run against.
pub struct Model {
    /// Every scanned file.
    pub files: Vec<SourceFile>,
    /// Every function found, in file order.
    pub fns: Vec<FnInfo>,
    by_name: BTreeMap<String, Vec<usize>>,
}

/// Words that look like calls lexically but never are (control flow,
/// bindings) or that are ubiquitous constructors whose edges would only
/// add noise. Everything else followed by `(` counts as a call; edges to
/// names with no workspace definition are simply dropped at resolution.
const NON_CALL_WORDS: &[&str] = &[
    "if", "else", "while", "for", "match", "return", "loop", "in", "let", "fn", "move", "as",
    "where", "impl", "dyn", "ref", "mut", "pub", "use", "crate", "super", "break", "continue",
    "struct", "enum", "trait", "type", "const", "static", "unsafe", "extern", "async", "await",
    "Some", "None", "Ok", "Err", "Fn", "FnMut", "FnOnce",
];

impl Model {
    /// Builds a model from in-memory sources: `(crate_name, rel_path,
    /// source)` triples. Used directly by the audit passes' unit tests.
    pub fn build(inputs: &[(&str, &str, &str)]) -> Model {
        let mut files = Vec::new();
        for (crate_name, rel_path, source) in inputs {
            let masked = lexer::mask(source);
            let test_mask = lint::test_lines(&masked.lines);
            files.push(SourceFile {
                crate_name: (*crate_name).to_string(),
                rel_path: (*rel_path).to_string(),
                masked,
                test_mask,
            });
        }
        let mut fns = Vec::new();
        for (file_idx, file) in files.iter().enumerate() {
            extract_fns(file, file_idx, &mut fns);
        }
        let mut by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        for (idx, f) in fns.iter().enumerate() {
            by_name.entry(f.name.clone()).or_default().push(idx);
        }
        Model {
            files,
            fns,
            by_name,
        }
    }

    /// Loads every library crate under `<root>/crates/` (same file set the
    /// lint pass scans: `src/**`, excluding `src/bin/`).
    pub fn load_workspace(root: &Path) -> Model {
        let mut inputs: Vec<(String, String, String)> = Vec::new();
        for krate in lint::library_crates(root) {
            let crate_name = krate
                .file_name()
                .and_then(|n| n.to_str())
                .unwrap_or("?")
                .to_string();
            for file in lint::rust_files(&krate.join("src")) {
                let Ok(text) = fs::read_to_string(&file) else {
                    continue;
                };
                let rel = lint::display_path(root, &file).replace('\\', "/");
                inputs.push((crate_name.clone(), rel, text));
            }
        }
        let borrowed: Vec<(&str, &str, &str)> = inputs
            .iter()
            .map(|(c, p, s)| (c.as_str(), p.as_str(), s.as_str()))
            .collect();
        Model::build(&borrowed)
    }

    /// Indices of every function named `name` (empty slice if none).
    pub fn fns_by_name(&self, name: &str) -> &[usize] {
        self.by_name.get(name).map_or(&[], Vec::as_slice)
    }

    /// BFS over call edges from `roots`, restricted to non-test
    /// functions. The result includes the roots themselves.
    pub fn reachable(&self, roots: impl IntoIterator<Item = usize>) -> BTreeSet<usize> {
        let mut seen: BTreeSet<usize> = roots.into_iter().collect();
        let mut queue: Vec<usize> = seen.iter().copied().collect();
        while let Some(idx) = queue.pop() {
            let Some(f) = self.fns.get(idx) else { continue };
            for callee in &f.calls {
                for &target in self.fns_by_name(callee) {
                    let is_test = self.fns.get(target).is_some_and(|t| t.is_test);
                    if !is_test && seen.insert(target) {
                        queue.push(target);
                    }
                }
            }
        }
        seen
    }

    /// The walk the line-matching audits share: every non-test function
    /// in a file `is_root` accepts is a root, and each non-test body line
    /// of everything reachable from them is listed once — even when fn
    /// extents overlap (nested fns) or a function is reached through
    /// several names — as `(fn index, file, 1-based line, masked text)`.
    /// Also returns how many functions are reachable (the summary line).
    pub fn reachable_lines(
        &self,
        is_root: impl Fn(&SourceFile) -> bool,
    ) -> (usize, Vec<(usize, &SourceFile, usize, &str)>) {
        let roots = self
            .fns
            .iter()
            .enumerate()
            .filter(|(_, f)| !f.is_test && self.files.get(f.file).is_some_and(&is_root));
        let reachable = self.reachable(roots.map(|(idx, _)| idx));
        let mut seen: BTreeSet<(usize, usize)> = BTreeSet::new();
        let mut out = Vec::new();
        for &idx in &reachable {
            let Some(f) = self.fns.get(idx) else { continue };
            let (Some((start, end)), Some(file)) = (f.body, self.files.get(f.file)) else {
                continue;
            };
            let body = file
                .masked
                .lines
                .iter()
                .enumerate()
                .take(end + 1)
                .skip(start);
            for (j, line) in body {
                let in_test = file.test_mask.get(j).copied().unwrap_or(false);
                if !in_test && seen.insert((f.file, j)) {
                    out.push((idx, file, j + 1, line.as_str()));
                }
            }
        }
        (reachable.len(), out)
    }

    /// `path:line fn name` — the location string used in diagnostics.
    pub fn fn_display(&self, idx: usize) -> String {
        match (self.fns.get(idx), self.fns.get(idx).map(|f| f.file)) {
            (Some(f), Some(file)) => {
                let path = self.files.get(file).map_or("?", |sf| sf.rel_path.as_str());
                format!("{path}:{} fn {}", f.line, f.name)
            }
            _ => "?".to_string(),
        }
    }

    /// Total number of call edges (for the summary line).
    pub fn call_edge_count(&self) -> usize {
        self.fns.iter().map(|f| f.calls.len()).sum()
    }
}

/// Callee names invoked on one masked line (public wrapper used by the
/// lock pass to follow calls made while a guard is held).
pub fn calls_on_line(line: &str) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    extract_calls(line, &mut out);
    out
}

/// Finds every `fn` item in `file` and records its extent and call set.
fn extract_fns(file: &SourceFile, file_idx: usize, out: &mut Vec<FnInfo>) {
    let lines = &file.masked.lines;
    for (idx, line) in lines.iter().enumerate() {
        for name in fn_names_on_line(line) {
            let body = fn_body_range(lines, idx);
            let mut calls = BTreeSet::new();
            if let Some((start, end)) = body {
                for body_line in lines.iter().take(end + 1).skip(start) {
                    extract_calls(body_line, &mut calls);
                }
            }
            out.push(FnInfo {
                name,
                file: file_idx,
                line: idx + 1,
                body,
                is_test: file.test_mask.get(idx).copied().unwrap_or(false),
                calls,
            });
        }
    }
}

/// Names of functions *defined* on this line (`fn name`), with a word
/// boundary before `fn` so `often fn`-like identifiers don't match.
fn fn_names_on_line(line: &str) -> Vec<String> {
    let bytes = line.as_bytes();
    let mut out = Vec::new();
    let mut start = 0usize;
    while let Some(pos) = line[start..].find("fn ") {
        let at = start + pos;
        start = at + 3;
        let left_ok = at == 0
            || !bytes
                .get(at - 1)
                .is_some_and(|&b| b.is_ascii_alphanumeric() || b == b'_');
        if !left_ok {
            continue;
        }
        let rest = line[at + 3..].trim_start();
        let name: String = rest
            .chars()
            .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
            .collect();
        if !name.is_empty() {
            out.push(name);
        }
    }
    out
}

/// The 0-based inclusive line range of the item starting at `fn_line`:
/// from the `fn` keyword through the brace that closes its body. `None`
/// when a `;` arrives before any `{` (a bodyless signature).
fn fn_body_range(lines: &[String], fn_line: usize) -> Option<(usize, usize)> {
    for (j, line) in lines.iter().enumerate().skip(fn_line) {
        // Only the signature may end in `;` before its body opens; inspect
        // character order on the first line that contains either.
        let brace = line.find('{');
        let semi = if j == fn_line {
            // Skip anything before the `fn` keyword itself.
            line.find("fn ")
                .and_then(|p| line[p..].find(';').map(|s| p + s))
        } else {
            line.find(';')
        };
        match (brace, semi) {
            (Some(b), Some(s)) if s < b => return None,
            (Some(_), _) => return Some((fn_line, lint::matching_brace_end(lines, j))),
            (None, Some(_)) => return None,
            (None, None) => continue,
        }
    }
    None
}

/// Collects callee names on one masked line: any identifier directly
/// followed by `(` (whitespace allowed) that is not a keyword, a macro
/// (`name!`), or a lifetime.
fn extract_calls(line: &str, out: &mut BTreeSet<String>) {
    let bytes = line.as_bytes();
    let mut i = 0usize;
    while i < bytes.len() {
        let b = bytes[i];
        if b.is_ascii_alphabetic() || b == b'_' {
            let start = i;
            while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                i += 1;
            }
            let name = &line[start..i];
            let lifetime = start > 0 && bytes[start - 1] == b'\'';
            let mut j = i;
            while j < bytes.len() && bytes[j] == b' ' {
                j += 1;
            }
            if bytes.get(j) == Some(&b'(')
                && !lifetime
                && !NON_CALL_WORDS.contains(&name)
                && name != "fn"
            {
                // A definition (`fn name(`) is not a call to itself.
                let is_def = line[..start].trim_end().ends_with("fn");
                if !is_def {
                    out.insert(name.to_string());
                }
            }
        } else {
            i += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(src: &str) -> Model {
        Model::build(&[("net", "crates/net/src/x.rs", src)])
    }

    #[test]
    fn finds_fns_and_extents() {
        let m = model("pub fn alpha() {\n    beta();\n}\n\nfn beta() {}\n");
        assert_eq!(m.fns.len(), 2);
        assert_eq!(m.fns[0].name, "alpha");
        assert_eq!(m.fns[0].body, Some((0, 2)));
        assert_eq!(m.fns[1].name, "beta");
        assert!(m.fns[0].calls.contains("beta"));
    }

    #[test]
    fn bodyless_signatures_have_no_extent() {
        let m = model("trait T {\n    fn sig(&self) -> u32;\n    fn has_body(&self) -> u32 {\n        sig()\n    }\n}\n");
        let sig = &m.fns[m.fns_by_name("sig")[0]];
        assert_eq!(sig.body, None);
        let has_body = &m.fns[m.fns_by_name("has_body")[0]];
        assert!(has_body.body.is_some());
    }

    #[test]
    fn method_and_path_calls_collapse_to_names() {
        let m = model(
            "fn go() {\n    self.mailbox.recv(1);\n    foo::bar::baz();\n    helper ();\n}\n",
        );
        let calls = &m.fns[0].calls;
        assert!(calls.contains("recv"));
        assert!(calls.contains("baz"));
        assert!(calls.contains("helper"));
        assert!(!calls.contains("foo"), "path prefixes are not calls");
    }

    #[test]
    fn macros_keywords_and_strings_are_not_calls() {
        let m = model("fn go() {\n    println!(\"fake_call()\");\n    if x { return; }\n    let v = vec![real(0)];\n}\n");
        let calls = &m.fns[0].calls;
        assert!(!calls.contains("println"));
        assert!(!calls.contains("fake_call"), "string contents are masked");
        assert!(!calls.contains("if"));
        assert!(calls.contains("real"));
    }

    #[test]
    fn reachability_walks_the_graph_and_skips_tests() {
        let src = "fn a() { b(); }\nfn b() { c(); }\nfn c() {}\nfn island() {}\n\
                   #[cfg(test)]\nmod tests {\n    fn c() { island(); }\n}\n";
        let m = model(src);
        let a = m.fns_by_name("a")[0];
        let reach = m.reachable([a]);
        let names: Vec<&str> = reach.iter().map(|&i| m.fns[i].name.as_str()).collect();
        assert_eq!(names, vec!["a", "b", "c"], "test `c` and `island` excluded");
    }

    #[test]
    fn test_fns_are_marked() {
        let m = model("fn prod() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\n");
        assert!(!m.fns[m.fns_by_name("prod")[0]].is_test);
        assert!(m.fns[m.fns_by_name("t")[0]].is_test);
    }
}
