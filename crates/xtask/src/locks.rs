//! Lock-order audit: builds a lock-acquisition graph for the `net` and
//! `core` crates and rejects (a) cyclic acquisition orders and (b)
//! transport I/O performed while a lock guard is held.
//!
//! Rule IDs: `lock-order` (a cycle in the acquisition graph, including a
//! re-acquisition of the same non-reentrant lock) and `lock-across-io`
//! (`send`/`recv`/`recv_where` called with a guard live — with
//! parking_lot mutexes a blocked receive wedges every other thread
//! touching that lock).
//!
//! ## How locks are identified
//!
//! An acquisition site is a `.lock()`, `.read()` or `.write()` call with
//! empty argument lists (`io::Read::read(&mut buf)` never matches). The
//! lock's identity is the receiver token chain (`self.` stripped)
//! prefixed by the owning crate: `self.queues.lock()` in `net` is lock
//! `net:queues`. Identity is lexical — two fields with the same name in
//! different structs of one crate collapse into one node. That
//! over-merging can only create false *positives* (extra edges), never
//! hide a real cycle between distinctly-named locks.
//!
//! ## Guard lifetimes
//!
//! A `let`-bound guard (`let g = x.lock();`) is live from its binding
//! until brace depth drops below the binding statement's depth or an
//! explicit `drop(g)` — the same scope rustc gives it, minus
//! non-lexical-lifetime shrinking (again the conservative direction). An
//! acquisition that is not `let`-bound is a temporary: it dies at the end
//! of its own statement and never enters the held set.
//!
//! While a guard for lock `A` is live, acquiring lock `B` adds edge
//! `A → B`; calling a function whose transitive lock set contains `B`
//! adds the same edge (call edges resolved by name via
//! [`crate::symbols`]). `lock-across-io` is intra-procedural only; see
//! DESIGN.md §10 for the documented false-negative holes.

use crate::symbols::{calls_on_line, Model};
use crate::Diagnostic;
use std::collections::{BTreeMap, BTreeSet};

/// Crates whose locking is audited (the protocol-critical ones).
const LOCK_AUDITED_CRATES: &[&str] = &["net", "core"];

/// Transport calls that must not run under a lock.
const IO_CALLS: &[&str] = &["send", "recv", "recv_where"];

/// One lock acquisition found in a function body.
#[derive(Debug, Clone)]
struct Acquisition {
    /// Crate-qualified lock identity, e.g. `net:queues`.
    lock: String,
    /// 1-based source line.
    line: usize,
    /// Guard variable when `let`-bound; `None` for temporaries.
    guard: Option<String>,
    /// Brace depth at the start of the binding statement.
    depth: i32,
}

/// Runs the lock-order pass over `model`, appending diagnostics.
/// Returns the number of distinct locks seen (for the summary line).
pub fn check(model: &Model, diags: &mut Vec<Diagnostic>) -> usize {
    // Pass 1: per-function direct lock sets and intra-procedural events.
    let mut direct_locks: Vec<BTreeSet<String>> = vec![BTreeSet::new(); model.fns.len()];
    for (idx, f) in model.fns.iter().enumerate() {
        if !audited(model, idx) {
            continue;
        }
        let Some((start, end)) = f.body else { continue };
        let Some(file) = model.files.get(f.file) else {
            continue;
        };
        for (j, line) in file
            .masked
            .lines
            .iter()
            .enumerate()
            .take(end + 1)
            .skip(start)
        {
            for acq in acquisitions_on_line(line, &file.crate_name, j + 1) {
                direct_locks[idx].insert(acq.lock);
            }
        }
    }

    // Pass 2: transitive lock sets through the call graph (fixpoint).
    let transitive = transitive_locks(model, &direct_locks);

    // Pass 3: walk each audited function tracking live guards; emit
    // edges and lock-across-io findings.
    let mut edges: BTreeMap<(String, String), (String, usize)> = BTreeMap::new();
    for (idx, f) in model.fns.iter().enumerate() {
        if !audited(model, idx) {
            continue;
        }
        let Some((start, end)) = f.body else { continue };
        let Some(file) = model.files.get(f.file) else {
            continue;
        };
        let rel = file.rel_path.clone();
        let mut depth = 0i32;
        let mut held: Vec<Acquisition> = Vec::new();
        for (j, line) in file
            .masked
            .lines
            .iter()
            .enumerate()
            .take(end + 1)
            .skip(start)
        {
            let lineno = j + 1;
            let depth_at_start = depth;
            // Guards die when their scope closes. Compute end-of-line
            // depth first so a `}` on this line can retire guards before
            // events later on the same line are judged (a close brace
            // precedes code only in degenerate formatting; conservative
            // either way).
            let mut min_depth = depth;
            for ch in line.chars() {
                match ch {
                    '{' => depth += 1,
                    '}' => {
                        depth -= 1;
                        min_depth = min_depth.min(depth);
                    }
                    _ => {}
                }
            }
            held.retain(|g| g.depth <= min_depth);
            // Explicit early drop.
            held.retain(|g| {
                g.guard
                    .as_deref()
                    .is_none_or(|name| !line.contains(&format!("drop({name})")))
            });

            let acqs = acquisitions_on_line(line, &file.crate_name, lineno);

            // Events against currently-held guards (bound on earlier lines).
            if !held.is_empty() {
                for acq in &acqs {
                    for h in &held {
                        if h.lock != acq.lock || h.line != acq.line {
                            add_edge(&mut edges, &h.lock, &acq.lock, &rel, lineno);
                        }
                    }
                }
                let mut callee_locks: BTreeSet<&str> = BTreeSet::new();
                let mut io_hit = false;
                for callee in calls_on_line(line) {
                    if IO_CALLS.contains(&callee.as_str()) {
                        io_hit = true;
                    }
                    for &target in model.fns_by_name(&callee) {
                        for l in &transitive[target] {
                            callee_locks.insert(l);
                        }
                    }
                }
                if io_hit && !file.masked.is_allowed(lineno, "lock-across-io") {
                    let holders: Vec<&str> = held.iter().map(|h| h.lock.as_str()).collect();
                    diags.push(Diagnostic {
                        path: rel.clone(),
                        line: lineno,
                        rule: "lock-across-io",
                        message: format!(
                            "transport send/recv while holding lock(s) {}; a blocked \
                             peer wedges every thread contending on them",
                            holders.join(", ")
                        ),
                    });
                }
                for l in callee_locks {
                    for h in &held {
                        if h.lock != l {
                            add_edge(&mut edges, &h.lock, l, &rel, lineno);
                        } else if !file.masked.is_allowed(lineno, "lock-order") {
                            diags.push(Diagnostic {
                                path: rel.clone(),
                                line: lineno,
                                rule: "lock-order",
                                message: format!(
                                    "call may re-acquire non-reentrant lock {l} already \
                                     held here (self-deadlock)",
                                ),
                            });
                        }
                    }
                }
            }

            // New let-bound guards enter the held set after their own
            // line's events (a guard is not held "across" its own
            // acquisition statement).
            for acq in acqs {
                if acq.guard.is_some() && !file.masked.is_allowed(lineno, "lock-order") {
                    held.push(Acquisition {
                        depth: depth_at_start,
                        ..acq
                    });
                }
            }
        }
    }

    // Pass 4: cycle detection over the acquisition graph.
    let locks: BTreeSet<String> = edges
        .keys()
        .flat_map(|(a, b)| [a.clone(), b.clone()])
        .chain(direct_locks.iter().flatten().cloned())
        .collect();
    for cycle in find_cycles(&edges) {
        let provenance: Vec<String> = cycle
            .windows(2)
            .filter_map(|w| edges.get(&(w[0].clone(), w[1].clone())))
            .map(|(p, l)| format!("{p}:{l}"))
            .collect();
        diags.push(Diagnostic {
            path: provenance.first().cloned().unwrap_or_else(|| "?".into()),
            line: 0,
            rule: "lock-order",
            message: format!(
                "cyclic lock acquisition order {} (edges at {})",
                cycle.join(" -> "),
                provenance.join(", ")
            ),
        });
    }
    locks.len()
}

fn audited(model: &Model, idx: usize) -> bool {
    let Some(f) = model.fns.get(idx) else {
        return false;
    };
    if f.is_test {
        return false;
    }
    model
        .files
        .get(f.file)
        .is_some_and(|sf| LOCK_AUDITED_CRATES.contains(&sf.crate_name.as_str()))
}

fn add_edge(
    edges: &mut BTreeMap<(String, String), (String, usize)>,
    from: &str,
    to: &str,
    path: &str,
    line: usize,
) {
    edges
        .entry((from.to_string(), to.to_string()))
        .or_insert_with(|| (path.to_string(), line));
}

/// Closes each function's direct lock set over the call graph.
fn transitive_locks(model: &Model, direct: &[BTreeSet<String>]) -> Vec<BTreeSet<String>> {
    let mut out: Vec<BTreeSet<String>> = direct.to_vec();
    let mut changed = true;
    while changed {
        changed = false;
        for idx in 0..model.fns.len() {
            let Some(f) = model.fns.get(idx) else {
                continue;
            };
            let mut add: Vec<String> = Vec::new();
            for callee in &f.calls {
                for &target in model.fns_by_name(callee) {
                    if target == idx {
                        continue;
                    }
                    for l in &out[target] {
                        if !out[idx].contains(l) {
                            add.push(l.clone());
                        }
                    }
                }
            }
            if !add.is_empty() {
                out[idx].extend(add);
                changed = true;
            }
        }
    }
    out
}

/// Finds `.lock()` / `.read()` / `.write()` acquisition sites on a masked
/// line, with their receiver-chain lock identity and optional `let`
/// binding.
fn acquisitions_on_line(line: &str, crate_name: &str, lineno: usize) -> Vec<Acquisition> {
    let mut out = Vec::new();
    for method in ["lock", "read", "write"] {
        let needle = format!(".{method}()");
        let mut start = 0usize;
        while let Some(pos) = line[start..].find(&needle) {
            let at = start + pos;
            start = at + needle.len();
            let Some(chain) = receiver_chain(line, at) else {
                continue;
            };
            out.push(Acquisition {
                lock: format!("{crate_name}:{chain}"),
                line: lineno,
                guard: let_binding(line),
                depth: 0, // filled in by the caller
            });
        }
    }
    out
}

/// The dotted receiver chain ending at byte `at` (the `.` of the call),
/// with a leading `self.` stripped: `self.inner.queues` → `inner.queues`.
/// `None` when the receiver is an opaque expression (`)`/`]` ending) —
/// those sites are skipped rather than mis-attributed.
fn receiver_chain(line: &str, at: usize) -> Option<String> {
    let bytes = line.as_bytes();
    let mut i = at;
    while i > 0 {
        let b = bytes[i - 1];
        if b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b':' {
            i -= 1;
        } else {
            break;
        }
    }
    let chain = line[i..at].trim_start_matches(':');
    let chain = chain.strip_prefix("self.").unwrap_or(chain);
    if chain.is_empty() || chain.ends_with('.') {
        return None;
    }
    Some(chain.to_string())
}

/// The variable a `let` statement on this line binds, if any.
fn let_binding(line: &str) -> Option<String> {
    let trimmed = line.trim_start();
    let rest = trimmed.strip_prefix("let ")?;
    let rest = rest.strip_prefix("mut ").unwrap_or(rest);
    let name: String = rest
        .chars()
        .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
        .collect();
    if name.is_empty() {
        None
    } else {
        Some(name)
    }
}

/// All elementary cycles' representative paths (each returned as
/// `[a, b, …, a]`), found by DFS from every node. Deduplicated by
/// rotation-normalised node set.
fn find_cycles(edges: &BTreeMap<(String, String), (String, usize)>) -> Vec<Vec<String>> {
    let mut adj: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for (a, b) in edges.keys() {
        adj.entry(a.as_str()).or_default().push(b.as_str());
    }
    let mut found: Vec<Vec<String>> = Vec::new();
    let mut seen_sets: BTreeSet<Vec<String>> = BTreeSet::new();
    for &start in adj.keys().collect::<Vec<_>>().iter() {
        let mut stack: Vec<&str> = vec![start];
        dfs(
            start,
            start,
            &adj,
            &mut stack,
            &mut found,
            &mut seen_sets,
            0,
        );
    }
    found
}

fn dfs<'a>(
    start: &'a str,
    node: &'a str,
    adj: &BTreeMap<&'a str, Vec<&'a str>>,
    stack: &mut Vec<&'a str>,
    found: &mut Vec<Vec<String>>,
    seen_sets: &mut BTreeSet<Vec<String>>,
    depth: usize,
) {
    if depth > 16 {
        return; // lock graphs this deep are already a finding elsewhere
    }
    let Some(neighbors) = adj.get(node) else {
        return;
    };
    for &next in neighbors {
        if next == start {
            let mut key: Vec<String> = stack.iter().map(|s| s.to_string()).collect();
            key.sort();
            if seen_sets.insert(key) {
                let mut cycle: Vec<String> = stack.iter().map(|s| s.to_string()).collect();
                cycle.push(start.to_string());
                found.push(cycle);
            }
        } else if !stack.contains(&next) {
            stack.push(next);
            dfs(start, next, adj, stack, found, seen_sets, depth + 1);
            stack.pop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbols::Model;

    fn run(src: &str) -> Vec<Diagnostic> {
        let model = Model::build(&[("net", "crates/net/src/bad.rs", src)]);
        let mut diags = Vec::new();
        check(&model, &mut diags);
        diags
    }

    #[test]
    fn deliberate_lock_cycle_is_caught() {
        // a takes A then B; b takes B then A — classic ABBA deadlock.
        let src = "\
fn a(&self) {
    let g = self.alpha.lock();
    let h = self.beta.lock();
    use_both(g, h);
}
fn b(&self) {
    let h = self.beta.lock();
    let g = self.alpha.lock();
    use_both(g, h);
}
";
        let diags = run(src);
        assert!(
            diags.iter().any(|d| d.rule == "lock-order"
                && d.message.contains("net:alpha")
                && d.message.contains("net:beta")),
            "{diags:?}"
        );
    }

    #[test]
    fn cross_function_cycle_is_caught() {
        // a holds A and calls helper, which takes B; b does B then A.
        let src = "\
fn a(&self) {
    let g = self.alpha.lock();
    self.helper();
}
fn helper(&self) {
    let h = self.beta.lock();
    touch(h);
}
fn b(&self) {
    let h = self.beta.lock();
    let g = self.alpha.lock();
    touch(g);
}
";
        let diags = run(src);
        assert!(
            diags.iter().any(|d| d.rule == "lock-order"),
            "cycle through the call graph must be found: {diags:?}"
        );
    }

    #[test]
    fn send_under_lock_is_caught_and_escapable() {
        let src = "\
fn bad(&self) {
    let g = self.state.lock();
    self.transport.send(0, tag, payload);
}
fn fine(&self) {
    let g = self.state.lock();
    // lint: allow(lock-across-io)
    self.transport.send(0, tag, payload);
}
fn waits(&self) {
    let g = self.state.lock();
    self.transport.recv(0, tag, timeout);
}
fn filters(&self) {
    let g = self.state.lock();
    self.transport.recv_where(0, tag, timeout, &accept);
}
";
        let diags = run(src);
        let lines: Vec<usize> = diags
            .iter()
            .filter(|d| d.rule == "lock-across-io")
            .map(|d| d.line)
            .collect();
        // A guard held across a blocking receive is the same wedge as one
        // held across `send`.
        assert_eq!(lines, [3, 12, 16], "{diags:?}");
    }

    #[test]
    fn guard_scope_ends_with_its_block_and_on_drop() {
        let src = "\
fn scoped(&self) {
    {
        let g = self.state.lock();
        touch(g);
    }
    self.transport.send(0, tag, payload);
}
fn dropped(&self) {
    let g = self.state.lock();
    drop(g);
    self.transport.recv(0, tag, timeout);
}
";
        let diags = run(src);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn temporary_guard_is_statement_scoped() {
        let src = "\
fn tmp(&self) {
    self.writers.lock().push(frame);
    self.transport.send(0, tag, payload);
}
";
        let diags = run(src);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn reacquiring_the_same_lock_through_a_call_is_caught() {
        let src = "\
fn outer(&self) {
    let g = self.state.lock();
    self.inner();
}
fn inner(&self) {
    let h = self.state.lock();
    touch(h);
}
";
        let diags = run(src);
        assert!(
            diags
                .iter()
                .any(|d| d.rule == "lock-order" && d.message.contains("re-acquire")),
            "{diags:?}"
        );
    }

    #[test]
    fn consistent_order_is_clean() {
        let src = "\
fn a(&self) {
    let g = self.alpha.lock();
    let h = self.beta.lock();
    use_both(g, h);
}
fn b(&self) {
    let g = self.alpha.lock();
    let h = self.beta.lock();
    use_both(g, h);
}
";
        let diags = run(src);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn io_read_with_args_is_not_an_acquisition() {
        let src = "\
fn pump(&self) {
    let n = stream.read(&mut buf);
    self.transport.send(0, tag, payload);
}
";
        let diags = run(src);
        assert!(diags.is_empty(), "{diags:?}");
    }
}
