//! Cross-node trace assembly: the backend of `cargo xtask trace-assemble`.
//!
//! Each node in a cluster writes its own span JSONL (PR 5's per-process
//! islands). This module merges those islands into one causal DAG using
//! the [`TraceContext`] every traced frame carries on the wire:
//!
//! 1. **Parse** each node's events and order them by `seq` — the
//!    tracer-assigned emission order — so assembly is invariant to any
//!    shuffling of the file's lines (JSONL files survive `sort`, `cat`
//!    of rotated segments, etc.).
//! 2. **Pair** every `send` event with its `recv` on the far side: a
//!    send from node A stamped `(trace, span S)` matches the recv on its
//!    destination carrying `rspan = S` from peer A, in emission order
//!    (retries produce multiple identical sends; FIFO pairing keeps them
//!    distinct). Unpaired events are warnings, not errors — chaos drops
//!    frames legitimately.
//! 3. **Reconcile clocks.** Every node's `t_ns` is an offset from its own
//!    tracer origin. For each node pair the minimum observed one-way
//!    deltas `d_ab = min(recv_b - send_a)` and `d_ba` estimate the skew
//!    as `(d_ba - d_ab) / 2` (symmetric-minimum-transit assumption, the
//!    classic NTP-style bound); skews propagate from the reference node
//!    (lowest id) across the pair graph. With one direction only, the
//!    skew degrades to assuming zero minimum transit that way.
//! 4. **Stitch parents.** A span whose `enter` carries `rpeer`/`rparent`
//!    fields was caused by a remote span; it becomes that span's child in
//!    the DAG. A remote parent that does not exist in any input is an
//!    **orphan** — assembly fails loudly, because a silent orphan means a
//!    node's trace file is missing or truncated and every latency number
//!    downstream would be quietly wrong.
//!
//! The per-round **critical-path report** partitions each master `round`
//! span's wall time into `compute` / `wire` / `wait` by a priority sweep
//! over the reconciled timeline (see [`classify_leaf`]): the three sums
//! equal the round's wall clock exactly, by construction.

use serde::{Number, Value};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One node's trace input: `(node id, JSONL text)`.
pub type NodeInput = (u64, String);

/// Why assembly failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AssembleError {
    /// A line failed to parse; `(node, 1-based line, message)`.
    Parse(u64, usize, String),
    /// Spans referenced remote parents that exist in no input file.
    /// Each entry names the orphan and the missing parent.
    Orphans(Vec<String>),
}

impl std::fmt::Display for AssembleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AssembleError::Parse(node, line, msg) => {
                write!(f, "node {node} trace line {line}: {msg}")
            }
            AssembleError::Orphans(orphans) => {
                writeln!(
                    f,
                    "{} orphan span(s) — a trace file is missing or truncated:",
                    orphans.len()
                )?;
                for o in orphans {
                    writeln!(f, "  {o}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for AssembleError {}

/// One span in the assembled DAG.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanNode {
    /// Node that recorded the span.
    pub node: u64,
    /// Tracer-local span id.
    pub span: u64,
    /// Span name.
    pub name: String,
    /// Local parent span id (0 = none).
    pub parent: u64,
    /// Remote causal parent, when the span was opened for a traced frame.
    pub remote_parent: Option<(u64, u64)>,
    /// Trace id, when the span carries one (`trace` enter field).
    pub trace: Option<u64>,
    /// Enter timestamp, node-local nanoseconds.
    pub t_enter: u64,
    /// Exit timestamp, node-local nanoseconds (`t_enter` if never exited).
    pub t_exit: u64,
    /// Numeric enter fields, in recorded order.
    pub fields: Vec<(String, u64)>,
}

/// One matched cross-node message: a `send` paired with its `recv`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireEdge {
    /// Frame kind name (`input`, `result`, `load_chunk`, …).
    pub name: String,
    /// Sending node and the span the send was stamped with.
    pub from: (u64, u64),
    /// Receiving node and the span open at recv time (0 = none).
    pub to: (u64, u64),
    /// Trace id stamped on the frame.
    pub trace: u64,
    /// Send timestamp, sender-local nanoseconds.
    pub t_send: u64,
    /// Recv timestamp, receiver-local nanoseconds.
    pub t_recv: u64,
    /// Wire size of the frame.
    pub bytes: u64,
}

/// The merged causal DAG plus everything derived from it.
#[derive(Debug, Clone)]
pub struct Assembled {
    /// Every span, keyed `(node, span id)`.
    pub spans: BTreeMap<(u64, u64), SpanNode>,
    /// Matched cross-node edges, in deterministic order.
    pub edges: Vec<WireEdge>,
    /// Per-node clock skew: adding `skews[&node]` to a node-local `t_ns`
    /// yields the reference node's timeline.
    pub skews: BTreeMap<u64, i128>,
    /// Non-fatal oddities (unmatched sends/recvs, disconnected nodes).
    pub warnings: Vec<String>,
}

#[derive(Debug, Clone)]
struct PointEv {
    seq: u64,
    span: u64,
    name: String,
    t_ns: u64,
    peer: u64,
    trace: u64,
    rspan: u64,
    bytes: u64,
}

fn field_u64(value: &Value, key: &str) -> Option<u64> {
    match value.get(key) {
        Some(Value::Num(Number::PosInt(n))) => Some(*n),
        _ => None,
    }
}

fn fields_map(value: &Value) -> Vec<(String, u64)> {
    value
        .get("fields")
        .and_then(Value::as_map)
        .map(|entries| {
            entries
                .iter()
                .filter_map(|(k, v)| match v {
                    Value::Num(Number::PosInt(n)) => Some((k.clone(), *n)),
                    _ => None,
                })
                .collect()
        })
        .unwrap_or_default()
}

/// Merges per-node trace files into one causal DAG.
///
/// # Errors
///
/// [`AssembleError::Parse`] for a malformed line;
/// [`AssembleError::Orphans`] when any span names a remote parent that
/// exists in no input.
pub fn assemble(inputs: &[NodeInput]) -> Result<Assembled, AssembleError> {
    let mut spans: BTreeMap<(u64, u64), SpanNode> = BTreeMap::new();
    let mut sends: Vec<(u64, PointEv)> = Vec::new();
    let mut recvs: Vec<(u64, PointEv)> = Vec::new();
    let mut warnings = Vec::new();

    for (node, text) in inputs {
        let node = *node;
        // Typed events keyed by seq; sorting by seq restores emission
        // order no matter how the file's lines were permuted.
        let mut exits: Vec<(u64, u64, u64)> = Vec::new(); // (seq, span, t_ns)
        for (idx, line) in text.lines().enumerate() {
            let lineno = idx + 1;
            if line.trim().is_empty() {
                continue;
            }
            let value: Value = serde_json::from_str(line).map_err(|e| {
                AssembleError::Parse(node, lineno, format!("not valid JSON: {e:?}"))
            })?;
            let ev = value.get("ev").and_then(Value::as_str).ok_or_else(|| {
                AssembleError::Parse(node, lineno, "event missing string `ev`".into())
            })?;
            let need = |key: &str| {
                field_u64(&value, key).ok_or_else(|| {
                    AssembleError::Parse(
                        node,
                        lineno,
                        format!("`{ev}` event missing numeric `{key}`"),
                    )
                })
            };
            let name = || {
                value
                    .get("name")
                    .and_then(Value::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| {
                        AssembleError::Parse(
                            node,
                            lineno,
                            format!("`{ev}` event missing string `name`"),
                        )
                    })
            };
            match ev {
                "enter" => {
                    let span = need("span")?;
                    let fields = fields_map(&value);
                    let get = |k: &str| fields.iter().find(|(n, _)| n == k).map(|(_, v)| *v);
                    let remote_parent = match (get("rpeer"), get("rparent")) {
                        (Some(p), Some(s)) => Some((p, s)),
                        _ => None,
                    };
                    spans.insert(
                        (node, span),
                        SpanNode {
                            node,
                            span,
                            name: name()?,
                            parent: need("parent")?,
                            remote_parent,
                            trace: get("trace"),
                            t_enter: need("t_ns")?,
                            t_exit: need("t_ns")?,
                            fields,
                        },
                    );
                }
                "exit" => exits.push((need("seq")?, need("span")?, need("t_ns")?)),
                "send" | "recv" => {
                    let fields = fields_map(&value);
                    let get = |k: &str| fields.iter().find(|(n, _)| n == k).map(|(_, v)| *v);
                    let point = PointEv {
                        seq: need("seq")?,
                        span: need("span")?,
                        name: name()?,
                        t_ns: need("t_ns")?,
                        peer: get("peer").unwrap_or(0),
                        trace: get("trace").unwrap_or(0),
                        rspan: get("rspan").unwrap_or(0),
                        bytes: get("bytes").unwrap_or(0),
                    };
                    if ev == "send" {
                        sends.push((node, point));
                    } else {
                        recvs.push((node, point));
                    }
                }
                "mark" => {}
                other => {
                    return Err(AssembleError::Parse(
                        node,
                        lineno,
                        format!("unknown event kind `{other}`"),
                    ))
                }
            }
        }
        for (_seq, span, t_ns) in exits {
            if let Some(s) = spans.get_mut(&(node, span)) {
                s.t_exit = t_ns;
            }
        }
    }

    // Emission order within each node, then node order: the deterministic
    // pairing order regardless of input-line permutation.
    sends.sort_by_key(|(node, p)| (*node, p.seq));
    recvs.sort_by_key(|(node, p)| (*node, p.seq));

    // Pair sends with recvs FIFO per (sender, receiver, trace, sender
    // span, kind) — retries send byte-identical frames, so order is the
    // only thing distinguishing them.
    let mut pending: BTreeMap<(u64, u64, u64, u64, String), Vec<usize>> = BTreeMap::new();
    for (i, (node, p)) in recvs.iter().enumerate() {
        pending
            .entry((p.peer, *node, p.trace, p.rspan, p.name.clone()))
            .or_default()
            .push(i);
    }
    for queue in pending.values_mut() {
        queue.reverse(); // pop() from the back = FIFO
    }
    let mut edges = Vec::new();
    let mut matched_recvs = vec![false; recvs.len()];
    for (node, p) in &sends {
        let key = (*node, p.peer, p.trace, p.span, p.name.clone());
        match pending.get_mut(&key).and_then(Vec::pop) {
            Some(i) => {
                matched_recvs[i] = true;
                let (rnode, r) = &recvs[i];
                edges.push(WireEdge {
                    name: p.name.clone(),
                    from: (*node, p.span),
                    to: (*rnode, r.span),
                    trace: p.trace,
                    t_send: p.t_ns,
                    t_recv: r.t_ns,
                    bytes: p.bytes,
                });
            }
            None => warnings.push(format!(
                "unmatched send: {} n{}:{} -> n{} trace={} (frame lost or peer untraced)",
                p.name, node, p.span, p.peer, p.trace
            )),
        }
    }
    for (i, (node, p)) in recvs.iter().enumerate() {
        if !matched_recvs[i] {
            warnings.push(format!(
                "unmatched recv: {} n{} <- n{} rspan={} trace={}",
                p.name, node, p.peer, p.rspan, p.trace
            ));
        }
    }
    edges.sort_by(|a, b| {
        (a.trace, a.from, a.t_send, &a.name, a.to).cmp(&(b.trace, b.from, b.t_send, &b.name, b.to))
    });

    // Clock reconciliation: minimum one-way deltas per directed pair.
    let mut min_delta: BTreeMap<(u64, u64), i128> = BTreeMap::new();
    for e in &edges {
        let d = i128::from(e.t_recv) - i128::from(e.t_send);
        min_delta
            .entry((e.from.0, e.to.0))
            .and_modify(|m| *m = (*m).min(d))
            .or_insert(d);
    }
    let mut nodes: Vec<u64> = inputs.iter().map(|(n, _)| *n).collect();
    nodes.sort_unstable();
    nodes.dedup();
    let mut skews: BTreeMap<u64, i128> = BTreeMap::new();
    if let Some(&reference) = nodes.first() {
        skews.insert(reference, 0);
        // BFS over the pair graph from the reference node.
        let mut frontier = vec![reference];
        while let Some(a) = frontier.pop() {
            let base = skews[&a];
            for &b in &nodes {
                if skews.contains_key(&b) {
                    continue;
                }
                let d_ab = min_delta.get(&(a, b)).copied();
                let d_ba = min_delta.get(&(b, a)).copied();
                // t_in_a's_frame = t_b_local + skew. With transit τ and
                // skew σ: d_ab = τ1 - σ, d_ba = τ2 + σ; τ1 ≈ τ2 gives
                // σ = (d_ba - d_ab) / 2. One direction only: assume the
                // minimum transit that way was zero.
                let skew_rel = match (d_ab, d_ba) {
                    (Some(ab), Some(ba)) => (ba - ab) / 2,
                    (Some(ab), None) => -ab,
                    (None, Some(ba)) => ba,
                    (None, None) => continue,
                };
                skews.insert(b, base + skew_rel);
                frontier.push(b);
            }
        }
    }
    for &n in &nodes {
        if !skews.contains_key(&n) {
            warnings.push(format!(
                "node {n} shares no matched edge with the reference timeline; assuming zero skew"
            ));
            skews.insert(n, 0);
        }
    }

    // Orphan check: every remote parent must exist.
    let orphans: Vec<String> = spans
        .values()
        .filter_map(|s| {
            let (rpeer, rparent) = s.remote_parent?;
            (!spans.contains_key(&(rpeer, rparent))).then(|| {
                format!(
                    "span n{}:{} ({}) names remote parent n{rpeer}:{rparent}, which no input contains",
                    s.node, s.span, s.name
                )
            })
        })
        .collect();
    if !orphans.is_empty() {
        return Err(AssembleError::Orphans(orphans));
    }

    Ok(Assembled {
        spans,
        edges,
        skews,
        warnings,
    })
}

impl Assembled {
    /// A node-local timestamp moved onto the reference timeline.
    fn adjusted(&self, node: u64, t_ns: u64) -> i128 {
        i128::from(t_ns) + self.skews.get(&node).copied().unwrap_or(0)
    }

    /// Renders the DAG: one line per span in `(node, span)` order with
    /// its resolved causal parent, then one line per wire edge. Byte
    /// stable for byte-identical inputs in any line order.
    pub fn render_dag(&self) -> String {
        let mut out = String::new();
        for s in self.spans.values() {
            let parent = match (s.remote_parent, s.parent) {
                (Some((rn, rs)), _) => format!("n{rn}:{rs}"),
                (None, 0) => "-".to_string(),
                (None, p) => format!("n{}:{p}", s.node),
            };
            let trace = s.trace.map(|t| format!(" trace={t}")).unwrap_or_default();
            let _ = writeln!(
                out,
                "span n{}:{} parent={parent} {}{trace} t=[{}..{}]",
                s.node, s.span, s.name, s.t_enter, s.t_exit
            );
        }
        for e in &self.edges {
            let transit = self.adjusted(e.to.0, e.t_recv) - self.adjusted(e.from.0, e.t_send);
            let _ = writeln!(
                out,
                "edge {} n{}:{} -> n{}:{} trace={} bytes={} transit={transit}",
                e.name, e.from.0, e.from.1, e.to.0, e.to.1, e.trace, e.bytes
            );
        }
        out
    }

    /// All spans belonging to `trace`: the round span's local descendants
    /// plus every remotely-parented span carrying the trace id and *its*
    /// local descendants.
    fn trace_members(&self, root: (u64, u64), trace: u64) -> Vec<&SpanNode> {
        let mut children: BTreeMap<(u64, u64), Vec<(u64, u64)>> = BTreeMap::new();
        for (&key, s) in &self.spans {
            if s.parent != 0 && s.remote_parent.is_none() {
                children.entry((s.node, s.parent)).or_default().push(key);
            }
        }
        let mut seeds = vec![root];
        for (&key, s) in &self.spans {
            if key != root && s.trace == Some(trace) {
                seeds.push(key);
            }
        }
        let mut seen: BTreeMap<(u64, u64), ()> = BTreeMap::new();
        let mut out = Vec::new();
        while let Some(key) = seeds.pop() {
            if seen.insert(key, ()).is_some() {
                continue;
            }
            if let Some(s) = self.spans.get(&key) {
                out.push(s);
                if let Some(kids) = children.get(&key) {
                    seeds.extend(kids.iter().copied());
                }
            }
        }
        out.sort_by_key(|s| (s.node, s.span));
        out
    }

    /// The per-round critical-path attribution: every `round` span's wall
    /// time partitioned into compute / wire / wait on the reconciled
    /// timeline. The three columns sum to `wall` exactly.
    pub fn critical_path(&self) -> Vec<RoundAttribution> {
        let mut rounds: Vec<RoundAttribution> = Vec::new();
        for s in self.spans.values() {
            if s.name != "round" {
                continue;
            }
            let t0 = self.adjusted(s.node, s.t_enter);
            let t1 = self.adjusted(s.node, s.t_exit).max(t0);
            let trace = s.trace.unwrap_or(0);
            // Classified intervals on the reference timeline.
            let mut intervals: Vec<(Class, i128, i128)> = Vec::new();
            let members = self.trace_members((s.node, s.span), trace);
            let has_children: std::collections::BTreeSet<(u64, u64)> = members
                .iter()
                .filter(|m| m.parent != 0 && m.remote_parent.is_none())
                .map(|m| (m.node, m.parent))
                .collect();
            for m in &members {
                if (m.node, m.span) == (s.node, s.span) {
                    continue;
                }
                if has_children.contains(&(m.node, m.span)) {
                    continue; // structural: its leaves carry the time
                }
                if let Some(class) = classify_leaf(&m.name) {
                    intervals.push((
                        class,
                        self.adjusted(m.node, m.t_enter),
                        self.adjusted(m.node, m.t_exit),
                    ));
                }
            }
            for e in &self.edges {
                if e.trace == trace {
                    intervals.push((
                        Class::Wire,
                        self.adjusted(e.from.0, e.t_send),
                        self.adjusted(e.to.0, e.t_recv),
                    ));
                }
            }
            rounds.push(RoundAttribution {
                node: s.node,
                span: s.span,
                trace,
                round_idx: s
                    .fields
                    .iter()
                    .find(|(n, _)| n == "round_idx")
                    .map(|(_, v)| *v),
                wall_ns: (t1 - t0) as u64,
                attr: sweep(t0, t1, &intervals),
            });
        }
        rounds.sort_by_key(|r| (r.node, r.span));
        rounds
    }

    /// Renders [`Self::critical_path`] as a fixed-width, byte-stable
    /// table plus a totals row.
    pub fn critical_path_report(&self) -> String {
        let rounds = self.critical_path();
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:>5}  {:>20}  {:>12}  {:>12}  {:>12}  {:>12}",
            "round", "trace", "wall(ns)", "compute(ns)", "wire(ns)", "wait(ns)"
        );
        let mut total = Attribution::default();
        let mut wall = 0u64;
        for r in &rounds {
            let idx = r
                .round_idx
                .map(|i| i.to_string())
                .unwrap_or_else(|| "-".to_string());
            let _ = writeln!(
                out,
                "{idx:>5}  {:>20}  {:>12}  {:>12}  {:>12}  {:>12}",
                r.trace, r.wall_ns, r.attr.compute_ns, r.attr.wire_ns, r.attr.wait_ns
            );
            wall += r.wall_ns;
            total.compute_ns += r.attr.compute_ns;
            total.wire_ns += r.attr.wire_ns;
            total.wait_ns += r.attr.wait_ns;
        }
        let _ = writeln!(
            out,
            "{:>5}  {:>20}  {wall:>12}  {:>12}  {:>12}  {:>12}",
            "all",
            rounds.len(),
            total.compute_ns,
            total.wire_ns,
            total.wait_ns
        );
        out
    }
}

/// Where one slice of a round's wall time went.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Class {
    /// Bytes in flight or being pushed through a socket.
    Wire = 1,
    /// Somebody is doing real work (expert forward, argmin, decode).
    Compute = 2,
}

/// Classifies a leaf span for attribution; `None` means the span's time
/// is waiting (containers like `gather.await` — time is attributed by
/// whatever overlaps them, or `wait` if nothing does).
fn classify_leaf(name: &str) -> Option<Class> {
    if name.ends_with(".send") {
        Some(Class::Wire)
    } else if name.contains("gather") || name.contains("await") || name.contains("coalesce") {
        None
    } else {
        Some(Class::Compute)
    }
}

/// The three-way split of one round's wall time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Attribution {
    /// Time somebody was computing.
    pub compute_ns: u64,
    /// Time bytes were on the wire (or in send syscalls).
    pub wire_ns: u64,
    /// Time nothing attributable was happening (straggler wait, idle).
    pub wait_ns: u64,
}

/// One round's attribution row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundAttribution {
    /// Node that ran the round (the master).
    pub node: u64,
    /// The round span's id on that node.
    pub span: u64,
    /// The round's trace id.
    pub trace: u64,
    /// `round_idx` enter field, when recorded.
    pub round_idx: Option<u64>,
    /// Round wall time on the reconciled timeline.
    pub wall_ns: u64,
    /// The three-way split; sums to `wall_ns` exactly.
    pub attr: Attribution,
}

/// Priority sweep: partitions `[t0, t1]` among the classified intervals,
/// highest [`Class`] winning where they overlap, `wait` where none cover.
fn sweep(t0: i128, t1: i128, intervals: &[(Class, i128, i128)]) -> Attribution {
    let mut bounds: Vec<i128> = vec![t0, t1];
    for &(_, a, b) in intervals {
        for t in [a, b] {
            if t > t0 && t < t1 {
                bounds.push(t);
            }
        }
    }
    bounds.sort_unstable();
    bounds.dedup();
    let mut attr = Attribution::default();
    for pair in bounds.windows(2) {
        let (a, b) = (pair[0], pair[1]);
        let len = (b - a) as u64;
        let class = intervals
            .iter()
            .filter(|&&(_, s, e)| s <= a && e >= b)
            .map(|&(c, _, _)| c)
            .max();
        match class {
            Some(Class::Compute) => attr.compute_ns += len,
            Some(Class::Wire) => attr.wire_ns += len,
            None => attr.wait_ns += len,
        }
    }
    attr
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{Obs, TraceSink, VecSink};
    use std::sync::Arc;
    use std::time::Duration;
    use teamnet_net::{Clock, ManualClock, TraceContext};

    /// Builds a two-node trace by hand: master round with a send, worker
    /// span parented on it, reply edge back.
    fn two_node_inputs() -> Vec<NodeInput> {
        let clock = Arc::new(ManualClock::new());
        let m_sink = Arc::new(VecSink::new());
        let w_sink = Arc::new(VecSink::new());
        let master = Obs::new(
            Arc::clone(&clock) as Arc<dyn Clock>,
            Arc::clone(&m_sink) as Arc<dyn TraceSink>,
        );
        let worker = Obs::new(
            Arc::clone(&clock) as Arc<dyn Clock>,
            Arc::clone(&w_sink) as Arc<dyn TraceSink>,
        );
        let trace = 99u64;
        {
            let _round = master.span("round", &[("round_idx", 0), ("trace", trace)]);
            clock.advance(Duration::from_nanos(10));
            let sctx = {
                let _send = master.span("round.send", &[("peer", 1)]);
                let ctx = master.tracer.current_ctx(trace);
                clock.advance(Duration::from_nanos(20));
                master.tracer.send_event("input", 1, ctx, 256);
                ctx
            };
            // Worker processes, causally under the master's send span.
            {
                let _w = worker.span(
                    "worker.recv",
                    &[
                        ("trace", trace),
                        ("rpeer", 0),
                        ("rparent", sctx.parent_span),
                    ],
                );
                worker.tracer.recv_event("input", 0, sctx, 256);
                clock.advance(Duration::from_nanos(40));
                {
                    let _f = worker.span("worker.forward", &[]);
                    clock.advance(Duration::from_nanos(30));
                }
                let wctx = worker.tracer.current_ctx(trace);
                worker.tracer.send_event("result", 0, wctx, 128);
            }
            clock.advance(Duration::from_nanos(15));
            {
                let _g = master.span("round.gather", &[]);
                let rctx = TraceContext {
                    trace_id: trace,
                    parent_span: 1, // the worker.recv span on node 1
                };
                master.tracer.recv_event("result", 1, rctx, 128);
                clock.advance(Duration::from_nanos(5));
            }
        }
        vec![(0, m_sink.to_jsonl()), (1, w_sink.to_jsonl())]
    }

    #[test]
    fn assembles_edges_and_remote_parents() {
        let asm = assemble(&two_node_inputs()).unwrap();
        assert_eq!(asm.edges.len(), 2, "{:?}", asm.warnings);
        let worker_span = &asm.spans[&(1, 1)];
        assert_eq!(worker_span.remote_parent, Some((0, 2)));
        assert!(asm.warnings.is_empty(), "{:?}", asm.warnings);
        // Shared ManualClock → both directions' min deltas are symmetric
        // enough that skew stays small.
        assert_eq!(asm.skews[&0], 0);
    }

    #[test]
    fn attribution_sums_to_wall_time() {
        let asm = assemble(&two_node_inputs()).unwrap();
        let rounds = asm.critical_path();
        assert_eq!(rounds.len(), 1);
        let r = &rounds[0];
        assert_eq!(
            r.attr.compute_ns + r.attr.wire_ns + r.attr.wait_ns,
            r.wall_ns,
            "{r:?}"
        );
        assert!(r.attr.compute_ns > 0, "{r:?}");
        let report = asm.critical_path_report();
        assert!(report.contains("compute(ns)"), "{report}");
    }

    #[test]
    fn shuffled_lines_assemble_identically() {
        let inputs = two_node_inputs();
        let baseline = assemble(&inputs).unwrap();
        let mut shuffled: Vec<NodeInput> = Vec::new();
        for (node, text) in &inputs {
            let mut lines: Vec<&str> = text.lines().collect();
            lines.reverse();
            shuffled.push((*node, lines.join("\n") + "\n"));
        }
        let back = assemble(&shuffled).unwrap();
        assert_eq!(back.render_dag(), baseline.render_dag());
        assert_eq!(back.critical_path_report(), baseline.critical_path_report());
    }

    #[test]
    fn missing_node_file_is_a_loud_orphan_failure() {
        let inputs = two_node_inputs();
        // Drop the master's file: the worker's remote parent vanishes.
        let only_worker = vec![inputs[1].clone()];
        let err = assemble(&only_worker).unwrap_err();
        match err {
            AssembleError::Orphans(orphans) => {
                assert_eq!(orphans.len(), 1, "{orphans:?}");
                assert!(orphans[0].contains("n0:2"), "{orphans:?}");
            }
            other => panic!("expected orphans, got {other:?}"),
        }
    }

    #[test]
    fn unmatched_sends_warn_but_do_not_fail() {
        let clock = Arc::new(ManualClock::new());
        let sink = Arc::new(VecSink::new());
        let obs = Obs::new(
            Arc::clone(&clock) as Arc<dyn Clock>,
            Arc::clone(&sink) as Arc<dyn TraceSink>,
        );
        let _s = obs.span("round", &[]);
        obs.tracer
            .send_event("input", 1, obs.tracer.current_ctx(5), 64);
        let asm = assemble(&[(0, sink.to_jsonl())]).unwrap();
        assert_eq!(asm.edges.len(), 0);
        assert_eq!(asm.warnings.len(), 1, "{:?}", asm.warnings);
        assert!(asm.warnings[0].contains("unmatched send"));
    }

    #[test]
    fn clock_skew_is_reconciled_via_min_deltas() {
        // Two nodes, node 1's clock 1000ns ahead; symmetric 50ns transit.
        let mk = |lines: &[String]| lines.join("\n") + "\n";
        let master = mk(&[
            r#"{"seq":0,"ev":"enter","span":1,"parent":0,"name":"round","t_ns":0,"fields":{"round_idx":0,"trace":7}}"#.to_string(),
            r#"{"seq":1,"ev":"send","span":1,"name":"input","t_ns":100,"fields":{"peer":1,"trace":7,"bytes":10}}"#.to_string(),
            r#"{"seq":2,"ev":"recv","span":1,"name":"result","t_ns":400,"fields":{"peer":1,"trace":7,"rspan":1,"bytes":10}}"#.to_string(),
            r#"{"seq":3,"ev":"exit","span":1,"name":"round","t_ns":500,"dur_ns":500}"#.to_string(),
        ]);
        let worker = mk(&[
            r#"{"seq":0,"ev":"enter","span":1,"parent":0,"name":"worker.recv","t_ns":1150,"fields":{"trace":7,"rpeer":0,"rparent":1}}"#.to_string(),
            r#"{"seq":1,"ev":"recv","span":1,"name":"input","t_ns":1150,"fields":{"peer":0,"trace":7,"rspan":1,"bytes":10}}"#.to_string(),
            r#"{"seq":2,"ev":"send","span":1,"name":"result","t_ns":1350,"fields":{"peer":0,"trace":7,"bytes":10}}"#.to_string(),
            r#"{"seq":3,"ev":"exit","span":1,"name":"worker.recv","t_ns":1350,"dur_ns":200}"#.to_string(),
        ]);
        let asm = assemble(&[(0, master), (1, worker)]).unwrap();
        // d_01 = 1150 - 100 = 1050; d_10 = 400 - 1350 = -950;
        // skew = (d_10 - d_01)/2 = -1000: node 1 is 1000ns ahead.
        assert_eq!(asm.skews[&1], -1000);
        // After reconciliation both edges show the true 50ns transit.
        let dag = asm.render_dag();
        assert!(dag.contains("transit=50"), "{dag}");
    }
}
