//! The traced run's bookkeeping: an in-memory sink for the program's own
//! trace events, the digest of the spans the ledger reads, and the
//! ledger arithmetic.
//!
//! The program already emits `round`, `serve.flush` and `serve.request`
//! spans and the `round.attr.*.ns` / `serve.latency.ns` histograms; the
//! ledger reads those instead of adding timers, and lays them against the
//! benchmark's own span around each request.

use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use teamnet_obs::TraceSink;

/// Keeps every event line in memory until the run ends.
#[derive(Debug, Default)]
pub struct Capture {
    lines: Mutex<Vec<String>>,
}

impl Capture {
    pub fn take(&self) -> Vec<String> {
        std::mem::take(&mut *self.lines.lock().expect("capture sink lock"))
    }
}

impl TraceSink for Capture {
    fn record(&self, line: &str) {
        // A sink must never panic: a poisoned lock drops the event.
        if let Ok(mut lines) = self.lines.lock() {
            lines.push(line.to_owned());
        }
    }
}

/// The unsigned integer after `"key":` in one event line.
fn field_u64(line: &str, key: &str) -> Option<u64> {
    let at = line.find(&format!("\"{key}\":"))? + key.len() + 3;
    let digits = &line[at..];
    let end = digits
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(digits.len());
    digits[..end].parse().ok()
}

/// The string after `"key":"` in one event line.
fn field_str<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let at = line.find(&format!("\"{key}\":\""))? + key.len() + 4;
    let rest = &line[at..];
    Some(&rest[..rest.find('"')?])
}

/// One `serve.flush` span: the batch a collaborative round carried.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Flush {
    pub rows: u64,
    pub requests: u64,
    pub dur_ns: u64,
}

/// The spans of the master's trace the ledger needs, measured window
/// only.
#[derive(Debug, Default)]
pub struct Digest {
    /// `round` spans seen, warm-up included.
    pub rounds_seen: usize,
    /// `round` span durations.
    pub round_ns: Vec<u64>,
    pub flushes: Vec<Flush>,
    /// `serve.request` span durations (traced TCP requests).
    pub request_ns: Vec<u64>,
}

impl Digest {
    /// Digests the master's event lines, keeping spans that *started* at
    /// or after `cut_ns` on the tracer's clock.
    pub fn of(lines: &[String], cut_ns: u64) -> Digest {
        let mut digest = Digest::default();
        let mut open_flushes = std::collections::BTreeMap::new();
        for line in lines {
            let (Some(ev), Some(name)) = (field_str(line, "ev"), field_str(line, "name")) else {
                continue;
            };
            match (ev, name) {
                ("enter", "serve.flush") => {
                    if let (Some(span), Some(rows), Some(requests)) = (
                        field_u64(line, "span"),
                        field_u64(line, "rows"),
                        field_u64(line, "requests"),
                    ) {
                        open_flushes.insert(span, (rows, requests));
                    }
                }
                ("exit", _) => {
                    let (Some(t_ns), Some(dur_ns)) =
                        (field_u64(line, "t_ns"), field_u64(line, "dur_ns"))
                    else {
                        continue;
                    };
                    let flush = field_u64(line, "span").and_then(|s| open_flushes.remove(&s));
                    digest.rounds_seen += usize::from(name == "round");
                    if t_ns.saturating_sub(dur_ns) < cut_ns {
                        continue;
                    }
                    match name {
                        "round" => digest.round_ns.push(dur_ns),
                        "serve.request" => digest.request_ns.push(dur_ns),
                        "serve.flush" => {
                            if let Some((rows, requests)) = flush {
                                digest.flushes.push(Flush {
                                    rows,
                                    requests,
                                    dur_ns,
                                });
                            }
                        }
                        _ => {}
                    }
                }
                _ => {}
            }
        }
        digest
    }

    /// Mean duration of the round a request rode: each flush weighs in
    /// once per request it carried.
    pub fn round_per_request_ns(&self) -> f64 {
        let requests: u64 = self.flushes.iter().map(|f| f.requests).sum();
        if requests == 0 {
            return 0.0;
        }
        let weighted: f64 = self
            .flushes
            .iter()
            .map(|f| f.requests as f64 * f.dur_ns as f64)
            .sum();
        weighted / requests as f64
    }
}

pub fn mean(values: &[u64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<u64>() as f64 / values.len() as f64
    }
}

/// Where the mean request span went, in microseconds. The rows are
/// nested intervals reported by four independent sources, so they add up
/// to the span only as far as those sources agree; `residual` is what
/// they leave unexplained.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ledger {
    /// The benchmark's own span around the request.
    pub span_us: f64,
    /// Outside the server: client codec, both wire crossings, frame
    /// read/write (TCP) or the `submit` call (in-process).
    pub front_us: f64,
    /// Admitted but not yet in a round: coalesce deadline and the round
    /// ahead.
    pub queue_us: f64,
    /// The collaborative round the request rode.
    pub round_us: f64,
    /// Inside the server but outside the engine: request decode and
    /// admit, ticket wake-up, reply encode.
    pub reply_us: f64,
}

impl Ledger {
    /// A request through the TCP front: `span` (benchmark) ⊇ `server`
    /// (`serve.request` span) ⊇ `engine` (`serve.latency.ns`) ⊇ `round`
    /// (`serve.flush` span).
    pub fn tcp(span_us: f64, server_us: f64, engine_us: f64, round_us: f64) -> Ledger {
        Ledger {
            span_us,
            front_us: (span_us - server_us).max(0.0),
            queue_us: (engine_us - round_us).max(0.0),
            round_us,
            reply_us: (server_us - engine_us).max(0.0),
        }
    }

    /// An in-process request: no server span exists, `front` is the
    /// benchmark's own timing of `submit`, and generator lateness plus
    /// ticket wake-up stay in the residual.
    pub fn in_process(span_us: f64, submit_us: f64, engine_us: f64, round_us: f64) -> Ledger {
        Ledger {
            span_us,
            front_us: submit_us,
            queue_us: (engine_us - round_us).max(0.0),
            round_us,
            reply_us: 0.0,
        }
    }

    /// A bare round: the program's `round` span against the benchmark's.
    pub fn round_only(span_us: f64, round_us: f64) -> Ledger {
        Ledger {
            span_us,
            front_us: 0.0,
            queue_us: 0.0,
            round_us,
            reply_us: 0.0,
        }
    }

    pub fn residual_us(&self) -> f64 {
        self.span_us - (self.front_us + self.queue_us + self.round_us + self.reply_us)
    }

    /// The residual as a percentage of the span.
    pub fn residual_pct(&self) -> f64 {
        if self.span_us == 0.0 {
            0.0
        } else {
            100.0 * self.residual_us().abs() / self.span_us
        }
    }
}

/// Writes the benchmark's own spans — `(start, duration)` in nanoseconds
/// around each request of the traced window — then each node's program
/// events, as one JSONL file per source under `dir`:
/// `<workload>.trace.jsonl` and `<workload>.node<i>.jsonl` (the latter are
/// `cargo xtask trace-assemble` inputs).
pub fn flush_traces(
    dir: &Path,
    workload: &str,
    spans: &[(u64, u64)],
    nodes: &[Vec<String>],
) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let create = |name: String| std::fs::File::create(dir.join(name)).map(std::io::BufWriter::new);
    let mut out = create(format!("{workload}.trace.jsonl"))?;
    for (req, (start_ns, dur_ns)) in spans.iter().enumerate() {
        writeln!(
            out,
            "{{\"ev\":\"bench\",\"name\":\"bench.request\",\"req\":{req},\"t_ns\":{start_ns},\"dur_ns\":{dur_ns}}}"
        )?;
    }
    out.flush()?;
    for (node, lines) in nodes.iter().enumerate() {
        let mut out = create(format!("{workload}.node{node}.jsonl"))?;
        for line in lines {
            writeln!(out, "{line}")?;
        }
        out.flush()?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fields_are_read_from_event_lines() {
        let line = r#"{"seq":4,"ev":"enter","span":9,"parent":2,"name":"serve.flush","t_ns":120,"fields":{"rows":30,"requests":28}}"#;
        assert_eq!(field_str(line, "ev"), Some("enter"));
        assert_eq!(field_str(line, "name"), Some("serve.flush"));
        assert_eq!(field_u64(line, "span"), Some(9));
        assert_eq!(field_u64(line, "requests"), Some(28));
        assert_eq!(field_u64(line, "dur_ns"), None);
    }

    #[test]
    fn digest_pairs_flush_fields_with_durations_and_cuts_warm_up() {
        let lines: Vec<String> = [
            r#"{"seq":0,"ev":"enter","span":1,"parent":0,"name":"serve.flush","t_ns":10,"fields":{"rows":4,"requests":4}}"#,
            r#"{"seq":1,"ev":"exit","span":1,"name":"serve.flush","t_ns":60,"dur_ns":50}"#,
            r#"{"seq":2,"ev":"enter","span":2,"parent":0,"name":"serve.flush","t_ns":100,"fields":{"rows":3,"requests":1}}"#,
            r#"{"seq":3,"ev":"exit","span":3,"name":"round","t_ns":190,"dur_ns":80}"#,
            r#"{"seq":4,"ev":"exit","span":2,"name":"serve.flush","t_ns":200,"dur_ns":100}"#,
            r#"{"seq":5,"ev":"enter","span":4,"parent":0,"name":"serve.flush","t_ns":300,"fields":{"rows":2,"requests":2}}"#,
            r#"{"seq":6,"ev":"exit","span":4,"name":"serve.flush","t_ns":700,"dur_ns":400}"#,
            r#"{"seq":7,"ev":"exit","span":5,"name":"serve.request","t_ns":900,"dur_ns":300}"#,
            r#"{"seq":8,"ev":"mark","span":0,"name":"noise","t_ns":901,"fields":{}}"#,
        ]
        .iter()
        .map(|s| (*s).to_owned())
        .collect();
        let d = Digest::of(&lines, 100);
        assert_eq!(d.round_ns, vec![80]);
        assert_eq!(d.rounds_seen, 1);
        assert_eq!(d.request_ns, vec![300]);
        assert_eq!(
            d.flushes,
            vec![
                Flush {
                    rows: 3,
                    requests: 1,
                    dur_ns: 100
                },
                Flush {
                    rows: 2,
                    requests: 2,
                    dur_ns: 400
                },
            ]
        );
        // (1 × 100 + 2 × 400) / 3 requests.
        assert_eq!(d.round_per_request_ns(), 300.0);
        assert_eq!(Digest::default().round_per_request_ns(), 0.0);
    }

    #[test]
    fn ledger_rows_plus_residual_equal_the_span() {
        for ledger in [
            Ledger::tcp(9000.0, 8700.0, 8600.0, 1200.0),
            // Sources that disagree (server span shorter than the engine's
            // own latency) are clamped and show up as residual.
            Ledger::tcp(9000.0, 8000.0, 8600.0, 1200.0),
            Ledger::in_process(8000.0, 15.0, 7800.0, 2900.0),
            Ledger::round_only(14200.0, 14150.0),
        ] {
            let rows = ledger.front_us + ledger.queue_us + ledger.round_us + ledger.reply_us;
            assert!((rows + ledger.residual_us() - ledger.span_us).abs() < 1e-9);
            assert!(ledger.residual_pct() >= 0.0);
        }
        assert_eq!(
            Ledger::tcp(9000.0, 8700.0, 8600.0, 1200.0).residual_us(),
            0.0
        );
        let clamped = Ledger::tcp(9000.0, 8000.0, 8600.0, 1200.0);
        assert_eq!(clamped.reply_us, 0.0);
        assert_eq!(clamped.residual_us(), -600.0);
        let open = Ledger::in_process(8000.0, 15.0, 7800.0, 2900.0);
        assert_eq!(open.residual_us(), 185.0);
    }

    #[test]
    fn capture_keeps_lines_in_order() {
        let sink = Capture::default();
        sink.record("a");
        sink.record("b");
        assert_eq!(sink.take(), vec!["a".to_owned(), "b".to_owned()]);
        assert!(sink.take().is_empty());
    }
}
