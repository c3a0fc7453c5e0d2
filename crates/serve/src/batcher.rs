//! Pure FIFO request coalescing with admission control.
//!
//! The batcher is the deterministic heart of the serving front-end: a
//! clock-free state machine over `(request id, row count, enqueue time)`
//! triples. It decides *who* gets in ([`Batcher::admit`]) and *what* the
//! next batch holds ([`Batcher::take_batch`]: whole requests, oldest
//! first, up to `max_batch_rows`), never *when*: the engine takes a batch
//! whenever it is free and anything is pending, so requests coalesce for
//! exactly as long as the round before them is in flight (DESIGN.md
//! §16.2). The enqueue time is only carried, for the latency histogram.
//!
//! Admission control bounds the pending queue at `window` rows. The
//! window starts at `queue_cap_rows` and shrinks proportionally when the
//! failure detector quarantines workers ([`Batcher::set_health`]): a
//! degraded team drains the queue slower, so the front door narrows
//! instead of letting latency grow without bound.

use crate::error::ServeError;
use std::collections::VecDeque;

/// Policy knobs for [`Batcher`].
#[derive(Debug, Clone)]
pub struct BatcherConfig {
    /// No single flush carries more rows than this: it bounds the
    /// batched tensor of one round, hence the round's time and memory.
    /// Requests larger than this are rejected as malformed at submission.
    pub max_batch_rows: usize,
    /// Admission cap at full health, in rows. The live window shrinks
    /// below this while workers are quarantined.
    pub queue_cap_rows: usize,
}

impl Default for BatcherConfig {
    fn default() -> Self {
        BatcherConfig {
            max_batch_rows: 64,
            queue_cap_rows: 256,
        }
    }
}

/// One admitted request waiting to be flushed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PendingRequest {
    /// Caller-chosen request id, demuxed back to the ticket on flush.
    pub id: u64,
    /// Rows this request contributes to the batched tensor.
    pub rows: usize,
    /// Submission time, as nanoseconds on the engine's clock.
    pub enqueued_ns: u64,
}

/// The coalescing queue. Pure state: no clock, no IO.
#[derive(Debug)]
pub struct Batcher {
    config: BatcherConfig,
    window: usize,
    pending: VecDeque<PendingRequest>,
    depth_rows: usize,
}

impl Batcher {
    /// An empty batcher with the admission window at full health.
    pub fn new(config: BatcherConfig) -> Self {
        let window = config.queue_cap_rows.max(1);
        Batcher {
            config,
            window,
            pending: VecDeque::new(),
            depth_rows: 0,
        }
    }

    /// Rows currently pending.
    pub fn depth_rows(&self) -> usize {
        self.depth_rows
    }

    /// Requests currently pending.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// Whether no requests are pending.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// The current admission window in rows.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Admits a request or rejects it with a typed error.
    ///
    /// # Errors
    ///
    /// [`ServeError::Malformed`] for zero-row or over-`max_batch_rows`
    /// requests (the latter could never fit a flush);
    /// [`ServeError::Overloaded`] when the pending queue cannot take
    /// `rows` more within the current admission window.
    pub fn admit(&mut self, id: u64, rows: usize, now_ns: u64) -> Result<(), ServeError> {
        if rows == 0 {
            return Err(ServeError::Malformed("request with zero rows".into()));
        }
        if rows > self.config.max_batch_rows {
            return Err(ServeError::Malformed(format!(
                "request of {rows} rows exceeds the batch cap of {}",
                self.config.max_batch_rows
            )));
        }
        if self.depth_rows + rows > self.window {
            return Err(ServeError::Overloaded {
                depth: self.depth_rows,
                window: self.window,
            });
        }
        self.depth_rows += rows;
        self.pending.push_back(PendingRequest {
            id,
            rows,
            enqueued_ns: now_ns,
        });
        Ok(())
    }

    /// Backpressure hook: narrows the admission window to the live
    /// fraction of the team (`live` of `total` nodes answering), never
    /// below one row. Already-admitted requests are unaffected.
    pub fn set_health(&mut self, live: usize, total: usize) {
        let cap = self.config.queue_cap_rows.max(1);
        self.window = if total == 0 {
            cap
        } else {
            (cap * live.min(total) / total).max(1)
        };
    }

    /// Pops the next flush: whole requests, oldest first, while their
    /// rows fit in `max_batch_rows` (always at least one — admission
    /// guarantees every pending request fits alone). Returns an empty
    /// vec when idle.
    pub fn take_batch(&mut self) -> Vec<PendingRequest> {
        let mut batch = Vec::new();
        let mut rows = 0usize;
        while let Some(front) = self.pending.front() {
            if !batch.is_empty() && rows + front.rows > self.config.max_batch_rows {
                break;
            }
            rows += front.rows;
            self.depth_rows -= front.rows;
            // The front exists: the loop condition just matched it.
            if let Some(p) = self.pending.pop_front() {
                batch.push(p);
            }
        }
        batch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batcher(max_rows: usize, cap: usize) -> Batcher {
        Batcher::new(BatcherConfig {
            max_batch_rows: max_rows,
            queue_cap_rows: cap,
        })
    }

    /// The batcher holds nothing back: whatever is pending leaves on the
    /// next take, however little and however recent, up to the cap.
    #[test]
    fn a_take_never_waits_for_rows_or_age() {
        let mut b = batcher(4, 64);
        b.admit(1, 1, 1_000).unwrap();
        let lone = b.take_batch();
        assert_eq!(lone.iter().map(|p| p.id).collect::<Vec<_>>(), vec![1]);
        assert_eq!(lone.first().map(|p| p.enqueued_ns), Some(1_000));
        for id in 2..=7 {
            b.admit(id, 1, 1_000).unwrap();
        }
        let full = b.take_batch();
        assert_eq!(
            full.iter().map(|p| p.id).collect::<Vec<_>>(),
            vec![2, 3, 4, 5],
            "6 rows pending, 4-row cap"
        );
        assert_eq!(b.depth_rows(), 2);
    }

    #[test]
    fn admission_rejects_over_window() {
        let mut b = batcher(8, 10);
        b.admit(1, 8, 0).unwrap();
        let err = b.admit(2, 3, 0).unwrap_err();
        assert_eq!(
            err,
            ServeError::Overloaded {
                depth: 8,
                window: 10
            }
        );
        // A smaller request still fits.
        b.admit(3, 2, 0).unwrap();
    }

    #[test]
    fn malformed_rows_rejected() {
        let mut b = batcher(8, 64);
        assert!(matches!(b.admit(1, 0, 0), Err(ServeError::Malformed(_))));
        assert!(matches!(b.admit(1, 9, 0), Err(ServeError::Malformed(_))));
    }

    #[test]
    fn quarantine_shrinks_window_and_recovery_restores_it() {
        let mut b = batcher(8, 90);
        assert_eq!(b.window(), 90);
        b.set_health(1, 3);
        assert_eq!(b.window(), 30);
        b.set_health(0, 3);
        assert_eq!(b.window(), 1, "window never collapses to zero");
        b.set_health(3, 3);
        assert_eq!(b.window(), 90);
    }

    #[test]
    fn take_batch_is_whole_request_fifo() {
        let mut b = batcher(4, 64);
        b.admit(1, 2, 0).unwrap();
        b.admit(2, 2, 1).unwrap();
        b.admit(3, 1, 2).unwrap();
        let batch = b.take_batch();
        assert_eq!(
            batch.iter().map(|p| p.id).collect::<Vec<_>>(),
            vec![1, 2],
            "request 3 would overflow the 4-row cap"
        );
        assert_eq!(b.depth_rows(), 1);
        let rest = b.take_batch();
        assert_eq!(rest.len(), 1);
        assert_eq!(rest.first().map(|p| p.id), Some(3));
        assert!(b.is_empty());
        assert!(b.take_batch().is_empty());
    }

    #[test]
    fn oversized_front_flushes_alone() {
        let mut b = batcher(4, 64);
        b.admit(1, 4, 0).unwrap();
        b.admit(2, 1, 1).unwrap();
        let batch = b.take_batch();
        assert_eq!(batch.len(), 1);
        assert_eq!(batch.first().map(|p| p.rows), Some(4));
    }
}
