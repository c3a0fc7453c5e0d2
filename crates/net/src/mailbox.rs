//! A tag-and-sender-matched mailbox shared by every transport.
//!
//! MPI-style point-to-point semantics need messages matched on
//! `(source, tag)` rather than FIFO over the whole link; the mailbox is the
//! single queueing structure both the in-process and the TCP transports
//! deliver into.

use crate::error::NetError;
use crate::transport::{NodeId, Tag};
use parking_lot::{Condvar, Mutex};
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Keyed by `(source, tag)`. A `BTreeMap` rather than a hash map so that
/// [`Mailbox::recv_any`] scans candidates in a fixed (node, tag) order —
/// with a hash map, which sender wins a `recv_any` race depended on
/// hasher state, an unseeded source of run-to-run nondeterminism the
/// `det-map` audit pass now rejects in protocol paths.
#[derive(Default)]
struct Queues {
    by_key: BTreeMap<(NodeId, Tag), VecDeque<Vec<u8>>>,
}

/// A blocking, condvar-signalled multi-queue of incoming messages.
pub struct Mailbox {
    queues: Mutex<Queues>,
    available: Condvar,
    closed: AtomicBool,
}

impl Default for Mailbox {
    fn default() -> Self {
        Mailbox::new()
    }
}

impl Mailbox {
    /// Creates an empty mailbox.
    pub fn new() -> Self {
        Mailbox {
            queues: Mutex::new(Queues::default()),
            available: Condvar::new(),
            closed: AtomicBool::new(false),
        }
    }

    /// Delivers a message from `from` with `tag`.
    pub fn deliver(&self, from: NodeId, tag: Tag, payload: Vec<u8>) {
        let mut queues = self.queues.lock();
        queues
            .by_key
            .entry((from, tag))
            .or_default()
            .push_back(payload);
        drop(queues);
        self.available.notify_all();
    }

    /// Marks the mailbox closed; pending and future receives fail with
    /// [`NetError::Closed`] once drained.
    pub fn close(&self) {
        self.closed.store(true, Ordering::SeqCst);
        self.available.notify_all();
    }

    /// True once [`Mailbox::close`] has been called.
    pub fn is_closed(&self) -> bool {
        self.closed.load(Ordering::SeqCst)
    }

    /// Blocks until a message from `from` arrives under **any** of
    /// `tags`, up to `timeout`, and returns it with the tag it came under.
    /// This is the one blocking point-to-point receive: a node waiting on
    /// several kinds of traffic from one peer (a worker on its master's
    /// shutdown *and* input tags) parks once on the condvar instead of
    /// polling each tag in turn.
    ///
    /// When several of the tags have a message queued, the tag listed
    /// **first** wins — callers order `tags` by priority. Within one tag
    /// delivery order is FIFO.
    ///
    /// # Errors
    ///
    /// [`NetError::Timeout`] on deadline, [`NetError::Closed`] if the
    /// mailbox closes while (or before) waiting with no matching message.
    pub fn recv_tags(
        &self,
        from: NodeId,
        tags: &[Tag],
        timeout: Duration,
    ) -> Result<(Tag, Vec<u8>), NetError> {
        // Receive timeouts are wall-clock by design: the condvar can only
        // wait on real time, and the caller's *deadline budgeting* (the
        // deterministic part) happens upstream on an injected Clock.
        // lint: allow(det-clock)
        let deadline = Instant::now() + timeout;
        let mut queues = self.queues.lock();
        loop {
            let hit = tags.iter().find_map(|&tag| {
                let msg = queues.by_key.get_mut(&(from, tag))?.pop_front()?;
                Some((tag, msg))
            });
            if let Some(hit) = hit {
                return Ok(hit);
            }
            if self.is_closed() {
                return Err(NetError::Closed);
            }
            // Same wall-clock contract as the deadline above.
            // lint: allow(det-clock)
            let now = Instant::now();
            if now >= deadline {
                let waiting_for = match tags {
                    [tag] => format!("message from node {from} tag {}", tag.0),
                    _ => format!("message from node {from} under any of {} tags", tags.len()),
                };
                return Err(NetError::Timeout { waiting_for });
            }
            self.available.wait_until(&mut queues, deadline);
        }
    }

    /// Blocks until a message with `tag` arrives from *any* sender.
    ///
    /// # Errors
    ///
    /// Same as [`Mailbox::recv_tags`].
    pub fn recv_any(&self, tag: Tag, timeout: Duration) -> Result<(NodeId, Vec<u8>), NetError> {
        // Wall-clock receive deadline, as in `recv_tags`. lint: allow(det-clock)
        let deadline = Instant::now() + timeout;
        let mut queues = self.queues.lock();
        loop {
            // BTreeMap order: ties between waiting senders resolve to the
            // lowest (node, tag) key, deterministically.
            let hit = queues
                .by_key
                .iter_mut()
                .find(|((_, t), queue)| *t == tag && !queue.is_empty())
                .and_then(|(&(from, _), queue)| queue.pop_front().map(|msg| (from, msg)));
            if let Some(hit) = hit {
                return Ok(hit);
            }
            if self.is_closed() {
                return Err(NetError::Closed);
            }
            // Same wall-clock contract. lint: allow(det-clock)
            let now = Instant::now();
            if now >= deadline {
                return Err(NetError::Timeout {
                    waiting_for: format!("any message with tag {}", tag.0),
                });
            }
            self.available.wait_until(&mut queues, deadline);
        }
    }

    /// Number of queued messages across all keys (diagnostics).
    pub fn pending(&self) -> usize {
        self.queues.lock().by_key.values().map(VecDeque::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    const TAG: Tag = Tag(1);

    /// The one-tag case of [`Mailbox::recv_tags`], as `Transport::recv`
    /// issues it.
    fn recv(mb: &Mailbox, from: NodeId, tag: Tag, wait: Duration) -> Result<Vec<u8>, NetError> {
        mb.recv_tags(from, &[tag], wait).map(|(_, msg)| msg)
    }

    #[test]
    fn deliver_then_recv() {
        let mb = Mailbox::new();
        mb.deliver(3, TAG, vec![1, 2, 3]);
        assert_eq!(
            recv(&mb, 3, TAG, Duration::from_millis(10)).unwrap(),
            vec![1, 2, 3]
        );
    }

    #[test]
    fn recv_matches_sender_and_tag() {
        let mb = Mailbox::new();
        mb.deliver(1, Tag(9), vec![9]);
        mb.deliver(2, TAG, vec![2]);
        mb.deliver(1, TAG, vec![1]);
        assert_eq!(
            recv(&mb, 1, TAG, Duration::from_millis(10)).unwrap(),
            vec![1]
        );
        assert_eq!(
            recv(&mb, 2, TAG, Duration::from_millis(10)).unwrap(),
            vec![2]
        );
        assert_eq!(
            recv(&mb, 1, Tag(9), Duration::from_millis(10)).unwrap(),
            vec![9]
        );
    }

    #[test]
    fn recv_preserves_fifo_per_key() {
        let mb = Mailbox::new();
        mb.deliver(0, TAG, vec![1]);
        mb.deliver(0, TAG, vec![2]);
        assert_eq!(
            recv(&mb, 0, TAG, Duration::from_millis(10)).unwrap(),
            vec![1]
        );
        assert_eq!(
            recv(&mb, 0, TAG, Duration::from_millis(10)).unwrap(),
            vec![2]
        );
    }

    #[test]
    fn recv_times_out() {
        let mb = Mailbox::new();
        let err = recv(&mb, 0, TAG, Duration::from_millis(20)).unwrap_err();
        assert!(matches!(err, NetError::Timeout { .. }));
    }

    #[test]
    fn recv_tags_prefers_the_first_listed_tag() {
        let mb = Mailbox::new();
        let (hi, lo) = (Tag(30), Tag(10));
        // Queued in the "wrong" order, and `lo` sorts first as a key:
        // neither arrival order nor key order decides, the list does.
        mb.deliver(0, lo, vec![1]);
        mb.deliver(0, hi, vec![2]);
        let short = Duration::from_millis(10);
        assert_eq!(mb.recv_tags(0, &[hi, lo], short).unwrap(), (hi, vec![2]));
        assert_eq!(mb.recv_tags(0, &[hi, lo], short).unwrap(), (lo, vec![1]));
    }

    #[test]
    fn recv_tags_is_fifo_per_key_and_ignores_other_senders_and_tags() {
        let mb = Mailbox::new();
        let (a, b) = (Tag(1), Tag(2));
        mb.deliver(7, a, vec![0]); // other sender
        mb.deliver(0, Tag(99), vec![0]); // unlisted tag
        mb.deliver(0, b, vec![1]);
        mb.deliver(0, b, vec![2]);
        let short = Duration::from_millis(10);
        assert_eq!(mb.recv_tags(0, &[a, b], short).unwrap(), (b, vec![1]));
        assert_eq!(mb.recv_tags(0, &[a, b], short).unwrap(), (b, vec![2]));
        assert!(matches!(
            mb.recv_tags(0, &[a, b], short),
            Err(NetError::Timeout { .. })
        ));
        assert_eq!(mb.pending(), 2);
    }

    #[test]
    fn recv_tags_wakes_on_either_tag_without_polling() {
        let mb = Arc::new(Mailbox::new());
        for tag in [Tag(1), Tag(2)] {
            let (ready_tx, ready_rx) = std::sync::mpsc::channel();
            let mb2 = Arc::clone(&mb);
            let waiter = std::thread::spawn(move || {
                ready_tx.send(()).unwrap();
                mb2.recv_tags(3, &[Tag(1), Tag(2)], Duration::from_secs(5))
            });
            ready_rx.recv().unwrap();
            mb.deliver(3, tag, vec![tag.0 as u8]);
            assert_eq!(waiter.join().unwrap().unwrap(), (tag, vec![tag.0 as u8]));
        }
    }

    #[test]
    fn recv_tags_times_out_and_reports_close() {
        let mb = Arc::new(Mailbox::new());
        let err = mb
            .recv_tags(0, &[Tag(1), Tag(2)], Duration::from_millis(20))
            .unwrap_err();
        assert!(matches!(err, NetError::Timeout { .. }), "{err:?}");
        // An empty tag list can never match: it times out, it does not spin.
        assert!(matches!(
            mb.recv_tags(0, &[], Duration::from_millis(5)),
            Err(NetError::Timeout { .. })
        ));
        let (ready_tx, ready_rx) = std::sync::mpsc::channel();
        let mb2 = Arc::clone(&mb);
        let waiter = std::thread::spawn(move || {
            ready_tx.send(()).unwrap();
            mb2.recv_tags(1, &[Tag(1), Tag(2)], Duration::from_secs(5))
        });
        ready_rx.recv().unwrap();
        mb.close();
        assert!(matches!(waiter.join().unwrap(), Err(NetError::Closed)));
        // Closed but not drained: a queued message is still handed out.
        mb.deliver(1, Tag(2), vec![9]);
        assert_eq!(
            mb.recv_tags(1, &[Tag(1), Tag(2)], Duration::from_millis(5))
                .unwrap(),
            (Tag(2), vec![9])
        );
    }

    #[test]
    fn recv_any_tie_break_is_lowest_sender_first() {
        // With several senders waiting, recv_any must drain them in key
        // order — the same order every run (no hasher-dependent winner).
        let mb = Mailbox::new();
        for from in [9, 2, 7, 0] {
            mb.deliver(from, TAG, vec![from as u8]);
        }
        let order: Vec<NodeId> = (0..4)
            .map(|_| mb.recv_any(TAG, Duration::from_millis(10)).unwrap().0)
            .collect();
        assert_eq!(order, vec![0, 2, 7, 9]);
    }

    #[test]
    fn recv_any_returns_sender() {
        let mb = Mailbox::new();
        mb.deliver(5, TAG, vec![7]);
        let (from, msg) = mb.recv_any(TAG, Duration::from_millis(10)).unwrap();
        assert_eq!(from, 5);
        assert_eq!(msg, vec![7]);
    }

    #[test]
    fn blocked_recv_wakes_on_delivery() {
        let mb = Arc::new(Mailbox::new());
        let mb2 = Arc::clone(&mb);
        let handle = std::thread::spawn(move || recv(&mb2, 1, TAG, Duration::from_secs(5)));
        std::thread::sleep(Duration::from_millis(30));
        mb.deliver(1, TAG, vec![42]);
        assert_eq!(handle.join().unwrap().unwrap(), vec![42]);
    }

    #[test]
    fn close_unblocks_waiters() {
        let mb = Arc::new(Mailbox::new());
        let mb2 = Arc::clone(&mb);
        let handle = std::thread::spawn(move || recv(&mb2, 1, TAG, Duration::from_secs(5)));
        std::thread::sleep(Duration::from_millis(30));
        mb.close();
        assert!(matches!(handle.join().unwrap(), Err(NetError::Closed)));
    }

    #[test]
    fn pending_counts_messages() {
        let mb = Mailbox::new();
        assert_eq!(mb.pending(), 0);
        mb.deliver(0, TAG, vec![]);
        mb.deliver(1, Tag(2), vec![]);
        assert_eq!(mb.pending(), 2);
    }
}
