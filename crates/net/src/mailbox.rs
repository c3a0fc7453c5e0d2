//! A tag-and-sender-matched mailbox shared by every transport.
//!
//! MPI-style point-to-point semantics need messages matched on
//! `(source, tag)` rather than FIFO over the whole link; the mailbox is the
//! single queueing structure both the in-process and the TCP transports
//! deliver into.

use crate::clock::deadline_after;
use crate::error::NetError;
use crate::transport::{NodeId, Tag};
use parking_lot::{Condvar, Mutex};
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Keyed by `(source, tag)`. Every receive is a keyed lookup, so no
/// iteration order decides a result today; the map is a `BTreeMap`
/// anyway because the `det-map` audit rejects hash maps in protocol
/// paths — a scan added later (a receive from any sender) then walks
/// senders in a fixed (node, tag) order, never in hasher order.
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

    /// Blocks until a message from `from` arrives under `tag`, up to
    /// `timeout`: [`Mailbox::recv_where`] admitting every message, so FIFO
    /// per `(from, tag)` key.
    ///
    /// # Errors
    ///
    /// As [`Mailbox::recv_where`].
    pub fn recv(&self, from: NodeId, tag: Tag, timeout: Duration) -> Result<Vec<u8>, NetError> {
        self.recv_where(from, tag, timeout, &|_| true)
    }

    /// The mailbox's one wait loop: blocks up to `timeout` until a message
    /// from `from` under `tag` that `accept` admits is queued, and takes
    /// the oldest such one. Refused messages stay queued, in order; every
    /// delivery wakes every waiter, so the one a message is for sees it at
    /// once. `accept` runs under the mailbox lock.
    ///
    /// # Errors
    ///
    /// [`NetError::Timeout`] on deadline, [`NetError::Closed`] if the
    /// mailbox closes while (or before) waiting with no admitted message.
    pub fn recv_where(
        &self,
        from: NodeId,
        tag: Tag,
        timeout: Duration,
        accept: &dyn Fn(&[u8]) -> bool,
    ) -> Result<Vec<u8>, NetError> {
        // Receive timeouts are wall-clock by design: the condvar can only
        // wait on real time, and the caller's *deadline budgeting* (the
        // deterministic part) happens upstream on an injected Clock.
        // lint: allow(det-clock)
        let deadline = deadline_after(Instant::now(), timeout);
        let mut queues = self.queues.lock();
        loop {
            let queue = queues.by_key.get_mut(&(from, tag));
            if let Some(msg) = queue.and_then(|q| q.remove(q.iter().position(|m| accept(m))?)) {
                return Ok(msg);
            }
            if self.is_closed() {
                return Err(NetError::Closed);
            }
            // Same wall-clock contract as the deadline above.
            // lint: allow(det-clock)
            let now = Instant::now();
            if now >= deadline {
                return Err(NetError::Timeout {
                    waiting_for: format!("message from node {from} tag {}", tag.0),
                });
            }
            self.available.wait_until(&mut queues, deadline);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    const TAG: Tag = Tag(1);
    const SHORT: Duration = Duration::from_millis(10);

    #[test]
    fn deliver_then_recv() {
        let mb = Mailbox::new();
        mb.deliver(3, TAG, vec![1, 2, 3]);
        assert_eq!(mb.recv(3, TAG, SHORT).unwrap(), vec![1, 2, 3]);
    }

    #[test]
    fn recv_matches_sender_and_tag() {
        let mb = Mailbox::new();
        mb.deliver(1, Tag(9), vec![9]);
        mb.deliver(2, TAG, vec![2]);
        mb.deliver(1, TAG, vec![1]);
        assert_eq!(mb.recv(1, TAG, SHORT).unwrap(), vec![1]);
        assert_eq!(mb.recv(2, TAG, SHORT).unwrap(), vec![2]);
        assert_eq!(mb.recv(1, Tag(9), SHORT).unwrap(), vec![9]);
    }

    #[test]
    fn recv_preserves_fifo_per_key() {
        let mb = Mailbox::new();
        mb.deliver(0, TAG, vec![1]);
        mb.deliver(0, TAG, vec![2]);
        assert_eq!(mb.recv(0, TAG, SHORT).unwrap(), vec![1]);
        assert_eq!(mb.recv(0, TAG, SHORT).unwrap(), vec![2]);
    }

    #[test]
    fn recv_times_out() {
        let mb = Mailbox::new();
        let err = mb.recv(0, TAG, Duration::from_millis(20)).unwrap_err();
        assert!(matches!(err, NetError::Timeout { .. }));
    }

    #[test]
    fn a_refused_frame_stays_queued_for_another_waiter() {
        let mb = Mailbox::new();
        mb.deliver(1, TAG, vec![1]);
        mb.deliver(1, TAG, vec![2]);
        mb.deliver(1, TAG, vec![3]);
        let odd = |msg: &[u8]| msg.first().is_some_and(|b| b % 2 == 1);
        assert_eq!(mb.recv_where(1, TAG, SHORT, &odd).unwrap(), vec![1]);
        assert_eq!(mb.recv_where(1, TAG, SHORT, &odd).unwrap(), vec![3]);
        let err = mb.recv_where(1, TAG, SHORT, &odd).unwrap_err();
        assert!(matches!(err, NetError::Timeout { .. }));
        // The refused frame is still there, for a waiter that admits it.
        assert_eq!(mb.recv(1, TAG, SHORT).unwrap(), vec![2]);
    }

    #[test]
    fn blocked_recv_wakes_on_delivery() {
        let mb = Arc::new(Mailbox::new());
        let mb2 = Arc::clone(&mb);
        let handle = std::thread::spawn(move || mb2.recv(1, TAG, Duration::from_secs(5)));
        std::thread::sleep(Duration::from_millis(30));
        mb.deliver(1, TAG, vec![42]);
        assert_eq!(handle.join().unwrap().unwrap(), vec![42]);
    }

    #[test]
    fn close_unblocks_waiters_and_still_hands_out_queued_messages() {
        let mb = Arc::new(Mailbox::new());
        let mb2 = Arc::clone(&mb);
        let handle = std::thread::spawn(move || mb2.recv(1, TAG, Duration::from_secs(5)));
        std::thread::sleep(Duration::from_millis(30));
        mb.close();
        assert!(matches!(handle.join().unwrap(), Err(NetError::Closed)));
        // Closed but not drained: a queued message is still handed out.
        mb.deliver(1, TAG, vec![9]);
        assert_eq!(mb.recv(1, TAG, SHORT).unwrap(), vec![9]);
    }
}
