//! The [`Transport`] abstraction and the in-process channel transport.
//!
//! A transport is a full mesh between `num_nodes` peers with MPI-style
//! `(source, tag)`-matched point-to-point messaging. Two implementations
//! exist: [`ChannelTransport`] (zero-copy in-process delivery, used by the
//! simulator and most tests) and [`crate::TcpTransport`] (framed sockets,
//! what an actual edge deployment uses — the paper's "sockets and TCP").

use crate::error::NetError;
use crate::mailbox::Mailbox;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Identifier of a node within a cluster (0-based, dense).
pub type NodeId = usize;

/// Message tag, used for `(source, tag)` receive matching.
///
/// `Ord` so tags can key the ordered (deterministically iterable)
/// collections the mailbox uses — see the `det-map` audit rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Tag(pub u32);

/// Cumulative traffic counters for one transport endpoint.
///
/// The edge-device cost model converts these into modeled WiFi airtime.
/// The fault counters stay zero on real transports; fault-injection
/// decorators ([`crate::ChaosTransport`]) account every fault they inject
/// here so chaos tests can assert that faults actually fired.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TransportStats {
    /// Messages sent by this endpoint.
    pub messages_sent: u64,
    /// Payload bytes sent by this endpoint (excluding framing).
    pub bytes_sent: u64,
    /// Messages silently dropped by fault injection (incl. black-holing).
    pub messages_dropped: u64,
    /// Messages held back and re-ordered by fault injection.
    pub messages_delayed: u64,
    /// Messages delivered with a flipped bit by fault injection.
    pub messages_corrupted: u64,
    /// Messages delivered twice by fault injection.
    pub messages_duplicated: u64,
}

/// A point-to-point message-passing endpoint in a full mesh.
pub trait Transport: Send + Sync {
    /// This endpoint's node id.
    fn node_id(&self) -> NodeId;

    /// Total number of nodes in the cluster.
    fn num_nodes(&self) -> usize;

    /// Sends `payload` to `to` under `tag`.
    ///
    /// # Errors
    ///
    /// [`NetError::UnknownPeer`] for an out-of-range destination, transport
    /// specific I/O errors otherwise.
    fn send(&self, to: NodeId, tag: Tag, payload: &[u8]) -> Result<(), NetError>;

    /// Receives the oldest message from `from` under `tag` that `accept`
    /// admits, waiting up to `timeout` in a single blocking wait; refused
    /// messages stay queued for another waiter. Messages of one
    /// `(from, tag)` pair arrive in the order they were sent. A wrapper
    /// forwards `accept` as given: dropping it would hand one waiter the
    /// frames another is waiting for.
    ///
    /// # Errors
    ///
    /// [`NetError::Timeout`] on deadline, [`NetError::Closed`] after
    /// shutdown.
    fn recv_where(
        &self,
        from: NodeId,
        tag: Tag,
        timeout: Duration,
        accept: &dyn Fn(&[u8]) -> bool,
    ) -> Result<Vec<u8>, NetError>;

    /// [`Transport::recv_where`] admitting every message.
    ///
    /// # Errors
    ///
    /// As [`Transport::recv_where`].
    fn recv(&self, from: NodeId, tag: Tag, timeout: Duration) -> Result<Vec<u8>, NetError> {
        self.recv_where(from, tag, timeout, &|_| true)
    }

    /// Traffic counters since creation.
    fn stats(&self) -> TransportStats;
}

struct SharedCounters {
    messages: AtomicU64,
    bytes: AtomicU64,
}

/// In-process transport: a full mesh over shared mailboxes.
///
/// Create a whole cluster at once with [`ChannelTransport::mesh`]; each
/// returned endpoint can be moved to its own thread.
pub struct ChannelTransport {
    node_id: NodeId,
    mailboxes: Arc<Vec<Arc<Mailbox>>>,
    counters: SharedCounters,
}

impl ChannelTransport {
    /// Creates a fully connected cluster of `n` endpoints.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn mesh(n: usize) -> Vec<ChannelTransport> {
        assert!(n > 0, "cluster needs at least one node");
        let mailboxes: Arc<Vec<Arc<Mailbox>>> =
            Arc::new((0..n).map(|_| Arc::new(Mailbox::new())).collect());
        (0..n)
            .map(|node_id| ChannelTransport {
                node_id,
                mailboxes: Arc::clone(&mailboxes),
                counters: SharedCounters {
                    messages: AtomicU64::new(0),
                    bytes: AtomicU64::new(0),
                },
            })
            .collect()
    }

    /// Closes this endpoint's mailbox, waking any blocked receivers.
    pub fn shutdown(&self) {
        self.own_mailbox().close();
    }

    fn own_mailbox(&self) -> &Mailbox {
        // node_id < mailboxes.len() by construction in `mesh`.
        // lint: allow(no-index)
        &self.mailboxes[self.node_id]
    }
}

impl std::fmt::Debug for ChannelTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ChannelTransport(node {}/{})",
            self.node_id,
            self.mailboxes.len()
        )
    }
}

impl Transport for ChannelTransport {
    fn node_id(&self) -> NodeId {
        self.node_id
    }

    fn num_nodes(&self) -> usize {
        self.mailboxes.len()
    }

    fn send(&self, to: NodeId, tag: Tag, payload: &[u8]) -> Result<(), NetError> {
        let mailbox = self.mailboxes.get(to).ok_or(NetError::UnknownPeer(to))?;
        if mailbox.is_closed() {
            return Err(NetError::Closed);
        }
        self.counters.messages.fetch_add(1, Ordering::Relaxed);
        self.counters
            .bytes
            .fetch_add(payload.len() as u64, Ordering::Relaxed);
        mailbox.deliver(self.node_id, tag, payload.to_vec());
        Ok(())
    }

    fn recv_where(
        &self,
        from: NodeId,
        tag: Tag,
        timeout: Duration,
        accept: &dyn Fn(&[u8]) -> bool,
    ) -> Result<Vec<u8>, NetError> {
        if from >= self.num_nodes() {
            return Err(NetError::UnknownPeer(from));
        }
        self.own_mailbox().recv_where(from, tag, timeout, accept)
    }

    fn stats(&self) -> TransportStats {
        TransportStats {
            messages_sent: self.counters.messages.load(Ordering::Relaxed),
            bytes_sent: self.counters.bytes.load(Ordering::Relaxed),
            ..TransportStats::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TAG: Tag = Tag(7);
    const SHORT: Duration = Duration::from_millis(100);

    #[test]
    fn mesh_roundtrip() {
        let nodes = ChannelTransport::mesh(3);
        nodes[0].send(2, TAG, b"hello").unwrap();
        let got = nodes[2].recv(0, TAG, SHORT).unwrap();
        assert_eq!(got, b"hello");
    }

    #[test]
    fn send_to_unknown_peer_fails() {
        let nodes = ChannelTransport::mesh(2);
        assert!(matches!(
            nodes[0].send(5, TAG, b"x"),
            Err(NetError::UnknownPeer(5))
        ));
        assert!(matches!(
            nodes[0].recv(5, TAG, SHORT),
            Err(NetError::UnknownPeer(5))
        ));
    }

    #[test]
    fn stats_count_sends() {
        let nodes = ChannelTransport::mesh(2);
        nodes[0].send(1, TAG, &[0u8; 10]).unwrap();
        nodes[0].send(1, TAG, &[0u8; 5]).unwrap();
        assert_eq!(
            nodes[0].stats(),
            TransportStats {
                messages_sent: 2,
                bytes_sent: 15,
                ..TransportStats::default()
            }
        );
        assert_eq!(nodes[1].stats(), TransportStats::default());
    }

    #[test]
    fn stats_count_only_the_sends_that_went_out() {
        let nodes = ChannelTransport::mesh(2);
        nodes[0].send(1, TAG, &[0u8; 10]).unwrap();
        nodes[1].shutdown();
        assert!(nodes[0].send(1, TAG, &[0u8; 10]).is_err());
        let stats = nodes[0].stats();
        assert_eq!((stats.messages_sent, stats.bytes_sent), (1, 10));
    }

    #[test]
    fn recv_with_duration_max_returns_a_queued_frame() {
        let nodes = ChannelTransport::mesh(2);
        nodes[0].send(1, TAG, b"queued").unwrap();
        assert_eq!(nodes[1].recv(0, TAG, Duration::MAX).unwrap(), b"queued");
    }

    #[test]
    fn cross_thread_messaging() {
        let mut nodes = ChannelTransport::mesh(2);
        let n1 = nodes.pop().unwrap();
        let n0 = nodes.pop().unwrap();
        let handle = std::thread::spawn(move || {
            let msg = n1.recv(0, TAG, Duration::from_secs(2)).unwrap();
            n1.send(0, Tag(8), &msg).unwrap();
        });
        n0.send(1, TAG, b"ping").unwrap();
        let reply = n0.recv(1, Tag(8), Duration::from_secs(2)).unwrap();
        assert_eq!(reply, b"ping");
        handle.join().unwrap();
    }

    #[test]
    fn shutdown_propagates_closed() {
        let nodes = ChannelTransport::mesh(2);
        nodes[1].shutdown();
        assert!(matches!(nodes[0].send(1, TAG, b"x"), Err(NetError::Closed)));
        assert!(matches!(
            nodes[1].recv(0, TAG, SHORT),
            Err(NetError::Closed)
        ));
    }

    #[test]
    fn self_send_is_allowed() {
        let nodes = ChannelTransport::mesh(1);
        nodes[0].send(0, TAG, b"loop").unwrap();
        assert_eq!(nodes[0].recv(0, TAG, SHORT).unwrap(), b"loop");
    }
}
