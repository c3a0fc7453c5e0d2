//! MPI-style collective operations over any [`Transport`].
//!
//! The paper's MPI baselines (MPI-Matrix, MPI-Branch, MPI-Kernel) and the
//! TeamNet runtime itself are built from exactly these primitives:
//! broadcast, scatter, gather, all-gather, all-reduce and barrier. All
//! collectives here use a flat root-relay topology — the right model for a
//! handful of edge devices on one WiFi BSS, where every transmission shares
//! the same medium anyway.

use crate::clock::{Clock, SystemClock};
use crate::error::NetError;
use crate::retry::{Backoff, RetryPolicy};
use crate::transport::{NodeId, Tag, Transport};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Base of the tag space reserved for collective plumbing. User code must
/// not send on tags at or above this value.
pub const COLLECTIVE_TAG_BASE: u32 = 0xC000_0000;

const BCAST: Tag = Tag(COLLECTIVE_TAG_BASE);
const GATHER: Tag = Tag(COLLECTIVE_TAG_BASE + 1);
const SCATTER: Tag = Tag(COLLECTIVE_TAG_BASE + 2);
const REDUCE: Tag = Tag(COLLECTIVE_TAG_BASE + 3);
const BARRIER_UP: Tag = Tag(COLLECTIVE_TAG_BASE + 4);
const BARRIER_DOWN: Tag = Tag(COLLECTIVE_TAG_BASE + 5);

/// A view over a transport providing collective operations.
///
/// Every node of the cluster must call the *same* collectives in the *same*
/// order (standard MPI contract); mismatched calls deadlock until the
/// deadline budget fires.
///
/// Each collective call is driven by one **deadline budget** (the
/// `budget` duration): every send retry, backoff sleep and receive leg of
/// that call draws from the same wall-clock allowance, so a collective can
/// never take longer than its budget no matter how many peers straggle or
/// how many retries fire. Failed sends are retried with exponential
/// backoff and deterministic jitter per [`RetryPolicy`].
pub struct Communicator<'a> {
    transport: &'a dyn Transport,
    budget: Duration,
    retry: RetryPolicy,
    clock: Arc<dyn Clock>,
}

impl<'a> Communicator<'a> {
    /// Wraps a transport with the default 30 s deadline budget and the
    /// default retry policy.
    pub fn new(transport: &'a dyn Transport) -> Self {
        Communicator {
            transport,
            budget: Duration::from_secs(30),
            retry: RetryPolicy::default(),
            clock: Arc::new(SystemClock),
        }
    }

    /// Overrides the per-collective deadline budget.
    pub fn with_timeout(transport: &'a dyn Transport, budget: Duration) -> Self {
        let mut comm = Communicator::new(transport);
        comm.budget = budget;
        comm
    }

    /// Overrides the send retry policy (builder style).
    pub fn retry_policy(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Overrides the clock that measures deadline budgets and runs
    /// backoff sleeps (builder style); tests inject a
    /// [`crate::ManualClock`] to exercise budget exhaustion virtually.
    pub fn clock(mut self, clock: Arc<dyn Clock>) -> Self {
        self.clock = clock;
        self
    }

    /// This node's rank.
    pub fn rank(&self) -> NodeId {
        self.transport.node_id()
    }

    /// Cluster size.
    pub fn size(&self) -> usize {
        self.transport.num_nodes()
    }

    /// The deadline for a collective op starting now.
    fn deadline(&self) -> Instant {
        self.clock.now() + self.budget
    }

    /// Sends with bounded retries + backoff, all inside `deadline`.
    fn send_retrying(
        &self,
        to: NodeId,
        tag: Tag,
        payload: &[u8],
        deadline: Instant,
    ) -> Result<(), NetError> {
        // Jitter seed mixes rank and destination so concurrently retrying
        // nodes desynchronize, yet a rerun replays identically.
        let seed = (self.rank() as u64) << 32 | to as u64 ^ u64::from(tag.0);
        let mut backoff =
            Backoff::with_clock(self.retry.clone(), seed, deadline, Arc::clone(&self.clock));
        loop {
            match self.transport.send(to, tag, payload) {
                Ok(()) => return Ok(()),
                // Permanent failures: retrying cannot help.
                Err(e @ (NetError::UnknownPeer(_) | NetError::Closed)) => return Err(e),
                Err(e) => match backoff.next_delay() {
                    Some(delay) => self.clock.sleep(delay),
                    None => return Err(e),
                },
            }
        }
    }

    /// Receives against the remaining deadline budget.
    fn recv_deadline(
        &self,
        from: NodeId,
        tag: Tag,
        deadline: Instant,
    ) -> Result<Vec<u8>, NetError> {
        let remaining = deadline.saturating_duration_since(self.clock.now());
        self.transport.recv(from, tag, remaining)
    }

    /// Broadcasts `data` from `root` to every node; all nodes receive the
    /// payload (the root receives its own copy back).
    ///
    /// Non-root callers pass `None`.
    ///
    /// # Errors
    ///
    /// Propagates transport errors; the root errors if called without data.
    pub fn broadcast(&self, root: NodeId, data: Option<&[u8]>) -> Result<Vec<u8>, NetError> {
        let deadline = self.deadline();
        if self.rank() == root {
            let data = data.ok_or_else(|| {
                NetError::Malformed("broadcast root must supply data".to_string())
            })?;
            for peer in 0..self.size() {
                if peer != root {
                    self.send_retrying(peer, BCAST, data, deadline)?;
                }
            }
            Ok(data.to_vec())
        } else {
            self.recv_deadline(root, BCAST, deadline)
        }
    }

    /// Gathers every node's `mine` at `root`; returns `Some(parts)` (rank
    /// indexed) at the root and `None` elsewhere.
    ///
    /// # Errors
    ///
    /// Propagates transport errors and timeouts on missing contributions.
    pub fn gather(&self, root: NodeId, mine: &[u8]) -> Result<Option<Vec<Vec<u8>>>, NetError> {
        let deadline = self.deadline();
        if self.rank() == root {
            let mut parts = vec![Vec::new(); self.size()];
            // root == rank() here and rank() < size() always. lint: allow(no-index)
            parts[root] = mine.to_vec();
            for (peer, part) in parts.iter_mut().enumerate() {
                if peer != root {
                    *part = self.recv_deadline(peer, GATHER, deadline)?;
                }
            }
            Ok(Some(parts))
        } else {
            self.send_retrying(root, GATHER, mine, deadline)?;
            Ok(None)
        }
    }

    /// Scatters one payload per rank from `root`; each node receives its
    /// own part. Non-root callers pass `None`.
    ///
    /// # Errors
    ///
    /// The root errors unless it supplies exactly `size()` parts.
    pub fn scatter(&self, root: NodeId, parts: Option<&[Vec<u8>]>) -> Result<Vec<u8>, NetError> {
        let deadline = self.deadline();
        if self.rank() == root {
            let parts = parts
                .ok_or_else(|| NetError::Malformed("scatter root must supply parts".to_string()))?;
            if parts.len() != self.size() {
                return Err(NetError::Malformed(format!(
                    "scatter needs {} parts, got {}",
                    self.size(),
                    parts.len()
                )));
            }
            for (peer, part) in parts.iter().enumerate() {
                if peer != root {
                    self.send_retrying(peer, SCATTER, part, deadline)?;
                }
            }
            // parts.len() == size() was just checked; root == rank() < size().
            // lint: allow(no-index)
            Ok(parts[root].clone())
        } else {
            self.recv_deadline(root, SCATTER, deadline)
        }
    }

    /// Gathers every node's `mine` on every node (rank-indexed).
    ///
    /// # Errors
    ///
    /// Propagates transport errors.
    pub fn all_gather(&self, mine: &[u8]) -> Result<Vec<Vec<u8>>, NetError> {
        let gathered = self.gather(0, mine)?;
        let encoded = match gathered {
            Some(parts) => {
                // Flatten with length prefixes for the broadcast leg.
                let mut buf = Vec::new();
                for part in &parts {
                    buf.extend_from_slice(&(part.len() as u32).to_le_bytes());
                    buf.extend_from_slice(part);
                }
                self.broadcast(0, Some(&buf))?
            }
            None => self.broadcast(0, None)?,
        };
        let mut parts = Vec::with_capacity(self.size());
        let mut at = 0usize;
        for _ in 0..self.size() {
            let len_bytes = encoded
                .get(at..)
                .and_then(|rest| rest.first_chunk::<4>())
                .ok_or_else(|| NetError::Malformed("truncated all_gather envelope".into()))?;
            let len = u32::from_le_bytes(*len_bytes) as usize;
            at += 4;
            let part = encoded
                .get(at..at + len)
                .ok_or_else(|| NetError::Malformed("truncated all_gather part".into()))?;
            parts.push(part.to_vec());
            at += len;
        }
        Ok(parts)
    }

    /// Element-wise sum of every node's `data`, the result replacing
    /// `data` on all nodes.
    ///
    /// # Errors
    ///
    /// Errors if contributions disagree in length or transport fails.
    pub fn all_reduce_sum(&self, data: &mut [f32]) -> Result<(), NetError> {
        let deadline = self.deadline();
        let bytes: Vec<u8> = data.iter().flat_map(|x| x.to_le_bytes()).collect();
        let reduced = if self.rank() == 0 {
            let mut acc = data.to_vec();
            for peer in 1..self.size() {
                let part = self.recv_deadline(peer, REDUCE, deadline)?;
                if part.len() != bytes.len() {
                    return Err(NetError::Malformed(format!(
                        "all_reduce contribution of {} bytes, expected {}",
                        part.len(),
                        bytes.len()
                    )));
                }
                let words = part.chunks_exact(4).filter_map(|c| c.first_chunk::<4>());
                for (a, chunk) in acc.iter_mut().zip(words) {
                    *a += f32::from_le_bytes(*chunk);
                }
            }
            let out: Vec<u8> = acc.iter().flat_map(|x| x.to_le_bytes()).collect();
            self.broadcast(0, Some(&out))?
        } else {
            self.send_retrying(0, REDUCE, &bytes, deadline)?;
            self.broadcast(0, None)?
        };
        let words = reduced.chunks_exact(4).filter_map(|c| c.first_chunk::<4>());
        for (x, chunk) in data.iter_mut().zip(words) {
            *x = f32::from_le_bytes(*chunk);
        }
        Ok(())
    }

    /// Blocks until every node has entered the barrier.
    ///
    /// # Errors
    ///
    /// Times out if any node never arrives.
    pub fn barrier(&self) -> Result<(), NetError> {
        let deadline = self.deadline();
        if self.rank() == 0 {
            for peer in 1..self.size() {
                self.recv_deadline(peer, BARRIER_UP, deadline)?;
            }
            for peer in 1..self.size() {
                self.send_retrying(peer, BARRIER_DOWN, &[], deadline)?;
            }
        } else {
            self.send_retrying(0, BARRIER_UP, &[], deadline)?;
            self.recv_deadline(0, BARRIER_DOWN, deadline)?;
        }
        Ok(())
    }
}

impl std::fmt::Debug for Communicator<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Communicator(rank {}/{})", self.rank(), self.size())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::ChannelTransport;
    use crossbeam::thread;

    /// Runs `f` on every rank of an in-process mesh, panicking if any rank
    /// panics.
    fn run_cluster(n: usize, f: impl Fn(Communicator<'_>) + Sync) {
        let nodes = ChannelTransport::mesh(n);
        thread::scope(|scope| {
            for node in &nodes {
                let f = &f;
                scope.spawn(move |_| f(Communicator::new(node)));
            }
        })
        .unwrap();
    }

    #[test]
    fn broadcast_reaches_everyone() {
        run_cluster(4, |comm| {
            let data = if comm.rank() == 1 {
                Some(&b"payload"[..])
            } else {
                None
            };
            let got = comm.broadcast(1, data).unwrap();
            assert_eq!(got, b"payload");
        });
    }

    #[test]
    fn gather_collects_rank_indexed() {
        run_cluster(3, |comm| {
            let mine = vec![comm.rank() as u8; comm.rank() + 1];
            let parts = comm.gather(0, &mine).unwrap();
            match comm.rank() {
                0 => {
                    let parts = parts.unwrap();
                    assert_eq!(parts.len(), 3);
                    for (rank, part) in parts.iter().enumerate() {
                        assert_eq!(part, &vec![rank as u8; rank + 1]);
                    }
                }
                _ => assert!(parts.is_none()),
            }
        });
    }

    #[test]
    fn scatter_delivers_own_part() {
        run_cluster(3, |comm| {
            let parts: Vec<Vec<u8>> = (0..3).map(|r| vec![r as u8 * 10]).collect();
            let root_parts = if comm.rank() == 0 {
                Some(&parts[..])
            } else {
                None
            };
            let mine = comm.scatter(0, root_parts).unwrap();
            assert_eq!(mine, vec![comm.rank() as u8 * 10]);
        });
    }

    #[test]
    fn all_gather_everyone_sees_everything() {
        run_cluster(4, |comm| {
            let mine = vec![comm.rank() as u8 + 1];
            let parts = comm.all_gather(&mine).unwrap();
            assert_eq!(parts, vec![vec![1u8], vec![2], vec![3], vec![4]]);
        });
    }

    #[test]
    fn all_reduce_sums_elementwise() {
        run_cluster(3, |comm| {
            let mut data = vec![comm.rank() as f32, 1.0];
            comm.all_reduce_sum(&mut data).unwrap();
            assert_eq!(data, vec![0.0 + 1.0 + 2.0, 3.0]);
        });
    }

    #[test]
    fn barrier_synchronizes() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let arrivals = AtomicUsize::new(0);
        run_cluster(4, |comm| {
            arrivals.fetch_add(1, Ordering::SeqCst);
            comm.barrier().unwrap();
            // After the barrier, every rank must have arrived.
            assert_eq!(arrivals.load(Ordering::SeqCst), 4);
        });
    }

    #[test]
    fn gather_times_out_when_a_peer_is_missing() {
        // Only rank 0 participates: the gather must time out, not hang.
        let nodes = ChannelTransport::mesh(2);
        let comm = Communicator::with_timeout(&nodes[0], Duration::from_millis(50));
        let res = comm.gather(0, b"mine");
        assert!(matches!(res, Err(NetError::Timeout { .. })), "{res:?}");
    }

    #[test]
    fn broadcast_root_without_data_errors() {
        let nodes = ChannelTransport::mesh(1);
        let comm = Communicator::new(&nodes[0]);
        assert!(matches!(
            comm.broadcast(0, None),
            Err(NetError::Malformed(_))
        ));
    }

    #[test]
    fn scatter_wrong_part_count_errors() {
        let nodes = ChannelTransport::mesh(1);
        let comm = Communicator::new(&nodes[0]);
        let parts = vec![vec![1u8], vec![2u8]];
        assert!(matches!(
            comm.scatter(0, Some(&parts)),
            Err(NetError::Malformed(_))
        ));
    }

    /// A transport whose sends fail transiently for the first `failures`
    /// attempts — exercises the retry+backoff path of the collectives.
    struct FlakySends {
        inner: ChannelTransport,
        failures: std::sync::atomic::AtomicU32,
    }

    impl Transport for FlakySends {
        fn node_id(&self) -> NodeId {
            self.inner.node_id()
        }
        fn num_nodes(&self) -> usize {
            self.inner.num_nodes()
        }
        fn send(&self, to: NodeId, tag: Tag, payload: &[u8]) -> Result<(), NetError> {
            use std::sync::atomic::Ordering;
            if self.failures.load(Ordering::SeqCst) > 0 {
                self.failures.fetch_sub(1, Ordering::SeqCst);
                return Err(NetError::Io(std::io::Error::new(
                    std::io::ErrorKind::ConnectionReset,
                    "transient",
                )));
            }
            self.inner.send(to, tag, payload)
        }
        fn recv_tags(
            &self,
            from: NodeId,
            tags: &[Tag],
            timeout: Duration,
        ) -> Result<(Tag, Vec<u8>), NetError> {
            self.inner.recv_tags(from, tags, timeout)
        }
        fn recv_any(&self, tag: Tag, timeout: Duration) -> Result<(NodeId, Vec<u8>), NetError> {
            self.inner.recv_any(tag, timeout)
        }
        fn stats(&self) -> crate::TransportStats {
            self.inner.stats()
        }
    }

    #[test]
    fn sends_retry_through_transient_failures() {
        let mut nodes = ChannelTransport::mesh(2);
        let receiver = nodes.pop().unwrap();
        let flaky = FlakySends {
            inner: nodes.pop().unwrap(),
            failures: std::sync::atomic::AtomicU32::new(2),
        };
        let comm = Communicator::with_timeout(&flaky, Duration::from_secs(5));
        // Default policy allows 3 attempts: two transient failures recover.
        let got = comm.broadcast(0, Some(b"persist")).unwrap();
        assert_eq!(got, b"persist");
        assert_eq!(
            receiver.recv(0, BCAST, Duration::from_secs(1)).unwrap(),
            b"persist"
        );
    }

    #[test]
    fn retries_are_bounded_by_policy() {
        let mut nodes = ChannelTransport::mesh(2);
        let _receiver = nodes.pop().unwrap();
        let flaky = FlakySends {
            inner: nodes.pop().unwrap(),
            failures: std::sync::atomic::AtomicU32::new(100),
        };
        let comm = Communicator::with_timeout(&flaky, Duration::from_secs(5)).retry_policy(
            crate::RetryPolicy {
                max_attempts: 2,
                base_delay: Duration::from_millis(1),
                max_delay: Duration::from_millis(2),
            },
        );
        let res = comm.broadcast(0, Some(b"doomed"));
        assert!(matches!(res, Err(NetError::Io(_))), "{res:?}");
        use std::sync::atomic::Ordering;
        // 2 attempts consumed, not all 100 failures.
        assert_eq!(flaky.failures.load(Ordering::SeqCst), 98);
    }

    #[test]
    fn collectives_over_tcp() {
        let nodes = crate::tcp::TcpTransport::mesh_localhost(3).unwrap();
        thread::scope(|scope| {
            for node in &nodes {
                scope.spawn(move |_| {
                    let comm = Communicator::new(node);
                    let data = if comm.rank() == 0 {
                        Some(&b"tcp-bcast"[..])
                    } else {
                        None
                    };
                    assert_eq!(comm.broadcast(0, data).unwrap(), b"tcp-bcast");
                    let mut xs = vec![1.0f32];
                    comm.all_reduce_sum(&mut xs).unwrap();
                    assert_eq!(xs, vec![3.0]);
                });
            }
        })
        .unwrap();
    }
}
