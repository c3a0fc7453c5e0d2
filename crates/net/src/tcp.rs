//! Framed TCP transport — the paper's "sockets and transmission control
//! protocol (TCP)" communication layer.
//!
//! Every node runs one reader thread per peer connection; frames are
//! decoded with [`crate::codec`] and delivered into the shared
//! [`Mailbox`], giving identical receive semantics to the in-process
//! transport. [`TcpTransport::mesh_localhost`] bootstraps a full mesh on
//! the loopback interface for single-machine experiments; real multi-host
//! deployments construct endpoints from explicit peer addresses with
//! [`TcpTransport::connect_mesh`].

use crate::clock::deadline_after;
use crate::codec::{read_frame, write_frame};
use crate::error::NetError;
use crate::mailbox::Mailbox;
use crate::transport::{NodeId, Tag, Transport, TransportStats};
use parking_lot::Mutex;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A TCP mesh endpoint.
pub struct TcpTransport {
    node_id: NodeId,
    num_nodes: usize,
    /// Writer half per peer; `None` at our own index.
    writers: Vec<Option<Mutex<TcpStream>>>,
    mailbox: Arc<Mailbox>,
    messages_sent: AtomicU64,
    bytes_sent: AtomicU64,
}

fn spawn_reader(peer: NodeId, stream: TcpStream, mailbox: Arc<Mailbox>) -> Result<(), NetError> {
    std::thread::Builder::new()
        .name(format!("tcp-reader-{peer}"))
        .spawn(move || {
            let mut stream = stream;
            loop {
                match read_frame(&mut stream) {
                    Ok((src, tag, payload)) => {
                        // Trust the connection's identity over the frame
                        // header, but sanity-check agreement.
                        if src != peer {
                            // A peer lying about its id is a protocol error;
                            // drop the connection.
                            break;
                        }
                        mailbox.deliver(src, tag, payload);
                    }
                    Err(NetError::Closed) => break,
                    Err(_) => break, // malformed or I/O failure: drop the link
                }
            }
        })
        .map_err(NetError::Io)?;
    Ok(())
}

impl TcpTransport {
    /// Bootstraps a fully connected mesh of `n` endpoints on the loopback
    /// interface with ephemeral ports.
    ///
    /// # Errors
    ///
    /// Returns any socket error during bind/connect/accept.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn mesh_localhost(n: usize) -> Result<Vec<TcpTransport>, NetError> {
        assert!(n > 0, "cluster needs at least one node");
        let listeners: Vec<TcpListener> = (0..n)
            .map(|_| TcpListener::bind("127.0.0.1:0"))
            .collect::<Result<_, _>>()?;
        let addrs: Vec<SocketAddr> = listeners
            .iter()
            .map(|l| l.local_addr())
            .collect::<Result<_, _>>()?;
        // Highest id first, on this one thread: a node's dials wait in the
        // lower ids' listen backlogs, so by the time a node accepts, every
        // higher id has already dialed it and named itself.
        let mut nodes = (0..n)
            .rev()
            .zip(listeners.iter().rev())
            .map(|(node_id, listener)| TcpTransport::join_mesh(node_id, listener, &addrs))
            .collect::<Result<Vec<_>, _>>()?;
        nodes.reverse();
        Ok(nodes)
    }

    /// Builds one endpoint of a multi-host mesh: listens on `bind_addr`,
    /// dials every peer with an id lower than `node_id`, and accepts
    /// connections from every peer with a higher id. All `n` participants
    /// must call this concurrently with a consistent address table.
    ///
    /// # Errors
    ///
    /// Returns socket errors and handshake violations.
    ///
    /// # Panics
    ///
    /// Panics if `node_id >= peer_addrs.len()`.
    pub fn connect_mesh(
        node_id: NodeId,
        bind_addr: SocketAddr,
        peer_addrs: &[SocketAddr],
    ) -> Result<TcpTransport, NetError> {
        let n = peer_addrs.len();
        assert!(node_id < n, "node_id {node_id} out of range for {n} peers");
        TcpTransport::join_mesh(node_id, &TcpListener::bind(bind_addr)?, peer_addrs)
    }

    /// The one mesh handshake, over an already-bound `listener`: dials
    /// every lower id (retrying while it comes up) and names itself with
    /// one little-endian `u32`, then accepts every higher id and checks
    /// the name it gives.
    fn join_mesh(
        node_id: NodeId,
        listener: &TcpListener,
        peer_addrs: &[SocketAddr],
    ) -> Result<TcpTransport, NetError> {
        let n = peer_addrs.len();
        let mailbox = Arc::new(Mailbox::new());
        let mut writers: Vec<Option<Mutex<TcpStream>>> = (0..n).map(|_| None).collect();
        // Every lower id is linked before the first accept, so a free
        // slot other than our own can only be an id above ours.
        let mut link = |peer: NodeId, stream: TcpStream| -> Result<(), NetError> {
            let slot = writers
                .get_mut(peer)
                .filter(|slot| slot.is_none() && peer != node_id)
                .ok_or_else(|| NetError::Malformed(format!("unexpected handshake id {peer}")))?;
            stream.set_nodelay(true)?;
            spawn_reader(peer, stream.try_clone()?, Arc::clone(&mailbox))?;
            *slot = Some(Mutex::new(stream));
            Ok(())
        };
        for (peer, &addr) in peer_addrs.iter().enumerate().take(node_id) {
            let stream = retry_connect(addr, Duration::from_secs(10))?;
            (&stream).write_all(&(node_id as u32).to_le_bytes())?;
            link(peer, stream)?;
        }
        for _ in node_id + 1..n {
            let (stream, _) = listener.accept()?;
            let mut id_buf = [0u8; 4];
            std::io::Read::read_exact(&mut (&stream), &mut id_buf)?;
            link(u32::from_le_bytes(id_buf) as usize, stream)?;
        }
        Ok(TcpTransport {
            node_id,
            num_nodes: n,
            writers,
            mailbox,
            messages_sent: AtomicU64::new(0),
            bytes_sent: AtomicU64::new(0),
        })
    }

    /// Closes the mailbox and shuts down all peer sockets. Receivers wake
    /// with [`NetError::Closed`]; reader threads exit on their own.
    pub fn shutdown(&self) {
        self.mailbox.close();
        for writer in self.writers.iter().flatten() {
            let _ = writer.lock().shutdown(std::net::Shutdown::Both);
        }
    }
}

fn retry_connect(addr: SocketAddr, budget: Duration) -> Result<TcpStream, NetError> {
    let deadline = deadline_after(Instant::now(), budget);
    loop {
        match TcpStream::connect(addr) {
            Ok(s) => return Ok(s),
            Err(e) => {
                if Instant::now() >= deadline {
                    return Err(NetError::Io(e));
                }
                std::thread::sleep(Duration::from_millis(50));
            }
        }
    }
}

impl std::fmt::Debug for TcpTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "TcpTransport(node {}/{})", self.node_id, self.num_nodes)
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        // Best-effort, non-blocking teardown (see C-DTOR-BLOCK); explicit
        // shutdown() is available for orderly teardown.
        self.shutdown();
    }
}

impl Transport for TcpTransport {
    fn node_id(&self) -> NodeId {
        self.node_id
    }

    fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    fn send(&self, to: NodeId, tag: Tag, payload: &[u8]) -> Result<(), NetError> {
        if to >= self.num_nodes {
            return Err(NetError::UnknownPeer(to));
        }
        // Counted before the frame leaves, so whoever receives it already
        // sees it counted; a failed write is taken back out.
        let len = payload.len() as u64;
        self.messages_sent.fetch_add(1, Ordering::Relaxed);
        self.bytes_sent.fetch_add(len, Ordering::Relaxed);
        let Some(writer) = self.writers.get(to).and_then(Option::as_ref) else {
            // In range, the one slot without a writer is our own.
            self.mailbox.deliver(self.node_id, tag, payload.to_vec());
            return Ok(());
        };
        // Header and the caller's payload leave as one vectored write:
        // no per-peer copy of the payload into a frame buffer.
        let written = write_frame(&mut *writer.lock(), self.node_id, tag, payload);
        if written.is_err() {
            self.messages_sent.fetch_sub(1, Ordering::Relaxed);
            self.bytes_sent.fetch_sub(len, Ordering::Relaxed);
        }
        Ok(written?)
    }

    fn recv_where(
        &self,
        from: NodeId,
        tag: Tag,
        timeout: Duration,
        accept: &dyn Fn(&[u8]) -> bool,
    ) -> Result<Vec<u8>, NetError> {
        if from >= self.num_nodes {
            return Err(NetError::UnknownPeer(from));
        }
        self.mailbox.recv_where(from, tag, timeout, accept)
    }

    fn stats(&self) -> TransportStats {
        TransportStats {
            messages_sent: self.messages_sent.load(Ordering::Relaxed),
            bytes_sent: self.bytes_sent.load(Ordering::Relaxed),
            ..TransportStats::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TAG: Tag = Tag(4);
    const WAIT: Duration = Duration::from_secs(2);

    #[test]
    fn localhost_mesh_roundtrip() {
        let nodes = TcpTransport::mesh_localhost(3).unwrap();
        nodes[0].send(2, TAG, b"over tcp").unwrap();
        assert_eq!(nodes[2].recv(0, TAG, WAIT).unwrap(), b"over tcp");
        nodes[2].send(1, Tag(5), b"hop").unwrap();
        assert_eq!(nodes[1].recv(2, Tag(5), WAIT).unwrap(), b"hop");
    }

    #[test]
    fn large_payload_roundtrip() {
        let nodes = TcpTransport::mesh_localhost(2).unwrap();
        let big: Vec<u8> = (0..1_000_000u32).map(|i| (i % 251) as u8).collect();
        nodes[1].send(0, TAG, &big).unwrap();
        assert_eq!(nodes[0].recv(1, TAG, WAIT).unwrap(), big);
    }

    #[test]
    fn self_send_loops_back() {
        let nodes = TcpTransport::mesh_localhost(1).unwrap();
        nodes[0].send(0, TAG, b"self").unwrap();
        assert_eq!(nodes[0].recv(0, TAG, WAIT).unwrap(), b"self");
    }

    #[test]
    fn concurrent_bidirectional_traffic() {
        let mut nodes = TcpTransport::mesh_localhost(2).unwrap();
        let b = nodes.pop().unwrap();
        let a = nodes.pop().unwrap();
        let handle = std::thread::spawn(move || {
            for i in 0..100u8 {
                b.send(0, TAG, &[i]).unwrap();
                let got = b.recv(0, Tag(9), WAIT).unwrap();
                assert_eq!(got, vec![i]);
            }
        });
        for _ in 0..100 {
            let got = a.recv(1, TAG, WAIT).unwrap();
            a.send(1, Tag(9), &got).unwrap();
        }
        handle.join().unwrap();
    }

    #[test]
    fn shutdown_wakes_receiver() {
        let nodes = TcpTransport::mesh_localhost(2).unwrap();
        nodes[0].shutdown();
        assert!(matches!(nodes[0].recv(1, TAG, WAIT), Err(NetError::Closed)));
    }

    #[test]
    fn peer_death_times_out_receiver() {
        let nodes = TcpTransport::mesh_localhost(2).unwrap();
        nodes[1].shutdown(); // peer 1 dies
                             // Node 0 waiting on node 1 should time out (not hang, not panic).
        let res = nodes[0].recv(1, TAG, Duration::from_millis(100));
        assert!(matches!(res, Err(NetError::Timeout { .. })), "{res:?}");
    }

    #[test]
    fn connect_mesh_across_threads() {
        // Reserve three ports by binding throwaway listeners, then free
        // them for the mesh (small race window, acceptable in tests).
        let addrs: Vec<std::net::SocketAddr> = (0..3)
            .map(|_| {
                let l = TcpListener::bind("127.0.0.1:0").unwrap();
                l.local_addr().unwrap()
            })
            .collect();
        let addrs2 = addrs.clone();
        let handles: Vec<_> = (0..3)
            .map(|rank| {
                let addrs = addrs2.clone();
                std::thread::spawn(move || {
                    TcpTransport::connect_mesh(rank, addrs[rank], &addrs).unwrap()
                })
            })
            .collect();
        let nodes: Vec<TcpTransport> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        nodes[0].send(2, TAG, b"multi-host").unwrap();
        assert_eq!(nodes[2].recv(0, TAG, WAIT).unwrap(), b"multi-host");
        nodes[1].send(0, TAG, b"up").unwrap();
        assert_eq!(nodes[0].recv(1, TAG, WAIT).unwrap(), b"up");
    }

    #[test]
    fn malformed_peer_traffic_drops_link_without_panic() {
        // A rogue process connects to a mesh node's accept port and sends
        // garbage: the handshake validation must reject it (or the reader
        // must exit) without disturbing the healthy links.
        let addrs: Vec<std::net::SocketAddr> = (0..2)
            .map(|_| {
                TcpListener::bind("127.0.0.1:0")
                    .unwrap()
                    .local_addr()
                    .unwrap()
            })
            .collect();
        let addrs2 = addrs.clone();
        let h0 = std::thread::spawn({
            let addrs = addrs.clone();
            move || TcpTransport::connect_mesh(0, addrs[0], &addrs)
        });
        let h1 = std::thread::spawn(move || TcpTransport::connect_mesh(1, addrs2[1], &addrs2));
        let n0 = h0.join().unwrap().unwrap();
        let n1 = h1.join().unwrap().unwrap();
        // Healthy traffic still flows after the mesh is up.
        n0.send(1, TAG, b"healthy").unwrap();
        assert_eq!(n1.recv(0, TAG, WAIT).unwrap(), b"healthy");
    }

    #[test]
    fn stats_track_bytes() {
        let nodes = TcpTransport::mesh_localhost(2).unwrap();
        nodes[0].send(1, TAG, &[0; 64]).unwrap();
        assert_eq!(nodes[0].stats().bytes_sent, 64);
        assert_eq!(nodes[0].stats().messages_sent, 1);
    }

    #[test]
    fn stats_count_only_the_sends_that_went_out() {
        let nodes = TcpTransport::mesh_localhost(2).unwrap();
        nodes[1].shutdown();
        let mut ok = 0u64;
        for _ in 0..20 {
            if nodes[0].send(1, TAG, &[0; 1000]).is_ok() {
                ok += 1;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(ok < 20, "sends to a shut-down peer kept succeeding");
        let stats = nodes[0].stats();
        assert_eq!((stats.messages_sent, stats.bytes_sent), (ok, ok * 1000));
    }
}
