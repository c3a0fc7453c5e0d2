//! Framed TCP front-end: many client connections feeding one engine.
//!
//! The accept loop hands each connection to its own thread; a connection
//! carries one in-flight request at a time (submit → block on the
//! [`Ticket`] → write the reply), so slow clients self-throttle and the
//! engine's admission control is the only queue. All [`ServeMsgKind`]
//! dispatch lives in this file — `cargo xtask protocol` audits that every
//! kind is handled here, so a new wire message cannot be silently
//! dropped.
//!
//! [`Ticket`]: crate::engine::Ticket

use crate::engine::ServeHandle;
use crate::error::ServeError;
use crate::wire::{
    decode_predictions, decode_reject, encode_predictions, encode_reject, read_serve_frame,
    write_serve_frame, ServeMsgKind,
};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;
use teamnet_core::exchange::decode_tensor;
use teamnet_core::TeamPrediction;
use teamnet_net::codec::encode_f32s;
use teamnet_net::{derive_trace_id, TraceContext};
use teamnet_obs::Obs;
use teamnet_tensor::Tensor;

/// Bound on one wake-up connection attempt in shutdown; loopback either
/// connects or refuses in microseconds, so this only caps a pathology.
const WAKE_TIMEOUT: Duration = Duration::from_secs(1);

/// Pause before accepting again after `accept` failed. Only the error
/// path sleeps: under descriptor exhaustion the pending connection stays
/// in the backlog, so an immediate retry would spin.
const ACCEPT_RETRY: Duration = Duration::from_millis(10);

/// A running TCP listener feeding a [`ServeHandle`].
///
/// The accept thread blocks in `accept` — a first connection is served
/// the moment it arrives, not at the next tick of a poll. A failed
/// `accept` (descriptor exhaustion, say) is retried after a short pause,
/// so the front outlives it. Dropping (or
/// [`TcpServeFront::shutdown`]) sets the stop flag and wakes that thread
/// with a throwaway connection to the front's own address, joins it,
/// force-closes every accepted socket, then joins the connection
/// threads. The force-close matters: a connection thread blocks in a
/// frame read between requests, so without it shutdown would wait
/// forever on any client that is connected but idle.
///
/// The front tracks live connections only: a connection thread gives
/// back its socket's duplicate when it returns, and each accept drops
/// the handles of threads that have finished — a front that has served
/// a million short connections holds the descriptors of the open ones.
///
/// Should the wake-up connection fail, shutdown retries it once its own
/// sockets are closed (descriptor exhaustion is the one plausible
/// cause). If that fails too the accept thread is left parked rather
/// than joined — it exits, releasing the port, on the next connection or
/// failed `accept` — and the `serve.front.accept_leaked` counter records
/// it.
#[derive(Debug)]
pub struct TcpServeFront {
    addr: SocketAddr,
    obs: Obs,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
    /// A duplicate of each live connection's socket, by accept order.
    socks: Arc<Mutex<BTreeMap<u64, TcpStream>>>,
}

impl TcpServeFront {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// starts accepting serving connections for `handle`.
    ///
    /// # Errors
    ///
    /// [`ServeError::Net`] when the bind fails.
    pub fn bind(addr: &str, handle: ServeHandle) -> Result<TcpServeFront, ServeError> {
        let listener =
            TcpListener::bind(addr).map_err(|e| ServeError::Net(format!("bind {addr}: {e}")))?;
        let local = listener
            .local_addr()
            .map_err(|e| ServeError::Net(format!("local_addr: {e}")))?;
        let obs = handle.obs().clone();
        let stop = Arc::new(AtomicBool::new(false));
        let conns: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let socks: Arc<Mutex<BTreeMap<u64, TcpStream>>> = Arc::new(Mutex::new(BTreeMap::new()));
        let accept = {
            let stop = Arc::clone(&stop);
            let conns = Arc::clone(&conns);
            let socks = Arc::clone(&socks);
            std::thread::spawn(move || {
                let mut next_id = 0u64;
                loop {
                    let accepted = listener.accept();
                    if stop.load(Ordering::SeqCst) {
                        break; // the wake-up connection, or a client racing it
                    }
                    let Ok((stream, _peer)) = accepted else {
                        // The accept thread's own error-path pause: no
                        // admission, flush or reply waits on it, and a
                        // socket accept has no deadline to wait on.
                        // lint: allow(det-sleep)
                        std::thread::sleep(ACCEPT_RETRY);
                        continue;
                    };
                    // Replies are single small writes a client is blocked
                    // on: never hold one back for Nagle coalescing.
                    let _ = stream.set_nodelay(true);
                    // Keep a duplicate handle so shutdown can force-close
                    // the socket under a blocked read; the connection
                    // thread closes it when it returns.
                    let id = next_id;
                    next_id = next_id.wrapping_add(1);
                    if let Ok(dup) = stream.try_clone() {
                        socks.lock().insert(id, dup);
                    }
                    let handle = handle.clone();
                    let socks = Arc::clone(&socks);
                    let worker = std::thread::spawn(move || {
                        handle_connection(stream, &handle);
                        socks.lock().remove(&id);
                    });
                    let mut conns = conns.lock();
                    conns.retain(|conn| !conn.is_finished());
                    conns.push(worker);
                }
            })
        };
        Ok(TcpServeFront {
            addr: local,
            obs,
            stop,
            accept: Some(accept),
            conns,
            socks,
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting and joins all serving threads.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        let mut accept = self.accept.take();
        // Normally one pass. The second is the retry of a failed wake-up,
        // after the first pass has given this front's descriptors back.
        for _ in 0..2 {
            if let Some(thread) = accept.take() {
                if self.wake_accept() {
                    let _ = thread.join();
                } else {
                    accept = Some(thread);
                }
            }
            // Unblock connection threads parked in a frame read: an idle
            // client that never says goodbye must not wedge shutdown.
            for sock in std::mem::take(&mut *self.socks.lock()).into_values() {
                let _ = sock.shutdown(Shutdown::Both);
            }
            let conns: Vec<JoinHandle<()>> = std::mem::take(&mut *self.conns.lock());
            for conn in conns {
                let _ = conn.join();
            }
            if accept.is_none() {
                return;
            }
        }
        // Joining a thread that nothing will wake would hang shutdown.
        self.obs.metrics.counter("serve.front.accept_leaked").inc();
    }

    /// The accept thread is parked in `accept`; a connection to our own
    /// address is what wakes it to see the stop flag. A wildcard bind
    /// listens on loopback too, so it is reached through that.
    fn wake_accept(&self) -> bool {
        let mut wake = self.addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        TcpStream::connect_timeout(&wake, WAKE_TIMEOUT).is_ok()
    }
}

impl Drop for TcpServeFront {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Serves one connection: reads frames, dispatches by kind, writes the
/// reply. Returns when the client says goodbye, disconnects, or breaks
/// the protocol.
fn handle_connection(mut stream: TcpStream, handle: &ServeHandle) {
    loop {
        let frame = match read_serve_frame(&mut stream) {
            Ok(frame) => frame,
            Err(e @ ServeError::Malformed(_)) => {
                // The stream may be desynchronized after a bad frame:
                // reject and hang up rather than mis-parse what follows.
                let reject = encode_reject(&e);
                let _ = write_serve_frame(&mut stream, ServeMsgKind::Reject, 0, None, &reject);
                return;
            }
            Err(_) => return, // EOF / closed
        };
        match frame.kind {
            ServeMsgKind::Request => {
                // A traced request gets an end-to-end `serve.request`
                // span covering admission → round → reply, and the reply
                // frame echoes the trace (parented on that span) so the
                // tenant can correlate its request with the cluster's
                // cross-node DAG (DESIGN.md §17).
                let obs = handle.obs().clone();
                let req_span = frame.trace.map(|ctx| {
                    obs.span(
                        "serve.request",
                        &[("req", frame.req_id), ("trace", ctx.trace_id)],
                    )
                });
                let (kind, payload) = match process_request(handle, &frame.payload) {
                    Ok(preds) => (ServeMsgKind::Reply, encode_predictions(&preds)),
                    Err(e) => (ServeMsgKind::Reject, encode_reject(&e)),
                };
                let reply_ctx = frame.trace.map(|ctx| obs.tracer.current_ctx(ctx.trace_id));
                drop(req_span);
                if write_serve_frame(&mut stream, kind, frame.req_id, reply_ctx, &payload).is_err()
                {
                    return;
                }
            }
            ServeMsgKind::Goodbye => return,
            ServeMsgKind::Reply | ServeMsgKind::Reject => {
                let err = ServeError::Malformed("client sent a server-side frame".into());
                let _ = write_serve_frame(
                    &mut stream,
                    ServeMsgKind::Reject,
                    frame.req_id,
                    None,
                    &encode_reject(&err),
                );
                return;
            }
        }
    }
}

/// Decodes a request tensor, submits it, and blocks until the engine
/// resolves the ticket.
fn process_request(
    handle: &ServeHandle,
    payload: &[u8],
) -> Result<Vec<TeamPrediction>, ServeError> {
    let tensor = decode_tensor(payload)
        .map_err(|e| ServeError::Malformed(format!("request tensor: {e}")))?;
    handle.submit_owned(tensor)?.wait()
}

/// A blocking client for the framed TCP serving protocol: the quickstart
/// path in README "Serving".
#[derive(Debug)]
pub struct ServeClient {
    stream: TcpStream,
    next_id: u64,
    trace_seed: Option<u64>,
}

impl ServeClient {
    /// Connects to a [`TcpServeFront`].
    ///
    /// # Errors
    ///
    /// [`ServeError::Net`] when the connection fails.
    pub fn connect(addr: &SocketAddr) -> Result<ServeClient, ServeError> {
        let stream = TcpStream::connect(addr)
            .map_err(|e| ServeError::Net(format!("connect {addr}: {e}")))?;
        // A request is one write the client then blocks on: Nagle has
        // nothing to coalesce it with and must not delay it.
        stream
            .set_nodelay(true)
            .map_err(|e| ServeError::Net(format!("set_nodelay: {e}")))?;
        Ok(ServeClient {
            stream,
            next_id: 1,
            trace_seed: None,
        })
    }

    /// Stamps every subsequent request with a deterministic trace id
    /// derived from `seed` and the request id, so the server opens a
    /// `serve.request` span for it and echoes the trace on the reply.
    /// Untraced clients (the default) stay wire-identical to the
    /// pre-tracing protocol.
    pub fn set_trace_seed(&mut self, seed: u64) {
        self.trace_seed = Some(seed);
    }

    /// One blocking inference: sends the `[rows, features...]` tensor,
    /// returns the per-row winning predictions.
    ///
    /// # Errors
    ///
    /// The server's typed rejection ([`ServeError::Overloaded`],
    /// [`ServeError::Malformed`], ...), or [`ServeError::Closed`] when
    /// the connection drops.
    pub fn infer(&mut self, input: &Tensor) -> Result<Vec<TeamPrediction>, ServeError> {
        let id = self.next_id;
        self.next_id += 1;
        let trace = self.trace_seed.map(|seed| TraceContext {
            trace_id: derive_trace_id(seed, id),
            parent_span: 0,
        });
        write_serve_frame(
            &mut self.stream,
            ServeMsgKind::Request,
            id,
            trace,
            &encode_f32s(input.dims(), input.data()),
        )?;
        loop {
            let frame = read_serve_frame(&mut self.stream)?;
            // Matched by `req_id` alone: the echoed trace is diagnostic,
            // and bytes from another process are not ours to assert on.
            if frame.req_id != id {
                continue; // stray frame from an abandoned request
            }
            return match frame.kind {
                ServeMsgKind::Reply => decode_predictions(&frame.payload),
                ServeMsgKind::Reject => Err(decode_reject(&frame.payload)?),
                ServeMsgKind::Request | ServeMsgKind::Goodbye => Err(ServeError::Malformed(
                    "server sent a client-side frame".into(),
                )),
            };
        }
    }
}

impl Drop for ServeClient {
    fn drop(&mut self) {
        // Best-effort clean goodbye so the server thread exits promptly.
        // It ends a connection, not a request: there is no trace to carry.
        // lint: allow(trace-propagation)
        let _ = write_serve_frame(&mut self.stream, ServeMsgKind::Goodbye, 0, None, &[]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batcher::BatcherConfig;
    use crate::engine::{ServeConfig, ServeEngine};
    use crate::test_support::{expert, request, with_worker, CloseEngine};
    use std::time::Instant;
    use teamnet_core::runtime::MasterConfig;
    use teamnet_net::ChannelTransport;

    /// Runs `body` against a front over a live 2-node cluster, its engine
    /// running on its own thread, then tears down in order: engine closed
    /// and drained, front shut down, workers stopped. Whatever `body`
    /// returns — connections it leaves open — is held across the
    /// shutdown, which must not wedge on it.
    fn with_front<R: Send>(body: impl FnOnce(&TcpServeFront) -> R) {
        with_worker(|master| {
            let config = ServeConfig {
                batch: BatcherConfig {
                    max_batch_rows: 8,
                    queue_cap_rows: 32,
                },
                input_dims: vec![1, 28, 28],
                master: MasterConfig::default(),
            };
            let mut engine = ServeEngine::new(master, expert(0), config);
            let handle = engine.handle();
            let front = TcpServeFront::bind("127.0.0.1:0", handle.clone()).unwrap();
            std::thread::scope(|scope| {
                let _close = CloseEngine(handle.clone());
                let engine_thread = scope.spawn(move || engine.run(master));

                let still_open = body(&front);

                handle.close();
                engine_thread.join().unwrap();
                let (tx, rx) = std::sync::mpsc::channel();
                let shutter = scope.spawn(move || {
                    front.shutdown();
                    let _ = tx.send(());
                });
                rx.recv_timeout(Duration::from_secs(10))
                    .expect("shutdown wedged on open connections");
                shutter.join().unwrap();
                drop(still_open);
            });
        });
    }

    #[test]
    fn tcp_round_trip_reply_and_reject() {
        with_front(|front| {
            let mut client = ServeClient::connect(&front.local_addr()).unwrap();
            assert_eq!(client.infer(&request(2, 0.3)).unwrap().len(), 2);
            // A mis-shaped tensor comes back as a typed rejection, not a
            // dead connection: the same client keeps working after.
            let err = client.infer(&Tensor::full([1, 9, 9], 0.3)).unwrap_err();
            assert!(matches!(err, ServeError::Malformed(_)), "{err:?}");
            assert_eq!(client.infer(&request(1, 0.9)).unwrap().len(), 1);
        });
    }

    /// Regression: `shutdown()` used to join connection threads that
    /// were still parked in a frame read, so any client that stayed
    /// connected without sending `Goodbye` wedged shutdown forever.
    /// Shutdown now force-closes accepted sockets first.
    #[test]
    fn shutdown_unblocks_idle_connections() {
        with_front(|front| {
            // One client completes a request then idles mid-connection;
            // another connects and never sends a single frame. Neither
            // says goodbye before shutdown.
            let mut chatty = ServeClient::connect(&front.local_addr()).unwrap();
            assert_eq!(chatty.infer(&request(1, 0.4)).unwrap().len(), 1);
            let idle = ServeClient::connect(&front.local_addr()).unwrap();
            (chatty, idle)
        });
    }

    /// Regression: the front used to keep a duplicate socket and a
    /// thread handle for every connection it had ever accepted, so one
    /// serving short-lived connections ran out of descriptors.
    #[test]
    fn finished_connections_give_back_their_socket_and_handle() {
        with_front(|front| {
            let addr = front.local_addr();
            let open_fds = || std::fs::read_dir("/proc/self/fd").map(Iterator::count).ok();
            let deadline = Instant::now() + Duration::from_secs(30);
            let settle = |live: usize| {
                while front.socks.lock().len() != live {
                    assert!(Instant::now() < deadline, "sockets still tracked");
                    std::thread::yield_now();
                }
            };
            let mut fds_after_first = None;
            for cycle in 0..300 {
                let mut client = ServeClient::connect(&addr).unwrap();
                assert_eq!(client.infer(&request(1, 0.3)).unwrap().len(), 1);
                drop(client); // goodbye
                settle(0);
                if cycle == 0 {
                    fds_after_first = open_fds();
                }
            }
            // Other tests of this process open sockets of their own, so
            // the bound is loose; a leak is one descriptor per cycle.
            if let (Some(first), Some(last)) = (fds_after_first, open_fds()) {
                assert!(last < first + 100, "open fds grew {first} -> {last}");
            }
            // Each accept drops the handles of finished threads: what
            // stays tracked is the live connection and the last accepted.
            let idle = ServeClient::connect(&addr).unwrap();
            loop {
                drop(ServeClient::connect(&addr).unwrap());
                settle(1);
                let tracked = front.conns.lock().len();
                if tracked == 2 {
                    break;
                }
                assert!(Instant::now() < deadline, "{tracked} handles tracked");
            }
            idle
        });
    }

    /// The accept thread blocks in `accept`; with no client ever
    /// connecting, only shutdown's own wake-up connection can release it.
    #[test]
    fn shutdown_with_zero_clients_returns_promptly() {
        let nodes = ChannelTransport::mesh(1);
        let config = ServeConfig {
            batch: BatcherConfig::default(),
            input_dims: vec![1, 28, 28],
            master: MasterConfig::default(),
        };
        let engine = ServeEngine::new(&nodes[0], expert(0), config);
        for bind in ["127.0.0.1:0", "0.0.0.0:0"] {
            let front = TcpServeFront::bind(bind, engine.handle()).unwrap();
            let (tx, rx) = std::sync::mpsc::channel();
            let shutter = std::thread::spawn(move || {
                let begin = Instant::now();
                front.shutdown();
                let _ = tx.send(begin.elapsed());
            });
            let took = rx
                .recv_timeout(Duration::from_secs(10))
                .unwrap_or_else(|_| panic!("shutdown of an idle front on {bind} wedged"));
            shutter.join().unwrap();
            assert!(took < Duration::from_secs(1), "{bind}: took {took:?}");
        }
        // Drop takes the same path.
        drop(TcpServeFront::bind("127.0.0.1:0", engine.handle()).unwrap());
    }

    /// The wake-up connection failing must not hang shutdown or leak the
    /// listener for good: shutdown returns, the counter says so, and the
    /// parked accept thread releases the port on the next connection.
    #[test]
    fn shutdown_survives_a_failed_wake_up() {
        let nodes = ChannelTransport::mesh(1);
        let config = ServeConfig {
            batch: BatcherConfig::default(),
            input_dims: vec![1, 28, 28],
            master: MasterConfig::default(),
        };
        let engine = ServeEngine::new(&nodes[0], expert(0), config);
        let handle = engine.handle();
        let mut front = TcpServeFront::bind("127.0.0.1:0", handle.clone()).unwrap();
        let real = front.local_addr();
        // Point the wake-up at a port nothing listens on (bound, read
        // back, and released), so it is refused.
        front.addr = TcpListener::bind("127.0.0.1:0")
            .unwrap()
            .local_addr()
            .unwrap();
        let leaked = handle.obs().metrics.counter("serve.front.accept_leaked");
        let begin = Instant::now();
        front.shutdown();
        assert!(begin.elapsed() < Duration::from_secs(1));
        assert_eq!(leaked.get(), 1);
        // The next connection is what the parked thread wakes on: it sees
        // the stop flag, drops the stream and the listener with it.
        let mut stray = TcpStream::connect(real).unwrap();
        let mut byte = [0u8; 1];
        assert_eq!(std::io::Read::read(&mut stray, &mut byte).unwrap_or(0), 0);
        let freed = (0..100).any(|_| {
            std::thread::sleep(Duration::from_millis(10));
            TcpListener::bind(real).is_ok()
        });
        assert!(freed, "accept thread still holds {real}");
    }

    /// A first connection is accepted when it arrives, not on the next
    /// tick of an accept poll, and both ends of it run without Nagle.
    #[test]
    fn connections_are_nodelay_on_both_ends() {
        let nodes = ChannelTransport::mesh(1);
        let config = ServeConfig {
            batch: BatcherConfig::default(),
            input_dims: vec![1, 28, 28],
            master: MasterConfig::default(),
        };
        let engine = ServeEngine::new(&nodes[0], expert(0), config);
        let front = TcpServeFront::bind("127.0.0.1:0", engine.handle()).unwrap();
        let client = ServeClient::connect(&front.local_addr()).unwrap();
        assert!(client.stream.nodelay().unwrap());
        // The accepted end is registered (with its option set) before the
        // connection thread starts; wait for the registration.
        let deadline = Instant::now() + Duration::from_secs(5);
        while front.socks.lock().is_empty() {
            assert!(Instant::now() < deadline, "connection never accepted");
            std::thread::yield_now();
        }
        assert!(front.socks.lock()[&0].nodelay().unwrap());
        drop(client);
        front.shutdown();
    }

    /// Regression: the client asserted (in debug builds) that a reply's
    /// echoed trace matched the one it sent, so a server echoing any
    /// other trace panicked it. The reply is matched by `req_id` alone.
    #[test]
    fn a_reply_echoing_another_trace_is_still_the_reply() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let winner = TeamPrediction {
            label: 7,
            expert: 1,
            entropy: 0.25,
        };
        let reply = encode_predictions(std::slice::from_ref(&winner));
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let request = read_serve_frame(&mut stream).unwrap();
            assert!(request.trace.is_some());
            let foreign = TraceContext {
                trace_id: 0xDEAD,
                parent_span: 0,
            };
            write_serve_frame(
                &mut stream,
                ServeMsgKind::Reply,
                request.req_id,
                Some(foreign),
                &reply,
            )
            .unwrap();
            read_serve_frame(&mut stream).map(|bye| bye.kind)
        });
        let mut client = ServeClient::connect(&addr).unwrap();
        client.set_trace_seed(7);
        assert_eq!(client.infer(&request(1, 0.3)).unwrap(), vec![winner]);
        drop(client);
        assert_eq!(server.join().unwrap().unwrap(), ServeMsgKind::Goodbye);
    }

    #[test]
    fn concurrent_clients_share_batches() {
        with_front(|front| {
            let addr = front.local_addr();
            std::thread::scope(|scope| {
                for i in 0..4 {
                    scope.spawn(move || {
                        let mut client = ServeClient::connect(&addr).unwrap();
                        for r in 0..3 {
                            let x = request(1, (i as f32) * 0.2 + (r as f32) * 0.05);
                            assert_eq!(client.infer(&x).unwrap().len(), 1);
                        }
                    });
                }
            });
        });
    }
}
