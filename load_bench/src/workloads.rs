//! The four workloads: how each stands its cluster up, generates load and
//! records one `Op` per request. Nothing here is timed from inside the
//! program: every latency is taken around a call into a public API.

use crate::cluster::{with_rounds, with_serve, NodeObs, Rounds, Served, Team, TRACE_SEED};
use crate::oracle::Pool;
use crate::stats::process_cpu_ms;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::sync::mpsc;
use std::time::{Duration, Instant};
use teamnet_core::TeamPrediction;
use teamnet_net::TcpTransport;
use teamnet_obs::Obs;
use teamnet_serve::{BatcherConfig, ServeClient, ServeError, Ticket};
use teamnet_simnet::poisson_schedule;

/// The measured window is cut into equal slices of about this length, and
/// the end-to-end figures are taken over the quietest of them (see
/// `run::Summary::quiet`).
const SLICE: Duration = Duration::from_secs(2);

/// How many slices a measured window of `measure` is cut into.
pub fn slices_of(measure: Duration) -> u32 {
    ((measure.as_secs_f64() / SLICE.as_secs_f64()) as u32).max(1)
}
/// Arrival rate of the open-loop workload, requests per second.
pub const OPEN_RATE_HZ: f64 = 3200.0;
/// Load-generating threads/connections of the closed-loop serve
/// workloads (`nproc` of the sizing host).
const CLIENTS: usize = 2;

/// Pause between binding the front and connecting to it. The front polls
/// for connections every 25 ms, starting when its accept thread does; a
/// client connecting at once races that start and `setup_s` comes out
/// 17 ms or 41 ms, a coin flip per set-up. Connecting just after the first
/// poll always pays one full poll: the steady, worst case.
const ACCEPT_SETTLE: Duration = Duration::from_millis(1);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    MlpTcpTrickle,
    MlpOpen3200,
    MlpTcpBulk,
    CnnRound,
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::MlpTcpTrickle,
        Kind::MlpOpen3200,
        Kind::MlpTcpBulk,
        Kind::CnnRound,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::MlpTcpTrickle => "mlp_tcp_trickle",
            Kind::MlpOpen3200 => "mlp_open_3200",
            Kind::MlpTcpBulk => "mlp_tcp_bulk",
            Kind::CnnRound => "cnn_round",
        }
    }

    pub fn from_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    pub fn team(self) -> Team {
        match self {
            Kind::CnnRound => Team::ss14(),
            _ => Team::mlp4(),
        }
    }

    /// Whether requests go through the serving layer (and so have the
    /// `serve.*` rows of the ledger).
    pub fn serves(self) -> bool {
        self != Kind::CnnRound
    }

    /// Whether requests cross the framed TCP front.
    pub fn tcp_front(self) -> bool {
        matches!(self, Kind::MlpTcpTrickle | Kind::MlpTcpBulk)
    }

    /// The seeded input pool: `(rows per request, requests)`. The bulk
    /// pool is 2 × 32 rows = the 64-row batch cap per pair of clients;
    /// the CNN pool is small because its reference costs 2 × 13 ms a row.
    pub fn pool(self, seed: u64) -> Pool {
        let (rows, requests) = match self {
            Kind::MlpTcpTrickle | Kind::MlpOpen3200 => (1, 256),
            Kind::MlpTcpBulk => (32, 16),
            Kind::CnnRound => (1, 32),
        };
        Pool::build(&self.team(), rows, requests, seed)
    }
}

/// How long one phase warms up and measures, and what drives it.
#[derive(Debug, Clone, Copy)]
pub struct Phase {
    pub warmup: Duration,
    pub measure: Duration,
    pub seed: u64,
}

impl Phase {
    /// Stand the cluster up, verify one warm reply, tear it down.
    pub fn setup_only(seed: u64) -> Phase {
        Phase {
            warmup: Duration::ZERO,
            measure: Duration::ZERO,
            seed,
        }
    }
}

/// One request as the load generator saw it.
#[derive(Debug)]
pub struct Op {
    /// Which pool entry was sent.
    pub input: usize,
    /// When the request was issued (closed loop) or due (open loop),
    /// since the start of the phase.
    pub start: Duration,
    /// Reply observed minus `start`.
    pub latency: Duration,
    /// Open loop: how long after its due time the request was submitted.
    pub late: Duration,
    /// Open loop: time inside `ServeHandle::submit`.
    pub submit: Duration,
    pub reply: Result<Vec<TeamPrediction>, String>,
}

/// Readings taken by the coordinating thread at the edges of the
/// measured window.
#[derive(Debug, Default, Clone)]
pub struct Marks {
    /// Process CPU time at the edges of the measured window's slices (one
    /// reading more than there are slices).
    pub cpu_edges_ms: Vec<f64>,
    /// Master tracer time at the start of the measured window: trace
    /// events before it belong to warm-up.
    pub cut_ns: u64,
    /// `serve.latency.ns` over the measured window: `(sum, count)`.
    pub engine_latency: (u64, u64),
}

/// Everything one phase produced.
#[derive(Debug)]
pub struct Outcome {
    /// Mesh built → first warm reply verified.
    pub setup: Duration,
    /// Measured-window requests, in issue order per generator.
    pub ops: Vec<Op>,
    /// Start of the measured window → last reply.
    pub wall: Duration,
    /// Start and length of the measured window, since the start of the
    /// phase.
    pub measured: (Duration, Duration),
    pub marks: Marks,
}

fn engine_latency(obs: &Obs) -> (u64, u64) {
    obs.metrics
        .snapshot()
        .histograms
        .get("serve.latency.ns")
        .map_or((0, 0), |h| (h.sum, h.count))
}

/// The seeded request→input mapping: a shuffle of the pool that every
/// generator walks round and round, so each entry is sent equally often.
fn input_order(pool: &Pool, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..pool.len()).collect();
    order.shuffle(&mut StdRng::seed_from_u64(seed ^ 0x6F72_6465));
    order
}

/// The measured window of a phase on the wall clock.
#[derive(Clone, Copy)]
struct Window {
    t0: Instant,
    measure_from: Instant,
    end: Instant,
}

impl Window {
    fn starting_now(phase: &Phase) -> Window {
        // A short lead so every generator thread is parked on the same
        // start line before the first request.
        let t0 = Instant::now() + Duration::from_millis(5);
        Window {
            t0,
            measure_from: t0 + phase.warmup,
            end: t0 + phase.warmup + phase.measure,
        }
    }
}

fn sleep_until(at: Instant) {
    let now = Instant::now();
    if at > now {
        std::thread::sleep(at - now);
    }
}

/// Runs `generators` (which return the ops they issued) on their own
/// threads while this thread reads CPU and trace marks at the window
/// edges; keeps only the ops of the measured window.
fn drive<'a>(
    obs: &Obs,
    window: Window,
    generators: Vec<Box<dyn FnOnce() -> Vec<Op> + Send + 'a>>,
) -> (Vec<Op>, Duration, Marks) {
    std::thread::scope(|scope| {
        let threads: Vec<_> = generators.into_iter().map(|g| scope.spawn(g)).collect();
        sleep_until(window.measure_from);
        let cut_ns = obs.tracer.now_ns();
        let lat0 = engine_latency(obs);
        let measure = window.end - window.measure_from;
        let slices = slices_of(measure);
        let slice = measure / slices;
        let cpu_edges_ms = (0..=slices)
            .map(|edge| {
                sleep_until(window.measure_from + slice * edge);
                process_cpu_ms()
            })
            .collect();
        let mut ops = Vec::new();
        for thread in threads {
            ops.extend(thread.join().expect("load generator thread"));
        }
        let wall = window.measure_from.elapsed();
        let lat1 = engine_latency(obs);
        let marks = Marks {
            cpu_edges_ms,
            cut_ns,
            engine_latency: (lat1.0 - lat0.0, lat1.1 - lat0.1),
        };
        let from = window.measure_from - window.t0;
        ops.retain(|op| op.start >= from);
        (ops, wall, marks)
    })
}

/// Closed loop over one TCP connection: the next request leaves when the
/// previous reply arrived.
fn closed_loop_tcp(
    mut client: ServeClient,
    pool: &Pool,
    order: &[usize],
    offset: usize,
    window: Window,
) -> Vec<Op> {
    let mut ops = Vec::new();
    sleep_until(window.t0);
    for step in 0.. {
        let begin = Instant::now();
        if begin >= window.end {
            break;
        }
        let input = order[(offset + step) % order.len()];
        let reply = client.infer(pool.input(input));
        ops.push(Op {
            input,
            start: begin - window.t0,
            latency: begin.elapsed(),
            late: Duration::ZERO,
            submit: Duration::ZERO,
            reply: reply.map_err(|e| e.to_string()),
        });
    }
    ops
}

/// What the open-loop submitter hands the collector for each request;
/// times are offsets from the start of the phase.
struct Submitted {
    input: usize,
    due: Duration,
    submit_begin: Duration,
    submit_end: Duration,
    ticket: Result<Ticket, ServeError>,
}

impl Submitted {
    /// Open-loop accounting: latency runs from the instant the request
    /// was *due*, not from when the generator got round to sending it, so
    /// a stall is charged to every request it delays; how late the
    /// generator ran is kept beside it.
    fn into_op(self, done: Duration, reply: Result<Vec<TeamPrediction>, String>) -> Op {
        Op {
            input: self.input,
            start: self.due,
            latency: done.saturating_sub(self.due),
            late: self.submit_begin.saturating_sub(self.due),
            submit: self.submit_end.saturating_sub(self.submit_begin),
            reply,
        }
    }
}

/// Open loop: requests leave on the seeded Poisson schedule whether or
/// not earlier ones have been answered. One thread submits, sleeping to
/// each due time; one collects the tickets in order.
fn open_loop<'a>(
    served: &Served,
    pool: &'a Pool,
    order: &[usize],
    window: Window,
    phase: &Phase,
) -> Vec<Box<dyn FnOnce() -> Vec<Op> + Send + 'a>> {
    let span = phase.warmup + phase.measure;
    let requests = (OPEN_RATE_HZ * span.as_secs_f64()) as usize;
    let mut rng = StdRng::seed_from_u64(phase.seed ^ 0x6172_7276);
    let schedule = poisson_schedule(OPEN_RATE_HZ, requests, &mut rng);
    let (tx, rx) = mpsc::channel::<Submitted>();
    let handle = served.handle.clone();
    let order = order.to_vec();
    let submitter = move || {
        for (i, at) in schedule.into_iter().enumerate() {
            let due = Duration::from_nanos(at.as_nanos());
            sleep_until(window.t0 + due);
            let submit_begin = window.t0.elapsed();
            let input = order[i % order.len()];
            let ticket = handle.submit(pool.input(input));
            let sent = Submitted {
                input,
                due,
                submit_begin,
                submit_end: window.t0.elapsed(),
                ticket,
            };
            if tx.send(sent).is_err() {
                break;
            }
        }
        Vec::new()
    };
    let collector = move || {
        rx.into_iter()
            .map(|mut sent| {
                let ticket = std::mem::replace(&mut sent.ticket, Err(ServeError::Closed));
                let reply = ticket.and_then(|t| t.wait()).map_err(|e| e.to_string());
                sent.into_op(window.t0.elapsed(), reply)
            })
            .collect()
    };
    vec![Box::new(submitter), Box::new(collector)]
}

/// The default dual trigger with a wider admission window. The default
/// 256 rows are 80 ms of arrivals at this rate, and the shared host
/// freezes the whole process now and then, mostly for 30–130 ms and on a
/// bad day for 350 ms: the catch-up burst after such a freeze would be
/// rejected, and the run would report the hypervisor's stall as failed
/// operations. 4096 rows are 1.3 s of arrivals. Steady-state depth is
/// about 30 rows either way, so no figure depends on the window.
fn open_loop_batching() -> BatcherConfig {
    BatcherConfig {
        queue_cap_rows: 4096,
        ..BatcherConfig::default()
    }
}

/// Closed loop of bare collaborative rounds from one thread.
fn round_loop(rounds: &mut Rounds<'_>, pool: &Pool, order: &[usize], window: Window) -> Vec<Op> {
    let mut ops = Vec::new();
    sleep_until(window.t0);
    for step in 0.. {
        let begin = Instant::now();
        if begin >= window.end {
            break;
        }
        let input = order[step % order.len()];
        let reply = rounds.infer(pool.input(input));
        ops.push(Op {
            input,
            start: begin - window.t0,
            latency: begin.elapsed(),
            late: Duration::ZERO,
            submit: Duration::ZERO,
            reply: reply
                .map(|report| report.predictions)
                .map_err(|e| e.to_string()),
        });
    }
    ops
}

fn expect_reference(pool: &Pool, reply: &[TeamPrediction]) {
    assert!(
        pool.matches(0, reply),
        "first warm reply differs from the local team prediction"
    );
}

/// Stands the workload's cluster up (timed as set-up, through the first
/// verified reply), runs the phase's load against it, and tears it down.
pub fn run(kind: Kind, pool: &Pool, obs: &NodeObs, phase: &Phase) -> Outcome {
    let team = kind.team();
    let order = input_order(pool, phase.seed);
    let begin = Instant::now();
    let nodes = TcpTransport::mesh_localhost(team.k).expect("loopback TCP mesh");
    let master_obs = obs.master();
    let (setup, (ops, wall, marks)) = match kind {
        Kind::CnnRound => with_rounds(&nodes, &team, obs, |rounds| {
            let warm = rounds.infer(pool.input(0)).expect("first warm round");
            expect_reference(pool, &warm.predictions);
            let setup = begin.elapsed();
            let window = Window::starting_now(phase);
            let order = &order;
            let generator = move || round_loop(rounds, pool, order, window);
            (setup, drive(master_obs, window, vec![Box::new(generator)]))
        }),
        Kind::MlpOpen3200 => with_serve(&nodes, &team, obs, open_loop_batching(), |served| {
            let ticket = served.handle.submit(pool.input(0)).expect("admit");
            expect_reference(pool, &ticket.wait().expect("first warm reply"));
            let setup = begin.elapsed();
            let window = Window::starting_now(phase);
            let generators = open_loop(served, pool, &order, window, phase);
            (setup, drive(master_obs, window, generators))
        }),
        Kind::MlpTcpTrickle | Kind::MlpTcpBulk => {
            with_serve(&nodes, &team, obs, BatcherConfig::default(), |served| {
                std::thread::sleep(ACCEPT_SETTLE);
                let mut clients: Vec<ServeClient> = (0..CLIENTS)
                    .map(|_| ServeClient::connect(&served.addr).expect("connect serve client"))
                    .collect();
                if master_obs.enabled() {
                    for client in &mut clients {
                        client.set_trace_seed(TRACE_SEED);
                    }
                }
                let warm = clients[0].infer(pool.input(0)).expect("first warm reply");
                expect_reference(pool, &warm);
                let setup = begin.elapsed();
                let window = Window::starting_now(phase);
                let order = &order;
                let generators = clients
                    .into_iter()
                    .enumerate()
                    .map(|(c, client)| {
                        let offset = c * order.len() / CLIENTS;
                        Box::new(move || closed_loop_tcp(client, pool, order, offset, window))
                            as Box<dyn FnOnce() -> Vec<Op> + Send>
                    })
                    .collect();
                (setup, drive(master_obs, window, generators))
            })
        }
    };
    Outcome {
        setup,
        ops,
        wall,
        measured: (phase.warmup, phase.measure),
        marks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_loop_latency_runs_from_the_due_time() {
        let ms = Duration::from_millis;
        // Due at 10 ms, but the generator stalled and submitted at 13 ms;
        // the reply came at 21 ms. The request waited 11 ms, not 8.
        let stalled = Submitted {
            input: 3,
            due: ms(10),
            submit_begin: ms(13),
            submit_end: ms(13) + Duration::from_micros(20),
            ticket: Err(ServeError::Closed),
        };
        let op = stalled.into_op(ms(21), Ok(Vec::new()));
        assert_eq!(op.start, ms(10));
        assert_eq!(op.latency, ms(11));
        assert_eq!(op.late, ms(3));
        assert_eq!(op.submit, Duration::from_micros(20));
        // A punctual generator is charged nothing.
        let punctual = Submitted {
            input: 0,
            due: ms(10),
            submit_begin: ms(10),
            submit_end: ms(10),
            ticket: Err(ServeError::Closed),
        };
        let op = punctual.into_op(ms(18), Err("rejected".into()));
        assert_eq!((op.latency, op.late), (ms(8), Duration::ZERO));
    }

    #[test]
    fn every_generator_walks_the_whole_seeded_pool() {
        let pool = Kind::MlpTcpBulk.pool(5);
        let order = input_order(&pool, 5);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..pool.len()).collect::<Vec<_>>());
        assert_eq!(order, input_order(&pool, 5));
        assert_ne!(order, input_order(&pool, 6));
        assert_eq!(Kind::from_name("mlp_tcp_bulk"), Some(Kind::MlpTcpBulk));
        assert_eq!(Kind::from_name("bulk"), None);
    }
}
