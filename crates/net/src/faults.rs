//! Fault-injection wrappers for resilience testing.
//!
//! Edge deployments lose packets, delay them, replay them and flip their
//! bits; [`ChaosTransport`] decorates a real transport with **seeded,
//! deterministic** versions of all four faults plus explicit per-peer
//! black-holing, so resilience tests replay identically run-to-run.
//!
//! Faults apply to the *send* side only: a wrapped endpoint mistreats its
//! own outgoing traffic, which composes cleanly when every node of a mesh
//! is wrapped. Delay is modeled deterministically as reordering — a
//! delayed message is held back and released after the next few sends —
//! so no timer threads are involved and a seeded run is exactly
//! reproducible.

use crate::error::NetError;
use crate::retry::DetRng;
use crate::transport::{NodeId, Tag, Transport, TransportStats};
use parking_lot::Mutex;
use std::collections::BTreeSet;
use std::time::Duration;

/// Probabilistic fault plan for a [`ChaosTransport`], applied per outgoing
/// message. At most one fault fires per message, drawn in the order drop →
/// delay → corrupt → duplicate.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosConfig {
    /// Seed for the fault PRNG; equal seeds replay equal fault patterns.
    pub seed: u64,
    /// Probability of silently dropping a message.
    pub drop_prob: f64,
    /// Probability of delaying (reordering) a message.
    pub delay_prob: f64,
    /// Probability of flipping one payload bit (detected by envelope CRC).
    pub corrupt_prob: f64,
    /// Probability of delivering a message twice.
    pub duplicate_prob: f64,
    /// A delayed message is released after `1..=max_delay_msgs` subsequent
    /// sends by this endpoint.
    pub max_delay_msgs: u64,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            seed: 0,
            drop_prob: 0.0,
            delay_prob: 0.0,
            corrupt_prob: 0.0,
            duplicate_prob: 0.0,
            max_delay_msgs: 3,
        }
    }
}

/// The fate the probabilistic fault plan assigns to one offered message.
///
/// This is the *model* of [`ChaosTransport`]'s per-send decision, exported
/// so that offline tools (the `cargo xtask mc` fault adversary) can prove
/// their fault semantics match the runtime byte-for-byte. Blackholing is
/// **not** part of the probabilistic plan: it short-circuits before any
/// RNG draw and consumes no randomness, which is exactly why
/// [`plan_fates`] can replay the RNG stream from the seed alone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultFate {
    /// Delivered unchanged.
    Deliver,
    /// Silently dropped.
    Drop,
    /// Held back and released after `hold` further offers by this endpoint.
    Delay {
        /// Offers to wait before release (`release_at = offered + hold`).
        hold: u64,
    },
    /// One payload bit flipped (global bit index into the payload bytes).
    Corrupt {
        /// Which bit is flipped: byte `bit / 8`, mask `1 << (bit % 8)`.
        bit: u64,
    },
    /// Delivered twice back-to-back.
    Duplicate,
}

/// Draws the fate for the next offered message. Exactly one fault fires
/// per message, drawn in the order drop → delay → corrupt → duplicate;
/// the corrupt draw is skipped entirely for empty payloads (no bit to
/// flip), preserving the RNG stream shape of the runtime path.
fn next_fate(rng: &mut DetRng, config: &ChaosConfig, payload_len: usize) -> FaultFate {
    if rng.chance(config.drop_prob) {
        FaultFate::Drop
    } else if rng.chance(config.delay_prob) {
        let hold = 1 + rng.below(config.max_delay_msgs.max(1));
        FaultFate::Delay { hold }
    } else if payload_len > 0 && rng.chance(config.corrupt_prob) {
        let bit = rng.below(payload_len as u64 * 8);
        FaultFate::Corrupt { bit }
    } else if rng.chance(config.duplicate_prob) {
        FaultFate::Duplicate
    } else {
        FaultFate::Deliver
    }
}

/// Replays the probabilistic fault plan for a whole schedule of offered
/// messages (identified only by their payload lengths, which gate the
/// corrupt draw) and returns the fate of each. A [`ChaosTransport`] built
/// from the same `config` assigns exactly these fates to its first
/// `payload_lens.len()` sends, provided no blackhole preempts the draw.
pub fn plan_fates(config: &ChaosConfig, payload_lens: &[usize]) -> Vec<FaultFate> {
    let mut rng = DetRng::new(config.seed);
    payload_lens
        .iter()
        .map(|&len| next_fate(&mut rng, config, len))
        .collect()
}

/// A message held back by the delay fault, due once `release_at` sends
/// have happened.
struct Delayed {
    release_at: u64,
    to: NodeId,
    tag: Tag,
    payload: Vec<u8>,
}

#[derive(Default)]
struct FaultCounters {
    dropped: u64,
    delayed: u64,
    corrupted: u64,
    duplicated: u64,
}

struct ChaosState {
    rng: DetRng,
    /// Messages offered to `send` so far (fault decisions are per-offer).
    offered: u64,
    pending: Vec<Delayed>,
    counters: FaultCounters,
}

/// A transport decorator injecting seeded drop / delay / corruption /
/// duplication faults and explicit per-peer black-holing.
pub struct ChaosTransport<T: Transport> {
    inner: T,
    config: ChaosConfig,
    /// Ordered set: membership tests only today, but the `det-map` audit
    /// rule keeps unordered collections out of protocol paths wholesale.
    blackholed: Mutex<BTreeSet<NodeId>>,
    state: Mutex<ChaosState>,
}

impl<T: Transport> ChaosTransport<T> {
    /// Wraps `inner` with no faults configured (blackhole/heal still work).
    pub fn new(inner: T) -> Self {
        Self::with_config(inner, ChaosConfig::default())
    }

    /// Wraps `inner` with the given probabilistic fault plan.
    pub fn with_config(inner: T, config: ChaosConfig) -> Self {
        let seed = config.seed;
        ChaosTransport {
            inner,
            config,
            blackholed: Mutex::new(BTreeSet::new()),
            state: Mutex::new(ChaosState {
                rng: DetRng::new(seed),
                offered: 0,
                pending: Vec::new(),
                counters: FaultCounters::default(),
            }),
        }
    }

    /// Starts black-holing all traffic towards `peer` (simulates the peer
    /// walking out of WiFi range).
    pub fn blackhole(&self, peer: NodeId) {
        self.blackholed.lock().insert(peer);
    }

    /// Restores delivery towards `peer`.
    pub fn heal(&self, peer: NodeId) {
        self.blackholed.lock().remove(&peer);
    }

    /// Access to the wrapped transport (e.g. for a fault-free control
    /// channel in tests).
    pub fn inner(&self) -> &T {
        &self.inner
    }

    /// Releases every delayed message immediately (end-of-test drain so
    /// nothing is stranded in the reorder buffer).
    pub fn flush(&self) {
        let drained: Vec<Delayed> = {
            let mut state = self.state.lock();
            state.pending.drain(..).collect()
        };
        for msg in drained {
            let _ = self.inner.send(msg.to, msg.tag, &msg.payload);
        }
    }

    /// Sends any pending messages whose release point has passed.
    fn release_due(&self, now: u64) {
        let due: Vec<Delayed> = {
            let mut state = self.state.lock();
            let mut due = Vec::new();
            let mut i = 0;
            while i < state.pending.len() {
                if state.pending.get(i).is_some_and(|m| m.release_at <= now) {
                    due.push(state.pending.swap_remove(i));
                } else {
                    i += 1;
                }
            }
            due
        };
        for msg in due {
            // Best effort: a delayed message racing shutdown just vanishes,
            // which is exactly what real in-flight packets do.
            let _ = self.inner.send(msg.to, msg.tag, &msg.payload);
        }
    }
}

impl<T: Transport> std::fmt::Debug for ChaosTransport<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ChaosTransport(node {}, seed {})",
            self.inner.node_id(),
            self.config.seed
        )
    }
}

impl<T: Transport> Transport for ChaosTransport<T> {
    fn node_id(&self) -> NodeId {
        self.inner.node_id()
    }

    fn num_nodes(&self) -> usize {
        self.inner.num_nodes()
    }

    fn send(&self, to: NodeId, tag: Tag, payload: &[u8]) -> Result<(), NetError> {
        let (fate, offered) = {
            let mut state = self.state.lock();
            state.offered += 1;
            let offered = state.offered;
            // A blackhole preempts the probabilistic plan without
            // consuming an RNG draw (see `FaultFate` docs).
            let fate = if self.blackholed.lock().contains(&to) {
                FaultFate::Drop
            } else {
                next_fate(&mut state.rng, &self.config, payload.len())
            };
            match fate {
                FaultFate::Deliver => {}
                FaultFate::Drop => state.counters.dropped += 1,
                FaultFate::Delay { hold } => {
                    state.counters.delayed += 1;
                    state.pending.push(Delayed {
                        release_at: offered + hold,
                        to,
                        tag,
                        payload: payload.to_vec(),
                    });
                }
                FaultFate::Corrupt { .. } => state.counters.corrupted += 1,
                FaultFate::Duplicate => state.counters.duplicated += 1,
            }
            (fate, offered)
        };
        self.release_due(offered);
        match fate {
            FaultFate::Deliver => self.inner.send(to, tag, payload),
            FaultFate::Drop | FaultFate::Delay { .. } => Ok(()),
            FaultFate::Corrupt { bit } => {
                let mut mutated = payload.to_vec();
                if let Some(byte) = mutated.get_mut((bit / 8) as usize) {
                    *byte ^= 1 << (bit % 8);
                }
                self.inner.send(to, tag, &mutated)
            }
            FaultFate::Duplicate => {
                self.inner.send(to, tag, payload)?;
                self.inner.send(to, tag, payload)
            }
        }
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

    fn stats(&self) -> TransportStats {
        let inner = self.inner.stats();
        let state = self.state.lock();
        TransportStats {
            messages_dropped: inner.messages_dropped + state.counters.dropped,
            messages_delayed: inner.messages_delayed + state.counters.delayed,
            messages_corrupted: inner.messages_corrupted + state.counters.corrupted,
            messages_duplicated: inner.messages_duplicated + state.counters.duplicated,
            ..inner
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::ChannelTransport;

    const TAG: Tag = Tag(3);
    const SHORT: Duration = Duration::from_millis(50);

    #[test]
    fn blackhole_drops_and_heal_restores() {
        let mut nodes = ChannelTransport::mesh(2);
        let receiver = nodes.pop().unwrap();
        let lossy = ChaosTransport::new(nodes.pop().unwrap());

        lossy.blackhole(1);
        lossy.send(1, TAG, b"lost").unwrap();
        assert!(matches!(
            receiver.recv(0, TAG, SHORT),
            Err(NetError::Timeout { .. })
        ));
        assert_eq!(lossy.stats().messages_dropped, 1);

        lossy.heal(1);
        lossy.send(1, TAG, b"found").unwrap();
        assert_eq!(receiver.recv(0, TAG, SHORT).unwrap(), b"found");
    }

    #[test]
    fn passthrough_when_no_faults() {
        let mut nodes = ChannelTransport::mesh(2);
        let receiver = nodes.pop().unwrap();
        let lossy = ChaosTransport::new(nodes.pop().unwrap());
        lossy.send(1, TAG, b"clean").unwrap();
        assert_eq!(receiver.recv(0, TAG, SHORT).unwrap(), b"clean");
        assert_eq!(lossy.node_id(), 0);
        assert_eq!(lossy.num_nodes(), 2);
        assert_eq!(lossy.stats().messages_dropped, 0);
    }

    #[test]
    fn duplication_delivers_twice() {
        let mut nodes = ChannelTransport::mesh(2);
        let receiver = nodes.pop().unwrap();
        let chaos = ChaosTransport::with_config(
            nodes.pop().unwrap(),
            ChaosConfig {
                duplicate_prob: 1.0,
                ..ChaosConfig::default()
            },
        );
        chaos.send(1, TAG, b"echo").unwrap();
        assert_eq!(receiver.recv(0, TAG, SHORT).unwrap(), b"echo");
        assert_eq!(receiver.recv(0, TAG, SHORT).unwrap(), b"echo");
        assert_eq!(chaos.stats().messages_duplicated, 1);
    }

    #[test]
    fn corruption_flips_exactly_one_bit() {
        let mut nodes = ChannelTransport::mesh(2);
        let receiver = nodes.pop().unwrap();
        let chaos = ChaosTransport::with_config(
            nodes.pop().unwrap(),
            ChaosConfig {
                corrupt_prob: 1.0,
                seed: 5,
                ..ChaosConfig::default()
            },
        );
        let original = vec![0u8; 16];
        chaos.send(1, TAG, &original).unwrap();
        let got = receiver.recv(0, TAG, SHORT).unwrap();
        let flipped: u32 = got
            .iter()
            .zip(&original)
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        assert_eq!(flipped, 1);
        assert_eq!(chaos.stats().messages_corrupted, 1);
    }

    #[test]
    fn delay_reorders_then_flush_drains() {
        let mut nodes = ChannelTransport::mesh(2);
        let receiver = nodes.pop().unwrap();
        // Seeded so the first message is delayed, later ones pass: with
        // delay_prob 1.0 every send is held, so release only happens via
        // subsequent send offers or flush().
        let chaos = ChaosTransport::with_config(
            nodes.pop().unwrap(),
            ChaosConfig {
                delay_prob: 1.0,
                max_delay_msgs: 1,
                ..ChaosConfig::default()
            },
        );
        chaos.send(1, TAG, b"first").unwrap();
        // Held: nothing delivered yet.
        assert!(receiver.recv(0, TAG, SHORT).is_err());
        // Next offer releases the first (release_at = 1 + 1 = 2).
        chaos.send(1, TAG, b"second").unwrap();
        assert_eq!(receiver.recv(0, TAG, SHORT).unwrap(), b"first");
        chaos.flush();
        assert_eq!(receiver.recv(0, TAG, SHORT).unwrap(), b"second");
        assert_eq!(chaos.stats().messages_delayed, 2);
    }

    #[test]
    fn plan_fates_predicts_send_counters() {
        // The exported plan must account for every probabilistic fate the
        // live transport assigns, including the empty-payload corrupt
        // short-circuit (frame 7 below is empty).
        let config = ChaosConfig {
            seed: 42,
            drop_prob: 0.25,
            delay_prob: 0.25,
            corrupt_prob: 0.25,
            duplicate_prob: 0.25,
            max_delay_msgs: 2,
            ..ChaosConfig::default()
        };
        let payloads: Vec<Vec<u8>> = (0..24u8)
            .map(|i| {
                if i == 7 {
                    Vec::new()
                } else {
                    vec![i; 1 + i as usize]
                }
            })
            .collect();
        let lens: Vec<usize> = payloads.iter().map(Vec::len).collect();
        let plan = plan_fates(&config, &lens);

        let mut nodes = ChannelTransport::mesh(2);
        let _receiver = nodes.pop().unwrap();
        let chaos = ChaosTransport::with_config(nodes.pop().unwrap(), config);
        for p in &payloads {
            chaos.send(1, TAG, p).unwrap();
        }
        let count = |f: fn(&FaultFate) -> bool| plan.iter().filter(|x| f(x)).count() as u64;
        let stats = chaos.stats();
        assert_eq!(stats.messages_dropped, count(|f| *f == FaultFate::Drop));
        assert_eq!(
            stats.messages_delayed,
            count(|f| matches!(f, FaultFate::Delay { .. }))
        );
        assert_eq!(
            stats.messages_corrupted,
            count(|f| matches!(f, FaultFate::Corrupt { .. }))
        );
        assert_eq!(
            stats.messages_duplicated,
            count(|f| *f == FaultFate::Duplicate)
        );
        // A fault plan this dense on a mixed schedule should exercise
        // every variant; if not, the test inputs need rework.
        assert!(plan.contains(&FaultFate::Deliver));
    }

    #[test]
    fn same_seed_replays_same_fault_pattern() {
        let deliveries = |seed: u64| -> Vec<Option<Vec<u8>>> {
            let mut nodes = ChannelTransport::mesh(2);
            let receiver = nodes.pop().unwrap();
            let chaos = ChaosTransport::with_config(
                nodes.pop().unwrap(),
                ChaosConfig {
                    seed,
                    drop_prob: 0.3,
                    delay_prob: 0.3,
                    duplicate_prob: 0.2,
                    ..ChaosConfig::default()
                },
            );
            for i in 0..20u8 {
                chaos.send(1, TAG, &[i]).unwrap();
            }
            chaos.flush();
            (0..30)
                .map(|_| receiver.recv(0, TAG, Duration::from_millis(5)).ok())
                .collect()
        };
        assert_eq!(deliveries(11), deliveries(11));
        assert_ne!(deliveries(11), deliveries(12));
    }
}
