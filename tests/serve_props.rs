//! The serving bijection property: coalesce → broadcast → demux is a
//! row-order-preserving bijection.
//!
//! Expert forwards are row-independent, so a request's rows inside a
//! coalesced batch must receive **byte-for-byte** the predictions a solo
//! [`InferenceSession::infer`] of that request's own tensor would have
//! produced — same winning label, same winning expert, same entropy bits.
//! That is the whole correctness contract of the serving front-end: the
//! batcher may reorder *time*, never *rows*, and batching must be
//! invisible to every tenant.
//!
//! The property is checked for arbitrary request splits (1..=16 rows per
//! request, up to 64 rows per flush) and with a worker missing from the
//! team — the quarantine-during-batch case — where the degraded argmin
//! must still agree row-for-row with a solo session degraded the same
//! way.

use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;
use teamnet_core::runtime::{
    serve_worker_with_config, shutdown_workers, InferenceSession, MasterConfig, WorkerConfig,
};
use teamnet_core::{build_expert, FailureDetectorConfig, TeamPrediction};
use teamnet_net::{ChannelTransport, ManualClock};
use teamnet_nn::{ModelSpec, Sequential};
use teamnet_serve::{BatcherConfig, ServeConfig, ServeEngine};
use teamnet_tensor::Tensor;

fn expert(seed: u64) -> Sequential {
    build_expert(&ModelSpec::mlp(2, 16), seed)
}

/// The bit-exact identity of one predicted row.
fn row_key(p: &TeamPrediction) -> (usize, usize, u32) {
    (p.label, p.expert, p.entropy.to_bits())
}

/// One tenant request: `rows` rows of a constant fill (constant per
/// request, distinct across requests, so a row mix-up changes the key).
fn request_tensor(rows: usize, fill: f32) -> Tensor {
    Tensor::full(vec![rows, 1, 28, 28], fill)
}

fn master_config(clock: Arc<ManualClock>) -> MasterConfig {
    MasterConfig {
        // Small timeout: with a dead worker every pre-quarantine round
        // blocks for this long in *real* time (the ManualClock never
        // moves while the master awaits the silent peer).
        worker_timeout: Duration::from_millis(150),
        require_all_workers: false,
        failure: FailureDetectorConfig {
            suspect_after: 1,
            quarantine_after: 2,
            probe_interval: 1_000,
        },
        clock,
        ..MasterConfig::default()
    }
}

/// Serves every request through one engine and a single coalesced flush;
/// returns the demuxed row keys in request-submission order.
fn batched_rows(splits: &[usize], fills: &[f32], dead_worker: bool) -> Vec<(usize, usize, u32)> {
    let nodes = ChannelTransport::mesh(3);
    let clock = Arc::new(ManualClock::new());
    let mut rows = Vec::new();
    crossbeam::thread::scope(|scope| {
        scope.spawn(|_| {
            let mut e = expert(1);
            serve_worker_with_config(&nodes[1], 0, &mut e, WorkerConfig::default()).unwrap();
        });
        if !dead_worker {
            scope.spawn(|_| {
                let mut e = expert(2);
                serve_worker_with_config(&nodes[2], 0, &mut e, WorkerConfig::default()).unwrap();
            });
        }
        let config = ServeConfig {
            batch: BatcherConfig {
                max_batch_rows: 64,
                queue_cap_rows: 128,
            },
            input_dims: vec![1, 28, 28],
            master: master_config(Arc::clone(&clock)),
        };
        let mut engine = ServeEngine::new(&nodes[0], expert(0), config);
        let handle = engine.handle();
        let tickets: Vec<_> = splits
            .iter()
            .zip(fills)
            .map(|(&r, &fill)| handle.submit(&request_tensor(r, fill)).unwrap())
            .collect();
        // One flush coalesces every pending request: the engine was not
        // pumped while they arrived (the advance only gives them an age).
        clock.advance(Duration::from_millis(8));
        assert_eq!(engine.pump_now(&nodes[0]), splits.len());
        for (i, t) in tickets.iter().enumerate() {
            let preds = t
                .try_take()
                .unwrap_or_else(|| panic!("request {i} not completed by the flush"))
                .unwrap_or_else(|e| panic!("request {i} failed: {e}"));
            assert_eq!(preds.len(), splits[i], "request {i} row count");
            rows.extend(preds.iter().map(row_key));
        }
        shutdown_workers(&nodes[0]).unwrap();
    })
    .unwrap();
    rows
}

/// Serves every request as its own solo round on one persistent session
/// (so detector state evolves exactly as the engine's session would);
/// returns row keys in the same request order.
fn solo_rows(splits: &[usize], fills: &[f32], dead_worker: bool) -> Vec<(usize, usize, u32)> {
    let nodes = ChannelTransport::mesh(3);
    let clock = Arc::new(ManualClock::new());
    let mut rows = Vec::new();
    crossbeam::thread::scope(|scope| {
        scope.spawn(|_| {
            let mut e = expert(1);
            serve_worker_with_config(&nodes[1], 0, &mut e, WorkerConfig::default()).unwrap();
        });
        if !dead_worker {
            scope.spawn(|_| {
                let mut e = expert(2);
                serve_worker_with_config(&nodes[2], 0, &mut e, WorkerConfig::default()).unwrap();
            });
        }
        let mut session = InferenceSession::new(&nodes[0], master_config(Arc::clone(&clock)));
        let mut master_expert = expert(0);
        for (i, (&r, &fill)) in splits.iter().zip(fills).enumerate() {
            let report = session
                .infer(&nodes[0], &mut master_expert, &request_tensor(r, fill))
                .unwrap_or_else(|e| panic!("solo round {i} failed: {e}"));
            assert_eq!(report.predictions.len(), r, "solo round {i} row count");
            rows.extend(report.predictions.iter().map(row_key));
        }
        shutdown_workers(&nodes[0]).unwrap();
    })
    .unwrap();
    rows
}

fn fills_for(splits: &[usize], seed: u64) -> Vec<f32> {
    splits
        .iter()
        .enumerate()
        .map(|(i, _)| 0.05 + ((seed as usize + i * 13) % 17) as f32 * 0.05)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Arbitrary splits of up to 64 rows across up to 4 tenants, with
    /// the team either whole or missing a worker: coalesced serving is
    /// byte-identical, row for row, to solo inference per request.
    #[test]
    fn coalesced_serving_is_a_row_preserving_bijection(
        splits in prop::collection::vec(1usize..17, 1..5),
        fill_seed in 0u64..1_000,
        dead in 0u8..2,
    ) {
        let dead_worker = dead == 1;
        let fills = fills_for(&splits, fill_seed);
        let batched = batched_rows(&splits, &fills, dead_worker);
        let solo = solo_rows(&splits, &fills, dead_worker);
        prop_assert_eq!(&batched, &solo);
        prop_assert_eq!(batched.len(), splits.iter().sum::<usize>());
    }
}

/// The extreme of the property space, pinned deterministically: a full
/// 64-row flush (4 tenants × 16 rows) equals its four solo rounds.
#[test]
fn full_batch_of_64_rows_matches_solo() {
    let splits = [16usize, 16, 16, 16];
    let fills = fills_for(&splits, 7);
    assert_eq!(
        batched_rows(&splits, &fills, false),
        solo_rows(&splits, &fills, false)
    );
}
