//! The dump-on-failure flight recorder, end to end: a worker that never
//! answers drives the failure detector to quarantine, and the runtime
//! auto-dumps the fixed-capacity ring — whose **last line** must be the
//! `flight.quarantine` mark naming the triggering peer (DESIGN.md §17).

use std::sync::Arc;
use std::time::Duration;
use teamnet_core::runtime::{InferenceSession, MasterConfig};
use teamnet_core::{build_expert, FailureDetectorConfig};
use teamnet_net::{ChannelTransport, SystemClock};
use teamnet_nn::ModelSpec;
use teamnet_obs::{NullSink, Obs};
use teamnet_tensor::Tensor;

#[test]
fn quarantine_transition_dumps_ring_ending_with_the_trigger() {
    let dir = std::path::Path::new("target/test-flight/quarantine");
    let _ = std::fs::remove_dir_all(dir);

    // 2-node cluster; worker 1 simply never runs, so every gather leg
    // records a miss until the detector quarantines it.
    let mesh = ChannelTransport::mesh(2);
    let master = &mesh[0];

    let obs = Obs::with_flight_recorder(Arc::new(SystemClock), Arc::new(NullSink), 64, dir);
    let config = MasterConfig {
        worker_timeout: Duration::from_millis(20),
        failure: FailureDetectorConfig {
            quarantine_after: 2,
            probe_interval: 1000,
        },
        obs: obs.clone(),
        trace_seed: 7,
        ..MasterConfig::default()
    };

    let mut session = InferenceSession::new(master, config);
    let mut expert = build_expert(&ModelSpec::mlp(2, 16), 0);
    let images = Tensor::full([1, 1, 28, 28], 0.5);
    for _ in 0..3 {
        session.infer(master, &mut expert, &images).unwrap();
    }

    let recorder = obs.flight.as_ref().expect("recorder armed");
    assert_eq!(recorder.dump_count(), 1, "exactly one quarantine dump");
    let dump = dir.join("flight-0.jsonl");
    let text = std::fs::read_to_string(&dump).expect("dump written");
    let last = text.lines().last().expect("non-empty dump");
    assert!(
        last.contains("\"name\":\"flight.quarantine\""),
        "dump must end with the triggering transition, got: {last}"
    );
    assert!(last.contains("\"peer\":1"), "{last}");
    // The ring held the session history leading up to the trigger.
    assert!(text.contains("\"name\":\"round\""), "{text}");
}
