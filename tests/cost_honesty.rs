//! Runtime honesty check for the static resource certification.
//!
//! `cargo xtask cost` certifies, for every model configuration in the
//! paper's grid, a peak-live-activation bound computed by the liveness
//! analysis in `teamnet_nn::cost` (DESIGN.md §13). This test runs a real
//! instrumented eval forward for each of those models and asserts the
//! certificate from both directions:
//!
//! * **soundness** — the static peak upper-bounds the measured peak
//!   (an under-estimate would admit experts onto devices they cannot
//!   fit on);
//! * **tightness** — the static peak is at most [`SLACK`] × the measured
//!   peak (a certificate with unlimited headroom is trivially sound and
//!   practically useless).
//!
//! It also closes the wire-model loop from the nn side: the framed byte
//! counts the certificate prices must equal what `teamnet-net`'s real
//! codec actually puts on the wire.

use teamnet_net::codec::{encode_f32s, write_frame};
use teamnet_net::{Envelope, PayloadKind, Tag};
use teamnet_nn::{expert_cost, ExpertCost, Layer, Mode, ModelSpec, WireModel};
use teamnet_tensor::{force_sequential_scope, MemScope, Tensor};

/// Documented over-approximation budget of the certificate: static peak
/// may exceed the measured peak by at most this factor. Sources of slack
/// (DESIGN.md §13): leaves price `workspace + output` coexisting even for
/// ops that free scratch earlier, and small non-tensor scratch (`Vec<f32>`
/// per-channel buffers) is excluded from measurement, shrinking the
/// observed side.
const SLACK: f64 = 2.0;

/// The paper grid, mirroring `cargo xtask cost` / `xtask::shapes`.
fn paper_grid() -> Vec<(String, ModelSpec)> {
    let mut specs = Vec::new();
    for layers in [2usize, 4, 8] {
        specs.push((format!("MLP-{layers}"), ModelSpec::mlp(layers, 128)));
    }
    for depth in [8usize, 14, 26] {
        specs.push((format!("SS-{depth}"), ModelSpec::shake_shake(depth, 16)));
    }
    specs
}

/// Peak tensor bytes measured over one sequential eval forward, with the
/// input tensor allocated inside the scope (the certificate includes the
/// caller-held input). Sequential execution matches the certificate's
/// model; the parallel backend adds per-worker scratch that is priced as
/// deployment overhead, not model liveness.
fn observed_eval_peak(spec: &ModelSpec) -> (ExpertCost, u64) {
    let mut net = spec.build_checked(0).expect("paper grid builds");
    let mut dims = vec![1];
    dims.extend(spec.input_dims());
    let cert = expert_cost(&net, &dims, &WireModel::default());
    let peak = force_sequential_scope(|| {
        let scope = MemScope::begin();
        let x = Tensor::zeros(dims.clone());
        let y = net.forward(&x, Mode::Eval);
        let stats = scope.stats();
        drop((x, y));
        stats.peak_bytes
    });
    (cert, peak)
}

#[test]
fn static_peak_bounds_and_stays_near_the_measured_peak_across_the_grid() {
    for (name, spec) in paper_grid() {
        let (cert, observed) = observed_eval_peak(&spec);
        assert!(
            cert.peak_activation_bytes >= observed,
            "{name}: certified peak {} under-counts measured {}",
            cert.peak_activation_bytes,
            observed
        );
        assert!(
            (cert.peak_activation_bytes as f64) <= SLACK * observed as f64,
            "{name}: certified peak {} exceeds {SLACK}x measured {}",
            cert.peak_activation_bytes,
            observed
        );
    }
}

#[test]
fn certificates_are_byte_stable_across_recomputation() {
    let render = |grid: &[(String, ModelSpec)]| -> String {
        grid.iter()
            .map(|(name, spec)| {
                let net = spec.build_checked(0).expect("paper grid builds");
                let mut dims = vec![1];
                dims.extend(spec.input_dims());
                let cert = expert_cost(&net, &dims, &WireModel::default());
                format!(
                    "{name}:{}\n",
                    serde_json::to_string(&cert).expect("certificate renders")
                )
            })
            .collect()
    };
    let first = render(&paper_grid());
    let second = render(&paper_grid());
    assert!(!first.is_empty());
    assert_eq!(first, second);
}

/// What the TCP transport puts on the wire for one send.
fn encode_frame(src: usize, tag: Tag, payload: &[u8]) -> Vec<u8> {
    let mut wire = Vec::new();
    write_frame(&mut wire, src, tag, payload).expect("writing to a Vec cannot fail");
    wire
}

#[test]
fn wire_model_matches_the_real_codec_byte_for_byte() {
    for (name, spec) in paper_grid() {
        let net = spec.build_checked(0).expect("paper grid builds");
        let mut dims = vec![1];
        dims.extend(spec.input_dims());
        let cert = expert_cost(&net, &dims, &WireModel::default());

        // Frame the input tensor exactly as the inference runtime does:
        // f32s payload, wrapped in an envelope, wrapped in a frame.
        let volume: usize = dims.iter().product();
        let input_frame = encode_frame(
            0,
            Tag(1),
            &Envelope::new(
                7,
                PayloadKind::Input,
                encode_f32s(&dims, &vec![0.0; volume]),
            )
            .encode(),
        );
        assert_eq!(
            cert.wire_input_bytes,
            input_frame.len() as u64,
            "{name}: certified input framing disagrees with the codec"
        );

        // Results travel as a `[batch, 2]` matrix (argmax, confidence).
        let result_frame = encode_frame(
            1,
            Tag(2),
            &Envelope::new(
                7,
                PayloadKind::Result,
                encode_f32s(&[cert.batch, 2], &vec![0.0; cert.batch * 2]),
            )
            .encode(),
        );
        assert_eq!(
            cert.wire_result_bytes,
            result_frame.len() as u64,
            "{name}: certified result framing disagrees with the codec"
        );
    }
}

#[test]
fn checked_in_certificate_carries_the_freshly_computed_numbers() {
    // `cargo xtask cost --check` diffs the whole file; this guards the
    // same invariant from the test suite for the models it measures, so a
    // stale COST.json fails `cargo test` too, not only the xtask stage.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/COST.json");
    let text = std::fs::read_to_string(path).expect("COST.json is checked in");
    for (name, spec) in paper_grid() {
        assert!(text.contains(&format!("\"{name}\"")), "{name} missing");
        let net = spec.build_checked(0).expect("paper grid builds");
        let mut dims = vec![1];
        dims.extend(spec.input_dims());
        let cert = expert_cost(&net, &dims, &WireModel::default());
        for (field, value) in [
            ("param_bytes", cert.param_bytes),
            ("peak_activation_bytes", cert.peak_activation_bytes),
            ("flops", cert.flops),
        ] {
            assert!(
                text.contains(&format!("\"{field}\": {value}")),
                "{name}: checked-in COST.json lacks {field} = {value}"
            );
        }
    }
}
