//! Every variable-length decoder of bytes from another process, against
//! mutated input: one valid encoding decodes and re-encodes to itself,
//! every strict prefix of it is an error, and every single-byte overwrite
//! returns — `Ok` or a typed error, never a panic.

use std::panic::{catch_unwind, AssertUnwindSafe};
use teamnet_core::runtime::{decode_result_set, decode_results, encode_result_set, encode_results};
use teamnet_core::{AckStatus, LoadAckMsg, LoadChunkMsg, LoadExpertMsg, TeamPrediction};
use teamnet_net::codec::{decode_f32s, encode_f32s};
use teamnet_net::{Envelope, EnvelopeRef, PayloadKind, TraceContext};
use teamnet_serve::wire::{
    decode_predictions, encode_predictions, encode_serve_frame_traced, read_serve_frame,
    ServeMsgKind,
};

/// The bytes every position is overwritten with: zero, the sign bit, the
/// largest positive byte and all ones — the values that turn a length or
/// count field into zero, huge, or wrapped.
const PROBES: [u8; 4] = [0x00, 0x80, 0x7F, 0xFF];

const TRACE: TraceContext = TraceContext {
    trace_id: 0xDEAD_BEEF_CAFE_F00D,
    parent_span: 31,
};

/// Checks that `decode` (decode, then re-encode) maps `valid` to itself,
/// fails on every strict prefix shorter than `ok_from` bytes, and returns
/// on every single-byte overwrite with each of [`PROBES`].
fn sweep<E>(
    name: &str,
    valid: &[u8],
    ok_from: usize,
    decode: impl Fn(&[u8]) -> Result<Vec<u8>, E>,
) {
    let run = |what: String, bytes: &[u8]| {
        catch_unwind(AssertUnwindSafe(|| decode(bytes).ok()))
            .unwrap_or_else(|_| panic!("{name} panicked on {what}"))
    };
    assert_eq!(
        run("the valid encoding".into(), valid).as_deref(),
        Some(valid),
        "{name}"
    );
    for len in 0..valid.len() {
        let ok = run(format!("the {len}-byte prefix"), &valid[..len]).is_some();
        assert!(
            !ok || len >= ok_from,
            "{name} accepted the {len}-byte prefix"
        );
    }
    let mut bytes = valid.to_vec();
    for at in 0..valid.len() {
        for probe in PROBES {
            bytes[at] = probe;
            run(format!("byte {at} := {probe:#04x}"), &bytes);
        }
        bytes[at] = valid[at];
    }
}

#[test]
fn tensor_codec() {
    let bytes = encode_f32s(&[2, 3], &[1.0, -2.5, 0.0, 3.25, f32::MIN_POSITIVE, 1e30]);
    sweep("decode_f32s", &bytes, bytes.len(), |b| {
        decode_f32s(b).map(|(dims, data)| encode_f32s(&dims, &data))
    });
}

#[test]
fn result_matrix() {
    let bytes = encode_results(&[(3, 0.25), (9, 1.5), (0, 0.0)]);
    sweep("decode_results", &bytes, bytes.len(), |b| {
        decode_results(b).map(|r| encode_results(&r))
    });
}

#[test]
fn result_set() {
    let bytes = encode_result_set(&[(0, vec![(1, 0.5), (2, 0.75)]), (4, vec![(7, 0.125)])]);
    sweep("decode_result_set", &bytes, bytes.len(), |b| {
        let set = decode_result_set(b, 1)?;
        Ok::<_, teamnet_net::NetError>(encode_result_set(
            &set.into_iter()
                .map(|(e, r)| (e as u32, r))
                .collect::<Vec<_>>(),
        ))
    });
}

#[test]
fn load_expert_offer() {
    let manifest = teamnet_core::TransferManifest {
        spec: teamnet_nn::ModelSpec::mlp(2, 8),
        num_chunks: 4,
        total_bytes: 1000,
        state_crc: 0xDEAD_BEEF,
        required_resident_bytes: 4096,
    };
    let bytes = LoadExpertMsg::Offer {
        expert: 3,
        manifest,
    }
    .encode();
    sweep("LoadExpertMsg::decode", &bytes, bytes.len(), |b| {
        LoadExpertMsg::decode(b).map(|m| m.encode())
    });
}

#[test]
fn load_chunk() {
    let bytes = LoadChunkMsg {
        expert: 2,
        index: 5,
        data: vec![9, 8, 7, 6, 5, 4],
    }
    .encode();
    // The chunk's data is the rest of the input: every prefix that keeps
    // the 8-byte header decodes, to a shorter chunk.
    sweep("LoadChunkMsg::decode", &bytes, 8, |b| {
        LoadChunkMsg::decode(b).map(|m| m.encode())
    });
}

#[test]
fn load_ack() {
    let bytes = LoadAckMsg {
        expert: 11,
        status: AckStatus::ChunkOk,
        arg: 42,
    }
    .encode();
    sweep("LoadAckMsg::decode", &bytes, bytes.len(), |b| {
        LoadAckMsg::decode(b).map(|m| m.encode())
    });
}

#[test]
fn envelope() {
    let bytes = Envelope {
        trace: Some(TRACE),
        ..Envelope::new(9, PayloadKind::Result, vec![1, 2, 3, 255, 0, 7])
    }
    .encode();
    sweep("EnvelopeRef::decode", &bytes, bytes.len(), |b| {
        EnvelopeRef::decode(b).map(|env| env.encode())
    });
}

#[test]
fn predictions() {
    let row = |label, expert, entropy| TeamPrediction {
        label,
        expert,
        entropy,
    };
    let bytes = encode_predictions(&[row(3, 1, 0.25), row(9, 0, 1.5)]);
    sweep("decode_predictions", &bytes, bytes.len(), |b| {
        decode_predictions(b).map(|p| encode_predictions(&p))
    });
}

#[test]
fn serve_frame() {
    let payload = encode_f32s(&[1, 3], &[0.5, 1.5, 2.5]);
    let bytes = encode_serve_frame_traced(ServeMsgKind::Request, 42, Some(TRACE), &payload);
    sweep("read_serve_frame", &bytes, bytes.len(), |mut b| {
        read_serve_frame(&mut b)
            .map(|f| encode_serve_frame_traced(f.kind, f.req_id, f.trace, &f.payload))
    });
}
