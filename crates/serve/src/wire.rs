//! The framed client protocol: how serving requests and replies cross a
//! byte stream.
//!
//! This is deliberately *not* the cluster's [`teamnet_net::Envelope`]
//! protocol: clients are outside the trust and versioning boundary of the
//! master↔worker mesh, so they get their own minimal framing —
//! `magic | kind | request id | length | crc32 | payload` — with the same
//! defensive posture (length bound before allocation, CRC before decode).
//! `cargo xtask protocol` audits that every [`ServeMsgKind`] is
//! constructed by real producers and dispatched in the TCP front-end
//! (`crates/serve/src/tcp.rs`).

use crate::error::ServeError;
use std::io::{Read, Write};
use teamnet_core::TeamPrediction;
use teamnet_net::codec::{read_exact_bounded, write_all_vectored, Reader};
use teamnet_net::{Crc32, NetError, TraceContext, TRACE_EXT_LEN};

/// Frame magic: `b"TSRV"` little-endian, so a stray connection speaking
/// the wrong protocol fails fast instead of mis-decoding.
pub const SERVE_MAGIC: u32 = 0x5652_5354;

/// Frame header length: magic(4) | kind(1) | req_id(8) | len(4) | crc(4).
pub const SERVE_HEADER_LEN: usize = 21;

/// High bit of the kind byte: the header is followed by the 16-byte trace
/// extension an envelope carries too ([`TraceContext::to_wire`]), covered
/// by the frame CRC together with the payload. Untraced frames stay
/// byte-identical to the pre-tracing protocol (DESIGN.md §17).
pub const SERVE_TRACE_FLAG: u8 = 0x80;

/// Largest accepted payload: a 64-row batch of 28×28 images is ~200 KiB;
/// 16 MiB leaves room for generous feature dims while bounding what a
/// malicious length field can make the server allocate.
pub const MAX_SERVE_PAYLOAD: usize = 16 * 1024 * 1024;

/// Message kinds on a serving connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeMsgKind {
    /// Client → server: one inference request carrying a tensor payload
    /// ([`teamnet_net::codec::encode_f32s`]).
    Request,
    /// Server → client: per-row winning predictions for a request.
    Reply,
    /// Server → client: a typed [`ServeError`] rejection.
    Reject,
    /// Client → server: clean end of session; the connection closes.
    Goodbye,
}

impl ServeMsgKind {
    fn to_byte(self) -> u8 {
        match self {
            ServeMsgKind::Request => 1,
            ServeMsgKind::Reply => 2,
            ServeMsgKind::Reject => 3,
            ServeMsgKind::Goodbye => 4,
        }
    }

    fn from_byte(b: u8) -> Result<Self, ServeError> {
        match b {
            1 => Ok(ServeMsgKind::Request),
            2 => Ok(ServeMsgKind::Reply),
            3 => Ok(ServeMsgKind::Reject),
            4 => Ok(ServeMsgKind::Goodbye),
            other => Err(ServeError::Malformed(format!(
                "unknown serve message kind {other}"
            ))),
        }
    }
}

/// One decoded frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeFrame {
    /// What the frame is.
    pub kind: ServeMsgKind,
    /// Which request it belongs to (client-chosen, echoed by the server).
    pub req_id: u64,
    /// Trace context carried by the [`SERVE_TRACE_FLAG`] extension, if
    /// the sender stamped one.
    pub trace: Option<TraceContext>,
    /// Kind-specific payload bytes.
    pub payload: Vec<u8>,
}

/// Everything of a frame that precedes the payload — the 21-byte header
/// and, when `trace` is given, the 16-byte extension — as one stack
/// buffer plus its used length. Both the buffer-building encoder and the
/// vectored writer start from this, so the layout exists once.
fn frame_head(
    kind: ServeMsgKind,
    req_id: u64,
    trace: Option<TraceContext>,
    payload: &[u8],
) -> ([u8; SERVE_HEADER_LEN + TRACE_EXT_LEN], usize) {
    let mut head = [0u8; SERVE_HEADER_LEN + TRACE_EXT_LEN];
    let mut used = SERVE_HEADER_LEN;
    if let Some(ctx) = trace {
        head[used..].copy_from_slice(&ctx.to_wire());
        used += TRACE_EXT_LEN;
    }
    // The CRC covers the extension and the payload, hashed in place.
    let crc = Crc32::new()
        .update(&head[SERVE_HEADER_LEN..used])
        .update(payload)
        .finish();
    head[..4].copy_from_slice(&SERVE_MAGIC.to_le_bytes());
    head[4] = kind.to_byte() | if trace.is_some() { SERVE_TRACE_FLAG } else { 0 };
    head[5..13].copy_from_slice(&req_id.to_le_bytes());
    head[13..17].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    head[17..21].copy_from_slice(&crc.to_le_bytes());
    (head, used)
}

/// Encodes one untraced frame (byte-identical to the pre-tracing
/// protocol).
pub fn encode_serve_frame(kind: ServeMsgKind, req_id: u64, payload: &[u8]) -> Vec<u8> {
    encode_serve_frame_traced(kind, req_id, None, payload)
}

/// Encodes one frame, stamping the [`SERVE_TRACE_FLAG`] extension when
/// `trace` is given; the CRC covers the extension and the payload.
pub fn encode_serve_frame_traced(
    kind: ServeMsgKind,
    req_id: u64,
    trace: Option<TraceContext>,
    payload: &[u8],
) -> Vec<u8> {
    let (head, used) = frame_head(kind, req_id, trace, payload);
    let mut out = Vec::with_capacity(used + payload.len());
    out.extend_from_slice(&head[..used]);
    out.extend_from_slice(payload);
    out
}

/// Writes one frame to a byte stream, stamping the trace extension when
/// `trace` is given. Header and payload leave as a single vectored write:
/// the payload is not copied into a frame buffer, and the header never
/// travels in a segment of its own (which, on a socket without
/// `TCP_NODELAY`, would park the payload behind the peer's delayed ACK).
///
/// # Errors
///
/// [`ServeError::Closed`] when the stream is gone.
pub fn write_serve_frame(
    writer: &mut dyn Write,
    kind: ServeMsgKind,
    req_id: u64,
    trace: Option<TraceContext>,
    payload: &[u8],
) -> Result<(), ServeError> {
    let (head, used) = frame_head(kind, req_id, trace, payload);
    write_all_vectored(writer, &head[..used], payload)
        .and_then(|()| writer.flush())
        .map_err(|_| ServeError::Closed)
}

/// Reads one frame from a byte stream, validating magic, length bound
/// and CRC before handing the payload out. The payload buffer grows with
/// the bytes received ([`read_exact_bounded`]), so a header that merely
/// *claims* [`MAX_SERVE_PAYLOAD`] costs one chunk of memory, not 16 MiB.
///
/// # Errors
///
/// [`ServeError::Closed`] on EOF / stream errors;
/// [`ServeError::Malformed`] for wrong magic, oversized length, bad CRC
/// or an unknown kind byte.
pub fn read_serve_frame(reader: &mut dyn Read) -> Result<ServeFrame, ServeError> {
    let mut header = [0u8; SERVE_HEADER_LEN];
    reader
        .read_exact(&mut header)
        .map_err(|_| ServeError::Closed)?;
    let [m0, m1, m2, m3, raw_kind, i0, i1, i2, i3, i4, i5, i6, i7, l0, l1, l2, l3, c0, c1, c2, c3] =
        header;
    if u32::from_le_bytes([m0, m1, m2, m3]) != SERVE_MAGIC {
        return Err(ServeError::Malformed("bad frame magic".into()));
    }
    let traced = raw_kind & SERVE_TRACE_FLAG != 0;
    let kind = ServeMsgKind::from_byte(raw_kind & !SERVE_TRACE_FLAG)?;
    let req_id = u64::from_le_bytes([i0, i1, i2, i3, i4, i5, i6, i7]);
    let len = u32::from_le_bytes([l0, l1, l2, l3]) as usize;
    let crc = u32::from_le_bytes([c0, c1, c2, c3]);
    if len > MAX_SERVE_PAYLOAD {
        return Err(ServeError::Malformed(format!(
            "frame payload of {len} bytes exceeds the {MAX_SERVE_PAYLOAD}-byte bound"
        )));
    }
    let mut ext = [0u8; TRACE_EXT_LEN];
    if traced {
        reader
            .read_exact(&mut ext)
            .map_err(|_| ServeError::Closed)?;
    }
    let covered: &[u8] = if traced { &ext } else { &[] };
    let payload = read_exact_bounded(reader, len).map_err(|_| ServeError::Closed)?;
    if Crc32::new().update(covered).update(&payload).finish() != crc {
        return Err(ServeError::Malformed("frame crc mismatch".into()));
    }
    let trace = traced.then(|| TraceContext::from_wire(&ext));
    Ok(ServeFrame {
        kind,
        req_id,
        trace,
        payload,
    })
}

/// Encodes a [`ServeMsgKind::Reply`] payload: per-row winners as
/// `count: u32 | per row (label: u32 | expert: u32 | entropy: f32)`.
pub fn encode_predictions(preds: &[TeamPrediction]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + preds.len() * 12);
    out.extend_from_slice(&(preds.len() as u32).to_le_bytes());
    for p in preds {
        out.extend_from_slice(&(p.label as u32).to_le_bytes());
        out.extend_from_slice(&(p.expert as u32).to_le_bytes());
        out.extend_from_slice(&p.entropy.to_le_bytes());
    }
    out
}

/// Decodes a [`ServeMsgKind::Reply`] payload.
///
/// # Errors
///
/// [`ServeError::Malformed`] for truncated or over-declared payloads.
pub fn decode_predictions(bytes: &[u8]) -> Result<Vec<TeamPrediction>, ServeError> {
    let malformed = |e: NetError| ServeError::Malformed(format!("reply payload: {e}"));
    let mut r = Reader::new(bytes);
    let count = r.u32().map_err(malformed)? as usize;
    let (rows, _) = r
        .take(count.saturating_mul(12))
        .map_err(malformed)?
        .as_chunks::<12>();
    r.finish().map_err(malformed)?;
    Ok(rows
        .iter()
        .map(
            |&[l0, l1, l2, l3, x0, x1, x2, x3, h0, h1, h2, h3]| TeamPrediction {
                label: u32::from_le_bytes([l0, l1, l2, l3]) as usize,
                expert: u32::from_le_bytes([x0, x1, x2, x3]) as usize,
                entropy: f32::from_le_bytes([h0, h1, h2, h3]),
            },
        )
        .collect())
}

/// Encodes a [`ServeMsgKind::Reject`] payload: `code: u8 | detail utf-8`.
pub fn encode_reject(err: &ServeError) -> Vec<u8> {
    let mut out = vec![err.wire_code()];
    out.extend_from_slice(err.wire_detail().as_bytes());
    out
}

/// Decodes a [`ServeMsgKind::Reject`] payload back into the
/// client-visible [`ServeError`].
///
/// # Errors
///
/// [`ServeError::Malformed`] for an empty payload.
pub fn decode_reject(bytes: &[u8]) -> Result<ServeError, ServeError> {
    let mut r = Reader::new(bytes);
    let code = r
        .u8()
        .map_err(|_| ServeError::Malformed("empty reject payload".into()))?;
    Ok(ServeError::from_wire(
        code,
        &String::from_utf8_lossy(r.rest()),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_round_trip() {
        let bytes = encode_serve_frame(ServeMsgKind::Request, 42, b"payload");
        let frame = read_serve_frame(&mut bytes.as_slice()).unwrap();
        assert_eq!(frame.kind, ServeMsgKind::Request);
        assert_eq!(frame.req_id, 42);
        assert_eq!(frame.trace, None);
        assert_eq!(frame.payload, b"payload");
    }

    #[test]
    fn traced_frame_round_trip_and_untraced_stays_byte_identical() {
        let ctx = TraceContext {
            trace_id: 0xDEAD_BEEF_0123_4567,
            parent_span: 99,
        };
        let bytes = encode_serve_frame_traced(ServeMsgKind::Request, 7, Some(ctx), b"xyz");
        assert_eq!(bytes.len(), SERVE_HEADER_LEN + TRACE_EXT_LEN + 3);
        let frame = read_serve_frame(&mut bytes.as_slice()).unwrap();
        assert_eq!(frame.kind, ServeMsgKind::Request);
        assert_eq!(frame.req_id, 7);
        assert_eq!(frame.trace, Some(ctx));
        assert_eq!(frame.payload, b"xyz");
        // `None` takes exactly the legacy encoding path.
        assert_eq!(
            encode_serve_frame_traced(ServeMsgKind::Request, 7, None, b"xyz"),
            encode_serve_frame(ServeMsgKind::Request, 7, b"xyz"),
        );
    }

    #[test]
    fn golden_wire_bytes_are_pinned() {
        // From an independent implementation (zlib's CRC-32 over the
        // documented layout): encoder and checksum may be rewritten, the
        // bytes a deployed client sends may not move.
        let untraced = [
            0x54, 0x53, 0x52, 0x56, 0x01, 0x2A, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x07,
            0x00, 0x00, 0x00, 0x15, 0x6A, 0x2C, 0x42, 0x70, 0x61, 0x79, 0x6C, 0x6F, 0x61, 0x64,
        ];
        assert_eq!(
            encode_serve_frame(ServeMsgKind::Request, 42, b"payload"),
            untraced
        );
        let ctx = TraceContext {
            trace_id: 0xDEAD_BEEF_0123_4567,
            parent_span: 99,
        };
        let traced = [
            0x54, 0x53, 0x52, 0x56, 0x82, 0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x03,
            0x00, 0x00, 0x00, 0x41, 0xC2, 0xDF, 0xF1, 0x67, 0x45, 0x23, 0x01, 0xEF, 0xBE, 0xAD,
            0xDE, 0x63, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x78, 0x79, 0x7A,
        ];
        assert_eq!(
            encode_serve_frame_traced(ServeMsgKind::Reply, 7, Some(ctx), b"xyz"),
            traced
        );
        // The vectored writer puts the same bytes on a stream.
        let mut stream = Vec::new();
        write_serve_frame(&mut stream, ServeMsgKind::Request, 42, None, b"payload").unwrap();
        assert_eq!(stream, untraced);
        let mut stream = Vec::new();
        write_serve_frame(&mut stream, ServeMsgKind::Reply, 7, Some(ctx), b"xyz").unwrap();
        assert_eq!(stream, traced);
    }

    #[test]
    fn length_prefix_bomb_followed_by_eof_is_a_typed_error() {
        // A header claiming the largest legal payload, then nothing: the
        // reader must fail typed without having allocated 16 MiB on the
        // header's word (the bound itself is asserted where the shared
        // reader lives, `teamnet_net::codec`).
        let mut bytes = encode_serve_frame(ServeMsgKind::Request, 1, b"");
        bytes[13..17].copy_from_slice(&(MAX_SERVE_PAYLOAD as u32).to_le_bytes());
        bytes.extend_from_slice(&[0u8; 64]);
        assert!(matches!(
            read_serve_frame(&mut bytes.as_slice()),
            Err(ServeError::Closed)
        ));
        // One past the bound is rejected before any payload read.
        bytes[13..17].copy_from_slice(&(MAX_SERVE_PAYLOAD as u32 + 1).to_le_bytes());
        assert!(matches!(
            read_serve_frame(&mut bytes.as_slice()),
            Err(ServeError::Malformed(_))
        ));
    }

    #[test]
    fn trace_ext_is_crc_covered() {
        let ctx = TraceContext {
            trace_id: 1,
            parent_span: 2,
        };
        let mut bytes = encode_serve_frame_traced(ServeMsgKind::Reply, 3, Some(ctx), b"abc");
        // Flip a bit inside the trace extension (just past the header).
        bytes[SERVE_HEADER_LEN] ^= 0xFF;
        assert!(matches!(
            read_serve_frame(&mut bytes.as_slice()),
            Err(ServeError::Malformed(_))
        ));
    }

    #[test]
    fn bad_magic_and_bad_crc_rejected() {
        let mut bytes = encode_serve_frame(ServeMsgKind::Reply, 1, b"abc");
        bytes[0] ^= 0xFF;
        assert!(matches!(
            read_serve_frame(&mut bytes.as_slice()),
            Err(ServeError::Malformed(_))
        ));
        let mut bytes = encode_serve_frame(ServeMsgKind::Reply, 1, b"abc");
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        assert!(matches!(
            read_serve_frame(&mut bytes.as_slice()),
            Err(ServeError::Malformed(_))
        ));
    }

    #[test]
    fn unknown_kind_rejected_truncation_is_closed() {
        let mut bytes = encode_serve_frame(ServeMsgKind::Goodbye, 7, &[]);
        bytes[4] = 99;
        assert!(matches!(
            read_serve_frame(&mut bytes.as_slice()),
            Err(ServeError::Malformed(_))
        ));
        let bytes = encode_serve_frame(ServeMsgKind::Request, 7, b"xyz");
        assert!(matches!(
            read_serve_frame(&mut bytes[..bytes.len() - 1].as_ref()),
            Err(ServeError::Closed)
        ));
    }

    #[test]
    fn predictions_round_trip() {
        let preds = vec![
            TeamPrediction {
                label: 3,
                expert: 1,
                entropy: 0.25,
            },
            TeamPrediction {
                label: 9,
                expert: 0,
                entropy: 1.5,
            },
        ];
        let decoded = decode_predictions(&encode_predictions(&preds)).unwrap();
        assert_eq!(decoded, preds);
        assert!(decode_predictions(&[1, 2]).is_err());
        assert!(decode_predictions(&[2, 0, 0, 0, 1]).is_err());
    }

    #[test]
    fn reject_round_trip() {
        let err = ServeError::Malformed("bad dims".into());
        let back = decode_reject(&encode_reject(&err)).unwrap();
        assert_eq!(back, err);
        assert!(decode_reject(&[]).is_err());
    }
}
