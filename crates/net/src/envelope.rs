//! Versioned, round-stamped, checksummed message envelopes.
//!
//! The fault-tolerant inference protocol wraps every application payload
//! (input batches, result matrices, probes) in an [`Envelope`] so the
//! receiver can (a) reject traffic from an incompatible protocol version,
//! (b) attribute a message to the inference round that produced it —
//! discarding late replies instead of mis-scoring them against the wrong
//! batch — and (c) detect bit corruption in flight via a CRC-32 over
//! everything after the header.
//!
//! Wire layout (little-endian), 16 bytes of header:
//!
//! ```text
//! version: u16 | kind: u8 | flags: u8 | round: u64 | crc32(ext || payload): u32 | [ext] | payload
//! ```
//!
//! Byte 3 (written as zero since v1, never previously validated) is now a
//! flags byte. The only assigned bit is [`FLAG_TRACE`]: when set, a
//! 16-byte trace extension ([`TraceContext`]: trace id + parent span id)
//! sits between the header and the payload, and the CRC covers the
//! extension *and* the payload. A frame with no flags set is
//! byte-for-byte identical to a v1 frame, so the certified wire-cost
//! model (DESIGN.md §13) stays honest for untraced traffic. Unknown flag
//! bits are rejected on decode — they are this header's versioning lane.
//!
//! The CRC does not cover the header, so a flipped kind bit decodes
//! cleanly as a neighbouring kind. Three kinds carry no payload —
//! [`PayloadKind::Probe`], [`PayloadKind::ProbeAck`] and
//! [`PayloadKind::Shutdown`] — and the protocol state machines discard
//! any of them that arrives with one as malformed: a flipped kind bit
//! cannot turn a result into a probe ack, an input into a probe, or a
//! transfer chunk into a shutdown.

use crate::crc::crc32;
use crate::error::NetError;

/// Current envelope wire version. Bumped on incompatible layout changes;
/// a receiver rejects any other value with [`NetError::Malformed`].
pub const ENVELOPE_VERSION: u16 = 1;

/// Size of the fixed envelope header in bytes.
pub const ENVELOPE_HEADER_LEN: usize = 16;

/// Offset of the CRC field inside the header (it is the last field).
const CRC_OFFSET: usize = ENVELOPE_HEADER_LEN - 4;

/// Flags-byte bit marking the presence of a [`TraceContext`] extension
/// between the header and the payload.
pub const FLAG_TRACE: u8 = 0x01;

/// All flag bits this node understands; anything else is rejected.
const KNOWN_FLAGS: u8 = FLAG_TRACE;

/// Size of the serialized [`TraceContext`] extension in bytes.
pub const TRACE_EXT_LEN: usize = 16;

/// The causal trace context a frame can carry: which distributed trace
/// the message belongs to and which span on the *sender* caused it.
///
/// Both ids are deterministically derived (see [`derive_trace_id`]) — no
/// wall clock, no unseeded randomness — so two identical seeded runs
/// stamp identical contexts. The receiver uses `parent_span` to parent
/// its own processing span on the sender's, which is how
/// `cargo xtask trace-assemble` stitches per-node traces into one
/// cross-node causal DAG.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceContext {
    /// Distributed trace id (one per inference round or serve request).
    pub trace_id: u64,
    /// Span id, in the sender's tracer, of the span that sent the frame.
    pub parent_span: u64,
}

impl TraceContext {
    /// The 16-byte wire extension: `trace_id: u64 | parent_span: u64`,
    /// little-endian. Envelopes and serve frames carry the same bytes.
    pub fn to_wire(self) -> [u8; TRACE_EXT_LEN] {
        let mut out = [0u8; TRACE_EXT_LEN];
        let (id_half, span_half) = out.split_at_mut(8);
        id_half.copy_from_slice(&self.trace_id.to_le_bytes());
        span_half.copy_from_slice(&self.parent_span.to_le_bytes());
        out
    }

    /// Parses the wire extension written by [`TraceContext::to_wire`].
    pub fn from_wire(bytes: &[u8; TRACE_EXT_LEN]) -> Self {
        let [t0, t1, t2, t3, t4, t5, t6, t7, s0, s1, s2, s3, s4, s5, s6, s7] = *bytes;
        TraceContext {
            trace_id: u64::from_le_bytes([t0, t1, t2, t3, t4, t5, t6, t7]),
            parent_span: u64::from_le_bytes([s0, s1, s2, s3, s4, s5, s6, s7]),
        }
    }
}

/// Reads the trace context off an encoded envelope without a full decode
/// (no CRC pass, no payload copy). `None` when the frame is untraced,
/// truncated, or not an envelope at all — callers wanting validation use
/// [`Envelope::decode`]; this is for IO shells annotating recv events.
pub fn peek_trace(bytes: &[u8]) -> Option<TraceContext> {
    let header = bytes.get(..ENVELOPE_HEADER_LEN)?;
    let version = u16::from_le_bytes(header.get(..2)?.try_into().ok()?);
    if version != ENVELOPE_VERSION || header.get(3)? & FLAG_TRACE == 0 {
        return None;
    }
    let ext = bytes.get(ENVELOPE_HEADER_LEN..)?.first_chunk()?;
    Some(TraceContext::from_wire(ext))
}

/// Reads the round stamp off an encoded envelope without a full decode,
/// for IO shells routing a frame to the wait that owns its round. `None`
/// when the bytes are too short or not this version's envelope.
pub fn peek_round(bytes: &[u8]) -> Option<u64> {
    let [v0, v1, _, _, r0, r1, r2, r3, r4, r5, r6, r7, ..] =
        *bytes.first_chunk::<ENVELOPE_HEADER_LEN>()?;
    (u16::from_le_bytes([v0, v1]) == ENVELOPE_VERSION)
        .then(|| u64::from_le_bytes([r0, r1, r2, r3, r4, r5, r6, r7]))
}

/// Derives a trace id from a session seed and a session-local round
/// index with a SplitMix64 finalizer: deterministic, well-mixed, and
/// collision-free for distinct `(seed, round)` pairs up to mixing.
pub fn derive_trace_id(seed: u64, round: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(round)
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// What an envelope carries. The kind travels on the wire as one byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PayloadKind {
    /// A broadcast input batch (master → worker).
    Input,
    /// A per-row result matrix (worker → master).
    Result,
    /// A liveness probe sent to a quarantined peer (master → worker).
    /// Carries no payload; deliberately tiny so probing stays cheap.
    Probe,
    /// Acknowledgement of a [`PayloadKind::Probe`] (worker → master).
    ProbeAck,
    /// Recovery control message (master → worker): offer to host a
    /// migrated expert (architecture spec + transfer manifest), release a
    /// hosted expert on hand-back, or abort an in-flight transfer.
    LoadExpert,
    /// One chunk of a migrated expert's serialized parameter state
    /// (master → worker), part of a chunked, resumable transfer.
    LoadChunk,
    /// Worker's acknowledgement in the expert-transfer protocol
    /// (worker → master): accept/refuse an offer, per-chunk progress
    /// cursor, completion, or a mid-transfer error.
    LoadAck,
    /// Asks a worker to leave its serve loop once the frames queued ahead
    /// of this one are handled (master → worker). Carries no payload and
    /// is stamped round 0, which no round is ever given.
    Shutdown,
}

impl PayloadKind {
    fn to_wire(self) -> u8 {
        match self {
            PayloadKind::Input => 0,
            PayloadKind::Result => 1,
            PayloadKind::Probe => 2,
            PayloadKind::ProbeAck => 3,
            PayloadKind::LoadExpert => 4,
            PayloadKind::LoadChunk => 5,
            PayloadKind::LoadAck => 6,
            PayloadKind::Shutdown => 7,
        }
    }

    fn from_wire(b: u8) -> Result<Self, NetError> {
        match b {
            0 => Ok(PayloadKind::Input),
            1 => Ok(PayloadKind::Result),
            2 => Ok(PayloadKind::Probe),
            3 => Ok(PayloadKind::ProbeAck),
            4 => Ok(PayloadKind::LoadExpert),
            5 => Ok(PayloadKind::LoadChunk),
            6 => Ok(PayloadKind::LoadAck),
            7 => Ok(PayloadKind::Shutdown),
            other => Err(NetError::Malformed(format!(
                "unknown envelope payload kind {other}"
            ))),
        }
    }
}

/// A decoded protocol message: round stamp, payload kind and the verified
/// payload bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope {
    /// Monotonic inference-round identifier assigned by the master. A
    /// worker echoes the round of the input it is answering.
    pub round: u64,
    /// What the payload is.
    pub kind: PayloadKind,
    /// The application payload (already checksum-verified on decode).
    pub payload: Vec<u8>,
    /// Causal trace context, when the frame carries the [`FLAG_TRACE`]
    /// extension. `None` encodes byte-identically to a v1 frame.
    pub trace: Option<TraceContext>,
}

/// An [`Envelope`] whose payload borrows the received frame: what the
/// protocol handlers parse, so a 200 KB input batch is checksummed in
/// place and handed to the tensor decoder without an intermediate copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EnvelopeRef<'a> {
    /// See [`Envelope::round`].
    pub round: u64,
    /// See [`Envelope::kind`].
    pub kind: PayloadKind,
    /// The checksum-verified payload, borrowed from the frame.
    pub payload: &'a [u8],
    /// See [`Envelope::trace`].
    pub trace: Option<TraceContext>,
}

impl<'a> EnvelopeRef<'a> {
    /// Parses and integrity-checks an envelope without copying its
    /// payload. This is the only envelope parser; [`Envelope::decode`] is
    /// this plus [`EnvelopeRef::to_owned`].
    ///
    /// # Errors
    ///
    /// * [`NetError::Malformed`] for a truncated header, an unknown
    ///   version, an unknown payload kind, an unknown flag bit, or a
    ///   flagged trace extension the frame is too short to carry;
    /// * [`NetError::Corrupt`] when the CRC disagrees with the header (a
    ///   flipped bit anywhere in the extension or payload).
    pub fn decode(bytes: &'a [u8]) -> Result<Self, NetError> {
        let Some((header, body)) = bytes.split_first_chunk::<ENVELOPE_HEADER_LEN>() else {
            return Err(NetError::Malformed(format!(
                "envelope shorter than header: {} bytes",
                bytes.len()
            )));
        };
        let [v0, v1, kind, flags, r0, r1, r2, r3, r4, r5, r6, r7, c0, c1, c2, c3] = *header;
        let version = u16::from_le_bytes([v0, v1]);
        if version != ENVELOPE_VERSION {
            return Err(NetError::Malformed(format!(
                "envelope version {version}, this node speaks {ENVELOPE_VERSION}"
            )));
        }
        let kind = PayloadKind::from_wire(kind)?;
        if flags & !KNOWN_FLAGS != 0 {
            return Err(NetError::Malformed(format!(
                "envelope carries unknown flag bits {:#04x}",
                flags & !KNOWN_FLAGS
            )));
        }
        let round = u64::from_le_bytes([r0, r1, r2, r3, r4, r5, r6, r7]);
        let expected = u32::from_le_bytes([c0, c1, c2, c3]);
        // The CRC covers everything after the header — extension included
        // — so corruption is caught before the extension is interpreted.
        let got = crc32(body);
        if got != expected {
            return Err(NetError::Corrupt { expected, got });
        }
        let (trace, payload) = if flags & FLAG_TRACE != 0 {
            let Some((ext, payload)) = body.split_first_chunk::<TRACE_EXT_LEN>() else {
                return Err(NetError::Malformed(format!(
                    "envelope flags a trace extension but carries {} body bytes",
                    body.len()
                )));
            };
            (Some(TraceContext::from_wire(ext)), payload)
        } else {
            (None, body)
        };
        Ok(EnvelopeRef {
            round,
            kind,
            payload,
            trace,
        })
    }

    /// Serializes the envelope into a fresh buffer (one copy of the
    /// payload).
    pub fn encode(&self) -> Vec<u8> {
        Envelope::encode_with(self.round, self.kind, self.trace, |buf| {
            buf.extend_from_slice(self.payload);
        })
    }

    /// Copies the payload out into an owned [`Envelope`].
    pub fn to_owned(&self) -> Envelope {
        Envelope {
            round: self.round,
            kind: self.kind,
            payload: self.payload.to_vec(),
            trace: self.trace,
        }
    }
}

impl Envelope {
    /// Builds an envelope around `payload` for `round`.
    pub fn new(round: u64, kind: PayloadKind, payload: Vec<u8>) -> Self {
        Envelope {
            round,
            kind,
            payload,
            trace: None,
        }
    }

    /// The borrowed form of this envelope.
    fn view(&self) -> EnvelopeRef<'_> {
        EnvelopeRef {
            round: self.round,
            kind: self.kind,
            payload: &self.payload,
            trace: self.trace,
        }
    }

    /// Serializes the envelope into a fresh buffer.
    pub fn encode(&self) -> Vec<u8> {
        self.view().encode()
    }

    /// Serializes an envelope whose payload is produced in place: `fill`
    /// appends the payload bytes directly behind the header (and trace
    /// extension), then the CRC over what it wrote is patched into the
    /// header. This is how a tensor goes from `f32`s to a sendable frame
    /// in one pass ([`crate::codec::encode_f32s_into`]) instead of being
    /// encoded into a payload buffer and copied into the envelope.
    ///
    /// # Panics
    ///
    /// If `fill` shortens the buffer it is handed: it may only append.
    pub fn encode_with(
        round: u64,
        kind: PayloadKind,
        trace: Option<TraceContext>,
        fill: impl FnOnce(&mut Vec<u8>),
    ) -> Vec<u8> {
        let mut buf = Vec::with_capacity(ENVELOPE_HEADER_LEN + TRACE_EXT_LEN);
        buf.extend_from_slice(&ENVELOPE_VERSION.to_le_bytes());
        buf.push(kind.to_wire());
        buf.push(if trace.is_some() { FLAG_TRACE } else { 0 });
        buf.extend_from_slice(&round.to_le_bytes());
        buf.extend_from_slice(&[0u8; 4]); // CRC slot, patched below
        if let Some(ctx) = trace {
            buf.extend_from_slice(&ctx.to_wire());
        }
        let body_start = buf.len();
        fill(&mut buf);
        assert!(buf.len() >= body_start, "fill may only append");
        let crc = crc32(buf.get(ENVELOPE_HEADER_LEN..).unwrap_or_default());
        if let Some(slot) = buf.get_mut(CRC_OFFSET..ENVELOPE_HEADER_LEN) {
            slot.copy_from_slice(&crc.to_le_bytes());
        }
        buf
    }

    /// Parses and integrity-checks an envelope into an owned value; see
    /// [`EnvelopeRef::decode`] for the error contract.
    ///
    /// # Errors
    ///
    /// As [`EnvelopeRef::decode`].
    pub fn decode(bytes: &[u8]) -> Result<Envelope, NetError> {
        EnvelopeRef::decode(bytes).map(|env| env.to_owned())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn traced(env: Envelope, ctx: TraceContext) -> Envelope {
        Envelope {
            trace: Some(ctx),
            ..env
        }
    }

    #[test]
    fn roundtrip() {
        let env = Envelope::new(42, PayloadKind::Result, vec![1, 2, 3, 255]);
        let decoded = Envelope::decode(&env.encode()).unwrap();
        assert_eq!(decoded, env);
    }

    #[test]
    fn empty_payload_roundtrip() {
        for kind in [PayloadKind::Probe, PayloadKind::Shutdown] {
            let env = Envelope::new(7, kind, Vec::new());
            assert_eq!(Envelope::decode(&env.encode()).unwrap(), env);
        }
        let shutdown = Envelope::new(0, PayloadKind::Shutdown, Vec::new()).encode();
        assert_eq!((shutdown.len(), shutdown[2]), (ENVELOPE_HEADER_LEN, 7));
    }

    #[test]
    fn flipped_bit_is_corrupt() {
        let mut bytes = Envelope::new(3, PayloadKind::Input, vec![0u8; 32]).encode();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x10;
        let res = Envelope::decode(&bytes);
        assert!(matches!(res, Err(NetError::Corrupt { .. })), "{res:?}");
    }

    #[test]
    fn wrong_version_rejected() {
        let mut bytes = Envelope::new(1, PayloadKind::Input, vec![9]).encode();
        bytes[0] = 0xFF;
        assert!(matches!(
            Envelope::decode(&bytes),
            Err(NetError::Malformed(_))
        ));
    }

    #[test]
    fn unknown_kind_rejected() {
        let mut bytes = Envelope::new(1, PayloadKind::Input, Vec::new()).encode();
        bytes[2] = 200;
        assert!(matches!(
            Envelope::decode(&bytes),
            Err(NetError::Malformed(_))
        ));
    }

    #[test]
    fn truncated_header_rejected() {
        let bytes = Envelope::new(1, PayloadKind::Result, vec![5; 8]).encode();
        assert!(matches!(
            Envelope::decode(&bytes[..10]),
            Err(NetError::Malformed(_))
        ));
    }

    #[test]
    fn recovery_kinds_roundtrip() {
        for kind in [
            PayloadKind::LoadExpert,
            PayloadKind::LoadChunk,
            PayloadKind::LoadAck,
        ] {
            let env = Envelope::new(17, kind, vec![0xAB; 5]);
            let back = Envelope::decode(&env.encode()).unwrap();
            assert_eq!(back.kind, kind);
            assert_eq!(back, env);
        }
    }

    #[test]
    fn round_stamp_survives() {
        for round in [0u64, 1, u64::MAX] {
            let env = Envelope::new(round, PayloadKind::ProbeAck, vec![1]);
            assert_eq!(Envelope::decode(&env.encode()).unwrap().round, round);
        }
    }

    #[test]
    fn untraced_encoding_is_byte_identical_to_v1() {
        // The certified wire-cost model (DESIGN.md §13) pins the v1
        // layout; an untraced envelope must not drift from it.
        let env = Envelope::new(42, PayloadKind::Result, vec![1, 2, 3, 255]);
        let bytes = env.encode();
        let mut v1 = Vec::new();
        v1.extend_from_slice(&ENVELOPE_VERSION.to_le_bytes());
        v1.push(1); // Result
        v1.push(0); // no flags
        v1.extend_from_slice(&42u64.to_le_bytes());
        v1.extend_from_slice(&crc32(&[1, 2, 3, 255]).to_le_bytes());
        v1.extend_from_slice(&[1, 2, 3, 255]);
        assert_eq!(bytes, v1);
    }

    #[test]
    fn golden_wire_bytes_are_pinned() {
        // Produced by an independent implementation (zlib's CRC-32 over
        // the documented layout): the checksum routine and the encoder
        // may be rewritten, the bytes on the wire may not move.
        let untraced = Envelope::new(42, PayloadKind::Result, vec![1, 2, 3, 255]);
        assert_eq!(
            untraced.encode(),
            [
                0x01, 0x00, 0x01, 0x00, 0x2A, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x59, 0xD0,
                0x53, 0x9C, 0x01, 0x02, 0x03, 0xFF
            ]
        );
        let ctx = TraceContext {
            trace_id: 0xDEAD_BEEF_CAFE_F00D,
            parent_span: 31,
        };
        assert_eq!(
            traced(Envelope::new(9, PayloadKind::Input, vec![7; 3]), ctx).encode(),
            [
                0x01, 0x00, 0x00, 0x01, 0x09, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x27, 0x32,
                0xD2, 0x20, 0x0D, 0xF0, 0xFE, 0xCA, 0xEF, 0xBE, 0xAD, 0xDE, 0x1F, 0x00, 0x00, 0x00,
                0x00, 0x00, 0x00, 0x00, 0x07, 0x07, 0x07
            ]
        );
    }

    #[test]
    fn every_encoder_produces_the_same_bytes() {
        let ctx = TraceContext {
            trace_id: 77,
            parent_span: 5,
        };
        let env = Envelope::new(11, PayloadKind::Input, (0..=200u8).collect());
        for trace in [None, Some(ctx)] {
            let in_place = Envelope::encode_with(11, PayloadKind::Input, trace, |buf| {
                buf.extend(0..=200u8);
            });
            let whole = Envelope {
                trace,
                ..env.clone()
            };
            assert_eq!(in_place, whole.encode());
        }
    }

    #[test]
    fn borrowing_decode_points_into_the_frame() {
        let bytes = Envelope::new(3, PayloadKind::Input, vec![9; 64]).encode();
        let env = EnvelopeRef::decode(&bytes).unwrap();
        assert!(std::ptr::eq(
            env.payload.as_ptr(),
            bytes[ENVELOPE_HEADER_LEN..].as_ptr()
        ));
        assert_eq!(env.to_owned(), Envelope::decode(&bytes).unwrap());
        assert_eq!(env.encode(), bytes);
    }

    #[test]
    fn traced_roundtrip() {
        let ctx = TraceContext {
            trace_id: 0xDEAD_BEEF_CAFE_F00D,
            parent_span: 31,
        };
        let env = traced(Envelope::new(9, PayloadKind::Input, vec![7; 11]), ctx);
        let bytes = env.encode();
        assert_eq!(bytes.len(), ENVELOPE_HEADER_LEN + TRACE_EXT_LEN + 11);
        let back = Envelope::decode(&bytes).unwrap();
        assert_eq!(back, env);
        assert_eq!(back.trace, Some(ctx));
        assert_eq!(back.payload, vec![7; 11]);
    }

    #[test]
    fn traced_empty_payload_roundtrip() {
        let ctx = TraceContext {
            trace_id: 1,
            parent_span: 0,
        };
        let env = traced(Envelope::new(3, PayloadKind::Probe, Vec::new()), ctx);
        assert_eq!(Envelope::decode(&env.encode()).unwrap(), env);
    }

    #[test]
    fn unknown_flag_bits_rejected() {
        let mut bytes = Envelope::new(1, PayloadKind::Input, vec![9]).encode();
        bytes[3] = 0x80;
        assert!(matches!(
            Envelope::decode(&bytes),
            Err(NetError::Malformed(_))
        ));
    }

    #[test]
    fn corrupt_trace_extension_detected() {
        let ctx = TraceContext {
            trace_id: 55,
            parent_span: 8,
        };
        let mut bytes = traced(Envelope::new(2, PayloadKind::Result, vec![4; 6]), ctx).encode();
        // Flip a bit inside the extension region, not the payload.
        bytes[ENVELOPE_HEADER_LEN + 2] ^= 0x01;
        assert!(matches!(
            Envelope::decode(&bytes),
            Err(NetError::Corrupt { .. })
        ));
    }

    #[test]
    fn flagged_but_truncated_extension_rejected() {
        // A frame whose flags claim a trace extension but whose body is
        // shorter than one. CRC must be made consistent so the length
        // check is what fires.
        let mut buf = Vec::new();
        buf.extend_from_slice(&ENVELOPE_VERSION.to_le_bytes());
        buf.push(0); // Input
        buf.push(FLAG_TRACE);
        buf.extend_from_slice(&5u64.to_le_bytes());
        let body = [0xAAu8; 4];
        buf.extend_from_slice(&crc32(&body).to_le_bytes());
        buf.extend_from_slice(&body);
        assert!(matches!(
            Envelope::decode(&buf),
            Err(NetError::Malformed(_))
        ));
    }

    #[test]
    fn peek_trace_reads_without_full_decode() {
        let ctx = TraceContext {
            trace_id: 12,
            parent_span: 34,
        };
        let traced = traced(Envelope::new(1, PayloadKind::Input, vec![5]), ctx);
        assert_eq!(peek_trace(&traced.encode()), Some(ctx));
        let plain = Envelope::new(1, PayloadKind::Input, vec![5]);
        assert_eq!(peek_trace(&plain.encode()), None);
        assert_eq!(peek_trace(&[1, 2, 3]), None);
        // Truncated right after the header: flagged but no extension.
        assert_eq!(peek_trace(&traced.encode()[..ENVELOPE_HEADER_LEN]), None);
    }

    #[test]
    fn derive_trace_id_is_deterministic_and_mixes() {
        assert_eq!(derive_trace_id(7, 3), derive_trace_id(7, 3));
        assert_ne!(derive_trace_id(7, 3), derive_trace_id(7, 4));
        assert_ne!(derive_trace_id(7, 3), derive_trace_id(8, 3));
        // Zero inputs still yield a non-trivial id.
        assert_ne!(derive_trace_id(0, 0), 0);
    }
}
