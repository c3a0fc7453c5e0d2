//! Wire codecs: length-prefixed frames and raw `f32` payloads.
//!
//! The frame layout is `src: u32 | tag: u32 | len: u32 | payload`, all
//! little-endian. Activations and model weights travel as raw `f32` slices
//! with a dimension header, which is what makes the byte counts in the
//! traffic statistics physically meaningful. Every variable-length payload
//! is read back through [`Reader`].

use crate::error::NetError;
use crate::transport::{NodeId, Tag};
use std::io::{IoSlice, Read, Write};

/// Upper bound on a single frame payload (guards against malformed length
/// headers taking down a node).
pub const MAX_FRAME_LEN: usize = 256 * 1024 * 1024;

/// Size of the fixed frame header in bytes.
pub const FRAME_HEADER_LEN: usize = 12;

/// A decoded frame: `(source node, tag, payload)`.
pub type Frame = (NodeId, Tag, Vec<u8>);

/// Most a frame reader allocates on the strength of a length header
/// alone: a header may *claim* [`MAX_FRAME_LEN`], but beyond this first
/// chunk the buffer only grows as payload actually arrives, so a
/// length-prefix bomb followed by silence or EOF costs 1 MiB, not
/// 256 MiB. Sized so every frame the protocol sends in practice (a
/// 64-row batch is ≈ 200 KB) is still read into one exact allocation.
pub const READ_CHUNK: usize = 1024 * 1024;

/// Writes `head` then `body` as one logical write: a single vectored
/// syscall in the common case (so a header never leaves in its own TCP
/// segment ahead of its payload), looping only on a short write.
///
/// # Errors
///
/// Propagates the writer's error; a writer that accepts zero bytes is
/// [`std::io::ErrorKind::WriteZero`].
pub fn write_all_vectored(
    writer: &mut (impl Write + ?Sized),
    mut head: &[u8],
    mut body: &[u8],
) -> std::io::Result<()> {
    while !head.is_empty() || !body.is_empty() {
        let n = match writer.write_vectored(&[IoSlice::new(head), IoSlice::new(body)]) {
            Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
            Ok(n) => n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        let from_head = n.min(head.len());
        head = head.get(from_head..).unwrap_or_default();
        body = body.get(n - from_head..).unwrap_or_default();
    }
    Ok(())
}

/// Reads exactly `len` bytes, growing the buffer with the bytes received
/// (starting from at most [`READ_CHUNK`]) instead of trusting `len` with
/// an up-front allocation. Also skips the zero-fill `vec![0; len]` pays.
///
/// # Errors
///
/// [`std::io::ErrorKind::UnexpectedEof`] when the stream ends first.
pub fn read_exact_bounded(
    reader: &mut (impl Read + ?Sized),
    len: usize,
) -> std::io::Result<Vec<u8>> {
    let mut buf = Vec::new();
    fill_bounded(reader, len, &mut buf)?;
    Ok(buf)
}

/// [`read_exact_bounded`] into a caller-visible buffer, so the allocation
/// bound can be asserted on the failure path too.
fn fill_bounded(
    reader: &mut (impl Read + ?Sized),
    len: usize,
    buf: &mut Vec<u8>,
) -> std::io::Result<()> {
    buf.reserve_exact(len.min(READ_CHUNK));
    // `read_to_end` on a `Take` reads into spare capacity, grows the
    // buffer only once it is full, and stops at the limit. usize → u64 is
    // widening on every supported target.
    let got = Read::take(&mut *reader, len as u64).read_to_end(buf)?;
    if got < len {
        return Err(std::io::ErrorKind::UnexpectedEof.into());
    }
    Ok(())
}

/// The 12-byte frame header `src | tag | len`.
///
/// # Panics
///
/// Panics if `src` does not fit the `u32` header field or `len` exceeds
/// [`MAX_FRAME_LEN`] — both are sender-side programming errors that would
/// otherwise truncate on the wire and mis-frame every byte that follows.
pub fn frame_header(src: NodeId, tag: Tag, len: usize) -> [u8; FRAME_HEADER_LEN] {
    assert!(
        u32::try_from(src).is_ok(),
        "node id {src} does not fit the u32 frame header"
    );
    assert!(
        len <= MAX_FRAME_LEN,
        "payload of {len} bytes exceeds MAX_FRAME_LEN"
    );
    let mut header = [0u8; FRAME_HEADER_LEN];
    let (src_field, rest) = header.split_at_mut(4);
    let (tag_field, len_field) = rest.split_at_mut(4);
    // In range by the asserts above. lint: allow(cast-truncate)
    src_field.copy_from_slice(&(src as u32).to_le_bytes());
    tag_field.copy_from_slice(&tag.0.to_le_bytes());
    // MAX_FRAME_LEN < u32::MAX, asserted above. lint: allow(cast-truncate)
    len_field.copy_from_slice(&(len as u32).to_le_bytes());
    header
}

/// Writes one frame — header plus the caller's payload, uncopied — as a
/// single vectored write.
///
/// # Errors
///
/// Propagates the writer's error.
///
/// # Panics
///
/// As [`frame_header`].
pub fn write_frame(
    writer: &mut impl Write,
    src: NodeId,
    tag: Tag,
    payload: &[u8],
) -> std::io::Result<()> {
    write_all_vectored(writer, &frame_header(src, tag, payload.len()), payload)
}

/// Reads exactly one frame from a blocking reader.
///
/// # Errors
///
/// * [`NetError::Closed`] on clean EOF at a frame boundary;
/// * [`NetError::Malformed`] for an oversized length header or EOF inside a
///   frame;
/// * [`NetError::Io`] for transport errors.
pub fn read_frame(reader: &mut impl Read) -> Result<Frame, NetError> {
    let mut header = [0u8; FRAME_HEADER_LEN];
    // Distinguish clean EOF (no bytes) from a truncated header.
    let mut filled = 0usize;
    while filled < FRAME_HEADER_LEN {
        // filled < FRAME_HEADER_LEN by the loop condition. lint: allow(no-index)
        let n = reader.read(&mut header[filled..])?;
        if n == 0 {
            return if filled == 0 {
                Err(NetError::Closed)
            } else {
                Err(NetError::Malformed(format!(
                    "eof after {filled} header bytes"
                )))
            };
        }
        filled += n;
    }
    let [s0, s1, s2, s3, t0, t1, t2, t3, l0, l1, l2, l3] = header;
    let src = u32::from_le_bytes([s0, s1, s2, s3]) as NodeId;
    let tag = Tag(u32::from_le_bytes([t0, t1, t2, t3]));
    let len = u32::from_le_bytes([l0, l1, l2, l3]) as usize;
    if len > MAX_FRAME_LEN {
        return Err(NetError::Malformed(format!(
            "frame length {len} exceeds cap {MAX_FRAME_LEN}"
        )));
    }
    let payload = read_exact_bounded(reader, len).map_err(|e| match e.kind() {
        std::io::ErrorKind::UnexpectedEof => {
            NetError::Malformed(format!("eof inside {len}-byte payload"))
        }
        _ => NetError::Io(e),
    })?;
    Ok((src, tag, payload))
}

/// Encodes a shaped `f32` buffer: `rank: u32 | dims: u32×rank | data`.
///
/// # Panics
///
/// Panics if `data` disagrees with the `dims` volume, the rank exceeds
/// the decoder's plausibility cap of 8, or a dimension does not fit the
/// `u32` header field — each would otherwise truncate in the header and
/// decode as a different shape.
pub fn encode_f32s(dims: &[usize], data: &[f32]) -> Vec<u8> {
    let mut buf = Vec::new();
    encode_f32s_into(dims, data, &mut buf);
    buf
}

/// [`encode_f32s`] appending to `buf` — lets a caller lay the tensor down
/// directly behind a header it already wrote
/// ([`crate::Envelope::encode_with`]) instead of encoding into a
/// temporary and copying that.
///
/// # Panics
///
/// As [`encode_f32s`].
pub fn encode_f32s_into(dims: &[usize], data: &[f32], buf: &mut Vec<u8>) {
    let volume: usize = dims.iter().product();
    assert_eq!(volume, data.len(), "data length must match dims volume");
    assert!(dims.len() <= 8, "rank {} exceeds decoder cap 8", dims.len());
    buf.reserve(4 + dims.len() * 4 + data.len() * 4);
    // Rank ≤ 8, asserted above. lint: allow(cast-truncate)
    buf.extend_from_slice(&(dims.len() as u32).to_le_bytes());
    for &d in dims {
        assert!(
            u32::try_from(d).is_ok(),
            "dimension {d} does not fit the u32 header field"
        );
        // In range by the assert above. lint: allow(cast-truncate)
        buf.extend_from_slice(&(d as u32).to_le_bytes());
    }
    for &x in data {
        buf.extend_from_slice(&x.to_le_bytes());
    }
}

/// Decodes a buffer produced by [`encode_f32s`] into `(dims, data)`.
///
/// # Errors
///
/// Returns [`NetError::Malformed`] for truncated or inconsistent buffers.
pub fn decode_f32s(bytes: &[u8]) -> Result<(Vec<usize>, Vec<f32>), NetError> {
    let mut r = Reader::new(bytes);
    let tensor = r.f32s()?;
    r.finish()?;
    Ok(tensor)
}

/// A bounds-checked cursor over a received payload — the one way a
/// variable-length payload is read (DESIGN.md §9.4). Every read is checked
/// against the bytes left and every length is checked arithmetic. A read
/// the bytes cannot back, a tensor header above rank 8 or whose byte
/// volume overflows `usize`, and a [`Reader::finish`] with bytes left over
/// are each [`NetError::Malformed`], never a panic; nothing is allocated
/// beyond the bytes given.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    rest: &'a [u8],
}

impl<'a> Reader<'a> {
    /// A reader positioned at the first of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader { rest: bytes }
    }

    /// The next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], NetError> {
        let Some((head, tail)) = self.rest.split_at_checked(n) else {
            return Err(NetError::Malformed(format!(
                "{n} bytes wanted, {} left",
                self.rest.len()
            )));
        };
        self.rest = tail;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], NetError> {
        let head = self.take(N)?;
        head.try_into()
            .map_err(|_| NetError::Malformed(format!("{N} bytes wanted")))
    }

    /// The next byte.
    pub fn u8(&mut self) -> Result<u8, NetError> {
        self.array().map(|[b]| b)
    }

    /// The next little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, NetError> {
        self.array().map(u32::from_le_bytes)
    }

    /// The next little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, NetError> {
        self.array().map(u64::from_le_bytes)
    }

    /// The next [`encode_f32s`] tensor as `(dims, data)`.
    pub fn f32s(&mut self) -> Result<(Vec<usize>, Vec<f32>), NetError> {
        let rank = self.u32()? as usize;
        if rank > 8 {
            return Err(NetError::Malformed(format!(
                "implausible tensor rank {rank}"
            )));
        }
        let mut dims = Vec::with_capacity(rank);
        let mut len = 4usize;
        for _ in 0..rank {
            let d = self.u32()? as usize;
            len = len.checked_mul(d).ok_or_else(|| {
                NetError::Malformed(format!("tensor dims {dims:?} × {d} overflow"))
            })?;
            dims.push(d);
        }
        let (words, _) = self.take(len)?.as_chunks::<4>();
        Ok((dims, words.iter().map(|&w| f32::from_le_bytes(w)).collect()))
    }

    /// Every byte left; the reader is then empty.
    pub fn rest(&mut self) -> &'a [u8] {
        std::mem::take(&mut self.rest)
    }

    /// Ends the read: an error if any bytes are left over.
    pub fn finish(self) -> Result<(), NetError> {
        match self.rest.len() {
            0 => Ok(()),
            n => Err(NetError::Malformed(format!("{n} trailing bytes"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn frame(src: NodeId, tag: Tag, payload: &[u8]) -> Vec<u8> {
        let mut buf = Vec::new();
        write_frame(&mut buf, src, tag, payload).unwrap();
        buf
    }

    #[test]
    fn frame_roundtrip() {
        let buf = frame(3, Tag(99), b"payload");
        assert_eq!(buf.len(), FRAME_HEADER_LEN + 7);
        let (src, tag, payload) = read_frame(&mut Cursor::new(&buf[..])).unwrap();
        assert_eq!(src, 3);
        assert_eq!(tag, Tag(99));
        assert_eq!(&payload[..], b"payload");
    }

    #[test]
    fn frame_wire_bytes_are_pinned() {
        assert_eq!(
            frame(3, Tag(0x7EA0_0001), b"hi"),
            [3, 0, 0, 0, 0x01, 0x00, 0xA0, 0x7E, 2, 0, 0, 0, b'h', b'i']
        );
    }

    #[test]
    fn consecutive_frames_parse_in_order() {
        let mut buf = frame(0, Tag(1), b"a");
        buf.extend_from_slice(&frame(1, Tag(2), b"bb"));
        let mut cursor = Cursor::new(&buf[..]);
        assert_eq!(read_frame(&mut cursor).unwrap().2, b"a");
        assert_eq!(read_frame(&mut cursor).unwrap().2, b"bb");
        assert!(matches!(read_frame(&mut cursor), Err(NetError::Closed)));
    }

    #[test]
    fn truncated_header_is_malformed() {
        let buf = frame(0, Tag(1), b"abc");
        let res = read_frame(&mut Cursor::new(&buf[..5]));
        assert!(matches!(res, Err(NetError::Malformed(_))), "{res:?}");
    }

    #[test]
    fn truncated_payload_is_malformed() {
        let buf = frame(0, Tag(1), b"abcdef");
        let res = read_frame(&mut Cursor::new(&buf[..buf.len() - 2]));
        assert!(matches!(res, Err(NetError::Malformed(_))), "{res:?}");
    }

    #[test]
    fn oversized_length_rejected() {
        let mut buf = frame(0, Tag(1), b"");
        // Overwrite the length field with a huge value.
        buf[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        let res = read_frame(&mut Cursor::new(&buf[..]));
        assert!(matches!(res, Err(NetError::Malformed(_))), "{res:?}");
    }

    #[test]
    fn length_prefix_bomb_is_a_typed_error_and_allocates_one_chunk() {
        // A header claiming the maximum, then a few bytes, then EOF.
        let mut wire = frame_header(0, Tag(1), MAX_FRAME_LEN).to_vec();
        wire.extend_from_slice(&[0xAB; 100]);
        let res = read_frame(&mut Cursor::new(&wire[..]));
        assert!(matches!(res, Err(NetError::Malformed(_))), "{res:?}");
        // The same read with the buffer visible: what it reserved on the
        // header's word is one chunk, not the 256 MiB claimed.
        let mut buf = Vec::new();
        let err = fill_bounded(
            &mut Cursor::new(&[0xABu8; 100][..]),
            MAX_FRAME_LEN,
            &mut buf,
        )
        .unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
        assert_eq!(buf.len(), 100);
        assert!(buf.capacity() <= READ_CHUNK, "reserved {}", buf.capacity());
    }

    #[test]
    fn frames_larger_than_one_chunk_still_read_whole() {
        let big: Vec<u8> = (0..2 * READ_CHUNK + 17).map(|i| (i % 251) as u8).collect();
        let wire = frame(1, Tag(2), &big);
        let (_, _, payload) = read_frame(&mut Cursor::new(&wire[..])).unwrap();
        assert_eq!(payload, big);
    }

    /// Accepts at most `cap` bytes per call and counts the calls.
    struct Dribble {
        got: Vec<u8>,
        cap: usize,
        calls: usize,
    }

    impl std::io::Write for Dribble {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.calls += 1;
            let n = buf.len().min(self.cap);
            self.got.extend_from_slice(&buf[..n]);
            Ok(n)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn vectored_write_survives_short_writes_at_every_boundary() {
        let head = [1u8, 2, 3, 4, 5];
        let body = [6u8, 7, 8, 9, 10, 11, 12];
        for cap in 1..=13 {
            let mut sink = Dribble {
                got: Vec::new(),
                cap,
                calls: 0,
            };
            write_all_vectored(&mut sink, &head, &body).unwrap();
            assert_eq!(
                sink.got,
                [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12],
                "cap {cap}"
            );
        }
        // A writer that takes nothing is an error, not a spin.
        let mut stuck = Dribble {
            got: Vec::new(),
            cap: 0,
            calls: 0,
        };
        let err = write_all_vectored(&mut stuck, &head, &body).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::WriteZero);
    }

    #[test]
    fn empty_payload_frame() {
        let buf = frame(1, Tag(0), b"");
        let (_, _, payload) = read_frame(&mut Cursor::new(&buf[..])).unwrap();
        assert!(payload.is_empty());
    }

    #[test]
    fn f32_roundtrip() {
        let dims = vec![2, 3];
        let data = vec![1.0f32, -2.5, 0.0, 3.25, f32::MIN_POSITIVE, 1e30];
        let buf = encode_f32s(&dims, &data);
        let (d2, x2) = decode_f32s(&buf).unwrap();
        assert_eq!(d2, dims);
        assert_eq!(x2, data);
    }

    #[test]
    fn f32_scalar_rank0() {
        let buf = encode_f32s(&[], &[7.5]);
        let (dims, data) = decode_f32s(&buf).unwrap();
        assert!(dims.is_empty());
        assert_eq!(data, vec![7.5]);
    }

    #[test]
    fn f32_rejects_truncation_and_excess() {
        let buf = encode_f32s(&[2], &[1.0, 2.0]);
        assert!(matches!(
            decode_f32s(&buf[..buf.len() - 1]),
            Err(NetError::Malformed(_))
        ));
        let mut extended = buf.clone();
        extended.push(0);
        assert!(matches!(
            decode_f32s(&extended),
            Err(NetError::Malformed(_))
        ));
        assert!(matches!(decode_f32s(&[]), Err(NetError::Malformed(_))));
    }

    #[test]
    fn f32_rejects_implausible_rank() {
        let mut buf = vec![];
        buf.extend_from_slice(&100u32.to_le_bytes());
        assert!(matches!(decode_f32s(&buf), Err(NetError::Malformed(_))));
    }

    #[test]
    fn f32_rejects_a_header_whose_volume_overflows() {
        // 20-byte headers with no data behind them: rank 4 with every dim
        // 2^16 overflows the element count, rank 2 with dims 2^31 the
        // byte count.
        for dims in [[1u32 << 16; 4].as_slice(), &[1 << 31; 2]] {
            let mut buf = (dims.len() as u32).to_le_bytes().to_vec();
            for d in dims {
                buf.extend_from_slice(&d.to_le_bytes());
            }
            let res = decode_f32s(&buf);
            assert!(
                matches!(res, Err(NetError::Malformed(_))),
                "{dims:?}: {res:?}"
            );
        }
    }

    #[test]
    fn reader_reads_fields_in_order_and_checks_every_length() {
        let mut bytes = vec![7u8];
        bytes.extend_from_slice(&0xDEAD_BEEFu32.to_le_bytes());
        bytes.extend_from_slice(&u64::MAX.to_le_bytes());
        bytes.extend_from_slice(&encode_f32s(&[2], &[1.5, -2.0]));
        bytes.extend_from_slice(b"tail");
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert_eq!(r.f32s().unwrap(), (vec![2], vec![1.5, -2.0]));
        assert!(r.clone().finish().is_err(), "four bytes are left");
        assert!(r.clone().take(5).is_err());
        assert!(r.clone().take(usize::MAX).is_err());
        assert_eq!(r.take(2).unwrap(), b"ta");
        assert_eq!(r.rest(), b"il");
        assert!(r.u8().is_err());
        assert!(r.finish().is_ok());
    }

    #[test]
    #[should_panic(expected = "must match dims volume")]
    fn encode_validates_volume() {
        encode_f32s(&[3], &[1.0]);
    }

    #[test]
    #[should_panic(expected = "exceeds decoder cap")]
    fn encode_rejects_implausible_rank() {
        encode_f32s(&[1; 9], &[1.0]);
    }

    #[test]
    fn framed_tensor_size_matches_the_static_wire_model() {
        // The static cost model (`teamnet_nn::cost::WireModel`) prices a
        // framed, enveloped tensor as
        //     12 (frame) + 16 (envelope) + 4 (rank) + 4·rank + 4·volume.
        // Assert that arithmetic against the real encoders so the two can
        // never drift apart silently; `tests/cost_honesty.rs` closes the
        // loop from the nn side.
        for dims in [vec![1usize, 784], vec![1, 3, 32, 32], vec![7, 2]] {
            let volume: usize = dims.iter().product();
            let payload = encode_f32s(&dims, &vec![0.0; volume]);
            let enveloped =
                crate::envelope::Envelope::new(3, crate::envelope::PayloadKind::Input, payload)
                    .encode();
            let framed = frame(1, Tag(4), &enveloped);
            assert_eq!(
                framed.len(),
                12 + 16 + 4 + 4 * dims.len() + 4 * volume,
                "dims {dims:?}"
            );
        }
    }
}
