//! CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB88320`) — the
//! checksum Ethernet and zlib use, and the one integrity check shared by
//! both framing layers ([`crate::Envelope`] and the serve wire protocol).
//!
//! Table-driven **slicing-by-8**: eight 256-entry tables (8 KiB),
//! evaluated at compile time, let the loop fold eight input bytes per
//! step with eight independent lookups instead of 64 dependent shift/xor
//! rounds. A 200 KB broadcast batch is checksummed on every hop, so this
//! loop sits on the round's critical path: bit-at-a-time it runs at
//! ≈ 200 MB/s and costs a 64-row round ≈ 2 ms; sliced it runs at
//! ≈ 1.5 GB/s. The bitwise form is kept as the test oracle below.

const POLY: u32 = 0xEDB8_8320;

/// Number of bytes folded per step, and of tables.
const SLICES: usize = 8;

/// `TABLES[0]` is the classic byte-at-a-time table; `TABLES[k][b]` is the
/// CRC state after byte `b` followed by `k` zero bytes, which is what lets
/// a whole word be folded in one step.
static TABLES: [[u32; 256]; SLICES] = make_tables();

const fn make_tables() -> [[u32; 256]; SLICES] {
    let mut tables = [[0u32; 256]; SLICES];
    let mut byte = 0usize;
    while byte < 256 {
        // byte < 256 by the loop condition. lint: allow(cast-truncate)
        let mut crc = byte as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        // Const evaluation: an out-of-range index here is a compile
        // error, not a runtime panic. lint: allow(no-index)
        tables[0][byte] = crc;
        byte += 1;
    }
    let mut byte = 0usize;
    while byte < 256 {
        let mut k = 1usize;
        while k < SLICES {
            // Const-evaluated, as above. lint: allow(no-index)
            let prev = tables[k - 1][byte];
            // Const-evaluated, as above. lint: allow(no-index)
            tables[k][byte] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            k += 1;
        }
        byte += 1;
    }
    tables
}

/// Table lookup by byte: a `u8` cannot exceed a 256-entry table, so the
/// bounds check folds away.
#[inline(always)]
fn at(table: &[u32; 256], byte: u8) -> u32 {
    // usize::from(u8) < 256 == table.len(). lint: allow(no-index)
    table[usize::from(byte)]
}

/// Streaming CRC-32 state, for callers hashing non-contiguous regions
/// (`ext ‖ payload`) without concatenating them first:
/// `Crc32::new().update(a).update(b).finish() == crc32(a ‖ b)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

impl Crc32 {
    /// The state before any byte.
    pub const fn new() -> Self {
        Crc32 { state: !0 }
    }

    /// Folds `bytes` into the state; chainable.
    #[must_use]
    pub fn update(self, bytes: &[u8]) -> Self {
        let [t0, t1, t2, t3, t4, t5, t6, t7] = &TABLES;
        let mut crc = self.state;
        let (words, tail) = bytes.as_chunks::<SLICES>();
        for &[b0, b1, b2, b3, b4, b5, b6, b7] in words {
            // Only the first four bytes meet the running state; the other
            // four lookups do not depend on the previous step.
            let [x0, x1, x2, x3] = (crc ^ u32::from_le_bytes([b0, b1, b2, b3])).to_le_bytes();
            crc = at(t7, x0)
                ^ at(t6, x1)
                ^ at(t5, x2)
                ^ at(t4, x3)
                ^ at(t3, b4)
                ^ at(t2, b5)
                ^ at(t1, b6)
                ^ at(t0, b7);
        }
        for &b in tail {
            let [low, ..] = crc.to_le_bytes();
            crc = (crc >> 8) ^ at(t0, low ^ b);
        }
        Crc32 { state: crc }
    }

    /// The checksum of everything folded in so far.
    pub const fn finish(self) -> u32 {
        !self.state
    }
}

/// CRC-32 of one contiguous buffer.
pub fn crc32(bytes: &[u8]) -> u32 {
    Crc32::new().update(bytes).finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The textbook bit-at-a-time routine: the reference the
    /// table-driven form is checked against.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc: u32 = !0;
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (POLY & mask);
            }
        }
        !crc
    }

    /// Deterministic non-repeating filler (period 251 is coprime to the
    /// 8-byte stride, so every lane sees every value).
    fn filler(len: usize, salt: u64) -> Vec<u8> {
        let mut z = salt.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..len)
            .map(|i| {
                z ^= z << 13;
                z ^= z >> 7;
                z ^= z << 17;
                (z as u8).wrapping_add((i % 251) as u8)
            })
            .collect()
    }

    #[test]
    fn known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_bitwise(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(Crc32::new().finish(), 0);
    }

    #[test]
    fn every_short_length_matches_the_bitwise_reference() {
        // 0..=64 covers the empty input, a pure tail, exactly one word,
        // and every tail length after several words.
        for len in 0..=64usize {
            let bytes = filler(len, len as u64);
            assert_eq!(crc32(&bytes), crc32_bitwise(&bytes), "len {len}");
        }
    }

    #[test]
    fn every_split_point_of_the_streaming_form_agrees() {
        let bytes = filler(97, 5);
        let whole = crc32_bitwise(&bytes);
        for cut in 0..=bytes.len() {
            let (a, b) = bytes.split_at(cut);
            assert_eq!(
                Crc32::new().update(a).update(b).finish(),
                whole,
                "cut {cut}"
            );
        }
        // Three-way, with an empty middle: update(&[]) is the identity.
        let (a, b) = bytes.split_at(40);
        assert_eq!(Crc32::new().update(a).update(&[]).update(b).finish(), whole);
    }

    #[test]
    fn one_mebibyte_matches_the_bitwise_reference() {
        let bytes = filler(1 << 20, 77);
        assert_eq!(crc32(&bytes), crc32_bitwise(&bytes));
    }

    proptest! {
        #[test]
        fn random_buffers_match_the_bitwise_reference(
            len in 0usize..(1 << 20) + 1,
            salt in any::<u64>(),
            cut_permille in 0usize..1001,
        ) {
            let bytes = filler(len, salt);
            let want = crc32_bitwise(&bytes);
            prop_assert_eq!(crc32(&bytes), want);
            let (a, b) = bytes.split_at(len * cut_permille / 1000);
            prop_assert_eq!(Crc32::new().update(a).update(b).finish(), want);
        }

        #[test]
        fn arbitrary_short_contents_match(bytes in proptest::collection::vec(any::<u8>(), 0..300)) {
            prop_assert_eq!(crc32(&bytes), crc32_bitwise(&bytes));
        }
    }
}
