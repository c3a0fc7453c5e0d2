//! CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB88320`) — the
//! checksum Ethernet and zlib use, and the one integrity check shared by
//! both framing layers ([`crate::Envelope`] and the serve wire protocol).
//!
//! Three levels of blocking, one routine:
//!
//! - **bytes**: the tail under 16 bytes goes a byte at a time through
//!   the classic 256-entry table;
//! - **16-byte words**: *slicing-by-16*, sixteen tables (16 KiB) evaluated
//!   at compile time, folds a word per `fold_word` with sixteen lookups
//!   instead of 128 dependent shift/xor rounds;
//! - **superblocks** of `LANES` × `LANE` bytes: one loop steps three
//!   independent chains, one per lane. A lone chain is latency-bound —
//!   each step waits on the last — so three chains keep the load ports
//!   busy. The first lane continues the running state and the other two
//!   start from 0; after the superblock they fold back as
//!   `K·(K·s₀ ⊕ s₁) ⊕ s₂ mod P`, with `K = x^(8·LANE) mod P` (`SHIFT_K`)
//!   — the algebra of zlib's `crc32_combine`.
//!
//! Whatever follows the last whole superblock goes through the same
//! `fold_word` on one chain, so a short input simply has no superblock: there
//! is no length threshold and no second routine. A 200 KB broadcast batch
//! is checksummed on every hop, so this loop sits on the round's critical
//! path: bit-at-a-time it runs at ≈ 200 MB/s, slicing by 16 on one chain
//! at ≈ 1.9 GB/s, with three lanes at ≈ 4.2 GB/s on a 3 KB row and
//! ≈ 4.5 GB/s on 100 KB (one core of a 2-core x86-64 host; four lanes or
//! 4 KiB lanes read no faster, and 4 KiB lanes leave a one-row frame on
//! one chain). The bitwise form is kept as the test oracle below.

const POLY: u32 = 0xEDB8_8320;

/// Number of bytes folded per step, and of tables.
const SLICES: usize = 16;

/// Bytes per lane of a superblock; a multiple of `SLICES`.
const LANE: usize = 1024;
const _: () = assert!(LANE.is_multiple_of(SLICES), "a lane is whole words");

/// Lanes per superblock.
const LANES: usize = 3;

/// `TABLES[0]` is the classic byte-at-a-time table; `TABLES[k][b]` is the
/// CRC state after byte `b` followed by `k` zero bytes, which is what lets
/// a whole word be folded in one step.
static TABLES: [[u32; 256]; SLICES] = make_tables();

/// `p·x mod P` in the reflected form (bit 31 holds `x⁰`): one bit of the
/// shift register.
const fn times_x(p: u32) -> u32 {
    if p & 1 != 0 {
        (p >> 1) ^ POLY
    } else {
        p >> 1
    }
}

/// `a·b mod P`, both reflected: zlib's `multmodp`.
const fn mul_mod_p(a: u32, mut b: u32) -> u32 {
    let mut product = 0;
    let mut m = 1u32 << 31;
    while m != 0 {
        if a & m != 0 {
            product ^= b;
        }
        b = times_x(b);
        m >>= 1;
    }
    product
}

/// `x^(8·LANE) mod P`: what running a state through `LANE` zero bytes
/// multiplies it by, so `K·s₀ ⊕ s₁` is the state after lane 0 and then
/// lane 1 when lane 1's chain started from 0.
const SHIFT_K: u32 = {
    let mut k = 1u32 << 31;
    let mut bit = 0;
    while bit < 8 * LANE {
        k = times_x(k);
        bit += 1;
    }
    k
};

/// `SHIFT[j][b] = K·(b << 8j) mod P`: multiplying by `K` is linear, so a
/// state is shifted past a lane with one lookup per byte (`shift_lane`).
static SHIFT: [[u32; 256]; 4] = {
    let mut tables = [[0u32; 256]; 4];
    let mut j = 0;
    while j < 4 {
        let mut byte = 0;
        while byte < 256 {
            // Const evaluation: an out-of-range index here is a compile
            // error, not a runtime panic; byte < 256. lint: allow(no-index, cast-truncate)
            tables[j][byte] = mul_mod_p(SHIFT_K, (byte as u32) << (8 * j));
            byte += 1;
        }
        j += 1;
    }
    tables
};

const fn make_tables() -> [[u32; 256]; SLICES] {
    let mut tables = [[0u32; 256]; SLICES];
    let mut byte = 0usize;
    while byte < 256 {
        // byte < 256 by the loop condition. lint: allow(cast-truncate)
        let mut crc = byte as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = times_x(crc);
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

/// Folds one 16-byte word into `crc`.
#[inline(always)]
fn fold_word(crc: u32, word: &[u8; SLICES]) -> u32 {
    let [t0, t1, t2, t3, t4, t5, t6, t7, t8, t9, t10, t11, t12, t13, t14, t15] = &TABLES;
    let &[b0, b1, b2, b3, b4, b5, b6, b7, b8, b9, b10, b11, b12, b13, b14, b15] = word;
    // Only the first four bytes meet the running state; the other twelve
    // lookups do not depend on the previous step.
    let [x0, x1, x2, x3] = (crc ^ u32::from_le_bytes([b0, b1, b2, b3])).to_le_bytes();
    let lo = at(t15, x0) ^ at(t14, x1) ^ at(t13, x2) ^ at(t12, x3) ^ at(t11, b4);
    let mid = at(t10, b5) ^ at(t9, b6) ^ at(t8, b7) ^ at(t7, b8) ^ at(t6, b9);
    let hi = at(t5, b10) ^ at(t4, b11) ^ at(t3, b12) ^ at(t2, b13) ^ at(t1, b14);
    lo ^ mid ^ hi ^ at(t0, b15)
}

/// `K·state mod P`: the state after `LANE` zero bytes.
#[inline(always)]
fn shift_lane(state: u32) -> u32 {
    let [s0, s1, s2, s3] = &SHIFT;
    let [b0, b1, b2, b3] = state.to_le_bytes();
    at(s0, b0) ^ at(s1, b1) ^ at(s2, b2) ^ at(s3, b3)
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
        let (lanes, _) = bytes.as_chunks::<LANE>();
        let (superblocks, _) = lanes.as_chunks::<LANES>();
        let (_, rest) = bytes.split_at(superblocks.len() * LANES * LANE);
        let mut crc = self.state;
        for [a, b, c] in superblocks {
            let (a, _) = a.as_chunks::<SLICES>();
            let (b, _) = b.as_chunks::<SLICES>();
            let (c, _) = c.as_chunks::<SLICES>();
            let (mut s0, mut s1, mut s2) = (crc, 0, 0);
            for ((wa, wb), wc) in a.iter().zip(b).zip(c) {
                s0 = fold_word(s0, wa);
                s1 = fold_word(s1, wb);
                s2 = fold_word(s2, wc);
            }
            crc = shift_lane(shift_lane(s0) ^ s1) ^ s2;
        }
        let (words, tail) = rest.as_chunks::<SLICES>();
        for word in words {
            crc = fold_word(crc, word);
        }
        let [t0, ..] = &TABLES;
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
    /// 16-byte stride, so every lane sees every value).
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

    /// Every prefix's bitwise CRC of `bytes`, in one pass:
    /// `out[n] == crc32_bitwise(&bytes[..n])`.
    fn bitwise_prefixes(bytes: &[u8]) -> Vec<u32> {
        let mut crc: u32 = !0;
        let mut out = vec![!crc];
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (POLY & mask);
            }
            out.push(!crc);
        }
        out
    }

    const SUPERBLOCK: usize = LANES * LANE;

    #[test]
    fn every_length_through_two_superblocks_matches_the_bitwise_reference() {
        // Zero, one and two superblocks, each followed by every word and
        // tail remainder, and 64 bytes past the second.
        let bytes = filler(2 * SUPERBLOCK + 64, 31);
        let want = bitwise_prefixes(&bytes);
        for (len, want) in want.iter().enumerate() {
            assert_eq!(crc32(&bytes[..len]), *want, "len {len}");
        }
    }

    #[test]
    fn streaming_splits_across_a_superblock_boundary_agree() {
        // The second update starts at every offset of the first
        // superblock and a word past it, so each superblock of either
        // half is misaligned with the whole's.
        let bytes = filler(2 * SUPERBLOCK + 35, 9);
        let whole = crc32_bitwise(&bytes);
        for cut in 0..=SUPERBLOCK + SLICES {
            let (a, b) = bytes.split_at(cut);
            assert_eq!(
                Crc32::new().update(a).update(b).finish(),
                whole,
                "cut {cut}"
            );
        }
    }

    #[test]
    fn the_lane_shift_equals_folding_a_lane_of_zero_bytes() {
        let zeros = [0u8; LANE];
        let mut z = 0x2545_F491_4F6C_DD1Du64;
        for _ in 0..256 {
            z ^= z << 13;
            z ^= z >> 7;
            z ^= z << 17;
            let state = (z >> 16) as u32;
            let folded = Crc32 { state }.update(&zeros).state;
            assert_eq!(mul_mod_p(SHIFT_K, state), folded, "state {state:#010x}");
            assert_eq!(shift_lane(state), folded, "state {state:#010x}");
        }
        // x⁰ times K is K.
        assert_eq!(shift_lane(1 << 31), SHIFT_K);
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
