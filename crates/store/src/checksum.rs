//! CRC-64 (ECMA-182 polynomial, reflected) — the per-block and whole-file
//! integrity check of the snapshot format.
//!
//! Two kernels compute the same function. On x86-64 hosts with
//! PCLMULQDQ, a carry-less-multiply **folding** kernel keeps four 128-bit
//! lanes over each 64-byte stride, folds them forward 512 bits per step
//! and into one lane at the end, then finishes the last 16 bytes and any
//! tail with the table; it runs several times faster than the table and
//! well past memory bandwidth, so a checksum costs about one read of its
//! input. Everywhere else (and for inputs under 64 bytes) a table-driven
//! **slice-by-16** loop folds 16 bytes per iteration. [`Crc64`] is a
//! streaming register over whichever kernel the host supports, so the
//! writer can checksum a block chunk by chunk as it streams it to disk.
//! CRC-64 rather than a 32-bit CRC because snapshots reach hundreds of
//! megabytes: at that size a 32-bit check's birthday bound starts to
//! matter for fleets of cubes shipped between machines.

use std::sync::OnceLock;

/// Reflected ECMA-182 polynomial.
const POLY: u64 = 0xC96C_5795_D787_0F42;

/// `x^n mod P` in the reflected representation, where bit `i` is the
/// coefficient of `x^(63 − i)`: start from `x^0` (bit 63) and multiply by
/// `x` `n` times — one shift, plus a reduction when `x^63` overflows. The
/// folding kernel's constants are values of this function.
const fn xpow_mod(n: u32) -> u64 {
    let mut r = 1u64 << 63;
    let mut i = 0;
    while i < n {
        r = if r & 1 != 0 { (r >> 1) ^ POLY } else { r >> 1 };
        i += 1;
    }
    r
}

/// Slice-by-16 lookup tables: `t[0]` is the classic byte-at-a-time table;
/// `t[k][b]` advances the contribution of a byte that sits `k` positions
/// deeper in the 16-byte window.
fn tables() -> &'static [[u64; 256]; 16] {
    static TABLES: OnceLock<Box<[[u64; 256]; 16]>> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut t = Box::new([[0u64; 256]; 16]);
        for i in 0..256usize {
            let mut crc = i as u64;
            for _ in 0..8 {
                crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
            }
            t[0][i] = crc;
        }
        for k in 1..16 {
            for i in 0..256usize {
                let prev = t[k - 1][i];
                t[k][i] = t[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            }
        }
        t
    })
}

/// Advance the raw (un-inverted) CRC register `crc` over `bytes` with the
/// slice-by-16 tables: the portable kernel, and the reference the folding
/// kernel is tested against.
fn update_sliced(mut crc: u64, bytes: &[u8]) -> u64 {
    let t = tables();
    let mut chunks = bytes.chunks_exact(16);
    for c in &mut chunks {
        let lo = u64::from_le_bytes(c[0..8].try_into().unwrap()) ^ crc;
        let hi = u64::from_le_bytes(c[8..16].try_into().unwrap());
        crc = t[15][(lo & 0xFF) as usize]
            ^ t[14][((lo >> 8) & 0xFF) as usize]
            ^ t[13][((lo >> 16) & 0xFF) as usize]
            ^ t[12][((lo >> 24) & 0xFF) as usize]
            ^ t[11][((lo >> 32) & 0xFF) as usize]
            ^ t[10][((lo >> 40) & 0xFF) as usize]
            ^ t[9][((lo >> 48) & 0xFF) as usize]
            ^ t[8][(lo >> 56) as usize]
            ^ t[7][(hi & 0xFF) as usize]
            ^ t[6][((hi >> 8) & 0xFF) as usize]
            ^ t[5][((hi >> 16) & 0xFF) as usize]
            ^ t[4][((hi >> 24) & 0xFF) as usize]
            ^ t[3][((hi >> 32) & 0xFF) as usize]
            ^ t[2][((hi >> 40) & 0xFF) as usize]
            ^ t[1][((hi >> 48) & 0xFF) as usize]
            ^ t[0][(hi >> 56) as usize];
    }
    for &b in chunks.remainder() {
        crc = t[0][((crc ^ b as u64) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc
}

/// The carry-less-multiply folding kernel.
///
/// A 128-bit lane loaded little-endian holds 16 message bytes with its low
/// qword `H` (the first 8 bytes) as the high-degree half:
/// `X = H·x^64 + L`. Moving `X` forward by `D` bits multiplies it by
/// `x^D`, and `X·x^D ≡ H·(x^(D+64) mod P) + L·(x^D mod P)` — two 64×64
/// carry-less products whose sum is a 128-bit value aligned with the lane
/// `D` bits on, where it is XORed in. In the reflected domain the product
/// of two 64-bit values comes out shifted by one, so the constants are
/// `x^(D+63)` and `x^(D−1)`: `x^575, x^511` for the 512-bit stride of four
/// lanes, `x^191, x^127` to fold one lane into the next. The register is
/// XORed into the first 8 bytes up front (a reflected CRC's initial value
/// is exactly that), and the one lane left at the end is 16 message bytes
/// whose CRC from a zero register is the answer so far — the table
/// finishes them and the tail, so no Barrett constants are needed.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::{
        __m128i, _mm_clmulepi64_si128, _mm_loadu_si128, _mm_set_epi64x, _mm_storeu_si128,
        _mm_xor_si128,
    };

    use super::{update_sliced, xpow_mod};

    /// Bytes per stride of the fold loop: four 16-byte lanes.
    pub(super) const STRIDE: usize = 64;

    /// Fold constants as `(low qword, high qword)`: the low multiplies a
    /// lane's first 8 bytes, the high its last 8.
    const FOLD_STRIDE: (u64, u64) = (xpow_mod(575), xpow_mod(511));
    const FOLD_LANE: (u64, u64) = (xpow_mod(191), xpow_mod(127));

    #[target_feature(enable = "pclmulqdq")]
    fn constants((lo, hi): (u64, u64)) -> __m128i {
        _mm_set_epi64x(hi as i64, lo as i64)
    }

    /// `x` moved forward by the distance `k` encodes.
    #[target_feature(enable = "pclmulqdq")]
    fn fold(x: __m128i, k: __m128i) -> __m128i {
        _mm_xor_si128(_mm_clmulepi64_si128::<0x00>(x, k), _mm_clmulepi64_si128::<0x11>(x, k))
    }

    /// Lane `i` of a 64-byte stride.
    #[target_feature(enable = "pclmulqdq")]
    fn lane(stride: &[u8], i: usize) -> __m128i {
        let bytes = &stride[16 * i..16 * (i + 1)];
        // SAFETY: `bytes` is 16 readable bytes (the slice above is bounds
        // checked) and the load is the unaligned one.
        unsafe { _mm_loadu_si128(bytes.as_ptr().cast::<__m128i>()) }
    }

    /// Advance the raw register `crc` over `bytes` (at least one stride).
    #[target_feature(enable = "pclmulqdq")]
    pub(super) fn update(crc: u64, bytes: &[u8]) -> u64 {
        let mut strides = bytes.chunks_exact(STRIDE);
        let first = strides.next().expect("the caller passes at least one stride");
        let mut x = [lane(first, 0), lane(first, 1), lane(first, 2), lane(first, 3)];
        x[0] = _mm_xor_si128(x[0], _mm_set_epi64x(0, crc as i64));
        let k = constants(FOLD_STRIDE);
        for stride in &mut strides {
            for (i, xi) in x.iter_mut().enumerate() {
                *xi = _mm_xor_si128(fold(*xi, k), lane(stride, i));
            }
        }
        let k = constants(FOLD_LANE);
        let acc = x[1..].iter().fold(x[0], |acc, &xi| _mm_xor_si128(fold(acc, k), xi));
        let mut last = [0u8; 16];
        // SAFETY: `last` is 16 writable bytes and the store is the
        // unaligned one.
        unsafe { _mm_storeu_si128(last.as_mut_ptr().cast::<__m128i>(), acc) };
        update_sliced(update_sliced(0, &last), strides.remainder())
    }
}

/// Advance the raw CRC register over `bytes` with the fastest kernel the
/// host runs.
fn update(crc: u64, bytes: &[u8]) -> u64 {
    #[cfg(target_arch = "x86_64")]
    if bytes.len() >= clmul::STRIDE && std::arch::is_x86_feature_detected!("pclmulqdq") {
        // SAFETY: the CPU was just seen to support `pclmulqdq`, the one
        // feature the kernel is compiled for.
        return unsafe { clmul::update(crc, bytes) };
    }
    update_sliced(crc, bytes)
}

/// A streaming CRC-64/XZ register: [`Crc64::update`] over any split of
/// the input, then [`Crc64::finish`], equals [`crc64`] of the whole.
#[derive(Debug, Clone, Copy)]
pub struct Crc64 {
    raw: u64,
}

impl Crc64 {
    /// An empty register (the all-ones initial value).
    pub fn new() -> Self {
        Crc64 { raw: u64::MAX }
    }

    /// Absorb the next `bytes` of the input.
    pub fn update(&mut self, bytes: &[u8]) {
        self.raw = update(self.raw, bytes);
    }

    /// Absorb a segment of `len` bytes whose CRC-64 is `crc`, without
    /// reading it.
    pub fn append(&mut self, crc: u64, len: u64) {
        self.raw = !crc64_combine(self.finish(), crc, len);
    }

    /// The CRC-64 of everything absorbed so far.
    pub fn finish(&self) -> u64 {
        !self.raw
    }
}

impl Default for Crc64 {
    fn default() -> Self {
        Self::new()
    }
}

/// CRC-64 of `bytes` (init and final XOR are all-ones, matching the
/// common `CRC-64/XZ` parameterization).
pub fn crc64(bytes: &[u8]) -> u64 {
    let mut crc = Crc64::new();
    crc.update(bytes);
    crc.finish()
}

/// `a · b mod P` for reflected polynomials, by Horner's rule over `b`'s
/// coefficients from `x^63` (bit 0) down to `x^0` (bit 63).
const fn mul_mod(a: u64, b: u64) -> u64 {
    let mut acc = 0u64;
    let mut i = 0;
    while i < 64 {
        acc = if acc & 1 != 0 { (acc >> 1) ^ POLY } else { acc >> 1 };
        if (b >> i) & 1 != 0 {
            acc ^= a;
        }
        i += 1;
    }
    acc
}

/// `SHIFTS[k] = x^(8·2^k) mod P`: the operator that advances a register
/// through `2^k` zero bytes, for every bit of a 64-bit length.
const SHIFTS: [u64; 64] = {
    let mut t = [0u64; 64];
    t[0] = xpow_mod(8);
    let mut k = 1;
    while k < 64 {
        t[k] = mul_mod(t[k - 1], t[k - 1]);
        k += 1;
    }
    t
};

/// Advance a finalized CRC-64 through `len_bytes` zero bytes. The
/// zero-advance operator is multiplication by `x^(8·len) mod P`, so it
/// costs one product per set bit of the length. Building block of
/// [`crc64_combine`].
pub fn crc64_shift(crc: u64, len_bytes: u64) -> u64 {
    (0..64).filter(|k| (len_bytes >> k) & 1 != 0).fold(crc, |crc, k| mul_mod(crc, SHIFTS[k]))
}

/// CRC-64 of a concatenation from the CRCs of its halves:
/// `crc64(a ⧺ b) == crc64_combine(crc64(a), crc64(b), b.len())`.
///
/// With the CRC-64/XZ init/xorout convention the affine terms cancel and
/// the combination is exactly `shift(crc_a, |b|) ^ crc_b`. This lets the
/// reader *derive* the expected whole-file checksum from the per-segment
/// checksums it has already verified (header, block payloads, padding,
/// manifest) instead of re-reading every byte a second time, and the
/// writer fold each block's checksum into its running file checksum — the
/// whole-file check keeps its full detection power at O(log n) cost.
pub fn crc64_combine(crc_a: u64, crc_b: u64, len_b: u64) -> u64 {
    crc64_shift(crc_a, len_b) ^ crc_b
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The trusted-by-inspection reference both kernels must match.
    fn crc64_bytewise(bytes: &[u8]) -> u64 {
        let t = &tables()[0];
        let mut crc = u64::MAX;
        for &b in bytes {
            crc = t[((crc ^ b as u64) & 0xFF) as usize] ^ (crc >> 8);
        }
        !crc
    }

    /// The slice-by-16 kernel alone, whatever the host supports.
    fn crc64_sliced(bytes: &[u8]) -> u64 {
        !update_sliced(u64::MAX, bytes)
    }

    /// Non-trivial content: a multiplicative hash of the index.
    fn data(len: usize) -> Vec<u8> {
        (0..len as u32).map(|i| (i.wrapping_mul(2654435761) >> 13) as u8).collect()
    }

    #[test]
    fn known_vector() {
        // CRC-64/XZ("123456789") is a published check value.
        assert_eq!(crc64(b"123456789"), 0x995D_C9BB_DF19_39FA);
        assert_eq!(crc64_sliced(b"123456789"), 0x995D_C9BB_DF19_39FA);
        // Past one stride the folding kernel runs, where the host has it.
        let long = b"123456789".repeat(100);
        assert_eq!(crc64(&long), crc64_bytewise(&long));
        assert_eq!(crc64_sliced(&long), crc64_bytewise(&long));
    }

    #[test]
    fn kernels_match_bytewise_at_every_offset_and_length() {
        // Every start offset within a 16-byte window, every length from
        // empty through several strides of the fold loop, the lengths
        // around a page, and a long input with a ragged tail.
        let lens = (0..=300).chain([4095, 4096, 4097, (1 << 20) + 13]);
        let data = data((1 << 20) + 13 + 16);
        for len in lens {
            for off in 0..16 {
                let bytes = &data[off..off + len];
                let want = crc64_bytewise(bytes);
                assert_eq!(crc64(bytes), want, "dispatching kernel, offset {off}, length {len}");
                assert_eq!(crc64_sliced(bytes), want, "slice-by-16, offset {off}, length {len}");
            }
        }
    }

    #[test]
    fn streaming_over_random_splits_equals_one_shot() {
        let data = data(20_000);
        let whole = crc64(&data);
        let mut seed = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..200 {
            let mut crc = Crc64::new();
            let mut rest = &data[..];
            while !rest.is_empty() {
                // xorshift64: pieces from empty to a few strides long.
                seed ^= seed << 13;
                seed ^= seed >> 7;
                seed ^= seed << 17;
                let (piece, tail) = rest.split_at((seed % 300) as usize % (rest.len() + 1));
                crc.update(piece);
                rest = tail;
            }
            assert_eq!(crc.finish(), whole);
        }
        assert_eq!(Crc64::new().finish(), crc64(b""));
    }

    #[test]
    fn detects_single_bit_flips() {
        let mut data = vec![0xABu8; 1024];
        let clean = crc64(&data);
        for pos in [0usize, 1, 511, 1023] {
            for bit in 0..8 {
                data[pos] ^= 1 << bit;
                assert_ne!(crc64(&data), clean, "flip at byte {pos} bit {bit} undetected");
                data[pos] ^= 1 << bit;
            }
        }
        assert_eq!(crc64(&data), clean);
    }

    #[test]
    fn empty_and_incremental_are_stable() {
        assert_eq!(crc64(b""), 0);
        assert_eq!(crc64(b"tabula"), crc64(b"tabula"));
        assert_ne!(crc64(b"tabula"), crc64(b"tabulb"));
    }

    #[test]
    fn combine_matches_direct_concatenation() {
        let data: Vec<u8> =
            (0..4096u32).map(|i| (i.wrapping_mul(0x9E37_79B9) >> 11) as u8).collect();
        // Split points exercising empty halves, sub-chunk and multi-chunk
        // lengths on both sides.
        for split in [0usize, 1, 7, 8, 15, 16, 17, 100, 1024, 4095, 4096] {
            let (a, b) = data.split_at(split);
            assert_eq!(
                crc64_combine(crc64(a), crc64(b), b.len() as u64),
                crc64(&data),
                "combine failed at split {split}"
            );
        }
        // Three-way: combine is associative with running lengths.
        let (a, rest) = data.split_at(33);
        let (b, c) = rest.split_at(2000);
        let ab = crc64_combine(crc64(a), crc64(b), b.len() as u64);
        assert_eq!(crc64_combine(ab, crc64(c), c.len() as u64), crc64(&data));
        // A second half long enough to set high bits of the length.
        let long = data.repeat(300);
        let (a, b) = long.split_at(4097);
        assert_eq!(crc64_combine(crc64(a), crc64(b), b.len() as u64), crc64(&long));
    }

    #[test]
    fn shift_zero_len_is_identity() {
        for crc in [0u64, 1, u64::MAX, 0xDEAD_BEEF_CAFE_F00D] {
            assert_eq!(crc64_shift(crc, 0), crc);
        }
    }
}
