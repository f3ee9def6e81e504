//! The data plane's byte-walking hot loops: folding record bytes into
//! the [`StreamingChecksum`], comparing a decoded 4 KiB page payload
//! against its expected image, and finding which bytes of a page differ
//! from its base-epoch copy.
//!
//! **The fold is not dispatched.** The FNV-style fold is a strict
//! sequential dependency chain
//! (`state = (state ^ (word ^ (word >> 32))) * prime`; the premix does not
//! read the state), so no vector width can shorten it and the digest is
//! part of the wire format. [`fold_words`] is a plain inlinable function
//! folding eight bytes per multiply; what makes it cheaper is running it
//! *beside* an independent chain (see [`PageDataWriter::push_group`]), not
//! a wider register.
//!
//! **The compares are.** [`WideOps`] selects a `bytes_equal` and a
//! `diff_bitmap` once at first use: [`Sse2Ops`] (x86-64 with SSE2, 16
//! bytes per vector op) or the portable [`WideWordOps`] (`u128` compare
//! strides; `u64` SWAR for the bitmap). [`ScalarOps`] is the byte-serial
//! reference the proptests below compare against.
//!
//! [`StreamingChecksum`]: crate::wire::StreamingChecksum
//! [`PageDataWriter::push_group`]: crate::wire::PageDataWriter::push_group

use std::sync::OnceLock;

const FNV64_PRIME: u64 = 0x0000_0100_0000_01b3;

/// One step of the record-checksum chain.
///
/// A multiply by an odd constant carries only upward, so without the
/// premix a word's bit 63 would reach no other state bit and two top-bit
/// flips in one frame would cancel. Folding the high half onto the low
/// half first sends every input bit through the carry chain.
#[inline]
pub(crate) fn fold64(state: u64, word: u64) -> u64 {
    (state ^ (word ^ (word >> 32))).wrapping_mul(FNV64_PRIME)
}

/// Folds the longest multiple-of-8 prefix of `bytes` into `state` as
/// little-endian `u64` words. Returns the new state and the number of
/// bytes consumed (`bytes.len() - bytes.len() % 8`).
#[inline]
pub fn fold_words(state: u64, bytes: &[u8]) -> (u64, usize) {
    let consumed = bytes.len() - bytes.len() % 8;
    let state = bytes[..consumed]
        .chunks_exact(8)
        .fold(state, |state, word| {
            fold64(
                state,
                u64::from_le_bytes(word.try_into().expect("8-byte chunk")),
            )
        });
    (state, consumed)
}

/// The dispatched page compares, with a scalar reference fallback.
///
/// Implementations must be pure: same inputs, same outputs, on every host.
pub trait WideOps: Send + Sync {
    /// `true` when `a` and `b` hold identical bytes.
    fn bytes_equal(&self, a: &[u8], b: &[u8]) -> bool;

    /// Writes the "byte differs" bitmap of `a` against `b`: bit `k % 64`
    /// of `out[k / 64]` is set exactly when `a[k] != b[k]`, on every host
    /// (bit `k` is byte `k`, whatever the host's byte order).
    ///
    /// The contract is page-shaped, one `u64` out per 64 bytes in.
    ///
    /// # Panics
    ///
    /// Every implementation panics unless `a.len() == b.len()`, that
    /// length is a multiple of 64, and `out.len() == a.len() / 64`.
    fn diff_bitmap(&self, a: &[u8], b: &[u8], out: &mut [u64]);

    /// Implementation name, surfaced in diagnostics.
    fn name(&self) -> &'static str;
}

/// Bytes one bitmap word covers.
const BITMAP_BLOCK_BYTES: usize = u64::BITS as usize;

/// The frame every [`WideOps::diff_bitmap`] shares: checks the page shape
/// in one place, then asks `block_bits` for each 64-byte block pair's word.
#[inline(always)]
fn bitmap_by_block(
    a: &[u8],
    b: &[u8],
    out: &mut [u64],
    block_bits: impl Fn(&[u8; BITMAP_BLOCK_BYTES], &[u8; BITMAP_BLOCK_BYTES]) -> u64,
) {
    assert_eq!(a.len(), b.len(), "diff_bitmap inputs differ in length");
    assert_eq!(
        a.len() % BITMAP_BLOCK_BYTES,
        0,
        "diff_bitmap input is not a whole number of 64-byte blocks"
    );
    assert_eq!(
        out.len(),
        a.len() / BITMAP_BLOCK_BYTES,
        "diff_bitmap output is not one word per 64-byte block"
    );
    let blocks = a
        .chunks_exact(BITMAP_BLOCK_BYTES)
        .zip(b.chunks_exact(BITMAP_BLOCK_BYTES));
    for ((x, y), bits) in blocks.zip(out) {
        *bits = block_bits(
            x.try_into().expect("64-byte chunk"),
            y.try_into().expect("64-byte chunk"),
        );
    }
}

/// Byte-serial reference implementation (v1-era loop).
#[derive(Debug, Default, Clone, Copy)]
pub struct ScalarOps;

impl WideOps for ScalarOps {
    fn bytes_equal(&self, a: &[u8], b: &[u8]) -> bool {
        if a.len() != b.len() {
            return false;
        }
        for (x, y) in a.iter().zip(b.iter()) {
            if x != y {
                return false;
            }
        }
        true
    }

    fn diff_bitmap(&self, a: &[u8], b: &[u8], out: &mut [u64]) {
        bitmap_by_block(a, b, out, |x, y| {
            let mut bits = 0;
            for k in 0..BITMAP_BLOCK_BYTES {
                if x[k] != y[k] {
                    bits |= 1 << k;
                }
            }
            bits
        });
    }

    fn name(&self) -> &'static str {
        "scalar"
    }
}

/// Portable implementation: `u128` compare strides, which the compiler
/// lowers to vector loads where the target supports them, and a `u64`
/// SWAR bitmap (eight bytes per step, no per-byte branch).
#[derive(Debug, Default, Clone, Copy)]
pub struct WideWordOps;

/// One bit per byte of `word`, bit `i` set when byte `i` (from the least
/// significant) is non-zero.
#[inline]
fn nonzero_byte_bits(word: u64) -> u64 {
    const LOW7: u64 = 0x7f7f_7f7f_7f7f_7f7f;
    // Adding 0x7f carries into a byte's top bit exactly when its low seven
    // bits are non-zero, and never out of the byte; OR-ing `word` back
    // covers a byte whose only set bit is the top one.
    let top = (((word & LOW7) + LOW7) | word) & !LOW7;
    // Byte `i`'s flag sits at bit `8 i`; the multiplier's bit `56 - 7 i`
    // moves it to bit `56 + i`, and no two partial products collide.
    (top >> 7).wrapping_mul(0x0102_0408_1020_4080) >> 56
}

impl WideOps for WideWordOps {
    fn bytes_equal(&self, a: &[u8], b: &[u8]) -> bool {
        if a.len() != b.len() {
            return false;
        }
        let mut at = 0;
        while at + 16 <= a.len() {
            let x = u128::from_le_bytes(a[at..at + 16].try_into().expect("16-byte slice"));
            let y = u128::from_le_bytes(b[at..at + 16].try_into().expect("16-byte slice"));
            if x != y {
                return false;
            }
            at += 16;
        }
        a[at..] == b[at..]
    }

    fn diff_bitmap(&self, a: &[u8], b: &[u8], out: &mut [u64]) {
        bitmap_by_block(a, b, out, |x, y| {
            let words = x.chunks_exact(8).zip(y.chunks_exact(8));
            words.enumerate().fold(0, |bits, (i, (x, y))| {
                let x = u64::from_le_bytes(x.try_into().expect("8-byte chunk"));
                let y = u64::from_le_bytes(y.try_into().expect("8-byte chunk"));
                bits | nonzero_byte_bits(x ^ y) << (8 * i)
            })
        });
    }

    fn name(&self) -> &'static str {
        "wide-word"
    }
}

/// x86-64 SSE2 implementation: a vectorised 16-bytes-per-op compare.
/// Only selected when the CPU reports SSE2.
#[cfg(target_arch = "x86_64")]
#[derive(Debug, Default, Clone, Copy)]
pub struct Sse2Ops;

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
unsafe fn bytes_equal_sse2(a: &[u8], b: &[u8]) -> bool {
    use std::arch::x86_64::{_mm_cmpeq_epi8, _mm_loadu_si128, _mm_movemask_epi8};
    if a.len() != b.len() {
        return false;
    }
    let mut at = 0;
    while at + 16 <= a.len() {
        // SAFETY: `at + 16 <= len` bounds both unaligned 16-byte loads.
        let x = _mm_loadu_si128(a.as_ptr().add(at).cast());
        let y = _mm_loadu_si128(b.as_ptr().add(at).cast());
        if _mm_movemask_epi8(_mm_cmpeq_epi8(x, y)) != 0xffff {
            return false;
        }
        at += 16;
    }
    a[at..] == b[at..]
}

/// # Safety
///
/// The CPU must support SSE2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
unsafe fn diff_bitmap_sse2(a: &[u8], b: &[u8], out: &mut [u64]) {
    use std::arch::x86_64::{_mm_cmpeq_epi8, _mm_loadu_si128, _mm_movemask_epi8};
    bitmap_by_block(a, b, out, |x, y| {
        let mut equal = 0u64;
        for lane in 0..BITMAP_BLOCK_BYTES / 16 {
            // SAFETY: `x` and `y` are 64-byte arrays, so `16 * lane + 16 <=
            // 64` bounds both unaligned 16-byte loads; SSE2 is this
            // function's own precondition.
            let lane_equal = unsafe {
                let vx = _mm_loadu_si128(x.as_ptr().add(16 * lane).cast());
                let vy = _mm_loadu_si128(y.as_ptr().add(16 * lane).cast());
                _mm_movemask_epi8(_mm_cmpeq_epi8(vx, vy))
            };
            // `pmovmskb` sets the low 16 bits only, one per equal byte.
            equal |= (lane_equal as u64) << (16 * lane);
        }
        !equal
    });
}

#[cfg(target_arch = "x86_64")]
impl WideOps for Sse2Ops {
    fn bytes_equal(&self, a: &[u8], b: &[u8]) -> bool {
        // SAFETY: `Sse2Ops` is only selected after `is_x86_feature_detected!`
        // confirmed SSE2 support (see `select`).
        unsafe { bytes_equal_sse2(a, b) }
    }

    fn diff_bitmap(&self, a: &[u8], b: &[u8], out: &mut [u64]) {
        // SAFETY: as for `bytes_equal`.
        unsafe { diff_bitmap_sse2(a, b, out) }
    }

    fn name(&self) -> &'static str {
        "sse2"
    }
}

fn select() -> &'static dyn WideOps {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("sse2") {
            static OPS: Sse2Ops = Sse2Ops;
            return &OPS;
        }
    }
    static OPS: WideWordOps = WideWordOps;
    &OPS
}

/// The implementation active on this host, selected once at first use.
pub fn active() -> &'static dyn WideOps {
    static ACTIVE: OnceLock<&'static dyn WideOps> = OnceLock::new();
    *ACTIVE.get_or_init(select)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn impls() -> Vec<Box<dyn WideOps>> {
        let mut v: Vec<Box<dyn WideOps>> = vec![Box::new(ScalarOps), Box::new(WideWordOps)];
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("sse2") {
            v.push(Box::new(Sse2Ops));
        }
        v
    }

    /// Byte-serial reference fold (v1-era loop): the word fold must stay
    /// bit-identical to it.
    fn fold_words_scalar(mut state: u64, bytes: &[u8]) -> (u64, usize) {
        let consumed = bytes.len() - bytes.len() % 8;
        for chunk in bytes[..consumed].chunks_exact(8) {
            let mut word = 0u64;
            for (i, &b) in chunk.iter().enumerate() {
                word |= u64::from(b) << (8 * i);
            }
            state = fold64(state, word);
        }
        (state, consumed)
    }

    #[test]
    fn active_is_a_wide_implementation() {
        // Every CI/dev target we build on has at least the portable wide
        // path; the scalar reference exists for equivalence testing only.
        assert_ne!(active().name(), "scalar");
    }

    #[test]
    fn fold_consumes_the_aligned_prefix_only() {
        let bytes = [1u8; 21];
        assert_eq!(fold_words(7, &bytes).1, 16);
        assert_eq!(fold_words(7, &bytes[..8]).1, 8);
        assert_eq!(fold_words(7, &bytes[..3]), (7, 0));
    }

    #[test]
    fn compare_rejects_length_mismatch() {
        for ops in impls() {
            assert!(!ops.bytes_equal(&[1, 2, 3], &[1, 2]), "{}", ops.name());
            assert!(ops.bytes_equal(&[], &[]), "{}", ops.name());
        }
    }

    #[test]
    fn bitmap_rejects_every_unpaged_shape() {
        let bytes = [0u8; 192];
        // (a length, b length, words out): mismatched inputs, a length that
        // is not a multiple of 64, and an output of the wrong size.
        for (a, b, words) in [
            (128, 64, 2),
            (100, 100, 1),
            (72, 72, 2),
            (128, 128, 1),
            (64, 64, 2),
        ] {
            for ops in impls() {
                let rejected = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    ops.diff_bitmap(&bytes[..a], &bytes[..b], &mut vec![0u64; words]);
                }));
                assert!(rejected.is_err(), "{} took {a}/{b}/{words}", ops.name());
            }
        }
        for ops in impls() {
            ops.diff_bitmap(&[], &[], &mut []);
        }
    }

    #[test]
    fn bitmap_names_the_differing_byte() {
        const PAGE: usize = 4096;
        let a: Vec<u8> = (0..PAGE).map(|i| (i as u8).wrapping_mul(37)).collect();
        for ops in impls() {
            let mut bits = [u64::MAX; PAGE / 64];
            ops.diff_bitmap(&a, &a, &mut bits);
            assert_eq!(bits, [0; PAGE / 64], "{}", ops.name());
            let inverted: Vec<u8> = a.iter().map(|b| !b).collect();
            ops.diff_bitmap(&a, &inverted, &mut bits);
            assert_eq!(bits, [u64::MAX; PAGE / 64], "{}", ops.name());
            for at in [0, 15, 16, 63, 64, 4095] {
                // Each single-bit difference, so a kernel that tests only a
                // byte's top or low bits is caught.
                for bit in 0..8 {
                    let mut b = a.clone();
                    b[at] ^= 1 << bit;
                    ops.diff_bitmap(&a, &b, &mut bits);
                    let mut expected = [0u64; PAGE / 64];
                    expected[at / 64] = 1 << (at % 64);
                    assert_eq!(bits, expected, "{} at {at} bit {bit}", ops.name());
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn wide_bitmap_matches_scalar(
            a in proptest::collection::vec(any::<u8>(), 4096),
            noise in proptest::collection::vec(any::<u8>(), 4096),
            // How many of every 256 bytes differ, from none to all.
            density in 0u16..=256,
            blocks in 0usize..=64,
        ) {
            let b: Vec<u8> = (0..a.len())
                .map(|i| {
                    let differs = u16::from(noise[(i + 1) % noise.len()]) < density;
                    a[i] ^ if differs { noise[i] | 1 } else { 0 }
                })
                .collect();
            let len = 64 * blocks;
            let mut reference = vec![0u64; blocks];
            ScalarOps.diff_bitmap(&a[..len], &b[..len], &mut reference);
            for ops in impls() {
                let mut bits = vec![u64::MAX; blocks];
                ops.diff_bitmap(&a[..len], &b[..len], &mut bits);
                prop_assert_eq!(&bits, &reference, "{}", ops.name());
            }
        }

        #[test]
        fn wide_folds_match_scalar(
            state in any::<u64>(),
            bytes in proptest::collection::vec(any::<u8>(), 0..512),
            offset in 0usize..8,
        ) {
            // Odd start offsets exercise unaligned loads in every stride.
            let view = &bytes[offset.min(bytes.len())..];
            prop_assert_eq!(fold_words(state, view), fold_words_scalar(state, view));
        }

        #[test]
        fn wide_compare_matches_scalar(
            a in proptest::collection::vec(any::<u8>(), 0..160),
            flip in proptest::option::of((0usize..160, 1u8..=255)),
        ) {
            let mut b = a.clone();
            if let Some((at, bit)) = flip {
                if !b.is_empty() {
                    let at = at % b.len();
                    b[at] ^= bit;
                }
            }
            let reference = ScalarOps.bytes_equal(&a, &b);
            for ops in impls() {
                prop_assert_eq!(ops.bytes_equal(&a, &b), reference, "{}", ops.name());
            }
        }
    }
}
