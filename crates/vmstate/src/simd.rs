//! The data plane's two byte-walking hot loops: folding record bytes
//! into the [`StreamingChecksum`] and comparing a decoded 4 KiB page
//! payload against its expected image.
//!
//! **The fold is not dispatched.** The FNV-style fold is a strict
//! sequential dependency chain (`state = (state ^ word) * prime`, one
//! xor and one multiply, ~1.3 ns a word), so no vector width can shorten
//! it and the digest is part of the wire format. [`fold_words`] is a
//! plain inlinable function folding eight bytes per multiply; what makes
//! it cheaper is running it *beside* an independent chain (see
//! [`PageDataWriter::push_group`]), not a wider register.
//!
//! **The compare is.** [`WideOps`] selects a `bytes_equal` once at
//! first use: [`Sse2Ops`] (x86-64 with SSE2, 16 bytes per vector op) or
//! the portable `u128`-stride [`WideWordOps`]. [`ScalarOps`] is the
//! byte-serial reference the proptests below compare against.
//!
//! [`StreamingChecksum`]: crate::wire::StreamingChecksum
//! [`PageDataWriter::push_group`]: crate::wire::PageDataWriter::push_group

use std::sync::OnceLock;

const FNV64_PRIME: u64 = 0x0000_0100_0000_01b3;

/// One step of the record-checksum chain.
#[inline]
pub(crate) fn fold64(state: u64, word: u64) -> u64 {
    (state ^ word).wrapping_mul(FNV64_PRIME)
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

/// The dispatched page compare, with a scalar reference fallback.
///
/// Implementations must be pure: same inputs, same outputs, on every host.
pub trait WideOps: Send + Sync {
    /// `true` when `a` and `b` hold identical bytes.
    fn bytes_equal(&self, a: &[u8], b: &[u8]) -> bool;

    /// Implementation name, surfaced in diagnostics.
    fn name(&self) -> &'static str;
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

    fn name(&self) -> &'static str {
        "scalar"
    }
}

/// Portable implementation: `u128` compare strides, which the compiler
/// lowers to vector loads where the target supports them.
#[derive(Debug, Default, Clone, Copy)]
pub struct WideWordOps;

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

#[cfg(target_arch = "x86_64")]
impl WideOps for Sse2Ops {
    fn bytes_equal(&self, a: &[u8], b: &[u8]) -> bool {
        // SAFETY: `Sse2Ops` is only selected after `is_x86_feature_detected!`
        // confirmed SSE2 support (see `select`).
        unsafe { bytes_equal_sse2(a, b) }
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

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
