//! Dirty page tracking: the shadow-paging log-dirty bitmap.
//!
//! The paper's state manager (§7.2) extends Xen with *per-vCPU* dirty
//! tracking built on Intel Page Modification Logging, so that each migrator
//! thread can harvest its own vCPU's dirty pages "without having to
//! interrupt other vCPUs". This reproduction keeps one global
//! [`DirtyBitmap`] per VM, the log Xen's shadow paging maintains, and
//! models the per-vCPU harvest as lane-parallel walks of disjoint bitmap
//! ranges ([`DirtyBitmap::iter_range`]) plus the cost model's αN/P term.
//! [`crate::host::Hypervisor::snapshot_dirty`] is the one read-and-clear
//! path.

use serde::{Deserialize, Serialize};

use crate::memory::PageId;

/// A global dirty-page bitmap, as maintained by shadow paging.
///
/// # Examples
///
/// ```
/// use here_hypervisor::dirty::DirtyBitmap;
/// use here_hypervisor::memory::PageId;
///
/// let mut bm = DirtyBitmap::new(1024);
/// bm.mark(PageId::new(3));
/// bm.mark(PageId::new(3)); // idempotent
/// assert_eq!(bm.count(), 1);
/// assert_eq!(bm.drain(), vec![PageId::new(3)]);
/// assert_eq!(bm.count(), 0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DirtyBitmap {
    words: Vec<u64>,
    num_pages: u64,
    count: u64,
}

impl DirtyBitmap {
    /// Creates a clean bitmap covering `num_pages` frames.
    pub fn new(num_pages: u64) -> Self {
        let words = vec![0u64; num_pages.div_ceil(64) as usize];
        DirtyBitmap {
            words,
            num_pages,
            count: 0,
        }
    }

    /// Number of frames covered.
    pub fn num_pages(&self) -> u64 {
        self.num_pages
    }

    /// Marks `page` dirty. Out-of-range frames are ignored (matching the
    /// hardware, which cannot log frames outside the guest's address space).
    pub fn mark(&mut self, page: PageId) {
        let frame = page.frame();
        if frame >= self.num_pages {
            return;
        }
        let (w, b) = (frame / 64, frame % 64);
        let word = &mut self.words[w as usize];
        if *word & (1 << b) == 0 {
            *word |= 1 << b;
            self.count += 1;
        }
    }

    /// [`DirtyBitmap::mark`] on the `count` frames from `first`: whole
    /// word masks, with `count` raised by the popcount of the bits that
    /// were clear. Frames past the covered range are ignored, as there.
    pub(crate) fn mark_run(&mut self, first: u64, count: u64) {
        let hi = first.saturating_add(count).min(self.num_pages);
        if first >= hi {
            return;
        }
        for wi in first / 64..hi.div_ceil(64) {
            let base = wi * 64;
            let lo = first.max(base) - base;
            let bits = (hi - base).min(64) - lo;
            let mask = (!0u64 >> (64 - bits)) << lo;
            let word = &mut self.words[wi as usize];
            self.count += (mask & !*word).count_ones() as u64;
            *word |= mask;
        }
    }

    /// `true` if `page` is marked dirty.
    pub fn is_dirty(&self, page: PageId) -> bool {
        let frame = page.frame();
        if frame >= self.num_pages {
            return false;
        }
        self.words[(frame / 64) as usize] & (1 << (frame % 64)) != 0
    }

    /// Number of dirty frames.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// `true` if no frame is dirty.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Returns all dirty frames in ascending order and clears the bitmap —
    /// the "read and clear" hypercall the migration code uses.
    pub fn drain(&mut self) -> Vec<PageId> {
        let pages = self.peek();
        self.clear();
        pages
    }

    /// Returns all dirty frames in ascending order without clearing.
    pub fn peek(&self) -> Vec<PageId> {
        let mut pages = Vec::with_capacity(self.count as usize);
        pages.extend(self.iter());
        pages
    }

    /// Allocation-free iterator over all dirty frames, ascending.
    pub fn iter(&self) -> DirtyPagesIter<'_> {
        self.iter_range(0, self.num_pages)
    }

    /// Allocation-free iterator over dirty frames in `[lo, hi)`, ascending.
    /// `hi` is clamped to the covered range.
    pub fn iter_range(&self, lo: u64, hi: u64) -> DirtyPagesIter<'_> {
        DirtyPagesIter::new(&self.words, lo, hi.min(self.num_pages))
    }

    /// Number of dirty frames in `[lo, hi)`, by word popcounts — no
    /// per-page work, used to size per-lane buffers before a scan.
    pub fn count_in_range(&self, lo: u64, hi: u64) -> u64 {
        let hi = hi.min(self.num_pages);
        if lo >= hi {
            return 0;
        }
        let (wlo, whi) = (lo / 64, hi.div_ceil(64));
        (wlo..whi)
            .map(|wi| masked_word(&self.words, wi, lo, hi).count_ones() as u64)
            .sum()
    }

    /// The frame of the `k`-th dirty page (counting from 0) at or after
    /// frame `lo`, by word popcounts and then a bit select in one word;
    /// `None` if fewer than `k + 1` dirty pages lie there. With a table
    /// of per-chunk counts to start from, this finds where an ordinal
    /// range of the dirty pages begins without walking the pages before
    /// it.
    pub fn nth_from(&self, lo: u64, k: u64) -> Option<u64> {
        let mut k = k;
        for wi in lo / 64..self.num_pages.div_ceil(64) {
            let mut w = masked_word(&self.words, wi, lo, self.num_pages);
            let ones = u64::from(w.count_ones());
            if k < ones {
                for _ in 0..k {
                    w &= w - 1;
                }
                return Some(wi * 64 + u64::from(w.trailing_zeros()));
            }
            k -= ones;
        }
        None
    }

    /// Marks every frame `other` marks, a word at a time: `count` rises by
    /// the popcount of the bits that were clear, so the result is what a
    /// [`DirtyBitmap::mark`] of each of `other`'s pages leaves.
    ///
    /// # Panics
    ///
    /// Panics if the two bitmaps cover different page counts.
    pub fn union(&mut self, other: &DirtyBitmap) {
        assert_eq!(
            self.num_pages, other.num_pages,
            "a union of bitmaps over different guests"
        );
        for (word, &theirs) in self.words.iter_mut().zip(&other.words) {
            self.count += u64::from((theirs & !*word).count_ones());
            *word |= theirs;
        }
    }

    /// Dirty frames in the half-open range `[lo, hi)`, ascending. This is
    /// the primitive HERE's chunk workers scan with: each worker reads only
    /// its own chunks' words, so concurrent workers never contend.
    /// Hot paths should prefer [`iter_range`](DirtyBitmap::iter_range),
    /// which does not allocate.
    pub fn pages_in_range(&self, lo: u64, hi: u64) -> Vec<PageId> {
        self.iter_range(lo, hi).collect()
    }

    /// Clears every dirty bit.
    pub fn clear(&mut self) {
        self.words.fill(0);
        self.count = 0;
    }
}

/// Loads word `wi` of `words`, masking off bits outside `[lo, hi)`.
#[inline]
fn masked_word(words: &[u64], wi: u64, lo: u64, hi: u64) -> u64 {
    let mut w = words[wi as usize];
    let base = wi * 64;
    if base < lo {
        w &= !0u64 << (lo - base);
    }
    if base + 64 > hi {
        let keep = hi.saturating_sub(base);
        w &= if keep >= 64 { !0 } else { (1u64 << keep) - 1 };
    }
    w
}

/// Allocation-free iterator over the dirty frames of a [`DirtyBitmap`]
/// range, created by [`DirtyBitmap::iter`] / [`DirtyBitmap::iter_range`].
///
/// Walks one 64-bit word at a time, peeling set bits with
/// `trailing_zeros`, so iterating N dirty pages over a W-word range costs
/// O(W + N) with zero heap traffic — the scan primitive behind the
/// steady-state checkpoint loop. Internal iteration (`fold`, and with it
/// `for_each`, `sum`, `count`, …) runs one tight loop per word instead of
/// re-entering `next`'s state machine for every set bit; the harvest
/// consumes the iterator that way.
#[derive(Debug, Clone)]
pub struct DirtyPagesIter<'a> {
    words: &'a [u64],
    lo: u64,
    hi: u64,
    word_index: u64,
    end_word: u64,
    current: u64,
}

impl<'a> DirtyPagesIter<'a> {
    fn new(words: &'a [u64], lo: u64, hi: u64) -> Self {
        let (wlo, whi) = if lo < hi {
            (lo / 64, hi.div_ceil(64))
        } else {
            (0, 0)
        };
        let current = if wlo < whi {
            masked_word(words, wlo, lo, hi)
        } else {
            0
        };
        DirtyPagesIter {
            words,
            lo,
            hi,
            word_index: wlo,
            end_word: whi,
            current,
        }
    }
}

impl Iterator for DirtyPagesIter<'_> {
    type Item = PageId;

    fn next(&mut self) -> Option<PageId> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as u64;
                self.current &= self.current - 1;
                return Some(PageId::new(self.word_index * 64 + bit));
            }
            self.word_index += 1;
            if self.word_index >= self.end_word {
                return None;
            }
            self.current = masked_word(self.words, self.word_index, self.lo, self.hi);
        }
    }

    fn fold<B, F>(self, init: B, mut f: F) -> B
    where
        F: FnMut(B, PageId) -> B,
    {
        // `current` is already masked (and empty once `next` ran dry).
        let acc = peel(init, self.word_index, self.current, &mut f);
        (self.word_index + 1..self.end_word).fold(acc, |acc, wi| {
            peel(
                acc,
                wi,
                masked_word(self.words, wi, self.lo, self.hi),
                &mut f,
            )
        })
    }
}

/// Feeds the frames of the set bits of `w`, word `wi` of the bitmap, to `f`
/// in ascending order.
#[inline(always)]
fn peel<B>(mut acc: B, wi: u64, mut w: u64, f: &mut impl FnMut(B, PageId) -> B) -> B {
    let base = wi * 64;
    while w != 0 {
        acc = f(acc, PageId::new(base + w.trailing_zeros() as u64));
        w &= w - 1;
    }
    acc
}

/// Per-VM dirty tracking state: the global bitmap, fed while logging is
/// on.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DirtyTracker {
    bitmap: DirtyBitmap,
    logging_enabled: bool,
}

impl DirtyTracker {
    /// Creates tracking state for `num_pages` frames, logging off.
    pub fn new(num_pages: u64) -> Self {
        DirtyTracker {
            bitmap: DirtyBitmap::new(num_pages),
            logging_enabled: false,
        }
    }

    /// Turns dirty logging on (the `XEN_DOMCTL_SHADOW_OP_ENABLE_LOGDIRTY`
    /// or `KVM_MEM_LOG_DIRTY_PAGES` moment). Clears any stale bits.
    pub fn enable_logging(&mut self) {
        self.logging_enabled = true;
        self.bitmap.clear();
    }

    /// `true` while dirty logging is active.
    pub fn logging_enabled(&self) -> bool {
        self.logging_enabled
    }

    /// Records a write to `page`. A no-op while logging is disabled.
    pub fn record_write(&mut self, page: PageId) {
        if self.logging_enabled {
            self.bitmap.mark(page);
        }
    }

    /// [`DirtyTracker::record_write`] on the `count` frames from `first`.
    pub(crate) fn record_run(&mut self, first: u64, count: u64) {
        if self.logging_enabled {
            self.bitmap.mark_run(first, count);
        }
    }

    /// The global bitmap.
    pub fn bitmap(&self) -> &DirtyBitmap {
        &self.bitmap
    }

    /// Mutable access to the global bitmap (the migration code's
    /// read-and-clear path).
    pub fn bitmap_mut(&mut self) -> &mut DirtyBitmap {
        &mut self.bitmap
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn bitmap_mark_and_drain() {
        let mut bm = DirtyBitmap::new(256);
        for f in [0u64, 63, 64, 255] {
            bm.mark(PageId::new(f));
        }
        assert_eq!(bm.count(), 4);
        assert!(bm.is_dirty(PageId::new(63)));
        let drained = bm.drain();
        assert_eq!(
            drained,
            vec![0, 63, 64, 255]
                .into_iter()
                .map(PageId::new)
                .collect::<Vec<_>>()
        );
        assert!(bm.is_empty());
    }

    #[test]
    fn bitmap_ignores_out_of_range() {
        let mut bm = DirtyBitmap::new(10);
        bm.mark(PageId::new(100));
        assert_eq!(bm.count(), 0);
        assert!(!bm.is_dirty(PageId::new(100)));
    }

    #[test]
    fn iterator_matches_peek_and_ranges() {
        let mut bm = DirtyBitmap::new(1000);
        for f in [0u64, 1, 62, 63, 64, 65, 127, 128, 500, 999] {
            bm.mark(PageId::new(f));
        }
        assert_eq!(bm.iter().collect::<Vec<_>>(), bm.peek());
        for (lo, hi) in [
            (0, 1000),
            (0, 0),
            (63, 65),
            (64, 128),
            (1, 999),
            (900, 2000),
        ] {
            let via_iter: Vec<_> = bm.iter_range(lo, hi).collect();
            let expected: Vec<_> = bm
                .peek()
                .into_iter()
                .filter(|p| {
                    let f = p.frame();
                    f >= lo && f < hi.min(1000)
                })
                .collect();
            assert_eq!(via_iter, expected, "range [{lo}, {hi})");
            assert_eq!(bm.count_in_range(lo, hi), via_iter.len() as u64);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Internal iteration (`fold`, through `for_each`, `sum` and
        /// `count`) yields exactly the frames a `next()` loop yields, in
        /// order: on bitmaps whose page count is no multiple of 64, over
        /// unaligned and empty ranges, from iterators already advanced by
        /// `k` calls to `next`.
        #[test]
        fn fold_walks_what_next_walks(
            num_pages in 1u64..700,
            frames in proptest::collection::vec(0u64..760, 0..300),
            runs in proptest::collection::vec((0u64..760, 0u64..200), 0..4),
            lo in 0u64..760,
            hi in 0u64..760,
            k in 0usize..24,
        ) {
            let mut bm = DirtyBitmap::new(num_pages);
            for &f in &frames {
                bm.mark(PageId::new(f));
            }
            for &(first, count) in &runs {
                bm.mark_run(first, count);
            }
            let mut it = bm.iter_range(lo, hi);
            for _ in 0..k {
                it.next();
            }
            // A `for` loop steps with `next()`, never `fold`.
            let mut by_next = Vec::new();
            let mut stepped = it.clone();
            for page in stepped.by_ref() {
                by_next.push(page);
            }
            let hi = hi.min(num_pages);
            let expected: Vec<PageId> = bm
                .peek()
                .into_iter()
                .filter(|p| (lo..hi).contains(&p.frame()))
                .skip(k)
                .collect();
            prop_assert_eq!(&by_next, &expected);

            let mut by_for_each = Vec::new();
            it.clone().for_each(|page| by_for_each.push(page));
            prop_assert_eq!(&by_for_each, &by_next);
            let sum: u64 = it.clone().map(|p| p.frame()).sum();
            prop_assert_eq!(sum, by_next.iter().map(|p| p.frame()).sum::<u64>());
            prop_assert_eq!(it.clone().count(), by_next.len());
            // An exhausted iterator folds to nothing.
            prop_assert_eq!(stepped.count(), 0);
        }
    }

    /// A bitmap over `num_pages` frames marking `frames` (out-of-range
    /// ones ignored).
    fn marked(num_pages: u64, frames: impl IntoIterator<Item = u64>) -> DirtyBitmap {
        let mut bm = DirtyBitmap::new(num_pages);
        for f in frames {
            bm.mark(PageId::new(f));
        }
        bm
    }

    /// The union is a `mark` loop over the other bitmap's pages, on dense,
    /// sparse, empty and last-frame bitmaps whose page counts are no
    /// multiple of 64, each onto each: same words, same count.
    #[test]
    fn union_is_a_mark_loop() {
        let n = 1000;
        let shapes = [
            marked(n, 0..n),
            marked(n, (0..n).filter(|f| f % 3 != 0)),
            marked(n, (0..n).step_by(97)),
            marked(n, []),
            marked(n, [n - 1]),
            marked(n, [0, 63, 64, 511, 512, n - 1]),
        ];
        for live in &shapes {
            for other in &shapes {
                let mut by_union = live.clone();
                by_union.union(other);
                let mut by_mark = live.clone();
                for page in other.iter() {
                    by_mark.mark(page);
                }
                assert_eq!(by_union, by_mark);
                assert_eq!(by_union.count(), by_union.iter().count() as u64);
            }
        }
    }

    #[test]
    #[should_panic(expected = "different guests")]
    fn union_refuses_another_guests_bitmap() {
        DirtyBitmap::new(64).union(&DirtyBitmap::new(65));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// `nth_from(lo, k)` is the `k`-th frame the iterator yields from
        /// `lo`, and `None` past the last one.
        #[test]
        fn nth_from_is_the_kth_iterated_frame(
            num_pages in 1u64..1300,
            frames in proptest::collection::vec(0u64..1300, 0..400),
            lo in 0u64..1300,
            k in 0u64..500,
        ) {
            let bm = marked(num_pages, frames);
            let expected = bm.iter_range(lo, num_pages).nth(k as usize).map(|p| p.frame());
            prop_assert_eq!(bm.nth_from(lo, k), expected);
        }
    }

    /// Both ways a write reaches the tracker, one page and a run, mark the
    /// bitmap only while logging is on.
    #[test]
    fn tracker_routes_writes_to_both_mechanisms() {
        let mut t = DirtyTracker::new(1024);
        t.record_write(PageId::new(10)); // logging disabled: dropped
        t.record_run(20, 5);
        assert_eq!(t.bitmap().count(), 0);
        t.enable_logging();
        t.record_write(PageId::new(10));
        t.record_run(20, 5);
        assert_eq!(t.bitmap().count(), 6);
        assert!(t.bitmap().is_dirty(PageId::new(24)));
    }

    #[test]
    fn tracker_enable_clears_stale_state() {
        let mut t = DirtyTracker::new(64);
        t.enable_logging();
        t.record_write(PageId::new(1));
        t.enable_logging();
        assert_eq!(t.bitmap().count(), 0);
    }
}
