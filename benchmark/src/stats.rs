//! Order statistics and the benchmark's own seeded generator.

/// The `p`-th percentile (0..=100) of `sorted`, interpolating linearly
/// between the two closest ranks. `sorted` must be ascending and non-empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = p.clamp(0.0, 100.0) / 100.0 * (sorted.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Sorts a copy of `values` and returns its `p`-th percentile; 0 for an
/// empty sample, so a layer a workload never exercises reads as 0.
pub fn percentile_of(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, p)
}

/// Median of `values` (0 for an empty sample).
pub fn median(values: &[f64]) -> f64 {
    percentile_of(values, 50.0)
}

/// Mean of `values` (0 for an empty sample).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// SplitMix64: the benchmark's input generator. It is the benchmark's own
/// so that a change to a library RNG cannot silently change the inputs a
/// baseline was measured on.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound` (`bound` > 0). The modulo bias is below 2^-40
    /// for every bound the benchmark uses.
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }

    /// Fills `out` with generator output, eight bytes per draw.
    pub fn fill(&mut self, out: &mut [u8]) {
        let mut chunks = out.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let tail = chunks.into_remainder();
        let last = self.next_u64().to_le_bytes();
        tail.copy_from_slice(&last[..tail.len()]);
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let s = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 50.0), 3.0);
        assert_eq!(percentile(&s, 100.0), 5.0);
        assert_eq!(percentile(&s, 90.0), 4.6);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
        // Even count: the median is the mean of the middle pair.
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 10.0], 50.0), 2.5);
    }

    #[test]
    fn percentile_of_sorts_and_tolerates_empty() {
        assert_eq!(percentile_of(&[5.0, 1.0, 3.0], 50.0), 3.0);
        assert_eq!(percentile_of(&[], 90.0), 0.0);
        assert_eq!(median(&[4.0, 2.0]), 3.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }

    #[test]
    fn generator_is_a_function_of_the_seed() {
        let draw = |seed| {
            let mut r = SplitMix64::new(seed);
            let mut bytes = [0u8; 13];
            r.fill(&mut bytes);
            let mut order: Vec<u32> = (0..16).collect();
            r.shuffle(&mut order);
            (r.below(1000), bytes, order)
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
        let (_, _, mut order) = draw(7);
        order.sort_unstable();
        assert_eq!(order, (0..16).collect::<Vec<u32>>());
    }
}
