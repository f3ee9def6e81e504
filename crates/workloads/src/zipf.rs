//! YCSB request-distribution generators.
//!
//! Ports of the generators the YCSB client uses to pick which record each
//! operation targets: uniform, Zipfian (the Gray et al. "quick" algorithm
//! with θ = 0.99), scrambled Zipfian (decorrelates popularity from key
//! order), and latest (Workload D's "read the newest records" bias).

use here_sim_core::rng::SimRng;

/// YCSB's default Zipfian constant.
pub const ZIPFIAN_CONSTANT: f64 = 0.99;

/// Chooses record indices in `[0, n)`.
pub trait KeyChooser: std::fmt::Debug {
    /// Draws the next record index.
    fn next_key(&mut self, rng: &mut SimRng) -> u64;

    /// Advances `rng` exactly as [`KeyChooser::next_key`] would, without
    /// computing the key — for an operation that draws a key and never
    /// reads it, so the stream of every later draw stays the same.
    fn skip(&mut self, rng: &mut SimRng) {
        self.next_key(rng);
    }

    /// Informs the generator that the keyspace grew (inserts).
    fn grow(&mut self, new_n: u64);
}

/// Uniform selection over the keyspace.
#[derive(Debug, Clone)]
pub struct UniformChooser {
    n: u64,
}

impl UniformChooser {
    /// Uniform over `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(n: u64) -> Self {
        assert!(n > 0, "keyspace must be non-empty");
        UniformChooser { n }
    }
}

impl KeyChooser for UniformChooser {
    fn next_key(&mut self, rng: &mut SimRng) -> u64 {
        rng.below(self.n)
    }

    fn grow(&mut self, new_n: u64) {
        self.n = self.n.max(new_n);
    }
}

/// Zipfian selection (Gray et al.): item 0 is the most popular.
#[derive(Debug, Clone)]
pub struct ZipfianChooser {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
    zeta2theta: f64,
    /// `0.5^theta`, the upper edge of item 1's share; `theta` is fixed.
    half_pow_theta: f64,
}

impl ZipfianChooser {
    /// Zipfian over `[0, n)` with the YCSB default constant.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(n: u64) -> Self {
        Self::with_theta(n, ZIPFIAN_CONSTANT)
    }

    /// Zipfian with an explicit constant `theta` in `(0, 1)`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or `theta` is outside `(0, 1)`.
    pub fn with_theta(n: u64, theta: f64) -> Self {
        assert!(n > 0, "keyspace must be non-empty");
        assert!(
            (0.0..1.0).contains(&theta) && theta > 0.0,
            "theta must be in (0,1)"
        );
        let zetan = Self::zeta(n, theta);
        let zeta2theta = Self::zeta(2, theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2theta / zetan);
        ZipfianChooser {
            n,
            theta,
            alpha,
            zetan,
            eta,
            zeta2theta,
            half_pow_theta: 0.5f64.powf(theta),
        }
    }

    fn zeta(n: u64, theta: f64) -> f64 {
        (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum()
    }

    /// Extends ζ(n) incrementally to `new_n` — YCSB's inserts grow the
    /// keyspace one record at a time, and recomputing the harmonic sum
    /// from scratch would be quadratic over a run.
    fn extend_zeta(&mut self, new_n: u64) {
        for i in (self.n + 1)..=new_n {
            self.zetan += 1.0 / (i as f64).powf(self.theta);
        }
        self.n = new_n;
        self.eta = (1.0 - (2.0 / self.n as f64).powf(1.0 - self.theta))
            / (1.0 - self.zeta2theta / self.zetan);
    }
}

impl KeyChooser for ZipfianChooser {
    fn next_key(&mut self, rng: &mut SimRng) -> u64 {
        let u = rng.unit_f64();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + self.half_pow_theta {
            return 1;
        }
        let k = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        k.min(self.n - 1)
    }

    /// One `unit_f64`, the only draw `next_key` makes; the `powf` is not
    /// paid.
    fn skip(&mut self, rng: &mut SimRng) {
        rng.unit_f64();
    }

    fn grow(&mut self, new_n: u64) {
        if new_n > self.n {
            self.extend_zeta(new_n);
        }
    }
}

/// Scrambled Zipfian: Zipfian popularity spread over the keyspace by
/// hashing, so hot records are not adjacent (YCSB's default for A/B/C/F).
#[derive(Debug, Clone)]
pub struct ScrambledZipfianChooser {
    inner: ZipfianChooser,
    n: u64,
}

impl ScrambledZipfianChooser {
    /// Scrambled Zipfian over `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(n: u64) -> Self {
        ScrambledZipfianChooser {
            inner: ZipfianChooser::new(n),
            n,
        }
    }
}

impl KeyChooser for ScrambledZipfianChooser {
    fn next_key(&mut self, rng: &mut SimRng) -> u64 {
        let raw = self.inner.next_key(rng);
        fnv_hash64(raw) % self.n
    }

    fn skip(&mut self, rng: &mut SimRng) {
        self.inner.skip(rng);
    }

    fn grow(&mut self, new_n: u64) {
        if new_n > self.n {
            self.n = new_n;
            self.inner.grow(new_n);
        }
    }
}

/// Latest-biased selection: Zipfian over recency, so the most recently
/// inserted records are the most popular (YCSB Workload D).
#[derive(Debug, Clone)]
pub struct LatestChooser {
    inner: ZipfianChooser,
    n: u64,
}

impl LatestChooser {
    /// Latest-biased over `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(n: u64) -> Self {
        LatestChooser {
            inner: ZipfianChooser::new(n),
            n,
        }
    }
}

impl KeyChooser for LatestChooser {
    fn next_key(&mut self, rng: &mut SimRng) -> u64 {
        let back = self.inner.next_key(rng);
        self.n - 1 - back.min(self.n - 1)
    }

    fn skip(&mut self, rng: &mut SimRng) {
        self.inner.skip(rng);
    }

    fn grow(&mut self, new_n: u64) {
        if new_n > self.n {
            self.n = new_n;
            self.inner.grow(new_n);
        }
    }
}

fn fnv_hash64(mut v: u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for _ in 0..8 {
        h ^= v & 0xff;
        h = h.wrapping_mul(0x0100_0000_01b3);
        v >>= 8;
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn histogram(chooser: &mut dyn KeyChooser, n: usize, draws: usize) -> Vec<u64> {
        let mut rng = SimRng::seed_from(7);
        let mut h = vec![0u64; n];
        for _ in 0..draws {
            h[chooser.next_key(&mut rng) as usize] += 1;
        }
        h
    }

    #[test]
    fn uniform_is_roughly_flat() {
        let mut c = UniformChooser::new(10);
        let h = histogram(&mut c, 10, 100_000);
        for &count in &h {
            assert!((8_000..12_000).contains(&count), "bucket count {count}");
        }
    }

    #[test]
    fn zipfian_front_loads_popularity() {
        let mut c = ZipfianChooser::new(1000);
        let h = histogram(&mut c, 1000, 100_000);
        // Item 0 should dwarf item 500.
        assert!(
            h[0] > 20 * h[500].max(1),
            "h[0]={}, h[500]={}",
            h[0],
            h[500]
        );
        // And the head should account for a large share of all draws.
        let head: u64 = h[..10].iter().sum();
        assert!(head > 30_000, "head share {head}");
    }

    /// The draw as it was before `0.5^theta` became a field: the reference
    /// the stored constant must reproduce key for key.
    fn next_key_pow_per_draw(c: &ZipfianChooser, rng: &mut SimRng) -> u64 {
        let u = rng.unit_f64();
        let uz = u * c.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(c.theta) {
            return 1;
        }
        let k = (c.n as f64 * (c.eta * u - c.eta + 1.0).powf(c.alpha)) as u64;
        k.min(c.n - 1)
    }

    #[test]
    fn stored_half_pow_theta_draws_the_same_keys() {
        for (n, theta) in [(3, 0.5), (1000, ZIPFIAN_CONSTANT), (300_000, 0.2)] {
            let mut c = ZipfianChooser::with_theta(n, theta);
            let (mut a, mut b) = (SimRng::seed_from(9), SimRng::seed_from(9));
            for draw in 0..50_000 {
                let want = next_key_pow_per_draw(&c, &mut b);
                assert_eq!(c.next_key(&mut a), want, "n={n} theta={theta} draw {draw}");
            }
        }
    }

    #[test]
    fn skip_draws_what_next_key_draws() {
        let choosers: [Box<dyn KeyChooser>; 4] = [
            Box::new(UniformChooser::new(1000)),
            Box::new(ZipfianChooser::new(1000)),
            Box::new(ScrambledZipfianChooser::new(1000)),
            Box::new(LatestChooser::new(1000)),
        ];
        for mut chooser in choosers {
            let (mut a, mut b) = (SimRng::seed_from(21), SimRng::seed_from(21));
            for draw in 0..10_000 {
                chooser.skip(&mut a);
                chooser.next_key(&mut b);
                let (got, want) = (chooser.next_key(&mut a), chooser.next_key(&mut b));
                assert_eq!(got, want, "{chooser:?} draw {draw}");
            }
            assert_eq!(a.next_u64(), b.next_u64(), "{chooser:?}");
        }
    }

    #[test]
    fn zipfian_keys_stay_in_range() {
        let mut c = ZipfianChooser::new(50);
        let mut rng = SimRng::seed_from(3);
        for _ in 0..10_000 {
            assert!(c.next_key(&mut rng) < 50);
        }
    }

    #[test]
    fn scrambled_zipfian_spreads_the_hot_set() {
        let mut c = ScrambledZipfianChooser::new(1000);
        let h = histogram(&mut c, 1000, 100_000);
        // Still skewed: some key is very hot...
        let max = *h.iter().max().unwrap();
        assert!(max > 10_000);
        // ...but the hottest key is no longer key 0 deterministically
        // adjacent to key 1 (the top two keys are far apart).
        let mut idx: Vec<usize> = (0..1000).collect();
        idx.sort_by_key(|&i| std::cmp::Reverse(h[i]));
        assert!(idx[0].abs_diff(idx[1]) > 1);
    }

    #[test]
    fn latest_favours_the_newest_records() {
        let mut c = LatestChooser::new(1000);
        let h = histogram(&mut c, 1000, 100_000);
        assert!(h[999] > 20 * h[400].max(1));
    }

    #[test]
    fn growth_extends_the_keyspace() {
        let mut c = LatestChooser::new(10);
        c.grow(100);
        let mut rng = SimRng::seed_from(5);
        let any_high = (0..1000).any(|_| c.next_key(&mut rng) > 9);
        assert!(any_high);
    }
}
