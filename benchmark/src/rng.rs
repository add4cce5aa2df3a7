//! Seeded input generation. Everything a workload feeds the program is
//! derived from `--seed` through this generator before any world exists,
//! so the same seed replays the same op sequence in every lap.

/// SplitMix64: small, fast, and good enough to shuffle 128 hosts.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`). The modulo bias at n ≤ 128 is below
    /// 2⁻⁵⁶ and irrelevant to a workload mix.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A Fisher–Yates permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut v: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            v.swap(i, self.below(i + 1));
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let a: Vec<u64> = {
            let mut r = Rng::new(7);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng::new(7);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        let mut other = Rng::new(8);
        assert_ne!(a[0], other.next_u64());
    }

    #[test]
    fn permutation_covers_every_index_once() {
        let mut r = Rng::new(1);
        let mut p = r.permutation(80);
        assert_ne!(p, (0..80).collect::<Vec<_>>(), "shuffled");
        p.sort_unstable();
        assert_eq!(p, (0..80).collect::<Vec<_>>());
    }
}
