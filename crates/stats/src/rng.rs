//! Reproducible random number generation.
//!
//! Every experiment in the repository must be exactly reproducible from
//! a single `u64` seed: the paper's figures are averages over repeated
//! trials, and regenerating a figure must yield the same rows every
//! time. [`SpRng`] wraps a fixed-algorithm generator (xoshiro256++
//! seeded through SplitMix64) implemented here, so the stream is pinned
//! by this crate rather than a dependency, and adds *splitting*: each
//! trial, node, or subsystem derives an independent child stream, so
//! adding a sampling site in one module never perturbs the draws seen
//! by another.

/// SplitMix64 step, used for seeding and stream derivation.
///
/// This is the standard finalizer from Vigna's `splitmix64.c`; it is
/// statistically excellent for expanding a small seed into generator
/// state.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministic, splittable random number generator.
///
/// Implements xoshiro256++ (Blackman & Vigna), a small, fast generator
/// with a 2^256 − 1 period — far more than the Monte-Carlo workloads
/// here require — implemented locally so that the byte stream is pinned
/// by this crate, not by a dependency's internals.
///
/// # Examples
///
/// ```
/// use sp_stats::SpRng;
///
/// let mut a = SpRng::seed_from_u64(42);
/// let mut b = SpRng::seed_from_u64(42);
/// assert_eq!(a.next_raw(), b.next_raw());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpRng {
    s: [u64; 4],
}

impl SpRng {
    /// Creates a generator from a 64-bit seed.
    ///
    /// The seed is expanded through SplitMix64, so similar seeds (0, 1,
    /// 2, …) still produce uncorrelated streams.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        SpRng { s }
    }

    /// Derives an independent child generator for a named sub-stream.
    ///
    /// Trials, nodes, and subsystems should each draw from their own
    /// split so that the number of samples one component consumes never
    /// shifts the values another component sees. Splitting is
    /// deterministic: the same `(parent seed, stream)` pair always
    /// yields the same child.
    ///
    /// # Examples
    ///
    /// ```
    /// use sp_stats::SpRng;
    ///
    /// let root = SpRng::seed_from_u64(7);
    /// let trial0 = root.split(0);
    /// let trial1 = root.split(1);
    /// assert_ne!(trial0, trial1);
    /// assert_eq!(trial0, root.split(0)); // reproducible
    /// ```
    #[must_use]
    pub fn split(&self, stream: u64) -> Self {
        // Mix the current state with the stream id through SplitMix64;
        // do not advance `self`, so splits are order-independent.
        let mut sm = self.s[0]
            ^ self.s[1].rotate_left(16)
            ^ self.s[2].rotate_left(32)
            ^ self.s[3].rotate_left(48)
            ^ stream.wrapping_mul(0xA24B_AED4_963E_E407);
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        SpRng { s }
    }

    /// The raw xoshiro256++ state words, for checkpointing.
    ///
    /// Together with [`SpRng::from_state`], this lets a simulation
    /// snapshot capture the exact stream position so a restored run
    /// draws the same values the uninterrupted run would have.
    #[inline]
    pub fn state(&self) -> [u64; 4] {
        self.s
    }

    /// Rebuilds a generator from state words captured by
    /// [`SpRng::state`]. The restored generator continues the stream
    /// from exactly where the captured one stood.
    #[inline]
    pub fn from_state(s: [u64; 4]) -> Self {
        SpRng { s }
    }

    /// Next raw 64-bit output (xoshiro256++).
    #[inline]
    pub fn next_raw(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform sample in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn unit_f64(&mut self) -> f64 {
        // Take the top 53 bits; divide by 2^53.
        (self.next_raw() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, bound)` via Lemire's multiply-shift
    /// rejection method (unbiased).
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below() requires a positive bound");
        let mut x = self.next_raw();
        let mut m = (x as u128) * (bound as u128);
        let mut low = m as u64;
        if low < bound {
            let threshold = bound.wrapping_neg() % bound;
            while low < threshold {
                x = self.next_raw();
                m = (x as u128) * (bound as u128);
                low = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform index in `[0, len)`, convenient for slice indexing.
    ///
    /// # Panics
    ///
    /// Panics if `len == 0`.
    #[inline]
    pub fn index(&mut self, len: usize) -> usize {
        self.below(len as u64) as usize
    }

    /// Bernoulli trial with success probability `p` (clamped to
    /// `[0, 1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit_f64() < p
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.index(i + 1);
            items.swap(i, j);
        }
    }

    /// Samples `k` distinct indices from `[0, n)` (Floyd's algorithm).
    ///
    /// Returns them in unspecified order. Useful for picking random
    /// neighbor sets without allocating an `n`-sized scratch vector.
    ///
    /// # Panics
    ///
    /// Panics if `k > n`.
    pub fn sample_distinct(&mut self, n: usize, k: usize) -> Vec<usize> {
        assert!(k <= n, "cannot sample {k} distinct values from {n}");
        // Floyd's algorithm: O(k) expected insertions.
        let mut chosen = Vec::with_capacity(k);
        for j in (n - k)..n {
            let t = self.index(j + 1);
            if chosen.contains(&t) {
                chosen.push(j);
            } else {
                chosen.push(t);
            }
        }
        chosen
    }
}

#[cfg(test)]
#[allow(
    clippy::disallowed_methods,
    reason = "R1b exempts tests: each test mints its own root"
)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SpRng::seed_from_u64(123);
        let mut b = SpRng::seed_from_u64(123);
        for _ in 0..64 {
            assert_eq!(a.next_raw(), b.next_raw());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SpRng::seed_from_u64(1);
        let mut b = SpRng::seed_from_u64(2);
        let same = (0..32).filter(|_| a.next_raw() == b.next_raw()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn split_is_deterministic_and_independent_of_consumption() {
        let root = SpRng::seed_from_u64(99);
        let c1 = root.split(5);
        let mut consumed = root.clone();
        for _ in 0..10 {
            consumed.next_raw();
        }
        // Splitting never advances parent state, and split() on a clone
        // that *was* advanced differs (state-dependent), so we check the
        // canonical property: same parent state + same id = same child.
        assert_eq!(c1, root.split(5));
        assert_ne!(c1, root.split(6));
    }

    #[test]
    fn unit_f64_in_range_and_nondegenerate() {
        let mut rng = SpRng::seed_from_u64(7);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let u = rng.unit_f64();
            assert!((0.0..1.0).contains(&u));
            sum += u;
        }
        let mean = sum / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean} too far from 0.5");
    }

    #[test]
    fn below_is_unbiased_ish() {
        let mut rng = SpRng::seed_from_u64(11);
        let mut counts = [0usize; 7];
        for _ in 0..70_000 {
            counts[rng.below(7) as usize] += 1;
        }
        for &c in &counts {
            assert!(
                (c as f64 - 10_000.0).abs() < 500.0,
                "bucket count {c} deviates too much"
            );
        }
    }

    #[test]
    fn below_handles_bound_one() {
        let mut rng = SpRng::seed_from_u64(3);
        for _ in 0..100 {
            assert_eq!(rng.below(1), 0);
        }
    }

    #[test]
    #[should_panic(expected = "positive bound")]
    fn below_zero_panics() {
        SpRng::seed_from_u64(0).below(0);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = SpRng::seed_from_u64(21);
        let mut v: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(
            v,
            (0..100).collect::<Vec<_>>(),
            "shuffle left input unchanged"
        );
    }

    #[test]
    fn sample_distinct_yields_k_unique_in_range() {
        let mut rng = SpRng::seed_from_u64(33);
        for k in [0usize, 1, 5, 50, 100] {
            let s = rng.sample_distinct(100, k);
            assert_eq!(s.len(), k);
            let mut dedup = s.clone();
            dedup.sort_unstable();
            dedup.dedup();
            assert_eq!(dedup.len(), k, "duplicates in sample");
            assert!(s.iter().all(|&x| x < 100));
        }
    }

    #[test]
    fn state_round_trip_continues_the_stream() {
        let mut rng = SpRng::seed_from_u64(77);
        for _ in 0..13 {
            rng.next_raw();
        }
        let mut restored = SpRng::from_state(rng.state());
        for _ in 0..64 {
            assert_eq!(restored.next_raw(), rng.next_raw());
        }
    }
}
