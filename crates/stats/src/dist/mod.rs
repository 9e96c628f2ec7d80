//! Probability distributions used across the reproduction.
//!
//! The paper draws from the following stochastic sources:
//!
//! * cluster sizes: `C ~ N(c, 0.2c)` (Section 4.1, Step 1) —
//!   [`Normal`] / [`TruncatedDiscreteNormal`];
//! * file counts and session lifespans: heavy-tailed measurement
//!   distributions from Saroiu et al. — [`LogNormal`] and
//!   [`BoundedPareto`];
//! * query popularity `g(j)` of the Appendix B query model — [`Zipf`];
//! * Poisson result counts of the churn engine's query probes —
//!   [`Poisson`].
//!
//! Each distribution exposes `sample(&mut SpRng)` plus its analytic
//! moments where they exist, so tests can verify the samplers against
//! closed forms.

mod lognormal;
mod normal;
mod pareto;
mod poisson;
mod zipf;

pub use lognormal::LogNormal;
pub use normal::{Normal, TruncatedDiscreteNormal};
pub use pareto::BoundedPareto;
pub use poisson::Poisson;
pub use zipf::Zipf;

use crate::rng::SpRng;

/// A distribution over `T` that can be sampled with the crate RNG.
///
/// A local trait (rather than `rand::distr::Distribution`) keeps the
/// sampling contract pinned to [`SpRng`] and lets distributions also be
/// trait objects in configuration structs.
pub trait Sampler<T> {
    /// Draws one sample.
    fn sample(&self, rng: &mut SpRng) -> T;

    /// Draws `n` samples into a fresh vector.
    fn sample_n(&self, rng: &mut SpRng, n: usize) -> Vec<T> {
        (0..n).map(|_| self.sample(rng)).collect()
    }
}
