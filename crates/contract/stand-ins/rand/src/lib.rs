//! Stand-in for `rand`: only the paths the static determinism contract
//! bans (DESIGN.md §13), so the clippy.toml entries naming them resolve
//! in the rule fixtures.

/// Generator types.
pub mod rngs {
    /// Operating-system entropy.
    pub struct OsRng;
    /// A small, fast generator.
    pub struct SmallRng;
    /// The standard generator.
    pub struct StdRng;
    /// The thread-local generator.
    pub struct ThreadRng;
}

/// Generators built from a seed.
pub trait SeedableRng: Sized {
    /// Builds a generator from a 64-bit seed.
    fn seed_from_u64(state: u64) -> Self;

    /// Builds a generator from process entropy.
    fn from_entropy() -> Self {
        Self::seed_from_u64(0)
    }
}

impl SeedableRng for rngs::SmallRng {
    fn seed_from_u64(_state: u64) -> Self {
        rngs::SmallRng
    }
}

/// The thread-local generator.
pub fn thread_rng() -> rngs::ThreadRng {
    rngs::ThreadRng
}
