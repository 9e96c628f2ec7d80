//! Stand-in for `rand_pcg`: only the generator types the static
//! determinism contract bans (DESIGN.md §13, R1a).

/// PCG with 32-bit output.
pub struct Pcg32;
/// PCG with 64-bit output.
pub struct Pcg64;
