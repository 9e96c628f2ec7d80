//! Stand-in for `rand_chacha`: only the generator types the static
//! determinism contract bans (DESIGN.md §13, R1a).

/// ChaCha with 8 rounds.
pub struct ChaCha8Rng;
/// ChaCha with 12 rounds.
pub struct ChaCha12Rng;
/// ChaCha with 20 rounds.
pub struct ChaCha20Rng;
