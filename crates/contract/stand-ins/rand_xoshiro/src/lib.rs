//! Stand-in for `rand_xoshiro`: only the generator types the static
//! determinism contract bans (DESIGN.md §13, R1a).

/// xoshiro128++.
pub struct Xoshiro128PlusPlus;
/// xoshiro256++.
pub struct Xoshiro256PlusPlus;
/// xoshiro256**.
pub struct Xoshiro256StarStar;
