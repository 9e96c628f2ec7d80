//! # sp-contract
//!
//! Checks the static determinism contract (DESIGN.md §13), which is
//! clippy configuration. `tests/fixtures` holds one `#[expect]` item per
//! banned construct and the compliant idiom for each rule, for the
//! clippy step to check; `tests/residual.rs` runs what neither clippy
//! nor Cargo can express. The library is [`lexer`], which they read Rust
//! source with. The `stand-ins/` dependencies expose only the banned
//! `rand`, `rand_*` and `rayon` paths, for the `allow-invalid` entries.

#![forbid(unsafe_code)]

pub mod lexer;
