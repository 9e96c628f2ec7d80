//! Shared plumbing for the reproduction binaries.
//!
//! Every `repro_*` binary reads three environment variables so the
//! whole suite can be smoke-tested quickly or run at paper scale:
//!
//! * `REPRO_QUICK=1` — shrink networks and trial counts (~seconds per
//!   figure instead of minutes);
//! * `REPRO_SEED=<u64>` — override the root seed;
//! * `SP_THREADS=<n>` — cap the worker-thread budget (default: one
//!   worker per core; never changes the reported numbers).

#![allow(
    clippy::disallowed_methods,
    reason = "D2 allowlist: REPRO_QUICK, REPRO_SEED and SP_THREADS select the run mode"
)]

use sp_core::experiments::Fidelity;

/// Whether quick mode is requested.
pub fn quick_mode() -> bool {
    std::env::var("REPRO_QUICK")
        .map(|v| v != "0")
        .unwrap_or(false)
}

/// The worker-thread budget from `SP_THREADS` (0 = one per core).
pub fn threads() -> usize {
    std::env::var("SP_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// The evaluation fidelity for the current mode.
pub fn fidelity() -> Fidelity {
    let mut f = if quick_mode() {
        Fidelity::quick()
    } else {
        Fidelity::standard()
    };
    if let Ok(seed) = std::env::var("REPRO_SEED") {
        if let Ok(seed) = seed.parse() {
            f.seed = seed;
        }
    }
    f.threads = threads();
    f
}

/// Scales a paper-scale network size down in quick mode.
pub fn scaled(paper_size: usize) -> usize {
    if quick_mode() {
        (paper_size / 10).max(200)
    } else {
        paper_size
    }
}

/// Scales a simulated duration down in quick mode.
pub fn scaled_duration(paper_secs: f64) -> f64 {
    if quick_mode() {
        (paper_secs / 6.0).max(600.0)
    } else {
        paper_secs
    }
}

/// Prints the standard banner for a reproduction binary.
pub fn banner(figure: &str, what: &str) {
    println!("================================================================");
    println!("Reproduction of {figure} — {what}");
    println!(
        "mode: {}  (set REPRO_QUICK=1 for a fast smoke run)",
        if quick_mode() { "quick" } else { "paper-scale" }
    );
    println!("================================================================\n");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_respects_quick_mode() {
        // Environment-dependent, but the arithmetic is fixed: quick
        // mode divides by 10 with a floor.
        if quick_mode() {
            assert_eq!(scaled(10_000), 1000);
            assert_eq!(scaled(500), 200);
        } else {
            assert_eq!(scaled(10_000), 10_000);
        }
    }
}
