//! Three-resource load accounting.
//!
//! The paper measures load along three resources, kept separate because
//! their availability differs (Section 4): **incoming bandwidth** and
//! **outgoing bandwidth** in bits per second (asymmetric links such as
//! cable modems make upstream the bottleneck even when downstream is
//! abundant), and **processing power** in Hz.

use std::ops::{Add, AddAssign, Mul};

/// A load (or load rate) along the paper's three resources.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Load {
    /// Incoming (downstream) bandwidth, bits per second.
    pub in_bw: f64,
    /// Outgoing (upstream) bandwidth, bits per second.
    pub out_bw: f64,
    /// Processing, cycles per second (Hz).
    pub proc: f64,
}

impl Load {
    /// The zero load.
    pub const ZERO: Load = Load {
        in_bw: 0.0,
        out_bw: 0.0,
        proc: 0.0,
    };

    /// Total bandwidth (in + out), the quantity Figure 4 plots.
    pub fn total_bw(&self) -> f64 {
        self.in_bw + self.out_bw
    }

    /// Component-wise maximum.
    pub fn max(&self, other: &Load) -> Load {
        Load {
            in_bw: self.in_bw.max(other.in_bw),
            out_bw: self.out_bw.max(other.out_bw),
            proc: self.proc.max(other.proc),
        }
    }

    /// Whether every component is within `limit`'s components.
    pub fn fits_within(&self, limit: &Load) -> bool {
        self.in_bw <= limit.in_bw && self.out_bw <= limit.out_bw && self.proc <= limit.proc
    }

    /// Scales all components.
    pub fn scaled(&self, factor: f64) -> Load {
        Load {
            in_bw: self.in_bw * factor,
            out_bw: self.out_bw * factor,
            proc: self.proc * factor,
        }
    }
}

impl Add for Load {
    type Output = Load;
    fn add(self, rhs: Load) -> Load {
        Load {
            in_bw: self.in_bw + rhs.in_bw,
            out_bw: self.out_bw + rhs.out_bw,
            proc: self.proc + rhs.proc,
        }
    }
}

impl AddAssign for Load {
    fn add_assign(&mut self, rhs: Load) {
        self.in_bw += rhs.in_bw;
        self.out_bw += rhs.out_bw;
        self.proc += rhs.proc;
    }
}

impl Mul<f64> for Load {
    type Output = Load;
    fn mul(self, rhs: f64) -> Load {
        self.scaled(rhs)
    }
}

impl std::fmt::Display for Load {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "in {:.3e} bps, out {:.3e} bps, proc {:.3e} Hz",
            self.in_bw, self.out_bw, self.proc
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let a = Load {
            in_bw: 1.0,
            out_bw: 2.0,
            proc: 3.0,
        };
        let b = Load {
            in_bw: 10.0,
            out_bw: 20.0,
            proc: 30.0,
        };
        let sum = a + b;
        assert_eq!(sum.in_bw, 11.0);
        assert_eq!(sum.total_bw(), 33.0);
        let scaled = a * 2.0;
        assert_eq!(scaled.out_bw, 4.0);
        let mut acc = Load::ZERO;
        acc += a;
        acc += a;
        assert_eq!(acc.proc, 6.0);
    }

    #[test]
    fn fits_within_componentwise() {
        let limit = Load {
            in_bw: 100.0,
            out_bw: 100.0,
            proc: 1000.0,
        };
        let ok = Load {
            in_bw: 99.0,
            out_bw: 100.0,
            proc: 0.0,
        };
        let too_much_proc = Load {
            in_bw: 0.0,
            out_bw: 0.0,
            proc: 1001.0,
        };
        assert!(ok.fits_within(&limit));
        assert!(!too_much_proc.fits_within(&limit));
    }

    #[test]
    fn componentwise_max() {
        let a = Load {
            in_bw: 5.0,
            out_bw: 1.0,
            proc: 0.0,
        };
        let b = Load {
            in_bw: 2.0,
            out_bw: 3.0,
            proc: 9.0,
        };
        let m = a.max(&b);
        assert_eq!(
            m,
            Load {
                in_bw: 5.0,
                out_bw: 3.0,
                proc: 9.0
            }
        );
    }

    #[test]
    fn display_mentions_units() {
        let s = Load::ZERO.to_string();
        assert!(s.contains("bps") && s.contains("Hz"));
    }
}
