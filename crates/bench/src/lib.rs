//! Shared plumbing for the `repro`, `repro_bench` and `check_bench`
//! binaries.
//!
//! `repro` and `repro_bench` read their run mode from three environment
//! variables, so the whole suite can be smoke-tested quickly or run at
//! paper scale:
//!
//! * `REPRO_QUICK=1` — shrink networks and trial counts (~seconds per
//!   figure instead of minutes); `0` or unset runs at paper scale;
//! * `REPRO_SEED=<u64>` — override the root seed;
//! * `SP_THREADS=<n>` — cap the worker-thread budget (default: one
//!   worker per core; never changes the reported numbers).
//!
//! A malformed value is an error, never a silent default: [`mode`]
//! exits 2 with one stderr line naming the variable and its value, and
//! [`setting`] does the same for each binary's own settings
//! (`REPRO_SECTIONS`, `REPRO_SIM_REPS`, `CHECK_BENCH_TOL`).
//!
//! `repro_bench` and `check_bench` print through one [`Console`], so a
//! reader that goes away (`check_bench | head -1`) stops the printing
//! but neither the work nor the exit code.

#![allow(
    clippy::disallowed_methods,
    reason = "D2 allowlist: REPRO_QUICK, REPRO_SEED and SP_THREADS select the run mode; \
              setting() reads the benchmark binaries' own settings"
)]

use std::io::{self, Write};

use sp_core::experiments::Fidelity;

/// How a reproduction runs: the parsed `REPRO_QUICK`, `REPRO_SEED` and
/// `SP_THREADS`.
#[derive(Clone, Copy, Debug, Default)]
pub struct Mode {
    /// Quick mode: scaled-down networks and trial counts.
    pub quick: bool,
    /// The root seed, when overridden.
    pub seed: Option<u64>,
    /// The worker-thread budget (0 = one per core).
    pub threads: usize,
}

/// Reads the run mode from the environment. A malformed value prints
/// one line naming the variable to stderr and exits 2, before anything
/// reaches stdout.
pub fn mode() -> Mode {
    from_env().unwrap_or_else(|e| reject(&e))
}

/// Reads one of a binary's own settings: `None` when `name` is unset,
/// else the value `parse` makes of it. A value `parse` rejects prints
/// one line naming the variable to stderr and exits 2, as [`mode`]
/// does; `what` completes that line's "is not …".
pub fn setting<T>(name: &str, what: &str, parse: impl Fn(&str) -> Option<T>) -> Option<T> {
    var(name).map(|v| parse(&v).unwrap_or_else(|| reject(&format!("{name}={v:?} is not {what}"))))
}

/// Exits 2 with `line` on stderr.
fn reject(line: &str) -> ! {
    eprintln!("{line}");
    std::process::exit(2)
}

fn from_env() -> Result<Mode, String> {
    let quick = match var("REPRO_QUICK").as_deref() {
        None | Some("0") => false,
        Some("1") => true,
        Some(v) => return Err(format!("REPRO_QUICK={v:?} is not 0 or 1")),
    };
    Ok(Mode {
        quick,
        seed: decimal("REPRO_SEED", "u64")?,
        threads: decimal("SP_THREADS", "usize")?.unwrap_or(0),
    })
}

/// A variable's value, `None` when unset. A value that is not UTF-8
/// keeps its replacement characters, so no parse accepts it.
fn var(name: &str) -> Option<String> {
    std::env::var_os(name).map(|v| v.to_string_lossy().into_owned())
}

/// A decimal variable's value, `None` when unset.
fn decimal<T: std::str::FromStr>(name: &str, what: &str) -> Result<Option<T>, String> {
    var(name)
        .map(|v| {
            v.parse()
                .map_err(|_| format!("{name}={v:?} is not a decimal {what}"))
        })
        .transpose()
}

impl Mode {
    /// The evaluation fidelity for this mode.
    pub fn fidelity(&self) -> Fidelity {
        let base = if self.quick {
            Fidelity::quick()
        } else {
            Fidelity::standard()
        };
        Fidelity {
            seed: self.seed.unwrap_or(base.seed),
            threads: self.threads,
            ..base
        }
    }

    /// Scales a paper-scale network size down in quick mode.
    pub fn scaled(&self, paper_size: usize) -> usize {
        if self.quick {
            (paper_size / 10).max(200)
        } else {
            paper_size
        }
    }

    /// Scales a simulated duration down in quick mode.
    pub fn scaled_duration(&self, paper_secs: f64) -> f64 {
        if self.quick {
            (paper_secs / 6.0).max(600.0)
        } else {
            paper_secs
        }
    }

    /// Writes the standard banner for a reproduction to `out`.
    pub fn banner(&self, out: &mut dyn Write, figure: &str, what: &str) -> io::Result<()> {
        let rule = "================================================================";
        writeln!(out, "{rule}")?;
        writeln!(out, "Reproduction of {figure} — {what}")?;
        writeln!(
            out,
            "mode: {}  (set REPRO_QUICK=1 for a fast smoke run)",
            if self.quick { "quick" } else { "paper-scale" }
        )?;
        writeln!(out, "{rule}\n")
    }
}

/// Standard output through one locked handle, for a run whose work
/// must finish even when nobody reads it. A broken pipe closes the
/// console: that write and every later one are dropped and report
/// success, so the run still writes its reports and keeps its exit
/// code. Any other write error is returned.
pub struct Console {
    out: io::StdoutLock<'static>,
    closed: bool,
}

impl Console {
    /// Locks standard output for the rest of the run.
    pub fn stdout() -> Console {
        Console {
            out: io::stdout().lock(),
            closed: false,
        }
    }

    /// Closes the console on a broken pipe and passes on anything else.
    fn settle(&mut self, written: io::Result<()>) -> io::Result<()> {
        match written {
            Err(e) if e.kind() == io::ErrorKind::BrokenPipe => {
                self.closed = true;
                Ok(())
            }
            other => other,
        }
    }
}

impl Write for Console {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if !self.closed {
            let written = self.out.write_all(buf);
            self.settle(written)?;
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        if self.closed {
            return Ok(());
        }
        let flushed = self.out.flush();
        self.settle(flushed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_respects_quick_mode() {
        // Quick mode divides sizes by 10 and durations by 6, each with
        // a floor; paper scale leaves both alone.
        let quick = Mode {
            quick: true,
            ..Mode::default()
        };
        assert_eq!(quick.scaled(10_000), 1000);
        assert_eq!(quick.scaled(500), 200);
        assert_eq!(quick.scaled_duration(7200.0), 1200.0);
        assert_eq!(quick.scaled_duration(1800.0), 600.0);
        assert_eq!(Mode::default().scaled(10_000), 10_000);
        assert_eq!(Mode::default().scaled_duration(7200.0), 7200.0);
    }
}
