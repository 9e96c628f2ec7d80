//! `spnet` — command-line front end for the super-peer network design
//! and evaluation library.
//!
//! Run `spnet help` for usage. Every subcommand is a thin wrapper over
//! the `sp-core` public API, so anything the CLI does is equally
//! available as a library call.

// S2 of the static determinism contract (DESIGN.md §13).
#![deny(clippy::unwrap_used)]

mod args;
mod commands;
mod error;
mod usage;

use std::process::ExitCode;

use args::Args;
use error::CliError;

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let parsed = match Args::parse(raw) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(CliError::from(e).exit_code());
        }
    };
    let command = parsed
        .positional()
        .first()
        .map(String::as_str)
        .unwrap_or("help");
    let result = match command {
        "evaluate" => commands::evaluate(&parsed),
        "design" => commands::design_cmd(&parsed),
        "simulate" => commands::simulate(&parsed),
        "campaign" => commands::campaign(&parsed),
        "sweep" => commands::sweep(&parsed),
        "epl" => commands::epl(&parsed),
        "help" | "--help" | "-h" => Ok(commands::help()),
        other => Err(CliError::Usage(format!(
            "unknown command {other:?} — run `spnet help`"
        ))),
    };
    match result {
        Ok(output) => {
            // Write without panicking when the reader goes away
            // (`spnet epl | head` must not backtrace on SIGPIPE).
            use std::io::Write;
            let mut stdout = std::io::stdout().lock();
            match writeln!(stdout, "{output}").and_then(|()| stdout.flush()) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("error: cannot write output: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(e.exit_code())
        }
    }
}
