//! `cogsys-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints the run's identifying line (host fingerprint, workload, seed), in a
//! traced run the exact-count block, and as the last line the result object.
//! Exits non-zero on bad arguments, on a failure to build the system, and on
//! any output-check violation.

use cogsys_perfbench::{header_json, run, Settings};
use std::process::ExitCode;

fn main() -> ExitCode {
    let settings = match Settings::parse(std::env::args().skip(1)) {
        Ok(settings) => settings,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run(&settings) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("{}", header_json(&settings));
    if settings.trace {
        println!("{}", outcome.exact_json());
    }
    for violation in &outcome.violations {
        eprintln!("perfbench: check failed: {violation}");
    }
    println!("{}", outcome.result_json());
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
