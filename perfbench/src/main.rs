//! `perfbench --workload W --seed N --seconds S --trace 0|1`
//!
//! Runs one workload and prints its JSON result as the last line of
//! standard output. Exits 2 on a usage error, 1 when the workload cannot
//! run or any output check fails, and 0 otherwise.

use std::process::ExitCode;

use perfbench::{Args, USAGE};

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match perfbench::run(&args) {
        Ok(result) => result,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload.name());
            return ExitCode::FAILURE;
        }
    };
    for failure in &result.tally.failures {
        eprintln!("perfbench: check failed: {failure}");
    }
    match result.render() {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    }
    if result.tally.failed > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
