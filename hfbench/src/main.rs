//! Command-line entry point; see the crate docs of `hfbench`.

use hfbench::{memory_probe, run, RunConfig, MEMORY_PROBE_PREFIX};
use std::process::ExitCode;

fn main() -> ExitCode {
    let cfg = match RunConfig::from_args(std::env::args().skip(1)) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("hfbench: {e}");
            eprintln!(
                "usage: hfbench --workload serial_ce|ring2_wide|master1_seq --seed N --seconds S --trace 0|1 [--smoke] [--trace-dir DIR]"
            );
            return ExitCode::from(2);
        }
    };
    if cfg.memory_probe {
        return match memory_probe(&cfg) {
            Ok(mb) => {
                println!("{MEMORY_PROBE_PREFIX}{mb}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("hfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    match run(&cfg) {
        Ok(report) => {
            println!(
                "hfbench {} seed {}{}:",
                cfg.workload.name(),
                cfg.seed,
                if cfg.trace { " (traced)" } else { "" }
            );
            print!("{}", report.table());
            println!("{}", report.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("hfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
