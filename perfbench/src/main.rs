//! Command line of the benchmark:
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Prints a provenance line and then, as the last line of standard
//! output, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. Exits nonzero when an argument is bad, set-up fails, or any
//! op failed or produced a wrong output.

use perfbench::{run, Config};
use std::path::PathBuf;
use std::process::ExitCode;

fn parse(args: &[String]) -> Result<Config, String> {
    let mut cfg = Config {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        tiny: false,
        corrupt_expected: false,
        out_dir: PathBuf::from("perfbench").join("out"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => cfg.workload = value()?.clone(),
            "--seed" => cfg.seed = value()?.parse().map_err(|_| "--seed wants an integer")?,
            "--seconds" => {
                cfg.seconds = value()?.parse().map_err(|_| "--seconds wants a number")?;
            }
            "--trace" => {
                cfg.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace wants 0 or 1".into()),
                }
            }
            // Test aids: tiny inputs, and expectations corrupted on
            // purpose (the negative test of the output checks).
            "--tiny" => cfg.tiny = true,
            "--corrupt-expected" => cfg.corrupt_expected = true,
            "--out" => cfg.out_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if cfg.workload.is_empty() {
        return Err("--workload is required".into());
    }
    if !cfg.seconds.is_finite() || cfg.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(cfg)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&cfg) {
        Ok(outcome) => {
            println!("{}", outcome.notes_json());
            println!("{}", outcome.result_json());
            if outcome.correct() {
                ExitCode::SUCCESS
            } else {
                eprintln!(
                    "perfbench: {} of {} ops failed or produced a wrong output",
                    outcome.failed, outcome.attempted
                );
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", cfg.workload);
            ExitCode::from(3)
        }
    }
}
