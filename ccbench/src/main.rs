//! `ccbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload for about `--seconds` of measurement and prints, as
//! its last line, `{"correct", "attempted", "failed", "metrics"}`: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. Earlier lines carry provenance and output digests.

use std::process::ExitCode;
use std::time::Duration;

use ccbench::sim::SimWorkload;
use ccbench::{layers, serve, util, Outcome, END_TO_END, PER_LAYER};

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = val,
            "--seed" => args.seed = val.parse().map_err(|e| format!("--seed {val}: {e}"))?,
            "--seconds" => {
                args.seconds = val.parse().map_err(|e| format!("--seconds {val}: {e}"))?;
            }
            "--trace" => {
                args.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {val}")),
                };
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ccbench: {e}");
            return ExitCode::from(2);
        }
    };
    let budget = Duration::from_secs(args.seconds);
    println!("{}", util::provenance_json());
    let result: Result<Outcome, String> = if args.workload == "serve-repeat" {
        serve::run(args.seed, budget, args.trace)
    } else if let Some(w) = SimWorkload::parse(&args.workload) {
        if args.trace {
            layers::run_traced(w, args.seed, budget)
        } else {
            layers::run_untraced(w, args.seed, budget)
        }
    } else {
        Err(format!(
            "unknown workload {:?} (paper-1x2, contention-inf, exp-scale, serve-repeat)",
            args.workload
        ))
    };
    match result {
        Ok(mut out) => {
            if args.trace {
                out.fill_absent(&PER_LAYER);
            } else {
                out.require(&END_TO_END);
            }
            for e in &out.errors {
                println!("{{\"failure\":\"{}\"}}", util::escape(e));
            }
            println!("{}", out.result_line());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("ccbench: {e}");
            ExitCode::FAILURE
        }
    }
}
