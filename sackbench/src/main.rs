//! `sackbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints the run's facts, any failures and every metric, then, as the
//! last line of standard output, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics` (the end-to-end metrics untraced,
//! the per-layer metrics traced). Exits 1 when a verdict mismatched, 2 on
//! bad arguments.

use std::process::ExitCode;

use sackbench::run::Opts;

fn usage(err: &str) -> ExitCode {
    eprintln!("sackbench: {err}");
    eprintln!(
        "usage: sackbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        sackbench::WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = false;
    let mut plant = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--plant-wrong-verdict" {
            plant = true;
            continue;
        }
        let Some(value) = args.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => match value.parse::<u64>() {
                Ok(s) => seed = Some(s),
                Err(_) => return usage("--seed takes a whole number"),
            },
            "--seconds" => match value.parse::<f64>() {
                Ok(s) if s > 0.0 && s <= 600.0 => seconds = Some(s),
                _ => return usage("--seconds takes a number in (0, 600]"),
            },
            "--trace" => match value.as_str() {
                "0" => traced = false,
                "1" => traced = true,
                _ => return usage("--trace takes 0 or 1"),
            },
            other => return usage(&format!("unknown flag {other}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds)) = (workload, seed, seconds) else {
        return usage("--workload, --seed and --seconds are required");
    };
    let opts = Opts {
        workload,
        seed,
        seconds,
        traced,
        plant_wrong_verdict: plant,
    };
    let Some(report) = sackbench::run_workload(&opts) else {
        return usage(&format!("unknown workload {}", opts.workload));
    };
    report.print(traced);
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
