//! Contended SMP sweep runner (DESIGN.md §9): p50/p90/p99 hook latency and
//! aggregate throughput per thread count for the plain hook and for hooks
//! racing policy reloads.
//!
//! Usage:
//!   cargo run --release -p sack-lmbench --example contended_sweep -- \
//!       [--threads 1,2,4,8] [--iters 20000] [--json PATH]
//!
//! Prints the human table, then machine-readable `smp_meta` / `smp_point` /
//! `smp_efficiency` lines for `scripts/bench_gate.sh`. With `--json PATH`,
//! also writes the `smp` block spliced into `BENCH_hook_latency.json`.
//! Thread counts above the host's available parallelism get no
//! `smp_efficiency` line and no `scaling_efficiency` field.

use sack_lmbench::{
    render_contended_sweep, run_contended_sweep, ContendedScenario, ContendedSweep,
};

fn main() {
    let mut threads: Vec<usize> = vec![1, 2, 4, 8];
    let mut iters: usize = 20_000;
    let mut json_path: Option<String> = None;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--threads" => {
                i += 1;
                threads = args[i]
                    .split(',')
                    .map(|t| t.parse().expect("--threads takes e.g. 1,2,4,8"))
                    .collect();
            }
            "--iters" => {
                i += 1;
                iters = args[i].parse().expect("--iters takes a count");
            }
            "--json" => {
                i += 1;
                json_path = Some(args[i].clone());
            }
            other => panic!("unknown argument {other:?}"),
        }
        i += 1;
    }

    let sweep = run_contended_sweep(&threads, iters);
    print!("{}", render_contended_sweep(&sweep));

    println!(
        "smp_meta available_parallelism={} iters_per_thread={}",
        sweep.available_parallelism, sweep.iters_per_thread
    );
    for point in &sweep.points {
        println!(
            "smp_point scenario={} threads={} p50_ns={} p90_ns={} p99_ns={} ops_per_sec={:.1}",
            point.scenario.name(),
            point.threads,
            point.p50_ns,
            point.p90_ns,
            point.p99_ns,
            point.ops_per_sec
        );
    }
    let max_threads = threads.iter().copied().max().unwrap_or(1);
    for scenario in ContendedScenario::ALL {
        if let Some(e) = sweep.efficiency(scenario, max_threads) {
            println!(
                "smp_efficiency scenario={} threads={max_threads} value={e:.3}",
                scenario.name()
            );
        }
    }

    if let Some(path) = json_path {
        std::fs::write(&path, smp_json(&sweep, max_threads)).expect("write --json output");
    }
}

/// The `smp` block of `BENCH_hook_latency.json`, hand-rendered (the repo
/// vendors no serde; the block is small and the schema is validated by
/// `scripts/validate_bench_json.py`).
fn smp_json(sweep: &ContendedSweep, max_threads: usize) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!(
        "    \"available_parallelism\": {},\n",
        sweep.available_parallelism
    ));
    let counts: Vec<String> = sweep
        .points
        .iter()
        .filter(|p| p.scenario == ContendedScenario::Hook)
        .map(|p| p.threads.to_string())
        .collect();
    out.push_str(&format!(
        "    \"thread_counts\": [{}],\n",
        counts.join(", ")
    ));
    out.push_str(&format!(
        "    \"iters_per_thread\": {},\n",
        sweep.iters_per_thread
    ));
    out.push_str(&format!("    \"max_threads\": {max_threads},\n"));
    out.push_str("    \"scenarios\": {\n");
    for (si, scenario) in ContendedScenario::ALL.into_iter().enumerate() {
        out.push_str(&format!("      \"{}\": {{\n", scenario.json_key()));
        let mut fields: Vec<String> = sweep
            .points
            .iter()
            .filter(|p| p.scenario == scenario)
            .map(|point| {
                format!(
                    "        \"t{}\": {{ \"p50_ns\": {}, \"p90_ns\": {}, \"p99_ns\": {}, \"ops_per_sec\": {:.1} }}",
                    point.threads, point.p50_ns, point.p90_ns, point.p99_ns, point.ops_per_sec
                )
            })
            .collect();
        if let Some(efficiency) = sweep.efficiency(scenario, max_threads) {
            fields.push(format!("        \"scaling_efficiency\": {efficiency:.3}"));
        }
        out.push_str(&fields.join(",\n"));
        out.push('\n');
        let comma = if si + 1 < ContendedScenario::ALL.len() {
            ","
        } else {
            ""
        };
        out.push_str(&format!("      }}{comma}\n"));
    }
    out.push_str("    }\n");
    out.push_str("  }");
    out
}
