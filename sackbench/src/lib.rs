//! # sackbench — the SACK reproduction's end-to-end benchmark
//!
//! One command runs a named workload against the simulated kernel and
//! prints every end-to-end and per-layer metric, checking every verdict
//! against an oracle. See `README.md` in this directory for the workloads,
//! the metrics, and which layer metric should move which end-to-end one.

#![warn(missing_docs)]

pub mod churn;
pub mod control;
pub mod drive;
pub mod env;
pub mod layers;
pub mod oracle;
pub mod report;
pub mod rng;
pub mod run;
pub mod spans;
pub mod stats;
pub mod steady;
pub mod sys;

use run::Opts;

/// Workload names. `BENCHMARK.json` lists `steady` and `drive-cycle`;
/// `churn` runs by name but is not listed, being too unsteady on a shared
/// 2-vCPU host (see `README.md`).
pub const WORKLOADS: [&str; 3] = ["steady", "churn", "drive-cycle"];

/// Runs the workload `opts` names; `None` for an unknown name.
pub fn run_workload(opts: &Opts) -> Option<report::Report> {
    match opts.workload.as_str() {
        "steady" => Some(run::run(&steady::Steady, opts)),
        "churn" => Some(run::run(&churn::Churn, opts)),
        "drive-cycle" => Some(run::run(&drive::DriveCycle, opts)),
        _ => None,
    }
}
