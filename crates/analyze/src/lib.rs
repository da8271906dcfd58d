//! `sack-analyze` — pre-deployment correctness tooling for SACK policy
//! bundles and the lock-free hot path.
//!
//! Three pillars:
//!
//! 1. **Static policy/SSM analysis** ([`analyzer`]): aggregates the core
//!    checker's per-policy diagnostics (reachability, dead states, events
//!    that never fire, shadowed rules, allow/deny conflicts) and layers on
//!    cross-layer checks that only make sense with the whole bundle in
//!    view — privilege widening across situations, SACK-protected paths
//!    left wide open in a stacked AppArmor profile, and TE policies that
//!    statically allow what SACK gates behind a situation. Findings are
//!    [`diag::Diagnostic`]s with severity, stable check ids, and rule
//!    provenance, renderable as text or a machine-readable JSON
//!    [`diag::Report`].
//! 2. **Trace forensics** ([`trace`]): a parser and linter for the
//!    sack-trace flight-recorder dumps exported at
//!    `/sys/kernel/security/SACK/tracing/flight`, plus a Prometheus
//!    exposition validator for the `tracing/metrics` node and an
//!    end-to-end `--self-check` that boots an in-memory stacked kernel
//!    and proves the whole observability path (`sack-analyze trace`).
//!    The [`fleet`] module extends the same forensics to the fleet
//!    telemetry plane: lints over `FleetAlert` streams and a
//!    multi-cohort rollout self-check (`sack-analyze fleet`).
//! 3. **Bounded interleaving checking** ([`interleave`], [`models`]): a
//!    deterministic loom-style explorer that exhaustively enumerates every
//!    schedule of small thread programs modelling the hand-rolled
//!    `Rcu<T>` hazard-slot reclamation, the AppArmor profile-table
//!    replace and the sensor submission ring, asserting memory safety,
//!    linearizability of grant/deny outcomes and exact frame accounting.
//!    Known-bad mutations (skip the hazard scan, split the table publish)
//!    are caught with a concrete interleaving trace.
//! 4. **Deterministic-schedule execution** ([`sched`]): the same bounded
//!    exploration applied to the **real** implementations instead of
//!    models — `Rcu`, `RingIn`, and `LazySlot` run
//!    unmodified over the `sack_kernel::sync::shim` seam with every
//!    primitive under scheduler control, planted mutations are caught
//!    with printed counterexample schedules, and the abstract models'
//!    counterexamples are replayed through the real code
//!    ([`sched::conformance`]). The [`sync_lint`] source pass keeps the
//!    seam airtight by rejecting direct `std::sync` use in the protocol
//!    files.
//!
//! The `sack-analyze` binary wires the static pillar to the command line;
//! `PolicySimulator` and `Sack::reload_policy` run the per-policy subset
//! automatically at load time.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod analyzer;
pub mod diag;
pub mod fleet;
pub mod interleave;
pub mod models;
pub mod sched;
pub mod sync_lint;
pub mod trace;

pub use analyzer::{profile_dfa_sizes_of, Analyzer};
pub use diag::{CompiledDfaSize, DfaSize, Diagnostic, ProfileDfaSize, Report};
pub use fleet::{fleet_self_check, lint_alerts as lint_fleet_alerts, AlertFinding};
pub use interleave::{explore, Exploration, Model, Violation};
pub use models::{
    ProfileTableConfig, RcuConfig, RcuModel, RcuProfileTableModel, RingConfig, RingModel,
};
pub use sched::{SchedBackend, SchedConfig, SchedExploration, SchedViolation};
pub use sync_lint::{lint_paths, LintFinding};
pub use trace::{
    lint_flight, parse_flight, render_report, self_check, validate_prometheus, Anomaly, FlightDump,
    FlightRecord,
};
