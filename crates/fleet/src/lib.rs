//! `sack-fleet` — the fleet telemetry plane (DESIGN.md §13).
//!
//! One vehicle runs one SACK kernel; a fleet backend watches thousands.
//! This crate closes that loop for the in-process reproduction:
//!
//! * [`FleetAggregator`] registers O(1000) kernel instances, pull-folds
//!   their [`TelemetrySnapshot`]s on a tick into per-cohort and fleet
//!   rollups, and re-exposes everything through a single Prometheus
//!   endpoint with `instance`/`cohort` labels;
//! * [`DetectorBank`] streams the per-tick deltas through three anomaly
//!   detectors — denial-rate spike (EWMA baseline), transition storm,
//!   flight-ring overflow — each raising a
//!   typed [`FleetAlert`] with a flight-recorder excerpt;
//! * [`RolloutDriver`] stages a candidate policy cohort-by-cohort with
//!   the detectors as the promotion gate: clean soak windows promote,
//!   any alert republishes the prior policy over the existing RCU reload
//!   path, and every decision is a `fleet_rollout_*` tracepoint.
//!
//! Aggregation leans entirely on snapshot merge being associative and
//! commutative: the per-cohort fold trees here produce bit-identical
//! results to a flat serial fold, which the differential tests exploit.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod aggregator;
pub mod detect;
pub mod rollout;

pub use aggregator::{CohortReport, FleetAggregator, FleetTick};
pub use detect::{DetectorBank, DetectorConfig, FleetAlert, FleetAlertKind};
pub use rollout::{RolloutConfig, RolloutDriver, RolloutStatus};

#[doc(no_inline)]
pub use sack_core::TelemetrySnapshot;

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use sack_core::{Sack, TelemetrySnapshot};
    use sack_kernel::cred::Credentials;
    use sack_kernel::kernel::{Kernel, KernelBuilder};
    use sack_kernel::lsm::{AccessMask, HookCtx, ObjectRef, SecurityModule};
    use sack_kernel::path::KPath;
    use sack_kernel::trace::Tracepoint;
    use sack_kernel::types::Pid;

    use super::*;

    /// Grants read on the car device tree in every situation.
    const BASE_POLICY: &str = r#"
        states { normal = 0; emergency = 1; }
        events { crash; rescue_done; }
        transitions { normal -crash-> emergency; emergency -rescue_done-> normal; }
        initial normal;
        permissions { CAR; }
        state_per { normal: CAR; emergency: CAR; }
        per_rules { CAR: allow subject=* /dev/car/** r; }
    "#;

    /// Candidate that (deliberately) revokes door reads: the car tree stays
    /// in the protected set (the rule still covers it) but only grants
    /// writes, so reads start failing the moment it lands on a cohort.
    const NARROW_POLICY: &str = r#"
        states { normal = 0; emergency = 1; }
        events { crash; rescue_done; }
        transitions { normal -crash-> emergency; emergency -rescue_done-> normal; }
        initial normal;
        permissions { CAR; }
        state_per { normal: CAR; emergency: CAR; }
        per_rules { CAR: allow subject=* /dev/car/** w; }
    "#;

    fn boot(policy: &str) -> (Arc<Kernel>, Arc<Sack>) {
        let sack = Sack::independent(policy).expect("test policy must compile");
        let kernel = KernelBuilder::new()
            .security_module(Arc::clone(&sack) as Arc<dyn SecurityModule>)
            .boot();
        sack.attach(&kernel).expect("attach");
        kernel.trace().set_enabled(true);
        (kernel, sack)
    }

    /// Dispatches `n` door reads through the kernel's LSM stack (so the
    /// `hook_*` tracepoints fire) and returns how many were granted.
    fn read_door(kernel: &Kernel, n: usize) -> usize {
        open_door(kernel, n, AccessMask::READ)
    }

    /// Dispatches `n` door writes — never granted by the test policies.
    fn deny_door(kernel: &Kernel, n: usize) -> usize {
        n - open_door(kernel, n, AccessMask::WRITE)
    }

    fn open_door(kernel: &Kernel, n: usize, mask: AccessMask) -> usize {
        let ctx = HookCtx::new(Pid(4321), Credentials::user(1000, 1000), None);
        let path = KPath::new("/dev/car/door0").expect("path");
        let obj = ObjectRef::regular(&path);
        (0..n)
            .filter(|_| kernel.lsm().file_open(&ctx, &obj, mask).is_ok())
            .count()
    }

    fn fleet(cohorts: &[(&str, usize)]) -> (Arc<FleetAggregator>, Vec<(Arc<Kernel>, Arc<Sack>)>) {
        let agg = FleetAggregator::new();
        let mut instances = Vec::new();
        for (cohort, n) in cohorts {
            for _ in 0..*n {
                let (kernel, sack) = boot(BASE_POLICY);
                agg.register(&kernel, &sack, cohort);
                instances.push((kernel, sack));
            }
        }
        (agg, instances)
    }

    #[test]
    fn tick_folds_cohorts_and_matches_serial_fold() {
        let (agg, instances) = fleet(&[("canary", 2), ("wave-1", 3)]);
        for (kernel, _) in &instances {
            assert_eq!(read_door(kernel, 10), 10);
        }
        let tick = agg.tick();
        assert_eq!(tick.tick, 1);
        assert_eq!(tick.cohorts["canary"].live, 2);
        assert_eq!(tick.cohorts["wave-1"].live, 3);
        assert!(tick.cohorts["canary"].cumulative.hook_exits() >= 20);
        // The tree fold must equal a flat serial fold of fresh captures.
        let mut serial = TelemetrySnapshot::default();
        for (_, sack) in &instances {
            let tracing = sack.tracing().expect("tracing installed");
            let mut snap = TelemetrySnapshot::capture(tracing);
            // capture() stamps a fresh generation; normalize it away so the
            // comparison only sees the monotone counters.
            for generation in snap.instances.values_mut() {
                *generation = 0;
            }
            serial.merge(&snap);
        }
        let mut folded = tick.fleet.clone();
        for generation in folded.instances.values_mut() {
            *generation = 0;
        }
        assert_eq!(folded, serial);
        assert_eq!(
            folded.hook_latency().percentile(0.99),
            serial.hook_latency().percentile(0.99)
        );
    }

    #[test]
    fn dead_instance_mid_fold_is_reported_not_panicked() {
        let (agg, mut instances) = fleet(&[("canary", 3)]);
        for (kernel, _) in &instances {
            read_door(kernel, 5);
        }
        agg.tick();
        instances.pop();
        let tick = agg.tick();
        assert_eq!(tick.cohorts["canary"].live, 2);
        assert_eq!(tick.cohorts["canary"].dead, 1);
        // The dead member's last capture still counts toward the rollup.
        assert!(tick.cohorts["canary"].cumulative.hook_exits() >= 15);
    }

    #[test]
    fn prometheus_endpoint_pairs_help_and_type_for_every_family() {
        let (agg, instances) = fleet(&[("canary", 1), ("wave-1", 1)]);
        read_door(&instances[0].0, 4);
        agg.tick();
        agg.record_alert("denial_spike");
        let text = agg.render_prometheus();
        let mut families = 0;
        let mut last_help: Option<String> = None;
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("# HELP ") {
                last_help = rest.split_whitespace().next().map(str::to_string);
            } else if let Some(rest) = line.strip_prefix("# TYPE ") {
                let name = rest.split_whitespace().next().expect("family name");
                assert_eq!(
                    last_help.as_deref(),
                    Some(name),
                    "family {name} must carry HELP immediately before TYPE"
                );
                families += 1;
            }
        }
        assert!(families >= 10, "expected a rich endpoint, got {families}");
        assert!(text.contains("sack_fleet_instances{cohort=\"canary\"} 1"));
        assert!(text.contains("cohort=\"wave-1\""));
        assert!(text.contains("sack_fleet_instance_hook_exits_total{instance=\""));
        assert!(text.contains("sack_fleet_alerts_total{kind=\"denial_spike\"} 1"));
    }

    #[test]
    fn denial_spike_detector_primes_then_fires_with_excerpt() {
        let (agg, instances) = fleet(&[("canary", 1)]);
        let kernel = &instances[0].0;
        let mut bank = DetectorBank::new(DetectorConfig::default());

        // Tick 1 primes the EWMA baseline: no alert even though the count
        // is nonzero from the bank's point of view.
        read_door(kernel, 50);
        let alerts = bank.observe(&agg.tick(), &agg);
        assert!(alerts.is_empty(), "first observation must only prime");

        // A denial burst (writes are never granted) must trip the spike.
        assert_eq!(deny_door(kernel, 64), 64);
        let alerts = bank.observe(&agg.tick(), &agg);
        assert_eq!(alerts.len(), 1, "{alerts:?}");
        let alert = &alerts[0];
        assert_eq!(alert.kind, FleetAlertKind::DenialSpike);
        assert_eq!(alert.cohort, "canary");
        assert!(
            !alert.flight_excerpt.is_empty(),
            "alert must carry a flight excerpt"
        );
    }

    #[test]
    fn rollout_promotes_cohort_by_cohort_on_clean_telemetry() {
        let (agg, instances) = fleet(&[("canary", 2), ("wave-1", 2)]);
        let config = RolloutConfig {
            soak_ticks: 2,
            ..RolloutConfig::default()
        };
        let mut driver = RolloutDriver::new(
            Arc::clone(&agg),
            vec!["canary".to_string(), "wave-1".to_string()],
            BASE_POLICY,
            BASE_POLICY,
            config,
        );
        let mut steps = 0;
        while !driver.finished() {
            for (kernel, _) in &instances {
                read_door(kernel, 5);
            }
            driver.step();
            steps += 1;
            assert!(steps < 32, "rollout must converge");
        }
        assert_eq!(driver.status(), RolloutStatus::Promoted);
        let hub = agg.hub();
        assert_eq!(hub.fired(Tracepoint::FleetRolloutBegin), 1);
        assert_eq!(hub.fired(Tracepoint::FleetRolloutPush), 2);
        assert_eq!(hub.fired(Tracepoint::FleetRolloutPromote), 2);
        assert_eq!(hub.fired(Tracepoint::FleetRolloutRollback), 0);
        assert_eq!(hub.fired(Tracepoint::FleetRolloutComplete), 1);
        // Decisions are mirrored into member flight recorders.
        let tracing = instances[0].1.tracing().expect("tracing");
        assert!(tracing
            .flight()
            .snapshot()
            .iter()
            .any(|e| e.event.tracepoint() == Tracepoint::FleetRolloutPush));
    }

    #[test]
    fn rollout_rolls_back_on_canary_denial_spike() {
        let (agg, instances) = fleet(&[("canary", 2), ("wave-1", 2)]);
        let config = RolloutConfig {
            soak_ticks: 4,
            ..RolloutConfig::default()
        };
        let mut driver = RolloutDriver::new(
            Arc::clone(&agg),
            vec!["canary".to_string(), "wave-1".to_string()],
            NARROW_POLICY,
            BASE_POLICY,
            config,
        );
        // Step 1: prime + push to canary. The candidate revokes door reads,
        // so ordinary canary traffic now shows up as a denial spike.
        driver.step();
        for (kernel, _) in &instances[..2] {
            assert_eq!(read_door(kernel, 40), 0, "candidate must deny doors");
        }
        for (kernel, _) in &instances[2..] {
            assert_eq!(read_door(kernel, 40), 40, "wave-1 still on prior");
        }
        driver.step();
        let status = driver.status();
        let RolloutStatus::RolledBack { cohort, reason } = status else {
            panic!("expected rollback, got {status}");
        };
        assert_eq!(cohort, "canary");
        assert!(reason.contains("denial_spike"), "{reason}");
        // Rollback republished the prior policy: door reads work again.
        for (kernel, _) in &instances {
            assert_eq!(read_door(kernel, 8), 8, "prior policy restored");
        }
        let hub = agg.hub();
        assert_eq!(hub.fired(Tracepoint::FleetRolloutRollback), 1);
        assert_eq!(hub.fired(Tracepoint::FleetRolloutComplete), 1);
        // The fleet flight recorder replays the decision trail.
        let decisions: Vec<Tracepoint> = agg
            .tracing()
            .flight()
            .snapshot()
            .iter()
            .map(|e| e.event.tracepoint())
            .filter(|p| {
                matches!(
                    p,
                    Tracepoint::FleetRolloutBegin
                        | Tracepoint::FleetRolloutPush
                        | Tracepoint::FleetRolloutRollback
                        | Tracepoint::FleetRolloutComplete
                )
            })
            .collect();
        assert_eq!(
            decisions,
            vec![
                Tracepoint::FleetRolloutBegin,
                Tracepoint::FleetRolloutPush,
                Tracepoint::FleetRolloutRollback,
                Tracepoint::FleetRolloutComplete,
            ]
        );
    }
}
