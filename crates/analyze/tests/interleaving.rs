//! Exhaustive interleaving checks over the lock-free hot-path models,
//! at a scale that matters: at least two readers, one writer, and an
//! epoch bump — proven over *every*
//! schedule, with known-bad mutations producing concrete
//! counterexamples.

use sack_analyze::{explore, Model, ProfileTableConfig, RcuConfig, RcuModel, RcuProfileTableModel};

const DEPTH: usize = 96;

#[test]
fn rcu_two_readers_one_writer_two_updates_is_safe() {
    let stats = explore(&RcuModel::new(RcuConfig::correct(2, 2)), DEPTH)
        .unwrap_or_else(|v| panic!("counterexample found: {v}"));
    assert!(stats.complete_schedules > 0);
}

#[test]
fn rcu_three_readers_exhaust_without_violation() {
    let stats = explore(&RcuModel::new(RcuConfig::correct(3, 1)), DEPTH)
        .unwrap_or_else(|v| panic!("counterexample found: {v}"));
    assert!(stats.complete_schedules > 0);
}

#[test]
fn rcu_without_validation_has_a_use_after_free_schedule() {
    let config = RcuConfig {
        skip_validation: true,
        ..RcuConfig::correct(2, 2)
    };
    let violation =
        explore(&RcuModel::new(config), DEPTH).expect_err("mutated model must be caught");
    assert!(violation.message.contains("use-after-free"), "{violation}");
    assert!(!violation.schedule.is_empty(), "trace must be replayable");
}

#[test]
fn rcu_without_hazard_scan_has_a_use_after_free_schedule() {
    let config = RcuConfig {
        skip_hazard_scan: true,
        ..RcuConfig::correct(2, 2)
    };
    let violation =
        explore(&RcuModel::new(config), DEPTH).expect_err("mutated model must be caught");
    assert!(violation.message.contains("use-after-free"), "{violation}");
}

#[test]
fn rcu_counterexample_replays_deterministically() {
    let config = RcuConfig {
        skip_hazard_scan: true,
        ..RcuConfig::correct(2, 2)
    };
    let violation = explore(&RcuModel::new(config), DEPTH).unwrap_err();
    // Replay the reported schedule step by step from the initial state:
    // the final step must reproduce exactly the reported violation.
    let mut model = RcuModel::new(config);
    let (last, prefix) = violation.schedule.split_last().unwrap();
    for &thread in prefix {
        assert!(model.enabled(thread), "schedule must stay enabled");
        model.step(thread).expect("violation only at the last step");
    }
    let err = model.step(*last).expect_err("last step must violate");
    assert_eq!(err, violation.message);
}

#[test]
fn profile_table_replace_with_two_hooks_is_safe() {
    let model = RcuProfileTableModel::new(ProfileTableConfig::correct(2));
    let stats = explore(&model, DEPTH).unwrap_or_else(|v| panic!("counterexample found: {v}"));
    assert!(stats.complete_schedules > 0);
    assert!(stats.states > 100, "only {} states explored", stats.states);
}

#[test]
fn profile_table_replace_with_three_hooks_is_safe() {
    let model = RcuProfileTableModel::new(ProfileTableConfig::correct(3));
    explore(&model, DEPTH).unwrap_or_else(|v| panic!("counterexample found: {v}"));
}

#[test]
fn profile_table_split_publish_tears_a_hook_read() {
    let config = ProfileTableConfig {
        split_publish: true,
        ..ProfileTableConfig::correct(2)
    };
    let violation = explore(&RcuProfileTableModel::new(config), DEPTH)
        .expect_err("mutated model must be caught");
    assert!(
        violation.message.contains("torn profile-table read"),
        "{violation}"
    );
    assert!(!violation.schedule.is_empty());
}

#[test]
fn profile_table_without_epoch_bump_serves_a_stale_grant() {
    let config = ProfileTableConfig {
        skip_epoch_bump: true,
        ..ProfileTableConfig::correct(2)
    };
    let violation = explore(&RcuProfileTableModel::new(config), DEPTH)
        .expect_err("mutated model must be caught");
    assert!(violation.message.contains("linearizability"), "{violation}");
}

#[test]
fn profile_table_early_epoch_bump_caches_a_pre_replace_grant() {
    let config = ProfileTableConfig {
        epoch_before_publish: true,
        ..ProfileTableConfig::correct(2)
    };
    let violation = explore(&RcuProfileTableModel::new(config), DEPTH)
        .expect_err("mutated model must be caught");
    assert!(violation.message.contains("linearizability"), "{violation}");
}

#[test]
fn profile_table_counterexample_replays_deterministically() {
    let config = ProfileTableConfig {
        skip_epoch_bump: true,
        ..ProfileTableConfig::correct(2)
    };
    let violation = explore(&RcuProfileTableModel::new(config), DEPTH).unwrap_err();
    let mut model = RcuProfileTableModel::new(config);
    let (last, prefix) = violation.schedule.split_last().unwrap();
    for &thread in prefix {
        assert!(model.enabled(thread), "schedule must stay enabled");
        model.step(thread).expect("violation only at the last step");
    }
    let err = model.step(*last).expect_err("last step must violate");
    assert_eq!(err, violation.message);
}
