//! **Ablation (DESIGN.md §5.3, §7)** — the SACK hook path two ways on the
//! same policy: the unified per-state DFA walk production runs, and the
//! linear scan (protected-set match + per-state rule walk) it replaced,
//! plus a 100/1k/10k rule-count sweep pitting the two against each other,
//! and the same sweep over what building those tables costs: one
//! `SackPolicy::compile` per rule count.
//!
//! Drives the LSM hooks directly with a fabricated [`HookCtx`] so the
//! numbers isolate the module's decision cost from VFS bookkeeping.
//! `scripts/bench_gate.sh` reads the medians this bench prints.

use std::sync::Arc;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use sack_core::{Sack, SackPolicy};
use sack_kernel::cred::Credentials;
use sack_kernel::lsm::{AccessMask, HookCtx, ObjectRef, SecurityModule};
use sack_kernel::path::KPath;
use sack_kernel::types::Pid;
use sack_lmbench::workload::synthetic_independent_policy;

/// Acceptance configuration: a 100-rule policy.
const STATES: usize = 4;
const RULES: usize = 100;

fn build_sack() -> Arc<Sack> {
    let text = synthetic_independent_policy(STATES, RULES);
    assert!(
        SackPolicy::parse(&text)
            .unwrap()
            .compile()
            .unwrap()
            .rule_count()
            >= RULES,
        "workload must generate at least {RULES} rules"
    );
    Sack::independent(&text).unwrap()
}

fn hook_ctx(pid: u32) -> HookCtx {
    HookCtx::new(
        Pid(pid),
        Credentials::user(1000, 1000),
        Some(KPath::new("/usr/bin/app").unwrap()),
    )
}

/// One protected path per working-set slot; `/protected/area0/s0/**` is
/// granted `rw` in the initial state `s0`.
fn protected_path(i: usize) -> KPath {
    KPath::new(&format!("/protected/area0/s0/devices/dev{i}")).unwrap()
}

/// Benches `file_open` on `sack` with the DFA matcher on (`dfa`) and off
/// (`scan`), cycling through `paths`.
fn bench_both_matchers(
    c: &mut Criterion,
    group: &str,
    sack: &Arc<Sack>,
    ctx: &HookCtx,
    paths: &[KPath],
) {
    let mut group = c.benchmark_group(group);
    for (arm, dfa) in [("dfa", true), ("scan", false)] {
        sack.set_dfa_matcher_enabled(dfa);
        let mut i = 0usize;
        group.bench_with_input(BenchmarkId::from_parameter(arm), sack, |b, s| {
            b.iter(|| {
                let obj = ObjectRef::regular(&paths[i % paths.len()]);
                i = i.wrapping_add(1);
                criterion::black_box(s.file_open(ctx, &obj, AccessMask::READ)).unwrap();
            });
        });
    }
    sack.set_dfa_matcher_enabled(true);
    group.finish();
}

/// One task re-opening one file.
fn bench_single_path(c: &mut Criterion) {
    let sack = build_sack();
    bench_both_matchers(
        c,
        &format!("ablation_hook/{RULES}rules_single"),
        &sack,
        &hook_ctx(4242),
        &[protected_path(0)],
    );
}

/// A task touching a working set of distinct files: the realistic shape of
/// the paper's door/window device loop. The gate's hook p50 is this
/// group's `dfa` arm.
fn bench_working_set(c: &mut Criterion) {
    const SET: usize = 64;
    let sack = build_sack();
    let paths: Vec<KPath> = (0..SET).map(protected_path).collect();
    bench_both_matchers(
        c,
        &format!("ablation_hook/{RULES}rules_wset{SET}"),
        &sack,
        &hook_ctx(4243),
        &paths,
    );
}

/// DFA walk versus linear scan as the rule count grows 100 → 1k → 10k.
/// One policy bed per rule count; the two arms toggle the matcher on the
/// same module instance so they see identical policy objects. Group names
/// (`sweepNrules`) are chosen so the gate's substring matching cannot
/// collide across counts.
fn bench_rule_sweep(c: &mut Criterion) {
    for rules in [100usize, 1_000, 10_000] {
        let sack = Sack::independent(&synthetic_independent_policy(STATES, rules)).unwrap();
        // Probe the *median* rule of the active state's block: a first-rule
        // path lets the linear scan short-circuit immediately and would
        // flatter it; the DFA walk costs the same wherever the rule sits.
        let median_area = rules / STATES / 2;
        let path = KPath::new(&format!("/protected/area{median_area}/s0/devices/dev0")).unwrap();
        bench_both_matchers(
            c,
            &format!("ablation_hook/sweep{rules}rules"),
            &sack,
            &hook_ctx(4244),
            &[path],
        );
    }
}

/// Policy compile cost as the rule count grows 100 → 1k → 10k: checker,
/// rule lints, the one shared subset construction and every state's
/// table, on the pre-parsed policy the hook sweep loads. The gate bounds
/// the 10k/1k growth ratio. Names (`compileNrules`) cannot collide under
/// the gate's substring matching.
fn bench_policy_compile(c: &mut Criterion) {
    let mut group = c.benchmark_group("policy_compile");
    for rules in [100usize, 1_000, 10_000] {
        let policy = SackPolicy::parse(&synthetic_independent_policy(STATES, rules)).unwrap();
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("compile{rules}rules")),
            &policy,
            |b, p| b.iter(|| p.compile().unwrap()),
        );
    }
    group.finish();
}

fn bench_hook_matcher(c: &mut Criterion) {
    bench_single_path(c);
    bench_working_set(c);
    bench_rule_sweep(c);
    bench_policy_compile(c);
}

fn config_criterion() -> Criterion {
    Criterion::default()
        .warm_up_time(Duration::from_millis(150))
        .measurement_time(Duration::from_millis(400))
        .sample_size(10)
}

criterion_group! {
    name = ablation_hook;
    config = config_criterion();
    targets = bench_hook_matcher
}
criterion_main!(ablation_hook);
