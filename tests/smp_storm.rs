//! Full-stack SMP storm (DESIGN.md §9): N worker threads drive the LSM
//! stack while the control plane races them with situation transitions,
//! policy reloads, and AppArmor profile replacements.
//!
//! The properties pinned down here are the ones the lock-free hook path
//! must not break:
//!
//! * **No stale grant** — a decision whose verdict is identical in every
//!   state is never spuriously denied (and vice versa) no matter how the
//!   published policy churns mid-flight;
//! * **Exactly-once publication** — `ssm_transition` fires once per
//!   transition the control plane made and `policy_publish` once per
//!   reload, matching the state machines' own `transitions_taken`;
//! * **Every denial audited** — N workers × M denied probes racing
//!   situation transitions produce exactly N×M denials, N×M audit records
//!   and N×M `audit_emit` firings;
//! * **Serial equivalence** — after the storm quiesces, verdicts match a
//!   freshly-built twin that never saw any concurrency.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use sack_apparmor::{AppArmor, CompileMode, PolicyDb};
use sack_core::{Sack, TransitionOutcome};
use sack_kernel::cred::Credentials;
use sack_kernel::lsm::{AccessMask, HookCtx, ObjectRef, SecurityModule};
use sack_kernel::path::KPath;
use sack_kernel::smp;
use sack_kernel::trace::{TraceHub, Tracepoint};
use sack_kernel::types::Pid;
use sack_lmbench::workload::{
    synthetic_enhanced_policy, synthetic_independent_policy, synthetic_racing_policy, BENCH_EXE,
    BENCH_PROFILE, RACING_SHARED_PREFIX,
};

const STATES: usize = 4;
const WORKERS: usize = 4;

fn probe_ctx(pid: u32, exe: &str) -> HookCtx {
    HookCtx::new(
        Pid(pid),
        Credentials::user(1000, 1000),
        Some(KPath::new(exe).unwrap()),
    )
}

fn open(module: &dyn SecurityModule, ctx: &HookCtx, path: &str, mask: AccessMask) -> bool {
    let path = KPath::new(path).unwrap();
    let obj = ObjectRef::regular(&path);
    module.file_open(ctx, &obj, mask).is_ok()
}

/// Drives `sack` around the synthetic ring until it sits in state
/// `s{target}`, delivering one `goto_s*` event per hop.
fn drive_to_state(sack: &Sack, target: usize) {
    for _ in 0..STATES {
        let here: usize = sack
            .current_state_name()
            .strip_prefix('s')
            .and_then(|s| s.parse().ok())
            .expect("synthetic state name");
        if here == target {
            return;
        }
        let next = (here + 1) % STATES;
        sack.deliver_event(&format!("goto_s{next}"), Duration::ZERO)
            .unwrap();
    }
    panic!("ring never reached s{target}");
}

/// Tentpole driver: workers hammer the hook path while the control plane
/// alternates policy reloads and situation transitions. The `/shared`
/// paths are granted in *every* state, so any mid-storm denial would be a
/// stale or torn verdict; the per-state paths flap legitimately and are
/// only checked after the storm quiesces.
#[test]
fn storm_with_racing_reloads_never_produces_a_stale_verdict() {
    let policy = synthetic_racing_policy(STATES, 32);
    let sack = Sack::independent(&policy).unwrap();
    let hub = TraceHub::new();
    sack.install_tracing(Arc::clone(&hub));
    hub.set_enabled(true);

    let transitions = AtomicU64::new(0);
    let reloads = AtomicU64::new(0);
    // `transitions_taken` restarts with every reloaded state machine, so
    // the control plane banks each retiring machine's count first.
    let taken_before_reload = AtomicU64::new(0);

    const HAMMER: usize = 600;
    let outcome = smp::run_with_control(
        WORKERS,
        |w| {
            let ctx = probe_ctx(7000 + w as u32, BENCH_EXE);
            let shared = format!("{RACING_SHARED_PREFIX}/dev{w}");
            let mut shared_ok = 0usize;
            let mut flapping_allowed = 0usize;
            for i in 0..HAMMER {
                if open(&*sack, &ctx, &shared, AccessMask::READ) {
                    shared_ok += 1;
                }
                // State-dependent path: verdict legitimately flaps with the
                // racing control plane; only the totals are interesting.
                let state_path = format!("/protected/area0/s{}/dev", i % STATES);
                if open(&*sack, &ctx, &state_path, AccessMask::WRITE) {
                    flapping_allowed += 1;
                }
            }
            (shared_ok, flapping_allowed)
        },
        |round| {
            if round % 3 == 0 {
                taken_before_reload.fetch_add(sack.active().ssm.taken_count(), Ordering::Relaxed);
                sack.reload_policy(&policy).unwrap();
                reloads.fetch_add(1, Ordering::Relaxed);
            } else {
                let here: usize = sack
                    .current_state_name()
                    .strip_prefix('s')
                    .and_then(|s| s.parse().ok())
                    .unwrap();
                let next = (here + 1) % STATES;
                let outcome = sack
                    .deliver_event(&format!("goto_s{next}"), Duration::ZERO)
                    .unwrap();
                assert!(matches!(outcome, TransitionOutcome::Transitioned { .. }));
                transitions.fetch_add(1, Ordering::Relaxed);
            }
        },
    );

    // The always-granted path never saw a stale or torn denial.
    for (w, (shared_ok, _)) in outcome.results.iter().enumerate() {
        assert_eq!(
            *shared_ok, HAMMER,
            "worker {w}: /shared verdict flipped during policy churn"
        );
    }
    assert!(outcome.control_rounds >= 1);

    // The control plane is the only source of transitions and reloads:
    // each fires its tracepoint exactly once, and the state machines
    // counted the same transitions the control thread made.
    let made = transitions.load(Ordering::Relaxed);
    let taken = taken_before_reload.load(Ordering::Relaxed) + sack.active().ssm.taken_count();
    assert_eq!(
        taken, made,
        "transitions_taken vs control-plane transitions"
    );
    assert_eq!(hub.fired(Tracepoint::SsmTransition), made);
    assert_eq!(
        hub.fired(Tracepoint::PolicyPublish),
        reloads.load(Ordering::Relaxed)
    );

    // Quiesced: walk the ring and compare every per-state verdict against
    // a twin that was built serially and never raced anything.
    let serial = Sack::independent(&policy).unwrap();
    sack.reload_policy(&policy).unwrap();
    let ctx = probe_ctx(7999, BENCH_EXE);
    for state in 0..STATES {
        drive_to_state(&sack, state);
        drive_to_state(&serial, state);
        for probe_state in 0..STATES {
            let path = format!("/protected/area0/s{probe_state}/dev");
            let stormed = open(&*sack, &ctx, &path, AccessMask::WRITE);
            let expected = open(&*serial, &ctx, &path, AccessMask::WRITE);
            assert_eq!(
                stormed, expected,
                "state s{state}, probe {path}: storm survivor diverged from serial twin"
            );
            assert_eq!(
                stormed,
                probe_state == state,
                "state s{state}, probe {path}"
            );
        }
        let shared = format!("{RACING_SHARED_PREFIX}/post");
        assert!(open(&*sack, &ctx, &shared, AccessMask::READ));
    }
}

/// Every denial audited under concurrency: every worker probes a path
/// that is protected but denied in every state (no state grants `ioctl`)
/// while the control plane walks the situation ring. Each refusal must be
/// counted, audited and traced exactly once: N workers × M probes give
/// N×M denials, N×M audit records and N×M `audit_emit` firings.
#[test]
fn denial_storm_racing_transitions_audits_every_refusal() {
    let sack = Sack::independent(&synthetic_independent_policy(STATES, 8)).unwrap();
    let hub = TraceHub::new();
    sack.install_tracing(Arc::clone(&hub));
    hub.set_enabled(true);

    const DENIED: &str = "/protected/area0/s1/dev";
    let ioctl = |ctx: &HookCtx| {
        let path = KPath::new(DENIED).unwrap();
        sack.file_ioctl(ctx, &ObjectRef::regular(&path), 0).is_err()
    };

    const HAMMER: usize = 500;
    let outcome = smp::run_with_control(
        WORKERS,
        |w| {
            let ctx = probe_ctx(7100 + w as u32, BENCH_EXE);
            let denied = (0..HAMMER).filter(|_| ioctl(&ctx)).count();
            assert_eq!(denied, HAMMER, "worker {w}: denial verdict flipped");
            denied
        },
        |_round| {
            let here: usize = sack
                .current_state_name()
                .strip_prefix('s')
                .and_then(|s| s.parse().ok())
                .unwrap();
            sack.deliver_event(&format!("goto_s{}", (here + 1) % STATES), Duration::ZERO)
                .unwrap();
        },
    );
    assert!(outcome.control_rounds >= 1);

    let expected = (WORKERS * HAMMER) as u64;
    assert_eq!(outcome.results.iter().sum::<usize>() as u64, expected);
    assert_eq!(sack.stats().denials.load(Ordering::SeqCst), expected);
    assert_eq!(
        sack.audit().total(),
        expected,
        "one audit record per denial"
    );
    assert_eq!(hub.fired(Tracepoint::AuditEmit), expected);
}

/// Lazy compilation under storm: the profile database installs every
/// bundle as uncompiled stubs, so each control-plane replacement publishes
/// a table whose DFA the racing hooks must first-touch compile. The base
/// grant must hold in every round (an in-flight build answers from the
/// retained scan matcher — never blocks, never flickers), the
/// `profile_recompile` tracepoint must fire at most once per published
/// bundle (the at-most-once claim under maximal contention), and the
/// quiesced table must agree with an eager serial twin.
#[test]
fn lazy_first_touch_storm_compiles_each_published_body_at_most_once() {
    let db = Arc::new(PolicyDb::new());
    db.set_compile_mode(CompileMode::Lazy);
    let hub = TraceHub::new();
    db.set_trace_hub(Arc::clone(&hub));
    hub.set_enabled(true);
    db.load_text(BENCH_PROFILE).unwrap();
    assert_eq!(db.compile_count(), 0, "lazy load must not compile");
    let apparmor = AppArmor::new(Arc::clone(&db));
    apparmor.set_profile(Pid(7300), "bench").unwrap();

    const HAMMER: usize = 400;
    let reloads = AtomicU64::new(0);
    let outcome = smp::run_with_control(
        WORKERS,
        |w| {
            let ctx = probe_ctx(7300, BENCH_EXE);
            let path = format!("/tmp/bench/lazy{w}");
            let mut ok = 0usize;
            for _ in 0..HAMMER {
                if open(&*apparmor, &ctx, &path, AccessMask::WRITE) {
                    ok += 1;
                }
            }
            ok
        },
        |_round| {
            // Atomic bundle replacement: publishes a fresh uncompiled stub
            // for `bench` that the storm immediately first-touches.
            db.load_text(BENCH_PROFILE).unwrap();
            reloads.fetch_add(1, Ordering::Relaxed);
        },
    );

    for (w, ok) in outcome.results.iter().enumerate() {
        assert_eq!(
            *ok, HAMMER,
            "worker {w}: grant flickered during lazy first-touch races"
        );
    }
    assert!(outcome.control_rounds >= 1);

    // Every published bundle carries exactly one distinct body, and racing
    // hooks may compile each published body at most once: the claim CAS
    // admits one winner, losers reuse or fall back.
    let publishes = reloads.load(Ordering::Relaxed) + 1;
    let fired = hub.fired(Tracepoint::ProfileRecompile);
    assert!(
        (1..=publishes).contains(&fired),
        "profile_recompile fired {fired} times across {publishes} published bundles"
    );
    assert_eq!(
        db.compile_count(),
        fired,
        "every DFA build must emit exactly one tracepoint"
    );

    // Quiesced: the stormed lazy table answers exactly like an eager twin
    // that never saw any concurrency.
    let serial_db = Arc::new(PolicyDb::new());
    serial_db.load_text(BENCH_PROFILE).unwrap();
    let serial = AppArmor::new(Arc::clone(&serial_db));
    serial.set_profile(Pid(7300), "bench").unwrap();
    let ctx = probe_ctx(7300, BENCH_EXE);
    for (path, mask) in [
        ("/tmp/bench/post", AccessMask::WRITE),
        ("/etc/passwd", AccessMask::READ),
        ("/etc/sub/dir", AccessMask::READ),
        ("/dev/car/door0", AccessMask::READ),
        ("/dev/car/door0", AccessMask::WRITE),
        ("/var/secret", AccessMask::READ),
        ("/usr/lib/libc.so", AccessMask::READ),
    ] {
        assert_eq!(
            open(&*apparmor, &ctx, path, mask),
            open(&*serial, &ctx, path, mask),
            "probe {path}: stormed lazy table diverged from eager serial twin"
        );
    }
}

/// Enhanced mode: the control plane replaces the AppArmor profile bundle
/// (the `apparmor_parser -r` path) and transitions the SSM while confined
/// traffic storms the hooks. Base-profile grants must hold throughout, and
/// after quiescing the patched profile must match a serially-built twin.
#[test]
fn profile_replacement_races_enhanced_traffic_without_torn_verdicts() {
    let policy = synthetic_enhanced_policy(STATES, 16);
    let build = || {
        let db = Arc::new(PolicyDb::new());
        db.load_text(BENCH_PROFILE).unwrap();
        let apparmor = AppArmor::new(db);
        let sack = Sack::enhanced_apparmor(&policy, Arc::clone(&apparmor)).unwrap();
        (sack, apparmor)
    };
    let (sack, apparmor) = build();
    apparmor.set_profile(Pid(7200), "bench").unwrap();

    const HAMMER: usize = 400;
    let outcome = smp::run_with_control(
        WORKERS,
        |w| {
            let ctx = probe_ctx(7200, BENCH_EXE);
            let path = format!("/tmp/bench/storm{w}");
            let mut ok = 0usize;
            for _ in 0..HAMMER {
                if open(&*apparmor, &ctx, &path, AccessMask::WRITE) {
                    ok += 1;
                }
            }
            ok
        },
        |round| {
            if round % 2 == 0 {
                // Atomic bundle replacement: reverts any situation patch
                // until the next transition re-applies it.
                apparmor.policy().load_text(BENCH_PROFILE).unwrap();
            } else {
                let here: usize = sack
                    .current_state_name()
                    .strip_prefix('s')
                    .and_then(|s| s.parse().ok())
                    .unwrap();
                sack.deliver_event(&format!("goto_s{}", (here + 1) % STATES), Duration::ZERO)
                    .unwrap();
            }
        },
    );

    // `/tmp/**` is in the base profile and in every replacement bundle:
    // a single torn read during the atomic swap would show up here.
    for (w, ok) in outcome.results.iter().enumerate() {
        assert_eq!(*ok, HAMMER, "worker {w}: base-profile grant flickered");
    }

    // Quiesce: one more real transition re-applies the situation patch on
    // top of whatever bundle the control plane left behind, after which the
    // stormed instance must agree with a serial twin in the same state.
    let here: usize = sack
        .current_state_name()
        .strip_prefix('s')
        .and_then(|s| s.parse().ok())
        .unwrap();
    let target = (here + 1) % STATES;
    sack.deliver_event(&format!("goto_s{target}"), Duration::ZERO)
        .unwrap();

    let (serial_sack, serial_aa) = build();
    serial_aa.set_profile(Pid(7200), "bench").unwrap();
    drive_to_state(&serial_sack, target);
    assert_eq!(sack.current_state_name(), serial_sack.current_state_name());

    let ctx = probe_ctx(7200, BENCH_EXE);
    for probe_state in 0..STATES {
        for area in 0..2 {
            let path = format!("/protected/area{area}/s{probe_state}/dev");
            let stormed = open(&*apparmor, &ctx, &path, AccessMask::WRITE);
            let expected = open(&*serial_aa, &ctx, &path, AccessMask::WRITE);
            assert_eq!(
                stormed, expected,
                "probe {path}: stormed profile table diverged from serial twin"
            );
            assert_eq!(stormed, probe_state == target, "probe {path}");
        }
    }
    assert!(open(&*apparmor, &ctx, "/tmp/bench/post", AccessMask::READ));
    assert!(!open(&*apparmor, &ctx, "/var/secret", AccessMask::READ));
}
