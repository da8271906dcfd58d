//! SMP storm driver: run N worker tasks through the kernel simultaneously.
//!
//! The substrate is lock-free on its hot paths (RCU snapshots, sharded
//! counters, atomic LSM stats), but until this module everything drove it
//! from one thread at a time. [`run_workers`] aligns N OS threads on a
//! barrier and storms a shared kernel; [`run_with_control`] additionally
//! runs a control-plane closure *concurrently* with the storm — the shape
//! of every "policy reload races hook traffic" correctness test.
//!
//! On the simulated kernel a worker thread stands in for a CPU: the
//! per-CPU structures downstream (hazard slots in [`crate::sync`], the
//! striped counters in `sack-core`) key off the calling thread, so an
//! N-thread storm exercises N distinct instances exactly as N cores
//! would.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Barrier, OnceLock};

/// The process-wide seed every schedule-dependent driver derives from: the
/// deterministic-schedule executor's exploration order in `sack-analyze`,
/// and the probe shuffles in the `smp_storm` integration tests.
///
/// Reads `SACK_SCHED_SEED` (decimal, or hex with a `0x` prefix) once and
/// logs the value to stderr, so any failure in CI is reproducible by
/// re-running with the logged seed. Without the env var the seed is a
/// fixed constant — runs are deterministic by default, and the env var
/// exists to *vary* them, not to pin them.
pub fn sched_seed() -> u64 {
    static SEED: OnceLock<u64> = OnceLock::new();
    *SEED.get_or_init(|| {
        let (seed, source) = match std::env::var("SACK_SCHED_SEED") {
            Ok(raw) => {
                let parsed = raw
                    .strip_prefix("0x")
                    .map(|hex| u64::from_str_radix(hex, 16))
                    .unwrap_or_else(|| raw.parse());
                match parsed {
                    Ok(v) => (v, "env"),
                    Err(_) => {
                        eprintln!("SACK_SCHED_SEED: unparseable value {raw:?}, using default");
                        (0x5ACC_5EED, "default")
                    }
                }
            }
            Err(_) => (0x5ACC_5EED, "default"),
        };
        eprintln!("SACK_SCHED_SEED={seed:#x} ({source}; export SACK_SCHED_SEED to reproduce)");
        seed
    })
}

/// Derives a per-worker sub-seed from [`sched_seed`] (splitmix64 of the
/// seed xor the worker index), so each storm worker gets an independent
/// but reproducible random stream.
pub fn worker_seed(worker: usize) -> u64 {
    let mut z = sched_seed() ^ (worker as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Outcome of a [`run_with_control`] storm: per-worker results plus how
/// many control-plane rounds ran while the workers were storming.
#[derive(Debug)]
pub struct StormOutcome<R> {
    /// One result per worker, in worker-index order.
    pub results: Vec<R>,
    /// Number of times the control closure ran concurrently with traffic.
    pub control_rounds: u64,
}

/// Runs `workers` copies of `worker` on dedicated threads, released
/// together by a start barrier so their critical sections actually
/// overlap. Returns the results in worker-index order; a panicking worker
/// propagates its panic to the caller.
pub fn run_workers<R, F>(workers: usize, worker: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let start = Barrier::new(workers);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let (worker, start) = (&worker, &start);
                s.spawn(move || {
                    start.wait();
                    worker(w)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    })
}

/// Like [`run_workers`], but a control closure runs in a loop on its own
/// thread for the whole duration of the storm — mutating shared state
/// (policy reloads, situation transitions, profile replacements) while the
/// workers drive traffic. The control loop starts with the workers and
/// stops once the last worker finishes; it is guaranteed at least one
/// round even if the workers finish first.
pub fn run_with_control<R, F, C>(workers: usize, worker: F, mut control: C) -> StormOutcome<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
    C: FnMut(u64) + Send,
{
    let start = Barrier::new(workers + 1);
    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let (worker, start) = (&worker, &start);
                s.spawn(move || {
                    start.wait();
                    worker(w)
                })
            })
            .collect();
        let controller = s.spawn({
            let (start, done) = (&start, &done);
            move || {
                start.wait();
                let mut rounds = 0u64;
                loop {
                    control(rounds);
                    rounds += 1;
                    if done.load(Ordering::Acquire) {
                        return rounds;
                    }
                    std::thread::yield_now();
                }
            }
        });
        let results = handles.into_iter().map(|h| h.join().unwrap()).collect();
        done.store(true, Ordering::Release);
        StormOutcome {
            results,
            control_rounds: controller.join().unwrap(),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cred::Credentials;
    use crate::error::{Errno, KernelError, KernelResult};
    use crate::file::OpenFlags;
    use crate::kernel::KernelBuilder;
    use crate::lsm::{AccessMask, HookCtx, ObjectRef, SecurityModule};
    use crate::types::Mode;
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;

    /// Counts every open/permission/ioctl dispatch and denies writes under
    /// `/locked/**` — enough to prove exact hook accounting under storm.
    #[derive(Debug, Default)]
    struct CountingModule {
        opens: AtomicU64,
        perms: AtomicU64,
        ioctls: AtomicU64,
    }

    impl SecurityModule for CountingModule {
        fn name(&self) -> &'static str {
            "counting"
        }

        fn file_open(
            &self,
            ctx: &HookCtx,
            obj: &ObjectRef<'_>,
            mask: AccessMask,
        ) -> KernelResult<()> {
            self.opens.fetch_add(1, Ordering::Relaxed);
            if !ctx.cred.uid.is_root()
                && obj.path.as_str().starts_with("/locked/")
                && mask.contains(AccessMask::WRITE)
            {
                return Err(KernelError::with_context(Errno::EACCES, "counting"));
            }
            Ok(())
        }

        fn file_permission(
            &self,
            _ctx: &HookCtx,
            _obj: &ObjectRef<'_>,
            _mask: AccessMask,
        ) -> KernelResult<()> {
            self.perms.fetch_add(1, Ordering::Relaxed);
            Ok(())
        }

        fn file_ioctl(&self, _ctx: &HookCtx, _obj: &ObjectRef<'_>, _cmd: u32) -> KernelResult<()> {
            self.ioctls.fetch_add(1, Ordering::Relaxed);
            Ok(())
        }
    }

    #[test]
    fn storm_counts_every_hook_exactly_once() {
        const WORKERS: usize = 8;
        const ITERS: usize = 200;
        let module = Arc::new(CountingModule::default());
        let kernel = KernelBuilder::new()
            .security_module(Arc::clone(&module) as Arc<dyn SecurityModule>)
            .boot();
        let root = kernel.spawn(Credentials::root());
        root.mkdir("/locked", Mode(0o755)).unwrap();
        for w in 0..WORKERS {
            root.write_file(&format!("/tmp/storm{w}"), b"payload")
                .unwrap();
            // World-writable so DAC passes and the *module* issues the
            // denial (the hook must fire for denied attempts too).
            kernel
                .vfs()
                .create_file(
                    &format!("/locked/f{w}").parse().unwrap(),
                    Mode(0o666),
                    crate::cred::Uid::ROOT,
                    crate::cred::Gid(0),
                )
                .unwrap();
        }
        let opens_before = module.opens.load(Ordering::Relaxed);

        let denied: u64 = run_workers(WORKERS, |w| {
            let uctx = kernel.spawn(Credentials::user(1000, 1000));
            let mut denied = 0u64;
            let mut buf = [0u8; 16];
            for _ in 0..ITERS {
                // Allowed open + read on the worker's own file.
                let fd = uctx
                    .open(&format!("/tmp/storm{w}"), OpenFlags::read_only())
                    .unwrap();
                uctx.read(fd, &mut buf).unwrap();
                uctx.close(fd).unwrap();
                // Denied write open under /locked/**.
                match uctx.open(&format!("/locked/f{w}"), OpenFlags::write_only()) {
                    Err(e) if e.errno() == Errno::EACCES && e.context() == Some("counting") => {
                        denied += 1
                    }
                    other => panic!("expected a module EACCES, got {other:?}"),
                }
            }
            denied
        })
        .into_iter()
        .sum();

        let total = (WORKERS * ITERS) as u64;
        assert_eq!(denied, total, "every locked write must be denied");
        // Exactly one file_open dispatch per open(2) attempt — allowed and
        // denied alike — with nothing lost or double-counted under storm.
        assert_eq!(
            module.opens.load(Ordering::Relaxed) - opens_before,
            2 * total
        );
        assert_eq!(kernel.lsm().stats().denials(), total);
        // Each successful read dispatched file_permission exactly once.
        assert!(module.perms.load(Ordering::Relaxed) >= total);
    }

    #[test]
    fn control_plane_races_traffic_and_both_make_progress() {
        const WORKERS: usize = 4;
        const ITERS: usize = 300;
        let module = Arc::new(CountingModule::default());
        let kernel = KernelBuilder::new()
            .security_module(Arc::clone(&module) as Arc<dyn SecurityModule>)
            .boot();
        let root = kernel.spawn(Credentials::root());
        root.write_file("/tmp/shared", b"x").unwrap();

        let outcome = run_with_control(
            WORKERS,
            |_w| {
                let uctx = kernel.spawn(Credentials::user(1000, 1000));
                for _ in 0..ITERS {
                    uctx.read_to_vec("/tmp/shared").unwrap();
                }
            },
            |round| {
                // Control plane mutates the shared file while readers race.
                root.write_file("/tmp/shared", format!("round {round}").as_bytes())
                    .unwrap();
            },
        );
        assert_eq!(outcome.results.len(), WORKERS);
        assert!(outcome.control_rounds >= 1);
        assert_eq!(kernel.lsm().stats().denials(), 0);
    }

    #[test]
    fn worker_seeds_are_deterministic_and_distinct() {
        // Same worker, same process → same stream; different workers →
        // different streams. `sched_seed` is latched once, so both calls
        // see the same base seed regardless of the environment.
        assert_eq!(worker_seed(3), worker_seed(3));
        let seeds: Vec<u64> = (0..8).map(worker_seed).collect();
        for (i, &a) in seeds.iter().enumerate() {
            for &b in &seeds[i + 1..] {
                assert_ne!(a, b, "worker sub-seeds collided");
            }
        }
    }

    #[test]
    fn seeded_probe_storm_counts_every_dispatch() {
        // Each worker probes a *seed-derived* sequence of files, so the
        // interleaving pressure pattern varies with SACK_SCHED_SEED while
        // staying reproducible from the logged value; the hook-accounting
        // invariant must hold for every pattern.
        const WORKERS: usize = 8;
        const ITERS: usize = 200;
        const FILES: usize = 16;
        let module = Arc::new(CountingModule::default());
        let kernel = KernelBuilder::new()
            .security_module(Arc::clone(&module) as Arc<dyn SecurityModule>)
            .boot();
        let root = kernel.spawn(Credentials::root());
        for f in 0..FILES {
            root.write_file(&format!("/tmp/probe{f}"), b"payload")
                .unwrap();
        }
        let opens_before = module.opens.load(Ordering::Relaxed);

        run_workers(WORKERS, |w| {
            let uctx = kernel.spawn(Credentials::user(1000, 1000));
            // xorshift64 stream seeded from the worker's sub-seed.
            let mut state = worker_seed(w).max(1);
            for _ in 0..ITERS {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let f = (state as usize) % FILES;
                let fd = uctx
                    .open(&format!("/tmp/probe{f}"), OpenFlags::read_only())
                    .unwrap();
                uctx.close(fd).unwrap();
            }
        });
        assert_eq!(
            module.opens.load(Ordering::Relaxed) - opens_before,
            (WORKERS * ITERS) as u64,
            "every seeded probe must dispatch file_open exactly once"
        );
    }

    #[test]
    fn ioctl_storm_dispatches_the_hook_for_every_call() {
        const WORKERS: usize = 4;
        const ITERS: usize = 100;
        let module = Arc::new(CountingModule::default());
        let kernel = KernelBuilder::new()
            .security_module(Arc::clone(&module) as Arc<dyn SecurityModule>)
            .boot();
        let root = kernel.spawn(Credentials::root());
        root.write_file("/tmp/notadevice", b"x").unwrap();

        run_workers(WORKERS, |_w| {
            let uctx = kernel.spawn(Credentials::user(1000, 1000));
            let fd = uctx
                .open("/tmp/notadevice", OpenFlags::read_only())
                .unwrap();
            for i in 0..ITERS as u32 {
                // ENOTTY on a regular file, but the LSM hook fires first.
                let err = uctx.ioctl(fd, i, 0).unwrap_err();
                assert_eq!(err.errno(), Errno::ENOTTY);
            }
        });
        assert_eq!(
            module.ioctls.load(Ordering::Relaxed),
            (WORKERS * ITERS) as u64
        );
    }
}
