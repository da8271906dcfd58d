//! Per-op timing and the shadow calls of the traced run.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use sack_apparmor::{AppArmor, FilePerms};
use sack_core::rules::SubjectCtx;
use sack_core::Sack;
use sack_kernel::kernel::Kernel;
use sack_kernel::lsm::{AccessMask, HookCtx, ObjectRef, SecurityModule};
use sack_kernel::uctx::UserContext;

use crate::spans::Recorder;
use crate::stats::{median, Samples};

/// Latencies of one client's ops, per op kind and pooled, plus the p50
/// and p99 of every closed statistics window.
#[derive(Debug, Default)]
pub struct OpTimes {
    /// Per op kind.
    pub per_op: BTreeMap<&'static str, Samples>,
    /// Every op of the mix.
    pub all: Samples,
    /// Wall time spent issuing ops, ns (the closed loop's busy time).
    pub busy_ns: u64,
    /// `(mix-weighted p50, pooled p99)` of each closed window, ns.
    pub windows: Vec<(f64, f64)>,
    window: Samples,
    window_kinds: BTreeMap<&'static str, Samples>,
    window_index: u64,
}

/// Windows with fewer ops than this are merged into the next one.
const MIN_WINDOW_OPS: usize = 200;

impl OpTimes {
    /// Records one op issued in statistics window `window`.
    pub fn push_in(&mut self, window: u64, op: &'static str, ns: u64) {
        if window != self.window_index {
            self.close_window();
            self.window_index = window;
        }
        self.window.push(ns);
        self.window_kinds.entry(op).or_default().push(ns);
        self.push(op, ns);
    }

    /// Records one op outside any window (reference kernel, traced phase).
    pub fn push(&mut self, op: &'static str, ns: u64) {
        self.per_op.entry(op).or_default().push(ns);
        self.all.push(ns);
    }

    /// Closes the current window (call once more when the loop ends). A
    /// window's p50 is the mix-weighted median: each op kind's median,
    /// weighted by the kind's share of the window's ops. The pooled median
    /// of a mix falls between the latency modes of its op kinds and jumps
    /// from one to the other when they shift slightly; the weighted median
    /// moves smoothly with every kind's speed.
    pub fn close_window(&mut self) {
        if self.window.len() >= MIN_WINDOW_OPS {
            let w = std::mem::take(&mut self.window);
            let kinds = std::mem::take(&mut self.window_kinds);
            let n = w.len() as f64;
            let p50 = kinds
                .values()
                .map(|k| k.len() as f64 / n * k.quantile(0.5))
                .sum();
            self.windows.push((p50, w.quantile(0.99)));
        }
    }

    /// Median over windows of the window p50 and p99, ns; the pooled
    /// quantiles when no window closed.
    pub fn window_quantiles(&self) -> (f64, f64) {
        if self.windows.is_empty() {
            return (self.all.quantile(0.5), self.all.quantile(0.99));
        }
        let p50: Vec<f64> = self.windows.iter().map(|w| w.0).collect();
        let p99: Vec<f64> = self.windows.iter().map(|w| w.1).collect();
        (median(&p50), median(&p99))
    }

    /// Merges another client's samples and windows.
    pub fn merge(&mut self, other: &OpTimes) {
        for (op, s) in &other.per_op {
            self.per_op.entry(op).or_default().extend(s);
        }
        self.all.extend(&other.all);
        self.busy_ns += other.busy_ns;
        self.windows.extend_from_slice(&other.windows);
    }

    /// Ops recorded.
    pub fn count(&self) -> usize {
        self.all.len()
    }
}

/// Runs `f`, returning its result and its duration in milliseconds.
pub fn timed_ms<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64() * 1e3)
}

/// The hook a shadowed syscall passes through.
#[derive(Debug, Clone, Copy)]
pub enum Hook {
    /// `file_open` with the open's access mask.
    FileOpen(AccessMask),
    /// `file_ioctl`.
    Ioctl,
    /// `file_mmap` (read mapping).
    Mmap,
    /// `inode_getattr` (SACK and AppArmor leave it to the stack default).
    Getattr,
}

impl Hook {
    fn perms(self) -> FilePerms {
        match self {
            Hook::FileOpen(mask) => FilePerms::from_access_mask(mask),
            Hook::Ioctl => FilePerms::IOCTL,
            Hook::Mmap => FilePerms::MMAP,
            Hook::Getattr => FilePerms::READ,
        }
    }

    fn names(self) -> [&'static str; 3] {
        match self {
            Hook::FileOpen(_) => ["lsm.file_open", "sack.file_open", "apparmor.file_open"],
            Hook::Ioctl => ["lsm.file_ioctl", "sack.file_ioctl", "apparmor.file_ioctl"],
            Hook::Mmap => ["lsm.file_mmap", "sack.file_mmap", "apparmor.file_mmap"],
            Hook::Getattr => ["lsm.inode_getattr", "", ""],
        }
    }
}

/// The layers under the syscall boundary of one kernel.
#[derive(Clone)]
pub struct Stack {
    /// The kernel (its `LsmStack`).
    pub kernel: Arc<Kernel>,
    /// SACK, if stacked.
    pub sack: Option<Arc<Sack>>,
    /// AppArmor, if stacked.
    pub apparmor: Option<Arc<AppArmor>>,
    /// AppArmor audit events drained so far (see [`Stack::drain_audit`]).
    pub apparmor_audit: Arc<AtomicU64>,
    /// Set-up steps timed while building the stack, `(metric, ms)`.
    pub setup_ms: Vec<(&'static str, f64)>,
}

impl std::fmt::Debug for Stack {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Stack")
            .field("modules", &self.kernel.lsm().module_names())
            .finish()
    }
}

impl Stack {
    /// The layers of `kernel`.
    pub fn new(
        kernel: Arc<Kernel>,
        sack: Option<Arc<Sack>>,
        apparmor: Option<Arc<AppArmor>>,
    ) -> Stack {
        Stack {
            kernel,
            sack,
            apparmor,
            apparmor_audit: Arc::default(),
            setup_ms: Vec::new(),
        }
    }

    /// Drains AppArmor's audit log, which grows without bound, counting
    /// its events. Clients call it every few thousand ops.
    pub fn drain_audit(&self) {
        if let Some(aa) = &self.apparmor {
            let n = aa.take_audit_log().len() as u64;
            self.apparmor_audit.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Re-issues the hook of a sampled syscall as direct calls into the
    /// stack and each module, recording one span per call under `parent`
    /// (the syscall's span), plus a root span timing one walk of SACK's
    /// state DFA for the same access. Runs after the real syscall, with
    /// the same arguments; verdicts are discarded because the real
    /// syscall's verdict was already checked.
    pub fn shadow(
        &self,
        rec: &mut Recorder,
        parent: u64,
        req: u64,
        proc: &UserContext,
        obj: &ObjectRef<'_>,
        hook: Hook,
    ) {
        let ctx: HookCtx = proc.task().hook_ctx();
        let [lsm_name, sack_name, aa_name] = hook.names();
        let lsm = self.kernel.lsm();
        let stack_id = rec.reserve();
        let s0 = Instant::now();
        let _ = std::hint::black_box(match hook {
            Hook::FileOpen(mask) => lsm.file_open(&ctx, obj, mask),
            Hook::Ioctl => lsm.file_ioctl(&ctx, obj, 0),
            Hook::Mmap => lsm.file_mmap(&ctx, obj, AccessMask::READ),
            Hook::Getattr => lsm.inode_getattr(&ctx, obj),
        });
        let s1 = Instant::now();
        rec.record_as(stack_id, lsm_name, parent, req, s0, s1);
        if matches!(hook, Hook::Getattr) {
            return;
        }
        if let Some(sack) = &self.sack {
            let sack_id = rec.reserve();
            let t0 = Instant::now();
            let _ = std::hint::black_box(module_hook(&**sack, &ctx, obj, hook));
            let t1 = Instant::now();
            rec.record_as(sack_id, sack_name, stack_id, req, t0, t1);
            let profile = self
                .apparmor
                .as_ref()
                .and_then(|aa| aa.current_profile(ctx.pid));
            let active = sack.active();
            let dfa = Arc::clone(active.policy.state_dfa(active.ssm.current()));
            let exe = ctx.exe.as_ref().map(|p| p.as_str().to_string());
            let subject = SubjectCtx {
                uid: ctx.cred.uid.0,
                exe: exe.as_deref(),
                profile: profile.as_deref(),
            };
            let d0 = Instant::now();
            std::hint::black_box(dfa.decide(&subject, obj.path.as_str(), hook.perms()));
            let d1 = Instant::now();
            // A root span, not SACK's child: the hook walks the DFA only
            // on a decision-cache miss, and enhanced SACK never does.
            rec.record("statedfa.decide", 0, req, d0, d1);
        }
        if let Some(aa) = &self.apparmor {
            let t0 = Instant::now();
            let _ = std::hint::black_box(module_hook(&**aa, &ctx, obj, hook));
            let t1 = Instant::now();
            rec.record(aa_name, stack_id, req, t0, t1);
        }
    }
}

fn module_hook(
    m: &dyn SecurityModule,
    ctx: &HookCtx,
    obj: &ObjectRef<'_>,
    hook: Hook,
) -> sack_kernel::error::KernelResult<()> {
    match hook {
        Hook::FileOpen(mask) => m.file_open(ctx, obj, mask),
        Hook::Ioctl => m.file_ioctl(ctx, obj, 0),
        Hook::Mmap => m.file_mmap(ctx, obj, AccessMask::READ),
        Hook::Getattr => m.inode_getattr(ctx, obj),
    }
}
