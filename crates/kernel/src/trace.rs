//! # sack-trace — kernel-style static tracepoints
//!
//! Compiled-in probe points modelled on the Linux tracepoint machinery
//! (`include/linux/tracepoint.h`): every probe site is guarded by a single
//! **relaxed atomic load + branch**, so with tracing disabled the entire
//! subsystem costs one predictable-not-taken branch per probe. Consumers
//! attach dynamically at runtime — the moral equivalent of
//! `register_trace_sys_enter()` — and receive every [`TraceEvent`]
//! synchronously on the emitting thread, in program order.
//!
//! The hub deliberately does **not** buffer, aggregate or render anything:
//! histograms, the flight recorder and the securityfs/Prometheus exports all
//! live in `sack-core` as registered callbacks. This keeps the kernel layer
//! dependency-free and lets benches attach alternative consumers.
//!
//! Event taxonomy (one [`Tracepoint`] per kind):
//!
//! | tracepoint          | fires when                                             |
//! |---------------------|--------------------------------------------------------|
//! | `hook_enter`        | an LSM hook dispatch starts                            |
//! | `hook_exit`         | an LSM hook dispatch finishes (carries verdict+latency)|
//! | `ssm_transition`    | the situation state machine changes state              |
//! | `policy_publish`    | a new `ActivePolicy` is published over RCU             |
//! | `profile_recompile` | an AppArmor profile is (re)compiled to its DFA         |
//! | `audit_emit`        | a record is appended to the audit ring                 |
//! | `sds_enqueue`       | a sensor frame is enqueued into the submission ring    |
//! | `sds_drain`         | a ring drain batch completes (batch size + transitions)|
//! | `sds_coalesce`      | ≥2 frames collapsed into one SSM delivery in a drain   |
//! | `sds_backpressure`  | the ring-full policy engaged (block or drop-oldest)    |
//! | `fleet_rollout_begin`    | a staged fleet policy rollout started             |
//! | `fleet_rollout_push`     | the candidate policy was pushed to a cohort       |
//! | `fleet_rollout_promote`  | a cohort soaked green and was promoted            |
//! | `fleet_rollout_rollback` | an alert rolled the fleet back to the prior policy|
//! | `fleet_rollout_complete` | the rollout finished (promoted or rolled back)    |

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

/// Identifies an LSM hook in trace events and latency histograms.
///
/// Mirrors the dispatch surface of [`crate::lsm::LsmStack`]; notification
/// hooks (`bprm_committed`, `task_free`) are traced too, always with an
/// `Allow` verdict since they cannot deny.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceHook {
    /// `file_open`.
    FileOpen,
    /// `file_permission`.
    FilePermission,
    /// `file_ioctl`.
    FileIoctl,
    /// `file_mmap`.
    FileMmap,
    /// `inode_create`.
    InodeCreate,
    /// `inode_unlink`.
    InodeUnlink,
    /// `inode_rename`.
    InodeRename,
    /// `inode_getattr`.
    InodeGetattr,
    /// `bprm_check`.
    BprmCheck,
    /// `bprm_committed` (notification).
    BprmCommitted,
    /// `task_alloc`.
    TaskAlloc,
    /// `task_free` (notification).
    TaskFree,
    /// `capable`.
    Capable,
    /// `socket_create`.
    SocketCreate,
    /// `socket_connect`.
    SocketConnect,
}

impl TraceHook {
    /// Every hook, in dispatch-table order. Index with [`TraceHook::index`].
    pub const ALL: [TraceHook; 15] = [
        TraceHook::FileOpen,
        TraceHook::FilePermission,
        TraceHook::FileIoctl,
        TraceHook::FileMmap,
        TraceHook::InodeCreate,
        TraceHook::InodeUnlink,
        TraceHook::InodeRename,
        TraceHook::InodeGetattr,
        TraceHook::BprmCheck,
        TraceHook::BprmCommitted,
        TraceHook::TaskAlloc,
        TraceHook::TaskFree,
        TraceHook::Capable,
        TraceHook::SocketCreate,
        TraceHook::SocketConnect,
    ];

    /// Dense index into [`TraceHook::ALL`].
    pub fn index(self) -> usize {
        self as usize
    }

    /// The hook's LSM name (`file_open`, ...).
    pub fn name(self) -> &'static str {
        match self {
            TraceHook::FileOpen => "file_open",
            TraceHook::FilePermission => "file_permission",
            TraceHook::FileIoctl => "file_ioctl",
            TraceHook::FileMmap => "file_mmap",
            TraceHook::InodeCreate => "inode_create",
            TraceHook::InodeUnlink => "inode_unlink",
            TraceHook::InodeRename => "inode_rename",
            TraceHook::InodeGetattr => "inode_getattr",
            TraceHook::BprmCheck => "bprm_check",
            TraceHook::BprmCommitted => "bprm_committed",
            TraceHook::TaskAlloc => "task_alloc",
            TraceHook::TaskFree => "task_free",
            TraceHook::Capable => "capable",
            TraceHook::SocketCreate => "socket_create",
            TraceHook::SocketConnect => "socket_connect",
        }
    }

    /// Parses the LSM name produced by [`TraceHook::name`].
    pub fn from_name(name: &str) -> Option<TraceHook> {
        TraceHook::ALL.into_iter().find(|h| h.name() == name)
    }
}

impl fmt::Display for TraceHook {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Outcome of a hook dispatch as seen by `hook_exit`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceVerdict {
    /// Every stacked module allowed the operation.
    Allow,
    /// Some module denied (first-deny-wins).
    Deny,
}

impl TraceVerdict {
    /// Stable lowercase label (`allow` / `deny`).
    pub fn name(self) -> &'static str {
        match self {
            TraceVerdict::Allow => "allow",
            TraceVerdict::Deny => "deny",
        }
    }

    /// Dense index (Allow = 0, Deny = 1).
    pub fn index(self) -> usize {
        self as usize
    }
}

impl fmt::Display for TraceVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The static tracepoint kinds, one per probe site family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Tracepoint {
    /// LSM hook dispatch entry.
    HookEnter,
    /// LSM hook dispatch exit (verdict + latency).
    HookExit,
    /// Situation state machine transition.
    SsmTransition,
    /// New active policy published.
    PolicyPublish,
    /// AppArmor profile (re)compiled.
    ProfileRecompile,
    /// Audit record appended.
    AuditEmit,
    /// Sensor frame enqueued into the SDS submission ring.
    SdsEnqueue,
    /// SDS ring drain batch completed.
    SdsDrain,
    /// Multiple frames coalesced into one SSM delivery during a drain.
    SdsCoalesce,
    /// Ring-full backpressure policy engaged.
    SdsBackpressure,
    /// A staged fleet policy rollout started.
    FleetRolloutBegin,
    /// The candidate policy was pushed to a cohort.
    FleetRolloutPush,
    /// A cohort soaked green and was promoted.
    FleetRolloutPromote,
    /// A detector alert rolled upgraded cohorts back to the prior policy.
    FleetRolloutRollback,
    /// The rollout finished, promoted fleet-wide or rolled back.
    FleetRolloutComplete,
}

impl Tracepoint {
    /// Every tracepoint, in declaration order.
    pub const ALL: [Tracepoint; 15] = [
        Tracepoint::HookEnter,
        Tracepoint::HookExit,
        Tracepoint::SsmTransition,
        Tracepoint::PolicyPublish,
        Tracepoint::ProfileRecompile,
        Tracepoint::AuditEmit,
        Tracepoint::SdsEnqueue,
        Tracepoint::SdsDrain,
        Tracepoint::SdsCoalesce,
        Tracepoint::SdsBackpressure,
        Tracepoint::FleetRolloutBegin,
        Tracepoint::FleetRolloutPush,
        Tracepoint::FleetRolloutPromote,
        Tracepoint::FleetRolloutRollback,
        Tracepoint::FleetRolloutComplete,
    ];

    /// Dense index into [`Tracepoint::ALL`].
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable snake_case name, as shown in `tracing/events`.
    pub fn name(self) -> &'static str {
        match self {
            Tracepoint::HookEnter => "hook_enter",
            Tracepoint::HookExit => "hook_exit",
            Tracepoint::SsmTransition => "ssm_transition",
            Tracepoint::PolicyPublish => "policy_publish",
            Tracepoint::ProfileRecompile => "profile_recompile",
            Tracepoint::AuditEmit => "audit_emit",
            Tracepoint::SdsEnqueue => "sds_enqueue",
            Tracepoint::SdsDrain => "sds_drain",
            Tracepoint::SdsCoalesce => "sds_coalesce",
            Tracepoint::SdsBackpressure => "sds_backpressure",
            Tracepoint::FleetRolloutBegin => "fleet_rollout_begin",
            Tracepoint::FleetRolloutPush => "fleet_rollout_push",
            Tracepoint::FleetRolloutPromote => "fleet_rollout_promote",
            Tracepoint::FleetRolloutRollback => "fleet_rollout_rollback",
            Tracepoint::FleetRolloutComplete => "fleet_rollout_complete",
        }
    }
}

impl fmt::Display for Tracepoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A single trace event, the payload delivered to registered callbacks.
///
/// Hot-path variants (`HookEnter`, `HookExit`, `SdsEnqueue`) carry only
/// `Copy` data; rare control-plane variants own their strings so the flight
/// recorder can retain them without lifetimes.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// An LSM hook dispatch started.
    HookEnter {
        /// Which hook.
        hook: TraceHook,
    },
    /// An LSM hook dispatch finished.
    HookExit {
        /// Which hook.
        hook: TraceHook,
        /// Allow or deny.
        verdict: TraceVerdict,
        /// Wall-clock nanoseconds spent in the stacked modules.
        latency_ns: u64,
    },
    /// The situation state machine transitioned.
    SsmTransition {
        /// Source state name.
        from: String,
        /// Destination state name.
        to: String,
        /// The environmental event that caused the transition.
        event: String,
    },
    /// A new active policy was published over RCU.
    PolicyPublish {
        /// The published snapshot's process-unique load generation.
        generation: u64,
    },
    /// An AppArmor profile was (re)compiled to its unified DFA.
    ProfileRecompile {
        /// Profile name.
        profile: String,
        /// True when the shared alphabet split and the whole world recompiled.
        full_rebuild: bool,
    },
    /// A record was appended to the audit ring.
    AuditEmit {
        /// The record's monotonic sequence number.
        seq: u64,
    },
    /// A sensor frame was enqueued into the SDS submission ring.
    ///
    /// Hot-path: fires once per produced frame, carries only `Copy` data,
    /// and is **not** flight-recorded (it would flush 256 slots in ~256 µs
    /// at sensor rates) — the fired counter and Prometheus export still see
    /// every enqueue.
    SdsEnqueue {
        /// Ring occupancy observed right after the enqueue (racy snapshot).
        depth: usize,
    },
    /// An SDS ring drain batch completed.
    SdsDrain {
        /// Frames consumed by this drain.
        batch: usize,
        /// SSM transitions actually published (0 or 1 per drain).
        transitions: usize,
    },
    /// Two or more frames collapsed into a single SSM delivery in a drain.
    SdsCoalesce {
        /// The environmental event whose frames were collapsed.
        event: String,
        /// How many frames the drain collapsed (≥ 2).
        collapsed: usize,
    },
    /// The ring-full backpressure policy engaged.
    SdsBackpressure {
        /// Policy label: `drop-oldest` or `block`.
        policy: &'static str,
        /// Cumulative frames discarded by drop-oldest since boot.
        dropped_total: u64,
    },
    /// A staged fleet policy rollout started.
    FleetRolloutBegin {
        /// Monotonic rollout id, unique per driver run.
        rollout: u64,
        /// How many cohorts the stage plan covers.
        cohorts: usize,
    },
    /// The candidate policy was pushed to every instance of a cohort.
    FleetRolloutPush {
        /// The rollout this push belongs to.
        rollout: u64,
        /// Cohort label receiving the candidate policy.
        cohort: String,
        /// Instances the push reached.
        instances: usize,
    },
    /// A cohort finished its soak window with no alert and was promoted.
    FleetRolloutPromote {
        /// The rollout this promotion belongs to.
        rollout: u64,
        /// The promoted cohort's label.
        cohort: String,
        /// Detector ticks the cohort soaked green for.
        soak_ticks: u64,
    },
    /// A detector alert rolled every upgraded cohort back.
    FleetRolloutRollback {
        /// The rollout being rolled back.
        rollout: u64,
        /// Cohort whose telemetry raised the alert.
        cohort: String,
        /// The triggering detector's alert label (e.g. `denial_spike`).
        reason: String,
        /// Instances republished to the prior policy.
        instances: usize,
    },
    /// The rollout finished.
    FleetRolloutComplete {
        /// The finished rollout's id.
        rollout: u64,
        /// True when every cohort promoted; false after a rollback.
        promoted: bool,
    },
}

impl TraceEvent {
    /// The tracepoint this event belongs to.
    pub fn tracepoint(&self) -> Tracepoint {
        match self {
            TraceEvent::HookEnter { .. } => Tracepoint::HookEnter,
            TraceEvent::HookExit { .. } => Tracepoint::HookExit,
            TraceEvent::SsmTransition { .. } => Tracepoint::SsmTransition,
            TraceEvent::PolicyPublish { .. } => Tracepoint::PolicyPublish,
            TraceEvent::ProfileRecompile { .. } => Tracepoint::ProfileRecompile,
            TraceEvent::AuditEmit { .. } => Tracepoint::AuditEmit,
            TraceEvent::SdsEnqueue { .. } => Tracepoint::SdsEnqueue,
            TraceEvent::SdsDrain { .. } => Tracepoint::SdsDrain,
            TraceEvent::SdsCoalesce { .. } => Tracepoint::SdsCoalesce,
            TraceEvent::SdsBackpressure { .. } => Tracepoint::SdsBackpressure,
            TraceEvent::FleetRolloutBegin { .. } => Tracepoint::FleetRolloutBegin,
            TraceEvent::FleetRolloutPush { .. } => Tracepoint::FleetRolloutPush,
            TraceEvent::FleetRolloutPromote { .. } => Tracepoint::FleetRolloutPromote,
            TraceEvent::FleetRolloutRollback { .. } => Tracepoint::FleetRolloutRollback,
            TraceEvent::FleetRolloutComplete { .. } => Tracepoint::FleetRolloutComplete,
        }
    }
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceEvent::HookEnter { hook } => write!(f, "hook_enter hook={hook}"),
            TraceEvent::HookExit {
                hook,
                verdict,
                latency_ns,
            } => write!(f, "hook_exit hook={hook} verdict={verdict} ns={latency_ns}"),
            TraceEvent::SsmTransition { from, to, event } => {
                write!(f, "ssm_transition from={from} to={to} event={event}")
            }
            TraceEvent::PolicyPublish { generation } => {
                write!(f, "policy_publish generation={generation}")
            }
            TraceEvent::ProfileRecompile {
                profile,
                full_rebuild,
            } => write!(
                f,
                "profile_recompile profile={profile} full_rebuild={full_rebuild}"
            ),
            TraceEvent::AuditEmit { seq } => write!(f, "audit_emit seq={seq}"),
            TraceEvent::SdsEnqueue { depth } => write!(f, "sds_enqueue depth={depth}"),
            TraceEvent::SdsDrain { batch, transitions } => {
                write!(f, "sds_drain batch={batch} transitions={transitions}")
            }
            TraceEvent::SdsCoalesce { event, collapsed } => {
                write!(f, "sds_coalesce event={event} collapsed={collapsed}")
            }
            TraceEvent::SdsBackpressure {
                policy,
                dropped_total,
            } => write!(
                f,
                "sds_backpressure policy={policy} dropped_total={dropped_total}"
            ),
            TraceEvent::FleetRolloutBegin { rollout, cohorts } => {
                write!(f, "fleet_rollout_begin rollout={rollout} cohorts={cohorts}")
            }
            TraceEvent::FleetRolloutPush {
                rollout,
                cohort,
                instances,
            } => write!(
                f,
                "fleet_rollout_push rollout={rollout} cohort={cohort} instances={instances}"
            ),
            TraceEvent::FleetRolloutPromote {
                rollout,
                cohort,
                soak_ticks,
            } => write!(
                f,
                "fleet_rollout_promote rollout={rollout} cohort={cohort} soak_ticks={soak_ticks}"
            ),
            TraceEvent::FleetRolloutRollback {
                rollout,
                cohort,
                reason,
                instances,
            } => write!(
                f,
                "fleet_rollout_rollback rollout={rollout} cohort={cohort} \
                 reason={reason} instances={instances}"
            ),
            TraceEvent::FleetRolloutComplete { rollout, promoted } => {
                write!(
                    f,
                    "fleet_rollout_complete rollout={rollout} promoted={promoted}"
                )
            }
        }
    }
}

/// A registered trace callback: runs synchronously on the emitting thread.
pub type TraceCallback = Arc<dyn Fn(&TraceEvent) + Send + Sync>;

/// Handle returned by [`TraceHub::register`]; pass to
/// [`TraceHub::unregister`] to detach.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceHandle(u64);

/// One cache line per fired-counter so concurrent probe sites never false-share.
#[repr(align(64))]
#[derive(Debug, Default)]
struct PaddedCounter(AtomicU64);

struct CallbackEntry {
    handle: u64,
    /// `None` attaches to every tracepoint.
    point: Option<Tracepoint>,
    callback: TraceCallback,
}

/// The tracepoint hub: one per booted kernel, shared by every layer.
///
/// Disabled cost is a single `Relaxed` load and branch per probe site
/// ([`TraceHub::enabled`]); probe sites must guard event *construction*
/// behind it:
///
/// ```
/// use sack_kernel::trace::{TraceEvent, TraceHub};
///
/// let hub = TraceHub::new();
/// if hub.enabled() {
///     hub.emit(&TraceEvent::AuditEmit { seq: 0 }); // never reached while disabled
/// }
/// ```
pub struct TraceHub {
    enabled: AtomicBool,
    next_handle: AtomicU64,
    fired: [PaddedCounter; Tracepoint::ALL.len()],
    callbacks: RwLock<Vec<CallbackEntry>>,
}

impl TraceHub {
    /// Creates a hub with tracing disabled and no callbacks.
    pub fn new() -> Arc<TraceHub> {
        Arc::new(TraceHub {
            enabled: AtomicBool::new(false),
            next_handle: AtomicU64::new(1),
            fired: Default::default(),
            callbacks: RwLock::new(Vec::new()),
        })
    }

    /// The one-load-one-branch global enable check.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Enables or disables all tracepoints.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::SeqCst);
    }

    /// Attaches `callback` to a single tracepoint (`register_trace_*` style).
    pub fn register(&self, point: Tracepoint, callback: TraceCallback) -> TraceHandle {
        self.register_entry(Some(point), callback)
    }

    /// Attaches `callback` to **every** tracepoint.
    pub fn register_all(&self, callback: TraceCallback) -> TraceHandle {
        self.register_entry(None, callback)
    }

    fn register_entry(&self, point: Option<Tracepoint>, callback: TraceCallback) -> TraceHandle {
        let handle = self.next_handle.fetch_add(1, Ordering::Relaxed);
        self.callbacks.write().push(CallbackEntry {
            handle,
            point,
            callback,
        });
        TraceHandle(handle)
    }

    /// Detaches a callback. Unknown handles are ignored.
    pub fn unregister(&self, handle: TraceHandle) {
        self.callbacks.write().retain(|e| e.handle != handle.0);
    }

    /// Number of attached callbacks (tests / diagnostics).
    pub fn callback_count(&self) -> usize {
        self.callbacks.read().len()
    }

    /// Emits an event to every matching callback and bumps the tracepoint's
    /// fired counter. No-op while disabled; probe sites should still check
    /// [`TraceHub::enabled`] first so the event is never even constructed on
    /// the disabled path.
    pub fn emit(&self, event: &TraceEvent) {
        if !self.enabled() {
            return;
        }
        let point = event.tracepoint();
        self.fired[point.index()].0.fetch_add(1, Ordering::Relaxed);
        for entry in self.callbacks.read().iter() {
            if entry.point.is_none() || entry.point == Some(point) {
                (entry.callback)(event);
            }
        }
    }

    /// How many times `point` has fired while enabled.
    pub fn fired(&self, point: Tracepoint) -> u64 {
        self.fired[point.index()].0.load(Ordering::Relaxed)
    }

    /// Total events fired across all tracepoints.
    pub fn fired_total(&self) -> u64 {
        Tracepoint::ALL.iter().map(|p| self.fired(*p)).sum()
    }
}

impl fmt::Debug for TraceHub {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TraceHub")
            .field("enabled", &self.enabled())
            .field("callbacks", &self.callback_count())
            .field("fired_total", &self.fired_total())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    #[test]
    fn disabled_hub_emits_nothing() {
        let hub = TraceHub::new();
        let seen = Arc::new(AtomicU64::new(0));
        let s = Arc::clone(&seen);
        hub.register_all(Arc::new(move |_| {
            s.fetch_add(1, Ordering::Relaxed);
        }));
        hub.emit(&TraceEvent::AuditEmit { seq: 0 });
        assert_eq!(seen.load(Ordering::Relaxed), 0);
        assert_eq!(hub.fired(Tracepoint::AuditEmit), 0);
    }

    #[test]
    fn enabled_hub_delivers_in_order_and_counts() {
        let hub = TraceHub::new();
        hub.set_enabled(true);
        let log = Arc::new(Mutex::new(Vec::new()));
        let l = Arc::clone(&log);
        hub.register_all(Arc::new(move |ev| l.lock().unwrap().push(ev.clone())));
        hub.emit(&TraceEvent::AuditEmit { seq: 3 });
        hub.emit(&TraceEvent::PolicyPublish { generation: 7 });
        let log = log.lock().unwrap();
        assert_eq!(
            *log,
            vec![
                TraceEvent::AuditEmit { seq: 3 },
                TraceEvent::PolicyPublish { generation: 7 }
            ]
        );
        assert_eq!(hub.fired(Tracepoint::AuditEmit), 1);
        assert_eq!(hub.fired(Tracepoint::PolicyPublish), 1);
        assert_eq!(hub.fired_total(), 2);
    }

    #[test]
    fn point_filter_and_unregister() {
        let hub = TraceHub::new();
        hub.set_enabled(true);
        let hits = Arc::new(AtomicU64::new(0));
        let h = Arc::clone(&hits);
        let handle = hub.register(
            Tracepoint::AuditEmit,
            Arc::new(move |_| {
                h.fetch_add(1, Ordering::Relaxed);
            }),
        );
        hub.emit(&TraceEvent::AuditEmit { seq: 0 });
        hub.emit(&TraceEvent::PolicyPublish { generation: 1 }); // filtered out
        assert_eq!(hits.load(Ordering::Relaxed), 1);
        hub.unregister(handle);
        hub.emit(&TraceEvent::AuditEmit { seq: 1 });
        assert_eq!(hits.load(Ordering::Relaxed), 1);
        assert_eq!(hub.callback_count(), 0);
    }

    #[test]
    fn hook_and_tracepoint_names_round_trip() {
        for hook in TraceHook::ALL {
            assert_eq!(TraceHook::from_name(hook.name()), Some(hook));
            assert_eq!(TraceHook::ALL[hook.index()], hook);
        }
        for (i, point) in Tracepoint::ALL.into_iter().enumerate() {
            assert_eq!(point.index(), i);
        }
    }

    #[test]
    fn toggling_gates_counters() {
        let hub = TraceHub::new();
        hub.emit(&TraceEvent::AuditEmit { seq: 0 });
        hub.set_enabled(true);
        hub.emit(&TraceEvent::AuditEmit { seq: 1 });
        hub.set_enabled(false);
        hub.emit(&TraceEvent::AuditEmit { seq: 2 });
        assert_eq!(hub.fired(Tracepoint::AuditEmit), 1);
    }
}
