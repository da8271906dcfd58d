//! The async batched sensor event plane — ring-based SDS ingestion with
//! transition coalescing and backpressure (DESIGN.md §11).
//!
//! The synchronous path pays one `write(2)` + one SSM evaluation + one
//! possible transition publish per sensor frame. At realistic sensor rates that per-frame
//! cost dominates (the ROADMAP's "next scaling wall"), so this module adds
//! an io_uring-style submission plane:
//!
//! * Producers turn sensor events into fixed-size [`EventFrame`]s and
//!   [`EventPlane::submit`] them into a bounded lock-free MPSC ring
//!   ([`sack_kernel::ring::Ring`]) — no syscall, no SSM work, no lock.
//! * A drain ([`EventPlane::drain`]) consumes a whole batch and feeds it to
//!   [`crate::sack::Sack::deliver_coalesced`]: N frames collapse into **at
//!   most one** SSM transition and one `ssm_transition` trace.
//! * When the ring fills, the configured [`BackpressurePolicy`] applies:
//!   `Block` makes the producer help drain and retry (lossless);
//!   `DropOldest` discards the oldest frames with an exact producer-visible
//!   counter.
//!
//! Every stage fires a tracepoint through the kernel's `TraceHub`
//! (`sds_enqueue`, `sds_drain`, `sds_coalesce`, `sds_backpressure`), and
//! the plane's counters surface in `SACK/sds/stats` plus the Prometheus
//! exposition.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, Weak};

use parking_lot::Mutex;

use sack_kernel::ring::{Ring, RingFull};
use sack_kernel::trace::{TraceEvent, TraceHub};

use crate::sack::{Sack, SackError};
use crate::situation::EventId;

/// Maximum sensor-event name length an [`EventFrame`] carries inline.
pub const MAX_EVENT_NAME: usize = 32;

/// Why a frame could not be constructed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The event name is empty.
    Empty,
    /// The event name exceeds [`MAX_EVENT_NAME`] bytes.
    TooLong(usize),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Empty => f.write_str("empty event name"),
            FrameError::TooLong(n) => {
                write!(f, "event name of {n} bytes exceeds {MAX_EVENT_NAME}")
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// A fixed-size sensor frame: the unit the submission ring carries.
///
/// `Copy`, fully inline (no heap pointer), so producers enqueue it with a
/// single slot write and the ring never allocates. The event name is stored
/// as UTF-8 bytes with an explicit length.
#[derive(Clone, Copy)]
pub struct EventFrame {
    name: [u8; MAX_EVENT_NAME],
    len: u8,
    /// Producer-assigned sensor id (diagnostics only; not interpreted).
    pub sensor: u16,
    /// Frame timestamp, nanoseconds of simulated time (diagnostics only;
    /// the drain timestamps history records with the kernel clock).
    pub t_ns: u64,
    /// Pre-resolved event id from submit-time validation (see
    /// [`EventFrame::set_hint`]); meaningful only with `hint_gen != 0`.
    hint_id: u32,
    /// [`crate::sack::ActivePolicy::load_generation`] the hint was
    /// resolved under; 0 = no hint.
    hint_gen: u64,
}

impl EventFrame {
    /// Builds a frame carrying `name`.
    ///
    /// # Errors
    ///
    /// [`FrameError::Empty`] / [`FrameError::TooLong`] — the same frame
    /// shape both ingestion paths enforce.
    pub fn new(name: &str, sensor: u16, t_ns: u64) -> Result<EventFrame, FrameError> {
        let bytes = name.as_bytes();
        if bytes.is_empty() {
            return Err(FrameError::Empty);
        }
        if bytes.len() > MAX_EVENT_NAME {
            return Err(FrameError::TooLong(bytes.len()));
        }
        let mut buf = [0u8; MAX_EVENT_NAME];
        buf[..bytes.len()].copy_from_slice(bytes);
        Ok(EventFrame {
            name: buf,
            len: bytes.len() as u8,
            sensor,
            t_ns,
            hint_id: 0,
            hint_gen: 0,
        })
    }

    /// The event name.
    pub fn name(&self) -> &str {
        // Constructed from &str, so the bytes are valid UTF-8 by build.
        std::str::from_utf8(&self.name[..self.len as usize]).unwrap_or("")
    }

    /// Attaches a pre-resolved event id: `id` must be the result of
    /// resolving [`EventFrame::name`] against the event space of the
    /// [`crate::sack::ActivePolicy`] whose `load_generation` is `gen`.
    /// The drain honours the hint only while it holds that exact policy
    /// snapshot — a reload between submit and drain silently falls back
    /// to resolving the name again, so a hint can make delivery cheaper
    /// but never wrong.
    pub fn set_hint(&mut self, id: EventId, gen: u64) {
        self.hint_id = id.0 as u32;
        self.hint_gen = gen;
    }

    /// The pre-resolved event id, if it was resolved under generation
    /// `gen` (0 never matches: it is the "no hint" tag).
    pub(crate) fn hint(&self, gen: u64) -> Option<EventId> {
        (self.hint_gen == gen).then_some(EventId(self.hint_id as usize))
    }
}

impl fmt::Debug for EventFrame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EventFrame")
            .field("name", &self.name())
            .field("sensor", &self.sensor)
            .field("t_ns", &self.t_ns)
            .finish()
    }
}

/// What happens when a producer submits into a full ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackpressurePolicy {
    /// The producer helps drain the ring and retries — lossless, but the
    /// producer absorbs drain latency.
    Block,
    /// The oldest queued frames are discarded to make room; every discard
    /// increments an exact, producer-visible counter.
    DropOldest,
}

impl BackpressurePolicy {
    /// Stable label used in traces and the stats node (no spaces: the
    /// flight-record format is `k=v`).
    pub fn name(self) -> &'static str {
        match self {
            BackpressurePolicy::Block => "block",
            BackpressurePolicy::DropOldest => "drop-oldest",
        }
    }
}

impl fmt::Display for BackpressurePolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Net effect of one [`EventPlane::drain`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DrainOutcome {
    /// Frames consumed from the ring.
    pub batch: usize,
    /// Frames that matched a transition rule during the coalesced dry run.
    pub matched: usize,
    /// True when the batch published a (single) transition.
    pub transitioned: bool,
}

/// The submission-ring event plane. One per attached [`Sack`] module;
/// create via [`Sack::install_event_plane`] (or implicitly at
/// [`Sack::attach`]).
pub struct EventPlane {
    /// Back-reference to the owning module. `Weak` because the module owns
    /// the plane (`OnceLock<Arc<EventPlane>>`) — an `Arc` here would leak
    /// the pair.
    sack: Weak<Sack>,
    ring: Ring<EventFrame>,
    policy: BackpressurePolicy,
    /// Cached handle to the module's `TraceHub`, populated lazily on the
    /// first probe after tracing is wired. Submit-side probes fire per
    /// frame, so the untraced cost must be one `OnceLock` load + one
    /// enabled check — not a `Weak` upgrade of the whole module.
    hub: OnceLock<Arc<TraceHub>>,
    /// Serializes drains: batches must reach the SSM in ring order, and a
    /// blocked producer helping out must not interleave with the consumer.
    /// The guarded `Vec` is the drain's reusable batch scratch buffer.
    drain_lock: Mutex<Vec<EventFrame>>,
    submitted: AtomicU64,
    drained: AtomicU64,
    drains: AtomicU64,
    transitions: AtomicU64,
    coalesced: AtomicU64,
    backpressure_waits: AtomicU64,
}

impl EventPlane {
    /// Default submission-ring capacity (frames).
    pub const DEFAULT_CAPACITY: usize = 1024;

    /// Builds a plane over a fresh ring of `capacity` frames.
    ///
    /// # Panics
    ///
    /// Panics unless `capacity` is a power of two ≥ 2 (ring invariant).
    pub fn new(sack: &Arc<Sack>, capacity: usize, policy: BackpressurePolicy) -> Arc<EventPlane> {
        Arc::new(EventPlane {
            sack: Arc::downgrade(sack),
            ring: Ring::new(capacity),
            policy,
            hub: OnceLock::new(),
            drain_lock: Mutex::new(Vec::with_capacity(capacity)),
            submitted: AtomicU64::new(0),
            drained: AtomicU64::new(0),
            drains: AtomicU64::new(0),
            transitions: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            backpressure_waits: AtomicU64::new(0),
        })
    }

    /// The configured ring-full policy.
    pub fn policy(&self) -> BackpressurePolicy {
        self.policy
    }

    /// Ring capacity in frames.
    pub fn capacity(&self) -> usize {
        self.ring.capacity()
    }

    /// Current ring occupancy (racy snapshot).
    pub fn depth(&self) -> usize {
        self.ring.len()
    }

    /// Frames accepted by `submit` since boot.
    pub fn submitted(&self) -> u64 {
        self.submitted.load(Ordering::Relaxed)
    }

    /// Frames consumed by drains since boot.
    pub fn drained_frames(&self) -> u64 {
        self.drained.load(Ordering::Relaxed)
    }

    /// Drain calls that consumed at least one frame.
    pub fn drain_batches(&self) -> u64 {
        self.drains.load(Ordering::Relaxed)
    }

    /// Coalesced transitions actually published.
    pub fn transitions_published(&self) -> u64 {
        self.transitions.load(Ordering::Relaxed)
    }

    /// Effective transitions elided by coalescing (for a batch with
    /// `matched` rule hits, `matched - 1` publishes were saved).
    pub fn frames_coalesced(&self) -> u64 {
        self.coalesced.load(Ordering::Relaxed)
    }

    /// Frames discarded by the drop-oldest policy (exact).
    pub fn dropped(&self) -> u64 {
        self.ring.dropped()
    }

    /// Times a producer hit a full ring (either policy).
    pub fn backpressure_waits(&self) -> u64 {
        self.backpressure_waits.load(Ordering::Relaxed)
    }

    #[inline]
    fn trace<F: FnOnce() -> TraceEvent>(&self, build: F) {
        if let Some(hub) = self.hub.get() {
            if hub.enabled() {
                hub.emit(&build());
            }
            return;
        }
        // Tracing not cached yet: resolve through the module once it is
        // wired. Until then (pre-attach planes) this stays a no-op.
        let Some(sack) = self.sack.upgrade() else {
            return;
        };
        if let Some(tracing) = sack.tracing() {
            let hub = self.hub.get_or_init(|| Arc::clone(tracing.hub()));
            if hub.enabled() {
                hub.emit(&build());
            }
        }
    }

    /// Enqueues one frame, applying the backpressure policy on a full
    /// ring. Returns the number of older frames discarded to admit this
    /// one (always 0 under [`BackpressurePolicy::Block`]).
    pub fn submit(&self, frame: EventFrame) -> u64 {
        let discarded = match self.policy {
            BackpressurePolicy::DropOldest => {
                let discarded = self.ring.force_enqueue(frame);
                if discarded > 0 {
                    self.backpressure_waits.fetch_add(1, Ordering::Relaxed);
                    self.trace(|| TraceEvent::SdsBackpressure {
                        policy: BackpressurePolicy::DropOldest.name(),
                        dropped_total: self.ring.dropped(),
                    });
                }
                discarded
            }
            BackpressurePolicy::Block => {
                let mut frame = frame;
                loop {
                    match self.ring.try_enqueue(frame) {
                        Ok(()) => break,
                        Err(RingFull(rejected)) => {
                            frame = rejected;
                            self.backpressure_waits.fetch_add(1, Ordering::Relaxed);
                            self.trace(|| TraceEvent::SdsBackpressure {
                                policy: BackpressurePolicy::Block.name(),
                                dropped_total: self.ring.dropped(),
                            });
                            // Help-drain-then-retry: lossless and
                            // deadlock-free (the drain lock is the only
                            // lock, and we never hold it here).
                            let _ = self.drain(self.ring.capacity());
                        }
                    }
                }
                0
            }
        };
        self.submitted.fetch_add(1, Ordering::Relaxed);
        self.trace(|| TraceEvent::SdsEnqueue {
            depth: self.ring.len(),
        });
        discarded
    }

    /// Validates `name` against frame-shape rules and submits it.
    ///
    /// # Errors
    ///
    /// [`FrameError`] — the frame never enters the ring.
    pub fn submit_name(&self, name: &str, sensor: u16, t_ns: u64) -> Result<u64, FrameError> {
        Ok(self.submit(EventFrame::new(name, sensor, t_ns)?))
    }

    /// Enqueues a whole batch with a single ring-span claim — the fast
    /// path behind the SACKfs ring node, where one `write(2)` is one
    /// batch. When the ring lacks room for the full span, falls back to
    /// per-frame submission under the configured backpressure policy.
    /// Returns the number of older frames discarded (always 0 when the
    /// span claim succeeds or under [`BackpressurePolicy::Block`]).
    pub fn submit_batch(&self, frames: &[EventFrame]) -> u64 {
        if frames.is_empty() {
            return 0;
        }
        if self.ring.try_enqueue_batch(frames).is_ok() {
            self.submitted
                .fetch_add(frames.len() as u64, Ordering::Relaxed);
            self.trace(|| TraceEvent::SdsEnqueue {
                depth: self.ring.len(),
            });
            return 0;
        }
        let mut discarded = 0;
        for frame in frames {
            discarded += self.submit(*frame);
        }
        discarded
    }

    /// Consumes up to `max` queued frames as one batch and delivers them
    /// coalesced: at most one SSM transition for the whole batch. An empty
    /// ring is a no-op.
    ///
    /// # Errors
    ///
    /// [`SackError::Enhance`] if enhanced-mode profile patching fails
    /// while applying the batch's final state.
    pub fn drain(&self, max: usize) -> Result<DrainOutcome, SackError> {
        let mut frames = self.drain_lock.lock();
        frames.clear();
        // One head-span claim for the whole batch; the scratch buffer
        // lives in the lock, so a steady-state drain never allocates.
        self.ring.dequeue_batch(&mut frames, max);
        if frames.is_empty() {
            return Ok(DrainOutcome::default());
        }
        let Some(sack) = self.sack.upgrade() else {
            // Module gone (kernel torn down): the frames have nowhere to
            // go; report an empty drain rather than panicking mid-drop.
            return Ok(DrainOutcome::default());
        };
        let batch = frames.len();
        let outcome = sack.deliver_coalesced_frames(&frames, sack.now())?;
        self.drained.fetch_add(batch as u64, Ordering::Relaxed);
        self.drains.fetch_add(1, Ordering::Relaxed);
        if outcome.transitioned() {
            self.transitions.fetch_add(1, Ordering::Relaxed);
        }
        if outcome.matched >= 2 {
            self.coalesced
                .fetch_add((outcome.matched - 1) as u64, Ordering::Relaxed);
            sack.trace_emit(|| TraceEvent::SdsCoalesce {
                event: outcome
                    .last_event
                    .map(|e| sack.active().ssm.space().event(e).name.clone())
                    .unwrap_or_default(),
                collapsed: outcome.matched,
            });
        }
        sack.trace_emit(|| TraceEvent::SdsDrain {
            batch,
            transitions: usize::from(outcome.transitioned()),
        });
        Ok(DrainOutcome {
            batch,
            matched: outcome.matched,
            transitioned: outcome.transitioned(),
        })
    }

    /// Drains everything currently queued (convenience for tests and the
    /// SACKfs write path: one `write(2)` = one batch = one coalesced
    /// transition).
    ///
    /// # Errors
    ///
    /// As for [`EventPlane::drain`].
    pub fn drain_all(&self) -> Result<DrainOutcome, SackError> {
        self.drain(usize::MAX)
    }
}

impl fmt::Debug for EventPlane {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EventPlane")
            .field("capacity", &self.capacity())
            .field("policy", &self.policy)
            .field("depth", &self.depth())
            .field("submitted", &self.submitted())
            .field("dropped", &self.dropped())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const POLICY: &str = r#"
        states { normal = 0; emergency = 1; }
        events { crash; rescue_done; }
        transitions { normal -crash-> emergency; emergency -rescue_done-> normal; }
        initial normal;
        permissions { NORMAL; }
        state_per { normal: NORMAL; }
        per_rules { NORMAL: allow subject=* /dev/car/** r; }
    "#;

    fn plane(capacity: usize, policy: BackpressurePolicy) -> (Arc<Sack>, Arc<EventPlane>) {
        let sack = Sack::independent(POLICY).unwrap();
        let plane = sack.install_event_plane(capacity, policy);
        (sack, plane)
    }

    #[test]
    fn frame_round_trips_name() {
        let f = EventFrame::new("crash", 7, 123).unwrap();
        assert_eq!(f.name(), "crash");
        assert_eq!(f.sensor, 7);
        assert_eq!(f.t_ns, 123);
        assert!(format!("{f:?}").contains("crash"));
    }

    #[test]
    fn frame_rejects_empty_and_oversized_names() {
        assert_eq!(EventFrame::new("", 0, 0).unwrap_err(), FrameError::Empty);
        let long = "x".repeat(MAX_EVENT_NAME + 1);
        assert_eq!(
            EventFrame::new(&long, 0, 0).unwrap_err(),
            FrameError::TooLong(MAX_EVENT_NAME + 1)
        );
        let exact = "y".repeat(MAX_EVENT_NAME);
        assert_eq!(EventFrame::new(&exact, 0, 0).unwrap().name(), exact);
    }

    #[test]
    fn batch_coalesces_to_one_transition() {
        let (sack, plane) = plane(64, BackpressurePolicy::DropOldest);
        // crash, rescue_done, crash: three effective transitions that
        // coalesce into one publish ending in emergency.
        for name in ["crash", "rescue_done", "crash"] {
            plane.submit_name(name, 0, 0).unwrap();
        }
        assert_eq!(plane.depth(), 3);
        let out = plane.drain_all().unwrap();
        assert_eq!(out.batch, 3);
        assert_eq!(out.matched, 3);
        assert!(out.transitioned);
        assert_eq!(sack.current_state_name(), "emergency");
        assert_eq!(sack.active().ssm.taken_count(), 1, "one publish per drain");
        assert_eq!(plane.transitions_published(), 1);
        assert_eq!(plane.frames_coalesced(), 2);
        assert_eq!(plane.drained_frames(), 3);
        assert_eq!(plane.drain_batches(), 1);
        // Sync-path stats see every frame.
        assert_eq!(sack.stats().events_received.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn drop_oldest_discards_exactly_and_counts() {
        let (sack, plane) = plane(4, BackpressurePolicy::DropOldest);
        // 6 frames into a 4-slot ring: the 2 oldest go.
        for i in 0..6 {
            let name = if i % 2 == 0 { "crash" } else { "rescue_done" };
            plane.submit_name(name, i as u16, 0).unwrap();
        }
        assert_eq!(plane.dropped(), 2);
        assert_eq!(plane.depth(), 4);
        assert!(plane.backpressure_waits() >= 1);
        let out = plane.drain_all().unwrap();
        assert_eq!(out.batch, 4);
        assert_eq!(plane.submitted(), 6);
        assert_eq!(plane.drained_frames() + plane.dropped(), 6);
        drop(sack);
    }

    #[test]
    fn block_policy_is_lossless_via_help_drain() {
        let (sack, plane) = plane(2, BackpressurePolicy::Block);
        for _ in 0..5 {
            plane.submit_name("crash", 0, 0).unwrap();
        }
        // Submissions past capacity forced drains; nothing was lost.
        assert_eq!(plane.dropped(), 0);
        assert!(plane.backpressure_waits() >= 1);
        plane.drain_all().unwrap();
        assert_eq!(plane.drained_frames(), 5);
        assert_eq!(sack.current_state_name(), "emergency");
    }

    #[test]
    fn unknown_frame_is_counted_not_fatal() {
        let (sack, plane) = plane(8, BackpressurePolicy::DropOldest);
        // "meteor" passes frame-shape validation (this is the direct API;
        // membership is the SACKfs layer's job) but is unknown at drain.
        plane.submit_name("meteor", 0, 0).unwrap();
        plane.submit_name("crash", 0, 0).unwrap();
        let out = plane.drain_all().unwrap();
        assert_eq!(out.batch, 2);
        assert_eq!(out.matched, 1);
        assert_eq!(sack.current_state_name(), "emergency");
        assert_eq!(sack.stats().events_unknown.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn empty_drain_is_a_no_op() {
        let (sack, plane) = plane(8, BackpressurePolicy::DropOldest);
        let out = plane.drain_all().unwrap();
        assert_eq!(out, DrainOutcome::default());
        assert_eq!(plane.drain_batches(), 0);
        assert_eq!(sack.active().ssm.taken_count(), 0);
    }

    #[test]
    fn install_event_plane_is_first_wins_idempotent() {
        let sack = Sack::independent(POLICY).unwrap();
        let a = sack.install_event_plane(8, BackpressurePolicy::Block);
        let b = sack.install_event_plane(1024, BackpressurePolicy::DropOldest);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(b.capacity(), 8);
        assert_eq!(b.policy(), BackpressurePolicy::Block);
        assert!(Arc::ptr_eq(sack.event_plane().unwrap(), &a));
    }

    #[test]
    fn mpsc_submit_then_drain_preserves_final_state() {
        let (sack, plane) = plane(1024, BackpressurePolicy::Block);
        std::thread::scope(|s| {
            for t in 0..4 {
                let plane = &plane;
                s.spawn(move || {
                    for i in 0..100 {
                        let name = if (t + i) % 2 == 0 {
                            "crash"
                        } else {
                            "rescue_done"
                        };
                        plane.submit_name(name, t as u16, i as u64).unwrap();
                    }
                });
            }
        });
        plane.drain_all().unwrap();
        assert_eq!(plane.drained_frames() + plane.dropped(), 400);
        // Whatever the interleaving, the machine landed in a valid state
        // with at most one publish per drain.
        assert!(["normal", "emergency"].contains(&sack.current_state_name().as_str()));
        assert!(plane.transitions_published() <= plane.drain_batches());
    }
}
