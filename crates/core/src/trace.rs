//! sack-trace consumers: per-hook latency histograms and the flight
//! recorder, attached to a [`TraceHub`] as dynamically registered
//! callbacks.
//!
//! The kernel layer (`sack_kernel::trace`) only *emits*; everything
//! stateful lives here:
//!
//! * [`SackTracing`] — the metrics recorder. Subscribes to every
//!   tracepoint, maintains one lock-free [`LatencyHistogram`] per
//!   (hook, verdict) key, and feeds the flight recorder.
//! * [`FlightRecorder`] — a bounded MPSC ring of the last N control-plane
//!   events (SSM transitions, policy publishes, recompiles, denials), so a
//!   denial can be replayed against the situation history
//!   that led to it. Producers claim slots with a single `fetch_add`;
//!   entries carry both a global and a per-producer sequence number, and an
//!   overflow counter says exactly how many records were overwritten.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use sack_kernel::trace::{TraceEvent, TraceHandle, TraceHook, TraceHub, TraceVerdict, Tracepoint};

use crate::stats::{HistogramSnapshot, LatencyHistogram};

/// Default flight-recorder capacity (records retained).
pub const DEFAULT_FLIGHT_CAPACITY: usize = 256;

/// One retained flight-recorder record.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightEntry {
    /// Global sequence number: the claim index, dense across all producers.
    pub seq: u64,
    /// Stable id of the producing thread.
    pub producer: u64,
    /// Per-(producer, recorder) sequence number, dense per producer; a gap
    /// in a producer's surviving numbers proves records were overwritten.
    pub producer_seq: u64,
    /// The recorded event.
    pub event: TraceEvent,
}

struct FlightSlot {
    // The mutex stands in for the per-slot seqlock a real kernel ring would
    // use: it is uncontended except when a producer laps a stalled one, and
    // it makes torn reads unrepresentable in safe Rust.
    entry: Mutex<Option<FlightEntry>>,
}

/// Monotonic id source for flight recorders (keys the per-thread
/// producer-sequence map, so one thread writing to two recorders keeps two
/// independent dense sequences).
static NEXT_RECORDER: AtomicU64 = AtomicU64::new(1);

/// Monotonic id source for producer (thread) ids.
static NEXT_PRODUCER: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static PRODUCER_ID: u64 = NEXT_PRODUCER.fetch_add(1, Ordering::Relaxed);
    static PRODUCER_SEQS: RefCell<HashMap<u64, u64>> = RefCell::new(HashMap::new());
}

/// Bounded MPSC ring of the last N trace events.
///
/// Producers are wait-free up to the slot write: claiming is one
/// `fetch_add`, and the claimed global sequence *is* the record's identity.
/// Readers snapshot without stopping producers; the overflow counter and
/// the per-producer sequence numbers let them say precisely what they
/// missed.
pub struct FlightRecorder {
    id: u64,
    slots: Box<[FlightSlot]>,
    claimed: AtomicU64,
    overwritten: AtomicU64,
    // Per-producer loss ledger. Only touched on the overflow path (a ring
    // that never wraps never takes this lock), so a plain mutex is fine.
    dropped_by: Mutex<BTreeMap<u64, u64>>,
}

impl FlightRecorder {
    /// Creates a ring retaining the last `capacity` records.
    ///
    /// # Panics
    ///
    /// Panics when `capacity` is zero.
    pub fn new(capacity: usize) -> FlightRecorder {
        assert!(capacity > 0, "flight capacity must be non-zero");
        FlightRecorder {
            id: NEXT_RECORDER.fetch_add(1, Ordering::Relaxed),
            slots: (0..capacity)
                .map(|_| FlightSlot {
                    entry: Mutex::new(None),
                })
                .collect(),
            claimed: AtomicU64::new(0),
            overwritten: AtomicU64::new(0),
            dropped_by: Mutex::new(BTreeMap::new()),
        }
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Records an event; returns its global sequence number.
    pub fn record(&self, event: TraceEvent) -> u64 {
        let seq = self.claimed.fetch_add(1, Ordering::Relaxed);
        let cap = self.slots.len() as u64;
        if seq >= cap {
            self.overwritten.fetch_add(1, Ordering::Relaxed);
        }
        let producer = PRODUCER_ID.try_with(|p| *p).unwrap_or(0);
        let producer_seq = PRODUCER_SEQS
            .try_with(|seqs| {
                let mut seqs = seqs.borrow_mut();
                let next = seqs.entry(self.id).or_insert(0);
                let current = *next;
                *next += 1;
                current
            })
            .unwrap_or(0);
        let entry = FlightEntry {
            seq,
            producer,
            producer_seq,
            event,
        };
        let mut slot = self.slots[(seq % cap) as usize].entry.lock();
        // A producer that claimed an older sequence but got here after being
        // lapped must not clobber the newer record.
        match slot.as_ref() {
            None => *slot = Some(entry),
            Some(existing) if existing.seq < seq => {
                // Evicting a retained record: the loss belongs to the
                // producer whose record is being overwritten.
                let evicted = existing.producer;
                *slot = Some(entry);
                drop(slot);
                *self.dropped_by.lock().entry(evicted).or_insert(0) += 1;
            }
            Some(_) => {
                // Lapped: the incoming (older) record is the one discarded.
                drop(slot);
                *self.dropped_by.lock().entry(producer).or_insert(0) += 1;
            }
        }
        seq
    }

    /// Total records ever claimed.
    pub fn total(&self) -> u64 {
        self.claimed.load(Ordering::Relaxed)
    }

    /// Records overwritten before a reader could see them.
    pub fn dropped(&self) -> u64 {
        self.overwritten.load(Ordering::Relaxed)
    }

    /// Per-producer loss counts: how many of each producer's records were
    /// evicted (or lap-discarded) before a reader saw them. The values sum
    /// to [`FlightRecorder::dropped`] once all in-flight writes land, which
    /// is what lets a ring-overflow detector localize the lossy producer
    /// instead of only reporting a global count.
    pub fn dropped_by_producer(&self) -> BTreeMap<u64, u64> {
        self.dropped_by.lock().clone()
    }

    /// Snapshot of the retained records, oldest first (global-seq order).
    pub fn snapshot(&self) -> Vec<FlightEntry> {
        let mut entries: Vec<FlightEntry> = self
            .slots
            .iter()
            .filter_map(|slot| slot.entry.lock().clone())
            .collect();
        entries.sort_by_key(|e| e.seq);
        entries
    }

    /// Renders the ring as the `tracing/flight` node's text:
    /// a `# flight capacity=<C> total=<N> dropped=<D>` header, then one
    /// `seq=<s> producer=<p> pseq=<q> <event>` line per retained record.
    pub fn render(&self) -> String {
        let entries = self.snapshot();
        let mut out = format!(
            "# flight capacity={} total={} dropped={}\n",
            self.capacity(),
            self.total(),
            self.dropped()
        );
        for e in &entries {
            out.push_str(&format!(
                "seq={} producer={} pseq={} {}\n",
                e.seq, e.producer, e.producer_seq, e.event
            ));
        }
        out
    }
}

impl fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("capacity", &self.capacity())
            .field("total", &self.total())
            .field("dropped", &self.dropped())
            .finish()
    }
}

const VERDICTS: usize = 2;
const HIST_KEYS: usize = TraceHook::ALL.len() * VERDICTS;

struct RecorderState {
    hists: Vec<LatencyHistogram>,
    flight: FlightRecorder,
}

impl RecorderState {
    fn hist(&self, hook: TraceHook, verdict: TraceVerdict) -> &LatencyHistogram {
        &self.hists[hook.index() * VERDICTS + verdict.index()]
    }

    fn on_event(&self, event: &TraceEvent) {
        match event {
            TraceEvent::HookExit {
                hook,
                verdict,
                latency_ns,
            } => {
                self.hist(*hook, *verdict).record(*latency_ns);
                if *verdict == TraceVerdict::Deny {
                    self.flight.record(event.clone());
                }
            }
            TraceEvent::SsmTransition { .. }
            | TraceEvent::PolicyPublish { .. }
            | TraceEvent::ProfileRecompile { .. }
            | TraceEvent::AuditEmit { .. }
            | TraceEvent::SdsDrain { .. }
            | TraceEvent::SdsCoalesce { .. }
            | TraceEvent::SdsBackpressure { .. }
            | TraceEvent::FleetRolloutBegin { .. }
            | TraceEvent::FleetRolloutPush { .. }
            | TraceEvent::FleetRolloutPromote { .. }
            | TraceEvent::FleetRolloutRollback { .. }
            | TraceEvent::FleetRolloutComplete { .. } => {
                self.flight.record(event.clone());
            }
            // Per-dispatch and per-frame hot paths: counted by the hub, never
            // flight-recorded (at sensor rates an enqueue record would flush
            // the whole ring between any two control-plane records).
            TraceEvent::HookEnter { .. } | TraceEvent::SdsEnqueue { .. } => {}
        }
    }
}

/// The sack-trace metrics recorder: histograms + flight recorder behind a
/// registered hub callback. Dropping it unregisters from the hub.
pub struct SackTracing {
    hub: Arc<TraceHub>,
    state: Arc<RecorderState>,
    handle: TraceHandle,
    /// Fleet instance id of the kernel this recorder is attached to
    /// (`0` = unset, e.g. a free-standing recorder in a bench).
    instance: AtomicU64,
    /// Monotonic generation stamped onto each telemetry capture, so deltas
    /// can name exactly which capture they are relative to.
    generation: AtomicU64,
}

impl SackTracing {
    /// Attaches a recorder with the default flight capacity.
    pub fn attach(hub: Arc<TraceHub>) -> Arc<SackTracing> {
        SackTracing::attach_with_flight_capacity(hub, DEFAULT_FLIGHT_CAPACITY)
    }

    /// Attaches a recorder with an explicit flight-recorder capacity.
    pub fn attach_with_flight_capacity(hub: Arc<TraceHub>, capacity: usize) -> Arc<SackTracing> {
        let state = Arc::new(RecorderState {
            hists: (0..HIST_KEYS).map(|_| LatencyHistogram::new()).collect(),
            flight: FlightRecorder::new(capacity),
        });
        let cb_state = Arc::clone(&state);
        let handle = hub.register_all(Arc::new(move |ev| cb_state.on_event(ev)));
        Arc::new(SackTracing {
            hub,
            state,
            handle,
            instance: AtomicU64::new(0),
            generation: AtomicU64::new(0),
        })
    }

    /// Stamps the fleet instance id of the kernel this recorder belongs to.
    /// Called by `Sack::attach`; telemetry captured before attachment
    /// carries instance 0 ("unset").
    pub fn set_instance(&self, instance: u64) {
        self.instance.store(instance, Ordering::Relaxed);
    }

    /// The stamped fleet instance id (0 when never attached).
    pub fn instance(&self) -> u64 {
        self.instance.load(Ordering::Relaxed)
    }

    /// Allocates the next telemetry generation. Each capture gets a fresh,
    /// strictly increasing generation so delta replay can order captures.
    pub fn next_generation(&self) -> u64 {
        self.generation.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// The hub this recorder listens on.
    pub fn hub(&self) -> &Arc<TraceHub> {
        &self.hub
    }

    /// The flight recorder.
    pub fn flight(&self) -> &FlightRecorder {
        &self.state.flight
    }

    /// Snapshot of one (hook, verdict) histogram.
    pub fn histogram(&self, hook: TraceHook, verdict: TraceVerdict) -> HistogramSnapshot {
        self.state.hist(hook, verdict).snapshot()
    }

    /// Merged latency distribution for a hook across verdicts.
    pub fn hook_histogram(&self, hook: TraceHook) -> HistogramSnapshot {
        let mut merged = self.histogram(hook, TraceVerdict::Allow);
        merged.merge(&self.histogram(hook, TraceVerdict::Deny));
        merged
    }

    /// Every non-empty (hook, verdict) histogram, in dense key order — the
    /// raw material for the `metrics` node.
    pub fn histogram_snapshots(&self) -> Vec<(TraceHook, TraceVerdict, HistogramSnapshot)> {
        let mut out = Vec::new();
        for hook in TraceHook::ALL {
            for verdict in [TraceVerdict::Allow, TraceVerdict::Deny] {
                let snap = self.histogram(hook, verdict);
                if !snap.is_empty() {
                    out.push((hook, verdict, snap));
                }
            }
        }
        out
    }

    /// Renders the `tracing/events` node: one line per tracepoint with its
    /// enabled state and fired count.
    pub fn render_events(&self) -> String {
        let mut out = format!(
            "# tracepoints enabled={}\n",
            if self.hub.enabled() { 1 } else { 0 }
        );
        for point in Tracepoint::ALL {
            out.push_str(&format!("{} {}\n", point.name(), self.hub.fired(point)));
        }
        out
    }
}

impl fmt::Debug for SackTracing {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SackTracing")
            .field("enabled", &self.hub.enabled())
            .field("flight", &self.state.flight)
            .finish()
    }
}

impl Drop for SackTracing {
    fn drop(&mut self) {
        self.hub.unregister(self.handle);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flight_assigns_dense_global_seqs() {
        let ring = FlightRecorder::new(8);
        for i in 0..5 {
            assert_eq!(ring.record(TraceEvent::AuditEmit { seq: i }), i);
        }
        let entries = ring.snapshot();
        assert_eq!(entries.len(), 5);
        assert_eq!(ring.total(), 5);
        assert_eq!(ring.dropped(), 0);
        for (i, e) in entries.iter().enumerate() {
            assert_eq!(e.seq, i as u64);
        }
    }

    #[test]
    fn flight_wraparound_keeps_newest_and_counts_drops() {
        let ring = FlightRecorder::new(4);
        for i in 0..10 {
            ring.record(TraceEvent::AuditEmit { seq: i });
        }
        let entries = ring.snapshot();
        assert_eq!(entries.len(), 4, "bounded at capacity");
        assert_eq!(ring.total(), 10);
        assert_eq!(ring.dropped(), 6, "six oldest overwritten");
        let seqs: Vec<u64> = entries.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9], "newest survive in order");
        // Single producer: surviving per-producer seqs are a contiguous
        // suffix, and the gap before them equals the drop count.
        let pseqs: Vec<u64> = entries.iter().map(|e| e.producer_seq).collect();
        assert_eq!(pseqs, vec![6, 7, 8, 9]);
    }

    #[test]
    fn flight_multi_producer_seq_gap_detection() {
        let ring = Arc::new(FlightRecorder::new(8));
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let ring = Arc::clone(&ring);
                std::thread::spawn(move || {
                    for i in 0..50 {
                        ring.record(TraceEvent::AuditEmit { seq: i });
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(ring.total(), 200);
        assert_eq!(ring.dropped(), 192);
        let entries = ring.snapshot();
        assert_eq!(entries.len(), 8);
        // Global seqs are unique and sorted.
        let seqs: Vec<u64> = entries.iter().map(|e| e.seq).collect();
        let mut sorted = seqs.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(seqs, sorted);
        // Each producer's surviving pseqs are strictly increasing (gaps are
        // allowed — they mark overwritten records — regressions are not).
        let mut per_producer: HashMap<u64, Vec<u64>> = HashMap::new();
        for e in &entries {
            per_producer
                .entry(e.producer)
                .or_default()
                .push(e.producer_seq);
        }
        for (producer, pseqs) in per_producer {
            assert!(
                pseqs.windows(2).all(|w| w[0] < w[1]),
                "producer {producer} seqs must increase: {pseqs:?}"
            );
        }
    }

    /// Multi-producer stress: with a ring big enough that nothing is
    /// dropped, every producer's seq stream must be dense (0..n gapless),
    /// the global seq must be a complete monotone sequence, and the dropped
    /// counter must be exactly zero.
    #[test]
    fn flight_multi_producer_stress_gapless_when_nothing_drops() {
        const PRODUCERS: usize = 8;
        const PER_PRODUCER: usize = 500;
        let ring = Arc::new(FlightRecorder::new(PRODUCERS * PER_PRODUCER));
        let barrier = Arc::new(std::sync::Barrier::new(PRODUCERS));
        let threads: Vec<_> = (0..PRODUCERS)
            .map(|_| {
                let ring = Arc::clone(&ring);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    for i in 0..PER_PRODUCER as u64 {
                        ring.record(TraceEvent::AuditEmit { seq: i });
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let expected = (PRODUCERS * PER_PRODUCER) as u64;
        assert_eq!(ring.total(), expected);
        assert_eq!(ring.dropped(), 0, "nothing may drop in an oversized ring");
        let entries = ring.snapshot();
        assert_eq!(entries.len(), expected as usize);
        // Global seq: complete and strictly monotone — 0..expected with no
        // holes and no duplicates (snapshot sorts by seq).
        for (i, e) in entries.iter().enumerate() {
            assert_eq!(e.seq, i as u64, "global seq must be gapless");
        }
        // Per-producer seqs: each of the 8 producers emitted exactly
        // PER_PRODUCER records with a dense 0..PER_PRODUCER seq stream.
        let mut per_producer: HashMap<u64, Vec<u64>> = HashMap::new();
        for e in &entries {
            per_producer
                .entry(e.producer)
                .or_default()
                .push(e.producer_seq);
        }
        assert_eq!(per_producer.len(), PRODUCERS);
        for (producer, mut pseqs) in per_producer {
            pseqs.sort_unstable();
            let dense: Vec<u64> = (0..PER_PRODUCER as u64).collect();
            assert_eq!(pseqs, dense, "producer {producer} has a seq gap");
        }
    }

    /// Multi-producer stress under wraparound: the dropped counter must
    /// account for exactly `total - capacity` records — an operator reading
    /// `dropped()` knows precisely how much history the ring lost.
    #[test]
    fn flight_multi_producer_stress_exact_drop_count_under_wraparound() {
        const PRODUCERS: usize = 8;
        const PER_PRODUCER: usize = 500;
        const CAP: usize = 64;
        let ring = Arc::new(FlightRecorder::new(CAP));
        let barrier = Arc::new(std::sync::Barrier::new(PRODUCERS));
        let threads: Vec<_> = (0..PRODUCERS)
            .map(|_| {
                let ring = Arc::clone(&ring);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    for i in 0..PER_PRODUCER as u64 {
                        ring.record(TraceEvent::AuditEmit { seq: i });
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let total = (PRODUCERS * PER_PRODUCER) as u64;
        assert_eq!(ring.total(), total);
        assert_eq!(
            ring.dropped(),
            total - CAP as u64,
            "drop count must be exact"
        );
        let entries = ring.snapshot();
        assert_eq!(entries.len(), CAP);
        // Surviving records are unique by global seq and monotone.
        for pair in entries.windows(2) {
            assert!(pair[0].seq < pair[1].seq, "global seq regressed");
        }
    }

    #[test]
    fn flight_per_producer_drop_ledger_sums_to_global() {
        let ring = FlightRecorder::new(4);
        for i in 0..10 {
            ring.record(TraceEvent::AuditEmit { seq: i });
        }
        let by = ring.dropped_by_producer();
        assert_eq!(by.len(), 1, "single producer: one ledger entry");
        let sum: u64 = by.values().sum();
        assert_eq!(sum, ring.dropped(), "ledger must sum to the global count");
        // A ring that never wraps keeps an empty ledger.
        let quiet = FlightRecorder::new(8);
        quiet.record(TraceEvent::AuditEmit { seq: 0 });
        assert!(quiet.dropped_by_producer().is_empty());
    }

    #[test]
    fn flight_render_has_header_and_records() {
        let ring = FlightRecorder::new(4);
        ring.record(TraceEvent::SsmTransition {
            from: "normal".into(),
            to: "emergency".into(),
            event: "crash".into(),
        });
        let text = ring.render();
        let mut lines = text.lines();
        assert_eq!(
            lines.next().unwrap(),
            "# flight capacity=4 total=1 dropped=0"
        );
        let record = lines.next().unwrap();
        assert!(record.starts_with("seq=0 "), "{record}");
        assert!(
            record.contains("ssm_transition from=normal to=emergency event=crash"),
            "{record}"
        );
    }

    #[test]
    fn recorder_keys_histograms_by_hook_and_verdict() {
        let hub = TraceHub::new();
        let tracing = SackTracing::attach(Arc::clone(&hub));
        hub.set_enabled(true);
        let hook = TraceHook::FileOpen;
        for (verdict, ns) in [
            (TraceVerdict::Allow, 800),
            (TraceVerdict::Allow, 50),
            (TraceVerdict::Deny, 300),
        ] {
            hub.emit(&TraceEvent::HookEnter { hook });
            hub.emit(&TraceEvent::HookExit {
                hook,
                verdict,
                latency_ns: ns,
            });
        }
        let allow = tracing.histogram(hook, TraceVerdict::Allow);
        let deny = tracing.histogram(hook, TraceVerdict::Deny);
        assert_eq!(allow.count(), 2);
        assert_eq!(allow.sum, 850);
        assert_eq!(deny.count(), 1);
        assert_eq!(deny.sum, 300);
        assert_eq!(tracing.hook_histogram(hook).count(), 3);
    }

    #[test]
    fn recorder_flight_captures_denials_and_control_plane() {
        let hub = TraceHub::new();
        let tracing = SackTracing::attach(Arc::clone(&hub));
        hub.set_enabled(true);
        hub.emit(&TraceEvent::SsmTransition {
            from: "normal".into(),
            to: "emergency".into(),
            event: "crash".into(),
        });
        hub.emit(&TraceEvent::HookEnter {
            hook: TraceHook::FileOpen,
        });
        hub.emit(&TraceEvent::HookExit {
            hook: TraceHook::FileOpen,
            verdict: TraceVerdict::Deny,
            latency_ns: 123,
        });
        hub.emit(&TraceEvent::HookEnter {
            hook: TraceHook::FileOpen,
        });
        hub.emit(&TraceEvent::HookExit {
            hook: TraceHook::FileOpen,
            verdict: TraceVerdict::Allow,
            latency_ns: 45,
        });
        let events: Vec<TraceEvent> = tracing
            .flight()
            .snapshot()
            .into_iter()
            .map(|e| e.event)
            .collect();
        assert_eq!(events.len(), 2, "allowed exits stay out of the flight");
        assert!(matches!(events[0], TraceEvent::SsmTransition { .. }));
        assert!(matches!(
            events[1],
            TraceEvent::HookExit {
                verdict: TraceVerdict::Deny,
                ..
            }
        ));
    }

    #[test]
    fn drop_unregisters_from_hub() {
        let hub = TraceHub::new();
        let tracing = SackTracing::attach(Arc::clone(&hub));
        assert_eq!(hub.callback_count(), 1);
        drop(tracing);
        assert_eq!(hub.callback_count(), 0);
    }

    #[test]
    fn render_events_lists_every_tracepoint() {
        let hub = TraceHub::new();
        let tracing = SackTracing::attach(Arc::clone(&hub));
        hub.set_enabled(true);
        hub.emit(&TraceEvent::AuditEmit { seq: 0 });
        let text = tracing.render_events();
        assert!(text.starts_with("# tracepoints enabled=1\n"));
        for point in Tracepoint::ALL {
            assert!(text.contains(point.name()), "missing {point}");
        }
        assert!(text.contains("audit_emit 1\n"));
    }
}
