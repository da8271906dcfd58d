//! In-memory spans for the traced run.
//!
//! Spans are recorded by the benchmark around each call it makes into a
//! layer. The program itself is not instrumented: the hook layers below a
//! syscall are timed by *shadow* calls, i.e. direct calls into `LsmStack`,
//! `Sack`, `AppArmor` and `StateDfa` with the same arguments, made right
//! after the real syscall of a sampled request. A shadow span's parent is
//! the layer that calls it in the real path (the syscall for `LsmStack`,
//! the stack for a module), so nesting is logical rather than temporal,
//! and a layer's self time is its duration minus the durations of its
//! logical children. The `StateDfa` walk is a root span of its own: `Sack`
//! calls it only on a decision-cache miss.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique id (thread-tagged).
    pub id: u64,
    /// Parent span id, 0 for a root.
    pub parent: u64,
    /// Request id shared by every span of one request.
    pub req: u64,
    /// Layer call name, e.g. `uctx.open_read_close` or `sack.file_open`.
    pub name: &'static str,
    /// Start, ns since the run epoch.
    pub start_ns: u64,
    /// End, ns since the run epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-thread span recorder.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    tag: u64,
    next: u64,
    spans: Vec<Span>,
}

impl Recorder {
    /// A recorder whose ids carry `thread` in their high bits.
    pub fn new(epoch: Instant, thread: u64) -> Recorder {
        Recorder {
            epoch,
            tag: thread << 40,
            next: 0,
            spans: Vec::new(),
        }
    }

    /// Reserves an id, for a parent whose children are recorded first.
    pub fn reserve(&mut self) -> u64 {
        self.next += 1;
        self.tag | self.next
    }

    /// Records a span under a reserved `id`.
    pub fn record_as(
        &mut self,
        id: u64,
        name: &'static str,
        parent: u64,
        req: u64,
        start: Instant,
        end: Instant,
    ) {
        let rel = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            id,
            parent,
            req,
            name,
            start_ns: rel(start),
            end_ns: rel(end),
        });
    }

    /// Records a span with a fresh id, returning the id.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: u64,
        req: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = self.reserve();
        self.record_as(id, name, parent, req, start, end);
        id
    }

    /// The recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Per-name summary of a span set.
#[derive(Debug, Clone, Default)]
pub struct SpanStat {
    /// Spans of this name.
    pub count: u64,
    /// Mean duration, ns.
    pub mean_ns: f64,
    /// Mean self time (duration minus logical children), ns.
    pub self_ns: f64,
}

/// Summarises spans by name. Self time is left unclamped, so the self
/// times of a request's spans add up exactly to its root's duration.
pub fn summarise(spans: &[Span]) -> BTreeMap<&'static str, SpanStat> {
    let mut child_time: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *child_time.entry(s.parent).or_default() += s.dur();
    }
    let mut sums: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
    for s in spans {
        let e = sums.entry(s.name).or_default();
        let dur = s.dur() as f64;
        e.0 += 1;
        e.1 += dur;
        e.2 += dur - child_time.get(&s.id).copied().unwrap_or(0) as f64;
    }
    sums.into_iter()
        .map(|(name, (n, dur, own))| {
            (
                name,
                SpanStat {
                    count: n,
                    mean_ns: dur / n as f64,
                    self_ns: own / n as f64,
                },
            )
        })
        .collect()
}

/// Writes `spans` as JSON lines to `path`, creating its directory.
///
/// # Errors
///
/// File-system errors.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = String::with_capacity(spans.len() * 96);
    for s in spans {
        let _ = writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"req\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.req, s.name, s.start_ns, s.end_ns
        );
    }
    let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
    file.write_all(out.as_bytes())?;
    file.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_logical_children() {
        let t0 = Instant::now();
        let at = |ns: u64| t0 + Duration::from_nanos(ns);
        let mut r = Recorder::new(t0, 1);
        let root = r.reserve();
        let stack = r.reserve();
        r.record("sack.file_open", stack, 7, at(200), at(260));
        r.record_as(stack, "lsm.file_open", root, 7, at(200), at(300));
        r.record_as(root, "uctx.open", 0, 7, at(0), at(150));
        let summary = summarise(&r.into_spans());
        assert_eq!(summary["uctx.open"].self_ns, 50.0);
        assert_eq!(summary["lsm.file_open"].self_ns, 40.0);
        assert_eq!(summary["sack.file_open"].self_ns, 60.0);
        assert_eq!(summary["uctx.open"].count, 1);
    }
}
