//! The workload-independent part of a run: set-up timing, the untraced
//! measurement, the two phases of the traced run, and metric emission.

use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use crate::control::{self, ControlStats};
use crate::layers::{OpTimes, Stack};
use crate::report::{Kind, Report};
use crate::rng::Rng;
use crate::spans::{self, Span};
use crate::stats::{median, ratio, Samples};
use crate::sys;

/// Command-line options of one run.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced run (`--trace 1`).
    pub traced: bool,
    /// Self-check only: flip one expected verdict, which the run must
    /// report as a failure.
    pub plant_wrong_verdict: bool,
}

/// An untraced run sets up at least this many times, and for at least
/// [`SETUP_MIN_TIME`], both before and after its measured window;
/// `setup_s` is the median of all of them. A set-up of a few milliseconds
/// spawns compile threads whose start-up jitter dominates it, so short
/// set-ups are repeated until their median settles. The machine's speed
/// drifts over tens of seconds, so one batch at the start alone would
/// sample a single moment of it.
const SETUP_MIN_REPS: usize = 7;
const SETUP_MIN_TIME: Duration = Duration::from_millis(500);
const SETUP_MAX_REPS: usize = 200;

/// Length of one interleaving slice: in the traced run's first phase the
/// no-LSM reference alternates with the kernel under test.
const SLICE: Duration = Duration::from_millis(10);

/// Length of one statistics window. Op percentiles are the median over
/// windows of each window's percentile, so a burst of interference from
/// the machine's other tenants moves a few windows, not the result.
pub const WINDOW: Duration = Duration::from_millis(250);

/// One measured phase.
#[derive(Debug, Clone)]
pub struct Phase {
    /// Phase start.
    pub start: Instant,
    /// Phase end.
    pub until: Instant,
    /// Shadow and record spans for every n-th request; 0 in untraced
    /// phases.
    pub sample_every: u64,
}

impl Phase {
    /// The blocks of a phase in which the op mix and the control plane
    /// alternate, as `(ops_until, block_end)`: equal blocks of about
    /// [`control::BLOCK`], the mix in the first [`control::OP_SHARE`] of
    /// each.
    pub fn blocks(&self) -> Vec<(Instant, Instant)> {
        let len = self.until - self.start;
        let n = (len.as_secs_f64() / control::BLOCK.as_secs_f64())
            .round()
            .max(1.0) as u32;
        let block = len / n;
        (0..n)
            .map(|i| {
                let start = self.start + block * i;
                let end = if i + 1 == n { self.until } else { start + block };
                (start + block.mul_f64(control::OP_SHARE), end)
            })
            .collect()
    }

    /// True when `now` falls in a slice of the no-LSM reference, in a
    /// phase that has one. Slices are aligned to the phase start, so
    /// concurrent clients switch together.
    pub fn reference_slice(&self, now: Instant) -> bool {
        (now.duration_since(self.start).as_nanos() / SLICE.as_nanos()) % 2 == 1
    }

    /// True in the traced phase.
    pub fn traced(&self) -> bool {
        self.sample_every > 0
    }

    /// True when request `req` is sampled for spans and shadow calls.
    pub fn sampled(&self, req: u64) -> bool {
        self.traced() && req.is_multiple_of(self.sample_every)
    }

    /// Index of the statistics window `now` falls in.
    pub fn window(&self, now: Instant) -> u64 {
        (now.duration_since(self.start).as_nanos() / WINDOW.as_nanos()) as u64
    }
}

/// What a workload measured in one phase.
#[derive(Debug, Default)]
pub struct Measured {
    /// Ops on the kernel under test.
    pub sut: OpTimes,
    /// Ops on the no-LSM reference (interleaved phase only).
    pub floor: OpTimes,
    /// The control plane.
    pub control: ControlStats,
    /// Closed-loop client threads.
    pub clients: usize,
    /// Spans (traced phase only).
    pub spans: Vec<Span>,
}

/// A workload: how to set it up and how to measure one phase of it.
pub trait Workload {
    /// The built environment (kernel under test and its clients).
    type Env;
    /// The verdict oracle and expected-verdict tables.
    type Oracle;

    /// Workload name.
    fn name(&self) -> &'static str;
    /// Load-generating threads (closed-loop clients plus generators).
    fn threads(&self) -> usize;
    /// Boots the kernel under test, compiles policy and profiles, and
    /// prepares files and processes: everything before the first timed op.
    fn setup(&self) -> Self::Env;
    /// Builds what the benchmark needs around the kernel under test but
    /// is not part of its set-up (untimed).
    fn fixtures(&self, _env: &mut Self::Env) {}
    /// Builds the oracle (not part of set-up: the program never sees it).
    fn oracle(&self, env: &Self::Env, plant_wrong_verdict: bool) -> Self::Oracle;
    /// Boots the no-LSM reference kernel with the same files.
    fn reference(&self) -> Self::Env;
    /// The layers of the kernel under test.
    fn stack<'a>(&self, env: &'a Self::Env) -> &'a Stack;
    /// Builds the control plane's direct-call twin (traced run).
    fn enable_twin(&self, env: &mut Self::Env);
    /// Measures one phase; `reference` is interleaved when given.
    fn measure(
        &self,
        env: &mut Self::Env,
        reference: Option<&Self::Env>,
        oracle: &mut Self::Oracle,
        phase: &Phase,
        rng: &mut Rng,
        report: &mut Report,
    ) -> Measured;
}

/// Per-layer metrics measured on every workload: the `per_layer` list of
/// `BENCHMARK.json`. Any other per-layer metric is printed as a detail.
pub const LAYER_METRICS: &[&str] = &[
    "kernel.uctx.stat_p50_us",
    "kernel.uctx.open_read_close_p50_us",
    "kernel.nolsm.op_p50_us",
    "kernel.lsm.overhead_x",
    "kernel.lsm.stack_file_open_ns",
    "core.sack.file_open_ns",
    "core.statedfa.decide_ns",
    "core.cache.hit_ratio",
    "core.sack.protected_ratio",
    "core.ssm.deliver_us",
    "core.sackfs.event_write_us",
    "core.sackfs.ring_write_us",
    "core.eventplane.frames_per_transition",
    "core.eventplane.dropped",
    "sds.process_frame_us",
    "core.reload_ms",
    "core.policy_compile_ms",
    "core.audit.records_per_denial",
    "loadgen.lag_p99_us",
    "bench.timer_overhead_ns",
    "bench.trace_overhead_x",
    "self.uctx.open_read_close_ns",
    "self.lsm.file_open_ns",
    "self.sack.file_open_ns",
    "self.statedfa.decide_ns",
    "self.switch_ns",
    "self.sds.process_frame_ns",
];

fn layer(report: &mut Report, name: &str, unit: &'static str, value: f64, note: String) {
    let kind = if LAYER_METRICS.contains(&name) {
        Kind::Layer
    } else {
        Kind::Detail
    };
    report.metric(kind, name, unit, value, note);
}

fn us(ns: f64) -> f64 {
    ns / 1e3
}

fn p(s: &Samples, q: f64) -> f64 {
    s.quantile(q)
}

/// Counters of the module stack, read around the untraced phase so the
/// traced phase's shadow calls never inflate them.
#[derive(Debug, Default, Clone, Copy)]
struct Counters {
    cache_hits: u64,
    cache_misses: u64,
    checks: u64,
    unprotected: u64,
    audit_records: u64,
    lsm_denials: u64,
    drained: u64,
    transitions: u64,
    dropped: u64,
}

impl Counters {
    fn read(stack: &Stack) -> Counters {
        stack.drain_audit();
        let mut c = Counters {
            lsm_denials: stack.kernel.lsm().stats().denials(),
            audit_records: stack.apparmor_audit.load(Ordering::Relaxed),
            ..Counters::default()
        };
        if let Some(sack) = &stack.sack {
            let s = sack.stats();
            c.cache_hits = s.cache_hits.load(Ordering::Relaxed);
            c.cache_misses = s.cache_misses.load(Ordering::Relaxed);
            c.checks = s.checks.load(Ordering::Relaxed);
            c.unprotected = s.unprotected.load(Ordering::Relaxed);
            c.audit_records += sack.audit().total();
            if let Some(plane) = sack.event_plane() {
                c.drained = plane.drained_frames();
                c.transitions = plane.transitions_published();
                c.dropped = plane.dropped();
            }
        }
        c
    }

    fn since(self, base: Counters) -> Counters {
        Counters {
            cache_hits: self.cache_hits - base.cache_hits,
            cache_misses: self.cache_misses - base.cache_misses,
            checks: self.checks - base.checks,
            unprotected: self.unprotected - base.unprotected,
            audit_records: self.audit_records - base.audit_records,
            lsm_denials: self.lsm_denials - base.lsm_denials,
            drained: self.drained - base.drained,
            transitions: self.transitions - base.transitions,
            dropped: self.dropped - base.dropped,
        }
    }
}

fn ops_per_s(m: &Measured) -> f64 {
    ratio(
        m.sut.count() as f64,
        m.sut.busy_ns as f64 / 1e9 / m.clients.max(1) as f64,
    )
}

/// Runs `w` as `opts` asks and returns its report.
pub fn run<W: Workload>(w: &W, opts: &Opts) -> Report {
    let mut report = Report::new();
    report.info("workload", w.name());
    report.info("seed", opts.seed);
    report.info("seconds", opts.seconds);
    report.info("trace", u8::from(opts.traced));
    report.info("nproc", sys::nproc());
    report.info("threads", w.threads());
    report.info("commit", sys::commit());
    report.info("source_digest", sys::source_digest());
    let timer_ns = sys::timer_overhead_ns();
    report.info("timer_overhead_ns", timer_ns);

    let mut setup_s = Vec::new();
    let mut env = set_up(w, &mut setup_s, opts.traced);
    w.fixtures(&mut env);
    let mut oracle = w.oracle(&env, opts.plant_wrong_verdict);
    let mut rng = Rng::new(opts.seed, 0x5ac);
    let window = Duration::from_secs_f64(opts.seconds);

    if !opts.traced {
        let start = Instant::now();
        let phase = Phase {
            start,
            until: start + window,
            sample_every: 0,
        };
        let m = w.measure(&mut env, None, &mut oracle, &phase, &mut rng, &mut report);
        drop(env);
        drop(set_up(w, &mut setup_s, false));
        emit_end_to_end(&mut report, &m, &setup_s);
        report.info("lag_p99_us", us(p(&m.control.lag, 0.99)));
        report.info("clients", m.clients);
        report.info("events_sent", m.control.events_sent);
        report.info("events_received", m.control.events_received);
        return report;
    }

    for &(name, ms) in &w.stack(&env).setup_ms {
        layer(&mut report, name, "ms", ms, "one set-up".to_string());
    }
    let reference = w.reference();
    w.enable_twin(&mut env);
    // Phase A, untraced: counters, per-op latency, the interleaved no-LSM
    // floor. Phase B, traced: spans and shadow calls.
    let half = window / 2;
    let start = Instant::now();
    let phase_a = Phase {
        start,
        until: start + half,
        sample_every: 0,
    };
    let before = Counters::read(w.stack(&env));
    let a = w.measure(
        &mut env,
        Some(&reference),
        &mut oracle,
        &phase_a,
        &mut rng,
        &mut report,
    );
    let counters = Counters::read(w.stack(&env)).since(before);
    let start = Instant::now();
    let phase_b = Phase {
        start,
        until: start + half,
        sample_every: 256,
    };
    let b = w.measure(&mut env, None, &mut oracle, &phase_b, &mut rng, &mut report);
    emit_layers(&mut report, &a, &b, counters, timer_ns);
    report.info("lag_p99_us", us(p(&a.control.lag, 0.99)));
    report.info("clients", a.clients);
    report.info("events_sent", a.control.events_sent + b.control.events_sent);
    report.info(
        "events_received",
        a.control.events_received + b.control.events_received,
    );
    let out = std::path::PathBuf::from(".sackbench-out").join(format!(
        "spans-{}-seed{}.jsonl",
        w.name(),
        opts.seed
    ));
    match spans::write_jsonl(&out, &b.spans) {
        Ok(()) => report.info("spans", out.display()),
        Err(e) => report.fail(format!("writing spans to {}: {e}", out.display())),
    }
    report
}

/// Sets `w` up, once or as often as [`SETUP_MIN_REPS`] and
/// [`SETUP_MIN_TIME`] ask, dropping each environment before building the
/// next; appends each set-up's seconds to `times` and returns the last.
fn set_up<W: Workload>(w: &W, times: &mut Vec<f64>, once: bool) -> W::Env {
    let start = Instant::now();
    let mut reps = 0;
    loop {
        let t0 = Instant::now();
        let env = w.setup();
        times.push(t0.elapsed().as_secs_f64());
        reps += 1;
        let enough = reps >= SETUP_MIN_REPS && start.elapsed() >= SETUP_MIN_TIME;
        if once || enough || reps == SETUP_MAX_REPS {
            return env;
        }
        drop(env);
    }
}

fn emit_end_to_end(report: &mut Report, m: &Measured, setup_s: &[f64]) {
    let e = Kind::EndToEnd;
    let n = m.sut.count();
    let w = m.sut.windows.len();
    report.metric(e, "ops_per_s", "1/s", ops_per_s(m), format!("ops={n}"));
    let (p50, p99) = m.sut.window_quantiles();
    report.metric(e, "op_p50_us", "us", us(p50), format!("n={n} windows={w}"));
    report.metric(e, "op_p99_us", "us", us(p99), format!("n={n} windows={w}"));
    let sw = &m.control.switch;
    let sn = format!("n={}", sw.len());
    report.metric(
        e,
        "switch_p50_us",
        "us",
        us(m.control.switch_p50()),
        format!("{sn} windows={}", m.control.switch_windows.len()),
    );
    // Printed, not gated: generator lag bursts make it unsteady (see
    // README.md).
    report.metric(
        Kind::Detail,
        "switch_p99_us",
        "us",
        us(sw.quantile(0.99)),
        sn,
    );
    let rl = &m.control.reload;
    report.metric(
        e,
        "reload_p50_ms",
        "ms",
        rl.quantile(0.5) / 1e6,
        format!("n={}", rl.len()),
    );
    report.metric(
        e,
        "setup_s",
        "s",
        median(setup_s),
        format!("median of {}", setup_s.len()),
    );
    report.metric(e, "peak_rss_mb", "MiB", sys::peak_rss_mb(), String::new());
    for (op, s) in &m.sut.per_op {
        report.metric(
            Kind::Detail,
            &format!("op.{op}_p50_us"),
            "us",
            us(s.quantile(0.5)),
            format!("n={}", s.len()),
        );
    }
    report.metric(
        Kind::Detail,
        "op_pooled_p50_us",
        "us",
        us(m.sut.all.quantile(0.5)),
        format!("n={n}"),
    );
    report.metric(
        Kind::Detail,
        "op_pooled_p99_us",
        "us",
        us(m.sut.all.quantile(0.99)),
        format!("n={n}"),
    );
}

fn emit_layers(report: &mut Report, a: &Measured, b: &Measured, c: Counters, timer_ns: f64) {
    for (op, s) in &a.sut.per_op {
        let name = format!("kernel.uctx.{op}_p50_us");
        layer(report, &name, "us", us(p(s, 0.5)), format!("n={}", s.len()));
    }
    let sut_p50 = p(&a.sut.all, 0.5);
    let floor_p50 = p(&a.floor.all, 0.5);
    layer(
        report,
        "kernel.nolsm.op_p50_us",
        "us",
        us(floor_p50),
        format!("n={}", a.floor.count()),
    );
    layer(
        report,
        "kernel.lsm.overhead_x",
        "x",
        ratio(sut_p50, floor_p50),
        format!(
            "op p50 {:.3}us over no-LSM {:.3}us",
            us(sut_p50),
            us(floor_p50)
        ),
    );

    let summary = spans::summarise(&b.spans);
    let span_p50 = |name: &str| -> (f64, usize) {
        let mut s = Samples::new();
        for span in b.spans.iter().filter(|s| s.name == name) {
            s.push(span.dur());
        }
        (s.quantile(0.5), s.len())
    };
    for (metric, span) in [
        ("kernel.lsm.stack_file_open_ns", "lsm.file_open"),
        ("core.sack.file_open_ns", "sack.file_open"),
        ("core.statedfa.decide_ns", "statedfa.decide"),
        ("apparmor.file_open_ns", "apparmor.file_open"),
        ("apparmor.file_ioctl_ns", "apparmor.file_ioctl"),
    ] {
        let (v, n) = span_p50(span);
        if n > 0 {
            layer(report, metric, "ns", v, format!("n={n}"));
        }
    }
    for (name, st) in &summary {
        layer(
            report,
            &format!("self.{name}_ns"),
            "ns",
            st.self_ns,
            format!("n={} mean_dur={:.1}ns", st.count, st.mean_ns),
        );
    }

    let lookups = c.cache_hits + c.cache_misses;
    layer(
        report,
        "core.cache.hit_ratio",
        "ratio",
        ratio(c.cache_hits as f64, lookups as f64),
        format!("base={lookups} lookups"),
    );
    let mediated = c.checks + c.unprotected;
    layer(
        report,
        "core.sack.protected_ratio",
        "ratio",
        ratio(c.checks as f64, mediated as f64),
        format!("base={mediated} hook decisions"),
    );
    layer(
        report,
        "core.audit.records_per_denial",
        "ratio",
        ratio(c.audit_records as f64, c.lsm_denials as f64),
        format!("base={} denials", c.lsm_denials),
    );
    layer(
        report,
        "core.eventplane.frames_per_transition",
        "ratio",
        ratio(c.drained as f64, c.transitions as f64),
        format!("base={} transitions", c.transitions),
    );
    layer(
        report,
        "core.eventplane.dropped",
        "count",
        c.dropped as f64,
        String::new(),
    );

    let ctl = &b.control;
    for (metric, samples, scale, unit) in [
        ("core.ssm.deliver_us", &ctl.deliver, 1e3, "us"),
        ("core.sackfs.event_write_us", &ctl.event_write, 1e3, "us"),
        ("core.sackfs.ring_write_us", &ctl.ring_write, 1e3, "us"),
        ("sds.process_frame_us", &ctl.process_frame, 1e3, "us"),
        ("core.reload_ms", &ctl.reload_direct, 1e6, "ms"),
        ("core.telemetry.capture_us", &ctl.capture, 1e3, "us"),
        ("fleet.tick_ms", &ctl.tick, 1e6, "ms"),
    ] {
        if !samples.is_empty() {
            let v = p(samples, 0.5) / scale;
            layer(report, metric, unit, v, format!("n={}", samples.len()));
        }
    }
    if !ctl.tick.is_empty() {
        layer(
            report,
            "fleet.tick_per_instance_us",
            "us",
            p(&ctl.tick, 0.5) / 1e3 / ctl.fleet_members.max(1) as f64,
            format!("members={}", ctl.fleet_members),
        );
    }
    layer(
        report,
        "loadgen.lag_p99_us",
        "us",
        us(p(&a.control.lag, 0.99)),
        format!("n={}", a.control.lag.len()),
    );
    layer(
        report,
        "bench.timer_overhead_ns",
        "ns",
        timer_ns,
        String::new(),
    );
    let (ua, ub) = (ops_per_s(a), ops_per_s(b));
    layer(
        report,
        "bench.trace_overhead_x",
        "x",
        ratio(ua, ub),
        format!("untraced {ua:.0} ops/s, traced {ub:.0} ops/s"),
    );
}
