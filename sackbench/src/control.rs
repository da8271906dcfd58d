//! The situation-switch path, driven open-loop.
//!
//! A seeded generator walks the Fig. 2 state machine. Each slot of a fixed
//! schedule is one of: a single event (a sensor frame through
//! `SdsService::process_frame`, or a direct `SACK/events` write for the
//! event no detector emits), a burst of events through `SACK/sds/ring`, a
//! policy reload through `SACK/policy`, or a fleet tick. After every
//! situation change a probe syscall is repeated until it returns the new
//! situation's verdict; the switch latency runs from the slot's due time
//! to that return, so a late generator shows in it.

use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sack_apparmor::{AppArmor, FilePerms, PolicyDb};
use sack_core::{Sack, TelemetrySnapshot};
use sack_fleet::FleetAggregator;
use sack_kernel::cred::{Capability, Credentials};
use sack_kernel::error::KernelResult;
use sack_kernel::file::OpenFlags;
use sack_kernel::kernel::Kernel;
use sack_kernel::types::Fd;
use sack_kernel::uctx::UserContext;
use sack_sds::detector::{CrashDetector, Detector, DriverPresenceDetector, ParkingDetector};
use sack_sds::ring::RingProducer;
use sack_sds::sensors::SensorFrame;
use sack_sds::service::SdsService;
use sack_vehicle::devices::{audio_ioctl, door_ioctl, window_ioctl};
use sack_vehicle::{VEHICLE_APPARMOR_PROFILES, VEHICLE_SACK_POLICY};

use crate::env;
use crate::oracle::{Oracle, Situation, SituationLog};
use crate::report::Report;
use crate::rng::Rng;
use crate::spans::Recorder;
use crate::stats::{median, Samples};

/// How SACK is deployed on the kernel under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// SACK enforces its own rules; AppArmor, if stacked, confines only
    /// the tasks its profiles attach to.
    Independent,
    /// SACK patches AppArmor profiles; AppArmor does all checking.
    Enhanced,
}

/// One access whose expected verdict the oracle computes.
#[derive(Debug, Clone)]
pub struct Target {
    /// Subject executable.
    pub exe: &'static str,
    /// AppArmor profile confining the subject, if any.
    pub profile: Option<&'static str>,
    /// Object path.
    pub path: String,
    /// Requested permissions as the hooks see them.
    pub perms: FilePerms,
    /// The AppArmor verdict from the profile's construction; `None` when
    /// no profile confines the subject.
    pub apparmor: Option<bool>,
}

/// The expected verdict of `target` in every situation:
/// `table[variant][state]`.
pub fn verdict_table(oracle: &Oracle, mode: Mode, target: &Target) -> Vec<Vec<bool>> {
    (0..oracle.variants())
        .map(|v| {
            let sim = oracle.sim_of(v);
            let space = sim.policy().space();
            let protected = sim.policy().protected().contains(&target.path);
            let query = sack_core::AccessQuery {
                uid: env::CLIENT_UID,
                exe: Some(target.exe.to_string()),
                profile: target.profile.map(str::to_string),
                path: target.path.clone(),
                perms: target.perms,
            };
            let mut row = vec![false; space.state_count()];
            for (name, sack_allows) in sim.query_all_reachable_states(&query) {
                let id = space.state_id(&name).expect("reachable state is declared");
                row[id.0] = combine(mode, protected, sack_allows, target.apparmor);
            }
            row
        })
        .collect()
}

/// Stacks the SACK and AppArmor verdicts as the deployment does.
/// `sack_allows` is the simulator's answer, already `true` for paths SACK
/// does not protect.
pub fn combine(mode: Mode, protected: bool, sack_allows: bool, apparmor: Option<bool>) -> bool {
    match mode {
        Mode::Independent => sack_allows && apparmor.unwrap_or(true),
        // Enhanced SACK only adds grants to a confining profile.
        Mode::Enhanced => match apparmor {
            None => true,
            Some(baseline) => baseline || (protected && sack_allows),
        },
    }
}

/// The three probes that together tell every situation change apart.
struct ProbeSpec {
    exe: &'static str,
    profile: &'static str,
    node: &'static str,
    cmd: u32,
}

const PROBES: [ProbeSpec; 3] = [
    ProbeSpec {
        exe: "/usr/bin/media_app",
        profile: "media_app",
        node: "/dev/car/audio",
        cmd: audio_ioctl::GET_VOLUME,
    },
    ProbeSpec {
        exe: "/usr/bin/rescue_daemon",
        profile: "rescue_daemon",
        node: "/dev/car/door0",
        cmd: door_ioctl::STATUS,
    },
    ProbeSpec {
        exe: "/usr/bin/navi_app",
        profile: "navi_app",
        node: "/dev/car/window0",
        cmd: window_ioctl::GET_POSITION,
    },
];

/// Executables the probes (and the drive-cycle IVI apps) exec into.
pub const APP_EXES: [&str; 3] = [
    "/usr/bin/media_app",
    "/usr/bin/rescue_daemon",
    "/usr/bin/navi_app",
];

/// Share of each block `steady` and `churn` spend on their op mix. The
/// control plane runs in the rest of the block, after the mix, so the mix
/// itself never sees a situation event while the switch and reload paths
/// are still measured on those stacks.
pub const OP_SHARE: f64 = 0.7;

/// Length of one switch-statistics window. `switch_p50_us` is the median
/// over windows of each window's median: a few hundred switches in a row
/// (those after one reload, say) can run three times slower than the rest,
/// and such a stretch then moves one window, not the result. In `steady`
/// and `churn` each block's control plane is one window.
pub const SWITCH_WINDOW: Duration = Duration::from_secs(1);

/// Windows with fewer switches than this are merged into the next one.
const MIN_WINDOW_SWITCHES: usize = 50;

/// Length of one block of the `steady` and `churn` phases. Mix and control
/// plane alternate block by block, so each samples the machine's speed
/// across the whole run instead of one contiguous stretch of it.
pub const BLOCK: Duration = Duration::from_secs(1);

/// Control-plane schedule of the `steady` and `churn` probe phase: a
/// situation change every 0.25 ms, every fifth a ring burst, every 400th
/// slot a reload of the ~1,000-rule policy (about 0.1 s on a 2-core x86-64
/// container).
pub const PROBE_SCHEDULE: Schedule = Schedule {
    period: Duration::from_micros(250),
    burst_every: 5,
    reload_every: 400,
    tick_every: 0,
    tick_gap: Duration::ZERO,
};

/// Independent-SACK policy variants: the vehicle policy plus `rules`
/// granted in every state under permission `perm`, and the same with the
/// reload probe's extra grant.
pub fn independent_variants(perm: &str, rules: &[String]) -> Vec<String> {
    let base = env::with_permission(
        VEHICLE_SACK_POLICY,
        perm,
        &[
            "driving",
            "parking_with_driver",
            "parking_without_driver",
            "emergency",
        ],
        rules,
    );
    let reload = navi_variant(&base, false);
    vec![base, reload]
}

/// The reload variant's extra permission: the navigation app may drive
/// window 0 while parked with the driver. Every reload flips at least one
/// probe's verdict, so its effect is observable.
pub fn navi_variant(base: &str, enhanced: bool) -> String {
    let subject = if enhanced {
        "profile:navi_app"
    } else {
        "/usr/bin/navi_app"
    };
    env::with_permission(
        base,
        "NAVI_WINDOW",
        &["parking_with_driver"],
        &[format!("allow subject={subject} /dev/car/window0 wi;")],
    )
}

/// The vehicle's physical state, mirroring what the SDS detectors have
/// seen, so the generator can build the frame that yields a chosen event.
#[derive(Debug)]
struct Vehicle {
    t: Duration,
    driving: bool,
    driver: bool,
    /// The crash detector saw a crash and re-arms on the next calm frame.
    crash_latched: bool,
}

impl Vehicle {
    fn frame(&mut self, speed: f64, airbag: bool) -> SensorFrame {
        self.t += Duration::from_millis(100);
        self.crash_latched = airbag;
        SensorFrame::parked(self.t)
            .with_speed(speed)
            .with_driver(self.driver)
            .with_airbag(airbag)
            .with_accel(if airbag { 30.0 } else { 0.0 })
    }

    /// The frame that makes the detectors emit `event`, and every event
    /// they will emit for it, in detector order (crash, driver, parking).
    fn frame_for(&mut self, event: &str) -> (SensorFrame, Vec<&'static str>) {
        match event {
            "start_driving" => {
                self.driving = true;
                (self.frame(20.0, false), vec!["start_driving"])
            }
            "park" => {
                self.driving = false;
                (self.frame(0.0, false), vec!["park"])
            }
            "driver_left" | "driver_entered" => {
                self.driver = event == "driver_entered";
                let name = if self.driver {
                    "driver_entered"
                } else {
                    "driver_left"
                };
                (self.frame(0.0, false), vec![name])
            }
            "crash" => {
                let mut events = vec!["crash"];
                if self.driving {
                    // The car stops in the crash, so the parking detector
                    // reports it parked as well.
                    self.driving = false;
                    events.push("park");
                }
                (self.frame(0.0, true), events)
            }
            other => unreachable!("no frame yields {other}"),
        }
    }

    /// A calm frame that brings the car to what `state` looks like
    /// physically, after a burst or a reload moved the machine without
    /// frames. Whatever it makes the detectors emit describes `state`
    /// itself, which has no transition on such an event, so it never
    /// changes the situation. `None` when the car already matches.
    fn sync(&mut self, state: &str) -> Option<(SensorFrame, Vec<&'static str>)> {
        let (driving, driver) = match state {
            "driving" => (true, true),
            "parking_without_driver" => (false, false),
            _ => (false, true),
        };
        if driving == self.driving && driver == self.driver && !self.crash_latched {
            return None;
        }
        let mut events = Vec::new();
        if driver != self.driver {
            events.push(if driver {
                "driver_entered"
            } else {
                "driver_left"
            });
        }
        if driving != self.driving {
            events.push(if driving { "start_driving" } else { "park" });
        }
        self.driver = driver;
        self.driving = driving;
        let speed = if driving { 20.0 } else { 0.0 };
        Some((self.frame(speed, false), events))
    }
}

/// What one control-plane slot does.
#[derive(Debug)]
enum Action {
    /// A sensor frame through the SDS; the event it should yield, and
    /// every event the detectors will emit for it.
    Frame(String, SensorFrame, Vec<&'static str>),
    /// One event written straight to `SACK/events`.
    Direct(String),
    /// Events shipped as one `SACK/sds/ring` write.
    Burst(Vec<String>),
    /// A `SACK/policy` write of the given variant.
    Reload(usize),
    /// A fleet aggregation tick.
    Tick,
}

/// A slot decided ahead of its due time.
#[derive(Debug)]
struct Plan {
    action: Action,
    after: Situation,
    /// The probe that tells the situations apart, and its new verdict.
    probe: Option<(usize, bool)>,
}

/// Schedule of the control plane.
#[derive(Debug, Clone)]
pub struct Schedule {
    /// Gap between single-event and burst slots.
    pub period: Duration,
    /// Every n-th slot is a ring burst (0: never).
    pub burst_every: u64,
    /// Every n-th slot is a policy reload; the next slot is due one
    /// period after it completed.
    pub reload_every: u64,
    /// Every n-th slot is a fleet tick (0: never).
    pub tick_every: u64,
    /// Gap after a tick slot.
    pub tick_gap: Duration,
}

/// Spin-waits until `due`. Sleeping instead would let this VM's vCPU go
/// idle, and waking it takes up to milliseconds, which would show as
/// generator lag.
pub fn wait_until(due: Instant) {
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}

/// A registered fleet: the aggregator and idle member kernels kept alive.
pub struct Fleet {
    /// The aggregator the kernel under test is registered in.
    pub aggregator: Arc<FleetAggregator>,
    /// Idle members (kernel, module), held so they stay live.
    pub members: Vec<(Arc<Kernel>, Arc<Sack>)>,
}

impl std::fmt::Debug for Fleet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fleet")
            .field("members", &self.aggregator.len())
            .finish()
    }
}

/// A bare module stack in the same situation as the kernel under test,
/// receiving the same events and reloads through direct calls, so that
/// `Sack::deliver_event` and `Sack::reload_policy` can be timed on their
/// own in the traced run.
struct Twin {
    sack: Arc<Sack>,
    _apparmor: Option<Arc<AppArmor>>,
}

impl Twin {
    fn new(mode: Mode, policy: &str) -> Twin {
        match mode {
            Mode::Independent => Twin {
                sack: Sack::independent(policy).expect("generated policy loads"),
                _apparmor: None,
            },
            Mode::Enhanced => {
                let db = Arc::new(PolicyDb::new());
                db.load_text(VEHICLE_APPARMOR_PROFILES)
                    .expect("vehicle profiles parse");
                let aa = AppArmor::new(db);
                Twin {
                    sack: Sack::enhanced_apparmor(policy, Arc::clone(&aa))
                        .expect("generated policy loads"),
                    _apparmor: Some(aa),
                }
            }
        }
    }
}

/// Samples and counters of one control-plane run.
#[derive(Debug, Default)]
pub struct ControlStats {
    /// Due time to new verdict, per situation change by event or burst.
    pub switch: Samples,
    /// Median switch latency of each closed window, ns.
    pub switch_windows: Vec<f64>,
    /// Switches of the window still open.
    switch_window: Samples,
    /// `SACK/policy` write to new verdict, per reload.
    pub reload: Samples,
    /// Slot start minus due time, per slot.
    pub lag: Samples,
    /// `SdsService::process_frame`.
    pub process_frame: Samples,
    /// One-line `SACK/events` writes.
    pub event_write: Samples,
    /// `SACK/sds/ring` burst writes.
    pub ring_write: Samples,
    /// Twin `Sack::deliver_event` (traced run).
    pub deliver: Samples,
    /// Twin `Sack::reload_policy` (traced run).
    pub reload_direct: Samples,
    /// `TelemetrySnapshot::capture` of the kernel under test.
    pub capture: Samples,
    /// `FleetAggregator::tick`.
    pub tick: Samples,
    /// Event names written to the kernel.
    pub events_sent: u64,
    /// Events `Sack` counted as received meanwhile.
    pub events_received: u64,
    /// Fleet members per tick.
    pub fleet_members: usize,
}

impl ControlStats {
    /// Adds the samples and counts of a later run of the same plane.
    pub fn absorb(&mut self, other: &ControlStats) {
        for (a, b) in [
            (&mut self.switch, &other.switch),
            (&mut self.reload, &other.reload),
            (&mut self.lag, &other.lag),
            (&mut self.process_frame, &other.process_frame),
            (&mut self.event_write, &other.event_write),
            (&mut self.ring_write, &other.ring_write),
            (&mut self.deliver, &other.deliver),
            (&mut self.reload_direct, &other.reload_direct),
            (&mut self.capture, &other.capture),
            (&mut self.tick, &other.tick),
        ] {
            a.extend(b);
        }
        self.switch_windows.extend_from_slice(&other.switch_windows);
        self.switch_window.extend(&other.switch_window);
        self.close_switch_window();
        self.events_sent += other.events_sent;
        self.events_received += other.events_received;
        self.fleet_members = self.fleet_members.max(other.fleet_members);
    }

    /// Closes the open switch window if it holds enough switches.
    fn close_switch_window(&mut self) {
        if self.switch_window.len() >= MIN_WINDOW_SWITCHES {
            let w = std::mem::take(&mut self.switch_window);
            self.switch_windows.push(w.quantile(0.5));
        }
    }

    /// Median over windows of the window switch medians, ns; the pooled
    /// median when no window closed.
    pub fn switch_p50(&self) -> f64 {
        if self.switch_windows.is_empty() {
            self.switch.quantile(0.5)
        } else {
            median(&self.switch_windows)
        }
    }
}

/// The control plane of one kernel under test.
pub struct ControlPlane {
    sack: Arc<Sack>,
    mode: Mode,
    variants: Vec<String>,
    sds: SdsService,
    ring: RingProducer,
    admin: UserContext,
    policy_fd: Fd,
    probes: Vec<(UserContext, Fd)>,
    vehicle: Vehicle,
    twin: Option<Twin>,
    /// Slots run so far, across runs: the schedule's reload and tick
    /// cadence carries over from one block to the next.
    slot: u64,
    /// Fleet the kernel is registered in (drive-cycle).
    pub fleet: Option<Fleet>,
}

impl std::fmt::Debug for ControlPlane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ControlPlane")
            .field("mode", &self.mode)
            .finish()
    }
}

impl ControlPlane {
    /// Spawns the SDS, the ring producer, the policy administrator and the
    /// probe processes on `kernel`, whose loaded policy is `variants[0]`.
    /// The kernel must have the car's nodes and [`APP_EXES`].
    ///
    /// # Errors
    ///
    /// Kernel errors from spawning or opening the SACKfs nodes.
    pub fn new(
        kernel: &Arc<Kernel>,
        sack: &Arc<Sack>,
        mode: Mode,
        variants: Vec<String>,
    ) -> KernelResult<ControlPlane> {
        let detectors: Vec<Box<dyn Detector>> = vec![
            Box::new(CrashDetector::new()),
            Box::new(DriverPresenceDetector::new()),
            Box::new(ParkingDetector::new(1)),
        ];
        let mut sds = SdsService::spawn(kernel, detectors)?;
        let mut vehicle = Vehicle {
            t: Duration::ZERO,
            driving: false,
            driver: true,
            crash_latched: false,
        };
        // Baseline frame: the driver-presence detector learns the seat.
        let frame = vehicle.frame(0.0, false);
        sds.process_frame(&frame);
        let ring = RingProducer::spawn(kernel, usize::MAX)?;
        let admin = kernel.spawn(Credentials::user(0, 0).with_capability(Capability::MacAdmin));
        let policy_fd = admin.open("/sys/kernel/security/SACK/policy", OpenFlags::write_only())?;
        let mut probes = Vec::new();
        for p in &PROBES {
            let proc = env::client(kernel, p.exe)?;
            let fd = proc.open(p.node, OpenFlags::read_only())?;
            probes.push((proc, fd));
        }
        Ok(ControlPlane {
            sack: Arc::clone(sack),
            mode,
            variants,
            sds,
            ring,
            admin,
            policy_fd,
            probes,
            vehicle,
            twin: None,
            slot: 0,
            fleet: None,
        })
    }

    /// Builds the direct-call twin used by the traced run.
    pub fn enable_twin(&mut self) {
        self.twin = Some(Twin::new(self.mode, &self.variants[0]));
    }

    /// The probes' verdicts in every situation: `[variant][state][probe]`.
    pub fn probe_table(&self, oracle: &Oracle) -> Vec<Vec<[bool; 3]>> {
        let tables: Vec<Vec<Vec<bool>>> = PROBES
            .iter()
            .map(|p| {
                let target = Target {
                    exe: p.exe,
                    profile: Some(p.profile),
                    path: p.node.to_string(),
                    perms: FilePerms::IOCTL,
                    // The vehicle profiles grant `/dev/car/** r` only.
                    apparmor: (self.mode == Mode::Enhanced).then_some(false),
                };
                verdict_table(oracle, self.mode, &target)
            })
            .collect();
        (0..oracle.variants())
            .map(|v| {
                (0..tables[0][v].len())
                    .map(|s| [tables[0][v][s], tables[1][v][s], tables[2][v][s]])
                    .collect()
            })
            .collect()
    }

    /// Runs the schedule until `until`, checking every event, reload and
    /// probe against `oracle`. `log` publishes each situation change for
    /// concurrent clients; `rec` records spans (traced run).
    #[allow(clippy::too_many_arguments)]
    pub fn run(
        &mut self,
        oracle: &mut Oracle,
        schedule: &Schedule,
        until: Instant,
        rng: &mut Rng,
        log: Option<&SituationLog>,
        mut rec: Option<&mut Recorder>,
        report: &mut Report,
    ) -> ControlStats {
        let table = self.probe_table(oracle);
        let mut stats = ControlStats {
            fleet_members: self.fleet.as_ref().map_or(0, |f| f.aggregator.len()),
            ..ControlStats::default()
        };
        let received_before = self.sack.stats().events_received.load(Ordering::Relaxed);
        let unknown_before = self.sack.stats().events_unknown.load(Ordering::Relaxed);
        let mut due = Instant::now() + schedule.period;
        let mut window_end = due + SWITCH_WINDOW;
        while due < until {
            if due >= window_end {
                stats.close_switch_window();
                while window_end <= due {
                    window_end += SWITCH_WINDOW;
                }
            }
            self.slot += 1;
            let slot = self.slot;
            let plan = self.plan(slot, schedule, oracle, &table, rng);
            wait_until(due);
            stats
                .lag
                .push(Instant::now().duration_since(due).as_nanos() as u64);
            let gap = self.execute(
                plan,
                due,
                schedule,
                oracle,
                &table,
                log,
                &mut stats,
                rec.as_deref_mut(),
                slot,
                report,
            );
            // A reload restarts the schedule once it completed, so its
            // compile time never turns into lag for the events after it.
            due = match gap {
                Some(gap) => due + gap,
                None => Instant::now() + schedule.period,
            };
        }
        stats.close_switch_window();
        // The paper's accuracy claim: every event sent was delivered, and
        // none was rejected as unknown.
        let received = self.sack.stats().events_received.load(Ordering::Relaxed) - received_before;
        let unknown = self.sack.stats().events_unknown.load(Ordering::Relaxed) - unknown_before;
        stats.events_received = received;
        if received != stats.events_sent || unknown != 0 {
            report.fail(format!(
                "event accuracy: sent {} received {received} unknown {unknown}",
                stats.events_sent
            ));
        }
        stats
    }

    /// Repeats `probe` until it returns `want`; the instant it did, or
    /// `None` if it kept returning anything else for 50 ms.
    fn await_verdict(&self, probe: usize, want: bool) -> Option<Instant> {
        let (proc, fd) = &self.probes[probe];
        let give_up = Instant::now() + Duration::from_millis(50);
        loop {
            let r = proc.ioctl(*fd, PROBES[probe].cmd, 0);
            let now = Instant::now();
            if env::matches(&r, want) {
                return Some(now);
            }
            if now > give_up {
                return None;
            }
        }
    }

    /// Checks every probe and the kernel's state name against the oracle.
    fn verify(&self, oracle: &Oracle, table: &[Vec<[bool; 3]>], report: &mut Report) {
        let s = oracle.situation();
        for (i, (proc, fd)) in self.probes.iter().enumerate() {
            let want = table[s.variant][s.state][i];
            let r = proc.ioctl(*fd, PROBES[i].cmd, 0);
            report.check(env::matches(&r, want), || {
                format!(
                    "probe {} in {}: got {:?}, want allowed={want}",
                    PROBES[i].node,
                    oracle.state_name(),
                    r.map(|_| ())
                )
            });
        }
        let state = self.sack.current_state_name();
        report.check(state == oracle.state_name(), || {
            format!("kernel state {state}, oracle {}", oracle.state_name())
        });
        if let Some(twin) = &self.twin {
            let state = twin.sack.current_state_name();
            report.check(state == oracle.state_name(), || {
                format!("twin state {state}, oracle {}", oracle.state_name())
            });
        }
    }

    /// Picks the probe that tells `before` from `after`.
    fn distinguishing_probe(
        table: &[Vec<[bool; 3]>],
        before: Situation,
        after: Situation,
    ) -> Option<usize> {
        let (b, a) = (
            table[before.variant][before.state],
            table[after.variant][after.state],
        );
        (0..PROBES.len()).find(|&i| b[i] != a[i])
    }

    /// A walk of 3 events from the current state whose end a probe tells
    /// apart from its start, or `None` if 16 tries found none.
    fn burst_walk(oracle: &Oracle, table: &[Vec<[bool; 3]>], rng: &mut Rng) -> Option<Vec<String>> {
        let sim = oracle.sim();
        let policy = sim.policy();
        let space = policy.space();
        let mut next: BTreeMap<(usize, &str), usize> = BTreeMap::new();
        for t in policy.transitions() {
            next.insert((t.from.0, space.event(t.event).name.as_str()), t.to.0);
        }
        let start = oracle.situation();
        for _ in 0..16 {
            let mut at = start.state;
            let mut walk = Vec::new();
            for _ in 0..3 {
                let choices: Vec<&str> = next
                    .keys()
                    .filter(|(from, _)| *from == at)
                    .map(|(_, e)| *e)
                    .collect();
                let e = choices[rng.below(choices.len())];
                at = next[&(at, e)];
                walk.push(e.to_string());
            }
            if table[start.variant][at] != table[start.variant][start.state] {
                return Some(walk);
            }
        }
        None
    }

    /// Decides slot `slot`'s action and advances the oracle past it, so
    /// that nothing but the action itself runs after its due time.
    fn plan(
        &mut self,
        slot: u64,
        schedule: &Schedule,
        oracle: &mut Oracle,
        table: &[Vec<[bool; 3]>],
        rng: &mut Rng,
    ) -> Plan {
        let before = oracle.situation();
        let action = if schedule.tick_every > 0 && slot.is_multiple_of(schedule.tick_every) {
            Action::Tick
        } else if slot.is_multiple_of(schedule.reload_every) {
            let variant = 1 - before.variant;
            oracle.reload(variant);
            Action::Reload(variant)
        } else {
            let burst = schedule.burst_every > 0 && slot.is_multiple_of(schedule.burst_every);
            match burst
                .then(|| Self::burst_walk(oracle, table, rng))
                .flatten()
            {
                Some(walk) => {
                    for e in &walk {
                        oracle.deliver(e);
                    }
                    Action::Burst(walk)
                }
                None => {
                    let enabled = oracle.enabled_events();
                    let event = enabled[rng.below(enabled.len())].clone();
                    if event == "emergency_resolved" {
                        // No detector reports it: the rescue service's app
                        // sends it directly, as in the paper's case study.
                        oracle.deliver(&event);
                        Action::Direct(event)
                    } else {
                        let (frame, expect) = self.vehicle.frame_for(&event);
                        for e in &expect {
                            oracle.deliver(e);
                        }
                        Action::Frame(event, frame, expect)
                    }
                }
            }
        };
        let after = oracle.situation();
        let probe = Self::distinguishing_probe(table, before, after)
            .map(|p| (p, table[after.variant][after.state][p]));
        Plan {
            action,
            after,
            probe,
        }
    }

    /// Runs a planned slot that was due at `due`: the action, then the
    /// probe until it sees the new situation; then, untimed, the checks,
    /// the twin, and the car's sync frame. Returns the gap to the next
    /// slot, or `None` to restart the schedule from now.
    #[allow(clippy::too_many_arguments)]
    fn execute(
        &mut self,
        plan: Plan,
        due: Instant,
        schedule: &Schedule,
        oracle: &mut Oracle,
        table: &[Vec<[bool; 3]>],
        log: Option<&SituationLog>,
        stats: &mut ControlStats,
        mut rec: Option<&mut Recorder>,
        req: u64,
        report: &mut Report,
    ) -> Option<Duration> {
        if matches!(plan.action, Action::Tick) {
            self.tick(stats, rec, req);
            return Some(schedule.tick_gap);
        }
        if let Some(log) = log {
            log.begin(plan.after);
        }
        let t0 = Instant::now();
        let (layer, sent, ok) = match &plan.action {
            Action::Frame(_, frame, _) => {
                let (got, rejected) = self.sds.process_frame(frame);
                ("sds.process_frame", got, rejected.is_empty())
            }
            Action::Direct(event) => {
                let r = self.sds.send_event(event);
                ("sackfs.events_write", vec![event.clone()], r.is_ok())
            }
            Action::Burst(walk) => {
                for e in walk {
                    let queued = self.ring.queue(e);
                    report.check(matches!(queued, Ok(true)), || format!("ring queue {e}"));
                }
                let shipped = self.ring.flush();
                let ok = shipped.as_ref().is_ok_and(|&n| n == walk.len());
                ("sackfs.ring_write", walk.clone(), ok)
            }
            Action::Reload(variant) => {
                let w = self
                    .admin
                    .write(self.policy_fd, self.variants[*variant].as_bytes());
                ("sackfs.policy_write", Vec::new(), w.is_ok())
            }
            Action::Tick => unreachable!("handled above"),
        };
        let t1 = Instant::now();
        let end = match plan.probe {
            Some((p, want)) => {
                let t = self.await_verdict(p, want);
                report.check(t.is_some(), || {
                    format!("change to {} never observed", oracle.state_name())
                });
                t
            }
            None => None,
        };
        if let Some(log) = log {
            log.end();
        }

        let took = t1.duration_since(t0).as_nanos() as u64;
        let reload = matches!(plan.action, Action::Reload(_));
        match &plan.action {
            Action::Frame(event, _, expect) => {
                stats.process_frame.push(took);
                report.check(ok && sent == *expect, || {
                    format!("frame for {event}: sent {sent:?}, want {expect:?}")
                });
            }
            Action::Direct(event) => {
                stats.event_write.push(took);
                report.check(ok, || format!("event write {event} failed"));
            }
            Action::Burst(walk) => {
                stats.ring_write.push(took);
                report.check(ok, || format!("ring burst {walk:?} failed"));
            }
            Action::Reload(_) => report.check(ok, || "policy write failed".to_string()),
            Action::Tick => {}
        }
        stats.events_sent += sent.len() as u64;
        match (reload, end) {
            (true, Some(end)) => stats.reload.push(end.duration_since(t0).as_nanos() as u64),
            (false, Some(end)) => {
                let ns = end.duration_since(due).as_nanos() as u64;
                stats.switch.push(ns);
                stats.switch_window.push(ns);
            }
            (true, None) => report.fail("reload never observed".to_string()),
            (false, None) => {}
        }

        // The twin replays the action through direct calls.
        let root = rec.as_deref_mut().map_or(0, Recorder::reserve);
        let layer_id = rec.as_deref_mut().map_or(0, Recorder::reserve);
        if let Some(twin) = &self.twin {
            let d0 = Instant::now();
            let (name, r) = match &plan.action {
                Action::Burst(walk) => (
                    "ssm.deliver_coalesced",
                    twin.sack
                        .deliver_coalesced(walk, Duration::ZERO)
                        .map(|_| ()),
                ),
                Action::Reload(v) => (
                    "core.reload",
                    twin.sack.reload_policy(&self.variants[*v]).map(|_| ()),
                ),
                _ => (
                    "ssm.deliver",
                    sent.iter()
                        .try_for_each(|e| twin.sack.deliver_event(e, Duration::ZERO).map(|_| ())),
                ),
            };
            let d1 = Instant::now();
            report.check(r.is_ok(), || format!("twin {name}: {r:?}"));
            let took = d1.duration_since(d0).as_nanos() as u64;
            match &plan.action {
                Action::Reload(_) => stats.reload_direct.push(took),
                Action::Burst(_) => {}
                _ => stats.deliver.push(took),
            }
            if let Some(r) = rec.as_deref_mut() {
                r.record(name, layer_id, req, d0, d1);
            }
        }
        if let (Some(r), Some(end)) = (rec, end) {
            r.record_as(layer_id, layer, root, req, t0, t1);
            r.record("uctx.probe", root, req, t1, end);
            let (name, start) = if reload {
                ("reload", t0)
            } else {
                ("switch", due)
            };
            r.record_as(root, name, 0, req, start, end);
        }
        self.sync_vehicle(oracle, stats, report);
        self.verify(oracle, table, report);
        (!reload).then_some(schedule.period)
    }

    /// Sends the calm frame of [`Vehicle::sync`], untimed, and checks that
    /// it left the situation unchanged.
    fn sync_vehicle(&mut self, oracle: &mut Oracle, stats: &mut ControlStats, report: &mut Report) {
        let Some((frame, expect)) = self.vehicle.sync(oracle.state_name()) else {
            return;
        };
        let before = oracle.situation();
        for e in &expect {
            oracle.deliver(e);
        }
        let (got, rejected) = self.sds.process_frame(&frame);
        report.check(
            got == expect && rejected.is_empty() && oracle.situation() == before,
            || format!("sync frame: sent {got:?} rejected {rejected:?}, want {expect:?}"),
        );
        if let Some(twin) = &self.twin {
            for e in &got {
                let _ = twin.sack.deliver_event(e, Duration::ZERO);
            }
        }
        stats.events_sent += got.len() as u64;
    }

    fn tick(&mut self, stats: &mut ControlStats, rec: Option<&mut Recorder>, req: u64) {
        let Some(fleet) = &self.fleet else {
            return;
        };
        let tracing = self
            .sack
            .tracing()
            .expect("attached SACK has tracing")
            .clone();
        let c0 = Instant::now();
        let snapshot = TelemetrySnapshot::capture(&tracing);
        let c1 = Instant::now();
        std::hint::black_box(snapshot);
        let tick = fleet.aggregator.tick();
        let t1 = Instant::now();
        std::hint::black_box(tick);
        stats.capture.push(c1.duration_since(c0).as_nanos() as u64);
        stats.tick.push(t1.duration_since(c1).as_nanos() as u64);
        if let Some(r) = rec {
            r.record("core.telemetry.capture", 0, req, c0, c1);
            r.record("fleet.tick", 0, req, c1, t1);
        }
    }
}
