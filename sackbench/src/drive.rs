//! `drive-cycle`: SACK-enhanced AppArmor with the vehicle policy and
//! profiles, sack-trace on, and the kernel registered in a fleet with idle
//! members. An open-loop SDS thread walks the Fig. 2 state machine (sensor
//! frames, direct event writes, ring bursts), reloads the policy and ticks
//! the fleet between events, while a closed-loop thread runs the IVI apps:
//! media, rescue, and a KOFFEE-style attacker whose ioctls are denied.

use std::sync::Arc;
use std::time::{Duration, Instant};

use sack_apparmor::{AppArmor, FilePerms, PolicyDb};
use sack_core::Sack;
use sack_fleet::FleetAggregator;
use sack_kernel::error::KernelResult;
use sack_kernel::file::OpenFlags;
use sack_kernel::kernel::{Kernel, KernelBuilder};
use sack_kernel::lsm::{AccessMask, ObjectRef, SecurityModule};
use sack_kernel::path::KPath;
use sack_kernel::types::{DeviceId, Fd};
use sack_kernel::uctx::UserContext;
use sack_vehicle::{VEHICLE_APPARMOR_PROFILES, VEHICLE_ENHANCED_POLICY};

use crate::control::{self, ControlPlane, Fleet, Mode, Schedule, Target};
use crate::env;
use crate::layers::{timed_ms, Hook, OpTimes, Stack};
use crate::oracle::{Oracle, SituationLog};
use crate::report::Report;
use crate::rng::{Deck, Rng};
use crate::run::{Measured, Phase, Workload};
use crate::spans::Recorder;

/// Idle kernels registered next to the kernel under test.
const IDLE_MEMBERS: usize = 31;
/// Media files the media app reads.
const TRACKS: usize = 16;

/// The SDS thread's schedule: a situation change every millisecond, a
/// ring burst every fifth slot, a reload every 50th and a fleet tick every
/// 100th.
const SCHEDULE: Schedule = Schedule {
    period: Duration::from_millis(1),
    burst_every: 5,
    reload_every: 50,
    tick_every: 100,
    tick_gap: Duration::from_millis(5),
};

/// The IVI apps: executable (and the profile it attaches to).
const APPS: [(&str, &str); 3] = [
    ("/usr/bin/media_app", "media_app"),
    ("/usr/bin/rescue_daemon", "rescue_daemon"),
    // The attacker is a compromised navigation app injecting door
    // commands, as in the KOFFEE attack.
    ("/usr/bin/navi_app", "navi_app"),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Stat,
    OpenReadClose,
    Ioctl,
}

impl Kind {
    /// The op's name in per-op metrics and spans.
    fn name(self) -> &'static str {
        match self {
            Kind::Stat => "stat",
            Kind::OpenReadClose => "open_read_close",
            Kind::Ioctl => "ioctl",
        }
    }
}

/// One op of the IVI mix.
struct IviOp {
    kind: Kind,
    app: usize,
    path: String,
    kpath: KPath,
    dev: Option<DeviceId>,
    fd: Option<Fd>,
    /// AppArmor's verdict from the vehicle profiles' construction.
    baseline: bool,
}

/// `(app, kind, path, baseline, cards per deck cycle)`. The vehicle
/// profiles grant `/dev/car/** r` and `/tmp/** rw` only, so every ioctl is
/// denied unless SACK's situation grants it.
const OPS: [(usize, Kind, &str, bool, usize); 7] = [
    (0, Kind::Ioctl, "/dev/car/audio", false, 3),
    (0, Kind::OpenReadClose, "/tmp/media/track", true, 2),
    (0, Kind::Stat, "/dev/car/audio", true, 2),
    (1, Kind::Ioctl, "/dev/car/door0", false, 1),
    (1, Kind::Ioctl, "/dev/car/door1", false, 1),
    (2, Kind::Ioctl, "/dev/car/door0", false, 1),
    (2, Kind::Ioctl, "/dev/car/door1", false, 1),
];

fn policies() -> Vec<String> {
    vec![
        VEHICLE_ENHANCED_POLICY.to_string(),
        control::navi_variant(VEHICLE_ENHANCED_POLICY, true),
    ]
}

/// The IVI side of a kernel, shared with the IVI thread.
struct Ivi {
    stack: Stack,
    apps: Vec<UserContext>,
    ops: Vec<IviOp>,
}

/// The drive-cycle kernel.
pub struct DriveKernel {
    ivi: Ivi,
    control: Option<ControlPlane>,
}

/// Loads the vehicle profiles and the enhanced policy; also returns the
/// profile-load and policy-compile times, in ms.
fn enhanced_stack(policy: &str) -> (Arc<Sack>, Arc<AppArmor>, [f64; 2]) {
    let db = Arc::new(PolicyDb::new());
    let (_, load) = timed_ms(|| {
        db.load_text(VEHICLE_APPARMOR_PROFILES)
            .expect("vehicle profiles parse")
    });
    let aa = AppArmor::new(db);
    let (sack, compile) = timed_ms(|| {
        Sack::enhanced_apparmor(policy, Arc::clone(&aa)).expect("vehicle policy loads")
    });
    (sack, aa, [load, compile])
}

fn boot(modules: Option<(&Arc<Sack>, &Arc<AppArmor>)>) -> Arc<Kernel> {
    let mut builder = KernelBuilder::new();
    if let Some((sack, aa)) = modules {
        builder = builder
            .security_module(Arc::clone(sack) as Arc<dyn SecurityModule>)
            .security_module(Arc::clone(aa) as Arc<dyn SecurityModule>);
    }
    let kernel = builder.boot();
    if let Some((sack, _)) = modules {
        sack.attach(&kernel)
            .expect("SACKfs attaches on a fresh kernel");
    }
    kernel
}

impl DriveKernel {
    fn build(policies: Option<&[String]>) -> KernelResult<DriveKernel> {
        let modules = policies.map(|p| enhanced_stack(&p[0]));
        let kernel = boot(modules.as_ref().map(|(s, a, _)| (s, a)));
        env::car(&kernel)?;
        for e in control::APP_EXES {
            env::exe(&kernel, e)?;
        }
        env::world_dir(&kernel, "/tmp/media")?;
        for k in 0..TRACKS {
            env::file(&kernel, &format!("/tmp/media/track{k}"), 4096)?;
        }
        let apps = APPS
            .iter()
            .map(|(exe, _)| env::client(&kernel, exe))
            .collect::<KernelResult<Vec<_>>>()?;
        let mut ops = Vec::new();
        for (app, kind, path, baseline, _) in OPS {
            let kpath = KPath::new(path)?;
            let (dev, fd) = match kind {
                Kind::Ioctl => (
                    kernel.vfs().resolve(&kpath)?.device(),
                    Some(apps[app].open(path, OpenFlags::read_only())?),
                ),
                _ => (None, None),
            };
            ops.push(IviOp {
                kind,
                app,
                path: path.to_string(),
                kpath,
                dev,
                fd,
                baseline,
            });
        }
        let (sack, apparmor, setup_ms) = match modules {
            Some((s, a, [load, compile])) => (
                Some(s),
                Some(a),
                vec![
                    ("apparmor.profile_load_ms", load),
                    ("core.policy_compile_ms", compile),
                ],
            ),
            None => (None, None, Vec::new()),
        };
        let control = match (&sack, policies) {
            (Some(s), Some(p)) => {
                kernel.trace().set_enabled(true);
                Some(ControlPlane::new(&kernel, s, Mode::Enhanced, p.to_vec())?)
            }
            _ => None,
        };
        Ok(DriveKernel {
            ivi: Ivi {
                stack: Stack {
                    setup_ms,
                    ..Stack::new(kernel, sack, apparmor)
                },
                apps,
                ops,
            },
            control,
        })
    }
}

/// Expected verdicts: `[op][variant][state]`.
type Expect = Vec<Vec<Vec<bool>>>;

struct IviClient<'a> {
    ivi: &'a Ivi,
    times: OpTimes,
    report: Report,
}

impl IviClient<'_> {
    /// Runs op `i` (reading track `track` if it opens a file); returns
    /// its outcome, start and end.
    fn play(&self, i: usize, track: usize) -> (KernelResult<()>, Instant, Instant) {
        let op = &self.ivi.ops[i];
        let app = &self.ivi.apps[op.app];
        let mut buf = [0u8; 4096];
        let t0 = Instant::now();
        let r = match op.kind {
            Kind::Stat => app.stat(&op.path).map(|_| ()),
            Kind::OpenReadClose => {
                let path = format!("{}{track}", op.path);
                app.open(&path, OpenFlags::read_only()).and_then(|fd| {
                    let n = app.read(fd, &mut buf);
                    app.close(fd)?;
                    n.map(|_| ())
                })
            }
            Kind::Ioctl => {
                let fd = op.fd.expect("ioctl ops hold a descriptor");
                app.ioctl(fd, env::read_cmd(&op.path), 0).map(|_| ())
            }
        };
        (r, t0, Instant::now())
    }
}

/// The drive-cycle workload.
#[derive(Debug)]
pub struct DriveCycle;

impl Workload for DriveCycle {
    type Env = DriveKernel;
    type Oracle = (Oracle, Expect);

    fn name(&self) -> &'static str {
        "drive-cycle"
    }

    fn threads(&self) -> usize {
        2
    }

    fn setup(&self) -> DriveKernel {
        DriveKernel::build(Some(&policies())).expect("drive-cycle setup on a fresh kernel")
    }

    fn oracle(&self, env: &DriveKernel, plant_wrong_verdict: bool) -> (Oracle, Expect) {
        let oracle = Oracle::new(&policies());
        let mut expect: Expect = env
            .ivi
            .ops
            .iter()
            .map(|op| {
                let target = Target {
                    exe: APPS[op.app].0,
                    profile: Some(APPS[op.app].1),
                    path: op.path.clone(),
                    perms: match op.kind {
                        Kind::Ioctl => FilePerms::IOCTL,
                        _ => FilePerms::READ,
                    },
                    apparmor: Some(op.baseline),
                };
                match op.kind {
                    // No module mediates getattr.
                    Kind::Stat => (0..oracle.variants())
                        .map(|v| vec![true; oracle.sim_of(v).policy().space().state_count()])
                        .collect(),
                    _ => control::verdict_table(&oracle, Mode::Enhanced, &target),
                }
            })
            .collect();
        if plant_wrong_verdict {
            // The attacker's door ioctl, which every situation denies.
            for row in &mut expect[5] {
                row.iter_mut().for_each(|v| *v = true);
            }
        }
        (oracle, expect)
    }

    /// Registers the kernel under test in a fleet of idle members. The
    /// members are fixtures, not part of the kernel's set-up.
    fn fixtures(&self, env: &mut DriveKernel) {
        let (Some(control), Some(sack)) = (env.control.as_mut(), env.ivi.stack.sack.as_ref())
        else {
            return;
        };
        let aggregator = FleetAggregator::new();
        aggregator.register(&env.ivi.stack.kernel, sack, "under-test");
        let members = (0..IDLE_MEMBERS)
            .map(|_| {
                let (sack, aa, _) = enhanced_stack(VEHICLE_ENHANCED_POLICY);
                let member = boot(Some((&sack, &aa)));
                aggregator.register(&member, &sack, "idle");
                (member, sack)
            })
            .collect();
        control.fleet = Some(Fleet {
            aggregator,
            members,
        });
    }

    fn reference(&self) -> DriveKernel {
        DriveKernel::build(None).expect("no-LSM setup on a fresh kernel")
    }

    fn stack<'a>(&self, env: &'a DriveKernel) -> &'a Stack {
        &env.ivi.stack
    }

    fn enable_twin(&self, env: &mut DriveKernel) {
        if let Some(c) = env.control.as_mut() {
            c.enable_twin();
        }
    }

    fn measure(
        &self,
        env: &mut DriveKernel,
        reference: Option<&DriveKernel>,
        oracle: &mut (Oracle, Expect),
        phase: &Phase,
        rng: &mut Rng,
        report: &mut Report,
    ) -> Measured {
        let traced = phase.traced();
        let (sim, expect) = oracle;
        let log = SituationLog::new(sim.situation());
        let ivi = &env.ivi;
        let reference = reference.map(|r| &r.ivi);
        let control = env
            .control
            .as_mut()
            .expect("the kernel under test has a control plane");
        let seed = rng.next_u64();
        let deck_spec: Vec<(usize, usize)> =
            OPS.iter().enumerate().map(|(i, op)| (i, op.4)).collect();
        let expect = &*expect;
        let log_ref = &log;
        let mut rec = traced.then(|| Recorder::new(phase.start, 0));
        let (ivi_out, control_stats) = std::thread::scope(|scope| {
            let h = scope.spawn(move || {
                let mut rng = Rng::new(seed, 7);
                let mut deck = Deck::new(&deck_spec);
                let mut rec = traced.then(|| Recorder::new(phase.start, 1));
                let mut sut = IviClient {
                    ivi,
                    times: OpTimes::default(),
                    report: Report::new(),
                };
                let mut floor = reference.map(|r| IviClient {
                    ivi: r,
                    times: OpTimes::default(),
                    report: Report::new(),
                });
                let mut req = 1u64 << 48;
                loop {
                    let start = Instant::now();
                    if start >= phase.until {
                        break;
                    }
                    let i = deck.deal(&mut rng);
                    let track = rng.below(TRACKS);
                    req += 1;
                    if let Some(f) = floor.as_mut().filter(|_| phase.reference_slice(start)) {
                        let (r, t0, t1) = f.play(i, track);
                        let op = f.ivi.ops[i].kind.name();
                        f.times.push(op, t1.duration_since(t0).as_nanos() as u64);
                        f.report.check(r.is_ok(), || format!("no-LSM {op}: {r:?}"));
                        f.times.busy_ns += start.elapsed().as_nanos() as u64;
                        continue;
                    }
                    let v1 = log_ref.version();
                    let (r, t0, t1) = sut.play(i, track);
                    let v2 = log_ref.version();
                    let op = &ivi.ops[i];
                    sut.times.push_in(
                        phase.window(start),
                        op.kind.name(),
                        t1.duration_since(t0).as_nanos() as u64,
                    );
                    // An op that raced a situation change may show the
                    // verdict of any situation it overlapped.
                    let ok = log_ref
                        .candidates(v1, v2)
                        .iter()
                        .any(|s| env::matches(&r, expect[i][s.variant][s.state]));
                    sut.report.check(ok, || {
                        format!(
                            "{} {} by {}: got {r:?}",
                            op.kind.name(),
                            op.path,
                            APPS[op.app].0
                        )
                    });
                    if let Some(rec) = rec.as_mut().filter(|_| phase.sampled(req)) {
                        let id = rec.reserve();
                        let app = &ivi.apps[op.app];
                        let track_path = KPath::new(&format!("{}{track}", op.path))
                            .expect("track paths are valid");
                        let (hook, obj) = match op.kind {
                            Kind::Stat => (Hook::Getattr, ObjectRef::regular(&op.kpath)),
                            Kind::OpenReadClose => (
                                Hook::FileOpen(AccessMask::READ),
                                ObjectRef::regular(&track_path),
                            ),
                            Kind::Ioctl => (
                                Hook::Ioctl,
                                ObjectRef::device(&op.kpath, op.dev.expect("car node")),
                            ),
                        };
                        ivi.stack.shadow(rec, id, req, app, &obj, hook);
                        let name = match op.kind {
                            Kind::Stat => "uctx.stat",
                            Kind::OpenReadClose => "uctx.open_read_close",
                            Kind::Ioctl => "uctx.ioctl",
                        };
                        rec.record_as(id, name, 0, req, t0, t1);
                    }
                    sut.times.busy_ns += start.elapsed().as_nanos() as u64;
                    if req.is_multiple_of(1024) {
                        ivi.stack.drain_audit();
                    }
                }
                sut.times.close_window();
                let mut report = sut.report;
                let floor_times = match floor {
                    Some(f) => {
                        report.absorb_checks(f.report);
                        f.times
                    }
                    None => OpTimes::default(),
                };
                (
                    sut.times,
                    floor_times,
                    report,
                    rec.map(Recorder::into_spans).unwrap_or_default(),
                )
            });
            let stats = control.run(
                sim,
                &SCHEDULE,
                phase.until,
                rng,
                Some(log_ref),
                rec.as_mut(),
                report,
            );
            (h.join().expect("IVI thread panicked"), stats)
        });
        let (sut, floor, ivi_report, mut spans) = ivi_out;
        report.absorb_checks(ivi_report);
        env.ivi.stack.drain_audit();
        if let Some(rec) = rec {
            spans.extend(rec.into_spans());
        }
        Measured {
            sut,
            floor,
            control: control_stats,
            clients: 1,
            spans,
        }
    }
}
