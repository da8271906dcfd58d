//! `steady`: independent SACK, one long-lived process, a fixed 64-path
//! working set and no situation events during the op window. The per-hook
//! path does almost all the work, with the decision cache hot.

use std::sync::Arc;
use std::time::Instant;

use sack_apparmor::FilePerms;
use sack_core::Sack;
use sack_kernel::error::KernelResult;
use sack_kernel::file::OpenFlags;
use sack_kernel::kernel::{Kernel, KernelBuilder};
use sack_kernel::lsm::{AccessMask, ObjectRef, SecurityModule};
use sack_kernel::path::KPath;
use sack_kernel::types::{DeviceId, Fd};
use sack_kernel::uctx::UserContext;

use crate::control::{self, ControlPlane, ControlStats, Mode, Target};
use crate::env;
use crate::layers::{timed_ms, Hook, OpTimes, Stack};
use crate::oracle::{Oracle, Situation};
use crate::report::Report;
use crate::rng::{Deck, Rng};
use crate::run::{Measured, Phase, Workload};
use crate::spans::Recorder;

/// The client's executable.
const CLIENT_EXE: &str = "/usr/bin/sackbench_client";
/// Working-set size: half SACK-protected, half not.
const WORKING_SET: usize = 64;
/// Bytes per working-set file (one read, one mapping).
const FILE_LEN: usize = 4096;
#[derive(Debug, Clone, Copy)]
enum Card {
    Stat,
    OpenReadClose,
    CreateUnlink0k,
    CreateUnlink10k,
    ForkExit,
    Exec,
    Mmap,
    Ioctl,
}

/// One cycle of the mix: 17 cards, 19 timed ops.
const MIX: [(Card, usize); 8] = [
    (Card::Stat, 4),
    (Card::OpenReadClose, 4),
    (Card::CreateUnlink0k, 1),
    (Card::CreateUnlink10k, 1),
    (Card::ForkExit, 1),
    (Card::Exec, 1),
    (Card::Mmap, 2),
    (Card::Ioctl, 3),
];

fn ws_path(i: usize) -> String {
    if i.is_multiple_of(2) {
        format!("/data/steady/p{i}.dat")
    } else {
        format!("/srv/steady/u{i}.dat")
    }
}

fn temp_path(i: usize) -> String {
    format!("/tmp/steady/n{i}")
}

/// Policy variants: the vehicle policy plus ~1,000 generated rules, and
/// the same with the reload probe's extra grant.
fn policies() -> Vec<String> {
    let mut rules = vec![
        "allow subject=* /data/steady/** rwm;".to_string(),
        format!("allow subject={CLIENT_EXE} /dev/car/** ri;"),
    ];
    rules.extend(env::padding_rules(998));
    control::independent_variants("BENCH", &rules)
}

/// One kernel with the steady client and its open descriptors.
pub struct SteadyKernel {
    stack: Stack,
    client: UserContext,
    ws: Vec<(String, KPath, Fd)>,
    devices: Vec<(KPath, DeviceId, Fd, u32)>,
    control: Option<ControlPlane>,
}

impl SteadyKernel {
    fn build(policies: Option<&[String]>) -> KernelResult<SteadyKernel> {
        let compiled = policies
            .map(|p| timed_ms(|| Sack::independent(&p[0]).expect("generated policy loads")));
        let compile_ms = compiled.as_ref().map(|c| c.1);
        let sack = compiled.map(|c| c.0);
        let mut builder = KernelBuilder::new();
        if let Some(s) = &sack {
            builder = builder.security_module(Arc::clone(s) as Arc<dyn SecurityModule>);
        }
        let kernel: Arc<Kernel> = builder.boot();
        if let Some(s) = &sack {
            s.attach(&kernel)
                .expect("SACKfs attaches on a fresh kernel");
        }
        env::car(&kernel)?;
        env::exe(&kernel, CLIENT_EXE)?;
        for e in control::APP_EXES {
            env::exe(&kernel, e)?;
        }
        env::world_dir(&kernel, "/tmp/steady")?;
        for i in 0..WORKING_SET {
            env::file(&kernel, &ws_path(i), FILE_LEN)?;
        }
        let client = env::client(&kernel, CLIENT_EXE)?;
        let mut ws = Vec::new();
        for i in 0..WORKING_SET {
            let path = ws_path(i);
            let fd = client.open(&path, OpenFlags::read_only())?;
            ws.push((path.clone(), KPath::new(&path)?, fd));
        }
        let mut devices = Vec::new();
        for node in env::CAR_NODES {
            let kpath = KPath::new(node)?;
            let dev = kernel
                .vfs()
                .resolve(&kpath)?
                .device()
                .expect("car node is a device");
            let fd = client.open(node, OpenFlags::read_only())?;
            devices.push((kpath, dev, fd, env::read_cmd(node)));
        }
        let control = match (&sack, policies) {
            (Some(s), Some(p)) => Some(ControlPlane::new(
                &kernel,
                s,
                Mode::Independent,
                p.to_vec(),
            )?),
            _ => None,
        };
        Ok(SteadyKernel {
            stack: Stack {
                setup_ms: compile_ms
                    .map(|ms| vec![("core.policy_compile_ms", ms)])
                    .unwrap_or_default(),
                ..Stack::new(kernel, sack, None)
            },
            client,
            ws,
            devices,
            control,
        })
    }
}

/// The simulator plus the expected verdicts of the op window.
pub struct SteadyOracle {
    sim: Oracle,
    expect: Expect,
}

/// Expected verdicts of the ops, per target: `[target][variant][state]`.
pub struct Expect {
    read: Vec<Vec<Vec<bool>>>,
    mmap: Vec<Vec<Vec<bool>>>,
    ioctl: Vec<Vec<Vec<bool>>>,
    temp: Vec<Vec<Vec<bool>>>,
}

impl Expect {
    fn new(oracle: &Oracle) -> Expect {
        let verdict = |path: String, perms| {
            let t = Target {
                exe: CLIENT_EXE,
                profile: None,
                path,
                perms,
                apparmor: None,
            };
            control::verdict_table(oracle, Mode::Independent, &t)
        };
        Expect {
            read: (0..WORKING_SET)
                .map(|i| verdict(ws_path(i), FilePerms::READ))
                .collect(),
            mmap: (0..WORKING_SET)
                .map(|i| verdict(ws_path(i), FilePerms::MMAP))
                .collect(),
            ioctl: env::CAR_NODES
                .iter()
                .map(|n| verdict(n.to_string(), FilePerms::IOCTL))
                .collect(),
            temp: (0..WORKING_SET)
                .map(|i| verdict(temp_path(i), FilePerms::WRITE))
                .collect(),
        }
    }

    /// Without an LSM only DAC decides, and every op of the mix passes it;
    /// shaped like the tables of `oracle`.
    fn all_allowed(oracle: &Oracle) -> Expect {
        let states = oracle.sim().policy().space().state_count();
        let yes = || vec![vec![true; states]; oracle.variants()];
        Expect {
            read: vec![yes(); WORKING_SET],
            mmap: vec![yes(); WORKING_SET],
            ioctl: vec![yes(); env::CAR_NODES.len()],
            temp: vec![yes(); WORKING_SET],
        }
    }

    /// The verdict of `table` in `s`.
    fn at(table: &[Vec<Vec<bool>>], i: usize, s: Situation) -> bool {
        table[i][s.variant][s.state]
    }
}

/// The steady workload.
#[derive(Debug)]
pub struct Steady;

struct Client<'a> {
    k: &'a SteadyKernel,
    expect: &'a Expect,
    /// The situation of the block's op window (no events arrive during
    /// it).
    situation: Situation,
    times: OpTimes,
    next_temp: usize,
    /// Statistics window of the op being played.
    window: u64,
}

impl Client<'_> {
    /// Runs one card, timing and checking each of its ops; on a sampled
    /// request (`rec` given) also records its spans and shadow calls.
    fn play(
        &mut self,
        card: Card,
        rng: &mut Rng,
        rec: Option<&mut Recorder>,
        req: u64,
        report: &mut Report,
    ) {
        let c = &self.k.client;
        let mut buf = [0u8; FILE_LEN];
        match card {
            Card::Stat => {
                let i = rng.below(WORKING_SET);
                let (path, kpath, _) = &self.k.ws[i];
                let t0 = Instant::now();
                let r = c.stat(path);
                let t1 = Instant::now();
                self.done("stat", t0, t1, &r, true, report);
                if let Some(rec) = rec {
                    let id = rec.reserve();
                    self.k
                        .stack
                        .shadow(rec, id, req, c, &ObjectRef::regular(kpath), Hook::Getattr);
                    rec.record_as(id, "uctx.stat", 0, req, t0, t1);
                }
            }
            Card::OpenReadClose => {
                let i = rng.below(WORKING_SET);
                let (path, kpath, _) = &self.k.ws[i];
                let t0 = Instant::now();
                let r = c.open(path, OpenFlags::read_only()).and_then(|fd| {
                    let n = c.read(fd, &mut buf);
                    c.close(fd)?;
                    n
                });
                let t1 = Instant::now();
                let allowed = Expect::at(&self.expect.read, i, self.situation);
                self.done("open_read_close", t0, t1, &r, allowed, report);
                if let Some(rec) = rec {
                    let id = rec.reserve();
                    let obj = ObjectRef::regular(kpath);
                    self.k
                        .stack
                        .shadow(rec, id, req, c, &obj, Hook::FileOpen(AccessMask::READ));
                    rec.record_as(id, "uctx.open_read_close", 0, req, t0, t1);
                }
            }
            Card::CreateUnlink0k | Card::CreateUnlink10k => {
                let big = matches!(card, Card::CreateUnlink10k);
                let i = self.next_temp % WORKING_SET;
                self.next_temp += 1;
                let path = temp_path(i);
                let data = [0x42u8; 10 * 1024];
                let t0 = Instant::now();
                let r = c.open(&path, OpenFlags::create_new()).and_then(|fd| {
                    let w = if big { c.write(fd, &data) } else { Ok(0) };
                    c.close(fd)?;
                    w
                });
                let t1 = Instant::now();
                let u = c.unlink(&path);
                let t2 = Instant::now();
                let allowed = Expect::at(&self.expect.temp, i, self.situation);
                let (create, unlink) = if big {
                    ("create_10k", "unlink_10k")
                } else {
                    ("create_0k", "unlink_0k")
                };
                self.done(create, t0, t1, &r, allowed, report);
                self.done(unlink, t1, t2, &u, allowed, report);
            }
            Card::ForkExit => {
                let t0 = Instant::now();
                let r = c.fork().map(UserContext::exit);
                let t1 = Instant::now();
                self.done("fork_exit", t0, t1, &r, true, report);
            }
            Card::Exec => {
                let t0 = Instant::now();
                let r = c.exec(CLIENT_EXE);
                let t1 = Instant::now();
                self.done("exec", t0, t1, &r, true, report);
            }
            Card::Mmap => {
                let i = rng.below(WORKING_SET);
                let (_, kpath, fd) = &self.k.ws[i];
                let t0 = Instant::now();
                let r = c.mmap(*fd, 0, FILE_LEN).map(std::hint::black_box);
                let t1 = Instant::now();
                let allowed = Expect::at(&self.expect.mmap, i, self.situation);
                self.done("mmap", t0, t1, &r, allowed, report);
                if let Some(rec) = rec {
                    let id = rec.reserve();
                    let obj = ObjectRef::regular(kpath);
                    self.k.stack.shadow(rec, id, req, c, &obj, Hook::Mmap);
                    rec.record_as(id, "uctx.mmap", 0, req, t0, t1);
                }
            }
            Card::Ioctl => {
                let j = rng.below(self.k.devices.len());
                let (kpath, dev, fd, cmd) = &self.k.devices[j];
                let t0 = Instant::now();
                let r = c.ioctl(*fd, *cmd, 0);
                let t1 = Instant::now();
                let allowed = Expect::at(&self.expect.ioctl, j, self.situation);
                self.done("ioctl", t0, t1, &r, allowed, report);
                if let Some(rec) = rec {
                    let id = rec.reserve();
                    let obj = ObjectRef::device(kpath, *dev);
                    self.k.stack.shadow(rec, id, req, c, &obj, Hook::Ioctl);
                    rec.record_as(id, "uctx.ioctl", 0, req, t0, t1);
                }
            }
        }
    }

    fn done<T: std::fmt::Debug>(
        &mut self,
        op: &'static str,
        t0: Instant,
        t1: Instant,
        r: &sack_kernel::error::KernelResult<T>,
        allowed: bool,
        report: &mut Report,
    ) {
        self.times
            .push_in(self.window, op, t1.duration_since(t0).as_nanos() as u64);
        report.check(env::matches(r, allowed), || {
            format!("steady {op}: got {r:?}, want allowed={allowed}")
        });
    }
}

impl Workload for Steady {
    type Env = SteadyKernel;
    type Oracle = SteadyOracle;

    fn name(&self) -> &'static str {
        "steady"
    }

    fn threads(&self) -> usize {
        1
    }

    fn setup(&self) -> SteadyKernel {
        SteadyKernel::build(Some(&policies())).expect("steady setup on a fresh kernel")
    }

    fn oracle(&self, _env: &SteadyKernel, plant_wrong_verdict: bool) -> SteadyOracle {
        let sim = Oracle::new(&policies());
        let mut expect = Expect::new(&sim);
        if plant_wrong_verdict {
            for row in expect.read[0].iter_mut().flatten() {
                *row = !*row;
            }
        }
        SteadyOracle { sim, expect }
    }

    fn reference(&self) -> SteadyKernel {
        SteadyKernel::build(None).expect("no-LSM setup on a fresh kernel")
    }

    fn stack<'a>(&self, env: &'a SteadyKernel) -> &'a Stack {
        &env.stack
    }

    fn enable_twin(&self, env: &mut SteadyKernel) {
        if let Some(c) = env.control.as_mut() {
            c.enable_twin();
        }
    }

    fn measure(
        &self,
        env: &mut SteadyKernel,
        reference: Option<&SteadyKernel>,
        oracle: &mut SteadyOracle,
        phase: &Phase,
        rng: &mut Rng,
        report: &mut Report,
    ) -> Measured {
        let traced = phase.traced();
        let none = Expect::all_allowed(&oracle.sim);
        let mut rec = traced.then(|| Recorder::new(phase.start, 0));
        let mut deck = Deck::new(&MIX);
        let mut req = 0u64;
        let (mut sut, mut floor) = (OpTimes::default(), OpTimes::default());
        let mut next_temp = [0usize; 2];
        let mut control = ControlStats::default();
        for (ops_until, block_end) in phase.blocks() {
            let situation = oracle.sim.situation();
            let mut c = Client {
                k: env,
                expect: &oracle.expect,
                situation,
                times: std::mem::take(&mut sut),
                next_temp: next_temp[0],
                window: 0,
            };
            let mut f = reference.map(|k| Client {
                k,
                expect: &none,
                situation,
                times: std::mem::take(&mut floor),
                next_temp: next_temp[1],
                window: 0,
            });
            loop {
                let t0 = Instant::now();
                if t0 >= ops_until {
                    break;
                }
                let card = deck.deal(rng);
                req += 1;
                c.window = phase.window(t0);
                match f.as_mut().filter(|_| phase.reference_slice(t0)) {
                    Some(f) => {
                        f.play(card, rng, None, req, report);
                        f.times.busy_ns += t0.elapsed().as_nanos() as u64;
                    }
                    None => {
                        let r = rec.as_mut().filter(|_| phase.sampled(req));
                        c.play(card, rng, r, req, report);
                        c.times.busy_ns += t0.elapsed().as_nanos() as u64;
                    }
                }
            }
            c.times.close_window();
            (sut, next_temp[0]) = (c.times, c.next_temp);
            if let Some(f) = f {
                (floor, next_temp[1]) = (f.times, f.next_temp);
            }
            let ran = env
                .control
                .as_mut()
                .expect("the kernel under test has a control plane")
                .run(
                    &mut oracle.sim,
                    &control::PROBE_SCHEDULE,
                    block_end,
                    rng,
                    None,
                    rec.as_mut(),
                    report,
                );
            control.absorb(&ran);
        }
        Measured {
            sut,
            floor,
            control,
            clients: 1,
            spans: rec.map(Recorder::into_spans).unwrap_or_default(),
        }
    }
}
