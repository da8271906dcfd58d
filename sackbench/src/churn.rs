//! `churn`: independent SACK stacked with AppArmor. Two closed-loop
//! clients fork short-lived children that exec into a program confined by
//! a ~1,000-rule generated profile, stat and open paths of a 4,096-path
//! set, and exit. Every task starts with a cold per-task cache and the
//! working set exceeds its 512 slots, so the DFA walks, per-task state and
//! AppArmor matching carry the load, with two hook threads contending.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use sack_apparmor::{AppArmor, FilePerms, PolicyDb};
use sack_core::Sack;
use sack_kernel::error::KernelResult;
use sack_kernel::file::OpenFlags;
use sack_kernel::kernel::{Kernel, KernelBuilder};
use sack_kernel::lsm::{AccessMask, ObjectRef, SecurityModule};
use sack_kernel::path::KPath;
use sack_kernel::uctx::UserContext;

use crate::control::{self, ControlPlane, ControlStats, Mode};
use crate::env;
use crate::layers::{timed_ms, Hook, OpTimes, Stack};
use crate::oracle::{Oracle, Situation};
use crate::report::Report;
use crate::rng::{Deck, Rng};
use crate::run::{Measured, Phase, Workload};
use crate::spans::Recorder;

const SHELL_EXE: &str = "/usr/bin/churn_shell";
const WORKER_EXE: &str = "/usr/bin/churn_worker";
const CLIENTS: usize = 2;
const DIRS: usize = 64;
const GROUPS: usize = 16;
const PER_GROUP: usize = 4;
/// Paths in the set: `DIRS * GROUPS * PER_GROUP`.
const PATHS: usize = DIRS * GROUPS * PER_GROUP;
/// Directories SACK protects; reads are granted in the first
/// [`SACK_READABLE`] of them and denied in the rest.
const SACK_DIRS: usize = 16;
const SACK_READABLE: usize = 12;
/// Path ops per child between its exec and its exit.
const OPS_PER_CHILD: usize = 16;
const FILE_LEN: usize = 256;
fn path(i: usize) -> String {
    let (dir, rest) = (i / (GROUPS * PER_GROUP), i % (GROUPS * PER_GROUP));
    format!(
        "/data/churn/d{dir}/g{}_{}",
        rest / PER_GROUP,
        rest % PER_GROUP
    )
}

/// Whether the generated profile has a rule for group `g` of directory
/// `d`: about one group in thirteen is left out, so its reads are denied.
fn profile_covers(d: usize, g: usize) -> bool {
    (d * GROUPS + g) % 13 != 5
}

fn profile() -> String {
    let mut p = format!(
        "profile churn_worker {WORKER_EXE} {{\n    {WORKER_EXE} rx,\n    /usr/lib/** rm,\n"
    );
    for d in 0..DIRS {
        for g in (0..GROUPS).filter(|&g| profile_covers(d, g)) {
            p.push_str(&format!("    /data/churn/d{d}/g{g}_* r,\n"));
        }
    }
    p.push_str("}\n");
    p
}

fn policies() -> Vec<String> {
    let mut rules: Vec<String> = (0..SACK_DIRS)
        .map(|d| {
            let perms = if d < SACK_READABLE { "r" } else { "w" };
            format!("allow subject=* /data/churn/d{d}/** {perms};")
        })
        .collect();
    rules.extend(env::padding_rules(1000 - SACK_DIRS));
    control::independent_variants("CHURN", &rules)
}

/// The churn kernel: the path set, one parent process per client.
pub struct ChurnKernel {
    clients: Shared,
    control: Option<ControlPlane>,
}

/// What the client threads share.
struct Shared {
    stack: Stack,
    parents: Vec<UserContext>,
    paths: Vec<(String, KPath)>,
}

impl ChurnKernel {
    fn build(policies: Option<&[String]>) -> KernelResult<ChurnKernel> {
        let mut builder = KernelBuilder::new();
        let mut sack = None;
        let mut apparmor = None;
        let mut setup_ms = Vec::new();
        if let Some(p) = policies {
            let (s, compile) =
                timed_ms(|| Sack::independent(&p[0]).expect("generated policy loads"));
            let db = Arc::new(PolicyDb::new());
            let text = profile();
            let (_, load) = timed_ms(|| db.load_text(&text).expect("generated profile parses"));
            setup_ms = vec![
                ("core.policy_compile_ms", compile),
                ("apparmor.profile_load_ms", load),
            ];
            let aa = AppArmor::new(db);
            builder = builder
                .security_module(Arc::clone(&s) as Arc<dyn SecurityModule>)
                .security_module(Arc::clone(&aa) as Arc<dyn SecurityModule>);
            sack = Some(s);
            apparmor = Some(aa);
        }
        let kernel: Arc<Kernel> = builder.boot();
        if let Some(s) = &sack {
            s.attach(&kernel)
                .expect("SACKfs attaches on a fresh kernel");
        }
        env::car(&kernel)?;
        for e in [SHELL_EXE, WORKER_EXE].into_iter().chain(control::APP_EXES) {
            env::exe(&kernel, e)?;
        }
        let mut paths = Vec::with_capacity(PATHS);
        for i in 0..PATHS {
            let p = path(i);
            env::file(&kernel, &p, FILE_LEN)?;
            paths.push((p.clone(), KPath::new(&p)?));
        }
        let parents = (0..CLIENTS)
            .map(|_| env::client(&kernel, SHELL_EXE))
            .collect::<KernelResult<Vec<_>>>()?;
        let control = match (&sack, policies) {
            (Some(s), Some(p)) => Some(ControlPlane::new(
                &kernel,
                s,
                Mode::Independent,
                p.to_vec(),
            )?),
            _ => None,
        };
        Ok(ChurnKernel {
            clients: Shared {
                stack: Stack {
                    setup_ms,
                    ..Stack::new(kernel, sack, apparmor)
                },
                parents,
                paths,
            },
            control,
        })
    }
}

/// The churn workload.
#[derive(Debug)]
pub struct Churn;

#[derive(Debug, Clone, Copy)]
enum Card {
    Stat,
    OpenReadClose,
}

const MIX: [(Card, usize); 2] = [(Card::Stat, 1), (Card::OpenReadClose, 1)];

/// One client thread's loop state.
struct Client<'a> {
    k: &'a Shared,
    parent: &'a UserContext,
    read_allowed: &'a [bool],
    times: OpTimes,
    report: Report,
    /// Statistics window of the child being played.
    window: u64,
}

impl Client<'_> {
    fn done<T: std::fmt::Debug>(
        &mut self,
        op: &'static str,
        t0: Instant,
        t1: Instant,
        r: &KernelResult<T>,
        allowed: bool,
    ) {
        self.times
            .push_in(self.window, op, t1.duration_since(t0).as_nanos() as u64);
        self.report.check(env::matches(r, allowed), || {
            format!("churn {op}: got {r:?}, want allowed={allowed}")
        });
    }

    /// One child: fork, exec, [`OPS_PER_CHILD`] path ops, exit.
    fn child(
        &mut self,
        deck: &mut Deck<Card>,
        rng: &mut Rng,
        mut rec: Option<&mut Recorder>,
        req: u64,
    ) {
        let t0 = Instant::now();
        let forked = self.parent.fork();
        let t1 = Instant::now();
        self.done("fork", t0, t1, &forked, true);
        let Ok(child) = forked else {
            return;
        };
        let t0 = Instant::now();
        let r = child.exec(WORKER_EXE);
        let t1 = Instant::now();
        self.done("exec", t0, t1, &r, true);
        let mut buf = [0u8; FILE_LEN];
        for _ in 0..OPS_PER_CHILD {
            let i = rng.below(PATHS);
            let (p, kpath) = &self.k.paths[i];
            let (op, hook, t0, r) = match deck.deal(rng) {
                Card::Stat => {
                    let t0 = Instant::now();
                    let r = child.stat(p).map(|_| 0);
                    ("stat", Hook::Getattr, t0, r)
                }
                Card::OpenReadClose => {
                    let t0 = Instant::now();
                    let r = child.open(p, OpenFlags::read_only()).and_then(|fd| {
                        let n = child.read(fd, &mut buf);
                        child.close(fd)?;
                        n
                    });
                    ("open_read_close", Hook::FileOpen(AccessMask::READ), t0, r)
                }
            };
            let t1 = Instant::now();
            let allowed = op == "stat" || self.read_allowed[i];
            self.done(op, t0, t1, &r, allowed);
            if let Some(rec) = rec.as_deref_mut() {
                let id = rec.reserve();
                self.k
                    .stack
                    .shadow(rec, id, req, &child, &ObjectRef::regular(kpath), hook);
                let name = if op == "stat" {
                    "uctx.stat"
                } else {
                    "uctx.open_read_close"
                };
                rec.record_as(id, name, 0, req, t0, t1);
            }
        }
        let t0 = Instant::now();
        child.exit();
        let t1 = Instant::now();
        // exit(2) cannot fail.
        self.times
            .push_in(self.window, "exit", t1.duration_since(t0).as_nanos() as u64);
        self.report.check(true, String::new);
    }
}

/// The simulator plus the expected read verdict of every path, per
/// situation an op window ran in.
pub struct ChurnOracle {
    sim: Oracle,
    read: BTreeMap<Situation, Vec<bool>>,
    plant: bool,
}

impl ChurnOracle {
    /// The read verdicts of the current situation (the control plane of
    /// the previous block leaves the kernel in some situation), computed
    /// the first time it is seen.
    fn refresh(&mut self) -> &[bool] {
        let now = self.sim.situation();
        if self.read.contains_key(&now) {
            return &self.read[&now];
        }
        let sim = self.sim.sim();
        let mut read: Vec<bool> = (0..PATHS)
            .map(|i| {
                let p = path(i);
                let sack = env::sack_verdict(sim, Some(WORKER_EXE), None, &p, FilePerms::READ);
                let rest = i % (GROUPS * PER_GROUP);
                let aa = profile_covers(i / (GROUPS * PER_GROUP), rest / PER_GROUP);
                control::combine(
                    Mode::Independent,
                    sack.is_some(),
                    sack.unwrap_or(true),
                    Some(aa),
                )
            })
            .collect();
        if self.plant {
            read[0] = !read[0];
        }
        self.read.entry(now).or_insert(read)
    }
}

/// One client thread's state, carried from block to block.
struct ClientState {
    rng: Rng,
    deck: Deck<Card>,
    rec: Option<Recorder>,
    req: u64,
    sut: OpTimes,
    floor: OpTimes,
    report: Report,
}

impl ClientState {
    /// Plays children of client `t` until `ops_until`, on the kernel under
    /// test or, in its slices, the no-LSM reference.
    #[allow(clippy::too_many_arguments)]
    fn block(
        &mut self,
        t: usize,
        k: &Shared,
        reference: Option<&Shared>,
        read_allowed: &[bool],
        all_allowed: &[bool],
        phase: &Phase,
        ops_until: Instant,
    ) {
        let mut sut = Client {
            k,
            parent: &k.parents[t],
            read_allowed,
            times: std::mem::take(&mut self.sut),
            report: std::mem::take(&mut self.report),
            window: 0,
        };
        let mut floor = reference.map(|r| Client {
            k: r,
            parent: &r.parents[t],
            read_allowed: all_allowed,
            times: std::mem::take(&mut self.floor),
            report: Report::new(),
            window: 0,
        });
        loop {
            let t0 = Instant::now();
            if t0 >= ops_until {
                break;
            }
            self.req += 1;
            let req = self.req;
            sut.window = phase.window(t0);
            match floor.as_mut().filter(|_| phase.reference_slice(t0)) {
                Some(f) => {
                    f.child(&mut self.deck, &mut self.rng, None, req);
                    f.times.busy_ns += t0.elapsed().as_nanos() as u64;
                }
                None => {
                    let r = self.rec.as_mut().filter(|_| phase.sampled(req));
                    sut.child(&mut self.deck, &mut self.rng, r, req);
                    sut.times.busy_ns += t0.elapsed().as_nanos() as u64;
                    if req.is_multiple_of(256) {
                        k.stack.drain_audit();
                    }
                }
            }
        }
        sut.times.close_window();
        self.sut = sut.times;
        self.report = sut.report;
        if let Some(f) = floor {
            self.report.absorb_checks(f.report);
            self.floor = f.times;
        }
    }
}

impl Workload for Churn {
    type Env = ChurnKernel;
    type Oracle = ChurnOracle;

    fn name(&self) -> &'static str {
        "churn"
    }

    fn threads(&self) -> usize {
        CLIENTS
    }

    fn setup(&self) -> ChurnKernel {
        ChurnKernel::build(Some(&policies())).expect("churn setup on a fresh kernel")
    }

    fn oracle(&self, _env: &ChurnKernel, plant_wrong_verdict: bool) -> ChurnOracle {
        let sim = Oracle::new(&policies());
        let mut oracle = ChurnOracle {
            read: BTreeMap::new(),
            plant: plant_wrong_verdict,
            sim,
        };
        oracle.refresh();
        oracle
    }

    fn reference(&self) -> ChurnKernel {
        ChurnKernel::build(None).expect("no-LSM setup on a fresh kernel")
    }

    fn stack<'a>(&self, env: &'a ChurnKernel) -> &'a Stack {
        &env.clients.stack
    }

    fn enable_twin(&self, env: &mut ChurnKernel) {
        if let Some(c) = env.control.as_mut() {
            c.enable_twin();
        }
    }

    fn measure(
        &self,
        env: &mut ChurnKernel,
        reference: Option<&ChurnKernel>,
        oracle: &mut ChurnOracle,
        phase: &Phase,
        rng: &mut Rng,
        report: &mut Report,
    ) -> Measured {
        let traced = phase.traced();
        let all_allowed = vec![true; PATHS];
        let mut clients: Vec<ClientState> = (0..CLIENTS)
            .map(|t| ClientState {
                rng: Rng::new(rng.next_u64(), t as u64),
                deck: Deck::new(&MIX),
                rec: traced.then(|| Recorder::new(phase.start, t as u64 + 1)),
                req: (t as u64) << 48,
                sut: OpTimes::default(),
                floor: OpTimes::default(),
                report: Report::new(),
            })
            .collect();
        let mut rec = traced.then(|| Recorder::new(phase.start, 0));
        let mut control = ControlStats::default();
        for (ops_until, block_end) in phase.blocks() {
            let k: &Shared = &env.clients;
            let reference: Option<&Shared> = reference.map(|r| &r.clients);
            let read_allowed = oracle.refresh();
            let all_allowed = &all_allowed;
            std::thread::scope(|scope| {
                for (t, c) in clients.iter_mut().enumerate() {
                    scope.spawn(move || {
                        c.block(
                            t,
                            k,
                            reference,
                            read_allowed,
                            all_allowed,
                            phase,
                            ops_until,
                        );
                    });
                }
            });
            env.clients.stack.drain_audit();
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
        let mut m = Measured {
            clients: CLIENTS,
            control,
            ..Measured::default()
        };
        for c in clients {
            m.sut.merge(&c.sut);
            m.floor.merge(&c.floor);
            m.spans.extend(c.rec.map(Recorder::into_spans).unwrap_or_default());
            report.absorb_checks(c.report);
        }
        if let Some(rec) = rec {
            m.spans.extend(rec.into_spans());
        }
        m
    }
}
