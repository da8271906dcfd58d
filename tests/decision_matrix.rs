//! Cross-validation of the offline policy simulator against the live
//! kernel: for every reachable situation state, every demo subject and
//! every interesting (object, operation) pair, the simulator's verdict
//! must equal what the kernel actually does.
//!
//! This pins down the full decision surface of the vehicle policy as a
//! table, so any change to rule semantics shows up as a concrete
//! state/subject/object triple.

use std::sync::Arc;

use sack_apparmor::profile::FilePerms;
use sack_core::simulate::{AccessQuery, PolicySimulator, StepResult};
use sack_core::Sack;
use sack_kernel::cred::Credentials;
use sack_kernel::file::OpenFlags;
use sack_kernel::kernel::{Kernel, KernelBuilder};
use sack_kernel::lsm::SecurityModule;
use sack_kernel::uctx::UserContext;
use sack_vehicle::car::CarHardware;
use sack_vehicle::policies::VEHICLE_SACK_POLICY;

struct LiveWorld {
    kernel: Arc<Kernel>,
    sack: Arc<Sack>,
    rescue: UserContext,
    media: UserContext,
}

fn live_world() -> LiveWorld {
    let sack = Sack::independent(VEHICLE_SACK_POLICY).unwrap();
    let kernel = KernelBuilder::new()
        .security_module(Arc::clone(&sack) as Arc<dyn SecurityModule>)
        .boot();
    sack.attach(&kernel).unwrap();
    CarHardware::install(&kernel, 2, 2).unwrap();
    let mk = |exe: &str| {
        kernel
            .vfs()
            .create_file(
                &sack_kernel::KPath::new(exe).unwrap(),
                sack_kernel::Mode::EXEC,
                sack_kernel::Uid::ROOT,
                sack_kernel::Gid(0),
            )
            .unwrap();
        let proc = kernel.spawn(Credentials::user(1000, 1000));
        proc.exec(exe).unwrap();
        proc
    };
    let rescue = mk("/usr/bin/rescue_daemon");
    let media = mk("/usr/bin/media_app");
    LiveWorld {
        kernel,
        sack,
        rescue,
        media,
    }
}

/// Attempts the operation on the live kernel; returns whether it was
/// allowed (distinguishing only MAC denials — harness errors panic).
fn live_attempt(proc: &UserContext, path: &str, perms: FilePerms) -> bool {
    let result = if perms.contains(FilePerms::IOCTL) {
        proc.open(path, OpenFlags::read_write()).and_then(|fd| {
            let r = proc.ioctl(fd, sack_vehicle::devices::door_ioctl::STATUS, 0);
            proc.close(fd).unwrap();
            r.map(|_| ())
        })
    } else if perms.contains(FilePerms::WRITE) {
        proc.open(path, OpenFlags::write_only())
            .and_then(|fd| proc.close(fd))
    } else {
        proc.open(path, OpenFlags::read_only())
            .and_then(|fd| proc.close(fd))
    };
    match result {
        Ok(()) => true,
        Err(e) if e.context() == Some("sack") => false,
        // ENOTTY etc. mean the MAC allowed it and the device complained —
        // for ioctl-on-audio style probes that still counts as allowed.
        Err(e) if e.errno() == sack_kernel::Errno::ENOTTY => true,
        Err(e) => panic!("unexpected error for {path}: {e}"),
    }
}

/// The vehicle policy with `SET_VOLUME_FREE` moved from parking to
/// driving: reloading it mid-walk flips the audio verdicts, so a verdict
/// that survived the reload would show up as a divergence.
fn reloaded_vehicle_policy() -> String {
    VEHICLE_SACK_POLICY
        .replace("driving: NORMAL;", "driving: NORMAL, SET_VOLUME_FREE;")
        .replace(
            "parking_with_driver: NORMAL, SET_VOLUME_FREE;",
            "parking_with_driver: NORMAL;",
        )
}

/// One step of the matrix walk.
enum Step {
    /// A situation event delivered to both systems.
    Event(&'static str),
    /// A SACKfs `policy` write; the simulator restarts from the new text.
    Reload,
}

#[test]
fn simulator_matches_live_kernel_over_the_whole_matrix() {
    let world = live_world();
    let mut sim = PolicySimulator::new(VEHICLE_SACK_POLICY).unwrap();
    let reloaded = reloaded_vehicle_policy();
    let admin = world.kernel.spawn(Credentials::root());

    // Walk both systems through the same events and one reload, checking
    // the matrix in every state along the way. The subjects are
    // long-lived processes, and every (subject, path, perms) is probed
    // twice in a row, so a repeated access by the same pid right after a
    // transition or reload must match the simulator too.
    let subjects: [(&str, &UserContext); 2] = [
        ("/usr/bin/rescue_daemon", &world.rescue),
        ("/usr/bin/media_app", &world.media),
    ];
    let probes: [(&str, FilePerms); 4] = [
        ("/dev/car/door0", FilePerms::READ),
        ("/dev/car/door0", FilePerms::WRITE),
        ("/dev/car/door1", FilePerms::IOCTL),
        ("/dev/car/audio", FilePerms::WRITE),
    ];
    let walk = [
        Step::Event("start_driving"),
        Step::Event("crash"),
        Step::Reload,
        Step::Event("start_driving"),
        Step::Event("crash"),
        Step::Event("emergency_resolved"),
        Step::Event("driver_left"),
        Step::Event("driver_entered"),
    ];

    let mut checked = 0;
    let mut check_state = |sim: &PolicySimulator| {
        assert_eq!(sim.state(), world.sack.current_state_name());
        for (exe, proc) in &subjects {
            for (path, perms) in &probes {
                let query = AccessQuery::from_exe(exe, path, *perms);
                let expected = match sim.query(&query) {
                    StepResult::Decision { allowed, .. } => allowed,
                    other => panic!("unexpected {other:?}"),
                };
                for attempt in 0..2 {
                    let actual = live_attempt(proc, path, *perms);
                    assert_eq!(
                        expected,
                        actual,
                        "divergence: state={} exe={exe} path={path} perms={perms} \
                         attempt={attempt}",
                        sim.state()
                    );
                    checked += 1;
                }
            }
        }
    };

    check_state(&sim);
    for step in &walk {
        match step {
            Step::Event(event) => {
                sim.deliver(event);
                world
                    .sack
                    .deliver_event(event, std::time::Duration::ZERO)
                    .unwrap();
            }
            Step::Reload => {
                let fd = admin
                    .open("/sys/kernel/security/SACK/policy", OpenFlags::write_only())
                    .unwrap();
                admin.write(fd, reloaded.as_bytes()).unwrap();
                admin.close(fd).unwrap();
                sim = PolicySimulator::new(&reloaded).unwrap();
            }
        }
        check_state(&sim);
    }
    assert_eq!(
        checked,
        (walk.len() + 1) * subjects.len() * probes.len() * 2
    );
}

#[test]
fn simulator_matches_enhanced_apparmor_kernel() {
    use sack_apparmor::{AppArmor, PolicyDb};
    use sack_vehicle::policies::{VEHICLE_APPARMOR_PROFILES, VEHICLE_ENHANCED_POLICY};

    let db = Arc::new(PolicyDb::new());
    db.load_text(VEHICLE_APPARMOR_PROFILES).unwrap();
    let apparmor = AppArmor::new(Arc::clone(&db));
    let sack = Sack::enhanced_apparmor(VEHICLE_ENHANCED_POLICY, Arc::clone(&apparmor)).unwrap();
    let kernel = KernelBuilder::new()
        .security_module(Arc::clone(&sack) as Arc<dyn SecurityModule>)
        .security_module(Arc::clone(&apparmor) as Arc<dyn SecurityModule>)
        .boot();
    sack.attach(&kernel).unwrap();
    CarHardware::install(&kernel, 2, 2).unwrap();

    let rescue = kernel.spawn(Credentials::user(900, 900));
    apparmor.set_profile(rescue.pid(), "rescue_daemon").unwrap();

    let sim = PolicySimulator::new(VEHICLE_ENHANCED_POLICY).unwrap();
    let door_query = AccessQuery {
        uid: 900,
        exe: None,
        profile: Some("rescue_daemon".to_string()),
        path: "/dev/car/door0".to_string(),
        perms: FilePerms::WRITE,
    };

    for event in [
        "start_driving",
        "crash",
        "emergency_resolved",
        "driver_left",
    ] {
        // The simulator says what SACK's mapping intends...
        let expected = match sim.query(&door_query) {
            StepResult::Decision {
                mediated: true,
                allowed,
                ..
            } => allowed,
            StepResult::Decision {
                mediated: false, ..
            } => true,
            other => panic!("unexpected {other:?}"),
        };
        // ...and the live enhanced-AppArmor kernel must agree. Note the
        // base profile grants `/dev/car/** r` but not `w`, so writes track
        // the injected rules exactly.
        let actual = match rescue.open("/dev/car/door0", OpenFlags::write_only()) {
            Ok(fd) => {
                rescue.close(fd).unwrap();
                true
            }
            Err(e) => {
                assert_eq!(e.context(), Some("apparmor"), "{e}");
                false
            }
        };
        assert_eq!(expected, actual, "state {}", sim.state());

        sim.deliver(event);
        sack.deliver_event(event, std::time::Duration::ZERO)
            .unwrap();
        assert_eq!(sim.state(), sack.current_state_name());
    }
}

#[test]
fn exhaustive_reachable_state_answers_match_policy_intent() {
    let sim = PolicySimulator::new(VEHICLE_SACK_POLICY).unwrap();

    // CONTROL_CAR_DOORS: rescue only, emergency only.
    let door_ctl = AccessQuery::from_exe(
        "/usr/bin/rescue_daemon",
        "/dev/car/door0",
        FilePerms::WRITE | FilePerms::IOCTL,
    );
    let verdicts = sim.query_all_reachable_states(&door_ctl);
    assert_eq!(verdicts.len(), 4, "all four Fig. 2 states reachable");
    for (state, allowed) in &verdicts {
        assert_eq!(*allowed, state == "emergency", "{state}");
    }

    // SET_VOLUME_FREE: anyone, but only parked with driver.
    let volume = AccessQuery::from_exe(
        "/usr/bin/media_app",
        "/dev/car/audio",
        FilePerms::WRITE | FilePerms::IOCTL,
    );
    for (state, allowed) in sim.query_all_reachable_states(&volume) {
        assert_eq!(allowed, state == "parking_with_driver", "{state}");
    }

    // NORMAL reads: everywhere.
    let read = AccessQuery::from_exe("/usr/bin/anything", "/dev/car/window1", FilePerms::READ);
    assert!(sim
        .query_all_reachable_states(&read)
        .iter()
        .all(|(_, allowed)| *allowed));
}
