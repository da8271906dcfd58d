//! Building blocks shared by the workloads: policy text generation, file
//! and device preparation, processes, and verdict checking.

use std::sync::Arc;

use sack_apparmor::FilePerms;
use sack_core::{AccessQuery, PolicySimulator, StepResult};
use sack_kernel::error::{Errno, KernelResult};
use sack_kernel::kernel::Kernel;
use sack_kernel::path::KPath;
use sack_kernel::types::Mode;
use sack_kernel::uctx::UserContext;
use sack_kernel::{Credentials, Gid, Uid};
use sack_vehicle::CarHardware;

/// Uid of every unprivileged client process.
pub const CLIENT_UID: u32 = 1000;

/// Doors and windows installed under `/dev/car/`.
pub const DOORS: usize = 2;
/// See [`DOORS`].
pub const WINDOWS: usize = 2;

/// Every node [`CarHardware::install`] creates for [`DOORS`]/[`WINDOWS`].
pub const CAR_NODES: [&str; 5] = [
    "/dev/car/door0",
    "/dev/car/door1",
    "/dev/car/window0",
    "/dev/car/window1",
    "/dev/car/audio",
];

/// The read-only ioctl command of a car node's driver.
pub fn read_cmd(node: &str) -> u32 {
    use sack_vehicle::devices::{audio_ioctl, door_ioctl, window_ioctl};
    if node.contains("door") {
        door_ioctl::STATUS
    } else if node.contains("window") {
        window_ioctl::GET_POSITION
    } else {
        audio_ioctl::GET_VOLUME
    }
}

/// Adds a permission to a SACK policy text: declared in `permissions`,
/// granted in each of `states` (in `state_per`), with `rules` (one rule
/// per line, without the permission label) in `per_rules`.
///
/// # Panics
///
/// If the base text lacks one of the three sections: the bases are the
/// policies shipped in `sack-vehicle`, so that is a benchmark bug.
pub fn with_permission(base: &str, perm: &str, states: &[&str], rules: &[String]) -> String {
    let mut out = String::with_capacity(base.len() + rules.len() * 64);
    let mut section = "";
    let mut granted: Vec<&str> = Vec::new();
    let mut seen = [false; 3];
    for line in base.lines() {
        let trimmed = line.trim();
        if section == "state_per" && trimmed == "}" {
            for s in states.iter().filter(|s| !granted.contains(s)) {
                out.push_str(&format!("    {s}: {perm};\n"));
            }
        }
        if section == "state_per" {
            if let Some(s) = states
                .iter()
                .find(|s| trimmed.starts_with(&format!("{s}:")))
            {
                granted.push(s);
                let body = trimmed.trim_end_matches(';');
                out.push_str(&format!("    {body}, {perm};\n"));
                continue;
            }
        }
        out.push_str(line);
        out.push('\n');
        match trimmed {
            "permissions {" => {
                out.push_str(&format!("    {perm};\n"));
                seen[0] = true;
            }
            "state_per {" => seen[1] = true,
            "per_rules {" => {
                out.push_str(&format!("    {perm}:\n"));
                for r in rules {
                    out.push_str(&format!("        {r}\n"));
                }
                seen[2] = true;
            }
            _ => {}
        }
        if trimmed.ends_with('{') {
            section = trimmed.trim_end_matches('{').trim();
        } else if trimmed == "}" {
            section = "";
        }
    }
    assert!(seen.iter().all(|&s| s), "base policy lacks a section");
    out
}

/// `count` padding rules that protect paths no workload touches, so the
/// policy carries realistic bulk without changing any expected verdict.
pub fn padding_rules(count: usize) -> Vec<String> {
    (0..count)
        .map(|j| format!("allow subject=* /opt/fleet/unit{}/cfg{j}/** rw;", j % 37))
        .collect()
}

/// Creates every missing directory of `path`, the last one world-writable.
pub fn world_dir(kernel: &Kernel, path: &str) -> KernelResult<()> {
    let p = KPath::new(path)?;
    let vfs = kernel.vfs();
    if let Some(parent) = p.parent() {
        vfs.mkdir_all(&parent)?;
    }
    if vfs.resolve(&p).is_err() {
        vfs.mkdir(&p, Mode(0o777), Uid::ROOT, Gid(0))?;
    }
    Ok(())
}

/// Creates a root-owned file of `len` bytes (mode 0644), with its parents.
pub fn file(kernel: &Kernel, path: &str, len: usize) -> KernelResult<()> {
    let p = KPath::new(path)?;
    let vfs = kernel.vfs();
    if let Some(parent) = p.parent() {
        vfs.mkdir_all(&parent)?;
    }
    let node = vfs.create_file(&p, Mode::REGULAR, Uid::ROOT, Gid(0))?;
    if len > 0 {
        vfs.write_at(&node, &vec![0x5Au8; len], 0)?;
    }
    Ok(())
}

/// Creates a root-owned executable, with its parents.
pub fn exe(kernel: &Kernel, path: &str) -> KernelResult<()> {
    let p = KPath::new(path)?;
    let vfs = kernel.vfs();
    if let Some(parent) = p.parent() {
        vfs.mkdir_all(&parent)?;
    }
    vfs.create_file(&p, Mode::EXEC, Uid::ROOT, Gid(0))?;
    Ok(())
}

/// Installs the car's device nodes.
pub fn car(kernel: &Arc<Kernel>) -> KernelResult<CarHardware> {
    CarHardware::install(kernel, DOORS, WINDOWS)
}

/// Spawns an unprivileged process and execs it into `exe_path`.
pub fn client(kernel: &Arc<Kernel>, exe_path: &str) -> KernelResult<UserContext> {
    let proc = kernel.spawn(Credentials::user(CLIENT_UID, CLIENT_UID));
    proc.exec(exe_path)?;
    Ok(proc)
}

/// True when `result` is the outcome an `allowed` verdict predicts: `Ok`
/// when allowed, `EACCES` when denied. Any other error is a mismatch.
pub fn matches<T>(result: &KernelResult<T>, allowed: bool) -> bool {
    match result {
        Ok(_) => allowed,
        Err(e) => !allowed && e.errno() == Errno::EACCES,
    }
}

/// The SACK verdict the policy simulator gives for one access in its
/// current state: `Some(allowed)` for a protected path, `None` when SACK
/// does not mediate the path.
pub fn sack_verdict(
    sim: &PolicySimulator,
    exe: Option<&str>,
    profile: Option<&str>,
    path: &str,
    perms: FilePerms,
) -> Option<bool> {
    let query = AccessQuery {
        uid: CLIENT_UID,
        exe: exe.map(str::to_string),
        profile: profile.map(str::to_string),
        path: path.to_string(),
        perms,
    };
    match sim.query(&query) {
        StepResult::Decision {
            mediated: true,
            allowed,
            ..
        } => Some(allowed),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sack_core::SackPolicy;
    use sack_vehicle::{VEHICLE_ENHANCED_POLICY, VEHICLE_SACK_POLICY};

    #[test]
    fn permission_is_spliced_into_every_named_state() {
        let rules = vec!["allow subject=* /data/x/** r;".to_string()];
        let text = with_permission(
            VEHICLE_SACK_POLICY,
            "GEN",
            &["driving", "emergency"],
            &rules,
        );
        let compiled = SackPolicy::parse(&text).unwrap().compile().unwrap();
        assert_eq!(compiled.rule_count(), 7);
        let gen = compiled.permission_id("GEN").unwrap();
        let driving = compiled.space().state_id("driving").unwrap();
        let parked = compiled.space().state_id("parking_with_driver").unwrap();
        assert!(compiled.permissions_of(driving).contains(&gen));
        assert!(!compiled.permissions_of(parked).contains(&gen));
    }

    #[test]
    fn unlisted_states_gain_a_state_per_line() {
        let rules = vec!["allow subject=profile:navi_app /dev/car/window0 wi;".to_string()];
        let text = with_permission(VEHICLE_ENHANCED_POLICY, "NAVI", &["driving"], &rules);
        let compiled = SackPolicy::parse(&text).unwrap().compile().unwrap();
        let driving = compiled.space().state_id("driving").unwrap();
        assert_eq!(compiled.permissions_of(driving).len(), 1);
    }
}
