//! Profile model: file permissions, rules, and profiles.

use std::fmt;

use sack_kernel::cred::Capability;
use sack_kernel::lsm::SocketFamily;

use crate::glob::{Glob, ParseGlobError};

/// AppArmor file-access permission set.
///
/// Letters follow AppArmor profile syntax: `r` read, `w` write, `a` append,
/// `x` execute, `m` mmap, `i` ioctl (modelled as a permission letter so
/// SACK's `Per_Rules` can reference ioctl rights uniformly).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct FilePerms(u8);

impl FilePerms {
    /// Read.
    pub const READ: FilePerms = FilePerms(0b000001);
    /// Write.
    pub const WRITE: FilePerms = FilePerms(0b000010);
    /// Append.
    pub const APPEND: FilePerms = FilePerms(0b000100);
    /// Execute.
    pub const EXEC: FilePerms = FilePerms(0b001000);
    /// Memory-map.
    pub const MMAP: FilePerms = FilePerms(0b010000);
    /// Ioctl.
    pub const IOCTL: FilePerms = FilePerms(0b100000);

    /// The empty set.
    pub fn empty() -> Self {
        FilePerms(0)
    }

    /// The raw bit representation (stable across a process).
    pub const fn bits(self) -> u8 {
        self.0
    }

    /// Every permission.
    pub fn all() -> Self {
        FilePerms(0b111111)
    }

    /// True if no permission is present.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// True if all bits of `other` are present.
    pub fn contains(self, other: FilePerms) -> bool {
        self.0 & other.0 == other.0
    }

    /// True if any bit of `other` is present.
    pub fn intersects(self, other: FilePerms) -> bool {
        self.0 & other.0 != 0
    }

    /// Set union.
    pub fn union(self, other: FilePerms) -> FilePerms {
        FilePerms(self.0 | other.0)
    }

    /// Set intersection.
    pub fn intersect(self, other: FilePerms) -> FilePerms {
        FilePerms(self.0 & other.0)
    }

    /// Set difference (`self` minus `other`).
    pub fn difference(self, other: FilePerms) -> FilePerms {
        FilePerms(self.0 & !other.0)
    }

    /// Parses an AppArmor permission string such as `"rw"` or `"rwxi"`.
    ///
    /// # Errors
    ///
    /// Returns the offending character for anything outside `rwaxmi`.
    pub fn parse(text: &str) -> Result<FilePerms, char> {
        let mut perms = FilePerms::empty();
        for ch in text.chars() {
            perms = perms.union(match ch {
                'r' => FilePerms::READ,
                'w' => FilePerms::WRITE,
                'a' => FilePerms::APPEND,
                'x' => FilePerms::EXEC,
                'm' => FilePerms::MMAP,
                'i' => FilePerms::IOCTL,
                other => return Err(other),
            });
        }
        Ok(perms)
    }

    /// Converts a kernel [`sack_kernel::AccessMask`] to file permissions.
    pub fn from_access_mask(mask: sack_kernel::AccessMask) -> FilePerms {
        let mut p = FilePerms::empty();
        if mask.intersects(sack_kernel::AccessMask::READ) {
            p = p.union(FilePerms::READ);
        }
        if mask.intersects(sack_kernel::AccessMask::WRITE) {
            p = p.union(FilePerms::WRITE);
        }
        if mask.intersects(sack_kernel::AccessMask::APPEND) {
            p = p.union(FilePerms::APPEND);
        }
        if mask.intersects(sack_kernel::AccessMask::EXEC) {
            p = p.union(FilePerms::EXEC);
        }
        p
    }
}

impl std::ops::BitOr for FilePerms {
    type Output = FilePerms;
    fn bitor(self, rhs: FilePerms) -> FilePerms {
        self.union(rhs)
    }
}

impl fmt::Display for FilePerms {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut any = false;
        for (bit, ch) in [
            (FilePerms::READ, 'r'),
            (FilePerms::WRITE, 'w'),
            (FilePerms::APPEND, 'a'),
            (FilePerms::EXEC, 'x'),
            (FilePerms::MMAP, 'm'),
            (FilePerms::IOCTL, 'i'),
        ] {
            if self.contains(bit) {
                write!(f, "{ch}")?;
                any = true;
            }
        }
        if !any {
            f.write_str("-")?;
        }
        Ok(())
    }
}

/// A file rule: a glob plus granted (or denied) permissions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathRule {
    /// Path pattern.
    pub glob: Glob,
    /// Permissions this rule grants (or, with `deny`, forbids).
    pub perms: FilePerms,
    /// Explicit-deny rule (`deny /path rw,`): overrides any allow.
    pub deny: bool,
    /// Provenance tag. Rules injected by SACK's adaptive policy enforcer
    /// carry an origin so they can be removed when the situation changes.
    pub origin: Option<String>,
}

impl PathRule {
    /// An allow rule.
    ///
    /// # Errors
    ///
    /// Glob compilation errors.
    pub fn allow(pattern: &str, perms: FilePerms) -> Result<PathRule, ParseGlobError> {
        Ok(PathRule {
            glob: Glob::compile(pattern)?,
            perms,
            deny: false,
            origin: None,
        })
    }

    /// A deny rule.
    ///
    /// # Errors
    ///
    /// Glob compilation errors.
    pub fn deny(pattern: &str, perms: FilePerms) -> Result<PathRule, ParseGlobError> {
        Ok(PathRule {
            glob: Glob::compile(pattern)?,
            perms,
            deny: true,
            origin: None,
        })
    }

    /// Tags the rule with a provenance origin (builder-style).
    pub fn with_origin(mut self, origin: impl Into<String>) -> PathRule {
        self.origin = Some(origin.into());
        self
    }
}

impl fmt::Display for PathRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.deny {
            write!(f, "deny {} {},", self.glob, self.perms)
        } else {
            write!(f, "{} {},", self.glob, self.perms)
        }
    }
}

/// Profile enforcement mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ProfileMode {
    /// Violations are denied.
    #[default]
    Enforce,
    /// Violations are logged but allowed (AppArmor complain mode).
    Complain,
}

impl fmt::Display for ProfileMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProfileMode::Enforce => f.write_str("enforce"),
            ProfileMode::Complain => f.write_str("complain"),
        }
    }
}

/// A security profile: a named domain with its rules.
///
/// `PartialEq` compares the full source form (rules including origin tags,
/// capabilities, networks, mode, attachment); the `PolicyDb` uses it to
/// turn patches that change nothing into no-ops.
#[derive(Debug, Clone, PartialEq)]
pub struct Profile {
    /// Profile name.
    pub name: String,
    /// Executable attachment pattern (tasks exec'ing a matching path are
    /// confined by this profile).
    pub attachment: Option<Glob>,
    /// Enforcement mode.
    pub mode: ProfileMode,
    /// File rules, in declaration order.
    pub path_rules: Vec<PathRule>,
    /// Capabilities the domain may use.
    pub capabilities: Vec<Capability>,
    /// Socket families the domain may create.
    pub networks: Vec<SocketFamily>,
}

impl Profile {
    /// Creates an empty enforcing profile.
    pub fn new(name: impl Into<String>) -> Profile {
        Profile {
            name: name.into(),
            attachment: None,
            mode: ProfileMode::Enforce,
            path_rules: Vec::new(),
            capabilities: Vec::new(),
            networks: Vec::new(),
        }
    }

    /// Sets the executable attachment pattern (builder-style).
    ///
    /// # Errors
    ///
    /// Glob compilation errors.
    pub fn with_attachment(mut self, pattern: &str) -> Result<Profile, ParseGlobError> {
        self.attachment = Some(Glob::compile(pattern)?);
        Ok(self)
    }

    /// Adds a rule (builder-style).
    pub fn with_rule(mut self, rule: PathRule) -> Profile {
        self.path_rules.push(rule);
        self
    }

    /// Adds a capability (builder-style).
    pub fn with_capability(mut self, cap: Capability) -> Profile {
        self.capabilities.push(cap);
        self
    }

    /// Adds a permitted socket family (builder-style).
    pub fn with_network(mut self, family: SocketFamily) -> Profile {
        self.networks.push(family);
        self
    }

    /// Sets complain mode (builder-style).
    pub fn complain(mut self) -> Profile {
        self.mode = ProfileMode::Complain;
        self
    }

    /// True if the profile attaches to executables at `exe_path`.
    pub fn attaches_to(&self, exe_path: &str) -> bool {
        self.attachment
            .as_ref()
            .is_some_and(|g| g.matches(exe_path))
    }

    /// The globs of every path rule, in declaration order — the byte
    /// vocabulary a shared DFA alphabet must cover for this profile.
    pub fn globs(&self) -> impl Iterator<Item = &Glob> {
        self.path_rules.iter().map(|r| &r.glob)
    }

    /// Removes every rule tagged with `origin`; returns how many were
    /// removed. This is the primitive SACK-enhanced AppArmor uses to retract
    /// situation-specific rules.
    pub fn remove_rules_with_origin(&mut self, origin: &str) -> usize {
        let before = self.path_rules.len();
        self.path_rules
            .retain(|r| r.origin.as_deref() != Some(origin));
        before - self.path_rules.len()
    }
}

impl fmt::Display for Profile {
    /// Renders the profile in the profile language; the output re-parses
    /// to an equivalent profile (origin tags are not part of the syntax
    /// and are rendered as comments).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "profile {}", self.name)?;
        if let Some(attachment) = &self.attachment {
            write!(f, " {attachment}")?;
        }
        if self.mode == ProfileMode::Complain {
            write!(f, " flags=(complain)")?;
        }
        writeln!(f, " {{")?;
        for cap in &self.capabilities {
            let name = cap.name().strip_prefix("CAP_").unwrap_or(cap.name());
            writeln!(f, "    capability {},", name.to_ascii_lowercase())?;
        }
        for family in &self.networks {
            let name = match family {
                sack_kernel::lsm::SocketFamily::Unix => "unix",
                sack_kernel::lsm::SocketFamily::Inet => "inet",
            };
            writeln!(f, "    network {name},")?;
        }
        for rule in &self.path_rules {
            match &rule.origin {
                Some(origin) => writeln!(f, "    {rule}  # origin: {origin}")?,
                None => writeln!(f, "    {rule}")?,
            }
        }
        writeln!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perms_parse_and_display() {
        let p = FilePerms::parse("rwi").unwrap();
        assert!(p.contains(FilePerms::READ | FilePerms::WRITE | FilePerms::IOCTL));
        assert!(!p.contains(FilePerms::EXEC));
        assert_eq!(p.to_string(), "rwi");
        assert_eq!(FilePerms::parse("rz"), Err('z'));
        assert_eq!(FilePerms::empty().to_string(), "-");
    }

    #[test]
    fn perms_set_algebra() {
        let rw = FilePerms::READ | FilePerms::WRITE;
        assert_eq!(rw.difference(FilePerms::WRITE), FilePerms::READ);
        assert!(rw.intersects(FilePerms::WRITE));
        assert!(!rw.intersects(FilePerms::IOCTL));
        assert!(FilePerms::all().contains(rw));
    }

    #[test]
    fn from_access_mask_maps_bits() {
        use sack_kernel::AccessMask;
        let m = AccessMask::READ | AccessMask::WRITE;
        assert_eq!(
            FilePerms::from_access_mask(m),
            FilePerms::READ | FilePerms::WRITE
        );
        assert_eq!(
            FilePerms::from_access_mask(AccessMask::EXEC),
            FilePerms::EXEC
        );
    }

    #[test]
    fn profile_attachment() {
        let p = Profile::new("media")
            .with_attachment("/usr/bin/media*")
            .unwrap();
        assert!(p.attaches_to("/usr/bin/media_app"));
        assert!(!p.attaches_to("/usr/bin/other"));
        assert!(!Profile::new("x").attaches_to("/usr/bin/media_app"));
    }

    #[test]
    fn remove_rules_by_origin() {
        let mut p = Profile::new("d")
            .with_rule(PathRule::allow("/a", FilePerms::READ).unwrap())
            .with_rule(
                PathRule::allow("/b", FilePerms::WRITE)
                    .unwrap()
                    .with_origin("sack:emergency"),
            )
            .with_rule(
                PathRule::allow("/c", FilePerms::WRITE)
                    .unwrap()
                    .with_origin("sack:emergency"),
            );
        assert_eq!(p.remove_rules_with_origin("sack:emergency"), 2);
        assert_eq!(p.path_rules.len(), 1);
        assert_eq!(p.remove_rules_with_origin("sack:emergency"), 0);
    }

    #[test]
    fn rule_display() {
        let r = PathRule::allow("/dev/*", FilePerms::READ).unwrap();
        assert_eq!(r.to_string(), "/dev/* r,");
        let d = PathRule::deny("/dev/car/**", FilePerms::WRITE | FilePerms::IOCTL).unwrap();
        assert_eq!(d.to_string(), "deny /dev/car/** wi,");
    }
}
