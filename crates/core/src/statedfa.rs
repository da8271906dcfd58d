//! Per-state unified DFA decision tables.
//!
//! `SackPolicy::compile` interns the policy's distinct object globs and
//! determinizes them once (the [`sack_apparmor::dfa`] builder) into
//! [`Subsets`]: one unminimized table whose every state carries the set of
//! glob ids accepting there. Each situation state's [`StateDfa`] folds that
//! shared result — a state is *protected* when its glob-id set is non-empty
//! (the protected set spans every object glob of the policy), and its
//! decision is the union of what this state's subject-wildcard rules grant
//! or deny on those globs — and then minimizes. One O(|path|) table walk
//! per hook therefore answers both questions the hook asks —
//! "is this path SACK-protected at all?" and "what do this state's rules
//! say?" — independent of rule count.
//!
//! Rules with a non-wildcard subject selector (`exe:`, `uid:`, `profile:`)
//! cannot be folded into a path-only DFA; they are kept aside in small
//! residual scan lists consulted after the walk. Vehicle policies keep
//! almost all rules subject-wildcarded, so the residue is empty or tiny.
//!
//! Tables are rebuilt from scratch on every compile and published through
//! the existing `Rcu<ActivePolicy>`, so a policy reload or situation
//! transition swaps them atomically together with the rule sets
//! (see `DESIGN.md` §7).

use std::collections::HashMap;
use std::sync::Arc;

use sack_apparmor::dfa::{Alphabet, Dfa, DfaBuilder, DfaStats, Subsets};
use sack_apparmor::matcher::RuleDecision;
use sack_apparmor::Glob;

use crate::rules::{MacRule, RuleEffect, SubjectCtx, SubjectMatch};
use sack_apparmor::FilePerms;

/// Distinct object globs interned by source text; glob id `i` is the tag
/// of the `i`-th distinct glob in the one NFA a policy compile
/// determinizes.
#[derive(Debug, Default)]
pub(crate) struct ObjectGlobs {
    builder: DfaBuilder,
    ids: HashMap<String, u32>,
}

impl ObjectGlobs {
    /// The id of `glob`, adding it on first sight of its source text.
    pub(crate) fn intern(&mut self, glob: &Glob) -> u32 {
        if let Some(&id) = self.ids.get(glob.source()) {
            return id;
        }
        let id = self.ids.len() as u32;
        self.builder.add_glob(glob, id);
        self.ids.insert(glob.source().to_string(), id);
        id
    }

    /// Number of distinct globs interned.
    pub(crate) fn len(&self) -> usize {
        self.ids.len()
    }

    /// The subset construction over every interned glob, against the byte
    /// classes those globs induce (one alphabet for all of a policy's
    /// tables).
    pub(crate) fn determinize(&self) -> Subsets {
        self.builder.determinize(&Arc::new(self.builder.alphabet()))
    }
}

/// Per-DFA-state annotation: protection membership plus the build-time
/// resolved decision of the subject-wildcard rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
struct StateAnnot {
    protected: bool,
    decision: RuleDecision,
}

/// Outcome of one [`StateDfa::decide`] walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StateDecision {
    /// True if the path matches any object glob in the policy (the
    /// [`crate::rules::ProtectedSet`] membership test).
    pub protected: bool,
    /// True if the requested permissions are granted in this state.
    pub permitted: bool,
}

/// A situation state's compiled decision table.
#[derive(Debug)]
pub struct StateDfa {
    dfa: Dfa<StateAnnot>,
    /// Subject-scoped allow rules, scanned after the walk.
    scan_allow: Vec<MacRule>,
    /// Subject-scoped deny rules, scanned before granting.
    scan_deny: Vec<MacRule>,
}

impl StateDfa {
    /// Compiles a stand-alone table from one state's active rules plus
    /// every object glob of the policy (`all_globs`, the protected set):
    /// interns them and takes the same [`StateDfa::from_subsets`] path a
    /// policy compile does.
    pub fn build<'a>(
        rules: impl IntoIterator<Item = &'a MacRule>,
        all_globs: impl IntoIterator<Item = &'a Glob>,
    ) -> StateDfa {
        let mut objects = ObjectGlobs::default();
        let rules: Vec<(&MacRule, u32)> = rules
            .into_iter()
            .map(|rule| (rule, objects.intern(&rule.object)))
            .collect();
        for glob in all_globs {
            objects.intern(glob);
        }
        Self::from_subsets(&objects.determinize(), rules)
    }

    /// Folds this state's table out of the policy's shared subset
    /// construction. `rules` pairs each of the state's active rules with
    /// its object's glob id in `subsets`.
    pub(crate) fn from_subsets<'a>(
        subsets: &Subsets,
        rules: impl IntoIterator<Item = (&'a MacRule, u32)>,
    ) -> StateDfa {
        // contribution[g]: the union decision of this state's
        // subject-wildcard rules on glob `g`.
        let mut contribution: Vec<RuleDecision> = Vec::new();
        let mut scan_allow = Vec::new();
        let mut scan_deny = Vec::new();
        for (rule, glob) in rules {
            if matches!(rule.subject, SubjectMatch::Any) {
                let glob = glob as usize;
                if contribution.len() <= glob {
                    contribution.resize(glob + 1, RuleDecision::default());
                }
                let decision = &mut contribution[glob];
                match rule.effect {
                    RuleEffect::Allow => decision.allowed = decision.allowed.union(rule.perms),
                    RuleEffect::Deny => decision.denied = decision.denied.union(rule.perms),
                }
            } else {
                match rule.effect {
                    RuleEffect::Allow => scan_allow.push(rule.clone()),
                    RuleEffect::Deny => scan_deny.push(rule.clone()),
                }
            }
        }
        let dfa = subsets.annotate(|globs| {
            let mut annot = StateAnnot {
                protected: !globs.is_empty(),
                decision: RuleDecision::default(),
            };
            for decision in globs.iter().filter_map(|&g| contribution.get(g as usize)) {
                annot.decision.allowed = annot.decision.allowed.union(decision.allowed);
                annot.decision.denied = annot.decision.denied.union(decision.denied);
            }
            annot
        });
        StateDfa {
            dfa,
            scan_allow,
            scan_deny,
        }
    }

    /// Decides a request with one table walk plus the (usually empty)
    /// subject-scoped residue. Produces exactly the outcome of
    /// `ProtectedSet::contains` + `StateRuleSet::permits`.
    pub fn decide(
        &self,
        subject: &SubjectCtx<'_>,
        path: &str,
        requested: FilePerms,
    ) -> StateDecision {
        let annot = self.dfa.eval(path);
        // Subject-scoped rules' globs are interned with the rest, so the
        // walk's protected bit covers them too.
        let protected = annot.protected;
        if annot.decision.denied.intersects(requested) {
            return StateDecision {
                protected,
                permitted: false,
            };
        }
        for rule in &self.scan_deny {
            if rule.perms.intersects(requested)
                && rule.object.matches(path)
                && rule.subject.matches(subject)
            {
                return StateDecision {
                    protected,
                    permitted: false,
                };
            }
        }
        let mut granted = annot.decision.allowed;
        if !granted.contains(requested) {
            for rule in &self.scan_allow {
                if rule.object.matches(path) && rule.subject.matches(subject) {
                    granted = granted.union(rule.perms);
                    if granted.contains(requested) {
                        break;
                    }
                }
            }
        }
        StateDecision {
            protected,
            permitted: granted.contains(requested),
        }
    }

    /// Size statistics of the compiled table, surfaced by `sack-analyze`.
    pub fn stats(&self) -> DfaStats {
        self.dfa.stats()
    }

    /// The byte-class alphabet the table was compiled against (shared
    /// across all states of one compiled policy).
    pub fn alphabet(&self) -> &Arc<Alphabet> {
        self.dfa.alphabet()
    }

    /// Number of subject-scoped rules left to the residual scan.
    pub fn residual_rule_count(&self) -> usize {
        self.scan_allow.len() + self.scan_deny.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::StateRuleSet;

    fn glob(pat: &str) -> Glob {
        Glob::compile(pat).unwrap()
    }

    fn rule(subject: SubjectMatch, object: &str, perms: FilePerms, effect: RuleEffect) -> MacRule {
        MacRule {
            subject,
            object: glob(object),
            perms,
            effect,
        }
    }

    #[test]
    fn dfa_matches_rule_set_semantics() {
        let rules = [
            rule(
                SubjectMatch::Any,
                "/dev/car/**",
                FilePerms::READ | FilePerms::WRITE,
                RuleEffect::Allow,
            ),
            rule(
                SubjectMatch::Any,
                "/dev/car/door*",
                FilePerms::WRITE,
                RuleEffect::Deny,
            ),
            rule(
                SubjectMatch::Uid(0),
                "/dev/car/door*",
                FilePerms::WRITE,
                RuleEffect::Allow,
            ),
        ];
        let set = StateRuleSet::build(rules.iter());
        let dfa = StateDfa::build(rules.iter(), rules.iter().map(|r| &r.object));
        let root = SubjectCtx {
            uid: 0,
            exe: None,
            profile: None,
        };
        let user = SubjectCtx {
            uid: 1000,
            exe: None,
            profile: None,
        };
        for subject in [&root, &user] {
            for path in ["/dev/car/door0", "/dev/car/audio", "/etc/passwd"] {
                for perms in [
                    FilePerms::READ,
                    FilePerms::WRITE,
                    FilePerms::READ | FilePerms::WRITE,
                ] {
                    assert_eq!(
                        dfa.decide(subject, path, perms).permitted,
                        set.permits(subject, path, perms),
                        "uid={} path={path} perms={perms}",
                        subject.uid
                    );
                }
            }
        }
        assert!(
            dfa.decide(&user, "/dev/car/audio", FilePerms::READ)
                .protected
        );
        assert!(!dfa.decide(&user, "/etc/passwd", FilePerms::READ).protected);
        assert_eq!(dfa.residual_rule_count(), 1);
    }

    #[test]
    fn markers_protect_paths_ruled_in_other_states() {
        // A glob from some other state's rules is protected here even
        // though this state has no rule for it.
        let here = [rule(
            SubjectMatch::Any,
            "/dev/car/audio",
            FilePerms::READ,
            RuleEffect::Allow,
        )];
        let elsewhere = glob("/dev/car/door*");
        let globs: Vec<&Glob> = here
            .iter()
            .map(|r| &r.object)
            .chain(std::iter::once(&elsewhere))
            .collect();
        let dfa = StateDfa::build(here.iter(), globs);
        let subject = SubjectCtx {
            uid: 1000,
            exe: None,
            profile: None,
        };
        let d = dfa.decide(&subject, "/dev/car/door0", FilePerms::READ);
        assert!(d.protected, "other-state glob must still be protected");
        assert!(!d.permitted, "no rule grants it in this state");
    }
}
