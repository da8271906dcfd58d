//! The verdict oracle's situation tracking.
//!
//! Expected SACK verdicts come from `sack_core::PolicySimulator`, driven
//! with the same event sequence the kernel receives. This module keeps
//! that simulator in step with policy reloads and publishes which
//! situation was current when, so an op that races a transition on
//! another thread can be checked against every situation it may have
//! seen.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use sack_core::{PolicySimulator, StepResult};

/// A situation: which policy variant is loaded, and its current state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Situation {
    /// Index of the loaded policy variant.
    pub variant: usize,
    /// State index in that variant's state space.
    pub state: usize,
}

/// Seqlock-style record of situation changes. The writer pushes the
/// situation a change leads to, bumps the version to odd, performs the
/// change, and bumps it to even. A reader that saw versions `v1` before
/// and `v2` after its op may have observed any situation from entry
/// `v1 / 2` through entry `ceil(v2 / 2)`.
#[derive(Debug)]
pub struct SituationLog {
    version: AtomicU64,
    entries: Mutex<Vec<Situation>>,
}

impl SituationLog {
    /// A log whose entry 0 is the initial situation.
    pub fn new(initial: Situation) -> SituationLog {
        SituationLog {
            version: AtomicU64::new(0),
            entries: Mutex::new(vec![initial]),
        }
    }

    /// Announces a change to `next`; call [`SituationLog::end`] once the
    /// kernel has applied it.
    pub fn begin(&self, next: Situation) {
        self.entries
            .lock()
            .expect("situation log lock poisoned")
            .push(next);
        self.version.fetch_add(1, Ordering::SeqCst);
    }

    /// Marks the announced change as applied.
    pub fn end(&self) {
        self.version.fetch_add(1, Ordering::SeqCst);
    }

    /// The current version, read before and after an op.
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::SeqCst)
    }

    /// Every situation an op bracketed by versions `v1..=v2` may have seen.
    pub fn candidates(&self, v1: u64, v2: u64) -> Vec<Situation> {
        let entries = self.entries.lock().expect("situation log lock poisoned");
        let lo = (v1 / 2) as usize;
        let hi = (v2.div_ceil(2) as usize).min(entries.len() - 1);
        entries[lo..=hi].to_vec()
    }
}

/// A policy simulator per variant, stepped like the kernel: events go to
/// the loaded variant, and a reload restarts the new variant from its
/// initial state.
pub struct Oracle {
    sims: Vec<PolicySimulator>,
    loaded: usize,
}

impl std::fmt::Debug for Oracle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Oracle")
            .field("loaded", &self.loaded)
            .field("state", &self.sims[self.loaded].state())
            .finish()
    }
}

impl Oracle {
    /// Simulators for every variant, variant 0 loaded.
    ///
    /// # Panics
    ///
    /// If a variant does not compile: the variants are generated by this
    /// benchmark, so that is a benchmark bug.
    pub fn new(variants: &[String]) -> Oracle {
        let sims = variants
            .iter()
            .map(|v| PolicySimulator::new(v).expect("generated policy variant compiles"))
            .collect();
        Oracle { sims, loaded: 0 }
    }

    /// The simulator of the loaded variant.
    pub fn sim(&self) -> &PolicySimulator {
        &self.sims[self.loaded]
    }

    /// The simulator of `variant` (its state is only meaningful while
    /// loaded; use it for state-independent questions).
    pub fn sim_of(&self, variant: usize) -> &PolicySimulator {
        &self.sims[variant]
    }

    /// Number of variants.
    pub fn variants(&self) -> usize {
        self.sims.len()
    }

    /// The current situation.
    pub fn situation(&self) -> Situation {
        let sim = self.sim();
        let state = sim
            .policy()
            .space()
            .state_id(sim.state())
            .expect("simulator state is declared");
        Situation {
            variant: self.loaded,
            state: state.0,
        }
    }

    /// Name of the current state.
    pub fn state_name(&self) -> &str {
        self.sim().state()
    }

    /// Delivers an event to the loaded variant; true if it transitioned.
    pub fn deliver(&self, event: &str) -> bool {
        matches!(self.sim().deliver(event), StepResult::Transitioned { .. })
    }

    /// The events that move the loaded variant out of its current state.
    pub fn enabled_events(&self) -> Vec<String> {
        let sim = self.sim();
        let policy = sim.policy();
        let space = policy.space();
        let current = space.state_id(sim.state()).expect("declared state");
        let mut events: Vec<String> = policy
            .transitions()
            .iter()
            .filter(|t| t.from == current && t.to != current)
            .map(|t| space.event(t.event).name.clone())
            .collect();
        events.sort();
        events.dedup();
        events
    }

    /// Loads `variant` as a policy reload does: the new variant restarts
    /// from its initial state. The simulator is walked back to its initial
    /// state along a shortest event path, which leaves it exactly where a
    /// freshly compiled simulator would be without recompiling it.
    pub fn reload(&mut self, variant: usize) {
        self.loaded = variant;
        let path = self.path_to_initial();
        for event in path {
            self.deliver(&event);
        }
    }

    fn path_to_initial(&self) -> Vec<String> {
        let sim = self.sim();
        let policy = sim.policy();
        let space = policy.space();
        let start = space.state_id(sim.state()).expect("declared state");
        let goal = policy.initial();
        let mut prev: BTreeMap<usize, (usize, String)> = BTreeMap::new();
        let mut queue = VecDeque::from([start.0]);
        while let Some(s) = queue.pop_front() {
            if s == goal.0 {
                break;
            }
            for t in policy.transitions().iter().filter(|t| t.from.0 == s) {
                if t.to.0 != start.0 && !prev.contains_key(&t.to.0) {
                    prev.insert(t.to.0, (s, space.event(t.event).name.clone()));
                    queue.push_back(t.to.0);
                }
            }
        }
        let mut path = Vec::new();
        let mut at = goal.0;
        while at != start.0 {
            let (from, event) = prev
                .get(&at)
                .expect("initial state is reachable from every state")
                .clone();
            path.push(event);
            at = from;
        }
        path.reverse();
        path
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sack_vehicle::VEHICLE_SACK_POLICY;

    #[test]
    fn straddling_reader_sees_both_sides() {
        let s = |state| Situation { variant: 0, state };
        let log = SituationLog::new(s(1));
        let v1 = log.version();
        log.begin(s(3));
        let mid = log.version();
        log.end();
        let v2 = log.version();
        assert_eq!(log.candidates(v1, v1), vec![s(1)]);
        assert_eq!(log.candidates(v1, v2), vec![s(1), s(3)]);
        assert_eq!(log.candidates(mid, mid), vec![s(1), s(3)]);
        assert_eq!(log.candidates(v2, v2), vec![s(3)]);
    }

    #[test]
    fn reload_restarts_from_the_initial_state() {
        let mut oracle = Oracle::new(&vec![VEHICLE_SACK_POLICY.to_string(); 2]);
        assert!(oracle.deliver("start_driving"));
        assert!(oracle.deliver("crash"));
        assert_eq!(oracle.state_name(), "emergency");
        oracle.reload(1);
        assert_eq!(oracle.situation().variant, 1);
        assert_eq!(oracle.state_name(), "parking_with_driver");
        assert_eq!(
            oracle.enabled_events(),
            vec!["crash", "driver_left", "start_driving"]
        );
    }
}
