//! Deterministic, exhaustive interleaving exploration (loom-style DFS).
//!
//! A [`Model`] is a small, hand-written state machine abstracting a
//! concurrent algorithm: a fixed set of threads, each advanced one atomic
//! step at a time by [`Model::step`]. [`explore`] runs a depth-first
//! search over *every* schedule of enabled steps, memoising visited
//! states so the search terminates even when distinct schedules converge
//! on the same state.
//!
//! After each step the model's [`Model::check_invariants`] runs; a
//! returned violation aborts the search and is reported together with
//! the exact schedule (sequence of thread ids) that produced it, so a
//! failure is always replayable by hand.
//!
//! This is *model checking*, not stress testing: for a bounded model the
//! result is a proof over all interleavings, which is exactly what the
//! lock-free hot path (`Rcu<T>` readers/writers, the profile-table
//! replace, the submission ring) needs — the dangerous schedules are the
//! ones a stress test virtually never hits.

use std::collections::HashSet;
use std::hash::Hash;

/// A bounded concurrent algorithm to model-check.
///
/// Implementations must be cheap to clone and hash: the explorer clones
/// the state at every branch point and memoises visited states.
pub trait Model: Clone + Eq + Hash {
    /// Number of threads in the model. Thread ids are `0..threads()`.
    fn threads(&self) -> usize;

    /// True when `thread` has an enabled step in the current state.
    fn enabled(&self, thread: usize) -> bool;

    /// Advances `thread` by one atomic step. Only called when
    /// [`Model::enabled`] returned true for that thread. Returns an
    /// error description if the step itself observed a violation (e.g.
    /// a reader acquired a freed object).
    fn step(&mut self, thread: usize) -> Result<(), String>;

    /// True when every thread has run to completion.
    fn done(&self) -> bool;

    /// Global invariants checked after every step and at quiescence.
    fn check_invariants(&self) -> Result<(), String>;
}

/// A counterexample: the violated property plus the schedule reaching it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Description of the violated property.
    pub message: String,
    /// Thread ids in execution order; replaying these steps from the
    /// initial state reproduces the violation deterministically.
    pub schedule: Vec<usize>,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}\n  schedule: {:?}", self.message, self.schedule)
    }
}

/// Statistics from an exhaustive exploration that found no violation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Exploration {
    /// Distinct states visited (after memoisation).
    pub states: usize,
    /// Complete schedules that ran every thread to completion.
    pub complete_schedules: usize,
}

/// Exhaustively explores every interleaving of `model` up to
/// `max_depth` total steps.
///
/// Returns `Ok` with search statistics when every reachable schedule
/// completes without violating an invariant, or `Err` with the first
/// counterexample found. A state where no thread is enabled but the
/// model is not [`Model::done`] is reported as a deadlock; exceeding
/// `max_depth` is reported as a bound violation (the bound exists to
/// catch accidental non-termination in a model, not to hide behaviour —
/// pick it comfortably above the model's true step count).
pub fn explore<M: Model>(model: &M, max_depth: usize) -> Result<Exploration, Violation> {
    let mut visited: HashSet<M> = HashSet::new();
    let mut stats = Exploration {
        states: 0,
        complete_schedules: 0,
    };
    let mut schedule = Vec::new();
    dfs(model, max_depth, &mut visited, &mut stats, &mut schedule)?;
    Ok(stats)
}

fn dfs<M: Model>(
    model: &M,
    depth_left: usize,
    visited: &mut HashSet<M>,
    stats: &mut Exploration,
    schedule: &mut Vec<usize>,
) -> Result<(), Violation> {
    if !visited.insert(model.clone()) {
        return Ok(()); // converged with an already-explored state
    }
    stats.states += 1;

    if model.done() {
        stats.complete_schedules += 1;
        return check(model, schedule);
    }

    let enabled: Vec<usize> = (0..model.threads()).filter(|&t| model.enabled(t)).collect();
    if enabled.is_empty() {
        return Err(Violation {
            message: "deadlock: no thread enabled but model not done".to_string(),
            schedule: schedule.clone(),
        });
    }
    if depth_left == 0 {
        return Err(Violation {
            message: "depth bound exceeded: model did not quiesce".to_string(),
            schedule: schedule.clone(),
        });
    }

    for thread in enabled {
        let mut next = model.clone();
        schedule.push(thread);
        if let Err(message) = next.step(thread) {
            return Err(Violation {
                message,
                schedule: schedule.clone(),
            });
        }
        check(&next, schedule)?;
        dfs(&next, depth_left - 1, visited, stats, schedule)?;
        schedule.pop();
    }
    Ok(())
}

fn check<M: Model>(model: &M, schedule: &[usize]) -> Result<(), Violation> {
    model.check_invariants().map_err(|message| Violation {
        message,
        schedule: schedule.to_vec(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two threads each increment a shared counter via a non-atomic
    /// read-modify-write. The classic lost-update bug: with an atomic
    /// step granularity of load/store, some interleaving ends with 1.
    #[derive(Clone, PartialEq, Eq, Hash)]
    struct LostUpdate {
        shared: u8,
        // Per thread: 0 = before load, 1 = loaded (value), 2 = stored.
        pc: [u8; 2],
        local: [u8; 2],
        atomic: bool,
    }

    impl LostUpdate {
        fn new(atomic: bool) -> LostUpdate {
            LostUpdate {
                shared: 0,
                pc: [0; 2],
                local: [0; 2],
                atomic,
            }
        }
    }

    impl Model for LostUpdate {
        fn threads(&self) -> usize {
            2
        }

        fn enabled(&self, thread: usize) -> bool {
            self.pc[thread] < 2
        }

        fn step(&mut self, thread: usize) -> Result<(), String> {
            match self.pc[thread] {
                0 if self.atomic => {
                    self.shared += 1;
                    self.pc[thread] = 2;
                }
                0 => {
                    self.local[thread] = self.shared;
                    self.pc[thread] = 1;
                }
                1 => {
                    self.shared = self.local[thread] + 1;
                    self.pc[thread] = 2;
                }
                _ => unreachable!(),
            }
            Ok(())
        }

        fn done(&self) -> bool {
            self.pc.iter().all(|&pc| pc == 2)
        }

        fn check_invariants(&self) -> Result<(), String> {
            if self.done() && self.shared != 2 {
                return Err(format!("lost update: counter is {}, not 2", self.shared));
            }
            Ok(())
        }
    }

    #[test]
    fn explorer_finds_the_lost_update() {
        let violation = explore(&LostUpdate::new(false), 16).unwrap_err();
        assert!(violation.message.contains("lost update"));
        // The counterexample schedule must interleave both threads'
        // load phases before either store.
        assert!(violation.schedule.len() >= 3);
    }

    #[test]
    fn explorer_proves_the_atomic_version() {
        let stats = explore(&LostUpdate::new(true), 16).unwrap();
        assert!(stats.complete_schedules >= 1);
        assert!(stats.states > 1);
    }

    /// A model that never finishes must trip the depth bound, not hang.
    #[derive(Clone, PartialEq, Eq, Hash)]
    struct Spinner {
        count: u64,
    }

    impl Model for Spinner {
        fn threads(&self) -> usize {
            1
        }
        fn enabled(&self, _: usize) -> bool {
            true
        }
        fn step(&mut self, _: usize) -> Result<(), String> {
            self.count += 1; // every state distinct: memoisation can't save us
            Ok(())
        }
        fn done(&self) -> bool {
            false
        }
        fn check_invariants(&self) -> Result<(), String> {
            Ok(())
        }
    }

    #[test]
    fn depth_bound_catches_divergence() {
        let violation = explore(&Spinner { count: 0 }, 8).unwrap_err();
        assert!(violation.message.contains("depth bound"));
    }

    /// No thread enabled + not done = deadlock.
    #[derive(Clone, PartialEq, Eq, Hash)]
    struct Stuck;

    impl Model for Stuck {
        fn threads(&self) -> usize {
            1
        }
        fn enabled(&self, _: usize) -> bool {
            false
        }
        fn step(&mut self, _: usize) -> Result<(), String> {
            unreachable!()
        }
        fn done(&self) -> bool {
            false
        }
        fn check_invariants(&self) -> Result<(), String> {
            Ok(())
        }
    }

    #[test]
    fn deadlock_is_reported() {
        let violation = explore(&Stuck, 8).unwrap_err();
        assert!(violation.message.contains("deadlock"));
    }
}
