//! Bounded models of the lock-free hot path, for [`crate::explore`].
//!
//! Three models cover the lock-free structures the hook dispatch and
//! sensor ingestion paths rely on:
//!
//! * [`RcuModel`] — the hazard-pointer `Rcu<T>` from `sack-kernel`'s
//!   `sync` module: readers run the announce/validate protocol, the
//!   writer retires the old version, scans the hazard slots and frees
//!   only unannounced retirees. The checked property is memory safety
//!   (no reader ever acquires a freed version) plus the bounded-graveyard
//!   invariant.
//! * [`RcuProfileTableModel`] — the AppArmor `PolicyDb` profile replace
//!   (`Rcu<ProfileTable>`) raced against concurrent hook reads that
//!   memoize grants under an epoch. The checked properties are that a hook
//!   never observes a torn profile table (rules from one snapshot,
//!   shared alphabet from another) and that no stale grant survives a
//!   completed replace.
//! * [`RingModel`] — the Vyukov MPSC submission ring from `sack-kernel`'s
//!   `ring` module, the event plane's ingestion structure: producers race
//!   the tail CAS (including the drop-oldest path of `force_enqueue`)
//!   against a draining consumer. The checked properties are exact frame
//!   accounting (no lost, duplicated or per-producer-reordered frame;
//!   drop counts exact) over all bounded schedules including wraparound.
//!
//! All models carry mutation switches that disable one load-bearing
//! ingredient of the real algorithm (the reader's validate loop, the
//! writer's hazard scan, the single-snapshot publish, the epoch bump, the
//! ring's tail claim). Exploration must find a violation with any switch
//! on and prove the model with all switches off — that asymmetry is what
//! demonstrates the checker has teeth.

use crate::interleave::Model;

/// Configuration for [`RcuModel`].
#[derive(Debug, Clone, Copy)]
pub struct RcuConfig {
    /// Number of reader threads (the model gives each its own hazard
    /// slot, mirroring the common case of distinct preferred slots).
    pub readers: usize,
    /// Number of version updates the writer performs.
    pub writes: usize,
    /// Known-bad mutation: readers announce and acquire without
    /// re-validating that the announced pointer is still current.
    pub skip_validation: bool,
    /// Known-bad mutation: the writer frees retired versions without
    /// scanning the hazard slots.
    pub skip_hazard_scan: bool,
}

impl RcuConfig {
    /// The faithful algorithm with `readers` readers and `writes`
    /// updates.
    pub fn correct(readers: usize, writes: usize) -> RcuConfig {
        RcuConfig {
            readers,
            writes,
            skip_validation: false,
            skip_hazard_scan: false,
        }
    }
}

/// Per-reader program counter for [`RcuModel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum RcuReaderPc {
    /// Load the current version pointer.
    Load,
    /// Store the loaded pointer into the hazard slot.
    Announce,
    /// Reload `current` and compare with the announced pointer.
    Validate,
    /// Comparison failed: re-announce the newly loaded pointer.
    Reannounce,
    /// Take a reference to the announced version (checks liveness).
    Acquire,
    /// Clear the hazard slot.
    Clear,
    /// Finished.
    Done,
}

/// Per-writer program counter for [`RcuModel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum RcuWriterPc {
    /// Swap in the next version and push the old one onto the graveyard.
    Publish,
    /// Read one hazard slot into the announced snapshot.
    Scan,
    /// Free every retired version absent from the announced snapshot.
    Free,
    /// Finished all writes.
    Done,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct RcuReader {
    pc: RcuReaderPc,
    /// The version id this reader has loaded / announced.
    p: u8,
}

/// Bounded model of the hazard-pointer `Rcu<T>`.
///
/// Versions are small integers `0..=writes`; version 0 is the initial
/// value and the writer publishes `1, 2, …` in order. `freed` and
/// `announced` are bitmasks over version ids.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RcuModel {
    readers: Vec<RcuReader>,
    writer_pc: RcuWriterPc,
    /// Index of the *next* version to publish (also: writes completed).
    next_version: u8,
    total_writes: u8,
    /// Currently published version id.
    current: u8,
    /// Bitmask of freed version ids.
    freed: u16,
    /// One hazard slot per reader; `None` = empty.
    hazards: Vec<Option<u8>>,
    /// Retired-but-not-freed version ids.
    graveyard: Vec<u8>,
    /// Writer's snapshot of announced versions (bitmask), rebuilt each
    /// scan.
    announced: u16,
    /// Next hazard slot the writer will scan.
    scan_idx: u8,
    skip_validation: bool,
    skip_hazard_scan: bool,
}

impl RcuModel {
    /// Builds the initial state for `config`.
    pub fn new(config: RcuConfig) -> RcuModel {
        assert!(config.writes < 15, "version ids are 4-bit in this model");
        RcuModel {
            readers: vec![
                RcuReader {
                    pc: RcuReaderPc::Load,
                    p: 0,
                };
                config.readers
            ],
            writer_pc: if config.writes == 0 {
                RcuWriterPc::Done
            } else {
                RcuWriterPc::Publish
            },
            next_version: 1,
            total_writes: config.writes as u8,
            current: 0,
            freed: 0,
            hazards: vec![None; config.readers],
            graveyard: Vec::new(),
            announced: 0,
            scan_idx: 0,
            skip_validation: config.skip_validation,
            skip_hazard_scan: config.skip_hazard_scan,
        }
    }

    fn is_freed(&self, version: u8) -> bool {
        self.freed & (1 << version) != 0
    }

    fn writer_step(&mut self) {
        match self.writer_pc {
            RcuWriterPc::Publish => {
                self.graveyard.push(self.current);
                self.current = self.next_version;
                self.announced = 0;
                self.scan_idx = 0;
                self.writer_pc = if self.skip_hazard_scan || self.hazards.is_empty() {
                    RcuWriterPc::Free
                } else {
                    RcuWriterPc::Scan
                };
            }
            RcuWriterPc::Scan => {
                if let Some(v) = self.hazards[self.scan_idx as usize] {
                    self.announced |= 1 << v;
                }
                self.scan_idx += 1;
                if self.scan_idx as usize == self.hazards.len() {
                    self.writer_pc = RcuWriterPc::Free;
                }
            }
            RcuWriterPc::Free => {
                let announced = self.announced;
                let freed = &mut self.freed;
                self.graveyard.retain(|&v| {
                    if announced & (1 << v) != 0 {
                        true
                    } else {
                        *freed |= 1 << v;
                        false
                    }
                });
                self.next_version += 1;
                self.writer_pc = if self.next_version > self.total_writes {
                    RcuWriterPc::Done
                } else {
                    RcuWriterPc::Publish
                };
            }
            RcuWriterPc::Done => unreachable!(),
        }
    }

    fn reader_step(&mut self, i: usize) -> Result<(), String> {
        let reader = self.readers[i];
        match reader.pc {
            RcuReaderPc::Load => {
                self.readers[i].p = self.current;
                self.readers[i].pc = RcuReaderPc::Announce;
            }
            RcuReaderPc::Announce => {
                self.hazards[i] = Some(reader.p);
                self.readers[i].pc = if self.skip_validation {
                    RcuReaderPc::Acquire
                } else {
                    RcuReaderPc::Validate
                };
            }
            RcuReaderPc::Validate => {
                if self.current == reader.p {
                    self.readers[i].pc = RcuReaderPc::Acquire;
                } else {
                    self.readers[i].p = self.current;
                    self.readers[i].pc = RcuReaderPc::Reannounce;
                }
            }
            RcuReaderPc::Reannounce => {
                self.hazards[i] = Some(reader.p);
                self.readers[i].pc = RcuReaderPc::Validate;
            }
            RcuReaderPc::Acquire => {
                if self.is_freed(reader.p) {
                    return Err(format!(
                        "use-after-free: reader {i} acquired version {} after it was freed",
                        reader.p
                    ));
                }
                self.readers[i].pc = RcuReaderPc::Clear;
            }
            RcuReaderPc::Clear => {
                self.hazards[i] = None;
                self.readers[i].pc = RcuReaderPc::Done;
            }
            RcuReaderPc::Done => unreachable!(),
        }
        Ok(())
    }
}

impl Model for RcuModel {
    fn threads(&self) -> usize {
        self.readers.len() + 1
    }

    fn enabled(&self, thread: usize) -> bool {
        if thread < self.readers.len() {
            self.readers[thread].pc != RcuReaderPc::Done
        } else {
            self.writer_pc != RcuWriterPc::Done
        }
    }

    fn step(&mut self, thread: usize) -> Result<(), String> {
        if thread < self.readers.len() {
            self.reader_step(thread)
        } else {
            self.writer_step();
            Ok(())
        }
    }

    fn done(&self) -> bool {
        self.writer_pc == RcuWriterPc::Done
            && self.readers.iter().all(|r| r.pc == RcuReaderPc::Done)
    }

    fn check_invariants(&self) -> Result<(), String> {
        // The reclamation invariant from `sack_kernel::sync`: the
        // graveyard holds at most one entry per hazard slot plus the
        // in-flight retiree of the current update.
        let bound = self.hazards.len() + 1;
        if self.graveyard.len() > bound {
            return Err(format!(
                "graveyard unbounded: {} retired versions with only {} hazard slots",
                self.graveyard.len(),
                self.hazards.len()
            ));
        }
        // The published version must never be freed.
        if self.is_freed(self.current) {
            return Err(format!("current version {} was freed", self.current));
        }
        Ok(())
    }
}

/// A grant/deny outcome in [`RcuProfileTableModel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Outcome {
    /// Access granted.
    Allow,
    /// Access denied.
    Deny,
}

impl Outcome {
    fn bit(self) -> u8 {
        match self {
            Outcome::Allow => 0b01,
            Outcome::Deny => 0b10,
        }
    }
}

/// The cache tag every key hashes to in [`RcuProfileTableModel`]. Making
/// the tag *identical across epochs* is deliberate: a hashed tag can
/// always collide, so the model forces the worst case and relies on the
/// verifier (which here is the epoch itself) to reject stale entries.
const TAG: u8 = 7;

/// Configuration for [`RcuProfileTableModel`].
///
/// At most one mutation switch may be on at a time.
#[derive(Debug, Clone, Copy)]
pub struct ProfileTableConfig {
    /// Number of hook threads performing one access check each.
    pub readers: usize,
    /// Known-bad mutation: the replace publishes the recompiled profile
    /// rules and the shared alphabet as two separate stores instead of
    /// one `Rcu<ProfileTable>` snapshot — a concurrent hook can evaluate
    /// rules from one version against byte classes from the other.
    pub split_publish: bool,
    /// Known-bad mutation: the replace swaps the table but never moves
    /// the decision-cache epoch, so grants cached before the replace
    /// keep verifying afterwards.
    pub skip_epoch_bump: bool,
    /// Known-bad mutation: the epoch moves *before* the table is
    /// published, so a hook running in the gap caches a pre-replace
    /// grant under the post-replace epoch.
    pub epoch_before_publish: bool,
}

impl ProfileTableConfig {
    /// The faithful algorithm with `readers` hook threads.
    pub fn correct(readers: usize) -> ProfileTableConfig {
        ProfileTableConfig {
            readers,
            split_publish: false,
            skip_epoch_bump: false,
            epoch_before_publish: false,
        }
    }
}

/// One atomic writer action in [`RcuProfileTableModel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum ReplaceStep {
    /// Publish rules and alphabet together (the real single `Rcu` store).
    Publish,
    /// Publish only the recompiled rules (first half of the torn split).
    PublishRules,
    /// Publish only the shared alphabet (second half of the torn split).
    PublishAlphabet,
    /// Bump the decision-cache epoch (confinement generation).
    Bump,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum TableReaderPc {
    /// Read the decision-cache epoch.
    Start,
    /// Load the cache slot tag.
    LoadTag,
    /// Load the slot payload and check the verifier.
    LoadPayload,
    /// Cache miss: walk the profile's compiled DFA.
    Eval,
    /// Store the payload word of a new grant entry.
    StorePayload,
    /// Store the tag word of a new grant entry.
    StoreTag,
    /// Finished.
    Done,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct TableReader {
    pc: TableReaderPc,
    /// Epoch observed at start.
    e: u8,
    /// The outcome this reader will report.
    outcome: Option<Outcome>,
    /// Bitmask of outcomes a linearizable execution may return.
    valid: u8,
}

/// Bounded model of an AppArmor profile replace over `Rcu<ProfileTable>`
/// raced against hook reads and the decision-cache epoch bump.
///
/// One access key exists; profile-table version 0 grants it and version 1
/// (the replaced profile) denies it. The table is a pair
/// `(rules, alphabet)` because a compiled profile is only meaningful
/// against the byte-class alphabet it was compiled with: hooks must
/// observe the pair atomically, which the real implementation guarantees
/// by publishing both inside one `Rcu` snapshot. Readers front the table
/// walk with a one-slot memo keyed by an epoch the replace bumps after
/// publishing (tag load, payload verifier, miss fallback to evaluation,
/// payload-then-tag insertion of grants). SACK no longer ships such a
/// decision cache (DESIGN.md §5.3); the memo stays in the model as the
/// harshest reader the replace protocol must stay sound against.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RcuProfileTableModel {
    readers: Vec<TableReader>,
    /// Index of the next writer step in the replace program.
    writer_pc: u8,
    /// Published profile-rules version: 0 grants, 1 denies.
    rules: u8,
    /// Published shared-alphabet version.
    alphabet: u8,
    /// Decision-cache epoch (the confinement generation).
    epoch: u8,
    /// Cache slot tag word (`None` = empty slot).
    slot_tag: Option<u8>,
    /// Cache slot payload word: (verifier, outcome).
    slot_payload: Option<(u8, Outcome)>,
    split_publish: bool,
    skip_epoch_bump: bool,
    epoch_before_publish: bool,
}

impl RcuProfileTableModel {
    /// Builds the initial state for `config`.
    pub fn new(config: ProfileTableConfig) -> RcuProfileTableModel {
        let mutations = [
            config.split_publish,
            config.skip_epoch_bump,
            config.epoch_before_publish,
        ]
        .iter()
        .filter(|&&m| m)
        .count();
        assert!(mutations <= 1, "at most one mutation switch at a time");
        RcuProfileTableModel {
            readers: vec![
                TableReader {
                    pc: TableReaderPc::Start,
                    e: 0,
                    outcome: None,
                    valid: 0,
                };
                config.readers
            ],
            writer_pc: 0,
            rules: 0,
            alphabet: 0,
            epoch: 0,
            slot_tag: None,
            slot_payload: None,
            split_publish: config.split_publish,
            skip_epoch_bump: config.skip_epoch_bump,
            epoch_before_publish: config.epoch_before_publish,
        }
    }

    /// The replace program the writer executes, one atomic step per entry.
    fn program(&self) -> &'static [ReplaceStep] {
        if self.split_publish {
            &[
                ReplaceStep::PublishRules,
                ReplaceStep::PublishAlphabet,
                ReplaceStep::Bump,
            ]
        } else if self.skip_epoch_bump {
            &[ReplaceStep::Publish]
        } else if self.epoch_before_publish {
            &[ReplaceStep::Bump, ReplaceStep::Publish]
        } else {
            &[ReplaceStep::Publish, ReplaceStep::Bump]
        }
    }

    fn writer_done(&self) -> bool {
        self.writer_pc as usize >= self.program().len()
    }

    fn eval(rules: u8) -> Outcome {
        if rules == 0 {
            Outcome::Allow
        } else {
            Outcome::Deny
        }
    }

    fn finish_reader(&mut self, i: usize, outcome: Outcome) -> Result<(), String> {
        self.readers[i].outcome = Some(outcome);
        self.readers[i].pc = TableReaderPc::Done;
        if self.readers[i].valid & outcome.bit() == 0 {
            return Err(format!(
                "linearizability violation: reader {i} returned {outcome:?} but no \
                 atomic placement of its check relative to the profile replace \
                 produces it (stale grant survived the replace)"
            ));
        }
        Ok(())
    }

    fn reader_step(&mut self, i: usize) -> Result<(), String> {
        let reader = self.readers[i];
        match reader.pc {
            TableReaderPc::Start => {
                self.readers[i].e = self.epoch;
                self.readers[i].valid = if self.writer_pc == 0 {
                    // Replace not begun: the old outcome is valid now; the
                    // publish step widens this if it happens in-flight.
                    Self::eval(0).bit()
                } else if self.writer_done() {
                    // Replace complete before this check began.
                    Self::eval(1).bit()
                } else {
                    // Mid-replace: the check may serialise on either side.
                    Self::eval(0).bit() | Self::eval(1).bit()
                };
                self.readers[i].pc = TableReaderPc::LoadTag;
            }
            TableReaderPc::LoadTag => {
                self.readers[i].pc = if self.slot_tag == Some(TAG) {
                    TableReaderPc::LoadPayload
                } else {
                    TableReaderPc::Eval
                };
            }
            TableReaderPc::LoadPayload => match self.slot_payload {
                Some((verifier, outcome)) if verifier == reader.e => {
                    return self.finish_reader(i, outcome);
                }
                _ => self.readers[i].pc = TableReaderPc::Eval,
            },
            TableReaderPc::Eval => {
                // The hook follows one snapshot handle to both the rules
                // and the alphabet; observing different versions means the
                // table was published in pieces.
                if self.rules != self.alphabet {
                    return Err(format!(
                        "torn profile-table read: reader {i} evaluated rules v{} \
                         against shared alphabet v{}",
                        self.rules, self.alphabet
                    ));
                }
                let outcome = Self::eval(self.rules);
                if outcome == Outcome::Allow {
                    // Only grants are cached; remember what to insert.
                    self.readers[i].outcome = Some(outcome);
                    self.readers[i].pc = TableReaderPc::StorePayload;
                } else {
                    return self.finish_reader(i, outcome);
                }
            }
            TableReaderPc::StorePayload => {
                self.slot_payload = Some((reader.e, Outcome::Allow));
                self.readers[i].pc = TableReaderPc::StoreTag;
            }
            TableReaderPc::StoreTag => {
                self.slot_tag = Some(TAG);
                return self.finish_reader(i, Outcome::Allow);
            }
            TableReaderPc::Done => unreachable!(),
        }
        Ok(())
    }

    fn writer_step(&mut self) {
        let step = self.program()[self.writer_pc as usize];
        match step {
            ReplaceStep::Publish => {
                self.rules = 1;
                self.alphabet = 1;
                self.widen_in_flight();
            }
            ReplaceStep::PublishRules => {
                self.rules = 1;
                self.widen_in_flight();
            }
            ReplaceStep::PublishAlphabet => {
                self.alphabet = 1;
            }
            ReplaceStep::Bump => {
                self.epoch = 1;
            }
        }
        self.writer_pc += 1;
    }

    /// Once the replaced rules are visible, every in-flight check
    /// overlaps the replace and may serialise after it.
    fn widen_in_flight(&mut self) {
        for reader in &mut self.readers {
            if reader.pc != TableReaderPc::Start && reader.pc != TableReaderPc::Done {
                reader.valid |= Self::eval(1).bit();
            }
        }
    }
}

impl Model for RcuProfileTableModel {
    fn threads(&self) -> usize {
        self.readers.len() + 1
    }

    fn enabled(&self, thread: usize) -> bool {
        if thread < self.readers.len() {
            self.readers[thread].pc != TableReaderPc::Done
        } else {
            !self.writer_done()
        }
    }

    fn step(&mut self, thread: usize) -> Result<(), String> {
        if thread < self.readers.len() {
            self.reader_step(thread)
        } else {
            self.writer_step();
            Ok(())
        }
    }

    fn done(&self) -> bool {
        self.writer_done() && self.readers.iter().all(|r| r.pc == TableReaderPc::Done)
    }

    fn check_invariants(&self) -> Result<(), String> {
        // Insertion order is payload-then-tag, so a visible tag implies
        // a fully written payload.
        if self.slot_tag.is_some() && self.slot_payload.is_none() {
            return Err("slot tag visible before payload".to_string());
        }
        Ok(())
    }
}

/// Configuration for [`RingModel`].
#[derive(Debug, Clone, Copy)]
pub struct RingConfig {
    /// Number of producer threads.
    pub producers: usize,
    /// Values each producer enqueues (drop-oldest on a full ring).
    pub values: usize,
    /// Failed dequeue probes the consumer absorbs before giving up
    /// (successful dequeues are free, so the consumer drains what it can).
    pub attempts: usize,
    /// Ring capacity in slots (power of two, like the real ring).
    pub capacity: usize,
    /// Known-bad mutation: a producer that loses the tail CAS publishes
    /// its frame anyway, overwriting the winner's claimed slot.
    pub torn_publish: bool,
}

impl RingConfig {
    /// The faithful protocol with `producers` producers of `values`
    /// frames each into a 2-slot ring — small enough to explore
    /// exhaustively, full enough to exercise wraparound and drops.
    pub fn correct(producers: usize, values: usize) -> RingConfig {
        RingConfig {
            producers,
            values,
            attempts: 2,
            capacity: 2,
            torn_publish: false,
        }
    }
}

/// Per-producer program counter for [`RingModel`]. The `Drop*` states are
/// the inlined drop-oldest path of `force_enqueue`: the producer runs the
/// consumer protocol once to discard the oldest frame, then retries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum RingProdPc {
    /// Load the tail cursor.
    LoadTail,
    /// Load the claimed slot's sequence word and classify it.
    LoadSeq,
    /// CAS the tail from the loaded position to position + 1.
    Cas,
    /// Write the frame into the claimed slot.
    WriteValue,
    /// Publish: store sequence = position + 1.
    Publish,
    /// Drop-oldest: load the head cursor.
    DropLoadHead,
    /// Drop-oldest: load the head slot's sequence word.
    DropLoadSeq,
    /// Drop-oldest: CAS the head forward to claim the oldest frame.
    DropCas,
    /// Drop-oldest: read (and count) the discarded frame.
    DropRead,
    /// Drop-oldest: recycle the slot (sequence = position + capacity).
    DropBumpSeq,
    /// Finished all values.
    Done,
}

/// Consumer program counter for [`RingModel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum RingConsPc {
    /// Load the head cursor.
    LoadHead,
    /// Load the head slot's sequence word and classify it.
    LoadSeq,
    /// CAS the head forward to claim the frame.
    Cas,
    /// Read the claimed frame.
    ReadValue,
    /// Recycle the slot (sequence = position + capacity).
    BumpSeq,
    /// Out of probe attempts.
    Done,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct RingProducerState {
    pc: RingProdPc,
    /// Index of the next value this producer enqueues.
    next: u8,
    /// Loaded cursor (tail in the enqueue path, head in the drop path).
    pos: u8,
}

/// Bounded model of the Vyukov MPSC submission ring
/// (`sack_kernel::ring::RingIn`) at atomic-step granularity.
///
/// Frames are tagged `producer << 4 | index`, so the invariants can track
/// every frame individually: at quiescence each produced frame is
/// consumed, discarded (with the drop counter matching exactly) or still
/// in the ring — never lost, never duplicated — and the consumed stream
/// preserves each producer's enqueue order. The `torn_publish` mutation
/// models the tempting bug the real enqueue's CAS-failure branch guards
/// against: publishing into a slot whose claim was lost.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RingModel {
    producers: Vec<RingProducerState>,
    consumer_pc: RingConsPc,
    consumer_pos: u8,
    attempts_left: u8,
    tail: u8,
    head: u8,
    seq: Vec<u8>,
    val: Vec<Option<u8>>,
    consumed: Vec<u8>,
    discarded: Vec<u8>,
    drop_count: u8,
    capacity: u8,
    values: u8,
    torn_publish: bool,
}

impl RingModel {
    /// Builds the initial state for `config`.
    pub fn new(config: RingConfig) -> RingModel {
        assert!(
            config.capacity.is_power_of_two() && config.capacity >= 2,
            "ring capacity must be a power of two >= 2"
        );
        assert!(config.producers < 16 && config.values < 16, "4-bit tags");
        RingModel {
            producers: vec![
                RingProducerState {
                    pc: if config.values == 0 {
                        RingProdPc::Done
                    } else {
                        RingProdPc::LoadTail
                    },
                    next: 0,
                    pos: 0,
                };
                config.producers
            ],
            consumer_pc: if config.attempts == 0 {
                RingConsPc::Done
            } else {
                RingConsPc::LoadHead
            },
            consumer_pos: 0,
            attempts_left: config.attempts as u8,
            tail: 0,
            head: 0,
            // Slot i starts with sequence i: "empty, awaiting position i".
            seq: (0..config.capacity as u8).collect(),
            val: vec![None; config.capacity],
            consumed: Vec::new(),
            discarded: Vec::new(),
            drop_count: 0,
            capacity: config.capacity as u8,
            values: config.values as u8,
            torn_publish: config.torn_publish,
        }
    }

    fn tag(&self, producer: usize, index: u8) -> u8 {
        ((producer as u8) << 4) | index
    }

    fn slot(&self, pos: u8) -> usize {
        (pos & (self.capacity - 1)) as usize
    }

    fn producer_step(&mut self, i: usize) -> Result<(), String> {
        let p = self.producers[i];
        match p.pc {
            RingProdPc::LoadTail => {
                self.producers[i].pos = self.tail;
                self.producers[i].pc = RingProdPc::LoadSeq;
            }
            RingProdPc::LoadSeq => {
                let dif = self.seq[self.slot(p.pos)] as i16 - p.pos as i16;
                self.producers[i].pc = if dif == 0 {
                    RingProdPc::Cas
                } else if dif < 0 {
                    // Full: run the drop-oldest path, then retry.
                    RingProdPc::DropLoadHead
                } else {
                    // Stale tail snapshot: reload.
                    RingProdPc::LoadTail
                };
            }
            RingProdPc::Cas => {
                if self.tail == p.pos {
                    self.tail = p.pos + 1;
                    self.producers[i].pc = RingProdPc::WriteValue;
                } else if self.torn_publish {
                    // Mutation: the claim was lost, publish anyway.
                    self.producers[i].pc = RingProdPc::WriteValue;
                } else {
                    self.producers[i].pc = RingProdPc::LoadTail;
                }
            }
            RingProdPc::WriteValue => {
                let tag = self.tag(i, p.next);
                let slot = self.slot(p.pos);
                self.val[slot] = Some(tag);
                self.producers[i].pc = RingProdPc::Publish;
            }
            RingProdPc::Publish => {
                let slot = self.slot(p.pos);
                self.seq[slot] = p.pos + 1;
                self.producers[i].next += 1;
                self.producers[i].pc = if self.producers[i].next == self.values {
                    RingProdPc::Done
                } else {
                    RingProdPc::LoadTail
                };
            }
            RingProdPc::DropLoadHead => {
                self.producers[i].pos = self.head;
                self.producers[i].pc = RingProdPc::DropLoadSeq;
            }
            RingProdPc::DropLoadSeq => {
                let dif = self.seq[self.slot(p.pos)] as i16 - (p.pos as i16 + 1);
                self.producers[i].pc = if dif == 0 {
                    RingProdPc::DropCas
                } else {
                    // Empty or raced: someone made room, retry the enqueue.
                    RingProdPc::LoadTail
                };
            }
            RingProdPc::DropCas => {
                if self.head == p.pos {
                    self.head = p.pos + 1;
                    self.producers[i].pc = RingProdPc::DropRead;
                } else {
                    self.producers[i].pc = RingProdPc::LoadTail;
                }
            }
            RingProdPc::DropRead => {
                let Some(tag) = self.val[self.slot(p.pos)] else {
                    return Err(format!(
                        "producer {i} discarded an unpublished slot at position {}",
                        p.pos
                    ));
                };
                self.discarded.push(tag);
                self.drop_count += 1;
                self.producers[i].pc = RingProdPc::DropBumpSeq;
            }
            RingProdPc::DropBumpSeq => {
                let slot = self.slot(p.pos);
                self.seq[slot] = p.pos + self.capacity;
                self.producers[i].pc = RingProdPc::LoadTail;
            }
            RingProdPc::Done => unreachable!(),
        }
        Ok(())
    }

    fn consumer_fail(&mut self) {
        self.attempts_left -= 1;
        self.consumer_pc = if self.attempts_left == 0 {
            RingConsPc::Done
        } else {
            RingConsPc::LoadHead
        };
    }

    fn consumer_step(&mut self) -> Result<(), String> {
        match self.consumer_pc {
            RingConsPc::LoadHead => {
                self.consumer_pos = self.head;
                self.consumer_pc = RingConsPc::LoadSeq;
            }
            RingConsPc::LoadSeq => {
                let pos = self.consumer_pos;
                let dif = self.seq[self.slot(pos)] as i16 - (pos as i16 + 1);
                if dif == 0 {
                    self.consumer_pc = RingConsPc::Cas;
                } else {
                    // Empty or raced by a dropping producer: burn a probe.
                    self.consumer_fail();
                }
            }
            RingConsPc::Cas => {
                if self.head == self.consumer_pos {
                    self.head = self.consumer_pos + 1;
                    self.consumer_pc = RingConsPc::ReadValue;
                } else {
                    self.consumer_fail();
                }
            }
            RingConsPc::ReadValue => {
                let Some(tag) = self.val[self.slot(self.consumer_pos)] else {
                    return Err(format!(
                        "consumer dequeued an unpublished slot at position {}",
                        self.consumer_pos
                    ));
                };
                self.consumed.push(tag);
                self.consumer_pc = RingConsPc::BumpSeq;
            }
            RingConsPc::BumpSeq => {
                let slot = self.slot(self.consumer_pos);
                self.seq[slot] = self.consumer_pos + self.capacity;
                self.consumer_pc = RingConsPc::LoadHead;
            }
            RingConsPc::Done => unreachable!(),
        }
        Ok(())
    }

    /// Frames still in the ring at quiescence, in ring order.
    fn residue(&self) -> Result<Vec<u8>, String> {
        let mut out = Vec::new();
        for pos in self.head..self.tail {
            if self.seq[self.slot(pos)] != pos + 1 {
                return Err(format!(
                    "occupied span holds an unpublished slot at position {pos}"
                ));
            }
            match self.val[self.slot(pos)] {
                Some(tag) => out.push(tag),
                None => return Err(format!("occupied slot without a frame at position {pos}")),
            }
        }
        Ok(out)
    }

    fn check_order(&self, stream: &[u8], what: &str) -> Result<(), String> {
        for producer in 0..self.producers.len() as u8 {
            let mut last: Option<u8> = None;
            for &tag in stream.iter().filter(|&&t| t >> 4 == producer) {
                let index = tag & 0xF;
                if let Some(prev) = last {
                    if index <= prev {
                        return Err(format!(
                            "reordered frames for producer {producer} in {what}: \
                             {index} after {prev}"
                        ));
                    }
                }
                last = Some(index);
            }
        }
        Ok(())
    }
}

impl Model for RingModel {
    fn threads(&self) -> usize {
        self.producers.len() + 1
    }

    fn enabled(&self, thread: usize) -> bool {
        if thread < self.producers.len() {
            self.producers[thread].pc != RingProdPc::Done
        } else {
            self.consumer_pc != RingConsPc::Done
        }
    }

    fn step(&mut self, thread: usize) -> Result<(), String> {
        if thread < self.producers.len() {
            self.producer_step(thread)
        } else {
            self.consumer_step()
        }
    }

    fn done(&self) -> bool {
        self.consumer_pc == RingConsPc::Done
            && self.producers.iter().all(|p| p.pc == RingProdPc::Done)
    }

    fn check_invariants(&self) -> Result<(), String> {
        let span = self.tail as i16 - self.head as i16;
        if span < 0 {
            return Err(format!("head {} overtook tail {}", self.head, self.tail));
        }
        if span > self.capacity as i16 {
            return Err(format!(
                "ring over-full: {} positions occupied with capacity {}",
                span, self.capacity
            ));
        }
        if self.drop_count as usize != self.discarded.len() {
            return Err(format!(
                "drop counter drift: counted {} but discarded {}",
                self.drop_count,
                self.discarded.len()
            ));
        }
        if !self.done() {
            return Ok(());
        }
        // Quiescent accounting: every produced frame is consumed,
        // discarded or still queued — exactly once.
        let residue = self.residue()?;
        for producer in 0..self.producers.len() {
            for index in 0..self.values {
                let tag = self.tag(producer, index);
                let copies = self
                    .consumed
                    .iter()
                    .chain(&self.discarded)
                    .chain(&residue)
                    .filter(|&&t| t == tag)
                    .count();
                if copies == 0 {
                    return Err(format!(
                        "lost frame: producer {producer} value {index} \
                         neither consumed, discarded nor queued"
                    ));
                }
                if copies > 1 {
                    return Err(format!(
                        "duplicated frame: producer {producer} value {index} \
                         delivered {copies} times"
                    ));
                }
            }
        }
        // Per-producer FIFO: the delivered stream (consumed now, residue
        // later) and the drop-oldest discards each preserve enqueue order.
        let mut delivered = self.consumed.clone();
        delivered.extend(&residue);
        self.check_order(&delivered, "delivered stream")?;
        self.check_order(&self.discarded, "discarded stream")?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interleave::explore;

    #[test]
    fn rcu_correct_algorithm_is_exhaustively_safe() {
        let stats = explore(&RcuModel::new(RcuConfig::correct(2, 2)), 64).unwrap();
        assert!(stats.complete_schedules > 0);
        assert!(stats.states > 100, "model should be non-trivial");
    }

    #[test]
    fn rcu_skipping_validation_is_caught() {
        let config = RcuConfig {
            skip_validation: true,
            ..RcuConfig::correct(1, 1)
        };
        let violation = explore(&RcuModel::new(config), 64).unwrap_err();
        assert!(violation.message.contains("use-after-free"), "{violation}");
    }

    #[test]
    fn rcu_skipping_the_hazard_scan_is_caught() {
        let config = RcuConfig {
            skip_hazard_scan: true,
            ..RcuConfig::correct(1, 1)
        };
        let violation = explore(&RcuModel::new(config), 64).unwrap_err();
        assert!(violation.message.contains("use-after-free"), "{violation}");
    }

    #[test]
    fn profile_table_correct_replace_is_exhaustively_safe() {
        let model = RcuProfileTableModel::new(ProfileTableConfig::correct(2));
        let stats = explore(&model, 64).unwrap();
        assert!(stats.complete_schedules > 0);
        assert!(stats.states > 100, "model should be non-trivial");
    }

    #[test]
    fn profile_table_split_publish_is_caught_as_torn_read() {
        let config = ProfileTableConfig {
            split_publish: true,
            ..ProfileTableConfig::correct(1)
        };
        let violation = explore(&RcuProfileTableModel::new(config), 64).unwrap_err();
        assert!(
            violation.message.contains("torn profile-table read"),
            "{violation}"
        );
    }

    #[test]
    fn profile_table_skipping_the_epoch_bump_is_caught() {
        let config = ProfileTableConfig {
            skip_epoch_bump: true,
            ..ProfileTableConfig::correct(2)
        };
        let violation = explore(&RcuProfileTableModel::new(config), 64).unwrap_err();
        assert!(violation.message.contains("linearizability"), "{violation}");
    }

    #[test]
    fn profile_table_bumping_the_epoch_early_is_caught() {
        let config = ProfileTableConfig {
            epoch_before_publish: true,
            ..ProfileTableConfig::correct(2)
        };
        let violation = explore(&RcuProfileTableModel::new(config), 64).unwrap_err();
        assert!(violation.message.contains("linearizability"), "{violation}");
    }

    #[test]
    fn ring_correct_protocol_accounts_for_every_frame() {
        // Two producers of two frames each through a 2-slot ring: every
        // schedule wraps the ring at least once and many exercise the
        // drop-oldest path, so exact accounting is proven under
        // wraparound, drops and CAS races together.
        let stats = explore(&RingModel::new(RingConfig::correct(2, 2)), 160).unwrap();
        assert!(stats.complete_schedules > 0);
        assert!(stats.states > 100, "model should be non-trivial");
    }

    #[test]
    fn ring_single_producer_is_fifo() {
        let stats = explore(&RingModel::new(RingConfig::correct(1, 3)), 160).unwrap();
        assert!(stats.complete_schedules > 0);
    }

    #[test]
    fn ring_torn_publish_is_caught() {
        let config = RingConfig {
            torn_publish: true,
            ..RingConfig::correct(2, 2)
        };
        let violation = explore(&RingModel::new(config), 160).unwrap_err();
        assert!(
            violation.message.contains("lost frame")
                || violation.message.contains("duplicated frame")
                || violation.message.contains("unpublished slot"),
            "{violation}"
        );
    }
}
