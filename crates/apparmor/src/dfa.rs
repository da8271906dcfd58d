//! Unified multi-glob DFA matcher.
//!
//! Real AppArmor compiles every path rule in a profile into one DFA so a
//! single pass over the path answers "which rules match" regardless of how
//! many rules the profile holds. This module does the same for our glob
//! dialect: [`DfaBuilder`] collects rule globs (each tagged with a caller
//! chosen `u32`), builds a combined position NFA re-using the token
//! semantics of [`crate::glob`], and determinizes it by subset construction
//! over a compressed byte alphabet into [`Subsets`]: the unminimized table
//! plus every state's set of accepting tags. [`Subsets::annotate`] then
//! folds each tag set into a caller-defined annotation (e.g. a
//! [`crate::matcher::RuleDecision`] union, or a first-match type label for
//! TE) and minimizes with Moore's partition refinement, so evaluation is a
//! single O(|path|) table walk with the rule resolution already baked in.
//! One determinization can feed several annotations and the tag-set
//! language questions the policy lints ask.
//!
//! The annotation fold runs during construction only; [`Dfa::eval`] never
//! allocates and touches one `u32` table cell per input byte.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::Arc;

use crate::glob::{token_matches, Glob, Token};

/// Sentinel transition target: no live NFA position remains.
const DEAD: u32 = u32::MAX;

/// A byte-equivalence partition of the 256-byte alphabet.
///
/// Two bytes are interchangeable when every distinct consuming token (and
/// the `/` test the wildcards use) treats them identically; transition
/// tables then need one column per class instead of 256. An alphabet built
/// from a *superset* of a machine's tokens is merely finer than necessary —
/// refinement preserves the transition relation — so one table can be
/// shared across every profile of a namespace and across every
/// [`crate::dfa::Dfa`] built from it (real AppArmor shares `equiv` tables
/// the same way). Sharing via `Arc` also makes the shared-alphabet
/// invariant checkable with `Arc::ptr_eq`.
#[derive(Debug, Clone)]
pub struct Alphabet {
    /// Distinct discriminating tokens the partition was derived from
    /// (`**` excluded — it matches every byte and never discriminates).
    discr: Vec<Token>,
    /// byte → equivalence class.
    classes: Box<[u16; 256]>,
    class_count: usize,
}

impl Alphabet {
    /// Builds the partition for a set of discriminating tokens.
    fn from_tokens(discr: Vec<Token>) -> Alphabet {
        let mut sig_to_class: HashMap<Vec<bool>, u16> = HashMap::new();
        let mut classes = Box::new([0u16; 256]);
        for b in 0..=255u8 {
            let mut sig = Vec::with_capacity(discr.len() + 1);
            sig.push(b == b'/');
            for tok in &discr {
                sig.push(match tok {
                    Token::Star => b != b'/',
                    other => token_matches(other, b),
                });
            }
            let next = sig_to_class.len() as u16;
            classes[b as usize] = *sig_to_class.entry(sig).or_insert(next);
        }
        let class_count = sig_to_class.len();
        Alphabet {
            discr,
            classes,
            class_count,
        }
    }

    /// Collects the distinct discriminating tokens of `globs` into `out`.
    fn collect_tokens<'a>(globs: impl IntoIterator<Item = &'a Glob>, out: &mut Vec<Token>) {
        for glob in globs {
            for pat in glob.alternates() {
                for tok in &pat.tokens {
                    if !matches!(tok, Token::DoubleStar) && !out.contains(tok) {
                        out.push(tok.clone());
                    }
                }
            }
        }
    }

    /// Builds the shared alphabet for a set of globs (e.g. every path rule
    /// of every profile in a namespace).
    pub fn for_globs<'a>(globs: impl IntoIterator<Item = &'a Glob>) -> Alphabet {
        let mut discr = Vec::new();
        Self::collect_tokens(globs, &mut discr);
        Alphabet::from_tokens(discr)
    }

    /// The empty-token alphabet: `/` vs everything else.
    pub fn minimal() -> Alphabet {
        Alphabet::from_tokens(Vec::new())
    }

    /// Number of equivalence classes.
    pub fn class_count(&self) -> usize {
        self.class_count
    }

    /// The equivalence class of `byte`.
    pub fn class_of(&self, byte: u8) -> u16 {
        self.classes[byte as usize]
    }

    /// True if compiling `globs` against this alphabet would need a finer
    /// partition — i.e. some new token distinguishes two bytes currently in
    /// the same class. When this returns `false` the existing table can be
    /// reused as-is (the common case for rule edits that only recombine
    /// bytes the table already separates).
    pub fn would_split<'a>(&self, globs: impl IntoIterator<Item = &'a Glob>) -> bool {
        let mut candidates = Vec::new();
        Self::collect_tokens(globs, &mut candidates);
        self.tokens_would_split(&candidates)
    }

    /// Core of [`Alphabet::would_split`]: do any of `candidates` separate
    /// two bytes the partition currently merges?
    fn tokens_would_split(&self, candidates: &[Token]) -> bool {
        let candidates: Vec<&Token> = candidates
            .iter()
            .filter(|tok| !self.discr.contains(tok))
            .collect();
        if candidates.is_empty() {
            return false;
        }
        // A representative byte per class, then check every byte agrees
        // with its representative under every candidate token.
        let mut rep: Vec<Option<u8>> = vec![None; self.class_count];
        for b in 0..=255u8 {
            let class = self.classes[b as usize] as usize;
            match rep[class] {
                None => rep[class] = Some(b),
                Some(r) => {
                    for tok in &candidates {
                        let matches = |b| match tok {
                            Token::Star => b != b'/',
                            other => token_matches(other, b),
                        };
                        if matches(b) != matches(r) {
                            return true;
                        }
                    }
                }
            }
        }
        false
    }
}

/// Size statistics for a compiled [`Dfa`], surfaced by `sack-analyze`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DfaStats {
    /// Number of (minimized) DFA states.
    pub states: usize,
    /// Number of live (non-dead) transitions in the table.
    pub transitions: usize,
    /// Number of byte-equivalence classes the alphabet compressed to.
    pub classes: usize,
}

/// Multiplicative word hasher (the `FxHash` scheme) for the subset index
/// and the Moore signature map, whose keys are runs of small integers that
/// SipHash would spend a large share of a compile on. The keys come from
/// policy text the loader already trusts to size the machine, so flooding
/// resistance buys nothing here.
#[derive(Default)]
struct MulHasher(u64);

impl MulHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for MulHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.add(u64::from_le_bytes(word.try_into().expect("8-byte chunk")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut last = [0u8; 8];
            last[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(last));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
}

type MulMap<K, V> = HashMap<K, V, BuildHasherDefault<MulHasher>>;

/// Successor of an accepting NFA position: it consumes nothing.
const ACCEPT: u32 = u32::MAX;

/// What one NFA position does on input: every byte class in
/// `pool[first..end]` moves it to `target` ([`ACCEPT`] for accepting
/// positions, which have no classes).
#[derive(Debug, Clone, Copy)]
struct Move {
    first: u32,
    end: u32,
    target: u32,
}

/// Accumulates tagged globs and determinizes them into [`Subsets`], from
/// which every annotated [`Dfa`] over those globs is folded.
#[derive(Debug, Default)]
pub struct DfaBuilder {
    /// Flattened NFA positions; `Some(tok)` consumes input, `None` accepts.
    positions: Vec<Option<Token>>,
    /// The tag of the glob that owns each position.
    tag_of: Vec<u32>,
    /// First position of every brace-alternate.
    starts: Vec<u32>,
}

impl DfaBuilder {
    /// Creates an empty builder.
    pub fn new() -> DfaBuilder {
        DfaBuilder::default()
    }

    /// Adds one glob under `tag`. Tags need not be unique; every accepting
    /// position remembers its tag so the build-time fold can resolve
    /// overlapping rules.
    pub fn add_glob(&mut self, glob: &Glob, tag: u32) {
        for pat in glob.alternates() {
            self.starts.push(self.positions.len() as u32);
            for tok in &pat.tokens {
                self.positions.push(Some(tok.clone()));
                self.tag_of.push(tag);
            }
            self.positions.push(None);
            self.tag_of.push(tag);
        }
    }

    /// True if no globs have been added.
    pub fn is_empty(&self) -> bool {
        self.starts.is_empty()
    }

    /// Epsilon closure of a sorted position list into `out`: a wildcard
    /// position may be skipped, so position `i` implies `i + 1`. One pass
    /// keeps `out` sorted and deduplicated (it is the subset index key):
    /// closure chains run upwards, and an input position at or below the
    /// last emitted one was already emitted together with its chain.
    fn close(&self, set: &[u32], out: &mut Vec<u32>) {
        out.clear();
        for &p in set {
            if out.last().is_some_and(|&last| p <= last) {
                continue;
            }
            let mut q = p;
            out.push(q);
            while matches!(
                self.positions[q as usize],
                Some(Token::Star) | Some(Token::DoubleStar)
            ) {
                q += 1;
                out.push(q);
            }
        }
    }

    /// Each position's byte classes and successor — the transition
    /// relation of `glob::Nfa::step` per class: wildcards self-loop (a `*`
    /// only off `/`), consuming tokens advance. Class lists live in one
    /// pool whose head is `0..class_count`, so a literal's single class and
    /// the all-class `**` list are slices of it.
    fn moves(&self, alphabet: &Alphabet) -> (Vec<Move>, Vec<u16>) {
        let class_count = alphabet.class_count;
        let mut pool: Vec<u16> = (0..class_count as u16).collect();
        let slash = alphabet.class_of(b'/');
        let off_slash = (
            pool.len() as u32,
            pool.len() as u32 + class_count as u32 - 1,
        );
        pool.extend((0..class_count as u16).filter(|&c| c != slash));
        // One representative byte per class, for testing classes and ranges.
        let mut rep = vec![0u8; class_count];
        for b in (0..=255u8).rev() {
            rep[alphabet.class_of(b) as usize] = b;
        }
        let moves = self
            .positions
            .iter()
            .enumerate()
            .map(|(p, pos)| {
                let next = p as u32 + 1;
                let (first, end, target) = match pos {
                    None => (0, 0, ACCEPT),
                    Some(Token::DoubleStar) => (0, class_count as u32, p as u32),
                    Some(Token::Star) => (off_slash.0, off_slash.1, p as u32),
                    Some(Token::AnyChar) => (off_slash.0, off_slash.1, next),
                    Some(Token::Lit(b)) => {
                        let class = u32::from(alphabet.class_of(*b));
                        (class, class + 1, next)
                    }
                    Some(tok) => {
                        let first = pool.len() as u32;
                        pool.extend(
                            (0..class_count as u16)
                                .filter(|&c| token_matches(tok, rep[c as usize])),
                        );
                        (first, pool.len() as u32, next)
                    }
                };
                Move { first, end, target }
            })
            .collect();
        (moves, pool)
    }

    /// The distinct discriminating tokens of the accumulated globs.
    fn discriminating_tokens(&self) -> Vec<Token> {
        let mut discr: Vec<Token> = Vec::new();
        for tok in self.positions.iter().flatten() {
            // `**` matches every byte; it never discriminates.
            if !matches!(tok, Token::DoubleStar) && !discr.contains(tok) {
                discr.push(tok.clone());
            }
        }
        discr
    }

    /// The byte-equivalence alphabet induced by the accumulated globs
    /// alone. [`DfaBuilder::build`] uses this; multi-machine callers build
    /// a shared [`Alphabet`] over all their globs instead.
    pub fn alphabet(&self) -> Alphabet {
        Alphabet::from_tokens(self.discriminating_tokens())
    }

    /// Determinizes and minimizes the accumulated globs. `fold` maps the
    /// set of rule tags accepting in a state to that state's annotation;
    /// `fold(&[])` is the annotation of non-accepting (and dead) states.
    pub fn build<A, F>(&self, fold: F) -> Dfa<A>
    where
        A: Clone + Eq + Hash,
        F: Fn(&[u32]) -> A,
    {
        self.build_with_alphabet(&Arc::new(self.alphabet()), fold)
    }

    /// [`DfaBuilder::build`] against a caller-supplied shared alphabet:
    /// [`DfaBuilder::determinize`], then [`Subsets::annotate`].
    pub fn build_with_alphabet<A, F>(&self, alphabet: &Arc<Alphabet>, fold: F) -> Dfa<A>
    where
        A: Clone + Eq + Hash,
        F: Fn(&[u32]) -> A,
    {
        self.determinize(alphabet).annotate(fold)
    }

    /// Runs the subset construction over `alphabet`, leaving annotation
    /// and minimization to [`Subsets::annotate`] so several folds (and the
    /// policy lints, which read [`Subsets::tag_sets`]) can share one
    /// determinization.
    ///
    /// The alphabet must refine this machine's own partition — i.e. built
    /// from a superset of its globs, or from a partition that
    /// [`Alphabet::would_split`] reports as not split by them. A finer
    /// partition only adds redundant columns; it never changes the language
    /// or the annotations.
    ///
    /// Each state is one pass over its position set into per-class
    /// buckets. A class whose bucket equals the previous class's bucket
    /// reuses that successor without closing or hashing it again, which
    /// makes the many classes of a `**` state cost one lookup.
    pub fn determinize(&self, alphabet: &Arc<Alphabet>) -> Subsets {
        debug_assert!(
            !alphabet.tokens_would_split(&self.discriminating_tokens()),
            "shared alphabet is coarser than this machine's tokens require"
        );
        let class_count = alphabet.class_count;
        let (moves, pool) = self.moves(alphabet);

        let mut start = Vec::new();
        self.close(&self.starts, &mut start);
        let mut index: MulMap<Vec<u32>, u32> = MulMap::default();
        index.insert(start.clone(), 0);
        // Position sets by state id; each is taken once its state is done.
        let mut sets: Vec<Vec<u32>> = vec![start];

        let mut table: Vec<u32> = Vec::new();
        let mut tag_start: Vec<u32> = vec![0];
        let mut tags: Vec<u32> = Vec::new();
        let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); class_count];
        let mut closed: Vec<u32> = Vec::new();
        let mut accepting: Vec<u32> = Vec::new();

        let mut next = 0usize;
        while next < sets.len() {
            let set = std::mem::take(&mut sets[next]);
            next += 1;
            accepting.clear();
            // `set` is sorted and every target is `p` or `p + 1`, so each
            // bucket fills in non-decreasing order, as `close` requires.
            for &p in &set {
                let m = moves[p as usize];
                if m.target == ACCEPT {
                    accepting.push(self.tag_of[p as usize]);
                }
                for &class in &pool[m.first as usize..m.end as usize] {
                    buckets[class as usize].push(m.target);
                }
            }
            accepting.sort_unstable();
            accepting.dedup();
            tags.extend_from_slice(&accepting);
            tag_start.push(tags.len() as u32);

            for class in 0..class_count {
                let id = if buckets[class].is_empty() {
                    DEAD
                } else if class > 0 && buckets[class] == buckets[class - 1] {
                    *table.last().expect("previous class")
                } else {
                    self.close(&buckets[class], &mut closed);
                    match index.get(closed.as_slice()) {
                        Some(&id) => id,
                        None => {
                            let id = sets.len() as u32;
                            index.insert(closed.clone(), id);
                            sets.push(closed.clone());
                            id
                        }
                    }
                };
                table.push(id);
            }
            for bucket in &mut buckets {
                bucket.clear();
            }
        }

        Subsets {
            alphabet: Arc::clone(alphabet),
            table,
            tag_start,
            tags,
        }
    }
}

/// The unminimized subset construction of a [`DfaBuilder`]'s globs: the
/// transition table plus each state's sorted accepting-tag set. One
/// determinization serves any number of annotations
/// ([`Subsets::annotate`]) and the language questions the tag sets answer
/// ([`Subsets::tag_sets`]).
#[derive(Debug, Clone)]
pub struct Subsets {
    alphabet: Arc<Alphabet>,
    /// `table[state * class_count + class]` → next state or [`DEAD`];
    /// state 0 is the start.
    table: Vec<u32>,
    /// State `s` accepts `tags[tag_start[s]..tag_start[s + 1]]`.
    tag_start: Vec<u32>,
    tags: Vec<u32>,
}

impl Subsets {
    /// Number of (unminimized) states.
    pub fn state_count(&self) -> usize {
        self.tag_start.len() - 1
    }

    fn tags_of(&self, state: usize) -> &[u32] {
        &self.tags[self.tag_start[state] as usize..self.tag_start[state + 1] as usize]
    }

    /// Every state's sorted, deduplicated accepting-tag set (empty for
    /// non-accepting states). Every state is reachable, so this turns
    /// language questions into set questions: glob `b` is *covered* by
    /// glob `a` iff every set containing `b`'s tag also contains `a`'s,
    /// and two globs *overlap* iff some set contains both tags.
    pub fn tag_sets(&self) -> impl Iterator<Item = &[u32]> + '_ {
        (0..self.state_count()).map(|state| self.tags_of(state))
    }

    /// Folds every state's tag set into an annotation and minimizes.
    /// `fold(&[])` is the annotation of non-accepting (and dead) states.
    pub fn annotate<A, F>(&self, fold: F) -> Dfa<A>
    where
        A: Clone + Eq + Hash,
        F: Fn(&[u32]) -> A,
    {
        let accepts = self.tag_sets().map(&fold).collect();
        minimize(&self.alphabet, &self.table, accepts, fold(&[]))
    }
}

/// Moore partition refinement: start from blocks of annotation-equal
/// states, split until transition structure agrees, then rebuild the table
/// over blocks. Language and annotations are preserved exactly.
fn minimize<A: Clone + Eq + Hash>(
    alphabet: &Arc<Alphabet>,
    table: &[u32],
    accepts: Vec<A>,
    empty: A,
) -> Dfa<A> {
    let n = accepts.len();
    let c = alphabet.class_count;

    let mut block: Vec<u32> = Vec::with_capacity(n);
    let mut annot_ids: MulMap<&A, u32> = MulMap::default();
    for a in &accepts {
        let next = annot_ids.len() as u32;
        block.push(*annot_ids.entry(a).or_insert(next));
    }
    let mut block_count = annot_ids.len();

    // A state's signature: its block, then its successors' blocks.
    let mut sig: Vec<u32> = Vec::with_capacity(c + 1);
    loop {
        let mut sig_ids: MulMap<Vec<u32>, u32> = MulMap::default();
        let mut next_block = Vec::with_capacity(n);
        for s in 0..n {
            sig.clear();
            sig.push(block[s]);
            sig.extend(table[s * c..(s + 1) * c].iter().map(|&t| {
                if t == DEAD {
                    DEAD
                } else {
                    block[t as usize]
                }
            }));
            let id = match sig_ids.get(sig.as_slice()) {
                Some(&id) => id,
                None => {
                    let id = sig_ids.len() as u32;
                    sig_ids.insert(sig.clone(), id);
                    id
                }
            };
            next_block.push(id);
        }
        let next_count = sig_ids.len();
        block = next_block;
        if next_count == block_count {
            break;
        }
        block_count = next_count;
    }

    let mut min_table = vec![DEAD; block_count * c];
    let mut min_accepts: Vec<Option<A>> = vec![None; block_count];
    for (s, annot) in accepts.into_iter().enumerate() {
        let b = block[s] as usize;
        if min_accepts[b].is_none() {
            min_accepts[b] = Some(annot);
            for cl in 0..c {
                let t = table[s * c + cl];
                min_table[b * c + cl] = if t == DEAD { DEAD } else { block[t as usize] };
            }
        }
    }

    Dfa {
        alphabet: Arc::clone(alphabet),
        table: min_table,
        accepts: min_accepts
            .into_iter()
            .map(|a| a.expect("block member"))
            .collect(),
        start: block[0],
        empty,
    }
}

/// A compiled, minimized DFA with per-state annotations of type `A`.
///
/// Evaluation walks one table cell per input byte; the annotation of the
/// final state is the pre-resolved answer for every path reaching it.
#[derive(Debug, Clone)]
pub struct Dfa<A> {
    /// The (possibly shared) byte-equivalence partition.
    alphabet: Arc<Alphabet>,
    /// `table[state * class_count + class]` → next state or [`DEAD`].
    table: Vec<u32>,
    /// Per-state annotation (`fold` of the accepting rule tags).
    accepts: Vec<A>,
    start: u32,
    /// Annotation of the dead state — `fold(&[])`.
    empty: A,
}

impl<A> Dfa<A> {
    /// Walks the table over `path` and returns the reached state's
    /// annotation; falling off the table yields the no-match annotation.
    pub fn eval(&self, path: &str) -> &A {
        let mut state = self.start as usize;
        let class_count = self.alphabet.class_count;
        for &b in path.as_bytes() {
            let class = self.alphabet.classes[b as usize] as usize;
            let next = self.table[state * class_count + class];
            if next == DEAD {
                return &self.empty;
            }
            state = next as usize;
        }
        &self.accepts[state]
    }

    /// The byte-class alphabet this machine was compiled against.
    pub fn alphabet(&self) -> &Arc<Alphabet> {
        &self.alphabet
    }

    /// The no-match annotation (`fold(&[])`).
    pub fn empty_annotation(&self) -> &A {
        &self.empty
    }

    /// Number of minimized states.
    pub fn state_count(&self) -> usize {
        self.accepts.len()
    }

    /// Number of live transitions in the table.
    pub fn transition_count(&self) -> usize {
        self.table.iter().filter(|&&t| t != DEAD).count()
    }

    /// Size statistics for diagnostics.
    pub fn stats(&self) -> DfaStats {
        DfaStats {
            states: self.state_count(),
            transitions: self.transition_count(),
            classes: self.alphabet.class_count,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn single(pat: &str) -> Dfa<bool> {
        let mut b = DfaBuilder::new();
        b.add_glob(&Glob::compile(pat).unwrap(), 0);
        b.build(|tags| !tags.is_empty())
    }

    #[test]
    fn literal_paths() {
        let dfa = single("/dev/car/door0");
        assert!(dfa.eval("/dev/car/door0"));
        assert!(!dfa.eval("/dev/car/door1"));
        assert!(!dfa.eval("/dev/car/door0/x"));
        assert!(!dfa.eval("/dev/car/door"));
    }

    #[test]
    fn star_does_not_cross_slash() {
        let dfa = single("/dev/car/*");
        assert!(dfa.eval("/dev/car/door0"));
        assert!(!dfa.eval("/dev/car/sub/door0"));
        assert!(dfa.eval("/dev/car/"));
    }

    #[test]
    fn double_star_crosses_slash() {
        let dfa = single("/dev/**");
        assert!(dfa.eval("/dev/car/sub/door0"));
        assert!(dfa.eval("/dev/"));
        assert!(!dfa.eval("/sys/dev/"));
    }

    #[test]
    fn classes_and_braces() {
        let dfa = single("/dev/{door,window}[0-3]");
        assert!(dfa.eval("/dev/door2"));
        assert!(dfa.eval("/dev/window0"));
        assert!(!dfa.eval("/dev/door4"));
        assert!(!dfa.eval("/dev/hatch1"));
    }

    #[test]
    fn agrees_with_glob_matches_on_a_corpus() {
        let pats = [
            "/a/*", "/a/**", "/a/?", "/a/[bc]d", "/a/[^b]*", "/{a,b}/c", "/a/b\\*", "/***",
            "/a*b/c", "/**/",
        ];
        let texts = [
            "", "/", "/a", "/a/", "/a/b", "/a/bd", "/a/cd", "/a/dd", "/a/b/c", "/b/c", "/a/b*",
            "/a/xb/c", "/axb/c", "/a/a", "/ab", "/a/b/", "/a//",
        ];
        for pat in pats {
            let glob = Glob::compile(pat).unwrap();
            let mut b = DfaBuilder::new();
            b.add_glob(&glob, 7);
            let dfa = b.build(|t| !t.is_empty());
            for text in texts {
                assert_eq!(
                    *dfa.eval(text),
                    glob.matches(text),
                    "pattern `{pat}` text `{text}`"
                );
            }
        }
    }

    #[test]
    fn tags_fold_over_all_matching_rules() {
        let mut b = DfaBuilder::new();
        b.add_glob(&Glob::compile("/dev/**").unwrap(), 1);
        b.add_glob(&Glob::compile("/dev/door*").unwrap(), 2);
        b.add_glob(&Glob::compile("/sys/*").unwrap(), 4);
        let dfa = b.build(|tags| tags.iter().sum::<u32>());
        assert_eq!(*dfa.eval("/dev/door0"), 3);
        assert_eq!(*dfa.eval("/dev/audio"), 1);
        assert_eq!(*dfa.eval("/sys/kernel"), 4);
        assert_eq!(*dfa.eval("/proc/1"), 0);
        assert_eq!(*dfa.empty_annotation(), 0);
    }

    #[test]
    fn one_determinization_serves_every_annotation() {
        let mut b = DfaBuilder::new();
        b.add_glob(&Glob::compile("/dev/**").unwrap(), 1);
        b.add_glob(&Glob::compile("/dev/door*").unwrap(), 2);
        b.add_glob(&Glob::compile("/sys/{a,b}[0-3]").unwrap(), 4);
        let subsets = b.determinize(&Arc::new(b.alphabet()));
        let sum = subsets.annotate(|tags| tags.iter().sum::<u32>());
        let any = subsets.annotate(|tags| !tags.is_empty());
        let direct_sum = b.build(|tags| tags.iter().sum::<u32>());
        for text in [
            "/dev/door0",
            "/dev/audio",
            "/sys/a2",
            "/sys/b4",
            "/proc/1",
            "",
        ] {
            assert_eq!(sum.eval(text), direct_sum.eval(text), "text `{text}`");
            assert_eq!(*any.eval(text), *sum.eval(text) != 0, "text `{text}`");
        }
        assert_eq!(sum.state_count(), direct_sum.state_count());
        assert!(Arc::ptr_eq(sum.alphabet(), any.alphabet()));
    }

    #[test]
    fn tag_sets_are_sorted_and_answer_cover_and_overlap() {
        let mut b = DfaBuilder::new();
        b.add_glob(&Glob::compile("/dev/door*").unwrap(), 3);
        b.add_glob(&Glob::compile("/dev/**").unwrap(), 1);
        b.add_glob(&Glob::compile("/sys/*").unwrap(), 2);
        let subsets = b.determinize(&Arc::new(b.alphabet()));
        let sets: Vec<&[u32]> = subsets.tag_sets().collect();
        assert_eq!(sets.len(), subsets.state_count());
        assert!(sets.iter().all(|set| set.windows(2).all(|w| w[0] < w[1])));
        // `/dev/**` covers `/dev/door*`: every set holding 3 holds 1.
        assert!(sets
            .iter()
            .filter(|s| s.contains(&3))
            .all(|s| s.contains(&1)));
        assert!(sets.contains(&&[1, 3][..]));
        // `/sys/*` overlaps neither.
        assert!(!sets.iter().any(|s| s.contains(&2) && s.len() > 1));
    }

    #[test]
    fn double_star_state_has_one_successor_for_every_class() {
        // After `/a/` the only live position is the `**` loop: every class
        // reaches the same state, so the machine stays tiny however many
        // classes the alphabet has.
        let wide = Glob::compile("/x{b,c,d,e,f,g}[h-k]?").unwrap();
        let glob = Glob::compile("/a/**").unwrap();
        let alphabet = Arc::new(Alphabet::for_globs([&wide, &glob]));
        assert!(alphabet.class_count() > 8);
        let mut b = DfaBuilder::new();
        b.add_glob(&glob, 0);
        let subsets = b.determinize(&alphabet);
        // start, `/`, `/a`, `/a/` (the `**` loop).
        assert_eq!(subsets.state_count(), 4);
    }

    #[test]
    fn empty_builder_matches_nothing() {
        let b = DfaBuilder::new();
        let dfa = b.build(|t| !t.is_empty());
        assert!(!dfa.eval("/anything"));
        assert!(!dfa.eval(""));
        assert_eq!(dfa.state_count(), 1);
    }

    #[test]
    fn shared_alphabet_preserves_language() {
        // One union alphabet over both machines' globs; each machine built
        // against it must decide exactly as its privately-compiled twin.
        let a = Glob::compile("/dev/car/door[0-3]").unwrap();
        let b = Glob::compile("/sys/{kernel,fs}/**").unwrap();
        let shared = Arc::new(Alphabet::for_globs([&a, &b]));
        for glob in [&a, &b] {
            let mut builder = DfaBuilder::new();
            builder.add_glob(glob, 0);
            let shared_dfa = builder.build_with_alphabet(&shared, |t| !t.is_empty());
            let solo_dfa = builder.build(|t| !t.is_empty());
            assert!(Arc::ptr_eq(shared_dfa.alphabet(), &shared));
            for text in [
                "/dev/car/door0",
                "/dev/car/door4",
                "/sys/kernel/x/y",
                "/sys/fs/",
                "/sys/other",
                "",
            ] {
                assert_eq!(shared_dfa.eval(text), solo_dfa.eval(text), "text `{text}`");
            }
        }
    }

    #[test]
    fn would_split_detects_new_discriminating_bytes() {
        let base = Glob::compile("/dev/car/*").unwrap();
        let alphabet = Alphabet::for_globs([&base]);
        // Same byte vocabulary: no split needed.
        let same = Glob::compile("/dev/rac/*").unwrap();
        assert!(!alphabet.would_split([&same]));
        // `**` never discriminates.
        let doublestar = Glob::compile("/dev/**").unwrap();
        assert!(!alphabet.would_split([&doublestar]));
        // A byte the base never mentions lives in the catch-all class and
        // must split it.
        let novel = Glob::compile("/dev/ca%").unwrap();
        assert!(alphabet.would_split([&novel]));
        // And after rebuilding with it, no further split is needed.
        let rebuilt = Alphabet::for_globs([&base, &novel]);
        assert!(!rebuilt.would_split([&novel]));
        assert!(rebuilt.class_count() > alphabet.class_count());
    }

    #[test]
    fn minimal_alphabet_splits_slash_only() {
        let minimal = Alphabet::minimal();
        assert_eq!(minimal.class_count(), 2);
        assert_ne!(minimal.class_of(b'/'), minimal.class_of(b'a'));
        assert_eq!(minimal.class_of(b'a'), minimal.class_of(b'z'));
    }

    #[test]
    fn minimization_merges_equivalent_suffixes() {
        // Both arms end in the same `/s/**` tail; the minimized DFA must
        // share it rather than duplicating per rule.
        let mut merged = DfaBuilder::new();
        merged.add_glob(&Glob::compile("/a/s/**").unwrap(), 0);
        merged.add_glob(&Glob::compile("/b/s/**").unwrap(), 0);
        let merged = merged.build(|t| !t.is_empty());

        let mut solo = DfaBuilder::new();
        solo.add_glob(&Glob::compile("/a/s/**").unwrap(), 0);
        let solo = solo.build(|t| !t.is_empty());

        // The merged machine only pays one extra branch state, not a
        // duplicated suffix chain.
        assert!(merged.state_count() <= solo.state_count() + 1);
        assert!(merged.eval("/a/s/x/y"));
        assert!(merged.eval("/b/s/x"));
        assert!(!merged.eval("/c/s/x"));
    }
}
