//! Seeded input generation: the same `--seed` gives the same inputs.

/// SplitMix64: small, fast, and good enough to pick paths and shuffle.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream` so that workloads
    /// and threads drawing from the same seed do not share sequences.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }
}

/// A fixed-composition op deck: each cycle deals every entry of `deck`
/// exactly once in a freshly shuffled order. The mix proportions are
/// therefore identical for every seed, and only the order varies, so a
/// pooled percentile never jumps between op classes from one seed to the
/// next.
#[derive(Debug, Clone)]
pub struct Deck<T: Copy> {
    cards: Vec<T>,
    next: usize,
}

impl<T: Copy> Deck<T> {
    /// A deck holding `count` copies of each `(item, count)` pair.
    pub fn new(composition: &[(T, usize)]) -> Deck<T> {
        let cards: Vec<T> = composition
            .iter()
            .flat_map(|&(item, count)| std::iter::repeat_n(item, count))
            .collect();
        assert!(!cards.is_empty(), "an op deck needs at least one card");
        let next = cards.len();
        Deck { cards, next }
    }

    /// Deals the next card, reshuffling at the end of each cycle.
    pub fn deal(&mut self, rng: &mut Rng) -> T {
        if self.next == self.cards.len() {
            rng.shuffle(&mut self.cards);
            self.next = 0;
        }
        self.next += 1;
        self.cards[self.next - 1]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence() {
        let mut a = Rng::new(7, 1);
        let mut b = Rng::new(7, 1);
        let mut c = Rng::new(7, 2);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..8).map(|_| c.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn deck_keeps_composition_per_cycle() {
        let mut rng = Rng::new(1, 0);
        let mut deck = Deck::new(&[('a', 3), ('b', 1)]);
        for _ in 0..5 {
            let cycle: Vec<char> = (0..4).map(|_| deck.deal(&mut rng)).collect();
            assert_eq!(cycle.iter().filter(|&&c| c == 'a').count(), 3);
        }
    }
}
