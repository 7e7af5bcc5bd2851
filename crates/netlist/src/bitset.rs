//! A compact fixed-capacity bit set keyed by dense `usize` indices.
//!
//! Used pervasively for cone membership, fault marking and visited sets.
//! Much faster than `HashSet<GateId>` for the dense id spaces a netlist
//! produces.

/// Fixed-capacity bit set over `0..len`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct BitSet {
    words: Vec<u64>,
    len: usize,
}

impl BitSet {
    /// An empty set able to hold indices `0..len`.
    pub fn new(len: usize) -> Self {
        BitSet {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Capacity (exclusive upper bound on indices).
    pub fn capacity(&self) -> usize {
        self.len
    }

    /// Insert `index`; returns `true` if it was newly inserted.
    ///
    /// # Panics
    ///
    /// Panics if `index >= capacity`.
    #[inline]
    pub fn insert(&mut self, index: usize) -> bool {
        assert!(
            index < self.len,
            "bitset index {index} out of range {}",
            self.len
        );
        let word = &mut self.words[index / 64];
        let mask = 1u64 << (index % 64);
        let fresh = *word & mask == 0;
        *word |= mask;
        fresh
    }

    /// The backing words, for whole-word writes inside the crate.
    pub(crate) fn words_mut(&mut self) -> &mut [u64] {
        &mut self.words
    }

    /// Remove `index`; returns `true` if it was present.
    #[inline]
    pub fn remove(&mut self, index: usize) -> bool {
        assert!(index < self.len);
        let word = &mut self.words[index / 64];
        let mask = 1u64 << (index % 64);
        let present = *word & mask != 0;
        *word &= !mask;
        present
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, index: usize) -> bool {
        if index >= self.len {
            return false;
        }
        self.words[index / 64] & (1u64 << (index % 64)) != 0
    }

    /// Number of elements in the set.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// `true` when no element is present.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Remove all elements, keeping capacity.
    pub fn clear(&mut self) {
        self.words.iter_mut().for_each(|w| *w = 0);
    }

    /// `true` if `self` and `other` share at least one element.
    ///
    /// Capacities need not match; comparison runs over the common prefix.
    pub fn intersects(&self, other: &BitSet) -> bool {
        self.words
            .iter()
            .zip(other.words.iter())
            .any(|(a, b)| a & b != 0)
    }

    /// Number of elements present in both sets.
    pub fn intersection_count(&self, other: &BitSet) -> usize {
        self.words
            .iter()
            .zip(other.words.iter())
            .map(|(a, b)| (a & b).count_ones() as usize)
            .sum()
    }

    /// The backing words, 64 indices per word, lowest indices first.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Indices of the first and last non-zero backing word (inclusive), or
    /// `None` for an empty set. Intersection-style queries only need to
    /// walk the overlap of both operands' spans — the word-level fast path
    /// the cone cache builds on.
    pub fn nonzero_word_span(&self) -> Option<(usize, usize)> {
        let first = self.words.iter().position(|&w| w != 0)?;
        let last = self.words.iter().rposition(|&w| w != 0)?;
        Some((first, last))
    }

    /// [`Self::intersects`] restricted to the word range `lo..=hi`
    /// (clipped to both operands). Equivalent to the full scan whenever
    /// `lo..=hi` covers the non-zero span of either operand.
    ///
    /// Tests eight words per branch (an OR of eight ANDs), so a long
    /// disjoint range costs one compare per block instead of one per word.
    pub fn intersects_clipped(&self, other: &BitSet, lo: usize, hi: usize) -> bool {
        let end = (hi + 1).min(self.words.len()).min(other.words.len());
        if lo >= end {
            return false;
        }
        let (a, b) = (&self.words[lo..end], &other.words[lo..end]);
        let (mut a8, mut b8) = (a.chunks_exact(8), b.chunks_exact(8));
        for (x, y) in (&mut a8).zip(&mut b8) {
            let any = (x[0] & y[0])
                | (x[1] & y[1])
                | (x[2] & y[2])
                | (x[3] & y[3])
                | (x[4] & y[4])
                | (x[5] & y[5])
                | (x[6] & y[6])
                | (x[7] & y[7]);
            if any != 0 {
                return true;
            }
        }
        a8.remainder()
            .iter()
            .zip(b8.remainder())
            .any(|(x, y)| x & y != 0)
    }

    /// [`Self::intersection_count`] restricted to the word range
    /// `lo..=hi` (clipped to both operands). Equivalent to the full scan
    /// whenever `lo..=hi` covers the non-zero span of either operand.
    pub fn intersection_count_clipped(&self, other: &BitSet, lo: usize, hi: usize) -> usize {
        let end = (hi + 1).min(self.words.len()).min(other.words.len());
        if lo >= end {
            return 0;
        }
        self.words[lo..end]
            .iter()
            .zip(other.words[lo..end].iter())
            .map(|(a, b)| (a & b).count_ones() as usize)
            .sum()
    }

    /// In-place intersection with `other`.
    ///
    /// # Panics
    ///
    /// Panics if capacities differ.
    pub fn intersect_with(&mut self, other: &BitSet) {
        assert_eq!(self.len, other.len, "bitset capacity mismatch");
        for (a, b) in self.words.iter_mut().zip(other.words.iter()) {
            *a &= b;
        }
    }

    /// In-place union with `other`.
    ///
    /// # Panics
    ///
    /// Panics if capacities differ.
    pub fn union_with(&mut self, other: &BitSet) {
        assert_eq!(self.len, other.len, "bitset capacity mismatch");
        for (a, b) in self.words.iter_mut().zip(other.words.iter()) {
            *a |= b;
        }
    }

    /// Iterate over the set bits in ascending index order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            set: self,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }
}

/// Iterator over set bits, produced by [`BitSet::iter`].
#[derive(Debug)]
pub struct Iter<'a> {
    set: &'a BitSet,
    word_idx: usize,
    current: u64,
}

impl Iterator for Iter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                return Some(self.word_idx * 64 + bit);
            }
            self.word_idx += 1;
            if self.word_idx >= self.set.words.len() {
                return None;
            }
            self.current = self.set.words[self.word_idx];
        }
    }
}

impl FromIterator<usize> for BitSet {
    /// Builds a set sized to the maximum element + 1.
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        let items: Vec<usize> = iter.into_iter().collect();
        let cap = items.iter().max().map_or(0, |m| m + 1);
        let mut set = BitSet::new(cap);
        for i in items {
            set.insert(i);
        }
        set
    }
}

impl Extend<usize> for BitSet {
    fn extend<I: IntoIterator<Item = usize>>(&mut self, iter: I) {
        for i in iter {
            self.insert(i);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut s = BitSet::new(130);
        assert!(s.insert(0));
        assert!(s.insert(64));
        assert!(s.insert(129));
        assert!(!s.insert(64));
        assert!(s.contains(0) && s.contains(64) && s.contains(129));
        assert!(!s.contains(1));
        assert_eq!(s.count(), 3);
        assert!(s.remove(64));
        assert!(!s.remove(64));
        assert_eq!(s.count(), 2);
    }

    #[test]
    fn iter_yields_sorted() {
        let mut s = BitSet::new(200);
        for i in [5usize, 63, 64, 65, 199, 0] {
            s.insert(i);
        }
        let got: Vec<usize> = s.iter().collect();
        assert_eq!(got, vec![0, 5, 63, 64, 65, 199]);
    }

    #[test]
    fn intersects_and_union() {
        let mut a = BitSet::new(100);
        let mut b = BitSet::new(100);
        a.insert(10);
        b.insert(11);
        assert!(!a.intersects(&b));
        b.insert(10);
        assert!(a.intersects(&b));
        assert_eq!(a.intersection_count(&b), 1);
        a.union_with(&b);
        assert_eq!(a.count(), 2);
    }

    #[test]
    fn from_iterator() {
        let s: BitSet = [3usize, 9, 9, 1].into_iter().collect();
        assert_eq!(s.count(), 3);
        assert!(s.contains(9));
        assert_eq!(s.capacity(), 10);
    }

    #[test]
    fn word_span_and_clipped_ops_match_full_scans() {
        let mut a = BitSet::new(512);
        let mut b = BitSet::new(512);
        assert_eq!(a.nonzero_word_span(), None);
        for i in [70usize, 131, 200] {
            a.insert(i);
        }
        for i in [131usize, 300] {
            b.insert(i);
        }
        assert_eq!(a.nonzero_word_span(), Some((1, 3)));
        assert_eq!(b.nonzero_word_span(), Some((2, 4)));
        // Clipping to the span overlap reproduces the full answers.
        assert!(a.intersects_clipped(&b, 2, 3));
        assert_eq!(a.intersection_count_clipped(&b, 2, 3), 1);
        assert_eq!(a.intersection_count(&b), 1);
        // A range past the data finds nothing; an inverted range is empty.
        assert!(!a.intersects_clipped(&b, 5, 7));
        assert_eq!(a.intersection_count_clipped(&b, 5, 3), 0);
        assert_eq!(a.words().len(), 8);
    }

    /// The blocked `intersects_clipped` answers what a per-word scan of the
    /// same clipped range answers, for every `(lo, hi)` on seeded random
    /// sets: empty and inverted ranges, ranges past either operand's end,
    /// operands of different lengths, and word counts that are not a
    /// multiple of eight.
    #[test]
    fn blocked_intersects_clipped_matches_a_per_word_scan() {
        let reference = |a: &BitSet, b: &BitSet, lo: usize, hi: usize| {
            (lo..=hi).any(|w| match (a.words().get(w), b.words().get(w)) {
                (Some(x), Some(y)) => x & y != 0,
                _ => false,
            })
        };
        let mut rng = prebond3d_rng::StdRng::seed_from_u64(0xB10C);
        let mut hits = 0;
        for case in 0..60 {
            let (len_a, len_b) = (rng.gen_range(0usize..1500), rng.gen_range(0usize..1500));
            // Sparse sets, so most ranges are disjoint and the answer
            // often hinges on one word.
            let fill = |rng: &mut prebond3d_rng::StdRng, len: usize| {
                let mut s = BitSet::new(len);
                for _ in 0..(len / 97 + case % 3) {
                    if len > 0 {
                        s.insert(rng.gen_range(0..len));
                    }
                }
                s
            };
            let (a, b) = (fill(&mut rng, len_a), fill(&mut rng, len_b));
            let words = a.words().len().max(b.words().len()) + 3;
            for lo in 0..words {
                for hi in 0..words {
                    let want = reference(&a, &b, lo, hi);
                    assert_eq!(
                        a.intersects_clipped(&b, lo, hi),
                        want,
                        "{len_a} {len_b} {lo}..={hi}"
                    );
                    hits += usize::from(want);
                }
            }
        }
        assert!(hits > 0, "some ranges must intersect");
    }

    #[test]
    fn contains_out_of_range_is_false() {
        let s = BitSet::new(10);
        assert!(!s.contains(1000));
    }

    #[test]
    fn empty_and_clear() {
        let mut s = BitSet::new(64);
        assert!(s.is_empty());
        s.insert(3);
        assert!(!s.is_empty());
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.capacity(), 64);
    }
}
