//! The fault simulator's event queue: a monotone min-queue of
//! topological ranks that pops without allocating.

/// Monotone min-queue of topological ranks: a two-level bitmap (one bit
/// per rank, one summary bit per nonzero 64-rank word). Pushing a queued
/// rank again is a no-op, and every push must lie at or above the last
/// popped rank — which the cone walk guarantees, since a gate's
/// propagation fanouts all rank strictly higher than the gate. Under that
/// contract the pops come out in ascending rank order, exactly as from a
/// binary min-heap with duplicate pops skipped, without allocating.
#[derive(Debug)]
pub(crate) struct RankQueue {
    /// Bit `r % 64` of word `r / 64` set ⇔ rank `r` is queued.
    bits: Vec<u64>,
    /// Bit `w % 64` of word `w / 64` set ⇔ `bits[w] != 0`.
    summary: Vec<u64>,
    /// Summary word of the last pop: no queued rank lies below it.
    cursor: usize,
}

impl RankQueue {
    pub(crate) fn new(len: usize) -> Self {
        let words = len.div_ceil(64);
        RankQueue {
            bits: vec![0; words],
            summary: vec![0; words.div_ceil(64)],
            cursor: 0,
        }
    }

    #[inline]
    pub(crate) fn push(&mut self, rank: u32) {
        let r = rank as usize;
        let w = r / 64;
        debug_assert!(w / 64 >= self.cursor, "rank {rank} pushed below the cursor");
        self.bits[w] |= 1 << (r % 64);
        self.summary[w / 64] |= 1 << (w % 64);
    }

    /// Remove and return the lowest queued rank; `None` leaves the queue
    /// empty and rewound for the next walk.
    #[inline]
    pub(crate) fn pop(&mut self) -> Option<u32> {
        while let Some(&s) = self.summary.get(self.cursor) {
            if s != 0 {
                let w = self.cursor * 64 + s.trailing_zeros() as usize;
                let word = self.bits[w];
                let rest = word & (word - 1);
                self.bits[w] = rest;
                if rest == 0 {
                    self.summary[self.cursor] = s & (s - 1);
                }
                return Some((w * 64 + word.trailing_zeros() as usize) as u32);
            }
            self.cursor += 1;
        }
        self.cursor = 0;
        None
    }

    /// Drop every queued rank: a walk that exits early leaves the queue
    /// empty for the next fault.
    pub(crate) fn clear(&mut self) {
        for (si, s) in self.summary.iter_mut().enumerate().skip(self.cursor) {
            let mut rest = std::mem::take(s);
            while rest != 0 {
                self.bits[si * 64 + rest.trailing_zeros() as usize] = 0;
                rest &= rest - 1;
            }
        }
        self.cursor = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prebond3d_rng::StdRng;

    #[test]
    fn rank_queue_pops_like_a_min_heap() {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        // Several summary words (4096 ranks each), so pops cross them.
        let len = 10_000u32;
        let mut rng = StdRng::seed_from_u64(0x0B17_0A9E);
        let mut queue = RankQueue::new(len as usize);
        for walk in 0..120 {
            // Short jumps stay in one word; long ones skip whole words.
            let reach = [8, 200, 9_000][walk % 3];
            // Every fourth walk is abandoned after a few pops, like an
            // early exit, and must leave nothing behind for the next one.
            let abandon_after = (walk % 4 == 0).then(|| rng.gen_range(1..6usize));
            let mut heap = BinaryHeap::new();
            let mut pops = 0;
            let mut at = rng.gen_range(0..len - 1);
            loop {
                // Monotone pushes: strictly above the last pop (or root).
                for _ in 0..rng.gen_range(1..4u32) {
                    if at + 1 < len {
                        let r = rng.gen_range(at + 1..len.min(at + 1 + reach));
                        heap.push(Reverse(r));
                        queue.push(r);
                    }
                }
                let want = heap.pop().map(|Reverse(r)| r);
                while want.is_some() && heap.peek() == want.map(Reverse).as_ref() {
                    heap.pop(); // the heap walk skips duplicate pops
                }
                assert_eq!(queue.pop(), want, "walk {walk}, pop {pops}");
                let Some(r) = want else { break };
                at = r;
                pops += 1;
                if abandon_after == Some(pops) {
                    queue.clear();
                    break;
                }
            }
        }
        assert_eq!(queue.pop(), None);
    }
}
