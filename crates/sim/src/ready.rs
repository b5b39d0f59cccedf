//! The host ready queue of the event loop.

use hetrta_dag::NodeId;

/// Release sequence numbers per occupancy word.
const WORD: usize = 64;

/// The host ready queue: ready nodes in the order they became ready
/// (FIFO arrival order; simultaneous releases keep the deterministic
/// release order of the event loop).
///
/// Every push takes the next *release sequence number* and sets its bit
/// in an occupancy bitmap; a Fenwick tree over the bitmap's 64-bit words
/// counts the live entries per word. Finding and removing the node at any
/// rank is a Fenwick descent to its word plus a select within the word —
/// `O(log(n / 64))` on a tree small enough to stay in cache (4 KiB of
/// counters per 65 536 pushes) — and in-order iteration walks the bitmap.
/// Ranks are positions among the live entries, exactly the indices of a
/// vector that keeps arrival order under removal.
///
/// Policies see the queue read-only through [`ReadyQueue::len`],
/// [`ReadyQueue::get`] and [`ReadyQueue::iter`]; only the event loop
/// pushes and removes. The buffers live in the simulation workspace and
/// are reused across runs, so a warm queue allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct ReadyQueue {
    /// The node pushed with each sequence number.
    nodes: Vec<NodeId>,
    /// Live flags by sequence number, 64 per word.
    live: Vec<u64>,
    /// 1-based Fenwick tree of live counts per word of `live` (`tree[0]`
    /// unused); its length − 1 is the word capacity.
    tree: Vec<u32>,
    len: usize,
}

impl ReadyQueue {
    /// Number of ready nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if no node is ready.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The node at `rank` (0 = released earliest), in `O(log(n / 64))`.
    ///
    /// # Panics
    ///
    /// Panics if `rank >= self.len()`.
    #[must_use]
    pub fn get(&self, rank: usize) -> NodeId {
        self.nodes[self.seq_of(rank)]
    }

    /// The ready nodes in release order.
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.live.iter().enumerate().flat_map(move |(w, &word)| {
            let mut bits = word;
            std::iter::from_fn(move || {
                if bits == 0 {
                    return None;
                }
                let bit = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                Some(self.nodes[w * WORD + bit])
            })
        })
    }

    /// Empties the queue and sizes it for at least `capacity` pushes (one
    /// per node of the graph), keeping the buffers' allocations.
    pub(crate) fn reset(&mut self, capacity: usize) {
        self.nodes.clear();
        self.live.clear();
        self.tree.clear();
        self.tree.resize(capacity.div_ceil(WORD) + 1, 0);
        self.len = 0;
    }

    /// Appends `v` as the most recently released node.
    ///
    /// # Panics
    ///
    /// Panics if more nodes are pushed than the capacity of the last
    /// [`ReadyQueue::reset`] allows.
    pub(crate) fn push(&mut self, v: NodeId) {
        let seq = self.nodes.len();
        let w = seq / WORD;
        assert!(w + 1 < self.tree.len(), "ready queue capacity exceeded");
        self.nodes.push(v);
        if w == self.live.len() {
            self.live.push(0);
        }
        self.live[w] |= 1 << (seq % WORD);
        let mut i = w + 1;
        while i < self.tree.len() {
            self.tree[i] += 1;
            i += i & i.wrapping_neg();
        }
        self.len += 1;
    }

    /// Removes and returns the node at `rank`.
    ///
    /// # Panics
    ///
    /// Panics if `rank >= self.len()`.
    pub(crate) fn remove(&mut self, rank: usize) -> NodeId {
        let seq = self.seq_of(rank);
        let w = seq / WORD;
        self.live[w] &= !(1 << (seq % WORD));
        let mut i = w + 1;
        while i < self.tree.len() {
            self.tree[i] -= 1;
            i += i & i.wrapping_neg();
        }
        self.len -= 1;
        self.nodes[seq]
    }

    /// Sequence number of the live entry at `rank`.
    fn seq_of(&self, rank: usize) -> usize {
        assert!(
            rank < self.len,
            "rank {rank} out of range for a ready queue of {}",
            self.len
        );
        // Fenwick descent: the longest word prefix holding at most `rank`
        // live entries ends just before the word holding the wanted one.
        let (mut w, mut skip) = (0usize, rank as u32);
        let mut step = 1 << (self.tree.len() - 1).ilog2();
        while step > 0 {
            let next = w + step;
            if next < self.tree.len() && self.tree[next] <= skip {
                w = next;
                skip -= self.tree[next];
            }
            step >>= 1;
        }
        w * WORD + select_in_word(self.live[w], skip) as usize
    }
}

/// Position of the `k`-th (0-based) set bit of `word`, which must have
/// more than `k` set bits: a binary search on popcounts of halves.
fn select_in_word(mut word: u64, mut k: u32) -> u32 {
    let mut pos = 0;
    for half in [32u32, 16, 8, 4, 2, 1] {
        let low = (word & ((1u64 << half) - 1)).count_ones();
        if k >= low {
            k -= low;
            word >>= half;
            pos += half;
        }
    }
    pos
}

#[cfg(test)]
impl ReadyQueue {
    /// A queue holding `ids` as nodes released in that order.
    pub(crate) fn of(ids: &[usize]) -> Self {
        let mut queue = ReadyQueue::default();
        queue.reset(ids.len());
        for &i in ids {
            queue.push(NodeId::from_index(i));
        }
        queue
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn ids(q: &ReadyQueue) -> Vec<usize> {
        q.iter().map(NodeId::index).collect()
    }

    #[test]
    fn ranks_follow_release_order_under_removal() {
        let mut q = ReadyQueue::of(&[0, 1, 2, 3, 4, 5]);
        assert_eq!(q.remove(2).index(), 2);
        assert_eq!(q.remove(0).index(), 0);
        assert_eq!(q.remove(3).index(), 5);
        assert_eq!(ids(&q), [1, 3, 4]);
        assert_eq!(q.get(1).index(), 3);
        assert_eq!(q.len(), 3);
    }

    #[test]
    fn matches_a_vector_under_random_pushes_and_removals() {
        let mut rng = StdRng::seed_from_u64(7);
        for capacity in [1usize, 2, 3, 17, 64, 65, 300, 5000] {
            let mut q = ReadyQueue::default();
            q.reset(capacity);
            let mut model: Vec<NodeId> = Vec::new();
            let mut pushed = 0;
            while pushed < capacity || !model.is_empty() {
                if pushed < capacity && (model.is_empty() || rng.gen_range(0..3) > 0) {
                    let v = NodeId::from_index(rng.gen_range(0..1000));
                    q.push(v);
                    model.push(v);
                    pushed += 1;
                } else {
                    let rank = rng.gen_range(0..model.len());
                    assert_eq!(q.get(rank), model[rank]);
                    assert_eq!(q.remove(rank), model.remove(rank));
                }
                assert_eq!(q.len(), model.len());
                assert!(q.iter().eq(model.iter().copied()));
            }
            assert!(q.is_empty());
        }
    }

    #[test]
    fn select_in_word_finds_every_set_bit() {
        for word in [1u64, u64::MAX, 0x8000_0000_0000_0001, 0xF0F0_1234_0000_8001] {
            let bits: Vec<u32> = (0..64).filter(|b| word >> b & 1 == 1).collect();
            for (k, &bit) in bits.iter().enumerate() {
                assert_eq!(select_in_word(word, k as u32), bit, "{word:#x} k={k}");
            }
        }
    }

    #[test]
    fn reset_reuses_the_queue() {
        let mut q = ReadyQueue::of(&[0, 1, 2, 3]);
        q.remove(1);
        q.reset(2);
        assert!(q.is_empty() && q.iter().next().is_none());
        q.push(NodeId::from_index(9));
        q.push(NodeId::from_index(8));
        assert_eq!(ids(&q), [9, 8]);
    }

    #[test]
    #[should_panic(expected = "capacity exceeded")]
    fn pushing_past_capacity_panics() {
        let mut q = ReadyQueue::default();
        q.reset(1);
        for i in 0..=WORD {
            q.push(NodeId::from_index(i));
        }
    }
}
