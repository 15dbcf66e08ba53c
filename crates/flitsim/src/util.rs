//! Small utilities: index-width conversion helpers, the bitsets behind
//! the occupancy worklists, and a free-list slab for packet and message
//! records.

// ---------------------------------------------------------------------
// Index-width helpers.
//
// flitsim identifies nodes, ports, PNs and slab records with `u32`
// keys and stores their state in `Vec`s, so u32 -> usize index
// conversions are pervasive. They are lossless on every supported
// target:
const _: () = assert!(
    usize::BITS >= 32,
    "flitsim indexes Vecs with u32 ids; a 16-bit usize cannot hold them"
);

/// Index a `Vec` with a `u32` entity id (lossless; see the width
/// assertion above).
#[inline]
pub(crate) const fn ix(v: u32) -> usize {
    v as usize
}

/// Narrow a `usize` bounded by a `u32`-keyed collection back to `u32`.
/// Ids are issued as `u32` in the first place, so the bound holds by
/// construction; debug builds re-check it.
#[inline]
pub(crate) fn small_u32(v: usize) -> u32 {
    debug_assert!(u32::try_from(v).is_ok(), "collection outgrew u32 ids");
    v as u32
}

/// Narrow a local output-port id to the `u16` stored in packed routes.
/// Switch radixes sit far below `u16::MAX`; debug builds re-check it.
#[inline]
pub(crate) fn route_port(v: u32) -> u16 {
    debug_assert!(u16::try_from(v).is_ok(), "port index outgrew u16 routes");
    v as u16
}

/// Narrow a tree level to the `u8` carried in `NodeId`. XGFT heights
/// are single digits; debug builds re-check it.
#[inline]
pub(crate) fn small_u8(v: usize) -> u8 {
    debug_assert!(u8::try_from(v).is_ok(), "tree height outgrew u8 levels");
    v as u8
}

// ---------------------------------------------------------------------
// Bitsets: the occupancy worklists of the cycle stages.

/// A fixed-size set of `u32` ids, one bit each. The cycle stages walk
/// it in ascending id order a word at a time — `for w in
/// 0..set.num_words() { for id in word_ids(w, set.word(w)) { … } }` —
/// copying each word before visiting its bits, so the visit of id `i`
/// may clear bit `i` (and nothing in a stage ever sets a bit of the set
/// it walks).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct BitSet {
    words: Vec<u64>,
}

impl BitSet {
    /// The empty set over ids `0..len`.
    pub(crate) fn new(len: u32) -> Self {
        BitSet {
            words: vec![0; ix(len.div_ceil(64))],
        }
    }

    #[inline]
    pub(crate) fn set(&mut self, id: u32) {
        self.words[ix(id / 64)] |= 1 << (id % 64);
    }

    /// Remove `id` if `cond` holds — as a masked store, for callers
    /// whose condition the branch predictor cannot learn.
    #[inline]
    pub(crate) fn clear_if(&mut self, id: u32, cond: bool) {
        self.words[ix(id / 64)] &= !(u64::from(cond) << (id % 64));
    }

    pub(crate) fn num_words(&self) -> u32 {
        small_u32(self.words.len())
    }

    #[inline]
    pub(crate) fn word(&self, w: u32) -> u64 {
        self.words[ix(w)]
    }

    /// Number of ids in the set.
    pub(crate) fn len(&self) -> usize {
        self.words.iter().map(|w| ix(w.count_ones())).sum()
    }
}

/// The positions of the set bits of one word, ascending.
#[inline]
fn ones(mut word: u64) -> impl Iterator<Item = u32> {
    std::iter::from_fn(move || {
        (word != 0).then(|| {
            let bit = word.trailing_zeros();
            word &= word - 1;
            bit
        })
    })
}

/// The ids in word `w` of a bitset, ascending: `64·w + b` for each set
/// bit `b` of `word`.
#[inline]
pub(crate) fn word_ids(w: u32, word: u64) -> impl Iterator<Item = u32> {
    ones(word).map(move |b| w * 64 + b)
}

/// The first set bit of a multi-word bit row that `accept` maps to
/// `Some`, visiting the set bits in cyclic order from position `first`:
/// the rest of `first`'s word, the following words, then around to the
/// bits below `first`. Round-robin arbitration in one pass, with no cap
/// on the row's width.
#[inline]
pub(crate) fn find_cyclic<T>(
    row: &[u64],
    first: u32,
    mut accept: impl FnMut(u32) -> Option<T>,
) -> Option<T> {
    let words = small_u32(row.len());
    let (first_word, from) = (first / 64, !0 << (first % 64));
    for k in 0..=words {
        let w = (first_word + k) % words;
        let mask = match k {
            0 => from,
            _ if k == words => !from,
            _ => !0,
        };
        if let Some(hit) = ones(row[ix(w)] & mask).find_map(|b| accept(w * 64 + b)) {
            return Some(hit);
        }
    }
    None
}

/// A minimal slab allocator: O(1) insert/remove with stable `u32` keys,
/// reusing freed slots so long simulations do not grow memory with the
/// total number of packets ever injected.
///
/// Access is Option-returning: a vacant slot is reported to the caller
/// instead of panicking, so the simulator can degrade gracefully (skip
/// the orphaned flit, keep the run alive) while debug builds still
/// assert the invariant at every call site.
#[derive(Debug, Clone)]
pub(crate) struct Slab<T> {
    slots: Vec<Option<T>>,
    free: Vec<u32>,
    len: usize,
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Slab<T> {
    /// An empty slab.
    pub(crate) fn new() -> Self {
        Slab {
            slots: Vec::new(),
            free: Vec::new(),
            len: 0,
        }
    }

    /// Insert a value and return its key.
    pub(crate) fn insert(&mut self, value: T) -> u32 {
        self.len += 1;
        if let Some(key) = self.free.pop() {
            debug_assert!(self.slots[ix(key)].is_none());
            self.slots[ix(key)] = Some(value);
            key
        } else {
            self.slots.push(Some(value));
            small_u32(self.slots.len() - 1)
        }
    }

    /// Remove and return the value under `key`, or `None` if the slot is
    /// vacant or the key was never issued (a double-free is a simulator
    /// bug the caller surfaces).
    pub(crate) fn remove(&mut self, key: u32) -> Option<T> {
        let v = self.slots.get_mut(ix(key))?.take()?;
        self.free.push(key);
        self.len -= 1;
        Some(v)
    }

    /// Shared access to a live slot (`None` if vacant).
    pub(crate) fn get(&self, key: u32) -> Option<&T> {
        self.slots.get(ix(key))?.as_ref()
    }

    /// Mutable access to a live slot (`None` if vacant).
    pub(crate) fn get_mut(&mut self, key: u32) -> Option<&mut T> {
        self.slots.get_mut(ix(key))?.as_mut()
    }

    /// Iterate over live entries as `(key, &value)`, in key order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u32, &T)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|v| (small_u32(i), v)))
    }

    /// Number of live entries.
    pub(crate) fn len(&self) -> usize {
        self.len
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitset_words_walk_ascending() {
        let mut set = BitSet::new(200);
        assert_eq!(set.num_words(), 4);
        for id in [199, 0, 64, 63, 130] {
            set.set(id);
        }
        set.clear_if(64, true);
        set.clear_if(130, false);
        set.clear_if(7, true); // absent: no-op
        let ids: Vec<u32> = (0..set.num_words())
            .flat_map(|w| word_ids(w, set.word(w)))
            .collect();
        assert_eq!(ids, vec![0, 63, 130, 199]);
        assert_eq!(set.len(), 4);
    }

    #[test]
    fn find_cyclic_visits_every_bit_once_from_any_start() {
        let row = [1 | 1 << 5 | 1 << 63, 1 | 1 << 6, 1 << 2];
        let order = |first| {
            let mut seen = Vec::new();
            let none: Option<()> = find_cyclic(&row, first, |b| {
                seen.push(b);
                None
            });
            assert!(none.is_none());
            seen
        };
        assert_eq!(order(0), vec![0, 5, 63, 64, 70, 130]);
        assert_eq!(order(5), vec![5, 63, 64, 70, 130, 0]);
        assert_eq!(order(6), vec![63, 64, 70, 130, 0, 5]);
        assert_eq!(order(64), vec![64, 70, 130, 0, 5, 63]);
        assert_eq!(order(131), vec![0, 5, 63, 64, 70, 130]);
        // One word (every radix up to 64): the same rotation.
        let one = [0b1010_0110u64];
        let firsts: Vec<Option<u32>> = (0..8).map(|f| find_cyclic(&one, f, Some)).collect();
        let expect = [1, 1, 2, 5, 5, 5, 7, 7].map(Some);
        assert_eq!(firsts, expect);
        // The first *accepted* bit wins, not the first set one.
        assert_eq!(find_cyclic(&one, 6, |b| (b != 7).then_some(b)), Some(1));
        assert_eq!(find_cyclic(&[0u64, 0], 70, Some), None);
    }

    #[test]
    fn insert_get_remove() {
        let mut s = Slab::new();
        let a = s.insert("a");
        let b = s.insert("b");
        assert_eq!(s.get(a), Some(&"a"));
        assert_eq!(s.get(b), Some(&"b"));
        assert_eq!(s.len(), 2);
        assert_eq!(s.remove(a), Some("a"));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn slots_are_reused() {
        let mut s = Slab::new();
        let a = s.insert(1);
        s.remove(a);
        let b = s.insert(2);
        assert_eq!(a, b, "freed slot must be reused");
    }

    #[test]
    fn high_water_mark_bounded_by_live_peak() {
        let mut s = Slab::new();
        for round in 0..10 {
            let keys: Vec<u32> = (0..5).map(|i| s.insert(round * 10 + i)).collect();
            assert!(keys.iter().all(|&k| k < 5), "round {round}: {keys:?}");
            for k in keys {
                s.remove(k);
            }
        }
        assert_eq!(s.len(), 0);
    }

    #[test]
    fn vacant_access_is_none_not_a_panic() {
        let mut s = Slab::new();
        let a = s.insert(());
        assert_eq!(s.remove(a), Some(()));
        assert_eq!(s.remove(a), None, "double-free is reported, not fatal");
        assert_eq!(s.get(a), None);
        assert_eq!(s.get_mut(a), None);
        assert_eq!(s.get(99), None, "unissued keys are vacant too");
    }

    #[test]
    fn get_mut_mutates_and_iter_walks_live_slots() {
        let mut s = Slab::new();
        let a = s.insert(5);
        let b = s.insert(7);
        if let Some(v) = s.get_mut(a) {
            *v += 1;
        }
        assert_eq!(s.get(a), Some(&6));
        s.remove(a);
        let live: Vec<(u32, &i32)> = s.iter().collect();
        assert_eq!(live, vec![(b, &7)]);
    }
}
