//! Link- and switch-failure modelling.
//!
//! A [`FaultSet`] records which *directed* links of a topology are down.
//! Whole-switch failures are expressed through their incident links (a
//! dead switch can neither receive nor forward), so every survivability
//! question reduces to "does this path avoid every failed link" — which
//! [`Topology::walk_path`] answers for one path without allocating, and
//! [`FaultSet::survivors`] answers for a whole pair without walking any.
//!
//! The set is independent of any particular topology object: it stores a
//! growable bitmap over link ids plus the list of failed switches, so
//! [`FaultSet::default`] is the fault-free network and adds no cost to
//! fault-free code paths.

use crate::{DirectedLinkId, NodeId, PathId, PnId, Topology};
use lmpr_codec::splitmix;

/// Dead blocks a [`SurvivorSet`] holds before it moves them to the heap.
const INLINE_BLOCKS: usize = 8;

/// The surviving shortest paths of one SD pair under a [`FaultSet`],
/// built by [`FaultSet::survivors`] from the failed links in the pair's
/// two cones, without walking a path.
///
/// The canonical enumeration numbers a path by its up-port choices
/// `(u_1 … u_κ)`, `u_1` most significant, and the link a path takes at
/// level `l` — climbing or descending — is fixed by the prefix
/// `(u_1 … u_l)`. A failed link at level `l` therefore kills exactly the
/// aligned block of `X / w_prod(l)` consecutive ids that share its
/// prefix, and any two such blocks are nested or disjoint. The set keeps
/// the maximal dead blocks, sorted and with touching neighbours merged,
/// so every query is a binary search over them.
#[derive(Debug, Clone)]
pub struct SurvivorSet {
    /// `X`, the size of the pair's path space.
    paths: u64,
    /// Ids inside dead blocks.
    dead: u64,
    blocks: Blocks,
}

/// Disjoint dead `[start, end)` id ranges, inline until they outgrow
/// [`INLINE_BLOCKS`].
#[derive(Debug, Clone)]
enum Blocks {
    Inline(usize, [(u64, u64); INLINE_BLOCKS]),
    Heap(Vec<(u64, u64)>),
}

impl Blocks {
    fn as_slice(&self) -> &[(u64, u64)] {
        match self {
            Blocks::Inline(len, buf) => &buf[..*len],
            Blocks::Heap(v) => v,
        }
    }

    fn as_mut_slice(&mut self) -> &mut [(u64, u64)] {
        match self {
            Blocks::Inline(len, buf) => &mut buf[..*len],
            Blocks::Heap(v) => v,
        }
    }

    fn push(&mut self, block: (u64, u64)) {
        match self {
            Blocks::Inline(len, buf) if *len < INLINE_BLOCKS => {
                buf[*len] = block;
                *len += 1;
            }
            Blocks::Inline(_, buf) => {
                let mut v = buf.to_vec();
                v.push(block);
                *self = Blocks::Heap(v);
            }
            Blocks::Heap(v) => v.push(block),
        }
    }

    /// Sort the blocks and merge the ones that touch.
    fn seal(&mut self) {
        let blocks = self.as_mut_slice();
        blocks.sort_unstable();
        let mut kept = 0;
        for i in 0..blocks.len() {
            let (lo, hi) = blocks[i];
            if kept > 0 && blocks[kept - 1].1 == lo {
                blocks[kept - 1].1 = hi;
            } else {
                blocks[kept] = (lo, hi);
                kept += 1;
            }
        }
        match self {
            Blocks::Inline(len, _) => *len = kept,
            Blocks::Heap(v) => v.truncate(kept),
        }
    }
}

impl SurvivorSet {
    /// Number of surviving paths.
    pub fn count(&self) -> u64 {
        self.paths - self.dead
    }

    /// Whether path `p` of the pair survives. Ids outside the pair's
    /// path space do not.
    pub fn contains(&self, p: PathId) -> bool {
        p.0 < self.paths && self.dead_block_at(p.0).is_none()
    }

    /// The first surviving id at or after `p`, wrapping past the end of
    /// the enumeration (an id at or past `X` starts over from 0); `None`
    /// when nothing survives.
    pub fn next_from(&self, p: PathId) -> Option<PathId> {
        if self.count() == 0 {
            return None;
        }
        let mut id = if p.0 < self.paths { p.0 } else { 0 };
        // Merged blocks never touch, so the end of a block survives
        // unless it is the end of the enumeration: at most one wrap.
        while let Some((_, end)) = self.dead_block_at(id) {
            id = if end < self.paths { end } else { 0 };
        }
        Some(PathId(id))
    }

    /// The surviving ids in canonical order.
    pub fn iter(&self) -> impl Iterator<Item = PathId> + '_ {
        let mut from = 0;
        let end = std::iter::once((self.paths, self.paths));
        self.blocks
            .as_slice()
            .iter()
            .copied()
            .chain(end)
            .flat_map(move |(lo, hi)| {
                let gap = from..lo;
                from = hi;
                gap
            })
            .map(PathId)
    }

    /// The dead block holding `id`, if any.
    fn dead_block_at(&self, id: u64) -> Option<(u64, u64)> {
        let blocks = self.blocks.as_slice();
        let after = blocks.partition_point(|&(lo, _)| lo <= id);
        let block = *blocks.get(after.checked_sub(1)?)?;
        (id < block.1).then_some(block)
    }

    /// Kill the block of `size` ids whose level-`level` prefix has the
    /// port choices `ports = Σ_{i≤level} u_i·w_prod(i−1)` (`u_1` least
    /// significant, as link ids order them). Blocks arrive level by
    /// level, widest first, so a block already holding this one's first
    /// id holds all of it, and otherwise the two are disjoint.
    fn kill(&mut self, topo: &Topology, level: usize, mut ports: u64, size: u64) {
        let mut prefix = 0;
        for i in 1..=level {
            let w = u64::from(topo.spec().w_at(i));
            prefix = prefix * w + ports % w;
            ports /= w;
        }
        let start = prefix * size;
        let held = |&(lo, hi): &(u64, u64)| lo <= start && start < hi;
        if !self.blocks.as_slice().iter().any(held) {
            self.blocks.push((start, start + size));
            self.dead += size;
        }
    }
}

/// A set of failed directed links and failed switches.
///
/// `FaultSet::default()` is empty and reproduces fault-free behaviour
/// exactly: every query answers "alive".
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultSet {
    /// Bitmap over directed link ids; lazily grown so an empty set
    /// needs no topology to construct.
    failed: Vec<u64>,
    num_failed_links: u32,
    /// Switches failed wholesale (their incident links are also in the
    /// bitmap); kept sorted for queries and reporting.
    failed_switches: Vec<NodeId>,
}

impl FaultSet {
    /// The empty (fault-free) set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sample failures independently: each directed link fails with
    /// probability `link_rate`, each switch (levels `1..=h`) with
    /// probability `switch_rate`. Deterministic in `seed`.
    ///
    /// # Panics
    ///
    /// Panics if either rate is outside `[0, 1]`.
    pub fn sample(topo: &Topology, link_rate: f64, switch_rate: f64, seed: u64) -> Self {
        assert!(
            (0.0..=1.0).contains(&link_rate) && (0.0..=1.0).contains(&switch_rate),
            "failure rates must be in [0, 1]"
        );
        let mut set = FaultSet::new();
        let mut state = seed ^ 0x0FA1_75E7_5EED;
        for id in 0..topo.num_links() {
            if splitmix::unit_f64(splitmix::next(&mut state)) < link_rate {
                set.fail_link(DirectedLinkId(id));
            }
        }
        for level in 1..=topo.height() {
            for rank in 0..topo.nodes_at_level(level) {
                if splitmix::unit_f64(splitmix::next(&mut state)) < switch_rate {
                    set.fail_switch(
                        topo,
                        NodeId {
                            level: level as u8,
                            rank,
                        },
                    );
                }
            }
        }
        set
    }

    /// Mark one directed link as failed. Idempotent.
    pub fn fail_link(&mut self, link: DirectedLinkId) {
        let (word, bit) = (link.0 as usize / 64, link.0 % 64);
        if word >= self.failed.len() {
            self.failed.resize(word + 1, 0);
        }
        if self.failed[word] & (1 << bit) == 0 {
            self.failed[word] |= 1 << bit;
            self.num_failed_links += 1;
        }
    }

    /// Mark a whole switch as failed: every link into or out of it goes
    /// down. Idempotent. Works for any node level (failing a level-0
    /// node cuts the processing node off).
    pub fn fail_switch(&mut self, topo: &Topology, node: NodeId) {
        if let Err(i) = self.failed_switches.binary_search(&node) {
            self.failed_switches.insert(i, node);
        }
        for link in topo.incident_links(node) {
            self.fail_link(link);
        }
    }

    /// Mark one directed link as repaired. Idempotent. Clears the bit
    /// regardless of why it was set, so recovering a link that went down
    /// as part of a switch failure brings that cable back even while the
    /// switch itself stays listed as failed.
    pub fn recover_link(&mut self, link: DirectedLinkId) {
        let (word, bit) = (link.0 as usize / 64, link.0 % 64);
        if let Some(w) = self.failed.get_mut(word) {
            if *w & (1 << bit) != 0 {
                *w &= !(1 << bit);
                self.num_failed_links -= 1;
            }
        }
        // Trim trailing zero words so the derived equality stays
        // semantic: a fully recovered set equals `FaultSet::default()`.
        while self.failed.last() == Some(&0) {
            self.failed.pop();
        }
    }

    /// Mark a whole switch as repaired: it is removed from the failed
    /// list and every link into or out of it comes back up. Idempotent.
    ///
    /// Links that were *also* failed individually come back too — the
    /// set does not track failure causes; callers needing overlapping
    /// link and switch outages replay their events through a
    /// [`FaultSchedule`](crate::FaultSchedule) in timeline order.
    pub fn recover_switch(&mut self, topo: &Topology, node: NodeId) {
        if let Ok(i) = self.failed_switches.binary_search(&node) {
            self.failed_switches.remove(i);
        }
        for link in topo.incident_links(node) {
            self.recover_link(link);
        }
    }

    /// Whether a directed link is failed.
    pub fn is_link_failed(&self, link: DirectedLinkId) -> bool {
        self.failed
            .get(link.0 as usize / 64)
            .is_some_and(|w| w & (1 << (link.0 % 64)) != 0)
    }

    /// Whether a switch was failed wholesale (individual-link failures
    /// that happen to isolate a switch do not count).
    pub fn is_switch_failed(&self, node: NodeId) -> bool {
        self.failed_switches.binary_search(&node).is_ok()
    }

    /// Number of failed directed links (incident links of failed
    /// switches included).
    pub fn num_failed_links(&self) -> u32 {
        self.num_failed_links
    }

    /// The switches failed wholesale, sorted.
    pub fn failed_switches(&self) -> &[NodeId] {
        &self.failed_switches
    }

    /// Whether the set is empty (fault-free network).
    pub fn is_empty(&self) -> bool {
        self.num_failed_links == 0 && self.failed_switches.is_empty()
    }

    /// Iterate the failed directed link ids in ascending order.
    pub fn failed_links(&self) -> impl Iterator<Item = DirectedLinkId> + '_ {
        self.failed.iter().enumerate().flat_map(|(w, &bits)| {
            (0..64)
                .filter(move |b| bits & (1 << b) != 0)
                .map(move |b| DirectedLinkId((w * 64 + b) as u32))
        })
    }

    /// Whether a path of the canonical enumeration avoids every failed
    /// link. The empty path (`s == d`) always survives.
    pub fn path_survives(&self, topo: &Topology, s: PnId, d: PnId, path: PathId) -> bool {
        if self.is_empty() {
            return true;
        }
        let mut alive = true;
        topo.walk_path(s, d, path, |link| alive &= !self.is_link_failed(link));
        alive
    }

    /// The surviving shortest paths of the pair, from the failed links
    /// in its two cones alone. At each level `l ≤ κ` the source's climb
    /// can take only the `w_prod(l)` up-links of one contiguous id run,
    /// and the descent to `d` only `w_prod(l)` down-links of another
    /// (every `m_l`-th id); each failed link found there decodes to the
    /// port prefix that kills its block of ids. Cost is a bitmap scan of
    /// the two runs per level plus O(κ) per failed link found; nothing
    /// is allocated unless more than eight maximal dead blocks remain.
    pub fn survivors(&self, topo: &Topology, s: PnId, d: PnId) -> SurvivorSet {
        let kappa = topo.nca_level(s, d);
        let paths = topo.w_prod(kappa);
        let mut set = SurvivorSet {
            paths,
            dead: 0,
            blocks: Blocks::Inline(0, [(0, 0); INLINE_BLOCKS]),
        };
        if self.num_failed_links == 0 {
            return set;
        }
        for l in 1..=kappa {
            let span = topo.w_prod(l);
            let size = paths / span;
            let w = u64::from(topo.spec().w_at(l));
            let m = u64::from(topo.spec().m_at(l));
            let below = topo.w_prod(l - 1);
            let up = topo.up_cone_start(l, u64::from(s.0) / topo.m_prod(l - 1));
            self.for_each_failed_in(up, span, |at| {
                set.kill(topo, l, at / w + at % w * below, size);
            });
            let child = u64::from(topo.pn_digit(d, l));
            let down = topo.down_cone_start(l, u64::from(d.0) / topo.m_prod(l));
            self.for_each_failed_in(down, span * m, |at| {
                if at % m == child {
                    set.kill(topo, l, at / m, size);
                }
            });
        }
        set.blocks.seal();
        set
    }

    /// Call `f` with the offset from `start` of every failed link id in
    /// `[start, start + len)`, in ascending order, a bitmap word at a
    /// time.
    fn for_each_failed_in(&self, start: u64, len: u64, mut f: impl FnMut(u64)) {
        let end = start + len;
        let first = start / 64;
        let words = self
            .failed
            .iter()
            .skip(usize::try_from(first).unwrap_or(usize::MAX));
        for (base, &word) in (first..).map(|w| w * 64).zip(words) {
            if base >= end {
                break;
            }
            let mut bits = word;
            if base < start {
                bits &= u64::MAX << (start - base);
            }
            if end - base < 64 {
                bits &= u64::MAX >> (64 - (end - base));
            }
            while bits != 0 {
                f(base + u64::from(bits.trailing_zeros()) - start);
                bits &= bits - 1;
            }
        }
    }

    /// Append the surviving path ids of the pair to `out` (cleared
    /// first), in canonical enumeration order.
    pub fn fill_surviving(&self, topo: &Topology, s: PnId, d: PnId, out: &mut Vec<PathId>) {
        out.clear();
        out.extend(self.survivors(topo, s, d).iter());
    }

    /// Number of surviving shortest paths of the pair.
    pub fn num_surviving(&self, topo: &Topology, s: PnId, d: PnId) -> u64 {
        self.survivors(topo, s, d).count()
    }

    /// Whether at least one shortest path of the pair survives.
    pub fn connected(&self, topo: &Topology, s: PnId, d: PnId) -> bool {
        self.survivors(topo, s, d).count() > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::XgftSpec;

    fn fig3() -> Topology {
        Topology::new(XgftSpec::new(&[4, 4, 4], &[1, 2, 4]).unwrap())
    }

    #[test]
    fn default_is_fault_free() {
        let t = fig3();
        let f = FaultSet::default();
        assert!(f.is_empty());
        assert_eq!(f.num_failed_links(), 0);
        for id in 0..t.num_links() {
            assert!(!f.is_link_failed(DirectedLinkId(id)));
        }
        let (s, d) = (PnId(0), PnId(63));
        assert_eq!(f.num_surviving(&t, s, d), t.num_paths(s, d));
        assert!(f.connected(&t, s, d));
    }

    #[test]
    fn failing_a_link_kills_exactly_the_paths_through_it() {
        let t = fig3();
        let (s, d) = (PnId(0), PnId(63));
        // Fail the first up-link of the d-mod-k path (PN 0's only cable
        // climbs through up port 0 — but w_1 = 1, so *every* path of the
        // pair uses it).
        let mut f = FaultSet::new();
        f.fail_link(t.up_link(1, 0, 0));
        assert_eq!(f.num_failed_links(), 1);
        assert_eq!(f.num_surviving(&t, s, d), 0);
        assert!(!f.connected(&t, s, d));
        // The reverse pair is unaffected: down-links are distinct ids.
        assert_eq!(f.num_surviving(&t, d, s), t.num_paths(d, s));
    }

    #[test]
    fn level2_link_failure_halves_the_paths() {
        // Paths of (0, 63) split 4/4 over the two level-2 up-links of
        // switch (1, 0…0); killing one leaves 4 survivors.
        let t = fig3();
        let (s, d) = (PnId(0), PnId(63));
        let mut f = FaultSet::new();
        f.fail_link(t.up_link(2, 0, 0));
        assert_eq!(f.num_surviving(&t, s, d), 4);
        let mut out = Vec::new();
        f.fill_surviving(&t, s, d, &mut out);
        assert_eq!(out.len(), 4);
        for p in out {
            assert!(f.path_survives(&t, s, d, p));
        }
    }

    #[test]
    fn switch_failure_cuts_all_incident_links() {
        let t = fig3();
        let top = NodeId { level: 3, rank: 0 };
        let mut f = FaultSet::new();
        f.fail_switch(&t, top);
        assert!(f.is_switch_failed(top));
        assert!(!f.is_switch_failed(NodeId { level: 3, rank: 1 }));
        // A top switch has m_3 = 4 children: 4 up-links in, 4 down out.
        assert_eq!(f.num_failed_links(), 8);
        // Path 0 of (0, 63) goes through top switch 0 (construction
        // number = path id); it is dead, path 1 survives.
        assert!(!f.path_survives(&t, PnId(0), PnId(63), PathId(0)));
        assert!(f.path_survives(&t, PnId(0), PnId(63), PathId(1)));
        assert_eq!(f.num_surviving(&t, PnId(0), PnId(63)), 7);
    }

    #[test]
    fn sampling_is_deterministic_and_rate_scaled() {
        let t = fig3();
        let a = FaultSet::sample(&t, 0.05, 0.0, 42);
        let b = FaultSet::sample(&t, 0.05, 0.0, 42);
        assert_eq!(a, b);
        let c = FaultSet::sample(&t, 0.05, 0.0, 43);
        assert_ne!(a, c, "different seeds should give different draws");
        // Rate 0 is empty; rate 1 fails everything.
        assert!(FaultSet::sample(&t, 0.0, 0.0, 1).is_empty());
        let all = FaultSet::sample(&t, 1.0, 0.0, 1);
        assert_eq!(all.num_failed_links(), t.num_links());
        // 5% of 224 links ≈ 11; allow generous slack.
        assert!(a.num_failed_links() >= 2 && a.num_failed_links() <= 30);
        assert_eq!(a.failed_links().count() as u32, a.num_failed_links());
    }

    #[test]
    fn recovery_restores_fault_free_behaviour() {
        let t = fig3();
        let mut f = FaultSet::new();
        let link = t.up_link(2, 0, 0);
        f.fail_link(link);
        f.recover_link(link);
        assert!(f.is_empty());
        assert_eq!(f, FaultSet::default());
        // Recovering an alive link is a no-op.
        f.recover_link(link);
        assert!(f.is_empty());

        let top = NodeId { level: 3, rank: 0 };
        f.fail_switch(&t, top);
        assert_eq!(f.num_failed_links(), 8);
        f.recover_switch(&t, top);
        assert!(f.is_empty());
        assert!(!f.is_switch_failed(top));
    }

    #[test]
    fn self_pair_always_survives() {
        let t = fig3();
        let f = FaultSet::sample(&t, 1.0, 1.0, 7);
        assert!(f.connected(&t, PnId(5), PnId(5)));
        assert!(f.path_survives(&t, PnId(5), PnId(5), PathId(0)));
    }

    #[test]
    fn surviving_and_failed_partition_the_enumeration() {
        // Property: for random topologies, fault sets and SD pairs, the
        // surviving paths and the failed paths are disjoint classes
        // whose union is the full canonical enumeration, and
        // `num_surviving` / `connected` agree with the partition.
        let specs = [
            XgftSpec::new(&[4, 4], &[1, 4]).unwrap(),
            XgftSpec::new(&[4, 4, 4], &[1, 2, 4]).unwrap(),
            XgftSpec::new(&[2, 2, 2], &[2, 2, 2]).unwrap(),
            XgftSpec::new(&[4, 4, 8], &[1, 4, 4]).unwrap(),
        ];
        let mut rng = 0xDEAD_BEEFu64;
        for spec in specs {
            let t = Topology::new(spec);
            for case in 0u64..8 {
                let link_rate = [0.0, 0.02, 0.1, 0.5][case as usize % 4];
                let switch_rate = if case % 2 == 0 { 0.0 } else { 0.05 };
                let f = FaultSet::sample(&t, link_rate, switch_rate, case ^ 0x5EED);
                for _ in 0..16 {
                    let s = PnId((splitmix::next(&mut rng) % t.num_pns() as u64) as u32);
                    let d = PnId((splitmix::next(&mut rng) % t.num_pns() as u64) as u32);
                    let x = t.num_paths(s, d);
                    let mut surviving = Vec::new();
                    f.fill_surviving(&t, s, d, &mut surviving);
                    let failed: Vec<PathId> = t
                        .all_paths(s, d)
                        .filter(|&p| !f.path_survives(&t, s, d, p))
                        .collect();
                    assert_eq!(
                        surviving.len() as u64 + failed.len() as u64,
                        x,
                        "partition must cover the enumeration"
                    );
                    let mut union: Vec<PathId> = surviving.iter().chain(&failed).copied().collect();
                    union.sort_unstable_by_key(|p| p.0);
                    union.dedup();
                    assert_eq!(union.len() as u64, x, "classes must be disjoint");
                    assert!(union.iter().all(|p| p.0 < x));
                    assert_eq!(f.num_surviving(&t, s, d), surviving.len() as u64);
                    assert_eq!(f.connected(&t, s, d), !surviving.is_empty());
                    assert!(
                        surviving.windows(2).all(|w| w[0].0 < w[1].0),
                        "canonical order"
                    );
                }
            }
        }
    }
}
