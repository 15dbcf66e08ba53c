//! Link- and switch-failure modelling.
//!
//! A [`FaultSet`] records which *directed* links of a topology are down.
//! Whole-switch failures are expressed through their incident links (a
//! dead switch can neither receive nor forward), so every survivability
//! question reduces to "does this path avoid every failed link" — which
//! [`Topology::walk_path`] answers without allocating.
//!
//! The set is independent of any particular topology object: it stores a
//! growable bitmap over link ids plus the list of failed switches, so
//! [`FaultSet::default`] is the fault-free network and adds no cost to
//! fault-free code paths.

use crate::{DirectedLinkId, NodeId, PathId, PnId, Topology};
use lmpr_codec::splitmix;

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

    /// Append the surviving path ids of the pair to `out` (cleared
    /// first), in canonical enumeration order.
    pub fn fill_surviving(&self, topo: &Topology, s: PnId, d: PnId, out: &mut Vec<PathId>) {
        out.clear();
        out.extend(
            topo.all_paths(s, d)
                .filter(|&p| self.path_survives(topo, s, d, p)),
        );
    }

    /// Number of surviving shortest paths of the pair.
    pub fn num_surviving(&self, topo: &Topology, s: PnId, d: PnId) -> u64 {
        topo.all_paths(s, d)
            .filter(|&p| self.path_survives(topo, s, d, p))
            .count() as u64
    }

    /// Whether at least one shortest path of the pair survives.
    pub fn connected(&self, topo: &Topology, s: PnId, d: PnId) -> bool {
        topo.all_paths(s, d)
            .any(|p| self.path_survives(topo, s, d, p))
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
