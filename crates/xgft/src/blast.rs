//! Blast radius of a fault-change batch: which SD pairs a changed link
//! can touch, derived from the topology alone.
//!
//! For a directed link at level `l` (its lower endpoint `B` is the
//! level-`l−1` node), the canonical enumeration routes a pair through
//! it exactly when the pair straddles `B`'s height-`l−1` sub-tree `R`:
//! `R × ¬R` for up-links, `¬R × R` for down-links. The climb from a
//! source fixes the label digits at positions `l..h` to the source's —
//! so it can reach `B` iff the source lies under `B` — and reaches
//! level `l` at all iff the NCA is at `l` or above, i.e. the
//! destination is *outside* `R`; the digits below `l` are free port
//! choices, so every such pair has some canonical path over the link.
//! Descents are the mirror image.
//!
//! Sub-tree leaf ranges are aligned and the ranges containing a given
//! PN are nested across levels, so per PN only the *smallest* touched
//! range per direction matters. [`BlastRadius`] stores exactly that —
//! two `[lo, hi)` PN ranges per processing node — which makes
//! membership two range tests and keeps the geometry in one place for
//! its two users: the routing controller's certification scope
//! (`lmpr_verify::change_blast_radius`) and the selection cache's
//! scoped flush (`lmpr_core::SelectionEngine::apply_changes`).

use crate::{DirectedLinkId, FaultChange, LinkDir, PnId, Topology};

/// A PN range no PN can escape: the "untouched" marker.
const UNTOUCHED: (u32, u32) = (0, u32::MAX);

/// Index a per-PN vector (lossless: PN ids are `u32`).
fn ix(pn: u32) -> usize {
    pn as usize
}

/// Per processing node, the smallest touched sub-tree range on its
/// source side (below a touched up-link) and on its destination side
/// (below a touched down-link).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlastRadius {
    /// `up[s]`: leaf range `[lo, hi)` of the smallest sub-tree
    /// containing `s` whose outgoing up-link was touched.
    up: Vec<(u32, u32)>,
    /// `down[d]`: leaf range of the smallest sub-tree containing `d`
    /// whose incoming down-link was touched.
    down: Vec<(u32, u32)>,
}

impl BlastRadius {
    /// The empty radius (no link touched, no pair contained).
    pub fn new(topo: &Topology) -> Self {
        let n = ix(topo.num_pns());
        BlastRadius {
            up: vec![UNTOUCHED; n],
            down: vec![UNTOUCHED; n],
        }
    }

    /// The radius of a whole batch. Up and down *events* contribute
    /// identically: a pair's selection is a pure function of the
    /// survival bits of its canonical enumeration, so any pair whose
    /// space contains a changed element may select differently.
    pub fn of_changes(topo: &Topology, changes: &[FaultChange]) -> Self {
        let mut radius = BlastRadius::new(topo);
        for &change in changes {
            radius.touch(topo, change);
        }
        radius
    }

    /// Widen the radius by one change; switch changes expand to the
    /// switch's incident links, mirroring
    /// [`FaultSet::fail_switch`](crate::FaultSet::fail_switch).
    pub fn touch(&mut self, topo: &Topology, change: FaultChange) {
        match change {
            FaultChange::LinkDown(l) | FaultChange::LinkUp(l) => self.touch_link(topo, l),
            FaultChange::SwitchDown(n) | FaultChange::SwitchUp(n) => {
                for l in topo.incident_links(n) {
                    self.touch_link(topo, l);
                }
            }
        }
    }

    /// Widen the radius by one directed link.
    pub fn touch_link(&mut self, topo: &Topology, link: DirectedLinkId) {
        let e = topo.endpoints(link);
        let (lower, side) = match e.dir {
            LinkDir::Up => (e.from, &mut self.up),
            LinkDir::Down => (e.to, &mut self.down),
        };
        // The lower endpoint's rank is `low + Π_{i<l} w_i · sub`, where
        // `sub` indexes its height-(l−1) sub-tree among its peers.
        let below = usize::from(e.level) - 1;
        let size = topo.subtree_pns(below);
        let lo = (u64::from(lower.rank) / topo.w_prod(below)) as u32 * size;
        for slot in &mut side[ix(lo)..ix(lo + size)] {
            if size < slot.1 - slot.0 {
                *slot = (lo, lo + size);
            }
        }
    }

    /// Whether some canonical path of `(s, d)` crosses a touched link:
    /// `d` escapes `s`'s smallest touched source-side range, or `s`
    /// escapes `d`'s smallest touched destination-side range. A
    /// self-pair never escapes its own range.
    pub fn contains(&self, s: PnId, d: PnId) -> bool {
        let escapes = |(lo, hi): (u32, u32), pn: PnId| pn.0 < lo || pn.0 >= hi;
        escapes(self.up[ix(s.0)], d) || escapes(self.down[ix(d.0)], s)
    }

    /// Every contained pair exactly once, in lexicographic order:
    /// O(n²) membership tests.
    pub fn pairs(&self) -> Vec<(PnId, PnId)> {
        let pns = || (0..).map(PnId).take(self.up.len());
        let mut pairs = Vec::new();
        for s in pns() {
            pairs.extend(pns().map(|d| (s, d)).filter(|&(s, d)| self.contains(s, d)));
        }
        pairs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NodeId, XgftSpec};

    fn fig3() -> Topology {
        Topology::new(XgftSpec::new(&[4, 4, 4], &[1, 2, 4]).unwrap())
    }

    #[test]
    fn empty_radius_contains_nothing() {
        let t = fig3();
        let r = BlastRadius::of_changes(&t, &[]);
        assert!(r.pairs().is_empty());
        assert!(!r.contains(PnId(0), PnId(63)));
    }

    #[test]
    fn a_level2_uplink_straddles_its_subtree() {
        // The lower endpoint of up_link(2, 0, 0) is level-1 switch 0,
        // whose sub-tree holds PNs 0..4: sources inside, destinations
        // outside.
        let t = fig3();
        let r = BlastRadius::of_changes(&t, &[FaultChange::LinkDown(t.up_link(2, 0, 0))]);
        assert!(r.contains(PnId(0), PnId(63)));
        assert!(r.contains(PnId(3), PnId(4)));
        assert!(!r.contains(PnId(0), PnId(3)), "stays below level 2");
        assert!(!r.contains(PnId(63), PnId(0)), "down-links are distinct");
        assert!(!r.contains(PnId(0), PnId(0)));
        assert_eq!(r.pairs().len(), 4 * 60);
    }

    #[test]
    fn the_smallest_touched_range_wins() {
        let t = fig3();
        let mut r = BlastRadius::new(&t);
        r.touch_link(&t, t.up_link(3, 0, 0)); // sub-tree 0..16
        assert!(!r.contains(PnId(0), PnId(5)));
        r.touch_link(&t, t.up_link(2, 0, 0)); // sub-tree 0..4
        assert!(r.contains(PnId(0), PnId(5)));
        assert!(!r.contains(PnId(5), PnId(0)), "PN 5 only has the larger");
        assert!(r.contains(PnId(5), PnId(16)));
    }

    #[test]
    fn switch_changes_expand_to_incident_links() {
        let t = fig3();
        let node = NodeId { level: 3, rank: 0 };
        let by_switch = BlastRadius::of_changes(&t, &[FaultChange::SwitchUp(node)]);
        let mut by_links = BlastRadius::new(&t);
        for l in t.incident_links(node) {
            by_links.touch_link(&t, l);
        }
        assert_eq!(by_switch, by_links);
        assert!(!by_switch.pairs().is_empty());
    }
}
