//! The disjoint limited multi-path heuristic and its stride ablation.

use crate::Router;
use xgft::{PathId, PnId, Topology};

/// Disjoint heuristic (§4.2.3): keep the d-mod-k structure but shift the
/// path index so that successive selections fork as *low* in the tree as
/// possible, maximizing link-disjointness among the `K` chosen paths.
///
/// Writing the path id in the mixed radix `u_1·Δ_1 + … + u_κ·Δ_κ` with
/// `Δ_t = Π_{i>t} w_i`, the selection enumerates offsets `δ` from the
/// d-mod-k index `i` in the order produced by the paper's recursion:
///
/// * the first `w_1` offsets vary only the level-1 digit (`δ = j·Δ_1`) —
///   these paths fork at the processing node and are fully link-disjoint;
/// * the next factor varies the level-2 digit (`level-1 disjoint groups
///   starting from i, i + Δ_2, …, i + (w_2 - 1)·Δ_2`) — forks at level-1
///   switches;
/// * and so on up to level κ.
///
/// Equivalently, offset number `n` is the mixed-radix *digit reversal*
/// of `n` (a van-der-Corput sequence): write
/// `n = n_1 + n_2·w_1 + n_3·w_1 w_2 + …` and emit
/// `δ(n) = n_1·Δ_1 + n_2·Δ_2 + …`.
///
/// For the paper's worked pair `(0, 63)` in `XGFT(3; 4,4,4; 1,2,4)` with
/// d-mod-k index 7 this yields 7, 3, 0, 4, 1, 5, 2, 6 — the first two
/// (7 and 3) are exactly the level-1-forking pair called out in §4.2.3.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Disjoint {
    k: u64,
}

impl Disjoint {
    /// Build a disjoint router with path budget `K ≥ 1`.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(k: u64) -> Self {
        Self::try_new(k).expect("the path budget K must be at least 1")
    }

    /// Fallible constructor: [`RouteError::ZeroBudget`](crate::RouteError::ZeroBudget)
    /// instead of a panic when `k == 0`.
    pub fn try_new(k: u64) -> Result<Self, crate::RouteError> {
        if k == 0 {
            return Err(crate::RouteError::ZeroBudget);
        }
        Ok(Disjoint { k })
    }

    /// The configured path budget.
    pub fn k(&self) -> u64 {
        self.k
    }

    /// Offset of the `n`-th selected path from the d-mod-k index:
    /// mixed-radix digit reversal of `n` over the radices
    /// `(w_1, …, w_κ)` of the NCA sub-tree.
    fn offset(topo: &Topology, kappa: usize, n: u64) -> u64 {
        let x = topo.w_prod(kappa);
        let mut delta = 0u64;
        let mut rem = n;
        for t in 1..=kappa {
            let w_t = topo.spec().w_at(t) as u64;
            let digit = rem % w_t;
            rem /= w_t;
            delta += digit * (x / topo.w_prod(t));
        }
        delta
    }
}

impl Router for Disjoint {
    fn fill_paths(&self, topo: &Topology, s: PnId, d: PnId, out: &mut Vec<PathId>) {
        out.clear();
        let kappa = topo.nca_level(s, d);
        let x = topo.w_prod(kappa);
        let i = topo.dmodk_path(s, d).0;
        let take = self.k.min(x);
        out.extend((0..take).map(|n| PathId((i + Self::offset(topo, kappa, n)) % x)));
    }

    fn name(&self) -> String {
        format!("disjoint({})", self.k)
    }
}

/// Maximal-stride variant of the disjoint selection (ablation): the
/// `n`-th path is `(i + ⌊n·X/K'⌋) mod X` with `K' = min(K, X)`.
///
/// When `K` divides `X` the selected ids are evenly spaced over the path
/// space, which matches the alternative reading of the paper's garbled
/// worked example (paths 7, 1, 3, 5 for `K = 4`). On symmetric XGFTs the
/// two variants are statistically equivalent; ablation A1
/// (`fig4 -- b ablation`) quantifies this.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DisjointStride {
    k: u64,
}

impl DisjointStride {
    /// Build a stride-disjoint router with path budget `K ≥ 1`.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(k: u64) -> Self {
        Self::try_new(k).expect("the path budget K must be at least 1")
    }

    /// Fallible constructor: [`RouteError::ZeroBudget`](crate::RouteError::ZeroBudget)
    /// instead of a panic when `k == 0`.
    pub fn try_new(k: u64) -> Result<Self, crate::RouteError> {
        if k == 0 {
            return Err(crate::RouteError::ZeroBudget);
        }
        Ok(DisjointStride { k })
    }

    /// The configured path budget.
    pub fn k(&self) -> u64 {
        self.k
    }
}

impl Router for DisjointStride {
    fn fill_paths(&self, topo: &Topology, s: PnId, d: PnId, out: &mut Vec<PathId>) {
        out.clear();
        let x = topo.num_paths(s, d);
        let i = topo.dmodk_path(s, d).0;
        let take = self.k.min(x);
        out.extend((0..take).map(|n| PathId((i + n * x / take) % x)));
    }

    fn name(&self) -> String {
        format!("disjoint-stride({})", self.k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DModK, ShiftOne};
    use xgft::{XgftSpec, MAX_HEIGHT};

    fn fig3() -> Topology {
        Topology::new(XgftSpec::new(&[4, 4, 4], &[1, 2, 4]).unwrap())
    }

    fn ids(set: &crate::PathSet) -> Vec<u64> {
        set.paths().iter().map(|p| p.0).collect()
    }

    #[test]
    fn paper_example_level1_pair() {
        // §4.2.3: the level-1-forking partner of Path 7 is Path 3
        // (offset Δ_2 = w_3 = 4).
        let set = Disjoint::new(2).path_set(&fig3(), PnId(0), PnId(63));
        assert_eq!(ids(&set), vec![7, 3]);
    }

    #[test]
    fn literal_recursion_order() {
        let topo = fig3();
        let set = Disjoint::new(8).path_set(&topo, PnId(0), PnId(63));
        assert_eq!(ids(&set), vec![7, 3, 0, 4, 1, 5, 2, 6]);
    }

    #[test]
    fn stride_variant_matches_alternative_reading() {
        // Alternative reading of the garbled example: K = 4 → 7, 1, 3, 5.
        let set = DisjointStride::new(4).path_set(&fig3(), PnId(0), PnId(63));
        assert_eq!(ids(&set), vec![7, 1, 3, 5]);
    }

    #[test]
    fn both_variants_start_at_dmodk_and_cover_all() {
        let topo = fig3();
        for (s, d) in [(0u32, 63u32), (13, 50), (2, 33)] {
            let (s, d) = (PnId(s), PnId(d));
            let base = topo.dmodk_path(s, d);
            for k in 1..=10u64 {
                for r in [
                    Box::new(Disjoint::new(k)) as Box<dyn Router>,
                    Box::new(DisjointStride::new(k)),
                ] {
                    let set = r.path_set(&topo, s, d);
                    assert_eq!(set.paths()[0], base, "first path must be d-mod-k");
                    let expect = k.min(topo.num_paths(s, d)) as usize;
                    assert_eq!(set.len(), expect);
                    let mut v = ids(&set);
                    v.sort_unstable();
                    v.dedup();
                    assert_eq!(v.len(), expect, "paths must be distinct");
                }
            }
        }
    }

    #[test]
    fn first_w1_paths_fork_at_the_processing_node() {
        // On a topology with w_1 > 1 the first w_1 disjoint selections
        // must differ in u_1 — fully link-disjoint paths.
        let topo = Topology::new(XgftSpec::new(&[2, 2, 2], &[2, 2, 2]).unwrap());
        let (s, d) = (PnId(0), PnId(7));
        assert_eq!(topo.num_paths(s, d), 8);
        let set = Disjoint::new(2).path_set(&topo, s, d);
        let mut u = [0u32; MAX_HEIGHT];
        let mut first_hops = std::collections::HashSet::new();
        for &p in set.paths() {
            topo.path_up_ports(s, d, p, &mut u);
            first_hops.insert(u[0]);
        }
        assert_eq!(
            first_hops.len(),
            2,
            "first w_1 paths must use distinct PN ports"
        );
    }

    #[test]
    fn level_structure_of_selection() {
        // First w_1·w_2 selections use every (u_1, u_2) combination once.
        let topo = Topology::new(XgftSpec::new(&[2, 2, 2], &[2, 2, 2]).unwrap());
        let (s, d) = (PnId(1), PnId(6));
        let set = Disjoint::new(4).path_set(&topo, s, d);
        let mut u = [0u32; MAX_HEIGHT];
        let mut combos = std::collections::HashSet::new();
        for &p in set.paths() {
            topo.path_up_ports(s, d, p, &mut u);
            combos.insert((u[0], u[1]));
        }
        assert_eq!(combos.len(), 4);
    }

    #[test]
    fn k1_equals_dmodk_and_full_k_is_all_paths() {
        let topo = fig3();
        let (s, d) = (PnId(5), PnId(58));
        assert_eq!(
            Disjoint::new(1).path_set(&topo, s, d),
            DModK.path_set(&topo, s, d)
        );
        let all = Disjoint::new(1000).path_set(&topo, s, d);
        assert_eq!(all.len() as u64, topo.num_paths(s, d));
        // Same coverage as shift-1 at full budget (both become UMULTI).
        let mut a = ids(&all);
        let mut b = ids(&ShiftOne::new(1000).path_set(&topo, s, d));
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_budget_rejected() {
        let _ = Disjoint::new(0);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_budget_rejected_stride() {
        let _ = DisjointStride::new(0);
    }
}
