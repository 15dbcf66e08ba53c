//! Shortest-path enumeration between processing nodes.
//!
//! For an SD pair whose nearest common ancestor (NCA) is at level `κ`,
//! every shortest path is determined by the sequence of up-port choices
//! `(u_1, …, u_κ)` with `u_i < w_i`: the climb ends at the top-level
//! switch of the NCA sub-tree whose low `κ` label digits are exactly
//! `(u_1, …, u_κ)`, and the descent to the destination is then unique.
//!
//! The paper enumerates paths "by leftmost top-level switch"; in label
//! arithmetic that is the mixed-radix number
//!
//! ```text
//! PathId = u_1·(w_2 ⋯ w_κ) + u_2·(w_3 ⋯ w_κ) + … + u_κ
//! ```
//!
//! with `u_1` most significant. This module implements that bijection and
//! the destination-mod-k path index, and walks a path's directed links
//! without allocating: by closed-form link arithmetic ([`PairWalk`], built
//! once per pair), or digit by digit along the nodes' labels
//! ([`Topology::walk_path_by_labels`], the reference).

use crate::{DirectedLinkId, NodeId, PathId, PnId, Topology, MAX_HEIGHT};

impl Topology {
    /// Level of the nearest common ancestor of `s` and `d`: the highest
    /// label position at which the two PNs differ, or 0 when `s == d`.
    pub fn nca_level(&self, s: PnId, d: PnId) -> usize {
        debug_assert!(s.0 < self.num_pns() && d.0 < self.num_pns());
        for i in (1..=self.height()).rev() {
            if self.pn_digit(s, i) != self.pn_digit(d, i) {
                return i;
            }
        }
        0
    }

    /// Number of distinct shortest paths between `s` and `d`
    /// (Property 1: `Π_{i=1..κ} w_i`). Returns 1 for `s == d` (the empty
    /// path), so the value is always a valid path-count denominator.
    pub fn num_paths(&self, s: PnId, d: PnId) -> u64 {
        self.w_prod(self.nca_level(s, d))
    }

    /// Decompose a path index into its up-port choices `(u_1, …, u_κ)`;
    /// writes `u_i` to `out[i-1]` and returns `κ`.
    ///
    /// # Panics
    ///
    /// Panics if `path` is out of range for the pair.
    pub fn path_up_ports(&self, s: PnId, d: PnId, path: PathId, out: &mut [u32]) -> usize {
        let kappa = self.nca_level(s, d);
        let x = self.w_prod(kappa);
        assert!(path.0 < x, "path {} out of range (X = {x})", path.0);
        let mut p = path.0;
        // u_1 is most significant: weight of u_i is Π_{j=i+1..κ} w_j.
        for i in 1..=kappa {
            let weight = x / self.w_prod(i);
            out[i - 1] = (p / weight) as u32;
            p %= weight;
        }
        kappa
    }

    /// Compose a path index from up-port choices (inverse of
    /// [`Topology::path_up_ports`]).
    pub fn path_from_up_ports(&self, s: PnId, d: PnId, ports: &[u32]) -> PathId {
        let kappa = self.nca_level(s, d);
        debug_assert_eq!(ports.len(), kappa);
        let x = self.w_prod(kappa);
        let mut p: u64 = 0;
        for i in 1..=kappa {
            let weight = x / self.w_prod(i);
            debug_assert!(ports[i - 1] < self.spec().w_at(i));
            p += ports[i - 1] as u64 * weight;
        }
        PathId(p)
    }

    /// The destination-mod-k path for an SD pair: climbing from level
    /// `k-1` to level `k`, d-mod-k takes the up port
    /// `u_k = ⌊ d / Π_{i<k} w_i ⌋ mod w_k`.
    ///
    /// Verified against the paper's worked example: in
    /// `XGFT(3; 4,4,4; 1,2,4)` the pair `(0, 63)` routes on Path 7.
    pub fn dmodk_path(&self, s: PnId, d: PnId) -> PathId {
        let kappa = self.nca_level(s, d);
        let x = self.w_prod(kappa);
        let mut p: u64 = 0;
        for i in 1..=kappa {
            let u = (d.0 as u64 / self.w_prod(i - 1)) % self.spec().w_at(i) as u64;
            let weight = x / self.w_prod(i);
            p += u * weight;
        }
        PathId(p)
    }

    /// The source-mod-k path (the symmetric scheme; the paper reports it
    /// performs within noise of d-mod-k). Provided for completeness and
    /// ablations.
    pub fn smodk_path(&self, s: PnId, d: PnId) -> PathId {
        let kappa = self.nca_level(s, d);
        let x = self.w_prod(kappa);
        let mut p: u64 = 0;
        for i in 1..=kappa {
            let u = (s.0 as u64 / self.w_prod(i - 1)) % self.spec().w_at(i) as u64;
            let weight = x / self.w_prod(i);
            p += u * weight;
        }
        PathId(p)
    }

    /// Visit every directed link of a path, in order (κ up-links then κ
    /// down-links). Allocation-free. Does nothing when `s == d`.
    ///
    /// # Panics
    ///
    /// Panics if `path` is out of range for the pair.
    pub fn walk_path<F: FnMut(DirectedLinkId)>(&self, s: PnId, d: PnId, path: PathId, f: F) {
        self.pair_walk(s, d).walk(path, f);
    }

    /// The closed-form walk of the pair's paths: build it once, then
    /// [`PairWalk::walk`] any number of them without label digits. The
    /// build divides `s` and `d` by `m_l` level by level until the two
    /// quotients meet, which happens past the NCA level, so it finds κ
    /// and every base in one pass.
    pub fn pair_walk(&self, s: PnId, d: PnId) -> PairWalk {
        let mut walk = PairWalk {
            kappa: 0,
            paths: 1,
            w: [0; MAX_HEIGHT],
            m: [0; MAX_HEIGHT],
            below: [0; MAX_HEIGHT],
            climb: [0; MAX_HEIGHT],
            descent: [0; MAX_HEIGHT],
        };
        // At level l, `qs = ⌊s / m_prod(l−1)⌋` and `qd = ⌊d / m_prod(l−1)⌋`
        // are the two PNs' label digits from position l up; they differ
        // until l passes the NCA level κ.
        let (mut qs, mut qd) = (u64::from(s.0), u64::from(d.0));
        while qs != qd {
            let l = walk.kappa + 1;
            let m = self.spec().m_at(l);
            let digit = qd % u64::from(m);
            walk.w[l - 1] = self.spec().w_at(l);
            walk.m[l - 1] = m;
            // All fit: w_prod(l − 1) counts nodes of level l − 1, and
            // the cone starts are link ids of this topology.
            walk.below[l - 1] = self.w_prod(l - 1) as u32;
            walk.climb[l - 1] = self.up_cone_start(l, qs) as u32;
            qs /= u64::from(m);
            qd /= u64::from(m);
            walk.descent[l - 1] = (self.down_cone_start(l, qd) + digit) as u32;
            walk.kappa = l;
        }
        walk.paths = self.w_prod(walk.kappa);
        walk
    }

    /// The digit-by-digit walk [`Topology::walk_path`] replaced: the
    /// same links in the same order, reached by converting every node
    /// on the way to its label digits and back. Slow and obvious, it is
    /// the reference the closed form and [`FaultSet::survivors`]
    /// (which shares its cone arithmetic) are checked against.
    ///
    /// [`FaultSet::survivors`]: crate::FaultSet::survivors
    ///
    /// # Panics
    ///
    /// Panics if `path` is out of range for the pair.
    pub fn walk_path_by_labels<F: FnMut(DirectedLinkId)>(
        &self,
        s: PnId,
        d: PnId,
        path: PathId,
        mut f: F,
    ) {
        let mut ports = [0u32; MAX_HEIGHT];
        let kappa = self.path_up_ports(s, d, path, &mut ports);
        if kappa == 0 {
            return;
        }
        // Climb: maintain the current node's digits; at step l the level-
        // (l-1) node's digit l (position l) flips from the source's m-radix
        // digit to the chosen w-radix port.
        let mut digits = [0u32; MAX_HEIGHT];
        self.digits_of(NodeId::pn(s), &mut digits);
        let mut rank = s.0;
        for l in 1..=kappa {
            f(self.up_link(l, rank, ports[l - 1]));
            digits[l - 1] = ports[l - 1];
            rank = self.node_from_digits(l, &digits).rank;
        }
        // Descend: at step l the child index is the destination's digit l.
        for l in (1..=kappa).rev() {
            let child = self.pn_digit(d, l);
            f(self.down_link(l, rank, child));
            digits[l - 1] = child;
            rank = self.node_from_digits(l - 1, &digits).rank;
        }
        debug_assert_eq!(rank, d.0, "path must terminate at the destination");
    }

    /// The sequence of nodes a path visits, source and destination
    /// included (`2κ + 1` nodes). Allocates; intended for tests, display
    /// and route construction, not for hot loops.
    pub fn path_nodes(&self, s: PnId, d: PnId, path: PathId) -> Vec<NodeId> {
        let mut nodes = vec![NodeId::pn(s)];
        self.walk_path(s, d, path, |link| {
            nodes.push(self.endpoints(link).to);
        });
        nodes
    }

    /// The sequence of output-port indices a source-routed packet needs:
    /// entry `j` is the output port taken at the `j`-th node of
    /// [`Topology::path_nodes`] (so the vector has `2κ` entries).
    pub fn path_output_ports(&self, s: PnId, d: PnId, path: PathId) -> Vec<u32> {
        let mut ports = Vec::new();
        self.walk_path(s, d, path, |link| {
            ports.push(self.endpoints(link).from_port);
        });
        ports
    }

    /// Iterator over all path ids of an SD pair.
    pub fn all_paths(&self, s: PnId, d: PnId) -> impl Iterator<Item = PathId> {
        (0..self.num_paths(s, d)).map(PathId)
    }
}

/// A materialized walk of one path: nodes and links, for pretty-printing
/// (mirrors the path listings in the paper's Section 4).
#[derive(Debug, Clone)]
pub struct PathWalk {
    /// Visited nodes, endpoints included.
    pub nodes: Vec<NodeId>,
    /// Traversed directed links.
    pub links: Vec<DirectedLinkId>,
}

impl PathWalk {
    /// Materialize a path.
    pub fn collect(topo: &Topology, s: PnId, d: PnId, path: PathId) -> Self {
        let mut links = Vec::new();
        topo.walk_path(s, d, path, |l| links.push(l));
        PathWalk {
            nodes: topo.path_nodes(s, d, path),
            links,
        }
    }
}

/// The shortest paths of one SD pair as closed-form link arithmetic,
/// built by [`Topology::pair_walk`] and cheap to copy.
///
/// A path with up-port choices `u_1 … u_κ` passes, at level `l`, the
/// switch whose low label digits are `u_1 … u_l` and whose digits above
/// `l` are the source's while climbing and the destination's while
/// descending. Its rank is the running prefix
/// `P_l = Σ_{i≤l} u_i·w_prod(i−1)` plus a base fixed by the pair:
/// `w_prod(l−1)·⌊s / m_prod(l−1)⌋` for the level-`l − 1` node a climb
/// leaves, `w_prod(l)·⌊d / m_prod(l)⌋` for the level-`l` node a descent
/// leaves. Link ids are linear in the rank, so the walk keeps one base
/// link id per level and direction — the first id of the pair's up cone
/// (the cone [`FaultSet::survivors`] scans) and the descent's link
/// towards `d`'s digit `l` in its down cone — and reaches the up-link
/// at `climb_l + P_{l−1}·w_l + u_l` and the down-link at
/// `descent_l + P_l·m_l`. A path costs one mixed-radix split of its id
/// and no division per hop.
///
/// [`FaultSet::survivors`]: crate::FaultSet::survivors
#[derive(Debug, Clone, Copy)]
pub struct PairWalk {
    kappa: usize,
    /// `X = w_prod(κ)`, the size of the pair's path space.
    paths: u64,
    /// `w[l − 1] = w_l`.
    w: [u32; MAX_HEIGHT],
    /// `m[l − 1] = m_l`.
    m: [u32; MAX_HEIGHT],
    /// `below[l − 1] = w_prod(l − 1)`, the weight of `u_l` in `P_l`.
    below: [u32; MAX_HEIGHT],
    /// `climb[l − 1]`: the up-link of level `l` the climb takes when
    /// `P_{l−1} = 0` and `u_l = 0`.
    climb: [u32; MAX_HEIGHT],
    /// `descent[l − 1]`: the down-link of level `l` the descent takes
    /// when `P_l = 0`.
    descent: [u32; MAX_HEIGHT],
}

impl PairWalk {
    /// The pair's NCA level `κ`: every path has `2κ` links.
    pub fn kappa(&self) -> usize {
        self.kappa
    }

    /// The number of the pair's shortest paths, `w_prod(κ)`.
    pub fn num_paths(&self) -> u64 {
        self.paths
    }

    /// Visit every directed link of `path`, in the order and with the
    /// ids [`Topology::walk_path_by_labels`] gives: κ up-links, then κ
    /// down-links. Allocation-free; does nothing when `κ = 0`.
    ///
    /// # Panics
    ///
    /// Panics if `path` is out of range for the pair.
    pub fn walk<F: FnMut(DirectedLinkId)>(&self, path: PathId, mut f: F) {
        assert!(
            path.0 < self.paths,
            "path {} out of range (X = {})",
            path.0,
            self.paths
        );
        let kappa = self.kappa;
        // X fits a level's node count, so the id fits u32; u_κ is the
        // least significant digit.
        let mut id = path.0 as u32;
        let mut u = [0u32; MAX_HEIGHT];
        for l in (1..=kappa).rev() {
            u[l - 1] = id % self.w[l - 1];
            id /= self.w[l - 1];
        }
        let mut prefix = 0u32;
        for l in 1..=kappa {
            f(DirectedLinkId(
                self.climb[l - 1] + prefix * self.w[l - 1] + u[l - 1],
            ));
            prefix += u[l - 1] * self.below[l - 1];
        }
        for l in (1..=kappa).rev() {
            f(DirectedLinkId(self.descent[l - 1] + prefix * self.m[l - 1]));
            prefix -= u[l - 1] * self.below[l - 1];
        }
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
    fn nca_levels() {
        let t = fig3();
        assert_eq!(t.nca_level(PnId(0), PnId(0)), 0);
        assert_eq!(t.nca_level(PnId(0), PnId(1)), 1); // same level-1 group
        assert_eq!(t.nca_level(PnId(0), PnId(4)), 2); // differ in digit 2
        assert_eq!(t.nca_level(PnId(0), PnId(63)), 3);
        assert_eq!(t.num_paths(PnId(0), PnId(1)), 1);
        assert_eq!(t.num_paths(PnId(0), PnId(4)), 2);
        assert_eq!(t.num_paths(PnId(0), PnId(63)), 8);
        assert_eq!(t.num_paths(PnId(5), PnId(5)), 1);
    }

    #[test]
    fn paper_dmodk_example() {
        // Worked example of §4.2: pair (0, 63) in XGFT(3; 4,4,4; 1,2,4)
        // has 8 paths and d-mod-k picks Path 7.
        let t = fig3();
        assert_eq!(t.dmodk_path(PnId(0), PnId(63)), PathId(7));
        // Up ports for path 7: u = (0, 1, 3).
        let mut u = [0u32; MAX_HEIGHT];
        let kappa = t.path_up_ports(PnId(0), PnId(63), PathId(7), &mut u);
        assert_eq!(kappa, 3);
        assert_eq!(&u[..3], &[0, 1, 3]);
    }

    #[test]
    fn up_port_roundtrip() {
        let t = fig3();
        let (s, d) = (PnId(3), PnId(60));
        let mut u = [0u32; MAX_HEIGHT];
        for p in t.all_paths(s, d) {
            let k = t.path_up_ports(s, d, p, &mut u);
            assert_eq!(t.path_from_up_ports(s, d, &u[..k]), p);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn path_index_out_of_range_panics() {
        let t = fig3();
        let mut u = [0u32; MAX_HEIGHT];
        t.path_up_ports(PnId(0), PnId(1), PathId(1), &mut u);
    }

    #[test]
    fn walk_reaches_destination_through_distinct_top_switches() {
        let t = fig3();
        let (s, d) = (PnId(0), PnId(63));
        let mut tops = std::collections::HashSet::new();
        for p in t.all_paths(s, d) {
            let nodes = t.path_nodes(s, d, p);
            assert_eq!(nodes.len(), 7); // 2κ+1 with κ=3
            assert_eq!(nodes[0], NodeId::pn(s));
            assert_eq!(*nodes.last().unwrap(), NodeId::pn(d));
            // Apex is the level-κ switch.
            assert_eq!(nodes[3].level, 3);
            tops.insert(nodes[3].rank);
            // Levels rise then fall by exactly one per hop.
            for w in nodes.windows(2) {
                assert_eq!((w[0].level as i32 - w[1].level as i32).abs(), 1);
            }
        }
        assert_eq!(tops.len(), 8, "each path uses a distinct top switch");
    }

    #[test]
    fn leftmost_enumeration_orders_top_switches() {
        // Path i uses the i-th leftmost top-level switch of the NCA
        // sub-tree: the apex's construction number (the paper's
        // left-to-right position) must equal the path index.
        let t = fig3();
        let (s, d) = (PnId(0), PnId(63));
        for p in t.all_paths(s, d) {
            let apex = t.path_nodes(s, d, p)[3];
            assert_eq!(t.construction_number(apex), p.0);
        }
        // Also on a lower sub-tree, relative to the sub-tree's own
        // leftmost top switch.
        let (s, d) = (PnId(16), PnId(20)); // NCA level 2
        let base = t
            .all_paths(s, d)
            .map(|p| t.construction_number(t.path_nodes(s, d, p)[2]))
            .min()
            .unwrap();
        for p in t.all_paths(s, d) {
            let apex = t.path_nodes(s, d, p)[2];
            assert_eq!(t.construction_number(apex) - base, p.0);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn pair_walk_rejects_an_out_of_range_path() {
        let t = fig3();
        t.pair_walk(PnId(0), PnId(63)).walk(PathId(8), |_| {});
    }

    #[test]
    fn pair_walk_follows_the_paper_example() {
        // Path 7 of (0, 63) climbs through up ports (0, 1, 3) and
        // descends by 63's digits (3, 3, 3).
        let t = fig3();
        let (s, d) = (PnId(0), PnId(63));
        let mut links = Vec::new();
        t.pair_walk(s, d).walk(PathId(7), |l| links.push(l));
        let mut labels = Vec::new();
        t.walk_path_by_labels(s, d, PathId(7), |l| labels.push(l));
        assert_eq!(links, labels);
        let ports: Vec<u32> = links.iter().map(|&l| t.endpoints(l).from_port).collect();
        // Up ports 0, 1, 3; then down ports to child digit 3, past the
        // w_{l+1} up ports of a level-l switch (none at the top).
        assert_eq!(ports, vec![0, 1, 3, 3, 4 + 3, 2 + 3]);
    }

    #[test]
    fn walk_path_empty_for_self_pair() {
        let t = fig3();
        let mut n = 0;
        t.walk_path(PnId(9), PnId(9), PathId(0), |_| n += 1);
        assert_eq!(n, 0);
    }

    #[test]
    fn low_nca_path_stays_inside_subtree() {
        let t = fig3();
        let (s, d) = (PnId(0), PnId(4)); // NCA at level 2
        for p in t.all_paths(s, d) {
            let nodes = t.path_nodes(s, d, p);
            assert_eq!(nodes.len(), 5);
            assert_eq!(nodes[2].level, 2);
        }
    }

    #[test]
    fn smodk_mirrors_dmodk() {
        let t = fig3();
        // s-mod-k of (s, d) equals d-mod-k of (d, s).
        for (s, d) in [(0u32, 63u32), (5, 42), (17, 3)] {
            assert_eq!(
                t.smodk_path(PnId(s), PnId(d)),
                t.dmodk_path(PnId(d), PnId(s))
            );
        }
    }

    #[test]
    fn output_ports_match_link_walk() {
        let t = fig3();
        let (s, d) = (PnId(2), PnId(61));
        for p in t.all_paths(s, d) {
            let ports = t.path_output_ports(s, d, p);
            let nodes = t.path_nodes(s, d, p);
            assert_eq!(ports.len(), nodes.len() - 1);
            for (j, &port) in ports.iter().enumerate() {
                let link = t.link_from_port(nodes[j], port);
                assert_eq!(t.endpoints(link).to, nodes[j + 1]);
            }
        }
    }
}
