//! Precomputed topology object: node counts, labelling, link enumeration.

use crate::{DirectedLinkId, LinkDir, NodeId, PnId, XgftSpec, MAX_HEIGHT};

/// A fully precomputed XGFT topology.
///
/// The structure is implicit: nodes are `(level, rank)` pairs and links
/// are dense integers; nothing proportional to the node count is stored,
/// so cloning and sharing are cheap. All conversions between ranks,
/// label digits, ports and link ids are O(h).
#[derive(Debug, Clone)]
pub struct Topology {
    spec: XgftSpec,
    h: usize,
    /// `w_prod[k] = Π_{i=1..k} w_i` for `k in 0..=h` (`w_prod[0] = 1`).
    w_prod: Vec<u64>,
    /// `m_prod[k] = Π_{i=1..k} m_i` for `k in 0..=h` (`m_prod[0] = 1`).
    m_prod: Vec<u64>,
    /// Number of nodes at each level `0..=h`.
    level_counts: Vec<u32>,
    /// Base id for up-links terminating at level `l` (index `1..=h`;
    /// index 0 unused).
    up_base: Vec<u32>,
    /// Base id for down-links originating at level `l` (index `1..=h`).
    down_base: Vec<u32>,
    num_links: u32,
}

/// Endpoints of a directed link, for inspection and for building the
/// explicit port graph the flit-level simulator uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkEndpoints {
    /// Sending node.
    pub from: NodeId,
    /// Port index on the sending node.
    pub from_port: u32,
    /// Receiving node.
    pub to: NodeId,
    /// Port index on the receiving node.
    pub to_port: u32,
    /// Whether the link climbs or descends the tree.
    pub dir: LinkDir,
    /// Tree level of the upper endpoint (`1..=h`).
    pub level: u8,
}

impl Topology {
    /// Precompute all products and link bases for a spec.
    pub fn new(spec: XgftSpec) -> Self {
        let h = spec.height();
        let mut w_prod = vec![1u64; h + 1];
        let mut m_prod = vec![1u64; h + 1];
        for i in 1..=h {
            w_prod[i] = w_prod[i - 1] * spec.w_at(i) as u64;
            m_prod[i] = m_prod[i - 1] * spec.m_at(i) as u64;
        }
        let mut level_counts = vec![0u32; h + 1];
        for l in 0..=h {
            // Π_{i>l} m_i · Π_{i<=l} w_i
            let c = (m_prod[h] / m_prod[l]) * w_prod[l];
            level_counts[l] = c as u32;
        }
        let mut up_base = vec![0u32; h + 1];
        let mut down_base = vec![0u32; h + 1];
        let mut next: u64 = 0;
        for l in 1..=h {
            let per_dir = level_counts[l - 1] as u64 * spec.w_at(l) as u64;
            up_base[l] = next as u32;
            next += per_dir;
            down_base[l] = next as u32;
            next += per_dir;
        }
        Topology {
            spec,
            h,
            w_prod,
            m_prod,
            level_counts,
            up_base,
            down_base,
            num_links: next as u32,
        }
    }

    /// The parameter set this topology was built from.
    pub fn spec(&self) -> &XgftSpec {
        &self.spec
    }

    /// Tree height `h`.
    pub fn height(&self) -> usize {
        self.h
    }

    /// Number of processing nodes `N = Π m_i`.
    pub fn num_pns(&self) -> u32 {
        self.m_prod[self.h] as u32
    }

    /// Number of nodes at a level (`0 ..= h`).
    pub fn nodes_at_level(&self, level: usize) -> u32 {
        self.level_counts[level]
    }

    /// Total number of *directed* links.
    pub fn num_links(&self) -> u32 {
        self.num_links
    }

    /// `Π_{i=1..k} w_i` — the number of shortest paths between PNs whose
    /// NCA sits at level `k` (Property 1 of the paper), and the number of
    /// top-level switches of a height-`k` sub-XGFT.
    pub fn w_prod(&self, k: usize) -> u64 {
        self.w_prod[k]
    }

    /// `Π_{i=1..k} m_i` — the number of processing nodes of a height-`k`
    /// sub-XGFT.
    pub fn m_prod(&self, k: usize) -> u64 {
        self.m_prod[k]
    }

    /// Number of up (parent-facing) ports of a node at `level`.
    pub fn up_ports(&self, level: usize) -> u32 {
        if level == self.h {
            0
        } else {
            self.spec.w_at(level + 1)
        }
    }

    /// Number of down (child-facing) ports of a node at `level`.
    pub fn down_ports(&self, level: usize) -> u32 {
        if level == 0 {
            0
        } else {
            self.spec.m_at(level)
        }
    }

    /// Port index of the first down port of a node at `level`, matching
    /// the paper's numbering: up ports come first, except at the top
    /// level where there are no up ports.
    pub fn down_port_offset(&self, level: usize) -> u32 {
        self.up_ports(level)
    }

    /// Total ports of a node at `level`.
    pub fn ports_at_level(&self, level: usize) -> u32 {
        self.up_ports(level) + self.down_ports(level)
    }

    // ------------------------------------------------------------------
    // Labelling.
    // ------------------------------------------------------------------

    /// Radix of label digit `i` (1-based) for a node at `level`:
    /// `m_i` above the level, `w_i` at or below it.
    fn radix(&self, level: usize, i: usize) -> u64 {
        if i > level {
            self.spec.m_at(i) as u64
        } else {
            self.spec.w_at(i) as u64
        }
    }

    /// Write the label digits `(a_1 .. a_h)` of a node into `out`
    /// (`out[i-1] = a_i`; note the paper prints tuples most-significant
    /// first as `(l, a_h, …, a_1)`).
    ///
    /// # Panics
    ///
    /// Panics with a descriptive message when `out` is shorter than the
    /// tree height or `node` is not a node of this topology (level or
    /// rank out of range) — previously a silent index panic or a
    /// debug-only assertion.
    pub fn digits_of(&self, node: NodeId, out: &mut [u32]) {
        assert!(
            out.len() >= self.h,
            "digit buffer holds {} entries but the tree has height {}",
            out.len(),
            self.h
        );
        assert!(
            (node.level as usize) <= self.h,
            "node level {} exceeds the tree height {}",
            node.level,
            self.h
        );
        let mut r = node.rank as u64;
        for i in 1..=self.h {
            let radix = self.radix(node.level as usize, i);
            out[i - 1] = (r % radix) as u32;
            r /= radix;
        }
        assert!(
            r == 0,
            "rank {} out of range for a level-{} node",
            node.rank,
            node.level
        );
    }

    /// Rank of the node at `level` with label digits `digits[i-1] = a_i`.
    pub fn node_from_digits(&self, level: usize, digits: &[u32]) -> NodeId {
        debug_assert!(digits.len() >= self.h);
        let mut r: u64 = 0;
        for i in (1..=self.h).rev() {
            let radix = self.radix(level, i);
            debug_assert!((digits[i - 1] as u64) < radix);
            r = r * radix + digits[i - 1] as u64;
        }
        NodeId {
            level: level as u8,
            rank: r as u32,
        }
    }

    /// Label digit `a_i` of a processing node (radix `m_i`).
    pub fn pn_digit(&self, pn: PnId, i: usize) -> u32 {
        ((pn.0 as u64 / self.m_prod[i - 1]) % self.spec.m_at(i) as u64) as u32
    }

    // ------------------------------------------------------------------
    // Adjacency.
    // ------------------------------------------------------------------

    /// The parent reached from `node` through up port `port`.
    pub fn parent(&self, node: NodeId, port: u32) -> NodeId {
        let l = node.level as usize;
        assert!(l < self.h, "top-level nodes have no parents");
        assert!(port < self.up_ports(l));
        let mut digits = [0u32; MAX_HEIGHT];
        self.digits_of(node, &mut digits);
        digits[l] = port; // digit at position l+1 becomes the port choice
        self.node_from_digits(l + 1, &digits)
    }

    /// The child reached from `node` through child index `child`
    /// (`0 .. m_level`); the corresponding port is
    /// `down_port_offset(level) + child`.
    pub fn child(&self, node: NodeId, child: u32) -> NodeId {
        let l = node.level as usize;
        assert!(l >= 1, "processing nodes have no children");
        assert!(child < self.down_ports(l));
        let mut digits = [0u32; MAX_HEIGHT];
        self.digits_of(node, &mut digits);
        digits[l - 1] = child; // digit at position l becomes the child index
        self.node_from_digits(l - 1, &digits)
    }

    // ------------------------------------------------------------------
    // Link enumeration.
    // ------------------------------------------------------------------

    /// Id of the up-link from the level-`l-1` node `child_rank` through
    /// its up port `port` (terminating at level `l`).
    pub fn up_link(&self, l: usize, child_rank: u32, port: u32) -> DirectedLinkId {
        debug_assert!(l >= 1 && l <= self.h);
        debug_assert!(port < self.spec.w_at(l));
        DirectedLinkId(self.up_base[l] + child_rank * self.spec.w_at(l) + port)
    }

    /// Id of the down-link from the level-`l` node `parent_rank` to its
    /// child with index `child` (terminating at level `l-1`).
    pub fn down_link(&self, l: usize, parent_rank: u32, child: u32) -> DirectedLinkId {
        debug_assert!(l >= 1 && l <= self.h);
        debug_assert!(child < self.spec.m_at(l));
        DirectedLinkId(self.down_base[l] + parent_rank * self.spec.m_at(l) + child)
    }

    /// First id of the up-links at level `l` a climb from `s` can take,
    /// given `q = ⌊s / m_prod(l−1)⌋`, the source's label digits from
    /// position `l` up. They are the `w_prod(l)` consecutive ids from
    /// here on: the climb has fixed those digits, and its free port
    /// choices `u_1 … u_l` index the run at offset
    /// `(Σ_{i<l} u_i·w_prod(i−1))·w_l + u_l`.
    pub(crate) fn up_cone_start(&self, l: usize, q: u64) -> u64 {
        let child = self.w_prod[l - 1] * q;
        u64::from(self.up_base[l]) + child * u64::from(self.spec.w_at(l))
    }

    /// First id of the run of `w_prod(l) · m_l` down-links leaving the
    /// `w_prod(l)` level-`l` switches a descent to `d` can pass, given
    /// `q = ⌊d / m_prod(l)⌋`, the destination's label digits above
    /// position `l`. With port choices `u_1 … u_l` the descent passes
    /// switch number `Σ_{i≤l} u_i·w_prod(i−1)` of the run and leaves it
    /// towards `d`'s digit `l`, so only every `m_l`-th id of the run is
    /// on its way.
    pub(crate) fn down_cone_start(&self, l: usize, q: u64) -> u64 {
        let parent = self.w_prod[l] * q;
        u64::from(self.down_base[l]) + parent * u64::from(self.spec.m_at(l))
    }

    /// Tree level (of the upper endpoint) and direction of a link id.
    pub fn link_level_dir(&self, link: DirectedLinkId) -> (u8, LinkDir) {
        let id = link.0;
        for l in (1..=self.h).rev() {
            if id >= self.down_base[l] {
                return (l as u8, LinkDir::Down);
            }
            if id >= self.up_base[l] {
                return (l as u8, LinkDir::Up);
            }
        }
        unreachable!("link id {id} out of range")
    }

    /// Full endpoint description of a link id.
    pub fn endpoints(&self, link: DirectedLinkId) -> LinkEndpoints {
        let (level, dir) = self.link_level_dir(link);
        let l = level as usize;
        match dir {
            LinkDir::Up => {
                let rel = link.0 - self.up_base[l];
                let w = self.spec.w_at(l);
                let child_rank = rel / w;
                let port = rel % w;
                let from = NodeId {
                    level: (l - 1) as u8,
                    rank: child_rank,
                };
                let to = self.parent(from, port);
                // The parent receives on the down port for this child's
                // index, which is the child's digit at position l.
                let mut digits = [0u32; MAX_HEIGHT];
                self.digits_of(from, &mut digits);
                let to_port = self.down_port_offset(l) + digits[l - 1];
                LinkEndpoints {
                    from,
                    from_port: port,
                    to,
                    to_port,
                    dir,
                    level,
                }
            }
            LinkDir::Down => {
                let rel = link.0 - self.down_base[l];
                let m = self.spec.m_at(l);
                let parent_rank = rel / m;
                let child = rel % m;
                let from = NodeId {
                    level: l as u8,
                    rank: parent_rank,
                };
                let to = self.child(from, child);
                // The child receives on the up port equal to the parent's
                // digit at position l.
                let mut digits = [0u32; MAX_HEIGHT];
                self.digits_of(from, &mut digits);
                let to_port = digits[l - 1];
                let from_port = self.down_port_offset(l) + child;
                LinkEndpoints {
                    from,
                    from_port,
                    to,
                    to_port,
                    dir,
                    level,
                }
            }
        }
    }

    /// The paper's left-to-right position of a node within its level, as
    /// induced by the recursive construction: the digits above the
    /// node's level (sub-tree selectors, radix `m_i`) are most
    /// significant, and among the `w`-radix digits `a_1` is most
    /// significant (`XGFT(h)` wires sub-top-switch `x` to top switches
    /// `w_h·x .. w_h·(x+1)`, so each recursion step appends the *new*
    /// digit as the least significant one).
    ///
    /// For processing nodes this equals the rank; for switches it is a
    /// permutation of the rank space used only for display and for
    /// relating path indices to "leftmost top-level switch" order.
    pub fn construction_number(&self, node: NodeId) -> u64 {
        let l = node.level as usize;
        let mut digits = [0u32; MAX_HEIGHT];
        self.digits_of(node, &mut digits);
        let mut c: u64 = 0;
        for i in ((l + 1)..=self.h).rev() {
            c = c * self.spec.m_at(i) as u64 + digits[i - 1] as u64;
        }
        for i in 1..=l {
            c = c * self.spec.w_at(i) as u64 + digits[i - 1] as u64;
        }
        c
    }

    /// The link leaving `node` through output port `port`.
    pub fn link_from_port(&self, node: NodeId, port: u32) -> DirectedLinkId {
        let l = node.level as usize;
        let ups = self.up_ports(l);
        if port < ups {
            self.up_link(l + 1, node.rank, port)
        } else {
            let child = port - ups;
            self.down_link(l, node.rank, child)
        }
    }

    /// Every directed link into or out of `node`, in ascending id order:
    /// per port, the link leaving through it and its reverse. O(radix),
    /// where a scan of [`Topology::endpoints`] over all links is
    /// O(`num_links`). A node outside the topology (ids can arrive from
    /// fault feeds) has no links, as the scan would find.
    pub fn incident_links(&self, node: NodeId) -> Vec<DirectedLinkId> {
        let level = usize::from(node.level);
        if level > self.h || node.rank >= self.level_counts[level] {
            return Vec::new();
        }
        let mut links = Vec::new();
        for port in 0..self.ports_at_level(level) {
            let out = self.link_from_port(node, port);
            let e = self.endpoints(out);
            links.push(out);
            links.push(self.link_from_port(e.to, e.to_port));
        }
        links.sort_unstable();
        links
    }
}

/// The evaluation topologies of §5, keyed the way the paper labels
/// them, as `(spec label, topology)`. Any other tree is named by its
/// spec, `xgft:M1,..,Mh;W1,..,Wh` (the `lmpr` CLI's form).
pub fn topology_by_name(name: &str) -> Option<(String, Topology)> {
    let spec = match name {
        // Figure 4 panels.
        "a" | "16port2tree" => XgftSpec::m_port_n_tree(16, 2),
        "b" | "16port3tree" => XgftSpec::m_port_n_tree(16, 3),
        "c" | "24port2tree" => XgftSpec::m_port_n_tree(24, 2),
        "d" | "24port3tree" => XgftSpec::m_port_n_tree(24, 3),
        // The remaining §5 topologies.
        "8port2tree" => XgftSpec::m_port_n_tree(8, 2),
        "8port3tree" => XgftSpec::m_port_n_tree(8, 3),
        _ => {
            let (m, w) = name.strip_prefix("xgft:")?.split_once(';')?;
            let digits =
                |t: &str| -> Option<Vec<u32>> { t.split(',').map(|x| x.parse().ok()).collect() };
            XgftSpec::new(&digits(m)?, &digits(w)?)
        }
    }
    .ok()?;
    let label = format!("{spec}");
    Some((label, Topology::new(spec)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn named_topologies_resolve() {
        let (label, t) = topology_by_name("b").unwrap();
        assert_eq!(label, "XGFT(3; 8,8,16; 1,8,8)");
        assert_eq!(t.num_pns(), 1024);
        assert!(topology_by_name("z").is_none());
        let (label, t) = topology_by_name("xgft:3,2,4;1,2,3").unwrap();
        assert_eq!(label, "XGFT(3; 3,2,4; 1,2,3)");
        assert_eq!(t.num_pns(), 24);
        for bad in ["xgft:3,2;1", "xgft:3,x;1,2", "xgft:3,2", "xgft:;"] {
            assert!(topology_by_name(bad).is_none(), "{bad}");
        }
        assert_eq!(topology_by_name("d").unwrap().1.num_pns(), 3456);
    }

    fn fig3() -> Topology {
        Topology::new(XgftSpec::new(&[4, 4, 4], &[1, 2, 4]).unwrap())
    }

    #[test]
    fn level_counts_match_formula() {
        let t = fig3();
        // Level l has (Π_{i>l} m_i)·(Π_{i<=l} w_i) nodes.
        assert_eq!(t.nodes_at_level(0), 64);
        assert_eq!(t.nodes_at_level(1), 16); // 4·4·1
        assert_eq!(t.nodes_at_level(2), 8); // 4·1·2
        assert_eq!(t.nodes_at_level(3), 8); // 1·2·4
        assert_eq!(t.num_pns(), 64);
    }

    #[test]
    fn paper_topologies_node_counts() {
        let t = Topology::new(XgftSpec::m_port_n_tree(24, 3).unwrap());
        assert_eq!(t.num_pns(), 3456); // TACC-Ranger-like 24-port 3-tree
        assert_eq!(t.nodes_at_level(3), 144); // top switches
        assert_eq!(t.w_prod(3), 144); // paper: 144 paths between far nodes
        let t = Topology::new(XgftSpec::m_port_n_tree(8, 2).unwrap());
        assert_eq!(t.num_pns(), 32);
        assert_eq!(t.nodes_at_level(2), 4);
    }

    #[test]
    fn digit_roundtrip_all_levels() {
        let t = fig3();
        let mut digits = [0u32; MAX_HEIGHT];
        for level in 0..=t.height() {
            for rank in 0..t.nodes_at_level(level) {
                let n = NodeId {
                    level: level as u8,
                    rank,
                };
                t.digits_of(n, &mut digits);
                assert_eq!(t.node_from_digits(level, &digits), n);
            }
        }
    }

    #[test]
    fn pn_digits_match_generic_digits() {
        let t = fig3();
        let mut digits = [0u32; MAX_HEIGHT];
        for p in 0..t.num_pns() {
            t.digits_of(NodeId::pn(PnId(p)), &mut digits);
            for i in 1..=t.height() {
                assert_eq!(t.pn_digit(PnId(p), i), digits[i - 1]);
            }
        }
    }

    #[test]
    fn parent_child_inverse() {
        let t = fig3();
        let mut digits = [0u32; MAX_HEIGHT];
        for level in 0..t.height() {
            for rank in 0..t.nodes_at_level(level) {
                let n = NodeId {
                    level: level as u8,
                    rank,
                };
                for port in 0..t.up_ports(level) {
                    let p = t.parent(n, port);
                    assert_eq!(p.level as usize, level + 1);
                    // Descending through this node's own digit returns here.
                    t.digits_of(n, &mut digits);
                    let back = t.child(p, digits[level]);
                    assert_eq!(back, n);
                }
            }
        }
    }

    #[test]
    fn ports_per_level_match_paper() {
        // XGFT(3; 3,2,2; 2,2,3) style check on Figure 2(b)'s rule:
        // level-i nodes have w_{i+1} up ports then m_i down ports.
        let t = Topology::new(XgftSpec::new(&[3, 2, 2], &[2, 2, 3]).unwrap());
        assert_eq!(t.up_ports(0), 2);
        assert_eq!(t.down_ports(0), 0);
        assert_eq!(t.up_ports(1), 2);
        assert_eq!(t.down_ports(1), 3);
        assert_eq!(t.down_port_offset(1), 2);
        assert_eq!(t.up_ports(3), 0);
        assert_eq!(t.down_ports(3), 2);
        assert_eq!(t.down_port_offset(3), 0);
    }

    #[test]
    fn link_ids_are_dense_and_invertible() {
        let t = fig3();
        let mut seen = vec![false; t.num_links() as usize];
        for l in 1..=t.height() {
            for child in 0..t.nodes_at_level(l - 1) {
                for port in 0..t.spec().w_at(l) {
                    let id = t.up_link(l, child, port);
                    assert!(!seen[id.0 as usize]);
                    seen[id.0 as usize] = true;
                    let e = t.endpoints(id);
                    assert_eq!(e.dir, LinkDir::Up);
                    assert_eq!(e.level as usize, l);
                    assert_eq!(
                        e.from,
                        NodeId {
                            level: (l - 1) as u8,
                            rank: child
                        }
                    );
                    assert_eq!(e.from_port, port);
                }
            }
            for parent in 0..t.nodes_at_level(l) {
                for child in 0..t.spec().m_at(l) {
                    let id = t.down_link(l, parent, child);
                    assert!(!seen[id.0 as usize]);
                    seen[id.0 as usize] = true;
                    let e = t.endpoints(id);
                    assert_eq!(e.dir, LinkDir::Down);
                    assert_eq!(
                        e.from,
                        NodeId {
                            level: l as u8,
                            rank: parent
                        }
                    );
                }
            }
        }
        assert!(seen.iter().all(|&b| b), "link id space has holes");
    }

    #[test]
    fn endpoints_ports_are_consistent() {
        // For every link: following `link_from_port(from, from_port)`
        // returns the same id, and the reverse port wiring matches.
        let t = Topology::new(XgftSpec::new(&[2, 3], &[2, 2]).unwrap());
        for id in 0..t.num_links() {
            let e = t.endpoints(DirectedLinkId(id));
            assert_eq!(t.link_from_port(e.from, e.from_port), DirectedLinkId(id));
            // The reverse direction link exists and mirrors the ports.
            let rev = t.link_from_port(e.to, e.to_port);
            let re = t.endpoints(rev);
            assert_eq!(re.to, e.from);
            assert_eq!(re.to_port, e.from_port);
            assert_eq!(re.from, e.to);
            assert_eq!(re.from_port, e.to_port);
        }
    }
}
