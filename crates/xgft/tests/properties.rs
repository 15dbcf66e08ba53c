//! Property-based tests for the XGFT substrate: the labelling, link
//! enumeration and path machinery must hold for *arbitrary* valid
//! parameter sets, not just the paper's topologies.

use proptest::prelude::*;
use xgft::{DirectedLinkId, NodeId, PathId, PnId, Topology, XgftSpec, MAX_HEIGHT};

/// Small random specs: heights 1..=4, arities 1..=5 — large enough to
/// hit every code path (w_1 = 1 and w_1 > 1, asymmetric levels) while
/// keeping exhaustive per-case sweeps cheap.
fn arb_spec() -> impl Strategy<Value = XgftSpec> {
    (1usize..=4)
        .prop_flat_map(|h| {
            (
                prop::collection::vec(1u32..=5, h),
                prop::collection::vec(1u32..=5, h),
            )
        })
        .prop_map(|(m, w)| XgftSpec::new(&m, &w).expect("generated spec must be valid"))
}

fn arb_topo() -> impl Strategy<Value = Topology> {
    arb_spec().prop_map(Topology::new)
}

/// A topology together with a random SD pair.
fn topo_and_pair() -> impl Strategy<Value = (Topology, PnId, PnId)> {
    arb_topo().prop_flat_map(|t| {
        let n = t.num_pns();
        (Just(t), 0..n, 0..n).prop_map(|(t, s, d)| (t, PnId(s), PnId(d)))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn digits_roundtrip((t, s, _d) in topo_and_pair()) {
        let mut digits = [0u32; MAX_HEIGHT];
        for level in 0..=t.height() {
            // Reuse the PN rank as an in-range rank modulo the level size.
            let rank = s.0 % t.nodes_at_level(level);
            let n = NodeId { level: level as u8, rank };
            t.digits_of(n, &mut digits);
            prop_assert_eq!(t.node_from_digits(level, &digits), n);
        }
    }

    #[test]
    fn num_paths_is_w_product((t, s, d) in topo_and_pair()) {
        let kappa = t.nca_level(s, d);
        prop_assert_eq!(t.num_paths(s, d), t.w_prod(kappa));
        if s == d {
            prop_assert_eq!(kappa, 0);
        } else {
            prop_assert!(kappa >= 1);
        }
    }

    #[test]
    fn nca_is_symmetric_and_minimal((t, s, d) in topo_and_pair()) {
        let kappa = t.nca_level(s, d);
        prop_assert_eq!(kappa, t.nca_level(d, s));
        // Digits strictly above kappa agree; digit kappa differs (s != d).
        for i in (kappa + 1)..=t.height() {
            prop_assert_eq!(t.pn_digit(s, i), t.pn_digit(d, i));
        }
        if s != d {
            prop_assert_ne!(t.pn_digit(s, kappa), t.pn_digit(d, kappa));
        }
    }

    #[test]
    fn every_path_is_a_valid_shortest_path((t, s, d) in topo_and_pair()) {
        prop_assume!(s != d);
        let kappa = t.nca_level(s, d);
        for p in t.all_paths(s, d) {
            let nodes = t.path_nodes(s, d, p);
            prop_assert_eq!(nodes.len(), 2 * kappa + 1);
            prop_assert_eq!(nodes[0], NodeId::pn(s));
            prop_assert_eq!(*nodes.last().unwrap(), NodeId::pn(d));
            prop_assert_eq!(nodes[kappa].level as usize, kappa);
            for (j, w) in nodes.windows(2).enumerate() {
                let expect = if j < kappa { w[0].level + 1 } else { w[0].level - 1 };
                prop_assert_eq!(w[1].level, expect);
            }
        }
    }

    #[test]
    fn paths_reach_distinct_apexes((t, s, d) in topo_and_pair()) {
        prop_assume!(s != d);
        let kappa = t.nca_level(s, d);
        let mut seen = std::collections::HashSet::new();
        for p in t.all_paths(s, d) {
            let apex = t.path_nodes(s, d, p)[kappa];
            prop_assert!(seen.insert(apex), "duplicate apex across path ids");
        }
        prop_assert_eq!(seen.len() as u64, t.num_paths(s, d));
    }

    #[test]
    fn up_port_decomposition_roundtrips((t, s, d) in topo_and_pair()) {
        prop_assume!(s != d);
        let mut u = [0u32; MAX_HEIGHT];
        for p in t.all_paths(s, d) {
            let k = t.path_up_ports(s, d, p, &mut u);
            for i in 1..=k {
                prop_assert!(u[i - 1] < t.spec().w_at(i));
            }
            prop_assert_eq!(t.path_from_up_ports(s, d, &u[..k]), p);
        }
    }

    #[test]
    fn dmodk_and_smodk_are_in_range((t, s, d) in topo_and_pair()) {
        prop_assert!(t.dmodk_path(s, d).0 < t.num_paths(s, d));
        prop_assert!(t.smodk_path(s, d).0 < t.num_paths(s, d));
    }

    #[test]
    fn dmodk_same_destination_same_up_ports((t, s, d) in topo_and_pair()) {
        // d-mod-k is destination-determined: two sources with the same
        // NCA level to `d` climb through the same port sequence.
        let s2 = PnId((s.0 + 1) % t.num_pns());
        prop_assume!(t.nca_level(s, d) == t.nca_level(s2, d));
        prop_assume!(s != d && s2 != d);
        let mut u1 = [0u32; MAX_HEIGHT];
        let mut u2 = [0u32; MAX_HEIGHT];
        let k1 = t.path_up_ports(s, d, t.dmodk_path(s, d), &mut u1);
        let k2 = t.path_up_ports(s2, d, t.dmodk_path(s2, d), &mut u2);
        prop_assert_eq!(k1, k2);
        prop_assert_eq!(&u1[..k1], &u2[..k2]);
    }

    #[test]
    fn link_walks_use_valid_links((t, s, d) in topo_and_pair()) {
        prop_assume!(s != d);
        for p in t.all_paths(s, d) {
            let mut count = 0usize;
            t.walk_path(s, d, p, |link| {
                assert!(link.0 < t.num_links());
                count += 1;
            });
            prop_assert_eq!(count, 2 * t.nca_level(s, d));
        }
    }

    #[test]
    fn endpoints_invert_link_from_port(t in arb_topo()) {
        for id in 0..t.num_links() {
            let e = t.endpoints(DirectedLinkId(id));
            prop_assert_eq!(t.link_from_port(e.from, e.from_port), DirectedLinkId(id));
        }
    }

    #[test]
    fn incident_links_match_the_endpoint_scan(t in arb_topo()) {
        // Every node of every level, plus one rank and one level past
        // the end (fault feeds can name nodes that do not exist).
        for level in 0..=t.height() + 1 {
            let count = if level <= t.height() { t.nodes_at_level(level) } else { 0 };
            for rank in 0..=count {
                let node = NodeId { level: level as u8, rank };
                let scan: Vec<DirectedLinkId> = (0..t.num_links())
                    .map(DirectedLinkId)
                    .filter(|&l| {
                        let e = t.endpoints(l);
                        e.from == node || e.to == node
                    })
                    .collect();
                prop_assert_eq!(t.incident_links(node), scan, "node {:?}", node);
            }
        }
    }

    #[test]
    fn construction_number_is_bijective_per_level(t in arb_topo()) {
        for level in 0..=t.height() {
            let n = t.nodes_at_level(level);
            let mut seen = vec![false; n as usize];
            for rank in 0..n {
                let c = t.construction_number(NodeId { level: level as u8, rank });
                prop_assert!(c < n as u64);
                prop_assert!(!seen[c as usize]);
                seen[c as usize] = true;
            }
        }
    }

    #[test]
    fn pn_construction_number_is_rank(t in arb_topo()) {
        for p in 0..t.num_pns().min(64) {
            prop_assert_eq!(t.construction_number(NodeId::pn(PnId(p))), p as u64);
        }
    }

    #[test]
    fn distinct_paths_share_no_directed_link_iff_apex_differs_everywhere(
        (t, s, d) in topo_and_pair()
    ) {
        prop_assume!(s != d);
        prop_assume!(t.num_paths(s, d) <= 32);
        // Collect each path's link set; two paths are edge-disjoint iff
        // their up-port vectors differ at position 1 (they fork at the PN).
        let mut u = [0u32; MAX_HEIGHT];
        let paths: Vec<(u32, Vec<u32>)> = t
            .all_paths(s, d)
            .map(|p| {
                let k = t.path_up_ports(s, d, p, &mut u);
                let mut links = Vec::new();
                t.walk_path(s, d, p, |l| links.push(l.0));
                (u[..k].first().copied().unwrap_or(0), links)
            })
            .collect();
        for (i, (u1, l1)) in paths.iter().enumerate() {
            for (u2, l2) in paths.iter().skip(i + 1) {
                let shares = l1.iter().any(|x| l2.contains(x));
                if u1 != u2 {
                    prop_assert!(!shares, "paths with different first hop must be edge-disjoint");
                } else {
                    prop_assert!(shares, "paths with the same first hop share at least that link");
                }
            }
        }
    }
}

#[test]
fn self_pair_walks_nothing() {
    let t = Topology::new(XgftSpec::new(&[2, 2], &[1, 2]).unwrap());
    let mut visited = 0;
    t.walk_path(PnId(1), PnId(1), PathId(0), |_| visited += 1);
    assert_eq!(visited, 0);
}
