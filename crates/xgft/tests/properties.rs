//! Property-based tests for the XGFT substrate: the labelling, link
//! enumeration and path machinery must hold for *arbitrary* valid
//! parameter sets, not just the paper's topologies.

use lmpr_codec::cases::{self, assume, CaseRng};
use xgft::{DirectedLinkId, FaultSet, NodeId, PathId, PnId, Topology, XgftSpec, MAX_HEIGHT};

/// A random spec: height 1..=4, and `m` then `w` drawn independently
/// per level from 1..=`max_arity`.
fn arb_spec(rng: &mut CaseRng, max_arity: u64) -> XgftSpec {
    let h = rng.range(1..=4);
    let m: Vec<u32> = (0..h).map(|_| rng.range(1..=max_arity) as u32).collect();
    let w: Vec<u32> = (0..h).map(|_| rng.range(1..=max_arity) as u32).collect();
    XgftSpec::new(&m, &w).expect("generated spec must be valid")
}

/// Small random trees: arities 1..=5 — large enough to hit every code
/// path (w_1 = 1 and w_1 > 1, asymmetric levels) while keeping
/// exhaustive per-case sweeps cheap.
fn arb_topo(rng: &mut CaseRng) -> Topology {
    Topology::new(arb_spec(rng, 5))
}

/// Trees small enough to walk every path of every ordered pair in one
/// case: arities 1..=3.
fn arb_small_topo(rng: &mut CaseRng) -> Topology {
    Topology::new(arb_spec(rng, 3))
}

/// A topology with a sampled fault set: links and switches each fail
/// at 0–40 %, so some pairs keep every path, some a few, some none.
fn topo_and_faults(rng: &mut CaseRng) -> (Topology, FaultSet) {
    let t = arb_small_topo(rng);
    let link = rng.range(0..=40) as f64 / 100.0;
    let switch = rng.range(0..=40) as f64 / 100.0;
    let faults = FaultSet::sample(&t, link, switch, rng.next_u64());
    (t, faults)
}

/// A topology together with a random SD pair.
fn topo_and_pair(rng: &mut CaseRng) -> (Topology, PnId, PnId) {
    let t = arb_topo(rng);
    let n = u64::from(t.num_pns());
    let s = PnId(rng.below(n) as u32);
    let d = PnId(rng.below(n) as u32);
    (t, s, d)
}

#[test]
fn digits_roundtrip() -> Result<(), String> {
    cases::run("digits_roundtrip", 128, |rng| {
        let (t, s, _d) = topo_and_pair(rng);
        let mut digits = [0u32; MAX_HEIGHT];
        for level in 0..=t.height() {
            // Reuse the PN rank as an in-range rank modulo the level size.
            let rank = s.0 % t.nodes_at_level(level);
            let n = NodeId {
                level: level as u8,
                rank,
            };
            t.digits_of(n, &mut digits);
            assert_eq!(t.node_from_digits(level, &digits), n);
        }
        Ok(())
    })
}

#[test]
fn num_paths_is_w_product() -> Result<(), String> {
    cases::run("num_paths_is_w_product", 128, |rng| {
        let (t, s, d) = topo_and_pair(rng);
        let kappa = t.nca_level(s, d);
        assert_eq!(t.num_paths(s, d), t.w_prod(kappa));
        if s == d {
            assert_eq!(kappa, 0);
        } else {
            assert!(kappa >= 1);
        }
        Ok(())
    })
}

#[test]
fn nca_is_symmetric_and_minimal() -> Result<(), String> {
    cases::run("nca_is_symmetric_and_minimal", 128, |rng| {
        let (t, s, d) = topo_and_pair(rng);
        let kappa = t.nca_level(s, d);
        assert_eq!(kappa, t.nca_level(d, s));
        // Digits strictly above kappa agree; digit kappa differs (s != d).
        for i in (kappa + 1)..=t.height() {
            assert_eq!(t.pn_digit(s, i), t.pn_digit(d, i));
        }
        if s != d {
            assert_ne!(t.pn_digit(s, kappa), t.pn_digit(d, kappa));
        }
        Ok(())
    })
}

#[test]
fn every_path_is_a_valid_shortest_path() -> Result<(), String> {
    cases::run("every_path_is_a_valid_shortest_path", 128, |rng| {
        let (t, s, d) = topo_and_pair(rng);
        assume(s != d)?;
        let kappa = t.nca_level(s, d);
        for p in t.all_paths(s, d) {
            let nodes = t.path_nodes(s, d, p);
            assert_eq!(nodes.len(), 2 * kappa + 1);
            assert_eq!(nodes[0], NodeId::pn(s));
            assert_eq!(*nodes.last().unwrap(), NodeId::pn(d));
            assert_eq!(nodes[kappa].level as usize, kappa);
            for (j, w) in nodes.windows(2).enumerate() {
                let expect = if j < kappa {
                    w[0].level + 1
                } else {
                    w[0].level - 1
                };
                assert_eq!(w[1].level, expect);
            }
        }
        Ok(())
    })
}

#[test]
fn paths_reach_distinct_apexes() -> Result<(), String> {
    cases::run("paths_reach_distinct_apexes", 128, |rng| {
        let (t, s, d) = topo_and_pair(rng);
        assume(s != d)?;
        let kappa = t.nca_level(s, d);
        let mut seen = std::collections::HashSet::new();
        for p in t.all_paths(s, d) {
            let apex = t.path_nodes(s, d, p)[kappa];
            assert!(seen.insert(apex), "duplicate apex across path ids");
        }
        assert_eq!(seen.len() as u64, t.num_paths(s, d));
        Ok(())
    })
}

#[test]
fn up_port_decomposition_roundtrips() -> Result<(), String> {
    cases::run("up_port_decomposition_roundtrips", 128, |rng| {
        let (t, s, d) = topo_and_pair(rng);
        assume(s != d)?;
        let mut u = [0u32; MAX_HEIGHT];
        for p in t.all_paths(s, d) {
            let k = t.path_up_ports(s, d, p, &mut u);
            for i in 1..=k {
                assert!(u[i - 1] < t.spec().w_at(i));
            }
            assert_eq!(t.path_from_up_ports(s, d, &u[..k]), p);
        }
        Ok(())
    })
}

#[test]
fn dmodk_and_smodk_are_in_range() -> Result<(), String> {
    cases::run("dmodk_and_smodk_are_in_range", 128, |rng| {
        let (t, s, d) = topo_and_pair(rng);
        assert!(t.dmodk_path(s, d).0 < t.num_paths(s, d));
        assert!(t.smodk_path(s, d).0 < t.num_paths(s, d));
        Ok(())
    })
}

#[test]
fn dmodk_same_destination_same_up_ports() -> Result<(), String> {
    cases::run("dmodk_same_destination_same_up_ports", 128, |rng| {
        let (t, s, d) = topo_and_pair(rng);
        // d-mod-k is destination-determined: two sources with the same
        // NCA level to `d` climb through the same port sequence.
        let s2 = PnId((s.0 + 1) % t.num_pns());
        assume(t.nca_level(s, d) == t.nca_level(s2, d))?;
        assume(s != d && s2 != d)?;
        let mut u1 = [0u32; MAX_HEIGHT];
        let mut u2 = [0u32; MAX_HEIGHT];
        let k1 = t.path_up_ports(s, d, t.dmodk_path(s, d), &mut u1);
        let k2 = t.path_up_ports(s2, d, t.dmodk_path(s2, d), &mut u2);
        assert_eq!(k1, k2);
        assert_eq!(&u1[..k1], &u2[..k2]);
        Ok(())
    })
}

#[test]
fn link_walks_use_valid_links() -> Result<(), String> {
    cases::run("link_walks_use_valid_links", 128, |rng| {
        let (t, s, d) = topo_and_pair(rng);
        assume(s != d)?;
        for p in t.all_paths(s, d) {
            let mut count = 0usize;
            t.walk_path(s, d, p, |link| {
                assert!(link.0 < t.num_links());
                count += 1;
            });
            assert_eq!(count, 2 * t.nca_level(s, d));
        }
        Ok(())
    })
}

#[test]
fn endpoints_invert_link_from_port() -> Result<(), String> {
    cases::run("endpoints_invert_link_from_port", 128, |rng| {
        let t = arb_topo(rng);
        for id in 0..t.num_links() {
            let e = t.endpoints(DirectedLinkId(id));
            assert_eq!(t.link_from_port(e.from, e.from_port), DirectedLinkId(id));
        }
        Ok(())
    })
}

#[test]
fn incident_links_match_the_endpoint_scan() -> Result<(), String> {
    cases::run("incident_links_match_the_endpoint_scan", 128, |rng| {
        let t = arb_topo(rng);
        // Every node of every level, plus one rank and one level past
        // the end (fault feeds can name nodes that do not exist).
        for level in 0..=t.height() + 1 {
            let count = if level <= t.height() {
                t.nodes_at_level(level)
            } else {
                0
            };
            for rank in 0..=count {
                let node = NodeId {
                    level: level as u8,
                    rank,
                };
                let scan: Vec<DirectedLinkId> = (0..t.num_links())
                    .map(DirectedLinkId)
                    .filter(|&l| {
                        let e = t.endpoints(l);
                        e.from == node || e.to == node
                    })
                    .collect();
                assert_eq!(t.incident_links(node), scan, "node {:?}", node);
            }
        }
        Ok(())
    })
}

#[test]
fn construction_number_is_bijective_per_level() -> Result<(), String> {
    cases::run("construction_number_is_bijective_per_level", 128, |rng| {
        let t = arb_topo(rng);
        for level in 0..=t.height() {
            let n = t.nodes_at_level(level);
            let mut seen = vec![false; n as usize];
            for rank in 0..n {
                let c = t.construction_number(NodeId {
                    level: level as u8,
                    rank,
                });
                assert!(c < n as u64);
                assert!(!seen[c as usize]);
                seen[c as usize] = true;
            }
        }
        Ok(())
    })
}

#[test]
fn pn_construction_number_is_rank() -> Result<(), String> {
    cases::run("pn_construction_number_is_rank", 128, |rng| {
        let t = arb_topo(rng);
        for p in 0..t.num_pns().min(64) {
            assert_eq!(t.construction_number(NodeId::pn(PnId(p))), p as u64);
        }
        Ok(())
    })
}

#[test]
fn distinct_paths_share_no_directed_link_iff_apex_differs_everywhere() -> Result<(), String> {
    cases::run(
        "distinct_paths_share_no_directed_link_iff_apex_differs_everywhere",
        128,
        |rng| {
            let (t, s, d) = topo_and_pair(rng);
            assume(s != d)?;
            assume(t.num_paths(s, d) <= 32)?;
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
                        assert!(
                            !shares,
                            "paths with different first hop must be edge-disjoint"
                        );
                    } else {
                        assert!(
                            shares,
                            "paths with the same first hop share at least that link"
                        );
                    }
                }
            }
            Ok(())
        },
    )
}

/// `FaultSet::survivors` reads a pair's survivors off the failed
/// links in its cones; the exhaustive walk it replaced — every
/// canonical path, link by link, against the raw fault bits — is
/// kept here as the reference, over every ordered pair.
#[test]
fn survivors_equal_the_exhaustive_walk() -> Result<(), String> {
    cases::run("survivors_equal_the_exhaustive_walk", 64, |rng| {
        let (t, faults) = topo_and_faults(rng);
        let n = t.num_pns();
        let mut filled = Vec::new();
        for s in (0..n).map(PnId) {
            for d in (0..n).map(PnId) {
                let set = faults.survivors(&t, s, d);
                let x = t.num_paths(s, d);
                let alive: Vec<bool> = t
                    .all_paths(s, d)
                    .map(|p| faults.path_survives(&t, s, d, p))
                    .collect();
                let walked: Vec<PathId> =
                    t.all_paths(s, d).filter(|p| alive[p.0 as usize]).collect();
                assert_eq!(
                    set.count(),
                    walked.len() as u64,
                    "count of ({:?}, {:?})",
                    s,
                    d
                );
                for p in t.all_paths(s, d) {
                    assert_eq!(
                        set.contains(p),
                        alive[p.0 as usize],
                        "({:?}, {:?}) {:?}",
                        s,
                        d,
                        p
                    );
                    let scan = (0..x)
                        .map(|k| PathId((p.0 + k) % x))
                        .find(|q| alive[q.0 as usize]);
                    assert_eq!(set.next_from(p), scan, "({:?}, {:?}) from {:?}", s, d, p);
                }
                assert!(!set.contains(PathId(x)), "ids past X never survive");
                assert_eq!(
                    set.next_from(PathId(x)),
                    walked.first().copied(),
                    "wraps to 0"
                );
                assert_eq!(set.iter().collect::<Vec<_>>(), walked.clone());
                faults.fill_surviving(&t, s, d, &mut filled);
                assert_eq!(&filled, &walked, "canonical order of ({:?}, {:?})", s, d);
                assert_eq!(faults.num_surviving(&t, s, d), set.count());
                assert_eq!(faults.connected(&t, s, d), set.count() > 0);
            }
        }
        Ok(())
    })
}

#[test]
fn self_pair_walks_nothing() {
    let t = Topology::new(XgftSpec::new(&[2, 2], &[1, 2]).unwrap());
    let mut visited = 0;
    t.walk_path(PnId(1), PnId(1), PathId(0), |_| visited += 1);
    assert_eq!(visited, 0);
}
