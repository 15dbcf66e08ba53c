//! Property-based tests for the routing heuristics: the guarantees the
//! paper states ("work for any given limit of paths", "gracefully
//! increase", "reach optimal when all paths are allowed") must hold on
//! arbitrary XGFTs.

use lmpr_codec::cases::{self, assume, CaseRng};
use lmpr_core::{DModK, Disjoint, DisjointStride, RandomK, Router, ShiftOne, Umulti};
use std::ops::RangeInclusive;
use xgft::{PnId, Topology, XgftSpec, MAX_HEIGHT};

/// A random tree: height 1..=`max_h`, then `m` and `w` drawn
/// independently per level from their ranges.
fn topo_in(
    rng: &mut CaseRng,
    max_h: u64,
    m: RangeInclusive<u64>,
    w: RangeInclusive<u64>,
) -> Topology {
    let h = rng.range(1..=max_h);
    let m: Vec<u32> = (0..h).map(|_| rng.range(m.clone()) as u32).collect();
    let w: Vec<u32> = (0..h).map(|_| rng.range(w.clone()) as u32).collect();
    Topology::new(XgftSpec::new(&m, &w).expect("valid spec"))
}

fn topo_pair_k(rng: &mut CaseRng) -> (Topology, PnId, PnId, u64) {
    let t = topo_in(rng, 4, 1..=4, 1..=4);
    let n = u64::from(t.num_pns());
    let s = PnId(rng.below(n) as u32);
    let d = PnId(rng.below(n) as u32);
    (t, s, d, rng.range(1..=12))
}

fn all_limited_routers(k: u64) -> Vec<Box<dyn Router>> {
    vec![
        Box::new(ShiftOne::new(k)),
        Box::new(Disjoint::new(k)),
        Box::new(DisjointStride::new(k)),
        Box::new(RandomK::new(k, 0xFEED)),
    ]
}

#[test]
fn cardinality_distinctness_and_range() -> Result<(), String> {
    cases::run("cardinality_distinctness_and_range", 96, |rng| {
        let (t, s, d, k) = topo_pair_k(rng);
        let x = t.num_paths(s, d);
        for r in all_limited_routers(k) {
            let set = r.path_set(&t, s, d);
            assert_eq!(set.len() as u64, k.min(x), "router {}", r.name());
            let mut ids: Vec<u64> = set.paths().iter().map(|p| p.0).collect();
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(ids.len(), set.len(), "duplicate ids in {}", r.name());
            assert!(
                ids.iter().all(|&p| p < x),
                "out-of-range id in {}",
                r.name()
            );
        }
        Ok(())
    })
}

#[test]
fn dmodk_anchoring() -> Result<(), String> {
    cases::run("dmodk_anchoring", 96, |rng| {
        let (t, s, d, k) = topo_pair_k(rng);
        // shift-1, disjoint and stride all contain the d-mod-k path as
        // their first selection; random must *contain* it only when the
        // whole path space is selected.
        let anchor = t.dmodk_path(s, d);
        for r in [
            Box::new(ShiftOne::new(k)) as Box<dyn Router>,
            Box::new(Disjoint::new(k)),
            Box::new(DisjointStride::new(k)),
        ] {
            assert_eq!(
                r.path_set(&t, s, d).paths()[0],
                anchor,
                "router {}",
                r.name()
            );
        }
        Ok(())
    })
}

#[test]
fn full_budget_recovers_umulti() -> Result<(), String> {
    cases::run("full_budget_recovers_umulti", 96, |rng| {
        let (t, s, d, _k) = topo_pair_k(rng);
        let x = t.num_paths(s, d);
        let reference: Vec<u64> = (0..x).collect();
        for r in all_limited_routers(x.max(1)) {
            let mut ids: Vec<u64> = r.path_set(&t, s, d).paths().iter().map(|p| p.0).collect();
            ids.sort_unstable();
            assert_eq!(&ids, &reference, "router {} at K = X", r.name());
        }
        let mut ids: Vec<u64> = Umulti
            .path_set(&t, s, d)
            .paths()
            .iter()
            .map(|p| p.0)
            .collect();
        ids.sort_unstable();
        assert_eq!(ids, reference);
        Ok(())
    })
}

#[test]
fn deterministic_selections_nest() -> Result<(), String> {
    cases::run("deterministic_selections_nest", 96, |rng| {
        let (t, s, d, k) = topo_pair_k(rng);
        // Growing the budget must extend, never reshuffle, the selection
        // for shift-1, disjoint and stride-with-doubling (the stride
        // variant nests only along the doubling chain K → 2K).
        for (small, big) in [
            (
                Box::new(ShiftOne::new(k)) as Box<dyn Router>,
                Box::new(ShiftOne::new(k + 1)) as Box<dyn Router>,
            ),
            (Box::new(Disjoint::new(k)), Box::new(Disjoint::new(k + 1))),
        ] {
            let a = small.path_set(&t, s, d);
            let b = big.path_set(&t, s, d);
            assert_eq!(
                a.paths(),
                &b.paths()[..a.len()],
                "{} is not a prefix of {}",
                small.name(),
                big.name()
            );
        }
        Ok(())
    })
}

#[test]
fn disjoint_first_w1_paths_are_link_disjoint() -> Result<(), String> {
    cases::run("disjoint_first_w1_paths_are_link_disjoint", 96, |rng| {
        let (t, s, d, _k) = topo_pair_k(rng);
        assume(s != d)?;
        let w1 = t.spec().w_at(1) as u64;
        let set = Disjoint::new(w1).path_set(&t, s, d);
        let mut link_sets: Vec<Vec<u32>> = Vec::new();
        for &p in set.paths() {
            let mut links = Vec::new();
            t.walk_path(s, d, p, |l| links.push(l.0));
            link_sets.push(links);
        }
        for (i, a) in link_sets.iter().enumerate() {
            for b in link_sets.iter().skip(i + 1) {
                assert!(
                    a.iter().all(|l| !b.contains(l)),
                    "first w_1 disjoint paths share a link"
                );
            }
        }
        Ok(())
    })
}

#[test]
fn disjoint_spreads_low_levels_at_least_as_well_as_shift() -> Result<(), String> {
    cases::run(
        "disjoint_spreads_low_levels_at_least_as_well_as_shift",
        96,
        |rng| {
            let (t, s, d, k) = topo_pair_k(rng);
            // The design goal of §4.2.3: for the same K, the disjoint
            // selection uses at least as many distinct level-1 up ports as
            // shift-1 does.
            assume(s != d)?;
            let distinct_u1 = |r: &dyn Router| {
                let mut u = [0u32; MAX_HEIGHT];
                let mut set = std::collections::HashSet::new();
                for &p in r.path_set(&t, s, d).paths() {
                    t.path_up_ports(s, d, p, &mut u);
                    set.insert(u[0]);
                }
                set.len()
            };
            assert!(distinct_u1(&Disjoint::new(k)) >= distinct_u1(&ShiftOne::new(k)));
            Ok(())
        },
    )
}

#[test]
fn self_pairs_get_the_empty_path() -> Result<(), String> {
    cases::run("self_pairs_get_the_empty_path", 96, |rng| {
        let (t, s, _d, k) = topo_pair_k(rng);
        for r in all_limited_routers(k) {
            let set = r.path_set(&t, s, s);
            assert_eq!(set.len(), 1);
            assert_eq!(set.paths()[0].0, 0);
        }
        assert_eq!(DModK.path_set(&t, s, s).paths()[0].0, 0);
        Ok(())
    })
}

mod shift_bijectivity_props {
    use lmpr_codec::cases::{self, CaseRng};
    use lmpr_core::forwarding::{shift_vectors, ShiftVector, SlotOrder};
    use xgft::{PnId, Topology, MAX_HEIGHT};

    /// Trees small enough to enumerate the whole slot × pair space:
    /// `m ≤ 3` keeps the PN count at ≤ 27 and `w ≤ 4` keeps the full
    /// budget `X = Π w_i ≤ 64` under the LMC cap. The `m` and `w`
    /// vectors are drawn independently per level, so asymmetric XGFTs
    /// are the common case, not the exception.
    fn arb_topo(rng: &mut CaseRng) -> Topology {
        super::topo_in(rng, 3, 2..=3, 1..=4)
    }

    /// The path id a shift vector specifies for `(s, d)`: apply
    /// `(u_t(d) + c_t) mod w_t` to the pair's d-mod-k digits and
    /// recombine in the pair's mixed radix.
    fn specified_path(topo: &Topology, s: PnId, d: PnId, shift: &ShiftVector) -> u64 {
        let kappa = topo.nca_level(s, d);
        let mut u = [0u32; MAX_HEIGHT];
        topo.path_up_ports(s, d, topo.dmodk_path(s, d), &mut u);
        let x = topo.w_prod(kappa);
        let mut p = 0u64;
        for t in 1..=kappa {
            let w = topo.spec().w_at(t) as u64;
            let digit = (u[t - 1] as u64 + shift.at(t) as u64) % w;
            p += digit * (x / topo.w_prod(t));
        }
        p
    }

    /// At full budget `K = X` the shift-vector family is bijective
    /// over every pair's path space, for both slot orders: each of
    /// the pair's `X_pair` paths is specified by exactly
    /// `X / X_pair` slots (low-NCA pairs see each of their fewer
    /// paths proportionally more often — an LFT cannot do better).
    #[test]
    fn full_budget_shift_vectors_are_bijective() -> Result<(), String> {
        cases::run("full_budget_shift_vectors_are_bijective", 48, |rng| {
            let topo = arb_topo(rng);
            let x_topo = topo.w_prod(topo.height());
            for order in [SlotOrder::TopFirst, SlotOrder::BottomFirst] {
                let vecs = shift_vectors(&topo, x_topo, order);
                assert_eq!(vecs.len() as u64, x_topo);
                let n = topo.num_pns();
                for s in 0..n {
                    for d in 0..n {
                        let (s, d) = (PnId(s), PnId(d));
                        if s == d {
                            continue;
                        }
                        let x_pair = topo.num_paths(s, d);
                        let mut counts = vec![0u64; x_pair as usize];
                        for v in &vecs {
                            counts[specified_path(&topo, s, d, v) as usize] += 1;
                        }
                        let want = x_topo / x_pair;
                        assert!(
                            counts.iter().all(|&c| c == want),
                            "{order:?} ({s:?}, {d:?}): multiplicities {counts:?}, want {want}"
                        );
                    }
                }
            }
            Ok(())
        })
    }

    /// Slot 0 is plain d-mod-k for both orders at every budget —
    /// the all-zero shift vector — so single-path deployments are
    /// bit-identical to the d-mod-k baseline.
    #[test]
    fn slot_zero_is_plain_dmodk() -> Result<(), String> {
        cases::run("slot_zero_is_plain_dmodk", 48, |rng| {
            let topo = arb_topo(rng);
            let k = rng.range(1..=8);
            for order in [SlotOrder::TopFirst, SlotOrder::BottomFirst] {
                let vecs = shift_vectors(&topo, k, order);
                assert!((1..=topo.height()).all(|t| vecs[0].at(t) == 0));
                let n = topo.num_pns();
                for s in 0..n {
                    for d in 0..n {
                        let (s, d) = (PnId(s), PnId(d));
                        if s == d {
                            continue;
                        }
                        assert_eq!(
                            specified_path(&topo, s, d, &vecs[0]),
                            topo.dmodk_path(s, d).0
                        );
                    }
                }
            }
            Ok(())
        })
    }

    /// At any budget each order enumerates `min(k, X)` *distinct*
    /// shift vectors, and at full budget the two orders enumerate
    /// the same set in different sequences (they trade fork
    /// locality, never coverage). Below full budget the prefixes
    /// legitimately differ — top-first spends its slots on top-level
    /// shifts, bottom-first on level-1 forks.
    #[test]
    fn orders_cover_without_duplicates() -> Result<(), String> {
        cases::run("orders_cover_without_duplicates", 48, |rng| {
            let topo = arb_topo(rng);
            let k = rng.range(1..=16);
            let flat = |order, k| -> Vec<Vec<u32>> {
                let mut v: Vec<Vec<u32>> = shift_vectors(&topo, k, order)
                    .iter()
                    .map(|sv| (1..=topo.height()).map(|t| sv.at(t)).collect())
                    .collect();
                v.sort();
                v
            };
            let x = topo.w_prod(topo.height());
            for order in [SlotOrder::TopFirst, SlotOrder::BottomFirst] {
                let v = flat(order, k);
                assert_eq!(v.len() as u64, k.min(x));
                assert!(
                    v.windows(2).all(|w| w[0] != w[1]),
                    "{order:?} repeats a vector"
                );
            }
            assert_eq!(
                flat(SlotOrder::TopFirst, x),
                flat(SlotOrder::BottomFirst, x)
            );
            Ok(())
        })
    }
}

mod forwarding_props {
    use lmpr_codec::cases::{self, assume, CaseRng};
    use lmpr_core::forwarding::{ForwardingTables, SlotOrder};
    use xgft::{PnId, Topology};

    fn arb_topo(rng: &mut CaseRng) -> Topology {
        super::topo_in(rng, 3, 2..=3, 1..=3)
    }

    /// Every table walk terminates at the right PN on a shortest
    /// path, for both slot orders and arbitrary topologies.
    #[test]
    fn all_walks_verify() -> Result<(), String> {
        cases::run("all_walks_verify", 32, |rng| {
            let topo = arb_topo(rng);
            let k = rng.range(1..=6);
            for order in [SlotOrder::BottomFirst, SlotOrder::TopFirst] {
                let ft = ForwardingTables::build(&topo, k, order);
                for s in 0..topo.num_pns() {
                    for d in 0..topo.num_pns() {
                        let (s, d) = (PnId(s), PnId(d));
                        for slot in 0..k {
                            let nodes = ft
                                .route(&topo, s, d, slot)
                                .unwrap_or_else(|e| panic!("{e}"));
                            let expect = if s == d {
                                1
                            } else {
                                2 * topo.nca_level(s, d) + 1
                            };
                            assert_eq!(nodes.len(), expect);
                        }
                    }
                }
            }
            Ok(())
        })
    }

    /// Distinct slots within the pair's path-space size reach
    /// distinct apexes (the digit shift is injective).
    #[test]
    fn slots_reach_distinct_apexes() -> Result<(), String> {
        cases::run("slots_reach_distinct_apexes", 32, |rng| {
            let topo = arb_topo(rng);
            let h = topo.height();
            let x = topo.w_prod(h).min(8);
            let ft = ForwardingTables::build(&topo, x, SlotOrder::BottomFirst);
            let n = topo.num_pns();
            let (s, d) = (PnId(0), PnId(n - 1));
            assume(topo.nca_level(s, d) == h)?;
            let mut apexes = std::collections::HashSet::new();
            for slot in 0..x.min(topo.num_paths(s, d)) {
                let nodes = ft.route(&topo, s, d, slot).unwrap();
                apexes.insert(nodes[h]);
            }
            assert_eq!(apexes.len() as u64, x.min(topo.num_paths(s, d)));
            Ok(())
        })
    }
}
