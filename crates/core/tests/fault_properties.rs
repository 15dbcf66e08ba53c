//! Property-based tests for degraded routing through the
//! `SelectionEngine`: for arbitrary XGFTs, SD pairs and sampled fault
//! sets, the degraded selection must stay inside the fault-free
//! enumeration, avoid every failed link, keep the `min(K, X_surviving)`
//! cardinality, and collapse to the inner heuristic bit-for-bit when
//! the fault set is empty. And the selection cache's
//! blast-radius-scoped flush must be indistinguishable from the
//! exhaustive walk of every cached entry it replaced.

use lmpr_codec::splitmix::next as splitmix;
use lmpr_core::{
    route_key, Disjoint, DisjointStride, RandomK, RouteError, Router, RouterKind, SelectionEngine,
    ShiftOne,
};
use proptest::prelude::*;
use xgft::{DirectedLinkId, FaultChange, FaultSet, NodeId, PathId, PnId, Topology, XgftSpec};

fn arb_topo() -> impl Strategy<Value = Topology> {
    (1usize..=3)
        .prop_flat_map(|h| {
            (
                prop::collection::vec(2u32..=4, h),
                prop::collection::vec(1u32..=4, h),
            )
        })
        .prop_map(|(m, w)| Topology::new(XgftSpec::new(&m, &w).expect("valid spec")))
}

/// Topology, SD pair, budget and a sampled fault set: up to 40 % of
/// links, so top-up scans wrap past the end of the enumeration and some
/// pairs lose every path.
fn degraded_case() -> impl Strategy<Value = (Topology, PnId, PnId, u64, FaultSet)> {
    arb_topo().prop_flat_map(|t| {
        let n = t.num_pns();
        (Just(t), 0..n, 0..n, 1u64..=10, 0u64..=200, 0u32..=40).prop_map(
            |(t, s, d, k, seed, rate_pct)| {
                let faults = FaultSet::sample(&t, rate_pct as f64 / 100.0, 0.0, seed);
                (t, PnId(s), PnId(d), k, faults)
            },
        )
    })
}

fn all_limited_routers(k: u64) -> Vec<Box<dyn Router>> {
    vec![
        Box::new(ShiftOne::new(k)),
        Box::new(Disjoint::new(k)),
        Box::new(DisjointStride::new(k)),
        Box::new(RandomK::new(k, 0xFEED)),
    ]
}

/// The flush predicate before it was scoped, kept as the reference:
/// every cached entry, in sorted key order, walks its selected paths
/// against the newly dead links and — when degraded — its whole
/// canonical enumeration against the recovered ones.
fn exhaustive_flush(
    topo: &Topology,
    engine: &SelectionEngine<RouterKind>,
    changes: &[FaultChange],
) -> Vec<u64> {
    let mut newly_down = FaultSet::new();
    let mut newly_up = FaultSet::new();
    for &change in changes {
        match change {
            FaultChange::LinkDown(_) | FaultChange::SwitchDown(_) => {
                change.apply(topo, &mut newly_down);
            }
            FaultChange::LinkUp(l) => newly_up.fail_link(l),
            FaultChange::SwitchUp(n) => newly_up.fail_switch(topo, n),
        }
    }
    let mut flushed = Vec::new();
    for (s, d, sel) in engine.cached_selections() {
        let dead = !sel
            .paths
            .iter()
            .all(|&p| newly_down.path_survives(topo, s, d, p));
        let improvable = sel.degraded
            && topo
                .all_paths(s, d)
                .any(|p| !newly_up.path_survives(topo, s, d, p));
        if dead || improvable {
            flushed.push(route_key(s, d));
        }
    }
    flushed
}

/// A batch of one to four changes: link and switch events, down and up,
/// recoveries preferring elements the view knows are dead.
fn draw_batch(topo: &Topology, view: &FaultSet, rng: &mut u64) -> Vec<FaultChange> {
    let below = |rng: &mut u64, n: u32| (splitmix(rng) % u64::from(n)) as u32;
    let dead_links: Vec<DirectedLinkId> = view.failed_links().collect();
    let len = 1 + below(rng, 4);
    (0..len)
        .map(|_| {
            let level = 1 + below(rng, topo.height() as u32);
            let node = NodeId {
                level: level as u8,
                rank: below(rng, topo.nodes_at_level(level as usize)),
            };
            match below(rng, 6) {
                0 | 1 => FaultChange::LinkDown(DirectedLinkId(below(rng, topo.num_links()))),
                2 if !dead_links.is_empty() => {
                    FaultChange::LinkUp(dead_links[below(rng, dead_links.len() as u32) as usize])
                }
                2 | 3 => FaultChange::LinkUp(DirectedLinkId(below(rng, topo.num_links()))),
                4 => FaultChange::SwitchDown(node),
                _ => match view.failed_switches() {
                    [] => FaultChange::SwitchUp(node),
                    dead => FaultChange::SwitchUp(dead[below(rng, dead.len() as u32) as usize]),
                },
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn scoped_flush_equals_the_exhaustive_walk(
        (t, seed, scheme, k) in (arb_topo(), 0u64..=u64::MAX, 0u8..=4, 1u64..=6)
    ) {
        let kind = match scheme {
            0 => RouterKind::DModK,
            1 => RouterKind::ShiftOne(k),
            2 => RouterKind::Disjoint(k),
            3 => RouterKind::RandomK(k, seed),
            _ => RouterKind::Umulti,
        };
        let mut rng = seed;
        let n = t.num_pns();
        let rate = (splitmix(&mut rng) % 10) as f64 / 100.0;
        let switch_rate = (splitmix(&mut rng) % 2) as f64 * 0.05;
        let mut engine = SelectionEngine::cached(kind, FaultSet::sample(&t, rate, switch_rate, seed));
        let (mut warm, mut cold) = (Vec::new(), Vec::new());
        for _round in 0..4 {
            // Warm-cache contents: a random multiset of pairs, so the
            // cache holds anything from a handful of entries to most of
            // the matrix, pristine and degraded and disconnected alike.
            for _ in 0..splitmix(&mut rng) % (2 * u64::from(n * n)) {
                let s = PnId((splitmix(&mut rng) % u64::from(n)) as u32);
                let d = PnId((splitmix(&mut rng) % u64::from(n)) as u32);
                if s != d {
                    engine.select(&t, s, d, &mut warm);
                }
            }
            let changes = draw_batch(&t, engine.view(), &mut rng);
            let expected = exhaustive_flush(&t, &engine, &changes);
            let before = engine.stats();
            let survivors: Vec<(PnId, PnId, Vec<PathId>, bool)> = engine
                .cached_selections()
                .into_iter()
                .filter(|&(s, d, _)| !expected.contains(&route_key(s, d)))
                .map(|(s, d, sel)| (s, d, sel.paths.clone(), sel.degraded))
                .collect();
            let uncollected = engine.clone().apply_changes(&t, &changes);

            let mut flushed = vec![u64::MAX]; // appended to, never cleared
            let count = engine.apply_changes_collect(&t, &changes, &mut flushed);
            prop_assert_eq!(&flushed[1..], &expected[..], "flushed keys for {:?}", &changes);
            prop_assert_eq!(flushed[0], u64::MAX);
            prop_assert_eq!(count, expected.len() as u64);
            prop_assert_eq!(uncollected, count);
            let after = engine.stats();
            prop_assert_eq!(after.invalidated, before.invalidated + count);
            prop_assert_eq!((after.hits, after.misses), (before.hits, before.misses));
            // What was not flushed is exactly what was there.
            let kept: Vec<(PnId, PnId, Vec<PathId>, bool)> = engine
                .cached_selections()
                .into_iter()
                .map(|(s, d, sel)| (s, d, sel.paths.clone(), sel.degraded))
                .collect();
            prop_assert_eq!(kept, survivors);
            // And it was enough: every pair, answered through the
            // surviving cache, equals a cold recomputation.
            let mut probe = engine.clone();
            let mut reference = SelectionEngine::with_view(kind, engine.view().clone());
            for s in (0..n).map(PnId) {
                for d in (0..n).map(PnId).filter(|&d| d != s) {
                    let w = probe.try_select(&t, s, d, &mut warm);
                    let c = reference.try_select(&t, s, d, &mut cold);
                    prop_assert_eq!(w, c, "({:?}, {:?}) after {:?}", s, d, &changes);
                    prop_assert_eq!(&warm, &cold, "({:?}, {:?}) after {:?}", s, d, &changes);
                }
            }
        }
    }

    #[test]
    fn degraded_sets_are_surviving_subsets_of_the_enumeration(
        (t, s, d, k, faults) in degraded_case()
    ) {
        let x = t.num_paths(s, d);
        let surviving = faults.num_surviving(&t, s, d);
        for r in all_limited_routers(k) {
            let name = r.name();
            let mut engine = SelectionEngine::with_view(r, faults.clone());
            let mut out: Vec<PathId> = Vec::new();
            match engine.try_select(&t, s, d, &mut out) {
                Ok(_) => {
                    // Cardinality: min(K, surviving X).
                    prop_assert_eq!(
                        out.len() as u64, k.min(surviving),
                        "router {} cardinality", &name
                    );
                    for &p in &out {
                        // Subset of the fault-free enumeration…
                        prop_assert!(p.0 < x, "router {} out-of-range id", &name);
                        // …using only surviving links.
                        prop_assert!(
                            faults.path_survives(&t, s, d, p),
                            "router {} selected a dead path", &name
                        );
                    }
                    let mut ids: Vec<u64> = out.iter().map(|p| p.0).collect();
                    ids.sort_unstable();
                    ids.dedup();
                    prop_assert_eq!(ids.len(), out.len(), "router {} duplicates", &name);
                }
                Err(e) => {
                    prop_assert_eq!(surviving, 0, "router {} spurious error", &name);
                    prop_assert_eq!(e, RouteError::Disconnected { src: s, dst: d });
                    prop_assert!(out.is_empty());
                }
            }
        }
    }

    #[test]
    fn empty_fault_set_reproduces_every_heuristic_bit_for_bit(
        (t, s, d, k, _faults) in degraded_case()
    ) {
        for r in all_limited_routers(k) {
            let plain = r.path_set(&t, s, d);
            let name = r.name();
            let mut engine = SelectionEngine::new(r);
            let mut out = Vec::new();
            prop_assert_eq!(engine.try_select(&t, s, d, &mut out), Ok(false));
            prop_assert_eq!(&out[..], plain.paths(), "engine altered {}", &name);
            // The infallible trait path agrees too, under the same name.
            prop_assert_eq!(engine.path_set(&t, s, d), plain);
            prop_assert_eq!(engine.name(), name);
        }
    }

    #[test]
    fn disconnection_matches_the_connectivity_oracle(
        (t, s, d, k, faults) in degraded_case()
    ) {
        let mut engine = SelectionEngine::with_view(Disjoint::new(k), faults.clone());
        let routed = engine.try_select(&t, s, d, &mut Vec::new()).is_ok();
        prop_assert_eq!(routed, faults.connected(&t, s, d));
    }
}
