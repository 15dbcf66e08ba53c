//! Property-based tests for degraded routing through the
//! `SelectionEngine`: for arbitrary XGFTs, SD pairs and sampled fault
//! sets, the degraded selection must stay inside the fault-free
//! enumeration, avoid every failed link, keep the `min(K, X_surviving)`
//! cardinality, and collapse to the inner heuristic bit-for-bit when
//! the fault set is empty. The engine's survivor-set top-up must select
//! byte for byte what the path-walking top-up it replaced selected. And
//! the selection cache's blast-radius-scoped flush must be
//! indistinguishable from the exhaustive walk of every cached entry it
//! replaced.

use lmpr_codec::cases::{self, CaseRng};
use lmpr_codec::splitmix::next as splitmix;
use lmpr_core::{
    route_key, Disjoint, DisjointStride, RandomK, RouteError, Router, RouterKind, SelectionEngine,
    ShiftOne,
};
use xgft::{DirectedLinkId, FaultChange, FaultSet, NodeId, PathId, PnId, Topology, XgftSpec};

/// A random tree: height 1..=3, then `m` in 2..=4 and `w` in 1..=4
/// drawn independently per level.
fn arb_topo(rng: &mut CaseRng) -> Topology {
    let h = rng.range(1..=3);
    let m: Vec<u32> = (0..h).map(|_| rng.range(2..=4) as u32).collect();
    let w: Vec<u32> = (0..h).map(|_| rng.range(1..=4) as u32).collect();
    Topology::new(XgftSpec::new(&m, &w).expect("valid spec"))
}

/// Topology, SD pair, budget and a sampled fault set: up to 40 % of
/// links, so top-up scans wrap past the end of the enumeration and some
/// pairs lose every path.
fn degraded_case(rng: &mut CaseRng) -> (Topology, PnId, PnId, u64, FaultSet) {
    let t = arb_topo(rng);
    let n = u64::from(t.num_pns());
    let s = PnId(rng.below(n) as u32);
    let d = PnId(rng.below(n) as u32);
    let k = rng.range(1..=10);
    let seed = rng.range(0..=200);
    let faults = FaultSet::sample(&t, rng.range(0..=40) as f64 / 100.0, 0.0, seed);
    (t, s, d, k, faults)
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

/// The degraded top-up as it was before it read survival off a
/// `SurvivorSet`, kept verbatim as the reference: every candidate path
/// walked link by link against the raw fault bits.
fn walked_degrade_selection(
    topo: &Topology,
    s: PnId,
    d: PnId,
    faults: &FaultSet,
    out: &mut Vec<PathId>,
) -> Result<bool, RouteError> {
    if faults.is_empty() {
        return Ok(false);
    }
    let budget = out.len();
    out.retain(|&p| faults.path_survives(topo, s, d, p));
    if out.len() == budget {
        return Ok(false); // every selected path survived
    }
    // Re-select from the surviving enumeration, preserving the
    // already-selected survivors and topping up from the pair's d-mod-k
    // index (wrapping) so replacements stay spread across pairs.
    let x = topo.num_paths(s, d);
    let start = topo.dmodk_path(s, d).0;
    for n in 0..x {
        if out.len() == budget {
            break;
        }
        let p = PathId((start + n) % x);
        if !out.contains(&p) && faults.path_survives(topo, s, d, p) {
            out.push(p);
        }
    }
    if out.is_empty() {
        return Err(RouteError::Disconnected { src: s, dst: d });
    }
    Ok(true)
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

#[test]
fn scoped_flush_equals_the_exhaustive_walk() -> Result<(), String> {
    cases::run("scoped_flush_equals_the_exhaustive_walk", 96, |rng| {
        let t = arb_topo(rng);
        let seed = rng.next_u64();
        let scheme = rng.range(0..=4);
        let k = rng.range(1..=6);
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
        let mut engine =
            SelectionEngine::cached(kind, FaultSet::sample(&t, rate, switch_rate, seed));
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
            assert_eq!(
                &flushed[1..],
                &expected[..],
                "flushed keys for {:?}",
                &changes
            );
            assert_eq!(flushed[0], u64::MAX);
            assert_eq!(count, expected.len() as u64);
            assert_eq!(uncollected, count);
            let after = engine.stats();
            assert_eq!(after.invalidated, before.invalidated + count);
            assert_eq!((after.hits, after.misses), (before.hits, before.misses));
            // What was not flushed is exactly what was there.
            let kept: Vec<(PnId, PnId, Vec<PathId>, bool)> = engine
                .cached_selections()
                .into_iter()
                .map(|(s, d, sel)| (s, d, sel.paths.clone(), sel.degraded))
                .collect();
            assert_eq!(kept, survivors);
            // And it was enough: every pair, answered through the
            // surviving cache, equals a cold recomputation.
            let mut probe = engine.clone();
            let mut reference = SelectionEngine::with_view(kind, engine.view().clone());
            for s in (0..n).map(PnId) {
                for d in (0..n).map(PnId).filter(|&d| d != s) {
                    let w = probe.try_select(&t, s, d, &mut warm);
                    let c = reference.try_select(&t, s, d, &mut cold);
                    assert_eq!(w, c, "({:?}, {:?}) after {:?}", s, d, &changes);
                    assert_eq!(&warm, &cold, "({:?}, {:?}) after {:?}", s, d, &changes);
                }
            }
        }
        Ok(())
    })
}

#[test]
fn engine_degrades_exactly_as_the_walked_reference() -> Result<(), String> {
    cases::run(
        "engine_degrades_exactly_as_the_walked_reference",
        96,
        |rng| {
            let t = arb_topo(rng);
            let seed = rng.next_u64();
            let k = rng.range(1..=8);
            let link = rng.range(0..=40) as f64 / 100.0;
            let switch = rng.range(0..=40) as f64 / 100.0;
            let view = FaultSet::sample(&t, link, switch, seed);
            let n = t.num_pns();
            let (mut got, mut want) = (Vec::new(), Vec::new());
            for kind in [
                RouterKind::DModK,
                RouterKind::SModK,
                RouterKind::ShiftOne(k),
                RouterKind::Disjoint(k),
                RouterKind::DisjointStride(k),
                RouterKind::RandomK(k, seed),
                RouterKind::Umulti,
            ] {
                let mut engine = SelectionEngine::with_view(kind, view.clone());
                for s in (0..n).map(PnId) {
                    for d in (0..n).map(PnId) {
                        let result = engine.try_select(&t, s, d, &mut got);
                        kind.fill_paths(&t, s, d, &mut want);
                        let reference = walked_degrade_selection(&t, s, d, &view, &mut want);
                        assert_eq!(result, reference, "{} ({:?}, {:?})", kind.name(), s, d);
                        assert_eq!(&got, &want, "{} ({:?}, {:?})", kind.name(), s, d);
                    }
                }
            }
            Ok(())
        },
    )
}

#[test]
fn degraded_sets_are_surviving_subsets_of_the_enumeration() -> Result<(), String> {
    cases::run(
        "degraded_sets_are_surviving_subsets_of_the_enumeration",
        96,
        |rng| {
            let (t, s, d, k, faults) = degraded_case(rng);
            let x = t.num_paths(s, d);
            let surviving = faults.num_surviving(&t, s, d);
            for r in all_limited_routers(k) {
                let name = r.name();
                let mut engine = SelectionEngine::with_view(r, faults.clone());
                let mut out: Vec<PathId> = Vec::new();
                match engine.try_select(&t, s, d, &mut out) {
                    Ok(_) => {
                        // Cardinality: min(K, surviving X).
                        assert_eq!(
                            out.len() as u64,
                            k.min(surviving),
                            "router {} cardinality",
                            &name
                        );
                        for &p in &out {
                            // Subset of the fault-free enumeration…
                            assert!(p.0 < x, "router {} out-of-range id", &name);
                            // …using only surviving links.
                            assert!(
                                faults.path_survives(&t, s, d, p),
                                "router {} selected a dead path",
                                &name
                            );
                        }
                        let mut ids: Vec<u64> = out.iter().map(|p| p.0).collect();
                        ids.sort_unstable();
                        ids.dedup();
                        assert_eq!(ids.len(), out.len(), "router {} duplicates", &name);
                    }
                    Err(e) => {
                        assert_eq!(surviving, 0, "router {} spurious error", &name);
                        assert_eq!(e, RouteError::Disconnected { src: s, dst: d });
                        assert!(out.is_empty());
                    }
                }
            }
            Ok(())
        },
    )
}

#[test]
fn empty_fault_set_reproduces_every_heuristic_bit_for_bit() -> Result<(), String> {
    cases::run(
        "empty_fault_set_reproduces_every_heuristic_bit_for_bit",
        96,
        |rng| {
            let (t, s, d, k, _faults) = degraded_case(rng);
            for r in all_limited_routers(k) {
                let plain = r.path_set(&t, s, d);
                let name = r.name();
                let mut engine = SelectionEngine::new(r);
                let mut out = Vec::new();
                assert_eq!(engine.try_select(&t, s, d, &mut out), Ok(false));
                assert_eq!(&out[..], plain.paths(), "engine altered {}", &name);
                // The infallible trait path agrees too, under the same name.
                assert_eq!(engine.path_set(&t, s, d), plain);
                assert_eq!(engine.name(), name);
            }
            Ok(())
        },
    )
}

#[test]
fn disconnection_matches_the_connectivity_oracle() -> Result<(), String> {
    cases::run("disconnection_matches_the_connectivity_oracle", 96, |rng| {
        let (t, s, d, k, faults) = degraded_case(rng);
        let mut engine = SelectionEngine::with_view(Disjoint::new(k), faults.clone());
        let routed = engine.try_select(&t, s, d, &mut Vec::new()).is_ok();
        assert_eq!(routed, faults.connected(&t, s, d));
        Ok(())
    })
}
