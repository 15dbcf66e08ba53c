//! Cross-crate property tests: invariants that tie the routing layer,
//! the flow-level analysis and the theory together on random inputs.

use lmpr::flowsim::{ml_lower_bound, performance_ratio};
use lmpr::prelude::*;
use lmpr_codec::cases::{self, CaseRng};

/// A random tree: height 1..=3, then `m` in 2..=4 and `w` in 1..=3
/// drawn independently per level.
fn arb_topo(rng: &mut CaseRng) -> Topology {
    let h = rng.range(1..=3);
    let m: Vec<u32> = (0..h).map(|_| rng.range(2..=4) as u32).collect();
    let w: Vec<u32> = (0..h).map(|_| rng.range(1..=3) as u32).collect();
    Topology::new(XgftSpec::new(&m, &w).expect("valid"))
}

fn arb_router(k: u64, seed: u64) -> Vec<RouterKind> {
    vec![
        RouterKind::DModK,
        RouterKind::SModK,
        RouterKind::ShiftOne(k),
        RouterKind::Disjoint(k),
        RouterKind::DisjointStride(k),
        RouterKind::RandomK(k, seed),
        RouterKind::Umulti,
    ]
}

/// PERF ≥ 1 for every router on every permutation, and UMULTI
/// pins the optimum (Theorem 1).
#[test]
fn performance_ratios_are_sane() -> Result<(), String> {
    cases::run("performance_ratios_are_sane", 48, |rng| {
        let topo = arb_topo(rng);
        let seed = rng.below(1000);
        let k = rng.range(1..=6);
        let tm = TrafficMatrix::permutation(&random_permutation(topo.num_pns(), seed));
        let opt = ml_lower_bound(&topo, &tm);
        for r in arb_router(k, seed) {
            let ratio = performance_ratio(&topo, &r, &tm);
            assert!(ratio >= 1.0 - 1e-9, "{} ratio {ratio} < 1", r.name());
        }
        if opt > 0.0 {
            let u = performance_ratio(&topo, &RouterKind::Umulti, &tm);
            assert!((u - 1.0).abs() < 1e-9, "UMULTI ratio {u} != 1");
        }
        Ok(())
    })
}

/// Total routed volume is invariant across routers: every scheme
/// moves each flow over exactly 2·κ links' worth of demand.
#[test]
fn total_link_volume_is_router_independent() -> Result<(), String> {
    cases::run("total_link_volume_is_router_independent", 48, |rng| {
        let topo = arb_topo(rng);
        let seed = rng.below(1000);
        let k = rng.range(1..=6);
        let tm = TrafficMatrix::permutation(&random_permutation(topo.num_pns(), seed));
        let reference = LinkLoads::accumulate(&topo, &RouterKind::DModK, &tm).total();
        for r in arb_router(k, seed) {
            let total = LinkLoads::accumulate(&topo, &r, &tm).total();
            assert!(
                (total - reference).abs() < 1e-6,
                "{} moved {total}, expected {reference}",
                r.name()
            );
        }
        Ok(())
    })
}

/// Increasing K never increases the max load under the deterministic
/// heuristics *on the worst link of a fixed permutation in
/// expectation-free form*: we assert the weaker, always-true variant
/// MLOAD(K = X) ≤ MLOAD(K = 1).
#[test]
fn full_budget_never_loses_to_single_path() -> Result<(), String> {
    cases::run("full_budget_never_loses_to_single_path", 48, |rng| {
        let topo = arb_topo(rng);
        let seed = rng.below(1000);
        let tm = TrafficMatrix::permutation(&random_permutation(topo.num_pns(), seed));
        let x = topo.w_prod(topo.height());
        let single = LinkLoads::accumulate(&topo, &RouterKind::DModK, &tm).max_load();
        let full = LinkLoads::accumulate(&topo, &RouterKind::Disjoint(x), &tm).max_load();
        assert!(full <= single + 1e-9);
        Ok(())
    })
}

/// Degraded flow-level loads are bit-equal to an accumulation that
/// routes every flow through the same engine and walks each selected
/// path along its label digits, depositing in the same order: the
/// closed-form walk changes what a deposit costs, never what it adds.
#[test]
fn degraded_loads_equal_the_label_walk_deposit() -> Result<(), String> {
    cases::run("degraded_loads_equal_the_label_walk_deposit", 48, |rng| {
        let topo = arb_topo(rng);
        let seed = rng.below(1000);
        let k = rng.range(1..=6);
        let rate = rng.range(0..=30) as f64 / 100.0;
        let switch_rate = rng.range(0..=10) as f64 / 100.0;
        let faults = FaultSet::sample(&topo, rate, switch_rate, rng.next_u64());
        let n = topo.num_pns();
        let mut flows = Vec::new();
        for s in (0..n).map(PnId) {
            for d in (0..n).map(PnId) {
                if s != d && rng.below(2) == 0 {
                    let demand = rng.range(1..=16) as f64 / 3.0;
                    flows.push(lmpr::traffic::Flow {
                        src: s,
                        dst: d,
                        demand,
                    });
                }
            }
        }
        let tm = TrafficMatrix::from_flows(n, flows);
        for r in arb_router(k, seed) {
            let got = DegradedLoads::accumulate(&topo, &r, &tm, &faults);
            let mut engine = SelectionEngine::with_view(&r, faults.clone());
            let mut want = vec![0.0f64; topo.num_links() as usize];
            let (mut routed, mut disconnected) = (0u64, 0u64);
            let mut paths = Vec::new();
            for f in tm.flows() {
                if engine.try_select(&topo, f.src, f.dst, &mut paths).is_err() {
                    disconnected += 1;
                    continue;
                }
                routed += 1;
                let share = f.demand / paths.len() as f64;
                for &p in &paths {
                    topo.walk_path_by_labels(f.src, f.dst, p, |l| want[l.0 as usize] += share);
                }
            }
            assert_eq!(
                (got.routed_flows, got.disconnected_flows),
                (routed, disconnected)
            );
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(got.loads.loads()), bits(&want), "{}", r.name());
        }
        Ok(())
    })
}

/// The flit simulator conserves flits for arbitrary small runs.
#[test]
fn flit_conservation_on_random_configs() -> Result<(), String> {
    cases::run("flit_conservation_on_random_configs", 48, |rng| {
        let seed = rng.below(100);
        let load_pct = rng.range(10..=100) as u32;
        let k = rng.range(1..=4);
        let topo = Topology::new(XgftSpec::new(&[2, 4], &[1, 2]).unwrap());
        let cfg = SimConfig {
            warmup_cycles: 200,
            measure_cycles: 800,
            offered_load: load_pct as f64 / 100.0,
            seed,
            packet_flits: 4,
            packets_per_message: 2,
            buffer_packets: 2,
            ..SimConfig::default()
        };
        let mut sim = FlitSim::new(&topo, Disjoint::new(k), cfg).expect("valid config");
        for _ in 0..1_000 {
            sim.step();
        }
        let (injected, delivered) = sim.lifetime_counters();
        assert_eq!(injected, delivered + sim.flits_in_network());
        Ok(())
    })
}
