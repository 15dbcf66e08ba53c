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
