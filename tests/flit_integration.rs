//! End-to-end flit-level integration on the paper's Table-1 topology.

use lmpr::flitsim::sweep::{load_grid, run_sweep};
use lmpr::flitsim::{saturation_throughput, FlitSim, PathPolicy};
use lmpr::prelude::*;

fn table1_topo() -> Topology {
    Topology::new(XgftSpec::m_port_n_tree(8, 3).unwrap())
}

fn quick(load: f64) -> SimConfig {
    SimConfig {
        warmup_cycles: 2_000,
        measure_cycles: 6_000,
        offered_load: load,
        ..SimConfig::default()
    }
}

/// Below saturation the network is lossless and open-loop: accepted
/// throughput equals offered load for every scheme.
#[test]
fn subsaturation_throughput_tracks_offered_load() {
    let topo = table1_topo();
    for r in [
        Box::new(DModK) as Box<dyn Router>,
        Box::new(ShiftOne::new(2)),
        Box::new(Disjoint::new(8)),
        Box::new(RandomK::new(4, 3)),
    ] {
        for load in [0.1, 0.3] {
            let s = FlitSim::simulate(&topo, &r, quick(load)).expect("valid config");
            let t = s.accepted_throughput();
            assert!(
                (t - load).abs() < 0.03,
                "{}: accepted {t:.3} at offered {load}",
                r.name()
            );
        }
    }
}

/// Table 1's ordering at K = 8: disjoint saturates above shift-1 and
/// random, and above d-mod-k.
#[test]
fn disjoint_has_highest_saturation_at_k8() {
    let topo = table1_topo();
    let cfg = quick(0.0).with_load(0.5); // load replaced by the sweep
    let loads = [0.6, 0.7, 0.8];
    let sat = |r: &dyn Router| {
        saturation_throughput(&run_sweep(&topo, &r, cfg, &loads).expect("sweep runs"))
    };
    let dmodk = sat(&DModK);
    let shift = sat(&ShiftOne::new(8));
    let random = sat(&RandomK::new(8, 11));
    let disjoint = sat(&Disjoint::new(8));
    assert!(
        disjoint > shift && disjoint > random && disjoint > dmodk,
        "disjoint(8) = {disjoint:.3} must lead (shift {shift:.3}, random {random:.3}, d-mod-k {dmodk:.3})"
    );
}

/// Figure 5's qualitative content: at medium-high load multi-path delay
/// is clearly below single-path delay.
#[test]
fn multipath_reduces_delay_at_medium_load() {
    let topo = table1_topo();
    let single = FlitSim::simulate(&topo, DModK, quick(0.6)).expect("valid config");
    let multi = FlitSim::simulate(&topo, Disjoint::new(2), quick(0.6)).expect("valid config");
    assert!(single.completion_rate() > 0.8 && multi.completion_rate() > 0.8);
    assert!(
        multi.avg_message_delay() < single.avg_message_delay(),
        "disjoint(2) delay {:.1} must beat d-mod-k {:.1}",
        multi.avg_message_delay(),
        single.avg_message_delay()
    );
}

/// Delay explodes past saturation (tree saturation, §5).
#[test]
fn delay_blows_up_past_saturation() {
    let topo = table1_topo();
    let low = FlitSim::simulate(&topo, DModK, quick(0.2)).expect("valid config");
    let high = FlitSim::simulate(&topo, DModK, quick(1.0)).expect("valid config");
    assert!(
        high.avg_message_delay() > 3.0 * low.avg_message_delay() || high.completion_rate() < 0.9,
        "overload must show up as delay blow-up or message starvation"
    );
}

/// Flit conservation holds across a long mixed run on a 3-level tree.
#[test]
fn conservation_on_the_paper_topology() {
    let topo = table1_topo();
    let mut sim = FlitSim::new(&topo, Disjoint::new(4), quick(0.8)).expect("valid config");
    for _ in 0..6_000 {
        sim.step();
    }
    let (injected, delivered) = sim.lifetime_counters();
    assert_eq!(injected, delivered + sim.flits_in_network());
    assert!(delivered > 100_000, "the run must move real traffic");
}

/// The sweep helper and the direct simulation agree.
#[test]
fn sweep_matches_direct_runs() {
    let topo = table1_topo();
    let cfg = quick(0.0);
    let loads = [0.2, 0.5];
    let sweep = run_sweep(&topo, &DModK, cfg, &loads).expect("sweep runs");
    for (i, &l) in loads.iter().enumerate() {
        let direct = FlitSim::simulate(&topo, DModK, cfg.with_load(l)).expect("valid config");
        assert_eq!(sweep[i], direct.load_point());
    }
    assert_eq!(load_grid(0.5), vec![0.5, 1.0]);
}

/// All three path policies deliver the same traffic volume at low load
/// (they only differ in how they spread it).
#[test]
fn policies_agree_below_saturation() {
    let topo = table1_topo();
    let mut results = Vec::new();
    for p in [
        PathPolicy::RoundRobin,
        PathPolicy::PerPacketRandom,
        PathPolicy::PerMessageRandom,
    ] {
        let cfg = SimConfig {
            path_policy: p,
            ..quick(0.25)
        };
        results.push(
            FlitSim::simulate(&topo, Disjoint::new(4), cfg)
                .expect("valid config")
                .accepted_throughput(),
        );
    }
    for w in results.windows(2) {
        assert!(
            (w[0] - w[1]).abs() < 0.02,
            "policies diverge below saturation: {results:?}"
        );
    }
}

/// Cross-validation of the two simulators on one fixed permutation:
/// the scheme with the lower flow-level maximum link load accepts more
/// traffic at the flit level, and every scheme lands between the
/// bottleneck fair share (`1/maxload`, what flows *through* the hot
/// link get) and the injection bound.
#[test]
fn flit_saturation_tracks_flow_level_bottleneck() {
    use lmpr::flowsim::LinkLoads as FL;
    let topo = table1_topo();
    let perm = random_permutation(topo.num_pns(), 3);
    let tm = TrafficMatrix::permutation(&perm);
    let mode = TrafficMode::Permutation(perm.clone());

    let mut measured = Vec::new();
    for r in [RouterKind::DModK, RouterKind::Disjoint(8)] {
        let flow_max = FL::accumulate(&topo, &r, &tm).max_load();
        let cfg = SimConfig {
            warmup_cycles: 4_000,
            measure_cycles: 10_000,
            offered_load: 1.0,
            ..SimConfig::default()
        };
        let mut sim = FlitSim::with_traffic(&topo, r, cfg, mode.clone()).expect("valid config");
        let accepted = sim.run().expect("no deadlock").accepted_throughput();
        assert!(
            accepted >= 0.5 / flow_max && accepted <= 1.0,
            "{}: accepted {accepted:.3} outside [{:.3}, 1.0]",
            r.name(),
            0.5 / flow_max
        );
        measured.push((flow_max, accepted));
    }
    let (dmodk, disjoint) = (measured[0], measured[1]);
    assert!(
        disjoint.0 < dmodk.0,
        "sanity: disjoint(8) must have the lower static bottleneck"
    );
    assert!(
        disjoint.1 > dmodk.1,
        "the lower static bottleneck must accept more: disjoint {:.3} vs d-mod-k {:.3}",
        disjoint.1,
        dmodk.1
    );
}

/// Permutation mode routes every message to the permutation target.
#[test]
fn permutation_mode_is_honoured() {
    let topo = table1_topo();
    let n = topo.num_pns();
    // A permutation with some self-mapped (silent) entries.
    let mut perm: Vec<u32> = (0..n).collect();
    perm.swap(0, 77);
    perm.swap(12, 99);
    let cfg = SimConfig {
        warmup_cycles: 0,
        measure_cycles: 4_000,
        offered_load: 0.3,
        ..SimConfig::default()
    };
    let mut sim = FlitSim::with_traffic(&topo, DModK, cfg, TrafficMode::Permutation(perm))
        .expect("valid config");
    let stats = sim.run().expect("no deadlock");
    // Only 4 nodes send; aggregate throughput is tiny but non-zero, and
    // the delivery assertions inside the simulator (debug) plus flit
    // conservation guarantee correctness of the destinations.
    assert!(stats.delivered_flits > 0);
    let (injected, delivered) = sim.lifetime_counters();
    assert_eq!(injected, delivered + sim.flits_in_network());
    assert!(
        stats.accepted_throughput() < 0.3 * 5.0 / n as f64 + 0.02,
        "only the 4 swapped nodes may send"
    );
}

/// Hotspot traffic cannot be fixed by multi-path routing — the hot
/// node's ejection link is the bottleneck for every scheme (negative
/// control from the hotspot literature).
#[test]
fn hotspot_is_routing_invariant() {
    let topo = table1_topo();
    let mode = lmpr::flitsim::TrafficMode::Hotspot {
        hot: vec![0],
        fraction: 0.5,
    };
    let cfg = SimConfig {
        warmup_cycles: 2_000,
        measure_cycles: 6_000,
        offered_load: 0.6,
        ..SimConfig::default()
    };
    let a = {
        let mut s = FlitSim::with_traffic(&topo, DModK, cfg, mode.clone()).expect("valid config");
        s.run().expect("no deadlock").accepted_throughput()
    };
    let b = {
        let mut s =
            FlitSim::with_traffic(&topo, Disjoint::new(8), cfg, mode).expect("valid config");
        s.run().expect("no deadlock").accepted_throughput()
    };
    // Both collapse to a similar hot-node-bound throughput.
    assert!(
        (a - b).abs() < 0.05,
        "hotspot throughput should be scheme-independent: {a:.3} vs {b:.3}"
    );
    assert!(
        a < 0.35,
        "the hot ejection link must cap throughput, got {a:.3}"
    );
}
