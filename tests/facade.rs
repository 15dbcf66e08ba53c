//! The facade crate's public API: everything a downstream user needs is
//! reachable through `lmpr::prelude` and behaves coherently.

use lmpr::prelude::*;
use lmpr::routing::lid;

#[test]
fn prelude_covers_the_whole_workflow() {
    let topo = Topology::new(XgftSpec::m_port_n_tree(8, 2).unwrap());
    let tm = TrafficMatrix::permutation(&random_permutation(topo.num_pns(), 0));
    let router = RouterKind::parse("disjoint:2").unwrap();
    let loads = LinkLoads::accumulate(&topo, &router, &tm);
    assert!(loads.max_load() >= 1.0);
    let stats = FlitSim::simulate(
        &topo,
        router,
        SimConfig {
            warmup_cycles: 500,
            measure_cycles: 1_500,
            ..SimConfig::default()
        },
    )
    .expect("valid config");
    assert!(stats.delivered_flits > 0);
}

#[test]
fn router_kind_strings_round_trip_through_names() {
    for (spec, name) in [
        ("dmodk", "d-mod-k"),
        ("shift1:4", "shift-1(4)"),
        ("disjoint:8", "disjoint(8)"),
        ("stride:2", "disjoint-stride(2)"),
        ("random:3:7", "random(3)"),
        ("umulti", "umulti"),
    ] {
        assert_eq!(RouterKind::parse(spec).unwrap().name(), name);
    }
}

#[test]
fn re_exported_crates_are_the_same_types() {
    // The facade's re-exports must be the actual crates, not copies.
    let topo: lmpr::topology::Topology =
        Topology::new(lmpr::topology::XgftSpec::gft(2, 2, 2).unwrap());
    let _set: lmpr::routing::PathSet =
        lmpr::routing::Router::path_set(&DModK, &topo, PnId(0), PnId(3));
}

#[test]
fn lid_budget_is_exposed() {
    let topo = Topology::new(XgftSpec::m_port_n_tree(24, 3).unwrap());
    assert!(!lid::umulti_realizable(&topo));
    assert!(lid::max_realizable_budget(&topo) >= 1);
}

#[test]
fn doc_example_from_readme_runs() {
    // Keep README's five-line example honest.
    let topo = Topology::new(XgftSpec::m_port_n_tree(8, 2).unwrap());
    let tm = TrafficMatrix::permutation(&random_permutation(topo.num_pns(), 1));
    let single = LinkLoads::accumulate(&topo, &DModK, &tm).max_load();
    let multi = LinkLoads::accumulate(&topo, &Disjoint::new(4), &tm).max_load();
    assert!(multi <= single);
}

#[test]
fn random_permutation_stream_is_pinned() {
    assert_eq!(
        random_permutation(16, 1),
        [14, 3, 8, 10, 13, 5, 7, 0, 4, 15, 6, 2, 9, 1, 11, 12]
    );
}

#[test]
fn random_k_path_samples_are_pinned() {
    let topo = Topology::new(XgftSpec::new(&[4, 4, 4], &[1, 2, 4]).unwrap());
    let router = RandomK::new(4, 11);
    for ((s, d), want) in [
        ((0, 63), [4, 5, 3, 7]),
        ((5, 60), [1, 5, 6, 7]),
        ((17, 42), [3, 2, 6, 5]),
    ] {
        let set = router.path_set(&topo, PnId(s), PnId(d));
        let got: Vec<u64> = set.paths().iter().map(|p| p.0).collect();
        assert_eq!(got, want, "pair ({s}, {d})");
    }
}

#[test]
fn seeded_flit_runs_are_pinned() {
    // Poisson arrivals, uniform and hotspot destinations and per-packet
    // path choices all draw from the sources' seeded streams; these
    // counts move if any draw does.
    let topo = Topology::new(XgftSpec::m_port_n_tree(8, 2).unwrap());
    let cfg = SimConfig {
        warmup_cycles: 200,
        measure_cycles: 800,
        offered_load: 0.4,
        seed: 5,
        path_policy: PathPolicy::PerPacketRandom,
        ..SimConfig::default()
    };
    let counts = |s: SimStats| (s.created_messages, s.completed_messages, s.delivered_flits);
    let uniform = FlitSim::simulate(&topo, RandomK::new(3, 2), cfg).unwrap();
    assert_eq!(counts(uniform), (157, 137, 10_174));
    let hot = TrafficMode::Hotspot {
        hot: vec![3, 17],
        fraction: 0.3,
    };
    let hotspot = FlitSim::with_traffic(&topo, RandomK::new(3, 2), cfg, hot)
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(counts(hotspot), (170, 80, 7_780));
}
