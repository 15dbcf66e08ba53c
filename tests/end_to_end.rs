//! End-to-end flow-level integration: the paper's Figure-4 claims on
//! small instances of the §5 topologies, with fixed seeds.

use lmpr::flowsim::{ml_lower_bound, performance_ratio};
use lmpr::prelude::*;
use lmpr::traffic::adversarial_concentration;

fn quick_cfg() -> StudyConfig {
    StudyConfig {
        initial_samples: 40,
        max_samples: 160,
        rel_half_width: 0.04,
        ..StudyConfig::default()
    }
}

/// Figure 4's qualitative content on an 8-port 2-tree: every heuristic
/// improves monotonically with K and reaches the optimum at K = max.
#[test]
fn two_level_tree_reaches_optimal() {
    let topo = Topology::new(XgftSpec::m_port_n_tree(8, 2).unwrap());
    let study = PermutationStudy::new(topo.clone(), quick_cfg());
    let max_k = topo.w_prod(topo.height());
    let umulti = study.run(&Umulti).mean;

    for mk in [
        (|k| Box::new(ShiftOne::new(k)) as Box<dyn Router>) as fn(u64) -> Box<dyn Router>,
        |k| Box::new(Disjoint::new(k)),
        |k| Box::new(RandomK::new(k, 5)),
    ] {
        let mut prev = f64::INFINITY;
        for k in 1..=max_k {
            let mean = study.run(&mk(k)).mean;
            assert!(
                mean <= prev + 0.15,
                "{} regressed hard from K={} ({prev:.3}) to K={k} ({mean:.3})",
                mk(k).name(),
                k - 1
            );
            prev = mean;
        }
        let full = study.run(&mk(max_k)).mean;
        assert!(
            (full - umulti).abs() < 1e-9,
            "{} at K = max must equal UMULTI",
            mk(max_k).name()
        );
    }
}

/// On 2-level trees shift-1 and disjoint are the *same* scheme (§5).
#[test]
fn shift_equals_disjoint_on_two_level_trees() {
    let topo = Topology::new(XgftSpec::m_port_n_tree(8, 2).unwrap());
    for k in 1..=4u64 {
        let shift = ShiftOne::new(k);
        let disjoint = Disjoint::new(k);
        for s in 0..topo.num_pns() {
            for d in 0..topo.num_pns() {
                let (s, d) = (PnId(s), PnId(d));
                let a: std::collections::BTreeSet<_> = shift
                    .path_set(&topo, s, d)
                    .paths()
                    .iter()
                    .copied()
                    .collect();
                let b: std::collections::BTreeSet<_> = disjoint
                    .path_set(&topo, s, d)
                    .paths()
                    .iter()
                    .copied()
                    .collect();
                assert_eq!(
                    a, b,
                    "shift-1({k}) != disjoint({k}) on pair ({}, {})",
                    s.0, d.0
                );
            }
        }
    }
}

/// Figure 4(b)/(d) headline: on 3-level trees the disjoint heuristic
/// beats shift-1 significantly at intermediate K.
#[test]
fn disjoint_beats_shift_on_three_level_trees() {
    let topo = Topology::new(XgftSpec::m_port_n_tree(8, 3).unwrap());
    let study = PermutationStudy::new(topo, quick_cfg());
    for k in [2u64, 4, 8] {
        let shift = study.run(&ShiftOne::new(k)).mean;
        let disjoint = study.run(&Disjoint::new(k)).mean;
        assert!(
            disjoint < shift,
            "disjoint({k}) = {disjoint:.3} must beat shift-1({k}) = {shift:.3}"
        );
    }
}

/// "Even a small K is much better than single-path routing."
#[test]
fn small_k_recovers_most_of_the_gap() {
    let topo = Topology::new(XgftSpec::m_port_n_tree(8, 3).unwrap());
    let study = PermutationStudy::new(topo, quick_cfg());
    let single = study.run(&DModK).mean;
    let k4 = study.run(&Disjoint::new(4)).mean;
    let opt = study.run(&Umulti).mean;
    assert!(single > opt, "sanity: single-path is suboptimal");
    let recovered = (single - k4) / (single - opt);
    assert!(
        recovered > 0.5,
        "disjoint(4) should recover >50% of the single-path gap, got {recovered:.2}"
    );
}

/// Theorem 1 on every §5 topology small enough to test quickly.
#[test]
fn umulti_is_optimal_everywhere() {
    for spec in [
        XgftSpec::m_port_n_tree(8, 2).unwrap(),
        XgftSpec::m_port_n_tree(8, 3).unwrap(),
        XgftSpec::new(&[2, 3, 4], &[3, 1, 2]).unwrap(),
    ] {
        let topo = Topology::new(spec);
        for seed in 0..8u64 {
            let tm = TrafficMatrix::permutation(&random_permutation(topo.num_pns(), seed));
            let ratio = performance_ratio(&topo, &Umulti, &tm);
            assert!(
                (ratio - 1.0).abs() < 1e-9,
                "PERF(UMULTI) must be 1, got {ratio}"
            );
        }
    }
}

/// Theorem 2 end to end, including that limited multi-path routing
/// repairs the adversarial pattern gradually.
#[test]
fn adversarial_pattern_repair_curve() {
    let topo = Topology::new(XgftSpec::new(&[4, 4, 64], &[2, 2, 2]).unwrap());
    let p = adversarial_concentration(&topo).unwrap();
    let w = topo.w_prod(topo.height()) as f64;
    assert_eq!(performance_ratio(&topo, &DModK, &p.tm), w);
    let mut prev = f64::INFINITY;
    for k in [1u64, 2, 4, 8] {
        let ratio = performance_ratio(&topo, &Disjoint::new(k), &p.tm);
        assert!(ratio <= prev, "ratio must not grow with K");
        prev = ratio;
    }
    assert!((prev - 1.0).abs() < 1e-9, "K = Π w_i must be optimal");
}

/// The Lemma 1 bound is genuinely a lower bound for *every* router.
#[test]
fn ml_bound_lower_bounds_all_routers() {
    let topo = Topology::new(XgftSpec::new(&[3, 4], &[2, 3]).unwrap());
    let routers: Vec<Box<dyn Router>> = vec![
        Box::new(DModK),
        Box::new(SModK),
        Box::new(ShiftOne::new(2)),
        Box::new(Disjoint::new(3)),
        Box::new(DisjointStride::new(3)),
        Box::new(RandomK::new(2, 9)),
        Box::new(Umulti),
    ];
    for seed in 0..6u64 {
        let tm = TrafficMatrix::permutation(&random_permutation(topo.num_pns(), seed));
        let bound = ml_lower_bound(&topo, &tm);
        for r in &routers {
            let mload = LinkLoads::accumulate(&topo, r, &tm).max_load();
            assert!(
                mload >= bound - 1e-9,
                "{} violated the optimal-load bound: {mload} < {bound}",
                r.name()
            );
        }
    }
}
