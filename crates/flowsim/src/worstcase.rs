//! Adversarial permutation search.
//!
//! Random sampling (the [`crate::estimate_oblivious_ratio`] witnesses)
//! finds *typical* bad cases; this module searches for *worst* cases by
//! hill climbing in permutation space: propose destination swaps,
//! keep those that increase the routing's performance ratio, restart
//! from fresh random permutations to escape plateaus. The result is a
//! stronger certified lower bound on the oblivious ratio restricted to
//! permutation traffic — the traffic class the paper's Figure 4
//! averages over.

use crate::{ml_lower_bound, LinkLoads};
use lmpr_codec::xoshiro::Xoshiro256pp;
use lmpr_core::Router;
use lmpr_traffic::{random_permutation, TrafficMatrix};
use xgft::Topology;

/// Search budget knobs.
#[derive(Debug, Clone, Copy)]
pub struct SearchConfig {
    /// Independent restarts from fresh random permutations.
    pub restarts: u32,
    /// Swap proposals per restart.
    pub steps_per_restart: u32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SearchConfig {
    fn default() -> Self {
        SearchConfig {
            restarts: 4,
            steps_per_restart: 400,
            seed: 0xBAD_5EED,
        }
    }
}

/// Outcome of a search: the permutation found and its performance ratio.
#[derive(Debug, Clone)]
pub struct WorstCase {
    /// The adversarial permutation (node `i` sends to `perm[i]`).
    pub permutation: Vec<u32>,
    /// `MLOAD / ML` of the permutation under the router searched.
    pub ratio: f64,
}

/// Hill-climb toward a permutation maximizing `router`'s performance
/// ratio on `topo`.
pub fn worst_permutation<R: Router + ?Sized>(
    topo: &Topology,
    router: &R,
    cfg: SearchConfig,
) -> WorstCase {
    assert!(cfg.restarts >= 1 && cfg.steps_per_restart >= 1);
    let n = topo.num_pns();
    let mut rng = Xoshiro256pp::seed_from_u64(cfg.seed);
    let mut loads = LinkLoads::zero(topo);
    let mut best = WorstCase {
        permutation: (0..n).collect(),
        ratio: 1.0,
    };

    let score = |perm: &[u32], loads: &mut LinkLoads| -> f64 {
        let tm = TrafficMatrix::permutation(perm);
        loads.clear();
        loads.add(topo, router, &tm);
        let ml = ml_lower_bound(topo, &tm);
        if ml == 0.0 {
            1.0
        } else {
            loads.max_load() / ml
        }
    };

    for restart in 0..cfg.restarts {
        let mut perm = random_permutation(n, cfg.seed ^ (restart as u64) << 17);
        let mut current = score(&perm, &mut loads);
        for _ in 0..cfg.steps_per_restart {
            // Swap the destinations of two random sources.
            let a = rng.index(n as usize);
            let b = rng.index(n as usize);
            if a == b {
                continue;
            }
            perm.swap(a, b);
            let proposed = score(&perm, &mut loads);
            if proposed >= current {
                current = proposed; // accept (ties allowed: plateau walks)
            } else {
                perm.swap(a, b); // reject
            }
        }
        if current > best.ratio {
            best = WorstCase {
                permutation: perm,
                ratio: current,
            };
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmpr_core::{DModK, Disjoint, Umulti};
    use lmpr_flowsim_test_util::quick;
    use xgft::XgftSpec;

    // Local helper module so the config literal stays in one place.
    mod lmpr_flowsim_test_util {
        use super::SearchConfig;
        pub fn quick() -> SearchConfig {
            SearchConfig {
                restarts: 2,
                steps_per_restart: 120,
                seed: 7,
            }
        }
    }

    #[test]
    fn search_result_is_a_valid_permutation() {
        let topo = Topology::new(XgftSpec::new(&[4, 4], &[1, 4]).unwrap());
        let w = worst_permutation(&topo, &DModK, quick());
        assert!(lmpr_traffic::is_permutation(&w.permutation));
        assert!(w.ratio >= 1.0);
    }

    #[test]
    fn search_beats_or_ties_random_sampling() {
        let topo = Topology::new(XgftSpec::new(&[4, 4], &[1, 4]).unwrap());
        let searched = worst_permutation(&topo, &DModK, quick()).ratio;
        let sampled = (0..10u64)
            .map(|s| {
                let tm = TrafficMatrix::permutation(&random_permutation(topo.num_pns(), s));
                crate::performance_ratio(&topo, &DModK, &tm)
            })
            .fold(1.0f64, f64::max);
        assert!(
            searched >= sampled - 1e-9,
            "hill climbing ({searched:.3}) must not lose to sampling ({sampled:.3})"
        );
    }

    #[test]
    fn umulti_cannot_be_attacked() {
        let topo = Topology::new(XgftSpec::new(&[3, 4], &[2, 2]).unwrap());
        let w = worst_permutation(&topo, &Umulti, quick());
        assert!(
            (w.ratio - 1.0).abs() < 1e-9,
            "Theorem 1 holds under attack: {w:?}"
        );
    }

    #[test]
    fn multipath_shrinks_the_attack_surface() {
        let topo = Topology::new(XgftSpec::new(&[4, 4], &[1, 4]).unwrap());
        let single = worst_permutation(&topo, &DModK, quick()).ratio;
        let multi = worst_permutation(&topo, &Disjoint::new(4), quick()).ratio;
        assert!(
            multi < single,
            "disjoint(4) worst case {multi:.3} must beat d-mod-k worst case {single:.3}"
        );
    }

    #[test]
    fn dmodk_attack_approaches_the_structural_bound() {
        // On a 2-level tree with w = (1, 4), d-mod-k's permutation worst
        // case is at least 2 (concentrating two sub-trees' flows).
        let topo = Topology::new(XgftSpec::new(&[4, 4], &[1, 4]).unwrap());
        let w = worst_permutation(&topo, &DModK, SearchConfig::default());
        assert!(w.ratio >= 2.0 - 1e-9, "found only {:.3}", w.ratio);
    }
}
