//! The random limited multi-path heuristic.

use crate::Router;
use lmpr_codec::splitmix;
use lmpr_codec::xoshiro::Xoshiro256pp;
use xgft::{PathId, PnId, Topology};

/// Random heuristic (§4.2.1): pick `min(K, X)` *distinct* paths
/// uniformly at random among the `X` shortest paths of the pair.
///
/// The randomness is a pure function of `(seed, s, d)`, so the scheme is
/// oblivious and reproducible: the same router object always returns the
/// same set for a pair, which is what a real subnet manager would
/// install. Experiments that average over random-routing seeds (the
/// paper uses five) construct five `RandomK` routers with different
/// seeds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RandomK {
    k: u64,
    seed: u64,
}

impl RandomK {
    /// Build a random router with path budget `K ≥ 1` and a seed.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(k: u64, seed: u64) -> Self {
        Self::try_new(k, seed).expect("the path budget K must be at least 1")
    }

    /// Fallible constructor: [`RouteError::ZeroBudget`](crate::RouteError::ZeroBudget)
    /// instead of a panic when `k == 0`.
    pub fn try_new(k: u64, seed: u64) -> Result<Self, crate::RouteError> {
        if k == 0 {
            return Err(crate::RouteError::ZeroBudget);
        }
        Ok(RandomK { k, seed })
    }

    /// The configured path budget.
    pub fn k(&self) -> u64 {
        self.k
    }

    /// The configured seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// SplitMix64 mix of `(seed, s, d)` into an RNG seed so that
    /// per-pair streams are independent.
    fn pair_seed(&self, s: PnId, d: PnId) -> u64 {
        splitmix::mix(self.seed.wrapping_add((s.0 as u64) << 32 | d.0 as u64))
    }
}

impl Router for RandomK {
    fn fill_paths(&self, topo: &Topology, s: PnId, d: PnId, out: &mut Vec<PathId>) {
        out.clear();
        let x = topo.num_paths(s, d);
        let take = self.k.min(x);
        if take == x {
            // Whole path space: no sampling needed (this is UMULTI).
            out.extend((0..x).map(PathId));
            return;
        }
        let mut rng = Xoshiro256pp::seed_from_u64(self.pair_seed(s, d));
        // Floyd's algorithm: uniform sample of `take` distinct values
        // from 0..x in O(take) expected work.
        for j in (x - take)..x {
            let t = rng.below(j + 1);
            let candidate = PathId(t);
            if out.contains(&candidate) {
                out.push(PathId(j));
            } else {
                out.push(candidate);
            }
        }
    }

    fn name(&self) -> String {
        format!("random({})", self.k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xgft::XgftSpec;

    fn fig3() -> Topology {
        Topology::new(XgftSpec::new(&[4, 4, 4], &[1, 2, 4]).unwrap())
    }

    #[test]
    fn deterministic_per_pair() {
        let topo = fig3();
        let r = RandomK::new(3, 42);
        let a = r.path_set(&topo, PnId(0), PnId(63));
        let b = r.path_set(&topo, PnId(0), PnId(63));
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ_somewhere() {
        let topo = fig3();
        let r1 = RandomK::new(2, 1);
        let r2 = RandomK::new(2, 2);
        let differs = (0..topo.num_pns())
            .any(|d| r1.path_set(&topo, PnId(0), PnId(d)) != r2.path_set(&topo, PnId(0), PnId(d)));
        assert!(differs);
    }

    #[test]
    fn distinct_valid_and_exact_cardinality() {
        let topo = fig3();
        for k in [1u64, 2, 3, 7, 8, 20] {
            let r = RandomK::new(k, 7);
            for (s, d) in [(0u32, 63u32), (5, 6), (0, 4), (9, 9)] {
                let (s, d) = (PnId(s), PnId(d));
                let set = r.path_set(&topo, s, d);
                let x = topo.num_paths(s, d);
                assert_eq!(set.len() as u64, k.min(x));
                let mut v: Vec<u64> = set.paths().iter().map(|p| p.0).collect();
                v.sort_unstable();
                v.dedup();
                assert_eq!(v.len(), set.len());
                assert!(v.iter().all(|&p| p < x));
            }
        }
    }

    #[test]
    fn full_budget_is_umulti() {
        let topo = fig3();
        let set = RandomK::new(8, 3).path_set(&topo, PnId(0), PnId(63));
        let ids: Vec<u64> = set.paths().iter().map(|p| p.0).collect();
        assert_eq!(ids, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn sampling_is_roughly_uniform() {
        // Over many destinations, each path index of an 8-path pair class
        // should be selected a similar number of times.
        let topo = fig3();
        let r = RandomK::new(1, 99);
        let mut counts = [0u32; 8];
        // All pairs (s, d) with NCA level 3 have 8 paths.
        for s in 0..16u32 {
            for d in 48..64u32 {
                let set = r.path_set(&topo, PnId(s), PnId(d));
                counts[set.paths()[0].0 as usize] += 1;
            }
        }
        let total: u32 = counts.iter().sum();
        assert_eq!(total, 256);
        for &c in &counts {
            // Expected 32 per bucket; allow generous slack for 256 draws.
            assert!((12..=60).contains(&c), "count {c} too far from uniform");
        }
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_budget_rejected() {
        let _ = RandomK::new(0, 0);
    }
}
