//! The §5 permutation-sampling methodology.
//!
//! "For each topology and each routing algorithm, we first sample random
//! permutations and compute the average maximum permutation load … We
//! then compute the confidence interval with 99 % confidence level. If
//! the confidence interval is less than 1 % of the average, we stop …
//! If [not], we double the number of samples and repeat."
//!
//! Samples are independent, so they fan out over
//! [`lmpr_codec::par::map`]; each sample's permutation seed is a pure
//! function of `(study seed, sample index)`, which keeps results
//! bit-identical for any worker count.

use crate::LinkLoads;
use lmpr_codec::{par, splitmix};
use lmpr_core::{Router, RouterKind};
use lmpr_traffic::{random_permutation, TrafficMatrix};
use xgft::Topology;

/// z-value of the two-sided 99 % normal confidence interval.
pub const Z_99: f64 = 2.576;

/// Parameters of a permutation study.
#[derive(Debug, Clone, Copy)]
pub struct StudyConfig {
    /// Stop once `Z_99·σ/√n ≤ rel_half_width · mean` (default 0.01).
    pub rel_half_width: f64,
    /// First batch size (default 100, then doubling).
    pub initial_samples: usize,
    /// Hard cap on the number of samples (default 102 400).
    pub max_samples: usize,
    /// Base seed for the permutation stream.
    pub seed: u64,
}

impl Default for StudyConfig {
    fn default() -> Self {
        StudyConfig {
            rel_half_width: 0.01,
            initial_samples: 100,
            max_samples: 102_400,
            seed: 0x5EED_CAFE,
        }
    }
}

/// Outcome of a study: the average maximum permutation load and the
/// achieved statistical precision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StudyResult {
    /// Mean of the per-permutation maximum link loads.
    pub mean: f64,
    /// Half-width of the 99 % confidence interval.
    pub half_width: f64,
    /// Sample standard deviation.
    pub std_dev: f64,
    /// Number of permutations evaluated.
    pub samples: usize,
    /// Whether the precision target was met (false only when
    /// `max_samples` was exhausted first).
    pub converged: bool,
}

/// A reusable permutation study bound to one topology.
#[derive(Debug, Clone)]
pub struct PermutationStudy {
    topo: Topology,
    cfg: StudyConfig,
    /// Most threads a batch of samples runs on.
    workers: usize,
}

impl PermutationStudy {
    /// Create a study over `topo` with the given configuration.
    pub fn new(topo: Topology, cfg: StudyConfig) -> Self {
        assert!(
            cfg.initial_samples >= 2,
            "need at least two samples for a CI"
        );
        assert!(cfg.rel_half_width > 0.0);
        PermutationStudy {
            topo,
            cfg,
            workers: usize::MAX,
        }
    }

    /// The topology under study.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Run the study for one router: average maximum link load over
    /// random permutations with the CI-driven stopping rule.
    pub fn run<R: Router>(&self, router: &R) -> StudyResult {
        let mut values: Vec<f64> = Vec::with_capacity(self.cfg.initial_samples);
        let mut target = self.cfg.initial_samples;
        loop {
            self.sample_range(router, values.len(), target, &mut values);
            let (mean, sd) = mean_std(&values);
            let half_width = Z_99 * sd / (values.len() as f64).sqrt();
            let converged = half_width <= self.cfg.rel_half_width * mean;
            if converged || target >= self.cfg.max_samples {
                return StudyResult {
                    mean,
                    half_width,
                    std_dev: sd,
                    samples: values.len(),
                    converged,
                };
            }
            target = (target * 2).min(self.cfg.max_samples);
        }
    }

    /// Evaluate samples `from..to` in parallel and append them (in
    /// sample-index order) to `values`.
    fn sample_range<R: Router>(&self, router: &R, from: usize, to: usize, values: &mut Vec<f64>) {
        let buffers = || LinkLoads::zero(&self.topo);
        let sample = |loads: &mut LinkLoads, i| self.one_sample(router, from + i, loads);
        values.extend(par::map(to - from, self.workers, buffers, sample));
    }

    fn one_sample<R: Router>(&self, router: &R, index: usize, loads: &mut LinkLoads) -> f64 {
        let seed = sample_seed(self.cfg.seed, index as u64);
        let perm = random_permutation(self.topo.num_pns(), seed);
        let tm = TrafficMatrix::permutation(&perm);
        loads.clear();
        loads.add(&self.topo, router, &tm);
        loads.max_load()
    }
}

/// Average a study over several seeds of a seeded router (the paper
/// averages the random heuristic over five seeds). Deterministic
/// routers are unaffected by the seed, so the function simply averages
/// repeated studies with shifted permutation streams.
pub fn average_over_seeds(
    topo: &Topology,
    kind: RouterKind,
    seeds: &[u64],
    cfg: StudyConfig,
) -> StudyResult {
    assert!(!seeds.is_empty());
    let mut acc = StudyResult {
        mean: 0.0,
        half_width: 0.0,
        std_dev: 0.0,
        samples: 0,
        converged: true,
    };
    for &seed in seeds {
        let study = PermutationStudy::new(topo.clone(), cfg);
        let r = study.run(&kind.with_seed(seed));
        acc.mean += r.mean;
        acc.half_width = acc.half_width.max(r.half_width);
        acc.std_dev = acc.std_dev.max(r.std_dev);
        acc.samples += r.samples;
        acc.converged &= r.converged;
    }
    acc.mean /= seeds.len() as f64;
    acc
}

/// SplitMix64: decorrelate per-sample permutation seeds.
fn sample_seed(base: u64, index: u64) -> u64 {
    splitmix::finalize(base ^ index.wrapping_mul(splitmix::GAMMA))
}

fn mean_std(values: &[f64]) -> (f64, f64) {
    let n = values.len() as f64;
    let mean = values.iter().sum::<f64>() / n;
    if values.len() < 2 {
        return (mean, 0.0);
    }
    let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / (n - 1.0);
    (mean, var.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmpr_core::{DModK, Disjoint, Umulti};
    use xgft::XgftSpec;

    fn quick_cfg() -> StudyConfig {
        StudyConfig {
            initial_samples: 32,
            max_samples: 256,
            rel_half_width: 0.05,
            ..StudyConfig::default()
        }
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let topo = Topology::new(XgftSpec::m_port_n_tree(8, 2).unwrap());
        let mut study = PermutationStudy::new(topo, quick_cfg());
        study.workers = 1;
        let a = study.run(&DModK);
        study.workers = 4;
        let b = study.run(&DModK);
        assert_eq!(a, b);
    }

    #[test]
    fn umulti_beats_dmodk_on_average() {
        let topo = Topology::new(XgftSpec::m_port_n_tree(8, 2).unwrap());
        let study = PermutationStudy::new(topo, quick_cfg());
        let single = study.run(&DModK);
        let multi = study.run(&Umulti);
        assert!(multi.mean < single.mean);
        assert!(
            multi.mean >= 1.0 - 1e-9,
            "a permutation always loads some link fully"
        );
    }

    #[test]
    fn monotone_in_k() {
        let topo = Topology::new(XgftSpec::m_port_n_tree(8, 2).unwrap());
        let study = PermutationStudy::new(topo, quick_cfg());
        let k1 = study.run(&Disjoint::new(1)).mean;
        let k2 = study.run(&Disjoint::new(2)).mean;
        let k4 = study.run(&Disjoint::new(4)).mean;
        assert!(k2 <= k1 + 1e-9);
        assert!(k4 <= k2 + 1e-9);
    }

    #[test]
    fn average_over_seeds_runs() {
        let topo = Topology::new(XgftSpec::m_port_n_tree(8, 2).unwrap());
        let r = average_over_seeds(&topo, RouterKind::RandomK(2, 0), &[1, 2, 3], quick_cfg());
        assert!(r.mean >= 1.0);
        assert!(r.samples >= 3 * 32);
    }

    #[test]
    fn mean_std_basics() {
        let (m, s) = mean_std(&[2.0, 2.0, 2.0]);
        assert_eq!(m, 2.0);
        assert_eq!(s, 0.0);
        let (m, s) = mean_std(&[1.0, 3.0]);
        assert_eq!(m, 2.0);
        assert!((s - std::f64::consts::SQRT_2).abs() < 1e-12);
    }
}
