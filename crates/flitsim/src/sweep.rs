//! Offered-load sweeps across worker threads.
//!
//! Table 1 and Figure 5 both need one simulation per offered-load point;
//! the points are independent, so they fan out over
//! [`lmpr_codec::par::map`], which returns them in load order at any
//! worker count.

use crate::error::SimError;
use crate::{FlitSim, LoadPoint, SimConfig};
use lmpr_codec::par;
use lmpr_core::Router;
use xgft::Topology;

/// Why a sweep failed: the lowest-index load point whose simulation
/// returned an error.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepError {
    /// The offered load of the failing point.
    pub load: f64,
    /// Index of the point within the sweep grid.
    pub index: usize,
    /// The underlying simulator error (bad config or deadlock).
    pub source: SimError,
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (index, load, source) = (self.index, self.load, &self.source);
        write!(f, "sweep point {index} (load {load}) failed: {source}")
    }
}

impl std::error::Error for SweepError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

/// Run one simulation per entry of `loads` (each uses `cfg` with the
/// offered load replaced) on all available CPUs and return the load
/// points in input order, or the lowest-index failing point.
pub fn run_sweep<R>(
    topo: &Topology,
    router: &R,
    cfg: SimConfig,
    loads: &[f64],
) -> Result<Vec<LoadPoint>, SweepError>
where
    R: Router + Clone,
{
    sweep_on(topo, router, cfg, loads, usize::MAX)
}

/// [`run_sweep`] on at most `workers` threads.
fn sweep_on<R>(
    topo: &Topology,
    router: &R,
    cfg: SimConfig,
    loads: &[f64],
    workers: usize,
) -> Result<Vec<LoadPoint>, SweepError>
where
    R: Router + Clone,
{
    let point = |_: &mut (), index: usize| {
        let load = loads[index];
        let run = FlitSim::simulate(topo, router.clone(), cfg.with_load(load));
        run.map(|stats| stats.load_point())
            .map_err(|source| SweepError {
                load,
                index,
                source,
            })
    };
    par::map(loads.len(), workers, || (), point)
        .into_iter()
        .collect()
}

/// A standard sweep grid: `step, 2·step, …` up to and including 1.0.
pub fn load_grid(step: f64) -> Vec<f64> {
    assert!(step > 0.0 && step <= 1.0);
    let n = (1.0 / step).round() as usize;
    (1..=n).map(|i| (i as f64 * step).min(1.0)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::saturation_throughput;
    use lmpr_core::DModK;
    use xgft::XgftSpec;

    #[test]
    fn grid_shapes() {
        let g = load_grid(0.25);
        assert_eq!(g, vec![0.25, 0.5, 0.75, 1.0]);
        assert_eq!(load_grid(0.1).len(), 10);
    }

    #[test]
    #[should_panic]
    fn bad_grid_step() {
        let _ = load_grid(0.0);
    }

    #[test]
    fn sweep_is_deterministic_and_ordered() {
        let topo = Topology::new(XgftSpec::new(&[4, 4], &[1, 4]).unwrap());
        let cfg = SimConfig {
            warmup_cycles: 1_000,
            measure_cycles: 3_000,
            ..SimConfig::default()
        };
        let loads = [0.2, 0.6];
        let serial = sweep_on(&topo, &DModK, cfg, &loads, 1).expect("sweep runs");
        let parallel = sweep_on(&topo, &DModK, cfg, &loads, 2).expect("sweep runs");
        assert_eq!(serial, parallel);
        assert_eq!(serial[0].offered, 0.2);
        assert_eq!(serial[1].offered, 0.6);
        assert!(saturation_throughput(&serial) > 0.0);
    }

    #[test]
    fn invalid_load_point_names_its_index() {
        let topo = Topology::new(XgftSpec::new(&[4, 4], &[1, 4]).unwrap());
        let cfg = SimConfig {
            warmup_cycles: 100,
            measure_cycles: 300,
            ..SimConfig::default()
        };
        // Load 1.5 fails config validation inside the worker.
        let loads = [0.2, 1.5];
        for workers in [1, 2] {
            let SweepError {
                load,
                index,
                source,
            } = sweep_on(&topo, &DModK, cfg, &loads, workers).unwrap_err();
            assert_eq!(load, 1.5);
            assert_eq!(index, 1);
            assert!(matches!(source, SimError::Config(_)));
        }
    }

    #[test]
    fn empty_sweep_is_empty() {
        let topo = Topology::new(XgftSpec::new(&[4, 4], &[1, 4]).unwrap());
        let cfg = SimConfig::default();
        assert_eq!(run_sweep(&topo, &DModK, cfg, &[]), Ok(vec![]));
    }
}
