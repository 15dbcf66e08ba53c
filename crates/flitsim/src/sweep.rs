//! Offered-load sweeps across worker threads.
//!
//! Table 1 and Figure 5 both need one simulation per offered-load point;
//! the points are independent, so they fan out over threads. Workers
//! pull load indices from a shared atomic counter and send results back
//! over a channel; results are re-ordered by load index, keeping the
//! output deterministic. A panicking worker is caught and reported as a
//! [`SweepError`] naming the failing load point instead of poisoning
//! the whole sweep.

use crate::error::SimError;
use crate::{FlitSim, LoadPoint, SimConfig};
use lmpr_core::Router;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use xgft::Topology;

/// Why a sweep failed, always naming the offending load point.
#[derive(Debug, Clone, PartialEq)]
pub enum SweepError {
    /// One simulation returned a typed error (bad config or deadlock).
    Sim {
        /// The offered load of the failing point.
        load: f64,
        /// Index of the point within the sweep grid.
        index: usize,
        /// The underlying simulator error.
        source: SimError,
    },
    /// One worker panicked while simulating a load point.
    WorkerPanicked {
        /// The offered load of the failing point.
        load: f64,
        /// Index of the point within the sweep grid.
        index: usize,
        /// The panic payload, if it was a string.
        message: String,
    },
    /// A load index produced no result (a worker died without
    /// reporting) — surfaced instead of silently emitting a NaN point.
    MissingResult {
        /// Index of the unfilled point.
        index: usize,
    },
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SweepError::Sim {
                load,
                index,
                source,
            } => {
                write!(f, "sweep point {index} (load {load}) failed: {source}")
            }
            SweepError::WorkerPanicked {
                load,
                index,
                message,
            } => {
                write!(f, "sweep point {index} (load {load}) panicked: {message}")
            }
            SweepError::MissingResult { index } => {
                write!(f, "sweep point {index} produced no result")
            }
        }
    }
}

impl std::error::Error for SweepError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SweepError::Sim { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// Outcome of one worker simulation, sent back over the result channel.
type PointResult = (usize, Result<LoadPoint, SweepError>);

/// Run one simulation per entry of `loads` (each uses `cfg` with the
/// offered load replaced) and return the load points in input order.
///
/// `threads = 0` uses all available parallelism. The first failing load
/// point (lowest index) is reported; every index is guaranteed to be
/// filled on success.
pub fn run_sweep<R>(
    topo: &Topology,
    router: &R,
    cfg: SimConfig,
    loads: &[f64],
    threads: usize,
) -> Result<Vec<LoadPoint>, SweepError>
where
    R: Router + Clone,
{
    let threads = if threads == 0 {
        std::thread::available_parallelism().map_or(1, |p| p.get())
    } else {
        threads
    }
    .min(loads.len().max(1));

    if threads <= 1 {
        return loads
            .iter()
            .enumerate()
            .map(|(i, &l)| simulate_point(topo, router.clone(), cfg, i, l))
            .collect();
    }

    let next = AtomicUsize::new(0);
    let (res_tx, res_rx) = mpsc::channel::<PointResult>();

    std::thread::scope(|scope| {
        for _ in 0..threads {
            let res_tx = res_tx.clone();
            let router = router.clone();
            let next = &next;
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(&load) = loads.get(i) else { break };
                let outcome = simulate_point(topo, router.clone(), cfg, i, load);
                if res_tx.send((i, outcome)).is_err() {
                    break; // receiver gone: the sweep already failed
                }
            });
        }
        drop(res_tx);

        let mut out: Vec<Option<LoadPoint>> = vec![None; loads.len()];
        let mut first_error: Option<SweepError> = None;
        for (i, outcome) in res_rx.iter() {
            match outcome {
                Ok(p) => out[i] = Some(p),
                // Keep draining so workers finish, but remember the
                // lowest-index failure for a deterministic report.
                Err(e) => match &first_error {
                    Some(prev) if error_index(prev) <= i => {}
                    _ => first_error = Some(e),
                },
            }
        }
        if let Some(e) = first_error {
            return Err(e);
        }
        out.into_iter()
            .enumerate()
            .map(|(index, p)| p.ok_or(SweepError::MissingResult { index }))
            .collect()
    })
}

/// Run one load point, converting panics and simulator errors into
/// [`SweepError`]s that name the point.
fn simulate_point<R: Router>(
    topo: &Topology,
    router: R,
    cfg: SimConfig,
    index: usize,
    load: f64,
) -> Result<LoadPoint, SweepError> {
    let sim = catch_unwind(AssertUnwindSafe(|| {
        FlitSim::simulate(topo, router, cfg.with_load(load))
    }));
    match sim {
        Ok(Ok(stats)) => Ok(stats.load_point()),
        Ok(Err(source)) => Err(SweepError::Sim {
            load,
            index,
            source,
        }),
        Err(payload) => Err(SweepError::WorkerPanicked {
            load,
            index,
            message: panic_message(payload.as_ref()),
        }),
    }
}

fn error_index(e: &SweepError) -> usize {
    match e {
        SweepError::Sim { index, .. }
        | SweepError::WorkerPanicked { index, .. }
        | SweepError::MissingResult { index } => *index,
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
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
        let serial = run_sweep(&topo, &DModK, cfg, &loads, 1).expect("sweep runs");
        let parallel = run_sweep(&topo, &DModK, cfg, &loads, 2).expect("sweep runs");
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
        for threads in [1, 2] {
            let err = run_sweep(&topo, &DModK, cfg, &loads, threads).unwrap_err();
            match err {
                SweepError::Sim {
                    load,
                    index,
                    source,
                } => {
                    assert_eq!(load, 1.5);
                    assert_eq!(index, 1);
                    assert!(matches!(source, SimError::Config(_)));
                }
                other => panic!("expected a Sim error, got {other:?}"),
            }
        }
    }

    #[test]
    fn empty_sweep_is_empty() {
        let topo = Topology::new(XgftSpec::new(&[4, 4], &[1, 4]).unwrap());
        let cfg = SimConfig::default();
        assert_eq!(run_sweep(&topo, &DModK, cfg, &[], 4), Ok(vec![]));
    }
}
