//! The six workloads. Block sizes are constants of the benchmark, never
//! read from the environment; only the seed varies the inputs.

pub mod ctl;
pub mod flit;
pub mod flow;

/// The seed of every fault draw. `--seed` varies traffic and requests;
/// which links fail, and when, decides how much work a run does (ten
/// draws differed by more than the regression bound before any noise
/// was added), so the faults are the same on every seed.
pub const FAULT_SEED: u64 = 7;

/// One of the paper's named topologies.
pub fn topology(name: &str) -> xgft::Topology {
    lmpr_bench::topology_by_name(name)
        .expect("a paper topology")
        .1
}
