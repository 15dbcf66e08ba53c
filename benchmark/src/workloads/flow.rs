//! `flow_degraded`: the flow-level stack at the paper's scale.
//! `DegradedLoads::accumulate` on the 16-port 3-tree (1 024 hosts) with
//! `Disjoint(4)` and 1 % sampled link faults; half of the all-to-all
//! matrix, as 128 blocks of four seeded sources (4 092 flows).
//! Every pair is a first-time selection under faults — the one-shot use of
//! `SelectionEngine` that no cache helps. Work unit: one flow routed;
//! operation: one block.

use super::FAULT_SEED;
use crate::harness::{timed_op, BlockOut, Checks, Metrics, Workload};
use crate::trace::Tracer;
use lmpr_core::Disjoint;
use lmpr_flowsim::DegradedLoads;
use lmpr_traffic::{random_permutation, TrafficMatrix};
use xgft::{FaultSet, Topology};

pub const TOPOLOGY: &str = "16port3tree";
pub const K: u64 = 4;
pub const LINK_FAULT_RATE: f64 = 0.01;
/// Operations per repetition and sources per operation: the seed
/// picks which sources, and in which order.
pub const BLOCKS: usize = 128;
pub const BLOCK_SOURCES: usize = 4;

/// The traffic matrix cut into per-operation blocks.
pub fn blocks(topo: &Topology, tm: &TrafficMatrix, seed: u64) -> Vec<TrafficMatrix> {
    let n = topo.num_pns();
    // `uniform` lists flows by source, n - 1 to a source.
    let rows: Vec<_> = tm.flows().chunks((n - 1) as usize).collect();
    random_permutation(n, seed)
        .chunks(BLOCK_SOURCES)
        .take(BLOCKS)
        .map(|sources| {
            let flows = sources
                .iter()
                .flat_map(|&s| rows[s as usize])
                .copied()
                .collect();
            TrafficMatrix::from_flows(n, flows)
        })
        .collect()
}

pub struct FlowDegraded {
    seed: u64,
    topo: Topology,
}

pub struct State {
    pub blocks: Vec<TrafficMatrix>,
    pub faults: FaultSet,
}

impl FlowDegraded {
    pub fn new(seed: u64) -> Self {
        FlowDegraded {
            seed,
            topo: super::topology(TOPOLOGY),
        }
    }
}

/// The failed links, the same on every seed (see [`FAULT_SEED`]).
pub fn faults(topo: &Topology) -> FaultSet {
    FaultSet::sample(topo, LINK_FAULT_RATE, 0.0, FAULT_SEED)
}

impl Workload for FlowDegraded {
    type State = State;

    fn name(&self) -> &'static str {
        "flow_degraded"
    }

    fn work_units(&self) -> f64 {
        (BLOCKS * BLOCK_SOURCES * (self.topo.num_pns() as usize - 1)) as f64
    }

    fn prepare(&mut self, tr: &mut Tracer, _: &mut Checks) -> State {
        let tm = tr.call("traffic.uniform", || {
            TrafficMatrix::uniform(self.topo.num_pns(), 1.0)
        });
        State {
            blocks: tr.call("bench.cut_blocks", || blocks(&self.topo, &tm, self.seed)),
            faults: tr.call("xgft.fault.sample", || faults(&self.topo)),
        }
    }

    fn block(
        &mut self,
        st: &mut State,
        tr: &mut Tracer,
        ops: &mut Vec<f64>,
        checks: &mut Checks,
    ) -> BlockOut {
        let router = Disjoint::new(K);
        let (mut routed, mut disconnected, mut checksum) = (0u64, 0u64, 0u64);
        for (j, tm) in st.blocks.iter().enumerate() {
            let d = timed_op(tr, j, ops, |tr| {
                tr.call("flowsim.degraded.accumulate", || {
                    DegradedLoads::accumulate(&self.topo, &router, tm, &st.faults)
                })
            });
            let flows = tm.flows().len() as u64;
            let dead_load: f64 = st
                .faults
                .failed_links()
                .map(|l| d.loads.loads()[l.0 as usize])
                .sum();
            checks.check(
                d.routed_flows + d.disconnected_flows == flows && dead_load == 0.0,
                || {
                    format!(
                        "block {j}: {} routed + {} disconnected of {flows} flows, \
                         {dead_load} load on failed links",
                        d.routed_flows, d.disconnected_flows
                    )
                },
            );
            routed += d.routed_flows;
            disconnected += d.disconnected_flows;
            checksum = checksum.rotate_left(7) ^ d.loads.total().to_bits();
        }
        let mut out = BlockOut::default();
        out.put_fact("routed", routed);
        out.put_fact("disconnected", disconnected);
        out.put_fact("loads_checksum", checksum);
        checks.check(routed + disconnected == self.work_units() as u64, || {
            format!("{routed} routed + {disconnected} disconnected is not every flow of the blocks")
        });
        out
    }

    fn finish(&mut self, _: State, _: &mut Checks) {}

    fn layer_metrics(&self, ops: &[f64], out: &BlockOut, m: &mut Metrics) {
        let secs: f64 = ops.iter().sum();
        m.put(
            "flowsim.degraded.accumulate_ns_per_flow",
            secs * 1e9 / self.work_units(),
        );
        m.put(
            "flowsim.degraded.disconnected_flows",
            out.fact("disconnected") as f64,
        );
    }
}
