//! Flow-level load accumulation under link/switch failures.
//!
//! Mirrors [`LinkLoads::accumulate`](crate::LinkLoads::accumulate) but
//! routes every flow through the shared [`SelectionEngine`]: dead paths
//! are swapped for surviving ones, and flows whose SD pair is
//! disconnected are skipped and counted instead of dividing by an empty
//! path set. The engine is uncached: every traffic generator lists each
//! ordered pair at most once, so a per-call cache would never hit (a
//! hand-built matrix that repeats a pair just recomputes it).

use crate::LinkLoads;
use lmpr_core::{Router, SelectionEngine};
use lmpr_traffic::TrafficMatrix;
use xgft::{FaultSet, PathId, Topology};

/// Per-link loads of a degraded network plus a disconnection census.
#[derive(Debug, Clone, PartialEq)]
pub struct DegradedLoads {
    /// Load carried by each surviving directed link (failed links carry
    /// zero by construction — no surviving path crosses them).
    pub loads: LinkLoads,
    /// Flows that were routed over at least one surviving path.
    pub routed_flows: u64,
    /// Flows whose SD pair has no surviving path; their demand is not
    /// delivered anywhere.
    pub disconnected_flows: u64,
    /// Total demand of the disconnected flows.
    pub disconnected_demand: f64,
}

impl DegradedLoads {
    /// Route `tm` with `router` degraded by `faults` and accumulate the
    /// per-link loads of the surviving traffic.
    pub fn accumulate<R: Router + ?Sized>(
        topo: &Topology,
        router: &R,
        tm: &TrafficMatrix,
        faults: &FaultSet,
    ) -> Self {
        assert_eq!(
            tm.num_nodes(),
            topo.num_pns(),
            "traffic matrix and topology node counts must agree"
        );
        let mut engine = SelectionEngine::with_view(router, faults.clone());
        let mut loads = LinkLoads::zero(topo);
        let mut routed_flows = 0u64;
        let mut disconnected_flows = 0u64;
        let mut disconnected_demand = 0.0f64;
        let mut paths: Vec<PathId> = Vec::new();
        for f in tm.flows() {
            if engine.try_select(topo, f.src, f.dst, &mut paths).is_err() {
                disconnected_flows += 1;
                disconnected_demand += f.demand;
                continue;
            }
            routed_flows += 1;
            loads.deposit(topo, f.src, f.dst, &paths, f.demand);
        }
        DegradedLoads {
            loads,
            routed_flows,
            disconnected_flows,
            disconnected_demand,
        }
    }

    /// Fraction of flows that lost connectivity, in `[0, 1]` (0 for an
    /// empty traffic matrix).
    pub fn disconnection_rate(&self) -> f64 {
        let total = self.routed_flows + self.disconnected_flows;
        if total == 0 {
            0.0
        } else {
            self.disconnected_flows as f64 / total as f64
        }
    }

    /// Maximum link load of the surviving traffic (the degraded
    /// `MLOAD`).
    pub fn max_load(&self) -> f64 {
        self.loads.max_load()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmpr_core::{DModK, Disjoint};
    use lmpr_traffic::{random_permutation, Flow};
    use xgft::{PnId, XgftSpec};

    fn topo() -> Topology {
        Topology::new(XgftSpec::new(&[4, 4], &[1, 4]).unwrap())
    }

    #[test]
    fn empty_fault_set_reproduces_plain_accumulation() {
        let t = topo();
        let tm = TrafficMatrix::permutation(&random_permutation(t.num_pns(), 5));
        let plain = LinkLoads::accumulate(&t, &Disjoint::new(2), &tm);
        let degraded = DegradedLoads::accumulate(&t, &Disjoint::new(2), &tm, &FaultSet::default());
        assert_eq!(degraded.loads, plain);
        assert_eq!(degraded.disconnected_flows, 0);
        assert_eq!(degraded.disconnection_rate(), 0.0);
    }

    #[test]
    fn disconnected_flows_are_counted_not_divided_by_zero() {
        let t = topo();
        // w_1 = 1: failing PN 0's only up-link disconnects it as a source.
        let mut faults = FaultSet::new();
        faults.fail_link(t.up_link(1, 0, 0));
        let tm = TrafficMatrix::from_flows(
            t.num_pns(),
            vec![
                Flow {
                    src: PnId(0),
                    dst: PnId(15),
                    demand: 2.0,
                },
                Flow {
                    src: PnId(1),
                    dst: PnId(15),
                    demand: 1.0,
                },
            ],
        );
        let d = DegradedLoads::accumulate(&t, &DModK, &tm, &faults);
        assert_eq!(d.routed_flows, 1);
        assert_eq!(d.disconnected_flows, 1);
        assert_eq!(d.disconnected_demand, 2.0);
        assert_eq!(d.disconnection_rate(), 0.5);
        // Only the surviving flow contributes: demand 1 over 2κ = 4 hops.
        assert!((d.loads.total() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn failed_links_carry_no_load() {
        let t = topo();
        let mut faults = FaultSet::new();
        let dead = t.up_link(2, 0, 1);
        faults.fail_link(dead);
        let tm = TrafficMatrix::uniform(t.num_pns(), 1.0);
        let d = DegradedLoads::accumulate(&t, &Disjoint::new(4), &tm, &faults);
        assert_eq!(d.loads.loads()[dead.0 as usize], 0.0);
        assert_eq!(
            d.disconnected_flows, 0,
            "one dead level-2 link cannot disconnect"
        );
        // Survivors absorb the rerouted traffic: the degraded max load is
        // at least the fault-free one.
        let plain = LinkLoads::accumulate(&t, &Disjoint::new(4), &tm);
        assert!(d.max_load() >= plain.max_load() - 1e-12);
    }
}
