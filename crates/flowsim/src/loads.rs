//! Per-link load accumulation.

use lmpr_core::Router;
use lmpr_traffic::TrafficMatrix;
use xgft::{DirectedLinkId, LinkDir, PathId, PnId, Topology};

/// The load each directed link carries under a routing and a traffic
/// matrix — a dense `f64` array indexed by [`DirectedLinkId`].
#[derive(Debug, Clone, PartialEq)]
pub struct LinkLoads {
    loads: Vec<f64>,
}

impl LinkLoads {
    /// An all-zero load map for a topology.
    pub fn zero(topo: &Topology) -> Self {
        LinkLoads {
            loads: vec![0.0; topo.num_links() as usize],
        }
    }

    /// Route `tm` with `router` and return the per-link loads.
    pub fn accumulate<R: Router + ?Sized>(topo: &Topology, router: &R, tm: &TrafficMatrix) -> Self {
        let mut this = Self::zero(topo);
        this.add(topo, router, tm);
        this
    }

    /// Add a traffic matrix's contribution on top of existing loads
    /// (useful for composing workloads).
    pub fn add<R: Router + ?Sized>(&mut self, topo: &Topology, router: &R, tm: &TrafficMatrix) {
        assert_eq!(
            tm.num_nodes(),
            topo.num_pns(),
            "traffic matrix and topology node counts must agree"
        );
        let mut paths: Vec<PathId> = Vec::new();
        for f in tm.flows() {
            router.fill_paths(topo, f.src, f.dst, &mut paths);
            self.deposit(topo, f.src, f.dst, &paths, f.demand);
        }
    }

    /// Add a single routed flow (unit of the per-flow API).
    pub fn add_flow<R: Router + ?Sized>(
        &mut self,
        topo: &Topology,
        router: &R,
        src: PnId,
        dst: PnId,
        demand: f64,
    ) {
        let mut paths = Vec::new();
        router.fill_paths(topo, src, dst, &mut paths);
        self.deposit(topo, src, dst, &paths, demand);
    }

    /// Spread `demand` evenly over the pair's selected `paths` (the
    /// deposit step every accumulator shares). `paths` must be
    /// non-empty — degraded-mode callers skip disconnected flows before
    /// depositing.
    pub fn deposit(
        &mut self,
        topo: &Topology,
        src: PnId,
        dst: PnId,
        paths: &[PathId],
        demand: f64,
    ) {
        assert!(
            !paths.is_empty(),
            "cannot deposit a flow over an empty path set"
        );
        let share = demand / paths.len() as f64;
        let walk = topo.pair_walk(src, dst);
        for &p in paths {
            walk.walk(p, |link| {
                self.loads[link.0 as usize] += share;
            });
        }
    }

    /// Reset all loads to zero, keeping the allocation (for reuse in
    /// sampling loops).
    pub fn clear(&mut self) {
        self.loads.fill(0.0);
    }

    /// The raw per-link loads.
    pub fn loads(&self) -> &[f64] {
        &self.loads
    }

    /// The paper's `MLOAD`: the largest load on any directed link.
    pub fn max_load(&self) -> f64 {
        self.loads.iter().copied().fold(0.0, f64::max)
    }

    /// The most loaded link and its load.
    pub fn argmax(&self) -> (DirectedLinkId, f64) {
        let (idx, &load) = self
            .loads
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .expect("topologies always have links");
        (DirectedLinkId(idx as u32), load)
    }

    /// Maximum load restricted to links whose upper endpoint is at
    /// `level` and that point in `dir` — the per-level breakdown used to
    /// explain why shift-1 balances the top but not the bottom (§5).
    pub fn max_load_at(&self, topo: &Topology, level: usize, dir: LinkDir) -> f64 {
        self.loads
            .iter()
            .enumerate()
            .filter(|(i, _)| {
                let (l, d) = topo.link_level_dir(DirectedLinkId(*i as u32));
                l as usize == level && d == dir
            })
            .map(|(_, &v)| v)
            .fold(0.0, f64::max)
    }

    /// Sum of all link loads (total link-units of traffic; conservation
    /// checks use this).
    pub fn total(&self) -> f64 {
        self.loads.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmpr_core::{DModK, Umulti};
    use lmpr_traffic::{Flow, TrafficMatrix};
    use xgft::XgftSpec;

    fn topo() -> Topology {
        Topology::new(XgftSpec::new(&[4, 4], &[1, 4]).unwrap())
    }

    #[test]
    fn single_flow_loads_its_path_only() {
        let t = topo();
        let tm = TrafficMatrix::from_flows(
            t.num_pns(),
            vec![Flow {
                src: PnId(0),
                dst: PnId(15),
                demand: 2.0,
            }],
        );
        let loads = LinkLoads::accumulate(&t, &DModK, &tm);
        // NCA level 2 → 4 links, each carrying the full 2.0.
        let non_zero: Vec<f64> = loads.loads().iter().copied().filter(|&v| v > 0.0).collect();
        assert_eq!(non_zero.len(), 4);
        assert!(non_zero.iter().all(|&v| (v - 2.0).abs() < 1e-12));
        assert_eq!(loads.max_load(), 2.0);
        assert!((loads.total() - 8.0).abs() < 1e-12);
    }

    #[test]
    fn umulti_splits_evenly() {
        let t = topo();
        let tm = TrafficMatrix::from_flows(
            t.num_pns(),
            vec![Flow {
                src: PnId(0),
                dst: PnId(15),
                demand: 4.0,
            }],
        );
        let loads = LinkLoads::accumulate(&t, &Umulti, &tm);
        // 4 paths, demand 4 → each path carries 1; the first up-link is
        // shared by nothing (w_1 = 1, so all 4 paths share the PN link!).
        assert_eq!(loads.max_load(), 4.0);
        // Level-2 links each carry exactly 1.
        assert!((loads.max_load_at(&t, 2, LinkDir::Up) - 1.0).abs() < 1e-12);
        assert!((loads.max_load_at(&t, 2, LinkDir::Down) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn conservation_total_equals_demand_times_hops() {
        // Every unit of routed demand contributes exactly 2κ link-units.
        let t = topo();
        let perm = lmpr_traffic::random_permutation(t.num_pns(), 3);
        let tm = TrafficMatrix::permutation(&perm);
        let loads = LinkLoads::accumulate(&t, &DModK, &tm);
        let expected: f64 = tm
            .flows()
            .iter()
            .map(|f| 2.0 * t.nca_level(f.src, f.dst) as f64 * f.demand)
            .sum();
        assert!((loads.total() - expected).abs() < 1e-9);
    }

    #[test]
    fn clear_and_compose() {
        let t = topo();
        let tm = TrafficMatrix::uniform(t.num_pns(), 1.0);
        let mut loads = LinkLoads::accumulate(&t, &DModK, &tm);
        let once = loads.max_load();
        loads.add(&t, &DModK, &tm);
        assert!((loads.max_load() - 2.0 * once).abs() < 1e-9);
        loads.clear();
        assert_eq!(loads.max_load(), 0.0);
    }

    #[test]
    fn add_flow_matches_matrix_accumulation() {
        let t = topo();
        let tm = TrafficMatrix::from_flows(
            t.num_pns(),
            vec![Flow {
                src: PnId(3),
                dst: PnId(9),
                demand: 1.5,
            }],
        );
        let a = LinkLoads::accumulate(&t, &Umulti, &tm);
        let mut b = LinkLoads::zero(&t);
        b.add_flow(&t, &Umulti, PnId(3), PnId(9), 1.5);
        assert_eq!(a, b);
    }

    #[test]
    fn argmax_identifies_hot_link() {
        let t = topo();
        let tm = TrafficMatrix::from_flows(
            t.num_pns(),
            vec![Flow {
                src: PnId(0),
                dst: PnId(1),
                demand: 7.0,
            }],
        );
        let loads = LinkLoads::accumulate(&t, &DModK, &tm);
        let (link, load) = loads.argmax();
        assert_eq!(load, 7.0);
        assert!(loads.loads()[link.0 as usize] == 7.0);
    }

    #[test]
    #[should_panic(expected = "must agree")]
    fn mismatched_sizes_rejected() {
        let t = topo();
        let tm = TrafficMatrix::uniform(4, 1.0);
        let _ = LinkLoads::accumulate(&t, &DModK, &tm);
    }
}
