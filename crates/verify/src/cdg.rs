//! Channel-dependency-graph construction and Dally–Seitz cycle
//! detection.
//!
//! A *channel* is a directed link ([`xgft::DirectedLinkId`]); a route
//! that traverses link `a` immediately before link `b` makes `b`'s
//! buffer a resource that traffic holding `a` waits for, i.e. the
//! dependency edge `a → b`. Dally & Seitz's classic theorem states that
//! a routing function on a network with a single virtual channel is
//! deadlock-free **iff** its channel-dependency graph is acyclic — so an
//! acyclic CDG is a *proof* of deadlock freedom, statically, without
//! simulating a single cycle, and a cycle in the CDG is a concrete
//! counterexample a watchdog would otherwise stumble on mid-run.
//!
//! On a correctly-routed XGFT every dependency is up→up, up→down or
//! down→down (paths climb then descend, never descend-then-climb), so
//! the graph is acyclic by level stratification; the analyzer re-derives
//! that from the actual routing artifacts rather than assuming it, which
//! is exactly what catches a corrupted LFT or a "valley-routing" bug.

use crate::{Diagnostic, RuleId, Witness};
use lmpr_core::Router;
use std::collections::HashSet;
use xgft::{DirectedLinkId, FaultSet, PnId, Topology};

/// A channel-dependency graph over the directed links of one topology.
#[derive(Debug, Clone)]
pub struct Cdg {
    /// Adjacency: `succ[a]` lists every link `b` with a dependency
    /// `a → b`, deduplicated.
    succ: Vec<Vec<u32>>,
    /// Dedup set of packed `(a << 32) | b` edges.
    seen: HashSet<u64>,
    num_edges: u64,
    /// Routes that were fed in (for reporting).
    num_routes: u64,
}

impl Cdg {
    /// An empty graph over `topo`'s link space.
    pub fn new(topo: &Topology) -> Self {
        Cdg {
            succ: vec![Vec::new(); topo.num_links() as usize],
            seen: HashSet::new(),
            num_edges: 0,
            num_routes: 0,
        }
    }

    /// Record one route: consecutive link pairs become dependency edges.
    /// Routes shorter than two links add no edges but still count toward
    /// [`Cdg::num_routes`].
    pub fn add_route(&mut self, links: &[DirectedLinkId]) {
        self.num_routes += 1;
        for w in links.windows(2) {
            let (a, b) = (w[0].0, w[1].0);
            if self.seen.insert(((a as u64) << 32) | b as u64) {
                self.succ[a as usize].push(b);
                self.num_edges += 1;
            }
        }
    }

    /// Number of distinct dependency edges.
    pub fn num_edges(&self) -> u64 {
        self.num_edges
    }

    /// Number of routes fed into the graph.
    pub fn num_routes(&self) -> u64 {
        self.num_routes
    }

    /// Build the CDG a [`Router`] induces: every selected path of every
    /// SD pair contributes its link chain. With a non-empty `faults` set
    /// the router's selection is taken as-is (pass a
    /// [`lmpr_core::SelectionEngine`] over the fault set to model
    /// degraded re-selection) but pairs whose selection is empty —
    /// disconnected under the engine's contract deviation — are skipped
    /// rather than treated as an error: connectivity is the coverage
    /// rules' concern.
    pub fn from_router<R: Router + ?Sized>(
        topo: &Topology,
        router: &R,
        faults: Option<&FaultSet>,
    ) -> Self {
        let mut cdg = Cdg::new(topo);
        let mut paths = Vec::new();
        let mut links = Vec::new();
        let n = topo.num_pns();
        for s in 0..n {
            for d in 0..n {
                if s == d {
                    continue;
                }
                let (s, d) = (PnId(s), PnId(d));
                router.fill_paths(topo, s, d, &mut paths);
                for &p in &paths {
                    if let Some(f) = faults {
                        if !f.path_survives(topo, s, d, p) {
                            continue;
                        }
                    }
                    links.clear();
                    topo.walk_path(s, d, p, |l| links.push(l));
                    cdg.add_route(&links);
                }
            }
        }
        cdg
    }

    /// Build the CDG the forwarding tables induce: every `(src, dst,
    /// slot)` table walk contributes its link chain. Walks that loop or
    /// misdeliver still contribute the links they traversed — a
    /// misrouted LFT is exactly when a dependency cycle becomes
    /// plausible, and the walk failure itself is reported separately by
    /// the coverage rules.
    pub fn from_tables(topo: &Topology, ft: &lmpr_core::forwarding::ForwardingTables) -> Self {
        let mut cdg = Cdg::new(topo);
        let n = topo.num_pns();
        for s in 0..n {
            for d in 0..n {
                if s == d {
                    continue;
                }
                let (s, d) = (PnId(s), PnId(d));
                for slot in 0..ft.k() {
                    match crate::coverage::table_walk(topo, ft, s, d, slot) {
                        Ok(links) | Err((links, _)) => cdg.add_route(&links),
                    }
                }
            }
        }
        cdg
    }

    /// Detect a dependency cycle. Returns `None` when the graph is
    /// acyclic (the Dally–Seitz certificate) or a *shortest* cycle
    /// through the first back-edge's strongly-connected component as the
    /// counterexample: the link sequence `c_0 → c_1 → … → c_0`.
    pub fn find_cycle(&self) -> Option<Vec<DirectedLinkId>> {
        // Iterative three-color DFS to find any node on a cycle.
        const WHITE: u8 = 0;
        const GRAY: u8 = 1;
        const BLACK: u8 = 2;
        let n = self.succ.len();
        let mut color = vec![WHITE; n];
        let mut on_cycle: Option<u32> = None;
        'roots: for root in 0..n {
            if color[root] != WHITE {
                continue;
            }
            // Stack of (node, next-successor-index).
            let mut stack: Vec<(u32, usize)> = vec![(root as u32, 0)];
            color[root] = GRAY;
            while let Some(&mut (node, ref mut idx)) = stack.last_mut() {
                if let Some(&next) = self.succ[node as usize].get(*idx) {
                    *idx += 1;
                    match color[next as usize] {
                        WHITE => {
                            color[next as usize] = GRAY;
                            stack.push((next, 0));
                        }
                        GRAY => {
                            on_cycle = Some(next);
                            break 'roots;
                        }
                        _ => {}
                    }
                } else {
                    color[node as usize] = BLACK;
                    stack.pop();
                }
            }
        }
        let start = on_cycle?;
        Some(self.shortest_cycle_through(start))
    }

    /// BFS for the shortest path `start → … → start`, which exists by
    /// construction when `start` lies on a cycle.
    fn shortest_cycle_through(&self, start: u32) -> Vec<DirectedLinkId> {
        let n = self.succ.len();
        let mut pred = vec![u32::MAX; n];
        let mut queue = std::collections::VecDeque::from([start]);
        while let Some(node) = queue.pop_front() {
            for &next in &self.succ[node as usize] {
                if next == start {
                    // Reconstruct start → … → node, then close the loop.
                    let mut cycle = vec![node];
                    let mut cur = node;
                    while cur != start {
                        cur = pred[cur as usize];
                        cycle.push(cur);
                    }
                    cycle.reverse();
                    return cycle.into_iter().map(DirectedLinkId).collect();
                }
                if next != start && pred[next as usize] == u32::MAX {
                    pred[next as usize] = node;
                    queue.push_back(next);
                }
            }
        }
        unreachable!("shortest_cycle_through called on a node not on any cycle")
    }

    /// Run the Dally–Seitz check and convert the outcome into a
    /// diagnostic (or `None` for the acyclic certificate).
    pub fn deadlock_finding(&self, topo: &Topology) -> Option<Diagnostic> {
        let cycle = self.find_cycle()?;
        let desc: Vec<String> = cycle
            .iter()
            .map(|&l| {
                let e = topo.endpoints(l);
                format!(
                    "link {} ({:?} L{} ({},{})→({},{}))",
                    l.0, e.dir, e.level, e.from.level, e.from.rank, e.to.level, e.to.rank
                )
            })
            .collect();
        Some(Diagnostic::error(
            RuleId::CdgCycle,
            format!(
                "channel-dependency cycle of length {}: {} -> back to start; \
                 the routing is not deadlock-free",
                cycle.len(),
                desc.join(" -> ")
            ),
            Witness::Cycle(cycle),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmpr_core::{DModK, Disjoint, SelectionEngine};
    use xgft::{NodeId, XgftSpec};

    fn fig3() -> Topology {
        Topology::new(XgftSpec::new(&[4, 4, 4], &[1, 2, 4]).expect("valid spec"))
    }

    #[test]
    fn shortest_path_routing_is_acyclic() {
        let topo = fig3();
        for k in [1u64, 2, 8] {
            let cdg = Cdg::from_router(&topo, &Disjoint::new(k), None);
            assert!(cdg.num_edges() > 0);
            assert!(cdg.find_cycle().is_none(), "k={k} must certify");
            assert!(cdg.deadlock_finding(&topo).is_none());
        }
    }

    #[test]
    fn degraded_routing_stays_acyclic() {
        let topo = fig3();
        let mut faults = FaultSet::new();
        faults.fail_switch(&topo, NodeId { level: 3, rank: 0 });
        let degraded = SelectionEngine::with_view(Disjoint::new(4), faults.clone());
        let cdg = Cdg::from_router(&topo, &degraded, Some(&faults));
        assert!(cdg.num_edges() > 0);
        assert!(cdg.find_cycle().is_none());
    }

    #[test]
    fn valley_route_is_caught_with_a_minimal_cycle() {
        let topo = Topology::new(XgftSpec::new(&[2, 2], &[1, 2]).expect("valid spec"));
        let mut cdg = Cdg::new(&topo);
        // A legitimate up-down route…
        let up = topo.up_link(1, 0, 0);
        let down = topo.down_link(1, 0, 1);
        cdg.add_route(&[up, down]);
        assert!(cdg.find_cycle().is_none());
        // …plus a valley route re-climbing after the descent through the
        // same pair in reverse: the classic deadlock dependency.
        cdg.add_route(&[down, up]);
        let cycle = cdg.find_cycle().expect("cycle must be found");
        assert_eq!(cycle.len(), 2, "counterexample must be minimal");
        let set: std::collections::HashSet<_> = cycle.iter().copied().collect();
        assert!(set.contains(&up) && set.contains(&down));
        let diag = cdg.deadlock_finding(&topo).expect("finding");
        assert_eq!(diag.rule, RuleId::CdgCycle);
        assert!(diag.message.contains("cycle of length 2"));
    }

    #[test]
    fn longer_cycles_report_the_shortest_one() {
        let topo = fig3();
        let mut cdg = Cdg::new(&topo);
        // Build a 3-cycle and a 2-cycle sharing a node; detection must
        // return the 2-cycle when BFS starts inside it.
        let (a, b, c) = (DirectedLinkId(0), DirectedLinkId(1), DirectedLinkId(2));
        cdg.add_route(&[a, b, c, a]); // 3-cycle a→b→c→a (plus c→a edge)
        cdg.add_route(&[b, a]); // 2-cycle a→b→a
        let cycle = cdg.find_cycle().expect("cycle");
        assert_eq!(cycle.len(), 2);
    }

    #[test]
    fn edges_deduplicate_but_routes_count() {
        let topo = Topology::new(XgftSpec::new(&[2, 2], &[1, 2]).expect("valid spec"));
        let mut cdg = Cdg::new(&topo);
        let up = topo.up_link(1, 0, 0);
        let down = topo.down_link(1, 0, 1);
        cdg.add_route(&[up, down]);
        cdg.add_route(&[up, down]);
        cdg.add_route(&[up]); // too short for an edge
        assert_eq!(cdg.num_edges(), 1);
        assert_eq!(cdg.num_routes(), 3);
    }

    #[test]
    fn dmodk_cdg_only_has_up_up_up_down_down_down_edges() {
        // The structural reason XGFT routing certifies: no down→up edge.
        let topo = fig3();
        let cdg = Cdg::from_router(&topo, &DModK, None);
        for (a, succs) in cdg.succ.iter().enumerate() {
            let (_, da) = topo.link_level_dir(DirectedLinkId(a as u32));
            for &b in succs {
                let (_, db) = topo.link_level_dir(DirectedLinkId(b));
                assert!(
                    !(da == xgft::LinkDir::Down && db == xgft::LinkDir::Up),
                    "down→up dependency in shortest-path CDG"
                );
            }
        }
    }
}
