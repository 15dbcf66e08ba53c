//! The lagged routing view: a [`SelectionEngine`] whose fault view
//! trails the physical fault state of a dynamic timeline.
//!
//! The simulator keeps **two** fault states when driven by a
//! [`FaultSchedule`]:
//!
//! * the *physical* state — which cables actually move flits — updated
//!   the cycle an event occurs (it flips the simulator's per-port
//!   `failed_out` flags);
//! * the *routing view* — what path selection is computed against —
//!   which trails the physical state by the configured detection +
//!   reconvergence lag ([`ResilienceConfig`](crate::ResilienceConfig)).
//!
//! When the view catches up with a batch of events the shared
//! [`SelectionEngine`] flushes only the cached SD selections the batch
//! actually touched (blast-radius invalidation) — incremental
//! reconvergence, not a full rebuild.

use crate::network::PortGraph;
use lmpr_core::{CachedSelection, Router, SelectionEngine, SelectionStats};
use std::collections::VecDeque;
use xgft::{DirectedLinkId, FaultChange, FaultSchedule, FaultSet, PathId, PnId, Topology};

/// Fault events that happened at one physical instant, queued until the
/// routing view is allowed to act on them.
struct ViewBatch {
    /// Cycle the events physically occurred.
    event_at: u64,
    /// Cycle the routing view applies them (`event_at + lag`,
    /// saturating).
    apply_at: u64,
    /// The changes, in timeline order.
    changes: Vec<FaultChange>,
}

/// The directed links whose up/down state a fault change toggles.
fn affected_links(topo: &Topology, change: FaultChange) -> Vec<DirectedLinkId> {
    match change {
        FaultChange::LinkDown(l) | FaultChange::LinkUp(l) => vec![l],
        FaultChange::SwitchDown(n) | FaultChange::SwitchUp(n) => topo.incident_links(n),
    }
}

/// The dynamic part of a scheduled run: the timeline with its replay
/// cursor, the physical fault state, and the batches waiting out the
/// detection + reconvergence lag.
struct Timeline {
    schedule: FaultSchedule,
    /// Next not-yet-applied event index.
    cursor: usize,
    /// Fault state the cables obey (updated the cycle an event occurs).
    phys_faults: FaultSet,
    /// Detection + reconvergence delay, in cycles.
    lag: u64,
    /// Event batches awaiting routing-view application.
    pending_view: VecDeque<ViewBatch>,
    /// Event batches the routing view has reconverged on.
    reconv_events: u64,
    /// Sum / max of realized event→reconvergence lags.
    reconv_sum_lag: u64,
    reconv_max_lag: u64,
}

/// Path selection as the simulator sees it: the shared
/// [`SelectionEngine`] plus, for schedule-driven runs, the lagged fault
/// timeline feeding it.
///
/// A plain view (no timeline) is an uncached pass-through of the router
/// — static-fault runs keep their fault model entirely in the
/// simulator's `failed_out` port flags, exactly as before the engine
/// existed.
pub(crate) struct RoutingView<R> {
    engine: SelectionEngine<R>,
    timeline: Option<Timeline>,
}

impl<R: Router> RoutingView<R> {
    /// A static view: the router's selections, recomputed per query.
    pub(crate) fn plain(router: R) -> Self {
        RoutingView {
            engine: SelectionEngine::new(router),
            timeline: None,
        }
    }

    /// A dynamic view over a fault timeline: selections are cached per
    /// SD pair and invalidated incrementally as the view reconverges,
    /// `lag` cycles behind the physical events.
    pub(crate) fn scheduled(router: R, schedule: FaultSchedule, lag: u64) -> Self {
        RoutingView {
            engine: SelectionEngine::cached(router, FaultSet::new()),
            timeline: Some(Timeline {
                schedule,
                cursor: 0,
                phys_faults: FaultSet::new(),
                lag,
                pending_view: VecDeque::new(),
                reconv_events: 0,
                reconv_sum_lag: 0,
                reconv_max_lag: 0,
            }),
        }
    }

    /// Unwrap the view, recovering the router.
    pub(crate) fn into_router(self) -> R {
        self.engine.into_router()
    }

    /// Whether a fault timeline drives this view.
    pub(crate) fn is_dynamic(&self) -> bool {
        self.timeline.is_some()
    }

    /// Fill `out` with the selection for the pair against the current
    /// view (empty = the view considers the pair disconnected).
    pub(crate) fn select(&mut self, topo: &Topology, s: PnId, d: PnId, out: &mut Vec<PathId>) {
        self.engine.select(topo, s, d, out);
    }

    /// The fault state path selection is computed against.
    pub(crate) fn view_faults(&self) -> &FaultSet {
        self.engine.view()
    }

    /// The cached selections in deterministic order (for `RT-SELECT`).
    pub(crate) fn cached_selections(&self) -> Vec<(PnId, PnId, &CachedSelection)> {
        self.engine.cached_selections()
    }

    /// The engine's lifetime hit/miss/invalidation counters.
    pub(crate) fn selection_stats(&self) -> SelectionStats {
        self.engine.stats()
    }

    /// `(events, sum lag, max lag)` of routing-view reconvergence.
    pub(crate) fn reconv_counters(&self) -> (u64, u64, u64) {
        match self.timeline.as_ref() {
            Some(t) => (t.reconv_events, t.reconv_sum_lag, t.reconv_max_lag),
            None => (0, 0, 0),
        }
    }

    /// Advance the fault timeline to `now`: events striking this cycle
    /// hit the cables (via `failed_out`) immediately; the routing view
    /// catches up on batches whose lag has elapsed, flushing only the
    /// cached selections each batch actually touched.
    pub(crate) fn advance(
        &mut self,
        now: u64,
        topo: &Topology,
        graph: &PortGraph,
        failed_out: &mut [bool],
    ) {
        let Some(t) = self.timeline.as_mut() else {
            return;
        };
        // Phase 1: events striking this cycle hit the cables immediately.
        let mut changes: Vec<FaultChange> = Vec::new();
        while let Some(e) = t.schedule.events().get(t.cursor) {
            if e.at > now {
                break;
            }
            e.change.apply(topo, &mut t.phys_faults);
            changes.push(e.change);
            t.cursor += 1;
        }
        if !changes.is_empty() {
            for &change in &changes {
                for link in affected_links(topo, change) {
                    let e = topo.endpoints(link);
                    let gid = graph.port_gid(graph.node_gid(e.from), e.from_port);
                    failed_out[gid as usize] = t.phys_faults.is_link_failed(link);
                }
            }
            let apply_at = now.saturating_add(t.lag);
            t.pending_view.push_back(ViewBatch {
                event_at: now,
                apply_at,
                changes,
            });
        }
        // Phase 2: the routing view catches up on due batches. The
        // engine flushes only the cached selections each batch touched —
        // incremental reconvergence, not a rebuild.
        while t.pending_view.front().is_some_and(|b| b.apply_at <= now) {
            let Some(batch) = t.pending_view.pop_front() else {
                break;
            };
            self.engine.apply_changes(topo, &batch.changes);
            t.reconv_events += 1;
            let lag = now.saturating_sub(batch.event_at);
            t.reconv_sum_lag = t.reconv_sum_lag.saturating_add(lag);
            t.reconv_max_lag = t.reconv_max_lag.max(lag);
        }
    }
}
