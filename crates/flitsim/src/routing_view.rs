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
use xgft::{
    DirectedLinkId, FaultChange, FaultEvent, FaultSchedule, FaultSet, PathId, PnId, Topology,
};

/// Fault events that happened at one physical instant, queued until the
/// routing view is allowed to act on them.
#[derive(Debug, Clone)]
pub(crate) struct ViewBatch {
    /// Cycle the events physically occurred.
    pub(crate) event_at: u64,
    /// Cycle the routing view applies them (`event_at + lag`,
    /// saturating).
    pub(crate) apply_at: u64,
    /// The changes, in timeline order.
    pub(crate) changes: Vec<FaultChange>,
}

/// The directed links whose up/down state a fault change toggles.
pub(crate) fn affected_links(topo: &Topology, change: FaultChange) -> Vec<DirectedLinkId> {
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

    /// Snapshot view of the timeline (`None` for a plain view): the
    /// schedule, replay cursor, lag, pending batches and reconvergence
    /// counters. The physical fault set and the engine's view are *not*
    /// exposed — both are rebuilt on restore by replaying schedule
    /// prefixes, which is exact because every event enters exactly one
    /// batch in timeline order.
    #[allow(clippy::type_complexity)]
    pub(crate) fn timeline_parts(
        &self,
    ) -> Option<(
        &[FaultEvent],
        usize,
        u64,
        &VecDeque<ViewBatch>,
        (u64, u64, u64),
    )> {
        self.timeline.as_ref().map(|t| {
            (
                t.schedule.events(),
                t.cursor,
                t.lag,
                &t.pending_view,
                (t.reconv_events, t.reconv_sum_lag, t.reconv_max_lag),
            )
        })
    }

    /// The engine's cache key set (sorted) and lifetime counters — the
    /// serialized half of the selection state. Selections themselves are
    /// recomputed on restore.
    pub(crate) fn engine_cache_parts(&self) -> (Vec<u64>, SelectionStats) {
        (self.engine.cached_keys(), self.engine.stats())
    }

    /// Rebuild a scheduled view from snapshot parts. The physical fault
    /// state is replayed from `events[..cursor]`; the engine's (lagged)
    /// view from the same prefix minus the changes still queued in
    /// `pending` — the invariant `applied-to-view ++ pending == applied-
    /// to-phys` holds because [`RoutingView::advance`] drains events into
    /// batches in timeline order and pops batches FIFO. Returns `None`
    /// when the parts are inconsistent (cursor past the schedule end, or
    /// more pending changes than applied events).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn restore_scheduled(
        router: R,
        topo: &Topology,
        schedule: FaultSchedule,
        cursor: usize,
        lag: u64,
        pending_view: VecDeque<ViewBatch>,
        reconv: (u64, u64, u64),
        cache_keys: &[u64],
        stats: SelectionStats,
    ) -> Option<Self> {
        let events = schedule.events();
        if cursor > events.len() {
            return None;
        }
        let pending_changes: usize = pending_view.iter().map(|b| b.changes.len()).sum();
        let view_cursor = cursor.checked_sub(pending_changes)?;
        let mut phys_faults = FaultSet::new();
        let mut view_faults = FaultSet::new();
        for (i, e) in events.iter().take(cursor).enumerate() {
            e.change.apply(topo, &mut phys_faults);
            if i < view_cursor {
                e.change.apply(topo, &mut view_faults);
            }
        }
        let engine = SelectionEngine::restore_cached(router, view_faults, topo, cache_keys, stats);
        Some(RoutingView {
            engine,
            timeline: Some(Timeline {
                schedule,
                cursor,
                phys_faults,
                lag,
                pending_view,
                reconv_events: reconv.0,
                reconv_sum_lag: reconv.1,
                reconv_max_lag: reconv.2,
            }),
        })
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
