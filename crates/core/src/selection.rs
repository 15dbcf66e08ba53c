//! The selection engine: one authority for `min(K, X)` path selection.
//!
//! Every consumer of path selections — the flow-level accumulators, the
//! flit-level simulator and the static verifier — needs the same three
//! ingredients: the scheme's canonical selection (behind the [`Router`]
//! trait), the fault-degraded top-up with d-mod-k-rotated scanning
//! (`degrade_selection`, private to this module), and, when selections
//! are queried repeatedly under fault churn, an incremental per-SD-pair
//! cache with blast-radius invalidation. [`SelectionEngine`] packages
//! the three so all consumers compute (and, when cached, share)
//! byte-identical selections instead of re-implementing the pipeline —
//! and is itself a [`Router`], so anything that routes fault-free takes
//! an engine to route degraded.
//!
//! # Cache coherence
//!
//! The cache is keyed by [`route_key`] and invalidated *incrementally*
//! as the engine's fault view changes through
//! [`SelectionEngine::apply_changes`]:
//!
//! * a **down** event flushes exactly the entries whose selection
//!   crosses a newly dead link (the blast radius);
//! * an **up** event flushes exactly the *degraded* entries whose
//!   canonical path space touches a recovered link — a degraded
//!   selection is a pure function of the survival bits of the pair's
//!   canonical enumeration, so if no canonical path crosses a recovered
//!   link the selection cannot change (and pristine entries cannot
//!   improve at all).
//!
//! Everything else keeps its selection, and is not even looked at: the
//! batch's [`BlastRadius`] — which pairs a changed link can touch, from
//! the topology alone — rejects every cached key outside it with two
//! range tests, so reconvergence cost scales with the damage, not with
//! the pair count or the cache size.

use crate::{RouteError, Router};
use lmpr_codec::{fnv, splitmix};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use xgft::{BlastRadius, FaultChange, FaultSet, PathId, PnId, Topology};

/// Dense SD-pair key for the selection cache.
pub fn route_key(s: PnId, d: PnId) -> u64 {
    ((s.0 as u64) << 32) | d.0 as u64
}

/// Multiply–xorshift hasher for [`route_key`]s.
///
/// The cache's keys are already uniformly spread 64-bit integers, so the
/// default SipHash (keyed, DoS-resistant) buys nothing here and costs a
/// full keyed permutation per probe. One Fibonacci multiply plus a fold
/// of the high bits mixes every key bit into the table index and keeps
/// iteration order deterministic across runs (the map is only ever
/// *iterated* through [`SelectionEngine::cached_selections`], which
/// sorts).
#[derive(Debug, Clone, Copy, Default)]
pub struct RouteKeyHasher(u64);

impl Hasher for RouteKeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Generic path (unused by u64 keys): FNV-1a fallback.
        self.0 = fnv::update(self.0, bytes);
    }

    fn write_u64(&mut self, key: u64) {
        let h = key.wrapping_mul(splitmix::GAMMA);
        self.0 = h ^ (h >> 32);
    }
}

type RouteKeyMap = HashMap<u64, CachedSelection, BuildHasherDefault<RouteKeyHasher>>;

/// Invert [`route_key`].
pub fn route_key_pair(key: u64) -> (PnId, PnId) {
    (PnId((key >> 32) as u32), PnId(key as u32))
}

/// A cached routing decision for one SD pair, computed against the
/// engine's fault view. `paths` empty means the view considers the pair
/// disconnected (kept cached so repeated queries stay cheap; flushed by
/// the next recovery event).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CachedSelection {
    /// The surviving `min(K, X)` selection, possibly topped up.
    pub paths: Vec<PathId>,
    /// Whether faults modified the fault-free selection (degraded
    /// entries are re-examined when links recover).
    pub degraded: bool,
}

/// Lifetime counters of one [`SelectionEngine`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SelectionStats {
    /// Queries answered from the cache.
    pub hits: u64,
    /// Queries that recomputed the selection (cached mode only).
    pub misses: u64,
    /// Cached selections flushed by fault events (blast-radius
    /// invalidation).
    pub invalidated: u64,
}

impl SelectionStats {
    /// Fraction of queries answered from the cache (0 when nothing was
    /// queried).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Degrade a fault-free path selection in place against a fault set.
///
/// `out` holds a selection computed on the fault-free enumeration (any
/// [`Router`]'s output, mirroring a subnet manager whose routing tables
/// were computed before the failure). Paths crossing a failed link are
/// dropped, then the set is topped back up from the surviving
/// enumeration so it keeps `min(budget, X_surviving)` distinct paths,
/// where `budget` is the incoming selection size. The top-up scan starts
/// at the pair's d-mod-k index and wraps, not at path 0: if every
/// degraded pair topped up from the canonical start, concurrent failures
/// would herd all repaired selections onto the lowest-numbered top
/// switches and manufacture hot spots exactly when the network is most
/// stressed. Rotating by the d-mod-k index keeps replacements spread by
/// destination, the same balancing idea the shift-1 window is built on.
/// Survival is read off the pair's [`SurvivorSet`](xgft::SurvivorSet),
/// built once per call, so no candidate path is walked.
///
/// Returns `Ok(false)` when the selection passed through untouched (no
/// fault affected it — always, with an empty fault set), `Ok(true)` when
/// it was modified, and [`RouteError::Disconnected`] when no shortest
/// path of the pair survives (`out` is left empty in that case).
///
/// Private on purpose: [`SelectionEngine`] is the only caller, so every
/// degraded selection in the workspace comes out of the engine.
fn degrade_selection(
    topo: &Topology,
    s: PnId,
    d: PnId,
    faults: &FaultSet,
    out: &mut Vec<PathId>,
) -> Result<bool, RouteError> {
    if faults.is_empty() {
        return Ok(false);
    }
    let budget = out.len();
    let alive = faults.survivors(topo, s, d);
    out.retain(|&p| alive.contains(p));
    if out.len() == budget {
        return Ok(false); // every selected path survived
    }
    // Re-select from the surviving enumeration, preserving the
    // already-selected survivors and topping up from the pair's d-mod-k
    // index (wrapping) so replacements stay spread across pairs: each
    // survivor is met once, in the cyclic order a scan would meet it.
    let mut from = topo.dmodk_path(s, d);
    for _ in 0..alive.count() {
        if out.len() == budget {
            break;
        }
        let Some(p) = alive.next_from(from) else {
            break;
        };
        if !out.contains(&p) {
            out.push(p);
        }
        from = PathId(p.0 + 1);
    }
    if out.is_empty() {
        return Err(RouteError::Disconnected { src: s, dst: d });
    }
    Ok(true)
}

/// One authority for path selection: scheme dispatch, fault-degraded
/// top-up, and (optionally) the incremental per-SD-pair cache.
///
/// The engine owns a router, a fault *view* (the fault state selections
/// are computed against — possibly lagging the physical truth, see the
/// flit simulator's routing view) and, in cached mode, a map of
/// previously computed selections. An uncached engine with an empty
/// view is an exact pass-through of the router, bit for bit.
#[derive(Debug, Clone)]
pub struct SelectionEngine<R> {
    router: R,
    view: FaultSet,
    cache: Option<RouteKeyMap>,
    stats: SelectionStats,
}

impl<R: Router> SelectionEngine<R> {
    /// An uncached engine with an empty fault view: selections are the
    /// router's, recomputed per query.
    pub fn new(router: R) -> Self {
        SelectionEngine {
            router,
            view: FaultSet::new(),
            cache: None,
            stats: SelectionStats::default(),
        }
    }

    /// An uncached engine over an explicit fault view — the form for
    /// one-shot consumers that ask each pair once (the verifier's
    /// degraded-coverage audit, flow-level degraded loads), where a
    /// cache would only be filled and dropped.
    pub fn with_view(router: R, view: FaultSet) -> Self {
        SelectionEngine {
            router,
            view,
            cache: None,
            stats: SelectionStats::default(),
        }
    }

    /// A cached engine over an explicit fault view: each SD pair is
    /// computed once and invalidated incrementally by
    /// [`SelectionEngine::apply_changes`]. Worth its memory only where
    /// pairs repeat between fault events (the routing controller's
    /// serving engine, the flit simulator's scheduled routing view).
    pub fn cached(router: R, view: FaultSet) -> Self {
        SelectionEngine {
            router,
            view,
            cache: Some(RouteKeyMap::default()),
            stats: SelectionStats::default(),
        }
    }

    /// The wrapped router.
    pub fn router(&self) -> &R {
        &self.router
    }

    /// Unwrap the engine, recovering the router.
    pub fn into_router(self) -> R {
        self.router
    }

    /// The fault view selections are computed against.
    pub fn view(&self) -> &FaultSet {
        &self.view
    }

    /// Whether selections are cached.
    pub fn is_cached(&self) -> bool {
        self.cache.is_some()
    }

    /// Number of currently cached selections.
    pub fn cache_len(&self) -> usize {
        self.cache.as_ref().map_or(0, HashMap::len)
    }

    /// Lifetime hit/miss/invalidation counters.
    pub fn stats(&self) -> SelectionStats {
        self.stats
    }

    /// The one compute step, shared by [`SelectionEngine::try_select`]
    /// and the [`Router`] impl: the router's fault-free selection
    /// degraded against the view. A disconnected pair leaves `out` empty.
    fn compute(
        &self,
        topo: &Topology,
        s: PnId,
        d: PnId,
        out: &mut Vec<PathId>,
    ) -> Result<bool, RouteError> {
        self.router.fill_paths(topo, s, d, out);
        degrade_selection(topo, s, d, &self.view, out)
    }

    /// Fill `out` with the selection for `(s, d)` against the current
    /// view: the router's fault-free selection with dead paths replaced
    /// by survivors scanned from the pair's d-mod-k index. In cached
    /// mode the result is memoized per pair — a disconnected pair is
    /// cached as an empty selection so repeated queries stay cheap.
    ///
    /// Returns `Ok(degraded)` on success (`degraded` = faults modified
    /// the fault-free selection) and [`RouteError::Disconnected`] when
    /// no path of the pair survives the view (`out` is left empty).
    pub fn try_select(
        &mut self,
        topo: &Topology,
        s: PnId,
        d: PnId,
        out: &mut Vec<PathId>,
    ) -> Result<bool, RouteError> {
        out.clear();
        if let Some(cache) = self.cache.as_ref() {
            if let Some(sel) = cache.get(&route_key(s, d)) {
                self.stats.hits += 1;
                out.extend_from_slice(&sel.paths);
                return if sel.paths.is_empty() {
                    Err(RouteError::Disconnected { src: s, dst: d })
                } else {
                    Ok(sel.degraded)
                };
            }
            self.stats.misses += 1;
        }
        let result = self.compute(topo, s, d, out);
        if let Some(cache) = self.cache.as_mut() {
            cache.insert(
                route_key(s, d),
                CachedSelection {
                    paths: out.clone(),
                    degraded: result != Ok(false),
                },
            );
        }
        result
    }

    /// Infallible variant of [`SelectionEngine::try_select`]: a
    /// disconnected pair leaves `out` empty instead of erroring (the
    /// flit simulator's calling convention).
    pub fn select(&mut self, topo: &Topology, s: PnId, d: PnId, out: &mut Vec<PathId>) {
        let _ = self.try_select(topo, s, d, out);
    }

    /// Apply a batch of fault changes to the view and flush exactly the
    /// cached selections the batch invalidates: entries whose *selected*
    /// paths cross a newly dead link (down events) and degraded entries
    /// whose *canonical* path space touches a recovered link (up events
    /// — the selection is a pure function of the survival bits of the
    /// pair's canonical enumeration, so recoveries outside that space
    /// cannot change it, and pristine entries cannot improve at all).
    /// Only entries inside the batch's [`BlastRadius`] walk any path.
    /// Returns the number of entries flushed.
    pub fn apply_changes(&mut self, topo: &Topology, changes: &[FaultChange]) -> u64 {
        self.apply_changes_inner(topo, changes, None)
    }

    /// [`SelectionEngine::apply_changes`], additionally appending the
    /// [`route_key`] of every flushed entry to `flushed`, in ascending
    /// order — the batch's observed blast radius. Consumers that must
    /// re-certify exactly the selections a change batch may have altered
    /// (the routing controller's per-epoch certificate) scope their
    /// audit to these keys instead of re-proving every pair.
    pub fn apply_changes_collect(
        &mut self,
        topo: &Topology,
        changes: &[FaultChange],
        flushed: &mut Vec<u64>,
    ) -> u64 {
        self.apply_changes_inner(topo, changes, Some(flushed))
    }

    fn apply_changes_inner(
        &mut self,
        topo: &Topology,
        changes: &[FaultChange],
        flushed_keys: Option<&mut Vec<u64>>,
    ) -> u64 {
        for &change in changes {
            change.apply(topo, &mut self.view);
        }
        let Some(cache) = self.cache.as_mut().filter(|c| !c.is_empty()) else {
            return 0;
        };
        // The batch's blast radius, from the topology alone: a pair
        // outside the down-radius has no canonical path — so no selected
        // one — over a newly dead link, and a pair is inside the
        // up-radius exactly when its canonical space touches a recovered
        // link. Only keys inside a radius are walked at all.
        let mut newly_down = FaultSet::new();
        let mut down_radius = BlastRadius::new(topo);
        let mut up_radius = BlastRadius::new(topo);
        for &change in changes {
            match change {
                FaultChange::LinkDown(_) | FaultChange::SwitchDown(_) => {
                    change.apply(topo, &mut newly_down);
                    down_radius.touch(topo, change);
                }
                FaultChange::LinkUp(_) | FaultChange::SwitchUp(_) => {
                    up_radius.touch(topo, change);
                }
            }
        }
        let flushes = |key: u64, sel: &CachedSelection| {
            let (s, d) = route_key_pair(key);
            let dead = down_radius.contains(s, d)
                && !sel
                    .paths
                    .iter()
                    .all(|&p| newly_down.path_survives(topo, s, d, p));
            // Degraded (including cached-disconnected) entries are
            // re-examined only when a recovery touches the pair's
            // canonical path space; pristine ones cannot improve.
            dead || (sel.degraded && up_radius.contains(s, d))
        };
        // The predicate is a pure function of the entry, so evaluating it
        // in hash order is unobservable; the flushed-key list is an
        // observable output (the batch's recorded blast radius) and is
        // sorted before anything reads it.
        let hit = cache.iter().filter(|(&key, sel)| flushes(key, sel));
        let mut doomed: Vec<u64> = hit.map(|(&key, _)| key).collect();
        doomed.sort_unstable();
        for key in &doomed {
            cache.remove(key);
        }
        let flushed = doomed.len() as u64;
        if let Some(out) = flushed_keys {
            out.extend_from_slice(&doomed);
        }
        self.stats.invalidated += flushed;
        flushed
    }

    /// The cached selections in deterministic (sorted-key) order — the
    /// iteration surface of the `RT-SELECT` runtime audit.
    pub fn cached_selections(&self) -> Vec<(PnId, PnId, &CachedSelection)> {
        let Some(cache) = self.cache.as_ref() else {
            return Vec::new();
        };
        let mut keys: Vec<u64> = cache.keys().copied().collect();
        keys.sort_unstable();
        keys.into_iter()
            .filter_map(|key| {
                cache.get(&key).map(|sel| {
                    let (s, d) = route_key_pair(key);
                    (s, d, sel)
                })
            })
            .collect()
    }
}

/// The engine as a [`Router`]: the `&self` read of the degraded
/// selection, for every consumer that takes a router (the CDG builder,
/// the flit simulator's static-fault runs, a digest over a serving
/// cache). It answers from the cache when the pair is there and computes
/// otherwise, but inserts nothing and counts nothing, so reading through
/// a shared reference never perturbs a cached engine.
impl<R: Router> Router for SelectionEngine<R> {
    /// **Contract deviation:** for a pair the view disconnects `out` is
    /// left *empty* (the [`Router`] trait normally guarantees a non-empty
    /// set). Callers that must distinguish disconnection by type use
    /// [`SelectionEngine::try_select`].
    fn fill_paths(&self, topo: &Topology, s: PnId, d: PnId, out: &mut Vec<PathId>) {
        match self.cache.as_ref().and_then(|c| c.get(&route_key(s, d))) {
            Some(sel) => {
                out.clear();
                out.extend_from_slice(&sel.paths);
            }
            None => {
                // A disconnected pair is already empty; the type is
                // `try_select`'s to report.
                let _ = self.compute(topo, s, d, out);
            }
        }
    }

    /// The inner router's name, suffixed `+faults` while the view is
    /// non-empty.
    fn name(&self) -> String {
        if self.view.is_empty() {
            self.router.name()
        } else {
            format!("{}+faults", self.router.name())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DModK, Disjoint, ShiftOne};
    use xgft::{FaultEvent, FaultSchedule, XgftSpec};

    fn fig3() -> Topology {
        Topology::new(XgftSpec::new(&[4, 4, 4], &[1, 2, 4]).unwrap())
    }

    #[test]
    fn uncached_empty_view_is_a_pass_through() {
        let topo = fig3();
        let mut engine = SelectionEngine::new(ShiftOne::new(3));
        let (s, d) = (PnId(0), PnId(63));
        let mut out = Vec::new();
        assert_eq!(engine.try_select(&topo, s, d, &mut out), Ok(false));
        assert_eq!(out, ShiftOne::new(3).path_set(&topo, s, d).paths());
        assert_eq!(engine.stats(), SelectionStats::default());
        assert_eq!(engine.cache_len(), 0);
        assert!(!engine.is_cached());
        // As a router it is the inner router, by selection and by name.
        assert_eq!(
            engine.path_set(&topo, s, d),
            ShiftOne::new(3).path_set(&topo, s, d)
        );
        assert_eq!(engine.name(), "shift-1(3)");
    }

    #[test]
    fn dead_paths_are_replaced_by_survivors() {
        let topo = fig3();
        let (s, d) = (PnId(0), PnId(63));
        // Kill top switch 0 — path 0 dies; shift-1 at the d-mod-k index 7
        // selects {7, 0, 1}; the degraded set must swap 0 for a survivor
        // and keep cardinality 3.
        let mut faults = FaultSet::new();
        faults.fail_switch(&topo, xgft::NodeId { level: 3, rank: 0 });
        let mut engine = SelectionEngine::with_view(ShiftOne::new(3), faults.clone());
        let mut out = Vec::new();
        assert_eq!(engine.try_select(&topo, s, d, &mut out), Ok(true));
        assert_eq!(out.len(), 3);
        assert!(out.iter().all(|&p| faults.path_survives(&topo, s, d, p)));
        assert!(out.contains(&PathId(7)));
        assert!(out.contains(&PathId(1)));
        assert!(!out.contains(&PathId(0)));
        assert_eq!(engine.name(), "shift-1(3)+faults");
    }

    #[test]
    fn cardinality_is_min_k_surviving() {
        let topo = fig3();
        let (s, d) = (PnId(0), PnId(63));
        // Fail one level-2 up-link: 4 of 8 paths survive.
        let mut faults = FaultSet::new();
        faults.fail_link(topo.up_link(2, 0, 0));
        assert_eq!(faults.num_surviving(&topo, s, d), 4);
        for k in [1u64, 2, 4, 6, 8] {
            let engine = SelectionEngine::with_view(Disjoint::new(k), faults.clone());
            assert_eq!(
                engine.path_set(&topo, s, d).len() as u64,
                k.min(4),
                "budget {k}"
            );
        }
    }

    /// A cached engine answers every pair as a cold one does, and its
    /// `&self` read — the [`Router`] impl — agrees with both whether the
    /// pair is not cached yet, cached, or cached as disconnected, without
    /// ever touching the cache or the counters.
    #[test]
    fn cached_engine_matches_a_cold_engine_and_its_own_shared_read() {
        let topo = fig3();
        let faults = FaultSet::sample(&topo, 0.1, 0.0, 3);
        let mut cold = SelectionEngine::with_view(Disjoint::new(4), faults.clone());
        let mut engine = SelectionEngine::cached(Disjoint::new(4), faults);
        let n = topo.num_pns();
        let pairs: Vec<(PnId, PnId)> = (0..n)
            .flat_map(|s| {
                (0..n)
                    .filter(move |&d| d != s)
                    .map(move |d| (PnId(s), PnId(d)))
            })
            .collect();
        let total = pairs.len() as u64;
        let (mut a, mut b, mut read) = (Vec::new(), Vec::new(), Vec::new());
        let mut disconnected = 0u64;
        for &(s, d) in &pairs {
            let before = (engine.stats(), engine.cache_len());
            engine.fill_paths(&topo, s, d, &mut read);
            assert_eq!((engine.stats(), engine.cache_len()), before);
            let want = cold.try_select(&topo, s, d, &mut a);
            let got = engine.try_select(&topo, s, d, &mut b);
            assert_eq!(want, got, "({s:?}, {d:?})");
            assert_eq!(a, b, "({s:?}, {d:?})");
            assert_eq!(a, read, "uncached read of ({s:?}, {d:?})");
            disconnected += u64::from(got.is_err());
        }
        assert!(disconnected > 0, "the sample must disconnect some pair");
        let warm = engine.stats();
        assert_eq!(warm.hits, 0, "each pair queried once");
        assert_eq!(warm.misses, total);
        assert_eq!(engine.cache_len(), pairs.len());
        // Reading the warm cache — disconnected entries included —
        // replays it and still changes nothing.
        for &(s, d) in &pairs {
            cold.fill_paths(&topo, s, d, &mut a);
            engine.fill_paths(&topo, s, d, &mut read);
            assert_eq!(a, read, "cached read of ({s:?}, {d:?})");
        }
        assert_eq!(engine.stats(), warm);
        assert_eq!(engine.cache_len(), pairs.len());
        // A second sweep is answered entirely from the cache, identically.
        for &(s, d) in &pairs {
            cold.select(&topo, s, d, &mut a);
            engine.select(&topo, s, d, &mut b);
            assert_eq!(a, b);
        }
        assert_eq!(engine.stats().hits, total);
        assert!(engine.stats().hit_rate() > 0.49);
    }

    #[test]
    fn disconnection_is_cached_and_typed() {
        let topo = fig3();
        // w_1 = 1: PN 0's single up-link carries every path out of it.
        let mut faults = FaultSet::new();
        faults.fail_link(topo.up_link(1, 0, 0));
        let mut engine = SelectionEngine::cached(DModK, faults);
        let mut out = vec![PathId(9)];
        let err = engine.try_select(&topo, PnId(0), PnId(63), &mut out);
        assert_eq!(
            err,
            Err(RouteError::Disconnected {
                src: PnId(0),
                dst: PnId(63)
            })
        );
        assert!(out.is_empty());
        // The disconnection is memoized: the repeat is a cache hit with
        // the same typed error.
        let err = engine.try_select(&topo, PnId(0), PnId(63), &mut out);
        assert!(err.is_err());
        assert!(out.is_empty());
        assert_eq!(engine.stats().hits, 1);
        assert_eq!(engine.stats().misses, 1);
        // The infallible router read leaves the set empty, cached or
        // not, and other sources are unaffected.
        for d in [PnId(63), PnId(62)] {
            let mut out = vec![PathId(9)];
            engine.fill_paths(&topo, PnId(0), d, &mut out);
            assert!(out.is_empty());
        }
        assert_eq!(
            engine.try_select(&topo, PnId(1), PnId(63), &mut out),
            Ok(false)
        );
    }

    /// Property (cache coherence under churn): across a scripted
    /// fail → recover schedule, a cached engine answers every SD pair
    /// identically to a cold engine recomputing against the same view.
    #[test]
    fn cached_selections_agree_with_cold_recompute_across_fail_recover() {
        let topo = fig3();
        let link_a = topo.up_link(2, 0, 0);
        let link_b = topo.up_link(3, 1, 2);
        let schedule = FaultSchedule::scripted(vec![
            FaultEvent {
                at: 0,
                change: FaultChange::LinkDown(link_a),
            },
            FaultEvent {
                at: 1,
                change: FaultChange::LinkDown(link_b),
            },
            FaultEvent {
                at: 2,
                change: FaultChange::SwitchDown(xgft::NodeId { level: 3, rank: 1 }),
            },
            FaultEvent {
                at: 3,
                change: FaultChange::LinkUp(link_a),
            },
            FaultEvent {
                at: 4,
                change: FaultChange::SwitchUp(xgft::NodeId { level: 3, rank: 1 }),
            },
            FaultEvent {
                at: 5,
                change: FaultChange::LinkUp(link_b),
            },
        ]);
        let mut engine = SelectionEngine::cached(ShiftOne::new(4), FaultSet::new());
        let n = topo.num_pns();
        let (mut warm, mut cold) = (Vec::new(), Vec::new());
        for epoch in 0..=schedule.events().len() {
            // Warm the cache on a spread of pairs *before* the next batch
            // so invalidation has something to bite on.
            for i in 0..n {
                let (s, d) = (PnId(i), PnId((i * 13 + 7) % n));
                if s == d {
                    continue;
                }
                engine.select(&topo, s, d, &mut warm);
            }
            if let Some(e) = schedule.events().get(epoch) {
                engine.apply_changes(&topo, &[e.change]);
            }
            // Every pair: cached answer == cold recomputation against an
            // identical view.
            let mut reference = SelectionEngine::with_view(ShiftOne::new(4), engine.view().clone());
            for s in 0..n {
                for d in 0..n {
                    if s == d {
                        continue;
                    }
                    let (s, d) = (PnId(s), PnId(d));
                    let w = engine.try_select(&topo, s, d, &mut warm);
                    let c = reference.try_select(&topo, s, d, &mut cold);
                    assert_eq!(w, c, "epoch {epoch} ({s:?}, {d:?})");
                    assert_eq!(warm, cold, "epoch {epoch} ({s:?}, {d:?})");
                }
            }
        }
        let stats = engine.stats();
        assert!(stats.hits > 0, "the churn sweep must hit the cache");
        assert!(
            stats.invalidated > 0,
            "down events must flush blast-radius entries"
        );
        // After full recovery the view is empty again: selections equal
        // the fault-free router's.
        assert!(engine.view().is_empty());
        let mut plain = Vec::new();
        for (s, d, sel) in engine.cached_selections() {
            ShiftOne::new(4).fill_paths(&topo, s, d, &mut plain);
            assert_eq!(sel.paths, plain, "({s:?}, {d:?}) after recovery");
            assert!(!sel.degraded);
        }
    }

    #[test]
    fn up_events_flush_only_degraded_entries() {
        let topo = fig3();
        let link = topo.up_link(2, 0, 0);
        // K = 8 selects all 8 paths of (0, 63), four of which cross the
        // link; pair (1, 0) stays below level 2 and never touches it.
        let mut engine = SelectionEngine::cached(ShiftOne::new(8), FaultSet::new());
        let mut out = Vec::new();
        engine.select(&topo, PnId(0), PnId(63), &mut out);
        engine.select(&topo, PnId(1), PnId(0), &mut out);
        assert_eq!(engine.cache_len(), 2);
        let flushed = engine.apply_changes(&topo, &[FaultChange::LinkDown(link)]);
        assert_eq!(
            flushed, 1,
            "only the crossing selection is in the blast radius"
        );
        engine.select(&topo, PnId(0), PnId(63), &mut out);
        assert!(!out.is_empty(), "degraded top-up found a survivor");
        let flushed = engine.apply_changes(&topo, &[FaultChange::LinkUp(link)]);
        assert_eq!(flushed, 1, "recovery flushes exactly the degraded entry");
        assert_eq!(engine.stats().invalidated, 2);
    }

    #[test]
    fn up_events_spare_degraded_entries_outside_the_recovery_blast_radius() {
        let topo = fig3();
        // Two level-2 up-links in different subtrees: (0, 63) can cross
        // the first, (16, 31) only the second (both pairs NCA at level
        // 2+ — pick pairs whose canonical spaces are disjoint at the
        // failed level's subtree).
        let link_a = topo.up_link(2, 0, 0);
        let link_b = topo.up_link(2, 7, 1);
        let mut engine = SelectionEngine::cached(ShiftOne::new(8), FaultSet::new());
        let mut out = Vec::new();
        engine.apply_changes(
            &topo,
            &[FaultChange::LinkDown(link_a), FaultChange::LinkDown(link_b)],
        );
        engine.select(&topo, PnId(0), PnId(63), &mut out); // degraded via link_a
        engine.select(&topo, PnId(28), PnId(19), &mut out); // degraded via link_b
        assert_eq!(engine.cache_len(), 2);
        let degraded = engine
            .cached_selections()
            .iter()
            .filter(|(_, _, sel)| sel.degraded)
            .count();
        assert_eq!(degraded, 2, "both entries must be degraded");
        // Recovering link_a must flush only the pair whose canonical
        // space contains it — the other degraded entry is untouched.
        let flushed = engine.apply_changes(&topo, &[FaultChange::LinkUp(link_a)]);
        assert_eq!(
            flushed, 1,
            "recovery must flush only the blast-radius entry"
        );
        assert_eq!(engine.cache_len(), 1);
    }

    /// Regression for the 24 % steady-state hit rate: under uniform
    /// repeated queries with Poisson fault churn, recoveries used to
    /// flush *every* degraded entry network-wide, so each repair dumped
    /// thousands of selections. With recovery invalidation scoped to
    /// the canonical-path blast radius, steady-state traffic must be
    /// answered overwhelmingly from the cache.
    #[test]
    fn steady_state_churn_traffic_is_mostly_cache_hits() {
        let topo = fig3();
        let schedule = FaultSchedule::poisson(&topo, 5e-5, 1_500.0, 10_000, 11);
        assert!(!schedule.is_empty());
        let mut engine = SelectionEngine::cached(ShiftOne::new(4), FaultSet::new());
        let n = topo.num_pns();
        let mut out = Vec::new();
        let sweep = |engine: &mut SelectionEngine<ShiftOne>, out: &mut Vec<PathId>| {
            for s in 0..n {
                for d in 0..n {
                    if s != d {
                        engine.select(&topo, PnId(s), PnId(d), out);
                    }
                }
            }
        };
        // Warm sweep, then steady state: traffic requeries every pair
        // several times between 500-cycle batches of fault events (the
        // flit-sim regime — traffic is much faster than fault churn).
        sweep(&mut engine, &mut out);
        let warm = engine.stats();
        assert_eq!(warm.misses, (n as u64) * (n as u64 - 1));
        let mut from = 0u64;
        for through in (500..=10_000u64).step_by(500) {
            let changes: Vec<FaultChange> = schedule
                .events_between(from, through)
                .iter()
                .map(|e| e.change)
                .collect();
            engine.apply_changes(&topo, &changes);
            from = through + 1;
            for _ in 0..4 {
                sweep(&mut engine, &mut out);
            }
        }
        let stats = engine.stats();
        let steady_hits = stats.hits;
        let steady_misses = stats.misses - warm.misses;
        let rate = steady_hits as f64 / (steady_hits + steady_misses) as f64;
        assert!(
            stats.invalidated > 0,
            "the churn must actually flush entries"
        );
        assert!(
            rate > 0.85,
            "steady-state uniform traffic must be mostly cache hits, got {rate:.3}"
        );
    }

    #[test]
    fn apply_changes_collect_reports_the_flushed_keys() {
        let topo = fig3();
        let link = topo.up_link(2, 0, 0);
        let mut engine = SelectionEngine::cached(ShiftOne::new(8), FaultSet::new());
        let mut out = Vec::new();
        engine.select(&topo, PnId(0), PnId(63), &mut out);
        engine.select(&topo, PnId(1), PnId(0), &mut out);
        let mut flushed = Vec::new();
        let n = engine.apply_changes_collect(&topo, &[FaultChange::LinkDown(link)], &mut flushed);
        assert_eq!(n, 1);
        assert_eq!(flushed, vec![route_key(PnId(0), PnId(63))]);
        // The recovery flushes the same (now degraded) entry.
        engine.select(&topo, PnId(0), PnId(63), &mut out);
        flushed.clear();
        let n = engine.apply_changes_collect(&topo, &[FaultChange::LinkUp(link)], &mut flushed);
        assert_eq!(n, 1);
        assert_eq!(flushed, vec![route_key(PnId(0), PnId(63))]);
    }

    #[test]
    fn route_key_roundtrip() {
        let (s, d) = (PnId(123), PnId(4_000_000));
        assert_eq!(route_key_pair(route_key(s, d)), (s, d));
        assert_ne!(route_key(PnId(1), PnId(2)), route_key(PnId(2), PnId(1)));
    }

    #[test]
    fn cached_selections_iterate_in_sorted_key_order() {
        let topo = fig3();
        let mut engine = SelectionEngine::cached(DModK, FaultSet::new());
        let mut out = Vec::new();
        for &(s, d) in &[(9u32, 2u32), (0, 63), (3, 17), (0, 1)] {
            engine.select(&topo, PnId(s), PnId(d), &mut out);
        }
        let keys: Vec<u64> = engine
            .cached_selections()
            .iter()
            .map(|&(s, d, _)| route_key(s, d))
            .collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted);
        assert_eq!(keys.len(), 4);
    }
}
