//! K-coverage and LFT slot-realization audits.
//!
//! Two artifact classes are audited:
//!
//! * **Router selections** ([`check_router_coverage`],
//!   [`check_degraded_coverage`]): every SD pair must yield exactly
//!   `min(K, X)` distinct, in-range, loop-free up\*/down\* shortest
//!   paths through the pair's NCA level — `min(K, X_surviving)` under a
//!   fault set, with disconnection surfacing as the typed
//!   [`RouteError::Disconnected`](lmpr_core::RouteError#variant.Disconnected).
//! * **Forwarding tables** ([`check_tables`]): every `(src, dst, slot)`
//!   table walk must terminate at the destination along a shortest
//!   up\*/down\* route, the realized path must equal the path the slot's
//!   shift vector *specifies* (realization ≡ specification), slot 0 must
//!   be plain d-mod-k, and at full budget the slots must cover each
//!   pair's path space bijectively (balanced multiplicity).

use crate::{Diagnostic, EpochScope, Report, RuleId, Witness};
use lmpr_codec::par;
use lmpr_core::forwarding::{shift_vectors, ForwardingTables, SlotOrder};
use lmpr_core::{RouteError, Router, SelectionEngine};
use std::collections::BTreeMap;
use std::ops::Range;
use xgft::{DirectedLinkId, FaultSet, LinkDir, NodeId, PathId, PnId, Topology, MAX_HEIGHT};

/// How many paths a scheme is expected to select per pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Budget {
    /// A fixed budget `K`: expect `min(K, X)` paths.
    Limited(u64),
    /// UMULTI: expect all `X` paths.
    Unlimited,
}

impl Budget {
    /// Expected cardinality for a pair with `x` available paths.
    pub fn expected(self, x: u64) -> u64 {
        match self {
            Budget::Limited(k) => k.min(x),
            Budget::Unlimited => x,
        }
    }
}

/// Validate one selected path id: range, then the up\*/down\* shape of
/// its link walk. Returns the findings it generated.
fn check_path_shape(
    topo: &Topology,
    s: PnId,
    d: PnId,
    p: PathId,
    faults: Option<&FaultSet>,
    out: &mut Vec<Diagnostic>,
) {
    let x = topo.num_paths(s, d);
    if p.0 >= x {
        out.push(Diagnostic::error(
            RuleId::CoverageRange,
            format!(
                "pair ({}, {}): selected path id {} outside the pair's path space X = {x}",
                s.0, d.0, p.0
            ),
            Witness::Path {
                src: s,
                dst: d,
                path: p,
            },
        ));
        return; // the walk below would assert on an out-of-range id
    }
    let kappa = topo.nca_level(s, d);
    let mut walk = [DirectedLinkId(0); 2 * MAX_HEIGHT];
    let mut len = 0;
    topo.walk_path(s, d, p, |l| {
        walk[len] = l;
        len += 1;
    });
    let links = &walk[..len];
    let mut ok = links.len() == 2 * kappa;
    for (i, &l) in links.iter().enumerate() {
        let (level, dir) = topo.link_level_dir(l);
        let (want_level, want_dir) = if i < kappa {
            (i + 1, LinkDir::Up)
        } else {
            (2 * kappa - i, LinkDir::Down)
        };
        ok &= level as usize == want_level && dir == want_dir;
    }
    if !ok {
        out.push(Diagnostic::error(
            RuleId::CoverageUpDown,
            format!(
                "pair ({}, {}): path {} is not a {kappa}-up/{kappa}-down shortest route \
                 through the NCA level",
                s.0, d.0, p.0
            ),
            Witness::Path {
                src: s,
                dst: d,
                path: p,
            },
        ));
    }
    if let Some(f) = faults {
        if links.iter().any(|&l| f.is_link_failed(l)) {
            out.push(Diagnostic::error(
                RuleId::CoverageUpDown,
                format!(
                    "pair ({}, {}): selected path {} crosses a failed link \
                     in the degraded network",
                    s.0, d.0, p.0
                ),
                Witness::Path {
                    src: s,
                    dst: d,
                    path: p,
                },
            ));
        }
    }
}

/// Check duplicate ids within one selection. A passing selection is
/// compared pairwise in place; only a duplicate's message sorts a copy.
fn check_distinct(s: PnId, d: PnId, paths: &[PathId], out: &mut Vec<Diagnostic>) {
    let repeats = |(i, p): (usize, &PathId)| paths[i + 1..].contains(p);
    if paths.iter().enumerate().any(repeats) {
        let mut sorted: Vec<u64> = paths.iter().map(|p| p.0).collect();
        sorted.sort_unstable();
        out.push(Diagnostic::error(
            RuleId::CoverageDuplicate,
            format!(
                "pair ({}, {}): selection contains duplicate path ids {:?}",
                s.0, d.0, sorted
            ),
            Witness::Pair { src: s, dst: d },
        ));
    }
}

/// Audit a fault-free router: exact `min(K, X)` coverage, distinctness,
/// range, and the up\*/down\* shape of every selected path, for every SD
/// pair. Appends findings and a [`CheckRun`](crate::CheckRun) block to
/// `report`.
pub fn check_router_coverage<R: Router + ?Sized>(
    topo: &Topology,
    router: &R,
    budget: Budget,
    report: &mut Report,
) {
    let n = topo.num_pns();
    let mut paths = Vec::new();
    let mut pairs = 0u64;
    let before_count = report.findings.len();
    let mut shape_findings = Vec::new();
    for s in 0..n {
        for d in 0..n {
            if s == d {
                continue;
            }
            pairs += 1;
            let (s, d) = (PnId(s), PnId(d));
            router.fill_paths(topo, s, d, &mut paths);
            let x = topo.num_paths(s, d);
            let expected = budget.expected(x);
            if paths.len() as u64 != expected {
                report.findings.push(Diagnostic::error(
                    RuleId::CoverageCount,
                    format!(
                        "pair ({}, {}): selected {} paths, expected min(K, X) = {expected} \
                         (X = {x})",
                        s.0,
                        d.0,
                        paths.len()
                    ),
                    Witness::Pair { src: s, dst: d },
                ));
            }
            check_distinct(s, d, &paths, &mut report.findings);
            for &p in &paths {
                check_path_shape(topo, s, d, p, None, &mut shape_findings);
            }
        }
    }
    report.record(RuleId::CoverageCount, pairs, before_count);
    let before_shape = report.findings.len();
    report.findings.append(&mut shape_findings);
    report.record(RuleId::CoverageUpDown, pairs, before_shape);
}

/// Audit the degraded selection of `router` under `faults`: per pair,
/// exactly `min(K, X_surviving)` surviving paths, every selected path
/// avoiding every failed link, and `RouteError::Disconnected` exactly on
/// the pairs whose whole path space is dead.
///
/// The selections under audit come from the same [`SelectionEngine`]
/// the simulators and the controller route with, so a certificate here
/// covers exactly the paths a degraded run would use. Every pair is
/// asked once, so the engine is uncached.
///
/// `scope` is every ordered pair, or an explicit pair list — the routing
/// controller's *incremental* per-epoch certificate mode. After a fault
/// change batch only the pairs in the batch's topology-derived blast
/// radius ([`crate::change_blast_radius`]: every pair whose canonical
/// path space touches a changed element) can change their selection, so
/// re-certifying exactly those pairs keeps reconvergence latency
/// proportional to the damage while untouched pairs keep their standing
/// certificate. Self-pairs in the list are skipped, duplicates are
/// audited twice (harmless — the audit is read-only).
///
/// The expected survivor count comes from [`FaultSet::survivors`] in
/// scoped mode and from a walk of every path at full scope, so the
/// structure the engine degrades with is itself audited by every full
/// certificate (genesis, whole-matrix epochs, `verify --ci`) and never
/// certifies itself.
///
/// Pairs are independent, so a large scope is cut into contiguous
/// shards — runs of the pair list, or of source rows at full scope —
/// one per worker of [`lmpr_codec::par::map`], at least
/// `MIN_PAIRS_PER_WORKER` pairs each. Shards are merged in order, so the
/// report is byte-identical at any worker count.
pub fn check_degraded_coverage<R: Router>(
    topo: &Topology,
    router: R,
    faults: &FaultSet,
    budget: Budget,
    scope: EpochScope<'_>,
    report: &mut Report,
) {
    let pairs = match scope {
        EpochScope::Full => {
            let n = (0..topo.num_pns()).len();
            n.saturating_mul(n.saturating_sub(1))
        }
        EpochScope::Pairs(pairs) => pairs.len(),
    };
    let workers = par::workers(pairs / MIN_PAIRS_PER_WORKER);
    audit_degraded(topo, &router, faults, budget, scope, workers, report);
}

/// The fewest pairs worth a coverage worker of their own, a few hundred
/// microseconds of audit: smaller blast radii stay on the calling thread.
const MIN_PAIRS_PER_WORKER: usize = 512;

/// [`check_degraded_coverage`] cut into `workers` contiguous shards (at
/// least one, at most one per pair-list entry or source row). Each
/// worker's engine and path buffer are built on the calling thread
/// before any worker starts, and findings are appended in shard order.
pub(crate) fn audit_degraded<R: Router>(
    topo: &Topology,
    router: &R,
    faults: &FaultSet,
    budget: Budget,
    scope: EpochScope<'_>,
    workers: usize,
    report: &mut Report,
) {
    let units = match scope {
        EpochScope::Full => (0..topo.num_pns()).len(),
        EpochScope::Pairs(pairs) => pairs.len(),
    };
    let chunk = units.div_ceil(workers.max(1)).max(1);
    let shards = units.div_ceil(chunk);
    let selection = usize::try_from(topo.w_prod(topo.height())).unwrap_or(0);
    let worker = || Worker {
        engine: SelectionEngine::with_view(router, faults.clone()),
        paths: Vec::with_capacity(selection),
    };
    let audit = |w: &mut Worker<'_, R>, i: usize| {
        let shard = i * chunk..units.min((i + 1) * chunk);
        let mut findings = Vec::new();
        let inspected = w.audit(topo, faults, budget, scope, shard, &mut findings);
        (findings, inspected)
    };
    let before = report.findings.len();
    let mut inspected = 0;
    for (mut findings, n) in par::map(shards, shards, worker, audit) {
        report.findings.append(&mut findings);
        inspected += n;
    }
    report.record(RuleId::CoverageDisconnect, inspected, before);
}

/// One coverage worker's state: an uncached engine over the audited
/// fault set and a path buffer sized for the largest selection, so a
/// pair whose selection passes costs no allocation.
struct Worker<'r, R> {
    engine: SelectionEngine<&'r R>,
    paths: Vec<PathId>,
}

impl<R: Router> Worker<'_, R> {
    /// Audit the pairs of one shard — entries `shard` of the pair list,
    /// or source rows `shard` against every destination at full scope —
    /// appending findings to `findings`. Returns the pairs inspected.
    fn audit(
        &mut self,
        topo: &Topology,
        faults: &FaultSet,
        budget: Budget,
        scope: EpochScope<'_>,
        shard: Range<usize>,
        findings: &mut Vec<Diagnostic>,
    ) -> u64 {
        let mut inspected = 0u64;
        let full = matches!(scope, EpochScope::Full);
        let mut audit = |s: PnId, d: PnId| {
            if s == d {
                return;
            }
            inspected += 1;
            let surviving = if full {
                walked_survivor_count(topo, faults, s, d)
            } else {
                faults.survivors(topo, s, d).count()
            };
            audit_degraded_pair(
                topo,
                &mut self.engine,
                faults,
                budget,
                s,
                d,
                surviving,
                &mut self.paths,
                findings,
            );
        };
        match scope {
            EpochScope::Full => {
                let n = topo.num_pns();
                let rows = (0..n).skip(shard.start).take(shard.len());
                rows.for_each(|s| (0..n).for_each(|d| audit(PnId(s), PnId(d))));
            }
            EpochScope::Pairs(pairs) => pairs[shard].iter().for_each(|&(s, d)| audit(s, d)),
        }
        inspected
    }
}

/// The full-scope reference count of a pair's surviving paths: every
/// canonical path walked link by link against the raw fault bits. It
/// shares no code with [`FaultSet::survivors`], which is what lets a
/// full certificate refute that structure.
fn walked_survivor_count(topo: &Topology, faults: &FaultSet, s: PnId, d: PnId) -> u64 {
    let alive = |&p: &PathId| faults.path_survives(topo, s, d, p);
    topo.all_paths(s, d).filter(alive).count() as u64
}

/// The per-pair body of the degraded audit: cardinality against the
/// pair's `surviving` count, distinctness, shape, failed-link avoidance
/// and typed disconnection.
#[allow(clippy::too_many_arguments)]
fn audit_degraded_pair<R: Router>(
    topo: &Topology,
    engine: &mut SelectionEngine<R>,
    faults: &FaultSet,
    budget: Budget,
    s: PnId,
    d: PnId,
    surviving: u64,
    paths: &mut Vec<PathId>,
    findings: &mut Vec<Diagnostic>,
) {
    match engine.try_select(topo, s, d, paths) {
        Ok(_) => {
            if surviving == 0 {
                findings.push(Diagnostic::error(
                    RuleId::CoverageDisconnect,
                    format!(
                        "pair ({}, {}): no path survives, yet the adapter \
                         returned {} paths instead of Disconnected",
                        s.0,
                        d.0,
                        paths.len()
                    ),
                    Witness::Pair { src: s, dst: d },
                ));
                return;
            }
            let expected = budget.expected(surviving);
            if paths.len() as u64 != expected {
                findings.push(Diagnostic::error(
                    RuleId::CoverageCount,
                    format!(
                        "pair ({}, {}): degraded selection has {} paths, expected \
                         min(K, X_surviving) = {expected} (X_surviving = {surviving})",
                        s.0,
                        d.0,
                        paths.len()
                    ),
                    Witness::Pair { src: s, dst: d },
                ));
            }
            check_distinct(s, d, paths, findings);
            for &p in paths.iter() {
                check_path_shape(topo, s, d, p, Some(faults), findings);
            }
        }
        Err(RouteError::Disconnected { .. }) => {
            if surviving != 0 {
                findings.push(Diagnostic::error(
                    RuleId::CoverageDisconnect,
                    format!(
                        "pair ({}, {}): adapter reported Disconnected but \
                         {surviving} paths survive",
                        s.0, d.0
                    ),
                    Witness::Pair { src: s, dst: d },
                ));
            }
        }
        Err(e) => {
            findings.push(Diagnostic::error(
                RuleId::CoverageCount,
                format!("pair ({}, {}): unexpected routing error: {e}", s.0, d.0),
                Witness::Pair { src: s, dst: d },
            ));
        }
    }
}

/// Walk the forwarding tables for `(src, dst, slot)` and return the
/// traversed links — on failure (loop or wrong ejection PN), the links
/// traversed so far together with the diagnostic, so the CDG builder can
/// still account for the partial route's dependencies.
pub(crate) fn table_walk(
    topo: &Topology,
    ft: &ForwardingTables,
    src: PnId,
    dst: PnId,
    slot: u64,
) -> Result<Vec<DirectedLinkId>, (Vec<DirectedLinkId>, Diagnostic)> {
    let mut node = NodeId::pn(src);
    let mut links = Vec::new();
    let mut port = ft.injection_port(dst, slot) as u32;
    let limit = 2 * topo.height() + 2;
    for _ in 0..limit {
        let link = topo.link_from_port(node, port);
        links.push(link);
        node = topo.endpoints(link).to;
        if node == NodeId::pn(dst) {
            return Ok(links);
        }
        if node.level == 0 {
            let diag = Diagnostic::error(
                RuleId::LftWalk,
                format!(
                    "LFT walk ({}, {}) slot {slot} ejected at the wrong PN {}",
                    src.0, dst.0, node.rank
                ),
                Witness::Slot { src, dst, slot },
            );
            return Err((links, diag));
        }
        port = ft.lookup(node, dst, slot) as u32;
    }
    let diag = Diagnostic::error(
        RuleId::LftWalk,
        format!(
            "LFT walk ({}, {}) slot {slot} did not terminate within {limit} hops \
             (forwarding loop)",
            src.0, dst.0
        ),
        Witness::Slot { src, dst, slot },
    );
    Err((links, diag))
}

/// Identify which canonical path a link walk realizes, if it has the
/// shortest up\*/down\* shape; `None` otherwise.
fn identify_path(topo: &Topology, s: PnId, d: PnId, links: &[DirectedLinkId]) -> Option<PathId> {
    let kappa = topo.nca_level(s, d);
    if links.len() != 2 * kappa {
        return None;
    }
    let mut ports = [0u32; MAX_HEIGHT];
    for (i, &l) in links.iter().enumerate() {
        let e = topo.endpoints(l);
        if i < kappa {
            if e.dir != LinkDir::Up || e.level as usize != i + 1 {
                return None;
            }
            ports[i] = e.from_port;
        } else if e.dir != LinkDir::Down || e.level as usize != 2 * kappa - i {
            return None;
        }
    }
    Some(topo.path_from_up_ports(s, d, &ports[..kappa]))
}

/// The path a slot's shift vector *specifies* for a pair: up-port
/// `(u_t(d) + c_t) mod w_t` at each level `t ≤ κ` — the contract
/// documented in [`lmpr_core::forwarding`].
fn specified_path(
    topo: &Topology,
    d: PnId,
    kappa: usize,
    shift: &lmpr_core::forwarding::ShiftVector,
) -> PathId {
    let x = topo.w_prod(kappa);
    let mut p = 0u64;
    for t in 1..=kappa {
        let w = topo.spec().w_at(t) as u64;
        let u = (d.0 as u64 / topo.w_prod(t - 1)) % w;
        let shifted = (u + shift.at(t) as u64) % w;
        p += shifted * (x / topo.w_prod(t));
    }
    PathId(p)
}

/// Audit a complete [`ForwardingTables`] build: walk every
/// `(src, dst, slot)`, prove realization ≡ specification, slot-0 ≡
/// d-mod-k, and (at full budget) slot-bijectivity over every pair's
/// path space.
pub fn check_tables(topo: &Topology, ft: &ForwardingTables, order: SlotOrder, report: &mut Report) {
    let k = ft.k();
    let vectors = shift_vectors(topo, k, order);
    let k_eff = vectors.len() as u64;
    let full_budget = k_eff == topo.w_prod(topo.height());
    let n = topo.num_pns();
    let mut walks = 0u64;
    let before = report.findings.len();
    let mut biject_findings: Vec<Diagnostic> = Vec::new();
    let mut slot0_findings: Vec<Diagnostic> = Vec::new();
    // BTreeMap, not HashMap: the multiplicity summary below is embedded
    // verbatim in diagnostic messages, and every serialized surface must
    // iterate in a deterministic order.
    let mut counts: BTreeMap<u64, u64> = BTreeMap::new();
    for s in 0..n {
        for d in 0..n {
            if s == d {
                continue;
            }
            let (s, d) = (PnId(s), PnId(d));
            let kappa = topo.nca_level(s, d);
            let x = topo.num_paths(s, d);
            counts.clear();
            for slot in 0..k {
                walks += 1;
                let links = match table_walk(topo, ft, s, d, slot) {
                    Ok(l) => l,
                    Err((_, diag)) => {
                        report.findings.push(diag);
                        continue;
                    }
                };
                let Some(realized) = identify_path(topo, s, d, &links) else {
                    report.findings.push(Diagnostic::error(
                        RuleId::CoverageUpDown,
                        format!(
                            "LFT walk ({}, {}) slot {slot} is not a shortest \
                             up*/down* route",
                            s.0, d.0
                        ),
                        Witness::Slot {
                            src: s,
                            dst: d,
                            slot,
                        },
                    ));
                    continue;
                };
                let spec = specified_path(topo, d, kappa, &vectors[(slot % k_eff) as usize]);
                if realized != spec {
                    biject_findings.push(Diagnostic::error(
                        RuleId::LftBijection,
                        format!(
                            "LFT walk ({}, {}) slot {slot} realized path {} but the \
                             slot's shift vector specifies path {}",
                            s.0, d.0, realized.0, spec.0
                        ),
                        Witness::Slot {
                            src: s,
                            dst: d,
                            slot,
                        },
                    ));
                }
                if slot == 0 && realized != topo.dmodk_path(s, d) {
                    slot0_findings.push(Diagnostic::error(
                        RuleId::LftSlotZero,
                        format!(
                            "pair ({}, {}): slot 0 realized path {} instead of the \
                             d-mod-k path {}",
                            s.0,
                            d.0,
                            realized.0,
                            topo.dmodk_path(s, d).0
                        ),
                        Witness::Slot {
                            src: s,
                            dst: d,
                            slot: 0,
                        },
                    ));
                }
                *counts.entry(realized.0).or_insert(0) += 1;
            }
            if full_budget {
                // Bijectivity over the pair's path space: every path
                // realized exactly X_topo / X_pair times.
                let want = k_eff / x;
                let balanced = counts.len() as u64 == x && counts.values().all(|&c| c == want);
                if !balanced {
                    biject_findings.push(Diagnostic::error(
                        RuleId::LftBijection,
                        format!(
                            "pair ({}, {}): full-budget slots realize {} of {x} paths \
                             with multiplicities {:?}; expected all {x} paths exactly \
                             {want} times",
                            s.0,
                            d.0,
                            counts.len(),
                            {
                                let mut v: Vec<u64> = counts.values().copied().collect();
                                v.sort_unstable();
                                v
                            }
                        ),
                        Witness::Pair { src: s, dst: d },
                    ));
                }
            }
        }
    }
    report.record(RuleId::LftWalk, walks, before);
    let b = report.findings.len();
    report.findings.append(&mut biject_findings);
    report.record(RuleId::LftBijection, walks, b);
    let b = report.findings.len();
    report.findings.append(&mut slot0_findings);
    report.record(RuleId::LftSlotZero, (n as u64) * (n as u64 - 1), b);
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmpr_core::{DModK, Disjoint, RandomK, ShiftOne, Umulti};
    use xgft::XgftSpec;

    fn fig3() -> Topology {
        Topology::new(XgftSpec::new(&[4, 4, 4], &[1, 2, 4]).expect("valid spec"))
    }

    fn asym() -> Topology {
        Topology::new(XgftSpec::new(&[3, 2, 2], &[2, 2, 3]).expect("valid spec"))
    }

    #[test]
    fn heuristics_certify_on_symmetric_and_asymmetric() {
        for topo in [fig3(), asym()] {
            for k in [1u64, 2, 5] {
                for r in [
                    Box::new(ShiftOne::new(k)) as Box<dyn Router>,
                    Box::new(Disjoint::new(k)),
                    Box::new(RandomK::new(k, 3)),
                ] {
                    let mut report = Report::new("t", r.name());
                    check_router_coverage(&topo, r.as_ref(), Budget::Limited(k), &mut report);
                    assert!(report.certified(), "{}: {:?}", r.name(), report.findings);
                }
            }
            let mut report = Report::new("t", "umulti");
            check_router_coverage(&topo, &Umulti, Budget::Unlimited, &mut report);
            assert!(report.certified());
        }
    }

    #[test]
    fn wrong_budget_is_flagged() {
        // Claim K = 3 while the router selects 2: every far pair trips
        // the cardinality rule.
        let topo = fig3();
        let mut report = Report::new("t", "s");
        check_router_coverage(&topo, &ShiftOne::new(2), Budget::Limited(3), &mut report);
        assert!(!report.certified());
        assert!(report
            .findings
            .iter()
            .all(|d| d.rule == RuleId::CoverageCount));
    }

    /// A broken router for negative tests: duplicates its d-mod-k path.
    struct DupRouter;
    impl Router for DupRouter {
        fn fill_paths(&self, topo: &Topology, s: PnId, d: PnId, out: &mut Vec<PathId>) {
            out.clear();
            let p = topo.dmodk_path(s, d);
            out.push(p);
            out.push(p);
        }
        fn name(&self) -> String {
            "dup".into()
        }
    }

    /// A broken router emitting out-of-range ids.
    struct RangeRouter;
    impl Router for RangeRouter {
        fn fill_paths(&self, topo: &Topology, s: PnId, d: PnId, out: &mut Vec<PathId>) {
            out.clear();
            out.push(PathId(topo.num_paths(s, d) + 7));
        }
        fn name(&self) -> String {
            "range".into()
        }
    }

    #[test]
    fn duplicates_and_out_of_range_are_flagged() {
        let topo = fig3();
        let mut report = Report::new("t", "dup");
        check_router_coverage(&topo, &DupRouter, Budget::Limited(2), &mut report);
        assert!(report
            .findings
            .iter()
            .any(|d| d.rule == RuleId::CoverageDuplicate));

        let mut report = Report::new("t", "range");
        check_router_coverage(&topo, &RangeRouter, Budget::Limited(1), &mut report);
        assert!(report
            .findings
            .iter()
            .any(|d| d.rule == RuleId::CoverageRange));
        // The walk-based shape check never ran on the bad id (it would
        // assert); the range finding stands alone.
        assert!(report
            .findings
            .iter()
            .all(|d| d.rule != RuleId::CoverageUpDown));
    }

    #[test]
    fn degraded_coverage_certifies_and_detects_disconnection() {
        let topo = fig3();
        let mut faults = FaultSet::new();
        faults.fail_link(topo.up_link(1, 0, 0)); // cuts PN 0 off entirely
        let mut report = Report::new("t", "disjoint(4)+faults");
        check_degraded_coverage(
            &topo,
            Disjoint::new(4),
            &faults,
            Budget::Limited(4),
            EpochScope::Full,
            &mut report,
        );
        assert!(report.certified(), "{:?}", report.findings);
        let pairs = (topo.num_pns() as u64) * (topo.num_pns() as u64 - 1);
        assert_eq!(report.checks[0].inspected, pairs);
    }

    #[test]
    fn tables_certify_for_both_orders_and_budgets() {
        for topo in [fig3(), asym()] {
            let full = topo.w_prod(topo.height());
            for order in [SlotOrder::BottomFirst, SlotOrder::TopFirst] {
                for k in [1u64, 2, full] {
                    let ft = ForwardingTables::build(&topo, k, order);
                    let mut report = Report::new("t", format!("{order:?}({k})"));
                    check_tables(&topo, &ft, order, &mut report);
                    assert!(report.certified(), "{order:?} k={k}: {:?}", report.findings);
                }
            }
        }
    }

    #[test]
    fn wrong_order_specification_is_detected() {
        // Audit BottomFirst-built tables against the TopFirst spec: the
        // realization ≡ specification rule must fire (on any topology
        // where the two orders differ).
        let topo = fig3();
        let ft = ForwardingTables::build(&topo, 4, SlotOrder::BottomFirst);
        let mut report = Report::new("t", "mismatch");
        check_tables(&topo, &ft, SlotOrder::TopFirst, &mut report);
        assert!(report
            .findings
            .iter()
            .any(|d| d.rule == RuleId::LftBijection));
    }

    #[test]
    fn identify_path_roundtrips_the_enumeration() {
        let topo = asym();
        let (s, d) = (PnId(0), PnId(topo.num_pns() - 1));
        for p in topo.all_paths(s, d) {
            let mut links = Vec::new();
            topo.walk_path(s, d, p, |l| links.push(l));
            assert_eq!(identify_path(&topo, s, d, &links), Some(p));
        }
    }

    #[test]
    fn budget_expectations() {
        assert_eq!(Budget::Limited(3).expected(8), 3);
        assert_eq!(Budget::Limited(9).expected(8), 8);
        assert_eq!(Budget::Unlimited.expected(8), 8);
    }

    #[test]
    fn dmodk_router_is_budget_one() {
        let topo = asym();
        let mut report = Report::new("t", "d-mod-k");
        check_router_coverage(&topo, &DModK, Budget::Limited(1), &mut report);
        assert!(report.certified());
        // Check runs recorded coverage ground.
        let pairs = (topo.num_pns() as u64) * (topo.num_pns() as u64 - 1);
        assert_eq!(report.checks[0].inspected, pairs);
    }
}
