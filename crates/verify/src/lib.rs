//! Static routing-correctness analysis for limited multi-path routing
//! on extended generalized fat-trees.
//!
//! The analyzer proves (or refutes, with a minimal witness) three
//! families of properties about routing *artifacts* — router selections,
//! forwarding tables, degraded fault-mode selections — without running a
//! single simulated cycle:
//!
//! 1. **Deadlock freedom** ([`cdg`]): the channel-dependency graph over
//!    [`xgft::DirectedLinkId`] is acyclic (Dally–Seitz). A cycle is
//!    reported as a minimal counterexample (rule `CDG-CYCLE`).
//! 2. **K-coverage** ([`coverage`]): every SD pair yields exactly
//!    `min(K, X)` distinct, in-range, loop-free up\*/down\* shortest
//!    paths through the pair's NCA level — and for LFT realizations,
//!    every `(dst, slot)` table walk matches the slot's shift-vector
//!    specification, slot 0 is plain d-mod-k, and at full budget the
//!    slots cover every pair's path space bijectively.
//! 3. **Disjointness & load bounds** ([`disjointness`]): the `disjoint`
//!    heuristic's fork-low guarantees hold, and static worst-case
//!    per-link loads respect Lemma 1 / Theorem 1 / Theorem 2.
//!
//! All findings are structured [`Diagnostic`]s with severity, stable
//! rule id and a machine-checkable witness; a clean [`Report`] is the
//! certificate. The call sites are the `lmpr-bench` `verify` binary
//! and the `ctld` controller's epoch certificates.
//!
//! # Example
//!
//! ```
//! use lmpr_core::RouterKind;
//! use lmpr_verify::verify_router_kind;
//! use xgft::{Topology, XgftSpec};
//!
//! let topo = Topology::new(XgftSpec::new(&[4, 4, 4], &[1, 2, 4]).unwrap());
//! let report = verify_router_kind(&topo, "fig3", RouterKind::Disjoint(4), None);
//! assert!(report.certified());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cdg;
pub mod coverage;
mod diag;
pub mod disjointness;

pub use cdg::Cdg;
pub use coverage::{check_degraded_coverage, check_router_coverage, check_tables, Budget};
pub use diag::{CheckRun, Diagnostic, Report, RuleId, Severity, Witness};
pub use disjointness::{check_disjoint_fork, check_load_bounds};

use lmpr_core::forwarding::{ForwardingTables, SlotOrder};
use lmpr_core::{Disjoint, Router, RouterKind, SelectionEngine};
use xgft::{BlastRadius, FaultChange, FaultSet, PnId, Topology};

/// Expected per-pair cardinality for a [`RouterKind`].
fn budget_of(kind: RouterKind) -> Budget {
    match kind.budget() {
        Some(k) => Budget::Limited(k),
        None => Budget::Unlimited,
    }
}

/// Run the full analysis for one routing scheme on one topology:
/// deadlock freedom, K-coverage, and (scheme-permitting) disjointness
/// and load-bound cross-checks. Pass a fault set to verify the degraded
/// mode instead (the scheme routed through a [`SelectionEngine`] over
/// that fault set, mirroring a subnet manager re-selecting around
/// failures): the full-scope [`certify_epoch`].
pub fn verify_router_kind(
    topo: &Topology,
    topology_label: &str,
    kind: RouterKind,
    faults: Option<&FaultSet>,
) -> Report {
    let budget = budget_of(kind);
    match faults {
        None => {
            let mut report = Report::new(topology_label, kind.name());
            let cdg = Cdg::from_router(topo, &kind, None);
            let before = report.findings.len();
            if let Some(diag) = cdg.deadlock_finding(topo) {
                report.findings.push(diag);
            }
            report.record(RuleId::CdgCycle, cdg.num_edges(), before);
            check_router_coverage(topo, &kind, budget, &mut report);
            if let RouterKind::Disjoint(k) = kind {
                check_disjoint_fork(topo, &Disjoint::new(k), &mut report);
            }
            check_load_bounds(topo, &kind, budget, &mut report);
            report
        }
        Some(f) => certify_epoch(topo, topology_label, kind, f, EpochScope::Full),
    }
}

/// How much of the pair space an epoch certificate must re-audit.
///
/// The routing controller certifies every epoch before activating it.
/// Epoch 0 (and any recovery-from-scratch epoch) uses [`EpochScope::Full`]:
/// the complete degraded-mode analysis, CDG cycle check included. Later
/// epochs use [`EpochScope::Pairs`] with the **topology-derived blast
/// radius** of the fault change batch — [`change_blast_radius`], every
/// pair whose canonical path space touches a changed element — which is
/// sound because degraded selections are always a *subset* of the
/// pair's canonical up\*/down\* path enumeration: the canonical CDG is
/// acyclic by level stratification and removing routes cannot introduce
/// a dependency edge, so the full-scope CDG certificate from epoch 0 is
/// inherited structurally and only the touched pairs' coverage needs
/// re-proof. The scope must come from the topology, never from cache
/// contents: a selection cache under-approximates the blast radius
/// whenever an affected pair was not cached (cold start, post-rollback
/// rebuild, or simply never queried), and an under-scoped — worst case
/// empty — audit certifies trivially.
#[derive(Debug, Clone, Copy)]
pub enum EpochScope<'a> {
    /// Re-audit everything: CDG acyclicity plus coverage on all pairs.
    Full,
    /// Re-audit coverage on exactly these SD pairs, inheriting the CDG
    /// certificate from the last full-scope epoch.
    Pairs(&'a [(PnId, PnId)]),
}

/// Produce the activation certificate for one controller epoch: the
/// degraded routing state `(kind, faults)` on `topo`, audited at the
/// given [`EpochScope`]. A certified report is the precondition for the
/// controller to publish the epoch; an uncertified one flips the
/// controller into degraded mode.
///
/// Both scopes run [`check_degraded_coverage`] on `(kind, faults)`. Full
/// scope first proves the CDG of the degraded selections acyclic; scoped
/// mode audits the blast radius only and records a `CTL-CERT` check run
/// documenting the inherited CDG certificate (inspected = number of
/// scoped pairs).
pub fn certify_epoch(
    topo: &Topology,
    topology_label: &str,
    kind: RouterKind,
    faults: &FaultSet,
    scope: EpochScope<'_>,
) -> Report {
    let mut report = Report::new(topology_label, degraded_name(kind, faults));
    let before = report.findings.len();
    if let EpochScope::Full = scope {
        let degraded = SelectionEngine::with_view(kind, faults.clone());
        let cdg = Cdg::from_router(topo, &degraded, Some(faults));
        if let Some(diag) = cdg.deadlock_finding(topo) {
            report.findings.push(diag);
        }
        report.record(RuleId::CdgCycle, cdg.num_edges(), before);
    }
    check_degraded_coverage(topo, kind, faults, budget_of(kind), scope, &mut report);
    if let EpochScope::Pairs(pairs) = scope {
        report.record(RuleId::CtlCertificate, pairs.len() as u64, before);
    }
    report
}

/// The scheme label of `kind` degraded under `faults`: the name its
/// [`SelectionEngine`] reports, without building one.
fn degraded_name(kind: RouterKind, faults: &FaultSet) -> String {
    if faults.is_empty() {
        kind.name()
    } else {
        format!("{}+faults", kind.name())
    }
}

/// The ordered SD pairs whose canonical up\*/down\* path space touches
/// any element named by `changes` — the certification scope of one
/// reconvergence, derived from the topology alone: the pairs of the
/// batch's [`BlastRadius`] (which documents the geometry), each exactly
/// once, in lexicographic order. Up and down *events* contribute
/// identically: a pair's selection is a pure function of the survival
/// bits of its canonical enumeration, so any pair whose space contains
/// a changed element may select differently and must be re-audited,
/// while a pair outside every changed element's region cannot change.
///
/// Unlike a scope harvested from selection-cache flushes, this set does
/// not depend on what happened to be cached — a cold cache yields the
/// same, complete, audit scope.
pub fn change_blast_radius(topo: &Topology, changes: &[FaultChange]) -> Vec<(PnId, PnId)> {
    BlastRadius::of_changes(topo, changes).pairs()
}

/// Run the full analysis for an LFT realization: build the tables for
/// `(k, order)`, prove the induced channel-dependency graph acyclic, and
/// audit every table walk against the shift-vector specification.
pub fn verify_tables(topo: &Topology, topology_label: &str, k: u64, order: SlotOrder) -> Report {
    let ft = ForwardingTables::build(topo, k, order);
    let mut report = Report::new(topology_label, format!("lft-{order:?}({k})"));
    let cdg = Cdg::from_tables(topo, &ft);
    let before = report.findings.len();
    if let Some(diag) = cdg.deadlock_finding(topo) {
        report.findings.push(diag);
    }
    report.record(RuleId::CdgCycle, cdg.num_edges(), before);
    check_tables(topo, &ft, order, &mut report);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use xgft::{NodeId, XgftSpec};

    fn fig3() -> Topology {
        Topology::new(XgftSpec::new(&[4, 4, 4], &[1, 2, 4]).expect("valid spec"))
    }

    #[test]
    fn end_to_end_certificates() {
        let topo = fig3();
        for kind in [
            RouterKind::DModK,
            RouterKind::ShiftOne(2),
            RouterKind::Disjoint(2),
            RouterKind::RandomK(2, 7),
            RouterKind::Umulti,
        ] {
            let report = verify_router_kind(&topo, "fig3", kind, None);
            assert!(report.certified(), "{}: {:?}", kind.name(), report.findings);
            assert!(!report.checks.is_empty());
        }
    }

    #[test]
    fn degraded_mode_certificate() {
        let topo = fig3();
        let mut faults = FaultSet::new();
        faults.fail_switch(&topo, NodeId { level: 3, rank: 1 });
        let report = verify_router_kind(&topo, "fig3", RouterKind::Disjoint(4), Some(&faults));
        assert!(report.certified(), "{:?}", report.findings);
        assert!(report.scheme.contains("+faults"));
    }

    #[test]
    fn scoped_epoch_certificate_matches_full_on_the_blast_radius() {
        let topo = fig3();
        let mut faults = FaultSet::new();
        faults.fail_switch(&topo, NodeId { level: 3, rank: 1 });

        let full = certify_epoch(
            &topo,
            "fig3",
            RouterKind::Disjoint(4),
            &faults,
            EpochScope::Full,
        );
        assert!(full.certified(), "{:?}", full.findings);

        // Scope to a handful of pairs (including a self-pair, which must
        // be skipped, and a duplicate, which must be harmless).
        let pairs = [
            (PnId(0), PnId(63)),
            (PnId(5), PnId(5)),
            (PnId(0), PnId(63)),
            (PnId(17), PnId(2)),
        ];
        let scoped = certify_epoch(
            &topo,
            "fig3",
            RouterKind::Disjoint(4),
            &faults,
            EpochScope::Pairs(&pairs),
        );
        assert!(scoped.certified(), "{:?}", scoped.findings);
        let ctl = scoped
            .checks
            .iter()
            .find(|c| c.rule == RuleId::CtlCertificate)
            .expect("scoped certificate records a CTL-CERT check run");
        assert_eq!(ctl.inspected, pairs.len() as u64);
        assert_eq!(ctl.findings, 0);
    }

    #[test]
    fn scoped_coverage_flags_a_broken_router() {
        // A router that silently drops paths: coverage on the scoped
        // pairs must refute the certificate.
        struct HalfBudget;
        impl Router for HalfBudget {
            fn fill_paths(&self, topo: &Topology, s: PnId, d: PnId, out: &mut Vec<xgft::PathId>) {
                RouterKind::Disjoint(4).fill_paths(topo, s, d, out);
                out.truncate(out.len() / 2);
            }
            fn name(&self) -> String {
                "half-budget".to_owned()
            }
        }
        let topo = fig3();
        let mut report = Report::new("fig3", "half-budget");
        let pairs = [(PnId(0), PnId(63))];
        check_degraded_coverage(
            &topo,
            HalfBudget,
            &FaultSet::new(),
            Budget::Limited(4),
            EpochScope::Pairs(&pairs),
            &mut report,
        );
        assert!(!report.certified());
        assert!(report
            .findings
            .iter()
            .any(|d| d.rule == RuleId::CoverageCount));
    }

    /// Every ordered pair, self-pairs included (both scopes skip them).
    fn every_pair(topo: &Topology) -> Vec<(PnId, PnId)> {
        let n = topo.num_pns();
        (0..n)
            .flat_map(|s| (0..n).map(move |d| (PnId(s), PnId(d))))
            .collect()
    }

    /// The `COV-*` findings and check runs of a report.
    fn coverage_part(report: &Report) -> (Vec<Diagnostic>, Vec<CheckRun>) {
        let cov = |rule: RuleId| rule.as_str().starts_with("COV-");
        let findings = report.findings.iter().filter(|f| cov(f.rule));
        let checks = report.checks.iter().filter(|c| cov(c.rule));
        (findings.cloned().collect(), checks.cloned().collect())
    }

    /// A scoped certificate counts a pair's survivors off the survivor
    /// structure, a full one by walking every path. Over the whole pair
    /// matrix the two must agree on every coverage finding and count.
    #[test]
    fn a_scope_of_every_pair_certifies_as_the_full_scope_does() {
        let specs = [
            XgftSpec::new(&[4, 4, 4], &[1, 2, 4]).expect("fig3"),
            XgftSpec::new(&[3, 2, 2], &[2, 2, 3]).expect("asymmetric"),
            XgftSpec::new(&[2, 3, 2], &[2, 1, 3]).expect("asymmetric, w_2 = 1"),
        ];
        for spec in specs {
            let topo = Topology::new(spec);
            let pairs = every_pair(&topo);
            let mut switch_down = FaultSet::new();
            switch_down.fail_switch(&topo, NodeId { level: 2, rank: 1 });
            for faults in [
                FaultSet::sample(&topo, 0.05, 0.0, 3),
                FaultSet::sample(&topo, 0.2, 0.1, 5),
                switch_down,
            ] {
                for kind in [
                    RouterKind::DModK,
                    RouterKind::ShiftOne(3),
                    RouterKind::Disjoint(4),
                    RouterKind::RandomK(2, 7),
                    RouterKind::Umulti,
                ] {
                    let full = certify_epoch(&topo, "t", kind, &faults, EpochScope::Full);
                    let scoped =
                        certify_epoch(&topo, "t", kind, &faults, EpochScope::Pairs(&pairs));
                    assert_eq!(coverage_part(&full), coverage_part(&scoped), "{kind:?}");
                    assert!(full.certified(), "{kind:?}: {:?}", full.findings);
                }
            }
        }
    }

    #[test]
    fn dropping_a_surviving_path_is_refuted_in_both_scopes() {
        struct DropsOne;
        impl Router for DropsOne {
            fn fill_paths(&self, topo: &Topology, s: PnId, d: PnId, out: &mut Vec<xgft::PathId>) {
                RouterKind::Disjoint(4).fill_paths(topo, s, d, out);
                if out.len() > 1 {
                    out.pop();
                }
            }
            fn name(&self) -> String {
                "drops-one".to_owned()
            }
        }
        let topo = fig3();
        let faults = FaultSet::sample(&topo, 0.05, 0.0, 3);
        let pairs = every_pair(&topo);
        let mut reports = Vec::new();
        for scope in [EpochScope::Full, EpochScope::Pairs(&pairs)] {
            let mut report = Report::new("fig3", "drops-one");
            check_degraded_coverage(
                &topo,
                DropsOne,
                &faults,
                Budget::Limited(4),
                scope,
                &mut report,
            );
            assert!(report
                .findings
                .iter()
                .any(|d| d.rule == RuleId::CoverageCount));
            reports.push(coverage_part(&report));
        }
        assert_eq!(reports[0], reports[1]);
    }

    /// A broken router whose certificate interleaves findings of two
    /// rules, so their order matters: it drops a path on a third of the
    /// pairs (`COV-COUNT`) and repeats one on another third (`COV-DUP`).
    struct DropsOrRepeats;
    impl Router for DropsOrRepeats {
        fn fill_paths(&self, topo: &Topology, s: PnId, d: PnId, out: &mut Vec<xgft::PathId>) {
            RouterKind::Disjoint(4).fill_paths(topo, s, d, out);
            match (s.0 + d.0) % 3 {
                0 if out.len() > 1 => {
                    out.pop();
                }
                1 => out.push(out[0]),
                _ => {}
            }
        }
        fn name(&self) -> String {
            "drops-or-repeats".to_owned()
        }
    }

    #[test]
    fn sharded_certificates_are_byte_identical() {
        let topo = fig3();
        let faults = FaultSet::sample(&topo, 0.05, 0.05, 9);
        let pairs = every_pair(&topo);
        let few = &pairs[60..64];
        // At full scope and on the short list the last count exceeds
        // the source rows or pair entries: the surplus gets no shard.
        let rows = topo.num_pns() as usize;
        for (scope, most) in [
            (EpochScope::Full, rows + 3),
            (EpochScope::Pairs(&pairs), 5),
            (EpochScope::Pairs(few), few.len() + 3),
        ] {
            let run = |workers: usize| {
                let mut report = Report::new("fig3", "drops-or-repeats");
                coverage::audit_degraded(
                    &topo,
                    &DropsOrRepeats,
                    &faults,
                    Budget::Limited(4),
                    scope,
                    workers,
                    &mut report,
                );
                report
            };
            let one = run(1);
            let found = |rule: RuleId| one.findings.iter().any(|f| f.rule == rule);
            assert!(found(RuleId::CoverageCount) && found(RuleId::CoverageDuplicate));
            for workers in [2, 3, 5, most] {
                let many = run(workers);
                assert_eq!(many.to_json(), one.to_json(), "{workers} workers");
                assert_eq!(many.checks, one.checks, "{workers} workers");
            }
        }
    }

    #[test]
    fn degraded_name_is_the_engine_name() {
        let topo = fig3();
        for faults in [FaultSet::new(), FaultSet::sample(&topo, 0.05, 0.0, 3)] {
            for kind in [
                RouterKind::DModK,
                RouterKind::Disjoint(4),
                RouterKind::Umulti,
            ] {
                let engine = SelectionEngine::with_view(kind, faults.clone());
                assert_eq!(degraded_name(kind, &faults), engine.name());
            }
        }
    }

    /// The ground truth `change_blast_radius` must reproduce: a pair is
    /// affected iff some canonical path crosses a changed element.
    fn brute_blast_radius(topo: &Topology, changes: &[FaultChange]) -> Vec<(PnId, PnId)> {
        let mut touched = FaultSet::new();
        for change in changes {
            match *change {
                FaultChange::LinkDown(l) | FaultChange::LinkUp(l) => touched.fail_link(l),
                FaultChange::SwitchDown(n) | FaultChange::SwitchUp(n) => {
                    touched.fail_switch(topo, n)
                }
            }
        }
        let n = topo.num_pns();
        let mut pairs = Vec::new();
        for s in 0..n {
            for d in 0..n {
                if s == d {
                    continue;
                }
                let (s, d) = (PnId(s), PnId(d));
                if topo
                    .all_paths(s, d)
                    .any(|p| !touched.path_survives(topo, s, d, p))
                {
                    pairs.push((s, d));
                }
            }
        }
        pairs
    }

    #[test]
    fn change_blast_radius_matches_the_canonical_path_definition() {
        use xgft::DirectedLinkId;
        let specs = [
            XgftSpec::new(&[4, 4, 4], &[1, 2, 4]).expect("fig3"),
            XgftSpec::new(&[4, 8], &[1, 4]).expect("8-port 2-tree"),
            XgftSpec::new(&[2, 3, 2], &[2, 1, 3]).expect("asymmetric"),
        ];
        for spec in specs {
            let topo = Topology::new(spec);
            let num_links = topo.num_links();
            // One link per level and direction (first and last id of
            // each kind), every switch level, and a mixed batch.
            let mut cases: Vec<Vec<FaultChange>> = vec![Vec::new()];
            for id in [0, num_links / 3, num_links / 2, num_links - 1] {
                cases.push(vec![FaultChange::LinkDown(DirectedLinkId(id))]);
                cases.push(vec![FaultChange::LinkUp(DirectedLinkId(id))]);
            }
            for level in 1..=topo.height() {
                let node = NodeId {
                    level: level as u8,
                    rank: 0,
                };
                cases.push(vec![FaultChange::SwitchDown(node)]);
                cases.push(vec![FaultChange::SwitchUp(node)]);
            }
            cases.push(vec![
                FaultChange::LinkDown(DirectedLinkId(0)),
                FaultChange::SwitchDown(NodeId {
                    level: topo.height() as u8,
                    rank: 0,
                }),
                FaultChange::LinkUp(DirectedLinkId(num_links - 1)),
            ]);
            for changes in &cases {
                assert_eq!(
                    change_blast_radius(&topo, changes),
                    brute_blast_radius(&topo, changes),
                    "scope mismatch for {changes:?} on {:?}",
                    topo.spec()
                );
            }
        }
    }

    #[test]
    fn lft_certificates() {
        let topo = fig3();
        for order in [SlotOrder::BottomFirst, SlotOrder::TopFirst] {
            let report = verify_tables(&topo, "fig3", 4, order);
            assert!(report.certified(), "{order:?}: {:?}", report.findings);
        }
    }

    #[test]
    fn report_json_has_the_catalog_fields() {
        let topo = fig3();
        let report = verify_router_kind(&topo, "fig3", RouterKind::DModK, None);
        let j = report.to_json();
        assert!(j.contains("\"certified\": true"));
        assert!(j.contains("CDG-CYCLE"));
        assert!(j.contains("COV-COUNT"));
    }
}
