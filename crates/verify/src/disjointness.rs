//! Disjointness certification and static load-bound cross-checks.
//!
//! * [`check_disjoint_fork`] certifies the `disjoint` heuristic's
//!   defining structural guarantees for every SD pair: the first
//!   `min(K, w_1)` selections are pairwise *link*-disjoint, and more
//!   generally the first `min(K, Π_{i≤t} w_i)` selections carry
//!   pairwise-distinct `(u_1, …, u_t)` up-port prefixes — i.e. the
//!   selection forks as low in the tree as the budget allows.
//! * [`check_load_bounds`] computes static worst-case per-link loads
//!   (flow-level, no simulated cycles) and cross-checks them against the
//!   paper's theorems: every measured performance ratio must respect the
//!   Lemma 1 lower bound (`ratio ≥ 1`), UMULTI must *achieve* it
//!   (Theorem 1, `ratio = 1`), every shortest-path scheme stays within
//!   the `Π w_i` concentration cap, and on the Theorem 2 adversarial
//!   pattern the measured d-mod-k ratio must equal the analytic `Π w_i`.

use crate::coverage::Budget;
use crate::{Diagnostic, Report, RuleId, Witness};
use lmpr_core::{DModK, Disjoint, Router};
use lmpr_flowsim::performance_ratio;
use lmpr_traffic::{adversarial_concentration, random_permutation, TrafficMatrix};
use std::collections::HashSet;
use xgft::{PnId, Topology, MAX_HEIGHT};

/// Numerical tolerance for the flow-level load comparisons.
const EPS: f64 = 1e-9;

/// Certify the fork-low structure of a [`Disjoint`] selection on every
/// SD pair.
pub fn check_disjoint_fork(topo: &Topology, router: &Disjoint, report: &mut Report) {
    let n = topo.num_pns();
    let mut paths = Vec::new();
    let mut pairs = 0u64;
    let before = report.findings.len();
    let mut ports = [0u32; MAX_HEIGHT];
    for s in 0..n {
        for d in 0..n {
            if s == d {
                continue;
            }
            pairs += 1;
            let (s, d) = (PnId(s), PnId(d));
            router.fill_paths(topo, s, d, &mut paths);
            let kappa = topo.nca_level(s, d);
            // Up-port choices per selection, in selection order.
            let choices: Vec<Vec<u32>> = paths
                .iter()
                .map(|&p| {
                    let k = topo.path_up_ports(s, d, p, &mut ports);
                    ports[..k].to_vec()
                })
                .collect();
            // Prefix distinctness at every level: the first
            // min(|sel|, Π_{i≤t} w_i) selections use every (u_1..u_t)
            // combination at most once.
            for t in 1..=kappa {
                let group = (topo.w_prod(t) as usize).min(choices.len());
                let mut seen = HashSet::new();
                if !choices[..group].iter().all(|c| seen.insert(&c[..t])) {
                    report.findings.push(Diagnostic::error(
                        RuleId::DisjointFork,
                        format!(
                            "pair ({}, {}): the first {group} disjoint selections repeat \
                             a level-{t} up-port prefix — the selection does not fork at \
                             level {t} or below",
                            s.0, d.0
                        ),
                        Witness::Pair { src: s, dst: d },
                    ));
                    break;
                }
            }
            // Full link-disjointness of the first min(|sel|, w_1) paths.
            if kappa >= 1 {
                let group = (topo.spec().w_at(1) as usize).min(paths.len());
                let mut seen_links = HashSet::new();
                let mut clash = false;
                let walk = topo.pair_walk(s, d);
                for &p in &paths[..group] {
                    walk.walk(p, |l| {
                        clash |= !seen_links.insert(l);
                    });
                }
                if clash {
                    report.findings.push(Diagnostic::error(
                        RuleId::DisjointFork,
                        format!(
                            "pair ({}, {}): the first {group} disjoint selections share a \
                             directed link — the w_1 link-disjointness guarantee failed",
                            s.0, d.0
                        ),
                        Witness::Pair { src: s, dst: d },
                    ));
                }
            }
        }
    }
    report.record(RuleId::DisjointFork, pairs, before);
}

/// Static worst-case load cross-checks for any router against the
/// paper's analytic bounds, over the Theorem 2 adversarial pattern (when
/// the topology hosts it) and a handful of random permutations.
pub fn check_load_bounds<R: Router + ?Sized>(
    topo: &Topology,
    router: &R,
    budget: Budget,
    report: &mut Report,
) {
    let before = report.findings.len();
    let mut patterns: Vec<(String, TrafficMatrix)> = Vec::new();
    let adversarial = adversarial_concentration(topo);
    if let Some(p) = &adversarial {
        patterns.push(("theorem-2 concentration".to_owned(), p.tm.clone()));
    }
    for seed in 0..3u64 {
        patterns.push((
            format!("random permutation (seed {seed})"),
            TrafficMatrix::permutation(&random_permutation(topo.num_pns(), seed)),
        ));
    }
    let cap = topo.w_prod(topo.height()) as f64;
    for (label, tm) in &patterns {
        let ratio = performance_ratio(topo, router, tm);
        if ratio < 1.0 - EPS {
            report.findings.push(Diagnostic::error(
                RuleId::LoadBound,
                format!(
                    "{label}: performance ratio {ratio:.6} is below the Lemma 1 \
                     lower bound of 1 — the static load model is inconsistent"
                ),
                Witness::None,
            ));
        }
        if ratio > cap + EPS {
            report.findings.push(Diagnostic::error(
                RuleId::LoadBound,
                format!(
                    "{label}: performance ratio {ratio:.6} exceeds the Π w_i = {cap} \
                     concentration cap for shortest-path routing"
                ),
                Witness::None,
            ));
        }
        if budget == Budget::Unlimited && (ratio - 1.0).abs() > EPS {
            report.findings.push(Diagnostic::error(
                RuleId::LoadBound,
                format!(
                    "{label}: UMULTI measured ratio {ratio:.6} ≠ 1 — Theorem 1 \
                     (UMULTI achieves the sub-tree-cut bound) is violated"
                ),
                Witness::None,
            ));
        }
    }
    // Self-consistency of the analytic pattern: measured d-mod-k
    // concentration must equal the Theorem 2 prediction exactly.
    if let Some(p) = &adversarial {
        let measured = performance_ratio(topo, &DModK, &p.tm);
        if (measured - p.ratio).abs() > EPS {
            report.findings.push(Diagnostic::error(
                RuleId::LoadBound,
                format!(
                    "theorem-2 concentration: measured d-mod-k ratio {measured:.6} \
                     differs from the analytic Π w_i = {:.6}",
                    p.ratio
                ),
                Witness::None,
            ));
        }
    }
    report.record(RuleId::LoadBound, patterns.len() as u64, before);
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmpr_core::{PathSet, ShiftOne, Umulti};
    use xgft::{PathId, XgftSpec};

    fn wide() -> Topology {
        // w_1 = 2 so the link-disjointness clause has teeth.
        Topology::new(XgftSpec::new(&[2, 2, 2], &[2, 2, 2]).expect("valid spec"))
    }

    #[test]
    fn disjoint_certifies_across_budgets() {
        let topo = wide();
        for k in [1u64, 2, 4, 8] {
            let mut report = Report::new("t", format!("disjoint({k})"));
            check_disjoint_fork(&topo, &Disjoint::new(k), &mut report);
            assert!(report.certified(), "k={k}: {:?}", report.findings);
        }
    }

    #[test]
    fn shift_one_fails_the_fork_low_certificate() {
        // shift-1 spreads at the *top* level: its first two selections
        // repeat the level-1 prefix on full-height pairs, so feeding it
        // through the disjoint certificate must produce findings. (The
        // check takes a Disjoint router by type; emulate the failure by
        // checking the structural property directly on shift-1's sets.)
        let topo = wide();
        // Pair (0, 4): d-mod-k index 1, so shift-1 K=2 selects paths
        // 1 = (0,0,1) and 2 = (0,1,0) — same level-1 up-port. (A pair
        // like (0, 7) would carry through every digit and accidentally
        // fork low.)
        let (s, d) = (PnId(0), PnId(4));
        let set: PathSet = ShiftOne::new(2).path_set(&topo, s, d);
        let mut u = [0u32; MAX_HEIGHT];
        let firsts: HashSet<u32> = set
            .paths()
            .iter()
            .map(|&p| {
                topo.path_up_ports(s, d, p, &mut u);
                u[0]
            })
            .collect();
        assert_eq!(firsts.len(), 1, "shift-1 K=2 shares the level-1 up-port");
    }

    #[test]
    fn corrupted_selection_is_flagged() {
        // A "disjoint" router that actually returns shift-1-style
        // consecutive ids trips the prefix rule. Simulate by checking a
        // Disjoint router against a topology where we tamper: simplest is
        // to run the real check and assert it still accepts, then verify
        // the negative path via the structural helper above. Here, feed a
        // pair-specific bad selection through a tiny shim router.
        struct BadDisjoint;
        impl Router for BadDisjoint {
            fn fill_paths(&self, topo: &Topology, s: PnId, d: PnId, out: &mut Vec<PathId>) {
                // Consecutive ids starting at d-mod-k: forks high.
                out.clear();
                let x = topo.num_paths(s, d);
                let i = topo.dmodk_path(s, d).0;
                for n in 0..2u64.min(x) {
                    out.push(PathId((i + n) % x));
                }
            }
            fn name(&self) -> String {
                "bad".into()
            }
        }
        // The typed entry point takes &Disjoint; exercise the internals
        // by comparing: the bad router's selections violate the property
        // the certificate enforces on at least one pair.
        let topo = wide();
        let mut bad_pairs = 0;
        let mut paths = Vec::new();
        let mut u = [0u32; MAX_HEIGHT];
        for s in 0..topo.num_pns() {
            for d in 0..topo.num_pns() {
                if s == d {
                    continue;
                }
                let (s, d) = (PnId(s), PnId(d));
                BadDisjoint.fill_paths(&topo, s, d, &mut paths);
                if paths.len() < 2 {
                    continue;
                }
                let mut firsts = HashSet::new();
                for &p in &paths {
                    topo.path_up_ports(s, d, p, &mut u);
                    firsts.insert(u[0]);
                }
                if firsts.len() < 2 {
                    bad_pairs += 1;
                }
            }
        }
        assert!(bad_pairs > 0, "consecutive ids must fork high somewhere");
    }

    #[test]
    fn load_bounds_certify_for_heuristics_and_umulti() {
        // A topology that hosts the Theorem 2 pattern.
        let topo = Topology::new(XgftSpec::new(&[4, 16], &[2, 2]).expect("valid spec"));
        for (router, budget) in [
            (Box::new(DModK) as Box<dyn Router>, Budget::Limited(1)),
            (Box::new(Disjoint::new(2)), Budget::Limited(2)),
            (Box::new(Umulti), Budget::Unlimited),
        ] {
            let mut report = Report::new("t", router.name());
            check_load_bounds(&topo, router.as_ref(), budget, &mut report);
            assert!(
                report.certified(),
                "{}: {:?}",
                router.name(),
                report.findings
            );
            assert_eq!(report.checks.last().expect("recorded").inspected, 4);
        }
    }

    #[test]
    fn umulti_claim_on_single_path_router_is_refuted() {
        // Claiming "unlimited" semantics for d-mod-k must trip the
        // Theorem 1 rule on the adversarial pattern (ratio = Π w_i ≠ 1).
        let topo = Topology::new(XgftSpec::new(&[4, 16], &[2, 2]).expect("valid spec"));
        let mut report = Report::new("t", "bogus-umulti");
        check_load_bounds(&topo, &DModK, Budget::Unlimited, &mut report);
        assert!(!report.certified());
        assert!(report.findings.iter().all(|f| f.rule == RuleId::LoadBound));
    }

    #[test]
    fn load_bounds_run_without_the_adversarial_pattern() {
        // fig3's w_1 = 1 tree cannot host the Theorem 2 construction;
        // only the permutations are checked.
        let topo = Topology::new(XgftSpec::new(&[4, 4, 4], &[1, 2, 4]).expect("valid spec"));
        assert!(adversarial_concentration(&topo).is_none());
        let mut report = Report::new("t", "disjoint(4)");
        check_load_bounds(&topo, &Disjoint::new(4), Budget::Limited(4), &mut report);
        assert!(report.certified(), "{:?}", report.findings);
        assert_eq!(report.checks.last().expect("recorded").inspected, 3);
    }
}
