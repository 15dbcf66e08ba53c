//! Structured diagnostics: rule catalog, findings, and certificates.
//!
//! Every check the analyzer runs is identified by a [`RuleId`]; a failed
//! check produces a [`Diagnostic`] carrying a machine-readable
//! [`Witness`] (the offending cycle, path or pair) so the failure can be
//! reproduced without re-running the analysis. A clean run produces a
//! [`Report`] whose `findings` list is empty — the deadlock-freedom /
//! coverage *certificate* — together with one [`CheckRun`] entry per
//! rule recording how much ground the check covered.

use lmpr_codec::json::{document, Writer};
use std::fmt;
use xgft::{DirectedLinkId, PathId, PnId};

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Informational note; never fails verification.
    Info,
    /// Suspicious but not provably wrong; does not fail verification.
    Warning,
    /// A proven violation of a routing-correctness property.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// The rule catalog — every property the analyzer can certify or refute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RuleId {
    /// The channel-dependency graph contains a cycle (Dally–Seitz):
    /// the routing is *not* provably deadlock-free.
    CdgCycle,
    /// An SD pair yielded a path-set cardinality other than
    /// `min(K, X)` (or `min(K, X_surviving)` under faults).
    CoverageCount,
    /// An SD pair's selection contains duplicate path ids.
    CoverageDuplicate,
    /// A selected path id is outside the pair's path space (`≥ X`).
    CoverageRange,
    /// A realized route is not a loop-free up\*/down\* shortest path
    /// through the pair's NCA level.
    CoverageUpDown,
    /// A disconnected pair did not surface as a typed
    /// [`RouteError::Disconnected`](lmpr_core::RouteError::Disconnected).
    CoverageDisconnect,
    /// LFT slots do not cover the pair's path space with balanced
    /// multiplicity (the slot-bijectivity contract).
    LftBijection,
    /// LFT slot 0 is not the plain d-mod-k path.
    LftSlotZero,
    /// An LFT walk looped or ejected at the wrong processing node.
    LftWalk,
    /// The disjoint heuristic's fork-low guarantee failed: the first
    /// `w_1` selections are not pairwise link-disjoint, or the first
    /// `Π_{i≤t} w_i` selections do not cover every low-digit
    /// combination exactly once.
    DisjointFork,
    /// A static load cross-check violated the Theorem 1 / Theorem 2
    /// bounds (ratio below 1, UMULTI off optimum, or above the `Π w_i`
    /// cap).
    LoadBound,
    /// Runtime flit/packet conservation broke: injected flits no longer
    /// equal delivered + duplicate + dropped + in-network, or the
    /// transfer ledger lost a packet (created ≠ delivered-once +
    /// dropped-with-cause + in-flight).
    RtConservation,
    /// The sink accepted the same packet twice (duplicate suppression
    /// failed) or the duplicate ledger disagrees with transfer states.
    RtDuplicate,
    /// The simulator stopped making forward progress while work remained
    /// (runtime watchdog, the online analogue of a deadlock proof).
    RtProgress,
    /// A live routing selection is invalid against the simulator's
    /// current fault view: a cached path crosses a link the routing
    /// layer already knows is dead, or the selection holds duplicates.
    RtSelection,
    /// The simulator's derived occupancy state — crossbar request rows,
    /// stage worklists, in-flight VOQs, copied packet lengths — no
    /// longer equals a recomputation from the buffers and records it
    /// is derived from.
    RtOccupancy,
    /// A routing-controller epoch failed its activation certificate:
    /// the reconvergence gate refused to publish the epoch (or an
    /// injected chaos failure forced the refusal) and the controller
    /// fell back to serving the last-good epoch in degraded mode.
    CtlCertificate,
    /// Controller epoch bookkeeping broke: a published epoch did not
    /// advance monotonically, or an epoch-fenced query batch was
    /// answered across two routing generations.
    CtlEpoch,
    /// Controller crash recovery failed: a restored checkpoint did not
    /// reproduce the committed epoch (envelope accepted but the decoded
    /// state disagrees with its recorded digest).
    CtlResume,
    /// Chaos-soak epoch invariant: acknowledged fault batches must be
    /// acked at strictly increasing epochs (one committed epoch per
    /// applied batch), across every induced crash and restart.
    CtlSoakEpoch,
    /// Chaos-soak serving invariant: no reply may ever carry an epoch
    /// outside the set the daemon actually committed and certified.
    CtlSoakServe,
    /// Chaos-soak recovery invariant: a daemon restarted after an
    /// induced crash must recover the newest valid checkpoint — never
    /// regress below an acknowledged commit, never bootstrap genesis
    /// over surviving state.
    CtlSoakRecover,
    /// Chaos-soak accounting invariant: at-least-once delivery must end
    /// with every fault batch applied exactly once (final state digest
    /// equal to the offline replay's; no lost or double-applied batch).
    CtlSoakBatch,
    /// Chaos-soak failover invariant: every promotion of a standby must
    /// catch up to the full submitted feed before serving — the
    /// promoted epoch covers every acknowledged batch, never regresses
    /// below it, and the daemon spawned on the promoted state serves
    /// exactly that epoch.
    CtlSoakFailover,
    /// Chaos-soak generation-fence invariant: generation leases form a
    /// strict +1 chain across promotions, every deposed-generation
    /// write probe is durably rejected, and the feeder's recovery
    /// counters show it actually crossed each fence.
    CtlSoakGen,
}

impl RuleId {
    /// Stable string id used in JSON output and the rule catalog docs.
    pub fn as_str(self) -> &'static str {
        match self {
            RuleId::CdgCycle => "CDG-CYCLE",
            RuleId::CoverageCount => "COV-COUNT",
            RuleId::CoverageDuplicate => "COV-DUP",
            RuleId::CoverageRange => "COV-RANGE",
            RuleId::CoverageUpDown => "COV-UPDOWN",
            RuleId::CoverageDisconnect => "COV-DISCONNECT",
            RuleId::LftBijection => "LFT-BIJECT",
            RuleId::LftSlotZero => "LFT-SLOT0",
            RuleId::LftWalk => "LFT-WALK",
            RuleId::DisjointFork => "DISJ-FORK",
            RuleId::LoadBound => "LOAD-BOUND",
            RuleId::RtConservation => "RT-CONSERVE",
            RuleId::RtDuplicate => "RT-DUP",
            RuleId::RtProgress => "RT-PROGRESS",
            RuleId::RtSelection => "RT-SELECT",
            RuleId::RtOccupancy => "RT-OCCUPANCY",
            RuleId::CtlCertificate => "CTL-CERT",
            RuleId::CtlEpoch => "CTL-EPOCH",
            RuleId::CtlResume => "CTL-RESUME",
            RuleId::CtlSoakEpoch => "CTL-SOAK-EPOCH",
            RuleId::CtlSoakServe => "CTL-SOAK-SERVE",
            RuleId::CtlSoakRecover => "CTL-SOAK-RECOVER",
            RuleId::CtlSoakBatch => "CTL-SOAK-BATCH",
            RuleId::CtlSoakFailover => "CTL-SOAK-FAILOVER",
            RuleId::CtlSoakGen => "CTL-SOAK-GEN",
        }
    }
}

impl fmt::Display for RuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Machine-checkable evidence attached to a finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Witness {
    /// No structured witness (the message carries the evidence).
    None,
    /// A dependency cycle: the sequence of directed link ids, with the
    /// first repeated implicitly (`c[0]` depends on `c.last()`).
    Cycle(Vec<DirectedLinkId>),
    /// One offending SD pair.
    Pair {
        /// Source processing node.
        src: PnId,
        /// Destination processing node.
        dst: PnId,
    },
    /// One offending path of an SD pair.
    Path {
        /// Source processing node.
        src: PnId,
        /// Destination processing node.
        dst: PnId,
        /// Path index within the pair's canonical enumeration.
        path: PathId,
    },
    /// One offending LFT slot of an SD pair.
    Slot {
        /// Source processing node.
        src: PnId,
        /// Destination processing node.
        dst: PnId,
        /// LID slot index.
        slot: u64,
    },
}

/// One finding: a rule violation with severity, message and witness.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Which rule fired.
    pub rule: RuleId,
    /// How bad it is.
    pub severity: Severity,
    /// Human-readable description of the violation.
    pub message: String,
    /// Machine-checkable evidence.
    pub witness: Witness,
}

impl Diagnostic {
    /// Shorthand for an error-severity finding.
    pub fn error(rule: RuleId, message: impl Into<String>, witness: Witness) -> Self {
        Diagnostic {
            rule,
            severity: Severity::Error,
            message: message.into(),
            witness,
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} [{}] {}", self.severity, self.rule, self.message)
    }
}

/// Coverage record for one rule: what ran, over how much ground.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckRun {
    /// The rule that ran.
    pub rule: RuleId,
    /// Units inspected (SD pairs, CDG edges, routes — rule-dependent).
    pub inspected: u64,
    /// Findings the rule produced.
    pub findings: u64,
}

/// The analyzer's output: a certificate when `findings` is empty, a
/// counterexample list otherwise.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Topology label the analysis ran on.
    pub topology: String,
    /// Routing-scheme label.
    pub scheme: String,
    /// Per-rule coverage records, in execution order.
    pub checks: Vec<CheckRun>,
    /// All findings, in discovery order.
    pub findings: Vec<Diagnostic>,
}

impl Report {
    /// Start an empty report for a (topology, scheme) combination.
    pub fn new(topology: impl Into<String>, scheme: impl Into<String>) -> Self {
        Report {
            topology: topology.into(),
            scheme: scheme.into(),
            checks: Vec::new(),
            findings: Vec::new(),
        }
    }

    /// Whether the analysis certifies every property it checked
    /// (no error-severity findings).
    pub fn certified(&self) -> bool {
        !self.findings.iter().any(|d| d.severity == Severity::Error)
    }

    /// Record a completed rule run.
    pub fn record(&mut self, rule: RuleId, inspected: u64, findings_before: usize) {
        self.checks.push(CheckRun {
            rule,
            inspected,
            findings: (self.findings.len() - findings_before) as u64,
        });
    }

    /// Merge another report's checks and findings into this one.
    pub fn absorb(&mut self, other: Report) {
        self.checks.extend(other.checks);
        self.findings.extend(other.findings);
    }

    /// Render as a pretty-printed JSON document.
    pub fn to_json(&self) -> String {
        document(|w| self.write_json(w))
    }

    /// Write the report into `w` as a pretty object: one one-line object
    /// per check, and one pretty object per finding whose witness is a
    /// one-line object (or `null`).
    pub fn write_json(&self, w: &mut Writer) {
        w.obj(|w| {
            w.key("topology").str(&self.topology);
            w.key("scheme").str(&self.scheme);
            w.key("certified").bool(self.certified());
            w.key("checks").arr(|w| {
                for c in &self.checks {
                    w.obj_line(|w| {
                        w.key("rule").str(c.rule.as_str());
                        w.key("inspected").int(c.inspected);
                        w.key("findings").int(c.findings);
                    });
                }
            });
            w.key("findings").arr(|w| {
                for d in &self.findings {
                    w.obj(|w| {
                        w.key("rule").str(d.rule.as_str());
                        w.key("severity").str(&d.severity.to_string());
                        w.key("message").str(&d.message);
                        w.key("witness");
                        d.witness.write_json(w);
                    });
                }
            });
        });
    }
}

impl Witness {
    /// `null`, or a one-line object: `{"cycle": [..]}` or the pair's
    /// `src` and `dst` plus the offending `path` or `slot`.
    fn write_json(&self, w: &mut Writer) {
        let (src, dst, at) = match *self {
            Witness::None => return w.null(),
            Witness::Cycle(ref links) => {
                return w.obj_line(|w| {
                    w.key("cycle")
                        .arr_line(|w| links.iter().for_each(|l| w.int(l.0)))
                })
            }
            Witness::Pair { src, dst } => (src, dst, None),
            Witness::Path { src, dst, path } => (src, dst, Some(("path", path.0))),
            Witness::Slot { src, dst, slot } => (src, dst, Some(("slot", slot))),
        };
        w.obj_line(|w| {
            w.key("src").int(src.0);
            w.key("dst").int(dst.0);
            if let Some((key, v)) = at {
                w.key(key).int(v);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn certificate_flips_on_error_findings() {
        let mut r = Report::new("XGFT(2; 2,2; 1,2)", "d-mod-k");
        assert!(r.certified());
        r.findings.push(Diagnostic {
            rule: RuleId::CoverageCount,
            severity: Severity::Warning,
            message: "just a warning".into(),
            witness: Witness::None,
        });
        assert!(r.certified(), "warnings do not void the certificate");
        r.findings.push(Diagnostic::error(
            RuleId::CdgCycle,
            "cycle found",
            Witness::Cycle(vec![DirectedLinkId(1), DirectedLinkId(2)]),
        ));
        assert!(!r.certified());
    }

    #[test]
    fn json_is_well_formed_and_escaped() {
        let mut r = Report::new("t\"1", "s");
        r.findings.push(Diagnostic::error(
            RuleId::LftWalk,
            "line1\nline2",
            Witness::Slot {
                src: PnId(1),
                dst: PnId(2),
                slot: 3,
            },
        ));
        r.record(RuleId::LftWalk, 10, 0);
        let j = r.to_json();
        assert!(j.contains("\"t\\\"1\""));
        assert!(j.contains("line1\\nline2"));
        assert!(j.contains("\"rule\": \"LFT-WALK\""));
        assert!(j.contains("\"certified\": false"));
        assert!(j.contains("\"inspected\": 10"));
        assert!(j.contains("\"witness\": {\"src\": 1, \"dst\": 2, \"slot\": 3}\n"));
        lmpr_codec::json::parse(&j).expect("the report parses");
    }

    #[test]
    fn record_counts_new_findings_only() {
        let mut r = Report::new("t", "s");
        r.findings
            .push(Diagnostic::error(RuleId::CdgCycle, "a", Witness::None));
        let before = r.findings.len();
        r.findings
            .push(Diagnostic::error(RuleId::LoadBound, "b", Witness::None));
        r.record(RuleId::LoadBound, 5, before);
        assert_eq!(r.checks.last().unwrap().findings, 1);
    }
}
