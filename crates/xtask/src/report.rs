//! `lmpr_verify`-style diagnostics for the source analyzer.
//!
//! The analyzer certifies *code* properties the way `crates/verify`
//! certifies routing properties, and its output deliberately mirrors
//! `lmpr_verify::diag`: a [`Report`] whose `findings` list is empty is
//! the certificate, one [`CheckRun`] per rule records coverage, and
//! every [`Diagnostic`] carries a machine-readable witness — here a
//! `{file, line}` source location instead of an SD pair. (xtask links
//! only the leaf `lmpr-codec`, so the types are local rather than
//! imported.)

use lmpr_codec::json::document;
use std::fmt;

/// How bad a finding is. Both kinds fail the gate (the ratchet is
/// exact); the severity tells the reader whether the tree got worse
/// (`Error`: a new or denied hazard) or merely drifted from its pins
/// (`Warning`: an improvement or stale entry needing `--update`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// The tree improved past its pins or an entry went stale;
    /// regenerate the allowlist.
    Warning,
    /// A new hazard, or a site that can never be vetted.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// The analyzer's rule catalog.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RuleId {
    /// Unordered `HashMap`/`HashSet` iteration in code feeding
    /// serialized output: a bit-determinism hazard.
    DetOrder,
    /// Wall-clock reads (`Instant::now`, `SystemTime`) outside the
    /// approved timing modules.
    DetTime,
    /// A narrowing `as` cast (ratcheted toward `try_from` or a
    /// documented invariant helper).
    CastNarrow,
    /// Thread spawning, lock construction or channel construction
    /// outside the approved concurrency modules, or an inconsistent
    /// lexical lock-acquisition order.
    ThreadDiscipline,
    /// A crate root missing `#![forbid(unsafe_code)]`.
    UnsafeForbid,
    /// An `unwrap()` / `expect()` / `panic!` site in library code, which
    /// must surface failures as typed errors.
    PanicSite,
}

/// Every rule, in execution/report order.
pub const ALL_RULES: &[RuleId] = &[
    RuleId::DetOrder,
    RuleId::DetTime,
    RuleId::CastNarrow,
    RuleId::ThreadDiscipline,
    RuleId::UnsafeForbid,
    RuleId::PanicSite,
];

impl RuleId {
    /// Stable string id used in JSON output and the allowlist file.
    pub fn as_str(self) -> &'static str {
        match self {
            RuleId::DetOrder => "DET-ORDER",
            RuleId::DetTime => "DET-TIME",
            RuleId::CastNarrow => "CAST-NARROW",
            RuleId::ThreadDiscipline => "THREAD-DISCIPLINE",
            RuleId::UnsafeForbid => "UNSAFE-FORBID",
            RuleId::PanicSite => "PANIC-SITE",
        }
    }

    /// Parse an allowlist rule column.
    pub fn parse(s: &str) -> Option<Self> {
        ALL_RULES.iter().copied().find(|r| r.as_str() == s)
    }
}

impl fmt::Display for RuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One finding: a rule violation with its source-location witness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Which rule fired.
    pub rule: RuleId,
    /// How bad it is.
    pub severity: Severity,
    /// Human-readable description of the violation.
    pub message: String,
    /// Workspace-relative path of the offending file.
    pub file: String,
    /// 1-based line of the offending site (0 = whole file).
    pub line: usize,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "{}: [{}] {}", self.file, self.rule, self.message)
        } else {
            write!(
                f,
                "{}:{}: [{}] {}",
                self.file, self.line, self.rule, self.message
            )
        }
    }
}

/// Coverage record for one rule: what ran, over how much ground.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckRun {
    /// The rule that ran.
    pub rule: RuleId,
    /// Units inspected (files — or crate roots for UNSAFE-FORBID).
    pub inspected: u64,
    /// Findings the rule produced (before ratchet vetting).
    pub findings: u64,
}

/// The analyzer's output: a certificate when every finding is vetted by
/// the ratchet, a counterexample list otherwise.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Whether the ratchet accepted the run.
    pub certified: bool,
    /// Per-rule coverage records, in execution order.
    pub checks: Vec<CheckRun>,
    /// Findings that violate the ratchet (new, stale or denied sites).
    pub findings: Vec<Diagnostic>,
}

impl Report {
    /// Render as a pretty-printed JSON document, laid out like
    /// `lmpr_verify::diag::Report`'s.
    pub fn to_json(&self) -> String {
        document(|w| {
            w.obj(|w| {
                w.key("tool").str("xtask-analyze");
                w.key("certified").bool(self.certified);
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
                            w.key("witness").obj_line(|w| {
                                w.key("file").str(&d.file);
                                w.key("line").int(d.line);
                            });
                        });
                    }
                });
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_ids_round_trip() {
        for &r in ALL_RULES {
            assert_eq!(RuleId::parse(r.as_str()), Some(r));
        }
        assert_eq!(RuleId::parse("NO-SUCH-RULE"), None);
    }

    #[test]
    fn json_is_well_formed_and_escaped() {
        let r = Report {
            certified: false,
            checks: vec![CheckRun {
                rule: RuleId::DetOrder,
                inspected: 12,
                findings: 1,
            }],
            findings: vec![Diagnostic {
                rule: RuleId::DetOrder,
                severity: Severity::Error,
                message: "iterates \"counts\"\nunordered".into(),
                file: "crates/verify/src/coverage.rs".into(),
                line: 513,
            }],
        };
        let j = r.to_json();
        assert!(j.contains("\"rule\": \"DET-ORDER\""));
        assert!(j.contains("\\\"counts\\\"\\nunordered"));
        assert!(j.contains("\"certified\": false"));
        assert!(j.contains(
            "\"witness\": {\"file\": \"crates/verify/src/coverage.rs\", \"line\": 513}\n"
        ));
        lmpr_codec::json::parse(&j).expect("the report parses");
    }

    #[test]
    fn empty_report_is_compact() {
        let r = Report {
            certified: true,
            ..Report::default()
        };
        let j = r.to_json();
        assert!(j.contains("\"checks\": []"));
        assert!(j.contains("\"findings\": []"));
    }
}
