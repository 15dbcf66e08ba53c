//! Ledger and invariant evaluation for the `ctl_soak` chaos harness.
//!
//! The harness (the `ctl_soak` binary of this crate) runs the routing
//! daemon under a seeded failpoint plan, records everything it observes
//! into a [`SoakLedger`], and asks [`SoakLedger::report`] to evaluate
//! the recovery invariants into an `lmpr-verify` [`Report`] — the same
//! machine-readable certificate shape every other checker in this repo
//! emits. The split keeps the invariant logic daemon-agnostic and unit
//! testable: this module never touches a socket or a thread; it judges
//! a transcript, holds the quotas and lays out the document.
//!
//! The invariants, one rule each:
//!
//! * **`CTL-SOAK-EPOCH`** — fault-batch acknowledgements carry strictly
//!   increasing epochs with `epoch == batch_id`: the daemon commits
//!   exactly one epoch per applied batch, monotonically, across every
//!   crash and restart.
//! * **`CTL-SOAK-SERVE`** — no reply ever carried an epoch the daemon
//!   had not committed (readers can never observe an uncertified or
//!   regressed epoch).
//! * **`CTL-SOAK-RECOVER`** — every restart recovered exactly the
//!   newest checkpoint that validates on disk, and never an epoch below
//!   the last acknowledged commit (newest-valid-wins, no silent genesis
//!   bootstrap).
//! * **`CTL-SOAK-BATCH`** — at-least-once accounting closed out exact:
//!   every batch sent was committed exactly once, and the daemon's
//!   final state digest equals an offline replay's (no lost, reordered,
//!   or double-applied batch). In a failover run the "daemon" at the
//!   end is the last promoted standby's lineage, so this rule is also
//!   the proof that the promoted replica's full-feed state equals the
//!   offline reference.
//! * **`CTL-SOAK-FAILOVER`** — every standby promotion caught up to
//!   the entire submitted feed before serving: the promoted epoch
//!   covers every batch sent, never sits below an acknowledged commit,
//!   and the daemon spawned on the promoted state recovered exactly
//!   that epoch. With any promotions at all, the feeder must have
//!   actually failed over at least once per promotion.
//! * **`CTL-SOAK-GEN`** — generation leases form a strict +1 chain
//!   across promotions, every deposed-generation write probe was
//!   durably rejected by the store fence, and the feeder crossed each
//!   fence via a counted `gen-fenced` retry.

use crate::FailPlan;
use lmpr_codec::json::document;
use lmpr_verify::{Diagnostic, Report, RuleId, Witness};
use std::path::PathBuf;

/// Daemon-side injected faults (storage faults plus storage crashes)
/// the soak must land before it leaves the escalation.
pub const MIN_FAULTS: u64 = 100;
/// Failpoint-induced daemon restarts the escalation must reach.
pub const MIN_INDUCED_RESTARTS: u64 = 10;
/// Standby promotions the failover phase must reach.
pub const MIN_PROMOTIONS: u64 = 3;
/// Bound on batches driven through the escalation; a run that hits it
/// is recorded as `capped` and skips the failover phase.
pub const MAX_BATCHES: u64 = 400;
/// Batches driven after the standby stops, so the certificate always
/// covers the promoted lineage serving; a death among them restarts
/// the daemon in place.
pub const SETTLE_BATCHES: u64 = 3;

/// The failover rung: crash-heavy storage faults so the primary dies
/// fast, plus feeder wire chaos across the promotions. Its batches are
/// driven with a hot standby behind the primary, and every daemon death
/// among them promotes the standby.
pub const FAILOVER_PHASE: SoakPhase = SoakPhase {
    name: "failover",
    batches: 16,
    storage_permille: 260,
    wire_permille: 100,
    crash_permille: 700,
};

/// A scratch directory that exists from [`ScratchDir::create`] until
/// the guard drops, whichever way the harness leaves its scope.
pub struct ScratchDir(pub PathBuf);

impl ScratchDir {
    /// Create `path` afresh, clearing whatever a previous run left there.
    pub fn create(path: PathBuf) -> std::io::Result<Self> {
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(Self(path))
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One rung of the escalating failpoint schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SoakPhase {
    /// Human-readable phase tag (stderr progress only).
    pub name: &'static str,
    /// Fault batches to drive during this phase.
    pub batches: u64,
    /// Storage-fault probability, permille per I/O op.
    pub storage_permille: u16,
    /// Wire-fault probability, permille per stream op.
    pub wire_permille: u16,
    /// Probability that a faulting storage op escalates to a crash
    /// kind, permille.
    pub crash_permille: u16,
}

/// The default escalation: a calm warm-up, then wire faults, then
/// survivable storage faults, then crash kinds, then everything at
/// once. The harness cycles the final rung until
/// [`SoakLedger::escalation_quotas_met`].
pub fn escalation() -> Vec<SoakPhase> {
    vec![
        SoakPhase {
            name: "calm",
            batches: 3,
            storage_permille: 0,
            wire_permille: 0,
            crash_permille: 0,
        },
        SoakPhase {
            name: "wire",
            batches: 8,
            storage_permille: 0,
            wire_permille: 140,
            crash_permille: 0,
        },
        SoakPhase {
            name: "storage",
            batches: 8,
            storage_permille: 140,
            wire_permille: 40,
            crash_permille: 0,
        },
        SoakPhase {
            name: "crash",
            batches: 10,
            storage_permille: 220,
            wire_permille: 60,
            crash_permille: 500,
        },
        SoakPhase {
            name: "mayhem",
            batches: 12,
            storage_permille: 300,
            wire_permille: 140,
            crash_permille: 450,
        },
    ]
}

/// Why a daemon incarnation ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RestartCause {
    /// An injected crash kind (fsync-then-crash, torn rename).
    InjectedCrash,
    /// A fatal injected storage fault (ENOSPC, short write, EIO) on
    /// which the daemon correctly fail-stopped.
    FatalFault,
    /// A deliberate, graceful restart at a phase boundary.
    PhaseChange,
}

impl RestartCause {
    /// Stable tag for progress output.
    pub fn tag(self) -> &'static str {
        match self {
            RestartCause::InjectedCrash => "injected-crash",
            RestartCause::FatalFault => "fatal-fault",
            RestartCause::PhaseChange => "phase-change",
        }
    }

    /// Whether the failpoint layer induced this restart.
    pub fn induced(self) -> bool {
        !matches!(self, RestartCause::PhaseChange)
    }
}

/// One daemon restart, with what recovery was entitled to and what it
/// actually produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RestartRecord {
    /// Incarnation number of the daemon that came *up* (1-based; the
    /// initial boot is incarnation 0 and is not a restart).
    pub incarnation: u64,
    /// Why the previous incarnation ended.
    pub cause: RestartCause,
    /// Highest epoch acknowledged to the feeder before the restart.
    pub last_acked_epoch: u64,
    /// The newest epoch whose checkpoint validated in an independent,
    /// unfaulted scan of the state directory taken before the restart
    /// (`None` when nothing on disk validated).
    pub newest_valid_on_disk: Option<u64>,
    /// The epoch the restarted daemon reported serving.
    pub recovered_epoch: u64,
}

/// One standby promotion, with everything the failover invariants are
/// judged on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PromotionRecord {
    /// Promotion number (1-based).
    pub index: u64,
    /// The generation lease before the bump (the dead primary's).
    pub gen_before: u64,
    /// The generation lease the promoted controller now holds.
    pub gen_after: u64,
    /// Highest epoch acknowledged to the feeder before the primary
    /// died.
    pub last_acked_epoch: u64,
    /// The epoch the promoted controller served after catching up on
    /// the feed.
    pub promoted_epoch: u64,
    /// The highest batch id the catch-up replayed through — must equal
    /// the full submitted feed.
    pub resubmitted_through: u64,
    /// The epoch the daemon spawned on the promoted state reported.
    pub recovered_epoch: u64,
    /// Whether the post-promotion probe that committed a checkpoint at
    /// the *deposed* generation was rejected by the store fence.
    pub stale_write_rejected: bool,
    /// The generation lease the surviving feeder carries into the
    /// promoted incarnation (0 if it has never seen a reply).
    pub feeder_lease: u64,
}

/// One fault-batch acknowledgement as the feeder saw it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchAck {
    /// The batch id submitted.
    pub batch_id: u64,
    /// The epoch the acknowledgement carried.
    pub epoch: u64,
    /// False when the daemon deduplicated an at-least-once resend.
    pub applied: bool,
}

/// The harness transcript: everything the invariants are judged on.
/// Every field is logical — driven by the deterministic feeder, or by
/// daemon-side counters that only the feeder's serial request stream
/// advances — so the document rendered from a fixed seed is
/// byte-identical across runs. Wall-clock tallies (the feeder's own
/// wire faults, its reconnects and resubmissions, the query workers'
/// and the standby's counts) stay out of it.
#[derive(Debug, Clone, Default)]
pub struct SoakLedger {
    /// The seed every failpoint plan of the run derives from.
    pub seed: u64,
    /// Fault batches submitted (including ones retried across crashes).
    pub batches_sent: u64,
    /// Acknowledgements, in feeder order.
    pub acks: Vec<BatchAck>,
    /// Restarts, in order.
    pub restarts: Vec<RestartRecord>,
    /// Epoch-rule violations observed by the concurrent query threads
    /// (an epoch above the submitted watermark, or below one already
    /// served). Zero on a correct daemon.
    pub query_epoch_violations: u64,
    /// Survivable storage faults injected into the daemon.
    pub storage_faults: u64,
    /// Crash-kind storage faults injected into the daemon.
    pub storage_crashes: u64,
    /// Standby promotions, in order.
    pub promotions: Vec<PromotionRecord>,
    /// Endpoint failovers the feeder performed (dials that landed on a
    /// different endpoint than the previous connection).
    pub feeder_failovers: u64,
    /// `gen-fenced` rejections the feeder recovered from.
    pub feeder_gen_retries: u64,
    /// The generation lease the feeder held when it was retired.
    pub feeder_final_lease: u64,
    /// Whether the escalation hit [`MAX_BATCHES`] before its quotas.
    pub capped: bool,
    /// The daemon's final generation lease.
    pub final_gen: u64,
    /// The daemon's final reported epoch.
    pub final_epoch: u64,
    /// The daemon's final committed feed batch id.
    pub final_committed_batch_id: u64,
    /// The daemon's final semantic digest (16 hex digits).
    pub final_digest: String,
    /// The offline replay's epoch after ingesting the same batches.
    pub mirror_epoch: u64,
    /// The offline replay's semantic digest.
    pub mirror_digest: String,
}

impl SoakLedger {
    /// An empty transcript.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total daemon-side injected faults (storage faults + crashes).
    pub fn total_faults(&self) -> u64 {
        self.storage_faults + self.storage_crashes
    }

    /// Restarts the failpoint layer induced (crashes and fail-stops).
    pub fn induced_restarts(&self) -> u64 {
        self.restarts.iter().filter(|r| r.cause.induced()).count() as u64
    }

    /// Whether the escalation may hand over to the failover phase: it
    /// has injected [`MIN_FAULTS`] daemon-side faults and induced
    /// [`MIN_INDUCED_RESTARTS`] restarts.
    pub fn escalation_quotas_met(&self) -> bool {
        self.total_faults() >= MIN_FAULTS && self.induced_restarts() >= MIN_INDUCED_RESTARTS
    }

    /// Whether the run met every fault, restart and promotion quota.
    pub fn quotas_met(&self) -> bool {
        self.escalation_quotas_met() && self.promotions.len() as u64 >= MIN_PROMOTIONS
    }

    /// The soak document: the run's counts, its quota verdict and the
    /// certificate `report` judged from this ledger.
    pub fn document(&self, report: &Report) -> String {
        let plan = FailPlan::new(self.seed, 0, 0, 0).to_string();
        document(|w| {
            w.obj(|w| {
                w.key("experiment").str("ctl_soak");
                w.key("seed").int(self.seed);
                w.key("plan").str(&plan);
                w.key("batches").int(self.batches_sent);
                w.key("faults").obj_line(|w| {
                    w.key("storage").int(self.storage_faults);
                    w.key("storage_crashes").int(self.storage_crashes);
                    w.key("total").int(self.total_faults());
                });
                w.key("restarts").obj_line(|w| {
                    w.key("total").int(self.restarts.len());
                    w.key("induced").int(self.induced_restarts());
                });
                w.key("failover").obj_line(|w| {
                    w.key("promotions").int(self.promotions.len());
                    w.key("final_gen").int(self.final_gen);
                    w.key("feeder_failovers").int(self.feeder_failovers);
                    w.key("feeder_gen_retries").int(self.feeder_gen_retries);
                });
                w.key("quotas_met").bool(self.quotas_met());
                w.key("capped").bool(self.capped);
                w.key("certificate");
                report.write_json(w);
            })
        }) + "\n"
    }

    /// Evaluate the soak invariants into a verify-style certificate.
    pub fn report(&self, topology: &str, scheme: &str) -> Report {
        let mut r = Report::new(topology, scheme);

        // CTL-SOAK-EPOCH: acks strictly increase and each batch commits
        // exactly its own epoch.
        let before = r.findings.len();
        let mut prev = 0u64;
        for a in &self.acks {
            if a.epoch != a.batch_id {
                r.findings.push(Diagnostic::error(
                    RuleId::CtlSoakEpoch,
                    format!(
                        "batch {} acknowledged at epoch {} (want exactly one \
                         committed epoch per batch)",
                        a.batch_id, a.epoch
                    ),
                    Witness::None,
                ));
            }
            if a.epoch <= prev {
                r.findings.push(Diagnostic::error(
                    RuleId::CtlSoakEpoch,
                    format!("ack epoch regressed or stalled: {} after {prev}", a.epoch),
                    Witness::None,
                ));
            }
            prev = a.epoch;
        }
        r.record(RuleId::CtlSoakEpoch, self.acks.len() as u64, before);

        // CTL-SOAK-SERVE: concurrent readers never saw an uncommitted
        // or regressed epoch.
        let before = r.findings.len();
        if self.query_epoch_violations > 0 {
            r.findings.push(Diagnostic::error(
                RuleId::CtlSoakServe,
                format!(
                    "{} reply(ies) carried an epoch outside the committed set",
                    self.query_epoch_violations
                ),
                Witness::None,
            ));
        }
        r.record(RuleId::CtlSoakServe, self.acks.len() as u64, before);

        // CTL-SOAK-RECOVER: newest-valid-wins, never below an ack.
        let before = r.findings.len();
        for rr in &self.restarts {
            match rr.newest_valid_on_disk {
                None => r.findings.push(Diagnostic::error(
                    RuleId::CtlSoakRecover,
                    format!(
                        "restart {} ({}): no checkpoint on disk validated — \
                         the fault sequence destroyed the durable state",
                        rr.incarnation,
                        rr.cause.tag()
                    ),
                    Witness::None,
                )),
                Some(nv) if rr.recovered_epoch != nv => r.findings.push(Diagnostic::error(
                    RuleId::CtlSoakRecover,
                    format!(
                        "restart {} ({}): recovered epoch {} but the newest \
                         valid checkpoint on disk was {}",
                        rr.incarnation,
                        rr.cause.tag(),
                        rr.recovered_epoch,
                        nv
                    ),
                    Witness::None,
                )),
                Some(_) if rr.recovered_epoch < rr.last_acked_epoch => {
                    r.findings.push(Diagnostic::error(
                        RuleId::CtlSoakRecover,
                        format!(
                            "restart {} ({}): recovered epoch {} below the \
                             acknowledged commit {}",
                            rr.incarnation,
                            rr.cause.tag(),
                            rr.recovered_epoch,
                            rr.last_acked_epoch
                        ),
                        Witness::None,
                    ));
                }
                Some(_) => {}
            }
        }
        r.record(RuleId::CtlSoakRecover, self.restarts.len() as u64, before);

        // CTL-SOAK-BATCH: exact at-least-once accounting.
        let before = r.findings.len();
        if self.final_committed_batch_id != self.batches_sent {
            r.findings.push(Diagnostic::error(
                RuleId::CtlSoakBatch,
                format!(
                    "sent {} batches but the daemon committed through {}",
                    self.batches_sent, self.final_committed_batch_id
                ),
                Witness::None,
            ));
        }
        if self.final_epoch != self.mirror_epoch {
            r.findings.push(Diagnostic::error(
                RuleId::CtlSoakBatch,
                format!(
                    "final epoch {} disagrees with the offline replay's {}",
                    self.final_epoch, self.mirror_epoch
                ),
                Witness::None,
            ));
        }
        if self.final_digest != self.mirror_digest {
            r.findings.push(Diagnostic::error(
                RuleId::CtlSoakBatch,
                format!(
                    "final digest {} disagrees with the offline replay's {} \
                     (a batch was lost or double-applied)",
                    self.final_digest, self.mirror_digest
                ),
                Witness::None,
            ));
        }
        r.record(RuleId::CtlSoakBatch, self.batches_sent, before);

        // CTL-SOAK-FAILOVER: promotion caught up before serving, never
        // below an ack, and the daemon on the promoted state serves
        // exactly the promoted epoch.
        let before = r.findings.len();
        for p in &self.promotions {
            if p.promoted_epoch != p.resubmitted_through {
                r.findings.push(Diagnostic::error(
                    RuleId::CtlSoakFailover,
                    format!(
                        "promotion {}: promoted epoch {} but catch-up replayed \
                         the feed through batch {} (one epoch per batch)",
                        p.index, p.promoted_epoch, p.resubmitted_through
                    ),
                    Witness::None,
                ));
            }
            if p.promoted_epoch < p.last_acked_epoch {
                r.findings.push(Diagnostic::error(
                    RuleId::CtlSoakFailover,
                    format!(
                        "promotion {}: promoted epoch {} regressed below the \
                         acknowledged commit {} — an acked batch was lost",
                        p.index, p.promoted_epoch, p.last_acked_epoch
                    ),
                    Witness::None,
                ));
            }
            if p.recovered_epoch != p.promoted_epoch {
                r.findings.push(Diagnostic::error(
                    RuleId::CtlSoakFailover,
                    format!(
                        "promotion {}: daemon spawned on the promoted state \
                         serves epoch {} instead of the promoted {}",
                        p.index, p.recovered_epoch, p.promoted_epoch
                    ),
                    Witness::None,
                ));
            }
        }
        if !self.promotions.is_empty() && self.feeder_failovers < self.promotions.len() as u64 {
            r.findings.push(Diagnostic::error(
                RuleId::CtlSoakFailover,
                format!(
                    "{} promotion(s) but the feeder only failed over {} \
                     time(s) — it kept talking to dead or deposed endpoints",
                    self.promotions.len(),
                    self.feeder_failovers
                ),
                Witness::None,
            ));
        }
        r.record(
            RuleId::CtlSoakFailover,
            self.promotions.len() as u64,
            before,
        );

        // CTL-SOAK-GEN: a strict +1 generation chain, durably fenced
        // stale writes, and counted fence crossings at the feeder.
        let before = r.findings.len();
        let mut prev_gen = 1u64; // genesis lease
        for p in &self.promotions {
            if p.gen_before != prev_gen {
                r.findings.push(Diagnostic::error(
                    RuleId::CtlSoakGen,
                    format!(
                        "promotion {}: found generation {} on the standby, \
                         expected the chain to be at {}",
                        p.index, p.gen_before, prev_gen
                    ),
                    Witness::None,
                ));
            }
            if p.gen_after != p.gen_before + 1 {
                r.findings.push(Diagnostic::error(
                    RuleId::CtlSoakGen,
                    format!(
                        "promotion {}: generation jumped {} -> {} (want +1)",
                        p.index, p.gen_before, p.gen_after
                    ),
                    Witness::None,
                ));
            }
            if !p.stale_write_rejected {
                r.findings.push(Diagnostic::error(
                    RuleId::CtlSoakGen,
                    format!(
                        "promotion {}: a write at the deposed generation {} \
                         was NOT rejected by the store fence — split-brain",
                        p.index, p.gen_before
                    ),
                    Witness::None,
                ));
            }
            prev_gen = p.gen_after;
        }
        // A feeder crosses promotion `i`'s fence iff it adopted that
        // incarnation's lease (the lease it carries into the *next*
        // promotion equals `gen_after`) while still holding an older,
        // nonzero one. A feeder that never heard from an incarnation —
        // or that had never seen any reply at all — has nothing to
        // fence, so those promotions are excluded from the floor
        // rather than silently assumed.
        let expected_crossings = self
            .promotions
            .iter()
            .enumerate()
            .filter(|(i, p)| {
                let lease_after = self
                    .promotions
                    .get(i + 1)
                    .map_or(self.feeder_final_lease, |next| next.feeder_lease);
                p.feeder_lease > 0 && p.feeder_lease < p.gen_after && lease_after == p.gen_after
            })
            .count() as u64;
        if self.feeder_gen_retries < expected_crossings {
            r.findings.push(Diagnostic::error(
                RuleId::CtlSoakGen,
                format!(
                    "{} lease adoption(s) required a fence crossing but the \
                     feeder was only gen-fenced {} time(s) — acks bypassed \
                     the fence",
                    expected_crossings, self.feeder_gen_retries
                ),
                Witness::None,
            ));
        }
        r.record(RuleId::CtlSoakGen, self.promotions.len() as u64, before);

        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clean_ledger() -> SoakLedger {
        let mut l = SoakLedger::new();
        l.batches_sent = 3;
        l.acks = vec![
            BatchAck {
                batch_id: 1,
                epoch: 1,
                applied: true,
            },
            BatchAck {
                batch_id: 2,
                epoch: 2,
                applied: true,
            },
            // An at-least-once resend the daemon deduplicated.
            BatchAck {
                batch_id: 3,
                epoch: 3,
                applied: false,
            },
        ];
        l.restarts = vec![RestartRecord {
            incarnation: 1,
            cause: RestartCause::InjectedCrash,
            last_acked_epoch: 2,
            newest_valid_on_disk: Some(3),
            recovered_epoch: 3,
        }];
        l.seed = 42;
        l.storage_faults = 5;
        l.storage_crashes = 1;
        l.final_epoch = 3;
        l.final_committed_batch_id = 3;
        l.final_digest = "00000000deadbeef".to_owned();
        l.mirror_epoch = 3;
        l.mirror_digest = "00000000deadbeef".to_owned();
        l
    }

    /// A clean transcript that also went through two promotions.
    fn clean_failover_ledger() -> SoakLedger {
        let mut l = clean_ledger();
        l.promotions = vec![
            PromotionRecord {
                index: 1,
                gen_before: 1,
                gen_after: 2,
                last_acked_epoch: 2,
                promoted_epoch: 3,
                resubmitted_through: 3,
                recovered_epoch: 3,
                stale_write_rejected: true,
                feeder_lease: 1,
            },
            PromotionRecord {
                index: 2,
                gen_before: 2,
                gen_after: 3,
                last_acked_epoch: 3,
                promoted_epoch: 3,
                resubmitted_through: 3,
                recovered_epoch: 3,
                stale_write_rejected: true,
                feeder_lease: 2,
            },
        ];
        l.feeder_failovers = 2;
        l.feeder_gen_retries = 2;
        l.feeder_final_lease = 3;
        l.final_gen = 3;
        l
    }

    #[test]
    fn a_clean_transcript_certifies() {
        let l = clean_ledger();
        let r = l.report("XGFT(2; 4,4; 1,4)", "disjoint:4");
        assert!(r.certified(), "findings: {:?}", r.findings);
        assert_eq!(r.checks.len(), 6);
        assert_eq!(l.total_faults(), 6);
        assert_eq!(l.induced_restarts(), 1);
    }

    #[test]
    fn a_clean_failover_transcript_certifies() {
        let l = clean_failover_ledger();
        let r = l.report("XGFT(2; 4,4; 1,4)", "disjoint:4");
        assert!(r.certified(), "findings: {:?}", r.findings);
        let failover = r
            .checks
            .iter()
            .find(|c| c.rule == RuleId::CtlSoakFailover)
            .expect("failover rule recorded");
        assert_eq!(failover.inspected, 2);
        let genrule = r
            .checks
            .iter()
            .find(|c| c.rule == RuleId::CtlSoakGen)
            .expect("gen rule recorded");
        assert_eq!(genrule.inspected, 2);
    }

    #[test]
    fn failover_violations_are_attributed_to_their_rule() {
        // Catch-up fell short of the submitted feed.
        let mut l = clean_failover_ledger();
        l.promotions[0].resubmitted_through = 2;
        let r = l.report("t", "s");
        assert!(!r.certified());
        assert!(r.findings.iter().all(|d| d.rule == RuleId::CtlSoakFailover));

        // Promotion lost an acked batch.
        let mut l = clean_failover_ledger();
        l.promotions[1].promoted_epoch = 2;
        l.promotions[1].resubmitted_through = 2;
        let r = l.report("t", "s");
        assert!(r
            .findings
            .iter()
            .any(|d| d.rule == RuleId::CtlSoakFailover && d.message.contains("regressed")));

        // The daemon spawned on promoted state serves something else.
        let mut l = clean_failover_ledger();
        l.promotions[0].recovered_epoch = 1;
        let r = l.report("t", "s");
        assert!(r
            .findings
            .iter()
            .any(|d| d.rule == RuleId::CtlSoakFailover && d.message.contains("spawned")));

        // Feeder never actually failed over.
        let mut l = clean_failover_ledger();
        l.feeder_failovers = 1;
        let r = l.report("t", "s");
        assert!(r
            .findings
            .iter()
            .any(|d| d.rule == RuleId::CtlSoakFailover && d.message.contains("failed over")));
    }

    #[test]
    fn generation_violations_are_attributed_to_their_rule() {
        // Broken chain: second promotion starts from the wrong lease.
        let mut l = clean_failover_ledger();
        l.promotions[1].gen_before = 1;
        l.promotions[1].gen_after = 2;
        let r = l.report("t", "s");
        assert!(!r.certified());
        assert!(r.findings.iter().all(|d| d.rule == RuleId::CtlSoakGen));

        // A generation bump that is not +1.
        let mut l = clean_failover_ledger();
        l.promotions[0].gen_after = 4;
        let r = l.report("t", "s");
        assert!(r
            .findings
            .iter()
            .any(|d| d.rule == RuleId::CtlSoakGen && d.message.contains("want +1")));

        // The stale-write probe went through: split-brain.
        let mut l = clean_failover_ledger();
        l.promotions[1].stale_write_rejected = false;
        let r = l.report("t", "s");
        assert!(r
            .findings
            .iter()
            .any(|d| d.rule == RuleId::CtlSoakGen && d.message.contains("split-brain")));

        // Acks crossed promotions without a counted fence retry.
        let mut l = clean_failover_ledger();
        l.feeder_gen_retries = 0;
        let r = l.report("t", "s");
        assert!(r
            .findings
            .iter()
            .any(|d| d.rule == RuleId::CtlSoakGen && d.message.contains("bypassed")));

        // A promotion the feeder never heard from (its lease skipped
        // from 1 straight to 3) demands only one crossing, not two.
        let mut l = clean_failover_ledger();
        l.promotions[1].feeder_lease = 1;
        l.feeder_gen_retries = 1;
        let r = l.report("t", "s");
        assert!(
            r.certified(),
            "skipped incarnation over-counted: {:?}",
            r.findings
        );
    }

    #[test]
    fn each_invariant_violation_is_attributed_to_its_rule() {
        // Double-applied batch: epoch runs ahead of batch id.
        let mut l = clean_ledger();
        l.acks[1].epoch = 3;
        l.acks[2].epoch = 4;
        l.final_epoch = 4;
        let r = l.report("t", "s");
        assert!(!r.certified());
        assert!(r
            .findings
            .iter()
            .all(|d| matches!(d.rule, RuleId::CtlSoakEpoch | RuleId::CtlSoakBatch)));

        // Recovery regressed below an acknowledged commit.
        let mut l = clean_ledger();
        l.restarts[0].recovered_epoch = 1;
        l.restarts[0].newest_valid_on_disk = Some(1);
        let r = l.report("t", "s");
        assert!(r.findings.iter().any(|d| d.rule == RuleId::CtlSoakRecover));

        // Recovery skipped the newest valid checkpoint.
        let mut l = clean_ledger();
        l.restarts[0].recovered_epoch = 2;
        let r = l.report("t", "s");
        assert!(r
            .findings
            .iter()
            .any(|d| d.rule == RuleId::CtlSoakRecover && d.message.contains("newest valid")));

        // A reader saw an impossible epoch.
        let mut l = clean_ledger();
        l.query_epoch_violations = 2;
        let r = l.report("t", "s");
        assert!(r.findings.iter().any(|d| d.rule == RuleId::CtlSoakServe));

        // Lost batch: accounting does not close.
        let mut l = clean_ledger();
        l.final_committed_batch_id = 2;
        l.final_digest = "0000000000000000".to_owned();
        let r = l.report("t", "s");
        assert!(r.findings.iter().any(|d| d.rule == RuleId::CtlSoakBatch));
    }

    #[test]
    fn the_document_text_is_pinned() {
        let l = clean_failover_ledger();
        let doc = l.document(&l.report("XGFT(2; 4,8; 1,4)", "disjoint(4)"));
        // Two promotions and six faults miss the quotas; the
        // transcript itself certifies.
        assert_eq!(
            doc,
            r#"{
  "experiment": "ctl_soak",
  "seed": 42,
  "plan": "fp1:42:s0:w0:c0",
  "batches": 3,
  "faults": {"storage": 5, "storage_crashes": 1, "total": 6},
  "restarts": {"total": 1, "induced": 1},
  "failover": {"promotions": 2, "final_gen": 3, "feeder_failovers": 2, "feeder_gen_retries": 2},
  "quotas_met": false,
  "capped": false,
  "certificate": {
    "topology": "XGFT(2; 4,8; 1,4)",
    "scheme": "disjoint(4)",
    "certified": true,
    "checks": [
      {"rule": "CTL-SOAK-EPOCH", "inspected": 3, "findings": 0},
      {"rule": "CTL-SOAK-SERVE", "inspected": 3, "findings": 0},
      {"rule": "CTL-SOAK-RECOVER", "inspected": 1, "findings": 0},
      {"rule": "CTL-SOAK-BATCH", "inspected": 3, "findings": 0},
      {"rule": "CTL-SOAK-FAILOVER", "inspected": 2, "findings": 0},
      {"rule": "CTL-SOAK-GEN", "inspected": 2, "findings": 0}
    ],
    "findings": []
  }
}
"#
        );
    }

    /// A transcript exactly at every quota: 100 daemon-side faults, 10
    /// induced restarts (beside one phase change), 3 promotions.
    fn ledger_at_quota() -> SoakLedger {
        let mut l = clean_failover_ledger();
        l.storage_faults = 90;
        l.storage_crashes = 10;
        let crash = l.restarts[0];
        l.restarts = vec![crash; 10];
        l.restarts.push(RestartRecord {
            cause: RestartCause::PhaseChange,
            ..crash
        });
        let third = PromotionRecord {
            index: 3,
            ..l.promotions[1].clone()
        };
        l.promotions.push(third);
        l
    }

    #[test]
    fn quotas_hold_exactly_at_their_boundaries() {
        let l = ledger_at_quota();
        assert_eq!(l.total_faults(), MIN_FAULTS);
        assert_eq!(l.induced_restarts(), MIN_INDUCED_RESTARTS);
        assert!(l.escalation_quotas_met() && l.quotas_met());

        // 99 daemon-side faults, by either kind.
        let mut l = ledger_at_quota();
        l.storage_faults -= 1;
        assert!(!l.escalation_quotas_met() && !l.quotas_met());
        let mut l = ledger_at_quota();
        l.storage_crashes -= 1;
        assert!(!l.escalation_quotas_met() && !l.quotas_met());

        // 9 induced restarts: the phase change does not count.
        let mut l = ledger_at_quota();
        l.restarts.remove(0);
        assert_eq!(l.restarts.len(), 10);
        assert!(!l.escalation_quotas_met() && !l.quotas_met());

        // 2 promotions: the escalation is done, the run is not.
        let mut l = ledger_at_quota();
        l.promotions.pop();
        assert!(l.escalation_quotas_met() && !l.quotas_met());
    }

    #[test]
    fn the_scratch_dir_goes_with_its_guard() {
        let path = std::env::temp_dir().join(format!("soak-scratch-{}", std::process::id()));
        std::fs::create_dir_all(path.join("stale")).expect("pre-existing dir");
        {
            let dir = ScratchDir::create(path.clone()).expect("scratch dir");
            assert!(!path.join("stale").exists(), "create starts afresh");
            std::fs::create_dir_all(dir.0.join("state")).expect("state dir");
            std::fs::write(dir.0.join("state/epoch-1.snap"), b"x").expect("file");
        }
        assert!(!path.exists());
    }

    #[test]
    fn the_escalation_schedule_escalates() {
        let phases = escalation();
        assert!(phases.len() >= 4);
        assert_eq!(phases[0].storage_permille, 0);
        assert_eq!(phases[0].wire_permille, 0);
        let last = phases.last().expect("non-empty");
        assert!(last.storage_permille > 0 && last.crash_permille > 0);
        // Crash kinds only appear after the survivable-fault rungs.
        let first_crash = phases.iter().position(|p| p.crash_permille > 0);
        let first_fault = phases
            .iter()
            .position(|p| p.storage_permille > 0 || p.wire_permille > 0);
        assert!(first_fault < first_crash);
    }
}
