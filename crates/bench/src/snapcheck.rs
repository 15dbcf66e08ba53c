//! SNAP-* diagnostics: executable certificates for the crash-consistent
//! snapshot subsystem, reported through the same [`Report`] machinery
//! as the static routing checks so `verify --ci` gates on them
//! uniformly.
//!
//! | Rule | Certificate |
//! |---|---|
//! | `SNAP-ROUNDTRIP` | restore(snapshot(S)) re-serializes to the same bytes and agrees with S on stats and conservation ledger |
//! | `SNAP-REJECT` | header truncation, foreign magic, future versions, payload truncation and every sampled bit flip are rejected with the matching typed [`SnapshotError`] — never a panic, never a silent accept |
//! | `SNAP-RESUME` | a run snapshotted mid-flight (inside the fail→recover outage, with retransmission timers armed) and restored reaches the horizon byte-identical to the uninterrupted run |
//!
//! The checks run on the resilient configuration with the richest
//! snapshot surface: dynamic fault schedule, lagged routing view,
//! retransmission ledger, per-source RNG streams.

use lmpr_codec::xoshiro::Xoshiro256pp;
use lmpr_core::ShiftOne;
use lmpr_flitsim::{
    FaultPolicy, FlitSim, ResilienceConfig, RetxConfig, SimConfig, SnapshotError, TrafficMode,
    SNAPSHOT_VERSION,
};
use lmpr_verify::{Diagnostic, Report, RuleId, Witness};
use xgft::{FaultChange, FaultEvent, FaultSchedule, Topology, XgftSpec};

const LABEL: &str = "XGFT(2; 4,4; 1,4)";
const SCHEME: &str = "snapshot(shift-1(4))";
const HORIZON: u64 = 5_000;

/// The three snapshot certificates of the `--ci` matrix.
pub fn snapshot_reports() -> Vec<Report> {
    let topo = Topology::new(XgftSpec::new(&[4, 4], &[1, 4]).expect("valid spec"));
    vec![
        roundtrip_report(&topo),
        reject_report(&topo),
        resume_report(&topo),
    ]
}

/// The resilient fixture: one top-level up-link dies at 1 500 and is
/// repaired at 3 000, with retransmission and a lagged routing view —
/// every serialized subsystem is exercised.
fn fixture(topo: &Topology) -> FlitSim<ShiftOne> {
    let link = topo.up_link(2, 0, 0);
    let schedule = FaultSchedule::scripted(vec![
        FaultEvent {
            at: 1_500,
            change: FaultChange::LinkDown(link),
        },
        FaultEvent {
            at: 3_000,
            change: FaultChange::LinkUp(link),
        },
    ]);
    FlitSim::with_schedule(
        topo,
        ShiftOne::new(4),
        SimConfig {
            warmup_cycles: 1_000,
            measure_cycles: HORIZON - 1_000,
            offered_load: 0.5,
            ..SimConfig::default()
        },
        TrafficMode::Uniform,
        schedule,
        FaultPolicy::Drop,
        ResilienceConfig {
            detect_cycles: 100,
            reconverge_cycles: 200,
            retx: Some(RetxConfig {
                timeout: 800,
                max_retries: 4,
            }),
        },
    )
    .expect("fixture config is valid")
}

fn step_to(sim: &mut FlitSim<ShiftOne>, cycle: u64) {
    while sim.now() < cycle {
        sim.step();
    }
}

fn finding(rule: RuleId, message: String) -> Diagnostic {
    Diagnostic::error(rule, message, Witness::None)
}

/// SNAP-ROUNDTRIP: snapshot → restore → re-serialize is the identity,
/// and the restored simulator agrees on every observable.
fn roundtrip_report(topo: &Topology) -> Report {
    let mut report = Report::new(LABEL, SCHEME);
    let before = report.findings.len();

    let mut sim = fixture(topo);
    step_to(&mut sim, 2_000);
    let bytes = sim.snapshot();
    let mut inspected = bytes.len() as u64;
    match FlitSim::restore(ShiftOne::new(4), &bytes) {
        Ok(restored) => {
            if restored.snapshot() != bytes {
                report.findings.push(finding(
                    RuleId::SnapRoundtrip,
                    "restored state re-serialized to different bytes".to_owned(),
                ));
            }
            if restored.now() != sim.now() {
                report.findings.push(finding(
                    RuleId::SnapRoundtrip,
                    format!(
                        "restored cycle {} != snapshotted cycle {}",
                        restored.now(),
                        sim.now()
                    ),
                ));
            }
            if restored.stats() != sim.stats() {
                report.findings.push(finding(
                    RuleId::SnapRoundtrip,
                    "restored statistics differ from the snapshotted run".to_owned(),
                ));
            }
            if restored.conservation_ledger() != sim.conservation_ledger() {
                report.findings.push(finding(
                    RuleId::SnapRoundtrip,
                    "restored conservation ledger differs from the snapshotted run".to_owned(),
                ));
            }
        }
        Err(e) => {
            inspected = 0;
            report.findings.push(finding(
                RuleId::SnapRoundtrip,
                format!("pristine snapshot failed to restore: {e}"),
            ));
        }
    }
    report.record(RuleId::SnapRoundtrip, inspected, before);
    report
}

/// SNAP-REJECT: every corruption class yields its typed error.
fn reject_report(topo: &Topology) -> Report {
    let mut report = Report::new(LABEL, SCHEME);
    let before = report.findings.len();

    let mut sim = fixture(topo);
    step_to(&mut sim, 2_000);
    let good = sim.snapshot();
    let mut inspected = 0u64;
    let mut expect = |case: &str,
                      got: Result<(), SnapshotError>,
                      want: fn(&SnapshotError) -> bool,
                      report: &mut Report| {
        inspected += 1;
        match got {
            Err(e) if want(&e) => {}
            Err(e) => report.findings.push(finding(
                RuleId::SnapReject,
                format!("{case}: rejected, but with the wrong error: {e}"),
            )),
            Ok(()) => report.findings.push(finding(
                RuleId::SnapReject,
                format!("{case}: corrupt snapshot was accepted"),
            )),
        }
    };
    let restore = |bytes: &[u8]| FlitSim::restore(ShiftOne::new(4), bytes).map(|_| ());

    expect(
        "header truncation",
        restore(&good[..10]),
        |e| matches!(e, SnapshotError::TooShort),
        &mut report,
    );

    let mut bad = good.clone();
    bad[0] ^= 0xFF;
    expect(
        "foreign magic",
        restore(&bad),
        |e| matches!(e, SnapshotError::BadMagic),
        &mut report,
    );

    let mut bad = good.clone();
    bad[8..12].copy_from_slice(&(SNAPSHOT_VERSION + 1).to_le_bytes());
    expect(
        "future version",
        restore(&bad),
        |e| matches!(e, SnapshotError::UnsupportedVersion(_)),
        &mut report,
    );

    expect(
        "payload truncation",
        restore(&good[..good.len() - 5]),
        |e| matches!(e, SnapshotError::LengthMismatch { .. }),
        &mut report,
    );

    let mut rng = Xoshiro256pp::seed_from_u64(0x534E_4150); // "SNAP"
    for _ in 0..16 {
        let mut bad = good.clone();
        let i = 28 + rng.index(bad.len() - 28);
        bad[i] ^= 1 << rng.below(8);
        expect(
            "payload bit flip",
            restore(&bad),
            |e| matches!(e, SnapshotError::ChecksumMismatch { .. }),
            &mut report,
        );
    }

    report.record(RuleId::SnapReject, inspected, before);
    report
}

/// SNAP-RESUME: the resume-equivalence certificate. Snapshot inside the
/// outage (cycle 2 345 — failed link detected, retransmission timers
/// armed, routing view lagging), restore, run to the horizon; the final
/// state must serialize byte-identically to the uninterrupted run's.
fn resume_report(topo: &Topology) -> Report {
    let mut report = Report::new(LABEL, SCHEME);
    let before = report.findings.len();

    let mut uninterrupted = fixture(topo);
    step_to(&mut uninterrupted, HORIZON);
    let final_bytes = uninterrupted.snapshot();

    let mut recorder = fixture(topo);
    step_to(&mut recorder, 2_345);
    let mid = recorder.snapshot();
    match FlitSim::restore(ShiftOne::new(4), &mid) {
        Ok(mut resumed) => {
            step_to(&mut resumed, HORIZON);
            if resumed.stats() != uninterrupted.stats() {
                report.findings.push(finding(
                    RuleId::SnapResume,
                    "resumed run's statistics diverged from the uninterrupted run".to_owned(),
                ));
            }
            if resumed.conservation_ledger() != uninterrupted.conservation_ledger() {
                report.findings.push(finding(
                    RuleId::SnapResume,
                    "resumed run's conservation ledger diverged".to_owned(),
                ));
            }
            if resumed.snapshot() != final_bytes {
                report.findings.push(finding(
                    RuleId::SnapResume,
                    "resumed run's final state is not byte-identical".to_owned(),
                ));
            }
        }
        Err(e) => report.findings.push(finding(
            RuleId::SnapResume,
            format!("mid-run snapshot failed to restore: {e}"),
        )),
    }
    report.record(RuleId::SnapResume, HORIZON, before);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_snapshot_reports_certify() {
        for report in snapshot_reports() {
            assert!(
                report.certified(),
                "{} refuted: {:?}",
                report.scheme,
                report.findings
            );
        }
    }
}
