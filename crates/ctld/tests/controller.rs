//! State-machine tests: epochs, certificates, degraded mode, crash
//! recovery and kill-and-resume byte identity.

use lmpr_core::RouterKind;
use lmpr_ctld::{ChangeSpec, Controller, CtlConfig, CtlError, Mode};
use std::path::PathBuf;
use xgft::FaultSchedule;

const TOPO: &str = "8port2tree";

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ctld-test-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn base_cfg(tag: &str) -> CtlConfig {
    CtlConfig::new(TOPO, RouterKind::Disjoint(4), temp_dir(tag))
}

fn cleanup(cfg: &CtlConfig) {
    let _ = std::fs::remove_dir_all(&cfg.state_dir);
}

/// The full query matrix at the current epoch — the "answers" whose
/// byte identity the resume tests assert.
fn all_answers(ctl: &mut Controller) -> Vec<Vec<u64>> {
    let n = ctl.topology().num_pns();
    let pairs: Vec<(u32, u32)> = (0..n)
        .flat_map(|s| (0..n).filter(move |&d| d != s).map(move |d| (s, d)))
        .collect();
    ctl.paths(ctl.epoch(), &pairs).expect("fenced at own epoch")
}

#[test]
fn genesis_certifies_and_checkpoints_epoch_zero() {
    let cfg = base_cfg("genesis");
    let (ctl, report) = Controller::start(cfg.clone()).expect("start");
    assert!(report.certified(), "{:?}", report.findings);
    assert!(!report.checks.is_empty(), "full-scope genesis certificate");
    assert_eq!(ctl.epoch(), 0);
    assert_eq!(ctl.mode(), Mode::Serving);

    // A second start resumes the committed epoch without re-verifying.
    let (ctl2, report2) = Controller::start(cfg.clone()).expect("resume");
    assert_eq!(ctl2.epoch(), 0);
    assert!(report2.checks.is_empty(), "resume does not re-certify");
    cleanup(&cfg);
}

#[test]
fn fault_feed_commits_certified_epochs_and_is_idempotent() {
    let cfg = base_cfg("feed");
    let (mut ctl, _) = Controller::start(cfg.clone()).expect("start");

    // Warm some selections so the blast radius is non-trivial.
    let before = all_answers(&mut ctl);

    assert!(ctl.ingest(1, &[ChangeSpec::LinkDown(3)]).expect("batch 1"));
    assert_eq!(ctl.epoch(), 1, "commit advanced the epoch");
    assert_eq!(ctl.mode(), Mode::Serving);

    // At-least-once: the duplicate is acknowledged, not reapplied.
    assert!(!ctl.ingest(1, &[ChangeSpec::LinkDown(3)]).expect("dup"));
    assert_eq!(ctl.epoch(), 1);

    // A sequence gap is a typed rejection.
    match ctl.ingest(5, &[ChangeSpec::LinkUp(3)]) {
        Err(CtlError::FeedGap {
            got: 5,
            expected: 2,
        }) => {}
        other => panic!("expected a feed gap, got {other:?}"),
    }

    // Recovery restores the fault-free answers bit for bit.
    assert!(ctl.ingest(2, &[ChangeSpec::LinkUp(3)]).expect("batch 2"));
    assert_eq!(ctl.epoch(), 2);
    assert_eq!(all_answers(&mut ctl), before);
    cleanup(&cfg);
}

#[test]
fn cold_cache_reconvergence_still_audits_the_blast_radius() {
    // Regression: the certification scope must come from the topology,
    // not from flushed selection-cache entries. With no queries before
    // the first fault (cold cache) a cache-derived scope would be empty
    // and the epoch would certify trivially on zero pairs.
    let cfg = base_cfg("coldscope");
    assert!(cfg.scoped_certs, "scoped certificates are the default");
    let (mut ctl, _) = Controller::start(cfg.clone()).expect("start");
    assert_eq!(ctl.last_cert_pairs(), 0, "no reconvergence attempted yet");

    // First fault with a stone-cold cache: the commit must be backed by
    // a non-empty audit.
    assert!(ctl.ingest(1, &[ChangeSpec::LinkDown(3)]).expect("batch 1"));
    assert_eq!(ctl.epoch(), 1);
    let cold_scope = ctl.last_cert_pairs();
    assert!(
        cold_scope > 0,
        "a committed epoch must never be backed by an empty audit"
    );

    // A failed certificate rebuilds the engine (cold cache again); the
    // degraded retry must re-audit the same topology-derived scope, not
    // rubber-stamp the state it just refused.
    ctl.set_chaos_fail_certs(true);
    ctl.ingest(2, &[ChangeSpec::LinkDown(9)]).expect("staged");
    let Mode::Degraded { next_retry_at, .. } = ctl.mode() else {
        panic!("expected degraded after an injected cert failure");
    };
    let failed_scope = ctl.last_cert_pairs();
    assert!(failed_scope > 0, "failed attempt audited a real scope");

    ctl.set_chaos_fail_certs(false);
    ctl.tick(next_retry_at).expect("recovery tick");
    assert_eq!(ctl.mode(), Mode::Serving);
    assert_eq!(ctl.epoch(), 2);
    assert_eq!(
        ctl.last_cert_pairs(),
        failed_scope,
        "the retry re-audited the failed attempt's full scope"
    );
    cleanup(&cfg);
}

#[test]
fn stale_and_future_epochs_are_fenced() {
    let cfg = base_cfg("fence");
    let (mut ctl, _) = Controller::start(cfg.clone()).expect("start");
    ctl.ingest(1, &[ChangeSpec::LinkDown(0)]).expect("fault");
    assert_eq!(ctl.epoch(), 1);

    for stale in [0u64, 2, 99] {
        match ctl.paths(stale, &[(0, 5)]) {
            Err(CtlError::EpochFenced { client, server }) => {
                assert_eq!((client, server), (stale, 1));
            }
            other => panic!("epoch {stale} not fenced: {other:?}"),
        }
    }
    assert!(ctl.paths(1, &[(0, 5)]).is_ok());
    cleanup(&cfg);
}

#[test]
fn failed_certificate_degrades_and_recovery_is_served_from_last_good() {
    let cfg = base_cfg("degraded");
    let (mut ctl, _) = Controller::start(cfg.clone()).expect("start");
    ctl.ingest(1, &[ChangeSpec::LinkDown(7)]).expect("fault");
    let good_epoch = ctl.epoch();
    let good_answers = all_answers(&mut ctl);

    // Injected certificate failure: the next batch must not activate.
    ctl.set_chaos_fail_certs(true);
    ctl.ingest(2, &[ChangeSpec::LinkDown(9)]).expect("staged");
    let Mode::Degraded {
        attempts: 1,
        next_retry_at,
    } = ctl.mode()
    else {
        panic!("expected degraded after an injected cert failure");
    };
    assert_eq!(ctl.epoch(), good_epoch, "last-good epoch still current");
    assert_eq!(
        all_answers(&mut ctl),
        good_answers,
        "degraded mode serves the last-good epoch byte-identically"
    );

    // Retries back off while the fault persists…
    ctl.tick(next_retry_at).expect("retry tick");
    let Mode::Degraded { attempts: 2, .. } = ctl.mode() else {
        panic!("retry under chaos must fail again");
    };
    // …and an early tick does NOT retry (backoff pacing).
    let Mode::Degraded { next_retry_at, .. } = ctl.mode() else {
        unreachable!()
    };
    ctl.tick(next_retry_at.saturating_sub(1)).expect("early");
    let Mode::Degraded { attempts: 2, .. } = ctl.mode() else {
        panic!("early tick must not burn an attempt");
    };

    // Clearing the chaos lets the pending batch certify and commit.
    ctl.set_chaos_fail_certs(false);
    ctl.tick(next_retry_at).expect("recovery tick");
    assert_eq!(ctl.mode(), Mode::Serving);
    assert_eq!(ctl.epoch(), good_epoch + 1);
    cleanup(&cfg);
}

#[test]
fn degraded_backoff_is_capped() {
    let cfg = base_cfg("backoff");
    let base = cfg.backoff_base_ticks;
    let cap = cfg.backoff_cap_ticks;
    let (mut ctl, _) = Controller::start(cfg.clone()).expect("start");
    ctl.set_chaos_fail_certs(true);
    ctl.ingest(1, &[ChangeSpec::LinkDown(1)]).expect("staged");
    let mut last_delay = 0;
    for attempt in 1..12u32 {
        let Mode::Degraded {
            attempts,
            next_retry_at,
        } = ctl.mode()
        else {
            panic!("must stay degraded under chaos");
        };
        assert_eq!(attempts, attempt);
        let delay = next_retry_at - ctl.now();
        assert!(delay <= cap, "delay {delay} over cap {cap}");
        assert!(delay >= last_delay.min(cap), "backoff must not shrink");
        assert!(delay >= base.min(cap));
        last_delay = delay;
        ctl.tick(next_retry_at).expect("retry");
    }
    assert_eq!(last_delay, cap, "backoff reached the cap");
    cleanup(&cfg);
}

#[test]
fn kill_and_resume_replays_the_schedule_byte_identically() {
    let (_, topo) = xgft::topology_by_name(TOPO).expect("topo");
    let schedule = FaultSchedule::poisson(&topo, 5e-4, 500.0, 3_000, 9);
    assert!(
        schedule.events().len() >= 8,
        "schedule too quiet to be a meaningful test"
    );
    let ticks: Vec<u64> = (1..=6).map(|i| i * 500).collect();

    // Reference: uninterrupted run through every tick.
    let mut cfg_a = base_cfg("resume-a");
    cfg_a.schedule = schedule.clone();
    let (mut a, _) = Controller::start(cfg_a.clone()).expect("start a");
    for &t in &ticks {
        a.tick(t).expect("tick a");
    }
    let (epoch_a, digest_a, answers_a) = (a.epoch(), a.digest(), all_answers(&mut a));
    assert!(epoch_a > 0, "the schedule must commit epochs");

    // Crash run: same schedule, killed (dropped) after the third tick —
    // everything in memory is lost, only checkpoints survive.
    let mut cfg_b = base_cfg("resume-b");
    cfg_b.schedule = schedule.clone();
    let (mut b, _) = Controller::start(cfg_b.clone()).expect("start b");
    for &t in &ticks[..3] {
        b.tick(t).expect("tick b");
    }
    drop(b);

    // Restart resumes the last committed epoch; replaying the remaining
    // ticks must land on the identical state.
    let (mut b2, _) = Controller::start(cfg_b.clone()).expect("restart b");
    assert!(b2.epoch() > 0, "restart resumed a committed epoch");
    for &t in &ticks {
        // Re-issuing already-seen ticks is harmless: the drained-through
        // cursor makes replay idempotent.
        b2.tick(t).expect("tick b2");
    }
    assert_eq!(b2.epoch(), epoch_a, "epoch numbering reproduced");
    assert_eq!(b2.digest(), digest_a, "routing state digest reproduced");
    assert_eq!(
        all_answers(&mut b2),
        answers_a,
        "every path answer byte-identical to the uninterrupted run"
    );
    cleanup(&cfg_a);
    cleanup(&cfg_b);
}

#[test]
fn out_of_range_pairs_are_typed_errors() {
    let cfg = base_cfg("badpair");
    let (mut ctl, _) = Controller::start(cfg.clone()).expect("start");
    let n = ctl.topology().num_pns();
    match ctl.paths(0, &[(0, n)]) {
        Err(CtlError::BadPair(0, d)) => assert_eq!(d, n),
        other => panic!("expected BadPair, got {other:?}"),
    }
    cleanup(&cfg);
}
