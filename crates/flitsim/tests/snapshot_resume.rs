//! Crash-consistency certificates for the snapshot subsystem: a restore
//! at *any* cycle — mid-packet, mid-retransmission-backoff, between a
//! fault and its reconvergence — resumes the exact simulation, proven by
//! comparing final statistics, conservation ledgers, and the complete
//! re-serialized state byte for byte against the uninterrupted run.

use lmpr_codec::xoshiro::Xoshiro256pp;
use lmpr_core::{DModK, Disjoint, ShiftOne};
use lmpr_flitsim::{
    FaultPolicy, FlitSim, MonitorLog, ResilienceConfig, RetxConfig, SimConfig, SimStats,
    SnapshotError, TrafficMode, SNAPSHOT_VERSION,
};
use xgft::{FaultChange, FaultEvent, FaultSchedule, FaultSet, Topology, XgftSpec};

fn small_topo() -> Topology {
    Topology::new(XgftSpec::new(&[4, 4], &[1, 4]).unwrap())
}

fn cfg(load: f64) -> SimConfig {
    SimConfig {
        warmup_cycles: 1_000,
        measure_cycles: 4_000,
        offered_load: load,
        ..SimConfig::default()
    }
}

fn step_to<R: lmpr_core::Router>(sim: &mut FlitSim<R>, cycle: u64) {
    while sim.now() < cycle {
        sim.step();
    }
}

/// Scripted fail→recover timeline used by the resilient-config tests:
/// one top-level uplink dies mid-run and comes back.
fn scripted_schedule(topo: &Topology) -> FaultSchedule {
    let link = topo.up_link(2, 0, 0);
    FaultSchedule::scripted(vec![
        FaultEvent {
            at: 1_500,
            change: FaultChange::LinkDown(link),
        },
        FaultEvent {
            at: 3_000,
            change: FaultChange::LinkUp(link),
        },
    ])
}

fn resilient_sim(topo: &Topology) -> FlitSim<ShiftOne> {
    FlitSim::with_schedule(
        topo,
        ShiftOne::new(4),
        cfg(0.5),
        TrafficMode::Uniform,
        scripted_schedule(topo),
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
    .expect("valid resilient config")
}

/// Drive `make_sim()` once to the horizon uninterrupted, and once per
/// snapshot cycle with a snapshot → restore → resume in the middle.
/// Every resumed run must match the uninterrupted one in stats, ledger,
/// and full re-serialized state.
fn assert_resume_equivalence<R, F, G>(make_sim: F, make_router: G, snap_cycles: &[u64])
where
    R: lmpr_core::Router,
    F: Fn() -> FlitSim<R>,
    G: Fn() -> R,
{
    // Both configs in this suite use warmup 1_000 + measure 4_000.
    let end = 5_000u64;
    let mut uninterrupted = make_sim();
    step_to(&mut uninterrupted, end);
    let final_stats = uninterrupted.stats();
    let final_ledger = uninterrupted.conservation_ledger();
    let final_bytes = uninterrupted.snapshot();

    // Single recording pass: walk one sim along the timeline, exporting
    // a snapshot as each requested cycle is reached.
    let mut cycles: Vec<u64> = snap_cycles.to_vec();
    cycles.sort_unstable();
    cycles.dedup();
    let mut recorder = make_sim();
    let mut snapshots = Vec::with_capacity(cycles.len());
    for &c in &cycles {
        step_to(&mut recorder, c);
        snapshots.push((c, recorder.snapshot()));
    }

    for (c, bytes) in snapshots {
        let mut resumed = FlitSim::restore(make_router(), &bytes)
            .unwrap_or_else(|e| panic!("restore at cycle {c} failed: {e}"));
        assert_eq!(resumed.now(), c, "restored sim must resume at cycle {c}");
        // The restored state itself must re-serialize to the same bytes
        // (round-trip state equality).
        assert_eq!(
            resumed.snapshot(),
            bytes,
            "snapshot at cycle {c} must round-trip byte-identically"
        );
        step_to(&mut resumed, end);
        assert_eq!(
            resumed.stats(),
            final_stats,
            "stats diverged after resuming from cycle {c}"
        );
        assert_eq!(
            resumed.conservation_ledger(),
            final_ledger,
            "conservation ledger diverged after resuming from cycle {c}"
        );
        assert_eq!(
            resumed.snapshot(),
            final_bytes,
            "final state diverged after resuming from cycle {c}"
        );
    }
}

#[test]
fn plain_config_resumes_byte_identically() {
    let topo = small_topo();
    assert_resume_equivalence(
        || FlitSim::new(&topo, Disjoint::new(2), cfg(0.6)).expect("valid config"),
        || Disjoint::new(2),
        &[1, 777, 2_500, 4_999],
    );
}

#[test]
fn static_faults_resume_byte_identically() {
    let topo = small_topo();
    let mut faults = FaultSet::new();
    faults.fail_link(topo.up_link(1, 0, 0));
    assert_resume_equivalence(
        || {
            FlitSim::with_faults(
                &topo,
                DModK,
                cfg(0.3),
                TrafficMode::Uniform,
                &faults,
                FaultPolicy::Drop,
            )
            .expect("valid config")
        },
        || DModK,
        &[100, 3_333],
    );
}

#[test]
fn resilient_config_resumes_from_random_cycles() {
    // The property test of the issue: snapshot at uniformly random
    // cycles — including mid-packet cycles, cycles inside the
    // fail→recover outage, and cycles inside a retransmission backoff
    // window — and require bit-exact resume equivalence.
    let topo = small_topo();
    let mut rng = Xoshiro256pp::seed_from_u64(0x5EED_CAFE);
    let mut cycles: Vec<u64> = (0..8).map(|_| 1 + rng.below(4_999)).collect();
    // Deterministically cover the interesting windows too: just after
    // the failure (drops arm backoff timers), deep in the outage, and
    // just after recovery while the routing view still lags.
    cycles.extend([1_501, 2_200, 3_001, 3_150]);
    assert_resume_equivalence(|| resilient_sim(&topo), || ShiftOne::new(4), &cycles);
}

#[test]
fn monitored_segments_match_uninterrupted_run() {
    // The orchestrator's driving pattern: run_monitored_until to an
    // arbitrary (unaligned) cycle, snapshot, restore in a fresh process,
    // continue with the same MonitorLog cadence. Stats and findings must
    // match an uninterrupted run_monitored.
    let topo = small_topo();
    let (base_stats, base_report) = resilient_sim(&topo)
        .run_monitored(500)
        .expect("uninterrupted run");

    let mut first = resilient_sim(&topo);
    let mut log = MonitorLog::new();
    let fatal = first
        .run_monitored_until(2_345, 500, &mut log)
        .expect("first segment");
    assert!(!fatal, "scripted run must be invariant-clean");
    let bytes = first.snapshot();
    drop(first);

    let mut second = FlitSim::restore(ShiftOne::new(4), &bytes).expect("restore");
    let fatal = second
        .run_monitored_until(u64::MAX, 500, &mut log)
        .expect("second segment");
    assert!(!fatal);
    log.absorb(second.check_invariants());

    assert_eq!(second.stats(), base_stats);
    let resumed_report = log.into_findings();
    assert_eq!(resumed_report.len(), base_report.len());
    for (a, b) in resumed_report.iter().zip(base_report.iter()) {
        assert_eq!(a.rule, b.rule);
        assert_eq!(a.severity, b.severity);
        assert_eq!(a.message, b.message);
    }
}

#[test]
fn corrupted_snapshots_are_rejected_with_typed_errors() {
    let topo = small_topo();
    let mut sim = resilient_sim(&topo);
    step_to(&mut sim, 2_000);
    let good = sim.snapshot();

    // Pristine bytes restore fine.
    assert!(FlitSim::restore(ShiftOne::new(4), &good).is_ok());

    // Truncation below the header.
    assert_eq!(
        FlitSim::restore(ShiftOne::new(4), &good[..10]).err(),
        Some(SnapshotError::TooShort)
    );

    // Foreign magic.
    let mut bad = good.clone();
    bad[0] ^= 0xFF;
    assert_eq!(
        FlitSim::restore(ShiftOne::new(4), &bad).err(),
        Some(SnapshotError::BadMagic)
    );

    // A version from the future.
    let mut bad = good.clone();
    bad[8..12].copy_from_slice(&(SNAPSHOT_VERSION + 1).to_le_bytes());
    assert_eq!(
        FlitSim::restore(ShiftOne::new(4), &bad).err(),
        Some(SnapshotError::UnsupportedVersion(SNAPSHOT_VERSION + 1))
    );

    // Truncated payload: the declared length no longer matches.
    let cut = good.len() - 7;
    assert!(matches!(
        FlitSim::restore(ShiftOne::new(4), &good[..cut]).err(),
        Some(SnapshotError::LengthMismatch { .. })
    ));

    // Every single-bit payload corruption is caught by the checksum.
    let mut rng = Xoshiro256pp::seed_from_u64(42);
    for _ in 0..32 {
        let mut bad = good.clone();
        let i = 28 + rng.index(bad.len() - 28);
        bad[i] ^= 1 << rng.below(8);
        assert!(
            matches!(
                FlitSim::restore(ShiftOne::new(4), &bad).err(),
                Some(SnapshotError::ChecksumMismatch { .. })
            ),
            "bit flip at byte {i} must be detected"
        );
    }
}

#[test]
fn snapshot_stats_survive_roundtrip_exactly() {
    // f64 statistics (sum of delays, arrival clocks) are serialized as
    // raw bits — the restored stats must be *equal*, not approximately
    // equal.
    let topo = small_topo();
    let mut sim = FlitSim::new(&topo, DModK, cfg(0.4)).expect("valid config");
    step_to(&mut sim, 3_000);
    let stats_before: SimStats = sim.stats();
    let restored = FlitSim::restore(DModK, &sim.snapshot()).expect("restore");
    assert_eq!(restored.stats(), stats_before);
    assert_eq!(restored.conservation_ledger(), sim.conservation_ledger());
}
