//! Behavioral test suite of the flit simulator: throughput/delay sanity,
//! conservation audits, determinism, fault policies, the dynamic-fault
//! resilience layer and end-to-end retransmission. Exercises only the
//! public API (the suite moved out of `sim.rs` when the monolith was
//! decomposed, which is exactly what keeps it honest).

use lmpr_core::{DModK, Disjoint, SelectionEngine};
use lmpr_flitsim::{
    ConfigError, FaultPolicy, FlitSim, PathPolicy, ResilienceConfig, RetxConfig, SimConfig,
    SimError, TrafficMode,
};
use lmpr_verify::{Diagnostic, RuleId, Severity};
use xgft::{FaultChange, FaultEvent, FaultSchedule, FaultSet, Topology, XgftSpec};

fn small_topo() -> Topology {
    Topology::new(XgftSpec::new(&[4, 4], &[1, 4]).unwrap())
}

fn quick_cfg(load: f64) -> SimConfig {
    SimConfig {
        warmup_cycles: 2_000,
        measure_cycles: 6_000,
        offered_load: load,
        ..SimConfig::default()
    }
}

#[test]
fn low_load_delivers_what_it_injects() {
    let topo = small_topo();
    let stats = FlitSim::simulate(&topo, DModK, quick_cfg(0.1)).expect("valid config");
    let t = stats.accepted_throughput();
    assert!(
        (t - 0.1).abs() < 0.02,
        "at 10% load throughput must track offered load, got {t}"
    );
    assert!(stats.completion_rate() > 0.95);
    assert!(stats.avg_message_delay() > 0.0);
}

#[test]
fn conservation_of_flits() {
    let topo = small_topo();
    let mut sim = FlitSim::new(&topo, Disjoint::new(2), quick_cfg(0.6)).expect("valid config");
    for _ in 0..5_000 {
        sim.step();
    }
    let (injected, delivered) = sim.lifetime_counters();
    assert_eq!(
        injected,
        delivered + sim.flits_in_network(),
        "flits must be conserved"
    );
    assert!(delivered > 0);
    let ledger = sim.conservation_ledger();
    assert!(ledger.flit_balance_holds());
    assert!(ledger.transfer_balance_holds());
    assert!(sim.check_invariants().is_empty());
}

#[test]
fn zero_load_latency_matches_pipeline_depth() {
    // At a vanishing load a message's delay approaches the no-
    // contention pipeline latency: each of the 2κ+1 link crossings
    // costs ~2 cycles (buffer + wire) and the message streams
    // message_flits flits behind its head.
    let topo = small_topo();
    let cfg = SimConfig {
        warmup_cycles: 0,
        measure_cycles: 60_000,
        offered_load: 0.005,
        ..SimConfig::default()
    };
    let stats = FlitSim::simulate(&topo, DModK, cfg).expect("valid config");
    assert!(stats.completed_messages > 10);
    let delay = stats.avg_message_delay();
    // Lower bound: serialization alone (64 flits) plus a couple of
    // hops; upper bound: generous contention-free envelope.
    assert!(delay > 64.0, "delay {delay} below serialization bound");
    assert!(delay < 110.0, "delay {delay} too high for near-zero load");
}

#[test]
fn saturation_backlog_grows_with_overload() {
    let topo = small_topo();
    let low = FlitSim::simulate(&topo, DModK, quick_cfg(0.1)).expect("valid config");
    let high = FlitSim::simulate(&topo, DModK, quick_cfg(1.0)).expect("valid config");
    assert!(high.final_source_backlog > low.final_source_backlog);
    // Overloaded d-mod-k cannot deliver the full offered load.
    assert!(high.accepted_throughput() < 0.95);
}

#[test]
fn multipath_beats_single_path_at_high_load() {
    // On the paper's 3-level Table-1 topology, limited multi-path
    // routing must outperform d-mod-k at high uniform load.
    let topo = Topology::new(XgftSpec::new(&[4, 4, 8], &[1, 4, 4]).unwrap());
    let single = FlitSim::simulate(&topo, DModK, quick_cfg(0.8)).expect("valid config");
    let multi = FlitSim::simulate(&topo, Disjoint::new(4), quick_cfg(0.8)).expect("valid config");
    assert!(
        multi.accepted_throughput() > single.accepted_throughput(),
        "disjoint(4) {:.3} must beat d-mod-k {:.3} at 80% uniform load",
        multi.accepted_throughput(),
        single.accepted_throughput()
    );
}

#[test]
fn policies_all_run() {
    let topo = small_topo();
    for policy in [
        PathPolicy::PerPacketRandom,
        PathPolicy::PerMessageRandom,
        PathPolicy::RoundRobin,
    ] {
        let cfg = SimConfig {
            path_policy: policy,
            ..quick_cfg(0.4)
        };
        let stats = FlitSim::simulate(&topo, Disjoint::new(4), cfg).expect("valid config");
        assert!(
            stats.delivered_flits > 0,
            "policy {policy:?} delivered nothing"
        );
    }
}

#[test]
fn percentiles_bracket_the_mean_and_util_is_sane() {
    let topo = small_topo();
    let mut sim = FlitSim::new(&topo, DModK, quick_cfg(0.4)).expect("valid config");
    let stats = sim.run().expect("no deadlock");
    assert!(stats.delay_p50 > 0.0);
    assert!(stats.delay_p50 <= stats.delay_p95);
    assert!(stats.delay_p95 <= stats.delay_p99);
    assert!(stats.delay_p99 <= stats.max_message_delay as f64);
    assert!(stats.delay_p50 <= stats.avg_message_delay() * 1.5);
    let util = sim.link_utilization();
    assert_eq!(util.len(), sim.graph().num_ports() as usize);
    assert!(util.iter().all(|&u| (0.0..=1.0).contains(&u)));
    // Injection links carry roughly the offered load.
    let pn0_out = util[sim.graph().port_gid(0, 0) as usize];
    assert!(
        (pn0_out - 0.4).abs() < 0.12,
        "PN0 injection utilization {pn0_out}"
    );
}

#[test]
fn deterministic_given_seed() {
    let topo = small_topo();
    let a = FlitSim::simulate(&topo, Disjoint::new(2), quick_cfg(0.5)).expect("valid config");
    let b = FlitSim::simulate(&topo, Disjoint::new(2), quick_cfg(0.5)).expect("valid config");
    assert_eq!(a, b);
    let c = FlitSim::simulate(&topo, Disjoint::new(2), quick_cfg(0.5).with_seed(9))
        .expect("valid config");
    assert_ne!(a, c);
}

#[test]
fn empty_fault_set_is_bit_identical() {
    let topo = small_topo();
    let a = FlitSim::simulate(&topo, DModK, quick_cfg(0.5)).expect("valid config");
    let b = FlitSim::with_faults(
        &topo,
        DModK,
        quick_cfg(0.5),
        TrafficMode::Uniform,
        &FaultSet::default(),
        FaultPolicy::Block,
    )
    .expect("valid config")
    .run()
    .expect("no deadlock");
    assert_eq!(a, b);
    assert_eq!(a.dropped_flits, 0);
    assert_eq!(a.disconnected_messages, 0);
}

#[test]
fn empty_schedule_matches_plain_run() {
    // The resilience layer with nothing to do must be invisible:
    // same RNG consumption, same stats, all resilience counters 0.
    let topo = small_topo();
    let plain = FlitSim::simulate(&topo, Disjoint::new(2), quick_cfg(0.5)).expect("valid");
    let sched = FlitSim::with_schedule(
        &topo,
        Disjoint::new(2),
        quick_cfg(0.5),
        TrafficMode::Uniform,
        FaultSchedule::default(),
        FaultPolicy::Drop,
        ResilienceConfig::default(),
    )
    .expect("valid config")
    .run()
    .expect("no deadlock");
    assert_eq!(plain, sched);
    assert_eq!(sched.reconvergence_events, 0);
    assert_eq!(sched.transfers_created, 0);
    assert_eq!(sched.duplicate_flits, 0);
}

#[test]
fn scripted_outage_dips_and_recovers() {
    // One level-2 up-link dies mid-run and is repaired. Under the
    // blocking policy nothing is lost: traffic jams, the routing
    // view reconverges after the configured lag, and the backlog
    // drains after repair — the run completes with clean invariants.
    let topo = small_topo();
    let link = topo.up_link(2, 0, 0);
    let schedule = FaultSchedule::scripted(vec![
        FaultEvent {
            at: 3_000,
            change: FaultChange::LinkDown(link),
        },
        FaultEvent {
            at: 5_000,
            change: FaultChange::LinkUp(link),
        },
    ]);
    let res = ResilienceConfig {
        detect_cycles: 100,
        reconverge_cycles: 100,
        retx: None,
    };
    let mut sim = FlitSim::with_schedule(
        &topo,
        DModK,
        quick_cfg(0.3),
        TrafficMode::Uniform,
        schedule,
        FaultPolicy::Block,
        res,
    )
    .expect("valid config");
    let stats = sim
        .run()
        .expect("no deadlock: the outage is shorter than the watchdog");
    assert_eq!(stats.reconvergence_events, 2, "one batch down, one up");
    assert!(
        (stats.mean_reconverge_cycles - 200.0).abs() < 1e-9,
        "realized lag must equal detect + reconverge, got {}",
        stats.mean_reconverge_cycles
    );
    assert_eq!(stats.max_reconverge_cycles, 200);
    assert!(
        stats.routes_invalidated > 0,
        "d-mod-k selections crossing the dead link must be flushed"
    );
    assert_eq!(stats.dropped_flits, 0, "blocking policy loses nothing");
    assert!(stats.delivered_flits > 0);
    let diags = sim.check_invariants();
    assert!(diags.is_empty(), "unexpected findings: {diags:?}");
    let sel = sim.selection_stats();
    assert!(sel.hits > 0, "repeat arrivals must hit the shared cache");
    assert_eq!(sel.invalidated, stats.routes_invalidated);
}

#[test]
fn retransmission_recovers_drops() {
    // Drop policy + a long outage: packets routed over the dead link
    // are discarded until the view reconverges; end-to-end
    // retransmission resends them and the ledger accounts for every
    // transfer exactly once.
    let topo = small_topo();
    let link = topo.up_link(2, 0, 0);
    let schedule = FaultSchedule::scripted(vec![
        FaultEvent {
            at: 2_500,
            change: FaultChange::LinkDown(link),
        },
        FaultEvent {
            at: 6_000,
            change: FaultChange::LinkUp(link),
        },
    ]);
    let res = ResilienceConfig {
        detect_cycles: 50,
        reconverge_cycles: 50,
        retx: Some(RetxConfig {
            timeout: 600,
            max_retries: 6,
        }),
    };
    let mut sim = FlitSim::with_schedule(
        &topo,
        DModK,
        quick_cfg(0.4),
        TrafficMode::Uniform,
        schedule,
        FaultPolicy::Drop,
        res,
    )
    .expect("valid config");
    let stats = sim.run().expect("no deadlock");
    assert!(stats.dropped_flits > 0, "the outage must discard something");
    assert!(
        stats.retransmitted_packets > 0,
        "dropped transfers must be retried"
    );
    assert!(stats.transfers_created > 0);
    let ledger = sim.conservation_ledger();
    assert!(ledger.flit_balance_holds(), "flit ledger: {ledger:?}");
    assert!(
        ledger.transfer_balance_holds(),
        "transfer ledger: {ledger:?}"
    );
    let diags = sim.check_invariants();
    assert!(diags.is_empty(), "unexpected findings: {diags:?}");
}

#[test]
fn generous_timeout_never_retransmits_without_faults() {
    // Regression: timeout-heap entries identify transfers by slab
    // slot, and resolved transfers are reaped, so slots are reused
    // long before old deadlines expire. Without the per-transfer
    // sequence tag a stale entry would match the fresh occupant
    // (also on its first send) and retransmit a perfectly healthy
    // packet. With a timeout far above the worst-case delay and no
    // faults, any retransmission at all is the ABA bug.
    let topo = small_topo();
    let res = ResilienceConfig {
        detect_cycles: 0,
        reconverge_cycles: 0,
        retx: Some(RetxConfig {
            timeout: 50_000,
            max_retries: 4,
        }),
    };
    let mut sim = FlitSim::with_schedule(
        &topo,
        DModK,
        quick_cfg(0.5),
        TrafficMode::Uniform,
        FaultSchedule::default(),
        FaultPolicy::Drop,
        res,
    )
    .expect("valid config");
    let stats = sim.run().expect("no deadlock");
    assert_eq!(
        stats.retransmitted_packets, 0,
        "stale timeout entries acted on reused transfer slots"
    );
    assert_eq!(stats.duplicate_flits, 0);
    assert_eq!(stats.transfers_dropped, 0);
}

#[test]
fn duplicates_are_suppressed() {
    // A timeout shorter than the congested delivery delay forces
    // spurious retransmissions: both copies arrive, exactly one
    // counts, and the duplicate monitors stay quiet.
    let topo = small_topo();
    let res = ResilienceConfig {
        detect_cycles: 0,
        reconverge_cycles: 0,
        retx: Some(RetxConfig {
            timeout: 60,
            max_retries: 4,
        }),
    };
    let mut sim = FlitSim::with_schedule(
        &topo,
        DModK,
        quick_cfg(0.8),
        TrafficMode::Uniform,
        FaultSchedule::default(),
        FaultPolicy::Drop,
        res,
    )
    .expect("valid config");
    let stats = sim.run().expect("no deadlock");
    assert!(
        stats.duplicate_flits > 0,
        "a 60-cycle timeout under congestion must produce duplicates"
    );
    assert!(stats.retransmit_ratio() > 0.0);
    let ledger = sim.conservation_ledger();
    assert!(ledger.flit_balance_holds(), "flit ledger: {ledger:?}");
    assert!(
        ledger.transfer_balance_holds(),
        "transfer ledger: {ledger:?}"
    );
    assert!(
        ledger.transfers_delivered + ledger.transfers_dropped <= ledger.transfers_created,
        "no transfer resolves twice"
    );
    let diags = sim.check_invariants();
    assert!(diags.is_empty(), "unexpected findings: {diags:?}");
}

#[test]
fn monitored_chaos_run_is_clean_and_deterministic() {
    let topo = small_topo();
    let cfg = quick_cfg(0.4);
    let run = || {
        let schedule = FaultSchedule::poisson(&topo, 2e-5, 400.0, cfg.horizon(), 11);
        let res = ResilienceConfig {
            detect_cycles: 50,
            reconverge_cycles: 100,
            retx: Some(RetxConfig::default()),
        };
        FlitSim::with_schedule(
            &topo,
            Disjoint::new(2),
            cfg,
            TrafficMode::Uniform,
            schedule,
            FaultPolicy::Drop,
            res,
        )
        .expect("valid config")
        .run_monitored(500)
        .expect("no deadlock")
    };
    let (a, diags_a) = run();
    let (b, _) = run();
    assert_eq!(a, b, "chaos runs must be deterministic in the seed");
    assert!(
        !diags_a.iter().any(|d| d.severity == Severity::Error),
        "invariant errors: {diags_a:?}"
    );
    assert!(a.reconvergence_events > 0, "the schedule must fire");
}

#[test]
fn dropped_flits_balance_the_conservation_audit() {
    let topo = small_topo();
    // Fail one level-2 up-link: inter-group traffic whose d-mod-k
    // path climbs through it is discarded at the failure point.
    let mut faults = FaultSet::new();
    faults.fail_link(topo.up_link(2, 0, 0));
    let mut sim = FlitSim::with_faults(
        &topo,
        DModK,
        quick_cfg(0.5),
        TrafficMode::Uniform,
        &faults,
        FaultPolicy::Drop,
    )
    .expect("valid config");
    for _ in 0..6_000 {
        sim.step();
    }
    let (injected, delivered) = sim.lifetime_counters();
    assert!(
        sim.dropped_in_lifetime() > 0,
        "the failed link saw no traffic"
    );
    assert!(delivered > 0);
    assert_eq!(
        injected,
        delivered + sim.flits_in_network() + sim.dropped_in_lifetime(),
        "conservation under faults: injected = delivered + in-flight + dropped"
    );
    assert!(sim.stats().dropped_flits > 0);
    assert!(sim.conservation_ledger().flit_balance_holds());
}

#[test]
fn blocking_faults_trip_the_watchdog() {
    let topo = small_topo();
    // Sever every PN's injection cable with the blocking policy: the
    // NIC staging buffers fill, then nothing can ever move again.
    let mut faults = FaultSet::new();
    for pn in 0..topo.num_pns() {
        faults.fail_link(topo.up_link(1, pn, 0));
    }
    let cfg = SimConfig {
        watchdog_cycles: 500,
        ..quick_cfg(0.5)
    };
    let err = FlitSim::with_faults(
        &topo,
        DModK,
        cfg,
        TrafficMode::Uniform,
        &faults,
        FaultPolicy::Block,
    )
    .expect("valid config")
    .run()
    .unwrap_err();
    let SimError::Deadlock(report) = err else {
        panic!("expected a deadlock, got {err:?}")
    };
    assert!(report.stalled_for > 500);
    assert!(report.flits_in_network > 0);
    assert!(report.blocked_ports > 0);
    assert!(report.in_flight_packets > 0);
}

#[test]
fn fault_aware_routing_counts_disconnected_messages() {
    let topo = small_topo();
    // PN 0 cannot send (its only up-link is down); a fault-aware
    // router reports its pairs as disconnected instead of panicking,
    // and the rest of the network keeps delivering.
    let mut faults = FaultSet::new();
    faults.fail_link(topo.up_link(1, 0, 0));
    let router = SelectionEngine::with_view(DModK, faults.clone());
    let stats = FlitSim::with_faults(
        &topo,
        router,
        quick_cfg(0.3),
        TrafficMode::Uniform,
        &faults,
        FaultPolicy::Drop,
    )
    .expect("valid config")
    .run()
    .expect("no deadlock");
    assert!(stats.disconnected_messages > 0);
    assert!(stats.delivered_flits > 0);
    // Routing around the failure means nothing is ever dropped.
    assert_eq!(stats.dropped_flits, 0);
}

#[test]
fn persistent_disconnection_drops_with_cause() {
    // PN 0's only up-link dies at cycle 0 and never recovers, with a
    // tiny lag: PN 0's transfers can never be sent and must resolve
    // as dropped (cause: disconnected), keeping the ledger balanced.
    let topo = small_topo();
    let link = topo.up_link(1, 0, 0);
    let schedule = FaultSchedule::scripted(vec![FaultEvent {
        at: 0,
        change: FaultChange::LinkDown(link),
    }]);
    let res = ResilienceConfig {
        detect_cycles: 0,
        reconverge_cycles: 10,
        retx: Some(RetxConfig {
            timeout: 200,
            max_retries: 2,
        }),
    };
    let cfg = SimConfig {
        warmup_cycles: 0,
        measure_cycles: 8_000,
        offered_load: 0.3,
        watchdog_cycles: 0,
        ..SimConfig::default()
    };
    let mut sim = FlitSim::with_schedule(
        &topo,
        DModK,
        cfg,
        TrafficMode::Uniform,
        schedule,
        FaultPolicy::Drop,
        res,
    )
    .expect("valid config");
    let stats = sim.run().expect("watchdog disabled");
    assert!(
        stats.transfers_dropped > 0,
        "PN 0's transfers must exhaust their retries"
    );
    assert!(stats.disconnected_messages > 0);
    let ledger = sim.conservation_ledger();
    assert!(ledger.flit_balance_holds());
    assert!(ledger.transfer_balance_holds());
    let diags = sim.check_invariants();
    assert!(diags.is_empty(), "unexpected findings: {diags:?}");
}

#[test]
fn bad_configs_are_typed_errors_not_panics() {
    let topo = small_topo();
    let bad = SimConfig {
        offered_load: 2.0,
        ..SimConfig::default()
    };
    assert!(matches!(
        FlitSim::simulate(&topo, DModK, bad),
        Err(SimError::Config(_))
    ));
    let bad_traffic = TrafficMode::Permutation(vec![0, 1]);
    assert!(matches!(
        FlitSim::with_traffic(&topo, DModK, quick_cfg(0.5), bad_traffic),
        Err(SimError::Traffic(_))
    ));
    let bad_res = ResilienceConfig {
        retx: Some(RetxConfig {
            timeout: 0,
            max_retries: 1,
        }),
        ..ResilienceConfig::default()
    };
    assert!(matches!(
        FlitSim::with_schedule(
            &topo,
            DModK,
            quick_cfg(0.5),
            TrafficMode::Uniform,
            FaultSchedule::default(),
            FaultPolicy::Drop,
            bad_res,
        )
        .map(|_| ()),
        Err(SimError::Config(ConfigError::ZeroRetxTimeout))
    ));
}

/// Step `sim` to `until`, running the invariant monitors every `every`
/// cycles, and return its `RT-OCCUPANCY` findings (other rules may
/// legitimately warn, e.g. `RT-PROGRESS` behind a blocking fault).
fn occupancy_findings_while_stepping<R: lmpr_core::Router>(
    sim: &mut FlitSim<R>,
    until: u64,
    every: u64,
) -> Vec<Diagnostic> {
    let mut findings = Vec::new();
    while sim.now() < until {
        sim.step();
        if sim.now().is_multiple_of(every) {
            findings.extend(
                sim.check_invariants()
                    .into_iter()
                    .filter(|d| d.rule == RuleId::RtOccupancy),
            );
        }
    }
    findings
}

/// The churn configuration of the occupancy tests: Poisson link churn,
/// dropped packets, retransmission — every way a flit can leave a
/// buffer.
fn churn_sim(topo: &Topology) -> FlitSim<Disjoint> {
    let cfg = quick_cfg(0.6);
    let schedule = FaultSchedule::poisson(topo, 1e-4, 300.0, cfg.horizon(), 5);
    assert!(!schedule.is_empty());
    let res = ResilienceConfig {
        detect_cycles: 20,
        reconverge_cycles: 60,
        retx: Some(RetxConfig {
            timeout: 500,
            max_retries: 4,
        }),
    };
    FlitSim::with_schedule(
        topo,
        Disjoint::new(2),
        cfg,
        TrafficMode::Uniform,
        schedule,
        FaultPolicy::Drop,
        res,
    )
    .expect("valid config")
}

#[test]
fn occupancy_state_tracks_the_buffers_in_every_fault_mode() {
    // RT-OCCUPANCY recomputes the request rows, the stage worklists and
    // the other derived state from the buffers and compares. It must
    // stay silent on a plain run, behind a static fault under either
    // policy (Block jams queues full, Drop drains truncated packets),
    // and under scheduled churn with retransmission.
    let topo = small_topo();
    let mut plain = FlitSim::new(&topo, Disjoint::new(2), quick_cfg(0.7)).expect("valid config");
    let found = occupancy_findings_while_stepping(&mut plain, 3_000, 7);
    assert!(found.is_empty(), "plain: {found:?}");
    assert!(plain.lifetime_counters().1 > 0);

    let mut faults = FaultSet::new();
    faults.fail_link(topo.up_link(2, 0, 0));
    for policy in [FaultPolicy::Block, FaultPolicy::Drop] {
        let cfg = SimConfig {
            watchdog_cycles: 0,
            ..quick_cfg(0.5)
        };
        let mut sim =
            FlitSim::with_faults(&topo, DModK, cfg, TrafficMode::Uniform, &faults, policy)
                .expect("valid config");
        let found = occupancy_findings_while_stepping(&mut sim, 3_000, 7);
        assert!(found.is_empty(), "{policy:?}: {found:?}");
        assert!(sim.lifetime_counters().1 > 0);
        assert_eq!(
            sim.dropped_in_lifetime() > 0,
            policy == FaultPolicy::Drop,
            "{policy:?} must exercise its own path"
        );
    }

    let mut churn = churn_sim(&topo);
    let found = occupancy_findings_while_stepping(&mut churn, 6_000, 7);
    assert!(found.is_empty(), "churn: {found:?}");
    let stats = churn.stats();
    assert!(stats.reconvergence_events > 0 && stats.dropped_flits > 0);
    assert!(stats.retransmitted_packets > 0);
}

#[test]
fn occupancy_state_holds_on_a_switch_wider_than_one_word() {
    // One level-1 switch with 70 ports: request rows and the ejection
    // worklist both span two words, and round-robin pointers wrap
    // across the word boundary.
    let topo = Topology::new(XgftSpec::new(&[70], &[1]).unwrap());
    let mut sim = FlitSim::new(&topo, DModK, quick_cfg(0.6)).expect("valid config");
    assert_eq!(sim.graph().ports_of(topo.num_pns()).len(), 70);
    let found = occupancy_findings_while_stepping(&mut sim, 4_000, 5);
    assert!(found.is_empty(), "{found:?}");
    let stats = sim.run().expect("no deadlock");
    assert!(
        (stats.accepted_throughput() - 0.6).abs() < 0.05,
        "a single non-blocking switch must carry the offered load, got {}",
        stats.accepted_throughput()
    );
    // Every port both sent and received: inputs and outputs on both
    // sides of the word boundary arbitrated.
    let util = sim.link_utilization();
    assert!(util.iter().all(|&u| u > 0.3), "idle port: {util:?}");
}
