//! E11 — degraded-mode routing under random link failures.
//!
//! The experiment body lives here in the library (rather than in the
//! `faults` binary) so the golden-equivalence test can run the exact
//! harness in-process and byte-compare its serialized document against
//! the committed `results/faults_quick.json`.
//!
//! Flow-level evaluation on XGFT(3; 4,4,8; 1,4,4) (the 8-port 3-tree of
//! §5): sample random link-failure sets at several failure rates, route
//! uniform all-to-all traffic through the shared [`SelectionEngine`]
//! (via [`DegradedLoads`]) and report, per heuristic and path budget, the
//! degraded maximum link load and the probability that an SD pair loses
//! connectivity.
//!
//! A second, flit-level section replays a subset of the fault samples
//! through the cycle-accurate simulator — the same engine over the
//! sampled fault set is its router — with the *blocking* fault policy
//! and a watchdog: runs that survive contribute throughput records,
//! runs that jam terminate with a typed
//! [`SimError`](lmpr_flitsim::SimError) that is serialized into the
//! output as a structured failure record (deadlock reports field by
//! field) instead of a bare error string.

use crate::{Failure, Record};
use lmpr_core::{Router, RouterKind, SelectionEngine};
use lmpr_flitsim::{FaultPolicy, FlitSim, SimConfig, TrafficMode};
use lmpr_flowsim::DegradedLoads;
use lmpr_traffic::TrafficMatrix;
use xgft::{FaultSet, Topology, XgftSpec};

/// Seed for the random-K heuristic (a Table-1 seed, unrelated to the
/// fault-sampling seeds).
const RANDOM_K_SEED: u64 = 11;

/// Everything one full harness invocation produced.
#[derive(Debug, Clone)]
pub struct FaultsRun {
    /// Successful-run records (`faults`, `faults-flit`).
    pub records: Vec<Record>,
    /// Structured failures of flit-level replays that jammed.
    pub failures: Vec<Failure>,
}

/// Run the degraded-routing experiment at the quick or full budget.
pub fn run(quick: bool) -> FaultsRun {
    let topo = Topology::new(XgftSpec::m_port_n_tree(8, 3).expect("valid"));
    let label = topo.spec().to_string();
    let tm = TrafficMatrix::uniform(topo.num_pns(), 1.0);
    let fault_seeds: u64 = if quick { 3 } else { 10 };
    let rates = [0.0, 0.01, 0.05];

    println!("E11 — degraded-mode routing under random link failures");
    println!(
        "{label}, uniform all-to-all, {} links, {} fault samples per rate\n",
        topo.num_links(),
        fault_seeds
    );
    println!(
        "{:>6} {:>16} {:>3} {:>14} {:>16}",
        "rate", "scheme", "K", "max load", "P(disconnect)"
    );

    let mut records = Vec::new();
    for rate in rates {
        for (router, k) in schemes() {
            let (mut load_sum, mut disc_sum) = (0.0f64, 0.0f64);
            for seed in 0..fault_seeds {
                let faults = FaultSet::sample(&topo, rate, 0.0, seed);
                let d = DegradedLoads::accumulate(&topo, &router, &tm, &faults);
                load_sum += d.max_load();
                disc_sum += d.disconnection_rate();
            }
            let max_load = load_sum / fault_seeds as f64;
            let p_disc = disc_sum / fault_seeds as f64;
            println!(
                "{:>5.0}% {:>16} {:>3} {:>14.2} {:>16.4}",
                rate * 100.0,
                router.name(),
                k,
                max_load,
                p_disc
            );
            records.push(Record {
                experiment: "faults".into(),
                topology: label.clone(),
                scheme: router.name(),
                k,
                x: rate,
                y: max_load,
                aux: Some(p_disc),
            });
        }
        println!();
    }

    let failures = flit_level_replay(&topo, &label, &mut records, quick);
    FaultsRun { records, failures }
}

/// Replay a subset of the sampled fault sets through the flit simulator
/// under the blocking policy. Surviving runs become throughput records
/// (`experiment: "faults-flit"`); jammed runs become structured failure
/// records carrying the typed deadlock report.
fn flit_level_replay(
    topo: &Topology,
    label: &str,
    records: &mut Vec<Record>,
    quick: bool,
) -> Vec<Failure> {
    let rate = 0.05;
    let seeds: u64 = if quick { 1 } else { 2 };
    let cfg = SimConfig {
        warmup_cycles: 1_000,
        measure_cycles: if quick { 4_000 } else { 8_000 },
        offered_load: 0.3,
        watchdog_cycles: 2_000,
        ..SimConfig::default()
    };
    let mut failures = Vec::new();
    println!(
        "flit-level replay at rate {:.0}%, blocking policy:",
        rate * 100.0
    );
    for (router, k) in [
        (RouterKind::DModK, 1u64),
        (RouterKind::Disjoint(4), 4),
        (RouterKind::Disjoint(8), 8),
    ] {
        for seed in 0..seeds {
            let faults = FaultSet::sample(topo, rate, 0.0, seed);
            let degraded = SelectionEngine::with_view(router, faults.clone());
            let result = FlitSim::with_faults(
                topo,
                degraded,
                cfg,
                TrafficMode::Uniform,
                &faults,
                FaultPolicy::Block,
            )
            .and_then(|mut sim| sim.run());
            match result {
                Ok(stats) => {
                    println!(
                        "  {:>16} K={k} seed={seed}: throughput {:.3}, disconnected {}",
                        router.name(),
                        stats.accepted_throughput(),
                        stats.disconnected_messages
                    );
                    records.push(Record {
                        experiment: "faults-flit".into(),
                        topology: label.to_owned(),
                        scheme: router.name(),
                        k,
                        x: rate,
                        y: stats.accepted_throughput(),
                        aux: Some(stats.disconnected_messages as f64),
                    });
                }
                Err(e) => {
                    println!("  {:>16} K={k} seed={seed}: {e}", router.name());
                    failures.push(Failure {
                        experiment: "faults-flit".into(),
                        topology: label.to_owned(),
                        scheme: router.name(),
                        k,
                        x: rate,
                        seed,
                        error: e,
                    });
                }
            }
        }
    }
    println!();
    failures
}

/// The sweep's heuristic × budget grid: d-mod-k (single-path baseline)
/// plus shift-1, disjoint and random at K ∈ {1, 4, 8}.
fn schemes() -> Vec<(RouterKind, u64)> {
    let mut out = vec![(RouterKind::DModK, 1)];
    for k in [1u64, 4, 8] {
        out.push((RouterKind::ShiftOne(k), k));
        out.push((RouterKind::Disjoint(k), k));
        out.push((RouterKind::RandomK(k, RANDOM_K_SEED), k));
    }
    out
}
