//! E13 — chaos harness: service degradation under dynamic fault churn.
//!
//! The experiment bodies live here in the library (rather than in the
//! `chaos` binary) so the golden-equivalence test can run the exact
//! harness in-process and byte-compare its serialized document against
//! the committed `results/chaos_quick.json`.
//!
//! Two experiments on the runtime-resilience layer:
//!
//! 1. **Degradation sweep** — on the 8-port 3-tree of §5, every directed
//!    link independently fails and repairs as a seeded Poisson renewal
//!    process. For each fault rate × scheme × K the simulator runs with
//!    online reconvergence (lagged routing view over the shared
//!    selection cache) and end-to-end retransmission, with the runtime
//!    invariant monitors armed. Emitted curves: accepted throughput,
//!    p50/p99 message latency, retransmit ratio and time-to-reconverge
//!    versus fault rate.
//! 2. **Scripted fail → recover** — a single up-link of a 2-level XGFT
//!    dies mid-run and is repaired later, under permutation traffic that
//!    concentrates a measurable share of the load on it. Windowed
//!    throughput (averaged over seeds) shows the dip at the failure and
//!    the return to baseline once the routing view reconverges — well
//!    before the physical repair — with the realized time-to-reconverge
//!    reported from the run stats.
//!
//! Every run is checked for exact conservation (injected equals
//! delivered plus duplicates plus dropped plus in-flight; transfers
//! created equals delivered-once plus dropped-with-cause plus
//! in-flight) and for invariant diagnostics; any violation is counted
//! in the output so callers (the binary, CI's golden test) can gate on
//! a seeded chaos smoke run.

use crate::{Failure, Record};
use lmpr_core::{Router, RouterKind};
use lmpr_flitsim::{
    FaultPolicy, FlitSim, ResilienceConfig, RetxConfig, SimConfig, SimError, SimStats, TrafficMode,
};
use lmpr_verify::{Diagnostic, Severity};
use xgft::{FaultChange, FaultEvent, FaultSchedule, Topology, XgftSpec};

/// Mean repair time of the Poisson churn process, cycles.
const MEAN_REPAIR: f64 = 1_500.0;

/// Detection + reconvergence lag of the sweep runs.
const SWEEP_RESILIENCE: ResilienceConfig = ResilienceConfig {
    detect_cycles: 50,
    reconverge_cycles: 150,
    retx: Some(RetxConfig {
        timeout: 4_000,
        max_retries: 5,
    }),
};

/// Everything one full harness invocation produced.
#[derive(Debug, Clone)]
pub struct ChaosRun {
    /// Successful-run records (`chaos-throughput`, `chaos-delay`,
    /// `chaos-reconverge`, `chaos-scripted`, `chaos-scripted-summary`).
    pub records: Vec<Record>,
    /// Structured failures of runs that returned a typed error.
    pub failures: Vec<Failure>,
    /// Invariant violations detected across all runs (conservation,
    /// monitor diagnostics, shape checks).
    pub violations: u32,
}

/// Run both chaos experiments at the quick or full statistical budget.
pub fn run(quick: bool) -> ChaosRun {
    let mut out = ChaosRun {
        records: Vec::new(),
        failures: Vec::new(),
        violations: 0,
    };
    degradation_sweep(quick, &mut out);
    scripted_outage(quick, &mut out);
    out
}

/// The rendered error-severity findings among `diags`.
fn errors(diags: Vec<Diagnostic>) -> Vec<String> {
    diags
        .into_iter()
        .filter(|d| d.severity == Severity::Error)
        .map(|d| d.to_string())
        .collect()
}

/// Run one (rate, scheme, seed) cell of the sweep under the invariant
/// monitors, and audit its conservation ledger at the end. Returns the
/// stats and the error-severity findings, rendered.
fn sweep_seed(
    topo: &Topology,
    cfg: SimConfig,
    rate: f64,
    router: RouterKind,
    seed: u64,
) -> Result<(SimStats, Vec<String>), SimError> {
    let schedule = FaultSchedule::poisson(topo, rate, MEAN_REPAIR, cfg.horizon(), 100 + seed);
    let mut sim = FlitSim::with_schedule(
        topo,
        router,
        cfg.with_seed(cfg.seed ^ seed),
        TrafficMode::Uniform,
        schedule,
        FaultPolicy::Drop,
        SWEEP_RESILIENCE,
    )?;
    let (stats, mut diags) = sim.run_monitored(1_000)?;
    let ledger = sim.conservation_ledger();
    if !ledger.flit_balance_holds() || !ledger.transfer_balance_holds() {
        // check() renders the precise imbalance as RT-CONSERVE errors.
        ledger.check(&mut diags);
    }
    Ok((stats, errors(diags)))
}

/// Experiment 1: the degradation sweep on the 8-port 3-tree, fault rate
/// × scheme × seed.
fn degradation_sweep(quick: bool, out: &mut ChaosRun) {
    let topo = Topology::new(XgftSpec::m_port_n_tree(8, 3).expect("valid"));
    let label = topo.spec().to_string();
    let cfg = SimConfig {
        warmup_cycles: 2_000,
        measure_cycles: if quick { 6_000 } else { 20_000 },
        offered_load: 0.4,
        ..SimConfig::default()
    };
    let rates: Vec<f64> = if quick {
        vec![0.0, 5e-5, 1e-4]
    } else {
        vec![0.0, 1e-5, 5e-5, 1e-4]
    };
    let mut schemes: Vec<(RouterKind, u64)> = vec![
        (RouterKind::DModK, 1),
        (RouterKind::ShiftOne(4), 4),
        (RouterKind::Disjoint(4), 4),
    ];
    if !quick {
        schemes.extend([(RouterKind::ShiftOne(8), 8), (RouterKind::Disjoint(8), 8)]);
    }
    let seeds: u64 = if quick { 2 } else { 4 };

    println!("E13 — chaos degradation sweep");
    println!(
        "{label}, uniform traffic at load {:.1}, Poisson link churn (mean repair {MEAN_REPAIR} \
         cycles), drop policy, retransmission on, view lag {} cycles\n",
        cfg.offered_load,
        SWEEP_RESILIENCE.lag()
    );
    println!(
        "{:>10} {:>12} {:>3} {:>10} {:>8} {:>8} {:>9} {:>10}",
        "fail rate", "scheme", "K", "thruput", "p50", "p99", "retx", "reconv"
    );

    // (scheme name, k, rate) -> seed-mean throughput, for the
    // degradation-ordering check after the table.
    let mut thru_by_cell: Vec<(String, u64, f64, f64)> = Vec::new();
    for &rate in &rates {
        for &(router, k) in &schemes {
            let mut runs: Vec<SimStats> = Vec::new();
            for seed in 0..seeds {
                match sweep_seed(&topo, cfg, rate, router, seed) {
                    Ok((run, errors)) => {
                        for msg in &errors {
                            eprintln!("  INVARIANT {} {}: {}", router.name(), rate, msg);
                            out.violations += 1;
                        }
                        runs.push(run);
                    }
                    Err(error) => {
                        eprintln!(
                            "  FAILED {} rate {rate} seed {seed}: {error}",
                            router.name()
                        );
                        out.failures.push(Failure {
                            experiment: "chaos-sweep".into(),
                            topology: label.clone(),
                            scheme: router.name(),
                            k,
                            x: rate,
                            seed,
                            error,
                        });
                    }
                }
            }
            if runs.is_empty() {
                continue;
            }
            let n = runs.len() as f64;
            let thru = runs.iter().map(SimStats::accepted_throughput).sum::<f64>() / n;
            let p50 = runs.iter().map(|s| s.delay_p50).sum::<f64>() / n;
            let p99 = runs.iter().map(|s| s.delay_p99).sum::<f64>() / n;
            let retx = runs.iter().map(SimStats::retransmit_ratio).sum::<f64>() / n;
            let reconv = runs.iter().map(|s| s.mean_reconverge_cycles).sum::<f64>() / n;
            let max_reconv = runs
                .iter()
                .map(|s| s.max_reconverge_cycles)
                .max()
                .unwrap_or(0);
            println!(
                "{:>10.0e} {:>12} {:>3} {:>10.4} {:>8.0} {:>8.0} {:>9.4} {:>10.0}",
                rate,
                router.name(),
                k,
                thru,
                p50,
                p99,
                retx,
                reconv
            );
            let mk = |experiment: &str, y: f64, aux: f64| Record {
                experiment: experiment.into(),
                topology: label.clone(),
                scheme: router.name(),
                k,
                x: rate,
                y,
                aux: Some(aux),
            };
            out.records.push(mk("chaos-throughput", thru, retx));
            out.records.push(mk("chaos-delay", p50, p99));
            out.records
                .push(mk("chaos-reconverge", reconv, max_reconv as f64));
            thru_by_cell.push((router.name(), k, rate, thru));
        }
        println!();
    }

    // Degradation ordering: under link churn the disjoint selection
    // must hold up at least as well as the shift-1 window at the same
    // budget (a failed link kills at most one link-disjoint path but
    // can take out a whole shift-1 window through a shared first hop).
    // Compared on throughput averaged over the nonzero fault rates —
    // single rate points sit within seed noise of each other. The check
    // gates the exit code only in full mode; the quick smoke run keeps
    // it informational (its reduced seed/window budget leaves the two
    // schemes within noise) and gates on invariants alone.
    let faulty_mean = |scheme: &str| {
        let cells: Vec<f64> = thru_by_cell
            .iter()
            .filter(|(s, _, rate, _)| s == scheme && *rate > 0.0)
            .map(|&(_, _, _, t)| t)
            .collect();
        (!cells.is_empty()).then(|| cells.iter().sum::<f64>() / cells.len() as f64)
    };
    for &(_, k) in schemes
        .iter()
        .filter(|(r, _)| matches!(r, RouterKind::Disjoint(_)))
    {
        let (dis, shf) = (format!("disjoint({k})"), format!("shift-1({k})"));
        let (Some(d), Some(s)) = (faulty_mean(&dis), faulty_mean(&shf)) else {
            continue;
        };
        let ok = d >= s;
        println!(
            "degradation check K={k}: mean faulty throughput {dis} {d:.4} {} {shf} {s:.4}{}",
            if ok { ">=" } else { "<" },
            if ok || quick { "" } else { "  <- VIOLATION" }
        );
        if !ok && !quick {
            out.violations += 1;
        }
    }
    println!();
}

/// Experiment 2: a single up-link of a 2-level XGFT fails mid-run and
/// is repaired later, under a permutation that loads it; windowed
/// throughput averaged over seeds.
fn scripted_outage(quick: bool, out: &mut ChaosRun) {
    let topo = Topology::new(XgftSpec::new(&[4, 4], &[1, 4]).expect("valid"));
    let label = topo.spec().to_string();
    let link = topo.up_link(2, 0, 0);
    let (fail_at, recover_at, horizon) = (6_000u64, 12_000u64, 16_000u64);
    let res = ResilienceConfig {
        detect_cycles: 1_500,
        reconverge_cycles: 2_500,
        retx: None,
    };
    let window = 1_000u64;
    let seeds: u64 = if quick { 3 } else { 5 };
    // Shift-by-4 permutation: every flow is inter-group and d-mod-k
    // pins flow 0→4 entirely onto the scripted link, so the dip is a
    // fixed, visible share (1/16) of total throughput.
    let perm: Vec<u32> = (0..topo.num_pns())
        .map(|i| (i + 4) % topo.num_pns())
        .collect();
    let cfg = SimConfig {
        warmup_cycles: 0,
        measure_cycles: horizon,
        offered_load: 0.6,
        packets_per_message: 1,
        ..SimConfig::default()
    };

    println!("E13 — scripted fail → recover on a single up-link");
    println!(
        "{label}, shift-4 permutation, d-mod-k; link down at {fail_at}, repaired at \
         {recover_at}; view lag {} cycles, drop policy\n",
        res.lag()
    );

    let n_windows = (horizon / window) as usize;
    let mut window_thru = vec![0.0f64; n_windows];
    let mut reconv_mean = 0.0f64;
    for seed in 0..seeds {
        let schedule = FaultSchedule::scripted(vec![
            FaultEvent {
                at: fail_at,
                change: FaultChange::LinkDown(link),
            },
            FaultEvent {
                at: recover_at,
                change: FaultChange::LinkUp(link),
            },
        ]);
        let built = FlitSim::with_schedule(
            &topo,
            RouterKind::DModK,
            cfg.with_seed(cfg.seed ^ (7 * seed)),
            TrafficMode::Permutation(perm.clone()),
            schedule,
            FaultPolicy::Drop,
            res,
        );
        let mut sim = match built {
            Ok(sim) => sim,
            Err(error) => {
                eprintln!("  FAILED scripted seed {seed}: {error}");
                out.failures.push(Failure {
                    experiment: "chaos-scripted".into(),
                    topology: label.clone(),
                    scheme: "d-mod-k".into(),
                    k: 1,
                    x: fail_at as f64,
                    seed,
                    error,
                });
                continue;
            }
        };
        let mut prev_delivered = 0u64;
        for (w, slot) in (0u64..).zip(window_thru.iter_mut()) {
            while sim.now() < (w + 1) * window {
                sim.step();
            }
            let (_, delivered) = sim.lifetime_counters();
            *slot += (delivered - prev_delivered) as f64
                / (window as f64 * topo.num_pns() as f64 * seeds as f64);
            prev_delivered = delivered;
        }
        reconv_mean += sim.stats().mean_reconverge_cycles / seeds as f64;
        for msg in errors(sim.check_invariants()) {
            eprintln!("  INVARIANT scripted seed {seed}: {msg}");
            out.violations += 1;
        }
    }

    println!("{:>8} {:>12}", "cycle", "throughput");
    for (w, &t) in window_thru.iter().enumerate() {
        let end = (w as u64 + 1) * window;
        let note = if end == fail_at + window {
            "  <- link down"
        } else if end == recover_at + window {
            "  <- link repaired"
        } else {
            ""
        };
        println!("{:>8} {:>12.4}{note}", end, t);
        out.records.push(Record {
            experiment: "chaos-scripted".into(),
            topology: label.clone(),
            scheme: "d-mod-k".into(),
            k: 1,
            x: end as f64,
            y: t,
            aux: None,
        });
    }

    // Dip-and-recovery analysis over the averaged windows.
    let avg = |lo: u64, hi: u64| {
        let (mut sum, mut n) = (0.0, 0u32);
        for (w, &t) in window_thru.iter().enumerate() {
            let (s, e) = (w as u64 * window, (w as u64 + 1) * window);
            if s >= lo && e <= hi {
                sum += t;
                n += 1;
            }
        }
        sum / n.max(1) as f64
    };
    let baseline = avg(2_000, fail_at);
    let outage = avg(fail_at, fail_at + res.lag());
    let reconverged = avg(fail_at + res.lag() + window, recover_at);
    println!(
        "\nbaseline {:.4}, during outage (pre-reconvergence) {:.4}, after reconvergence {:.4}",
        baseline, outage, reconverged
    );
    println!("mean time-to-reconverge reported by stats: {reconv_mean:.0} cycles");
    let dipped = outage < baseline - 0.02;
    let recovered = (reconverged - baseline).abs() < 0.02;
    println!("dip visible: {dipped}; recovered within the view lag: {recovered}\n");
    if !dipped || !recovered {
        eprintln!("chaos: scripted outage did not show the expected dip-and-recover shape");
        out.violations += 1;
    }
    out.records.push(Record {
        experiment: "chaos-scripted-summary".into(),
        topology: label.clone(),
        scheme: "d-mod-k".into(),
        k: 1,
        x: reconv_mean,
        y: baseline - outage,
        aux: Some(reconverged - baseline),
    });
}
