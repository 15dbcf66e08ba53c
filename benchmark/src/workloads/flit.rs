//! `flit_sweep` and `flit_churn`: the flit-level simulator's `step()`
//! on `XGFT(3; 4,4,8; 1,4,4)` with `Disjoint(4)` under uniform traffic
//! — Figure 5's sweep, and the same fabric under Poisson link churn.
//! Work unit: one simulated cycle; operation: 125 cycles.

use super::FAULT_SEED;
use crate::harness::{timed_op, BlockOut, Checks, Metrics, Workload};
use crate::trace::Tracer;
use lmpr_core::Disjoint;
use lmpr_flitsim::{FaultPolicy, FlitSim, ResilienceConfig, RetxConfig, SimConfig, TrafficMode};
use xgft::{FaultSchedule, Topology, XgftSpec};

/// Cycles per operation.
pub const OP_CYCLES: u64 = 125;

/// Offered loads of the sweep, with the suffix their metrics carry.
pub const LOADS: [(f64, &str); 3] = [(0.1, "load10"), (0.5, "load50"), (0.9, "load90")];
/// Per load: warm-up cycles (set-up), then timed cycles.
pub const SWEEP_WARMUP: u64 = 1_000;
pub const SWEEP_CYCLES: u64 = 6_000;

/// Churn run: warm-up cycles (set-up), timed cycles, Poisson per-link
/// failure rate and mean repair time (cycles), detection and
/// reconvergence lag.
pub const CHURN_WARMUP: u64 = 1_000;
pub const CHURN_CYCLES: u64 = 15_000;
pub const CHURN_FAIL_RATE: f64 = 5e-5;
pub const CHURN_MEAN_REPAIR: f64 = 1_500.0;
pub const CHURN_RESILIENCE: ResilienceConfig = ResilienceConfig {
    detect_cycles: 50,
    reconverge_cycles: 150,
    retx: Some(RetxConfig {
        timeout: 2_000,
        max_retries: 4,
    }),
};

pub const K: u64 = 4;

pub fn topology() -> Topology {
    Topology::new(XgftSpec::new(&[4, 4, 8], &[1, 4, 4]).expect("valid spec"))
}

type Sim = FlitSim<Disjoint>;

/// The untimed cycles that fill the network before the block.
fn warm_up(sim: &mut Sim, cycles: u64, tr: &mut Tracer) {
    tr.call("flitsim.warmup", || {
        for _ in 0..cycles {
            sim.step();
        }
    });
}

/// Step `sim` through `cycles` as timed operations of [`OP_CYCLES`].
fn run_ops(sim: &mut Sim, cycles: u64, tr: &mut Tracer, ops: &mut Vec<f64>) {
    for _ in 0..cycles / OP_CYCLES {
        let index = ops.len();
        timed_op(tr, index, ops, |tr| {
            for _ in 0..OP_CYCLES {
                tr.call("flitsim.step", || sim.step());
            }
        });
    }
}

/// Flit conservation over the simulator's lifetime: every flit ever
/// injected was delivered, suppressed as a duplicate, dropped at a dead
/// link, or is still in a buffer.
fn check_conservation(sim: &Sim, what: &str, checks: &mut Checks) {
    let (injected, delivered) = sim.lifetime_counters();
    let accounted = delivered
        + sim.duplicates_in_lifetime()
        + sim.dropped_in_lifetime()
        + sim.flits_in_network();
    checks.check(injected == accounted && injected > 0, || {
        format!("{what}: {injected} flits injected but {accounted} accounted for")
    });
}

/// Facts of one finished simulation, suffixed with `tag`.
fn sim_facts(sim: &Sim, tag: &str, out: &mut BlockOut) {
    let s = sim.stats();
    out.put_fact(format!("delivered.{tag}"), s.delivered_flits);
    out.put_fact(format!("injected.{tag}"), s.injected_flits);
    out.put_fact(format!("delay_p99.{tag}"), s.delay_p99 as u64);
}

/// Figure 5's sweep: three offered loads in turn. Per-cycle fixed cost,
/// buffers and arbitration dominate; the plain routing view recomputes
/// selections per packet without a cache.
pub struct FlitSweep {
    seed: u64,
    topo: Topology,
}

impl FlitSweep {
    pub fn new(seed: u64) -> Self {
        FlitSweep {
            seed,
            topo: topology(),
        }
    }
}

impl Workload for FlitSweep {
    type State = Vec<Sim>;

    fn name(&self) -> &'static str {
        "flit_sweep"
    }

    fn work_units(&self) -> f64 {
        (LOADS.len() as u64 * SWEEP_CYCLES) as f64
    }

    fn prepare(&mut self, tr: &mut Tracer, _: &mut Checks) -> Vec<Sim> {
        LOADS
            .iter()
            .map(|&(load, _)| {
                let cfg = SimConfig {
                    warmup_cycles: SWEEP_WARMUP,
                    measure_cycles: SWEEP_CYCLES,
                    offered_load: load,
                    seed: self.seed,
                    ..SimConfig::default()
                };
                let mut sim = tr
                    .call("flitsim.new", || {
                        FlitSim::new(&self.topo, Disjoint::new(K), cfg)
                    })
                    .expect("valid flit configuration");
                warm_up(&mut sim, SWEEP_WARMUP, tr);
                sim
            })
            .collect()
    }

    fn block(
        &mut self,
        sims: &mut Vec<Sim>,
        tr: &mut Tracer,
        ops: &mut Vec<f64>,
        checks: &mut Checks,
    ) -> BlockOut {
        let mut out = BlockOut::default();
        for (sim, &(_, tag)) in sims.iter_mut().zip(&LOADS) {
            run_ops(sim, SWEEP_CYCLES, tr, ops);
            check_conservation(sim, tag, checks);
            sim_facts(sim, tag, &mut out);
        }
        checks.attempted += ops.len() as u64;
        out
    }

    fn finish(&mut self, _: Vec<Sim>, _: &mut Checks) {}

    fn layer_metrics(&self, ops: &[f64], out: &BlockOut, m: &mut Metrics) {
        let per_load = (SWEEP_CYCLES / OP_CYCLES) as usize;
        for (i, (_, tag)) in LOADS.iter().enumerate() {
            let secs: f64 = ops[i * per_load..(i + 1) * per_load].iter().sum();
            m.put(
                format!("flitsim.step_ns_per_cycle.{tag}"),
                secs * 1e9 / SWEEP_CYCLES as f64,
            );
            m.put(
                format!("flitsim.delivered_flits.{tag}"),
                out.fact(&format!("delivered.{tag}")) as f64,
            );
        }
        m.put(
            "flitsim.delay_p99_cycles.load90",
            out.fact("delay_p99.load90") as f64,
        );
    }
}

/// The same fabric at load 0.5 under Poisson link churn with
/// retransmission: reconvergences flush the selection cache, timeouts
/// and retransmissions run.
pub struct FlitChurn {
    seed: u64,
    topo: Topology,
}

impl FlitChurn {
    pub fn new(seed: u64) -> Self {
        FlitChurn {
            seed,
            topo: topology(),
        }
    }

    pub fn schedule(&self) -> FaultSchedule {
        FaultSchedule::poisson(
            &self.topo,
            CHURN_FAIL_RATE,
            CHURN_MEAN_REPAIR,
            CHURN_WARMUP + CHURN_CYCLES,
            FAULT_SEED,
        )
    }
}

impl Workload for FlitChurn {
    type State = Sim;

    fn name(&self) -> &'static str {
        "flit_churn"
    }

    fn work_units(&self) -> f64 {
        CHURN_CYCLES as f64
    }

    fn prepare(&mut self, tr: &mut Tracer, _: &mut Checks) -> Sim {
        let cfg = SimConfig {
            warmup_cycles: CHURN_WARMUP,
            measure_cycles: CHURN_CYCLES,
            offered_load: 0.5,
            seed: self.seed,
            ..SimConfig::default()
        };
        let schedule = tr.call("xgft.schedule.poisson", || self.schedule());
        let mut sim = tr
            .call("flitsim.with_schedule", || {
                FlitSim::with_schedule(
                    &self.topo,
                    Disjoint::new(K),
                    cfg,
                    TrafficMode::Uniform,
                    schedule,
                    FaultPolicy::Drop,
                    CHURN_RESILIENCE,
                )
            })
            .expect("valid flit configuration");
        warm_up(&mut sim, CHURN_WARMUP, tr);
        sim
    }

    fn block(
        &mut self,
        sim: &mut Sim,
        tr: &mut Tracer,
        ops: &mut Vec<f64>,
        checks: &mut Checks,
    ) -> BlockOut {
        run_ops(sim, CHURN_CYCLES, tr, ops);
        check_conservation(sim, "churn", checks);
        let mut out = BlockOut::default();
        sim_facts(sim, "churn", &mut out);
        let stats = sim.stats();
        let sel = sim.selection_stats();
        out.put_fact("dropped.churn", stats.dropped_flits);
        out.put_fact("reconvergences", stats.reconvergence_events);
        out.put_fact("selection.hits", sel.hits);
        out.put_fact("selection.misses", sel.misses);
        out.put_fact("selection.invalidated", sel.invalidated);
        checks.check(stats.reconvergence_events > 0, || {
            "churn: the fault schedule never made the routing view reconverge".to_owned()
        });
        checks.attempted += ops.len() as u64;
        out
    }

    fn finish(&mut self, _: Sim, _: &mut Checks) {}

    fn layer_metrics(&self, ops: &[f64], out: &BlockOut, m: &mut Metrics) {
        let secs: f64 = ops.iter().sum();
        m.put(
            "flitsim.step_ns_per_cycle.churn",
            secs * 1e9 / CHURN_CYCLES as f64,
        );
        m.put(
            "flitsim.delivered_flits.churn",
            out.fact("delivered.churn") as f64,
        );
        m.put(
            "flitsim.dropped_flits.churn",
            out.fact("dropped.churn") as f64,
        );
        for what in ["hits", "misses", "invalidated"] {
            m.put(
                format!("flitsim.selection.{what}.churn"),
                out.fact(&format!("selection.{what}")) as f64,
            );
        }
    }
}
