//! The repetition loop shared by every workload, the estimators built
//! on it, and the small containers the workloads report through.
//!
//! A workload is a fixed, seeded block of at least 100 operations. The
//! harness runs the block as identical repetitions (fresh state each
//! time unless the workload says its state is read-only), times every
//! operation, and takes the per-operation minimum over repetitions as
//! the operation's undisturbed cost — see [`crate::stats`].

use crate::spec;
use crate::stats;
use crate::trace::Tracer;
use std::time::Instant;

/// Repetitions a timed run never goes below.
pub const MIN_REPS: usize = 5;
/// Set-ups a timed run never goes below; `setup_s` is their minimum.
pub const MIN_SETUPS: usize = 5;

/// Operations attempted and failed; a failure is a wrong answer, a
/// refused request, a controller that left `serving`, or a violated
/// output invariant.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the operator.
    pub notes: Vec<String>,
}

impl Checks {
    /// Count one attempted operation (or invariant) and whether it held.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// Record a failure that is not tied to a counted attempt.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.notes.len() < 8 {
            self.notes.push(what);
        }
    }

    pub fn absorb(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for n in other.notes {
            if self.notes.len() < 8 {
                self.notes.push(n);
            }
        }
    }
}

/// Named values, in insertion order.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(String, f64)>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64) {
        let name = name.into();
        debug_assert!(self.get(&name).is_none(), "{name} reported twice");
        self.0.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    pub fn iter(&self) -> impl Iterator<Item = (&str, f64)> {
        self.0.iter().map(|(n, v)| (n.as_str(), *v))
    }
}

/// What one repetition leaves behind besides its operation times.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct BlockOut {
    /// Simulated statistics, counts and digests: a pure function of the
    /// seed, so every repetition must report the same list.
    pub facts: Vec<(String, u64)>,
    /// Named timing series measured beside the operations (generator
    /// lateness, fault-ack latency, ...), in microseconds.
    pub samples: Vec<(&'static str, Vec<f64>)>,
    /// Seconds the system was kept busy, slice of the block by slice,
    /// where that is not what the operations' times add up to: an
    /// open-loop operation is timed from its due instant, so one stall
    /// is counted again in every request queued behind it. Empty when
    /// the operations' own times are the work.
    pub busy: Vec<f64>,
}

impl BlockOut {
    pub fn put_fact(&mut self, name: impl Into<String>, value: u64) {
        self.facts.push((name.into(), value));
    }

    /// The fact `name`; asking for one that was never put is a bug.
    pub fn fact(&self, name: &str) -> u64 {
        self.facts
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| panic!("no fact named {name}"))
    }

    pub fn sample(&self, name: &str) -> &[f64] {
        self.samples
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(&[], |(_, v)| v.as_slice())
    }
}

/// One benchmark workload.
pub trait Workload {
    /// Everything a repetition runs against.
    type State;

    fn name(&self) -> &'static str;

    /// Work units one block completes (cycles, flows, epochs, pairs).
    fn work_units(&self) -> f64;

    /// False when a block leaves the state as it found it, so several
    /// repetitions may share one expensive set-up.
    fn fresh_state_per_rep(&self) -> bool {
        true
    }

    /// Untimed preparation of one repetition; its wall time is the
    /// workload's set-up time.
    fn prepare(&mut self, tr: &mut Tracer, checks: &mut Checks) -> Self::State;

    /// Run the block once, pushing one wall time in seconds per
    /// operation onto `ops`.
    fn block(
        &mut self,
        state: &mut Self::State,
        tr: &mut Tracer,
        ops: &mut Vec<f64>,
        checks: &mut Checks,
    ) -> BlockOut;

    /// Tear the state down and check what can only be checked at the end.
    fn finish(&mut self, state: Self::State, checks: &mut Checks);

    /// Per-layer metrics read off one traced repetition.
    fn layer_metrics(&self, ops: &[f64], out: &BlockOut, m: &mut Metrics);
}

/// Time one operation: a span when tracing, one clock pair always.
#[inline]
pub fn timed_op<T>(
    tr: &mut Tracer,
    index: usize,
    ops: &mut Vec<f64>,
    f: impl FnOnce(&mut Tracer) -> T,
) -> T {
    tr.set_op(index as u32);
    tr.enter("op");
    let t0 = Instant::now();
    let out = f(tr);
    ops.push(t0.elapsed().as_secs_f64());
    tr.exit();
    tr.set_op(u32::MAX);
    out
}

/// Which repetitions record spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tracing {
    /// None: the end-to-end run.
    Off,
    /// Every second one, so traced and untraced repetitions meet the
    /// same noise and their ratio is the tracing overhead.
    Alternate,
    /// All of them.
    On,
}

/// How long and how often to repeat.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Keep repeating until the blocks have run this long.
    pub seconds: f64,
    pub min_reps: usize,
    pub min_setups: usize,
    pub tracing: Tracing,
}

impl Plan {
    /// The end-to-end run: tracing off, `--seconds` of measurement.
    pub fn end_to_end(seconds: f64) -> Self {
        Plan {
            seconds,
            min_reps: MIN_REPS,
            min_setups: MIN_SETUPS,
            tracing: Tracing::Off,
        }
    }

    /// The traced run of the selected workload: untraced and traced
    /// repetitions interleaved, at least two of each.
    pub fn overhead(seconds: f64) -> Self {
        Plan {
            seconds: seconds / 2.0,
            min_reps: 4,
            min_setups: 1,
            tracing: Tracing::Alternate,
        }
    }

    /// One traced repetition, for the layer metrics alone.
    pub fn traced_once() -> Self {
        Plan {
            seconds: 0.0,
            min_reps: 1,
            min_setups: 1,
            tracing: Tracing::On,
        }
    }
}

/// Everything measured while repeating one workload.
#[derive(Debug)]
pub struct RunResult {
    pub name: &'static str,
    pub work_units: f64,
    /// Wall seconds of each set-up.
    pub setups: Vec<f64>,
    /// Per-operation seconds of each untraced / traced repetition.
    pub untraced: Vec<Vec<f64>>,
    pub traced: Vec<Vec<f64>>,
    /// [`BlockOut::busy`] of each repetition in [`Self::timed`], for
    /// the workloads that report it.
    pub busy: Vec<Vec<f64>>,
    /// What the last traced (else last) repetition reported.
    pub out: BlockOut,
    pub checks: Checks,
}

pub fn run_workload<W: Workload>(w: &mut W, plan: Plan, tr: &mut Tracer) -> RunResult {
    let mut res = RunResult {
        name: w.name(),
        work_units: w.work_units(),
        setups: Vec::new(),
        untraced: Vec::new(),
        traced: Vec::new(),
        busy: Vec::new(),
        out: BlockOut::default(),
        checks: Checks::default(),
    };
    let mut reference: Option<Vec<(String, u64)>> = None;
    let mut measured = 0.0f64;
    let mut reps = 0usize;
    let mut traced_any = false;
    let setup_share = plan.seconds / plan.min_setups as f64;
    tr.set_on(plan.tracing != Tracing::Off);
    tr.enter(w.name());
    loop {
        tr.set_on(plan.tracing == Tracing::On);
        let t0 = Instant::now();
        tr.enter("setup");
        let mut state = w.prepare(tr, &mut res.checks);
        tr.exit();
        res.setups.push(t0.elapsed().as_secs_f64());
        let share_ends = measured + setup_share;
        let done = loop {
            let traced = match plan.tracing {
                Tracing::Off => false,
                Tracing::On => true,
                Tracing::Alternate => res.traced.len() < res.untraced.len(),
            };
            tr.set_on(traced);
            tr.enter("repetition");
            let mut ops = Vec::new();
            let t0 = Instant::now();
            let mut out = w.block(&mut state, tr, &mut ops, &mut res.checks);
            measured += t0.elapsed().as_secs_f64();
            tr.exit();
            reps += 1;
            match &reference {
                None => reference = Some(out.facts.clone()),
                Some(first) => res.checks.check(*first == out.facts, || {
                    format!(
                        "{}: repetition {reps} reports {:?}, the first reported {first:?}",
                        res.name, out.facts
                    )
                }),
            }
            let busy = std::mem::take(&mut out.busy);
            if !busy.is_empty() && (!traced || plan.tracing == Tracing::On) {
                res.busy.push(busy);
            }
            if traced {
                res.traced.push(ops);
            } else {
                res.untraced.push(ops);
            }
            if traced || !traced_any {
                res.out = out;
            }
            traced_any |= traced;
            let balanced =
                plan.tracing != Tracing::Alternate || res.traced.len() == res.untraced.len();
            let done = measured >= plan.seconds
                && reps >= plan.min_reps
                && res.setups.len() >= plan.min_setups
                && balanced;
            if done || w.fresh_state_per_rep() || measured >= share_ends {
                break done;
            }
        };
        w.finish(state, &mut res.checks);
        if done {
            break;
        }
    }
    tr.set_on(plan.tracing != Tracing::Off);
    tr.exit();
    tr.set_on(false);
    res
}

impl RunResult {
    /// The repetitions the end-to-end numbers rest on: the untraced
    /// ones (the traced ones when nothing else ran).
    fn timed(&self) -> &[Vec<f64>] {
        if self.untraced.is_empty() {
            &self.traced
        } else {
            &self.untraced
        }
    }

    /// Per-operation undisturbed seconds: the minimum over repetitions.
    pub fn undisturbed(&self) -> Vec<f64> {
        stats::repetition_minimum(self.timed())
    }

    /// The series whose sum is the time one block's work took: the
    /// busy slices where the workload reports them, else the operations.
    fn work_times(&self) -> &[Vec<f64>] {
        if self.busy.is_empty() {
            self.timed()
        } else {
            &self.busy
        }
    }

    /// The percentile `op_tail_us` reports: the highest that leaves ten
    /// operations beyond it, and never below the 90th.
    pub fn tail_percentile(&self) -> f64 {
        let ops = self.timed().first().map_or(0, Vec::len);
        match stats::highest_supported_percentile(ops) {
            Some(p) if p >= 0.9 => p,
            _ => panic!("{}: {ops} ops cannot support a 90th percentile", self.name),
        }
    }

    /// The four end-to-end metrics, in [`spec::END_TO_END`] order.
    pub fn end_to_end(&self, m: &mut Metrics) {
        let undisturbed = self.undisturbed();
        let total: f64 = stats::repetition_minimum(self.work_times()).iter().sum();
        // The minimum, like every other timing here: back-to-back runs
        // of 40 genesis certificates gave medians of 24.6 and 35.2 ms
        // but minima of 22.3 and 23.4 ms.
        m.put("setup_s", stats::min(&self.setups));
        m.put("work_per_s", self.work_units / total);
        m.put(
            "op_tail_us",
            stats::percentile_of(&undisturbed, self.tail_percentile()) * 1e6,
        );
        m.put("peak_rss_mb", peak_rss_mb());
    }

    /// The `bench.*` metrics of the selected workload.
    pub fn harness_metrics(&self, m: &mut Metrics) {
        let undisturbed = self.undisturbed();
        let reps = self.work_times();
        let clean: f64 = stats::repetition_minimum(reps).iter().sum();
        let raw: f64 = reps.iter().flatten().sum();
        m.put(
            "bench.op_p50_us",
            stats::percentile_of(&undisturbed, 0.5) * 1e6,
        );
        m.put("bench.op_tail_percentile", self.tail_percentile() * 100.0);
        m.put(
            "bench.raw_work_per_s",
            self.work_units * reps.len() as f64 / raw,
        );
        m.put("bench.disturbance", raw / (clean * reps.len() as f64) - 1.0);
        let late = self.out.sample("gen_late_us");
        m.put(
            "bench.gen_late_us_p90",
            if late.is_empty() {
                0.0
            } else {
                stats::percentile_of(late, 0.9)
            },
        );
        // Like against like: every traced repetition against the
        // untraced one that ran just before it, operation by operation.
        // Neighbours share whatever phase the machine is in, and the
        // median over all those ratios shrugs off a burst that hit one
        // repetition of a pair.
        let ratios: Vec<f64> = self
            .untraced
            .iter()
            .zip(&self.traced)
            .flat_map(|(u, t)| t.iter().zip(u).map(|(t, u)| t / u))
            .collect();
        m.put(
            "bench.trace_overhead_ratio",
            if ratios.is_empty() {
                1.0
            } else {
                stats::median(&ratios)
            },
        );
        m.put("bench.ops", undisturbed.len() as f64);
        m.put(
            "bench.reps",
            (self.untraced.len() + self.traced.len()) as f64,
        );
    }
}

/// `VmHWM` of this process in MB (0 where `/proc` is absent).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The final line of standard output: one JSON object with exactly the
/// keys `correct`, `attempted`, `failed` and `metrics`, the metrics
/// being exactly `table` in order. Errors name what is missing or extra.
pub fn result_line(table: &[(&str, &str)], m: &Metrics, checks: &Checks) -> Result<String, String> {
    if let Some((extra, _)) = m.iter().find(|(n, _)| !table.iter().any(|(t, _)| t == n)) {
        return Err(format!("metric {extra} is not in the benchmark's table"));
    }
    let mut body = String::new();
    for (i, (name, unit)) in table.iter().enumerate() {
        let v = m
            .get(name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !v.is_finite() {
            return Err(format!("metric {name} is not a finite number"));
        }
        body.push_str(if i == 0 { "" } else { ", " });
        body.push_str(&format!(
            "{}: {{\"value\": {}, \"unit\": {}}}",
            lmpr_bench::json_string(name),
            lmpr_bench::json_f64(v),
            lmpr_bench::json_string(unit)
        ));
    }
    debug_assert!(table
        .iter()
        .all(|(n, u)| spec::valid_name(n) && spec::valid_unit(u)));
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
        checks.failed == 0,
        checks.attempted.max(1),
        checks.failed
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic workload: 100 ops that spin for a fixed count, one
    /// fact that must repeat, and a state counter that proves set-up
    /// and tear-down pair up.
    struct Spin {
        shared: bool,
        prepared: usize,
        finished: usize,
        drift: bool,
        blocks: u64,
    }

    impl Workload for Spin {
        type State = ();
        fn name(&self) -> &'static str {
            "spin"
        }
        fn work_units(&self) -> f64 {
            100.0
        }
        fn fresh_state_per_rep(&self) -> bool {
            !self.shared
        }
        fn prepare(&mut self, _: &mut Tracer, _: &mut Checks) {
            self.prepared += 1;
        }
        fn block(
            &mut self,
            _: &mut (),
            tr: &mut Tracer,
            ops: &mut Vec<f64>,
            checks: &mut Checks,
        ) -> BlockOut {
            self.blocks += 1;
            for j in 0..100 {
                timed_op(tr, j, ops, |tr| {
                    tr.call("spin.call", || std::hint::black_box((0..200).sum::<u64>()))
                });
                checks.check(true, String::new);
            }
            BlockOut {
                facts: vec![(
                    "answer".to_owned(),
                    if self.drift { self.blocks } else { 42 },
                )],
                ..BlockOut::default()
            }
        }
        fn finish(&mut self, (): (), _: &mut Checks) {
            self.finished += 1;
        }
        fn layer_metrics(&self, _: &[f64], _: &BlockOut, _: &mut Metrics) {}
    }

    fn spin(shared: bool, drift: bool) -> Spin {
        Spin {
            shared,
            prepared: 0,
            finished: 0,
            drift,
            blocks: 0,
        }
    }

    #[test]
    fn end_to_end_plan_repeats_with_fresh_state_and_reports_all_four() {
        let mut w = spin(false, false);
        let mut tr = Tracer::new();
        let res = run_workload(&mut w, Plan::end_to_end(0.0), &mut tr);
        assert_eq!(res.untraced.len(), MIN_REPS);
        assert_eq!((w.prepared, w.finished), (MIN_REPS, MIN_REPS));
        assert!(tr.spans().is_empty(), "the end-to-end run records no spans");
        assert_eq!((res.checks.attempted, res.checks.failed), (504, 0));
        let mut m = Metrics::default();
        res.end_to_end(&mut m);
        let line = result_line(&spec::END_TO_END, &m, &res.checks).expect("complete");
        let doc = lmpr_bench::jsonio::parse(&line).expect("valid JSON");
        assert_eq!(doc.get("correct").and_then(|v| v.as_bool()), Some(true));
        assert_eq!(doc.get("attempted").and_then(|v| v.as_u64()), Some(504));
        let metrics = doc.get("metrics").expect("metrics");
        for (name, unit) in spec::END_TO_END {
            let e = metrics.get(name).expect(name);
            assert!(e.get("value").and_then(|v| v.as_f64()).is_some());
            assert_eq!(e.get("unit").and_then(|v| v.as_str()), Some(unit));
        }
    }

    #[test]
    fn shared_state_is_set_up_min_setups_times() {
        let mut w = spin(true, false);
        let res = run_workload(&mut w, Plan::end_to_end(0.02), &mut Tracer::new());
        assert_eq!((w.prepared, w.finished), (MIN_SETUPS, MIN_SETUPS));
        assert!(res.untraced.len() >= MIN_REPS);
    }

    #[test]
    fn overhead_plan_alternates_and_a_drifting_fact_fails_the_run() {
        let mut w = spin(false, false);
        let mut tr = Tracer::new();
        let res = run_workload(&mut w, Plan::overhead(0.0), &mut tr);
        assert_eq!((res.untraced.len(), res.traced.len()), (2, 2));
        let ops = tr.spans().iter().filter(|s| s.name == "op").count();
        assert_eq!(ops, 200, "only the traced repetitions record");
        let mut m = Metrics::default();
        res.harness_metrics(&mut m);
        // The spin ops are far shorter than a span, so the ratio is
        // large here; it only has to be measured.
        assert!(m.get("bench.trace_overhead_ratio").is_some_and(|r| r > 0.0));
        assert_eq!(m.get("bench.ops"), Some(100.0));

        let mut w = spin(false, true);
        let res = run_workload(&mut w, Plan::traced_once(), &mut Tracer::new());
        assert_eq!(
            res.checks.failed, 0,
            "one repetition has nothing to drift from"
        );
        let res = run_workload(&mut w, Plan::end_to_end(0.0), &mut Tracer::new());
        assert_eq!(res.checks.failed, (MIN_REPS - 1) as u64);
    }

    #[test]
    fn result_line_refuses_missing_extra_and_non_finite_metrics() {
        let table = [("a", "s"), ("b", "count")];
        let checks = Checks::default();
        let mut m = Metrics::default();
        m.put("a", 1.5);
        assert!(result_line(&table, &m, &checks)
            .unwrap_err()
            .contains("b was not"));
        m.put("b", f64::NAN);
        assert!(result_line(&table, &m, &checks)
            .unwrap_err()
            .contains("finite"));
        let mut m = Metrics::default();
        m.put("a", 1.5);
        m.put("b", 2.0);
        m.put("c", 3.0);
        assert!(result_line(&table, &m, &checks)
            .unwrap_err()
            .contains("c is not"));
    }
}
