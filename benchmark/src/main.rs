//! The repo benchmark. See `benchmark/README.md`.
//!
//! ```text
//! lmpr-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
//! lmpr-benchmark compare DIR_A DIR_B
//! lmpr-benchmark workloads
//! lmpr-benchmark spin
//! ```
//!
//! `--seed` defaults to 7, `--seconds` to `/BENCHMARK.json`'s
//! `run_seconds`, `--trace` to 0.
//!
//! With `--trace 0` the named workload runs untraced for `S` seconds of
//! measurement and the four end-to-end metrics are printed. With
//! `--trace 1` the named workload runs interleaved untraced and traced
//! repetitions, every workload runs one traced repetition, the probe
//! pass replays their inputs through the layer functions, every
//! per-layer metric is printed and the spans go to
//! `benchmark/out/trace.json`. The last line of standard output is the
//! result as one JSON object; the exit code is non-zero when any
//! operation failed or any output check did not hold.

#![forbid(unsafe_code)]

mod compare;
mod harness;
mod probes;
mod scratch;
mod spec;
mod stats;
mod trace;
mod workloads;

use harness::{run_workload, Checks, Metrics, Plan, RunResult, Workload};
use scratch::Scratch;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use trace::Tracer;
use workloads::{ctl, flit, flow};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
}

const USAGE: &str = "usage: lmpr-benchmark --workload NAME [--seed N] [--seconds S] \
                     [--trace 0|1] [--out FILE]\n       lmpr-benchmark compare DIR_A DIR_B\n       \
                     lmpr-benchmark workloads\n       lmpr-benchmark spin";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 7,
        seconds: spec::run_seconds()?,
        trace: false,
        out: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: {what}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad("not a whole number"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("not a number"))?;
                if !(args.seconds > 0.0 && args.seconds <= 120.0) {
                    return Err(bad("outside (0, 120]"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                }
            }
            "--out" => args.out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !spec::WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            spec::WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

/// Run one workload under `plan`; with `layers`, also read the
/// per-layer metrics off its traced repetitions.
fn measure<W: Workload>(
    mut w: W,
    plan: Plan,
    tr: &mut Tracer,
    layers: Option<&mut Metrics>,
) -> RunResult {
    let res = run_workload(&mut w, plan, tr);
    if let Some(m) = layers {
        w.layer_metrics(&stats::repetition_minimum(&res.traced), &res.out, m);
    }
    res
}

fn measure_named(
    name: &str,
    seed: u64,
    scratch: &Scratch,
    plan: Plan,
    tr: &mut Tracer,
    layers: Option<&mut Metrics>,
) -> RunResult {
    match name {
        "flit_sweep" => measure(flit::FlitSweep::new(seed), plan, tr, layers),
        "flit_churn" => measure(flit::FlitChurn::new(seed), plan, tr, layers),
        "flow_degraded" => measure(flow::FlowDegraded::new(seed), plan, tr, layers),
        "ctl_reconverge" => measure(ctl::CtlReconverge::new(scratch), plan, tr, layers),
        "ctl_query" => measure(ctl::CtlQuery::new(seed, scratch), plan, tr, layers),
        "ctl_mixed" => measure(ctl::CtlMixed::new(seed, scratch), plan, tr, layers),
        other => unreachable!("{other} passed argument checking"),
    }
}

/// The end-to-end run of one workload.
fn untraced(args: &Args, scratch: &Scratch) -> (Metrics, Checks) {
    let mut m = Metrics::default();
    let mut tr = Tracer::new();
    let plan = Plan::end_to_end(args.seconds);
    let res = measure_named(&args.workload, args.seed, scratch, plan, &mut tr, None);
    res.end_to_end(&mut m);
    eprintln!(
        "{}: {} repetitions; seconds per set-up {:.4?}, per repetition {:.3?}",
        res.name,
        res.untraced.len(),
        res.setups,
        res.untraced
            .iter()
            .map(|ops| ops.iter().sum::<f64>())
            .collect::<Vec<_>>()
    );
    (m, res.checks)
}

/// The traced run: every workload once with spans on (the selected one
/// interleaved with untraced repetitions), then the probe pass.
fn traced(args: &Args, scratch: &Scratch) -> Result<(Metrics, Checks), String> {
    let mut m = Metrics::default();
    let mut checks = Checks::default();
    let mut tr = Tracer::new();
    let mut churn = None;
    let mut harness = Metrics::default();
    for name in spec::WORKLOADS {
        let selected = name == args.workload;
        let plan = if selected {
            Plan::overhead(args.seconds)
        } else {
            Plan::traced_once()
        };
        let res = measure_named(name, args.seed, scratch, plan, &mut tr, Some(&mut m));
        if name == "flit_churn" {
            churn = Some(probes::FromChurn {
                hits: res.out.fact("selection.hits") as f64,
                misses: res.out.fact("selection.misses") as f64,
                step_s: stats::repetition_minimum(&res.traced).iter().sum(),
            });
        }
        if selected {
            res.harness_metrics(&mut harness);
        }
        checks.absorb(res.checks);
    }
    let churn = churn.expect("flit_churn is one of the workloads");
    tr.set_on(true);
    probes::run(args.seed, scratch, &churn, &mut tr, &mut m, &mut checks);
    for (name, value) in harness.iter() {
        m.put(name, value);
    }
    m.put("bench.failed", checks.failed as f64);

    let path = scratch::out_dir().join("trace.json");
    std::fs::write(&path, trace::to_json(tr.spans()))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("{} spans written to {}", tr.spans().len(), path.display());
    for (name, t) in trace::summarize(tr.spans()) {
        eprintln!(
            "  {name:<36} {:>7} spans {:>12.1} us total {:>12.1} us self",
            t.count,
            t.total_ns as f64 / 1e3,
            t.self_ns as f64 / 1e3
        );
    }
    Ok((m, checks))
}

fn run(args: &Args) -> Result<bool, String> {
    let scratch = Scratch::new().map_err(|e| format!("scratch directory: {e}"))?;
    let (table, (m, checks)): (&[(&str, &str)], _) = if args.trace {
        (spec::PER_LAYER, traced(args, &scratch)?)
    } else {
        (&spec::END_TO_END, untraced(args, &scratch))
    };
    for note in &checks.notes {
        eprintln!("FAILED: {note}");
    }
    let line = harness::result_line(table, &m, &checks)?;
    println!(
        "workload {} seed {} trace {}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    for (name, unit) in table {
        println!("{name} {} {unit}", m.get(name).unwrap_or(f64::NAN));
    }
    if let Some(path) = &args.out {
        let doc = format!(
            "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"result\": {line}}}\n",
            lmpr_bench::json_string(&args.workload),
            args.seed,
            lmpr_bench::json_f64(args.seconds),
            u8::from(args.trace)
        );
        std::fs::write(path, doc).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    println!("{line}");
    Ok(checks.failed == 0)
}

/// Keep a CPU from idling until the parent process goes away (or ten
/// minutes pass). `bench.sh` runs one of these per CPU at idle priority:
/// an open-loop workload leaves the CPUs idle between requests, a
/// virtual CPU that idles halts, and the next fault batch then certifies
/// on a cold, clocked-down core — `ctl_mixed` read 31 000 to 40 000
/// pairs/s that way and 43 000 to 47 000 with the CPUs kept awake.
fn spin() {
    let parent = std::os::unix::process::parent_id();
    let t0 = std::time::Instant::now();
    while std::os::unix::process::parent_id() == parent && t0.elapsed().as_secs() < 600 {
        for _ in 0..1_000_000 {
            std::hint::spin_loop();
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.first().map(String::as_str) {
        Some("compare") if argv.len() == 3 => {
            compare::main(Path::new(&argv[1]), Path::new(&argv[2]))
        }
        Some("compare") => Err(USAGE.to_owned()),
        Some("spin") => {
            spin();
            Ok(true)
        }
        Some("workloads") => {
            println!("{}", spec::WORKLOADS.join("\n"));
            Ok(true)
        }
        _ => match parse_args(&argv) {
            Ok(args) => run(&args),
            Err(e) => {
                eprintln!("lmpr-benchmark: {e}\n{USAGE}");
                return ExitCode::from(2);
            }
        },
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("lmpr-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
