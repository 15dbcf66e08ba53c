//! E12 — static routing-correctness certification.
//!
//! Runs the `lmpr-verify` analyzer (channel-dependency-graph deadlock
//! proof, exact-K coverage audit, disjointness and load-bound
//! cross-checks) over a topology × scheme grid and prints one
//! certificate line per report, plus the structured JSON diagnostics.
//! Exits 0 only when every report certifies.
//!
//! Usage:
//!   `verify TOPOLOGY SCHEME... [--faults RATE:SEED] [--json PATH]`
//!   `verify --ci [--json PATH]`
//!   `verify --demo-cycle`
//!
//! `TOPOLOGY` is a §5 name (`a`…`d`, `8port2tree`, …) or one of the
//! verification fixtures `fig3` (XGFT(3; 4,4,4; 1,2,4)), `asym`
//! (XGFT(3; 3,2,2; 2,2,3)) and `fat16` (XGFT(2; 4,16; 2,2)).
//! `SCHEME` is a router spec accepted by `RouterKind::parse`
//! (`dmodk`, `shift1:K`, `disjoint:K`, `random:K[:seed]`, `umulti`) or
//! an LFT realization `lft-top:K` / `lft-bottom:K`, which is audited
//! against its shift-vector specification instead of the router.
//!
//! `--ci` runs the acceptance matrix: all four heuristics at
//! K ∈ {1, 2, X} on the three fixtures, both LFT slot orders and one
//! degraded-mode fault sample — the gate wired into `ci.sh`.
//! `--demo-cycle` feeds the analyzer a deliberately cyclic (valley
//! routed) dependency fixture and shows the minimal counterexample.

#![forbid(unsafe_code)]

use lmpr_bench::topology_by_name;
use lmpr_codec::json::document;
use lmpr_core::forwarding::SlotOrder;
use lmpr_core::RouterKind;
use lmpr_verify::{verify_router_kind, verify_tables, Cdg, Report, RuleId};
use xgft::{FaultSet, Topology, XgftSpec};

fn main() {
    match run(std::env::args().skip(1).collect()) {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("verify: {e}");
            std::process::exit(2);
        }
    }
}

/// Parsed command line.
struct Args {
    positional: Vec<String>,
    faults: Option<(f64, u64)>,
    json: Option<String>,
    ci: bool,
    demo_cycle: bool,
}

fn parse_args(args: Vec<String>) -> Result<Args, String> {
    let mut out = Args {
        positional: Vec::new(),
        faults: None,
        json: None,
        ci: false,
        demo_cycle: false,
    };
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--faults" => {
                let spec = it.next().ok_or("--faults needs RATE:SEED")?;
                let (rate, seed) = spec
                    .split_once(':')
                    .ok_or_else(|| format!("--faults {spec}: expected RATE:SEED"))?;
                let rate: f64 = rate
                    .parse()
                    .map_err(|e| format!("bad fault rate in {spec}: {e}"))?;
                let seed: u64 = seed
                    .parse()
                    .map_err(|e| format!("bad fault seed in {spec}: {e}"))?;
                if !(0.0..=1.0).contains(&rate) {
                    return Err(format!("fault rate {rate} outside [0, 1]"));
                }
                out.faults = Some((rate, seed));
            }
            "--json" => out.json = Some(it.next().ok_or("--json needs a path")?),
            "--ci" => out.ci = true,
            "--demo-cycle" => out.demo_cycle = true,
            other if other.starts_with("--") => return Err(format!("unknown flag {other}")),
            _ => out.positional.push(a),
        }
    }
    // The two fixed modes take no topology, scheme or fault sample, and
    // run one at a time: what they would ignore is refused instead.
    let mode = match (out.ci, out.demo_cycle) {
        (true, true) => return Err("--ci and --demo-cycle are exclusive".to_owned()),
        (true, false) => "--ci",
        (false, true) => "--demo-cycle",
        (false, false) => return Ok(out),
    };
    if let Some(word) = out.positional.first() {
        return Err(format!("{mode} takes no TOPOLOGY or SCHEME, got {word:?}"));
    }
    if out.faults.is_some() {
        return Err(format!("{mode} takes no --faults"));
    }
    if out.demo_cycle && out.json.is_some() {
        return Err("--demo-cycle takes no --json; it prints its report".to_owned());
    }
    Ok(out)
}

/// Returns `Ok(true)` when every produced report certifies.
fn run(raw: Vec<String>) -> Result<bool, String> {
    let args = parse_args(raw)?;
    if args.demo_cycle {
        let report = demo_cycle_report();
        print_report(&report);
        println!("{}", report.to_json());
        return Ok(report.certified());
    }

    let reports = if args.ci {
        ci_matrix()
    } else {
        let name = args
            .positional
            .first()
            .ok_or("usage: verify TOPOLOGY SCHEME... (or --ci / --demo-cycle)")?;
        let (label, topo) =
            fixture_by_name(name).ok_or_else(|| format!("unknown topology {name}"))?;
        if args.positional.len() < 2 {
            return Err("at least one SCHEME is required".to_owned());
        }
        let faults = args
            .faults
            .map(|(rate, seed)| FaultSet::sample(&topo, rate, 0.0, seed));
        let mut reports = Vec::new();
        for spec in &args.positional[1..] {
            reports.push(report_for_spec(&topo, &label, spec, faults.as_ref())?);
        }
        reports
    };

    for r in &reports {
        print_report(r);
    }
    let certified = reports.iter().filter(|r| r.certified()).count();
    println!(
        "\n{certified}/{} reports certified, {} finding(s) total",
        reports.len(),
        reports.iter().map(|r| r.findings.len()).sum::<usize>()
    );

    let json = document(|w| w.arr(|w| reports.iter().for_each(|r| r.write_json(w))));
    match &args.json {
        Some(path) => {
            std::fs::write(path, &json).map_err(|e| format!("cannot write {path}: {e}"))?;
            println!("wrote {} reports to {path}", reports.len());
        }
        None => println!("{json}"),
    }
    Ok(certified == reports.len())
}

/// Resolve a topology name: the §5 set plus the verification fixtures.
fn fixture_by_name(name: &str) -> Option<(String, Topology)> {
    let spec = match name {
        "fig3" => XgftSpec::new(&[4, 4, 4], &[1, 2, 4]),
        "asym" => XgftSpec::new(&[3, 2, 2], &[2, 2, 3]),
        "fat16" => XgftSpec::new(&[4, 16], &[2, 2]),
        other => return topology_by_name(other),
    }
    .expect("fixture specs are valid");
    Some((spec.to_string(), Topology::new(spec)))
}

/// One report for one scheme spec, dispatching LFT audits.
fn report_for_spec(
    topo: &Topology,
    label: &str,
    spec: &str,
    faults: Option<&FaultSet>,
) -> Result<Report, String> {
    if let Some(rest) = spec.strip_prefix("lft-top:") {
        let k = parse_k(spec, rest)?;
        return Ok(verify_tables(topo, label, k, SlotOrder::TopFirst));
    }
    if let Some(rest) = spec.strip_prefix("lft-bottom:") {
        let k = parse_k(spec, rest)?;
        return Ok(verify_tables(topo, label, k, SlotOrder::BottomFirst));
    }
    let kind = RouterKind::parse(spec)?;
    Ok(verify_router_kind(topo, label, kind, faults))
}

fn parse_k(spec: &str, rest: &str) -> Result<u64, String> {
    rest.parse::<u64>()
        .map_err(|e| format!("bad K in {spec}: {e}"))
}

/// The acceptance matrix run by `ci.sh`: every heuristic at
/// K ∈ {1, 2, X} on all three fixtures, both LFT slot orders on the
/// fig-3 tree, and a degraded-mode sample on fig3 and asym.
fn ci_matrix() -> Vec<Report> {
    let mut reports = Vec::new();
    for name in ["fig3", "asym", "fat16"] {
        let (label, topo) = fixture_by_name(name).expect("fixture");
        let x = topo.w_prod(topo.height());
        for k in [1, 2, x] {
            for kind in [
                RouterKind::ShiftOne(k),
                RouterKind::Disjoint(k),
                RouterKind::RandomK(k, 42),
            ] {
                reports.push(verify_router_kind(&topo, &label, kind, None));
            }
        }
        reports.push(verify_router_kind(&topo, &label, RouterKind::DModK, None));
    }
    let (label, topo) = fixture_by_name("fig3").expect("fixture");
    for order in [SlotOrder::TopFirst, SlotOrder::BottomFirst] {
        for k in [1, 2, 4] {
            reports.push(verify_tables(&topo, &label, k, order));
        }
    }
    for name in ["fig3", "asym"] {
        let (label, topo) = fixture_by_name(name).expect("fixture");
        let faults = FaultSet::sample(&topo, 0.05, 0.0, 9);
        reports.push(verify_router_kind(
            &topo,
            &label,
            RouterKind::Disjoint(2),
            Some(&faults),
        ));
    }
    reports
}

/// A deliberately cyclic fixture: a valley route (down before up)
/// injected next to a legitimate up/down route, producing the classic
/// two-channel deadlock dependency the analyzer must refute.
fn demo_cycle_report() -> Report {
    let topo = Topology::new(XgftSpec::new(&[2, 2], &[1, 2]).expect("valid spec"));
    let mut cdg = Cdg::new(&topo);
    let up = topo.up_link(1, 0, 0);
    let down = topo.down_link(1, 0, 1);
    cdg.add_route(&[up, down]);
    cdg.add_route(&[down, up]); // the valley: descend, then re-climb
    let mut report = Report::new("XGFT(2; 2,2; 1,2)", "valley-fixture");
    let before = report.findings.len();
    if let Some(diag) = cdg.deadlock_finding(&topo) {
        report.findings.push(diag);
    }
    report.record(RuleId::CdgCycle, cdg.num_edges(), before);
    report
}

fn print_report(r: &Report) {
    let verdict = if r.certified() {
        "CERTIFIED"
    } else {
        "REFUTED"
    };
    let inspected: u64 = r.checks.iter().map(|c| c.inspected).sum();
    println!(
        "{verdict:>9}  {:<24} {:<20} {} check(s), {} item(s), {} finding(s)",
        r.topology,
        r.scheme,
        r.checks.len(),
        inspected,
        r.findings.len()
    );
    for d in &r.findings {
        println!("           {d}");
    }
}
