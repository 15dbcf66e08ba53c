//! Figure 4 — average maximum link load vs number of paths.
//!
//! Flow-level simulation of random permutation traffic with the paper's
//! 99 % confidence-interval stopping rule. Panels:
//!
//! * `a` — XGFT(2; 8,16; 1,8)        (16-port 2-tree)
//! * `b` — XGFT(3; 8,8,16; 1,8,8)    (16-port 3-tree)
//! * `c` — XGFT(2; 12,24; 1,12)      (24-port 2-tree)
//! * `d` — XGFT(3; 12,12,24; 1,12,12) (24-port 3-tree)
//!
//! Usage: `fig4 [a|b|c|d ...] [ablation] [--quick] [--json PATH]`
//! (no panel argument runs all four).

#![forbid(unsafe_code)]

use lmpr_bench::{
    heuristics_at, k_ladder, records_to_json, topology_by_name, usage_error, write_json,
    CommonArgs, Record,
};
use lmpr_core::{Router, RouterKind};
use lmpr_flowsim::{average_over_seeds, PermutationStudy, StudyConfig};
use xgft::Topology;

/// Seeds over which the random heuristic is averaged (the paper uses
/// five).
const RANDOM_SEEDS: [u64; 5] = [11, 23, 37, 41, 53];

fn study_config(quick: bool) -> StudyConfig {
    if quick {
        StudyConfig {
            initial_samples: 24,
            max_samples: 96,
            rel_half_width: 0.05,
            ..StudyConfig::default()
        }
    } else {
        StudyConfig::default()
    }
}

fn run_panel(
    panel: &str,
    label: &str,
    topo: &Topology,
    quick: bool,
    ablation: bool,
    records: &mut Vec<Record>,
) {
    let cfg = study_config(quick);
    let max_paths = topo.w_prod(topo.height());
    let ladder = k_ladder(max_paths);
    println!(
        "\nFigure 4({panel}) — {label}, N = {}, max paths = {max_paths}",
        topo.num_pns()
    );
    println!(
        "{:>5} {:>12} {:>12} {:>12} {:>12}{}",
        "K",
        "d-mod-k",
        "shift-1",
        "disjoint",
        "random",
        if ablation {
            format!("{:>12}", "dj-stride")
        } else {
            String::new()
        }
    );

    let study = PermutationStudy::new(topo.clone(), cfg);
    let dmodk = study.run(&RouterKind::DModK);
    let emit = |scheme: &str, k: u64, mean: f64, hw: f64, records: &mut Vec<Record>| {
        records.push(Record {
            experiment: format!("fig4{panel}"),
            topology: label.to_owned(),
            scheme: scheme.to_owned(),
            k,
            x: k as f64,
            y: mean,
            aux: Some(hw),
        });
    };
    emit("d-mod-k", 1, dmodk.mean, dmodk.half_width, records);

    for &k in &ladder {
        let shift = study.run(&RouterKind::ShiftOne(k));
        let disjoint = study.run(&RouterKind::Disjoint(k));
        let random = average_over_seeds(topo, RouterKind::RandomK(k, 0), &RANDOM_SEEDS, cfg);
        emit(
            &RouterKind::ShiftOne(k).name(),
            k,
            shift.mean,
            shift.half_width,
            records,
        );
        emit(
            &RouterKind::Disjoint(k).name(),
            k,
            disjoint.mean,
            disjoint.half_width,
            records,
        );
        emit(
            &RouterKind::RandomK(k, 0).name(),
            k,
            random.mean,
            random.half_width,
            records,
        );
        let stride = ablation.then(|| study.run(&RouterKind::DisjointStride(k)));
        if let Some(s) = &stride {
            emit(
                &RouterKind::DisjointStride(k).name(),
                k,
                s.mean,
                s.half_width,
                records,
            );
        }
        println!(
            "{:>5} {:>12.3} {:>12.3} {:>12.3} {:>12.3}{}",
            k,
            dmodk.mean,
            shift.mean,
            disjoint.mean,
            random.mean,
            stride.map_or(String::new(), |s| format!(" {:>11.3}", s.mean))
        );
    }

    // UMULTI reference line (optimal for every TM — Theorem 1).
    let umulti = study.run(&RouterKind::Umulti);
    emit("umulti", max_paths, umulti.mean, umulti.half_width, records);
    println!(
        "{:>5} {:>12} {:>12.3} (umulti = optimal)",
        "opt", "", umulti.mean
    );
}

fn main() {
    let args = CommonArgs::from_env(&["a", "b", "c", "d", "ablation"])
        .unwrap_or_else(|e| usage_error("fig4", &e));
    let ablation = args.positional.iter().any(|p| p == "ablation");
    let panels: Vec<String> = {
        let named: Vec<String> = args
            .positional
            .iter()
            .filter(|p| ["a", "b", "c", "d"].contains(&p.as_str()))
            .cloned()
            .collect();
        if named.is_empty() {
            ["a", "b", "c", "d"].iter().map(|s| s.to_string()).collect()
        } else {
            named
        }
    };
    let mut records = Vec::new();
    for panel in &panels {
        let (label, topo) = topology_by_name(panel).expect("panel name checked above");
        run_panel(panel, &label, &topo, args.quick, ablation, &mut records);
    }
    // Keep the heuristics list wired into the binary so the set stays in
    // sync with Table 1's.
    debug_assert_eq!(heuristics_at(2, 0).len(), 3);
    if let Some(path) = args.json {
        write_json("fig4", &path, &records_to_json(&records));
        println!("\nwrote {} records", records.len());
    }
}
