//! Executable checks of the paper's analytical results.
//!
//! * **Theorem 1** — `PERF(UMULTI) = 1`: on a battery of topologies and
//!   traffic matrices, UMULTI's maximum link load equals the sub-tree
//!   cut lower bound `ML(TM)`.
//! * **Theorem 2** — there are XGFTs where `PERF(d-mod-k) ≥ Π w_i`: the
//!   adversarial concentration pattern realizes the bound exactly.
//! * **LID budget** — the InfiniBand motivation for *limited*
//!   multi-path routing: which budgets `K` are realizable per topology.
//!
//! Usage: `theorems [--json PATH]`

#![forbid(unsafe_code)]

use lmpr_bench::{records_to_json, usage_error, write_json, CommonArgs, Record};
use lmpr_core::{lid, DModK, Router, Umulti};
use lmpr_flowsim::{ml_lower_bound, performance_ratio, LinkLoads};
use lmpr_traffic::{adversarial_concentration, random_permutation, TrafficMatrix};
use xgft::{Topology, XgftSpec};

fn main() {
    let args = CommonArgs::from_env(&[]).unwrap_or_else(|e| usage_error("theorems", &e));
    let mut records = Vec::new();

    println!("Theorem 1 — PERF(UMULTI) = 1 (max |ratio - 1| over sampled TMs)");
    for spec in [
        XgftSpec::m_port_n_tree(8, 2).unwrap(),
        XgftSpec::m_port_n_tree(8, 3).unwrap(),
        XgftSpec::new(&[3, 4, 5], &[2, 3, 2]).unwrap(),
        XgftSpec::new(&[4, 16], &[2, 2]).unwrap(),
    ] {
        let topo = Topology::new(spec);
        let label = topo.spec().to_string();
        let mut worst: f64 = 0.0;
        for seed in 0..20u64 {
            let tm = TrafficMatrix::permutation(&random_permutation(topo.num_pns(), seed));
            worst = worst.max((performance_ratio(&topo, &Umulti, &tm) - 1.0).abs());
        }
        if let Some(p) = adversarial_concentration(&topo) {
            worst = worst.max((performance_ratio(&topo, &Umulti, &p.tm) - 1.0).abs());
        }
        println!("  {label:34} max deviation = {worst:.2e}");
        records.push(Record {
            experiment: "theorem1".into(),
            topology: label,
            scheme: "umulti".into(),
            k: 0,
            x: 0.0,
            y: worst,
            aux: None,
        });
    }

    println!("\nTheorem 2 — adversarial concentration pattern");
    println!(
        "  {:34} {:>10} {:>10} {:>10} {:>8}",
        "topology", "MLOAD(dmk)", "ML bound", "PERF(dmk)", "Π w_i"
    );
    for spec in [
        XgftSpec::new(&[4, 16], &[2, 2]).unwrap(),
        XgftSpec::new(&[2, 2, 32], &[1, 2, 2]).unwrap(),
        XgftSpec::new(&[4, 4, 64], &[2, 2, 2]).unwrap(),
    ] {
        let topo = Topology::new(spec);
        let label = topo.spec().to_string();
        let p = adversarial_concentration(&topo)
            .expect("theorem topologies are wide enough for the pattern");
        let mload = LinkLoads::accumulate(&topo, &DModK, &p.tm).max_load();
        let ml = ml_lower_bound(&topo, &p.tm);
        let ratio = performance_ratio(&topo, &DModK, &p.tm);
        let w_prod = topo.w_prod(topo.height()) as f64;
        assert!(
            (ratio - w_prod).abs() < 1e-9,
            "the pattern must realize the bound"
        );
        println!("  {label:34} {mload:>10.1} {ml:>10.2} {ratio:>10.1} {w_prod:>8.0}");
        records.push(Record {
            experiment: "theorem2".into(),
            topology: label,
            scheme: "d-mod-k".into(),
            k: 1,
            x: w_prod,
            y: ratio,
            aux: Some(ml),
        });
    }

    println!(
        "\nLID budget — InfiniBand realizability (unicast LID space = {})",
        lid::UNICAST_LIDS
    );
    println!(
        "  {:34} {:>8} {:>10} {:>12} {:>8}",
        "topology", "paths", "max K", "LIDs@K=16", "umulti?"
    );
    for (m, n) in [(8u32, 2usize), (8, 3), (16, 3), (24, 3)] {
        let topo = Topology::new(XgftSpec::m_port_n_tree(m, n).unwrap());
        let label = topo.spec().to_string();
        let paths = topo.w_prod(topo.height());
        let max_k = lid::max_realizable_budget(&topo);
        let lids16 = lid::lids_required(&topo, 16).map_or("n/a".to_owned(), |v| v.to_string());
        let um = lid::umulti_realizable(&topo);
        println!("  {label:34} {paths:>8} {max_k:>10} {lids16:>12} {um:>8}");
        records.push(Record {
            experiment: "lid-budget".into(),
            topology: label,
            scheme: "-".into(),
            k: max_k,
            x: paths as f64,
            y: max_k as f64,
            aux: Some(if um { 1.0 } else { 0.0 }),
        });
    }
    println!("\n(the 24-port 3-tree cannot realize UMULTI — the paper's motivation)");

    let _ = DModK.name();
    if let Some(path) = args.json {
        write_json("theorems", &path, &records_to_json(&records));
        println!("\nwrote {} records", records.len());
    }
}
