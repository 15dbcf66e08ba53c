//! Table 1 — saturation throughput under uniform random traffic.
//!
//! Flit-level simulation on XGFT(3; 4,4,8; 1,4,4) (the 8-port 3-tree of
//! §5): for each routing scheme and path budget, sweep the offered load
//! and report the maximum accepted throughput (in percent of injection
//! bandwidth), the paper's Table 1 metric.
//!
//! Usage: `table1 [--quick] [--json PATH] [policy]`
//! (`policy` runs the path-selection-policy ablation instead of the
//! main table).

#![forbid(unsafe_code)]

use lmpr_bench::{records_to_json, usage_error, write_json, CommonArgs, Record};
use lmpr_core::{RandomK, Router, RouterKind};
use lmpr_flitsim::sweep::{load_grid, run_sweep};
use lmpr_flitsim::{saturation_throughput, PathPolicy, SimConfig};
use xgft::{Topology, XgftSpec};

fn main() {
    let args = CommonArgs::from_env(&["policy"]).unwrap_or_else(|e| usage_error("table1", &e));
    let topo = Topology::new(XgftSpec::m_port_n_tree(8, 3).expect("valid"));
    let label = topo.spec().to_string();
    let cfg = if args.quick {
        SimConfig {
            warmup_cycles: 3_000,
            measure_cycles: 8_000,
            ..SimConfig::default()
        }
    } else {
        SimConfig::default()
    };
    let loads: Vec<f64> = if args.quick {
        vec![0.55, 0.65, 0.7, 0.75, 0.85]
    } else {
        load_grid(0.05)
    };
    let mut records = Vec::new();

    if args.positional.iter().any(|p| p == "policy") {
        policy_ablation(&topo, &label, cfg, &loads, &mut records);
    } else {
        main_table(&topo, &label, cfg, &loads, &mut records);
    }

    if let Some(path) = args.json {
        write_json("table1", &path, &records_to_json(&records));
        println!("\nwrote {} records", records.len());
    }
}

fn saturation(topo: &Topology, r: &RouterKind, cfg: SimConfig, loads: &[f64]) -> f64 {
    let points = run_sweep(topo, r, cfg, loads).expect("sweep runs");
    saturation_throughput(&points)
}

fn main_table(
    topo: &Topology,
    label: &str,
    cfg: SimConfig,
    loads: &[f64],
    records: &mut Vec<Record>,
) {
    println!("Table 1 — maximum throughput (% of injection bandwidth)");
    println!("uniform random traffic, {label}, VCT, 1 VC, round-robin path policy\n");
    println!(
        "{:>9} {:>10} {:>10} {:>10} {:>10}",
        "Num-Path", "d-mod-k", "shift-1", "random", "disjoint"
    );
    let dmodk = saturation(topo, &RouterKind::DModK, cfg, loads);
    records.push(Record {
        experiment: "table1".into(),
        topology: label.into(),
        scheme: "d-mod-k".into(),
        k: 1,
        x: 1.0,
        y: dmodk * 100.0,
        aux: None,
    });
    for k in [2u64, 4, 8, 16] {
        let shift = saturation(topo, &RouterKind::ShiftOne(k), cfg, loads);
        // Random averaged over the paper's five seeds.
        let random: f64 = [11u64, 23, 37, 41, 53]
            .iter()
            .map(|&s| saturation(topo, &RouterKind::RandomK(k, s), cfg, loads))
            .sum::<f64>()
            / 5.0;
        let disjoint = saturation(topo, &RouterKind::Disjoint(k), cfg, loads);
        for (scheme, v) in [
            (RouterKind::ShiftOne(k).name(), shift),
            (RandomK::new(k, 0).name(), random),
            (RouterKind::Disjoint(k).name(), disjoint),
        ] {
            records.push(Record {
                experiment: "table1".into(),
                topology: label.into(),
                scheme,
                k,
                x: k as f64,
                y: v * 100.0,
                aux: None,
            });
        }
        println!(
            "{:>9} {:>9.2}% {:>9.2}% {:>9.2}% {:>9.2}%",
            k,
            dmodk * 100.0,
            shift * 100.0,
            random * 100.0,
            disjoint * 100.0
        );
    }
}

fn policy_ablation(
    topo: &Topology,
    label: &str,
    cfg: SimConfig,
    loads: &[f64],
    records: &mut Vec<Record>,
) {
    println!("Ablation — path-selection policy, disjoint(8), {label}\n");
    println!("{:>18} {:>12}", "policy", "max thpt");
    for (name, policy) in [
        ("round-robin", PathPolicy::RoundRobin),
        ("per-packet-rand", PathPolicy::PerPacketRandom),
        ("per-message-rand", PathPolicy::PerMessageRandom),
    ] {
        let cfg = SimConfig {
            path_policy: policy,
            ..cfg
        };
        let v = saturation(topo, &RouterKind::Disjoint(8), cfg, loads);
        records.push(Record {
            experiment: "table1-policy".into(),
            topology: label.into(),
            scheme: format!("disjoint(8)/{name}"),
            k: 8,
            x: 8.0,
            y: v * 100.0,
            aux: None,
        });
        println!("{:>18} {:>11.2}%", name, v * 100.0);
    }
}
