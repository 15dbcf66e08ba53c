//! Figure 5 — average message delay vs offered load.
//!
//! Flit-level simulation on XGFT(3; 4,4,8; 1,4,4) under uniform random
//! traffic, reproducing the paper's curve set: d-mod-k plus
//! {disjoint, shift-1, random} × K ∈ {2, 8}.
//!
//! Usage: `fig5 [--quick] [--json PATH]`

#![forbid(unsafe_code)]

use lmpr_bench::{records_to_json, usage_error, write_json, CommonArgs, Record};
use lmpr_core::{Router, RouterKind};
use lmpr_flitsim::sweep::run_sweep;
use lmpr_flitsim::SimConfig;
use xgft::{Topology, XgftSpec};

fn main() {
    let args = CommonArgs::from_env(&[]).unwrap_or_else(|e| usage_error("fig5", &e));
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
        vec![0.1, 0.3, 0.5, 0.6, 0.7, 0.8]
    } else {
        (1..=19).map(|i| i as f64 * 0.05).collect()
    };
    let schemes = [
        RouterKind::DModK,
        RouterKind::Disjoint(2),
        RouterKind::Disjoint(8),
        RouterKind::ShiftOne(2),
        RouterKind::ShiftOne(8),
        RouterKind::RandomK(2, 11),
        RouterKind::RandomK(8, 11),
    ];

    println!("Figure 5 — average message delay (cycles) vs offered load");
    println!("uniform random traffic, {label}\n");
    print!("{:>6}", "load");
    for s in &schemes {
        print!(" {:>13}", s.name());
    }
    println!();

    let mut records = Vec::new();
    let mut columns = Vec::new();
    for s in &schemes {
        columns.push(run_sweep(&topo, s, cfg, &loads).expect("sweep runs"));
    }
    for (i, &load) in loads.iter().enumerate() {
        print!("{:>5.0}%", load * 100.0);
        for (c, s) in columns.iter().zip(&schemes) {
            let p = c[i];
            // Past saturation, surviving-message delays lose meaning;
            // flag columns whose completion collapsed.
            if p.completion_rate < 0.5 {
                print!(" {:>13}", "sat");
            } else {
                print!(" {:>13.1}", p.avg_delay);
            }
            records.push(Record {
                experiment: "fig5".into(),
                topology: label.clone(),
                scheme: s.name(),
                k: s.budget().unwrap_or(0),
                x: load,
                y: p.avg_delay,
                aux: Some(p.completion_rate),
            });
        }
        println!();
    }

    if let Some(path) = args.json {
        write_json("fig5", &path, &records_to_json(&records));
        println!("\nwrote {} records", records.len());
    }
}
