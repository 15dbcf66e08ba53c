//! Per-level contention breakdown — the §5 explanation experiment.
//!
//! The paper attributes the disjoint heuristic's advantage to *where*
//! the remaining contention sits: "link contention at lower level
//! switches \[is\] significant for the permutation traffic: disjoint and
//! random are able to distribute the load more evenly at lower level
//! than shift-1". This binary quantifies that claim: for each scheme at
//! a fixed K it reports the average maximum load and imbalance
//! (max/mean) per link class, averaged over random permutations.
//!
//! Usage: `levels [--quick] [--json PATH] [k]` (default K = 4).

#![forbid(unsafe_code)]

use lmpr_bench::{records_to_json, usage_error, write_json, CommonArgs, Record};
use lmpr_core::{Router, RouterKind};
use lmpr_flowsim::{level_breakdown, LinkLoads};
use lmpr_traffic::{random_permutation, TrafficMatrix};
use xgft::{LinkDir, Topology, XgftSpec};

/// The path budget: the one optional positional argument, a positive
/// integer.
fn parse_k(positional: &[String]) -> Result<u64, String> {
    match positional {
        [] => Ok(4),
        [k] => match k.parse() {
            Ok(k) if k > 0 => Ok(k),
            _ => Err(format!("K must be a positive integer, got {k:?}")),
        },
        [_, extra, ..] => Err(format!("unexpected argument {extra:?}")),
    }
}

fn main() {
    let args =
        CommonArgs::parse(std::env::args().skip(1)).unwrap_or_else(|e| usage_error("levels", &e));
    let k = parse_k(&args.positional).unwrap_or_else(|e| usage_error("levels", &e));
    let samples = if args.quick { 20 } else { 200 };
    let topo = Topology::new(XgftSpec::m_port_n_tree(16, 3).expect("valid"));
    let label = topo.spec().to_string();
    println!("Per-level contention, {label}, K = {k}, {samples} permutations\n");

    let schemes = [
        RouterKind::DModK,
        RouterKind::ShiftOne(k),
        RouterKind::RandomK(k, 11),
        RouterKind::Disjoint(k),
    ];
    let h = topo.height();
    println!(
        "{:>12} {}",
        "scheme",
        (1..=h)
            .map(|l| format!("{:>10} {:>10}", format!("up{l} max"), format!("up{l} imb")))
            .collect::<Vec<_>>()
            .join(" ")
    );

    let mut records = Vec::new();
    for scheme in &schemes {
        // Average per-class max and imbalance over the permutations.
        let mut max_acc = vec![0.0f64; h];
        let mut imb_acc = vec![0.0f64; h];
        let mut loads = LinkLoads::zero(&topo);
        for seed in 0..samples {
            let tm = TrafficMatrix::permutation(&random_permutation(topo.num_pns(), seed));
            loads.clear();
            loads.add(&topo, scheme, &tm);
            for c in level_breakdown(&topo, &loads) {
                if c.dir == LinkDir::Up {
                    max_acc[c.level as usize - 1] += c.max;
                    imb_acc[c.level as usize - 1] += c.imbalance();
                }
            }
        }
        print!("{:>12}", scheme.name());
        for l in 0..h {
            let max = max_acc[l] / samples as f64;
            let imb = imb_acc[l] / samples as f64;
            print!(" {max:>10.3} {imb:>10.3}");
            records.push(Record {
                experiment: "levels".into(),
                topology: label.clone(),
                scheme: scheme.name(),
                k,
                x: (l + 1) as f64,
                y: max,
                aux: Some(imb),
            });
        }
        println!();
    }
    println!(
        "\nReading: shift-1 only balances the top level (up{h}); disjoint pushes\n\
         the imbalance down at every level, which is why it wins Figure 4."
    );

    if let Some(path) = args.json {
        write_json("levels", &path, &records_to_json(&records));
        println!("wrote {} records", records.len());
    }
}
