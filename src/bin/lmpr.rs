//! `lmpr` — command-line front end to the limited multi-path routing
//! toolkit.
//!
//! ```text
//! lmpr info  <topo> [--dot]                     topology summary / Graphviz
//! lmpr paths <topo> <src> <dst> [<router>]      enumerate or select paths
//! lmpr loads <topo> <router> <traffic>          flow-level max link load
//! lmpr study <topo> <router> [--quick]          CI permutation study
//! lmpr flit  <topo> <router> <load> [--quick]   flit-level run at one load
//! lmpr oblivious <topo> <router>                oblivious-ratio estimate
//! lmpr worstcase <topo> <router>                adversarial permutation search
//! lmpr tables <topo> <k> [top|bottom]           forwarding-table footprint
//! ```
//!
//! Topologies: `xgft:M1,M2,..;W1,W2,..`, `mport:M,N`, `kary:K,N`.
//! Routers: `dmodk`, `smodk`, `shift1:K`, `disjoint:K`, `stride:K`,
//! `random:K[:seed]`, `umulti`.
//! Traffic: `perm:SEED`, `uniform`, `adversarial`, `shift:K`,
//! `hotspot:NODE:FRACTION`, `alltoone:NODE`.

#![forbid(unsafe_code)]

use lmpr::flowsim::{
    estimate_oblivious_ratio, level_breakdown, ml_lower_bound, performance_ratio,
    worst_permutation, SearchConfig,
};
use lmpr::prelude::*;
use lmpr::routing::forwarding::{ForwardingTables, SlotOrder};
use lmpr::topology::render;
use lmpr::traffic::{
    adversarial_concentration, all_to_one, hotspot, shift_permutation, TrafficMatrix,
};
use std::process::exit;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage("missing subcommand");
    }
    let cmd = args[0].as_str();
    let rest = &args[1..];
    let result = match cmd {
        "info" => cmd_info(rest),
        "paths" => cmd_paths(rest),
        "loads" => cmd_loads(rest),
        "study" => cmd_study(rest),
        "flit" => cmd_flit(rest),
        "oblivious" => cmd_oblivious(rest),
        "worstcase" => cmd_worstcase(rest),
        "tables" => cmd_tables(rest),
        "help" | "--help" | "-h" => {
            eprintln!("{}", USAGE);
            return;
        }
        other => Err(format!("unknown subcommand `{other}`")),
    };
    if let Err(e) = result {
        usage(&e);
    }
}

const USAGE: &str = "\
usage:
  lmpr info  <topo> [--dot]
  lmpr paths <topo> <src> <dst> [<router>]
  lmpr loads <topo> <router> <traffic>
  lmpr study <topo> <router> [--quick]
  lmpr flit  <topo> <router> <load> [--quick]
  lmpr oblivious <topo> <router>
  lmpr worstcase <topo> <router>
  lmpr tables <topo> <k> [top|bottom]

topo    = xgft:M1,..;W1,..  |  mport:M,N  |  kary:K,N
router  = dmodk | smodk | shift1:K | disjoint:K | stride:K | random:K[:seed] | umulti
traffic = perm:SEED | uniform | adversarial | shift:K | hotspot:NODE:FRAC | alltoone:NODE";

fn usage(err: &str) -> ! {
    eprintln!("lmpr: {err}\n{USAGE}");
    exit(2);
}

fn parse_topo(s: &str) -> Result<Topology, String> {
    let (kind, body) = s
        .split_once(':')
        .ok_or_else(|| format!("bad topology `{s}`"))?;
    let nums = |t: &str| -> Result<Vec<u32>, String> {
        t.split(',')
            .map(|x| {
                x.parse::<u32>()
                    .map_err(|e| format!("bad number in `{t}`: {e}"))
            })
            .collect()
    };
    let spec = match kind {
        "xgft" => {
            let (m, w) = body
                .split_once(';')
                .ok_or("xgft needs `M..;W..`".to_owned())?;
            XgftSpec::new(&nums(m)?, &nums(w)?)
        }
        "mport" => {
            let v = nums(body)?;
            if v.len() != 2 {
                return Err("mport needs `M,N`".into());
            }
            XgftSpec::m_port_n_tree(v[0], v[1] as usize)
        }
        "kary" => {
            let v = nums(body)?;
            if v.len() != 2 {
                return Err("kary needs `K,N`".into());
            }
            XgftSpec::k_ary_n_tree(v[0], v[1] as usize)
        }
        other => return Err(format!("unknown topology kind `{other}`")),
    }
    .map_err(|e| e.to_string())?;
    Ok(Topology::new(spec))
}

fn parse_traffic(s: &str, topo: &Topology) -> Result<TrafficMatrix, String> {
    let n = topo.num_pns();
    let mut parts = s.split(':');
    let head = parts.next().unwrap_or("");
    let arg = |p: Option<&str>| -> Result<u32, String> {
        p.ok_or_else(|| format!("`{head}` needs an argument"))?
            .parse::<u32>()
            .map_err(|e| e.to_string())
    };
    let node = |p: Option<&str>| -> Result<PnId, String> {
        let v = arg(p)?;
        (v < n)
            .then_some(PnId(v))
            .ok_or_else(|| format!("node {v} out of range (the topology has {n} nodes)"))
    };
    if n < 2 && matches!(head, "uniform" | "hotspot") {
        return Err(format!("`{head}` traffic needs at least two nodes"));
    }
    match head {
        "perm" => {
            let seed = arg(parts.next())? as u64;
            Ok(TrafficMatrix::permutation(&random_permutation(n, seed)))
        }
        "uniform" if u64::from(n) * u64::from(n - 1) > 1 << 24 => {
            Err(format!("uniform traffic over {n} nodes is too dense"))
        }
        "uniform" => Ok(TrafficMatrix::uniform(n, 1.0)),
        "adversarial" => adversarial_concentration(topo)
            .map(|p| p.tm)
            .ok_or_else(|| "topology too small for the Theorem-2 pattern".to_owned()),
        "shift" => Ok(TrafficMatrix::permutation(&shift_permutation(
            n,
            arg(parts.next())?,
        ))),
        "hotspot" => {
            let hot = node(parts.next())?;
            let frac: f64 = parts
                .next()
                .ok_or("hotspot needs `NODE:FRACTION`".to_owned())?
                .parse()
                .map_err(|e: std::num::ParseFloatError| e.to_string())?;
            if !(0.0..=1.0).contains(&frac) {
                return Err(format!("hotspot fraction {frac} is outside [0, 1]"));
            }
            Ok(hotspot(n, &[hot], frac))
        }
        "alltoone" => Ok(all_to_one(n, node(parts.next())?)),
        other => Err(format!("unknown traffic `{other}`")),
    }
}

fn cmd_info(args: &[String]) -> Result<(), String> {
    let topo = parse_topo(args.first().ok_or("info needs a topology")?)?;
    if args.iter().any(|a| a == "--dot") {
        print!("{}", render::to_dot(&topo));
    } else {
        print!("{}", render::summary(&topo));
        println!(
            "  LID budget       : max realizable K = {}, UMULTI realizable: {}",
            lmpr::routing::lid::max_realizable_budget(&topo),
            lmpr::routing::lid::umulti_realizable(&topo),
        );
    }
    Ok(())
}

fn cmd_paths(args: &[String]) -> Result<(), String> {
    let topo = parse_topo(args.first().ok_or("paths needs a topology")?)?;
    let src = PnId(
        args.get(1)
            .ok_or("paths needs <src>")?
            .parse()
            .map_err(|e| format!("{e}"))?,
    );
    let dst = PnId(
        args.get(2)
            .ok_or("paths needs <dst>")?
            .parse()
            .map_err(|e| format!("{e}"))?,
    );
    if src.0 >= topo.num_pns() || dst.0 >= topo.num_pns() {
        return Err("node id out of range".into());
    }
    println!(
        "pair ({}, {}): NCA level {}, {} shortest paths, d-mod-k -> path {}",
        src.0,
        dst.0,
        topo.nca_level(src, dst),
        topo.num_paths(src, dst),
        topo.dmodk_path(src, dst).0
    );
    let selected: Vec<PathId> = match args.get(3) {
        Some(r) => RouterKind::parse(r)?
            .path_set(&topo, src, dst)
            .paths()
            .to_vec(),
        None => topo.all_paths(src, dst).collect(),
    };
    for p in selected {
        let hops: Vec<String> = topo
            .path_nodes(src, dst, p)
            .iter()
            .map(|nd| render::label(&topo, *nd))
            .collect();
        println!("  path {:>3}: {}", p.0, hops.join(" -> "));
    }
    Ok(())
}

fn cmd_loads(args: &[String]) -> Result<(), String> {
    let topo = parse_topo(args.first().ok_or("loads needs a topology")?)?;
    let router = RouterKind::parse(args.get(1).ok_or("loads needs a router")?)?;
    let tm = parse_traffic(args.get(2).ok_or("loads needs a traffic spec")?, &topo)?;
    let loads = LinkLoads::accumulate(&topo, &router, &tm);
    let (hot, max) = loads.argmax();
    let e = topo.endpoints(hot);
    println!("router  : {}", router.name());
    println!("flows   : {}", tm.flows().len());
    println!(
        "max load: {max:.4}  (link {} -> {})",
        render::label(&topo, e.from),
        render::label(&topo, e.to)
    );
    println!("ML bound: {:.4}", ml_lower_bound(&topo, &tm));
    println!("ratio   : {:.4}", performance_ratio(&topo, &router, &tm));
    println!("\nper-level breakdown (max / mean / imbalance):");
    for c in level_breakdown(&topo, &loads) {
        println!(
            "  level {} {:>4}: {:>8.3} / {:>8.3} / {:>6.3}",
            c.level,
            format!("{:?}", c.dir).to_lowercase(),
            c.max,
            c.mean,
            c.imbalance()
        );
    }
    Ok(())
}

fn cmd_study(args: &[String]) -> Result<(), String> {
    let topo = parse_topo(args.first().ok_or("study needs a topology")?)?;
    let router = RouterKind::parse(args.get(1).ok_or("study needs a router")?)?;
    let cfg = if args.iter().any(|a| a == "--quick") {
        StudyConfig {
            initial_samples: 30,
            max_samples: 120,
            rel_half_width: 0.05,
            ..StudyConfig::default()
        }
    } else {
        StudyConfig::default()
    };
    let r = PermutationStudy::new(topo, cfg).run(&router);
    println!("router       : {}", router.name());
    println!("avg max load : {:.4}", r.mean);
    println!("99% CI       : ±{:.4}", r.half_width);
    println!("samples      : {} (converged: {})", r.samples, r.converged);
    Ok(())
}

fn cmd_flit(args: &[String]) -> Result<(), String> {
    let topo = parse_topo(args.first().ok_or("flit needs a topology")?)?;
    let router = RouterKind::parse(args.get(1).ok_or("flit needs a router")?)?;
    let load: f64 = args
        .get(2)
        .ok_or("flit needs an offered load in (0,1]")?
        .parse()
        .map_err(|e: std::num::ParseFloatError| e.to_string())?;
    let cfg = if args.iter().any(|a| a == "--quick") {
        SimConfig {
            warmup_cycles: 2_000,
            measure_cycles: 6_000,
            offered_load: load,
            ..SimConfig::default()
        }
    } else {
        SimConfig {
            offered_load: load,
            ..SimConfig::default()
        }
    };
    let s = FlitSim::simulate(&topo, router, cfg).map_err(|e| e.to_string())?;
    println!("router            : {}", router.name());
    println!("offered load      : {:.1}%", s.offered_load * 100.0);
    println!(
        "accepted thpt     : {:.2}%",
        s.accepted_throughput() * 100.0
    );
    println!("avg message delay : {:.1} cycles", s.avg_message_delay());
    println!(
        "delay p50/p95/p99 : {:.0} / {:.0} / {:.0}",
        s.delay_p50, s.delay_p95, s.delay_p99
    );
    println!("completion rate   : {:.1}%", s.completion_rate() * 100.0);
    println!("source backlog    : {} packets", s.final_source_backlog);
    Ok(())
}

fn cmd_oblivious(args: &[String]) -> Result<(), String> {
    let topo = parse_topo(args.first().ok_or("oblivious needs a topology")?)?;
    let router = RouterKind::parse(args.get(1).ok_or("oblivious needs a router")?)?;
    let e = estimate_oblivious_ratio(&topo, &router, 50, 1);
    println!("router            : {}", router.name());
    println!("oblivious ratio ≥ : {:.3}", e.ratio);
    println!("witness           : {}", e.witness);
    Ok(())
}

fn cmd_worstcase(args: &[String]) -> Result<(), String> {
    let topo = parse_topo(args.first().ok_or("worstcase needs a topology")?)?;
    let router = RouterKind::parse(args.get(1).ok_or("worstcase needs a router")?)?;
    let w = worst_permutation(&topo, &router, SearchConfig::default());
    println!("router              : {}", router.name());
    println!("worst ratio found   : {:.3}", w.ratio);
    let shown = w.permutation.len().min(16);
    println!(
        "permutation (first {shown}): {:?}{}",
        &w.permutation[..shown],
        if w.permutation.len() > shown {
            " …"
        } else {
            ""
        }
    );
    Ok(())
}

fn cmd_tables(args: &[String]) -> Result<(), String> {
    let topo = parse_topo(args.first().ok_or("tables needs a topology")?)?;
    let k: u64 = args
        .get(1)
        .ok_or("tables needs K")?
        .parse()
        .map_err(|e: std::num::ParseIntError| e.to_string())?;
    let order = match args.get(2).map(String::as_str) {
        None | Some("bottom") => SlotOrder::BottomFirst,
        Some("top") => SlotOrder::TopFirst,
        Some(other) => return Err(format!("unknown slot order `{other}`")),
    };
    let ft = ForwardingTables::try_build(&topo, k, order).map_err(|e| e.to_string())?;
    println!("topology      : {}", topo.spec());
    println!("paths per dst : {k} (slot order {order:?})");
    println!("LMC           : {}", ft.lmc());
    println!("LFT entries   : {} across all switches", ft.total_entries());
    println!(
        "LIDs consumed : {} of {}",
        lmpr::routing::lid::lids_required(&topo, k).unwrap_or(0),
        lmpr::routing::lid::UNICAST_LIDS
    );
    // Validate every route end to end (what a subnet manager would do).
    let n = topo.num_pns();
    let mut checked = 0u64;
    for s in 0..n {
        for d in 0..n {
            for slot in 0..k.min(4) {
                ft.route(&topo, PnId(s), PnId(d), slot)
                    .map_err(|e| e.to_string())?;
                checked += 1;
            }
        }
    }
    println!("validated     : {checked} table walks, all shortest and correct");
    Ok(())
}
