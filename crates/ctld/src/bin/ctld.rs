//! The routing-controller daemon.
//!
//! ```text
//! ctld --topo 8port2tree --kind disjoint:4 --state-dir /var/lib/ctld \
//!      --socket /run/ctld.sock [--schedule poisson:RATE:REPAIR:HORIZON:SEED]
//!      [--reconverge-delay-ms N]
//!      [--standby-of /run/primary.sock [--promote-after N]]
//! ```
//!
//! Loads the topology, resumes from the newest valid checkpoint in the
//! state directory (or bootstraps and fully verifies epoch 0), then
//! serves the wire protocol on the socket until a `shutdown` request.
//!
//! With `--standby-of SOCKET` the daemon starts as a hot standby
//! instead: it subscribes to the primary at `SOCKET`, streams every
//! committed `(generation, epoch)` into its own state directory, and
//! keeps redialing while the primary is down. With `--promote-after N`
//! the standby gives up after `N` consecutive failed redials, promotes
//! itself (bumping the generation lease so the deposed primary's
//! writes are fenced off), and serves the promoted state on
//! `--socket`. Without `--promote-after` the standby replicates until
//! interrupted and never serves.

#![forbid(unsafe_code)]

use lmpr_core::{Router, RouterKind};
use lmpr_ctld::{serve, Controller, CtlConfig, ReplicaConfig, ServerConfig, Standby};
use xgft::FaultSchedule;

struct Args {
    topo: String,
    kind: RouterKind,
    state_dir: String,
    socket: String,
    schedule_spec: Option<String>,
    reconverge_delay_ms: u64,
    standby_of: Option<String>,
    promote_after: Option<u64>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        topo: String::new(),
        kind: RouterKind::DModK,
        state_dir: String::new(),
        socket: String::new(),
        schedule_spec: None,
        reconverge_delay_ms: 0,
        standby_of: None,
        promote_after: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--topo" => args.topo = value("--topo")?,
            "--kind" => {
                let spec = value("--kind")?;
                args.kind =
                    RouterKind::parse(&spec).map_err(|e| format!("bad --kind {spec:?}: {e}"))?;
            }
            "--state-dir" => args.state_dir = value("--state-dir")?,
            "--socket" => args.socket = value("--socket")?,
            "--schedule" => args.schedule_spec = Some(value("--schedule")?),
            "--reconverge-delay-ms" => {
                args.reconverge_delay_ms = value("--reconverge-delay-ms")?
                    .parse()
                    .map_err(|e| format!("bad --reconverge-delay-ms: {e}"))?;
            }
            "--standby-of" => args.standby_of = Some(value("--standby-of")?),
            "--promote-after" => {
                args.promote_after = Some(
                    value("--promote-after")?
                        .parse()
                        .map_err(|e| format!("bad --promote-after: {e}"))?,
                );
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if args.topo.is_empty() || args.state_dir.is_empty() || args.socket.is_empty() {
        return Err("--topo, --state-dir and --socket are required".to_owned());
    }
    if args.promote_after.is_some() && args.standby_of.is_none() {
        return Err("--promote-after requires --standby-of".to_owned());
    }
    Ok(args)
}

/// Parse `poisson:RATE:REPAIR:HORIZON:SEED` against a topology.
fn parse_schedule(spec: &str, topo: &xgft::Topology) -> Result<FaultSchedule, String> {
    let parts: Vec<&str> = spec.split(':').collect();
    match parts.as_slice() {
        ["poisson", rate, repair, horizon, seed] => {
            let rate: f64 = rate.parse().map_err(|e| format!("bad rate: {e}"))?;
            let repair: f64 = repair.parse().map_err(|e| format!("bad repair: {e}"))?;
            let horizon: u64 = horizon.parse().map_err(|e| format!("bad horizon: {e}"))?;
            let seed: u64 = seed.parse().map_err(|e| format!("bad seed: {e}"))?;
            if !(0.0..=1.0).contains(&rate) {
                return Err("rate must be in [0, 1]".to_owned());
            }
            if !(repair > 0.0 && repair.is_finite()) {
                return Err("repair must be positive and finite".to_owned());
            }
            Ok(FaultSchedule::poisson(topo, rate, repair, horizon, seed))
        }
        ["none"] => Ok(FaultSchedule::new()),
        _ => Err(format!(
            "bad schedule {spec:?}; expected poisson:RATE:REPAIR:HORIZON:SEED or none"
        )),
    }
}

/// Run as a hot standby: replicate the primary into the state
/// directory, and (with `--promote-after`) take over once the primary
/// stays unreachable for that many consecutive redials.
fn run_standby(args: &Args, primary: &str) -> Result<(), String> {
    let mut rep = ReplicaConfig::new(primary, &args.state_dir);
    rep.max_redial_failures = args.promote_after;
    let standby = Standby::spawn(rep).map_err(|e| format!("standby start failed: {e}"))?;
    eprintln!(
        "ctld: standby of {primary}, replicating into {}",
        args.state_dir
    );
    let stats = standby.wait();
    eprintln!(
        "ctld: standby feed ended at generation {} epoch {} \
         ({} connects, {} epochs applied)",
        stats.generation, stats.epoch, stats.connects, stats.epochs_applied
    );
    if args.promote_after.is_none() {
        return Ok(());
    }
    let cfg = CtlConfig::new(&args.topo, args.kind, &args.state_dir);
    let (mut ctl, _) = Controller::start(cfg).map_err(|e| e.to_string())?;
    let gen = ctl.promote().map_err(|e| e.to_string())?;
    eprintln!(
        "ctld: promoted to generation {gen} at epoch {}, serving on {}",
        ctl.epoch(),
        args.socket
    );
    serve(ctl, ServerConfig::new(&args.socket)).map_err(|e| e.to_string())
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    if let Some(primary) = args.standby_of.clone() {
        return run_standby(&args, &primary);
    }
    let (_, topo) = xgft::topology_by_name(&args.topo)
        .ok_or_else(|| format!("unknown topology {:?}", args.topo))?;
    let schedule = match &args.schedule_spec {
        Some(spec) => parse_schedule(spec, &topo)?,
        None => FaultSchedule::new(),
    };
    let mut cfg = CtlConfig::new(&args.topo, args.kind, &args.state_dir);
    cfg.schedule = schedule;
    cfg.reconverge_delay_ms = args.reconverge_delay_ms;

    let (ctl, report) = Controller::start(cfg).map_err(|e| e.to_string())?;
    eprintln!(
        "ctld: serving {} / {} at epoch {} ({} certificate checks)",
        args.topo,
        args.kind.name(),
        ctl.epoch(),
        report.checks.len()
    );
    serve(ctl, ServerConfig::new(&args.socket)).map_err(|e| e.to_string())
}

fn main() {
    if let Err(e) = run() {
        eprintln!("ctld: {e}");
        std::process::exit(1);
    }
}
