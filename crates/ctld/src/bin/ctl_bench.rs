//! Controller benchmark: queries/sec and reconvergence latency under a
//! Poisson fault feed on a 1024-end-host 3-level XGFT.
//!
//! ```text
//! ctl_bench [--out BENCH_ctld.json] [--quick]
//! ```
//!
//! Starts a real daemon (socket and all) on `16port3tree` with
//! `disjoint(4)`, replays a Poisson link fail/repair schedule through
//! `tick`, and hammers epoch-fenced `paths` batches from client
//! threads while the controller reconverges around the churn. Fenced
//! rejections (a commit landing mid-batch) are counted, refetched and
//! retried — exactly the protocol a real reader follows. The JSON
//! document records genesis-certificate cost, committed epochs,
//! reconvergence latency and end-to-end query throughput.

#![forbid(unsafe_code)]

use lmpr_codec::json::document;
use lmpr_core::{Router, RouterKind};
use lmpr_ctld::{read_frame, write_frame, Controller, CtlConfig, Request, Response, ServerConfig};
use std::os::unix::net::UnixStream;
use std::time::Instant;
use xgft::FaultSchedule;

const TOPO: &str = "16port3tree";
const KIND: RouterKind = RouterKind::Disjoint(4);
const FAIL_RATE: f64 = 2e-6;
const MEAN_REPAIR: f64 = 3_000.0;
const SEED: u64 = 7;

struct BenchArgs {
    out: String,
    quick: bool,
}

fn parse_args() -> Result<BenchArgs, String> {
    let mut args = BenchArgs {
        out: "BENCH_ctld.json".to_owned(),
        quick: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--out" => args.out = it.next().ok_or("--out requires a value")?,
            "--quick" => args.quick = true,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(args)
}

fn roundtrip(stream: &mut UnixStream, req: &Request) -> Result<Response, String> {
    write_frame(stream, req.to_json().as_bytes()).map_err(|e| e.to_string())?;
    let payload = read_frame(stream).map_err(|e| e.to_string())?;
    Response::decode(&payload).map_err(|e| e.to_string())
}

fn fetch_epoch(stream: &mut UnixStream) -> Result<u64, String> {
    match roundtrip(stream, &Request::Status)? {
        Response::Status { epoch, .. } => Ok(epoch),
        other => Err(format!("unexpected status reply: {other:?}")),
    }
}

/// One query worker: epoch-fenced batches of `batch` pairs walked
/// deterministically over the pair space, refetching the epoch on a
/// fence. Returns (answered pairs, fenced batches).
fn query_worker(
    socket: &str,
    pns: u32,
    stride: u32,
    batch: usize,
    stop: &std::sync::atomic::AtomicBool,
) -> Result<(u64, u64), String> {
    let mut stream = UnixStream::connect(socket).map_err(|e| e.to_string())?;
    let mut epoch = fetch_epoch(&mut stream)?;
    let (mut answered, mut fenced) = (0u64, 0u64);
    let mut cursor = stride;
    while !stop.load(std::sync::atomic::Ordering::Relaxed) {
        let mut pairs = Vec::with_capacity(batch);
        for _ in 0..batch {
            let s = cursor % pns;
            let d = (cursor.wrapping_mul(2654435761) >> 7) % pns;
            cursor = cursor.wrapping_add(stride | 1);
            if s != d {
                pairs.push((s, d));
            }
        }
        let n = pairs.len() as u64;
        match roundtrip(
            &mut stream,
            &Request::Paths {
                epoch,
                deadline_ms: None,
                pairs,
            },
        )? {
            Response::Paths { .. } => answered += n,
            Response::Error { epoch: server, .. } => {
                fenced += 1;
                epoch = if server > 0 {
                    server
                } else {
                    fetch_epoch(&mut stream)?
                };
            }
            other => return Err(format!("unexpected paths reply: {other:?}")),
        }
    }
    Ok((answered, fenced))
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    lmpr_ctld::check_out_path(&args.out)?;
    let (horizon, tick_step, workers) = if args.quick {
        (20_000u64, 1_000u64, 2usize)
    } else {
        (100_000u64, 1_000u64, 4usize)
    };

    let scratch = std::env::temp_dir().join(format!("ctl-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch).map_err(|e| e.to_string())?;
    let state_dir = scratch.join("state");
    let socket = scratch.join("ctld.sock");
    let socket_str = socket.to_str().ok_or("non-utf8 temp path")?.to_owned();

    let (_, topo) = xgft::topology_by_name(TOPO).ok_or("bench topology missing")?;
    let pns = topo.num_pns();
    let schedule = FaultSchedule::poisson(&topo, FAIL_RATE, MEAN_REPAIR, horizon, SEED);
    let fault_events = schedule.events().len();

    let mut cfg = CtlConfig::new(TOPO, KIND, &state_dir);
    cfg.schedule = schedule;

    let genesis_started = Instant::now();
    let (ctl, report) = Controller::start(cfg).map_err(|e| e.to_string())?;
    let genesis_ms = genesis_started.elapsed().as_millis() as u64;
    if !report.certified() {
        return Err("genesis certificate failed".to_owned());
    }

    let server_cfg = ServerConfig::new(&socket);
    let server = std::thread::spawn(move || serve_quiet(ctl, server_cfg));

    // Wait for the socket to come up.
    let mut probe = None;
    for _ in 0..200 {
        match UnixStream::connect(&socket) {
            Ok(s) => {
                probe = Some(s);
                break;
            }
            Err(_) => std::thread::sleep(std::time::Duration::from_millis(10)),
        }
    }
    let mut driver = probe.ok_or("server did not come up")?;

    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let mut handles = Vec::new();
    for w in 0..workers {
        let socket = socket_str.clone();
        let stop = std::sync::Arc::clone(&stop);
        handles.push(std::thread::spawn(move || {
            query_worker(&socket, pns, 17 + w as u32 * 101, 64, &stop)
        }));
    }

    // Drive the fault timeline while the workers hammer queries.
    let measure_started = Instant::now();
    let mut t = 0;
    while t < horizon {
        t += tick_step;
        match roundtrip(&mut driver, &Request::Tick { to: t })? {
            Response::Tick { .. } => {}
            other => return Err(format!("unexpected tick reply: {other:?}")),
        }
    }
    // Let the workers hammer the settled fabric for a steady-state
    // window, so queries/sec is not dominated by the churn phase.
    std::thread::sleep(std::time::Duration::from_millis(if args.quick {
        200
    } else {
        1_000
    }));
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    let (mut answered, mut fenced) = (0u64, 0u64);
    for h in handles {
        let (a, f) = h.join().map_err(|_| "worker panicked".to_owned())??;
        answered += a;
        fenced += f;
    }
    let seconds = measure_started.elapsed().as_secs_f64();

    let status = match roundtrip(&mut driver, &Request::Status)? {
        Response::Status {
            epoch,
            reconv_count,
            reconv_total_us,
            reconv_max_us,
            ..
        } => (epoch, reconv_count, reconv_total_us, reconv_max_us),
        other => return Err(format!("unexpected status reply: {other:?}")),
    };
    roundtrip(&mut driver, &Request::Shutdown)?;
    let _ = server.join();
    let _ = std::fs::remove_dir_all(&scratch);

    let (epoch, reconv_count, reconv_total_us, reconv_max_us) = status;
    let mean_us = if reconv_count > 0 {
        reconv_total_us as f64 / reconv_count as f64
    } else {
        0.0
    };
    let per_sec = if seconds > 0.0 {
        answered as f64 / seconds
    } else {
        0.0
    };

    let doc = document(|w| {
        w.obj(|w| {
            w.key("experiment").str("ctl_bench");
            w.key("topology").str(TOPO);
            w.key("scheme").str(&KIND.name());
            w.key("pns").int(pns);
            w.key("quick").bool(args.quick);
            w.key("schedule").obj_line(|w| {
                w.key("kind").str("poisson");
                w.key("fail_rate").f64(FAIL_RATE);
                w.key("mean_repair").f64(MEAN_REPAIR);
                w.key("horizon").int(horizon);
                w.key("seed").int(SEED);
                w.key("events").int(fault_events);
            });
            w.key("genesis_cert_ms").int(genesis_ms);
            w.key("epochs_committed").int(epoch);
            w.key("reconvergence").obj_line(|w| {
                w.key("count").int(reconv_count);
                w.key("mean_us").f64(mean_us);
                w.key("max_us").int(reconv_max_us);
            });
            w.key("queries").obj_line(|w| {
                w.key("answered").int(answered);
                w.key("fenced_batches").int(fenced);
                w.key("seconds").f64(seconds);
                w.key("per_sec").f64(per_sec);
            });
        })
    }) + "\n";
    std::fs::write(&args.out, &doc).map_err(|e| format!("cannot write {}: {e}", args.out))?;
    eprintln!(
        "ctl_bench: {epoch} epochs, {reconv_count} reconvergences \
         (mean {mean_us:.0} us, max {reconv_max_us} us), {per_sec:.0} queries/sec -> {}",
        args.out
    );
    Ok(())
}

/// Run the server, discarding its result (the bench shuts it down).
fn serve_quiet(ctl: Controller, cfg: ServerConfig) {
    if let Err(e) = lmpr_ctld::serve(ctl, cfg) {
        eprintln!("ctl_bench server: {e}");
    }
}

fn main() {
    if let Err(e) = run() {
        eprintln!("ctl_bench: {e}");
        std::process::exit(1);
    }
}
