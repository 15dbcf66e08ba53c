//! The probe pass of the traced run: the workloads' own inputs replayed
//! through the layer functions directly, each call timed from here.
//! Layers are the crates. What a probe cannot see (queueing, the
//! socket, glue inside `ingest`) is stated as a share, not hidden.

use crate::harness::{Checks, Metrics};
use crate::scratch::Scratch;
use crate::stats;
use crate::trace::Tracer;
use crate::workloads::{self, ctl, flit, flow};
use lmpr_core::{Disjoint, Router, RouterKind, SelectionEngine};
use lmpr_ctld::{
    read_frame, write_frame, Checkpoint, Client, Controller, CtlConfig, Request, Response, Store,
};
use lmpr_flitsim::{FlitSim, SimConfig};
use lmpr_flowsim::LinkLoads;
use lmpr_traffic::{random_permutation, TrafficMatrix};
use lmpr_verify::{certify_epoch, change_blast_radius, EpochScope};
use std::hint::black_box;
use std::os::unix::net::UnixStream;
use std::time::Instant;
use xgft::{FaultChange, FaultSet, PathId, PnId, Topology, XgftSpec};

/// What the probes need from `flit_churn`'s traced repetition: its
/// selection-cache hits and misses and the seconds it spent stepping.
pub struct FromChurn {
    pub hits: f64,
    pub misses: f64,
    pub step_s: f64,
}

/// Wall seconds of `f` under a span.
fn timed<T>(tr: &mut Tracer, name: &'static str, f: impl FnOnce() -> T) -> (f64, T) {
    tr.enter(name);
    let t0 = Instant::now();
    let out = f();
    let secs = t0.elapsed().as_secs_f64();
    tr.exit();
    (secs, out)
}

/// Seconds of each of `n` runs of `f`.
fn repeat(tr: &mut Tracer, name: &'static str, n: usize, mut f: impl FnMut()) -> Vec<f64> {
    (0..n).map(|_| timed(tr, name, &mut f).0).collect()
}

/// A seeded sample of `count` distinct-endpoint pairs.
fn sample_pairs(topo: &Topology, seed: u64, count: usize) -> Vec<(PnId, PnId)> {
    let n = topo.num_pns();
    let mut pairs = Vec::with_capacity(count);
    let mut round = 0u64;
    while pairs.len() < count {
        let perm = random_permutation(n, seed ^ (0x9E37 + round));
        pairs.extend(
            (0..n)
                .map(|s| (PnId(s), PnId(perm[s as usize])))
                .filter(|(s, d)| s != d),
        );
        round += 1;
    }
    pairs.truncate(count);
    pairs
}

/// Miss and hit cost of a cached engine over `pairs`, ns per pair.
fn selection_costs(
    tr: &mut Tracer,
    topo: &Topology,
    view: &FaultSet,
    pairs: &[(PnId, PnId)],
) -> (f64, f64) {
    let mut engine = SelectionEngine::cached(RouterKind::Disjoint(flow::K), view.clone());
    let mut out: Vec<PathId> = Vec::new();
    let mut pass = |tr: &mut Tracer, name| {
        timed(tr, name, || {
            for &(s, d) in pairs {
                let _ = black_box(engine.try_select(topo, s, d, &mut out));
            }
        })
        .0 * 1e9
            / pairs.len() as f64
    };
    let miss = pass(tr, "core.selection.miss_pass");
    let hit = pass(tr, "core.selection.hit_pass");
    (miss, hit)
}

pub fn run(
    seed: u64,
    scratch: &Scratch,
    from: &FromChurn,
    tr: &mut Tracer,
    m: &mut Metrics,
    checks: &mut Checks,
) {
    tr.enter("probes");
    let large = workloads::topology(flow::TOPOLOGY);
    let pairs = sample_pairs(&large, seed, 16_384);
    let faults = flow::faults(&large);
    xgft_probes(seed, &large, &pairs, &faults, tr, m);
    core_probes(seed, &large, &pairs, &faults, tr, m);
    flow_probes(seed, &large, tr, m);
    flit_probes(seed, from, tr, m);
    write_path_probes(scratch, tr, m, checks);
    read_path_probes(seed, scratch, tr, m, checks);
    tr.exit();
}

fn xgft_probes(
    seed: u64,
    topo: &Topology,
    pairs: &[(PnId, PnId)],
    faults: &FaultSet,
    tr: &mut Tracer,
    m: &mut Metrics,
) {
    let build = repeat(tr, "xgft.topology.new", 21, || {
        black_box(Topology::new(
            XgftSpec::m_port_n_tree(16, 3).expect("valid spec"),
        ));
    });
    m.put("xgft.topology.build_us", stats::median(&build) * 1e6);

    let mut walked = 0u64;
    let (secs, ()) = timed(tr, "xgft.paths.walk", || {
        for &(s, d) in pairs {
            for p in topo.all_paths(s, d) {
                topo.walk_path(s, d, p, |l| {
                    black_box(l);
                });
                walked += 1;
            }
        }
    });
    m.put("xgft.paths.walk_ns_per_path", secs * 1e9 / walked as f64);

    let mut out = Vec::new();
    let (secs, ()) = timed(tr, "xgft.fault.fill_surviving", || {
        for &(s, d) in pairs {
            faults.fill_surviving(topo, s, d, &mut out);
            black_box(&out);
        }
    });
    m.put(
        "xgft.fault.fill_surviving_ns_per_pair",
        secs * 1e9 / pairs.len() as f64,
    );

    let churn = flit::FlitChurn::new(seed);
    let poisson = repeat(tr, "xgft.schedule.poisson", 11, || {
        black_box(churn.schedule());
    });
    m.put(
        "xgft.schedule.poisson_build_us",
        stats::median(&poisson) * 1e6,
    );
}

fn core_probes(
    seed: u64,
    topo: &Topology,
    pairs: &[(PnId, PnId)],
    faults: &FaultSet,
    tr: &mut Tracer,
    m: &mut Metrics,
) {
    let k = flow::K;
    for (tag, kind) in [
        ("dmodk", RouterKind::DModK),
        ("shift1", RouterKind::ShiftOne(k)),
        ("disjoint", RouterKind::Disjoint(k)),
        ("random", RouterKind::RandomK(k, seed)),
    ] {
        let mut out = Vec::new();
        let passes = repeat(tr, "core.router.fill_paths_pass", 3, || {
            for &(s, d) in pairs {
                kind.fill_paths(topo, s, d, &mut out);
                black_box(&out);
            }
        });
        m.put(
            format!("core.router.select_ns_per_pair.{tag}"),
            stats::min(&passes) * 1e9 / pairs.len() as f64,
        );
    }
    let (miss, hit) = selection_costs(tr, topo, faults, pairs);
    m.put("core.selection.miss_ns_per_pair", miss);
    m.put("core.selection.hit_ns_per_pair", hit);
}

fn flow_probes(seed: u64, topo: &Topology, tr: &mut Tracer, m: &mut Metrics) {
    let (secs, tm) = timed(tr, "traffic.uniform", || {
        TrafficMatrix::uniform(topo.num_pns(), 1.0)
    });
    m.put("traffic.uniform_build_ms", secs * 1e3);

    let blocks = flow::blocks(topo, &tm, seed);
    let blocks = &blocks[..16];
    let flows: usize = blocks.iter().map(|b| b.flows().len()).sum();
    let router = Disjoint::new(flow::K);
    let (secs, ()) = timed(tr, "flowsim.loads.accumulate", || {
        for b in blocks {
            black_box(LinkLoads::accumulate(topo, &router, b));
        }
    });
    m.put(
        "flowsim.loads.accumulate_ns_per_flow",
        secs * 1e9 / flows as f64,
    );

    let mut selected: Vec<Vec<PathId>> = Vec::with_capacity(flows);
    for f in blocks.iter().flat_map(|b| b.flows()) {
        let mut paths = Vec::new();
        router.fill_paths(topo, f.src, f.dst, &mut paths);
        selected.push(paths);
    }
    let mut loads = LinkLoads::zero(topo);
    let (secs, ()) = timed(tr, "flowsim.loads.deposit", || {
        for (f, paths) in blocks.iter().flat_map(|b| b.flows()).zip(&selected) {
            loads.deposit(topo, f.src, f.dst, paths, f.demand);
        }
    });
    black_box(loads.total());
    m.put(
        "flowsim.loads.deposit_ns_per_flow",
        secs * 1e9 / flows as f64,
    );
}

fn flit_probes(seed: u64, from: &FromChurn, tr: &mut Tracer, m: &mut Metrics) {
    let topo = flit::topology();
    let cfg = SimConfig {
        seed,
        ..SimConfig::default()
    };
    let news = repeat(tr, "flitsim.new", 11, || {
        black_box(FlitSim::new(&topo, Disjoint::new(flit::K), cfg).expect("valid configuration"));
    });
    m.put("flitsim.sim.new_us", stats::median(&news) * 1e6);

    // Whether selection or the pipeline owns the churn cycle: the
    // cache's hit and miss counts priced on this fabric, over the time
    // `step()` took.
    let n = topo.num_pns();
    let all: Vec<(PnId, PnId)> = (0..n)
        .flat_map(|s| {
            (0..n)
                .filter(move |&d| d != s)
                .map(move |d| (PnId(s), PnId(d)))
        })
        .collect();
    let (miss_ns, hit_ns) = selection_costs(tr, &topo, &FaultSet::new(), &all);
    m.put(
        "flitsim.selection.share_est.churn",
        (from.hits * hit_ns + from.misses * miss_ns) / (from.step_s * 1e9),
    );
}

/// Batches the write-path probe replays, and how often: like the
/// workloads, a stage's cost per batch is its minimum over the passes.
const WRITE_PROBE_BATCHES: usize = 60;
const WRITE_PROBE_PASSES: usize = 3;

/// `ctl_reconverge`'s batches through the layer functions `ingest`
/// calls, in its order — blast radius → `apply_changes` → scoped
/// certificate → checkpoint → `Store::commit` — and, pass for pass,
/// through `ingest` itself, so the share the stages do not explain is a
/// ratio of two like estimates taken moments apart.
fn write_path_probes(scratch: &Scratch, tr: &mut Tracer, m: &mut Metrics, checks: &mut Checks) {
    let topo = workloads::topology(ctl::SMALL);
    let label = topo.spec().to_string();
    // One draw of the feed for both replays: a timeline's prefix changes
    // with its horizon, so a shorter draw would not be these batches.
    let specs = ctl::fault_batches(&topo, ctl::RECONVERGE_BATCHES);
    let specs = &specs[..WRITE_PROBE_BATCHES];
    let probed: Vec<Vec<FaultChange>> = specs
        .iter()
        .map(|b| b.iter().map(|c| c.to_change()).collect())
        .collect();
    let n = u64::from(topo.num_pns());
    let changes: usize = probed.iter().map(Vec::len).sum();

    // Seconds per stage, pass and batch.
    const BLAST: usize = 0;
    const APPLY: usize = 1;
    const CERTIFY: usize = 2;
    const VIEW: usize = 3;
    const ENCODE: usize = 4;
    const COMMIT: usize = 5;
    let mut stages: [Vec<Vec<f64>>; 6] = Default::default();
    let mut ingests: Vec<Vec<f64>> = Vec::new();
    let (mut scoped_pairs, mut bytes) = (0u64, 0usize);
    let dir = scratch.fresh_dir("probe-store").expect("scratch directory");
    for _ in 0..WRITE_PROBE_PASSES {
        let _ = std::fs::remove_dir_all(&dir);
        let mut store = Store::open(&dir, 8).expect("store opens");
        let mut engine = SelectionEngine::cached(ctl::KIND, FaultSet::new());
        let mut pass: [Vec<f64>; 6] = Default::default();
        scoped_pairs = 0;
        for (j, batch) in probed.iter().enumerate() {
            let epoch = j as u64 + 1;
            tr.set_op(j as u32);
            let (t, pairs) = timed(tr, "verify.change_blast_radius", || {
                change_blast_radius(&topo, batch)
            });
            pass[BLAST].push(t);
            pass[APPLY].push(
                timed(tr, "core.selection.apply_changes", || {
                    engine.apply_changes(&topo, batch)
                })
                .0,
            );
            let scope = if pairs.is_empty() || pairs.len() as u64 == n * (n - 1) {
                EpochScope::Full
            } else {
                EpochScope::Pairs(&pairs)
            };
            let (t, report) = timed(tr, "verify.certify_epoch", || {
                certify_epoch(&topo, &label, ctl::KIND, engine.view(), scope)
            });
            checks.check(report.certified(), || {
                format!("probe batch {epoch}: not certified")
            });
            pass[CERTIFY].push(t);
            scoped_pairs += pairs.len() as u64;
            let (t, cp) = timed(tr, "ctld.store.checkpoint_from_view", || {
                Checkpoint::from_view(1, epoch, 0, 0, epoch, engine.view())
            });
            pass[VIEW].push(t);
            let (t, image) = timed(tr, "ctld.store.checkpoint_to_bytes", || cp.to_bytes());
            pass[ENCODE].push(t);
            bytes = image.len();
            let (t, done) = timed(tr, "ctld.store.commit", || store.commit(&cp));
            checks.check(done.is_ok(), || format!("probe batch {epoch}: {done:?}"));
            pass[COMMIT].push(t);
        }
        for (stage, times) in stages.iter_mut().zip(pass) {
            stage.push(times);
        }

        let whole = scratch
            .fresh_dir("probe-ingest")
            .expect("scratch directory");
        let (mut ctl, _) = Controller::start(CtlConfig::new(ctl::SMALL, ctl::KIND, whole))
            .expect("a fresh state directory starts");
        ingests.push(
            specs
                .iter()
                .zip(1u64..)
                .map(|(batch, id)| {
                    let (t, applied) =
                        timed(tr, "ctld.controller.ingest", || ctl.ingest(id, batch));
                    checks.check(matches!(applied, Ok(true)), || {
                        format!("probe ingest {id}: {applied:?}")
                    });
                    t
                })
                .collect(),
        );
    }
    tr.set_op(u32::MAX);
    let undisturbed = stages.map(|passes| stats::repetition_minimum(&passes));
    let sum = |stage: usize| undisturbed[stage].iter().sum::<f64>();
    let per_batch = probed.len() as f64;
    m.put(
        "verify.blast_radius_us_per_batch",
        sum(BLAST) * 1e6 / per_batch,
    );
    m.put(
        "verify.blast_radius_pairs_per_batch",
        scoped_pairs as f64 / per_batch,
    );
    m.put(
        "verify.certify_scoped_us_per_batch",
        sum(CERTIFY) * 1e6 / per_batch,
    );
    m.put(
        "verify.certify_ns_per_pair",
        sum(CERTIFY) * 1e9 / scoped_pairs as f64,
    );
    m.put(
        "ctld.store.checkpoint_encode_us",
        (sum(VIEW) + sum(ENCODE)) * 1e6 / per_batch,
    );
    let commits = &undisturbed[COMMIT];
    m.put(
        "ctld.store.commit_us_p50",
        stats::percentile_of(commits, 0.5) * 1e6,
    );
    m.put(
        "ctld.store.commit_us_p90",
        stats::percentile_of(commits, 0.9) * 1e6,
    );
    m.put("ctld.store.checkpoint_bytes", bytes as f64);
    // `commit` encodes the checkpoint itself, so the chain counts
    // `to_bytes` once, inside it.
    let attributed = sum(BLAST) + sum(APPLY) + sum(CERTIFY) + sum(VIEW) + sum(COMMIT);
    let ingest: f64 = stats::repetition_minimum(&ingests).iter().sum();
    m.put(
        "ctld.controller.ingest_unattributed_share",
        1.0 - attributed / ingest,
    );

    // Invalidation cost against a warm cache: every pair selected, each
    // batch applied, the flushed pairs selected again (untimed).
    let mut warm = SelectionEngine::cached(ctl::KIND, FaultSet::new());
    let mut out = Vec::new();
    let hosts = topo.num_pns();
    for s in 0..hosts {
        for d in (0..hosts).filter(|&d| d != s) {
            warm.select(&topo, PnId(s), PnId(d), &mut out);
        }
    }
    let (mut secs, mut flushed_total) = (0.0, 0u64);
    let mut flushed = Vec::new();
    for batch in &probed {
        flushed.clear();
        let (t, count) = timed(tr, "core.selection.apply_changes_warm", || {
            warm.apply_changes_collect(&topo, batch, &mut flushed)
        });
        secs += t;
        flushed_total += count;
        for &key in &flushed {
            let (s, d) = lmpr_core::route_key_pair(key);
            warm.select(&topo, s, d, &mut out);
        }
    }
    m.put(
        "core.selection.apply_changes_us_per_change",
        secs * 1e6 / changes as f64,
    );
    m.put(
        "core.selection.invalidated_per_change",
        flushed_total as f64 / changes as f64,
    );

    let mut store = Store::open(&dir, 8).expect("store opens");
    let loads = repeat(tr, "ctld.store.load_latest", 5, || {
        black_box(store.load_latest().expect("a checkpoint loads"));
    });
    m.put("ctld.store.load_latest_us", stats::median(&loads) * 1e6);
    drop(store);
    let resumes = repeat(tr, "ctld.controller.start_resume", 3, || {
        let (ctl, _) = Controller::start(CtlConfig::new(ctl::SMALL, ctl::KIND, &dir))
            .expect("the probe's state directory resumes");
        assert_eq!(ctl.epoch(), probed.len() as u64);
    });
    m.put("ctld.controller.resume_us", stats::median(&resumes) * 1e6);

    for (name, tag) in [(ctl::SMALL, "8port3tree"), (ctl::LARGE, "24port2tree")] {
        let topo = workloads::topology(name);
        let label = topo.spec().to_string();
        let (secs, report) = timed(tr, "verify.certify_epoch_full", || {
            certify_epoch(&topo, &label, ctl::KIND, &FaultSet::new(), EpochScope::Full)
        });
        checks.check(report.certified(), || {
            format!("{tag}: genesis not certified")
        });
        m.put(format!("verify.certify_full_ms.{tag}"), secs * 1e3);
    }
}

const READ_PROBE_PASSES: usize = 3;

/// `ctl_query`'s requests through the read path with no socket — request
/// encode → decode → `Controller::paths` → response encode → decode —
/// then the same requests through `serve`, then the socket alone and the
/// server answering `status`.
fn read_path_probes(
    seed: u64,
    scratch: &Scratch,
    tr: &mut Tracer,
    m: &mut Metrics,
    checks: &mut Checks,
) {
    let topo = workloads::topology(ctl::LARGE);
    let requests = ctl::query_requests(&topo, seed);
    let requests = &requests[..64];
    let pairs_total = requests.iter().map(Vec::len).sum::<usize>() as f64;

    // A committed genesis checkpoint lets the controller resume instead
    // of certifying the large fabric once more in this run.
    let dir = scratch.fresh_dir("probe-read").expect("scratch directory");
    Store::open(&dir, 8)
        .and_then(|mut s| s.commit(&Checkpoint::from_view(1, 0, 0, 0, 0, &FaultSet::new())))
        .expect("genesis checkpoint commits");
    let (mut ctl, _) = Controller::start(CtlConfig::new(ctl::LARGE, ctl::KIND, &dir))
        .expect("the probe controller resumes");

    let mut pass = |tr: &mut Tracer, name| {
        timed(tr, name, || {
            for pairs in requests {
                black_box(ctl.paths(0, pairs).expect("a quiet fabric answers"));
            }
        })
        .0 * 1e9
            / pairs_total
    };
    let miss = pass(tr, "ctld.controller.paths_miss_pass");
    let hit = pass(tr, "ctld.controller.paths_hit_pass");
    m.put("ctld.controller.paths_ns_per_pair.miss", miss);
    m.put("ctld.controller.paths_ns_per_pair.hit", hit);

    // Seconds per stage and request, minimum over the passes.
    const STAGES: usize = 5;
    let mut stages = [(); STAGES].map(|()| vec![f64::INFINITY; requests.len()]);
    let mut resp_bytes = 0usize;
    let mut frame = Vec::new();
    for (j, wanted) in (0..READ_PROBE_PASSES).flat_map(|_| requests.iter().enumerate()) {
        tr.set_op(j as u32);
        let req = Request::Paths {
            epoch: 0,
            deadline_ms: ctl::QUERY_DEADLINE_MS,
            pairs: wanted.clone(),
        };
        let (t1, text) = timed(tr, "ctld.wire.request_to_json", || req.to_json());
        let (t2, decoded) = timed(tr, "ctld.wire.request_decode", || {
            Request::decode(text.as_bytes())
        });
        let Ok(Request::Paths { epoch, pairs, .. }) = decoded else {
            checks.fail(format!("probe request {j}: the request did not round-trip"));
            continue;
        };
        let (t3, paths) = timed(tr, "ctld.controller.paths", || ctl.paths(epoch, &pairs));
        let resp = Response::Paths {
            epoch,
            mode: "serving".to_owned(),
            paths: paths.expect("a quiet fabric answers"),
        };
        let (t4, text) = timed(tr, "ctld.wire.response_to_json", || resp.to_json());
        let (t5, back) = timed(tr, "ctld.wire.response_decode", || {
            Response::decode(text.as_bytes())
        });
        checks.check(back.as_ref().ok() == Some(&resp), || {
            format!("probe request {j}: the response did not round-trip")
        });
        for (stage, t) in stages.iter_mut().zip([t1, t2, t3, t4, t5]) {
            stage[j] = stage[j].min(t);
        }
        resp_bytes += text.len();
        frame = text.into_bytes();
    }
    tr.set_op(u32::MAX);
    let [enc_req, dec_req, paths_s, enc_resp, dec_resp] =
        stages.map(|stage| stage.iter().sum::<f64>());
    m.put(
        "ctld.wire.req_encode_ns_per_pair",
        enc_req * 1e9 / pairs_total,
    );
    m.put(
        "ctld.wire.req_decode_ns_per_pair",
        dec_req * 1e9 / pairs_total,
    );
    m.put(
        "ctld.wire.resp_encode_ns_per_pair",
        enc_resp * 1e9 / pairs_total,
    );
    m.put(
        "ctld.wire.resp_decode_ns_per_pair",
        dec_resp * 1e9 / pairs_total,
    );
    m.put(
        "ctld.wire.resp_bytes_per_pair",
        resp_bytes as f64 / (READ_PROBE_PASSES as f64 * pairs_total),
    );
    let in_process = enc_req + dec_req + paths_s + enc_resp + dec_resp;

    // One reply frame of that size across a socket pair and back.
    let (mut near, mut far) = UnixStream::pair().expect("socket pair");
    let echo = std::thread::spawn(move || {
        while let Ok(payload) = read_frame(&mut far) {
            if write_frame(&mut far, &payload).is_err() {
                break;
            }
        }
    });
    let trips = repeat(tr, "ctld.wire.frame_roundtrip", 200, || {
        write_frame(&mut near, &frame).expect("frame written");
        black_box(read_frame(&mut near).expect("frame echoed"));
    });
    drop(near);
    echo.join().expect("echo thread");
    m.put("ctld.wire.frame_roundtrip_us", stats::median(&trips) * 1e6);

    // The same requests over the socket, against the same warm cache.
    let server = ctl::Server::spawn(ctl, scratch.socket("probe.sock"), checks);
    let mut client = Client::new(&server.socket);
    let trips: Vec<Vec<f64>> = (0..READ_PROBE_PASSES)
        .map(|_| {
            requests
                .iter()
                .map(|pairs| {
                    let (t, reply) = timed(tr, "ctld.client.paths", || {
                        client.paths(pairs, ctl::QUERY_DEADLINE_MS)
                    });
                    checks.check(reply.is_ok(), || format!("probe round trip: {reply:?}"));
                    t
                })
                .collect()
        })
        .collect();
    let over_socket: f64 = stats::repetition_minimum(&trips).iter().sum();
    m.put(
        "ctld.server.queue_socket_share",
        1.0 - in_process / over_socket,
    );

    let status = repeat(tr, "ctld.client.status", 500, || {
        black_box(client.status().expect("status answered"));
    });
    m.put(
        "ctld.server.status_roundtrip_us_p50",
        stats::percentile_of(&status, 0.5) * 1e6,
    );
    server.stop(checks);
}
