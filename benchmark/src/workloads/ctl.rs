//! The `ctld` control plane: `ctl_reconverge` (the write path alone,
//! in process), `ctl_query` (the read path alone, over the socket) and
//! `ctl_mixed` (both on one controller thread, open loop).

use super::FAULT_SEED;
use crate::harness::{timed_op, BlockOut, Checks, Metrics, Workload};
use crate::scratch::Scratch;
use crate::stats;
use crate::trace::Tracer;
use lmpr_core::{RouterKind, SelectionEngine};
use lmpr_ctld::{serve, ChangeSpec, Client, Controller, CtlConfig, Mode, Response, ServerConfig};
use lmpr_traffic::random_permutation;
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use xgft::{FaultSchedule, FaultSet, PathId, PnId, Topology};

pub const KIND: RouterKind = RouterKind::Disjoint(4);
pub const K: usize = 4;

/// The write-path fabric (128 hosts) and the read-path fabric (288
/// hosts: big rows, yet a genesis certificate cheap enough to set up
/// several times a run).
pub const SMALL: &str = "8port3tree";
pub const LARGE: &str = "24port2tree";

/// Fault feed: per-link failure rate and mean repair time in ticks; the
/// timeline is cut into windows of this many ticks, one batch each.
pub const FEED_FAIL_RATE: f64 = 3e-6;
pub const FEED_MEAN_REPAIR: f64 = 3_000.0;
pub const FEED_WINDOW: u64 = 1_000;
/// Batches per `ctl_reconverge` repetition.
pub const RECONVERGE_BATCHES: usize = 120;

/// `ctl_query`: hosts whose full rows one request asks for (a pass
/// covers every host; one request is one operation).
pub const QUERY_REQUEST_ROWS: usize = 2;
pub const QUERY_DEADLINE_MS: Option<u64> = Some(5_000);

/// `ctl_mixed`: the writer submits the first [`MIXED_BATCHES`] batches
/// of `ctl_reconverge`'s feed, one per [`MIXED_WRITE_PERIOD`]; the reader
/// sends a [`MIXED_PAIRS`]-pair request every [`MIXED_READ_PERIOD`]. The
/// batches take about a sixth of the controller thread's time.
pub const MIXED_BATCHES: usize = 40;
pub const MIXED_WRITE_PERIOD: Duration = Duration::from_millis(50);
/// The writer's schedule starts this long after the reader's, half a
/// read period, so that no batch is due at the same instant as a
/// request and which of the two the server sees first is not a race.
pub const MIXED_WRITE_OFFSET: Duration = Duration::from_millis(1);
pub const MIXED_REQUESTS: usize = 1_000;
pub const MIXED_PAIRS: usize = 64;
pub const MIXED_READ_PERIOD: Duration = Duration::from_millis(2);
/// The writer leaves this long between an ack and its next batch even
/// when it is behind schedule: after a stall (an fsync hiccup of a
/// quarter of a second happens) a back-to-back catch-up would fence the
/// reader on every retry until its client gives up.
pub const MIXED_WRITE_GAP: Duration = Duration::from_millis(5);
/// Every n-th reader reply is kept and checked against the reference.
pub const MIXED_SAMPLE_EVERY: usize = 4;

/// The first `count` non-empty windows of the Poisson fail/repair
/// timeline on `topo`, one fault batch per window.
pub fn fault_batches(topo: &Topology, count: usize) -> Vec<Vec<ChangeSpec>> {
    let windows = (count as u64 * 5).div_ceil(4);
    let schedule = FaultSchedule::poisson(
        topo,
        FEED_FAIL_RATE,
        FEED_MEAN_REPAIR,
        windows * FEED_WINDOW,
        FAULT_SEED,
    );
    let batches: Vec<Vec<ChangeSpec>> = (0..windows)
        .map(|w| {
            schedule
                .events_between(w * FEED_WINDOW + 1, (w + 1) * FEED_WINDOW)
                .iter()
                .map(|e| ChangeSpec::from_change(e.change))
                .collect::<Vec<_>>()
        })
        .filter(|b| !b.is_empty())
        .take(count)
        .collect();
    assert_eq!(batches.len(), count, "the fault timeline is too sparse");
    batches
}

/// The fault view after each prefix of `batches`: `views[e]` is what a
/// controller at epoch `e` routes against.
pub fn views_after(topo: &Topology, batches: &[Vec<ChangeSpec>]) -> Vec<FaultSet> {
    let mut view = FaultSet::new();
    let mut views = vec![view.clone()];
    for batch in batches {
        for c in batch {
            c.to_change().apply(topo, &mut view);
        }
        views.push(view.clone());
    }
    views
}

/// What `Controller::digest` must return at `epoch` over `view`,
/// recomputed from a direct, uncached `SelectionEngine` — so equal
/// digests mean the controller answers every pair as the engine does.
pub fn reference_digest(topo: &Topology, view: &FaultSet, epoch: u64) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    let mut mix = |x: u64| {
        for b in x.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    let mut engine = SelectionEngine::with_view(KIND, view.clone());
    let mut paths = Vec::new();
    mix(epoch);
    let n = topo.num_pns();
    for s in 0..n {
        for d in (0..n).filter(|&d| d != s) {
            engine.select(topo, PnId(s), PnId(d), &mut paths);
            mix((u64::from(s) << 32) | u64::from(d));
            mix(paths.len() as u64);
            for p in &paths {
                mix(p.0);
            }
        }
    }
    h
}

/// Check one `paths` reply against a direct `SelectionEngine` on the
/// same fault view: the same path ids, `min(K, X)` of them.
pub fn reply_matches(
    topo: &Topology,
    view: &FaultSet,
    pairs: &[(u32, u32)],
    reply: &[Vec<u64>],
) -> bool {
    let mut engine = SelectionEngine::with_view(KIND, view.clone());
    let mut want: Vec<PathId> = Vec::new();
    pairs.len() == reply.len()
        && pairs.iter().zip(reply).all(|(&(s, d), got)| {
            let (s, d) = (PnId(s), PnId(d));
            engine.select(topo, s, d, &mut want);
            let surviving = view.num_surviving(topo, s, d) as usize;
            want.len() == K.min(surviving) && want.iter().map(|p| p.0).eq(got.iter().copied())
        })
}

/// FNV-1a over a reply's path ids: what a repeated query must reproduce.
fn reply_digest(reply: &[Vec<u64>]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    for row in reply {
        for &x in row.iter().chain(std::iter::once(&u64::MAX)) {
            h = (h ^ x).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn start_controller(
    topo_name: &str,
    dir: PathBuf,
    tr: &mut Tracer,
    checks: &mut Checks,
) -> Controller {
    let (ctl, report) = tr
        .call("ctld.controller.start", || {
            Controller::start(CtlConfig::new(topo_name, KIND, dir))
        })
        .expect("a fresh state directory starts");
    checks.check(report.certified(), || {
        "genesis certificate failed".to_owned()
    });
    ctl
}

/// A `ctld` server on its own thread, with the socket it listens on.
pub struct Server {
    thread: JoinHandle<std::io::Result<()>>,
    pub socket: PathBuf,
}

impl Server {
    /// Serve `ctl` on `socket` and wait until it answers.
    pub fn spawn(ctl: Controller, socket: PathBuf, checks: &mut Checks) -> Self {
        let cfg = ServerConfig::new(&socket);
        let thread = std::thread::spawn(move || serve(ctl, cfg));
        let up = Client::new(&socket).status().is_ok();
        checks.check(up, || "the server did not come up".to_owned());
        Server { thread, socket }
    }

    /// Orderly shutdown; a server that failed or hung is a failure.
    pub fn stop(self, checks: &mut Checks) {
        let acked = Client::new(&self.socket).shutdown().is_ok();
        let clean = matches!(self.thread.join(), Ok(Ok(())));
        checks.check(acked && clean, || {
            "the server did not shut down cleanly".to_owned()
        });
    }
}

// --- ctl_reconverge -------------------------------------------------------

/// In-process `Controller` on the small fabric, fresh state directory
/// per repetition; one operation is one `ingest` through blast radius,
/// certificate and fsynced checkpoint. Work unit: one epoch committed.
pub struct CtlReconverge<'a> {
    scratch: &'a Scratch,
    batches: Vec<Vec<ChangeSpec>>,
    /// What a direct `SelectionEngine` digests to after the last batch.
    final_digest: u64,
}

impl<'a> CtlReconverge<'a> {
    pub fn new(scratch: &'a Scratch) -> Self {
        let topo = super::topology(SMALL);
        let batches = fault_batches(&topo, RECONVERGE_BATCHES);
        let final_view = views_after(&topo, &batches)
            .pop()
            .expect("a view per prefix");
        CtlReconverge {
            scratch,
            final_digest: reference_digest(&topo, &final_view, batches.len() as u64),
            batches,
        }
    }
}

impl Workload for CtlReconverge<'_> {
    type State = Controller;

    fn name(&self) -> &'static str {
        "ctl_reconverge"
    }

    fn work_units(&self) -> f64 {
        self.batches.len() as f64
    }

    fn prepare(&mut self, tr: &mut Tracer, checks: &mut Checks) -> Controller {
        let dir = self
            .scratch
            .fresh_dir("reconverge")
            .expect("scratch directory");
        start_controller(SMALL, dir, tr, checks)
    }

    fn block(
        &mut self,
        ctl: &mut Controller,
        tr: &mut Tracer,
        ops: &mut Vec<f64>,
        checks: &mut Checks,
    ) -> BlockOut {
        let mut cert_pairs = 0u64;
        for (j, batch) in self.batches.iter().enumerate() {
            let id = j as u64 + 1;
            let applied = timed_op(tr, j, ops, |tr| {
                tr.call("ctld.controller.ingest", || ctl.ingest(id, batch))
            });
            // Epochs advance by exactly one per batch and the
            // controller never leaves `serving`.
            checks.check(
                matches!(applied, Ok(true)) && ctl.epoch() == id && ctl.mode() == Mode::Serving,
                || {
                    format!(
                        "batch {id}: {applied:?}, epoch {}, {:?}",
                        ctl.epoch(),
                        ctl.mode()
                    )
                },
            );
            cert_pairs += ctl.last_cert_pairs();
        }
        let digest = ctl.digest();
        let want = self.final_digest;
        checks.check(digest == want, || {
            format!("digest {digest:016x} but a direct SelectionEngine gives {want:016x}")
        });
        let mut out = BlockOut::default();
        out.put_fact("epoch", ctl.epoch());
        out.put_fact("digest", digest);
        out.put_fact("cert_pairs", cert_pairs);
        out
    }

    fn finish(&mut self, _: Controller, _: &mut Checks) {}

    fn layer_metrics(&self, ops: &[f64], _: &BlockOut, m: &mut Metrics) {
        m.put(
            "ctld.controller.ingest_us_p50",
            stats::percentile_of(ops, 0.5) * 1e6,
        );
    }
}

// --- ctl_query --------------------------------------------------------------

/// `serve` on a Unix socket, the large fabric, quiet; one `Client`
/// asks for whole rows (one source, all 287 destinations), two rows to
/// a request. The cold
/// first pass is set-up; timed passes hit the controller's cache, so a
/// pass leaves the server as it found it and several share one set-up.
/// Work unit: one pair answered.
pub struct CtlQuery<'a> {
    scratch: &'a Scratch,
    topo: Topology,
    requests: Vec<Vec<(u32, u32)>>,
    /// Per-request reply digests of the most recent cold pass.
    cold: Vec<u64>,
    verified: bool,
}

pub struct QueryState {
    server: Server,
    client: Client,
}

/// The requests of one pass: every host's full row, hosts in seeded
/// order, [`QUERY_REQUEST_ROWS`] rows to a request.
pub fn query_requests(topo: &Topology, seed: u64) -> Vec<Vec<(u32, u32)>> {
    let n = topo.num_pns();
    random_permutation(n, seed)
        .chunks(QUERY_REQUEST_ROWS)
        .map(|hosts| {
            hosts
                .iter()
                .flat_map(|&s| (0..n).filter(move |&d| d != s).map(move |d| (s, d)))
                .collect()
        })
        .collect()
}

impl<'a> CtlQuery<'a> {
    pub fn new(seed: u64, scratch: &'a Scratch) -> Self {
        let topo = super::topology(LARGE);
        let requests = query_requests(&topo, seed);
        CtlQuery {
            scratch,
            topo,
            requests,
            cold: Vec::new(),
            verified: false,
        }
    }

    /// One pass over the requests; `on_reply` sees every reply outside
    /// the operation clock.
    fn pass(
        &self,
        client: &mut Client,
        tr: &mut Tracer,
        ops: &mut Vec<f64>,
        checks: &mut Checks,
        mut on_reply: impl FnMut(usize, &[Vec<u64>], &mut Checks),
    ) {
        for (j, pairs) in self.requests.iter().enumerate() {
            let reply = timed_op(tr, j, ops, |tr| {
                tr.call("ctld.client.paths", || {
                    client.paths(pairs, QUERY_DEADLINE_MS)
                })
            });
            match reply {
                Ok((0, paths)) => on_reply(j, &paths, checks),
                other => checks.check(false, || format!("request {j}: {other:?}")),
            }
        }
    }
}

impl Workload for CtlQuery<'_> {
    type State = QueryState;

    fn name(&self) -> &'static str {
        "ctl_query"
    }

    fn work_units(&self) -> f64 {
        self.requests.iter().map(Vec::len).sum::<usize>() as f64
    }

    fn fresh_state_per_rep(&self) -> bool {
        false
    }

    fn prepare(&mut self, tr: &mut Tracer, checks: &mut Checks) -> QueryState {
        let dir = self.scratch.fresh_dir("query").expect("scratch directory");
        let ctl = start_controller(LARGE, dir, tr, checks);
        let server = Server::spawn(ctl, self.scratch.socket("query.sock"), checks);
        let mut client = Client::new(&server.socket);
        let mut cold = vec![0u64; self.requests.len()];
        tr.enter("bench.cold_pass");
        self.pass(
            &mut client,
            tr,
            &mut Vec::new(),
            checks,
            |j, paths, checks| {
                cold[j] = reply_digest(paths);
                checks.check(true, String::new);
            },
        );
        tr.exit();
        self.cold = cold;
        QueryState { server, client }
    }

    fn block(
        &mut self,
        st: &mut QueryState,
        tr: &mut Tracer,
        ops: &mut Vec<f64>,
        checks: &mut Checks,
    ) -> BlockOut {
        let mut combined = 0u64;
        self.pass(&mut st.client, tr, ops, checks, |j, paths, checks| {
            let digest = reply_digest(paths);
            checks.check(digest == self.cold[j], || {
                format!("request {j}: a cache hit answered differently from the cold pass")
            });
            combined = combined.rotate_left(5) ^ digest;
        });
        let mut out = BlockOut::default();
        out.put_fact("requests", self.requests.len() as u64);
        out.put_fact("replies_digest", combined);
        out
    }

    fn finish(&mut self, mut st: QueryState, checks: &mut Checks) {
        // Every timed reply equals its cold-pass reply, and every
        // set-up's replies digest alike (the harness compares the
        // facts), so checking one set-up's replies against the direct
        // engine checks them all.
        if !self.verified {
            self.verified = true;
            let quiet = FaultSet::new();
            for (j, pairs) in self.requests.iter().enumerate() {
                let ok = match st.client.paths(pairs, QUERY_DEADLINE_MS) {
                    Ok((0, paths)) => {
                        reply_digest(&paths) == self.cold[j]
                            && reply_matches(&self.topo, &quiet, pairs, &paths)
                    }
                    _ => false,
                };
                checks.check(ok, || {
                    format!("request {j}: the reply differs from a direct SelectionEngine")
                });
            }
        }
        st.server.stop(checks);
    }

    fn layer_metrics(&self, ops: &[f64], _: &BlockOut, m: &mut Metrics) {
        m.put(
            "ctld.server.row_roundtrip_us_p50",
            stats::percentile_of(ops, 0.5) * 1e6 / QUERY_REQUEST_ROWS as f64,
        );
    }
}

// --- ctl_mixed --------------------------------------------------------------

/// `serve` on the small fabric with two open-loop client threads: a
/// writer submits the first [`MIXED_BATCHES`] batches of
/// `ctl_reconverge`'s feed, one per 50 ms; a reader sends a 64-pair
/// `paths` batch every 2 ms. One operation is one reader request, timed
/// from the instant it was due. Work unit: one pair answered.
pub struct CtlMixed<'a> {
    scratch: &'a Scratch,
    topo: Topology,
    batches: Vec<Vec<ChangeSpec>>,
    views: Vec<FaultSet>,
    requests: Vec<Vec<(u32, u32)>>,
    /// Digest of an in-process controller after the same batches.
    replay_digest: u64,
    /// What a direct `SelectionEngine` digests to on the final view.
    engine_digest: u64,
}

/// The reader's seeded requests: each pairs the two halves of a fresh
/// random permutation of the hosts, so no pair is a self-pair.
pub fn mixed_requests(topo: &Topology, seed: u64) -> Vec<Vec<(u32, u32)>> {
    let n = topo.num_pns();
    assert!(n as usize >= 2 * MIXED_PAIRS);
    (0..MIXED_REQUESTS as u64)
        .map(|i| {
            let perm = random_permutation(n, seed.wrapping_mul(1_000_003).wrapping_add(i));
            (0..MIXED_PAIRS)
                .map(|k| (perm[k], perm[perm.len() - 1 - k]))
                .collect()
        })
        .collect()
}

struct WriterLog {
    /// `(sent, acked)` offsets from the block's start, seconds.
    windows: Vec<(f64, f64)>,
    ack_us: Vec<f64>,
    failures: Vec<String>,
    tracer: Tracer,
}

struct ReaderLog {
    /// `(due, done)` offsets from the block's start, seconds.
    windows: Vec<(f64, f64)>,
    late_us: Vec<f64>,
    sampled: Vec<(usize, u64, Vec<Vec<u64>>)>,
    failures: Vec<String>,
    stats: lmpr_ctld::ClientStats,
    tracer: Tracer,
}

fn sleep_until(due: Instant) {
    if let Some(wait) = due.checked_duration_since(Instant::now()) {
        std::thread::sleep(wait);
    }
}

impl<'a> CtlMixed<'a> {
    pub fn new(seed: u64, scratch: &'a Scratch) -> Self {
        let topo = super::topology(SMALL);
        // One draw of the feed for both workloads: a timeline's prefix
        // changes with its horizon.
        let mut batches = fault_batches(&topo, RECONVERGE_BATCHES);
        batches.truncate(MIXED_BATCHES);
        let views = views_after(&topo, &batches);
        let requests = mixed_requests(&topo, seed);
        let dir = scratch
            .fresh_dir("mixed-replay")
            .expect("scratch directory");
        let (mut replay, _) =
            Controller::start(CtlConfig::new(SMALL, KIND, dir)).expect("replay controller starts");
        for (j, batch) in batches.iter().enumerate() {
            replay.ingest(j as u64 + 1, batch).expect("replay ingests");
        }
        CtlMixed {
            scratch,
            replay_digest: replay.digest(),
            engine_digest: reference_digest(&topo, &views[MIXED_BATCHES], MIXED_BATCHES as u64),
            topo,
            batches,
            views,
            requests,
        }
    }

    fn write(&self, socket: &Path, start: Instant, mut tracer: Tracer) -> WriterLog {
        let mut client = Client::new(socket);
        let (mut windows, mut ack_us, mut failures) = (Vec::new(), Vec::new(), Vec::new());
        let mut not_before = start;
        for (i, batch) in self.batches.iter().enumerate() {
            let due = start + MIXED_WRITE_OFFSET + MIXED_WRITE_PERIOD * i as u32;
            sleep_until(due.max(not_before));
            let sent = start.elapsed().as_secs_f64();
            let ack = tracer.call("ctld.client.submit_fault", || {
                client.submit_fault(i as u64 + 1, batch)
            });
            let done = Instant::now();
            not_before = done + MIXED_WRITE_GAP;
            if !matches!(ack, Ok(true)) {
                failures.push(format!("batch {}: {ack:?}", i + 1));
            }
            windows.push((sent, (done - start).as_secs_f64()));
            ack_us.push((done - due).as_secs_f64() * 1e6);
        }
        WriterLog {
            windows,
            ack_us,
            failures,
            tracer,
        }
    }

    fn read(&self, socket: &Path, start: Instant, mut tracer: Tracer) -> ReaderLog {
        let mut client = Client::new(socket);
        let (mut windows, mut late_us) = (Vec::new(), Vec::new());
        let (mut sampled, mut failures) = (Vec::new(), Vec::new());
        for (i, pairs) in self.requests.iter().enumerate() {
            let due = start + MIXED_READ_PERIOD * i as u32;
            sleep_until(due);
            late_us.push((Instant::now() - due).as_secs_f64() * 1e6);
            tracer.set_op(i as u32);
            tracer.enter("op");
            let reply = tracer.call("ctld.client.paths", || {
                client.paths(pairs, QUERY_DEADLINE_MS)
            });
            tracer.exit();
            let done = Instant::now();
            windows.push(((due - start).as_secs_f64(), (done - start).as_secs_f64()));
            match reply {
                Ok((epoch, paths)) if paths.len() == pairs.len() => {
                    if i % MIXED_SAMPLE_EVERY == 0 {
                        sampled.push((i, epoch, paths));
                    }
                }
                other => failures.push(format!("request {i}: {other:?}")),
            }
        }
        ReaderLog {
            windows,
            late_us,
            sampled,
            failures,
            stats: client.stats(),
            tracer,
        }
    }
}

/// Share of the readers' time spent in requests that overlapped a
/// fault batch in flight.
fn stall_share(reads: &[(f64, f64)], writes: &[(f64, f64)]) -> f64 {
    let total: f64 = reads.iter().map(|(a, b)| b - a).sum();
    let stalled: f64 = reads
        .iter()
        .filter(|(due, done)| {
            writes
                .iter()
                .any(|(sent, acked)| due < acked && sent < done)
        })
        .map(|(a, b)| b - a)
        .sum();
    stalled / total
}

/// Seconds the server had a request in flight, operation by operation:
/// every read counts for the part of its flight (sent to answered) that
/// no fault batch shared, every batch for its whole flight. Which read
/// happens to wait out a batch changes from repetition to repetition;
/// what a read costs by itself and what a batch costs do not.
fn busy_times(reads: &[(f64, f64)], late_us: &[f64], writes: &[(f64, f64)]) -> Vec<f64> {
    let read_alone = reads.iter().zip(late_us).map(|(&(due, done), late)| {
        let sent = due + late * 1e-6;
        let shared: f64 = writes
            .iter()
            .map(|&(w_sent, w_acked)| (done.min(w_acked) - sent.max(w_sent)).max(0.0))
            .sum();
        done - sent - shared
    });
    let batches = writes.iter().map(|(sent, acked)| acked - sent);
    read_alone.chain(batches).collect()
}

impl Workload for CtlMixed<'_> {
    type State = Server;

    fn name(&self) -> &'static str {
        "ctl_mixed"
    }

    fn work_units(&self) -> f64 {
        (MIXED_REQUESTS * MIXED_PAIRS) as f64
    }

    fn prepare(&mut self, tr: &mut Tracer, checks: &mut Checks) -> Server {
        let dir = self.scratch.fresh_dir("mixed").expect("scratch directory");
        let ctl = start_controller(SMALL, dir, tr, checks);
        Server::spawn(ctl, self.scratch.socket("mixed.sock"), checks)
    }

    fn block(
        &mut self,
        server: &mut Server,
        tr: &mut Tracer,
        ops: &mut Vec<f64>,
        checks: &mut Checks,
    ) -> BlockOut {
        let (writer_tr, reader_tr) = (tr.for_thread(), tr.for_thread());
        let start = Instant::now() + Duration::from_millis(5);
        let socket = &server.socket;
        let this = &*self;
        let (w, r) = std::thread::scope(|s| {
            let w = s.spawn(move || this.write(socket, start, writer_tr));
            let r = s.spawn(move || this.read(socket, start, reader_tr));
            (
                w.join().expect("writer thread"),
                r.join().expect("reader thread"),
            )
        });
        tr.absorb(w.tracer);
        tr.absorb(r.tracer);
        ops.extend(r.windows.iter().map(|(due, done)| done - due));

        checks.attempted += (MIXED_REQUESTS + MIXED_BATCHES) as u64;
        for f in w.failures.into_iter().chain(r.failures) {
            checks.fail(f);
        }
        for (i, epoch, paths) in &r.sampled {
            let ok = self
                .views
                .get(*epoch as usize)
                .is_some_and(|view| reply_matches(&self.topo, view, &self.requests[*i], paths));
            checks.check(ok, || {
                format!("request {i} at epoch {epoch}: differs from a direct SelectionEngine")
            });
        }
        let mut client = Client::new(socket);
        let status = client.status();
        let settled = matches!(
            &status,
            Ok(Response::Status { epoch, mode, pending: 0, .. })
                if *epoch == MIXED_BATCHES as u64 && mode == "serving"
        );
        checks.check(settled, || format!("after the feed: {status:?}"));
        let digest = client
            .digest()
            .ok()
            .and_then(|(_, hex)| u64::from_str_radix(&hex, 16).ok());
        let want = self.engine_digest;
        checks.check(
            digest == Some(self.replay_digest) && digest == Some(want),
            || {
                format!(
                    "digest {digest:x?}; in-process replay {:x}, direct engine {want:x}",
                    self.replay_digest
                )
            },
        );

        let mut out = BlockOut {
            busy: busy_times(&r.windows, &r.late_us, &w.windows),
            samples: vec![
                ("stall_share", vec![stall_share(&r.windows, &w.windows)]),
                ("gen_late_us", r.late_us),
                ("fault_ack_us", w.ack_us),
                ("fenced_retries", vec![r.stats.fenced_retries as f64]),
                ("overload_retries", vec![r.stats.overload_retries as f64]),
                ("reconnects", vec![r.stats.reconnects as f64]),
            ],
            ..BlockOut::default()
        };
        out.put_fact("epoch", MIXED_BATCHES as u64);
        out.put_fact("digest", digest.unwrap_or(0));
        out
    }

    fn finish(&mut self, server: Server, checks: &mut Checks) {
        server.stop(checks);
    }

    fn layer_metrics(&self, _: &[f64], out: &BlockOut, m: &mut Metrics) {
        let acks = out.sample("fault_ack_us");
        m.put(
            "ctld.server.stall_share.mixed",
            out.sample("stall_share")[0],
        );
        m.put(
            "ctld.server.fault_ack_us_p50.mixed",
            stats::percentile_of(acks, 0.5),
        );
        m.put(
            "ctld.server.fault_ack_us_p90.mixed",
            stats::percentile_of(acks, 0.9),
        );
        m.put(
            "ctld.client.fenced_retries.mixed",
            out.sample("fenced_retries")[0],
        );
        m.put(
            "ctld.client.overload_retries.mixed",
            out.sample("overload_retries")[0],
        );
        m.put("ctld.client.reconnects.mixed", out.sample("reconnects")[0]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reads at 0, 2 and 4 ms; a batch in flight from 1 to 11 ms. The
    /// first read is answered before the batch arrives; the second is
    /// sent on time into the batch and answered 0.3 ms after it; the
    /// third falls due behind it, is sent 7.3 ms late and takes 0.2 ms.
    #[test]
    fn busy_times_count_a_stall_once_whoever_waits_it_out() {
        let ms = |x: f64| x * 1e-3;
        let reads = [(ms(0.0), ms(0.2)), (ms(2.0), ms(11.3)), (ms(4.0), ms(11.5))];
        let late_us = [0.0, 0.0, 7_300.0];
        let writes = [(ms(1.0), ms(11.0))];
        let busy = busy_times(&reads, &late_us, &writes);
        let want = [0.2, 0.3, 0.2, 10.0].map(ms);
        assert_eq!(busy.len(), want.len());
        for (got, want) in busy.iter().zip(want) {
            assert!((got - want).abs() < 1e-12, "{busy:?}");
        }
        // Timed from their due instants the same three reads add up to
        // 17 ms: the stall is in there twice.
        let from_due: f64 = reads.iter().map(|(due, done)| done - due).sum();
        assert!((from_due - ms(17.0)).abs() < 1e-12);
        // A read that straddles the start of a batch keeps the part of
        // its flight before the batch was sent.
        let busy = busy_times(&[(ms(0.9), ms(11.2))], &[0.0], &writes);
        assert!((busy[0] - ms(0.3)).abs() < 1e-12, "{busy:?}");
    }
}
