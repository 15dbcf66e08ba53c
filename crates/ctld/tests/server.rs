//! Socket-level tests: the wire protocol end to end over a real Unix
//! domain socket — fencing, write backpressure, reads answered from the
//! published snapshot while a batch certifies, chaos and the shutdown
//! handshake.

use lmpr_core::{Router, RouterKind, SelectionEngine};
use lmpr_ctld::{
    read_frame, serve, write_frame, ChangeSpec, Controller, CtlConfig, ErrorCode, Request,
    Response, ServerConfig,
};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::thread::JoinHandle;
use xgft::{FaultSet, PnId};

const TOPO: &str = "8port2tree";

struct Daemon {
    scratch: PathBuf,
    socket: PathBuf,
    server: Option<JoinHandle<std::io::Result<()>>>,
}

impl Daemon {
    /// Start a real daemon on a scratch state dir + socket.
    fn start(tag: &str, tune: impl FnOnce(&mut CtlConfig, &mut ServerConfig)) -> Daemon {
        let scratch = std::env::temp_dir().join(format!("ctld-srv-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&scratch);
        std::fs::create_dir_all(&scratch).expect("scratch dir");
        let socket = scratch.join("ctld.sock");
        let mut cfg = CtlConfig::new(TOPO, RouterKind::Disjoint(4), scratch.join("state"));
        let mut server_cfg = ServerConfig::new(&socket);
        tune(&mut cfg, &mut server_cfg);
        let (ctl, report) = Controller::start(cfg).expect("controller start");
        assert!(report.certified());
        let server = std::thread::spawn(move || serve(ctl, server_cfg));
        for _ in 0..500 {
            if UnixStream::connect(&socket).is_ok() {
                return Daemon {
                    scratch,
                    socket,
                    server: Some(server),
                };
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        panic!("server did not come up");
    }

    fn connect(&self) -> UnixStream {
        UnixStream::connect(&self.socket).expect("connect")
    }

    fn stop(mut self) {
        let mut stream = self.connect();
        match roundtrip(&mut stream, &Request::Shutdown) {
            Response::Shutdown { .. } => {}
            other => panic!("unexpected shutdown reply: {other:?}"),
        }
        self.server
            .take()
            .expect("server handle")
            .join()
            .expect("server thread")
            .expect("server exit");
        assert!(!self.socket.exists(), "socket file removed on shutdown");
        let _ = std::fs::remove_dir_all(&self.scratch);
    }
}

fn roundtrip(stream: &mut UnixStream, req: &Request) -> Response {
    write_frame(stream, req.to_json().as_bytes()).expect("write frame");
    let payload = read_frame(stream).expect("read frame");
    Response::decode(&payload).expect("decode reply")
}

#[test]
fn the_protocol_round_trips_end_to_end() {
    let d = Daemon::start("e2e", |_, _| {});
    let mut c = d.connect();

    let epoch = match roundtrip(&mut c, &Request::Hello) {
        Response::Status { epoch, mode, .. } => {
            assert_eq!(mode, "serving");
            epoch
        }
        other => panic!("unexpected hello reply: {other:?}"),
    };

    // Fenced read at the current epoch succeeds.
    match roundtrip(
        &mut c,
        &Request::Paths {
            epoch,
            deadline_ms: None,
            pairs: vec![(0, 5), (3, 12)],
        },
    ) {
        Response::Paths { paths, .. } => {
            assert_eq!(paths.len(), 2);
            assert!(paths.iter().all(|p| !p.is_empty()));
        }
        other => panic!("unexpected paths reply: {other:?}"),
    }

    // A fault batch commits a new epoch; the stale epoch is now fenced.
    match roundtrip(
        &mut c,
        &Request::Fault {
            batch_id: 1,
            gen: None,
            changes: vec![ChangeSpec::LinkDown(2)],
        },
    ) {
        Response::Fault {
            epoch: e, applied, ..
        } => {
            assert!(applied);
            assert_eq!(e, epoch + 1);
        }
        other => panic!("unexpected fault reply: {other:?}"),
    }
    match roundtrip(
        &mut c,
        &Request::Paths {
            epoch,
            deadline_ms: None,
            pairs: vec![(0, 5)],
        },
    ) {
        Response::Error {
            code: ErrorCode::EpochFenced,
            epoch: server,
            ..
        } => assert_eq!(server, epoch + 1),
        other => panic!("stale read not fenced: {other:?}"),
    }

    // Duplicate batch: acknowledged, not reapplied.
    match roundtrip(
        &mut c,
        &Request::Fault {
            batch_id: 1,
            gen: None,
            changes: vec![ChangeSpec::LinkDown(2)],
        },
    ) {
        Response::Fault { applied: false, .. } => {}
        other => panic!("duplicate batch mishandled: {other:?}"),
    }

    // Sequence gap: typed bad-request, connection stays usable.
    match roundtrip(
        &mut c,
        &Request::Fault {
            batch_id: 9,
            gen: None,
            changes: vec![],
        },
    ) {
        Response::Error {
            code: ErrorCode::BadRequest,
            ..
        } => {}
        other => panic!("feed gap mishandled: {other:?}"),
    }

    // Digest is 16 hex chars and stable across reads at one epoch.
    let d1 = match roundtrip(&mut c, &Request::Digest) {
        Response::Digest { digest, .. } => digest,
        other => panic!("unexpected digest reply: {other:?}"),
    };
    assert_eq!(d1.len(), 16);
    assert!(d1.bytes().all(|b| b.is_ascii_hexdigit()));
    match roundtrip(&mut c, &Request::Digest) {
        Response::Digest { digest, .. } => assert_eq!(digest, d1),
        other => panic!("unexpected digest reply: {other:?}"),
    }

    d.stop();
}

#[test]
fn malformed_frames_get_in_band_bad_request_replies() {
    let d = Daemon::start("malformed", |_, _| {});
    let mut c = d.connect();

    for junk in [&b"not json"[..], b"{\"op\": 17}", b"{\"op\": \"warp\"}"] {
        write_frame(&mut c, junk).expect("write junk");
        let payload = read_frame(&mut c).expect("read reply");
        match Response::decode(&payload).expect("decode") {
            Response::Error {
                code: ErrorCode::BadRequest,
                ..
            } => {}
            other => panic!("junk {junk:?} not rejected: {other:?}"),
        }
    }
    // The connection survives the junk.
    match roundtrip(&mut c, &Request::Status) {
        Response::Status { .. } => {}
        other => panic!("connection unusable after junk: {other:?}"),
    }
    d.stop();
}

#[test]
fn fault_batches_naming_elements_outside_the_topology_are_bad_requests() {
    let d = Daemon::start("badchange", |_, _| {});
    let mut c = d.connect();
    let fault = |changes: Vec<ChangeSpec>| Request::Fault {
        batch_id: 1,
        gen: None,
        changes,
    };
    let (_, topo) = xgft::topology_by_name(TOPO).expect("known topology");
    let links = topo.num_links();
    // Two levels of switches: level 3 is outside the tree.
    for bad in [ChangeSpec::LinkDown(links), ChangeSpec::SwitchUp(3, 0)] {
        match roundtrip(&mut c, &fault(vec![ChangeSpec::LinkDown(2), bad])) {
            Response::Error {
                code: ErrorCode::BadRequest,
                epoch: 0,
                mode,
                ..
            } => assert_eq!(mode, "serving"),
            other => panic!("{bad:?} not refused: {other:?}"),
        }
    }
    // Nothing was staged or committed, and batch 1 is still expected.
    match roundtrip(&mut c, &Request::Status) {
        Response::Status {
            epoch: 0,
            pending: 0,
            committed_batch_id: 0,
            ..
        } => {}
        other => panic!("refused batch left state behind: {other:?}"),
    }
    match roundtrip(&mut c, &fault(vec![ChangeSpec::LinkDown(links - 1)])) {
        Response::Fault {
            epoch: 1,
            applied: true,
            ..
        } => {}
        other => panic!("corrected batch not applied: {other:?}"),
    }
    d.stop();
}

#[test]
fn oversized_replies_are_typed_errors_not_dropped_connections() {
    let d = Daemon::start("bigreply", |_, _| {});
    let mut c = d.connect();
    let epoch = match roundtrip(&mut c, &Request::Hello) {
        Response::Status { epoch, .. } => epoch,
        other => panic!("unexpected hello reply: {other:?}"),
    };

    // A legal request — it fits the 1 MiB request frame — whose answer
    // does not: ~90k pairs, each answering with up to four path ids.
    let pairs: Vec<(u32, u32)> = (0..90_000).map(|i| (0, 1 + (i % 30))).collect();
    let req = Request::Paths {
        epoch,
        deadline_ms: None,
        pairs,
    };
    assert!(
        (req.to_json().len() as u64) <= lmpr_ctld::MAX_FRAME as u64,
        "the request itself must be within the frame bound"
    );
    match roundtrip(&mut c, &req) {
        Response::Error {
            code: ErrorCode::BadRequest,
            message,
            ..
        } => assert!(message.contains("frame bound"), "message: {message}"),
        other => panic!("oversized reply not rejected in band: {other:?}"),
    }

    // The connection survives the rejection and keeps serving.
    match roundtrip(
        &mut c,
        &Request::Paths {
            epoch,
            deadline_ms: None,
            pairs: vec![(0, 5)],
        },
    ) {
        Response::Paths { paths, .. } => {
            assert_eq!(paths.len(), 1);
            assert!(!paths[0].is_empty());
        }
        other => panic!("connection unusable after the rejection: {other:?}"),
    }
    d.stop();
}

/// Send `req` on a fresh connection from a thread of its own; the
/// handle yields the reply.
fn send_async(d: &Daemon, req: Request) -> std::thread::JoinHandle<Response> {
    let mut c = d.connect();
    std::thread::spawn(move || roundtrip(&mut c, &req))
}

#[test]
fn a_slow_reconvergence_sheds_writes_with_typed_overloads() {
    // A one-write queue plus an artificially slow reconvergence: while
    // the controller is busy certifying, a flood of writes must be
    // rejected as `overload` by the connection threads, never silently
    // dropped — and reads keep being answered meanwhile.
    let d = Daemon::start("overload", |cfg, server| {
        cfg.reconverge_delay_ms = 400;
        server.queue_cap = 1;
    });
    let fault = send_async(
        &d,
        Request::Fault {
            batch_id: 1,
            gen: None,
            changes: vec![ChangeSpec::LinkDown(4)],
        },
    );
    std::thread::sleep(std::time::Duration::from_millis(50));

    let floods: Vec<_> = (0..8)
        .map(|_| send_async(&d, Request::Tick { to: 0 }))
        .collect();
    let mut c = d.connect();
    match roundtrip(&mut c, &Request::Status) {
        Response::Status { epoch: 0, .. } => {}
        other => panic!("a read was not answered during the flood: {other:?}"),
    }
    let (mut overloads, mut served) = (0u32, 0u32);
    for h in floods {
        match h.join().expect("flood thread") {
            Response::Tick { .. } => served += 1,
            Response::Error {
                code: ErrorCode::Overload,
                epoch: 0,
                mode,
                message,
                ..
            } => {
                assert_eq!(mode, "serving");
                assert!(message.contains("retry"), "overload message: {message}");
                overloads += 1;
            }
            other => panic!("unexpected flood reply: {other:?}"),
        }
    }
    assert!(
        overloads >= 1,
        "no overload rejections despite a full queue ({served} served)"
    );
    match fault.join().expect("fault thread") {
        Response::Fault { applied: true, .. } => {}
        other => panic!("unexpected fault reply: {other:?}"),
    }
    // Once the controller drains, service resumes normally.
    match roundtrip(&mut c, &Request::Status) {
        Response::Status { epoch: 1, .. } => {}
        other => panic!("service did not resume: {other:?}"),
    }
    d.stop();
}

#[test]
fn reads_are_answered_at_the_old_epoch_while_a_batch_certifies() {
    let d = Daemon::start("inflight", |cfg, _| cfg.reconverge_delay_ms = 400);
    let fault = send_async(
        &d,
        Request::Fault {
            batch_id: 1,
            gen: None,
            changes: vec![ChangeSpec::LinkDown(4)],
        },
    );
    std::thread::sleep(std::time::Duration::from_millis(50));
    let mut c = d.connect();
    for req in [
        Request::Status,
        Request::Paths {
            epoch: 0,
            deadline_ms: None,
            pairs: vec![(0, 5), (3, 12)],
        },
    ] {
        let asked = std::time::Instant::now();
        let resp = roundtrip(&mut c, &req);
        let waited = asked.elapsed();
        assert!(
            waited < std::time::Duration::from_millis(100),
            "{req:?} waited {waited:?} behind the certification"
        );
        match resp {
            Response::Status { epoch: 0, .. } => {}
            Response::Paths {
                epoch: 0, paths, ..
            } => assert_eq!(paths.len(), 2),
            other => panic!("{req:?} not answered at the old epoch: {other:?}"),
        }
    }
    assert!(!fault.is_finished(), "the batch must still be in flight");
    match fault.join().expect("fault thread") {
        Response::Fault {
            epoch: 1,
            applied: true,
            ..
        } => {}
        other => panic!("unexpected fault reply: {other:?}"),
    }
    d.stop();
}

#[test]
fn a_reader_at_epoch_e_gets_all_of_e_or_a_fence_never_a_mix() {
    let (_, topo) = xgft::topology_by_name(TOPO).expect("known topology");
    let kind = RouterKind::Disjoint(4);
    let n = topo.num_pns();
    let pairs: Vec<(u32, u32)> = (0..n)
        .flat_map(|s| (0..n).filter(move |&d| d != s).map(move |d| (s, d)))
        .collect();
    // Both epochs' answers, from an uncached engine per fault view.
    let answers = |view: FaultSet| -> Vec<Vec<u64>> {
        let engine = SelectionEngine::with_view(kind, view);
        let mut out = Vec::new();
        pairs
            .iter()
            .map(|&(s, d)| {
                engine.fill_paths(&topo, PnId(s), PnId(d), &mut out);
                out.iter().map(|p| p.0).collect()
            })
            .collect()
    };
    // Every up-link of switch (1, 0): its pairs change selection.
    let batch: Vec<ChangeSpec> = (0..topo.up_ports(1))
        .map(|port| ChangeSpec::LinkDown(topo.up_link(2, 0, port).0))
        .collect();
    let mut after = FaultSet::new();
    for c in &batch {
        c.to_change().apply(&topo, &mut after);
    }
    let (at_e, at_next) = (answers(FaultSet::new()), answers(after));
    assert_ne!(at_e, at_next, "the batch must change some answer");

    let d = Daemon::start("nomix", |cfg, _| cfg.reconverge_delay_ms = 100);
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let reader = {
        let mut c = d.connect();
        let (stop, pairs) = (std::sync::Arc::clone(&stop), pairs.clone());
        std::thread::spawn(move || {
            let (mut whole, mut fenced) = (0u32, 0u32);
            let req = Request::Paths {
                epoch: 0,
                deadline_ms: None,
                pairs,
            };
            while !stop.load(std::sync::atomic::Ordering::SeqCst) {
                match roundtrip(&mut c, &req) {
                    Response::Paths {
                        epoch: 0, paths, ..
                    } => {
                        assert!(paths == at_e, "an epoch-0 reply differs from epoch 0");
                        whole += 1;
                    }
                    Response::Error {
                        code: ErrorCode::EpochFenced,
                        epoch: 1,
                        ..
                    } => fenced += 1,
                    other => panic!("neither all of epoch 0 nor a fence: {other:?}"),
                }
            }
            (whole, fenced)
        })
    };
    std::thread::sleep(std::time::Duration::from_millis(20));
    let mut w = d.connect();
    match roundtrip(
        &mut w,
        &Request::Fault {
            batch_id: 1,
            gen: None,
            changes: batch,
        },
    ) {
        Response::Fault {
            epoch: 1,
            applied: true,
            ..
        } => {}
        other => panic!("unexpected fault reply: {other:?}"),
    }
    std::thread::sleep(std::time::Duration::from_millis(20));
    stop.store(true, std::sync::atomic::Ordering::SeqCst);
    let (whole, fenced) = reader.join().expect("reader thread");
    assert!(whole > 0 && fenced > 0, "whole {whole}, fenced {fenced}");
    match roundtrip(
        &mut w,
        &Request::Paths {
            epoch: 1,
            deadline_ms: None,
            pairs: pairs.clone(),
        },
    ) {
        Response::Paths {
            epoch: 1, paths, ..
        } => assert!(paths == at_next),
        other => panic!("unexpected epoch-1 reply: {other:?}"),
    }
    d.stop();
}

#[test]
fn after_a_fault_ack_every_connection_reads_the_new_epoch() {
    let d = Daemon::start("ryw", |_, _| {});
    // Connections opened, and used, before the write.
    let mut readers: Vec<UnixStream> = (0..4).map(|_| d.connect()).collect();
    for c in &mut readers {
        match roundtrip(c, &Request::Status) {
            Response::Status { epoch: 0, .. } => {}
            other => panic!("unexpected status reply: {other:?}"),
        }
    }
    let mut w = d.connect();
    for batch_id in 1..=5u64 {
        match roundtrip(
            &mut w,
            &Request::Fault {
                batch_id,
                gen: None,
                changes: vec![ChangeSpec::LinkDown(batch_id as u32)],
            },
        ) {
            Response::Fault { epoch, .. } => assert_eq!(epoch, batch_id),
            other => panic!("unexpected fault reply: {other:?}"),
        }
        for c in &mut readers {
            match roundtrip(c, &Request::Status) {
                Response::Status { epoch, .. } => assert_eq!(epoch, batch_id),
                other => panic!("unexpected status reply: {other:?}"),
            }
            match roundtrip(
                c,
                &Request::Paths {
                    epoch: batch_id - 1,
                    deadline_ms: None,
                    pairs: vec![(0, 5)],
                },
            ) {
                Response::Error {
                    code: ErrorCode::EpochFenced,
                    epoch,
                    ..
                } => assert_eq!(epoch, batch_id),
                other => panic!("the old epoch was still served: {other:?}"),
            }
        }
    }
    d.stop();
}

#[test]
fn a_connection_outliving_serve_gets_no_snapshot_answer() {
    let d = Daemon::start("zombie", |_, _| {});
    let mut early = d.connect();
    match roundtrip(&mut early, &Request::Status) {
        Response::Status { epoch: 0, .. } => {}
        other => panic!("unexpected status reply: {other:?}"),
    }
    d.stop(); // `serve` has returned once this does
    for req in [Request::Status, Request::Digest] {
        if write_frame(&mut early, req.to_json().as_bytes()).is_err() {
            return; // closed: no answer at all
        }
        match read_frame(&mut early).map(|p| Response::decode(&p)) {
            Err(_) => return,
            Ok(Ok(Response::Error {
                code: ErrorCode::Overload,
                message,
                ..
            })) => assert!(message.contains("shutting down"), "{message}"),
            Ok(other) => panic!("a dead server answered {req:?}: {other:?}"),
        }
    }
}

#[test]
fn chaos_over_the_wire_degrades_and_recovers() {
    let d = Daemon::start("chaos", |_, _| {});
    let mut c = d.connect();

    match roundtrip(&mut c, &Request::Chaos { fail_certs: true }) {
        Response::Chaos {
            fail_certs: true, ..
        } => {}
        other => panic!("unexpected chaos reply: {other:?}"),
    }
    match roundtrip(
        &mut c,
        &Request::Fault {
            batch_id: 1,
            gen: None,
            changes: vec![ChangeSpec::LinkDown(6)],
        },
    ) {
        Response::Fault {
            epoch: 0,
            mode,
            applied: true,
            ..
        } => assert_eq!(mode, "degraded"),
        other => panic!("chaos did not degrade: {other:?}"),
    }
    // Last-good epoch 0 still answers queries while degraded.
    match roundtrip(
        &mut c,
        &Request::Paths {
            epoch: 0,
            deadline_ms: None,
            pairs: vec![(0, 9)],
        },
    ) {
        Response::Paths { mode, paths, .. } => {
            assert_eq!(mode, "degraded");
            assert_eq!(paths.len(), 1);
        }
        other => panic!("degraded service broken: {other:?}"),
    }

    // Clear the chaos and drive time past the retry backoff.
    match roundtrip(&mut c, &Request::Chaos { fail_certs: false }) {
        Response::Chaos {
            fail_certs: false, ..
        } => {}
        other => panic!("unexpected chaos reply: {other:?}"),
    }
    let status = roundtrip(&mut c, &Request::Status);
    let Response::Status {
        now,
        degraded_attempts,
        ..
    } = status
    else {
        panic!("unexpected status reply: {status:?}");
    };
    assert!(degraded_attempts >= 1);
    match roundtrip(
        &mut c,
        &Request::Tick {
            to: now + 1_000_000,
        },
    ) {
        Response::Tick { epoch: 1, mode, .. } => assert_eq!(mode, "serving"),
        other => panic!("recovery failed: {other:?}"),
    }
    d.stop();
}
