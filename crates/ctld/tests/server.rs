//! Socket-level tests: the wire protocol end to end over a real Unix
//! domain socket — fencing, overload backpressure, deadlines, chaos
//! and the shutdown handshake.

use lmpr_core::RouterKind;
use lmpr_ctld::{
    read_frame, serve, write_frame, ChangeSpec, Controller, CtlConfig, ErrorCode, Request,
    Response, ServerConfig,
};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::thread::JoinHandle;

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

#[test]
fn a_zero_deadline_is_rejected_as_expired() {
    let d = Daemon::start("deadline", |_, _| {});
    let mut c = d.connect();
    let epoch = match roundtrip(&mut c, &Request::Status) {
        Response::Status { epoch, .. } => epoch,
        other => panic!("unexpected status reply: {other:?}"),
    };
    match roundtrip(
        &mut c,
        &Request::Paths {
            epoch,
            deadline_ms: Some(0),
            pairs: vec![(0, 1)],
        },
    ) {
        Response::Error {
            code: ErrorCode::Deadline,
            ..
        } => {}
        other => panic!("zero deadline not expired: {other:?}"),
    }
    d.stop();
}

#[test]
fn a_slow_reconvergence_sheds_load_with_typed_overloads() {
    // A tiny queue plus an artificially slow reconvergence: while the
    // controller is busy certifying, floods of queries must be rejected
    // as `overload` by the connection threads, never silently dropped.
    let d = Daemon::start("overload", |cfg, server| {
        cfg.reconverge_delay_ms = 400;
        server.queue_cap = 1;
    });

    // Kick off a fault batch on its own connection; the controller
    // thread now sleeps inside reconvergence with the queue tiny.
    let fault_conn = {
        let mut c = d.connect();
        std::thread::spawn(move || {
            roundtrip(
                &mut c,
                &Request::Fault {
                    batch_id: 1,
                    gen: None,
                    changes: vec![ChangeSpec::LinkDown(4)],
                },
            )
        })
    };
    std::thread::sleep(std::time::Duration::from_millis(50));

    let (mut overloads, mut served) = (0u32, 0u32);
    let mut floods = Vec::new();
    for _ in 0..8 {
        let mut c = d.connect();
        floods.push(std::thread::spawn(move || {
            match roundtrip(&mut c, &Request::Status) {
                Response::Status { .. } => Ok(()),
                Response::Error {
                    code: ErrorCode::Overload,
                    message,
                    ..
                } => Err(message),
                other => panic!("unexpected flood reply: {other:?}"),
            }
        }));
    }
    for h in floods {
        match h.join().expect("flood thread") {
            Ok(()) => served += 1,
            Err(msg) => {
                assert!(msg.contains("retry"), "overload message: {msg}");
                overloads += 1;
            }
        }
    }
    assert!(
        overloads >= 1,
        "no overload rejections despite a full queue ({served} served)"
    );

    match fault_conn.join().expect("fault thread") {
        Response::Fault { applied: true, .. } => {}
        other => panic!("unexpected fault reply: {other:?}"),
    }
    // Once the controller drains, service resumes normally.
    let mut c = d.connect();
    match roundtrip(&mut c, &Request::Status) {
        Response::Status { epoch: 1, .. } => {}
        other => panic!("service did not resume: {other:?}"),
    }
    d.stop();
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
