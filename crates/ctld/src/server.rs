//! Unix-domain-socket front end: bounded queue, deadlines, typed
//! rejections.
//!
//! One thread — the caller of [`serve`] — owns the [`Controller`] and
//! drains a bounded work queue. Connection threads only parse frames
//! and enqueue; when the queue is full they answer the typed
//! `overload` rejection **themselves**, so backpressure costs the
//! controller nothing. A request carrying `deadline_ms` that is still
//! queued when the budget lapses is answered with the typed `deadline`
//! rejection at dequeue instead of being served late.
//!
//! Shutdown is orderly: the `shutdown` op is acknowledged, the queue
//! is closed, the acceptor is unblocked with a self-connection, and
//! the socket file is removed.

use crate::controller::{Controller, CtlError, Mode};
use crate::failpoint::{FailPlan, FaultCounters, FaultyStream};
use crate::wire::{read_frame, write_frame, ErrorCode, Request, Response, MAX_FRAME};
use std::io::{self, Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::Arc;
use std::time::Instant;

/// Server tuning.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Path of the Unix domain socket to bind.
    pub socket_path: PathBuf,
    /// Bound on queued requests; overflow is rejected as `overload`.
    pub queue_cap: usize,
    /// When set, every accepted connection is wrapped in a
    /// [`FaultyStream`] driven by a per-connection child of this plan
    /// (`plan.derive(connection_index)`), so the server's own read and
    /// write paths run under injected wire faults.
    pub wire_faults: Option<FailPlan>,
}

impl ServerConfig {
    /// A server on `socket_path` with a 64-request queue.
    pub fn new(socket_path: impl Into<PathBuf>) -> Self {
        ServerConfig {
            socket_path: socket_path.into(),
            queue_cap: 64,
            wire_faults: None,
        }
    }
}

/// One queued request with its reply channel and enqueue time.
struct Job {
    req: Request,
    enqueued: Instant,
    reply: SyncSender<Response>,
}

fn degraded_attempts(mode: Mode) -> u64 {
    match mode {
        Mode::Serving => 0,
        Mode::Degraded { attempts, .. } => attempts as u64,
    }
}

/// Map a controller-level rejection onto the wire.
fn error_response(ctl: &Controller, e: &CtlError) -> Response {
    let code = match e {
        CtlError::EpochFenced { .. } => ErrorCode::EpochFenced,
        CtlError::FeedGap { .. } | CtlError::BadPair(..) => ErrorCode::BadRequest,
        _ => ErrorCode::BadRequest,
    };
    Response::Error {
        code,
        epoch: ctl.epoch(),
        gen: ctl.generation(),
        mode: ctl.mode().tag().to_owned(),
        message: e.to_string(),
    }
}

/// The typed `gen-fenced` rejection, always reporting the server's own
/// lease so the client can adopt it — or recognize a deposed primary.
fn gen_fenced(ctl: &Controller, client_gen: u64, what: &str) -> Response {
    Response::Error {
        code: ErrorCode::GenFenced,
        epoch: ctl.epoch(),
        gen: ctl.generation(),
        mode: ctl.mode().tag().to_owned(),
        message: format!(
            "generation fence: {what} at generation {client_gen}, \
             server lease is {}",
            ctl.generation()
        ),
    }
}

/// Execute one request against the controller. Storage failures are
/// returned as `Err` to stop the server (a controller that cannot
/// checkpoint must not keep publishing epochs); everything
/// client-provoked is a typed in-band response.
fn dispatch(ctl: &mut Controller, req: &Request) -> Result<Response, CtlError> {
    let mode = ctl.mode().tag().to_owned();
    match req {
        Request::Hello | Request::Status => {
            let s = ctl.status();
            Ok(Response::Status {
                epoch: s.epoch,
                mode,
                gen: s.generation,
                now: s.now,
                pending: s.pending,
                committed_batch_id: s.committed_batch_id,
                reconv_count: s.reconv_count,
                reconv_total_us: s.reconv_total_us,
                reconv_max_us: s.reconv_max_us,
                degraded_attempts: degraded_attempts(s.mode),
            })
        }
        Request::Digest => {
            let digest = ctl.digest();
            Ok(Response::Digest {
                epoch: ctl.epoch(),
                mode,
                digest: format!("{digest:016x}"),
            })
        }
        Request::Paths { epoch, pairs, .. } => match ctl.paths(*epoch, pairs) {
            Ok(paths) => Ok(Response::Paths {
                epoch: ctl.epoch(),
                mode,
                paths,
            }),
            Err(e @ (CtlError::EpochFenced { .. } | CtlError::BadPair(..))) => {
                Ok(error_response(ctl, &e))
            }
            Err(e) => Err(e),
        },
        Request::Fault {
            batch_id,
            gen,
            changes,
        } => {
            // The generation fence runs before ingest: a fenced write
            // must not stage changes, advance the feed cursor, or
            // trigger a reconvergence on a deposed primary.
            if let Some(g) = gen {
                if *g != ctl.generation() {
                    return Ok(gen_fenced(
                        ctl,
                        *g,
                        format!("fault batch {batch_id}").as_str(),
                    ));
                }
            }
            match ctl.ingest(*batch_id, changes) {
                Ok(applied) => Ok(Response::Fault {
                    epoch: ctl.epoch(),
                    mode: ctl.mode().tag().to_owned(),
                    gen: ctl.generation(),
                    batch_id: *batch_id,
                    applied,
                }),
                Err(e @ (CtlError::FeedGap { .. } | CtlError::BadChange(_))) => {
                    Ok(error_response(ctl, &e))
                }
                Err(e) => Err(e),
            }
        }
        Request::Subscribe { gen, .. } => {
            // A standby that has followed a promotion outranks this
            // primary: refusing to feed it is what keeps a deposed
            // primary from rolling a newer-generation standby back.
            if *gen > ctl.generation() {
                return Ok(gen_fenced(ctl, *gen, "subscription"));
            }
            let (cp, _) = ctl.last_commit();
            Ok(Response::Replicate {
                mode,
                cp,
                changes: Vec::new(),
            })
        }
        Request::Tick { to } => {
            ctl.tick(*to)?;
            Ok(Response::Tick {
                epoch: ctl.epoch(),
                mode: ctl.mode().tag().to_owned(),
                now: ctl.now(),
            })
        }
        Request::Chaos { fail_certs } => {
            ctl.set_chaos_fail_certs(*fail_certs);
            Ok(Response::Chaos {
                epoch: ctl.epoch(),
                mode,
                fail_certs: *fail_certs,
            })
        }
        Request::Shutdown => Ok(Response::Shutdown {
            epoch: ctl.epoch(),
            mode,
        }),
    }
}

/// Replies a subscriber's channel can buffer before the controller
/// starts dropping it: a subscriber that cannot drain this many pushes
/// is too far behind to be worth blocking the control plane for, and
/// will resync through its store on redial.
const SUBSCRIBER_BUFFER: usize = 32;

/// Handle one connection: read frames, enqueue jobs, relay replies.
/// Runs until the peer closes, a frame is unreadable, or the server
/// shuts down. `shutdown_ack` fires once a `shutdown` acknowledgement
/// has actually been written to the peer, so [`serve`] can let the
/// process exit without racing the reply onto the wire.
///
/// A `subscribe` request flips the connection into replication mode:
/// after the initial snapshot reply, the controller keeps the reply
/// sender and pushes a `replicate` frame per committed epoch, which
/// this thread relays until either side drops.
fn handle_connection<S: Read + Write>(
    mut stream: S,
    queue: SyncSender<Job>,
    shutdown_ack: SyncSender<()>,
) {
    loop {
        let payload = match read_frame(&mut stream) {
            Ok(p) => p,
            Err(_) => return, // EOF or broken peer; nothing to answer
        };
        let req = match Request::decode(&payload) {
            Ok(r) => r,
            Err(e) => {
                let resp = Response::Error {
                    code: ErrorCode::BadRequest,
                    epoch: 0,
                    gen: 0,
                    mode: "unknown".to_owned(),
                    message: e.to_string(),
                };
                if write_frame(&mut stream, resp.to_json().as_bytes()).is_err() {
                    return;
                }
                continue;
            }
        };
        let is_shutdown = matches!(req, Request::Shutdown);
        let is_subscribe = matches!(req, Request::Subscribe { .. });
        let (rtx, rrx) = sync_channel(if is_subscribe { SUBSCRIBER_BUFFER } else { 1 });
        let job = Job {
            req,
            enqueued: Instant::now(),
            reply: rtx,
        };
        // Once the controller is gone the answer below is the last one
        // this connection can give: close afterwards so the peer's next
        // attempt fails at the stream layer and redials instead of
        // conversing with a zombie connection thread forever.
        let mut dying = false;
        let resp = match queue.try_send(job) {
            Ok(()) => match rrx.recv() {
                Ok(resp) => resp,
                Err(_) => {
                    dying = true;
                    Response::Error {
                        code: ErrorCode::Overload,
                        epoch: 0,
                        gen: 0,
                        mode: "unknown".to_owned(),
                        message: "server shutting down".to_owned(),
                    }
                }
            },
            Err(TrySendError::Full(_)) => Response::Error {
                code: ErrorCode::Overload,
                epoch: 0,
                gen: 0,
                mode: "unknown".to_owned(),
                message: "work queue full; retry later".to_owned(),
            },
            Err(TrySendError::Disconnected(_)) => {
                dying = true;
                Response::Error {
                    code: ErrorCode::Overload,
                    epoch: 0,
                    gen: 0,
                    mode: "unknown".to_owned(),
                    message: "server shutting down".to_owned(),
                }
            }
        };
        let accepted_subscription = is_subscribe && matches!(resp, Response::Replicate { .. });
        // A legal request can still produce a reply too large for the
        // frame bound (a big paths batch fans out to several path ids
        // per pair). Letting `write_frame` trip on it would close the
        // connection with no reply; the wire contract is that every
        // client-provoked error is answered in band, so substitute a
        // typed rejection that tells the client to split the batch.
        let mut payload = resp.to_json();
        if payload.len() as u64 > MAX_FRAME as u64 {
            let (epoch, mode) = resp.epoch_mode();
            payload = Response::Error {
                code: ErrorCode::BadRequest,
                epoch,
                gen: 0,
                mode: mode.to_owned(),
                message: format!(
                    "reply of {} bytes exceeds the {MAX_FRAME}-byte frame bound; \
                     split the batch into smaller requests",
                    payload.len()
                ),
            }
            .to_json();
        }
        let written = write_frame(&mut stream, payload.as_bytes()).is_ok();
        if is_shutdown && !matches!(resp, Response::Error { .. }) {
            let _ = shutdown_ack.try_send(());
        }
        if !written || dying {
            return;
        }
        if accepted_subscription {
            // Replication relay: block on controller pushes and stream
            // them out until the controller drops the sender (subscriber
            // fell behind or server shut down) or the write fails (peer
            // gone). Either way the connection is done — a standby that
            // lost its stream resyncs from its own store on redial.
            while let Ok(push) = rrx.recv() {
                if write_frame(&mut stream, push.to_json().as_bytes()).is_err() {
                    return;
                }
            }
            return;
        }
    }
}

/// Drain the queue against the controller until a `shutdown` request.
/// Returns `true` when a shutdown was served (as opposed to every
/// sender dropping).
///
/// Accepted `subscribe` connections are retained here as push targets:
/// after any request that advanced the `(generation, epoch)` lease, the
/// last committed checkpoint and its fault batch are fanned out with
/// `try_send`. A subscriber whose buffer is full (or whose relay thread
/// died) is dropped on the spot — replication must never apply
/// backpressure to the control plane.
fn controller_loop(ctl: &mut Controller, rx: Receiver<Job>) -> Result<bool, CtlError> {
    let mut subscribers: Vec<SyncSender<Response>> = Vec::new();
    while let Ok(job) = rx.recv() {
        // Deadline check happens at dequeue: a request that waited past
        // its budget is rejected, not served late.
        if let Request::Paths {
            deadline_ms: Some(ms),
            ..
        } = &job.req
        {
            let elapsed = job.enqueued.elapsed().as_millis() as u64;
            // A zero budget means "answer only if dequeued instantly"
            // and is always expired by the time we look.
            if *ms == 0 || elapsed > *ms {
                let _ = job.reply.send(Response::Error {
                    code: ErrorCode::Deadline,
                    epoch: ctl.epoch(),
                    gen: ctl.generation(),
                    mode: ctl.mode().tag().to_owned(),
                    message: format!("queued past the {ms} ms deadline"),
                });
                continue;
            }
        }
        let shutdown = matches!(job.req, Request::Shutdown);
        let is_subscribe = matches!(job.req, Request::Subscribe { .. });
        let lease_before = (ctl.generation(), ctl.epoch());
        let resp = dispatch(ctl, &job.req)?;
        let accepted_subscription = is_subscribe && matches!(resp, Response::Replicate { .. });
        let subscriber = accepted_subscription.then(|| job.reply.clone());
        let _ = job.reply.send(resp);
        if let Some(s) = subscriber {
            subscribers.push(s);
        }
        if (ctl.generation(), ctl.epoch()) != lease_before && !subscribers.is_empty() {
            let (cp, changes) = ctl.last_commit();
            let push = Response::Replicate {
                mode: ctl.mode().tag().to_owned(),
                cp,
                changes,
            };
            subscribers.retain(|s| s.try_send(push.clone()).is_ok());
        }
        if shutdown {
            return Ok(true);
        }
    }
    Ok(false)
}

/// Run the server until a `shutdown` request (or a fatal storage
/// error). Owns the controller for the duration; the acceptor and
/// per-connection threads are detached workers feeding the bounded
/// queue this thread drains.
pub fn serve(mut ctl: Controller, cfg: ServerConfig) -> Result<(), io::Error> {
    // The controller itself runs on logical ticks only (DET-TIME); the
    // server is the approved wall-clock module and injects the
    // monotonic clock behind the reconvergence latency stats.
    let clock_zero = Instant::now();
    ctl.set_micros_clock(Box::new(move || {
        u64::try_from(clock_zero.elapsed().as_micros()).unwrap_or(u64::MAX)
    }));
    let _ = std::fs::remove_file(&cfg.socket_path);
    let listener = UnixListener::bind(&cfg.socket_path)?;
    let (tx, rx) = sync_channel::<Job>(cfg.queue_cap.max(1));
    let (ack_tx, ack_rx) = sync_channel::<()>(1);
    let shutting_down = Arc::new(AtomicBool::new(false));

    let acceptor = {
        let shutting_down = Arc::clone(&shutting_down);
        let wire_faults = cfg.wire_faults;
        let counters = FaultCounters::new();
        std::thread::spawn(move || {
            let mut conn_index = 0u64;
            for stream in listener.incoming() {
                if shutting_down.load(Ordering::SeqCst) {
                    return;
                }
                let Ok(stream) = stream else { continue };
                let queue = tx.clone();
                let ack = ack_tx.clone();
                match wire_faults {
                    Some(plan) if plan.armed() => {
                        // Each connection gets its own derived plan so its
                        // fault sequence depends only on the seed and its
                        // accept order, not on frame interleaving.
                        let faulty =
                            FaultyStream::new(stream, plan.derive(conn_index), counters.clone());
                        std::thread::spawn(move || handle_connection(faulty, queue, ack));
                    }
                    _ => {
                        std::thread::spawn(move || handle_connection(stream, queue, ack));
                    }
                }
                conn_index += 1;
            }
        })
    };

    let result = controller_loop(&mut ctl, rx);

    // The shutdown acknowledgement is written by a detached connection
    // thread; wait for it so a process exit right after this return
    // cannot cut the reply off mid-frame.
    if let Ok(true) = result {
        let _ = ack_rx.recv_timeout(std::time::Duration::from_secs(5));
    }

    // Unblock the acceptor: flag first, then a throwaway self-connect.
    shutting_down.store(true, Ordering::SeqCst);
    let _ = UnixStream::connect(&cfg.socket_path);
    let _ = acceptor.join();
    let _ = std::fs::remove_file(&cfg.socket_path);

    result
        .map(|_| ())
        .map_err(|e| io::Error::other(e.to_string()))
}
