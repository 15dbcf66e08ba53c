//! Unix-domain-socket front end: reads from a published snapshot,
//! writes through one bounded queue.
//!
//! One thread — the caller of [`serve`] — owns the [`Controller`] and
//! drains a bounded queue that carries **writes only**: `fault`,
//! `tick`, `chaos`, `subscribe` and `shutdown`. After each write it
//! stores the controller's new [`Published`] snapshot in a shared slot,
//! and only then sends the write's reply. That order is the
//! read-your-writes guarantee: once a client holds the ack of epoch
//! *e + 1*, no read on any connection answers *e*.
//!
//! Reads — `hello`, `status`, `digest` and `paths` — never enter the
//! queue. The connection thread that parsed one clones the snapshot's
//! `Arc` out of the slot (the lock is held for that clone only) and
//! answers from it, fencing `paths` against *that* snapshot's epoch. A
//! read therefore never waits behind a certification, and never mixes
//! two epochs: it is a complete answer at the epoch it names, or
//! `epoch-fenced`. When the write queue is full the connection thread
//! answers the typed `overload` rejection itself, so backpressure costs
//! the controller nothing.
//!
//! When the controller loop ends — a served `shutdown` or a fatal
//! storage error — it empties the slot. Every connection thread then
//! answers its next request with the typed "server shutting down" error
//! and closes, so a dead incarnation never keeps answering from its
//! last snapshot. Shutdown is otherwise orderly: the `shutdown` op is
//! acknowledged, the acceptor is unblocked with a self-connection, and
//! the socket file is removed.

use crate::controller::{Controller, CtlError, Mode, Published, StatusInfo};
use crate::wire::{read_frame, write_frame, ChangeSpec, ErrorCode, Request, Response, MAX_FRAME};
use std::io::{self, Read};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// Server tuning.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Path of the Unix domain socket to bind.
    pub socket_path: PathBuf,
    /// Bound on queued writes; overflow is rejected as `overload`.
    /// Reads are never queued.
    pub queue_cap: usize,
}

impl ServerConfig {
    /// A server on `socket_path` with a 64-write queue.
    pub fn new(socket_path: impl Into<PathBuf>) -> Self {
        ServerConfig {
            socket_path: socket_path.into(),
            queue_cap: 64,
        }
    }
}

/// The snapshot every read is answered from; `None` once the controller
/// loop has ended.
type Slot = Mutex<Option<Arc<Published>>>;

fn load(slot: &Slot) -> Option<Arc<Published>> {
    slot.lock().unwrap_or_else(PoisonError::into_inner).clone()
}

fn store(slot: &Slot, snapshot: Option<Arc<Published>>) {
    *slot.lock().unwrap_or_else(PoisonError::into_inner) = snapshot;
}

/// A request only the controller thread can serve: the queue's payload.
enum Write {
    Fault {
        batch_id: u64,
        gen: Option<u64>,
        changes: Vec<ChangeSpec>,
    },
    Subscribe {
        gen: u64,
    },
    Tick {
        to: u64,
    },
    Chaos {
        fail_certs: bool,
    },
    Shutdown,
}

/// One queued write with its reply channel.
struct Job {
    write: Write,
    reply: SyncSender<Response>,
}

fn degraded_attempts(mode: Mode) -> u64 {
    match mode {
        Mode::Serving => 0,
        Mode::Degraded { attempts, .. } => attempts as u64,
    }
}

/// A typed rejection stamped with `status`'s epoch, lease and mode.
fn reject(status: &StatusInfo, code: ErrorCode, message: String) -> Response {
    Response::Error {
        code,
        epoch: status.epoch,
        gen: status.generation,
        mode: status.mode.tag().to_owned(),
        message,
    }
}

/// Map a controller-level rejection onto the wire.
fn error_response(status: &StatusInfo, e: &CtlError) -> Response {
    let code = match e {
        CtlError::EpochFenced { .. } => ErrorCode::EpochFenced,
        _ => ErrorCode::BadRequest,
    };
    reject(status, code, e.to_string())
}

/// The typed `gen-fenced` rejection, always reporting the server's own
/// lease so the client can adopt it — or recognize a deposed primary.
fn gen_fenced(status: &StatusInfo, client_gen: u64, what: &str) -> Response {
    let message = format!(
        "generation fence: {what} at generation {client_gen}, server lease is {}",
        status.generation
    );
    reject(status, ErrorCode::GenFenced, message)
}

/// The answer of a connection whose controller is gone. It carries no
/// epoch (`"unknown"` mode): there is no snapshot left to stamp it.
fn shutting_down() -> Response {
    Response::Error {
        code: ErrorCode::Overload,
        epoch: 0,
        gen: 0,
        mode: "unknown".to_owned(),
        message: "server shutting down".to_owned(),
    }
}

/// Answer `req` from `snap` when it is a read; hand it back as a
/// [`Write`] for the controller queue otherwise. Every stamp of a read
/// reply — epoch, lease, mode — is the snapshot's.
fn answer_read(snap: &Published, req: Request) -> Result<Response, Write> {
    let status = snap.status();
    let mode = status.mode.tag().to_owned();
    Ok(match req {
        Request::Hello | Request::Status => Response::Status {
            epoch: status.epoch,
            mode,
            gen: status.generation,
            now: status.now,
            pending: status.pending,
            committed_batch_id: status.committed_batch_id,
            reconv_count: status.reconv_count,
            reconv_total_us: status.reconv_total_us,
            reconv_max_us: status.reconv_max_us,
            degraded_attempts: degraded_attempts(status.mode),
        },
        Request::Digest => Response::Digest {
            epoch: status.epoch,
            mode,
            digest: format!("{:016x}", snap.digest()),
        },
        // `deadline_ms` is accepted and ignored: a read is answered on
        // arrival, so there is no queueing for a budget to bound.
        Request::Paths { epoch, pairs, .. } => match snap.paths(epoch, &pairs) {
            Ok(paths) => Response::Paths {
                epoch: status.epoch,
                mode,
                paths,
            },
            Err(e) => error_response(status, &e),
        },
        Request::Fault {
            batch_id,
            gen,
            changes,
        } => {
            return Err(Write::Fault {
                batch_id,
                gen,
                changes,
            })
        }
        Request::Subscribe { gen, .. } => return Err(Write::Subscribe { gen }),
        Request::Tick { to } => return Err(Write::Tick { to }),
        Request::Chaos { fail_certs } => return Err(Write::Chaos { fail_certs }),
        Request::Shutdown => return Err(Write::Shutdown),
    })
}

/// Execute one write against the controller. Storage failures are
/// returned as `Err` to stop the server (a controller that cannot
/// checkpoint must not keep publishing epochs); everything
/// client-provoked is a typed in-band response.
fn dispatch(ctl: &mut Controller, write: &Write) -> Result<Response, CtlError> {
    match write {
        Write::Fault {
            batch_id,
            gen,
            changes,
        } => {
            // The generation fence runs before ingest: a fenced write
            // must not stage changes, advance the feed cursor, or
            // trigger a reconvergence on a deposed primary.
            if let Some(g) = gen {
                if *g != ctl.generation() {
                    let what = format!("fault batch {batch_id}");
                    return Ok(gen_fenced(&ctl.status(), *g, &what));
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
                    Ok(error_response(&ctl.status(), &e))
                }
                Err(e) => Err(e),
            }
        }
        Write::Subscribe { gen } => {
            // A standby that has followed a promotion outranks this
            // primary: refusing to feed it is what keeps a deposed
            // primary from rolling a newer-generation standby back.
            if *gen > ctl.generation() {
                return Ok(gen_fenced(&ctl.status(), *gen, "subscription"));
            }
            let (cp, _) = ctl.last_commit();
            Ok(Response::Replicate {
                mode: ctl.mode().tag().to_owned(),
                cp,
                changes: Vec::new(),
            })
        }
        Write::Tick { to } => {
            ctl.tick(*to)?;
            Ok(Response::Tick {
                epoch: ctl.epoch(),
                mode: ctl.mode().tag().to_owned(),
                now: ctl.now(),
            })
        }
        Write::Chaos { fail_certs } => {
            ctl.set_chaos_fail_certs(*fail_certs);
            Ok(Response::Chaos {
                epoch: ctl.epoch(),
                mode: ctl.mode().tag().to_owned(),
                fail_certs: *fail_certs,
            })
        }
        Write::Shutdown => Ok(Response::Shutdown {
            epoch: ctl.epoch(),
            mode: ctl.mode().tag().to_owned(),
        }),
    }
}

/// Replies a subscriber's channel can buffer before the controller
/// starts dropping it: a subscriber that cannot drain this many pushes
/// is too far behind to be worth blocking the control plane for, and
/// will resync through its store on redial.
const SUBSCRIBER_BUFFER: usize = 32;

/// Handle one connection: read frames, answer reads from the published
/// snapshot, enqueue writes and relay their replies. Runs until the
/// peer closes, a frame is unreadable, or the server shuts down.
/// `shutdown_ack` fires once a `shutdown` acknowledgement has actually
/// been written to the peer, so [`serve`] can let the process exit
/// without racing the reply onto the wire.
///
/// A `subscribe` request flips the connection into replication mode:
/// after the initial snapshot reply, the controller keeps the reply
/// sender and pushes a `replicate` frame per committed epoch, which
/// this thread relays until either side drops.
fn handle_connection<S: Read + io::Write>(
    mut stream: S,
    slot: Arc<Slot>,
    queue: SyncSender<Job>,
    shutdown_ack: SyncSender<()>,
) {
    loop {
        let payload = match read_frame(&mut stream) {
            Ok(p) => p,
            Err(_) => return, // EOF or broken peer; nothing to answer
        };
        // Once the controller is gone the answer is the last one this
        // connection gives: close afterwards so the peer's next attempt
        // fails at the stream layer and redials instead of conversing
        // with a zombie connection thread forever.
        let Some(snap) = load(&slot) else {
            let _ = write_frame(&mut stream, shutting_down().to_json().as_bytes());
            return;
        };
        let status = snap.status();
        let req = match Request::decode(&payload) {
            Ok(r) => r,
            Err(e) => {
                let resp = reject(status, ErrorCode::BadRequest, e.to_string());
                if write_frame(&mut stream, resp.to_json().as_bytes()).is_err() {
                    return;
                }
                continue;
            }
        };
        let mut dying = false;
        let mut subscription = None;
        let mut is_shutdown = false;
        let resp = match answer_read(&snap, req) {
            Ok(resp) => resp,
            Err(write) => {
                is_shutdown = matches!(write, Write::Shutdown);
                let is_subscribe = matches!(write, Write::Subscribe { .. });
                let (rtx, rrx) = sync_channel(if is_subscribe { SUBSCRIBER_BUFFER } else { 1 });
                match queue.try_send(Job { write, reply: rtx }) {
                    Ok(()) => match rrx.recv() {
                        Ok(resp) => {
                            if is_subscribe && matches!(resp, Response::Replicate { .. }) {
                                subscription = Some(rrx);
                            }
                            resp
                        }
                        Err(_) => {
                            dying = true;
                            shutting_down()
                        }
                    },
                    Err(TrySendError::Full(_)) => reject(
                        status,
                        ErrorCode::Overload,
                        "work queue full; retry later".to_owned(),
                    ),
                    Err(TrySendError::Disconnected(_)) => {
                        dying = true;
                        shutting_down()
                    }
                }
            }
        };
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
                gen: resp.gen().unwrap_or(status.generation),
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
        if let Some(pushes) = subscription {
            // Replication relay: block on controller pushes and stream
            // them out until the controller drops the sender (subscriber
            // fell behind or server shut down) or the write fails (peer
            // gone). Either way the connection is done — a standby that
            // lost its stream resyncs from its own store on redial.
            while let Ok(push) = pushes.recv() {
                if write_frame(&mut stream, push.to_json().as_bytes()).is_err() {
                    return;
                }
            }
            return;
        }
    }
}

/// Drain the write queue against the controller until a `shutdown`
/// request. Returns `true` when a shutdown was served (as opposed to
/// every sender dropping).
///
/// After every write the new snapshot is stored in `slot` *before* the
/// reply is sent (read-your-writes); a shutdown or a fatal error empties
/// the slot instead, so no connection answers from a dead controller.
///
/// Accepted `subscribe` connections are retained here as push targets:
/// after any write that advanced the `(generation, epoch)` lease, the
/// last committed checkpoint and its fault batch are fanned out with
/// `try_send`. A subscriber whose buffer is full (or whose relay thread
/// died) is dropped on the spot — replication must never apply
/// backpressure to the control plane.
fn controller_loop(ctl: &mut Controller, rx: Receiver<Job>, slot: &Slot) -> Result<bool, CtlError> {
    let mut subscribers: Vec<SyncSender<Response>> = Vec::new();
    while let Ok(job) = rx.recv() {
        let shutdown = matches!(job.write, Write::Shutdown);
        let lease_before = (ctl.generation(), ctl.epoch());
        let result = dispatch(ctl, &job.write);
        store(slot, (result.is_ok() && !shutdown).then(|| ctl.published()));
        let resp = result?;
        let accepted_subscription = matches!(job.write, Write::Subscribe { .. })
            && matches!(resp, Response::Replicate { .. });
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
    store(slot, None);
    Ok(false)
}

/// Run the server until a `shutdown` request (or a fatal storage
/// error). Owns the controller for the duration; the acceptor and
/// per-connection threads are detached workers that answer reads from
/// the published snapshot and feed writes to the bounded queue this
/// thread drains.
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
    let slot: Arc<Slot> = Arc::new(Mutex::new(Some(ctl.published())));
    let (tx, rx) = sync_channel::<Job>(cfg.queue_cap.max(1));
    let (ack_tx, ack_rx) = sync_channel::<()>(1);
    let shutting_down = Arc::new(AtomicBool::new(false));

    let acceptor = {
        let shutting_down = Arc::clone(&shutting_down);
        let slot = Arc::clone(&slot);
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                if shutting_down.load(Ordering::SeqCst) {
                    return;
                }
                let Ok(stream) = stream else { continue };
                let (slot, queue, ack) = (Arc::clone(&slot), tx.clone(), ack_tx.clone());
                std::thread::spawn(move || handle_connection(stream, slot, queue, ack));
            }
        })
    };

    let result = controller_loop(&mut ctl, rx, &slot);

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
