//! Hot-standby replication: a [`Standby`] follows a primary daemon's
//! committed epochs over the wire and persists them locally.
//!
//! The standby dials the primary's socket, sends the `subscribe`
//! request with the newest `(generation, epoch)` it already holds on
//! disk, and then applies the stream of `replicate` frames — the
//! initial snapshot, then one push per committed epoch — through its
//! own [`Store`]. Because every applied checkpoint goes through the
//! same atomic-rename commit path the primary uses, standby recovery
//! *is* primary recovery: [`Store::load_latest`]'s newest-valid-wins
//! scan needs no replication-specific cases, and promotion is nothing
//! more than starting a [`crate::Controller`] on the standby's
//! directory and bumping the generation lease.
//!
//! Fencing works in both directions:
//!
//! * the standby skips (and counts) any streamed checkpoint whose
//!   `(generation, epoch)` does not advance what it already has, and
//!   its store refuses stale-generation commits outright;
//! * a primary whose generation is *older* than the standby's answers
//!   the subscription with `gen-fenced` — a deposed primary cannot
//!   roll a promoted standby back.
//!
//! The follower runs on one background thread. Every transport or
//! framing failure tears the connection down and redials under capped
//! exponential backoff, resyncing from the snapshot — a lost stream
//! costs duplicate frames (skipped by the fence above), never a gap,
//! because the snapshot always carries the primary's newest state.

use crate::client::RetryPolicy;
use crate::failpoint::{FailPlan, FaultCounters, FaultyStream};
use crate::store::{Store, StoreError, RETAIN};
use crate::wire::{read_frame, write_frame, ErrorCode, Request, Response};
use std::io::{Read, Write};
use std::net::Shutdown;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Configuration for one standby replica.
#[derive(Debug, Clone)]
pub struct ReplicaConfig {
    /// The primary daemon's Unix socket.
    pub primary_socket: PathBuf,
    /// The standby's own checkpoint directory (must not be the
    /// primary's).
    pub state_dir: PathBuf,
    /// Delay before the second redial attempt, in milliseconds.
    pub redial_base_ms: u64,
    /// Upper bound on any single redial delay, in milliseconds.
    pub redial_cap_ms: u64,
    /// When set, every dialed connection is wrapped in a
    /// [`FaultyStream`] driven by `plan.derive(connection_index)`.
    pub wire_faults: Option<FailPlan>,
    /// When set, the follower thread exits after this many
    /// *consecutive* failed dials — the hook the `ctld` binary's
    /// `--promote-after` flow uses to detect a dead primary.
    pub max_redial_failures: Option<u64>,
}

impl ReplicaConfig {
    /// A standby of the primary at `primary_socket`, persisting into
    /// `state_dir`, with default pacing and no fault injection.
    pub fn new(primary_socket: impl Into<PathBuf>, state_dir: impl Into<PathBuf>) -> Self {
        ReplicaConfig {
            primary_socket: primary_socket.into(),
            state_dir: state_dir.into(),
            redial_base_ms: 10,
            redial_cap_ms: 500,
            wire_faults: None,
            max_redial_failures: None,
        }
    }
}

/// Counters describing what a standby did, for harness accounting and
/// operator logs. Snapshot values; the follower may advance them the
/// instant after a read.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StandbyStats {
    /// Successful subscriptions established (including the first).
    pub connects: u64,
    /// Connections lost and re-established (stream error, unexpected
    /// frame, or fenced subscription).
    pub resyncs: u64,
    /// Checkpoints applied through the local store.
    pub epochs_applied: u64,
    /// Streamed checkpoints skipped or refused because they did not
    /// advance the local `(generation, epoch)`.
    pub stale_skipped: u64,
    /// Newest generation durable in the standby's store.
    pub generation: u64,
    /// Newest epoch durable in the standby's store.
    pub epoch: u64,
}

/// Shared between the handle and the follower thread.
struct Shared {
    stop: AtomicBool,
    connects: AtomicU64,
    resyncs: AtomicU64,
    epochs_applied: AtomicU64,
    stale_skipped: AtomicU64,
    generation: AtomicU64,
    epoch: AtomicU64,
    /// An unwrapped clone of the live connection, kept so `stop()` can
    /// `shutdown()` it and unblock a read that would otherwise wait for
    /// the primary's next commit indefinitely (the follower uses no
    /// read timeouts — a timeout mid-frame would desynchronize the
    /// length-prefixed framing).
    live: Mutex<Option<UnixStream>>,
}

/// Handle to a running standby follower thread.
pub struct Standby {
    shared: Arc<Shared>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for Standby {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Standby")
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

impl Standby {
    /// Open the standby's store (creating `state_dir` if needed), read
    /// back whatever `(generation, epoch)` is already durable, and
    /// start the follower thread.
    pub fn spawn(cfg: ReplicaConfig) -> Result<Standby, StoreError> {
        let mut store = Store::open(&cfg.state_dir, RETAIN)?;
        let (generation, epoch) = match store.load_latest() {
            Ok(cp) => (cp.generation, cp.epoch),
            Err(StoreError::NoCheckpoint) => (0, 0),
            Err(e) => return Err(e),
        };
        let shared = Arc::new(Shared {
            stop: AtomicBool::new(false),
            connects: AtomicU64::new(0),
            resyncs: AtomicU64::new(0),
            epochs_applied: AtomicU64::new(0),
            stale_skipped: AtomicU64::new(0),
            generation: AtomicU64::new(generation),
            epoch: AtomicU64::new(epoch),
            live: Mutex::new(None),
        });
        let thread = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || follow(cfg, store, &shared))
        };
        Ok(Standby {
            shared,
            thread: Some(thread),
        })
    }

    /// Current counters (the follower keeps running).
    pub fn stats(&self) -> StandbyStats {
        StandbyStats {
            connects: self.shared.connects.load(Ordering::SeqCst),
            resyncs: self.shared.resyncs.load(Ordering::SeqCst),
            epochs_applied: self.shared.epochs_applied.load(Ordering::SeqCst),
            stale_skipped: self.shared.stale_skipped.load(Ordering::SeqCst),
            generation: self.shared.generation.load(Ordering::SeqCst),
            epoch: self.shared.epoch.load(Ordering::SeqCst),
        }
    }

    /// Stop the follower: raise the flag, shut the live connection to
    /// unblock any read in flight, join the thread, return the final
    /// counters.
    pub fn stop(mut self) -> StandbyStats {
        self.shared.stop.store(true, Ordering::SeqCst);
        if let Ok(guard) = self.shared.live.lock() {
            if let Some(stream) = guard.as_ref() {
                let _ = stream.shutdown(Shutdown::Both);
            }
        }
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
        self.stats()
    }

    /// Block until the follower exits on its own — which it only does
    /// with `max_redial_failures` set, once that many consecutive dials
    /// have failed. Returns the final counters.
    pub fn wait(mut self) -> StandbyStats {
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
        self.stats()
    }
}

impl Drop for Standby {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        if let Ok(guard) = self.shared.live.lock() {
            if let Some(stream) = guard.as_ref() {
                let _ = stream.shutdown(Shutdown::Both);
            }
        }
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// Sleep `ms` in small chunks so a `stop()` during backoff is honored
/// promptly.
fn interruptible_sleep(shared: &Shared, ms: u64) {
    let mut left = ms;
    while left > 0 && !shared.stop.load(Ordering::SeqCst) {
        let chunk = left.min(20);
        std::thread::sleep(Duration::from_millis(chunk));
        left -= chunk;
    }
}

/// The follower loop: dial, subscribe, apply, resync until stopped.
fn follow(cfg: ReplicaConfig, mut store: Store, shared: &Shared) {
    let backoff = RetryPolicy {
        base_ms: cfg.redial_base_ms,
        cap_ms: cfg.redial_cap_ms,
        max_attempts: u32::MAX,
    };
    let counters = FaultCounters::new();
    let mut conn_index = 0u64;
    let mut failed_dials = 0u64;
    while !shared.stop.load(Ordering::SeqCst) {
        let stream = match UnixStream::connect(&cfg.primary_socket) {
            Ok(s) => s,
            Err(_) => {
                failed_dials += 1;
                if cfg
                    .max_redial_failures
                    .is_some_and(|max| failed_dials >= max)
                {
                    return;
                }
                let attempt = u32::try_from(failed_dials.saturating_add(1)).unwrap_or(u32::MAX);
                interruptible_sleep(shared, backoff.delay_ms(attempt));
                continue;
            }
        };
        failed_dials = 0;
        if let Ok(mut guard) = shared.live.lock() {
            *guard = stream.try_clone().ok();
        }
        let index = conn_index;
        conn_index += 1;
        let mut conn: Box<dyn Duplex> = match cfg.wire_faults {
            Some(plan) if plan.armed() => Box::new(FaultyStream::new(
                stream,
                plan.derive(index),
                counters.clone(),
            )),
            _ => Box::new(stream),
        };
        if feed(&cfg, &mut store, shared, &mut conn) {
            shared.resyncs.fetch_add(1, Ordering::SeqCst);
        }
        if let Ok(mut guard) = shared.live.lock() {
            *guard = None;
        }
    }
}

/// Both halves of a stream, boxable.
trait Duplex: Read + Write {}
impl<S: Read + Write> Duplex for S {}

/// Subscribe on an established connection and apply pushes until the
/// stream dies. Returns `true` when the loss should count as a resync
/// (a subscription had been established).
fn feed(
    cfg: &ReplicaConfig,
    store: &mut Store,
    shared: &Shared,
    conn: &mut Box<dyn Duplex>,
) -> bool {
    let sub = Request::Subscribe {
        from_epoch: shared.epoch.load(Ordering::SeqCst),
        gen: shared.generation.load(Ordering::SeqCst),
    };
    if write_frame(conn, sub.to_json().as_bytes()).is_err() {
        return false;
    }
    let mut subscribed = false;
    loop {
        if shared.stop.load(Ordering::SeqCst) {
            return false;
        }
        let payload = match read_frame(conn) {
            Ok(p) => p,
            Err(_) => return subscribed,
        };
        let resp = match Response::decode(&payload) {
            Ok(r) => r,
            Err(_) => return subscribed,
        };
        match resp {
            Response::Replicate { cp, .. } => {
                if !subscribed {
                    subscribed = true;
                    shared.connects.fetch_add(1, Ordering::SeqCst);
                }
                let have = (
                    shared.generation.load(Ordering::SeqCst),
                    shared.epoch.load(Ordering::SeqCst),
                );
                if (cp.generation, cp.epoch) <= have {
                    shared.stale_skipped.fetch_add(1, Ordering::SeqCst);
                    continue;
                }
                match store.commit(&cp) {
                    Ok(()) => {
                        shared.generation.store(cp.generation, Ordering::SeqCst);
                        shared.epoch.store(cp.epoch, Ordering::SeqCst);
                        shared.epochs_applied.fetch_add(1, Ordering::SeqCst);
                    }
                    Err(StoreError::StaleGeneration { .. }) => {
                        // The in-memory fence above should make this
                        // unreachable, but the store's durable fence is
                        // the authority — count it and drop the stream.
                        shared.stale_skipped.fetch_add(1, Ordering::SeqCst);
                        return subscribed;
                    }
                    Err(e) => {
                        eprintln!(
                            "standby {}: checkpoint commit failed: {e}",
                            cfg.state_dir.display()
                        );
                        return subscribed;
                    }
                }
            }
            Response::Error {
                code: ErrorCode::GenFenced,
                ..
            } => {
                // The primary is behind this standby's generation — it
                // is deposed and has nothing to offer. Drop and redial;
                // with `max_redial_failures` unset the operator decides
                // when to stop us.
                return subscribed;
            }
            _ => return subscribed,
        }
    }
}
