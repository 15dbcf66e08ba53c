//! `lmpr-ctld`: a fault-tolerant routing-controller daemon for limited
//! multi-path routing on extended generalized fat-trees.
//!
//! The paper's LFTs are computed once and assumed static; a real fabric
//! manager must keep answering path queries while links fail and
//! recover around it. This crate is that control plane, built so that
//! **robustness is the headline property** at every layer:
//!
//! * **Epochs** ([`controller`]): every routing state the controller
//!   serves is a monotonically numbered epoch. An epoch is activated
//!   only after an `lmpr-verify` certificate (CDG acyclicity inherited
//!   from the full-scope genesis proof, coverage re-proven on the
//!   change batch's topology-derived blast radius) passes — see
//!   [`lmpr_verify::certify_epoch`] and
//!   [`lmpr_verify::change_blast_radius`].
//! * **Crash consistency** ([`store`]): each committed epoch is
//!   checkpointed with an atomic write-then-rename in a checksummed
//!   envelope. A SIGKILL at any instant restarts the daemon into the
//!   last committed epoch, and replaying the same fault feed reproduces
//!   the interrupted run's epochs and answers byte-identically.
//! * **Graceful degradation** ([`controller`]): a failed certificate
//!   flips the controller into a degraded mode that keeps serving the
//!   last-good epoch (typed `degraded` status in every reply) and
//!   retries reconvergence under capped exponential backoff on the
//!   logical clock.
//! * **Snapshot reads, a bounded write queue, fencing** ([`server`],
//!   [`wire`]): queries travel over a length-prefixed socket protocol
//!   and carry the client's epoch. Every mutating call publishes an
//!   immutable snapshot of the committed epoch
//!   ([`controller::Published`]); reads are answered from it on the
//!   connection threads and never wait behind a certification, and a
//!   cross-epoch batch is rejected with a typed `epoch-fenced` error so
//!   readers never mix two generations of LFTs. Only writes queue for
//!   the controller thread; the queue is bounded, with overflow
//!   rejected as a typed `overload` error instead of unbounded latency.
//!
//! * **Deterministic failure injection** ([`failpoint`]): the
//!   checkpoint store's create, write, sync, rename and pruning unlink
//!   and every stream read/write of the wire layer consult a seeded
//!   fault plan whose decisions are a pure function of the seed, so any
//!   failure interleaving — short writes, ENOSPC, fsync-then-crash,
//!   torn renames, torn frames, mid-frame disconnects — replays from
//!   the seed alone.
//! * **A retrying client** ([`client`]): reconnect-on-error, capped
//!   exponential backoff on `overload`, refetch-and-retry on
//!   `epoch-fenced`, idempotent fault-batch resubmission keyed by
//!   `batch_id` (the controller's at-least-once dedup makes resends
//!   safe), ordered multi-endpoint failover, and generation-fence
//!   retry after a promotion.
//! * **Hot-standby replication** ([`replication`]): a standby daemon
//!   subscribes to the primary's committed epochs over the wire and
//!   persists them through its own checkpoint store; fencing is
//!   widened from `epoch` to `(generation, epoch)` so a promoted
//!   standby's generation bump durably rejects a deposed primary's
//!   writes and acks (split-brain prevention).
//!
//! The `ctld` binary runs the daemon, `ctlc` is the matching client,
//! `ctl_bench` drives a Poisson fault feed against a 1024-end-host
//! 3-level XGFT measuring queries/sec and reconvergence latency, and
//! `ctl_soak` is the seeded chaos harness that checks the recovery
//! invariants ([`soak`]) under an escalating failpoint schedule.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod controller;
pub mod failpoint;
pub mod replication;
pub mod server;
pub mod soak;
pub mod store;
pub mod wire;

pub use client::{Client, ClientConfig, ClientError, ClientStats, RetryPolicy};
pub use controller::{Controller, CtlConfig, CtlError, Mode, StatusInfo};
pub use failpoint::{crash_error, FailPlan, FaultCounters, FaultyStream, StorageFault, WireFault};
pub use replication::{ReplicaConfig, Standby, StandbyStats};
pub use server::{serve, ServerConfig};
pub use store::{Checkpoint, Store, StoreError};
pub use wire::{
    read_frame, write_frame, ChangeSpec, ErrorCode, Request, Response, WireError, MAX_FRAME,
};

/// Check that an output document can be created at `path` — its
/// directory exists and `path` is not itself a directory — so a binary
/// refuses a bad `--out` before it runs rather than after. The error
/// reads `cannot write PATH: …`, as a failed final write does.
pub fn check_out_path(path: &str) -> Result<(), String> {
    let out = std::path::Path::new(path);
    if out.is_dir() {
        return Err(format!("cannot write {path}: it is a directory"));
    }
    let dir = out
        .parent()
        .filter(|d| !d.as_os_str().is_empty())
        .unwrap_or(std::path::Path::new("."));
    match std::fs::metadata(dir) {
        Ok(meta) if meta.is_dir() => Ok(()),
        Ok(_) => Err(format!(
            "cannot write {path}: {} is not a directory",
            dir.display()
        )),
        Err(e) => Err(format!("cannot write {path}: {e}")),
    }
}
