//! Seeded, deterministic failpoint injection for every ctld I/O site.
//!
//! The daemon's own failure surface is storage and socket I/O. One
//! [`FailPlan`] drives both: the checkpoint [`crate::store::Store`]
//! consults it at its five fault sites (create, write, sync, rename and
//! the pruning unlink), and [`FaultyStream`] wraps the reads and writes
//! of the connections the client and the standby follower dial. Every decision is a **pure function of a
//! seed**: fault number `n` at site `s` either fires or not depending
//! only on `(seed, s, n)`. Any failure interleaving the soak harness
//! provokes therefore replays from the soak's `--seed`; the plan's
//! [`fmt::Display`] form records the rates in the soak document and is
//! never parsed back.
//!
//! Storage fault kinds (the checkpoint commit path):
//!
//! * **short write** — only a prefix of the payload reaches the file,
//!   then a typed error (torn checkpoint prefix on disk);
//! * **ENOSPC** — the write fails before any byte lands;
//! * **EINTR** — a transient interruption ([`crate::store::Store`]
//!   retries these once, so a single EINTR is survivable);
//! * **fsync-then-crash** — the data is durably synced, then the
//!   process is asked to crash (the commit is recoverable but never
//!   acknowledged);
//! * **torn rename** — the destination materializes holding only a
//!   prefix of the source bytes and the process crashes (a rename whose
//!   data never hit disk before power loss).
//!
//! Wire fault kinds (any [`Read`]`+`[`Write`] stream): partial
//! reads/writes that split frames, dropped frames (claimed written,
//! never sent), injected garbage bytes that desynchronize the framing,
//! and mid-frame disconnects. The peer must answer each with a typed
//! [`crate::wire::WireError`] or a typed in-band rejection — never a
//! panic, and never a hang when the other side times out or reconnects.
//!
//! A "crash" in-process is an [`io::Error`] whose message carries the
//! `injected failpoint crash at SITE#N` marker ([`crash_error`]); it
//! propagates through [`crate::store::StoreError::Io`] and stops the
//! server loop exactly like a fatal storage error. The soak harness
//! finds the marker in the daemon's stringified exit error and restarts
//! the daemon from the state directory, which is precisely what a
//! supervisor would do.

use lmpr_codec::fnv::fnv1a64;
use lmpr_codec::splitmix::mix;
use std::fmt;
use std::io::{self, Read, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Permille denominator for fault probabilities.
const PERMILLE: u64 = 1000;

/// A deterministic fault plan: rates per I/O category, all driven by
/// one seed. The [`fmt::Display`] form,
/// `fp1:<seed>:s<storage>:w<wire>:c<crash>[:nodrop]`, is what the soak
/// document records as its `"plan"`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FailPlan {
    /// Master seed; every decision hashes it with the site and op index.
    pub seed: u64,
    /// Probability (permille) that a storage op faults.
    pub storage_permille: u16,
    /// Probability (permille) that a stream read/write faults.
    pub wire_permille: u16,
    /// Probability (permille) that a *faulting* storage op escalates to
    /// a crash kind (fsync-then-crash, torn rename) instead of a
    /// survivable error.
    pub crash_permille: u16,
    /// Exclude the frame-drop wire kind. Dropped frames are only
    /// detectable by timeout, so connections that must stay
    /// deterministic under wall-clock load (the soak feeder) disable
    /// them while stress connections keep them.
    pub no_drop: bool,
}

impl FailPlan {
    /// A plan with the given rates; all zero, it never fires.
    pub fn new(seed: u64, storage_permille: u16, wire_permille: u16, crash_permille: u16) -> Self {
        FailPlan {
            seed,
            storage_permille,
            wire_permille,
            crash_permille,
            no_drop: false,
        }
    }

    /// Whether any fault can ever fire.
    pub fn armed(&self) -> bool {
        self.storage_permille > 0 || self.wire_permille > 0
    }

    /// Derive an independent child plan (per incarnation, per
    /// connection) with the same rates: child `i` of the same parent is
    /// always the same plan, children of different indices are
    /// decorrelated.
    pub fn derive(&self, index: u64) -> Self {
        FailPlan {
            seed: mix(self.seed ^ mix(index.wrapping_add(1))),
            ..*self
        }
    }

    /// The raw decision draw for op `n` at `site`.
    fn draw(&self, site: &str, n: u64) -> u64 {
        mix(self.seed ^ fnv1a64(site.as_bytes()) ^ mix(n.wrapping_add(0x5151)))
    }

    /// Decide the fate of storage op `n` at `site`.
    pub fn storage_fault(&self, site: &str, n: u64) -> Option<StorageFault> {
        let h = self.draw(site, n);
        if h % PERMILLE >= u64::from(self.storage_permille) {
            return None;
        }
        let crash = mix(h) % PERMILLE < u64::from(self.crash_permille);
        // The kind is drawn from the upper bits so rate changes do not
        // reshuffle kinds at unchanged sites.
        let kind = (h >> 32) % 4;
        Some(match (site, crash) {
            // Sync faults: a plain failure, or sync-then-crash.
            (SITE_SYNC, true) => StorageFault::SyncThenCrash,
            (SITE_SYNC, false) => StorageFault::Error(ErrorModel::Input),
            // Rename faults: torn (always a crash — rename durability is
            // only lost at power loss) or a plain failure. About a
            // quarter of torn renames keep *all* the bytes: the rename
            // completed durably but the ack was lost, which is the case
            // that forces clients into duplicate resubmission.
            (SITE_RENAME, true) => {
                let r = mix(h >> 16);
                StorageFault::TornRename {
                    keep_permille: if r.is_multiple_of(4) {
                        1000
                    } else {
                        u16::try_from((r >> 8) % 1000).unwrap_or(0)
                    },
                }
            }
            (SITE_RENAME, false) => StorageFault::Error(ErrorModel::Input),
            // Write faults: short write, ENOSPC, or EINTR.
            _ => match kind {
                0 => StorageFault::ShortWrite {
                    keep_permille: u16::try_from(mix(h >> 8) % 900).unwrap_or(0),
                },
                1 => StorageFault::Error(ErrorModel::NoSpace),
                _ => StorageFault::Error(ErrorModel::Interrupted),
            },
        })
    }

    /// Decide the fate of stream op `n` at `site` (`wire.read` or
    /// `wire.write`).
    pub fn wire_fault(&self, site: &str, n: u64) -> Option<WireFault> {
        let h = self.draw(site, n);
        if h % PERMILLE >= u64::from(self.wire_permille) {
            return None;
        }
        let kind = (h >> 32) % 5;
        Some(match kind {
            0 | 1 => WireFault::Partial,
            2 => WireFault::Disconnect,
            // Read-side garbage desynchronizes *our own* framing: the
            // next length prefix is bogus and only a read timeout would
            // ever notice. Timeout-free connections (`no_drop`) take the
            // immediately-visible disconnect instead.
            3 if self.no_drop && site == SITE_STREAM_READ => WireFault::Disconnect,
            3 => WireFault::Garbage,
            _ if self.no_drop => WireFault::Partial,
            _ => WireFault::Drop,
        })
    }
}

impl fmt::Display for FailPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "fp1:{}:s{}:w{}:c{}{}",
            self.seed,
            self.storage_permille,
            self.wire_permille,
            self.crash_permille,
            if self.no_drop { ":nodrop" } else { "" }
        )
    }
}

/// How a storage op fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StorageFault {
    /// Write only `keep_permille`/1000 of the payload, then error.
    ShortWrite {
        /// Fraction of the payload (permille) that reaches the file.
        keep_permille: u16,
    },
    /// Fail with the given error model without touching the file.
    Error(ErrorModel),
    /// Sync the data for real, then request a crash — the commit is on
    /// disk but never acknowledged.
    SyncThenCrash,
    /// The rename destination materializes holding only a prefix of the
    /// source bytes, then the process crashes.
    TornRename {
        /// Fraction of the source bytes (permille) that survive.
        keep_permille: u16,
    },
}

/// The io error a survivable storage fault surfaces as.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorModel {
    /// Device full (ENOSPC).
    NoSpace,
    /// Interrupted system call (EINTR) — retryable.
    Interrupted,
    /// Generic input/output failure (EIO).
    Input,
}

impl StorageFault {
    /// The error this fault surfaces as at op `n` of `site` when it
    /// leaves the file alone: its own error model, and ENOSPC for a
    /// short write drawn at a site with no bytes to cut.
    pub(crate) fn error(self, site: &str, n: u64) -> io::Error {
        let kind = match self {
            StorageFault::Error(ErrorModel::Interrupted) => io::ErrorKind::Interrupted,
            StorageFault::Error(ErrorModel::Input) => io::ErrorKind::Other,
            _ => io::ErrorKind::StorageFull,
        };
        io::Error::new(kind, format!("injected failpoint fault at {site}#{n}"))
    }
}

/// How a stream op fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireFault {
    /// Move at most one byte this call (splits frames; delayed/partial
    /// delivery as seen by the peer's read loop).
    Partial,
    /// Claim the bytes were written but send nothing (a dropped frame —
    /// the peer only notices by timeout).
    Drop,
    /// Inject a garbage byte that desynchronizes the length-prefixed
    /// framing (on the write side the frame is additionally torn and
    /// the op surfaces a reset, so the sender reconnects rather than
    /// awaiting a reply that can never parse).
    Garbage,
    /// Fail the op with a connection reset (reads additionally model
    /// mid-frame EOF by returning end-of-stream).
    Disconnect,
}

/// The crash error for op `op` at `site`. Its message carries the
/// `injected failpoint crash` marker, which survives the server's
/// flattening of the error chain into its exit string.
pub fn crash_error(site: &str, op: u64) -> io::Error {
    io::Error::other(format!("injected failpoint crash at {site}#{op}"))
}

/// Site names used by the storage failpoints (stable — they feed the
/// decision hash, so renaming one reshuffles every seed's run).
pub const SITE_CREATE: &str = "store.create";
/// Checkpoint payload write.
pub const SITE_WRITE: &str = "store.write";
/// File data sync.
pub const SITE_SYNC: &str = "store.sync";
/// Atomic rename into place.
pub const SITE_RENAME: &str = "store.rename";
/// Retention pruning unlink.
pub const SITE_REMOVE: &str = "store.remove";

/// Shared fault counters, readable after the daemon thread has consumed
/// the store (the soak harness keeps a clone).
#[derive(Debug, Clone, Default)]
pub struct FaultCounters {
    /// Survivable injected faults.
    pub injected: Arc<AtomicU64>,
    /// Crash-requesting injected faults.
    pub crashes: Arc<AtomicU64>,
}

impl FaultCounters {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Survivable faults so far.
    pub fn injected_count(&self) -> u64 {
        self.injected.load(Ordering::SeqCst)
    }

    /// Crash requests so far.
    pub fn crash_count(&self) -> u64 {
        self.crashes.load(Ordering::SeqCst)
    }
}

// ---------------------------------------------------------------------
// Wire seam.
// ---------------------------------------------------------------------

/// Stream-op site names.
pub const SITE_STREAM_READ: &str = "wire.read";
/// Stream write site.
pub const SITE_STREAM_WRITE: &str = "wire.write";

/// A [`Read`]`+`[`Write`] wrapper that injects [`FailPlan`]-driven wire
/// faults. Reads fill the whole buffer (read-exact semantics) so the op
/// count — and with it the fault sequence — is independent of kernel
/// buffering; each outer call is exactly one decision.
pub struct FaultyStream<S> {
    inner: S,
    plan: FailPlan,
    counters: FaultCounters,
    reads: u64,
    writes: u64,
}

impl<S> FaultyStream<S> {
    /// Wrap `inner` with `plan`, reporting into `counters`.
    pub fn new(inner: S, plan: FailPlan, counters: FaultCounters) -> Self {
        FaultyStream {
            inner,
            plan,
            counters,
            reads: 0,
            writes: 0,
        }
    }

    /// The wrapped stream (to shut it down, inspect it, etc.).
    pub fn get_ref(&self) -> &S {
        &self.inner
    }
}

impl<S: Read> FaultyStream<S> {
    /// Fill `buf` completely (or to EOF), hiding kernel short reads.
    fn fill(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let mut done = 0;
        while done < buf.len() {
            match self.inner.read(&mut buf[done..]) {
                Ok(0) => break,
                Ok(n) => done += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        Ok(done)
    }
}

impl<S: Read> Read for FaultyStream<S> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        let n = self.reads;
        self.reads += 1;
        match self.plan.wire_fault(SITE_STREAM_READ, n) {
            None => self.fill(buf),
            Some(WireFault::Partial) => {
                self.counters.injected.fetch_add(1, Ordering::SeqCst);
                self.fill(&mut buf[..1])
            }
            Some(WireFault::Garbage) => {
                self.counters.injected.fetch_add(1, Ordering::SeqCst);
                buf[0] = 0xFF;
                Ok(1)
            }
            Some(WireFault::Drop) => {
                // Dropping on the read side is indistinguishable from a
                // mid-frame EOF for the caller.
                self.counters.injected.fetch_add(1, Ordering::SeqCst);
                Ok(0)
            }
            Some(WireFault::Disconnect) => {
                self.counters.injected.fetch_add(1, Ordering::SeqCst);
                Err(io::Error::new(
                    io::ErrorKind::ConnectionReset,
                    format!("injected wire disconnect at {SITE_STREAM_READ}#{n}"),
                ))
            }
        }
    }
}

impl<S: Write> Write for FaultyStream<S> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        let n = self.writes;
        self.writes += 1;
        match self.plan.wire_fault(SITE_STREAM_WRITE, n) {
            None => {
                self.inner.write_all(buf)?;
                Ok(buf.len())
            }
            Some(WireFault::Partial) => {
                // Send a prefix, then report a reset: the peer sees a
                // torn frame followed by our reconnect's EOF.
                self.counters.injected.fetch_add(1, Ordering::SeqCst);
                let half = buf.len() / 2;
                self.inner.write_all(&buf[..half])?;
                let _ = self.inner.flush();
                Err(io::Error::new(
                    io::ErrorKind::ConnectionReset,
                    format!("injected torn write at {SITE_STREAM_WRITE}#{n}"),
                ))
            }
            Some(WireFault::Drop) => {
                self.counters.injected.fetch_add(1, Ordering::SeqCst);
                Ok(buf.len())
            }
            Some(WireFault::Garbage) => {
                // Poison byte plus a torn prefix, then a visible reset:
                // the peer's framing is desynchronized and must recover
                // with a typed error, while our caller reconnects
                // immediately instead of awaiting a reply that can never
                // parse.
                self.counters.injected.fetch_add(1, Ordering::SeqCst);
                self.inner.write_all(&[0xFF])?;
                self.inner.write_all(&buf[..buf.len() / 2])?;
                let _ = self.inner.flush();
                Err(io::Error::new(
                    io::ErrorKind::ConnectionReset,
                    format!("injected garbage write at {SITE_STREAM_WRITE}#{n}"),
                ))
            }
            Some(WireFault::Disconnect) => {
                self.counters.injected.fetch_add(1, Ordering::SeqCst);
                Err(io::Error::new(
                    io::ErrorKind::ConnectionReset,
                    format!("injected wire disconnect at {SITE_STREAM_WRITE}#{n}"),
                ))
            }
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// Both halves of a stream, boxable.
pub(crate) trait Duplex: Read + Write + Send {}
impl<S: Read + Write + Send> Duplex for S {}

/// A dialed connection, the `index`-th of its dialer: wrapped in a
/// [`FaultyStream`] on `plan.derive(index)` when `plan` is armed, bare
/// otherwise. The derived plan makes each connection's fault sequence
/// depend only on the seed and the dial order, not on frame
/// interleaving.
pub(crate) fn dialed<S: Duplex + 'static>(
    stream: S,
    plan: Option<FailPlan>,
    index: u64,
    counters: &FaultCounters,
) -> Box<dyn Duplex> {
    match plan {
        Some(plan) if plan.armed() => Box::new(FaultyStream::new(
            stream,
            plan.derive(index),
            counters.clone(),
        )),
        _ => Box::new(stream),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_a_pure_function_of_seed_site_and_index() {
        let plan = FailPlan::new(42, 500, 500, 300);
        for n in 0..200 {
            assert_eq!(
                plan.storage_fault(SITE_WRITE, n),
                plan.storage_fault(SITE_WRITE, n)
            );
            assert_eq!(
                plan.wire_fault(SITE_STREAM_READ, n),
                plan.wire_fault(SITE_STREAM_READ, n)
            );
        }
        // Distinct sites and seeds draw different streams.
        let other = FailPlan::new(43, 500, 500, 300);
        let a: Vec<_> = (0..64).map(|n| plan.storage_fault(SITE_WRITE, n)).collect();
        let b: Vec<_> = (0..64).map(|n| plan.storage_fault(SITE_SYNC, n)).collect();
        let c: Vec<_> = (0..64)
            .map(|n| other.storage_fault(SITE_WRITE, n))
            .collect();
        assert_ne!(a, b);
        assert_ne!(a, c);
        // Derivation is deterministic and decorrelating.
        assert_eq!(plan.derive(3), plan.derive(3));
        assert_ne!(plan.derive(3).seed, plan.derive(4).seed);
    }

    #[test]
    fn rates_bound_the_fault_frequency() {
        let plan = FailPlan::new(9, 100, 100, 0);
        let fired = (0..10_000)
            .filter(|&n| plan.storage_fault(SITE_WRITE, n).is_some())
            .count();
        // 10% nominal; allow wide slack, reject order-of-magnitude drift.
        assert!((500..2000).contains(&fired), "fired {fired}/10000");
        let off = FailPlan::new(9, 0, 0, 0);
        assert!((0..64).all(|n| off.storage_fault(SITE_WRITE, n).is_none()));
        assert!((0..64).all(|n| off.wire_fault(SITE_STREAM_READ, n).is_none()));
    }

    #[test]
    fn faulty_streams_inject_deterministically_over_buffers() {
        let plan = FailPlan::new(5, 0, 400, 0);
        let run = || {
            let counters = FaultCounters::new();
            let mut sink = Vec::new();
            let mut kinds = Vec::new();
            {
                let mut s = FaultyStream::new(&mut sink, plan, counters.clone());
                for i in 0..32u8 {
                    kinds.push(s.write(&[i; 8]).map_err(|e| e.kind()));
                }
            }
            (sink, kinds, counters.injected_count())
        };
        let (a_bytes, a_kinds, a_count) = run();
        let (b_bytes, b_kinds, b_count) = run();
        assert_eq!(a_bytes, b_bytes);
        assert_eq!(a_kinds, b_kinds);
        assert_eq!(a_count, b_count);
        assert!(a_count > 0, "plan at 40% never fired over 32 writes");
    }

    #[test]
    fn injected_crashes_are_recognizable() {
        let e = crash_error(SITE_SYNC, 12);
        assert_eq!(e.to_string(), "injected failpoint crash at store.sync#12");
        // The marker survives the store's wrapping and stringification
        // (the server flattens the error chain into a new io::Error on
        // its exit path), which is where the soak harness looks for it.
        let flattened = io::Error::other(crate::store::StoreError::Io(e).to_string());
        assert!(flattened
            .to_string()
            .contains("injected failpoint crash at store.sync#12"));
        // A survivable fault never carries it.
        let survivable = StorageFault::Error(ErrorModel::Input).error(SITE_SYNC, 12);
        assert!(!survivable.to_string().contains("injected failpoint crash"));
    }
}
