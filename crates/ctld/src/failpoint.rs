//! Seeded, deterministic failpoint injection for every ctld I/O site.
//!
//! The daemon's own failure surface is storage and socket I/O. This
//! module abstracts both behind injectable seams — [`StoreIo`] for the
//! checkpoint store's filesystem calls, [`FaultyStream`] for the wire
//! layer's stream reads and writes — and drives fault decisions from a
//! [`FailPlan`] that is a **pure function of a seed**: fault number `n`
//! at site `s` either fires or not depending only on
//! `(seed, s, n)`. Any failure interleaving the soak harness provokes
//! is therefore replayable from the plan's one-line repro string (the
//! [`fmt::Display`] form, parsed back by [`FailPlan::parse`]).
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
//! A "crash" in-process is a typed [`io::Error`] whose payload is
//! [`InjectedCrash`]; it propagates through
//! [`crate::store::StoreError::Io`] and stops the server loop exactly
//! like a fatal storage error. The soak harness recognizes it (by
//! [`is_injected_crash`] on the error chain, or by the
//! `"injected failpoint crash"` marker once the chain has been
//! stringified) and restarts the daemon from the state directory, which
//! is precisely what a supervisor would do.

use lmpr_codec::fnv::fnv1a64;
use lmpr_codec::splitmix::mix;
use std::fmt;
use std::fs;
use std::io::{self, Read, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Permille denominator for fault probabilities.
const PERMILLE: u64 = 1000;

/// A deterministic fault plan: rates per I/O category, all driven by
/// one seed. The [`fmt::Display`] form is the one-line repro string —
/// `fp1:<seed>:s<storage>:w<wire>:c<crash>[:nodrop]` — and
/// [`FailPlan::parse`] inverts it exactly.
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
    /// A plan that never fires — the zero-cost default.
    pub fn off() -> Self {
        FailPlan {
            seed: 0,
            storage_permille: 0,
            wire_permille: 0,
            crash_permille: 0,
            no_drop: false,
        }
    }

    /// A plan with the given rates.
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

    /// Parse the one-line repro string produced by [`fmt::Display`].
    ///
    /// Total over arbitrary input: every malformation — wrong header,
    /// missing or non-numeric seed, empty segment (`"fp1:1:"`), a rate
    /// that overflows its integer type or reaches 1000 permille,
    /// multi-byte tag characters, trailing garbage — comes back as a
    /// typed [`PlanParseError`]; no input panics.
    pub fn parse(s: &str) -> Result<Self, PlanParseError> {
        let mut parts = s.split(':');
        if parts.next() != Some("fp1") {
            return Err(PlanParseError::BadHeader {
                input: s.to_owned(),
            });
        }
        let seed_text = parts.next().ok_or_else(|| PlanParseError::MissingSeed {
            input: s.to_owned(),
        })?;
        let seed = seed_text
            .parse::<u64>()
            .map_err(|_| PlanParseError::BadSeed {
                segment: seed_text.to_owned(),
            })?;
        let mut plan = FailPlan::new(seed, 0, 0, 0);
        for part in parts {
            if part == "nodrop" {
                plan.no_drop = true;
                continue;
            }
            // `chars().next()`, not `split_at(1)`: the latter panics on
            // an empty segment and slices mid-codepoint on a multi-byte
            // first character.
            let Some(tag) = part.chars().next() else {
                return Err(PlanParseError::EmptySegment {
                    input: s.to_owned(),
                });
            };
            let value_text = &part[tag.len_utf8()..];
            let value: u16 = value_text.parse().map_err(|_| PlanParseError::BadRate {
                segment: part.to_owned(),
            })?;
            if u64::from(value) >= PERMILLE {
                return Err(PlanParseError::RateOutOfRange {
                    segment: part.to_owned(),
                });
            }
            match tag {
                's' => plan.storage_permille = value,
                'w' => plan.wire_permille = value,
                'c' => plan.crash_permille = value,
                _ => {
                    return Err(PlanParseError::UnknownTag {
                        tag,
                        segment: part.to_owned(),
                    })
                }
            }
        }
        Ok(plan)
    }
}

/// Why a failpoint repro string failed to parse. Every variant keeps
/// enough of the offending input to reconstruct what went wrong from a
/// log line alone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanParseError {
    /// The string does not start with the `fp1` version header.
    BadHeader {
        /// The full rejected input.
        input: String,
    },
    /// The header was present but no seed segment followed.
    MissingSeed {
        /// The full rejected input.
        input: String,
    },
    /// The seed segment is not a `u64`.
    BadSeed {
        /// The rejected seed segment.
        segment: String,
    },
    /// A trailing `:` (or `::`) produced an empty segment.
    EmptySegment {
        /// The full rejected input.
        input: String,
    },
    /// A rate segment's value is not a `u16` (empty, non-numeric, or
    /// overflowing).
    BadRate {
        /// The rejected segment.
        segment: String,
    },
    /// A rate segment parsed but reaches 1000 permille or more.
    RateOutOfRange {
        /// The rejected segment.
        segment: String,
    },
    /// A rate segment starts with a tag other than `s`, `w`, or `c`.
    UnknownTag {
        /// The unrecognized tag character.
        tag: char,
        /// The full segment it led.
        segment: String,
    },
}

impl fmt::Display for PlanParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanParseError::BadHeader { input } => {
                write!(f, "bad failpoint plan {input:?}: expected fp1:...")
            }
            PlanParseError::MissingSeed { input } => {
                write!(f, "bad failpoint plan {input:?}: missing seed")
            }
            PlanParseError::BadSeed { segment } => {
                write!(f, "bad failpoint seed {segment:?}: not a u64")
            }
            PlanParseError::EmptySegment { input } => {
                write!(f, "bad failpoint plan {input:?}: empty segment")
            }
            PlanParseError::BadRate { segment } => {
                write!(f, "bad rate {segment:?}: not a u16 value")
            }
            PlanParseError::RateOutOfRange { segment } => {
                write!(f, "rate {segment:?} must be < 1000 permille")
            }
            PlanParseError::UnknownTag { tag, segment } => {
                write!(f, "unknown rate tag {tag:?} in segment {segment:?}")
            }
        }
    }
}

impl std::error::Error for PlanParseError {}

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

impl ErrorModel {
    fn to_error(self, site: &str, n: u64) -> io::Error {
        let kind = match self {
            ErrorModel::NoSpace => io::ErrorKind::StorageFull,
            ErrorModel::Interrupted => io::ErrorKind::Interrupted,
            ErrorModel::Input => io::ErrorKind::Other,
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

/// The payload of a crash-requesting [`io::Error`].
#[derive(Debug)]
pub struct InjectedCrash {
    /// The I/O site that crashed.
    pub site: String,
    /// The op index at that site.
    pub op: u64,
}

impl fmt::Display for InjectedCrash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "injected failpoint crash at {}#{}", self.site, self.op)
    }
}

impl std::error::Error for InjectedCrash {}

/// Build the typed crash error for `site`/`op`.
pub fn crash_error(site: &str, op: u64) -> io::Error {
    io::Error::other(InjectedCrash {
        site: site.to_owned(),
        op,
    })
}

/// Whether an io error is an injected crash request (directly or via
/// its stringified form, which survives error-chain flattening).
pub fn is_injected_crash(e: &io::Error) -> bool {
    e.get_ref().is_some_and(|inner| inner.is::<InjectedCrash>())
        || e.to_string().contains("injected failpoint crash")
}

// ---------------------------------------------------------------------
// Storage seam.
// ---------------------------------------------------------------------

/// Site names used by the storage failpoints (stable — they feed the
/// decision hash, so renaming one reshuffles every repro).
pub const SITE_CREATE: &str = "store.create";
/// Per-chunk payload write.
pub const SITE_WRITE: &str = "store.write";
/// File data sync.
pub const SITE_SYNC: &str = "store.sync";
/// Atomic rename into place.
pub const SITE_RENAME: &str = "store.rename";
/// Checkpoint read-back.
pub const SITE_READ: &str = "store.read";
/// Retention pruning unlink.
pub const SITE_REMOVE: &str = "store.remove";

/// An open checkpoint file mid-write. Mirrors the two [`fs::File`]
/// calls the store makes between create and rename.
pub trait StoreFile {
    /// Append the whole buffer.
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()>;
    /// Flush file data and metadata to the device.
    fn sync_all(&mut self) -> io::Result<()>;
}

/// The checkpoint store's filesystem calls, injectable as one seam.
/// [`OsStoreIo`] is the passthrough; [`FailpointIo`] wraps any
/// implementation with a [`FailPlan`].
pub trait StoreIo: Send {
    /// `fs::create_dir_all`.
    fn create_dir_all(&mut self, dir: &Path) -> io::Result<()>;
    /// `fs::File::create`, returning the open file seam.
    fn create(&mut self, path: &Path) -> io::Result<Box<dyn StoreFile + '_>>;
    /// `fs::rename`.
    fn rename(&mut self, from: &Path, to: &Path) -> io::Result<()>;
    /// Open `dir` and `sync_all` it (directory-entry durability).
    fn sync_dir(&mut self, dir: &Path) -> io::Result<()>;
    /// `fs::read`.
    fn read(&mut self, path: &Path) -> io::Result<Vec<u8>>;
    /// `fs::remove_file`.
    fn remove_file(&mut self, path: &Path) -> io::Result<()>;
    /// Directory entry names (`fs::read_dir`), unsorted.
    fn list(&mut self, dir: &Path) -> io::Result<Vec<String>>;
}

/// The real filesystem.
#[derive(Debug, Default)]
pub struct OsStoreIo;

/// A real open file behind the [`StoreFile`] seam.
pub struct OsStoreFile(fs::File);

impl StoreFile for OsStoreFile {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        self.0.write_all(buf)
    }

    fn sync_all(&mut self) -> io::Result<()> {
        self.0.sync_all()
    }
}

impl StoreIo for OsStoreIo {
    fn create_dir_all(&mut self, dir: &Path) -> io::Result<()> {
        fs::create_dir_all(dir)
    }

    fn create(&mut self, path: &Path) -> io::Result<Box<dyn StoreFile + '_>> {
        Ok(Box::new(OsStoreFile(fs::File::create(path)?)))
    }

    fn rename(&mut self, from: &Path, to: &Path) -> io::Result<()> {
        fs::rename(from, to)
    }

    fn sync_dir(&mut self, dir: &Path) -> io::Result<()> {
        fs::File::open(dir)?.sync_all()
    }

    fn read(&mut self, path: &Path) -> io::Result<Vec<u8>> {
        fs::read(path)
    }

    fn remove_file(&mut self, path: &Path) -> io::Result<()> {
        fs::remove_file(path)
    }

    fn list(&mut self, dir: &Path) -> io::Result<Vec<String>> {
        let mut names = Vec::new();
        for entry in fs::read_dir(dir)? {
            if let Some(name) = entry?.file_name().to_str() {
                names.push(name.to_owned());
            }
        }
        Ok(names)
    }
}

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

/// A [`StoreIo`] that injects [`FailPlan`]-driven faults in front of an
/// inner implementation. Each site keeps its own op counter, so the
/// decision sequence is independent of how other sites interleave.
pub struct FailpointIo<I> {
    inner: I,
    plan: FailPlan,
    counters: FaultCounters,
    ops: [u64; 6],
}

impl<I: StoreIo> FailpointIo<I> {
    /// Wrap `inner` with `plan`, reporting into `counters`.
    pub fn new(inner: I, plan: FailPlan, counters: FaultCounters) -> Self {
        FailpointIo {
            inner,
            plan,
            counters,
            ops: [0; 6],
        }
    }

    fn site_index(site: &str) -> usize {
        match site {
            SITE_CREATE => 0,
            SITE_WRITE => 1,
            SITE_SYNC => 2,
            SITE_RENAME => 3,
            SITE_READ => 4,
            _ => 5,
        }
    }

    /// Take the next op number for `site` and its fault decision.
    fn decide(&mut self, site: &str) -> (u64, Option<StorageFault>) {
        let ix = Self::site_index(site);
        let n = self.ops[ix];
        self.ops[ix] += 1;
        (n, self.plan.storage_fault(site, n))
    }

    fn survivable(&self) {
        self.counters.injected.fetch_add(1, Ordering::SeqCst);
    }

    fn crashing(&self) {
        self.counters.crashes.fetch_add(1, Ordering::SeqCst);
    }
}

impl<I: StoreIo> StoreIo for FailpointIo<I> {
    fn create_dir_all(&mut self, dir: &Path) -> io::Result<()> {
        // Directory creation happens once at open; not a fault site.
        self.inner.create_dir_all(dir)
    }

    fn create(&mut self, path: &Path) -> io::Result<Box<dyn StoreFile + '_>> {
        let (n, fault) = self.decide(SITE_CREATE);
        if let Some(f) = fault {
            self.survivable();
            return Err(match f {
                StorageFault::Error(m) => m.to_error(SITE_CREATE, n),
                _ => ErrorModel::NoSpace.to_error(SITE_CREATE, n),
            });
        }
        // Split the borrow by field: the inner file and the op counters
        // live side by side inside the returned wrapper.
        let FailpointIo {
            inner,
            plan,
            counters,
            ops,
        } = self;
        let file = inner.create(path)?;
        Ok(Box::new(RawFailpointFile {
            file,
            plan: *plan,
            ops,
            counters: counters.clone(),
        }))
    }

    fn rename(&mut self, from: &Path, to: &Path) -> io::Result<()> {
        let (n, fault) = self.decide(SITE_RENAME);
        match fault {
            None => self.inner.rename(from, to),
            Some(StorageFault::TornRename { keep_permille }) => {
                self.crashing();
                // Materialize the torn destination: a prefix of the
                // source bytes, as power loss before data writeback
                // would leave it. The source is consumed.
                let bytes = self.inner.read(from)?;
                let keep = usize::try_from(
                    (bytes.len() as u64).saturating_mul(u64::from(keep_permille)) / PERMILLE,
                )
                .unwrap_or(0);
                let mut f = self.inner.create(to)?;
                f.write_all(&bytes[..keep])?;
                let _ = f.sync_all();
                drop(f);
                let _ = self.inner.remove_file(from);
                Err(crash_error(SITE_RENAME, n))
            }
            Some(StorageFault::Error(m)) => {
                self.survivable();
                Err(m.to_error(SITE_RENAME, n))
            }
            Some(_) => {
                self.survivable();
                Err(ErrorModel::Input.to_error(SITE_RENAME, n))
            }
        }
    }

    fn sync_dir(&mut self, dir: &Path) -> io::Result<()> {
        // Directory sync faults would only delay durability; modeled as
        // passthrough (the rename site already covers the torn case).
        self.inner.sync_dir(dir)
    }

    fn read(&mut self, path: &Path) -> io::Result<Vec<u8>> {
        // Reads are deliberately not a fault site: recovery must judge
        // the *bytes on disk* (materialized by the write/rename faults
        // above). A transient read fault would make "newest valid
        // checkpoint" unobservable and the soak invariants unsound.
        self.inner.read(path)
    }

    fn remove_file(&mut self, path: &Path) -> io::Result<()> {
        let (n, fault) = self.decide(SITE_REMOVE);
        if fault.is_some() {
            self.survivable();
            return Err(ErrorModel::Input.to_error(SITE_REMOVE, n));
        }
        self.inner.remove_file(path)
    }

    fn list(&mut self, dir: &Path) -> io::Result<Vec<String>> {
        self.inner.list(dir)
    }
}

/// The borrow-splitting file wrapper returned by
/// [`FailpointIo::create`]: holds the inner file plus just the decision
/// state it needs.
struct RawFailpointFile<'a> {
    file: Box<dyn StoreFile + 'a>,
    plan: FailPlan,
    ops: &'a mut [u64; 6],
    counters: FaultCounters,
}

impl StoreFile for RawFailpointFile<'_> {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        let ix = 1; // SITE_WRITE
        let n = self.ops[ix];
        self.ops[ix] += 1;
        match self.plan.storage_fault(SITE_WRITE, n) {
            None => self.file.write_all(buf),
            Some(StorageFault::ShortWrite { keep_permille }) => {
                self.counters.injected.fetch_add(1, Ordering::SeqCst);
                let keep = usize::try_from(
                    (buf.len() as u64).saturating_mul(u64::from(keep_permille)) / PERMILLE,
                )
                .unwrap_or(0);
                self.file.write_all(&buf[..keep])?;
                let _ = self.file.sync_all();
                Err(io::Error::new(
                    io::ErrorKind::StorageFull,
                    format!("injected short write at {SITE_WRITE}#{n}"),
                ))
            }
            Some(StorageFault::Error(m)) => {
                self.counters.injected.fetch_add(1, Ordering::SeqCst);
                Err(m.to_error(SITE_WRITE, n))
            }
            Some(_) => {
                self.counters.injected.fetch_add(1, Ordering::SeqCst);
                Err(ErrorModel::Input.to_error(SITE_WRITE, n))
            }
        }
    }

    fn sync_all(&mut self) -> io::Result<()> {
        let ix = 2; // SITE_SYNC
        let n = self.ops[ix];
        self.ops[ix] += 1;
        match self.plan.storage_fault(SITE_SYNC, n) {
            None => self.file.sync_all(),
            Some(StorageFault::SyncThenCrash) => {
                self.counters.crashes.fetch_add(1, Ordering::SeqCst);
                self.file.sync_all()?;
                Err(crash_error(SITE_SYNC, n))
            }
            Some(StorageFault::Error(m)) => {
                self.counters.injected.fetch_add(1, Ordering::SeqCst);
                Err(m.to_error(SITE_SYNC, n))
            }
            Some(_) => {
                self.counters.injected.fetch_add(1, Ordering::SeqCst);
                Err(ErrorModel::Input.to_error(SITE_SYNC, n))
            }
        }
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

#[cfg(test)]
mod tests {
    use super::*;
    use lmpr_codec::cases;

    #[test]
    fn plans_round_trip_through_the_repro_string() {
        for plan in [
            FailPlan::off(),
            FailPlan::new(42, 80, 60, 25),
            FailPlan {
                no_drop: true,
                ..FailPlan::new(7, 1, 999, 0)
            },
        ] {
            let s = plan.to_string();
            assert_eq!(FailPlan::parse(&s).expect("parse"), plan, "for {s}");
        }
        for bad in ["", "fp2:1", "fp1:x", "fp1:1:s1000", "fp1:1:q5", "fp1:1:s"] {
            assert!(FailPlan::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn parse_rejects_degenerate_inputs_without_panicking() {
        // Regressions the old `split_at(1)` parser panicked on: a
        // trailing colon (empty segment) and a multi-byte first
        // character in a rate segment.
        for bad in [
            "fp1:1:",
            "fp1:1::s5",
            "fp1:1:é5",
            "fp1:1:s5:",
            "fp1",
            "fp1:18446744073709551616",     // seed overflows u64
            "fp1:1:s65536",                 // rate overflows u16
            "fp1:1:s999999999999999999999", // rate overflows everything
            "fp1:1:s5:nodrop:x",
            "fp1:-1",
            "fp1:1:s-5",
        ] {
            assert!(FailPlan::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn every_plan_round_trips_through_its_repro_string() -> Result<(), String> {
        cases::run(
            "every_plan_round_trips_through_its_repro_string",
            512,
            |rng| {
                let seed = rng.below(u64::MAX);
                let s = rng.below(1000) as u16;
                let w = rng.below(1000) as u16;
                let c = rng.below(1000) as u16;
                let nd = rng.below(2) as u8;
                let plan = FailPlan {
                    no_drop: nd == 1,
                    ..FailPlan::new(seed, s, w, c)
                };
                let text = plan.to_string();
                assert_eq!(FailPlan::parse(&text), Ok(plan));
                Ok(())
            },
        )
    }

    #[test]
    fn parse_is_total_over_arbitrary_byte_soup() -> Result<(), String> {
        cases::run("parse_is_total_over_arbitrary_byte_soup", 512, |rng| {
            let bytes: Vec<u8> = (0..16).map(|_| rng.range(0..=255) as u8).collect();
            let cut = rng.range(0..=16) as usize;
            // Raw bytes, lossily decoded, at every prefix length: the
            // parser must return (Ok or Err), never panic or slice
            // mid-codepoint.
            let soup = String::from_utf8_lossy(&bytes[..cut]).into_owned();
            let _ = FailPlan::parse(&soup);
            let _ = FailPlan::parse(&format!("fp1:{soup}"));
            let _ = FailPlan::parse(&format!("fp1:7:{soup}"));
            Ok(())
        })
    }

    #[test]
    fn oversized_rates_error_instead_of_wrapping() -> Result<(), String> {
        cases::run("oversized_rates_error_instead_of_wrapping", 512, |rng| {
            let seed = rng.below(u64::MAX);
            let rate = rng.below(u64::MAX);
            let text = format!("fp1:{seed}:s{rate}");
            match FailPlan::parse(&text) {
                Ok(plan) => {
                    assert!(rate < 1000, "accepted rate {rate}");
                    assert_eq!(u64::from(plan.storage_permille), rate);
                }
                Err(_) => assert!(rate >= 1000, "rejected rate {rate}"),
            }
            Ok(())
        })
    }

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
        let off = FailPlan::off();
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
        assert!(is_injected_crash(&e));
        assert!(e.to_string().contains("injected failpoint crash"));
        assert!(!is_injected_crash(&io::Error::other("disk on fire")));
        // The marker survives stringification (the server flattens the
        // error chain into a new io::Error on its exit path).
        let flattened = io::Error::other(e.to_string());
        assert!(is_injected_crash(&flattened));
    }
}
