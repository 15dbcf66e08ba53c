//! Crash-consistent checkpoint store for the controller.
//!
//! Each committed epoch is serialized into the `lmpr_codec::envelope`
//! (magic · version · payload length · FNV-1a-64 · payload, all
//! little-endian, under this module's own magic and version) and
//! written atomically and durably: the bytes go to a temp file in the
//! same directory, are fsynced, are renamed over the final
//! `epoch-<n>.snap` name, and the directory itself is fsynced so the
//! rename survives power loss, not just process death. A crash
//! therefore leaves either the old checkpoint set or the new one,
//! never a torn file; a torn *temp* file is ignored by recovery
//! entirely.
//!
//! Recovery scans the directory for the highest-numbered checkpoint
//! that decodes and passes its checksum and **view digest** (a second
//! FNV over the semantic fields, catching an envelope that was
//! swapped in from another state directory). Corrupt or truncated
//! checkpoints are skipped with a typed reason, falling back to the
//! next-newest — the daemon degrades to an older committed epoch
//! rather than refusing to start, unless no checkpoint survives.
//!
//! The checkpoint deliberately stores only *root* state: epoch, logical
//! clock, feed cursor, and the committed fault view. Selections are
//! derived state and are recomputed on demand; this is what makes
//! the restart-equivalence guarantee a pure function of the fault feed.

use crate::failpoint::{
    crash_error, FailPlan, FaultCounters, StorageFault, SITE_CREATE, SITE_REMOVE, SITE_RENAME,
    SITE_SYNC, SITE_WRITE,
};
use lmpr_codec::envelope::{self, Dec, Enc};
use lmpr_codec::fnv::fnv1a64;
use std::fmt;
use std::fs::{self, File};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use xgft::{DirectedLinkId, FaultSet, NodeId, Topology};

/// Envelope magic; 8 bytes.
const MAGIC: &[u8; 8] = b"LMPRCTLS";
/// Envelope version; bump when the payload layout changes.
/// Version 2 added the generation lease (HA failover fencing).
const VERSION: u32 = 2;
/// Sanity bound on a payload (a view can't plausibly exceed this).
const MAX_PAYLOAD: u64 = 64 << 20;
/// Checkpoints a daemon or a standby keeps in its state directory.
pub const RETAIN: usize = 8;

/// Why a checkpoint could not be written or read back.
#[derive(Debug)]
pub enum StoreError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// The file does not start with the ctld envelope magic.
    BadMagic,
    /// The envelope version is from a different build.
    BadVersion(u32),
    /// The file ends before the envelope says it should.
    Truncated,
    /// The payload bytes do not match the envelope checksum.
    ChecksumMismatch,
    /// The payload decoded but its fields are inconsistent.
    Corrupt(&'static str),
    /// No checkpoint in the directory survived validation.
    NoCheckpoint,
    /// The checkpoint's generation is older than one already on disk —
    /// a deposed primary tried to write after a standby was promoted.
    StaleGeneration {
        /// The generation the rejected checkpoint carried.
        committed: u64,
        /// The newest generation already durable in the directory.
        newest: u64,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "checkpoint i/o error: {e}"),
            StoreError::BadMagic => write!(f, "not a ctld checkpoint (bad magic)"),
            StoreError::BadVersion(v) => write!(f, "unsupported checkpoint version {v}"),
            StoreError::Truncated => write!(f, "checkpoint truncated"),
            StoreError::ChecksumMismatch => write!(f, "checkpoint payload checksum mismatch"),
            StoreError::Corrupt(m) => write!(f, "checkpoint corrupt: {m}"),
            StoreError::NoCheckpoint => write!(f, "no valid checkpoint found"),
            StoreError::StaleGeneration { committed, newest } => write!(
                f,
                "stale generation: checkpoint at generation {committed} \
                 rejected, directory already holds generation {newest}"
            ),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<envelope::Error> for StoreError {
    fn from(e: envelope::Error) -> Self {
        match e {
            envelope::Error::TooShort | envelope::Error::Truncated => StoreError::Truncated,
            envelope::Error::BadMagic => StoreError::BadMagic,
            envelope::Error::BadVersion(v) => StoreError::BadVersion(v),
            envelope::Error::Oversize { .. } => StoreError::Corrupt("payload length out of range"),
            envelope::Error::LengthMismatch { declared, actual } if actual < declared => {
                StoreError::Truncated
            }
            envelope::Error::LengthMismatch { .. } => {
                StoreError::Corrupt("trailing bytes after envelope")
            }
            envelope::Error::ChecksumMismatch { .. } => StoreError::ChecksumMismatch,
            envelope::Error::Corrupt(what) => StoreError::Corrupt(what),
        }
    }
}

/// The root state of one committed epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    /// The primary's generation lease. Genesis starts at 1; every
    /// standby promotion bumps it by exactly 1, and [`Store::commit`]
    /// refuses any checkpoint older than the newest generation already
    /// on disk — the durable half of split-brain fencing.
    pub generation: u64,
    /// The committed epoch number.
    pub epoch: u64,
    /// Logical clock at commit.
    pub now: u64,
    /// Replayed-schedule events at or before this tick are part of the
    /// committed state; a restart re-drains strictly after it.
    pub drained_through: u64,
    /// Highest committed fault-feed batch id.
    pub committed_batch_id: u64,
    /// Failed directed links of the committed view, sorted.
    pub failed_links: Vec<u32>,
    /// Failed switches of the committed view, sorted by (level, rank).
    pub failed_switches: Vec<(u8, u32)>,
}

impl Checkpoint {
    /// Capture the committed view into checkpoint form.
    pub fn from_view(
        generation: u64,
        epoch: u64,
        now: u64,
        drained_through: u64,
        committed_batch_id: u64,
        view: &FaultSet,
    ) -> Self {
        let mut failed_links: Vec<u32> = view.failed_links().map(|l| l.0).collect();
        failed_links.sort_unstable();
        let mut failed_switches: Vec<(u8, u32)> = view
            .failed_switches()
            .iter()
            .map(|n| (n.level, n.rank))
            .collect();
        failed_switches.sort_unstable();
        Checkpoint {
            generation,
            epoch,
            now,
            drained_through,
            committed_batch_id,
            failed_links,
            failed_switches,
        }
    }

    /// Rebuild the committed fault view against a topology.
    pub fn view(&self, topo: &Topology) -> FaultSet {
        let mut set = FaultSet::new();
        for &l in &self.failed_links {
            set.fail_link(DirectedLinkId(l));
        }
        for &(level, rank) in &self.failed_switches {
            set.fail_switch(topo, NodeId { level, rank });
        }
        set
    }

    /// Digest over the semantic fields — stored in the payload and
    /// re-verified on load as a self-audit (rule `CTL-RESUME`): a
    /// checkpoint whose envelope checksum passes but whose recorded
    /// digest disagrees with its own fields was assembled from mixed
    /// state and is rejected.
    pub fn digest(&self) -> u64 {
        let mut e = Enc::with_capacity(56 + 4 * self.failed_links.len());
        self.enc_scalars(&mut e);
        e.seq_len(self.failed_links.len());
        for &l in &self.failed_links {
            e.u32(l);
        }
        e.seq_len(self.failed_switches.len());
        for &(level, rank) in &self.failed_switches {
            e.u8(level);
            e.u32(rank);
        }
        fnv1a64(e.bytes())
    }

    fn enc_scalars(&self, e: &mut Enc) {
        e.u64(self.generation);
        e.u64(self.epoch);
        e.u64(self.now);
        e.u64(self.drained_through);
        e.u64(self.committed_batch_id);
    }

    /// The payload: the five scalars, the view digest, then the two
    /// u32-counted lists.
    fn encode(&self) -> Enc {
        let mut e = Enc::with_capacity(88 + 4 * self.failed_links.len());
        self.enc_scalars(&mut e);
        e.u64(self.digest());
        e.u32(self.failed_links.len() as u32);
        for &l in &self.failed_links {
            e.u32(l);
        }
        e.u32(self.failed_switches.len() as u32);
        for &(level, rank) in &self.failed_switches {
            e.u8(level);
            e.u32(rank);
        }
        e
    }

    fn decode(payload: &[u8]) -> Result<Self, StoreError> {
        let mut d = Dec::new(payload);
        let generation = d.u64()?;
        let epoch = d.u64()?;
        let now = d.u64()?;
        let drained_through = d.u64()?;
        let committed_batch_id = d.u64()?;
        let recorded_digest = d.u64()?;
        // Counts are bounded by the bytes left (4 per link, 5 per
        // switch), so a corrupt count cannot out-reserve the payload.
        let n_links = d.seq_len32(4)?;
        let mut failed_links = Vec::with_capacity(n_links);
        for _ in 0..n_links {
            failed_links.push(d.u32()?);
        }
        let n_switches = d.seq_len32(5)?;
        let mut failed_switches = Vec::with_capacity(n_switches);
        for _ in 0..n_switches {
            failed_switches.push((d.u8()?, d.u32()?));
        }
        d.finish()?;
        let cp = Checkpoint {
            generation,
            epoch,
            now,
            drained_through,
            committed_batch_id,
            failed_links,
            failed_switches,
        };
        if cp.digest() != recorded_digest {
            return Err(StoreError::Corrupt("view digest mismatch (CTL-RESUME)"));
        }
        Ok(cp)
    }

    /// Wrap the payload in the checksummed envelope.
    pub fn to_bytes(&self) -> Vec<u8> {
        envelope::seal(MAGIC, VERSION, self.encode().bytes())
    }

    /// Validate the envelope and decode the payload.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, StoreError> {
        Self::decode(envelope::open(bytes, MAGIC, VERSION, MAX_PAYLOAD)?)
    }
}

/// Directory of per-epoch checkpoints with atomic commit and bounded
/// retention. Its five fault sites — create, write, sync, rename and the
/// pruning unlink — consult a seeded [`FailPlan`], so the soak can drive
/// any of them into a fault; under the unarmed plan of [`Store::open`]
/// none ever fires.
#[derive(Debug)]
pub struct Store {
    dir: PathBuf,
    /// Checkpoints retained on disk (newest first); older ones are
    /// pruned after each commit.
    retain: usize,
    faults: Injector,
}

/// The store's fault decisions: the plan, the counters it reports
/// into, and one op counter per fault site, so the `n`-th op at a site
/// draws the same decision however the other sites interleave.
#[derive(Debug)]
struct Injector {
    plan: FailPlan,
    counters: FaultCounters,
    ops: [u64; 5],
}

impl Injector {
    /// Take the next op index at `site` and the fault it draws, if any,
    /// counting a fault as a crash or a survivable one.
    fn next(&mut self, site: &str) -> Option<(u64, StorageFault)> {
        let ix = match site {
            SITE_CREATE => 0,
            SITE_WRITE => 1,
            SITE_SYNC => 2,
            SITE_RENAME => 3,
            _ => 4,
        };
        let n = self.ops[ix];
        self.ops[ix] += 1;
        let fault = self.plan.storage_fault(site, n)?;
        let counter = match fault {
            StorageFault::SyncThenCrash | StorageFault::TornRename { .. } => &self.counters.crashes,
            _ => &self.counters.injected,
        };
        counter.fetch_add(1, Ordering::SeqCst);
        Some((n, fault))
    }
}

/// The first `keep_permille`/1000 of `len` bytes.
fn prefix(len: usize, keep_permille: u16) -> usize {
    len * usize::from(keep_permille) / 1000
}

impl Store {
    /// Open (creating if needed) a checkpoint directory.
    pub fn open(dir: impl Into<PathBuf>, retain: usize) -> Result<Self, StoreError> {
        Self::open_with_faults(dir, retain, FailPlan::new(0, 0, 0, 0), FaultCounters::new())
    }

    /// Open a checkpoint directory whose fault sites draw from `plan`,
    /// counting every fault that fires into `counters`.
    pub(crate) fn open_with_faults(
        dir: impl Into<PathBuf>,
        retain: usize,
        plan: FailPlan,
        counters: FaultCounters,
    ) -> Result<Self, StoreError> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(Store {
            dir,
            retain: retain.max(1),
            faults: Injector {
                plan,
                counters,
                ops: [0; 5],
            },
        })
    }

    /// The directory the store writes into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn snap_path(&self, epoch: u64) -> PathBuf {
        self.dir.join(format!("epoch-{epoch:016}.snap"))
    }

    /// Atomically commit a checkpoint: write to a temp file, fsync,
    /// rename to `epoch-<n>.snap`, fsync the checkpoint directory, then
    /// prune beyond the retention bound. Only after the *directory*
    /// fsync is the rename itself durable — without it a power loss
    /// can forget the new directory entry even though the file data
    /// reached disk — so a crash at any point leaves this epoch (or an
    /// older committed one) recoverable.
    ///
    /// A single `EINTR` is retried once from scratch (the temp file is
    /// recreated, so a torn first attempt cannot leak into the retry);
    /// every other failure propagates.
    ///
    /// The commit is **generation-fenced**: a checkpoint whose
    /// `generation` is below the newest valid generation already on
    /// disk is rejected with [`StoreError::StaleGeneration`] before any
    /// byte is written. The fence is re-derived from the directory on
    /// every commit (not cached in memory), so a deposed primary that
    /// shares a state directory with its promoted successor is stopped
    /// even across crash-recovery replay.
    pub fn commit(&mut self, cp: &Checkpoint) -> Result<(), StoreError> {
        if let Some((newest, _)) = self.best_valid() {
            if cp.generation < newest {
                return Err(StoreError::StaleGeneration {
                    committed: cp.generation,
                    newest,
                });
            }
        }
        match self.commit_once(cp) {
            Err(StoreError::Io(e)) if e.kind() == io::ErrorKind::Interrupted => {
                self.commit_once(cp)
            }
            other => other,
        }
    }

    fn commit_once(&mut self, cp: &Checkpoint) -> Result<(), StoreError> {
        let tmp = self.dir.join(format!(".epoch-{:016}.tmp", cp.epoch));
        let snap = self.snap_path(cp.epoch);
        let bytes = cp.to_bytes();
        let mut f = self.create(&tmp)?;
        self.write(&mut f, &bytes)?;
        self.sync(&f)?;
        drop(f);
        self.rename(&tmp, &snap)?;
        // Make the rename durable before prune may delete predecessors:
        // pruning first could leave, after power loss, neither the old
        // checkpoints nor the (forgotten) new one.
        File::open(&self.dir)?.sync_all()?;
        self.prune();
        Ok(())
    }

    /// Create the temp file, or fail with an injected error.
    fn create(&mut self, path: &Path) -> io::Result<File> {
        match self.faults.next(SITE_CREATE) {
            None => File::create(path),
            Some((n, fault)) => Err(fault.error(SITE_CREATE, n)),
        }
    }

    /// Write the whole checkpoint, or under a short write only a synced
    /// prefix of it before the error.
    fn write(&mut self, f: &mut File, bytes: &[u8]) -> io::Result<()> {
        match self.faults.next(SITE_WRITE) {
            None => f.write_all(bytes),
            Some((n, StorageFault::ShortWrite { keep_permille })) => {
                f.write_all(&bytes[..prefix(bytes.len(), keep_permille)])?;
                let _ = f.sync_all();
                Err(io::Error::new(
                    io::ErrorKind::StorageFull,
                    format!("injected short write at {SITE_WRITE}#{n}"),
                ))
            }
            Some((n, fault)) => Err(fault.error(SITE_WRITE, n)),
        }
    }

    /// Sync the temp file; under sync-then-crash the data is synced for
    /// real before the crash.
    fn sync(&mut self, f: &File) -> io::Result<()> {
        match self.faults.next(SITE_SYNC) {
            None => f.sync_all(),
            Some((n, StorageFault::SyncThenCrash)) => {
                f.sync_all()?;
                Err(crash_error(SITE_SYNC, n))
            }
            Some((n, fault)) => Err(fault.error(SITE_SYNC, n)),
        }
    }

    /// Rename the temp file into place. A torn rename leaves the
    /// destination holding a prefix of the source bytes, as power loss
    /// before data writeback would, consumes the source and crashes.
    fn rename(&mut self, from: &Path, to: &Path) -> io::Result<()> {
        match self.faults.next(SITE_RENAME) {
            None => fs::rename(from, to),
            Some((n, StorageFault::TornRename { keep_permille })) => {
                let bytes = fs::read(from)?;
                let mut f = File::create(to)?;
                f.write_all(&bytes[..prefix(bytes.len(), keep_permille)])?;
                let _ = f.sync_all();
                let _ = fs::remove_file(from);
                Err(crash_error(SITE_RENAME, n))
            }
            Some((n, fault)) => Err(fault.error(SITE_RENAME, n)),
        }
    }

    /// The `(generation, epoch)` key of the checkpoint recovery would
    /// choose: the maximum over every file that decodes and validates.
    /// Generation dominates epoch so a promoted standby's lower-epoch
    /// checkpoint outranks a deposed primary's higher-epoch leftovers.
    /// Read failures and corrupt files are silently skipped here; the
    /// loud, typed skip reporting lives in [`Store::load_latest`].
    fn best_valid(&mut self) -> Option<(u64, u64)> {
        let epochs = self.list_epochs().ok()?;
        let mut best: Option<(u64, u64)> = None;
        for epoch in epochs {
            if let Ok(bytes) = fs::read(self.snap_path(epoch)) {
                if let Ok(cp) = Checkpoint::from_bytes(&bytes) {
                    let key = (cp.generation, cp.epoch);
                    if best.is_none_or(|b| key > b) {
                        best = Some(key);
                    }
                }
            }
        }
        best
    }

    /// Best-effort retention: keep the newest `retain` checkpoints.
    /// Pruning failures, injected or real, are ignored — retention is
    /// hygiene, not correctness — but the checkpoint recovery would
    /// choose (the best valid `(generation, epoch)`) is never deleted,
    /// even when newer-but-corrupt files occupy the whole retention
    /// window. Deleting it would leave recovery with nothing but
    /// garbage.
    fn prune(&mut self) {
        let Ok(mut epochs) = self.list_epochs() else {
            return;
        };
        if epochs.len() <= self.retain {
            return;
        }
        epochs.sort_unstable();
        let keep = self.best_valid().map(|(_, epoch)| epoch);
        let cut = epochs.len() - self.retain;
        for &old in &epochs[..cut] {
            if Some(old) == keep {
                continue;
            }
            if self.faults.next(SITE_REMOVE).is_none() {
                let _ = fs::remove_file(self.snap_path(old));
            }
        }
    }

    /// Epoch numbers with a checkpoint file present (unvalidated). A
    /// directory that cannot be listed is an **error**, not an empty
    /// store — treating it as empty would let a transient I/O failure
    /// silently bootstrap a fresh genesis over existing state.
    pub fn list_epochs(&mut self) -> Result<Vec<u64>, StoreError> {
        let mut epochs = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let name = entry?.file_name();
            let Some(rest) = name.to_str().and_then(|n| n.strip_prefix("epoch-")) else {
                continue;
            };
            let Some(num) = rest.strip_suffix(".snap") else {
                continue;
            };
            if let Ok(epoch) = num.parse::<u64>() {
                epochs.push(epoch);
            }
        }
        epochs.sort_unstable();
        Ok(epochs)
    }

    /// Load the best checkpoint that validates — newest `(generation,
    /// epoch)` wins, so a promoted standby's state outranks a deposed
    /// primary's higher-numbered leftovers — skipping corrupt or
    /// truncated files (each skip is reported on stderr with its typed
    /// reason). [`StoreError::NoCheckpoint`] when nothing survives;
    /// a directory that cannot even be listed propagates as
    /// [`StoreError::Io`] so the caller cannot mistake it for a fresh
    /// state directory.
    pub fn load_latest(&mut self) -> Result<Checkpoint, StoreError> {
        let mut epochs = self.list_epochs()?;
        epochs.reverse();
        if epochs.is_empty() {
            return Err(StoreError::NoCheckpoint);
        }
        let mut best: Option<Checkpoint> = None;
        for epoch in epochs {
            let path = self.snap_path(epoch);
            let bytes = match fs::read(&path) {
                Ok(b) => b,
                Err(e) => {
                    eprintln!("ctld: skipping {}: {e}", path.display());
                    continue;
                }
            };
            match Checkpoint::from_bytes(&bytes) {
                Ok(cp) => {
                    let key = (cp.generation, cp.epoch);
                    if best.as_ref().is_none_or(|b| key > (b.generation, b.epoch)) {
                        best = Some(cp);
                    }
                }
                Err(e) => eprintln!("ctld: skipping {}: {e}", path.display()),
            }
        }
        best.ok_or(StoreError::NoCheckpoint)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xgft::XgftSpec;

    fn topo() -> Topology {
        Topology::new(XgftSpec::new(&[4, 4], &[1, 2]).expect("valid spec"))
    }

    fn sample(epoch: u64) -> Checkpoint {
        sample_gen(1, epoch)
    }

    fn sample_gen(generation: u64, epoch: u64) -> Checkpoint {
        Checkpoint {
            generation,
            epoch,
            now: 500 + epoch,
            drained_through: 480,
            committed_batch_id: 3,
            failed_links: vec![2, 9, 40],
            failed_switches: vec![(2, 1)],
        }
    }

    #[test]
    fn checkpoints_round_trip_through_the_envelope() {
        let cp = sample(7);
        let bytes = cp.to_bytes();
        assert_eq!(Checkpoint::from_bytes(&bytes).expect("round trip"), cp);

        // The rebuilt view matches a hand-built one.
        let topo = topo();
        let view = cp.view(&topo);
        assert!(view.is_link_failed(DirectedLinkId(9)));
        assert!(view.is_switch_failed(NodeId { level: 2, rank: 1 }));
    }

    #[test]
    fn corruption_is_a_typed_error_never_a_panic() {
        let cp = sample(1);
        let good = cp.to_bytes();

        // Truncation at every length.
        for cut in 0..good.len() {
            assert!(
                Checkpoint::from_bytes(&good[..cut]).is_err(),
                "accepted truncation at {cut}"
            );
        }
        // A flip in any byte must be caught (magic, version, length,
        // checksum, or payload digest).
        for i in 0..good.len() {
            let mut bad = good.clone();
            bad[i] ^= 0x40;
            assert!(
                Checkpoint::from_bytes(&bad).is_err(),
                "accepted bit flip at byte {i}"
            );
        }
        // Wrong magic and version get their own codes.
        let mut bad = good.clone();
        bad[0] = b'X';
        assert!(matches!(
            Checkpoint::from_bytes(&bad),
            Err(StoreError::BadMagic)
        ));
        let mut bad = good.clone();
        bad[8] = 99;
        assert!(matches!(
            Checkpoint::from_bytes(&bad),
            Err(StoreError::BadVersion(99))
        ));
    }

    #[test]
    fn committed_v2_checkpoint_loads_and_reencodes_byte_identically() {
        // Written before the envelope moved into `lmpr-codec`.
        let fixture = include_bytes!("../tests/fixtures/checkpoint_v2.snap");
        let cp = Checkpoint::from_bytes(fixture).expect("v2 fixture loads");
        assert_eq!((cp.generation, cp.epoch, cp.now), (3, 17, 8_800));
        assert_eq!((cp.drained_through, cp.committed_batch_id), (8_500, 17));
        assert_eq!(cp.failed_links, [3, 17, 40, 1_000_000]);
        assert_eq!(cp.failed_switches, [(1, 0), (2, 3)]);
        assert_eq!(cp.to_bytes(), fixture);
    }

    #[test]
    fn a_corrupt_count_is_bounded_by_the_bytes_left_not_the_payload_length() {
        // A checksum-clean payload whose link count (40) is below the
        // payload's byte length (60) but far above what the 8 bytes
        // after it can hold: rejected at the count, before any
        // reservation, not at the first short read.
        let mut e = sample(1).encode().bytes()[..48].to_vec();
        e.extend_from_slice(&40u32.to_le_bytes());
        e.extend_from_slice(&[0; 8]);
        let sealed = envelope::seal(MAGIC, VERSION, &e);
        assert!(matches!(
            Checkpoint::from_bytes(&sealed),
            Err(StoreError::Corrupt("sequence length exceeds payload"))
        ));
        // Same for the switch count (5-byte elements).
        let mut e = sample(1).encode().bytes()[..48].to_vec();
        e.extend_from_slice(&0u32.to_le_bytes());
        e.extend_from_slice(&3u32.to_le_bytes());
        e.extend_from_slice(&[0; 14]);
        let sealed = envelope::seal(MAGIC, VERSION, &e);
        assert!(matches!(
            Checkpoint::from_bytes(&sealed),
            Err(StoreError::Corrupt("sequence length exceeds payload"))
        ));
    }

    #[test]
    fn store_commits_atomically_and_recovers_the_newest_valid() {
        let dir = std::env::temp_dir().join(format!("ctld-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut store = Store::open(&dir, 3).expect("open");
        assert!(matches!(store.load_latest(), Err(StoreError::NoCheckpoint)));

        for epoch in 1..=5 {
            store.commit(&sample(epoch)).expect("commit");
        }
        // Retention kept the last 3.
        assert_eq!(store.list_epochs().expect("list"), vec![3, 4, 5]);
        assert_eq!(store.load_latest().expect("latest").epoch, 5);

        // Corrupt the newest: recovery falls back to epoch 4.
        let newest = dir.join("epoch-0000000000000005.snap");
        let mut bytes = std::fs::read(&newest).expect("read");
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&newest, &bytes).expect("write corrupt");
        assert_eq!(store.load_latest().expect("fallback").epoch, 4);

        // A stray temp file (torn pre-rename write) is invisible.
        std::fs::write(dir.join(".epoch-0000000000000009.tmp"), b"torn").expect("write tmp");
        assert_eq!(store.load_latest().expect("still 4").epoch, 4);

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn prune_never_deletes_the_newest_valid_checkpoint() {
        let dir = std::env::temp_dir().join(format!("ctld-prune-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut store = Store::open(&dir, 2).expect("open");
        store.commit(&sample(1)).expect("commit 1");

        // A burst of torn commits left corrupt high-numbered checkpoint
        // files; the daemon recovered to epoch 1 beneath them and now
        // commits epoch 2. Count-based retention sorts [1,2,7,8,9] and
        // deletes everything below the cut — including the *just
        // committed* epoch 2, the only valid checkpoint on disk.
        for epoch in [7u64, 8, 9] {
            std::fs::write(dir.join(format!("epoch-{epoch:016}.snap")), b"garbage")
                .expect("write corrupt");
        }
        store.commit(&sample(2)).expect("commit 2");
        let epochs = store.list_epochs().expect("list");
        assert!(
            epochs.contains(&2),
            "prune deleted the only valid checkpoint: {epochs:?}"
        );
        assert_eq!(store.load_latest().expect("recovery").epoch, 2);

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_generation_commit_is_rejected_live() {
        let dir = std::env::temp_dir().join(format!("ctld-genfence-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        // A deposed primary and its promoted successor sharing the
        // directory: each holds its own Store handle, so the fence must
        // come from disk, not from either handle's memory.
        let mut primary = Store::open(&dir, 4).expect("open primary");
        primary.commit(&sample_gen(1, 1)).expect("gen-1 commit");
        let mut promoted = Store::open(&dir, 4).expect("open promoted");
        promoted.commit(&sample_gen(2, 1)).expect("promotion lease");

        // The deposed primary keeps going at generation 1 — even at a
        // *higher* epoch — and must be refused without writing a byte.
        let err = primary.commit(&sample_gen(1, 9)).expect_err("fenced");
        assert!(
            matches!(
                err,
                StoreError::StaleGeneration {
                    committed: 1,
                    newest: 2
                }
            ),
            "wrong error: {err}"
        );
        assert!(
            !dir.join("epoch-0000000000000009.snap").exists(),
            "fenced commit left a file behind"
        );
        // Equal and newer generations still commit.
        promoted.commit(&sample_gen(2, 2)).expect("same gen ok");
        promoted.commit(&sample_gen(3, 2)).expect("newer gen ok");

        // Recovery prefers generation over epoch: the promoted gen-3
        // epoch-2 state outranks nothing here, but the gen-1 epoch-1
        // file is still around and must lose.
        let latest = promoted.load_latest().expect("latest");
        assert_eq!((latest.generation, latest.epoch), (3, 2));

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_generation_is_rejected_after_recovery_replay() {
        let dir = std::env::temp_dir().join(format!("ctld-genfence-rec-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let mut store = Store::open(&dir, 4).expect("open");
            store.commit(&sample_gen(1, 1)).expect("commit");
            store.commit(&sample_gen(2, 1)).expect("promotion lease");
        }
        // Fresh process, fresh Store: the fence must be re-derived from
        // the directory during crash-recovery replay.
        let mut store = Store::open(&dir, 4).expect("reopen");
        assert!(matches!(
            store.commit(&sample_gen(1, 2)),
            Err(StoreError::StaleGeneration {
                committed: 1,
                newest: 2
            })
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// One commit (two for the prune case) on a fresh directory under
    /// each storage fault kind. Each plan is found by searching seeds for
    /// the wanted decision at the wanted op index, with every other op
    /// the commit makes left clean. Each case checks what lands on disk,
    /// what the counters say and what recovery then picks.
    #[test]
    fn each_storage_fault_leaves_what_recovery_expects() {
        use crate::failpoint::{
            ErrorModel, FailPlan, FaultCounters, StorageFault, SITE_CREATE, SITE_REMOVE,
            SITE_RENAME, SITE_SYNC, SITE_WRITE,
        };

        fn find(
            clean: &[(&str, u64)],
            site: &str,
            n: u64,
            want: impl Fn(StorageFault) -> bool,
        ) -> FailPlan {
            (0..1_000_000)
                .map(|seed| FailPlan::new(seed, 500, 0, 500))
                .find(|p| {
                    clean.iter().all(|&(s, i)| p.storage_fault(s, i).is_none())
                        && p.storage_fault(site, n).is_some_and(&want)
                })
                .expect("a seed with this decision sequence")
        }
        fn faulted(dir: &Path, retain: usize, plan: FailPlan, counters: FaultCounters) -> Store {
            Store::open_with_faults(dir, retain, plan, counters).expect("open")
        }
        fn files(dir: &Path) -> Vec<(String, u64)> {
            let mut v: Vec<(String, u64)> = std::fs::read_dir(dir)
                .expect("list")
                .map(|e| {
                    let e = e.expect("entry");
                    let len = e.metadata().expect("metadata").len();
                    (e.file_name().to_string_lossy().into_owned(), len)
                })
                .collect();
            v.sort();
            v
        }
        let open = |case: &str, retain: usize, plan: FailPlan| {
            let dir =
                std::env::temp_dir().join(format!("ctld-fault-{case}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let counters = FaultCounters::new();
            let store = faulted(&dir, retain, plan, counters.clone());
            (dir, store, counters)
        };
        let len = sample(1).to_bytes().len() as u64;
        let prefix = |keep: u16| len * u64::from(keep) / 1000;
        let tmp1 = ".epoch-0000000000000001.tmp".to_owned();
        let snap1 = "epoch-0000000000000001.snap".to_owned();
        let snap2 = "epoch-0000000000000002.snap".to_owned();
        let mut seen = 0;

        // A short write: a prefix reaches the temp file, the commit
        // fails and nothing is renamed.
        let plan = find(&[(SITE_CREATE, 0)], SITE_WRITE, 0, |f| {
            matches!(f, StorageFault::ShortWrite { .. })
        });
        let Some(StorageFault::ShortWrite { keep_permille }) = plan.storage_fault(SITE_WRITE, 0)
        else {
            unreachable!("found by search")
        };
        let (dir, mut store, counters) = open("short", 4, plan);
        let err = store.commit(&sample(1)).expect_err("short write fails");
        assert!(
            err.to_string()
                .contains("injected short write at store.write#0"),
            "{err}"
        );
        assert_eq!(files(&dir), [(tmp1.clone(), prefix(keep_permille))]);
        assert_eq!((counters.injected_count(), counters.crash_count()), (1, 0));
        assert!(matches!(store.load_latest(), Err(StoreError::NoCheckpoint)));
        let _ = std::fs::remove_dir_all(&dir);
        seen += 1;

        // ENOSPC: the temp file is created but no byte lands.
        let plan = find(&[(SITE_CREATE, 0)], SITE_WRITE, 0, |f| {
            f == StorageFault::Error(ErrorModel::NoSpace)
        });
        let (dir, mut store, counters) = open("enospc", 4, plan);
        match store.commit(&sample(1)) {
            Err(StoreError::Io(e)) => assert_eq!(e.kind(), io::ErrorKind::StorageFull),
            other => panic!("ENOSPC commit returned {other:?}"),
        }
        assert_eq!(files(&dir), [(tmp1.clone(), 0)]);
        assert_eq!((counters.injected_count(), counters.crash_count()), (1, 0));
        assert!(matches!(store.load_latest(), Err(StoreError::NoCheckpoint)));
        let _ = std::fs::remove_dir_all(&dir);
        seen += 1;

        // One EINTR: the commit retries once from a fresh temp file and
        // lands.
        let plan = find(
            &[
                (SITE_CREATE, 0),
                (SITE_CREATE, 1),
                (SITE_WRITE, 1),
                (SITE_SYNC, 0),
                (SITE_RENAME, 0),
            ],
            SITE_WRITE,
            0,
            |f| f == StorageFault::Error(ErrorModel::Interrupted),
        );
        let (dir, mut store, counters) = open("eintr", 4, plan);
        store.commit(&sample(1)).expect("EINTR is retried once");
        assert_eq!(files(&dir), [(snap1.clone(), len)]);
        assert_eq!((counters.injected_count(), counters.crash_count()), (1, 0));
        assert_eq!(store.load_latest().expect("committed"), sample(1));
        let _ = std::fs::remove_dir_all(&dir);
        seen += 1;

        // Sync-then-crash: the temp file is whole and synced, the
        // commit returns the crash marker, and recovery ignores the
        // temp file.
        let plan = find(&[(SITE_CREATE, 0), (SITE_WRITE, 0)], SITE_SYNC, 0, |f| {
            f == StorageFault::SyncThenCrash
        });
        let (dir, mut store, counters) = open("synccrash", 4, plan);
        let err = store.commit(&sample(1)).expect_err("sync-then-crash");
        assert!(
            err.to_string()
                .contains("injected failpoint crash at store.sync#0"),
            "{err}"
        );
        assert_eq!(files(&dir), [(tmp1.clone(), len)]);
        assert_eq!((counters.injected_count(), counters.crash_count()), (0, 1));
        assert!(matches!(store.load_latest(), Err(StoreError::NoCheckpoint)));
        let _ = std::fs::remove_dir_all(&dir);
        seen += 1;

        // Torn renames: the destination holds a prefix of the temp
        // file's bytes, the temp file is gone and the commit crashes.
        // A kept prefix is skipped by recovery; a torn rename that kept
        // every byte is a durable commit whose ack was lost.
        for (case, whole) in [("torn-prefix", false), ("torn-whole", true)] {
            let plan = find(
                &[(SITE_CREATE, 0), (SITE_WRITE, 0), (SITE_SYNC, 0)],
                SITE_RENAME,
                0,
                |f| {
                    matches!(f, StorageFault::TornRename { keep_permille }
                        if (keep_permille == 1000) == whole)
                },
            );
            let Some(StorageFault::TornRename { keep_permille }) =
                plan.storage_fault(SITE_RENAME, 0)
            else {
                unreachable!("found by search")
            };
            let (dir, mut store, counters) = open(case, 4, plan);
            let err = store.commit(&sample(1)).expect_err("torn rename crashes");
            assert!(
                err.to_string()
                    .contains("injected failpoint crash at store.rename#0"),
                "{err}"
            );
            assert_eq!(files(&dir), [(snap1.clone(), prefix(keep_permille))]);
            assert_eq!((counters.injected_count(), counters.crash_count()), (0, 1));
            if whole {
                assert_eq!(store.load_latest().expect("kept every byte"), sample(1));
            } else {
                assert!(matches!(store.load_latest(), Err(StoreError::NoCheckpoint)));
            }
            let _ = std::fs::remove_dir_all(&dir);
            seen += 1;
        }

        // A failed prune unlink: retention is hygiene, so the second
        // commit still succeeds and the pruned file stays behind.
        let plan = find(
            &[
                (SITE_CREATE, 0),
                (SITE_WRITE, 0),
                (SITE_SYNC, 0),
                (SITE_RENAME, 0),
                (SITE_CREATE, 1),
                (SITE_WRITE, 1),
                (SITE_SYNC, 1),
                (SITE_RENAME, 1),
            ],
            SITE_REMOVE,
            0,
            |_| true,
        );
        let (dir, mut store, counters) = open("prune", 1, plan);
        store.commit(&sample(1)).expect("first commit");
        store
            .commit(&sample(2))
            .expect("a failed unlink is not a failed commit");
        assert_eq!(files(&dir), [(snap1, len), (snap2, len)]);
        assert_eq!((counters.injected_count(), counters.crash_count()), (1, 0));
        assert_eq!(store.load_latest().expect("newest"), sample(2));
        let _ = std::fs::remove_dir_all(&dir);
        seen += 1;

        assert_eq!(seen, 7, "one case per fault");
    }

    #[test]
    fn torn_rename_kept_prefix_still_fences_generations() {
        let dir = std::env::temp_dir().join(format!("ctld-genfence-torn-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut store = Store::open(&dir, 4).expect("open");
        store.commit(&sample_gen(1, 1)).expect("commit");

        // A torn rename that kept the whole byte prefix (the
        // keep_permille == 1000 failpoint case): the promotion lease
        // file is complete and valid on disk, but the committer that
        // wrote it crashed before learning the rename succeeded.
        let lease = sample_gen(2, 2);
        std::fs::write(dir.join("epoch-0000000000000002.snap"), lease.to_bytes())
            .expect("torn-but-complete lease");

        // The old generation must still be fenced by those bytes...
        assert!(matches!(
            store.commit(&sample_gen(1, 3)),
            Err(StoreError::StaleGeneration {
                committed: 1,
                newest: 2
            })
        ));
        // ...while a torn rename that kept only a prefix (invalid
        // bytes) does NOT raise the fence: recovery would skip it, so
        // the fence must too — otherwise garbage could brick commits.
        let mut torn = sample_gen(9, 3).to_bytes();
        torn.truncate(torn.len() / 2);
        std::fs::write(dir.join("epoch-0000000000000003.snap"), &torn).expect("torn prefix");
        store
            .commit(&sample_gen(2, 3))
            .expect("gen 2 still commits");
        let latest = store.load_latest().expect("latest");
        assert_eq!((latest.generation, latest.epoch), (2, 3));

        let _ = std::fs::remove_dir_all(&dir);
    }
}
