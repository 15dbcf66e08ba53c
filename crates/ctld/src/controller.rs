//! The epoch-fenced reconvergence state machine.
//!
//! A [`Controller`] owns one routing state at a time — the **committed
//! epoch** — and moves between exactly two modes:
//!
//! ```text
//!            certificate passes: epoch += 1, checkpoint
//!   Serving ──────────────────────────────────────────▶ Serving
//!      │                                                   ▲
//!      │ certificate fails                                 │ retry passes
//!      ▼                                                   │
//!   Degraded { attempts, next_retry_at } ──────────────────┘
//!      │   ▲
//!      └───┘ retry fails: attempts += 1, backoff doubles (capped)
//! ```
//!
//! Fault changes (live feed batches or replayed schedule events) are
//! staged in `pending`; a reconvergence derives the certification scope
//! from the topology ([`lmpr_verify::change_blast_radius`] — every pair
//! whose canonical path space touches a changed element), applies the
//! changes to a candidate copy of the committed fault view, and asks
//! `lmpr-verify` for the epoch certificate *before* activation. Only a
//! certified state is committed: the epoch number advances, the root
//! state is checkpointed atomically, and the changes leave `pending`. A
//! failed certificate drops the candidate and keeps serving the
//! committed view — degraded, but correct; retries recompute the scope
//! from the same staged changes, so a failed attempt is re-audited at
//! full strength, never rubber-stamped.
//!
//! **Reads are a pure function of the committed epoch.** Serving keeps
//! no selection cache: a pair's selection is recomputed by an uncached
//! [`SelectionEngine`] over the committed view, so nothing a read does
//! writes anything. Every mutating call ends by *publishing* a
//! [`Published`] snapshot — the status fields, the `(generation, epoch)`
//! and that engine — behind an [`Arc`]. [`Published::paths`] and
//! [`Published::digest`] are the one read implementation: the
//! controller's own [`Controller::paths`] delegates to them, and the
//! server answers reads from the last snapshot on its connection
//! threads, never on the thread that certifies.
//!
//! All timing is a **logical clock** (`now`, advanced by `tick`), so
//! the whole machine — epochs, backoff, schedule replay — is a pure
//! function of the fault feed. That purity is what the kill-and-resume
//! byte-identity test exploits: crash anywhere, restart from the last
//! checkpoint, replay the same ticks, and every subsequent answer is
//! identical to the uninterrupted run's.

use crate::failpoint::{FailPlan, FaultCounters};
use crate::store::{Checkpoint, Store, StoreError, RETAIN};
use crate::wire::ChangeSpec;
use lmpr_codec::fnv;
use lmpr_core::{Router, RouterKind, SelectionEngine};
use lmpr_verify::{certify_epoch, change_blast_radius, EpochScope, Report, RuleId, Severity};
use std::fmt;
use std::path::PathBuf;
use std::sync::Arc;
use xgft::{FaultChange, FaultSchedule, FaultSet, PnId, Topology};

/// Monotonic microsecond clock injected by the hosting front end. The
/// controller's own logic runs entirely on the feed's logical ticks;
/// wall time exists only to report reconvergence latency stats, and
/// only the server front end (the approved wall-clock module) may
/// supply it.
pub type MicrosClock = Box<dyn FnMut() -> u64 + Send>;

/// First degraded-mode retry delay, in logical ticks.
pub const BACKOFF_BASE_TICKS: u64 = 100;
/// Upper bound on a degraded-mode retry delay, in logical ticks.
pub const BACKOFF_CAP_TICKS: u64 = 10_000;

/// Configuration of one controller instance.
#[derive(Debug, Clone)]
pub struct CtlConfig {
    /// Topology name resolved via [`xgft::topology_by_name`].
    pub topo_name: String,
    /// Routing scheme.
    pub kind: RouterKind,
    /// Checkpoint directory.
    pub state_dir: PathBuf,
    /// Replayed fault timeline (empty when the feed is socket-only).
    pub schedule: FaultSchedule,
    /// Test hook: sleep this long inside each reconvergence, so a
    /// SIGKILL can land mid-reconvergence deterministically.
    pub reconverge_delay_ms: u64,
}

impl CtlConfig {
    /// Defaults for a topology/scheme pair.
    pub fn new(
        topo_name: impl Into<String>,
        kind: RouterKind,
        state_dir: impl Into<PathBuf>,
    ) -> Self {
        CtlConfig {
            topo_name: topo_name.into(),
            kind,
            state_dir: state_dir.into(),
            schedule: FaultSchedule::new(),
            reconverge_delay_ms: 0,
        }
    }
}

/// The controller's serving mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// The committed epoch is certified and current.
    Serving,
    /// The last reconvergence's certificate failed; the last-good epoch
    /// is still served while retries back off.
    Degraded {
        /// Failed certification attempts so far.
        attempts: u32,
        /// Logical tick at or after which the next retry runs.
        next_retry_at: u64,
    },
}

impl Mode {
    /// Stable wire tag.
    pub fn tag(&self) -> &'static str {
        match self {
            Mode::Serving => "serving",
            Mode::Degraded { .. } => "degraded",
        }
    }
}

/// Errors the controller can surface to its caller.
#[derive(Debug)]
pub enum CtlError {
    /// The configured topology name is unknown.
    UnknownTopology(String),
    /// Checkpoint store failure.
    Store(StoreError),
    /// The genesis (epoch 0) state failed full verification — there is
    /// no last-good epoch to degrade to, so startup is refused.
    GenesisCertificate(String),
    /// A query batch carried a stale or future epoch.
    EpochFenced {
        /// The epoch the client sent.
        client: u64,
        /// The server's current epoch.
        server: u64,
    },
    /// A fault batch skipped ahead of the feed cursor.
    FeedGap {
        /// The id the batch carried.
        got: u64,
        /// The id the controller expected next.
        expected: u64,
    },
    /// A queried processing-node id is out of range.
    BadPair(u32, u32),
    /// A fault batch named a link or node the topology does not have;
    /// the whole batch was refused.
    BadChange(ChangeSpec),
}

impl fmt::Display for CtlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CtlError::UnknownTopology(name) => write!(f, "unknown topology {name:?}"),
            CtlError::Store(e) => write!(f, "{e}"),
            CtlError::GenesisCertificate(m) => {
                write!(f, "genesis state failed verification: {m}")
            }
            CtlError::EpochFenced { client, server } => write!(
                f,
                "epoch fence: client batch at epoch {client}, server at epoch {server}"
            ),
            CtlError::FeedGap { got, expected } => {
                write!(f, "fault feed gap: got batch {got}, expected {expected}")
            }
            CtlError::BadPair(s, d) => write!(f, "pair ({s}, {d}) is out of range"),
            CtlError::BadChange(ChangeSpec::LinkDown(l) | ChangeSpec::LinkUp(l)) => {
                write!(f, "fault batch names link {l}, which is out of range")
            }
            CtlError::BadChange(
                ChangeSpec::SwitchDown(level, rank) | ChangeSpec::SwitchUp(level, rank),
            ) => write!(
                f,
                "fault batch names node ({level}, {rank}), which is out of range"
            ),
        }
    }
}

impl std::error::Error for CtlError {}

impl From<StoreError> for CtlError {
    fn from(e: StoreError) -> Self {
        CtlError::Store(e)
    }
}

/// Snapshot of the controller's observable state for `status` replies.
#[derive(Debug, Clone)]
pub struct StatusInfo {
    /// Current committed epoch.
    pub epoch: u64,
    /// Generation lease (1 at genesis, +1 per standby promotion).
    pub generation: u64,
    /// Serving mode.
    pub mode: Mode,
    /// Logical clock.
    pub now: u64,
    /// Staged, uncommitted fault changes.
    pub pending: u64,
    /// Highest committed feed batch id.
    pub committed_batch_id: u64,
    /// Committed reconvergences since this process started.
    pub reconv_count: u64,
    /// Their total wall-clock latency, microseconds.
    pub reconv_total_us: u64,
    /// The single worst latency, microseconds.
    pub reconv_max_us: u64,
}

/// Whether a wire change names a link or node of `topo`. Feed ids
/// arrive from the socket unchecked, and an id past the topology must
/// not reach the link arithmetic or the checkpoint.
fn names_an_element(topo: &Topology, change: ChangeSpec) -> bool {
    match change {
        ChangeSpec::LinkDown(l) | ChangeSpec::LinkUp(l) => l < topo.num_links(),
        ChangeSpec::SwitchDown(level, rank) | ChangeSpec::SwitchUp(level, rank) => {
            let level = usize::from(level);
            level <= topo.height() && rank < topo.nodes_at_level(level)
        }
    }
}

/// One published epoch: everything a read needs, immutable. A snapshot
/// is shared by `Arc` between the controller and every reader holding
/// it; a new one replaces it after each mutating call, and the serving
/// engine inside is shared between snapshots until a commit changes the
/// view.
#[derive(Debug)]
pub struct Published {
    status: StatusInfo,
    topo: Arc<Topology>,
    /// An uncached engine over the committed fault view.
    engine: Arc<SelectionEngine<RouterKind>>,
}

impl Published {
    /// The controller's observable state when this snapshot was taken:
    /// the epoch it answers for, its lease and its mode among them.
    pub fn status(&self) -> &StatusInfo {
        &self.status
    }

    /// Answer an epoch-fenced query batch. `client_epoch` must equal
    /// this snapshot's epoch — otherwise the batch spans two routing
    /// generations and is rejected so the reader can refetch.
    pub fn paths(
        &self,
        client_epoch: u64,
        pairs: &[(u32, u32)],
    ) -> Result<Vec<Vec<u64>>, CtlError> {
        if client_epoch != self.status.epoch {
            return Err(CtlError::EpochFenced {
                client: client_epoch,
                server: self.status.epoch,
            });
        }
        let n = self.topo.num_pns();
        let mut out = Vec::with_capacity(pairs.len());
        let mut scratch = Vec::new();
        for &(s, d) in pairs {
            if s >= n || d >= n {
                return Err(CtlError::BadPair(s, d));
            }
            // Disconnected pairs answer with an empty list (the typed
            // signal); the router read leaves scratch empty for them.
            self.engine
                .fill_paths(&self.topo, PnId(s), PnId(d), &mut scratch);
            out.push(scratch.iter().map(|p| p.0).collect());
        }
        Ok(out)
    }

    /// Semantic digest of the complete routing state at this epoch:
    /// FNV-1a over every ordered pair's selected path ids. Two
    /// controllers with equal digests answer every query identically —
    /// the equivalence the kill-and-resume smoke asserts.
    pub fn digest(&self) -> u64 {
        let mut h = fnv::OFFSET;
        let mut mix = |x: u64| h = fnv::update(h, &x.to_le_bytes());
        mix(self.status.epoch);
        let n = self.topo.num_pns();
        let mut scratch = Vec::new();
        for s in 0..n {
            for d in 0..n {
                if s == d {
                    continue;
                }
                self.engine
                    .fill_paths(&self.topo, PnId(s), PnId(d), &mut scratch);
                mix(((s as u64) << 32) | d as u64);
                mix(scratch.len() as u64);
                for p in &scratch {
                    mix(p.0);
                }
            }
        }
        h
    }
}

/// The routing-controller state machine. See the module docs for the
/// epoch/degraded lifecycle.
pub struct Controller {
    cfg: CtlConfig,
    topo: Arc<Topology>,
    label: String,
    /// The uncached serving engine over the committed fault view.
    engine: Arc<SelectionEngine<RouterKind>>,
    /// The last published snapshot; replaced after every mutating call.
    current: Arc<Published>,
    epoch: u64,
    /// Generation lease: 1 at genesis, resumed from the checkpoint on
    /// restart, bumped by [`Controller::promote`]. Persisted with every
    /// checkpoint so the store can fence a deposed primary's writes.
    generation: u64,
    now: u64,
    /// Schedule events at or before this tick are committed state.
    drained_through: u64,
    /// In-memory high-water mark of drained schedule events (resets to
    /// `drained_through` on restart, which is exactly what makes a
    /// crashed drain re-run).
    drained_inflight: u64,
    committed_batch_id: u64,
    /// In-memory high-water mark of ingested feed batches.
    highest_ingested: u64,
    pending: Vec<FaultChange>,
    mode: Mode,
    chaos_fail_certs: bool,
    store: Store,
    reconv_count: u64,
    reconv_total_us: u64,
    reconv_max_us: u64,
    /// Ordered pairs audited by the most recent certificate attempt.
    last_cert_pairs: u64,
    /// The most recent durable commit (checkpoint plus the fault batch
    /// that produced it) — what the server streams to subscribers. The
    /// batch is empty right after start or promotion.
    last_commit: (Checkpoint, Vec<ChangeSpec>),
    /// Latency clock injected via [`Controller::set_micros_clock`];
    /// without one the reconvergence latency stats stay zero.
    clock: Option<MicrosClock>,
}

impl Controller {
    /// Start a controller: resume from the newest valid checkpoint in
    /// `state_dir`, or bootstrap epoch 0 by fully verifying the
    /// fault-free state and committing the genesis checkpoint.
    pub fn start(cfg: CtlConfig) -> Result<(Self, Report), CtlError> {
        Self::start_with_faults(cfg, FailPlan::new(0, 0, 0, 0), FaultCounters::new())
    }

    /// Start a controller whose checkpoint store draws storage faults
    /// from `plan`, counting every fault that fires into `counters`.
    /// The lifecycle is identical to [`Controller::start`].
    pub fn start_with_faults(
        cfg: CtlConfig,
        plan: FailPlan,
        counters: FaultCounters,
    ) -> Result<(Self, Report), CtlError> {
        let mut store = Store::open_with_faults(&cfg.state_dir, RETAIN, plan, counters)?;
        let (label, topo) = xgft::topology_by_name(&cfg.topo_name)
            .ok_or_else(|| CtlError::UnknownTopology(cfg.topo_name.clone()))?;
        let (cp, report) = match store.load_latest() {
            // The resumed epoch was certified when it was committed; the
            // empty report records the clean resume.
            Ok(cp) => (Some(cp), Report::new(&label, cfg.kind.name())),
            Err(StoreError::NoCheckpoint) => {
                // Genesis: epoch 0 is the fault-free state, certified at
                // full scope (CDG + coverage over every pair). Later
                // scoped certificates inherit this CDG proof.
                let report =
                    certify_epoch(&topo, &label, cfg.kind, &FaultSet::new(), EpochScope::Full);
                if !report.certified() {
                    let first = report
                        .findings
                        .iter()
                        .find(|d| d.severity == Severity::Error)
                        .map(|d| d.to_string())
                        .unwrap_or_else(|| "unknown finding".to_owned());
                    return Err(CtlError::GenesisCertificate(first));
                }
                (None, report)
            }
            Err(e) => return Err(CtlError::Store(e)),
        };
        let genesis = cp.is_none();
        let cp = cp.unwrap_or_else(|| Checkpoint::from_view(1, 0, 0, 0, 0, &FaultSet::new()));
        let engine = Arc::new(SelectionEngine::with_view(cfg.kind, cp.view(&topo)));
        let topo = Arc::new(topo);
        let status = StatusInfo {
            epoch: cp.epoch,
            generation: cp.generation,
            mode: Mode::Serving,
            now: cp.now,
            pending: 0,
            committed_batch_id: cp.committed_batch_id,
            reconv_count: 0,
            reconv_total_us: 0,
            reconv_max_us: 0,
        };
        let mut ctl = Controller {
            current: Arc::new(Published {
                status,
                topo: Arc::clone(&topo),
                engine: Arc::clone(&engine),
            }),
            topo,
            label,
            engine,
            epoch: cp.epoch,
            generation: cp.generation,
            now: cp.now,
            drained_through: cp.drained_through,
            drained_inflight: cp.drained_through,
            committed_batch_id: cp.committed_batch_id,
            highest_ingested: cp.committed_batch_id,
            pending: Vec::new(),
            mode: Mode::Serving,
            chaos_fail_certs: false,
            store,
            reconv_count: 0,
            reconv_total_us: 0,
            reconv_max_us: 0,
            last_cert_pairs: 0,
            last_commit: (cp, Vec::new()),
            clock: None,
            cfg,
        };
        if genesis {
            ctl.checkpoint(Vec::new())?;
        }
        Ok((ctl, report))
    }

    /// The topology being routed.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Install the monotonic microsecond clock behind the reconvergence
    /// latency stats. The server front end calls this once before the
    /// controller loop; a controller without a clock is fully
    /// functional and simply reports zero latencies, which keeps every
    /// other embedding (tests, replay) a pure function of the feed.
    pub fn set_micros_clock(&mut self, clock: MicrosClock) {
        self.clock = Some(clock);
    }

    /// Current committed epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Current generation lease.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Take over as primary: bump the generation lease and persist it
    /// immediately (same epoch, new generation), so the claim is
    /// durable before any client is answered under it. From this commit
    /// on, the store fences the deposed generation's writes and every
    /// ack carries the new lease. Returns the new generation.
    pub fn promote(&mut self) -> Result<u64, CtlError> {
        self.generation += 1;
        self.checkpoint(Vec::new())?;
        self.publish();
        Ok(self.generation)
    }

    /// The most recent durable commit: the checkpoint plus the fault
    /// batch whose certification produced it (empty right after start
    /// or promotion). This is the frame the server replicates to
    /// standby subscribers.
    pub fn last_commit(&self) -> (Checkpoint, Vec<ChangeSpec>) {
        self.last_commit.clone()
    }

    /// Current serving mode.
    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// Logical clock.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Ordered pairs audited by the most recent epoch-certificate
    /// attempt: the topology-derived blast radius for a scoped
    /// certificate, the full `n·(n−1)` pair matrix otherwise. Zero only
    /// before the first reconvergence attempt — a committed epoch is
    /// never backed by an empty audit.
    pub fn last_cert_pairs(&self) -> u64 {
        self.last_cert_pairs
    }

    /// Toggle injected certificate failure (the chaos hook the degraded
    /// smoke uses).
    pub fn set_chaos_fail_certs(&mut self, on: bool) {
        self.chaos_fail_certs = on;
        self.publish();
    }

    /// The last published snapshot: what every read is answered from.
    pub fn published(&self) -> Arc<Published> {
        Arc::clone(&self.current)
    }

    /// Replace the published snapshot with the current state. Every
    /// mutating call ends here, so a read never sees a half-applied
    /// change: the serving engine only changes at commit, and the
    /// status fields are copied whole.
    fn publish(&mut self) {
        self.current = Arc::new(Published {
            status: self.status(),
            topo: Arc::clone(&self.topo),
            engine: Arc::clone(&self.engine),
        });
    }

    /// Observable state for `status` replies.
    pub fn status(&self) -> StatusInfo {
        StatusInfo {
            epoch: self.epoch,
            generation: self.generation,
            mode: self.mode,
            now: self.now,
            pending: self.pending.len() as u64,
            committed_batch_id: self.committed_batch_id,
            reconv_count: self.reconv_count,
            reconv_total_us: self.reconv_total_us,
            reconv_max_us: self.reconv_max_us,
        }
    }

    /// Advance the logical clock to `to` (monotone; earlier targets are
    /// no-ops): drain schedule events newly visible in
    /// `(drained_inflight, to]` into the pending set, then reconverge
    /// if there is staged work — or, in degraded mode, if the backoff
    /// has elapsed.
    pub fn tick(&mut self, to: u64) -> Result<(), CtlError> {
        if to > self.now {
            self.now = to;
        }
        if self.now > self.drained_inflight {
            let events = self
                .cfg
                .schedule
                .events_between(self.drained_inflight + 1, self.now);
            self.pending.extend(events.iter().map(|e| e.change));
            self.drained_inflight = self.now;
        }
        let retry_due = match self.mode {
            Mode::Serving => true,
            Mode::Degraded { next_retry_at, .. } => self.now >= next_retry_at,
        };
        if !self.pending.is_empty() && retry_due {
            self.try_reconverge()?;
        }
        self.publish();
        Ok(())
    }

    /// Ingest a fault-feed batch (at-least-once delivery). Returns
    /// `Ok(false)` for an already-ingested duplicate, `Ok(true)` when
    /// the batch was staged (and a reconvergence attempted). A batch
    /// naming a link or node outside the topology is refused whole with
    /// [`CtlError::BadChange`]: nothing is staged and the feed cursor
    /// stays, so the corrected batch can be resent under the same id.
    pub fn ingest(&mut self, batch_id: u64, changes: &[ChangeSpec]) -> Result<bool, CtlError> {
        if batch_id <= self.highest_ingested {
            return Ok(false);
        }
        if batch_id != self.highest_ingested + 1 {
            return Err(CtlError::FeedGap {
                got: batch_id,
                expected: self.highest_ingested + 1,
            });
        }
        if let Some(&bad) = changes.iter().find(|&&c| !names_an_element(&self.topo, c)) {
            return Err(CtlError::BadChange(bad));
        }
        self.pending.extend(changes.iter().map(|c| c.to_change()));
        self.highest_ingested = batch_id;
        // New facts may clear a failing certificate, so degraded mode
        // retries immediately on ingest rather than waiting out the
        // backoff (the backoff only paces retries with *no* new
        // information).
        self.try_reconverge()?;
        self.publish();
        Ok(true)
    }

    /// Answer an epoch-fenced query batch from the last published
    /// snapshot — see [`Published::paths`].
    pub fn paths(
        &self,
        client_epoch: u64,
        pairs: &[(u32, u32)],
    ) -> Result<Vec<Vec<u64>>, CtlError> {
        self.current.paths(client_epoch, pairs)
    }

    /// Semantic digest of the routing state at the current epoch — see
    /// [`Published::digest`].
    pub fn digest(&self) -> u64 {
        self.current.digest()
    }

    /// Attempt to certify and commit the staged changes as a new epoch.
    fn try_reconverge(&mut self) -> Result<(), CtlError> {
        if self.pending.is_empty() {
            return Ok(());
        }
        let started = self.clock.as_mut().map(|c| c());
        // The certification scope is derived from the topology — every
        // pair whose canonical path space touches a changed element —
        // so it never depends on which pairs were queried. `pending`
        // survives a failed attempt untouched, so a degraded retry
        // recomputes the identical scope.
        let pairs = change_blast_radius(&self.topo, &self.pending);
        let mut candidate_view = self.engine.view().clone();
        for &change in &self.pending {
            change.apply(&self.topo, &mut candidate_view);
        }
        if self.cfg.reconverge_delay_ms > 0 {
            std::thread::sleep(std::time::Duration::from_millis(
                self.cfg.reconverge_delay_ms,
            ));
        }
        let n = self.topo.num_pns() as u64;
        let full_pairs = n * (n - 1);
        let scope = if !pairs.is_empty() && (pairs.len() as u64) < full_pairs {
            EpochScope::Pairs(&pairs)
        } else {
            // An empty blast radius (nothing may certify on zero pairs)
            // or one spanning the whole matrix (the full analysis costs
            // the same and re-proves CDG acyclicity as well): run the
            // full analysis.
            EpochScope::Full
        };
        self.last_cert_pairs = match scope {
            EpochScope::Pairs(p) => p.len() as u64,
            EpochScope::Full => full_pairs,
        };
        let mut report = certify_epoch(
            &self.topo,
            &self.label,
            self.cfg.kind,
            &candidate_view,
            scope,
        );
        if self.chaos_fail_certs {
            report.findings.push(lmpr_verify::Diagnostic::error(
                RuleId::CtlCertificate,
                "injected certificate failure (chaos hook)".to_owned(),
                lmpr_verify::Witness::None,
            ));
        }
        if report.certified() {
            let batch: Vec<ChangeSpec> = self
                .pending
                .iter()
                .map(|&c| ChangeSpec::from_change(c))
                .collect();
            self.epoch += 1;
            self.engine = Arc::new(SelectionEngine::with_view(self.cfg.kind, candidate_view));
            self.drained_through = self.drained_inflight;
            self.committed_batch_id = self.highest_ingested;
            self.pending.clear();
            self.mode = Mode::Serving;
            self.checkpoint(batch)?;
            self.reconv_count += 1;
            if let (Some(c), Some(t0)) = (self.clock.as_mut(), started) {
                let us = c().saturating_sub(t0);
                self.reconv_total_us += us;
                self.reconv_max_us = self.reconv_max_us.max(us);
            }
        } else {
            // The candidate view is dropped; the committed one keeps
            // serving.
            let attempts = match self.mode {
                Mode::Degraded { attempts, .. } => attempts + 1,
                Mode::Serving => 1,
            };
            let shift = u32::min(attempts.saturating_sub(1), 32);
            let delay = BACKOFF_BASE_TICKS
                .saturating_mul(1u64 << shift)
                .min(BACKOFF_CAP_TICKS);
            self.mode = Mode::Degraded {
                attempts,
                next_retry_at: self.now.saturating_add(delay),
            };
        }
        Ok(())
    }

    /// Persist the committed root state, remembering the commit (with
    /// the batch that produced it) for replication subscribers.
    fn checkpoint(&mut self, batch: Vec<ChangeSpec>) -> Result<(), CtlError> {
        let cp = Checkpoint::from_view(
            self.generation,
            self.epoch,
            self.now,
            self.drained_through,
            self.committed_batch_id,
            self.engine.view(),
        );
        self.store.commit(&cp)?;
        self.last_commit = (cp, batch);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Regression: a link id past the topology panicked inside the blast
    /// radius, and a switch outside the tree committed an epoch and
    /// landed in the checkpoint's failed-switch list.
    #[test]
    fn a_batch_naming_an_element_outside_the_topology_is_refused_whole() {
        let dir = std::env::temp_dir().join(format!("ctld-badchange-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = CtlConfig::new("8port2tree", RouterKind::Disjoint(4), &dir);
        let (mut ctl, _) = Controller::start(cfg).expect("start");
        let links = ctl.topology().num_links();
        for bad in [
            ChangeSpec::LinkDown(links + 5),
            ChangeSpec::SwitchDown(9, 7),
        ] {
            // The valid change beside it is not staged either.
            match ctl.ingest(1, &[ChangeSpec::LinkDown(3), bad]) {
                Err(CtlError::BadChange(c)) => assert_eq!(c, bad),
                other => panic!("{bad:?} not refused: {other:?}"),
            }
            assert_eq!((ctl.epoch(), ctl.status().pending), (0, 0));
            let (cp, _) = ctl.last_commit();
            assert_eq!((cp.epoch, cp.failed_switches.len()), (0, 0));
        }
        // The feed cursor did not move: the corrected batch takes id 1.
        assert!(ctl
            .ingest(1, &[ChangeSpec::LinkDown(3)])
            .expect("corrected"));
        assert_eq!(ctl.epoch(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
