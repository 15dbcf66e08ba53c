//! Supervised, resumable execution of the chaos sweep.
//!
//! [`SweepOrchestrator`] runs the exact experiment grid of
//! [`chaos::run`](crate::chaos::run) — same plans, same seeds, same
//! assembly — but supervises every cell:
//!
//! * **Journaling.** Each completed seed's outcome is appended to
//!   `results_dir/journal.json` (written atomically via a temp file +
//!   rename), so a crash never loses finished work. On restart the
//!   orchestrator loads the journal, validates it against the current
//!   plan, and skips completed cells.
//! * **Checkpoints.** Long simulations snapshot their complete state
//!   (the crash-consistent [`FlitSim`] snapshot format) every
//!   `checkpoint_cycles`; a retry or a restarted process resumes the
//!   seed mid-simulation instead of recomputing it.
//! * **Deadlines and retries.** Each cell attempt runs under a
//!   wall-clock deadline; a timed-out or panicked attempt is retried
//!   with capped exponential backoff, up to `max_attempts`. Panics are
//!   isolated with `catch_unwind` and recorded as structured
//!   [`SweepError`]s — one stuck cell cannot take down the sweep.
//!
//! The crown property: because the journal stores *exact* outcomes
//! (f64s in shortest-roundtrip decimal, counters as integers) and the
//! final document is assembled by the same code path as the inline
//! harness, a sweep that crashed and resumed — any number of times —
//! serializes **byte-identically** to an uninterrupted `chaos::run`.
//! The golden test and the `ci.sh` SIGKILL smoke both enforce this.

use crate::chaos::{
    assemble, finish_scripted_seed, finish_sweep_seed, ChaosOutcomes, ScriptedPlan,
    ScriptedSeedOutcome, SeedOutcome, SweepPlan, SweepSeedOutcome,
};
use crate::jsonio::{self, Value};
use crate::{document_from_parts, failure_to_json, json_string, Failure};
use lmpr_codec::fnv::fnv1a64;
use lmpr_codec::splitmix;
use lmpr_core::{Router, RouterKind};
use lmpr_flitsim::{FlitSim, MonitorLog};
use std::fmt;
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Journal schema version; bumped when the layout changes so stale
/// journals are discarded instead of misread.
pub const JOURNAL_VERSION: u64 = 1;

/// Tuning knobs of a supervised sweep.
#[derive(Debug, Clone)]
pub struct OrchestratorOptions {
    /// Directory holding `journal.json` and the `snapshots/` subdir.
    pub results_dir: PathBuf,
    /// Statistical budget, forwarded to the chaos plans.
    pub quick: bool,
    /// Wall-clock budget of one cell attempt.
    pub deadline: Duration,
    /// Simulated cycles between state checkpoints.
    pub checkpoint_cycles: u64,
    /// Attempts per cell before it is marked failed.
    pub max_attempts: u32,
    /// First retry delay; doubles per attempt.
    pub backoff_base: Duration,
    /// Upper bound on the retry delay.
    pub backoff_cap: Duration,
    /// Stop (as if killed) after completing this many cells — used by
    /// the kill/resume tests to interrupt at a deterministic journal
    /// point.
    pub max_cells: Option<usize>,
}

impl OrchestratorOptions {
    /// Defaults: 5-minute attempt deadline, checkpoint every 2 000
    /// cycles, 3 attempts, 100 ms → 5 s backoff.
    pub fn new(results_dir: impl Into<PathBuf>, quick: bool) -> Self {
        OrchestratorOptions {
            results_dir: results_dir.into(),
            quick,
            deadline: Duration::from_secs(300),
            checkpoint_cycles: 2_000,
            max_attempts: 3,
            backoff_base: Duration::from_millis(100),
            backoff_cap: Duration::from_secs(5),
            max_cells: None,
        }
    }

    /// The delay before the next attempt of `cell`, after `attempt`
    /// failures (1-based): capped exponential on `backoff_base`, then
    /// deterministic seeded jitter scaling it into `[50%, 100%]`. The
    /// jitter is a pure function of `(cell, attempt)`, so a resumed
    /// sweep replays the same delays — but distinct cells that fail
    /// simultaneously (say, a shared deadline misconfiguration) spread
    /// their retries out instead of herding.
    pub fn retry_delay(&self, cell: &str, attempt: u32) -> Duration {
        let exp = attempt.saturating_sub(1).min(16);
        let base = self
            .backoff_base
            .saturating_mul(1u32 << exp)
            .min(self.backoff_cap);
        // FNV-1a over the cell id folded with the attempt, then a
        // SplitMix64 mix so low-entropy ids still yield uniform high
        // bits.
        let h = fnv1a64(cell.as_bytes());
        let frac = splitmix::unit_f64(splitmix::mix(h ^ attempt as u64));
        base.mul_f64(0.5 + 0.5 * frac)
    }
}

/// Why a cell attempt (or the whole cell) was abandoned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SweepErrorKind {
    /// The attempt panicked; the payload is in `message`.
    Panicked,
    /// The attempt exceeded its wall-clock deadline.
    TimedOut,
}

impl SweepErrorKind {
    fn tag(&self) -> &'static str {
        match self {
            SweepErrorKind::Panicked => "panicked",
            SweepErrorKind::TimedOut => "timed-out",
        }
    }

    fn from_tag(tag: &str) -> Option<Self> {
        match tag {
            "panicked" => Some(SweepErrorKind::Panicked),
            "timed-out" => Some(SweepErrorKind::TimedOut),
            _ => None,
        }
    }
}

/// A cell that exhausted its attempts, as recorded in the journal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepError {
    /// Journal id of the cell (`sweep-r2-s1`, `scripted`).
    pub cell: String,
    /// Attempts consumed.
    pub attempts: u32,
    pub kind: SweepErrorKind,
    pub message: String,
}

impl fmt::Display for SweepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cell {} {} after {} attempts: {}",
            self.cell,
            self.kind.tag(),
            self.attempts,
            self.message
        )
    }
}

/// What a supervision pass accomplished.
#[derive(Debug)]
pub struct SweepReport {
    /// True once every cell is done and the document was assembled.
    pub completed: bool,
    /// The assembled results document — present only when `completed`.
    pub document: Option<String>,
    /// Invariant violations surfaced at assembly (0 until `completed`).
    pub violations: u32,
    /// Experiment-level failures recorded in the document.
    pub failure_count: usize,
    /// Cells that exhausted their attempts.
    pub cell_errors: Vec<SweepError>,
    /// Cells newly completed (or newly failed) by *this* pass.
    pub cells_run: usize,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CellStatus {
    Pending,
    Done,
    Failed,
}

#[derive(Debug, Clone, Copy)]
enum CellKind {
    Sweep { ri: usize, si: usize },
    Scripted,
}

struct CellState {
    id: String,
    kind: CellKind,
    status: CellStatus,
    attempts: u32,
    error: Option<SweepError>,
    /// Completed seed outcomes (sweep cells).
    sweep_seeds: Vec<SeedOutcome<SweepSeedOutcome>>,
    /// Completed seed outcomes (the scripted cell).
    scripted_seeds: Vec<SeedOutcome<ScriptedSeedOutcome>>,
    /// Window deltas of the scripted seed currently in progress,
    /// paired with an on-disk simulator snapshot.
    partial_deliveries: Option<Vec<u64>>,
}

/// Supervised, journaled, resumable runner of the chaos experiment
/// grid. See the module docs for the guarantees.
pub struct SweepOrchestrator {
    opts: OrchestratorOptions,
    plan: SweepPlan,
    splan: ScriptedPlan,
    cells: Vec<CellState>,
}

impl SweepOrchestrator {
    /// Create the orchestrator, loading (and validating) an existing
    /// journal from `results_dir` if one is present. An unreadable,
    /// corrupt, or plan-mismatched journal is discarded and the sweep
    /// starts fresh — never a panic.
    pub fn new(opts: OrchestratorOptions) -> io::Result<Self> {
        let plan = SweepPlan::new(opts.quick);
        let splan = ScriptedPlan::new(opts.quick);
        std::fs::create_dir_all(opts.results_dir.join("snapshots"))?;
        let mut cells = fresh_cells(&plan);
        match std::fs::read_to_string(opts.results_dir.join("journal.json")) {
            Ok(text) => match load_journal(&text, opts.quick, &cells) {
                Ok(loaded) => cells = loaded,
                Err(why) => {
                    eprintln!("orchestrator: discarding journal ({why}); starting fresh");
                }
            },
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
        Ok(SweepOrchestrator {
            opts,
            plan,
            splan,
            cells,
        })
    }

    /// Run every pending cell (up to `max_cells`), then — if the whole
    /// grid is done — assemble the final document. `Err` is reserved
    /// for I/O failures persisting the journal; experiment failures,
    /// timeouts and panics are recorded per cell instead.
    pub fn run(&mut self) -> io::Result<SweepReport> {
        let mut cells_run = 0usize;
        for i in 0..self.cells.len() {
            if self.cells[i].status != CellStatus::Pending {
                continue;
            }
            if let Some(cap) = self.opts.max_cells {
                if cells_run >= cap {
                    eprintln!(
                        "orchestrator: stopping after {cells_run} cells (--max-cells); \
                         journal is resumable"
                    );
                    break;
                }
            }
            self.run_cell(i)?;
            cells_run += 1;
        }

        let cell_errors: Vec<SweepError> =
            self.cells.iter().filter_map(|c| c.error.clone()).collect();
        if self.cells.iter().all(|c| c.status == CellStatus::Done) {
            let outcomes = self.collect_outcomes();
            let assembled = assemble(self.opts.quick, &self.plan, &self.splan, &outcomes);
            let document = document_from_parts(&assembled.records, &assembled.failure_objects);
            Ok(SweepReport {
                completed: true,
                document: Some(document),
                violations: assembled.violations,
                failure_count: assembled.failure_objects.len(),
                cell_errors,
                cells_run,
            })
        } else {
            Ok(SweepReport {
                completed: false,
                document: None,
                violations: 0,
                failure_count: 0,
                cell_errors,
                cells_run,
            })
        }
    }

    fn collect_outcomes(&self) -> ChaosOutcomes {
        let mut sweep = Vec::with_capacity(self.plan.rates.len());
        for ri in 0..self.plan.rates.len() {
            let mut row = Vec::with_capacity(self.plan.schemes.len());
            for si in 0..self.plan.schemes.len() {
                let cell = self
                    .cells
                    .iter()
                    .find(|c| matches!(c.kind, CellKind::Sweep { ri: r, si: s } if r == ri && s == si))
                    .map(|c| c.sweep_seeds.clone())
                    .unwrap_or_default();
                row.push(cell);
            }
            sweep.push(row);
        }
        let scripted = self
            .cells
            .iter()
            .find(|c| matches!(c.kind, CellKind::Scripted))
            .map(|c| c.scripted_seeds.clone())
            .unwrap_or_default();
        ChaosOutcomes { sweep, scripted }
    }

    /// Drive one cell to done-or-failed, retrying with backoff.
    fn run_cell(&mut self, i: usize) -> io::Result<()> {
        loop {
            self.cells[i].attempts += 1;
            let deadline = Instant::now() + self.opts.deadline;
            let attempt = {
                let this = AssertUnwindSafe(&mut *self);
                catch_unwind(move || {
                    let this = this;
                    this.0.attempt_cell(i, deadline)
                })
            };
            let error = match attempt {
                Ok(Ok(true)) => {
                    self.cells[i].status = CellStatus::Done;
                    self.persist_journal()?;
                    return Ok(());
                }
                Ok(Ok(false)) => SweepError {
                    cell: self.cells[i].id.clone(),
                    attempts: self.cells[i].attempts,
                    kind: SweepErrorKind::TimedOut,
                    message: format!("attempt exceeded its {:?} deadline", self.opts.deadline),
                },
                Ok(Err(e)) => return Err(e),
                Err(payload) => SweepError {
                    cell: self.cells[i].id.clone(),
                    attempts: self.cells[i].attempts,
                    kind: SweepErrorKind::Panicked,
                    message: panic_message(payload.as_ref()),
                },
            };
            eprintln!("orchestrator: {error}");
            if self.cells[i].attempts >= self.opts.max_attempts {
                self.cells[i].status = CellStatus::Failed;
                self.cells[i].error = Some(error);
                self.persist_journal()?;
                return Ok(());
            }
            self.persist_journal()?;
            let delay = self
                .opts
                .retry_delay(&self.cells[i].id, self.cells[i].attempts);
            std::thread::sleep(delay);
        }
    }

    /// One attempt at a cell: run its remaining seeds, journaling each
    /// as it completes and checkpointing within long runs.
    /// `Ok(true)` = the cell is complete, `Ok(false)` = the deadline
    /// expired (with a fresh checkpoint on disk).
    fn attempt_cell(&mut self, i: usize, deadline: Instant) -> io::Result<bool> {
        match self.cells[i].kind {
            CellKind::Sweep { ri, si } => self.attempt_sweep_cell(i, ri, si, deadline),
            CellKind::Scripted => self.attempt_scripted_cell(i, deadline),
        }
    }

    fn attempt_sweep_cell(
        &mut self,
        i: usize,
        ri: usize,
        si: usize,
        deadline: Instant,
    ) -> io::Result<bool> {
        let rate = self.plan.rates[ri];
        let (router, k) = self.plan.schemes[si];
        let horizon = self.plan.cfg.horizon();
        while (self.cells[i].sweep_seeds.len() as u64) < self.plan.seeds {
            let seed = self.cells[i].sweep_seeds.len() as u64;
            let snap_path = self.snapshot_path(i, seed);

            // Resume from the checkpoint if one is on disk and valid;
            // otherwise build the seed's simulator from scratch.
            let mut sim = match load_snapshot(&snap_path, router) {
                Some(sim) => sim,
                None => match self.plan.build_sim(rate, router, seed) {
                    Ok(sim) => sim,
                    Err(e) => {
                        // An experiment-level failure, exactly as the
                        // inline harness records it.
                        let display = e.to_string();
                        let f = Failure {
                            experiment: "chaos-sweep".into(),
                            topology: self.plan.label.clone(),
                            scheme: router.name(),
                            k,
                            x: rate,
                            seed,
                            error: e,
                        };
                        self.finish_sweep_seed_entry(
                            i,
                            &snap_path,
                            SeedOutcome::Failed {
                                json: failure_to_json(&f),
                                display,
                            },
                        )?;
                        continue;
                    }
                },
            };

            let mut log = MonitorLog::new();
            let outcome = loop {
                let until = sim.now().saturating_add(self.opts.checkpoint_cycles);
                match sim.run_monitored_until(until, 1_000, &mut log) {
                    Err(e) => {
                        let display = e.to_string();
                        let f = Failure {
                            experiment: "chaos-sweep".into(),
                            topology: self.plan.label.clone(),
                            scheme: router.name(),
                            k,
                            x: rate,
                            seed,
                            error: e,
                        };
                        break SeedOutcome::Failed {
                            json: failure_to_json(&f),
                            display,
                        };
                    }
                    Ok(fatal) => {
                        let done = fatal || sim.now() >= horizon;
                        if done {
                            if !fatal {
                                log.absorb(sim.check_invariants());
                            }
                            let stats = sim.stats();
                            let findings = std::mem::take(&mut log).into_findings();
                            break SeedOutcome::Ok(finish_sweep_seed(&sim, stats, findings));
                        }
                        // Mid-run checkpoint: persist, then honor the
                        // attempt deadline (the checkpoint makes the
                        // timeout cheap to retry).
                        write_atomic(&snap_path, &sim.snapshot())?;
                        if Instant::now() >= deadline {
                            return Ok(false);
                        }
                    }
                }
            };
            self.finish_sweep_seed_entry(i, &snap_path, outcome)?;
        }
        Ok(true)
    }

    fn finish_sweep_seed_entry(
        &mut self,
        i: usize,
        snap_path: &Path,
        outcome: SeedOutcome<SweepSeedOutcome>,
    ) -> io::Result<()> {
        self.cells[i].sweep_seeds.push(outcome);
        let _ = std::fs::remove_file(snap_path);
        self.persist_journal()
    }

    fn attempt_scripted_cell(&mut self, i: usize, deadline: Instant) -> io::Result<bool> {
        let window = self.splan.window;
        let n_windows = self.splan.n_windows() as u64;
        let windows_per_checkpoint = (self.opts.checkpoint_cycles / window).max(1);
        while (self.cells[i].scripted_seeds.len() as u64) < self.splan.seeds {
            let seed = self.cells[i].scripted_seeds.len() as u64;
            let snap_path = self.snapshot_path(i, seed);

            // Resume mid-seed only when the snapshot and the journaled
            // window deltas agree on the cycle; any inconsistency
            // restarts the seed (it is deterministic either way).
            let resumed = self.cells[i]
                .partial_deliveries
                .take()
                .and_then(|deliveries| {
                    let sim = load_snapshot(&snap_path, RouterKind::DModK)?;
                    (sim.now() == deliveries.len() as u64 * window).then_some((sim, deliveries))
                });
            let (mut sim, mut deliveries) = match resumed {
                Some(pair) => pair,
                None => match self.splan.build_sim(seed) {
                    Ok(sim) => (sim, Vec::new()),
                    Err(e) => {
                        let display = e.to_string();
                        let f = self.splan.failure(seed, e);
                        self.finish_scripted_seed_entry(
                            i,
                            &snap_path,
                            SeedOutcome::Failed {
                                json: failure_to_json(&f),
                                display,
                            },
                        )?;
                        continue;
                    }
                },
            };

            let mut prev_delivered = sim.lifetime_counters().1;
            for w in deliveries.len() as u64..n_windows {
                while sim.now() < (w + 1) * window {
                    sim.step();
                }
                let (_, delivered) = sim.lifetime_counters();
                deliveries.push(delivered - prev_delivered);
                prev_delivered = delivered;
                let at_checkpoint = (w + 1).is_multiple_of(windows_per_checkpoint);
                if at_checkpoint && w + 1 < n_windows {
                    write_atomic(&snap_path, &sim.snapshot())?;
                    self.cells[i].partial_deliveries = Some(deliveries.clone());
                    self.persist_journal()?;
                    if Instant::now() >= deadline {
                        return Ok(false);
                    }
                }
            }
            let outcome = SeedOutcome::Ok(finish_scripted_seed(&mut sim, deliveries));
            self.finish_scripted_seed_entry(i, &snap_path, outcome)?;
        }
        Ok(true)
    }

    fn finish_scripted_seed_entry(
        &mut self,
        i: usize,
        snap_path: &Path,
        outcome: SeedOutcome<ScriptedSeedOutcome>,
    ) -> io::Result<()> {
        self.cells[i].scripted_seeds.push(outcome);
        self.cells[i].partial_deliveries = None;
        let _ = std::fs::remove_file(snap_path);
        self.persist_journal()
    }

    fn snapshot_path(&self, i: usize, seed: u64) -> PathBuf {
        self.opts
            .results_dir
            .join("snapshots")
            .join(format!("{}-seed{}.snap", self.cells[i].id, seed))
    }

    fn persist_journal(&self) -> io::Result<()> {
        let text = journal_to_json(self.opts.quick, &self.cells);
        write_atomic(&self.opts.results_dir.join("journal.json"), text.as_bytes())
    }
}

/// Best-effort text of a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Write-then-rename so readers (and crashed writers) never observe a
/// half-written file.
fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, bytes)?;
    std::fs::rename(&tmp, path)
}

/// Restore a checkpoint if the file exists and passes the snapshot
/// format's integrity checks; a corrupt file is deleted and the seed
/// recomputes from scratch.
fn load_snapshot<R: Router>(path: &Path, router: R) -> Option<FlitSim<R>> {
    let bytes = std::fs::read(path).ok()?;
    match FlitSim::restore(router, &bytes) {
        Ok(sim) => {
            eprintln!(
                "orchestrator: resuming {} from cycle {}",
                path.display(),
                sim.now()
            );
            Some(sim)
        }
        Err(e) => {
            eprintln!(
                "orchestrator: discarding corrupt checkpoint {}: {e}",
                path.display()
            );
            let _ = std::fs::remove_file(path);
            None
        }
    }
}

fn fresh_cells(plan: &SweepPlan) -> Vec<CellState> {
    let mut cells = Vec::new();
    for ri in 0..plan.rates.len() {
        for si in 0..plan.schemes.len() {
            cells.push(CellState {
                id: format!("sweep-r{ri}-s{si}"),
                kind: CellKind::Sweep { ri, si },
                status: CellStatus::Pending,
                attempts: 0,
                error: None,
                sweep_seeds: Vec::new(),
                scripted_seeds: Vec::new(),
                partial_deliveries: None,
            });
        }
    }
    cells.push(CellState {
        id: "scripted".to_owned(),
        kind: CellKind::Scripted,
        status: CellStatus::Pending,
        attempts: 0,
        error: None,
        sweep_seeds: Vec::new(),
        scripted_seeds: Vec::new(),
        partial_deliveries: None,
    });
    cells
}

// ---------------------------------------------------------------------
// Journal serialization. Hand-rolled like the rest of the crate's JSON;
// f64s are journaled as *strings* of their shortest-roundtrip decimal
// form so reloading recovers the exact bits.
// ---------------------------------------------------------------------

fn json_exact_f64(v: f64) -> String {
    json_string(&format!("{v}"))
}

fn journal_to_json(quick: bool, cells: &[CellState]) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"version\": {JOURNAL_VERSION},\n"));
    out.push_str("  \"harness\": \"chaos\",\n");
    out.push_str(&format!("  \"quick\": {quick},\n"));
    out.push_str("  \"cells\": [");
    for (i, cell) in cells.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str("    {\n");
        out.push_str(&format!("      \"id\": {},\n", json_string(&cell.id)));
        let status = match cell.status {
            CellStatus::Pending => "pending",
            CellStatus::Done => "done",
            CellStatus::Failed => "failed",
        };
        out.push_str(&format!("      \"status\": \"{status}\",\n"));
        out.push_str(&format!("      \"attempts\": {},\n", cell.attempts));
        if let Some(e) = &cell.error {
            out.push_str(&format!(
                "      \"error\": {{\"kind\": \"{}\", \"message\": {}}},\n",
                e.kind.tag(),
                json_string(&e.message)
            ));
        }
        if let Some(partial) = &cell.partial_deliveries {
            out.push_str(&format!(
                "      \"partial_deliveries\": {},\n",
                u64_array(partial)
            ));
        }
        out.push_str("      \"seeds\": [");
        let mut first = true;
        let mut push_seed = |body: String| {
            if first {
                out.push('\n');
                first = false;
            } else {
                out.push_str(",\n");
            }
            out.push_str("        ");
            out.push_str(&body);
        };
        match cell.kind {
            CellKind::Sweep { .. } => {
                for (seed, so) in cell.sweep_seeds.iter().enumerate() {
                    push_seed(sweep_seed_to_json(seed, so));
                }
            }
            CellKind::Scripted => {
                for (seed, so) in cell.scripted_seeds.iter().enumerate() {
                    push_seed(scripted_seed_to_json(seed, so));
                }
            }
        }
        if !first {
            out.push_str("\n      ");
        }
        out.push_str("]\n    }");
    }
    out.push_str("\n  ]\n}\n");
    out
}

fn u64_array(values: &[u64]) -> String {
    let items: Vec<String> = values.iter().map(u64::to_string).collect();
    format!("[{}]", items.join(", "))
}

fn string_array(values: &[String]) -> String {
    let items: Vec<String> = values.iter().map(|s| json_string(s)).collect();
    format!("[{}]", items.join(", "))
}

fn sweep_seed_to_json(seed: usize, so: &SeedOutcome<SweepSeedOutcome>) -> String {
    match so {
        SeedOutcome::Ok(o) => format!(
            "{{\"seed\": {seed}, \"ok\": {{\"thru\": {}, \"p50\": {}, \"p99\": {}, \
             \"retx\": {}, \"reconv\": {}, \"max_reconv\": {}, \"errors\": {}}}}}",
            json_exact_f64(o.thru),
            json_exact_f64(o.p50),
            json_exact_f64(o.p99),
            json_exact_f64(o.retx),
            json_exact_f64(o.reconv),
            o.max_reconv,
            string_array(&o.errors)
        ),
        SeedOutcome::Failed { json, display } => failed_seed_to_json(seed, json, display),
    }
}

fn scripted_seed_to_json(seed: usize, so: &SeedOutcome<ScriptedSeedOutcome>) -> String {
    match so {
        SeedOutcome::Ok(o) => format!(
            "{{\"seed\": {seed}, \"ok\": {{\"deliveries\": {}, \"mean_reconverge\": {}, \
             \"errors\": {}}}}}",
            u64_array(&o.deliveries),
            json_exact_f64(o.mean_reconverge),
            string_array(&o.errors)
        ),
        SeedOutcome::Failed { json, display } => failed_seed_to_json(seed, json, display),
    }
}

fn failed_seed_to_json(seed: usize, json: &str, display: &str) -> String {
    format!(
        "{{\"seed\": {seed}, \"failed\": {{\"json\": {}, \"display\": {}}}}}",
        json_string(json),
        json_string(display)
    )
}

// ---------------------------------------------------------------------
// Journal loading. Any structural problem yields Err(reason) and the
// caller falls back to a fresh sweep.
// ---------------------------------------------------------------------

fn load_journal(text: &str, quick: bool, expected: &[CellState]) -> Result<Vec<CellState>, String> {
    let doc = jsonio::parse(text).map_err(|e| e.to_string())?;
    let bad = |e: jsonio::FieldError| e.to_string();
    if doc.req_uint::<u64>("version").map_err(bad)? != JOURNAL_VERSION {
        return Err("journal version mismatch".into());
    }
    if doc.req_str("harness").map_err(bad)? != "chaos" {
        return Err("journal is for a different harness".into());
    }
    if doc.req_bool("quick").map_err(bad)? != quick {
        return Err("journal was recorded at a different statistical budget".into());
    }
    let cells_json = doc.req_arr("cells").map_err(bad)?;
    if cells_json.len() != expected.len() {
        return Err("journal cell grid does not match the plan".into());
    }
    let mut cells = Vec::with_capacity(expected.len());
    for (cell_json, proto) in cells_json.iter().zip(expected) {
        let bad = |e: jsonio::FieldError| format!("cell {}: {e}", proto.id);
        if cell_json.req_str("id").map_err(bad)? != proto.id {
            return Err(format!("journal cell order mismatch at {}", proto.id));
        }
        let status = match cell_json.req_str("status").map_err(bad)? {
            "pending" => CellStatus::Pending,
            "done" => CellStatus::Done,
            "failed" => CellStatus::Failed,
            _ => return Err(format!("cell {} has an invalid status", proto.id)),
        };
        let attempts = cell_json.req_uint::<u32>("attempts").map_err(bad)?;
        let error = match cell_json.get("error") {
            None => None,
            Some(e) => Some(SweepError {
                cell: proto.id.clone(),
                attempts,
                kind: SweepErrorKind::from_tag(e.req_str("kind").map_err(bad)?)
                    .ok_or_else(|| format!("cell {} has an invalid error kind", proto.id))?,
                message: e.req_str("message").map_err(bad)?.to_owned(),
            }),
        };
        let partial_deliveries = match cell_json.get("partial_deliveries") {
            None => None,
            Some(v) => Some(
                parse_u64_array(v)
                    .ok_or_else(|| format!("cell {} has malformed partial deliveries", proto.id))?,
            ),
        };
        let mut state = CellState {
            id: proto.id.clone(),
            kind: proto.kind,
            status,
            attempts,
            error,
            sweep_seeds: Vec::new(),
            scripted_seeds: Vec::new(),
            partial_deliveries,
        };
        let seeds = cell_json.req_arr("seeds").map_err(bad)?;
        for (n, seed_json) in seeds.iter().enumerate() {
            if seed_json.req_uint::<usize>("seed").map_err(bad)? != n {
                return Err(format!("cell {} seeds are out of order", proto.id));
            }
            match proto.kind {
                CellKind::Sweep { .. } => state.sweep_seeds.push(
                    parse_seed(seed_json, parse_sweep_ok)
                        .ok_or_else(|| format!("cell {} seed {n} is malformed", proto.id))?,
                ),
                CellKind::Scripted => state.scripted_seeds.push(
                    parse_seed(seed_json, parse_scripted_ok)
                        .ok_or_else(|| format!("cell {} seed {n} is malformed", proto.id))?,
                ),
            }
        }
        cells.push(state);
    }
    Ok(cells)
}

fn parse_seed<T>(
    seed_json: &Value,
    parse_ok: impl Fn(&Value) -> Option<T>,
) -> Option<SeedOutcome<T>> {
    if let Some(ok) = seed_json.get("ok") {
        return parse_ok(ok).map(SeedOutcome::Ok);
    }
    let failed = seed_json.get("failed")?;
    Some(SeedOutcome::Failed {
        json: failed.get("json")?.as_str()?.to_owned(),
        display: failed.get("display")?.as_str()?.to_owned(),
    })
}

/// An f64 journaled as its shortest-roundtrip decimal string.
fn parse_exact_f64(v: &Value) -> Option<f64> {
    v.as_str()?.parse().ok()
}

fn parse_u64_array(v: &Value) -> Option<Vec<u64>> {
    v.as_arr()?.iter().map(Value::as_u64).collect()
}

fn parse_string_array(v: &Value) -> Option<Vec<String>> {
    v.as_arr()?
        .iter()
        .map(|s| s.as_str().map(str::to_owned))
        .collect()
}

fn parse_sweep_ok(ok: &Value) -> Option<SweepSeedOutcome> {
    Some(SweepSeedOutcome {
        thru: parse_exact_f64(ok.get("thru")?)?,
        p50: parse_exact_f64(ok.get("p50")?)?,
        p99: parse_exact_f64(ok.get("p99")?)?,
        retx: parse_exact_f64(ok.get("retx")?)?,
        reconv: parse_exact_f64(ok.get("reconv")?)?,
        max_reconv: ok.get("max_reconv")?.as_u64()?,
        errors: parse_string_array(ok.get("errors")?)?,
    })
}

fn parse_scripted_ok(ok: &Value) -> Option<ScriptedSeedOutcome> {
    Some(ScriptedSeedOutcome {
        deliveries: parse_u64_array(ok.get("deliveries")?)?,
        mean_reconverge: parse_exact_f64(ok.get("mean_reconverge")?)?,
        errors: parse_string_array(ok.get("errors")?)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_cells() -> Vec<CellState> {
        let plan = SweepPlan::new(true);
        let mut cells = fresh_cells(&plan);
        cells[0].status = CellStatus::Done;
        cells[0].attempts = 1;
        cells[0].sweep_seeds = vec![
            SeedOutcome::Ok(SweepSeedOutcome {
                thru: 0.3437152777777778,
                p50: 41.0,
                p99: 153.0,
                retx: 0.0021857923497267762,
                reconv: f64::NAN,
                max_reconv: 212,
                errors: vec![],
            }),
            SeedOutcome::Failed {
                json: "    {\n      \"experiment\": \"chaos-sweep\"\n    }".into(),
                display: "deadlock at cycle 12".into(),
            },
        ];
        cells[1].attempts = 2;
        cells[1].error = Some(SweepError {
            cell: cells[1].id.clone(),
            attempts: 2,
            kind: SweepErrorKind::Panicked,
            message: "index out of bounds".into(),
        });
        cells[1].status = CellStatus::Failed;
        let last = cells.len() - 1;
        cells[last].partial_deliveries = Some(vec![417, 1290, 1288]);
        cells[last].scripted_seeds = vec![SeedOutcome::Ok(ScriptedSeedOutcome {
            deliveries: vec![400, 1280, 1281, 1279],
            mean_reconverge: 2350.5,
            errors: vec!["RT-CONSERVE: flit conservation broke".into()],
        })];
        cells
    }

    #[test]
    fn journal_roundtrips_exactly() {
        let cells = sample_cells();
        let text = journal_to_json(true, &cells);
        let expected = fresh_cells(&SweepPlan::new(true));
        let loaded = load_journal(&text, true, &expected).expect("journal reloads");
        assert_eq!(loaded.len(), cells.len());
        for (a, b) in loaded.iter().zip(cells.iter()) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.status, b.status);
            assert_eq!(a.attempts, b.attempts);
            assert_eq!(a.error, b.error);
            assert_eq!(a.partial_deliveries, b.partial_deliveries);
            assert_eq!(a.scripted_seeds, b.scripted_seeds);
            // NaN-bearing outcomes compare by bits, not PartialEq.
            assert_eq!(a.sweep_seeds.len(), b.sweep_seeds.len());
            for (x, y) in a.sweep_seeds.iter().zip(b.sweep_seeds.iter()) {
                match (x, y) {
                    (SeedOutcome::Ok(x), SeedOutcome::Ok(y)) => {
                        assert_eq!(x.thru.to_bits(), y.thru.to_bits());
                        assert_eq!(x.p50.to_bits(), y.p50.to_bits());
                        assert_eq!(x.p99.to_bits(), y.p99.to_bits());
                        assert_eq!(x.retx.to_bits(), y.retx.to_bits());
                        assert_eq!(x.reconv.is_nan(), y.reconv.is_nan());
                        assert_eq!(x.max_reconv, y.max_reconv);
                        assert_eq!(x.errors, y.errors);
                    }
                    (x, y) => assert_eq!(x, y),
                }
            }
        }
    }

    #[test]
    fn mismatched_journals_are_discarded() {
        let cells = sample_cells();
        let text = journal_to_json(true, &cells);
        let expected = fresh_cells(&SweepPlan::new(true));
        // Wrong budget.
        assert!(load_journal(&text, false, &fresh_cells(&SweepPlan::new(false))).is_err());
        // Wrong version.
        let bumped = text.replace("\"version\": 1", "\"version\": 99");
        assert!(load_journal(&bumped, true, &expected).is_err());
        // Truncated file.
        assert!(load_journal(&text[..text.len() / 2], true, &expected).is_err());
        // Reordered cells.
        let swapped = text.replace("sweep-r0-s0", "sweep-r9-s9");
        assert!(load_journal(&swapped, true, &expected).is_err());
        // An attempt count past `u32` is refused by name, not wrapped to 1
        // (which would let the cell outlive `max_attempts`).
        let wrapped = text.replacen("\"attempts\": 1,", "\"attempts\": 4294967297,", 1);
        assert_ne!(wrapped, text);
        let reason = load_journal(&wrapped, true, &expected)
            .err()
            .expect("an over-range attempt count is discarded");
        assert!(reason.contains("\"attempts\""), "{reason}");
    }

    #[test]
    fn backoff_is_capped() {
        let opts = OrchestratorOptions::new("/tmp/unused", true);
        // Past the cap the jittered delay lives in [cap/2, cap].
        for attempt in [7u32, 16, 30, u32::MAX] {
            let d = opts.retry_delay("sweep-r0-s0", attempt);
            assert!(d <= opts.backoff_cap, "attempt {attempt}: {d:?} over cap");
            assert!(
                d >= opts.backoff_cap / 2,
                "attempt {attempt}: {d:?} under half-cap"
            );
        }
    }

    #[test]
    fn retry_delays_are_deterministic_jittered_and_spread() {
        let opts = OrchestratorOptions::new("/tmp/unused", true);

        // Deterministic: the same (cell, attempt) always waits the same.
        for attempt in 1..=6 {
            assert_eq!(
                opts.retry_delay("sweep-r1-s2", attempt),
                opts.retry_delay("sweep-r1-s2", attempt),
            );
        }

        // Bounded: attempt n sits in [base·2ⁿ⁻¹/2, base·2ⁿ⁻¹] ∩ [0, cap].
        for attempt in 1..=6 {
            let base = opts
                .backoff_base
                .saturating_mul(1u32 << (attempt - 1))
                .min(opts.backoff_cap);
            let d = opts.retry_delay("scripted", attempt);
            assert!(d <= base, "attempt {attempt}: {d:?} > {base:?}");
            assert!(d >= base / 2, "attempt {attempt}: {d:?} < {:?}", base / 2);
        }

        // Anti-herding: simultaneous first retries of different cells
        // must not collapse onto one instant. With ≥50 ms of jitter
        // range, requiring ≥3 distinct delays among 6 cells is safe for
        // any non-degenerate hash.
        let cells = [
            "sweep-r0-s0",
            "sweep-r0-s1",
            "sweep-r1-s0",
            "sweep-r1-s1",
            "sweep-r2-s0",
            "scripted",
        ];
        let mut delays: Vec<Duration> = cells.iter().map(|c| opts.retry_delay(c, 1)).collect();
        delays.sort();
        delays.dedup();
        assert!(
            delays.len() >= 3,
            "first-retry delays herd together: {delays:?}"
        );
    }
}
