//! Seeded chaos soak for the routing-controller daemon.
//!
//! ```text
//! ctl_soak [--seed N] [--out CTL_SOAK.json]
//! ```
//!
//! Runs a real daemon (socket and all) on `8port2tree` with
//! `disjoint(4)`, its checkpoint store drawing seeded storage faults and
//! its feeder connections behind client-side `FaultyStream`s, under the
//! escalating failpoint schedule of [`lmpr_ctld::soak::escalation`].
//! A Poisson fault timeline supplies the batch contents; the feeder
//! submits one batch per epoch while query threads hammer `paths`.
//! Every injected crash or fatal storage fault fail-stops the daemon;
//! the harness then scans the state directory with an *unfaulted*
//! store, restarts the daemon, and records what recovery was entitled
//! to against what it produced.
//!
//! After the escalation, a **failover phase** of a fixed length
//! ([`FAILOVER_PHASE`]): a hot standby subscribes to the primary and
//! replicates its committed epochs into its own directory; each time
//! the primary fail-stops under the failover rates, the harness
//! *promotes* the standby — generation bump, in-process catch-up on the
//! full submitted feed, stale-write probe at the deposed generation —
//! and spawns the next daemon incarnation on the promoted state at the
//! *other* socket. The feeder (which holds both endpoints) must cross
//! each failover with an endpoint switch and a generation-fence retry,
//! losing no acked batch. The standby then stops and the promoted
//! lineage serves [`SETTLE_BATCHES`] more batches.
//!
//! This binary keeps what needs threads, sockets and clocks; the
//! transcript, the quotas and the document live in [`lmpr_ctld::soak`],
//! whose [`SoakLedger::report`] judges the transcript into a
//! verify-style certificate (`CTL-SOAK-EPOCH/SERVE/RECOVER/BATCH` plus
//! `CTL-SOAK-FAILOVER/GEN`), cross-checked against an offline replay of
//! the same batches on a fresh controller. The document holds only
//! logical fields, so two same-seed runs are byte-identical;
//! wall-clock tallies (the feeder's own wire faults, reconnects and
//! resubmissions, the query and standby counts) go to stderr.
//!
//! Exit status: 0 when the certificate is clean *and* the
//! fault/crash/promotion quotas were met; 1 on harness errors; 2 when
//! the run completed but the certificate has findings or the quotas
//! were missed.

#![forbid(unsafe_code)]

use lmpr_core::{Router, RouterKind};
use lmpr_ctld::soak::{
    escalation, BatchAck, PromotionRecord, RestartCause, RestartRecord, ScratchDir, SoakLedger,
    SoakPhase, FAILOVER_PHASE, MAX_BATCHES, SETTLE_BATCHES,
};
use lmpr_ctld::store::RETAIN;
use lmpr_ctld::{
    serve, ChangeSpec, Checkpoint, Client, ClientConfig, Controller, CtlConfig, FailPlan,
    FaultCounters, ReplicaConfig, Response, RetryPolicy, ServerConfig, Standby, Store, StoreError,
};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;
use xgft::FaultSchedule;

const TOPO: &str = "8port2tree";
const KIND: RouterKind = RouterKind::Disjoint(4);
/// Poisson feed shape: only the *contents* of the fault batches come
/// from this timeline; the daemon's own schedule stays empty (the feed
/// arrives over the socket).
const FAIL_RATE: f64 = 2e-5;
const MEAN_REPAIR: f64 = 2_000.0;
const HORIZON: u64 = 200_000;
const SCHEDULE_SEED: u64 = 11;
/// Read-only query workers hammering `paths` beside the feeder.
const QUERY_WORKERS: u64 = 2;

struct Args {
    seed: u64,
    out: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        seed: 42,
        out: "CTL_SOAK.json".to_owned(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = |what: &str| it.next().ok_or(format!("{what} requires a value"));
        match flag.as_str() {
            "--seed" => {
                args.seed = val("--seed")?
                    .parse()
                    .map_err(|e| format!("bad seed: {e}"))?
            }
            "--out" => args.out = val("--out")?,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(args)
}

/// Map a dead daemon's stringified exit error onto a restart cause;
/// `None` means the death was not one we injected — a real bug.
fn classify(err: &str) -> Option<RestartCause> {
    if err.contains("injected failpoint crash") {
        Some(RestartCause::Crash)
    } else if err.contains("injected") {
        Some(RestartCause::FatalFault)
    } else {
        None
    }
}

/// Whether a feeder-side failure means the daemon itself is going (or
/// has gone) down, as opposed to the feeder's own injected wire chaos.
fn daemon_down_signature(err: &str) -> bool {
    err.contains("shutting down")
        || err.contains("Connection refused")
        || err.contains("No such file")
}

/// One query worker: read-only `paths` batches with client-side wire
/// faults and a read timeout. Sound epoch checks only — a reply's epoch
/// must never regress below one this worker has already seen (commits
/// are serial, and this worker pipelines nothing) and must never exceed
/// the feeder's submitted watermark (commits only follow submissions).
/// Returns `(answered, errors)` for stderr accounting.
fn query_worker(
    endpoints: Vec<PathBuf>,
    plan: FailPlan,
    stop: Arc<AtomicBool>,
    batches_sent: Arc<AtomicU64>,
    violations: Arc<AtomicU64>,
) -> (u64, u64) {
    let mut client = Client::with_config(ClientConfig {
        endpoints,
        retry: RetryPolicy {
            base_ms: 5,
            cap_ms: 40,
            max_attempts: 3,
        },
        read_timeout_ms: Some(200),
        wire_faults: Some(plan),
    });
    let pairs = [(0u32, 9u32), (3, 17), (8, 30)];
    let (mut answered, mut errors) = (0u64, 0u64);
    let mut newest_seen = 0u64;
    while !stop.load(Ordering::SeqCst) {
        match client.paths(&pairs, Some(2_000)) {
            Ok((epoch, _)) => {
                answered += 1;
                let sent = batches_sent.load(Ordering::SeqCst);
                if epoch < newest_seen || epoch > sent {
                    violations.fetch_add(1, Ordering::SeqCst);
                    eprintln!(
                        "ctl_soak: query epoch {epoch} outside committed set \
                         (seen {newest_seen}, sent {sent})"
                    );
                }
                newest_seen = newest_seen.max(epoch);
            }
            Err(_) => {
                // Daemon mid-restart or our own chaos; pace and retry.
                errors += 1;
                std::thread::sleep(Duration::from_millis(5));
            }
        }
    }
    (answered, errors)
}

/// The harness state: the daemon thread, the serial feeder, the
/// standby (in the failover phase), and the transcript.
struct Harness {
    /// Scratch root; standby directories are created under it.
    root: PathBuf,
    /// The *current primary's* state directory (reassigned to the
    /// promoted standby's directory at each failover).
    state_dir: PathBuf,
    /// Both daemon sockets, the live primary's first (each promotion
    /// swaps them): the ordered endpoint list every client runs with, so
    /// a promotion costs it one failover dial.
    sockets: [PathBuf; 2],
    feed: Vec<ChangeSpec>,
    storage_counters: FaultCounters,
    /// Next daemon incarnation index (0 is the initial boot).
    incarnations: u64,
    daemon: Option<JoinHandle<Result<(), String>>>,
    feeder: Option<Client>,
    /// Feeder client generation; each gets an independent wire plan.
    feeder_gen: u64,
    /// Retired feeders' wall-clock tallies, for stderr.
    feeder_tally: FeederTally,
    batches_atomic: Arc<AtomicU64>,
    last_acked: u64,
    /// The hot standby, present only during the failover phase.
    standby: Option<Standby>,
    /// Standby replica generation; each gets its own directory and an
    /// independent wire plan.
    standby_gen: u64,
    /// The current standby's state directory.
    standby_dir: PathBuf,
    ledger: SoakLedger,
}

impl Harness {
    /// Batch `batch`'s changes: the feed, cycled, one change a batch.
    fn batch_changes(&self, batch: u64) -> Vec<ChangeSpec> {
        vec![self.feed[usize::try_from(batch - 1).unwrap_or(0) % self.feed.len()]]
    }

    /// Spawn the next daemon incarnation under `phase`'s storage rates.
    fn spawn(&mut self, phase: &SoakPhase) {
        let plan = FailPlan::new(
            self.ledger.seed,
            phase.storage_permille,
            0,
            phase.crash_permille,
        )
        .derive(self.incarnations);
        self.incarnations += 1;
        let state_dir = self.state_dir.clone();
        let socket = self.sockets[0].clone();
        let counters = self.storage_counters.clone();
        self.daemon = Some(std::thread::spawn(move || {
            let cfg = CtlConfig::new(TOPO, KIND, &state_dir);
            let (ctl, report) =
                Controller::start_with_faults(cfg, plan, counters).map_err(|e| e.to_string())?;
            if !report.certified() {
                return Err("genesis certificate failed".to_owned());
            }
            serve(ctl, ServerConfig::new(&socket)).map_err(|e| e.to_string())
        }));
    }

    /// Replace the feeder client: retire the old one, then dial a fresh
    /// generation under `phase`'s wire rate. A fresh client after every
    /// restart also guarantees no half-dead connection's kernel
    /// buffering can shift op counts.
    fn new_feeder(&mut self, phase: &SoakPhase) {
        self.retire_feeder();
        let plan = FailPlan {
            no_drop: true,
            ..FailPlan::new(self.ledger.seed, 0, phase.wire_permille, 0)
        }
        .derive(1_000_000 + self.feeder_gen);
        self.feeder_gen += 1;
        self.feeder = Some(Client::with_config(ClientConfig {
            endpoints: self.sockets.to_vec(),
            retry: RetryPolicy {
                base_ms: 2,
                cap_ms: 50,
                max_attempts: 4,
            },
            // No read timeout: the feeder's fault plan never drops or
            // desynchronizes its own frames (`no_drop`), so every
            // failure is an in-band error or a visible disconnect.
            read_timeout_ms: None,
            wire_faults: Some(plan),
        }));
    }

    /// Fold the current feeder's failovers, fence retries and lease into
    /// the transcript, and its wall-clock counts into the stderr tally.
    fn retire_feeder(&mut self) {
        if let Some(old) = self.feeder.take() {
            let stats = old.stats();
            self.feeder_tally.wire_faults += old.fault_counters().injected_count();
            self.feeder_tally.reconnects += stats.reconnects;
            self.feeder_tally.resubmissions += stats.resubmissions;
            self.ledger.feeder_failovers += stats.failovers;
            self.ledger.feeder_gen_retries += stats.gen_retries;
            self.ledger.feeder_final_lease = old.last_gen();
        }
    }

    /// A plain, unfaulted, short-timeout client for control actions
    /// whose traffic must not perturb the deterministic transcript.
    fn plain_client(&self) -> Client {
        Client::with_config(ClientConfig {
            endpoints: self.sockets.to_vec(),
            retry: RetryPolicy {
                base_ms: 5,
                cap_ms: 20,
                max_attempts: 2,
            },
            read_timeout_ms: Some(2_000),
            wire_faults: None,
        })
    }

    /// Poll until the daemon answers `status`; the serving epoch is the
    /// recovery result. The daemon dying here is unreachable by design
    /// (post-genesis startups only read), so it surfaces as a harness
    /// error rather than another restart.
    fn wait_up(&mut self) -> Result<u64, String> {
        for _ in 0..1_000 {
            if self.daemon.as_ref().is_some_and(JoinHandle::is_finished) {
                let err = self.join_daemon()?;
                return Err(format!("daemon died during startup: {err}"));
            }
            if let Ok(Response::Status { epoch, .. }) = self.plain_client().status() {
                return Ok(epoch);
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        Err("daemon did not come up within 10s".to_owned())
    }

    /// Join the daemon thread, returning its exit error string (`"ok"`
    /// for a clean shutdown).
    fn join_daemon(&mut self) -> Result<String, String> {
        let handle = self.daemon.take().ok_or("no daemon to join")?;
        match handle.join() {
            Ok(Ok(())) => Ok("ok".to_owned()),
            Ok(Err(e)) => Ok(e),
            Err(_) => Err("daemon thread panicked".to_owned()),
        }
    }

    /// The newest checkpoint that validates right now, judged by a
    /// plain unfaulted store — what recovery is entitled to.
    fn scan_newest_valid(&self) -> Option<u64> {
        let mut store = Store::open(&self.state_dir, RETAIN).ok()?;
        store.load_latest().ok().map(|cp| cp.epoch)
    }

    /// Restart the (already dead and joined) daemon under `phase` and
    /// record the recovery against the pre-restart disk scan.
    fn restart_cycle(&mut self, phase: &SoakPhase, cause: RestartCause) -> Result<(), String> {
        let newest_valid = self.scan_newest_valid();
        self.spawn(phase);
        self.new_feeder(phase);
        let recovered = self.wait_up()?;
        let record = RestartRecord {
            incarnation: self.incarnations - 1,
            cause,
            last_acked_epoch: self.last_acked,
            newest_valid_on_disk: newest_valid,
            recovered_epoch: recovered,
        };
        eprintln!(
            "ctl_soak: restart #{} ({}) acked={} on-disk={:?} recovered={}",
            record.incarnation,
            cause.tag(),
            record.last_acked_epoch,
            newest_valid,
            recovered
        );
        self.ledger.restarts.push(record);
        Ok(())
    }

    /// Start a fresh standby replica of the current primary in its own
    /// directory, and wait until it has applied the primary's snapshot
    /// — a promotion before the first sync would (correctly, but
    /// noisily) trip the generation-chain rule.
    fn start_standby(&mut self) -> Result<(), String> {
        self.standby_gen += 1;
        self.standby_dir = self.root.join(format!("standby-{}", self.standby_gen));
        let plan = FailPlan {
            no_drop: true,
            ..FailPlan::new(self.ledger.seed, 0, FAILOVER_PHASE.wire_permille, 0)
        }
        .derive(2_000_000 + self.standby_gen);
        let standby = Standby::spawn(ReplicaConfig {
            primary_socket: self.sockets[0].clone(),
            state_dir: self.standby_dir.clone(),
            redial_base_ms: 5,
            redial_cap_ms: 100,
            wire_faults: Some(plan),
            max_redial_failures: None,
        })
        .map_err(|e| format!("standby spawn failed: {e}"))?;
        for _ in 0..1_000 {
            if standby.stats().epochs_applied >= 1 {
                self.standby = Some(standby);
                return Ok(());
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        let _ = standby.stop();
        Err("standby did not sync within 10s".to_owned())
    }

    /// Stop the standby (if any) and report its counters to stderr —
    /// its progress is wall-clock-dependent and must stay out of the
    /// deterministic JSON.
    fn stop_standby(&mut self) {
        if let Some(s) = self.standby.take() {
            let st = s.stop();
            eprintln!(
                "ctl_soak: standby-{} stopped: connects={} resyncs={} applied={} \
                 stale={} at gen={} epoch={}",
                self.standby_gen,
                st.connects,
                st.resyncs,
                st.epochs_applied,
                st.stale_skipped,
                st.generation,
                st.epoch
            );
        }
    }

    /// The primary just fail-stopped mid-failover-phase: promote the
    /// standby and fail the fabric over to it.
    ///
    /// Promotion is deliberately an *offline, unfaulted* sequence —
    /// exactly what a failover controller script would run — so that
    /// everything the certificate judges is deterministic:
    ///
    /// 1. stop the standby's follower;
    /// 2. start a controller on its directory, bump the generation
    ///    lease (durable before anything is served);
    /// 3. catch up in-process on the full submitted feed — replication
    ///    is asynchronous, so the standby may be an epoch or two
    ///    behind; re-ingesting from its committed cursor through
    ///    `batches_sent` closes the gap idempotently (`epoch ==
    ///    batch_id` holds throughout, so the caught-up epoch *is* the
    ///    batch watermark);
    /// 4. probe the store with a checkpoint at the *deposed*
    ///    generation and record that the fence rejects it;
    /// 5. flip the primary slot and spawn the next (faulted) daemon
    ///    incarnation on the promoted directory at the other socket;
    /// 6. start a fresh standby for the new primary.
    fn promote_cycle(&mut self, phase: &SoakPhase) -> Result<(), String> {
        self.stop_standby();
        let index = self.ledger.promotions.len() as u64 + 1;
        let (mut ctl, _) = Controller::start(CtlConfig::new(TOPO, KIND, &self.standby_dir))
            .map_err(|e| format!("promotion {index}: controller start failed: {e}"))?;
        let gen_before = ctl.generation();
        let gen_after = ctl
            .promote()
            .map_err(|e| format!("promotion {index}: generation bump failed: {e}"))?;
        let caught_up_from = ctl.status().committed_batch_id;
        for batch in caught_up_from + 1..=self.ledger.batches_sent {
            ctl.ingest(batch, &self.batch_changes(batch))
                .map_err(|e| format!("promotion {index}: catch-up of batch {batch}: {e}"))?;
        }
        let promoted_epoch = ctl.epoch();
        drop(ctl);
        // The split-brain probe: a write at the deposed generation must
        // be refused by the durable fence, not just by server logic.
        let probe = Checkpoint {
            generation: gen_before,
            epoch: promoted_epoch + 1,
            now: 0,
            drained_through: 0,
            committed_batch_id: 0,
            failed_links: Vec::new(),
            failed_switches: Vec::new(),
        };
        let stale_write_rejected = match Store::open(&self.standby_dir, RETAIN) {
            Ok(mut store) => matches!(
                store.commit(&probe),
                Err(StoreError::StaleGeneration { .. })
            ),
            Err(_) => false,
        };
        // Fail the fabric over: the promoted directory becomes the
        // primary state, served from the other socket. The feeder is
        // NOT replaced — crossing the failover with one client is the
        // point.
        self.sockets.swap(0, 1);
        self.state_dir = self.standby_dir.clone();
        self.spawn(phase);
        let recovered_epoch = self.wait_up()?;
        self.start_standby()?;
        let record = PromotionRecord {
            index,
            gen_before,
            gen_after,
            last_acked_epoch: self.last_acked,
            promoted_epoch,
            resubmitted_through: self.ledger.batches_sent,
            recovered_epoch,
            stale_write_rejected,
            feeder_lease: self.feeder.as_ref().map_or(0, Client::last_gen),
        };
        eprintln!(
            "ctl_soak: promotion #{index} gen {gen_before}->{gen_after} acked={} \
             promoted={promoted_epoch} recovered={recovered_epoch} fence={}",
            record.last_acked_epoch,
            if stale_write_rejected {
                "held"
            } else {
                "BROKEN"
            }
        );
        self.ledger.promotions.push(record);
        Ok(())
    }

    /// Submit the next fault batch, riding out feeder chaos and driving
    /// the crash/restart cycle whenever the daemon fail-stops under it.
    fn drive_batch(&mut self, phase: &SoakPhase) -> Result<(), String> {
        let batch_id = self.ledger.batches_sent + 1;
        let changes = self.batch_changes(batch_id);
        self.ledger.batches_sent = batch_id;
        self.batches_atomic.store(batch_id, Ordering::SeqCst);
        let mut stuck = 0u32;
        loop {
            let feeder = self.feeder.as_mut().ok_or("no feeder client")?;
            match feeder.submit_fault(batch_id, &changes) {
                Ok(applied) => {
                    let epoch = feeder.last_epoch().unwrap_or(0);
                    self.last_acked = self.last_acked.max(epoch);
                    self.ledger.acks.push(BatchAck {
                        batch_id,
                        epoch,
                        applied,
                    });
                    return Ok(());
                }
                Err(e) => {
                    let msg = e.to_string();
                    let dead = self.daemon.as_ref().is_some_and(JoinHandle::is_finished);
                    if dead || daemon_down_signature(&msg) {
                        // join blocks through the server's bounded
                        // teardown when the death signature raced ahead
                        // of thread exit.
                        let err = self.join_daemon()?;
                        let cause = classify(&err)
                            .ok_or_else(|| format!("daemon died unexpectedly: {err}"))?;
                        if self.standby.is_some() {
                            // Failover phase: the standby takes over
                            // instead of restarting in place.
                            self.promote_cycle(phase)?;
                        } else {
                            self.restart_cycle(phase, cause)?;
                        }
                    } else {
                        // The feeder's own wire chaos outlasted one
                        // retry budget; the daemon is fine. Try again —
                        // the daemon's dedup absorbs any duplicate.
                        stuck += 1;
                        if stuck > 50 {
                            return Err(format!("feeder stuck on batch {batch_id}: {msg}"));
                        }
                    }
                }
            }
        }
    }

    /// Graceful shutdown + respawn at a phase boundary (rates are baked
    /// into the daemon's failpoint plan at spawn).
    fn phase_restart(&mut self, next: &SoakPhase) -> Result<(), String> {
        self.plain_client()
            .shutdown()
            .map_err(|e| format!("graceful shutdown failed: {e}"))?;
        let err = self.join_daemon()?;
        if err != "ok" {
            return Err(format!("daemon failed during graceful shutdown: {err}"));
        }
        self.restart_cycle(next, RestartCause::PhaseChange)
    }

    /// Copy the daemon-side fault counters into the ledger. Only the
    /// feeder's serial writes move them, so they are logical.
    fn record_daemon_faults(&mut self) {
        self.ledger.storage_faults = self.storage_counters.injected_count();
        self.ledger.storage_crashes = self.storage_counters.crash_count();
    }
}

/// Feeder tallies that depend on when a reset lands relative to the
/// daemon's reply, so they go to stderr, never into the document.
#[derive(Default)]
struct FeederTally {
    wire_faults: u64,
    reconnects: u64,
    resubmissions: u64,
}

fn run() -> Result<i32, String> {
    let args = parse_args()?;
    lmpr_ctld::check_out_path(&args.out)?;
    let scratch =
        ScratchDir::create(std::env::temp_dir().join(format!("ctl-soak-{}", std::process::id())))
            .map_err(|e| e.to_string())?;
    let root = scratch.0.clone();

    let (label, topo) = xgft::topology_by_name(TOPO).ok_or("soak topology missing")?;
    let schedule = FaultSchedule::poisson(&topo, FAIL_RATE, MEAN_REPAIR, HORIZON, SCHEDULE_SEED);
    let feed: Vec<ChangeSpec> = schedule
        .events()
        .iter()
        .map(|e| ChangeSpec::from_change(e.change))
        .collect();
    if feed.is_empty() {
        return Err("empty fault timeline".to_owned());
    }

    let mut h = Harness {
        state_dir: root.join("state"),
        sockets: [root.join("ctld-a.sock"), root.join("ctld-b.sock")],
        feed,
        storage_counters: FaultCounters::new(),
        incarnations: 0,
        daemon: None,
        feeder: None,
        feeder_gen: 0,
        feeder_tally: FeederTally::default(),
        batches_atomic: Arc::new(AtomicU64::new(0)),
        last_acked: 0,
        standby: None,
        standby_gen: 0,
        standby_dir: root.join("standby-0"),
        root,
        ledger: SoakLedger {
            seed: args.seed,
            ..SoakLedger::new()
        },
    };

    let phases = escalation();
    h.spawn(&phases[0]);
    h.new_feeder(&phases[0]);
    let genesis_epoch = h.wait_up()?;
    if genesis_epoch != 0 {
        return Err(format!(
            "fresh daemon serving epoch {genesis_epoch}, want 0"
        ));
    }

    // Read-only query pressure, reporting to stderr only. Workers get
    // both endpoints up front so they ride the failover phase too.
    let stop = Arc::new(AtomicBool::new(false));
    let violations = Arc::new(AtomicU64::new(0));
    let mut workers = Vec::new();
    for i in 0..QUERY_WORKERS {
        let endpoints = h.sockets.to_vec();
        let plan = FailPlan::new(h.ledger.seed, 0, 100, 0).derive(10_000 + i);
        let stop = Arc::clone(&stop);
        let sent = Arc::clone(&h.batches_atomic);
        let violations = Arc::clone(&violations);
        workers.push(std::thread::spawn(move || {
            query_worker(endpoints, plan, stop, sent, violations)
        }));
    }

    // Walk the escalation, then cycle its last rung until the fault and
    // crash quotas are met (or the batch cap bounds the run).
    let mut phase_ix = 0usize;
    h.ledger.capped = loop {
        let phase = &phases[phase_ix];
        let mut capped = false;
        for _ in 0..phase.batches {
            if h.ledger.batches_sent >= MAX_BATCHES {
                capped = true;
                break;
            }
            h.drive_batch(phase)?;
        }
        h.record_daemon_faults();
        let last = phases.len() - 1;
        if capped || (h.ledger.escalation_quotas_met() && phase_ix == last) {
            break capped;
        }
        let next_ix = (phase_ix + 1).min(last);
        eprintln!(
            "ctl_soak: phase {} done: {} batches, {} faults, {} induced restarts",
            phase.name,
            h.ledger.batches_sent,
            h.ledger.total_faults(),
            h.ledger.induced_restarts()
        );
        h.phase_restart(&phases[next_ix])?;
        phase_ix = next_ix;
    };

    // Failover phase: replicate to a hot standby and feed a fixed
    // number of batches, each daemon death promoting the standby; then
    // stop the standby and feed a few more so the certificate always
    // covers the promoted lineage serving.
    if !h.ledger.capped {
        eprintln!(
            "ctl_soak: entering failover phase after {} batches",
            h.ledger.batches_sent
        );
        h.phase_restart(&FAILOVER_PHASE)?;
        h.start_standby()?;
        for _ in 0..FAILOVER_PHASE.batches {
            h.drive_batch(&FAILOVER_PHASE)?;
        }
        h.stop_standby();
        for _ in 0..SETTLE_BATCHES {
            h.drive_batch(&FAILOVER_PHASE)?;
        }
    }

    // Final accounting through a plain client, then orderly shutdown.
    let mut fin = h.plain_client();
    match fin.status().map_err(|e| e.to_string())? {
        Response::Status {
            epoch,
            committed_batch_id,
            gen,
            ..
        } => {
            h.ledger.final_epoch = epoch;
            h.ledger.final_committed_batch_id = committed_batch_id;
            h.ledger.final_gen = gen;
        }
        other => return Err(format!("unexpected final status: {other:?}")),
    }
    h.ledger.final_digest = fin.digest().map_err(|e| e.to_string())?.1;
    fin.shutdown().map_err(|e| e.to_string())?;
    let exit = h.join_daemon()?;
    if exit != "ok" {
        return Err(format!("daemon failed during final shutdown: {exit}"));
    }
    stop.store(true, Ordering::SeqCst);
    let (mut answered, mut query_errors) = (0u64, 0u64);
    for w in workers {
        let (a, e) = w.join().map_err(|_| "query worker panicked")?;
        answered += a;
        query_errors += e;
    }
    h.retire_feeder();

    // Offline replay: the same batches on a fresh controller, no
    // daemon, no faults. Epoch and digest must agree exactly.
    let (mut mirror, _) = Controller::start(CtlConfig::new(TOPO, KIND, h.root.join("mirror")))
        .map_err(|e| e.to_string())?;
    for batch in 1..=h.ledger.batches_sent {
        mirror
            .ingest(batch, &h.batch_changes(batch))
            .map_err(|e| format!("mirror replay of batch {batch}: {e}"))?;
    }

    h.record_daemon_faults();
    h.ledger.query_epoch_violations = violations.load(Ordering::SeqCst);
    h.ledger.mirror_epoch = mirror.epoch();
    h.ledger.mirror_digest = format!("{:016x}", mirror.digest());

    let report = h.ledger.report(&label, &KIND.name());
    let doc = h.ledger.document(&report);
    std::fs::write(&args.out, &doc).map_err(|e| format!("cannot write {}: {e}", args.out))?;
    print!("{doc}");
    eprintln!(
        "ctl_soak: {} batches, {} faults ({} crashes), {} restarts ({} induced), \
         {} promotions (final gen {}), feeder wire faults {} reconnects {} \
         resubmissions {} failovers {} gen-retries {}, queries answered {answered} \
         errors {query_errors} -> {}",
        h.ledger.batches_sent,
        h.ledger.total_faults(),
        h.ledger.storage_crashes,
        h.ledger.restarts.len(),
        h.ledger.induced_restarts(),
        h.ledger.promotions.len(),
        h.ledger.final_gen,
        h.feeder_tally.wire_faults,
        h.feeder_tally.reconnects,
        h.feeder_tally.resubmissions,
        h.ledger.feeder_failovers,
        h.ledger.feeder_gen_retries,
        args.out,
    );
    Ok(if report.certified() && h.ledger.quotas_met() {
        0
    } else {
        2
    })
}

fn main() {
    match run() {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("ctl_soak: {e}");
            std::process::exit(1);
        }
    }
}
