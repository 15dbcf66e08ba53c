//! State-machine tests: epochs, certificates, degraded mode, crash
//! recovery and kill-and-resume byte identity.

use lmpr_codec::{fnv, splitmix};
use lmpr_core::forwarding::{ForwardingTables, SlotOrder};
use lmpr_core::{Router, RouterKind, SelectionEngine};
use lmpr_ctld::controller::{BACKOFF_BASE_TICKS, BACKOFF_CAP_TICKS};
use lmpr_ctld::{serve, ChangeSpec, Client, Controller, CtlConfig, CtlError, Mode, ServerConfig};
use std::path::PathBuf;
use xgft::{FaultSchedule, FaultSet, PathId, PnId, Topology};

const TOPO: &str = "8port2tree";

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ctld-test-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn base_cfg(tag: &str) -> CtlConfig {
    CtlConfig::new(TOPO, RouterKind::Disjoint(4), temp_dir(tag))
}

fn cleanup(cfg: &CtlConfig) {
    let _ = std::fs::remove_dir_all(&cfg.state_dir);
}

/// Every ordered pair of distinct nodes, source-major.
fn all_pairs(n: u32) -> Vec<(u32, u32)> {
    (0..n)
        .flat_map(|s| (0..n).filter(move |&d| d != s).map(move |d| (s, d)))
        .collect()
}

/// The full query matrix at the current epoch — the "answers" whose
/// byte identity the resume tests assert.
fn all_answers(ctl: &mut Controller) -> Vec<Vec<u64>> {
    let pairs = all_pairs(ctl.topology().num_pns());
    ctl.paths(ctl.epoch(), &pairs).expect("fenced at own epoch")
}

#[test]
fn genesis_certifies_and_checkpoints_epoch_zero() {
    let cfg = base_cfg("genesis");
    let (ctl, report) = Controller::start(cfg.clone()).expect("start");
    assert!(report.certified(), "{:?}", report.findings);
    assert!(!report.checks.is_empty(), "full-scope genesis certificate");
    assert_eq!(ctl.epoch(), 0);
    assert_eq!(ctl.mode(), Mode::Serving);

    // A second start resumes the committed epoch without re-verifying.
    let (ctl2, report2) = Controller::start(cfg.clone()).expect("resume");
    assert_eq!(ctl2.epoch(), 0);
    assert!(report2.checks.is_empty(), "resume does not re-certify");
    cleanup(&cfg);
}

#[test]
fn fault_feed_commits_certified_epochs_and_is_idempotent() {
    let cfg = base_cfg("feed");
    let (mut ctl, _) = Controller::start(cfg.clone()).expect("start");

    // Warm some selections so the blast radius is non-trivial.
    let before = all_answers(&mut ctl);

    assert!(ctl.ingest(1, &[ChangeSpec::LinkDown(3)]).expect("batch 1"));
    assert_eq!(ctl.epoch(), 1, "commit advanced the epoch");
    assert_eq!(ctl.mode(), Mode::Serving);

    // At-least-once: the duplicate is acknowledged, not reapplied.
    assert!(!ctl.ingest(1, &[ChangeSpec::LinkDown(3)]).expect("dup"));
    assert_eq!(ctl.epoch(), 1);

    // A sequence gap is a typed rejection.
    match ctl.ingest(5, &[ChangeSpec::LinkUp(3)]) {
        Err(CtlError::FeedGap {
            got: 5,
            expected: 2,
        }) => {}
        other => panic!("expected a feed gap, got {other:?}"),
    }

    // Recovery restores the fault-free answers bit for bit.
    assert!(ctl.ingest(2, &[ChangeSpec::LinkUp(3)]).expect("batch 2"));
    assert_eq!(ctl.epoch(), 2);
    assert_eq!(all_answers(&mut ctl), before);
    cleanup(&cfg);
}

#[test]
fn cold_cache_reconvergence_still_audits_the_blast_radius() {
    // Regression: the certification scope must come from the topology,
    // not from flushed selection-cache entries. With no queries before
    // the first fault (cold cache) a cache-derived scope would be empty
    // and the epoch would certify trivially on zero pairs.
    let cfg = base_cfg("coldscope");
    let (mut ctl, _) = Controller::start(cfg.clone()).expect("start");
    assert_eq!(ctl.last_cert_pairs(), 0, "no reconvergence attempted yet");

    // First fault with a stone-cold cache: the commit must be backed by
    // a non-empty audit.
    assert!(ctl.ingest(1, &[ChangeSpec::LinkDown(3)]).expect("batch 1"));
    assert_eq!(ctl.epoch(), 1);
    let cold_scope = ctl.last_cert_pairs();
    assert!(
        cold_scope > 0,
        "a committed epoch must never be backed by an empty audit"
    );
    let n = u64::from(ctl.topology().num_pns());
    assert!(
        cold_scope < n * (n - 1),
        "one link's blast radius is audited as a scope, not as the whole matrix"
    );

    // A failed certificate rebuilds the engine (cold cache again); the
    // degraded retry must re-audit the same topology-derived scope, not
    // rubber-stamp the state it just refused.
    ctl.set_chaos_fail_certs(true);
    ctl.ingest(2, &[ChangeSpec::LinkDown(9)]).expect("staged");
    let Mode::Degraded { next_retry_at, .. } = ctl.mode() else {
        panic!("expected degraded after an injected cert failure");
    };
    let failed_scope = ctl.last_cert_pairs();
    assert!(failed_scope > 0, "failed attempt audited a real scope");

    ctl.set_chaos_fail_certs(false);
    ctl.tick(next_retry_at).expect("recovery tick");
    assert_eq!(ctl.mode(), Mode::Serving);
    assert_eq!(ctl.epoch(), 2);
    assert_eq!(
        ctl.last_cert_pairs(),
        failed_scope,
        "the retry re-audited the failed attempt's full scope"
    );
    cleanup(&cfg);
}

#[test]
fn stale_and_future_epochs_are_fenced() {
    let cfg = base_cfg("fence");
    let (mut ctl, _) = Controller::start(cfg.clone()).expect("start");
    ctl.ingest(1, &[ChangeSpec::LinkDown(0)]).expect("fault");
    assert_eq!(ctl.epoch(), 1);

    for stale in [0u64, 2, 99] {
        match ctl.paths(stale, &[(0, 5)]) {
            Err(CtlError::EpochFenced { client, server }) => {
                assert_eq!((client, server), (stale, 1));
            }
            other => panic!("epoch {stale} not fenced: {other:?}"),
        }
    }
    assert!(ctl.paths(1, &[(0, 5)]).is_ok());
    cleanup(&cfg);
}

#[test]
fn failed_certificate_degrades_and_recovery_is_served_from_last_good() {
    let cfg = base_cfg("degraded");
    let (mut ctl, _) = Controller::start(cfg.clone()).expect("start");
    ctl.ingest(1, &[ChangeSpec::LinkDown(7)]).expect("fault");
    let good_epoch = ctl.epoch();
    let good_answers = all_answers(&mut ctl);

    // Injected certificate failure: the next batch must not activate.
    ctl.set_chaos_fail_certs(true);
    ctl.ingest(2, &[ChangeSpec::LinkDown(9)]).expect("staged");
    let Mode::Degraded {
        attempts: 1,
        next_retry_at,
    } = ctl.mode()
    else {
        panic!("expected degraded after an injected cert failure");
    };
    assert_eq!(ctl.epoch(), good_epoch, "last-good epoch still current");
    assert_eq!(
        all_answers(&mut ctl),
        good_answers,
        "degraded mode serves the last-good epoch byte-identically"
    );

    // Retries back off while the fault persists…
    ctl.tick(next_retry_at).expect("retry tick");
    let Mode::Degraded { attempts: 2, .. } = ctl.mode() else {
        panic!("retry under chaos must fail again");
    };
    // …and an early tick does NOT retry (backoff pacing).
    let Mode::Degraded { next_retry_at, .. } = ctl.mode() else {
        unreachable!()
    };
    ctl.tick(next_retry_at.saturating_sub(1)).expect("early");
    let Mode::Degraded { attempts: 2, .. } = ctl.mode() else {
        panic!("early tick must not burn an attempt");
    };

    // Clearing the chaos lets the pending batch certify and commit.
    ctl.set_chaos_fail_certs(false);
    ctl.tick(next_retry_at).expect("recovery tick");
    assert_eq!(ctl.mode(), Mode::Serving);
    assert_eq!(ctl.epoch(), good_epoch + 1);
    cleanup(&cfg);
}

#[test]
fn degraded_backoff_is_capped() {
    let cfg = base_cfg("backoff");
    let base = BACKOFF_BASE_TICKS;
    let cap = BACKOFF_CAP_TICKS;
    let (mut ctl, _) = Controller::start(cfg.clone()).expect("start");
    ctl.set_chaos_fail_certs(true);
    ctl.ingest(1, &[ChangeSpec::LinkDown(1)]).expect("staged");
    let mut last_delay = 0;
    for attempt in 1..12u32 {
        let Mode::Degraded {
            attempts,
            next_retry_at,
        } = ctl.mode()
        else {
            panic!("must stay degraded under chaos");
        };
        assert_eq!(attempts, attempt);
        let delay = next_retry_at - ctl.now();
        assert!(delay <= cap, "delay {delay} over cap {cap}");
        assert!(delay >= last_delay.min(cap), "backoff must not shrink");
        assert!(delay >= base.min(cap));
        last_delay = delay;
        ctl.tick(next_retry_at).expect("retry");
    }
    assert_eq!(last_delay, cap, "backoff reached the cap");
    cleanup(&cfg);
}

#[test]
fn kill_and_resume_replays_the_schedule_byte_identically() {
    let (_, topo) = xgft::topology_by_name(TOPO).expect("topo");
    let schedule = FaultSchedule::poisson(&topo, 5e-4, 500.0, 3_000, 9);
    assert!(
        schedule.events().len() >= 8,
        "schedule too quiet to be a meaningful test"
    );
    let ticks: Vec<u64> = (1..=6).map(|i| i * 500).collect();

    // Reference: uninterrupted run through every tick.
    let mut cfg_a = base_cfg("resume-a");
    cfg_a.schedule = schedule.clone();
    let (mut a, _) = Controller::start(cfg_a.clone()).expect("start a");
    for &t in &ticks {
        a.tick(t).expect("tick a");
    }
    let (epoch_a, digest_a, answers_a) = (a.epoch(), a.digest(), all_answers(&mut a));
    assert!(epoch_a > 0, "the schedule must commit epochs");

    // Crash run: same schedule, killed (dropped) after the third tick —
    // everything in memory is lost, only checkpoints survive.
    let mut cfg_b = base_cfg("resume-b");
    cfg_b.schedule = schedule.clone();
    let (mut b, _) = Controller::start(cfg_b.clone()).expect("start b");
    for &t in &ticks[..3] {
        b.tick(t).expect("tick b");
    }
    drop(b);

    // Restart resumes the last committed epoch; replaying the remaining
    // ticks must land on the identical state.
    let (mut b2, _) = Controller::start(cfg_b.clone()).expect("restart b");
    assert!(b2.epoch() > 0, "restart resumed a committed epoch");
    for &t in &ticks {
        // Re-issuing already-seen ticks is harmless: the drained-through
        // cursor makes replay idempotent.
        b2.tick(t).expect("tick b2");
    }
    assert_eq!(b2.epoch(), epoch_a, "epoch numbering reproduced");
    assert_eq!(b2.digest(), digest_a, "routing state digest reproduced");
    assert_eq!(
        all_answers(&mut b2),
        answers_a,
        "every path answer byte-identical to the uninterrupted run"
    );
    cleanup(&cfg_a);
    cleanup(&cfg_b);
}

#[test]
fn out_of_range_pairs_are_typed_errors() {
    let cfg = base_cfg("badpair");
    let (ctl, _) = Controller::start(cfg.clone()).expect("start");
    let n = ctl.topology().num_pns();
    match ctl.paths(0, &[(0, n)]) {
        Err(CtlError::BadPair(0, d)) => assert_eq!(d, n),
        other => panic!("expected BadPair, got {other:?}"),
    }
    cleanup(&cfg);
}

/// One to three changes: link and switch events, down and up, recoveries
/// preferring elements the view knows are dead.
fn draw_batch(topo: &Topology, view: &FaultSet, rng: &mut u64) -> Vec<ChangeSpec> {
    let below = |rng: &mut u64, n: u32| (splitmix::next(rng) % u64::from(n)) as u32;
    let dead_links: Vec<u32> = view.failed_links().map(|l| l.0).collect();
    (0..1 + below(rng, 3))
        .map(|_| {
            let level = 1 + below(rng, topo.height() as u32);
            let rank = below(rng, topo.nodes_at_level(level as usize));
            match below(rng, 6) {
                0 | 1 => ChangeSpec::LinkDown(below(rng, topo.num_links())),
                2 if !dead_links.is_empty() => {
                    ChangeSpec::LinkUp(dead_links[below(rng, dead_links.len() as u32) as usize])
                }
                2 => ChangeSpec::LinkUp(below(rng, topo.num_links())),
                3 | 4 => ChangeSpec::SwitchDown(level as u8, rank),
                _ => match view.failed_switches() {
                    [] => ChangeSpec::SwitchUp(level as u8, rank),
                    dead => {
                        let node = dead[below(rng, dead.len() as u32) as usize];
                        ChangeSpec::SwitchUp(node.level, node.rank)
                    }
                },
            }
        })
        .collect()
}

/// A daemon serving its own controller (a second one, fed the same
/// batches) on a scratch socket, with a client to it.
struct Served {
    socket: PathBuf,
    server: std::thread::JoinHandle<std::io::Result<()>>,
    client: Client,
}

impl Served {
    fn start(cfg: CtlConfig) -> Served {
        let socket = cfg.state_dir.with_extension("sock");
        let (ctl, _) = Controller::start(cfg).expect("served controller starts");
        let server = {
            let cfg = ServerConfig::new(&socket);
            std::thread::spawn(move || serve(ctl, cfg))
        };
        let mut client = Client::new(&socket);
        for _ in 0..500 {
            if client.status().is_ok() {
                return Served {
                    socket,
                    server,
                    client,
                };
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        panic!("server did not come up");
    }

    fn stop(mut self) {
        self.client.shutdown().expect("shutdown");
        self.server
            .join()
            .expect("server thread")
            .expect("server exit");
        assert!(!self.socket.exists());
    }
}

/// A random three-level spec with asymmetric `w`: `m_i` in 2..=4 and
/// `w_i` in 1..=3, not all equal.
fn random_three_level_spec(rng: &mut u64) -> String {
    let mut draw = |lo: u64, hi: u64| lo + splitmix::next(rng) % (hi - lo + 1);
    let m: Vec<u64> = (0..3).map(|_| draw(2, 4)).collect();
    let mut w: Vec<u64> = vec![1];
    w.extend((0..2).map(|_| draw(1, 3)));
    if w.iter().all(|&x| x == w[0]) {
        w[2] += 1;
    }
    let list = |v: &[u64]| v.iter().map(u64::to_string).collect::<Vec<_>>().join(",");
    format!("xgft:{};{}", list(&m), list(&w))
}

/// The LFT realization of `kind`, where it has one whose slot walks
/// cover the same path set as the scheme's fault-free selection: plain
/// d-mod-k is slot 0, `disjoint(K)` is K bottom-first slots (the
/// `lft-bottom` tables) and UMULTI is every slot. Shift-1's index
/// arithmetic depends on the source, so no destination table can
/// realize it on a three-level tree.
fn lft_of(topo: &Topology, kind: RouterKind) -> Option<ForwardingTables> {
    let k = match kind {
        RouterKind::DModK => 1,
        RouterKind::Disjoint(k) => k,
        RouterKind::Umulti => topo.w_prod(topo.height()),
        _ => return None,
    };
    Some(ForwardingTables::build(topo, k, SlotOrder::BottomFirst))
}

/// The answers agree. "Which `min(K, X)` paths serve
/// this pair under this fault set?" is asked of the controller, of a
/// cold engine over the committed view, of that engine's `&self` router
/// read, of a warm cached engine that lived through the same change
/// batches, of a second controller over the socket (`Client::paths`
/// against `serve`), and — where the scheme has an LFT realization — of
/// the forwarding-table walk. After every committed epoch all of them
/// give the same list for every ordered pair (empty for a disconnected
/// one; the LFT walk, being the fault-free tables, for every pair the
/// view leaves untouched, as a set of routes), and both controllers'
/// digests are the one folded from the cold engine's answers. It runs
/// on `8port2tree` and on random three-level specs with asymmetric `w`.
#[test]
fn controller_cold_engine_router_read_and_warm_cache_agree_every_epoch() {
    let mut rng = 0x6A_5EED_u64;
    let mut cases: Vec<(String, RouterKind)> = vec![
        (TOPO.to_owned(), RouterKind::DModK),
        (TOPO.to_owned(), RouterKind::Umulti),
    ];
    for k in [2u64, 3, 8] {
        cases.push((TOPO.to_owned(), RouterKind::ShiftOne(k)));
        cases.push((TOPO.to_owned(), RouterKind::Disjoint(k)));
        cases.push((TOPO.to_owned(), RouterKind::RandomK(k, 7 + k)));
    }
    for _ in 0..3 {
        let spec = random_three_level_spec(&mut rng);
        for kind in [
            RouterKind::DModK,
            RouterKind::Disjoint(3),
            RouterKind::ShiftOne(2),
            RouterKind::RandomK(2, 5),
            RouterKind::Umulti,
        ] {
            cases.push((spec.clone(), kind));
        }
    }
    let (mut cold_paths, mut read_paths, mut warm_paths) = (Vec::new(), Vec::new(), Vec::new());
    let (mut disconnected, mut lft_checked) = (0u64, 0u64);
    for (i, (name, kind)) in cases.iter().enumerate() {
        let kind = *kind;
        let (_, topo) = xgft::topology_by_name(name).expect("topo");
        let pairs = all_pairs(topo.num_pns());
        let lft = lft_of(&topo, kind);
        let cfg = CtlConfig::new(name.as_str(), kind, temp_dir(&format!("agree-{i}")));
        let (mut ctl, _) = Controller::start(cfg.clone()).expect("start");
        let served_cfg = CtlConfig::new(name.as_str(), kind, temp_dir(&format!("agree-{i}-srv")));
        let mut served = Served::start(served_cfg.clone());
        let mut warm = SelectionEngine::cached(kind, FaultSet::new());
        for batch_id in 1..=6u64 {
            let batch = draw_batch(&topo, warm.view(), &mut rng);
            assert!(ctl.ingest(batch_id, &batch).expect("ingest"), "{batch:?}");
            assert_eq!((ctl.epoch(), ctl.mode()), (batch_id, Mode::Serving));
            assert!(served
                .client
                .submit_fault(batch_id, &batch)
                .expect("submit"));
            let changes: Vec<_> = batch.iter().map(|c| c.to_change()).collect();
            warm.apply_changes(&topo, &changes);

            let answers = all_answers(&mut ctl);
            let mut over_socket = Vec::with_capacity(pairs.len());
            for chunk in pairs.chunks(512) {
                let (epoch, rows) = served.client.paths(chunk, None).expect("socket paths");
                assert_eq!(epoch, batch_id, "{name} {}", kind.name());
                over_socket.extend(rows);
            }
            let mut cold = SelectionEngine::with_view(kind, warm.view().clone());
            let mut digest = fnv::update(fnv::OFFSET, &batch_id.to_le_bytes());
            for ((&(s, d), answer), socket) in pairs.iter().zip(&answers).zip(&over_socket) {
                let at = format!("{name} {} epoch {batch_id} ({s}, {d})", kind.name());
                let (ps, pd) = (PnId(s), PnId(d));
                let typed = cold.try_select(&topo, ps, pd, &mut cold_paths);
                cold.fill_paths(&topo, ps, pd, &mut read_paths);
                warm.select(&topo, ps, pd, &mut warm_paths);
                assert_eq!(typed.is_err(), cold_paths.is_empty(), "{at}");
                let ids: Vec<u64> = cold_paths.iter().map(|p: &PathId| p.0).collect();
                assert_eq!(answer, &ids, "controller vs cold engine, {at}");
                assert_eq!(socket, &ids, "socket vs cold engine, {at}");
                assert_eq!(read_paths, cold_paths, "router read vs try_select, {at}");
                assert_eq!(warm_paths, cold_paths, "warm cache vs cold engine, {at}");
                if let (Some(ft), Ok(false)) = (&lft, &typed) {
                    let slots = ft.k().min(topo.num_paths(ps, pd));
                    let mut walked: Vec<_> = (0..slots)
                        .map(|slot| ft.route(&topo, ps, pd, slot).expect("LFT walk"))
                        .collect();
                    let mut selected: Vec<_> = cold_paths
                        .iter()
                        .map(|&p| topo.path_nodes(ps, pd, p))
                        .collect();
                    walked.sort_unstable();
                    selected.sort_unstable();
                    assert_eq!(walked, selected, "LFT walk vs selection, {at}");
                    lft_checked += 1;
                }
                disconnected += u64::from(typed.is_err());
                for x in [u64::from(s) << 32 | u64::from(d), ids.len() as u64] {
                    digest = fnv::update(digest, &x.to_le_bytes());
                }
                for p in ids {
                    digest = fnv::update(digest, &p.to_le_bytes());
                }
            }
            let at = format!("{name} {} epoch {batch_id}", kind.name());
            assert_eq!(ctl.digest(), digest, "{at}");
            let (epoch, hex) = served.client.digest().expect("socket digest");
            assert_eq!((epoch, hex), (batch_id, format!("{digest:016x}")), "{at}");
        }
        assert!(warm.stats().hits > 0 && warm.stats().invalidated > 0);
        served.stop();
        cleanup(&cfg);
        cleanup(&served_cfg);
    }
    assert!(disconnected > 0, "the batches must disconnect some pair");
    assert!(lft_checked > 0, "some scheme must have an LFT walk");
}
