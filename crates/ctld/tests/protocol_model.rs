//! A reference model of the wire protocol, run against a live `serve`.
//!
//! The model is the slow, obvious version of the daemon: an epoch, a
//! generation, the feed cursor, the committed batch id and a fault view,
//! with every selection recomputed by an uncached `SelectionEngine` over
//! that view. One client sends a seeded sequence of `paths`, `status`,
//! `digest`, `fault` and `tick` requests, stale epochs, bad pairs,
//! duplicate batch ids, feed gaps, stale generations and out-of-range
//! links included, and every live reply must equal the model's: epoch,
//! generation, mode, fences, dedup outcomes and path ids. Only wall-clock
//! latencies and the prose of error messages are not compared.

use lmpr_codec::{fnv, splitmix};
use lmpr_core::{Router, RouterKind, SelectionEngine};
use lmpr_ctld::{
    read_frame, serve, write_frame, ChangeSpec, Controller, CtlConfig, ErrorCode, Request,
    Response, ServerConfig,
};
use std::os::unix::net::UnixStream;
use xgft::{FaultSet, PnId, Topology};

struct Model {
    topo: Topology,
    kind: RouterKind,
    epoch: u64,
    gen: u64,
    now: u64,
    /// Highest ingested batch id (the feed cursor).
    highest: u64,
    committed_batch_id: u64,
    commits: u64,
    view: FaultSet,
}

impl Model {
    fn selection(&self, s: u32, d: u32) -> Vec<u64> {
        let mut out = Vec::new();
        SelectionEngine::with_view(self.kind, self.view.clone()).select(
            &self.topo,
            PnId(s),
            PnId(d),
            &mut out,
        );
        out.iter().map(|p| p.0).collect()
    }

    fn digest(&self) -> u64 {
        let mut h = fnv::update(fnv::OFFSET, &self.epoch.to_le_bytes());
        let n = self.topo.num_pns();
        for (s, d) in (0..n).flat_map(|s| (0..n).filter(move |&d| d != s).map(move |d| (s, d))) {
            let ids = self.selection(s, d);
            for x in [u64::from(s) << 32 | u64::from(d), ids.len() as u64] {
                h = fnv::update(h, &x.to_le_bytes());
            }
            for p in ids {
                h = fnv::update(h, &p.to_le_bytes());
            }
        }
        h
    }

    fn error(&self, code: ErrorCode) -> Response {
        Response::Error {
            code,
            epoch: self.epoch,
            gen: self.gen,
            mode: "serving".to_owned(),
            message: String::new(),
        }
    }

    fn in_topology(&self, c: ChangeSpec) -> bool {
        match c {
            ChangeSpec::LinkDown(l) | ChangeSpec::LinkUp(l) => l < self.topo.num_links(),
            ChangeSpec::SwitchDown(level, rank) | ChangeSpec::SwitchUp(level, rank) => {
                let level = usize::from(level);
                level <= self.topo.height() && rank < self.topo.nodes_at_level(level)
            }
        }
    }

    fn reply(&mut self, req: &Request) -> Response {
        let mode = "serving".to_owned();
        match req {
            Request::Hello | Request::Status => Response::Status {
                epoch: self.epoch,
                mode,
                gen: self.gen,
                now: self.now,
                pending: 0,
                committed_batch_id: self.committed_batch_id,
                reconv_count: self.commits,
                reconv_total_us: 0,
                reconv_max_us: 0,
                degraded_attempts: 0,
            },
            Request::Digest => Response::Digest {
                epoch: self.epoch,
                mode,
                digest: format!("{:016x}", self.digest()),
            },
            Request::Paths { epoch, pairs, .. } => {
                let n = self.topo.num_pns();
                if *epoch != self.epoch {
                    self.error(ErrorCode::EpochFenced)
                } else if pairs.iter().any(|&(s, d)| s >= n || d >= n) {
                    self.error(ErrorCode::BadRequest)
                } else {
                    let paths = pairs.iter().map(|&(s, d)| self.selection(s, d)).collect();
                    Response::Paths {
                        epoch: self.epoch,
                        mode,
                        paths,
                    }
                }
            }
            Request::Fault {
                batch_id,
                gen,
                changes,
            } => {
                if gen.is_some_and(|g| g != self.gen) {
                    return self.error(ErrorCode::GenFenced);
                }
                let applied = *batch_id > self.highest;
                if applied && *batch_id != self.highest + 1 {
                    return self.error(ErrorCode::BadRequest);
                }
                if applied && !changes.iter().all(|&c| self.in_topology(c)) {
                    return self.error(ErrorCode::BadRequest);
                }
                if applied {
                    self.highest = *batch_id;
                    // An empty batch moves the cursor but stages nothing,
                    // so nothing is certified or committed.
                    if !changes.is_empty() {
                        for c in changes {
                            c.to_change().apply(&self.topo, &mut self.view);
                        }
                        self.epoch += 1;
                        self.commits += 1;
                        self.committed_batch_id = *batch_id;
                    }
                }
                Response::Fault {
                    epoch: self.epoch,
                    mode,
                    gen: self.gen,
                    batch_id: *batch_id,
                    applied,
                }
            }
            Request::Tick { to } => {
                self.now = self.now.max(*to);
                Response::Tick {
                    epoch: self.epoch,
                    mode,
                    now: self.now,
                }
            }
            other => panic!("the sequence never sends {other:?}"),
        }
    }
}

/// The next request of the seeded sequence, drawn against the model's
/// state so that stale epochs, duplicates and gaps are near misses.
fn draw(m: &Model, rng: &mut u64) -> Request {
    let mut below = |n: u64| splitmix::next(rng) % n;
    let n = m.topo.num_pns();
    match below(20) {
        0..=6 => {
            let epoch = match below(6) {
                0 => m.epoch.saturating_sub(1),
                1 => m.epoch + 1,
                _ => m.epoch,
            };
            let mut pairs: Vec<(u32, u32)> = (0..1 + below(12))
                .map(|_| (below(u64::from(n)) as u32, below(u64::from(n)) as u32))
                .collect();
            if below(8) == 0 {
                pairs.push((below(u64::from(n)) as u32, n + below(3) as u32));
            }
            Request::Paths {
                epoch,
                deadline_ms: None,
                pairs,
            }
        }
        7 | 8 => Request::Status,
        9 => Request::Digest,
        10 => Request::Hello,
        11..=17 => {
            let batch_id = match below(10) {
                0 | 1 => 1 + below(m.highest.max(1)),
                2 => m.highest + 2 + below(3),
                _ => m.highest + 1,
            };
            let gen = match below(7) {
                0 => Some(m.gen + 1),
                1 => Some(m.gen - 1),
                2 | 3 => Some(m.gen),
                _ => None,
            };
            let links = m.topo.num_links();
            let changes = (0..below(4))
                .map(|_| match below(12) {
                    0 => ChangeSpec::LinkDown(links + below(4) as u32),
                    1..=4 => ChangeSpec::LinkDown(below(u64::from(links)) as u32),
                    5..=8 => ChangeSpec::LinkUp(below(u64::from(links)) as u32),
                    9 => {
                        let level = 1 + below(m.topo.height() as u64) as usize;
                        let rank = below(u64::from(m.topo.nodes_at_level(level))) as u32;
                        ChangeSpec::SwitchDown(level as u8, rank)
                    }
                    _ => {
                        let level = 1 + below(m.topo.height() as u64) as usize;
                        let rank = below(u64::from(m.topo.nodes_at_level(level))) as u32;
                        ChangeSpec::SwitchUp(level as u8, rank)
                    }
                })
                .collect();
            Request::Fault {
                batch_id,
                gen,
                changes,
            }
        }
        _ => Request::Tick {
            to: m.now.saturating_sub(50) + below(400),
        },
    }
}

/// The live reply with what the model does not predict blanked out.
fn comparable(resp: Response) -> Response {
    match resp {
        Response::Status {
            reconv_total_us: _,
            reconv_max_us: _,
            epoch,
            mode,
            gen,
            now,
            pending,
            committed_batch_id,
            reconv_count,
            degraded_attempts,
        } => Response::Status {
            epoch,
            mode,
            gen,
            now,
            pending,
            committed_batch_id,
            reconv_count,
            reconv_total_us: 0,
            reconv_max_us: 0,
            degraded_attempts,
        },
        Response::Error {
            code,
            epoch,
            gen,
            mode,
            ..
        } => Response::Error {
            code,
            epoch,
            gen,
            mode,
            message: String::new(),
        },
        other => other,
    }
}

fn run_sequence(topo_name: &str, kind: RouterKind, seed: u64, requests: usize) {
    let scratch = std::env::temp_dir().join(format!(
        "ctld-model-{}-{}-{seed}",
        std::process::id(),
        kind.name()
    ));
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch).expect("scratch dir");
    let socket = scratch.join("ctld.sock");
    let cfg = CtlConfig::new(topo_name, kind, scratch.join("state"));
    let (ctl, report) = Controller::start(cfg).expect("controller start");
    assert!(report.certified());
    let server = {
        let cfg = ServerConfig::new(&socket);
        std::thread::spawn(move || serve(ctl, cfg))
    };
    let mut stream = (0..500)
        .find_map(|_| {
            UnixStream::connect(&socket).ok().or_else(|| {
                std::thread::sleep(std::time::Duration::from_millis(10));
                None
            })
        })
        .expect("server came up");
    let mut roundtrip = |req: &Request| {
        write_frame(&mut stream, req.to_json().as_bytes()).expect("write frame");
        Response::decode(&read_frame(&mut stream).expect("read frame")).expect("decode reply")
    };

    let (_, topo) = xgft::topology_by_name(topo_name).expect("topology");
    let mut model = Model {
        topo,
        kind,
        epoch: 0,
        gen: 1,
        now: 0,
        highest: 0,
        committed_batch_id: 0,
        commits: 0,
        view: FaultSet::new(),
    };
    let mut rng = seed;
    let mut seen = [0u32; 6];
    for i in 0..requests {
        let req = draw(&model, &mut rng);
        let want = model.reply(&req);
        let got = comparable(roundtrip(&req));
        assert_eq!(got, want, "{topo_name} seed {seed}, request {i}: {req:?}");
        let slot = match &want {
            Response::Error {
                code: ErrorCode::EpochFenced,
                ..
            } => 0,
            Response::Error {
                code: ErrorCode::GenFenced,
                ..
            } => 1,
            Response::Error { .. } => 2,
            Response::Fault { applied: false, .. } => 3,
            Response::Fault { applied: true, .. } => 4,
            _ => 5,
        };
        seen[slot] += 1;
    }
    // Every outcome the sequence is meant to reach was reached.
    assert!(
        seen.iter().all(|&c| c > 0),
        "{topo_name} seed {seed}: {seen:?}"
    );
    assert!(model.epoch > 3, "{topo_name} seed {seed}: too few commits");
    match roundtrip(&Request::Shutdown) {
        Response::Shutdown { .. } => {}
        other => panic!("unexpected shutdown reply: {other:?}"),
    }
    server.join().expect("server thread").expect("server exit");
    let _ = std::fs::remove_dir_all(&scratch);
}

#[test]
fn a_live_server_answers_every_request_as_the_reference_model_does() {
    run_sequence("8port2tree", RouterKind::Disjoint(4), 0x5EED_0001, 400);
    run_sequence(
        "xgft:3,2,4;1,2,3",
        RouterKind::ShiftOne(3),
        0x5EED_0002,
        300,
    );
}
