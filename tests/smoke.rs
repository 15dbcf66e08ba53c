//! One smoke test per layer the facade does not re-export: the codec's
//! envelope and JSON, the static verifier's certificate, and the
//! routing controller's ingest. Each checks an answer, not just that
//! the call returns. The chaos soak stays out: its daemon, sockets and
//! threads live in the `ctl_soak` binary, which `ci.sh` runs.

use lmpr::prelude::*;
use lmpr_codec::{envelope, fnv, json};
use lmpr_ctld::{ChangeSpec, Controller, CtlConfig};

#[test]
fn codec_envelope_and_json_round_trip() {
    let doc = json::document(|w| {
        w.obj_line(|w| {
            w.key("scheme").str("disjoint(4)");
            w.key("epoch").int(7u64);
            w.key("certified").bool(true);
        })
    });
    assert_eq!(
        doc,
        r#"{"scheme": "disjoint(4)", "epoch": 7, "certified": true}"#
    );
    let sealed = envelope::seal(b"LMPRTEST", 3, doc.as_bytes());
    let payload = envelope::open(&sealed, b"LMPRTEST", 3, 1 << 20).expect("intact envelope");
    let value = json::parse_bytes(payload).expect("valid JSON");
    assert_eq!(value.req_str("scheme"), Ok("disjoint(4)"));
    assert_eq!(value.req_uint::<u64>("epoch"), Ok(7));
    assert_eq!(value.req_bool("certified"), Ok(true));

    let mut torn = sealed.clone();
    *torn.last_mut().expect("non-empty payload") ^= 1;
    assert!(envelope::open(&torn, b"LMPRTEST", 3, 1 << 20).is_err());
}

#[test]
fn verify_certifies_disjoint_on_8port2tree() {
    let (label, topo) = xgft::topology_by_name("8port2tree").expect("named topology");
    let report = lmpr_verify::verify_router_kind(&topo, &label, RouterKind::Disjoint(4), None);
    assert!(report.certified(), "findings: {:?}", report.findings);
    assert!(report.checks.iter().all(|c| c.inspected > 0));
}

/// The controller's routing-state digest, computed from scratch: FNV-1a
/// over the epoch, then every ordered pair with its selection.
fn engine_digest(topo: &Topology, engine: &SelectionEngine<RouterKind>, epoch: u64) -> u64 {
    let mut h = fnv::update(fnv::OFFSET, &epoch.to_le_bytes());
    let mut paths = Vec::new();
    for s in 0..topo.num_pns() {
        for d in (0..topo.num_pns()).filter(|&d| d != s) {
            engine.fill_paths(topo, PnId(s), PnId(d), &mut paths);
            for x in [(u64::from(s) << 32) | u64::from(d), paths.len() as u64] {
                h = fnv::update(h, &x.to_le_bytes());
            }
            for p in &paths {
                h = fnv::update(h, &p.0.to_le_bytes());
            }
        }
    }
    h
}

#[test]
fn controller_ingest_matches_an_uncached_engine() {
    let state_dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke-ctld");
    let _ = std::fs::remove_dir_all(&state_dir);
    let kind = RouterKind::Disjoint(4);
    let (mut ctl, genesis) =
        Controller::start(CtlConfig::new("8port2tree", kind, &state_dir)).expect("genesis");
    assert!(genesis.certified(), "findings: {:?}", genesis.findings);

    let changes = [ChangeSpec::LinkDown(3), ChangeSpec::SwitchDown(1, 2)];
    assert!(ctl.ingest(1, &changes).expect("certified epoch"));
    assert_eq!(ctl.epoch(), 1);

    let (_, topo) = xgft::topology_by_name("8port2tree").expect("named topology");
    let mut faults = FaultSet::new();
    for c in changes {
        c.to_change().apply(&topo, &mut faults);
    }
    let faulted = engine_digest(&topo, &SelectionEngine::with_view(kind, faults), 1);
    let healthy = engine_digest(&topo, &SelectionEngine::with_view(kind, FaultSet::new()), 1);
    assert_eq!(ctl.digest(), faulted);
    assert_ne!(faulted, healthy, "the batch moved some selection");
    let _ = std::fs::remove_dir_all(&state_dir);
}
