//! The names this binary prints: workloads, end-to-end metrics and
//! per-layer metrics, each with its unit. `/BENCHMARK.json` lists the
//! same names (a unit test holds the two together) and owns the
//! regression bounds, which `compare` reads from the embedded copy.

use lmpr_bench::jsonio::{self, Value};

/// `/BENCHMARK.json` as it was when this binary was built.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

pub const WORKLOADS: [&str; 6] = [
    "flit_sweep",
    "flit_churn",
    "flow_degraded",
    "ctl_reconverge",
    "ctl_query",
    "ctl_mixed",
];

/// `(name, unit)` of the metrics printed with `--trace 0`.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("work_per_s", "1/s"),
    ("op_tail_us", "us"),
    ("peak_rss_mb", "MB"),
];

/// `(name, unit)` of the metrics printed with `--trace 1`, grouped by
/// layer (the crates) in dependency order, the harness last.
pub const PER_LAYER: &[(&str, &str)] = &[
    // xgft
    ("xgft.topology.build_us", "us"),
    ("xgft.paths.walk_ns_per_path", "ns"),
    ("xgft.fault.fill_surviving_ns_per_pair", "ns"),
    ("xgft.schedule.poisson_build_us", "us"),
    // core
    ("core.router.select_ns_per_pair.dmodk", "ns"),
    ("core.router.select_ns_per_pair.shift1", "ns"),
    ("core.router.select_ns_per_pair.disjoint", "ns"),
    ("core.router.select_ns_per_pair.random", "ns"),
    ("core.selection.miss_ns_per_pair", "ns"),
    ("core.selection.hit_ns_per_pair", "ns"),
    ("core.selection.apply_changes_us_per_change", "us"),
    ("core.selection.invalidated_per_change", "count"),
    // traffic
    ("traffic.uniform_build_ms", "ms"),
    // flowsim
    ("flowsim.degraded.accumulate_ns_per_flow", "ns"),
    ("flowsim.loads.accumulate_ns_per_flow", "ns"),
    ("flowsim.loads.deposit_ns_per_flow", "ns"),
    ("flowsim.degraded.disconnected_flows", "count"),
    // flitsim
    ("flitsim.sim.new_us", "us"),
    ("flitsim.step_ns_per_cycle.load10", "ns"),
    ("flitsim.step_ns_per_cycle.load50", "ns"),
    ("flitsim.step_ns_per_cycle.load90", "ns"),
    ("flitsim.step_ns_per_cycle.churn", "ns"),
    ("flitsim.selection.hits.churn", "count"),
    ("flitsim.selection.misses.churn", "count"),
    ("flitsim.selection.invalidated.churn", "count"),
    ("flitsim.selection.share_est.churn", "ratio"),
    ("flitsim.delivered_flits.load10", "count"),
    ("flitsim.delivered_flits.load50", "count"),
    ("flitsim.delivered_flits.load90", "count"),
    ("flitsim.delivered_flits.churn", "count"),
    ("flitsim.dropped_flits.churn", "count"),
    ("flitsim.delay_p99_cycles.load90", "cycles"),
    // verify
    ("verify.blast_radius_us_per_batch", "us"),
    ("verify.blast_radius_pairs_per_batch", "count"),
    ("verify.certify_scoped_us_per_batch", "us"),
    ("verify.certify_ns_per_pair", "ns"),
    ("verify.certify_full_ms.8port3tree", "ms"),
    ("verify.certify_full_ms.24port2tree", "ms"),
    // ctld
    ("ctld.controller.ingest_us_p50", "us"),
    ("ctld.controller.ingest_unattributed_share", "ratio"),
    ("ctld.store.checkpoint_encode_us", "us"),
    ("ctld.store.commit_us_p50", "us"),
    ("ctld.store.commit_us_p90", "us"),
    ("ctld.store.checkpoint_bytes", "bytes"),
    ("ctld.store.load_latest_us", "us"),
    ("ctld.controller.resume_us", "us"),
    ("ctld.controller.paths_ns_per_pair.hit", "ns"),
    ("ctld.controller.paths_ns_per_pair.miss", "ns"),
    ("ctld.wire.req_encode_ns_per_pair", "ns"),
    ("ctld.wire.req_decode_ns_per_pair", "ns"),
    ("ctld.wire.resp_encode_ns_per_pair", "ns"),
    ("ctld.wire.resp_decode_ns_per_pair", "ns"),
    ("ctld.wire.resp_bytes_per_pair", "bytes"),
    ("ctld.wire.frame_roundtrip_us", "us"),
    ("ctld.server.status_roundtrip_us_p50", "us"),
    ("ctld.server.row_roundtrip_us_p50", "us"),
    ("ctld.server.queue_socket_share", "ratio"),
    ("ctld.server.stall_share.mixed", "ratio"),
    ("ctld.server.fault_ack_us_p50.mixed", "us"),
    ("ctld.server.fault_ack_us_p90.mixed", "us"),
    ("ctld.client.fenced_retries.mixed", "count"),
    ("ctld.client.overload_retries.mixed", "count"),
    ("ctld.client.reconnects.mixed", "count"),
    // harness, for the workload named by --workload
    ("bench.op_p50_us", "us"),
    ("bench.op_tail_percentile", "%"),
    ("bench.raw_work_per_s", "1/s"),
    ("bench.disturbance", "ratio"),
    ("bench.gen_late_us_p90", "us"),
    ("bench.trace_overhead_ratio", "ratio"),
    ("bench.ops", "count"),
    ("bench.reps", "count"),
    ("bench.failed", "count"),
];

/// Whether `name` fits the contract's charset: a letter or digit first,
/// then at most 63 more of letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` fits the contract's charset.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// `run_seconds` of the embedded `/BENCHMARK.json`.
pub fn run_seconds() -> Result<f64, String> {
    jsonio::parse(BENCHMARK_JSON)
        .ok()
        .and_then(|root| root.get("run_seconds")?.as_f64())
        .ok_or_else(|| "BENCHMARK.json: no run_seconds".to_owned())
}

/// One `end_to_end` entry of `/BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Bounded {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    pub bound: f64,
}

/// The `end_to_end` entries of a `BENCHMARK.json` document.
pub fn end_to_end_of(doc: &str) -> Result<Vec<Bounded>, String> {
    let root = jsonio::parse(doc).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let list = root
        .get("end_to_end")
        .and_then(Value::as_arr)
        .ok_or("BENCHMARK.json: no end_to_end list")?;
    list.iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Value::as_str).map(str::to_owned);
            Some(Bounded {
                name: field("name")?,
                unit: field("unit")?,
                higher_is_better: field("better")? == "higher",
                bound: m.get("bound")?.as_f64()?,
            })
        })
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| "BENCHMARK.json: malformed end_to_end entry".to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names_units(root: &Value, key: &str) -> Vec<(String, String)> {
        root.get(key)
            .and_then(Value::as_arr)
            .expect("list present")
            .iter()
            .map(|m| {
                let f = |k| m.get(k).and_then(Value::as_str).expect("string").to_owned();
                (f("name"), f("unit"))
            })
            .collect()
    }

    fn owned(table: &[(&str, &str)]) -> Vec<(String, String)> {
        table
            .iter()
            .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_what_the_binary_prints() {
        let root = jsonio::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        let workloads: Vec<String> = root
            .get("workloads")
            .and_then(Value::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Value::as_str)
                    .expect("name")
                    .to_owned()
            })
            .collect();
        assert_eq!(workloads, WORKLOADS);
        assert_eq!(names_units(&root, "end_to_end"), owned(&END_TO_END));
        assert_eq!(names_units(&root, "per_layer"), owned(PER_LAYER));
        assert_eq!(root.get("claim"), None, "the contract fixes the key set");
    }

    #[test]
    fn benchmark_json_stays_inside_the_contract_limits() {
        let root = jsonio::parse(BENCHMARK_JSON).expect("parses");
        assert!(BENCHMARK_JSON.len() <= 64 * 1024);
        let keys: Vec<&str> = match &root {
            Value::Obj(m) => m.iter().map(|(k, _)| k.as_str()).collect(),
            _ => panic!("not an object"),
        };
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(
            sorted,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
        let e2e = end_to_end_of(BENCHMARK_JSON).expect("end_to_end parses");
        assert!(e2e.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = e2e.iter().find(|m| m.name == "setup_s").expect("setup_s");
        assert!(!setup.higher_is_better && setup.unit == "s");
        assert!(e2e.iter().all(|m| m.bound <= setup.bound));
        for w in root.get("workloads").and_then(Value::as_arr).expect("list") {
            let why = w.get("why").and_then(Value::as_str).expect("why");
            assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
        }
        let secs = root
            .get("run_seconds")
            .and_then(Value::as_u64)
            .expect("int");
        assert!((1..=60).contains(&secs));
        assert!(PER_LAYER.len() <= 128 && WORKLOADS.len() <= 8);
    }

    #[test]
    fn every_name_and_unit_fits_the_charset_and_is_used_once() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "{name}");
            assert!(valid_unit(unit), "{unit}");
            assert!(seen.insert(*name), "{name} listed twice");
        }
        for w in WORKLOADS {
            assert!(valid_name(w) && seen.insert(w));
        }
        assert!(valid_name("a") && valid_name("9x.y_z-1"));
        for bad in ["", ".x", "_x", "a b", "a/b", "µs", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad:?}");
        }
        assert!(valid_unit("1/s") && valid_unit("%") && !valid_unit("µs"));
        assert!(!valid_unit("") && !valid_unit(&"u".repeat(17)));
    }
}
