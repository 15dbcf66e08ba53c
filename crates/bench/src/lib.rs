//! Shared plumbing for the experiment binaries that regenerate the
//! paper's tables and figures.
//!
//! Binaries (run with `--release`):
//!
//! * `fig4`    — Figure 4(a–d): average maximum link load vs number of
//!   paths, flow level, random permutations with the 99 % CI rule.
//! * `table1`  — Table 1: saturation throughput under uniform traffic,
//!   flit level, per heuristic and path budget.
//! * `fig5`    — Figure 5: average message delay vs offered load, flit
//!   level.
//! * `theorems` — executable checks of Theorem 1, Theorem 2 and the
//!   InfiniBand LID budget motivation.
//!
//! Each binary prints a human-readable table and, with `--json PATH`,
//! writes machine-readable results used by EXPERIMENTS.md.

#![forbid(unsafe_code)]

use lmpr_codec::json::{document, Writer};
use lmpr_core::RouterKind;
use lmpr_flitsim::SimError;

pub mod chaos;
pub mod faults;

// These four live in `lmpr-codec` and `xgft`; the paths below are kept
// because `benchmark/` imports them and may not change.
pub use lmpr_codec::json as jsonio;
pub use lmpr_codec::json::{json_f64, json_string};
pub use xgft::topology_by_name;

/// Geometric-ish ladder of path budgets from 1 to `max` inclusive —
/// the x-axis of Figure 4.
pub fn k_ladder(max: u64) -> Vec<u64> {
    let mut ks = vec![1u64];
    let mut k = 2;
    while k < max {
        ks.push(k);
        k = if k < 4 { k + 1 } else { k * 3 / 2 };
    }
    if max > 1 {
        ks.push(max);
    }
    ks.dedup();
    ks
}

/// The heuristics compared in Figure 4 and Table 1 at a given budget.
pub fn heuristics_at(k: u64, random_seed: u64) -> Vec<RouterKind> {
    vec![
        RouterKind::ShiftOne(k),
        RouterKind::Disjoint(k),
        RouterKind::RandomK(k, random_seed),
    ]
}

/// One emitted experiment record (schema shared across binaries so the
/// JSON files can be post-processed uniformly).
#[derive(Debug, Clone)]
pub struct Record {
    /// Experiment id: `fig4a`, `table1`, `fig5`, `theorems`, …
    pub experiment: String,
    /// Topology label (`XGFT(…)`).
    pub topology: String,
    /// Routing scheme label.
    pub scheme: String,
    /// Path budget `K` (0 = not applicable / unlimited).
    pub k: u64,
    /// Independent variable (number of paths, offered load, …).
    pub x: f64,
    /// Measured value (avg max load, throughput, delay, ratio, …).
    pub y: f64,
    /// Secondary value (CI half-width, completion rate, …), if any.
    pub aux: Option<f64>,
}

/// Write a rendered results document to `path`. An unwritable path is
/// reported as `<bin>: cannot write PATH: …` on stderr with exit
/// status 2, like any other command-line error.
pub fn write_json(bin: &str, path: &str, json: &str) {
    if let Err(e) = std::fs::write(path, json) {
        usage_error(bin, &format!("cannot write {path}: {e}"));
    }
}

/// Render records as a pretty-printed JSON array.
pub fn records_to_json(records: &[Record]) -> String {
    document(|w| write_records(w, records))
}

fn write_records(w: &mut Writer, records: &[Record]) {
    w.arr(|w| {
        for r in records {
            w.obj(|w| {
                w.key("experiment").str(&r.experiment);
                w.key("topology").str(&r.topology);
                w.key("scheme").str(&r.scheme);
                w.key("k").int(r.k);
                w.key("x").f64(r.x);
                w.key("y").f64(r.y);
                match r.aux {
                    Some(a) => w.key("aux").f64(a),
                    None => w.key("aux").null(),
                };
            });
        }
    });
}

/// One structured failure of a simulation run: the scenario that failed
/// plus the typed error, so chaotic runs are analyzable post-hoc instead
/// of collapsing into a bare error string.
#[derive(Debug, Clone)]
pub struct Failure {
    /// Experiment id the failing run belonged to.
    pub experiment: String,
    /// Topology label.
    pub topology: String,
    /// Routing scheme label.
    pub scheme: String,
    /// Path budget `K`.
    pub k: u64,
    /// Independent variable of the failing run (fault rate, load, …).
    pub x: f64,
    /// Seed of the failing run.
    pub seed: u64,
    /// The typed simulator error.
    pub error: SimError,
}

/// A [`SimError`] as a one-line object with a `kind` tag; a deadlock
/// carries the full [`DeadlockReport`](lmpr_flitsim::DeadlockReport)
/// field by field.
fn write_sim_error(w: &mut Writer, e: &SimError) {
    w.obj_line(|w| match e {
        SimError::Config(c) => {
            w.key("kind").str("config");
            w.key("message").str(&c.to_string());
        }
        SimError::Traffic(t) => {
            w.key("kind").str("traffic");
            w.key("message").str(&t.to_string());
        }
        SimError::TooFewPns(n) => {
            w.key("kind").str("too-few-pns");
            w.key("num_pns").int(*n);
        }
        SimError::Deadlock(r) => {
            w.key("kind").str("deadlock");
            w.key("cycle").int(r.cycle);
            w.key("stalled_for").int(r.stalled_for);
            w.key("flits_in_network").int(r.flits_in_network);
            w.key("in_flight_packets").int(r.in_flight_packets);
            w.key("blocked_ports").int(r.blocked_ports);
            w.key("source_backlog").int(r.source_backlog);
        }
    });
}

/// Render a results document holding both successful-run records and
/// structured failures: `{"records": […], "failures": […]}`.
pub fn document_to_json(records: &[Record], failures: &[Failure]) -> String {
    document(|w| {
        w.obj(|w| {
            w.key("records");
            write_records(w, records);
            w.key("failures").arr(|w| {
                for f in failures {
                    w.obj(|w| {
                        w.key("experiment").str(&f.experiment);
                        w.key("topology").str(&f.topology);
                        w.key("scheme").str(&f.scheme);
                        w.key("k").int(f.k);
                        w.key("x").f64(f.x);
                        w.key("seed").int(f.seed);
                        w.key("error");
                        write_sim_error(w, &f.error);
                    });
                }
            });
        })
    })
}

/// Parse `--json PATH` and `--quick` style flags from `args`.
#[derive(Debug, Default, Clone)]
pub struct CommonArgs {
    /// Output path for machine-readable results.
    pub json: Option<String>,
    /// Reduced statistical budget for smoke runs.
    pub quick: bool,
    /// Positional (non-flag) arguments.
    pub positional: Vec<String>,
}

impl CommonArgs {
    /// Parse from an iterator of arguments (without the program name).
    pub fn parse(args: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut out = CommonArgs::default();
        let mut it = args.peekable();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--json" => {
                    out.json = Some(it.next().ok_or_else(|| "--json needs a path".to_owned())?);
                }
                "--quick" => out.quick = true,
                _ if a.starts_with("--") => return Err(format!("unknown flag {a}")),
                _ => out.positional.push(a),
            }
        }
        Ok(out)
    }

    /// Refuse any positional argument outside `allowed`, so a stray or
    /// mistyped word fails before any work starts instead of being
    /// ignored.
    pub fn allow_positional(self, allowed: &[&str]) -> Result<Self, String> {
        match self
            .positional
            .iter()
            .find(|p| !allowed.contains(&p.as_str()))
        {
            Some(p) => Err(format!("unexpected argument {p:?}")),
            None => Ok(self),
        }
    }

    /// Parse the process's arguments, allowing only the positional
    /// words in `allowed`.
    pub fn from_env(allowed: &[&str]) -> Result<Self, String> {
        Self::parse(std::env::args().skip(1))?.allow_positional(allowed)
    }
}

/// Report a command-line error as `<bin>: <error>` on stderr and exit
/// with status 2.
pub fn usage_error(bin: &str, error: &str) -> ! {
    eprintln!("{bin}: {error}");
    std::process::exit(2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladders_hit_endpoints() {
        assert_eq!(k_ladder(1), vec![1]);
        assert_eq!(k_ladder(8), vec![1, 2, 3, 4, 6, 8]);
        let l = k_ladder(144);
        assert_eq!(*l.first().unwrap(), 1);
        assert_eq!(*l.last().unwrap(), 144);
        assert!(l.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn args_parse() {
        let a = CommonArgs::parse(
            ["a", "--quick", "--json", "out.json"]
                .into_iter()
                .map(String::from),
        )
        .unwrap();
        assert!(a.quick);
        assert_eq!(a.json.as_deref(), Some("out.json"));
        assert_eq!(a.positional, vec!["a"]);
        assert!(CommonArgs::parse(["--nope"].into_iter().map(String::from)).is_err());
        assert!(CommonArgs::parse(["--json"].into_iter().map(String::from)).is_err());
        assert!(a.clone().allow_positional(&["a", "b"]).is_ok());
        assert_eq!(
            a.allow_positional(&["b"]).unwrap_err(),
            "unexpected argument \"a\""
        );
    }

    #[test]
    fn failures_serialize_structured() {
        use lmpr_flitsim::{ConfigError, DeadlockReport};
        let rec = Record {
            experiment: "chaos-sweep".into(),
            topology: "XGFT(2; 4,4; 1,4)".into(),
            scheme: "d-mod-k".into(),
            k: 1,
            x: 0.05,
            y: 0.5,
            aux: None,
        };
        let deadlock = Failure {
            experiment: "chaos-sweep".into(),
            topology: "XGFT(2; 4,4; 1,4)".into(),
            scheme: "disjoint(4)".into(),
            k: 4,
            x: 0.05,
            seed: 7,
            error: SimError::Deadlock(DeadlockReport {
                cycle: 12_345,
                stalled_for: 2_000,
                flits_in_network: 96,
                in_flight_packets: 6,
                blocked_ports: 3,
                source_backlog: 40,
            }),
        };
        let doc = document_to_json(&[rec], &[deadlock]);
        // The deadlock is a kind-tagged object with every report field,
        // not a flattened message string.
        assert!(doc.contains("\"kind\": \"deadlock\""));
        assert!(doc.contains("\"cycle\": 12345"));
        assert!(doc.contains("\"stalled_for\": 2000"));
        assert!(doc.contains("\"flits_in_network\": 96"));
        assert!(doc.contains("\"in_flight_packets\": 6"));
        assert!(doc.contains("\"blocked_ports\": 3"));
        assert!(doc.contains("\"source_backlog\": 40"));
        assert!(doc.contains("\"seed\": 7"));
        assert!(doc.contains("\"records\": ["));
        assert!(doc.contains("\"failures\": ["));
        // Other SimError variants keep their kind tag and message.
        let error = |e: SimError| document(|w| write_sim_error(w, &e));
        assert_eq!(
            error(SimError::Config(ConfigError::ZeroPacketFlits)),
            r#"{"kind": "config", "message": "packets need at least one flit"}"#
        );
        assert_eq!(
            error(SimError::TooFewPns(1)),
            r#"{"kind": "too-few-pns", "num_pns": 1}"#
        );
        let back = jsonio::parse(&doc).expect("the document parses");
        assert_eq!(back.req_arr("failures").map(<[_]>::len), Ok(1));
    }

    #[test]
    fn empty_document_is_well_formed() {
        let doc = document_to_json(&[], &[]);
        assert_eq!(doc, "{\n  \"records\": [],\n  \"failures\": []\n}");
    }

    #[test]
    fn heuristic_set_is_the_papers() {
        let hs = heuristics_at(4, 0);
        assert_eq!(hs.len(), 3);
        assert_eq!(hs[0], RouterKind::ShiftOne(4));
        assert_eq!(hs[1], RouterKind::Disjoint(4));
        assert_eq!(hs[2], RouterKind::RandomK(4, 0));
    }
}
