//! `compare A B`: two sets of result files (directories written with
//! `--out`), one row per workload × end-to-end metric, judged by the
//! bounds in `/BENCHMARK.json`.
//!
//! Verdicts: `improved` needs B to win at least nine tenths of the
//! seed-matched pairs (ties count for neither side) and the medians to
//! differ by more than A's own inter-quartile range; `unresolved` when
//! either side's spread exceeds the bound, unless every run of B reads
//! better than every run of A; `regressed` when B's median is worse
//! than A's by more than the bound; otherwise `unchanged`.

use crate::spec::{self, Bounded};
use crate::stats;
use lmpr_bench::jsonio::{self, Value};
use std::collections::BTreeMap;
use std::path::Path;

/// `workload → metric → (seed, value)` of one set's untraced runs.
pub type ResultSet = BTreeMap<String, BTreeMap<String, Vec<(u64, f64)>>>;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    Unresolved,
}

impl Verdict {
    pub fn tag(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Fold one result document (as written by `--out`) into `set`.
pub fn add_document(set: &mut ResultSet, text: &str) -> Result<(), String> {
    let doc = jsonio::parse(text).map_err(|e| e.to_string())?;
    let field = |k: &str| doc.get(k).ok_or_else(|| format!("no {k:?} field"));
    if field("trace")?.as_u64() != Some(0) {
        return Ok(());
    }
    let workload = field("workload")?
        .as_str()
        .ok_or("workload is not a string")?;
    let seed = field("seed")?
        .as_u64()
        .ok_or("seed is not a whole number")?;
    let result = field("result")?;
    if result.get("correct").and_then(Value::as_bool) != Some(true) {
        return Err(format!("{workload} seed {seed}: the run was not correct"));
    }
    let Some(Value::Obj(metrics)) = result.get("metrics") else {
        return Err("no metrics object".to_owned());
    };
    for (name, entry) in metrics {
        let value = entry
            .get("value")
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("{name}: no numeric value"))?;
        set.entry(workload.to_owned())
            .or_default()
            .entry(name.clone())
            .or_default()
            .push((seed, value));
    }
    Ok(())
}

/// Every `*.json` result document under `dir`.
pub fn load_dir(dir: &Path) -> Result<ResultSet, String> {
    let mut set = ResultSet::new();
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    files.sort();
    for path in files {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        add_document(&mut set, &text).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    if set.is_empty() {
        return Err(format!("{}: no untraced result documents", dir.display()));
    }
    Ok(set)
}

/// One row of the comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub unit: String,
    /// `[q1, median, q3]` of each side.
    pub a: [f64; 3],
    pub b: [f64; 3],
    /// B's median against A's, as a share of A's; positive is worse.
    pub worse_by: f64,
    pub bound: f64,
    pub wins: usize,
    pub pairs: usize,
    pub verdict: Verdict,
}

pub fn judge(m: &Bounded, a: &[(u64, f64)], b: &[(u64, f64)]) -> (f64, usize, usize, Verdict) {
    let better = |x: f64, y: f64| if m.higher_is_better { x > y } else { x < y };
    let (va, vb): (Vec<f64>, Vec<f64>) = (
        a.iter().map(|p| p.1).collect(),
        b.iter().map(|p| p.1).collect(),
    );
    let (ma, mb) = (stats::median(&va), stats::median(&vb));
    let sign = if m.higher_is_better { -1.0 } else { 1.0 };
    let worse_by = sign * (mb - ma) / ma;
    // Runs pair up by seed; a seed only one side ran has no pair.
    let pairs: Vec<(f64, f64)> = a
        .iter()
        .filter_map(|(seed, x)| b.iter().find(|(s, _)| s == seed).map(|(_, y)| (*x, *y)))
        .collect();
    let wins = pairs.iter().filter(|(x, y)| better(*y, *x)).count();
    let [q1, _, q3] = stats::quartiles(&va);
    let improved = wins * 10 >= pairs.len() * 9
        && !pairs.is_empty()
        && better(mb, ma)
        && (mb - ma).abs() > q3 - q1;
    let all_better = va.iter().all(|x| vb.iter().all(|y| better(*y, *x)));
    let noisy = stats::spread(&va) > m.bound || stats::spread(&vb) > m.bound;
    let verdict = if improved {
        Verdict::Improved
    } else if noisy && !all_better {
        Verdict::Unresolved
    } else if worse_by > m.bound {
        Verdict::Regressed
    } else {
        Verdict::Unchanged
    };
    (worse_by, wins, pairs.len(), verdict)
}

pub fn compare(a: &ResultSet, b: &ResultSet, bounds: &[Bounded]) -> Result<Vec<Row>, String> {
    let mut rows = Vec::new();
    for workload in spec::WORKLOADS {
        let (Some(wa), Some(wb)) = (a.get(workload), b.get(workload)) else {
            continue;
        };
        for m in bounds {
            let (Some(xa), Some(xb)) = (wa.get(&m.name), wb.get(&m.name)) else {
                return Err(format!("{workload}: {} is missing from one side", m.name));
            };
            if xa.len() < 2 || xb.len() < 2 {
                return Err(format!("{workload}: {} needs two runs a side", m.name));
            }
            let (worse_by, wins, pairs, verdict) = judge(m, xa, xb);
            let values = |x: &[(u64, f64)]| x.iter().map(|p| p.1).collect::<Vec<_>>();
            rows.push(Row {
                workload: workload.to_owned(),
                metric: m.name.clone(),
                unit: m.unit.clone(),
                a: stats::quartiles(&values(xa)),
                b: stats::quartiles(&values(xb)),
                worse_by,
                bound: m.bound,
                wins,
                pairs,
                verdict,
            });
        }
    }
    if rows.is_empty() {
        return Err("the two sets share no workload".to_owned());
    }
    Ok(rows)
}

pub fn render(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<15} {:<12} {:>5}  {:>36}  {:>36}  {:>8} {:>6} {:>6}  verdict\n",
        "workload",
        "metric",
        "unit",
        "A q1 / median / q3",
        "B q1 / median / q3",
        "worse by",
        "bound",
        "wins"
    );
    for r in rows {
        let side = |q: &[f64; 3]| format!("{:.5} / {:.5} / {:.5}", q[0], q[1], q[2]);
        out.push_str(&format!(
            "{:<15} {:<12} {:>5}  {:>36}  {:>36}  {:>+7.2}% {:>5.0}% {:>3}/{:<2}  {}\n",
            r.workload,
            r.metric,
            r.unit,
            side(&r.a),
            side(&r.b),
            r.worse_by * 100.0,
            r.bound * 100.0,
            r.wins,
            r.pairs,
            r.verdict.tag()
        ));
    }
    out
}

/// The subcommand: prints the table, returns whether nothing regressed
/// or stayed unresolved.
pub fn main(dir_a: &Path, dir_b: &Path) -> Result<bool, String> {
    let bounds = spec::end_to_end_of(spec::BENCHMARK_JSON)?;
    let rows = compare(&load_dir(dir_a)?, &load_dir(dir_b)?, &bounds)?;
    print!("{}", render(&rows));
    Ok(rows
        .iter()
        .all(|r| matches!(r.verdict, Verdict::Improved | Verdict::Unchanged)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(higher: bool, bound: f64) -> Bounded {
        Bounded {
            name: "m".to_owned(),
            unit: "u".to_owned(),
            higher_is_better: higher,
            bound,
        }
    }

    fn runs(values: &[f64]) -> Vec<(u64, f64)> {
        values
            .iter()
            .enumerate()
            .map(|(i, v)| (i as u64, *v))
            .collect()
    }

    const STEADY: [f64; 10] = [
        100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0,
    ];

    #[test]
    fn the_same_runs_are_unchanged_and_a_clear_shift_is_judged_by_direction() {
        let a = runs(&STEADY);
        let lower = metric(false, 0.10);
        assert_eq!(judge(&lower, &a, &a).3, Verdict::Unchanged);
        let faster: Vec<f64> = STEADY.iter().map(|v| v * 0.8).collect();
        let slower: Vec<f64> = STEADY.iter().map(|v| v * 1.2).collect();
        let (worse_by, wins, pairs, verdict) = judge(&lower, &a, &runs(&faster));
        assert!((worse_by + 0.2).abs() < 1e-9);
        assert_eq!((wins, pairs, verdict), (10, 10, Verdict::Improved));
        assert_eq!(judge(&lower, &a, &runs(&slower)).3, Verdict::Regressed);
        // The same numbers under "higher is better" swap the verdicts.
        let higher = metric(true, 0.10);
        assert_eq!(judge(&higher, &a, &runs(&slower)).3, Verdict::Improved);
        assert_eq!(judge(&higher, &a, &runs(&faster)).3, Verdict::Regressed);
    }

    #[test]
    fn a_shift_inside_the_parents_own_spread_is_not_a_gain() {
        let a = runs(&STEADY);
        let nudged: Vec<f64> = STEADY.iter().map(|v| v - 0.2).collect();
        let (_, wins, _, verdict) = judge(&metric(false, 0.10), &a, &runs(&nudged));
        assert_eq!(wins, 10, "every pair wins, yet the gap is within the IQR");
        assert_eq!(verdict, Verdict::Unchanged);
    }

    #[test]
    fn spread_beyond_the_bound_is_unresolved_unless_every_run_is_better() {
        let noisy = [
            100.0, 130.0, 80.0, 120.0, 90.0, 140.0, 70.0, 110.0, 95.0, 105.0,
        ];
        let a = runs(&noisy);
        let m = metric(false, 0.10);
        assert_eq!(judge(&m, &a, &a).3, Verdict::Unresolved);
        let halved: Vec<f64> = noisy.iter().map(|v| v * 0.4).collect();
        assert_eq!(judge(&m, &a, &runs(&halved)).3, Verdict::Improved);
        // Eight wins of ten is short of nine tenths.
        let mut mixed: Vec<f64> = STEADY.iter().map(|v| v * 0.8).collect();
        mixed[0] = 150.0;
        mixed[1] = 150.0;
        assert_ne!(
            judge(&m, &runs(&STEADY), &runs(&mixed)).3,
            Verdict::Improved
        );
    }

    #[test]
    fn documents_fold_into_sets_and_sets_into_rows() {
        let doc = |workload: &str, seed: u64, trace: u64, v: f64| {
            format!(
                "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"trace\": {trace}, \
                 \"result\": {{\"correct\": true, \"attempted\": 1, \"failed\": 0, \
                 \"metrics\": {{\"m\": {{\"value\": {v}, \"unit\": \"u\"}}}}}}}}"
            )
        };
        let (mut a, mut b) = (ResultSet::new(), ResultSet::new());
        for (i, v) in STEADY.iter().enumerate() {
            add_document(&mut a, &doc("flit_sweep", i as u64, 0, *v)).expect("parses");
            add_document(&mut b, &doc("flit_sweep", i as u64, 0, v * 2.0)).expect("parses");
        }
        add_document(&mut a, &doc("flit_sweep", 99, 1, 5.0)).expect("traced runs are skipped");
        assert_eq!(a["flit_sweep"]["m"].len(), 10);
        let rows = compare(&a, &b, &[metric(false, 0.10)]).expect("compares");
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].verdict, Verdict::Regressed);
        assert!((rows[0].worse_by - 1.0).abs() < 1e-9);
        assert!(render(&rows).contains("regressed"));
        let bad = doc("flit_sweep", 1, 0, 1.0).replace("\"correct\": true", "\"correct\": false");
        assert!(add_document(&mut a, &bad).is_err());
    }
}
