//! `compare [--same-code] <dirA> <dirB>`: judge two sets of untraced run
//! reports metric by metric.
//!
//! For every (workload, end-to-end metric) it prints both medians and
//! spreads, the share of seed-matched pairs B wins, and a verdict. A
//! metric's tolerance is max(bound · median, floor) (see
//! [`crate::metrics::Metric::tolerance`]):
//!
//! * `improved` — B wins at least 9 pairs in 10 and the medians differ by
//!   more than A's interquartile distance;
//! * `regressed` — B's median is worse than A's by more than the tolerance;
//! * `unresolved` — A's interquartile distance is wider than the tolerance,
//!   so neither can be told (unless every run of B beats every run of A);
//! * `unchanged` — none of these.
//!
//! Within one set, reports (traced or not) of one workload and seed whose
//! output fingerprints differ fail the comparison. Between the sets, changed
//! outputs are expected of a change that, say, saves wrapper cells; they
//! are printed, and fail only under `--same-code`.
//!
//! With `--same-code` both sets come from one commit, and the verdict is
//! whether they agree: medians and both interquartile distances within the
//! tolerance, and the same outputs.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

use prebond3d_obs::json::{self, Value};

use crate::metrics::{self, Better};

/// Untraced values by (workload, metric), each with its seed.
type Runs = BTreeMap<(String, String), Vec<(u64, f64)>>;

/// Output fingerprints of every report of one set, traced or not, by
/// (workload, seed, smoke size).
type Fingerprints = BTreeMap<(String, u64, bool), BTreeSet<String>>;

/// One directory of reports.
struct Set {
    runs: Runs,
    fingerprints: Fingerprints,
}

fn load(dir: &Path) -> Result<Set, String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut set = Set {
        runs: Runs::new(),
        fingerprints: Fingerprints::new(),
    };
    for entry in entries.flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        if !(name.starts_with("report-") && name.ends_with(".json")) {
            continue;
        }
        let path = entry.path();
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let workload = doc.get("workload").and_then(Value::as_str).unwrap_or("");
        let seed = doc.get("seed").and_then(Value::as_u64).unwrap_or(0);
        let smoke = doc.get("smoke").and_then(Value::as_bool) == Some(true);
        if let Some(fp) = doc.get("fingerprint").and_then(Value::as_str) {
            set.fingerprints
                .entry((workload.to_string(), seed, smoke))
                .or_default()
                .insert(fp.to_string());
        }
        if doc.get("trace").and_then(Value::as_bool) != Some(false) {
            continue;
        }
        if let Some(Value::Obj(metrics)) = doc.get("metrics") {
            for (metric, v) in metrics {
                if let Some(x) = v.get("value").and_then(Value::as_f64) {
                    set.runs
                        .entry((workload.to_string(), metric.clone()))
                        .or_default()
                        .push((seed, x));
                }
            }
        }
    }
    if set.runs.is_empty() {
        return Err(format!(
            "{}: no untraced report-*.json files",
            dir.display()
        ));
    }
    Ok(set)
}

/// How much worse `b` is than `a`, in the metric's unit (negative = better).
fn worse_by(better: Better, a: f64, b: f64) -> f64 {
    match better {
        Better::Lower => b - a,
        Better::Higher => a - b,
    }
}

/// Check the outputs: each set must agree with itself; between the sets a
/// difference is printed, and is a failure only when `same_code`.
fn outputs_agree(a: &Set, b: &Set, same_code: bool) -> bool {
    let mut ok = true;
    for (label, set) in [("A", a), ("B", b)] {
        for ((workload, seed, _), fps) in &set.fingerprints {
            if fps.len() > 1 {
                println!("{workload} seed {seed}: set {label}'s runs differ in output, fingerprints {fps:?}");
                ok = false;
            }
        }
    }
    for (key, fa) in &a.fingerprints {
        let Some(fb) = b.fingerprints.get(key) else {
            continue;
        };
        if fa != fb {
            let (workload, seed, _) = key;
            println!("{workload} seed {seed}: outputs changed, fingerprints {fa:?} -> {fb:?}");
            ok &= !same_code;
        }
    }
    ok
}

pub fn main(args: &[String]) -> i32 {
    let same_code = args.iter().any(|a| a == "--same-code");
    let dirs: Vec<&String> = args.iter().filter(|a| !a.starts_with("--")).collect();
    let [dir_a, dir_b] = dirs.as_slice() else {
        eprintln!("usage: prebond3d-benchmark compare [--same-code] <dirA> <dirB>");
        return 2;
    };
    let (a, b) = match (load(Path::new(dir_a)), load(Path::new(dir_b))) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    let mut failed = !outputs_agree(&a, &b, same_code);
    println!(
        "{:<15} {:<14} {:>12} {:>12} {:>7} {:>7} {:>5} {:>9}  verdict",
        "workload", "metric", "median A", "median B", "sprd A", "sprd B", "wins", "tolerance"
    );
    let workloads: BTreeSet<&String> = a.runs.keys().chain(b.runs.keys()).map(|(w, _)| w).collect();
    for workload in workloads {
        for m in &metrics::catalogue().end_to_end {
            let key = (workload.clone(), m.name.clone());
            let (Some(ra), Some(rb)) = (a.runs.get(&key), b.runs.get(&key)) else {
                println!("{workload:<15} {:<14} missing in one set", m.name);
                failed = true;
                continue;
            };
            let va: Vec<f64> = ra.iter().map(|r| r.1).collect();
            let vb: Vec<f64> = rb.iter().map(|r| r.1).collect();
            let (ma, mb) = (metrics::median(&va), metrics::median(&vb));
            let ((q1a, q3a), (q1b, q3b)) = (metrics::quartiles(&va), metrics::quartiles(&vb));
            let tolerance = m.tolerance(ma);
            // Pair runs by seed where both sets have it, else by position.
            let seeds_a: BTreeMap<u64, f64> = ra.iter().copied().collect();
            let mut pairs: Vec<(f64, f64)> = rb
                .iter()
                .filter_map(|&(s, y)| seeds_a.get(&s).map(|&x| (x, y)))
                .collect();
            if pairs.is_empty() {
                pairs = va.iter().copied().zip(vb.iter().copied()).collect();
            }
            let wins = pairs
                .iter()
                .filter(|&&(x, y)| worse_by(m.better, x, y) < 0.0)
                .count();
            let win_share = wins as f64 / pairs.len().max(1) as f64;
            let worse = worse_by(m.better, ma, mb);
            let verdict = if same_code {
                let steady = q3a - q1a <= tolerance && q3b - q1b <= m.tolerance(mb);
                if worse.abs() <= tolerance && steady {
                    "agrees"
                } else {
                    failed = true;
                    "disagrees"
                }
            } else {
                let all_better = va
                    .iter()
                    .all(|&x| vb.iter().all(|&y| worse_by(m.better, x, y) < 0.0));
                if q3a - q1a > tolerance {
                    if all_better {
                        "improved"
                    } else {
                        "unresolved"
                    }
                } else if win_share >= 0.9 && worse < 0.0 && worse.abs() > q3a - q1a {
                    "improved"
                } else if worse > tolerance {
                    failed = true;
                    "regressed"
                } else {
                    "unchanged"
                }
            };
            println!(
                "{workload:<15} {:<14} {ma:>12.4} {mb:>12.4} {:>6.1}% {:>6.1}% {wins:>2}/{:<2} {tolerance:>9.4}  {verdict}",
                m.name,
                100.0 * metrics::spread(&va),
                100.0 * metrics::spread(&vb),
                pairs.len(),
            );
        }
    }
    i32::from(failed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(fingerprints: &[&str]) -> Set {
        Set {
            runs: Runs::new(),
            fingerprints: Fingerprints::from([(
                ("table3_mid".to_string(), 1, false),
                fingerprints.iter().map(|f| f.to_string()).collect(),
            )]),
        }
    }

    #[test]
    fn changed_outputs_fail_only_same_code() {
        let (a, b) = (set(&["aa"]), set(&["bb"]));
        assert!(outputs_agree(&a, &b, false));
        assert!(!outputs_agree(&a, &b, true));
        assert!(outputs_agree(&a, &set(&["aa"]), true));
    }

    #[test]
    fn runs_of_one_set_must_agree() {
        let (a, b) = (set(&["aa", "ab"]), set(&["aa"]));
        assert!(!outputs_agree(&a, &b, false));
        assert!(!outputs_agree(&b, &a, false));
    }

    #[test]
    fn setup_tolerance_has_a_floor() {
        let c = metrics::catalogue();
        let setup = c.end_to_end.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!(setup.tolerance(0.004), 0.05);
        assert_eq!(setup.tolerance(2.0), 2.0 * setup.bound);
        let wall = c.end_to_end.iter().find(|m| m.name == "wall_s").unwrap();
        assert_eq!(wall.tolerance(4.0), 4.0 * wall.bound);
    }
}
