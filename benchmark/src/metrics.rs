//! The metric catalogue and the order statistics every report uses.
//!
//! The catalogue is `BENCHMARK.json` at the repository root, compiled in,
//! so the names, units, directions and bounds the benchmark prints and
//! compares by are the ones the file declares.

use std::collections::BTreeMap;
use std::sync::OnceLock;

use prebond3d_obs::json::{self, Value};

/// Which direction of change is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// Absolute tolerance of `setup_s`, in seconds. Set-up of the small
/// workloads takes a few milliseconds, where a millisecond of jitter is
/// already a quarter of the median. The floor lives here because a metric
/// entry of `BENCHMARK.json` holds only `name`, `unit`, `better` and `bound`.
const SETUP_FLOOR_S: f64 = 0.05;

/// One metric: name, unit, direction and (end-to-end only) regression bound
/// as a share of the baseline median, with an absolute floor under it.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub better: Better,
    pub bound: f64,
    pub floor: f64,
}

impl Metric {
    /// How far a value may move from `median` before it counts:
    /// max(bound · |median|, floor).
    pub fn tolerance(&self, median: f64) -> f64 {
        (self.bound * median.abs()).max(self.floor)
    }
}

pub struct Catalogue {
    /// Seconds one run spends on passes when `--seconds` is not given.
    pub run_seconds: f64,
    /// Printed by every untraced run.
    pub end_to_end: Vec<Metric>,
    /// Printed by every traced run (0 where a workload does not reach the
    /// layer). Times and counts are per pass.
    pub per_layer: Vec<Metric>,
}

pub fn catalogue() -> &'static Catalogue {
    static CATALOGUE: OnceLock<Catalogue> = OnceLock::new();
    CATALOGUE.get_or_init(|| {
        let spec = json::parse(include_str!("../../BENCHMARK.json"))
            .expect("BENCHMARK.json is valid JSON");
        let list = |key: &str| -> Vec<Metric> {
            spec.get(key)
                .and_then(Value::as_arr)
                .unwrap_or_else(|| panic!("BENCHMARK.json lacks `{key}`"))
                .iter()
                .map(|m| {
                    let text = |f: &str| {
                        m.get(f)
                            .and_then(Value::as_str)
                            .unwrap_or_else(|| panic!("a `{key}` entry lacks `{f}`"))
                            .to_string()
                    };
                    let name = text("name");
                    Metric {
                        floor: if name == "setup_s" {
                            SETUP_FLOOR_S
                        } else {
                            0.0
                        },
                        name,
                        unit: text("unit"),
                        better: if text("better") == "higher" {
                            Better::Higher
                        } else {
                            Better::Lower
                        },
                        bound: m.get("bound").and_then(Value::as_f64).unwrap_or(0.0),
                    }
                })
                .collect()
        };
        Catalogue {
            run_seconds: spec
                .get("run_seconds")
                .and_then(Value::as_f64)
                .expect("BENCHMARK.json has `run_seconds`"),
            end_to_end: list("end_to_end"),
            per_layer: list("per_layer"),
        }
    })
}

/// Unit of a catalogued metric.
pub fn unit(name: &str) -> &'static str {
    let c = catalogue();
    c.end_to_end
        .iter()
        .chain(&c.per_layer)
        .find(|m| m.name == name)
        .map_or("", |m| m.unit.as_str())
}

/// The values of `list`, in catalogue order.
///
/// # Panics
///
/// When the catalogue names a metric the benchmark does not compute.
pub fn select(list: &'static [Metric], values: &BTreeMap<&str, f64>) -> Vec<(&'static str, f64)> {
    list.iter()
        .map(|m| {
            let v = values.get(m.name.as_str()).unwrap_or_else(|| {
                panic!("BENCHMARK.json names `{}`, which is not computed", m.name)
            });
            (m.name.as_str(), *v)
        })
        .collect()
}

/// Sorted copy of `values` (NaN-free by construction: every sample is a
/// duration, count or ratio of finite numbers).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle values for an even count); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `p` in (0, 100]; 0 when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// First and third quartile by Python's `statistics.quantiles(values, n=4)`
/// ("exclusive" method), so spreads match what the bounds were set against.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let ld = v.len();
    if ld < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let q = |i: usize| {
        let m = ld + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// Interquartile distance as a share of the median (0 for a zero median).
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        // == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
    }

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        let v: Vec<f64> = (1..=500).map(f64::from).collect();
        assert_eq!(percentile(&v, 98.0), 490.0);
        assert_eq!(percentile(&v, 50.0), 250.0);
    }
}
