//! Runs every workload of `BENCHMARK.json` at its smallest size, traced and
//! untraced, and checks the output contract: each metric the file names is
//! printed as `name value unit`, the last line is the result object, and
//! the JSON report parses. Also checks the environment guard and that
//! `compare --same-code` accepts a set of reports against itself.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use prebond3d_obs::json::{self, Value};

fn spec() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn names(spec: &Value, key: &str) -> Vec<(String, String)> {
    spec.get(key)
        .and_then(Value::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |f: &str| m.get(f).and_then(Value::as_str).expect("metric field");
            (field("name").to_string(), field("unit").to_string())
        })
        .collect()
}

/// The benchmark binary, with the program's tuning variables cleared so an
/// ambient setting cannot trip the guard.
fn benchmark() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_prebond3d-benchmark"));
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("PREBOND3D_") {
            cmd.env_remove(key);
        }
    }
    cmd
}

fn run(workload: &str, trace: u8, out: &Path) -> Output {
    benchmark()
        .args(["--workload", workload, "--seed", "1", "--seconds", "1"])
        .args(["--trace", &trace.to_string(), "--smoke", "--out"])
        .arg(out)
        .output()
        .expect("benchmark binary runs")
}

#[test]
fn every_workload_prints_every_metric_with_its_unit() {
    let spec = spec();
    let out: PathBuf = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke");
    let _ = std::fs::remove_dir_all(&out);
    let workloads: Vec<String> = spec
        .get("workloads")
        .and_then(Value::as_arr)
        .expect("workload list")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Value::as_str)
                .expect("name")
                .to_string()
        })
        .collect();
    assert_eq!(workloads.len(), 4);
    for workload in &workloads {
        for (trace, key) in [(0u8, "end_to_end"), (1, "per_layer")] {
            let output = run(workload, trace, &out);
            let stdout = String::from_utf8_lossy(&output.stdout);
            assert!(
                output.status.success(),
                "{workload} trace {trace}: {}\n{stdout}",
                String::from_utf8_lossy(&output.stderr)
            );
            let lines: Vec<&str> = stdout.lines().collect();
            let result = json::parse(lines.last().expect("output")).expect("result line parses");
            assert_eq!(
                result.get("correct"),
                Some(&Value::Bool(true)),
                "{workload}"
            );
            assert!(result.get("attempted").and_then(Value::as_u64) >= Some(1));
            assert_eq!(result.get("failed").and_then(Value::as_u64), Some(0));
            let Some(Value::Obj(metrics)) = result.get("metrics") else {
                panic!("{workload}: no metrics object");
            };
            let expected = names(&spec, key);
            assert_eq!(metrics.len(), expected.len(), "{workload} trace {trace}");
            for (name, unit) in &expected {
                let printed = lines.iter().any(|l| {
                    let f: Vec<&str> = l.split(' ').collect();
                    f.len() == 3 && f[0] == name && f[1].parse::<f64>().is_ok() && f[2] == unit
                });
                assert!(
                    printed,
                    "{workload} trace {trace}: `{name} <value> {unit}` not printed"
                );
                let m = &metrics[name];
                assert!(m.get("value").and_then(Value::as_f64).is_some(), "{name}");
                assert_eq!(m.get("unit").and_then(Value::as_str), Some(unit.as_str()));
                if trace == 0 {
                    assert!(
                        m.get("value").and_then(Value::as_f64) > Some(0.0),
                        "{name} is 0"
                    );
                }
            }
            let report = out.join(format!("report-{workload}-s1-t{trace}.json"));
            let text = std::fs::read_to_string(&report).expect("report written");
            let report = json::parse(&text).expect("report parses");
            assert!(report.get("host").and_then(|h| h.get("nproc")).is_some());
        }
    }
    let compare = benchmark()
        .arg("compare")
        .arg("--same-code")
        .args([&out, &out])
        .output()
        .expect("compare runs");
    assert!(
        compare.status.success(),
        "{}",
        String::from_utf8_lossy(&compare.stdout)
    );
}

#[test]
fn tuning_variables_are_refused() {
    let output = benchmark()
        .env("PREBOND3D_LANES", "1")
        .args(["--workload", "table3_mid", "--seed", "1", "--smoke"])
        .output()
        .expect("benchmark binary runs");
    assert_eq!(output.status.code(), Some(2));
    assert!(output.stdout.is_empty());
    assert!(String::from_utf8_lossy(&output.stderr).contains("PREBOND3D_LANES"));
}
