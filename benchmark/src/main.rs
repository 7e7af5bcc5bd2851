//! `prebond3d-benchmark`: the wall-clock benchmark of the prebond3d flow.
//!
//! ```text
//! prebond3d-benchmark --workload <name> --seed <n> [--seconds <s>] [--trace 0|1]
//!                     [--out <dir>] [--smoke]
//! prebond3d-benchmark compare [--same-code] <dirA> <dirB>
//! ```
//!
//! A run sets its workload up several times (the median is `setup_s`), then
//! runs identical passes until `--seconds` are used. It prints every metric
//! as `name value unit`, writes a JSON report (and, traced, a Chrome trace)
//! under `--out`, and ends with one JSON line:
//! `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}`.
//! Untraced runs report the end-to-end metrics, traced runs the per-layer
//! ones. See `benchmark/README.md`.

mod compare;
mod layers;
mod metrics;
mod serve_mix;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use prebond3d_obs as obs;
use prebond3d_obs::json::Value;

use layers::Layers;
use trace::Tracer;
use workloads::{Ctx, Pass, SetupTimes, Workload};

const WORKLOADS: [&str; 4] = ["table4_small", "table3_mid", "faultsim_grade", "serve_mix"];

/// A run sets up at least `SETUP_REPS` times, and cheap set-ups are
/// repeated until `SETUP_BUDGET_S` or `SETUP_REPS_MAX`; `setup_s` is the
/// median.
const SETUP_REPS: usize = 3;
const SETUP_REPS_MAX: usize = 50;
const SETUP_BUDGET_S: f64 = 2.0;

/// Pool threads of every run: the benchmark loads the host from one process
/// with at most 2 threads.
const THREADS: usize = 2;

const USAGE: &str =
    "usage: prebond3d-benchmark --workload <table4_small|table3_mid|faultsim_grade|serve_mix> \
--seed <n> [--seconds <s>] [--trace 0|1] [--out <dir>] [--smoke]\n       \
prebond3d-benchmark compare [--same-code] <dirA> <dirB>";

struct Opts {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
    smoke: bool,
}

impl Opts {
    fn parse(args: &[String]) -> Result<Opts, String> {
        let mut workload = None;
        let mut seed = None;
        let mut opts = Opts {
            workload: "",
            seed: 0,
            seconds: metrics::catalogue().run_seconds,
            trace: false,
            out: PathBuf::from("bench-out"),
            smoke: false,
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            if flag == "--smoke" {
                opts.smoke = true;
                continue;
            }
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            let bad = format!("bad value `{value}` for {flag}");
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        *WORKLOADS
                            .iter()
                            .find(|w| *w == value)
                            .ok_or(format!("unknown workload `{value}`"))?,
                    );
                }
                "--seed" => seed = Some(value.parse().map_err(|_| bad.clone())?),
                "--seconds" => opts.seconds = value.parse().map_err(|_| bad.clone())?,
                "--trace" => {
                    opts.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad),
                    }
                }
                "--out" => opts.out = PathBuf::from(value),
                _ => return Err(format!("unknown flag `{flag}`")),
            }
        }
        opts.workload = workload.ok_or("--workload is required")?;
        opts.seed = seed.ok_or("--seed is required")?;
        if opts.seconds.is_nan() || opts.seconds <= 0.0 {
            return Err("--seconds must be positive".into());
        }
        Ok(opts)
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        std::process::exit(compare::main(&args[1..]));
    }
    let opts = match Opts::parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    // The knobs would measure some other configuration than the default
    // program, so a run refuses them rather than report it.
    let knobs: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("PREBOND3D_"))
        .collect();
    if !knobs.is_empty() {
        eprintln!(
            "error: unset {} before benchmarking; the benchmark measures the default program",
            knobs.join(", ")
        );
        std::process::exit(2);
    }
    let code = prebond3d_pool::with_threads(THREADS, || run(&opts));
    std::process::exit(code);
}

fn setup(opts: &Opts, times: &mut SetupTimes) -> std::io::Result<Box<dyn Workload>> {
    let (seed, smoke) = (opts.seed, opts.smoke);
    Ok(match opts.workload {
        "table4_small" => Box::new(workloads::Table4::setup(seed, smoke, times)),
        "table3_mid" => Box::new(workloads::Table3::setup(seed, smoke, times)),
        "faultsim_grade" => Box::new(workloads::FaultsimGrade::setup(seed, smoke, times)),
        _ => Box::new(serve_mix::ServeMix::setup(seed, smoke, &opts.out, times)?),
    })
}

/// One pass as the run loop saw it.
struct PassRun {
    traced: bool,
    wall_s: f64,
    pass: Pass,
}

fn run(opts: &Opts) -> i32 {
    if let Err(e) = std::fs::create_dir_all(&opts.out) {
        eprintln!("error: cannot create {}: {e}", opts.out.display());
        return 2;
    }
    let mut setup_s = Vec::new();
    let mut generate_s = Vec::new();
    let mut place_s = Vec::new();
    let mut workload = None;
    let setup_start = Instant::now();
    while setup_s.len() < SETUP_REPS
        || (setup_s.len() < SETUP_REPS_MAX && setup_start.elapsed().as_secs_f64() < SETUP_BUDGET_S)
    {
        drop(workload.take());
        let mut times = SetupTimes::default();
        let t = Instant::now();
        match setup(opts, &mut times) {
            Ok(w) => workload = Some(w),
            Err(e) => {
                eprintln!("error: set-up failed: {e}");
                return 2;
            }
        }
        setup_s.push(t.elapsed().as_secs_f64());
        generate_s.push(times.generate_s);
        place_s.push(times.place_s);
    }
    let mut workload = workload.expect("set up at least once");

    let tracer = Tracer::new();
    let mut layers = Layers::default();
    let mut runs: Vec<PassRun> = Vec::new();
    let start = Instant::now();
    loop {
        // A traced run alternates traced and untraced passes, so the two
        // can be compared within the run. The first pass is traced: on
        // serve_mix it holds the cold jobs.
        let traced = opts.trace && runs.len().is_multiple_of(2);
        let (wall_s, pass) = run_pass(
            workload.as_mut(),
            &tracer,
            runs.len(),
            traced.then_some(&mut layers),
        );
        runs.push(PassRun {
            traced,
            wall_s,
            pass,
        });
        let min_passes = if opts.trace { 2 } else { 1 };
        if runs.len() >= min_passes && start.elapsed().as_secs_f64() + wall_s > opts.seconds {
            break;
        }
    }
    let extra_layers = workload.finish();
    drop(workload);

    let mut failures: Vec<String> = Vec::new();
    let reference = runs[0].pass.fingerprint;
    for (i, r) in runs.iter().enumerate() {
        failures.extend(r.pass.failures.iter().cloned());
        if r.pass.fingerprint != reference {
            failures.push(format!(
                "pass {i} ({}) fingerprint {:016x} differs from pass 0's {reference:016x}",
                if r.traced { "traced" } else { "untraced" },
                r.pass.fingerprint
            ));
        }
    }
    let attempted = runs
        .iter()
        .map(|r| r.pass.ops_ms.len() as u64)
        .sum::<u64>()
        .max(1);

    let walls = |traced: bool| -> Vec<f64> {
        runs.iter()
            .filter(|r| r.traced == traced)
            .map(|r| r.wall_s)
            .collect()
    };
    let catalogue = metrics::catalogue();
    let metrics = if opts.trace {
        let mut extra: BTreeMap<&'static str, f64> = extra_layers.into_iter().collect();
        extra.insert("netlist.generate_s", metrics::median(&generate_s));
        extra.insert("place.place_s", metrics::median(&place_s));
        extra.insert(
            "obs.trace_overhead_pct",
            100.0 * (metrics::median(&walls(true)) / metrics::median(&walls(false)) - 1.0),
        );
        metrics::select(&catalogue.per_layer, &layers.finish(&extra))
    } else {
        let ops: Vec<f64> = runs.iter().flat_map(|r| r.pass.ops_ms.clone()).collect();
        let values = BTreeMap::from([
            ("wall_s", metrics::median(&walls(false))),
            ("op_p50_ms", metrics::percentile(&ops, 50.0)),
            ("op_p98_ms", metrics::percentile(&ops, 98.0)),
            ("setup_s", metrics::median(&setup_s)),
            (
                "peak_rss_mb",
                obs::mem::rss_peak_kb().unwrap_or(0) as f64 / 1024.0,
            ),
            ("wrapper_cells", runs[0].pass.wrapper_cells as f64),
        ]);
        metrics::select(&catalogue.end_to_end, &values)
    };

    let metric_json = |list: &[(&'static str, f64)]| {
        Value::Obj(
            list.iter()
                .map(|(name, v)| {
                    (
                        (*name).to_string(),
                        Value::obj([("value", (*v).into()), ("unit", metrics::unit(name).into())]),
                    )
                })
                .collect(),
        )
    };
    for (name, v) in &metrics {
        println!("{name} {v} {}", metrics::unit(name));
    }
    for f in &failures {
        eprintln!("check failed: {f}");
    }
    println!(
        "# workload {} seed {} passes {} fingerprint {reference:016x} failed_ops_ratio {}",
        opts.workload,
        opts.seed,
        runs.len(),
        failures.len() as f64 / attempted as f64
    );

    let tag = format!("{}-s{}-t{}", opts.workload, opts.seed, u8::from(opts.trace));
    let report = Value::obj([
        ("workload", opts.workload.into()),
        ("seed", opts.seed.into()),
        ("trace", opts.trace.into()),
        ("smoke", opts.smoke.into()),
        ("seconds", opts.seconds.into()),
        ("threads", THREADS.into()),
        ("host", host()),
        ("correct", failures.is_empty().into()),
        ("attempted", attempted.into()),
        ("failed", failures.len().into()),
        (
            "failures",
            Value::Arr(failures.iter().map(|f| f.as_str().into()).collect()),
        ),
        ("fingerprint", format!("{reference:016x}").into()),
        (
            "setup_s",
            Value::Arr(setup_s.iter().map(|&s| s.into()).collect()),
        ),
        (
            "passes",
            Value::Arr(
                runs.iter()
                    .map(|r| {
                        Value::obj([
                            ("traced", r.traced.into()),
                            ("wall_s", r.wall_s.into()),
                            ("ops", r.pass.ops_ms.len().into()),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("metrics", metric_json(&metrics)),
    ]);
    let written = std::fs::write(
        opts.out.join(format!("report-{tag}.json")),
        report.to_string(),
    )
    .and_then(|()| {
        if opts.trace {
            tracer.write_chrome(&opts.out.join(format!("trace-{tag}.json")))
        } else {
            Ok(())
        }
    });
    if let Err(e) = written {
        eprintln!(
            "error: cannot write the report under {}: {e}",
            opts.out.display()
        );
        return 2;
    }
    println!(
        "{}",
        Value::obj([
            ("correct", failures.is_empty().into()),
            ("attempted", attempted.into()),
            ("failed", failures.len().into()),
            ("metrics", metric_json(&metrics)),
        ])
    );
    i32::from(!failures.is_empty())
}

/// Run one pass; on a traced pass, fold the program's telemetry and the
/// benchmark's own measurements into `layers`.
fn run_pass(
    workload: &mut dyn Workload,
    tracer: &Tracer,
    index: usize,
    mut layers: Option<&mut Layers>,
) -> (f64, Pass) {
    let traced = layers.is_some();
    tracer.set_enabled(traced);
    if traced {
        obs::reset();
        prebond3d_pool::drain_chunk_wait();
    }
    let alloc_before = obs::alloc_stats().map_or(0, |(total, _, _)| total);
    let recording = traced.then(obs::record);
    let span = tracer.span("pass", &format!("pass {index}"), None, 0);
    let t = Instant::now();
    let pass = workload.pass(
        &Ctx {
            tracer,
            parent: span.index(),
            pass: index,
        },
        layers.as_deref_mut(),
    );
    let wall_s = t.elapsed().as_secs_f64();
    let parent = span.index();
    drop(span);
    drop(recording);
    if let Some(l) = layers {
        l.add_snapshot(&obs::snapshot());
        l.add(
            "chunk_wait_s",
            prebond3d_pool::drain_chunk_wait().sum() as f64 / 1e9,
        );
        let alloc_after = obs::alloc_stats().map_or(0, |(total, _, _)| total);
        l.add("alloc_bytes", (alloc_after - alloc_before) as f64);
        l.add("layer_time_s", tracer.children_s(parent));
        l.add("pass_capacity_s", wall_s * workload.concurrency() as f64);
        l.end_pass();
    }
    (wall_s, pass)
}

/// Where the numbers were measured.
fn host() -> Value {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let rustc = std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".into(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        );
    Value::obj([
        ("nproc", prebond3d_pool::available().into()),
        ("cpu_model", cpu.into()),
        ("rustc", rustc.into()),
        ("commit", git_commit(Path::new(".git")).into()),
    ])
}

/// The checked-out commit, read from `.git` in the working directory
/// ("unknown" outside a git checkout).
fn git_commit(git: &Path) -> String {
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let Some(reference) = head.trim().strip_prefix("ref: ") else {
        return head.trim().to_string();
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split(' ').next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}
