//! Serving determinism: the deterministic `report` sub-object of a
//! `done` frame must be **byte-identical** wherever the same job runs —
//! cold (cache miss), warm (cache hit), on a daemon whose zero cache
//! budget admits nothing, on a single-worker or a four-worker daemon, and for inline netlists as much as generated
//! ones. Telemetry (`ms`, `counters`, the `cache` tag) legitimately
//! differs run to run; the report must not.
//!
//! The warm cache's own contract is pinned here too, with exact counts
//! instead of latency bounds: one entry per substrate shared by every
//! method, and a warm hit that skips placement and ATPG re-pricing.

#[path = "serve_util/mod.rs"]
mod serve_util;

use prebond3d_netlist::itc99;
use prebond3d_obs::json::Value;
use prebond3d_serve::ServerConfig;
use serve_util::{field, start_server, start_with, stop, test_config, Client};

const JOB: &str =
    r#"{"op":"submit","id":"det","circuit":"b11","die":0,"method":"ours","probe":"structural"}"#;

fn report_bytes(done: &Value) -> String {
    assert_eq!(done.get("code").and_then(Value::as_u64), Some(0), "{done}");
    done.get("report")
        .unwrap_or_else(|| panic!("done frame lacks report: {done}"))
        .to_string()
}

#[test]
fn cold_warm_and_uncached_reports_are_byte_identical() {
    let (server, addr) = start_server(1);
    let mut client = Client::connect(&addr);

    let cold = client.submit(JOB);
    assert_eq!(field(&cold, "cache"), "miss");
    let warm = client.submit(JOB);
    assert_eq!(field(&warm, "cache"), "hit");
    assert_eq!(
        report_bytes(&cold),
        report_bytes(&warm),
        "a warm hit must reproduce the cold report byte for byte"
    );

    stop(server);

    // `--cache-bytes 0`: no entry fits the budget, so every job runs
    // cold and still produces the same bytes.
    let (server, addr) = start_with(ServerConfig {
        workers: 1,
        cache_bytes: 0,
        ..test_config()
    });
    let mut client = Client::connect(&addr);
    for _ in 0..2 {
        let uncached = client.submit(JOB);
        assert_eq!(field(&uncached, "cache"), "miss");
        assert_eq!(report_bytes(&cold), report_bytes(&uncached));
    }
    stop(server);
}

#[test]
fn reports_are_identical_across_worker_counts() {
    let mut reference: Option<String> = None;
    for workers in [1, 4] {
        let (server, addr) = start_server(workers);
        // Several concurrent clients replaying the same job: every done
        // frame must carry the same report regardless of which worker
        // ran it or what else was in flight.
        let reports: Vec<String> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..3)
                .map(|_| {
                    let addr = addr.clone();
                    scope.spawn(move || {
                        let mut client = Client::connect(&addr);
                        report_bytes(&client.submit(JOB))
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        stop(server);
        for r in reports {
            match &reference {
                None => reference = Some(r),
                Some(reference) => {
                    assert_eq!(reference, &r, "report drifted at {workers} worker(s)");
                }
            }
        }
    }
}

/// A submit frame carrying the 6-FF inline die, priced by `probe`.
fn inline_job(id: &str, probe: &str) -> String {
    let spec = itc99::DieSpec {
        name: "inline_die".to_string(),
        scan_flip_flops: 6,
        gates: 80,
        inbound_tsvs: 3,
        outbound_tsvs: 3,
        primary_inputs: 2,
        primary_outputs: 2,
        seed: 11,
    };
    let text = prebond3d_netlist::format::write(&itc99::generate_die(&spec));
    Value::obj([
        ("op", "submit".into()),
        ("id", id.into()),
        ("netlist", text.as_str().into()),
        ("method", "ours".into()),
        ("probe", probe.into()),
    ])
    .to_string()
}

/// `stats.cache.<key>` of a `stats` frame.
fn cache_stat(stats: &Value, key: &str) -> u64 {
    stats
        .get("cache")
        .and_then(|c| c.get(key))
        .and_then(Value::as_u64)
        .unwrap_or_else(|| panic!("stats lacks cache.{key}: {stats}"))
}

/// A `done` frame's telemetry counter (0 when absent).
fn counter(done: &Value, name: &str) -> u64 {
    done.get("counters")
        .and_then(|c| c.get(name))
        .and_then(Value::as_u64)
        .unwrap_or(0)
}

#[test]
fn inline_netlists_key_by_content_and_reproduce() {
    let frame = inline_job("inline", "structural");

    let (server, addr) = start_server(2);
    let mut client = Client::connect(&addr);
    let cold = client.submit(&frame);
    assert_eq!(field(&cold, "cache"), "miss");
    let warm = client.submit(&frame);
    assert_eq!(
        field(&warm, "cache"),
        "hit",
        "an identical inline netlist must hit its signature-keyed entry"
    );
    assert_eq!(report_bytes(&cold), report_bytes(&warm));
    stop(server);
}

/// The warm cache holds one entry per substrate, and every method run on
/// that substrate shares it: five jobs over two dies cost exactly two
/// cold builds.
#[test]
fn one_warm_entry_per_substrate_is_shared_across_methods() {
    let (server, addr) = start_server(1);
    let mut client = Client::connect(&addr);
    for (die, method) in [
        (0, "ours"),
        (0, "agrawal"),
        (0, "li"),
        (1, "ours"),
        (1, "agrawal"),
    ] {
        let done = client.submit(&format!(
            r#"{{"op":"submit","id":"{method}-{die}","circuit":"b11","die":{die},"method":"{method}","probe":"structural"}}"#
        ));
        assert_eq!(done.get("code").and_then(Value::as_u64), Some(0), "{done}");
    }
    let stats = client.request(r#"{"op":"stats"}"#);
    assert_eq!(cache_stat(&stats, "misses"), 2, "{stats}");
    assert_eq!(cache_stat(&stats, "hits"), 3, "{stats}");
    stop(server);
}

/// A warm hit skips everything that made its cold run cold: no netlist
/// build or annealing, and every overlap pair is priced from the warm
/// probe's memo table — so the entry does not grow — while the report
/// stays byte-identical.
#[test]
fn a_warm_hit_skips_placement_and_repricing() {
    let (server, addr) = start_server(1);
    let mut client = Client::connect(&addr);
    let job = inline_job("warm-atpg", "atpg");

    let cold = client.submit(&job);
    assert_eq!(field(&cold, "cache"), "miss");
    assert!(counter(&cold, "anneal.moves_proposed") > 0, "{cold}");
    assert!(counter(&cold, "probe.cache_misses") > 0, "{cold}");
    let bytes_before = cache_stat(&client.request(r#"{"op":"stats"}"#), "bytes");

    let warm = client.submit(&job);
    assert_eq!(field(&warm, "cache"), "hit");
    assert!(counter(&warm, "probe.cache_hits") > 0, "{warm}");
    assert_eq!(counter(&warm, "probe.cache_misses"), 0, "{warm}");
    let Some(Value::Obj(counters)) = warm.get("counters") else {
        panic!("done frame lacks counters: {warm}");
    };
    assert!(
        counters.keys().all(|name| !name.starts_with("anneal.")),
        "a warm hit must not re-anneal: {warm}"
    );
    let bytes_after = cache_stat(&client.request(r#"{"op":"stats"}"#), "bytes");
    assert_eq!(
        bytes_before, bytes_after,
        "a warm hit must not grow its entry"
    );

    assert_eq!(report_bytes(&cold), report_bytes(&warm));
    stop(server);
}
