//! Serving soak (CI's dedicated soak step; `#[ignore]` for normal runs):
//! many clients hammer one daemon with chaos injection armed, malformed
//! frames interspersed and connections dropped mid-job — and at the end
//! every job must be accounted (done or failed, none lost), the warm
//! cache must have respected its byte budget throughout, no panic may
//! have escaped a job (the daemon still serves), and RSS stays bounded.
//!
//! Run with `cargo test --test serve_soak -- --ignored`.

#[path = "serve_util/mod.rs"]
mod serve_util;

use prebond3d_obs::json::Value;
use prebond3d_resilience as resil;
use prebond3d_rng::StdRng;
use prebond3d_serve::{Bind, Server, ServerConfig};
use serve_util::{field, job_stat, Client};

/// Tight enough that the three substrates (~31/59/67 KB warm entries)
/// cannot all stay resident at once, yet roomy enough that each one is
/// individually admissible — so the soak continually evicts and
/// re-checks the budget invariant under load.
const SOAK_CACHE_BYTES: usize = 128 * 1024;

/// Full soak: `#[ignore]`d, run by CI's dedicated soak job.
#[test]
#[ignore = "soak: minutes of load; CI runs it in the dedicated soak job"]
fn soak_under_chaos_accounts_every_job_and_keeps_the_budget() {
    soak(4, 25);
}

/// Tier-1 slice of the same storm: small enough for every `cargo test`
/// run, identical invariants. Chaos stays armed so the accounting and
/// budget checks still face injected faults, not a calm daemon.
#[test]
fn short_soak_slice_accounts_every_job_and_keeps_the_budget() {
    soak(2, 8);
}

fn soak(clients: usize, jobs_per_client: usize) {
    // Arm chaos for the whole process — server workers included.
    resil::chaos::install(Some((0xC0FF_EE00, 0.02)));
    let server = Server::start(ServerConfig {
        bind: Bind::Tcp("127.0.0.1:0".to_string()),
        workers: 4,
        cache_bytes: SOAK_CACHE_BYTES,
        ..ServerConfig::default()
    })
    .expect("bind soak daemon");
    let addr = server.addr().expect("tcp addr").to_string();
    let rss_before_kb = prebond3d_obs::mem::rss_now_kb().unwrap_or(0);

    let substrates = [("b11", 0usize), ("b11", 1), ("b12", 0)];
    let methods = ["ours", "agrawal", "li", "naive"];
    let per_client: Vec<(u64, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let addr = addr.clone();
                let substrates = &substrates;
                let methods = &methods;
                scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(0x50A6 ^ ((c as u64) << 8));
                    let mut completed = 0u64;
                    let mut submitted = 0u64;
                    let mut client = Client::connect(&addr);
                    for j in 0..jobs_per_client {
                        // Sprinkle protocol abuse between jobs; the
                        // daemon must absorb it without desyncing.
                        if rng.gen_bool(0.2) {
                            let frame = client.request(r#"{"op":"submit"}"#);
                            assert_eq!(field(&frame, "ev"), "error");
                        }
                        let (circuit, die) = substrates[rng.gen_range(0..substrates.len())];
                        let method = methods[rng.gen_range(0..methods.len())];
                        let line = format!(
                            r#"{{"op":"submit","id":"c{c}-j{j}","circuit":"{circuit}","die":{die},"method":"{method}","probe":"structural"}}"#
                        );
                        submitted += 1;
                        if rng.gen_bool(0.1) {
                            // Mid-job disconnect: send, read `accepted`,
                            // drop the connection and reconnect.
                            client.send_line(&line);
                            assert_eq!(field(&client.read_frame(), "ev"), "accepted");
                            client = Client::connect(&addr);
                            continue;
                        }
                        let done = client.submit(&line);
                        let code = done.get("code").and_then(Value::as_u64).expect("code");
                        // Chaos makes 3 (degraded) and 4 (panic) legal;
                        // 1/2 would mean the daemon corrupted the job.
                        assert!(
                            matches!(code, 0 | 3 | 4),
                            "unexpected exit code {code}: {done}"
                        );
                        completed += 1;
                    }
                    (submitted, completed)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let sent: u64 = per_client.iter().map(|&(s, _)| s).sum();
    assert_eq!(sent, (clients * jobs_per_client) as u64);

    // Every job — including the orphaned ones — must drain to done or
    // failed; nothing may be lost in the queue.
    let mut control = Client::connect(&addr);
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(300);
    loop {
        let stats = control.request(r#"{"op":"stats"}"#);
        let submitted = job_stat(&stats, "submitted");
        let drained = job_stat(&stats, "done") + job_stat(&stats, "failed");
        if submitted == sent && drained == submitted {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "jobs lost under chaos: {stats}, {sent} sent"
        );
        std::thread::sleep(std::time::Duration::from_millis(100));
    }

    // Budget invariant: the warm cache never holds more than its budget
    // (strict, even after probe-growth reweighs), and the tight budget
    // actually forced evictions, so the invariant was exercised.
    let cache = server.cache_stats();
    assert!(
        cache.bytes <= cache.budget,
        "cache over budget: {} > {}",
        cache.bytes,
        cache.budget
    );
    assert!(cache.evictions > 0, "soak budget never forced an eviction");
    assert!(cache.hits > 0, "soak never hit the warm cache");

    // No escaped panic: the daemon still serves after the storm.
    assert_eq!(field(&control.request(r#"{"op":"ping"}"#), "ev"), "pong");

    // RSS bounded: a leak across ~100 jobs would show up as unbounded
    // growth; allow generous headroom for allocator retention.
    let rss_after_kb = prebond3d_obs::mem::rss_now_kb().unwrap_or(0);
    assert!(
        rss_after_kb.saturating_sub(rss_before_kb) < 1_500_000,
        "RSS grew {rss_before_kb} -> {rss_after_kb} kB during the soak"
    );

    resil::chaos::install(None);
    server.shutdown();
    server.join();
}
