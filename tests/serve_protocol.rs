//! Protocol robustness: malformed frames, oversized lines, half-written
//! requests and mid-job disconnects must never take the daemon down —
//! every abuse gets a well-formed `error` frame (or is absorbed), and
//! the connection/daemon keeps serving afterwards.

#[path = "serve_util/mod.rs"]
mod serve_util;

use prebond3d_obs::json::Value;
use prebond3d_rng::StdRng;
use serve_util::{field, job_stat, start_server, stop, Client};

fn assert_error_frame(frame: &Value) {
    assert_eq!(
        frame.get("ok").and_then(Value::as_bool),
        Some(false),
        "{frame}"
    );
    assert_eq!(field(frame, "ev"), "error");
    assert!(
        !field(frame, "error").is_empty(),
        "error frames must say what went wrong: {frame}"
    );
}

#[test]
fn malformed_frames_get_errors_and_the_connection_survives() {
    let (server, addr) = start_server(1);
    let mut client = Client::connect(&addr);
    let abuses = [
        "{",                                                    // truncated JSON
        r#"{"no":"op"}"#,                                       // op missing
        r#"{"op":"dance"}"#,                                    // unknown op
        r#"{"op":"submit"}"#,                                   // no netlist source
        r#"{"op":"submit","circuit":"b11","method":"x"}"#,      // unknown method
        r#"{"op":"submit","circuit":"b11","probe":"psychic"}"#, // unknown probe
        "[1,2,3]",                                              // wrong top-level shape
    ];
    for abuse in abuses {
        let frame = client.request(abuse);
        assert_error_frame(&frame);
    }
    // The same connection still serves.
    assert_eq!(field(&client.request(r#"{"op":"ping"}"#), "ev"), "pong");
    let stats = client.request(r#"{"op":"stats"}"#);
    assert_eq!(job_stat(&stats, "protocol_errors"), abuses.len() as u64);
    stop(server);
}

#[test]
fn seeded_garbage_sweep_never_kills_the_daemon() {
    let (server, addr) = start_server(1);
    let mut client = Client::connect(&addr);
    let mut rng = StdRng::seed_from_u64(0xBAD_F00D);
    for _ in 0..200 {
        let len = rng.gen_range(1..80usize);
        let line: String = (0..len)
            .map(|_| {
                // Printable ASCII minus newline: stays one frame.
                char::from(rng.gen_range(0x20u32..0x7f) as u8)
            })
            .collect();
        let frame = client.request(&line);
        // Whatever the bytes happened to parse as, the daemon answered
        // with a frame; random garbage is overwhelmingly an error.
        assert!(frame.get("ev").is_some(), "untagged frame: {frame}");
    }
    assert_eq!(field(&client.request(r#"{"op":"ping"}"#), "ev"), "pong");
    stop(server);
}

#[test]
fn oversized_lines_are_rejected_without_desyncing_the_stream() {
    let (server, addr) = start_server(1);
    let mut client = Client::connect(&addr);
    // ~1.2 MiB of junk on one line, over the 1 MiB bound.
    let huge = "x".repeat(1_200_000);
    client.send_line(&huge);
    let frame = client.read_frame();
    assert_error_frame(&frame);
    assert!(
        field(&frame, "error").contains("exceeds"),
        "error should name the bound: {frame}"
    );
    // The stream is still framed: the next request parses normally.
    assert_eq!(field(&client.request(r#"{"op":"ping"}"#), "ev"), "pong");
    stop(server);
}

#[test]
fn interleaved_half_requests_from_two_clients_stay_isolated() {
    let (server, addr) = start_server(2);
    let mut half = Client::connect(&addr);
    let mut whole = Client::connect(&addr);

    // Client A writes half a frame and stalls...
    half.send_raw(br#"{"op":"pi"#);
    // ...client B is completely unaffected...
    assert_eq!(field(&whole.request(r#"{"op":"ping"}"#), "ev"), "pong");
    assert_eq!(field(&whole.request(r#"{"op":"stats"}"#), "ev"), "stats");
    // ...and client A's completed line still parses as one frame.
    half.send_raw(b"ng\"}\n");
    assert_eq!(field(&half.read_frame(), "ev"), "pong");
    stop(server);
}

#[test]
fn mid_job_disconnect_drops_frames_but_the_job_completes() {
    let (server, addr) = start_server(1);
    let job = r#"{"op":"submit","id":"orphan","circuit":"b11","die":0,"method":"ours","probe":"structural"}"#;
    {
        let mut doomed = Client::connect(&addr);
        doomed.send_line(job);
        let first = doomed.read_frame();
        assert_eq!(field(&first, "ev"), "accepted");
        // Drop the connection with the job still running.
    }
    // The daemon finishes the orphaned job (frames are discarded) and
    // keeps serving: wait for the accounting to converge.
    let mut client = Client::connect(&addr);
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    loop {
        let stats = client.request(r#"{"op":"stats"}"#);
        let done = job_stat(&stats, "done") + job_stat(&stats, "failed");
        if done == job_stat(&stats, "submitted") && job_stat(&stats, "submitted") >= 1 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "orphaned job never accounted: {stats}"
        );
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    // A fresh job on a fresh connection runs to completion — and hits
    // the substrate the orphaned job warmed.
    let done = client.submit(job);
    assert_eq!(done.get("code").and_then(Value::as_u64), Some(0), "{done}");
    assert_eq!(field(&done, "cache"), "hit");
    stop(server);
}
