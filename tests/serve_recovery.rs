//! Durability contract of the serving daemon (DESIGN.md §15): a crash
//! after `accepted` never loses a job, never runs it twice, and the
//! recovered run's `report` is byte-identical to an uninterrupted one.
//!
//! The drills pause the queue (`ServerConfig::paused`) so the crash
//! window is deterministic: submitted jobs are journaled and held, the
//! abort strands exactly those jobs, and the restart must replay them.
//! Alongside the end-to-end drills, seeded corruption sweeps mangle the
//! journal file itself — truncations and bit flips — and recovery must
//! never panic and always keep every intact prefix entry (mirroring the
//! netlist parser's `parser_errors` sweeps).

#[path = "serve_util/mod.rs"]
mod serve_util;

use prebond3d_obs::json::Value;
use prebond3d_rng::StdRng;
use prebond3d_serve::{journal, ServerConfig};
use serve_util::{field, start_with, stop, test_config, Client};

/// A unique temp journal path per test (tests run concurrently in one
/// process; pid alone is not enough).
fn temp_journal(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "prebond3d-test-{tag}-{}.wal",
        std::process::id()
    ))
}

fn journaled_config(journal: &std::path::Path, paused: bool) -> ServerConfig {
    ServerConfig {
        workers: 1,
        journal: Some(journal.to_path_buf()),
        paused,
        ..test_config()
    }
}

fn submit_line(id: &str, die: usize, method: &str) -> String {
    format!(r#"{{"op":"submit","id":"{id}","circuit":"b11","die":{die},"method":"{method}","probe":"structural"}}"#)
}

/// Poll the `status` op until the key reaches `done`; recovered orphans
/// run with no client attached, so `status` is the only way to see them.
fn wait_done(client: &mut Client, key: &str) -> Value {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(120);
    loop {
        let frame = client.request(&format!(r#"{{"op":"status","key":"{key}"}}"#));
        match frame.get("state").and_then(Value::as_str) {
            Some("done") => return frame,
            Some("pending") => {}
            other => panic!("unexpected status state {other:?}: {frame}"),
        }
        assert!(
            std::time::Instant::now() < deadline,
            "job {key} never reached done"
        );
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
}

/// The full crash drill: journaled paused daemon, three held jobs,
/// abort, restart, exactly-once replay with byte-identical reports.
#[test]
fn aborted_daemon_recovers_stranded_jobs_byte_identically() {
    let journal = temp_journal("abort-recover");
    let _ = std::fs::remove_file(&journal);
    let (server, addr) = start_with(journaled_config(&journal, true));

    // Three distinct specs into the held queue; all journaled, none run.
    let lines = [
        submit_line("a", 0, "ours"),
        submit_line("b", 1, "agrawal"),
        submit_line("c", 0, "li"),
    ];
    let mut keys = Vec::new();
    let mut conns = Vec::new();
    for line in &lines {
        let mut c = Client::connect(&addr);
        c.send_line(line);
        let accepted = c.read_frame();
        assert_eq!(field(&accepted, "ev"), "accepted");
        keys.push(field(&accepted, "key").to_string());
        conns.push(c);
    }
    let mut control = Client::connect(&addr);
    let stats = control.request(r#"{"op":"stats"}"#);
    assert_eq!(
        stats.get("queue").and_then(|q| q.get("depth")).and_then(Value::as_u64),
        Some(3),
        "held queue should hold all three jobs: {stats}"
    );
    // The in-process SIGKILL analogue: stop dequeuing, strand the queue.
    server.abort();
    server.join();
    drop(conns);
    drop(control);

    // Restart paused: the orphans must be re-queued before anything
    // runs, observable via stats, then released over the wire.
    let (server, addr) = start_with(journaled_config(&journal, true));
    let mut control = Client::connect(&addr);
    let stats = control.request(r#"{"op":"stats"}"#);
    let jstat = |block: &str, key: &str| {
        stats
            .get(block)
            .and_then(|b| b.get(key))
            .and_then(Value::as_u64)
            .unwrap_or_else(|| panic!("stats lacks {block}.{key}: {stats}"))
    };
    assert_eq!(jstat("journal", "recovered"), 3);
    assert_eq!(jstat("journal", "pending"), 3);
    assert_eq!(jstat("queue", "depth"), 3);
    assert_eq!(field(&control.request(r#"{"op":"resume"}"#), "ev"), "resumed");

    for (line, key) in lines.iter().zip(&keys) {
        let status = wait_done(&mut control, key);
        assert_eq!(status.get("code").and_then(Value::as_u64), Some(0));
        let report = status
            .get("report")
            .unwrap_or_else(|| panic!("recovered job has no report: {status}"))
            .to_string();
        // Byte-identity: a fresh-id rerun of the same spec produces the
        // exact same report (the id is not part of the report).
        let fresh = line.replacen(r#""id":""#, r#""id":"fresh-"#, 1);
        let rerun = Client::connect(&addr).submit(&fresh);
        assert_eq!(
            rerun.get("report").map(Value::to_string),
            Some(report.clone()),
            "recovered report differs from an uninterrupted rerun"
        );
        // Exactly-once: the original line replays from the journal.
        let replay = Client::connect(&addr).submit(line);
        assert_eq!(replay.get("dedup").and_then(Value::as_bool), Some(true));
        assert_eq!(replay.get("cache").and_then(Value::as_str), Some("journal"));
        assert_eq!(replay.get("report").map(Value::to_string), Some(report));
        assert_eq!(field(&replay, "key"), key, "key drifted across restart");
    }
    let stats = control.request(r#"{"op":"stats"}"#);
    assert_eq!(
        stats.get("journal").and_then(|j| j.get("pending")).and_then(Value::as_u64),
        Some(0),
        "journal still has pending entries after the drain: {stats}"
    );
    stop(server);
    let _ = std::fs::remove_file(&journal);
}

/// A duplicate submit of a completed job must not run twice — even
/// without any crash in between.
#[test]
fn duplicate_submit_replays_from_the_journal() {
    let journal = temp_journal("dedup");
    let _ = std::fs::remove_file(&journal);
    let (server, addr) = start_with(journaled_config(&journal, false));
    let mut client = Client::connect(&addr);
    let line = submit_line("dup", 0, "ours");
    let first = client.submit(&line);
    assert_eq!(first.get("code").and_then(Value::as_u64), Some(0));
    assert_eq!(first.get("dedup").and_then(Value::as_bool), None);
    let replay = client.submit(&line);
    assert_eq!(replay.get("dedup").and_then(Value::as_bool), Some(true));
    assert_eq!(
        replay.get("report").map(Value::to_string),
        first.get("report").map(Value::to_string),
        "dedup replay must be byte-identical to the original"
    );
    let stats = client.request(r#"{"op":"stats"}"#);
    assert_eq!(
        stats.get("journal").and_then(|j| j.get("deduped")).and_then(Value::as_u64),
        Some(1)
    );
    stop(server);
    let _ = std::fs::remove_file(&journal);
}

/// A full queue answers `retry_after`, not silence and not an error, and
/// a client that backs off for the hinted time is admitted once the
/// queue drains.
#[test]
fn full_queue_sheds_with_a_retry_after_frame() {
    let (server, addr) = start_with(ServerConfig {
        workers: 1,
        max_queue: 1,
        paused: true,
        ..test_config()
    });
    // One held job fills the only queue slot.
    let mut holder = Client::connect(&addr);
    holder.send_line(&submit_line("held", 0, "ours"));
    assert_eq!(field(&holder.read_frame(), "ev"), "accepted");

    let mut shed = Vec::new();
    for i in 0..3 {
        let line = submit_line(&format!("shed-{i}"), 0, "agrawal");
        let mut client = Client::connect(&addr);
        let frame = client.request(&line);
        assert_eq!(field(&frame, "ev"), "retry_after", "{frame}");
        assert_eq!(frame.get("ok").and_then(Value::as_bool), Some(false));
        let ms = frame
            .get("retry_after_ms")
            .and_then(Value::as_u64)
            .expect("retry_after frame carries retry_after_ms");
        assert!(ms > 0, "backoff hint must be positive");
        shed.push((client, line, ms));
    }

    // Release the queue and let the held job drain.
    let mut control = Client::connect(&addr);
    assert_eq!(
        field(&control.request(r#"{"op":"resume"}"#), "ev"),
        "resumed"
    );
    loop {
        let frame = holder.read_frame();
        if field(&frame, "ev") == "done" {
            assert_eq!(frame.get("code").and_then(Value::as_u64), Some(0));
            break;
        }
    }

    // Back off as hinted, then resubmit: admitted and completed.
    let (mut client, line, ms) = shed.swap_remove(0);
    std::thread::sleep(std::time::Duration::from_millis(ms));
    let done = client.submit(&line);
    assert_eq!(done.get("code").and_then(Value::as_u64), Some(0), "{done}");

    let stats = control.request(r#"{"op":"stats"}"#);
    assert_eq!(
        stats
            .get("queue")
            .and_then(|q| q.get("shed"))
            .and_then(Value::as_u64),
        Some(3),
        "{stats}"
    );
    stop(server);
}

/// `status` rejects malformed keys and reports unknown ones as such.
#[test]
fn status_op_handles_bad_and_unknown_keys() {
    let journal = temp_journal("status");
    let _ = std::fs::remove_file(&journal);
    let (server, addr) = start_with(journaled_config(&journal, false));
    let mut client = Client::connect(&addr);
    let bad = client.request(r#"{"op":"status","key":"nope"}"#);
    assert_eq!(field(&bad, "ev"), "error");
    let unknown = client.request(r#"{"op":"status","key":"00000000deadbeef"}"#);
    assert_eq!(field(&unknown, "ev"), "status");
    assert_eq!(unknown.get("state").and_then(Value::as_str), Some("unknown"));
    stop(server);
    let _ = std::fs::remove_file(&journal);
}

/// A per-job `budget_ms` deadline propagates into the flow: the job
/// degrades to best-so-far (code 3) instead of blowing the deadline,
/// and the done frame itemizes the degradations.
#[test]
fn budget_ms_degrades_to_best_so_far_over_the_wire() {
    let (server, addr) = start_with(test_config());
    let mut client = Client::connect(&addr);
    let done = client.submit(
        r#"{"op":"submit","id":"tight","circuit":"b11","die":0,"method":"ours","probe":"atpg","budget_ms":0}"#,
    );
    assert_eq!(done.get("code").and_then(Value::as_u64), Some(3));
    let degradations = done
        .get("degradations")
        .and_then(Value::as_arr)
        .expect("done frame carries a degradations array");
    assert!(
        !degradations.is_empty(),
        "a blown deadline must itemize its degradations: {done}"
    );
    assert!(
        done.get("report").is_some(),
        "degraded jobs still return their best-so-far report"
    );
    stop(server);
}

/// A job rejected by the static admission gate (code 1) must itemize
/// the boundary issues on the wire, so the client learns *why* the die
/// is untestable without running lint locally.
#[test]
fn rejected_job_done_frame_carries_the_boundary_issues() {
    use prebond3d_netlist::{GateKind, NetlistBuilder};
    // An outbound TSV driven by a provable constant: no wrapper plan
    // can make it testable, so admission rejects before the flow runs.
    let mut b = NetlistBuilder::new("reject_die");
    let a = b.input("a");
    let c1 = b.gate(GateKind::Const1, &[], "c1");
    let g = b.gate(GateKind::Or, &[a, c1], "g");
    b.tsv_out(g, "to");
    b.output(a, "o");
    let text = prebond3d_netlist::format::write(&b.finish().unwrap());

    let (server, addr) = start_with(test_config());
    let mut client = Client::connect(&addr);
    let line = Value::obj([
        ("op", "submit".into()),
        ("id", "reject".into()),
        ("netlist", text.as_str().into()),
        ("method", "ours".into()),
        ("probe", "structural".into()),
    ])
    .to_string();
    let done = client.submit(&line);
    assert_eq!(done.get("code").and_then(Value::as_u64), Some(1));
    let issues = done
        .get("issues")
        .and_then(Value::as_arr)
        .expect("rejected done frame carries an issues array");
    assert!(
        issues
            .iter()
            .any(|i| i.as_str().is_some_and(|s| s.contains("to"))),
        "issues must name the offending TSV: {done}"
    );
    stop(server);
}

/// Build a journal with a known set of entries by running real jobs
/// through a daemon, returning its bytes.
fn journal_fixture(tag: &str) -> Vec<u8> {
    let journal = temp_journal(tag);
    let _ = std::fs::remove_file(&journal);
    // Two completed jobs, then two stranded in a held queue: the file
    // holds both done records and accepted-but-unfinished entries.
    let (server, addr) = start_with(journaled_config(&journal, false));
    let mut client = Client::connect(&addr);
    client.submit(&submit_line("f0", 0, "ours"));
    client.submit(&submit_line("f1", 1, "ours"));
    stop(server);
    let (server, addr) = start_with(journaled_config(&journal, true));
    let mut c0 = Client::connect(&addr);
    c0.send_line(&submit_line("f2", 0, "agrawal"));
    assert_eq!(field(&c0.read_frame(), "ev"), "accepted");
    let mut c1 = Client::connect(&addr);
    c1.send_line(&submit_line("f3", 1, "li"));
    assert_eq!(field(&c1.read_frame(), "ev"), "accepted");
    server.abort();
    server.join();
    let bytes = std::fs::read(&journal).expect("journal fixture bytes");
    let _ = std::fs::remove_file(&journal);
    bytes
}

/// Truncation sweep: recovery of every prefix of a real journal must
/// never panic, and every entry whose line survives intact must be
/// recovered. Mirrors `parser_errors`' corruption sweeps: running each
/// case IS the assertion, plus a prefix-monotonicity check.
#[test]
fn truncation_sweep_never_panics_and_keeps_the_intact_prefix() {
    let bytes = journal_fixture("trunc");
    let path = temp_journal("trunc-case");
    std::fs::write(&path, &bytes).unwrap();
    let full = journal::load(&path);
    assert_eq!(full.done.len(), 2);
    assert_eq!(full.pending.len(), 2);
    let mut last_entries = 0usize;
    for cut in 0..=bytes.len() {
        std::fs::write(&path, &bytes[..cut]).unwrap();
        let rec = journal::load(&path);
        // A longer intact prefix can only recover more, never less —
        // and a torn tail (no trailing newline) is dropped silently.
        let entries = rec.done.len() + rec.pending.len();
        assert!(
            entries >= last_entries,
            "recovery went backwards at cut {cut}: {entries} < {last_entries}"
        );
        assert_eq!(rec.corrupt_lines, 0, "truncation is not corruption");
        if bytes[..cut].ends_with(b"\n") {
            last_entries = entries;
        }
    }
    let _ = std::fs::remove_file(&path);
}

/// Bit-flip sweep: flip one bit at a seeded sample of positions; load
/// must never panic, and at most the damaged lines may be lost.
#[test]
fn bit_flip_sweep_never_panics_and_loses_at_most_the_damaged_lines() {
    let bytes = journal_fixture("flip");
    let path = temp_journal("flip-case");
    std::fs::write(&path, &bytes).unwrap();
    let baseline = journal::load(&path);
    let base_entries = baseline.done.len() + baseline.pending.len();
    let mut rng = StdRng::seed_from_u64(0xF11B_F11B);
    for _ in 0..200 {
        let pos = rng.gen_range(0..bytes.len());
        let bit = rng.gen_range(0u32..8);
        let mut mangled = bytes.clone();
        mangled[pos] ^= 1u8 << bit;
        std::fs::write(&path, &mangled).unwrap();
        let rec = journal::load(&path);
        let entries = rec.done.len() + rec.pending.len();
        // One flipped bit damages at most one line — or two, when it
        // lands on the `\n` separator and merges the neighbours — or the
        // header, which voids the whole file. Still never a panic.
        assert!(
            entries + 2 >= base_entries || (rec.done.is_empty() && rec.pending.is_empty()),
            "one bit flip at {pos} lost more than two lines: {entries} of {base_entries}"
        );
    }
    let _ = std::fs::remove_file(&path);
}
