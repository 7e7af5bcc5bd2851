//! Kill-and-recover against the **real daemon binary**: spawn
//! `prebond3d-serve --journal --paused`, accept jobs into the held
//! queue, SIGKILL the process (no shutdown handler, no flush), restart
//! it on the same journal, and assert every accepted job drains exactly
//! once with a byte-identical report. The in-process drills live in the
//! workspace `serve_recovery` suite; this one exists because only a real
//! process can be SIGKILLed.

#![cfg(unix)]

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use prebond3d_obs::json::{parse, Value};

const DAEMON: &str = env!("CARGO_BIN_EXE_prebond3d-serve");

struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: &str) -> Client {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match TcpStream::connect(addr) {
                Ok(writer) => {
                    let reader = BufReader::new(writer.try_clone().expect("clone"));
                    return Client { writer, reader };
                }
                Err(e) => {
                    assert!(Instant::now() < deadline, "connect {addr}: {e}");
                    std::thread::sleep(Duration::from_millis(20));
                }
            }
        }
    }

    fn request(&mut self, line: &str) -> Value {
        writeln!(self.writer, "{line}").expect("send");
        self.writer.flush().expect("flush");
        self.read_frame()
    }

    fn read_frame(&mut self) -> Value {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("read");
        assert!(n > 0, "daemon closed the connection");
        parse(line.trim()).unwrap_or_else(|e| panic!("bad frame `{}`: {e}", line.trim()))
    }

    /// Submit and consume frames through `done`.
    fn submit(&mut self, line: &str) -> Value {
        let first = self.request(line);
        assert_eq!(first.get("ev").and_then(Value::as_str), Some("accepted"));
        loop {
            let frame = self.read_frame();
            match frame.get("ev").and_then(Value::as_str) {
                Some("phase") => continue,
                Some("done") => return frame,
                other => panic!("unexpected frame {other:?}: {frame}"),
            }
        }
    }
}

/// Kills the daemon on drop so a failing assert cannot leak it.
struct Daemon(Child);

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

fn spawn_daemon(journal: &Path, port_file: &Path, paused: bool) -> Daemon {
    let _ = std::fs::remove_file(port_file);
    let mut cmd = Command::new(DAEMON);
    cmd.arg("--listen")
        .arg("127.0.0.1:0")
        .arg("--workers")
        .arg("1")
        .arg("--journal")
        .arg(journal)
        .arg("--port-file")
        .arg(port_file)
        .stdout(Stdio::null())
        .stderr(Stdio::null());
    if paused {
        cmd.arg("--paused");
    }
    Daemon(cmd.spawn().expect("spawn prebond3d-serve"))
}

fn wait_addr(port_file: &Path) -> String {
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        if let Ok(text) = std::fs::read_to_string(port_file) {
            if let Ok(port) = text.trim().parse::<u16>() {
                return format!("127.0.0.1:{port}");
            }
        }
        assert!(
            Instant::now() < deadline,
            "daemon never wrote {}",
            port_file.display()
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn tmp(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("prebond3d-sigkill-{tag}-{}", std::process::id()))
}

fn stat(frame: &Value, block: &str, key: &str) -> u64 {
    frame
        .get(block)
        .and_then(|b| b.get(key))
        .and_then(Value::as_u64)
        .unwrap_or_else(|| panic!("stats lacks {block}.{key}: {frame}"))
}

#[test]
fn sigkilled_daemon_recovers_every_accepted_job_exactly_once() {
    let journal = tmp("journal.wal");
    let port_file = tmp("port");
    let _ = std::fs::remove_file(&journal);

    let child = spawn_daemon(&journal, &port_file, true);
    let addr = wait_addr(&port_file);
    // Three distinct specs into the held queue: accepted + journaled,
    // never dequeued. b11 keeps the post-restart replays in CI seconds.
    let lines = [
        r#"{"op":"submit","id":"k0","circuit":"b11","die":0,"method":"ours","probe":"structural"}"#,
        r#"{"op":"submit","id":"k1","circuit":"b11","die":1,"method":"agrawal","probe":"structural"}"#,
        r#"{"op":"submit","id":"k2","circuit":"b11","die":0,"method":"li","probe":"structural"}"#,
    ];
    let mut keys = Vec::new();
    let mut conns = Vec::new();
    for line in lines {
        let mut c = Client::connect(&addr);
        let accepted = c.request(line);
        assert_eq!(accepted.get("ev").and_then(Value::as_str), Some("accepted"));
        keys.push(
            accepted
                .get("key")
                .and_then(Value::as_str)
                .expect("accepted frame carries the idempotency key")
                .to_string(),
        );
        conns.push(c);
    }
    let mut control = Client::connect(&addr);
    let stats = control.request(r#"{"op":"stats"}"#);
    assert_eq!(stat(&stats, "queue", "depth"), 3, "held queue: {stats}");
    drop(control);
    drop(conns);
    drop(child); // Drop = SIGKILL: no shutdown handler, no flush.

    // Restart (not paused) on the same journal: the stranded jobs must
    // replay to done with no client attached.
    let child = spawn_daemon(&journal, &port_file, false);
    let addr = wait_addr(&port_file);
    let mut control = Client::connect(&addr);
    let stats = control.request(r#"{"op":"stats"}"#);
    assert_eq!(stat(&stats, "journal", "recovered"), 3, "{stats}");

    let deadline = Instant::now() + Duration::from_secs(120);
    for (line, key) in lines.iter().zip(&keys) {
        let status = loop {
            let frame = control.request(&format!(r#"{{"op":"status","key":"{key}"}}"#));
            match frame.get("state").and_then(Value::as_str) {
                Some("done") => break frame,
                Some("pending") => {}
                other => panic!("unexpected status state {other:?}: {frame}"),
            }
            assert!(Instant::now() < deadline, "job {key} never drained");
            std::thread::sleep(Duration::from_millis(10));
        };
        assert_eq!(status.get("code").and_then(Value::as_u64), Some(0));
        let report = status
            .get("report")
            .unwrap_or_else(|| panic!("no report: {status}"))
            .to_string();
        // Byte-identity: an uninterrupted fresh-id rerun matches.
        let fresh = line.replacen(r#""id":"k"#, r#""id":"fresh-k"#, 1);
        let rerun = Client::connect(&addr).submit(&fresh);
        assert_eq!(
            rerun.get("report").map(Value::to_string),
            Some(report.clone())
        );
        // Exactly-once: the original line dedups from the journal.
        let replay = Client::connect(&addr).submit(line);
        assert_eq!(replay.get("dedup").and_then(Value::as_bool), Some(true));
        assert_eq!(replay.get("report").map(Value::to_string), Some(report));
    }
    let stats = control.request(r#"{"op":"stats"}"#);
    assert_eq!(stat(&stats, "journal", "pending"), 0, "{stats}");
    assert_eq!(
        control
            .request(r#"{"op":"shutdown"}"#)
            .get("ev")
            .and_then(Value::as_str),
        Some("bye")
    );
    drop(child);
    let _ = std::fs::remove_file(&journal);
    let _ = std::fs::remove_file(&port_file);
}
