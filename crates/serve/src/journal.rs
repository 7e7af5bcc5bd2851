//! The write-ahead job journal (DESIGN.md §15).
//!
//! A daemon without a journal loses every queued and in-flight job on a
//! crash. With `--journal <path>` armed, every *admitted* submit is
//! appended to an append-only file **before** it is enqueued, every state
//! transition is journaled, and on startup the unfinished entries are
//! replayed through the worker pool — so a SIGKILLed daemon converges to
//! the same per-job `report` sub-objects an uninterrupted run produces
//! (the cold/warm byte-identity contract already guarantees the
//! reports are cache- and thread-count-independent).
//!
//! ## File format
//!
//! One header line, then newline-terminated JSON entries:
//!
//! ```text
//! prebond3d journal v1
//! {"ev":"accepted","key":"00ab…","spec":{"op":"submit",…}}
//! {"ev":"running","key":"00ab…"}
//! {"ev":"done","key":"00ab…","code":0,"report":{…}}
//! ```
//!
//! `key` is the job's **content-addressed idempotency key**
//! ([`crate::jobs::idempotency_key`]): an FNV over the client id, the
//! netlist source (generation inputs, or the inline netlist's content
//! signature), method, scenario, probe, `budget_ms` and `return_plan`.
//! Identical retries of one logical job collide on the key; distinct jobs
//! do not.
//!
//! ## Recovery state machine
//!
//! Entries fold per key, later entries winning:
//!
//! ```text
//! (absent) --accepted--> pending --running--> pending --done--> done
//! ```
//!
//! On load, keys left in `pending` are the crash's orphans and are
//! re-enqueued; keys in `done` keep their terminal record so a client
//! retry of an already-completed job is answered from the journal instead
//! of running twice (exactly-once semantics across restarts).
//!
//! ## Durability & tolerance
//!
//! Appends go out as one `write_all` + fsync, mirroring
//! `results/checkpoint_<exp>.json`: a crash mid-append leaves at worst a
//! torn final line, which the loader drops. Any other corrupt line (a
//! bit flip, a truncated rewrite) is skipped and counted — loading never
//! panics and always recovers every intact entry. On open the journal is
//! **compacted**: rewritten atomically with only the surviving done
//! records and pending entries, so garbage does not accumulate across
//! restarts.

use std::collections::HashMap;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use prebond3d_obs::json::Value;
use prebond3d_resilience as resil;

use crate::proto::{self, JobSpec};

/// The version header opening every journal file.
pub const HEADER: &str = "prebond3d journal v1";

/// The terminal record of a completed job, as journaled and as replayed
/// to deduplicated retries.
#[derive(Debug, Clone, PartialEq)]
pub struct DoneRecord {
    /// Per-job exit code (0–4).
    pub code: i64,
    /// The deterministic `report` sub-object, when the job produced one.
    pub report: Option<Value>,
    /// The failure message, when it did not.
    pub error: Option<String>,
    /// Boundary issues of an admission-gate rejection (code 1).
    pub issues: Option<Value>,
}

impl DoneRecord {
    fn to_json(&self, key: u64) -> Value {
        let mut fields = vec![
            ("ev", "done".into()),
            ("key", key_hex(key).as_str().into()),
            ("code", Value::Num(self.code as f64)),
        ];
        if let Some(r) = &self.report {
            fields.push(("report", r.clone()));
        }
        if let Some(e) = &self.error {
            fields.push(("error", e.as_str().into()));
        }
        if let Some(i) = &self.issues {
            fields.push(("issues", i.clone()));
        }
        Value::obj(fields)
    }
}

/// One unfinished job recovered from the journal.
#[derive(Debug)]
pub struct PendingJob {
    /// Its idempotency key.
    pub key: u64,
    /// The original submit spec, round-tripped through the wire format.
    pub spec: JobSpec,
}

/// What [`Journal::open`] recovered from an existing file.
#[derive(Debug, Default)]
pub struct Recovery {
    /// Jobs accepted (or running) but never finished: the crash's
    /// orphans, in journal order.
    pub pending: Vec<PendingJob>,
    /// Terminal records by key, for idempotent retry replay.
    pub done: Vec<(u64, DoneRecord)>,
    /// Lines skipped as corrupt (torn tails are dropped silently and not
    /// counted here).
    pub corrupt_lines: usize,
}

/// The open journal: an append-only fsync'd file behind a mutex.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    file: Mutex<fs::File>,
}

/// `{key:016x}` — the wire form of an idempotency key.
pub fn key_hex(key: u64) -> String {
    format!("{key:016x}")
}

/// Parse the wire form back. `None` for anything but 16 hex digits.
pub fn parse_key(text: &str) -> Option<u64> {
    (text.len() == 16).then(|| u64::from_str_radix(text, 16).ok())?
}

/// Fold the journal's surviving lines into the recovery state machine.
/// Tolerant by construction: a torn final line (no trailing newline) is
/// dropped, any other unparsable or ill-shaped line is counted and
/// skipped, and nothing here can panic on hostile bytes.
fn fold_entries(text: &str) -> Recovery {
    let mut recovery = Recovery::default();
    let complete = match text.rfind('\n') {
        Some(last) => &text[..last],
        None => return recovery, // not even a complete header line
    };
    let mut lines = complete.lines();
    if lines.next() != Some(HEADER) {
        return recovery;
    }
    // Key -> index into `pending` while undecided; done wins over pending.
    let mut pending: Vec<Option<PendingJob>> = Vec::new();
    let mut index: HashMap<u64, usize> = HashMap::new();
    let mut done: HashMap<u64, DoneRecord> = HashMap::new();
    let mut done_order: Vec<u64> = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let Ok(entry) = prebond3d_obs::json::parse(line) else {
            recovery.corrupt_lines += 1;
            continue;
        };
        let key = entry.get("key").and_then(Value::as_str).and_then(parse_key);
        let (Some(ev), Some(key)) = (entry.get("ev").and_then(Value::as_str), key) else {
            recovery.corrupt_lines += 1;
            continue;
        };
        match ev {
            "accepted" => {
                let spec = entry
                    .get("spec")
                    .map(Value::to_string)
                    .and_then(|line| proto::parse_request(&line).ok());
                match spec {
                    Some(proto::Request::Submit(spec)) => {
                        if let Some(&i) = index.get(&key) {
                            pending[i] = Some(PendingJob { key, spec: *spec });
                        } else {
                            index.insert(key, pending.len());
                            pending.push(Some(PendingJob { key, spec: *spec }));
                        }
                    }
                    _ => recovery.corrupt_lines += 1,
                }
            }
            // `running` carries no new state for recovery: the job is
            // still unfinished. It exists so an operator reading the
            // journal can tell queued from in-flight at the crash.
            "running" => {}
            "done" => {
                let Some(code) = entry.get("code").and_then(Value::as_f64).map(|f| f as i64) else {
                    recovery.corrupt_lines += 1;
                    continue;
                };
                if let Some(&i) = index.get(&key) {
                    pending[i] = None;
                }
                if !done.contains_key(&key) {
                    done_order.push(key);
                }
                done.insert(
                    key,
                    DoneRecord {
                        code,
                        report: entry.get("report").cloned(),
                        error: entry
                            .get("error")
                            .and_then(Value::as_str)
                            .map(str::to_string),
                        issues: entry.get("issues").cloned(),
                    },
                );
            }
            _ => recovery.corrupt_lines += 1,
        }
    }
    recovery.pending = pending.into_iter().flatten().collect();
    recovery.done = done_order
        .into_iter()
        .filter_map(|k| done.remove(&k).map(|r| (k, r)))
        .collect();
    recovery
}

/// Load a journal file without opening it for writing (inspection and
/// tests). Missing or unreadable files recover nothing.
pub fn load(path: &Path) -> Recovery {
    match fs::read_to_string(path) {
        Ok(text) => fold_entries(&text),
        Err(_) => Recovery::default(),
    }
}

impl Journal {
    /// Open (or create) the journal at `path`, recover its surviving
    /// entries, and **compact** it: the file is atomically rewritten with
    /// the header, the done records, and one `accepted` entry per pending
    /// job, then reopened for appending.
    ///
    /// # Errors
    ///
    /// Creating the parent directory, rewriting the compacted file, or
    /// opening it for append failed.
    pub fn open(path: &Path) -> std::io::Result<(Journal, Recovery)> {
        let recovery = load(path);
        let mut compact = String::new();
        compact.push_str(HEADER);
        compact.push('\n');
        for (key, record) in &recovery.done {
            compact.push_str(&record.to_json(*key).to_string());
            compact.push('\n');
        }
        for job in &recovery.pending {
            compact.push_str(&accepted_json(job.key, &proto::submit_json(&job.spec)).to_string());
            compact.push('\n');
        }
        resil::atomic_write(path, &compact)?;
        let file = fs::OpenOptions::new().append(true).open(path)?;
        Ok((
            Journal {
                path: path.to_path_buf(),
                file: Mutex::new(file),
            },
            recovery,
        ))
    }

    /// The journal's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// One fsync'd append. Errors are reported, not fatal: a journal that
    /// stops persisting degrades durability, never availability.
    fn append(&self, entry: &Value) {
        let line = format!("{entry}\n");
        let mut file = self.file.lock().unwrap();
        let result = resil::chaos::io_error("io.write").map_or_else(
            || {
                file.write_all(line.as_bytes())
                    .and_then(|()| file.sync_data())
            },
            Err,
        );
        match result {
            Ok(()) => resil::hooks::emit("journal", "append", &self.path.display().to_string()),
            Err(e) => {
                resil::degrade::record(
                    "journal",
                    "append_failed",
                    format!("{}: {e}", self.path.display()),
                );
                eprintln!(
                    "[serve] journal append to {} failed: {e}",
                    self.path.display()
                );
            }
        }
    }

    /// Journal an admitted submit, **before** it is enqueued.
    pub fn accepted(&self, key: u64, spec: &JobSpec) {
        self.append(&accepted_json(key, &proto::submit_json(spec)));
    }

    /// Journal the accepted → running transition.
    pub fn running(&self, key: u64) {
        self.append(&Value::obj([
            ("ev", "running".into()),
            ("key", key_hex(key).as_str().into()),
        ]));
    }

    /// Journal a terminal record.
    pub fn done(&self, key: u64, record: &DoneRecord) {
        self.append(&record.to_json(key));
    }
}

fn accepted_json(key: u64, spec: &Value) -> Value {
    Value::obj([
        ("ev", "accepted".into()),
        ("key", key_hex(key).as_str().into()),
        ("spec", spec.clone()),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("prebond3d-journal-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir.join("journal.wal")
    }

    fn spec(line: &str) -> JobSpec {
        match proto::parse_request(line).unwrap() {
            proto::Request::Submit(s) => *s,
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn round_trips_pending_and_done_across_reopen() {
        let path = tmp("roundtrip");
        let s1 = spec(r#"{"op":"submit","id":"a","circuit":"b11","die":0}"#);
        let s2 = spec(r#"{"op":"submit","id":"b","circuit":"b12","die":1,"budget_ms":50}"#);
        {
            let (journal, recovery) = Journal::open(&path).unwrap();
            assert!(recovery.pending.is_empty() && recovery.done.is_empty());
            journal.accepted(1, &s1);
            journal.accepted(2, &s2);
            journal.running(1);
            journal.done(
                1,
                &DoneRecord {
                    code: 0,
                    report: Some(Value::obj([("wns", 1.5.into())])),
                    error: None,
                    issues: None,
                },
            );
        }
        let (_journal, recovery) = Journal::open(&path).unwrap();
        assert_eq!(recovery.corrupt_lines, 0);
        assert_eq!(recovery.done.len(), 1);
        assert_eq!(recovery.done[0].0, 1);
        assert_eq!(recovery.done[0].1.code, 0);
        assert_eq!(
            recovery.done[0].1.report.as_ref().unwrap().to_string(),
            r#"{"wns":1.5}"#
        );
        assert_eq!(recovery.pending.len(), 1, "job 2 is the crash orphan");
        assert_eq!(recovery.pending[0].key, 2);
        assert_eq!(
            recovery.pending[0].spec, s2,
            "spec round-trips the wire form"
        );
    }

    #[test]
    fn torn_tail_is_dropped_and_compaction_removes_garbage() {
        let path = tmp("torn");
        {
            let (journal, _) = Journal::open(&path).unwrap();
            journal.accepted(7, &spec(r#"{"op":"submit","id":"t","circuit":"b11"}"#));
        }
        // Crash mid-append: a torn final line without its newline.
        let mut text = fs::read_to_string(&path).unwrap();
        text.push_str(r#"{"ev":"done","key":"deadbeefdeadbe"#);
        fs::write(&path, &text).unwrap();
        let (_journal, recovery) = Journal::open(&path).unwrap();
        assert_eq!(recovery.pending.len(), 1);
        assert_eq!(recovery.corrupt_lines, 0, "a torn tail is not corruption");
        // The compacted file no longer contains the fragment.
        let compacted = fs::read_to_string(&path).unwrap();
        assert!(!compacted.contains("deadbeef"));
        assert!(compacted.ends_with('\n'));
    }

    #[test]
    fn corrupt_lines_are_skipped_not_fatal() {
        let path = tmp("corrupt");
        let body = format!(
            "{HEADER}\n{}\nnot json at all\n{}\n{}\n",
            r#"{"ev":"accepted","key":"0000000000000003","spec":{"op":"submit","id":"x","circuit":"b11"}}"#,
            r#"{"ev":"accepted","key":"zz","spec":{"op":"submit","id":"y","circuit":"b11"}}"#,
            r#"{"ev":"done","key":"0000000000000003","code":4,"error":"boom"}"#,
        );
        fs::write(&path, body).unwrap();
        let recovery = load(&path);
        assert_eq!(recovery.corrupt_lines, 2);
        assert!(recovery.pending.is_empty());
        assert_eq!(recovery.done.len(), 1);
        assert_eq!(recovery.done[0].1.error.as_deref(), Some("boom"));
    }

    #[test]
    fn missing_or_headerless_files_recover_nothing() {
        assert!(load(Path::new("/no/such/journal.wal")).pending.is_empty());
        let path = tmp("headerless");
        fs::write(&path, "something else entirely\n").unwrap();
        let recovery = load(&path);
        assert!(recovery.pending.is_empty() && recovery.done.is_empty());
    }

    #[test]
    fn key_wire_form_round_trips() {
        assert_eq!(parse_key(&key_hex(0xdead_beef)), Some(0xdead_beef));
        assert_eq!(parse_key("xyz"), None);
        assert_eq!(parse_key(""), None);
        assert_eq!(parse_key("00000000000000001"), None, "too long");
    }
}
