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
//! {"ev":"done","key":"00ab…","code":0,"report":{…}}
//! ```
//!
//! Two entries per job, two fsyncs. Journals from older daemons may also
//! hold `{"ev":"running",…}` lines; the loader accepts and ignores them.
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
//! (absent) --accepted--> pending --done--> done
//! ```
//!
//! On load, keys left in `pending` are the crash's orphans and are
//! re-enqueued; keys in `done` keep their terminal record so a client
//! retry of an already-completed job is answered from the journal instead
//! of running twice (exactly-once semantics across restarts, within the
//! last [`DONE_WINDOW`] completions).
//!
//! ## The done window
//!
//! The daemon remembers only the most recent [`DONE_WINDOW`] terminal
//! records, each held as its serialized `done` line ([`DoneIndex`]); the
//! oldest is evicted first. A resubmit of an evicted key runs again, and
//! since reports are deterministic it gets a byte-identical `report` —
//! only the `dedup`/`cache` telemetry differs. `status` on an evicted key
//! answers `unknown`.
//!
//! ## Durability & tolerance
//!
//! Appends go out as one `write_all` + fsync, mirroring
//! `results/checkpoint_<exp>.json`: a crash mid-append leaves at worst a
//! torn final line, which the loader drops. Any other corrupt line (a
//! bit flip, a truncated rewrite) is skipped and counted — loading never
//! panics and always recovers every intact entry. On open the journal is
//! **compacted**: rewritten atomically with the done window (the last
//! [`DONE_WINDOW`] done records, in journal order) and every pending
//! entry, so neither garbage nor old completions accumulate across
//! restarts, and the file and the done index agree.

use std::collections::{HashMap, VecDeque};
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use prebond3d_obs::json::Value;
use prebond3d_resilience as resil;

use crate::proto::{self, JobSpec};

/// The version header opening every journal file.
pub const HEADER: &str = "prebond3d journal v1";

/// How many completions the daemon remembers for exactly-once replay: the
/// done index and the compacted journal each hold at most this many done
/// records, the most recent ones.
pub const DONE_WINDOW: usize = 1024;

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

    /// Read a journal `done` entry back; `None` when it has no code.
    fn from_json(entry: &Value) -> Option<DoneRecord> {
        Some(DoneRecord {
            code: entry.get("code").and_then(Value::as_f64)? as i64,
            report: entry.get("report").cloned(),
            error: entry
                .get("error")
                .and_then(Value::as_str)
                .map(str::to_string),
            issues: entry.get("issues").cloned(),
        })
    }
}

/// The most recent terminal records by idempotency key, each held as its
/// serialized journal `done` line (far smaller than the parsed tree).
/// Past its capacity the oldest key is evicted first; re-inserting a key
/// already held replaces its record in place and evicts nothing.
#[derive(Debug)]
pub struct DoneIndex {
    capacity: usize,
    lines: HashMap<u64, Box<str>>,
    /// Held keys, oldest first.
    order: VecDeque<u64>,
}

impl Default for DoneIndex {
    fn default() -> Self {
        DoneIndex::with_capacity(DONE_WINDOW)
    }
}

impl DoneIndex {
    fn with_capacity(capacity: usize) -> DoneIndex {
        debug_assert!(capacity > 0);
        DoneIndex {
            capacity,
            lines: HashMap::new(),
            order: VecDeque::new(),
        }
    }

    /// Hold `record` as the terminal record of `key`.
    pub fn insert(&mut self, key: u64, record: &DoneRecord) {
        let line = record.to_json(key).to_string().into_boxed_str();
        if let Some(held) = self.lines.get_mut(&key) {
            *held = line;
            return;
        }
        if self.order.len() >= self.capacity {
            if let Some(oldest) = self.order.pop_front() {
                self.lines.remove(&oldest);
            }
        }
        self.order.push_back(key);
        self.lines.insert(key, line);
    }

    /// The terminal record of `key`, parsed back from its line.
    pub fn get(&self, key: u64) -> Option<DoneRecord> {
        let entry = prebond3d_obs::json::parse(self.lines.get(&key)?).ok()?;
        DoneRecord::from_json(&entry)
    }

    /// Records held (at most the capacity).
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Whether no record is held.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// `(key, done line)` pairs, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &str)> {
        self.order.iter().map(|k| (*k, &*self.lines[k]))
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
    /// The last [`DONE_WINDOW`] terminal records, for idempotent retry
    /// replay.
    pub done: DoneIndex,
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
/// skipped, and nothing here can panic on hostile bytes. Done records
/// fold into a [`DoneIndex`] of `window` records.
fn fold_entries(text: &str, window: usize) -> Recovery {
    let mut recovery = Recovery {
        done: DoneIndex::with_capacity(window),
        ..Recovery::default()
    };
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
            // Written by older daemons before each job; it changes no state.
            "running" => {}
            "done" => {
                let Some(record) = DoneRecord::from_json(&entry) else {
                    recovery.corrupt_lines += 1;
                    continue;
                };
                if let Some(&i) = index.get(&key) {
                    pending[i] = None;
                }
                recovery.done.insert(key, &record);
            }
            _ => recovery.corrupt_lines += 1,
        }
    }
    recovery.pending = pending.into_iter().flatten().collect();
    recovery
}

/// Load a journal file without opening it for writing (inspection and
/// tests). Missing or unreadable files recover nothing.
pub fn load(path: &Path) -> Recovery {
    load_window(path, DONE_WINDOW)
}

fn load_window(path: &Path, window: usize) -> Recovery {
    match fs::read_to_string(path) {
        Ok(text) => fold_entries(&text, window),
        Err(_) => Recovery::default(),
    }
}

impl Journal {
    /// Open (or create) the journal at `path`, recover its surviving
    /// entries, and **compact** it: the file is atomically rewritten with
    /// the header, the last [`DONE_WINDOW`] done records, and one
    /// `accepted` entry per pending job, then reopened for appending.
    ///
    /// # Errors
    ///
    /// Creating the parent directory, rewriting the compacted file, or
    /// opening it for append failed.
    pub fn open(path: &Path) -> std::io::Result<(Journal, Recovery)> {
        Journal::open_window(path, DONE_WINDOW)
    }

    fn open_window(path: &Path, window: usize) -> std::io::Result<(Journal, Recovery)> {
        let recovery = load_window(path, window);
        let mut compact = String::new();
        compact.push_str(HEADER);
        compact.push('\n');
        for (_, line) in recovery.done.iter() {
            compact.push_str(line);
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
        let record = recovery.done.get(1).unwrap();
        assert_eq!(record.code, 0);
        assert_eq!(record.report.unwrap().to_string(), r#"{"wns":1.5}"#);
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
        assert_eq!(recovery.done.get(3).unwrap().error.as_deref(), Some("boom"));
    }

    /// Journals written by daemons that logged a `running` line before
    /// each job still load cleanly: the line is ignored, not corrupt.
    #[test]
    fn running_lines_from_older_journals_are_ignored() {
        let path = tmp("running");
        let body = format!(
            "{HEADER}\n{}\n{}\n{}\n{}\n{}\n",
            r#"{"ev":"accepted","key":"0000000000000001","spec":{"op":"submit","id":"a","circuit":"b11"}}"#,
            r#"{"ev":"running","key":"0000000000000001"}"#,
            r#"{"ev":"accepted","key":"0000000000000002","spec":{"op":"submit","id":"b","circuit":"b11"}}"#,
            r#"{"ev":"running","key":"0000000000000002"}"#,
            r#"{"ev":"done","key":"0000000000000001","code":0,"report":{"wns":1.5}}"#,
        );
        fs::write(&path, body).unwrap();
        let recovery = load(&path);
        assert_eq!(recovery.corrupt_lines, 0);
        assert_eq!(recovery.done.len(), 1);
        assert_eq!(recovery.pending.len(), 1, "job 2 was running at the crash");
        assert_eq!(recovery.pending[0].key, 2);
    }

    #[test]
    fn missing_or_headerless_files_recover_nothing() {
        assert!(load(Path::new("/no/such/journal.wal")).pending.is_empty());
        let path = tmp("headerless");
        fs::write(&path, "something else entirely\n").unwrap();
        let recovery = load(&path);
        assert!(recovery.pending.is_empty() && recovery.done.is_empty());
    }

    fn record(code: i64) -> DoneRecord {
        DoneRecord {
            code,
            report: Some(Value::obj([
                ("plan_fnv", "00c0ffee00c0ffee".into()),
                ("wns", 12.25.into()),
            ])),
            error: None,
            issues: None,
        }
    }

    #[test]
    fn done_index_evicts_the_oldest_keys_past_its_capacity() {
        let cap = 4;
        let mut index = DoneIndex::with_capacity(cap);
        for key in 0..cap as u64 + 3 {
            index.insert(key, &record(key as i64));
        }
        assert_eq!(index.len(), cap);
        for key in 0..3 {
            assert!(index.get(key).is_none(), "key {key} should be evicted");
        }
        for key in 3..cap as u64 + 3 {
            assert_eq!(index.get(key).unwrap().code, key as i64);
        }
        // Re-inserting a held key replaces its record and evicts nothing.
        index.insert(3, &record(40));
        assert_eq!(index.len(), cap);
        assert_eq!(index.get(3).unwrap().code, 40);
        assert!(index.get(4).is_some());
        assert_eq!(
            index.iter().map(|(k, _)| k).collect::<Vec<_>>(),
            [3, 4, 5, 6],
            "a replaced record keeps its place"
        );
    }

    #[test]
    fn done_index_records_read_back_byte_identically() {
        let mut index = DoneIndex::with_capacity(2);
        let original = DoneRecord {
            code: 1,
            report: None,
            error: Some("boundary statically untestable: \"to\"".to_string()),
            issues: Some(Value::Arr(vec!["to: provably constant".into()])),
        };
        index.insert(9, &record(0));
        index.insert(10, &original);
        let back = index.get(10).unwrap();
        assert_eq!(back, original);
        assert_eq!(
            back.to_json(10).to_string(),
            original.to_json(10).to_string()
        );
        assert_eq!(
            index.get(9).unwrap().report.unwrap().to_string(),
            record(0).report.unwrap().to_string()
        );
    }

    #[test]
    fn compaction_keeps_the_last_window_of_done_records_and_every_pending_entry() {
        let cap = 3;
        let path = tmp("window");
        let pending_a = spec(r#"{"op":"submit","id":"pa","circuit":"b11"}"#);
        let pending_b = spec(r#"{"op":"submit","id":"pb","circuit":"b12","die":2}"#);
        {
            let (journal, _) = Journal::open_window(&path, cap).unwrap();
            journal.accepted(100, &pending_a);
            for key in 0..cap as u64 + 5 {
                journal.accepted(key, &spec(r#"{"op":"submit","id":"d","circuit":"b11"}"#));
                journal.done(key, &record(key as i64));
            }
            journal.accepted(101, &pending_b);
        }
        let (_journal, recovery) = Journal::open_window(&path, cap).unwrap();
        let kept: Vec<u64> = recovery.done.iter().map(|(k, _)| k).collect();
        assert_eq!(
            kept,
            [5, 6, 7],
            "the last cap done records, in journal order"
        );
        let pending: Vec<u64> = recovery.pending.iter().map(|j| j.key).collect();
        assert_eq!(pending, [100, 101]);
        // The compacted file holds exactly that window plus both pending
        // entries, and reloading it recovers the same state.
        let text = fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 1 + cap + 2, "{text}");
        assert_eq!(lines[0], HEADER);
        for (line, key) in lines[1..=cap].iter().zip(5u64..) {
            assert_eq!(*line, record(key as i64).to_json(key).to_string());
        }
        let reloaded = load_window(&path, cap);
        assert_eq!(
            reloaded.done.iter().collect::<Vec<_>>(),
            recovery.done.iter().collect::<Vec<_>>()
        );
        assert_eq!(reloaded.pending.len(), 2);
        assert_eq!(reloaded.pending[1].spec, pending_b);
    }

    #[test]
    fn key_wire_form_round_trips() {
        assert_eq!(parse_key(&key_hex(0xdead_beef)), Some(0xdead_beef));
        assert_eq!(parse_key("xyz"), None);
        assert_eq!(parse_key(""), None);
        assert_eq!(parse_key("00000000000000001"), None, "too long");
    }
}
