//! The serving workload: an in-process daemon with its journal armed and
//! two closed-loop clients on their own TCP connections.
//!
//! A pass is one deck of jobs in seeded order; each client takes the next
//! job as soon as its previous one is done, until the deck is empty.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use prebond3d_celllib::Library;
use prebond3d_netlist::format;
use prebond3d_obs::json::{self, Value};
use prebond3d_resilience::{fnv1a, fnv1a_more};
use prebond3d_rng::StdRng;
use prebond3d_serve::proto::{method_wire, scenario_wire};
use prebond3d_serve::{Bind, Server, ServerConfig};
use prebond3d_wcm::flow::{run_flow, FlowConfig, Method, Scenario};

use crate::layers::Layers;
use crate::workloads::{load_die, Ctx, Pass, SetupTimes, Workload};

const CLIENTS: usize = 2;
const METHODS: [Method; 4] = [Method::Ours, Method::Agrawal, Method::Li, Method::Naive];
const SCENARIOS: [Scenario; 2] = [Scenario::Area, Scenario::Tight];

/// The report a job must come back with, from running the flow locally.
#[derive(Clone)]
struct Expected {
    plan_fnv: String,
    reused: f64,
    cells: f64,
    violation: bool,
}

/// One deck entry: a submit request without its `id`.
struct Job {
    label: String,
    fields: Vec<(&'static str, Value)>,
    method: Method,
    ours_tight: bool,
    expected: Option<Expected>,
}

impl Job {
    fn new(
        circuit: &str,
        die: usize,
        (method, scenario): (Method, Scenario),
        inline: Option<&str>,
        expected: Option<Expected>,
    ) -> Job {
        let mut fields = vec![
            ("op", "submit".into()),
            ("method", method_wire(method).into()),
            ("scenario", scenario_wire(scenario).into()),
            ("probe", "structural".into()),
        ];
        match inline {
            Some(text) => fields.push(("netlist", text.into())),
            None => {
                fields.push(("circuit", circuit.into()));
                fields.push(("die", die.into()));
            }
        }
        Job {
            label: format!(
                "{circuit} Die{die} {}/{}{}",
                method_wire(method),
                scenario_wire(scenario),
                if inline.is_some() { " inline" } else { "" }
            ),
            fields,
            method,
            ours_tight: (method, scenario) == (Method::Ours, Scenario::Tight),
            expected,
        }
    }
}

/// What a client saw of one job.
struct Seen {
    latency_ms: f64,
    accept_ms: f64,
    done: Value,
    phases: Vec<Value>,
}

pub struct ServeMix {
    server: Option<Server>,
    clients: Vec<Mutex<(TcpStream, BufReader<TcpStream>)>>,
    deck: Vec<Job>,
    seed: u64,
}

impl ServeMix {
    /// Start the daemon (journal under `out`), connect the clients, and
    /// build the deck: b11/b12 Die0–3 (twice) and b20/b21 Die0/Die3, each
    /// × 4 methods × 2 scenarios — 160 jobs, 21 of them inline netlists.
    pub fn setup(
        seed: u64,
        smoke: bool,
        out: &Path,
        times: &mut SetupTimes,
    ) -> std::io::Result<ServeMix> {
        let small_circuits: &[&str] = if smoke { &["b11"] } else { &["b11", "b12"] };
        let big_circuits: &[&str] = if smoke { &[] } else { &["b20", "b21"] };
        let combos: Vec<(Method, Scenario)> = METHODS
            .iter()
            .flat_map(|&m| SCENARIOS.iter().map(move |&s| (m, s)))
            .collect();
        let library = Library::nangate45_like();
        let mut deck = Vec::new();
        for (d, (circuit, index)) in small_circuits
            .iter()
            .flat_map(|&c| (0..4).map(move |i| (c, i)))
            .enumerate()
        {
            // The daemon places with seed 1 and the harness's effort, so
            // the local flow must return exactly the plan the job reports.
            let die = load_die(circuit, index, 1, times);
            let text = format::write(&die.netlist);
            // Small jobs come twice as often as big ones, so a pass holds
            // enough jobs for a 98th percentile with ten samples beyond it;
            // about one repeat in three arrives as an inline netlist.
            for (c, &(method, scenario)) in combos.iter().enumerate() {
                let config = FlowConfig {
                    method,
                    scenario,
                    ordering: None,
                    allow_overlap: None,
                };
                let flow = run_flow(&die.netlist, &die.placement, &library, &config)
                    .map_err(|e| std::io::Error::other(format!("{}: {e}", die.label)))?;
                let expected = Expected {
                    plan_fnv: format!("{:016x}", fnv1a(format!("{:?}", flow.plan).as_bytes())),
                    reused: flow.reused_scan_ffs as f64,
                    cells: flow.additional_wrapper_cells as f64,
                    violation: flow.timing_violation,
                };
                let inline = ((d + c) % 3 == 0).then_some(text.as_str());
                for source in [None, inline] {
                    deck.push(Job::new(
                        circuit,
                        index,
                        (method, scenario),
                        source,
                        Some(expected.clone()),
                    ));
                }
            }
        }
        for (circuit, index) in big_circuits.iter().flat_map(|&c| [(c, 0), (c, 3)]) {
            for &combo in &combos {
                deck.push(Job::new(circuit, index, combo, None, None));
            }
        }
        if smoke {
            deck.truncate(20);
        }
        let journal = out.join("serve.wal");
        if journal.exists() {
            std::fs::remove_file(&journal)?;
        }
        let server = Server::start(ServerConfig {
            bind: Bind::Tcp("127.0.0.1:0".to_string()),
            workers: CLIENTS,
            journal: Some(journal),
            ..ServerConfig::default()
        })?;
        let addr = server.addr().expect("a TCP daemon has an address");
        let mut mix = ServeMix {
            server: Some(server),
            clients: Vec::new(),
            deck,
            seed,
        };
        for _ in 0..CLIENTS {
            let stream = TcpStream::connect(addr)?;
            // Without this the client's own Nagle delay adds ~40 ms a job.
            stream.set_nodelay(true)?;
            let mut reader = BufReader::new(stream.try_clone()?);
            let mut writer = stream;
            writer.write_all(b"{\"op\":\"ping\"}\n")?;
            let mut line = String::new();
            reader.read_line(&mut line)?;
            if !line.contains("pong") {
                return Err(std::io::Error::other(format!("bad ping reply `{line}`")));
            }
            mix.clients.push(Mutex::new((writer, reader)));
        }
        Ok(mix)
    }

    /// Submit one job and read its frames up to `done`.
    fn submit(
        conn: &mut (TcpStream, BufReader<TcpStream>),
        job: &Job,
        id: &str,
    ) -> Result<Seen, String> {
        let mut fields = job.fields.clone();
        fields.push(("id", id.into()));
        let mut request = Value::obj(fields).to_string();
        request.push('\n');
        let t = Instant::now();
        // One write per request, so no partial frame waits on an ACK.
        conn.0
            .write_all(request.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut accept_ms = 0.0;
        let mut phases = Vec::new();
        let mut line = String::new();
        loop {
            line.clear();
            let n = conn
                .1
                .read_line(&mut line)
                .map_err(|e| format!("read: {e}"))?;
            if n == 0 {
                return Err("daemon closed the connection".into());
            }
            let frame = json::parse(line.trim()).map_err(|e| format!("bad frame: {e}"))?;
            match frame.get("ev").and_then(Value::as_str) {
                Some("accepted") => accept_ms = t.elapsed().as_secs_f64() * 1e3,
                Some("phase") => phases.push(frame),
                Some("done") => {
                    return Ok(Seen {
                        latency_ms: t.elapsed().as_secs_f64() * 1e3,
                        accept_ms,
                        done: frame,
                        phases,
                    })
                }
                _ => return Err(format!("unexpected frame {}", line.trim())),
            }
        }
    }
}

/// Read a number from a frame (0 when absent).
fn num(v: &Value, key: &str) -> f64 {
    v.get(key).and_then(Value::as_f64).unwrap_or(0.0)
}

impl Workload for ServeMix {
    fn pass(&mut self, ctx: &Ctx<'_>, mut layers: Option<&mut Layers>) -> Pass {
        let mut order: Vec<usize> = (0..self.deck.len()).collect();
        let mut rng = StdRng::seed_from_u64(fnv1a_more(
            fnv1a(b"serve_mix"),
            &[self.seed.to_le_bytes(), (ctx.pass as u64).to_le_bytes()].concat(),
        ));
        for i in (1..order.len()).rev() {
            order.swap(i, rng.gen_range(0..=i));
        }
        let next = AtomicUsize::new(0);
        let results: Mutex<Vec<(usize, Result<Seen, String>)>> = Mutex::new(Vec::new());
        std::thread::scope(|s| {
            for (c, client) in self.clients.iter().enumerate() {
                let (next, order, results, deck) = (&next, &order, &results, &self.deck);
                s.spawn(move || {
                    let mut conn = client.lock().expect("one thread per client");
                    loop {
                        let k = next.fetch_add(1, Ordering::SeqCst);
                        let Some(&j) = order.get(k) else { break };
                        let id = format!("p{}-j{k}", ctx.pass);
                        let seen = {
                            let span_id = format!("{id} {}", deck[j].label);
                            let _s =
                                ctx.tracer
                                    .span("serve.job", &span_id, ctx.parent, c as u64 + 1);
                            Self::submit(&mut conn, &deck[j], &id)
                        };
                        let failed = seen.is_err();
                        results.lock().expect("result sink").push((j, seen));
                        if failed {
                            break;
                        }
                    }
                });
            }
        });
        let mut out = Pass::default();
        let mut results = results.into_inner().expect("clients joined");
        results.sort_by_key(|(j, _)| *j);
        if results.len() < self.deck.len() {
            out.failures.push(format!(
                "only {} of {} jobs ran",
                results.len(),
                self.deck.len()
            ));
        }
        for (j, seen) in results {
            let job = &self.deck[j];
            let seen = match seen {
                Ok(s) => s,
                Err(e) => {
                    out.failures.push(format!("{}: {e}", job.label));
                    continue;
                }
            };
            out.ops_ms.push(seen.latency_ms);
            let done = &seen.done;
            let code = num(done, "code");
            let report = done.get("report");
            if code != 0.0 || report.is_none() {
                out.failures.push(format!(
                    "{}: code {code}: {}",
                    job.label,
                    done.get("error")
                        .and_then(Value::as_str)
                        .unwrap_or("no report")
                ));
                continue;
            }
            let report = report.expect("checked above");
            let violation = report.get("timing_violation").and_then(Value::as_bool);
            if job.ours_tight && violation != Some(false) {
                out.failures
                    .push(format!("{}: timing violation", job.label));
            }
            let plan = report.get("plan_fnv").and_then(Value::as_str).unwrap_or("");
            let cells = num(report, "additional_wrapper_cells");
            if let Some(e) = &job.expected {
                if (plan, num(report, "reused_scan_ffs"), cells, violation)
                    != (e.plan_fnv.as_str(), e.reused, e.cells, Some(e.violation))
                {
                    out.failures
                        .push(format!("{}: report differs from the local flow", job.label));
                }
            }
            if job.method == Method::Ours {
                out.wrapper_cells += cells as u64;
            }
            // Completion order varies, so jobs combine order-independently.
            out.fingerprint = out.fingerprint.wrapping_add(fnv1a_more(
                fnv1a(job.label.as_bytes()),
                format!("{plan}/{cells}").as_bytes(),
            ));
            if let Some(l) = layers.as_deref_mut() {
                let exec_ms = num(done, "ms");
                l.sample("accept_ms", seen.accept_ms);
                l.sample("exec_ms", exec_ms);
                l.sample("overhead_ms", seen.latency_ms - exec_ms);
                l.add("jobs", 1.0);
                if done.get("cache").and_then(Value::as_str) == Some("hit") {
                    l.add("cache_hits", 1.0);
                }
                if let Some(Value::Obj(counters)) = done.get("counters") {
                    for (name, v) in counters {
                        l.add(name, v.as_f64().unwrap_or(0.0));
                    }
                }
                for p in &seen.phases {
                    let path = p.get("path").and_then(Value::as_str).unwrap_or("");
                    let ms = num(p, "ms");
                    l.add_span(path, ms * 1e6);
                    if path.ends_with("serve_place") {
                        l.add("place_ms", ms);
                    }
                }
            }
        }
        out
    }

    fn concurrency(&self) -> usize {
        CLIENTS
    }

    fn finish(&mut self) -> Vec<(&'static str, f64)> {
        let evictions = self
            .server
            .as_ref()
            .map_or(0, |s| s.cache_stats().evictions);
        vec![("serve.cache_evictions", evictions as f64)]
    }
}

impl Drop for ServeMix {
    fn drop(&mut self) {
        // Close the connections first so their daemon threads see EOF.
        self.clients.clear();
        if let Some(server) = self.server.take() {
            server.shutdown();
            server.join();
        }
    }
}
