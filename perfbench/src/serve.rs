//! The `serve_mix` workload: a closed-loop client mix against a spawned
//! `apex serve --workers 2` daemon.
//!
//! Two client threads each run one job at a time. Every job opens a
//! fresh connection (as `apex submit` does), submits, polls status on
//! that connection every few milliseconds, and fetches the result. Jobs
//! fall in three seeded classes:
//!
//! * **fresh** — a new (tenant, graph) pair: the full flow runs;
//! * **repeat** — a concluded (tenant, graph) pair with a new deadline,
//!   which the tenant's variant cache could serve;
//! * **dedup** — an exact resubmit, answered from the job table.

use crate::util::{expected, fnv64, fresh_dir, median, quantile, vm_hwm_mb, Rng};
use apex::serve::client::MAX_ADMISSION_ATTEMPTS;
use apex::serve::proto::{decode, encode, Fields};
use std::collections::BTreeSet;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Daemon spawns per run; `setup_s` is the median spawn-to-first-pong.
const SETUP_REPEATS: usize = 3;
/// Client threads (closed loop, one job in flight each).
const CLIENTS: usize = 2;
/// Status poll interval on a job's connection.
const POLL: Duration = Duration::from_millis(4);
/// A job still unfinished after this long counts as failed, so a wedged
/// daemon cannot stall the run past its time limit.
const JOB_TIMEOUT: Duration = Duration::from_secs(100);
const IO_TIMEOUT: Duration = Duration::from_secs(60);
/// Per-job deadlines are drawn from this range. Jobs finish in under a
/// second, so a deadline this long never truncates a search and every
/// payload stays comparable with its pinned digest; the width only keeps
/// a repeat's deadline apart from its earlier job's.
const DEADLINE_MS: std::ops::Range<u64> = 60_000..120_000;
const DEADLINE_SPAN: usize = (DEADLINE_MS.end - DEADLINE_MS.start) as usize;

/// Class shares: one job of each class per shuffled block. No recorded
/// traffic exists to weigh the classes by, so they get equal shares.
const CLASS_BLOCK: [Class; 3] = [Class::Fresh, Class::Repeat, Class::Dedup];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Fresh,
    Repeat,
    Dedup,
}

/// The submitted graphs: every built-in application, as DFG text.
pub struct Graphs {
    pub names: Vec<String>,
    pub texts: Vec<String>,
}

impl Graphs {
    pub fn load() -> Graphs {
        let apps: Vec<apex::apps::Application> = apex::apps::analyzed_apps()
            .into_iter()
            .chain(apex::apps::unseen_apps())
            .collect();
        Graphs {
            names: apps.iter().map(|a| a.info.name.clone()).collect(),
            texts: apps.iter().map(|a| apex::ir::to_text(&a.graph)).collect(),
        }
    }
}

/// One job to submit.
#[derive(Debug, Clone)]
pub struct JobSpec {
    pub class: Class,
    pub tenant: String,
    pub app: usize,
    pub deadline_ms: u64,
}

/// Seeded job generator shared by the client threads. Classes come in
/// shuffled blocks of `CLASS_BLOCK`, and each class draws its
/// applications from its own shuffled deck of all nine, so every run
/// submits the same class and application mix in a seeded order.
struct Mix {
    rng: Rng,
    seed: u64,
    classes: Vec<Class>,
    /// Per-class application decks (fresh, repeat, dedup).
    decks: [Vec<usize>; 3],
    n_apps: usize,
    tenants: usize,
    /// Jobs that concluded correctly (repeat and dedup draw from these).
    done: Vec<JobSpec>,
    /// (tenant, application, deadline) of every job issued that is not a
    /// dedup, so a repeat never reuses the key of another job.
    issued: BTreeSet<(String, usize, u64)>,
}

impl Mix {
    fn next(&mut self) -> JobSpec {
        if self.classes.is_empty() {
            self.classes = CLASS_BLOCK.to_vec();
            self.rng.shuffle(&mut self.classes);
        }
        let mut class = self.classes.pop().unwrap_or(Class::Fresh);
        if self.done.is_empty() {
            class = Class::Fresh;
        }
        let deck = &mut self.decks[class as usize];
        if deck.is_empty() {
            *deck = (0..self.n_apps).collect();
            self.rng.shuffle(deck);
        }
        let app = deck.pop().unwrap_or(0);
        if class == Class::Fresh {
            self.tenants += 1;
            let spec = JobSpec {
                class,
                tenant: format!("s{:x}-t{}", self.seed, self.tenants),
                app,
                deadline_ms: DEADLINE_MS.start + self.rng.below(DEADLINE_SPAN) as u64,
            };
            self.issued
                .insert((spec.tenant.clone(), app, spec.deadline_ms));
            return spec;
        }
        // an earlier job of the drawn application (any, if none yet)
        let same_app: Vec<&JobSpec> = self.done.iter().filter(|j| j.app == app).collect();
        let base = if same_app.is_empty() {
            self.done[self.rng.below(self.done.len())].clone()
        } else {
            same_app[self.rng.below(same_app.len())].clone()
        };
        if class == Class::Dedup {
            return JobSpec { class, ..base };
        }
        let mut deadline_ms = DEADLINE_MS.start + self.rng.below(DEADLINE_SPAN) as u64;
        while self
            .issued
            .contains(&(base.tenant.clone(), base.app, deadline_ms))
        {
            deadline_ms += 1;
        }
        self.issued
            .insert((base.tenant.clone(), base.app, deadline_ms));
        JobSpec {
            class,
            deadline_ms,
            ..base
        }
    }
}

/// What the client saw of one job.
#[derive(Debug, Clone)]
pub struct JobRecord {
    pub spec: JobSpec,
    pub ok: bool,
    /// When the submit was sent.
    pub sent: Instant,
    /// The result payload as received.
    pub payload: String,
    /// Submit sent → result received.
    pub latency_ms: f64,
    /// Submit sent → `accepted`.
    pub admit_ms: f64,
    /// `accepted` → first poll showing the job running (or concluded).
    pub queue_ms: f64,
    /// First running poll → first concluded poll.
    pub exec_ms: f64,
    pub polls: u32,
}

/// A spawned daemon and its captured log.
pub struct Daemon {
    child: Child,
    pub addr: String,
    log: Arc<Mutex<Vec<String>>>,
    log_thread: Option<std::thread::JoinHandle<()>>,
}

impl Daemon {
    /// Spawns `apex serve --workers 2` on an ephemeral port with fresh
    /// cache and journal directories under `dir`, and waits for the first
    /// `pong`. Returns the daemon and the spawn-to-pong seconds.
    pub fn spawn(apex: &Path, dir: &Path) -> std::io::Result<(Daemon, f64)> {
        fresh_dir(dir)?;
        let start = Instant::now();
        let mut child = Command::new(apex)
            .args(["serve", "--addr", "127.0.0.1:0", "--workers", "2"])
            .env_remove("APEX_CACHE")
            .env_remove("APEX_JOURNAL")
            .env_remove("APEX_JOBS")
            .env("APEX_CACHE_DIR", dir.join("cache"))
            .env("APEX_JOURNAL_DIR", dir.join("journal"))
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()?;
        let stderr = child.stderr.take().expect("piped stderr");
        let log = Arc::new(Mutex::new(Vec::new()));
        let (tx, rx) = mpsc::channel();
        let sink = Arc::clone(&log);
        let log_thread = std::thread::spawn(move || {
            for line in BufReader::new(stderr).lines().map_while(Result::ok) {
                if let Some(rest) = line.split("listening on ").nth(1) {
                    let _ = tx.send(rest.split_whitespace().next().unwrap_or("").to_owned());
                }
                sink.lock().unwrap_or_else(|p| p.into_inner()).push(line);
            }
        });
        let mut daemon = Daemon {
            child,
            addr: String::new(),
            log,
            log_thread: Some(log_thread),
        };
        daemon.addr = rx
            .recv_timeout(Duration::from_secs(30))
            .map_err(|_| std::io::Error::other("daemon never reported its address"))?;
        loop {
            if let Ok(r) = Conn::open(&daemon.addr).and_then(|mut c| c.call(&[("op", "ping")])) {
                if r.get("ok").map(String::as_str) == Some("pong") {
                    break;
                }
            }
            if start.elapsed() > Duration::from_secs(30) {
                return Err(std::io::Error::other("daemon never answered ping"));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok((daemon, start.elapsed().as_secs_f64()))
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Sends `drain` and waits for exit. Returns the exit code and the
    /// number of `ERROR` log lines.
    pub fn drain(mut self) -> std::io::Result<(i32, usize)> {
        Conn::open(&self.addr)?.call(&[("op", "drain")])?;
        let deadline = Instant::now() + Duration::from_secs(60);
        let status = loop {
            if let Some(s) = self.child.try_wait()? {
                break s;
            }
            if Instant::now() > deadline {
                let _ = self.child.kill();
                break self.child.wait()?;
            }
            std::thread::sleep(Duration::from_millis(5));
        };
        if let Some(t) = self.log_thread.take() {
            let _ = t.join();
        }
        let errors = self
            .log
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .iter()
            .filter(|l| l.contains("ERROR"))
            .count();
        Ok((status.code().unwrap_or(-1), errors))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// One client connection speaking the newline-JSON protocol.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    fn open(addr: &str) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    fn send(&mut self, fields: &[(&str, &str)]) -> std::io::Result<()> {
        let f: Fields = fields
            .iter()
            .map(|(k, v)| ((*k).to_owned(), (*v).to_owned()))
            .collect();
        let mut line = encode(&f);
        line.push('\n');
        self.writer.write_all(line.as_bytes())
    }

    fn recv(&mut self) -> std::io::Result<Fields> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(std::io::Error::other("connection closed"));
        }
        decode(&line).ok_or_else(|| std::io::Error::other(format!("undecodable: {line}")))
    }

    fn call(&mut self, fields: &[(&str, &str)]) -> std::io::Result<Fields> {
        self.send(fields)?;
        self.recv()
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Runs one job on a fresh connection; `Err` is a transport failure.
fn run_job(addr: &str, spec: &JobSpec, graph: &str, want: &str) -> std::io::Result<JobRecord> {
    let mut conn = Conn::open(addr)?;
    let deadline = spec.deadline_ms.to_string();
    let submit = [
        ("op", "submit"),
        ("tenant", spec.tenant.as_str()),
        ("graph", graph),
        ("deadline_ms", deadline.as_str()),
    ];
    let t0 = Instant::now();
    let mut attempts = 0;
    let accepted = loop {
        let r = conn.call(&submit)?;
        if r.get("ok").map(String::as_str) == Some("accepted") {
            break Some(r);
        }
        attempts += 1;
        if r.get("err").map(String::as_str) != Some("overloaded")
            || attempts >= MAX_ADMISSION_ATTEMPTS
        {
            break None;
        }
        let hint = r
            .get("retry_after_ms")
            .and_then(|v| v.parse().ok())
            .unwrap_or(100);
        std::thread::sleep(Duration::from_millis(hint));
    };
    let t_accept = t0.elapsed();
    let mut rec = JobRecord {
        spec: spec.clone(),
        ok: false,
        sent: t0,
        payload: String::new(),
        latency_ms: ms(t_accept),
        admit_ms: ms(t_accept),
        queue_ms: 0.0,
        exec_ms: 0.0,
        polls: 0,
    };
    let Some(accepted) = accepted else {
        return Ok(rec);
    };
    let job = accepted.get("job").cloned().unwrap_or_default();
    let mut state = accepted.get("state").cloned().unwrap_or_default();
    let mut t_running = None;
    while state != "done" && state != "failed" && t0.elapsed() < JOB_TIMEOUT {
        std::thread::sleep(POLL);
        let r = conn.call(&[("op", "status"), ("job", &job)])?;
        rec.polls += 1;
        state = r.get("state").cloned().unwrap_or_default();
        if state == "running" && t_running.is_none() {
            t_running = Some(t0.elapsed());
        }
        if r.contains_key("err") {
            break;
        }
    }
    let t_done = t0.elapsed();
    let t_running = t_running.unwrap_or(t_done);
    rec.queue_ms = ms(t_running - t_accept);
    rec.exec_ms = ms(t_done - t_running);
    let r = conn.call(&[("op", "result"), ("job", &job)])?;
    rec.latency_ms = ms(t0.elapsed());
    rec.payload = r.get("payload").cloned().unwrap_or_default();
    rec.ok = r.get("ok").map(String::as_str) == Some("result")
        && format!("{:016x}", fnv64(rec.payload.as_bytes())) == want;
    if !rec.ok {
        eprintln!(
            "perfbench: job {} ({:?} {}) failed: {}",
            job,
            spec.class,
            spec.tenant,
            encode(&r).chars().take(300).collect::<String>()
        );
    }
    Ok(rec)
}

/// Everything one load phase produced.
pub struct Load {
    /// Every job, in the order the submits were sent.
    pub records: Vec<JobRecord>,
    pub transport_errors: u64,
    pub wall_s: f64,
    pub setup: Vec<f64>,
    pub peak_rss_mb: f64,
    pub stats: Fields,
    pub exit_code: i32,
    pub log_errors: usize,
}

/// Spawns the daemon (`SETUP_REPEATS` times; the last one serves the
/// load), runs the closed-loop mix for `seconds`, reads `stats`, and
/// drains.
pub fn load(apex: &Path, work: &Path, seed: u64, seconds: f64) -> std::io::Result<Load> {
    let graphs = Arc::new(Graphs::load());
    let wants: Arc<Vec<String>> = Arc::new(
        graphs
            .names
            .iter()
            .map(|n| expected(&format!("payload_{n}")).unwrap_or_default())
            .collect(),
    );
    let mut setup = Vec::new();
    let mut daemon = None;
    for i in 0..SETUP_REPEATS {
        let (d, s) = Daemon::spawn(apex, &work.join(format!("daemon{i}")))?;
        setup.push(s);
        if i + 1 < SETUP_REPEATS {
            d.drain()?;
        } else {
            daemon = Some(d);
        }
    }
    let daemon = daemon.expect("at least one daemon");
    let mix = Arc::new(Mutex::new(Mix {
        rng: Rng::new(seed),
        seed,
        classes: Vec::new(),
        decks: Default::default(),
        n_apps: graphs.names.len(),
        tenants: 0,
        done: Vec::new(),
        issued: BTreeSet::new(),
    }));
    let start = Instant::now();
    let stop_at = start + Duration::from_secs_f64(seconds);
    let threads: Vec<_> = (0..CLIENTS)
        .map(|_| {
            let (mix, graphs, wants, addr) = (
                Arc::clone(&mix),
                Arc::clone(&graphs),
                Arc::clone(&wants),
                daemon.addr.clone(),
            );
            std::thread::spawn(move || {
                let mut records = Vec::new();
                let mut transport_errors = 0u64;
                while Instant::now() < stop_at {
                    let spec = mix.lock().unwrap_or_else(|p| p.into_inner()).next();
                    match run_job(&addr, &spec, &graphs.texts[spec.app], &wants[spec.app]) {
                        Ok(rec) => {
                            if rec.ok && spec.class != Class::Dedup {
                                mix.lock()
                                    .unwrap_or_else(|p| p.into_inner())
                                    .done
                                    .push(spec);
                            }
                            records.push(rec);
                        }
                        Err(e) => {
                            eprintln!("perfbench: transport error: {e}");
                            transport_errors += 1;
                        }
                    }
                }
                (records, transport_errors)
            })
        })
        .collect();
    let mut records = Vec::new();
    let mut transport_errors = 0;
    for t in threads {
        let (r, e) = t
            .join()
            .map_err(|_| std::io::Error::other("client thread panicked"))?;
        records.extend(r);
        transport_errors += e;
    }
    records.sort_by_key(|r| r.sent);
    let wall_s = start.elapsed().as_secs_f64();
    let peak_rss_mb = vm_hwm_mb(daemon.pid()).unwrap_or(0.0);
    let stats = Conn::open(&daemon.addr)?.call(&[("op", "stats")])?;
    let (exit_code, log_errors) = daemon.drain()?;
    Ok(Load {
        records,
        transport_errors,
        wall_s,
        setup,
        peak_rss_mb,
        stats,
        exit_code,
        log_errors,
    })
}

impl Load {
    pub fn stat(&self, key: &str) -> f64 {
        self.stats
            .get(key)
            .and_then(|v| v.parse().ok())
            .unwrap_or(0.0)
    }

    pub fn latencies(&self, class: Option<Class>) -> Vec<f64> {
        self.records
            .iter()
            .filter(|r| class.is_none_or(|c| r.spec.class == c))
            .map(|r| r.latency_ms)
            .collect()
    }

    pub fn share(&self, class: Class) -> f64 {
        self.latencies(Some(class)).len() as f64 / self.records.len().max(1) as f64
    }

    /// Operations attempted and failed: every job, plus the daemon's
    /// drain (nonzero exit or an `ERROR` log line fails it).
    pub fn tally(&self) -> (u64, u64) {
        let attempted = self.records.len() as u64 + self.transport_errors + 1;
        let failed = self.records.iter().filter(|r| !r.ok).count() as u64
            + self.transport_errors
            + u64::from(self.exit_code != 0 || self.log_errors > 0);
        (attempted, failed)
    }
}

/// `serve_mix`, untraced: the end-to-end metrics.
pub fn run(apex: &Path, work: &Path, seed: u64, seconds: f64) -> std::io::Result<crate::Outcome> {
    let l = load(apex, work, seed, seconds)?;
    let mut out = crate::Outcome::default();
    (out.attempted, out.failed) = l.tally();
    let all = l.latencies(None);
    // the jobs that run the full flow: fresh, and repeat (whose variant
    // builds miss the cache today)
    let full_flow: Vec<f64> = l
        .records
        .iter()
        .filter(|r| r.spec.class != Class::Dedup)
        .map(|r| r.latency_ms / 1e3)
        .collect();
    out.metric("run_s", median(&full_flow), "s");
    out.metric("latency_p50_ms", median(&all), "ms");
    out.metric("latency_p90_ms", quantile(&all, 0.9), "ms");
    out.metric("jobs_per_s", l.records.len() as f64 / l.wall_s, "1/s");
    out.metric("peak_rss_mb", l.peak_rss_mb, "MB");
    out.metric("setup_s", median(&l.setup), "s");
    out.note(format!(
        "jobs={} beyond_p90={} shares fresh/repeat/dedup={:.3}/{:.3}/{:.3} daemon cache hits/misses={}/{} shed={}",
        all.len(),
        all.iter().filter(|&&v| v > quantile(&all, 0.9)).count(),
        l.share(Class::Fresh),
        l.share(Class::Repeat),
        l.share(Class::Dedup),
        l.stat("cache_hits"),
        l.stat("cache_misses"),
        l.stat("shed"),
    ));
    Ok(out)
}
