//! `service_mix`: `rsmem-cli serve --threads 2` in a child process,
//! driven by an open-loop generator. Layers: `service` (HTTP, JSON,
//! cache) → `core` → `models` → `ctmc`.
//!
//! Arrivals are Poisson at [`RATE`]; one connection per request (the
//! server answers `Connection: close`); two generator threads, so at
//! most two requests are in flight. Each latency counts from the
//! request's due time, so a stalled server also charges the requests
//! queued behind the stall.

use crate::stats::{
    exposition_sum, fnv1a, highest_supported, mean, median, median_of, metric, peak_rss_mb,
    quantile, SplitMix64,
};
use crate::Outcome;
use rsmem::experiments::{run_with, ExperimentId};
use rsmem::{report, Parallelism};
use rsmem_service::analyze::AnalyzeRequest;
use rsmem_service::json;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;
use std::time::{Duration, Instant};

/// Offered load, requests per second.
pub const RATE: f64 = 400.0;
/// Latency limit: the service's own `latency_p99` SLO.
const LIMIT_S: f64 = 0.1;
/// A request still unanswered after this long counts as failed.
const TIMEOUT: Duration = Duration::from_secs(2);
/// Server starts timed before and after the session (each takes about
/// 15 ms): start times shift for seconds at a time on a shared VM, so
/// the two groups sample the machine 20 s apart.
const SETUPS_BEFORE: usize = 11;
const SETUPS_AFTER: usize = 10;
const WORKERS: usize = 2;
/// Generator threads, so at most this many requests are in flight.
const GENERATORS: usize = 2;
const FIGURES: [&str; 6] = ["fig5", "fig6", "fig7", "fig8", "fig9", "fig10"];

/// The hot set: figure-scale RS(18,16) systems,
/// `(duplex, SEU per bit-day, permanent faults per symbol-day, scrub s)`.
const HOT: [(bool, f64, f64, Option<f64>); 16] = [
    (false, 7.3e-7, 0.0, None),
    (false, 3.6e-6, 0.0, None),
    (false, 1.7e-5, 0.0, None),
    (true, 7.3e-7, 0.0, None),
    (true, 3.6e-6, 0.0, None),
    (true, 1.7e-5, 0.0, None),
    (true, 1.7e-5, 0.0, Some(900.0)),
    (true, 1.7e-5, 0.0, Some(3600.0)),
    (false, 1.7e-5, 0.0, Some(900.0)),
    (false, 3.6e-6, 1e-6, None),
    (false, 1.7e-5, 1e-6, None),
    (true, 7.3e-7, 1e-6, None),
    (true, 3.6e-6, 1e-6, None),
    (true, 1.7e-5, 1e-6, None),
    (true, 1.7e-5, 1e-6, Some(900.0)),
    (true, 1.7e-5, 1e-6, Some(3600.0)),
];

fn hot_body(i: usize) -> String {
    let (duplex, seu, erasure, scrub) = HOT[i];
    analyze_body(duplex, seu, erasure, scrub)
}

fn analyze_body(duplex: bool, seu: f64, erasure: f64, scrub: Option<f64>) -> String {
    let system = if duplex { "duplex" } else { "simplex" };
    let scrub = scrub.map_or(String::new(), |s| format!(",\"scrub_period_s\":{s:e}"));
    format!(
        "{{\"system\":\"{system}\",\"code\":\"18,16,8\",\"seu_per_bit_day\":{seu:e},\
         \"erasure_per_symbol_day\":{erasure:e}{scrub}}}"
    )
}

/// What one scheduled request asks for.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    /// `POST /v1/analyze` of hot-set entry `i` (a cache hit).
    Hot(usize),
    /// `POST /v1/analyze` of the plan's unique config `i` (a miss).
    Cold(usize),
    /// `GET /v1/experiments/{FIGURES[i]}?format=csv`.
    Figure(usize),
}

#[derive(Debug, Clone, PartialEq)]
pub struct Planned {
    /// Seconds after the schedule starts.
    pub due_s: f64,
    pub kind: Kind,
}

/// An arrival schedule and request mix, a pure function of the seed.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    pub requests: Vec<Planned>,
    /// Bodies of the unique (cache-miss) analyze configs.
    pub cold: Vec<String>,
    pub seconds: f64,
}

/// Poisson arrivals at `rate` over `seconds`; about 80 % hot-set
/// analyze, 15 % unique analyze (SEU log-uniform over the paper's
/// range, RS(18,16), each a sub-millisecond solve) and 5 % figure GETs.
pub fn plan(seed: u64, rate: f64, seconds: f64) -> Plan {
    let mut rng = SplitMix64::new(seed);
    let (mut requests, mut cold) = (Vec::new(), Vec::new());
    let mut due_s = rng.exponential(rate);
    while due_s < seconds {
        let u = rng.next_f64();
        let kind = if u < 0.80 {
            Kind::Hot(rng.below(HOT.len()))
        } else if u < 0.95 {
            let seu = (7.3e-7f64.ln() + rng.next_f64() * (1.7e-5f64 / 7.3e-7).ln()).exp();
            let duplex = rng.below(2) == 1;
            let erasure = [0.0, 1e-6][rng.below(2)];
            let scrub = [None, Some(900.0), Some(3600.0)][rng.below(3)];
            cold.push(analyze_body(duplex, seu, erasure, scrub));
            Kind::Cold(cold.len() - 1)
        } else {
            Kind::Figure(rng.below(FIGURES.len()))
        };
        requests.push(Planned { due_s, kind });
        due_s += rng.exponential(rate);
    }
    Plan {
        requests,
        cold,
        seconds,
    }
}

fn post(body: &str) -> Vec<u8> {
    format!(
        "POST /v1/analyze HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

fn get(path: &str) -> Vec<u8> {
    format!("GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n").into_bytes()
}

fn figure_get(i: usize) -> Vec<u8> {
    get(&format!("/v1/experiments/{}?format=csv", FIGURES[i]))
}

/// The response each request must get, as the FNV-1a of its body:
/// the in-process `AnalyzeRequest::solve` encoding, or the CSV render of
/// `run_with`.
fn expected_analyze(body: &str) -> Result<u64, String> {
    let value = json::parse(body).map_err(|e| e.to_string())?;
    let solved = AnalyzeRequest::from_json(&value)?.solve()?;
    Ok(fnv1a(solved.encode().into_bytes()))
}

fn expected_figure(name: &str) -> Result<u64, String> {
    let id: ExperimentId = name.parse().map_err(|e| format!("{e}"))?;
    let output = run_with(id, &Parallelism::Serial).map_err(|e| e.to_string())?;
    let figure = output.figure().ok_or("not a figure")?;
    Ok(fnv1a(report::figure_to_csv(figure).into_bytes()))
}

/// One response, read to the server's close.
struct Response {
    status: u16,
    raw: Vec<u8>,
    body_at: usize,
    connect_s: f64,
}

impl Response {
    fn body(&self) -> &[u8] {
        &self.raw[self.body_at..]
    }
}

/// What the generator keeps of one response.
#[derive(Debug, Clone, Copy)]
struct Reply {
    status: u16,
    body_hash: u64,
    connect_s: f64,
}

impl From<Response> for Reply {
    fn from(r: Response) -> Reply {
        Reply {
            status: r.status,
            body_hash: fnv1a(r.body().iter().copied()),
            connect_s: r.connect_s,
        }
    }
}

/// One request over a fresh connection.
fn exchange(addr: SocketAddr, raw: &[u8]) -> io::Result<Response> {
    let start = Instant::now();
    let mut stream = TcpStream::connect_timeout(&addr, TIMEOUT)?;
    let connect_s = start.elapsed().as_secs_f64();
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(TIMEOUT))?;
    stream.set_write_timeout(Some(TIMEOUT))?;
    stream.write_all(raw)?;
    let mut buf = Vec::with_capacity(8192);
    stream.read_to_end(&mut buf)?;
    let bad = || io::Error::new(io::ErrorKind::InvalidData, "malformed HTTP response");
    let head_end = buf
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(bad)?;
    let status = std::str::from_utf8(&buf[..head_end])
        .ok()
        .and_then(|head| head.split(' ').nth(1))
        .and_then(|code| code.parse().ok())
        .ok_or_else(bad)?;
    Ok(Response {
        status,
        raw: buf,
        body_at: head_end + 4,
        connect_s,
    })
}

/// A GET that must answer 200; returns the body.
fn fetch(addr: SocketAddr, path: &str) -> Result<String, String> {
    let response = exchange(addr, &get(path)).map_err(|e| format!("GET {path}: {e}"))?;
    if response.status != 200 {
        return Err(format!("GET {path}: status {}", response.status));
    }
    Ok(String::from_utf8_lossy(response.body()).into_owned())
}

/// `rsmem-cli`, built by `run.py` next to this executable.
fn server_binary() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let server = exe.with_file_name("rsmem-cli");
    if !server.is_file() {
        return Err(format!(
            "{} is missing; run perfbench/run.py",
            server.display()
        ));
    }
    Ok(server)
}

/// A running `rsmem-cli serve`; killed and reaped on drop.
struct Server {
    child: Child,
    addr: SocketAddr,
}

impl Server {
    /// Spawns the server and waits until `/healthz` answers 200.
    fn start(binary: &Path) -> Result<Server, String> {
        let port = TcpListener::bind("127.0.0.1:0")
            .and_then(|l| l.local_addr())
            .map_err(|e| e.to_string())?
            .port();
        let addr = SocketAddr::from(([127, 0, 0, 1], port));
        let child = Command::new(binary)
            .args([
                "serve",
                "--addr",
                &addr.to_string(),
                "--threads",
                &WORKERS.to_string(),
            ])
            .env_remove("RSMEM_LOG")
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", binary.display()))?;
        let server = Server { child, addr };
        let deadline = Instant::now() + Duration::from_secs(10);
        while fetch(addr, "/healthz").is_err() {
            if Instant::now() > deadline {
                return Err("the server did not become healthy within 10 s".into());
            }
            thread::sleep(Duration::from_micros(200));
        }
        Ok(server)
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// Process CPU seconds (user + system) so far.
    fn cpu_s(&self) -> Result<f64, String> {
        let stat = std::fs::read_to_string(format!("/proc/{}/stat", self.pid()))
            .map_err(|e| e.to_string())?;
        // utime and stime are fields 14 and 15 of the line, the 12th and
        // 13th after the parenthesised command name; Linux counts them in
        // ticks of 1/100 s.
        let rest = stat.rsplit_once(')').ok_or("malformed stat")?.1;
        let ticks = |i: usize| -> Result<f64, String> {
            let field = rest.split_whitespace().nth(i).ok_or("short stat line")?;
            field.parse::<f64>().map_err(|e| e.to_string())
        };
        Ok((ticks(11)? + ticks(12)?) / 100.0)
    }

    /// Sends every hot-set config and figure once, checking each body.
    fn warm(&self, expected: &Expected) -> Result<(), String> {
        let hot = (0..HOT.len()).map(|i| post(&hot_body(i)));
        let figures = (0..FIGURES.len()).map(figure_get);
        let want = expected.hot.iter().chain(&expected.figures);
        for (raw, &want) in hot.chain(figures).zip(want) {
            let reply = Reply::from(exchange(self.addr, &raw).map_err(|e| e.to_string())?);
            if reply.status != 200 || reply.body_hash != want {
                return Err(format!(
                    "warm-up request got status {} or a wrong body",
                    reply.status
                ));
            }
        }
        Ok(())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Expected body hashes of the hot set and the figures (the cold
/// configs are solved after each session).
struct Expected {
    hot: Vec<u64>,
    figures: Vec<u64>,
}

impl Expected {
    fn compute() -> Result<Expected, String> {
        Ok(Expected {
            hot: (0..HOT.len())
                .map(|i| expected_analyze(&hot_body(i)))
                .collect::<Result<_, _>>()?,
            figures: FIGURES
                .iter()
                .map(|f| expected_figure(f))
                .collect::<Result<_, _>>()?,
        })
    }
}

/// One request as the generator saw it.
#[derive(Debug, Clone, Copy)]
struct Sample {
    index: usize,
    /// Due time to last byte.
    latency_s: f64,
    /// Due time to the start of the connect.
    late_s: f64,
    /// Start of the connect to last byte.
    client_s: f64,
    reply: Option<Reply>,
}

fn wait_until(due: Instant) {
    // Sleep to just short of the due time, then spin: a plain sleep
    // overshoots by tens of microseconds, a sizeable share of a
    // 0.3 ms cache hit.
    let slack = Duration::from_micros(150);
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        if due - now > slack {
            thread::sleep(due - now - slack);
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Plays the schedule with two threads taking requests in order.
fn drive(addr: SocketAddr, plan: &Plan) -> Vec<Sample> {
    let hot: Vec<Vec<u8>> = (0..HOT.len()).map(|i| post(&hot_body(i))).collect();
    let raws: Vec<Vec<u8>> = plan
        .requests
        .iter()
        .map(|p| match p.kind {
            Kind::Hot(i) => hot[i].clone(),
            Kind::Cold(i) => post(&plan.cold[i]),
            Kind::Figure(i) => figure_get(i),
        })
        .collect();
    let next = AtomicUsize::new(0);
    let t0 = Instant::now() + Duration::from_millis(5);
    thread::scope(|scope| {
        let workers: Vec<_> = (0..GENERATORS)
            .map(|_| {
                scope.spawn(|| {
                    let mut samples = Vec::new();
                    loop {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        let Some(raw) = raws.get(index) else { break };
                        let due = t0 + Duration::from_secs_f64(plan.requests[index].due_s);
                        wait_until(due);
                        let start = Instant::now();
                        let response = exchange(addr, raw).ok();
                        let done = Instant::now();
                        let reply = response.map(Reply::from);
                        samples.push(Sample {
                            index,
                            latency_s: (done - due).as_secs_f64(),
                            late_s: (start - due).as_secs_f64(),
                            client_s: (done - start).as_secs_f64(),
                            reply,
                        });
                    }
                    samples
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("generator thread panicked"))
            .collect()
    })
}

/// One session: the schedule played against a warm server, every body
/// checked, and the numbers a user and the layers would see.
struct Session {
    attempted: u64,
    failed: u64,
    hit_ms: Vec<f64>,
    cold_ms: Vec<f64>,
    late_ms: Vec<f64>,
    connect_ms: Vec<f64>,
    client_analyze_ms: Vec<f64>,
    goodput_rps: f64,
}

fn play(server: &Server, plan: &Plan, expected: &Expected) -> Result<Session, String> {
    let samples = drive(server.addr, plan);
    // Checked after the schedule so the checks do not load the machine
    // while it is timed.
    let cold: Vec<u64> = plan
        .cold
        .iter()
        .map(|b| expected_analyze(b))
        .collect::<Result<_, _>>()?;
    let mut s = Session {
        attempted: samples.len() as u64,
        failed: 0,
        hit_ms: Vec::new(),
        cold_ms: Vec::new(),
        late_ms: Vec::new(),
        connect_ms: Vec::new(),
        client_analyze_ms: Vec::new(),
        goodput_rps: 0.0,
    };
    let mut good = 0usize;
    for sample in &samples {
        s.late_ms.push(sample.late_s * 1e3);
        let kind = plan.requests[sample.index].kind;
        let reply = match sample.reply {
            Some(reply) if reply.status == 200 => reply,
            _ => {
                s.failed += 1;
                continue;
            }
        };
        let want = match kind {
            Kind::Hot(i) => expected.hot[i],
            Kind::Cold(i) => cold[i],
            Kind::Figure(i) => expected.figures[i],
        };
        if reply.body_hash != want {
            return Err(format!(
                "request {} ({kind:?}) got a wrong body",
                sample.index
            ));
        }
        let ms = sample.latency_s * 1e3;
        match kind {
            Kind::Hot(_) => s.hit_ms.push(ms),
            Kind::Cold(_) => s.cold_ms.push(ms),
            Kind::Figure(_) => {}
        }
        if !matches!(kind, Kind::Figure(_)) {
            s.client_analyze_ms.push(sample.client_s * 1e3);
        }
        s.connect_ms.push(reply.connect_s * 1e3);
        if sample.latency_s <= LIMIT_S {
            good += 1;
        }
    }
    s.goodput_rps = good as f64 / plan.seconds;
    eprintln!(
        "service_mix generator: {} requests, lateness p50 {:.4} ms, p99 {:.4} ms",
        samples.len(),
        quantile(&s.late_ms, 0.5),
        quantile(&s.late_ms, 0.99)
    );
    for (class, values) in [("hit", &s.hit_ms), ("cold", &s.cold_ms)] {
        let n = values.len();
        match highest_supported(n) {
            Some(q) => eprintln!(
                "service_mix {class}: n={n}, highest percentile with 10 samples beyond: p{} = {:.4} ms",
                q * 100.0,
                quantile(values, q)
            ),
            None => eprintln!("service_mix {class}: n={n}, too few samples for any percentile"),
        }
    }
    Ok(s)
}

/// Starts `count` servers in turn, timing each (spawn, `/healthz`,
/// warm-up) into `setups`, and returns the last.
fn start_warm(
    binary: &Path,
    expected: &Expected,
    count: usize,
    setups: &mut Vec<f64>,
) -> Result<Server, String> {
    let mut server = None;
    for _ in 0..count {
        drop(server.take());
        let started = Instant::now();
        let s = Server::start(binary)?;
        s.warm(expected)?;
        setups.push(started.elapsed().as_secs_f64());
        server = Some(s);
    }
    server.ok_or_else(|| "no server started".to_string())
}

pub fn run(seed: u64, seconds: f64) -> Result<Outcome, String> {
    let binary = server_binary()?;
    let expected = Expected::compute()?;
    let mut setups = Vec::new();
    let server = start_warm(&binary, &expected, SETUPS_BEFORE, &mut setups)?;
    let plan = plan(seed, RATE, seconds);
    let session = play(&server, &plan, &expected)?;
    let rss = peak_rss_mb(&server.pid())?;
    drop(server);
    drop(start_warm(&binary, &expected, SETUPS_AFTER, &mut setups)?);
    Ok(Outcome {
        attempted: session.attempted,
        failed: session.failed,
        metrics: vec![
            metric("setup_s", median_of("setup", &setups), "s"),
            metric("peak_rss_mb", rss, "MB"),
            metric("job_p50_ms", quantile(&session.hit_ms, 0.5), "ms"),
            metric("work_per_s", session.goodput_rps, "1/s"),
        ],
    })
}

/// Median per-call time of `f` over `items`, in microseconds.
fn per_call_us<T>(items: &[T], mut f: impl FnMut(&T) -> Result<(), String>) -> Result<f64, String> {
    let mut times = Vec::with_capacity(items.len());
    for item in items {
        let started = Instant::now();
        f(item)?;
        times.push(started.elapsed().as_secs_f64() * 1e6);
    }
    Ok(median(&times))
}

/// Per-layer run: one session with the server's counters scraped around
/// it, and the in-process request pipeline (parse, solve, encode) timed
/// on the same configs. With `profiled`, a second session first runs
/// without the scrapes and the ratio of the two hit medians is returned.
/// The server keeps its span profiler on in both sessions (the service
/// turns it on at boot), so the ratio covers only the scrapes.
pub fn trace(seed: u64, seconds: f64, profiled: bool) -> Result<(Outcome, Option<f64>), String> {
    let binary = server_binary()?;
    let expected = Expected::compute()?;
    let plan = plan(seed, RATE, seconds);
    // Each session gets a fresh server, so its unique configs miss the
    // cache in both.
    let start = || -> Result<Server, String> {
        let server = Server::start(&binary)?;
        server.warm(&expected)?;
        Ok(server)
    };
    let untraced = if profiled {
        Some(play(&start()?, &plan, &expected)?)
    } else {
        None
    };

    let server = start()?;
    let before = fetch(server.addr, "/metrics")?;
    let cpu0 = server.cpu_s()?;
    let session = play(&server, &plan, &expected)?;
    let cpu = server.cpu_s()? - cpu0;
    let after = fetch(server.addr, "/metrics")?;
    drop(server);
    let delta = |name: &str, filter: &[(&str, &str)]| {
        exposition_sum(&after, name, filter) - exposition_sum(&before, name, filter)
    };
    let analyze = [("endpoint", "analyze")];
    let server_mean_ms = delta("rsmem_request_duration_us_sum", &analyze)
        / delta("rsmem_request_duration_us_count", &analyze)
        / 1e3;
    let hits = delta("rsmem_cache_hits_total", &[]);
    let misses = delta("rsmem_cache_misses_total", &[]);
    // Busy time of the workers as the server times its requests, over
    // the schedule (the two `/metrics` scrapes fall outside it).
    let busy_s = delta("rsmem_request_duration_us_sum", &[]) / 1e6;

    let bodies: Vec<String> = plan.cold.iter().take(64).cloned().collect();
    let parsed: Vec<AnalyzeRequest> = bodies
        .iter()
        .map(|b| AnalyzeRequest::from_json(&json::parse(b).map_err(|e| e.to_string())?))
        .collect::<Result<_, _>>()?;
    let parse_us = per_call_us(&bodies, |b| {
        let value = json::parse(std::hint::black_box(b)).map_err(|e| e.to_string())?;
        std::hint::black_box(AnalyzeRequest::from_json(&value)?);
        Ok(())
    })?;
    let solve_us = per_call_us(&parsed, |r| {
        std::hint::black_box(r.solve()?);
        Ok(())
    })?;
    let solved: Vec<_> = parsed.iter().map(|r| r.solve()).collect::<Result<_, _>>()?;
    let encode_us = per_call_us(&solved, |v| {
        std::hint::black_box(v.encode());
        Ok(())
    })?;

    let hit_p50 = quantile(&session.hit_ms, 0.5);
    let client_mean_ms = mean(&session.client_analyze_ms);
    let connect_ms = median(&session.connect_ms);
    let metrics = vec![
        metric("service.hit_p50_ms", hit_p50, "ms"),
        metric("service.hit_p99_ms", quantile(&session.hit_ms, 0.99), "ms"),
        metric("service.cold_p50_ms", quantile(&session.cold_ms, 0.5), "ms"),
        metric(
            "service.cold_p95_ms",
            quantile(&session.cold_ms, 0.95),
            "ms",
        ),
        metric("service.goodput_rps", session.goodput_rps, "1/s"),
        metric("service.cold_solve_ms", solve_us / 1e3, "ms"),
        metric("service.encode_us", encode_us, "us"),
        metric("service.parse_us", parse_us, "us"),
        metric("service.connect_ms", connect_ms, "ms"),
        metric("service.server_mean_ms", server_mean_ms, "ms"),
        metric("service.client_mean_ms", client_mean_ms, "ms"),
        metric("service.cache_hit_ratio", hits / (hits + misses), "ratio"),
        metric(
            "service.shed",
            delta("rsmem_connections_shed_total", &[]),
            "count",
        ),
        metric(
            "service.worker_busy_ratio",
            busy_s / (WORKERS as f64 * plan.seconds),
            "ratio",
        ),
        metric("service.server_cpu_ratio", cpu / plan.seconds, "ratio"),
        metric(
            "unattributed.service_mix",
            1.0 - (server_mean_ms + connect_ms) / client_mean_ms,
            "ratio",
        ),
        metric("gen.late_p99_ms", quantile(&session.late_ms, 0.99), "ms"),
        metric("gen.requests", session.attempted as f64, "count"),
        metric("gen.failed", session.failed as f64, "count"),
        metric("gen.hit_n", session.hit_ms.len() as f64, "count"),
        metric("gen.cold_n", session.cold_ms.len() as f64, "count"),
    ];
    let overhead = untraced.map(|u| hit_p50 / quantile(&u.hit_ms, 0.5));
    let outcome = Outcome {
        attempted: session.attempted,
        failed: session.failed,
        metrics,
    };
    Ok((outcome, overhead))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_a_pure_function_of_the_seed() {
        let a = plan(42, RATE, 5.0);
        assert_eq!(a, plan(42, RATE, 5.0));
        assert_ne!(a, plan(43, RATE, 5.0));
        assert!(a.requests.windows(2).all(|w| w[0].due_s < w[1].due_s));
        assert!(a.requests.iter().all(|p| p.due_s < 5.0));
    }

    #[test]
    fn schedule_has_the_stated_rate_and_mix() {
        let p = plan(7, RATE, 20.0);
        let n = p.requests.len() as f64;
        assert!((n / 20.0 - RATE).abs() < 0.05 * RATE, "{n} requests");
        let share =
            |f: fn(&Kind) -> bool| p.requests.iter().filter(|r| f(&r.kind)).count() as f64 / n;
        assert!((share(|k| matches!(k, Kind::Hot(_))) - 0.80).abs() < 0.03);
        assert!((share(|k| matches!(k, Kind::Cold(_))) - 0.15).abs() < 0.03);
        assert!((share(|k| matches!(k, Kind::Figure(_))) - 0.05).abs() < 0.02);
        let mut cold = p.cold.clone();
        cold.sort();
        cold.dedup();
        assert_eq!(cold.len(), p.cold.len(), "cold configs are unique");
    }

    #[test]
    fn request_bodies_parse_as_analyze_requests() {
        let p = plan(1, RATE, 1.0);
        for body in (0..HOT.len()).map(hot_body).chain(p.cold) {
            let value = json::parse(&body).expect("valid JSON");
            AnalyzeRequest::from_json(&value).expect("valid request");
        }
    }
}
