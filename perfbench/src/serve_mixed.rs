//! `serve-mixed`: an in-process etpnd (`etpn_serve::start`) with the
//! daemon's defaults and persistence in a scratch data directory, driven
//! by two closed-loop clients that open one connection per request, as
//! `etpnc remote` does. The access log is off: it would write to the
//! benchmark's stderr.
//!
//! The seeded mix is about 70 % `/v1/run` on catalogue designs (each run's
//! coverage is journaled), 15 % `/v1/check` with `jobs: 2`, 10 %
//! `/v1/lint` and 5 % `POST /v1/designs` registering a fresh, uniquely
//! named `random_program`. An operation and the work unit are both one
//! request; its kind is its verb and design.

use crate::trace::{key_scope, Span, Tracer};
use crate::{
    durations, mean, median, per_layer, quantile, Budget, Ctx, KindTime, Layers, Pass, Rng, Tally,
    Workload,
};
use etpn_core::json::{self, Json};
use etpn_serve::{start, BreakerConfig, Registry, ServerConfig, ServerHandle};
use etpn_workloads::{random_program, ProgramShape};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

pub struct ServeMixed;

/// Closed-loop clients: the host has two cores.
const CLIENTS: u64 = 2;
const TIMEOUT: Duration = Duration::from_secs(30);

/// The registry keeps every design registered, one in twenty requests, so
/// the server's memory grows with the requests it has served. A timed pass
/// reads `peak_rss_mb` once this many requests are done (a 40 s pass does
/// 20 000–35 000), so a faster server does not read as a bigger one.
const RSS_AFTER: u64 = 16_000;

struct Design {
    name: &'static str,
    expected: HashMap<String, Vec<i64>>,
    run_body: String,
    check_body: String,
    lint_body: String,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Verb {
    Run,
    Check,
    Lint,
    Register,
}

impl Verb {
    fn label(self) -> &'static str {
        match self {
            Verb::Run => "run",
            Verb::Check => "check",
            Verb::Lint => "lint",
            Verb::Register => "register",
        }
    }
}

/// One traced request as the client saw it.
struct Seen {
    trace_id: String,
    latency_us: f64,
}

pub struct State {
    server: Option<ServerHandle>,
    addr: String,
    data_dir: PathBuf,
    designs: Vec<Design>,
    seed: u64,
    /// Requests each client sends per cycle of a fixed budget.
    per_cycle: u64,
    /// Fresh-program counter, so every registration is a new name.
    fresh: AtomicU64,
    covered_runs: AtomicU64,
    /// Requests of the current pass, and the process's peak resident set
    /// when they reached `RSS_AFTER`.
    requests: AtomicU64,
    rss_at: Mutex<Option<f64>>,
    /// Traced pass only: what the clients saw, the server's summaries of
    /// the same requests, and the bodies and programs sent.
    seen: Mutex<Vec<Seen>>,
    served: Mutex<HashMap<String, Served>>,
    bodies: Mutex<Vec<String>>,
    programs: Mutex<Vec<String>>,
}

impl Drop for State {
    fn drop(&mut self) {
        if let Some(h) = self.server.take() {
            h.shutdown();
        }
        let _ = std::fs::remove_dir_all(&self.data_dir);
    }
}

/// The server's own summary of one request (`/v1/debug/requests`), µs.
struct Served {
    verb: String,
    queue: f64,
    service: f64,
    total: f64,
}

struct Reply {
    status: u16,
    body: String,
}

/// One request on a fresh connection, with spans for the connect, the
/// wait for the first response byte, and the rest of the read.
fn exchange(
    addr: &str,
    method: &str,
    path: &str,
    body: &str,
    trace_id: Option<&str>,
    t: &Tracer,
) -> std::io::Result<Reply> {
    let mut stream = {
        let _s = t.span("serve", "serve.connect");
        TcpStream::connect(addr)?
    };
    stream.set_read_timeout(Some(TIMEOUT))?;
    stream.set_write_timeout(Some(TIMEOUT))?;
    let mut msg = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n",
        body.len()
    );
    if let Some(id) = trace_id {
        msg.push_str(&format!("X-Etpn-Trace-Id: {id}\r\n"));
    }
    msg.push_str("\r\n");
    msg.push_str(body);
    let mut raw = Vec::new();
    {
        let _s = t.span("serve", "serve.ttfb");
        stream.write_all(msg.as_bytes())?;
        let mut first = [0u8; 1];
        stream.read_exact(&mut first)?;
        raw.push(first[0]);
    }
    {
        let _s = t.span("client", "client.read");
        stream.read_to_end(&mut raw)?;
    }
    let text = String::from_utf8_lossy(&raw);
    let bad = || std::io::Error::new(std::io::ErrorKind::InvalidData, "malformed response");
    let (head, body) = text.split_once("\r\n\r\n").ok_or_else(bad)?;
    let status = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(bad)?;
    Ok(Reply {
        status,
        body: body.to_string(),
    })
}

fn inputs_json(inputs: &[(String, Vec<i64>)]) -> Json {
    Json::Obj(
        inputs
            .iter()
            .map(|(n, vs)| {
                (
                    n.clone(),
                    Json::Arr(vs.iter().map(|&v| Json::Num(v)).collect()),
                )
            })
            .collect(),
    )
}

/// Check a run reply's outputs; says whether its coverage was recorded.
fn expect_outputs(body: &str, want: &HashMap<String, Vec<i64>>) -> Result<bool, String> {
    let doc = json::parse(body).map_err(|e| e.to_string())?;
    let outputs = doc.get("outputs").ok_or("response without outputs")?;
    for (name, values) in want {
        let got: Vec<i64> = outputs
            .get(name)
            .and_then(|v| v.as_arr().ok())
            .map(|a| a.iter().filter_map(|v| v.as_i64().ok()).collect())
            .unwrap_or_default();
        if &got != values {
            return Err(format!("output {name}: got {got:?}, expected {values:?}"));
        }
    }
    Ok(doc
        .get("coverage_recorded")
        .and_then(|c| c.as_bool().ok())
        .unwrap_or(false))
}

/// A fresh design source with a name no other request uses.
fn fresh_program(s: &State, client: u64) -> String {
    let n = s.fresh.fetch_add(1, Ordering::Relaxed);
    let mut prog = random_program(
        s.seed.wrapping_mul(0x9E37_79B9).wrapping_add(n),
        ProgramShape::default(),
    );
    prog.name = format!("rnd_s{}_c{client}_{n}", s.seed);
    etpn_lang::pretty(&prog)
}

/// Send one request of `verb` and check the reply.
fn send(
    s: &State,
    verb: Verb,
    design: usize,
    client: u64,
    trace_id: Option<&str>,
    t: &Tracer,
) -> (f64, Result<(), String>) {
    let d = &s.designs[design];
    let fresh;
    let (path, body, want) = match verb {
        Verb::Run => ("/v1/run", d.run_body.as_str(), 200),
        Verb::Check => ("/v1/check", d.check_body.as_str(), 200),
        Verb::Lint => ("/v1/lint", d.lint_body.as_str(), 200),
        Verb::Register => {
            let src = fresh_program(s, client);
            fresh = Json::obj([("source", Json::Str(src.clone()))]).compact();
            if t.on() {
                s.programs.lock().expect("programs lock").push(src);
            }
            ("/v1/designs", fresh.as_str(), 201)
        }
    };
    if t.on() {
        let mut bodies = s.bodies.lock().expect("bodies lock");
        if bodies.len() < 512 {
            bodies.push(body.to_string());
        }
    }
    let t0 = Instant::now();
    let reply = {
        let _s = t.span_with("client", "client.request", verb.label(), 0);
        exchange(&s.addr, "POST", path, body, trace_id, t)
    };
    let us = t0.elapsed().as_secs_f64() * 1e6;
    let ok = match reply {
        Err(e) => Err(format!("{path}: {e}")),
        Ok(r) if r.status != want => {
            Err(format!("{path}: status {} ({})", r.status, r.body.trim()))
        }
        Ok(r) => match verb {
            Verb::Run => expect_outputs(&r.body, &d.expected).map(|covered| {
                if covered {
                    s.covered_runs.fetch_add(1, Ordering::Relaxed);
                }
            }),
            Verb::Check => json::parse(&r.body)
                .ok()
                .and_then(|j| j.get("agree").and_then(|a| a.as_bool().ok()))
                .filter(|&agree| agree)
                .map(|_| ())
                .ok_or_else(|| format!("{}: check does not agree: {}", d.name, r.body.trim())),
            _ => Ok(()),
        },
    };
    (us, ok)
}

/// Pull the server's summaries of recent requests into the trace-id map.
fn scrape_debug(s: &State, t: &Tracer) {
    let _s = t.span("client", "client.scrape");
    let Ok(r) = exchange(
        &s.addr,
        "GET",
        "/v1/debug/requests?limit=256",
        "",
        None,
        &Tracer::new(false),
    ) else {
        return;
    };
    let Ok(doc) = json::parse(&r.body) else {
        return;
    };
    let Some(Ok(reqs)) = doc.get("requests").map(Json::as_arr) else {
        return;
    };
    let mut map = s.served.lock().expect("served map lock");
    for q in reqs {
        let num = |k: &str| q.get(k).and_then(|v| v.as_i64().ok()).map(|v| v as f64);
        let (Some(Ok(id)), Some(Ok(verb)), Some(queue), Some(service), Some(total)) = (
            q.get("trace_id").map(Json::as_str),
            q.get("verb").map(Json::as_str),
            num("queue_us"),
            num("service_us"),
            num("total_us"),
        ) else {
            continue;
        };
        map.insert(
            id.to_string(),
            Served {
                verb: verb.to_string(),
                queue,
                service,
                total,
            },
        );
    }
}

struct ClientOut {
    /// Kind and latency (s) of each request.
    done: Vec<(u64, f64)>,
    tally: Tally,
}

fn client_loop(s: &State, client: u64, b: Budget, started: Instant, t: &Tracer) -> ClientOut {
    let mut rng = Rng(s.seed.wrapping_mul(0x2545_F491_4F6C_DD1D)
        ^ (client + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        | 1);
    let mut out = ClientOut {
        done: Vec::new(),
        tally: Tally::default(),
    };
    let mut n = 0u64;
    loop {
        let go = match b {
            Budget::Seconds(secs) => started.elapsed().as_secs_f64() < secs,
            Budget::Cycles(c) => n < u64::from(c) * s.per_cycle,
        };
        if !go {
            break;
        }
        let r = rng.next_u64() % 100;
        let verb = match r {
            0..=69 => Verb::Run,
            70..=84 => Verb::Check,
            85..=94 => Verb::Lint,
            _ => Verb::Register,
        };
        let design = (rng.next_u64() % s.designs.len() as u64) as usize;
        let key = ((client + 1) << 40) | n;
        let _k = key_scope(key);
        let trace_id = t.on().then(|| format!("{:032x}", u128::from(key)));
        let (us, ok) = send(s, verb, design, client, trace_id.as_deref(), t);
        // Every registration is of a fresh program: one kind.
        let of_design = if verb == Verb::Register {
            0
        } else {
            design as u64
        };
        let kind = ((verb as u64) << 32) | of_design;
        out.done.push((kind, us / 1e6));
        out.tally.check(verb.label(), ok);
        if s.requests.fetch_add(1, Ordering::Relaxed) + 1 == RSS_AFTER {
            *s.rss_at.lock().expect("rss lock") = Some(crate::peak_rss_mb());
        }
        if let Some(id) = trace_id {
            s.seen.lock().expect("seen lock").push(Seen {
                trace_id: id,
                latency_us: us,
            });
            if n % 64 == 63 {
                scrape_debug(s, t);
            }
        }
        n += 1;
    }
    out
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Rounds of the tracing on/off comparison, and the length of each side
/// of a round.
const OBS_ROUNDS: usize = 6;
const OBS_ROUND_S: f64 = 0.5;

/// Start an in-process etpnd, with or without its request tracing, and
/// register the catalogue on it.
fn open(ctx: &Ctx, t: &Tracer, tracing: bool) -> State {
    static DIRS: AtomicU64 = AtomicU64::new(0);
    let data_dir = ctx.out_dir.join(format!(
        "serve-data-{}-{}",
        std::process::id(),
        DIRS.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&data_dir);
    std::fs::create_dir_all(&data_dir).expect("scratch data directory");
    let server = {
        let _s = t.span("serve", "serve.start");
        start(ServerConfig {
            data_dir: Some(data_dir.clone()),
            access_log: false,
            tracing,
            ..ServerConfig::default()
        })
        .expect("in-process etpnd binds")
    };
    let addr = server.addr.to_string();
    let names: Vec<&'static str> = if ctx.tiny {
        vec!["gcd", "diffeq"]
    } else {
        etpn_workloads::catalog().iter().map(|w| w.name).collect()
    };
    let designs = names
        .into_iter()
        .map(|name| {
            let w = etpn_workloads::by_name(name).expect("catalogue design");
            let body = Json::obj([("source", Json::Str(w.source.clone()))]).compact();
            let r = {
                let _s = t.span_with("client", "client.request", "register", 0);
                exchange(&addr, "POST", "/v1/designs", &body, None, t)
            };
            assert!(
                matches!(&r, Ok(r) if r.status == 201),
                "registering {name} failed"
            );
            let inputs = inputs_json(&w.inputs);
            let mut expected = w.expected();
            if ctx.corrupt {
                crate::corrupt(&mut expected);
            }
            Design {
                name,
                expected,
                run_body: Json::obj([
                    ("design", Json::Str(name.into())),
                    ("inputs", inputs.clone()),
                    ("steps", Json::Num(w.max_steps as i64)),
                ])
                .compact(),
                check_body: Json::obj([
                    ("design", Json::Str(name.into())),
                    ("inputs", inputs),
                    ("steps", Json::Num(w.max_steps as i64)),
                    ("jobs", Json::Num(2)),
                ])
                .compact(),
                lint_body: Json::obj([("design", Json::Str(name.into()))]).compact(),
            }
        })
        .collect();
    State {
        server: Some(server),
        addr,
        data_dir,
        designs,
        seed: ctx.seed,
        per_cycle: if ctx.tiny { 40 } else { 1500 },
        fresh: AtomicU64::new(0),
        covered_runs: AtomicU64::new(0),
        requests: AtomicU64::new(0),
        rss_at: Mutex::new(None),
        seen: Mutex::new(Vec::new()),
        served: Mutex::new(HashMap::new()),
        bodies: Mutex::new(Vec::new()),
        programs: Mutex::new(Vec::new()),
    }
}

/// The cost of etpnd's own request tracing (the `obs` layer), which the
/// daemon runs by default: median client latency against a server with
/// tracing on over one with it off, interleaved in rounds so drift of the
/// host cancels, as the median of the rounds' ratios, in %.
fn obs_overhead_pct(ctx: &Ctx, on: &mut State, tally: &mut Tally) -> f64 {
    let quiet = Tracer::new(false);
    let mut off = open(ctx, &quiet, false);
    let mut ratios = Vec::new();
    for _ in 0..OBS_ROUNDS {
        let mut p50 = |s: &mut State| {
            let p = ServeMixed::pass(ctx, s, &quiet, Budget::Seconds(OBS_ROUND_S), tally);
            median(&p.latencies_ms())
        };
        let (a, b) = (p50(on), p50(&mut off));
        if b > 0.0 {
            ratios.push(a / b);
        }
    }
    (median(&ratios) - 1.0) * 100.0
}

impl Workload for ServeMixed {
    type State = State;

    fn setup(ctx: &Ctx, t: &Tracer) -> State {
        open(ctx, t, true)
    }

    fn gate(_ctx: &Ctx, s: &mut State, tally: &mut Tally) {
        let off = Tracer::new(false);
        for d in 0..s.designs.len() {
            for verb in [Verb::Run, Verb::Check, Verb::Lint, Verb::Register] {
                let (_, ok) = send(s, verb, d, CLIENTS, None, &off);
                tally.check(verb.label(), ok);
            }
        }
    }

    fn pass(_ctx: &Ctx, s: &mut State, t: &Tracer, b: Budget, tally: &mut Tally) -> Pass {
        s.requests.store(0, Ordering::Relaxed);
        *s.rss_at.lock().expect("rss lock") = None;
        let started = Instant::now();
        let outs: Vec<ClientOut> = std::thread::scope(|scope| {
            let s = &*s;
            let handles: Vec<_> = (0..CLIENTS)
                .map(|c| scope.spawn(move || client_loop(s, c, b, started, t)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        // A request's latency holds the accept poll's wait, which does not
        // follow the host's speed, so each kind counts at its median.
        let mut p = Pass::new(KindTime::Median, CLIENTS as f64);
        for o in outs {
            for (kind, secs) in o.done {
                p.op(kind, 1.0, secs);
            }
            tally.absorb(o.tally);
        }
        p.peak_rss_mb = *s.rss_at.lock().expect("rss lock");
        p
    }

    fn layers(ctx: &Ctx, s: &mut State, t: &Tracer, tally: &mut Tally) -> (Vec<Span>, Layers) {
        let mut m = Layers::new();
        scrape_debug(s, t);
        let stats = exchange(&s.addr, "GET", "/stats", "", None, &Tracer::new(false))
            .ok()
            .and_then(|r| json::parse(&r.body).ok());
        tally.check(
            "GET /stats",
            stats
                .is_some()
                .then_some(())
                .ok_or_else(|| "no /stats".into()),
        );
        if let Some(stats) = &stats {
            for name in [
                "serve.shed",
                "serve.cov_shed",
                "serve.retries",
                "serve.backend_fallbacks",
                "serve.failures",
            ] {
                let v = stats
                    .get("counters")
                    .and_then(|c| c.get(name))
                    .and_then(|v| v.as_i64().ok())
                    .unwrap_or(0);
                m.insert(name, v as f64);
            }
        }
        // The server's own summaries of the traced requests, matched by
        // trace id: exact µs, where the `/stats` histograms give bucket
        // bounds.
        let served = s.served.lock().expect("served map lock");
        let seen = s.seen.lock().expect("seen lock");
        let matched: Vec<(&Seen, &Served)> = seen
            .iter()
            .filter_map(|q| served.get(&q.trace_id).map(|v| (q, v)))
            .collect();
        // Client latency minus the server's latency for the same request:
        // the time a request spends before the server admits it.
        let waits: Vec<f64> = matched
            .iter()
            .map(|(q, v)| (q.latency_us - v.total).max(0.0))
            .collect();
        let queue: Vec<f64> = matched.iter().map(|(_, v)| v.queue).collect();
        for (q, at) in [("p50", 0.5), ("p99", 0.99)] {
            m.insert(
                per_layer(&format!("serve.accept_wait_us.{q}")),
                quantile(&waits, at),
            );
            m.insert(
                per_layer(&format!("serve.queue_wait_us.{q}")),
                quantile(&queue, at),
            );
            for verb in ["run", "check", "lint", "register"] {
                let d: Vec<f64> = matched
                    .iter()
                    .filter(|(_, v)| v.verb == verb)
                    .map(|(_, v)| v.service)
                    .collect();
                m.insert(
                    per_layer(&format!("serve.service_us.{q}.{verb}")),
                    quantile(&d, at),
                );
            }
        }
        drop((seen, served));

        // The same request bodies through the JSON parser, the same fresh
        // programs through a registry, the catalogue through the linter.
        for body in s.bodies.lock().expect("bodies lock").iter() {
            let _s = t.span("core", "core.json_parse");
            std::hint::black_box(json::parse(body).is_ok());
        }
        let registry = Registry::new(BreakerConfig::default());
        for src in s.programs.lock().expect("programs lock").iter() {
            let _s = t.span("serve", "serve.registry.register");
            let ok = registry
                .register(src)
                .map(|_| ())
                .map_err(|e| e.to_string());
            tally.check("Registry::register", ok);
        }
        let names: Vec<&str> = s.designs.iter().map(|d| d.name).collect();
        for name in names {
            let w = etpn_workloads::by_name(name).expect("catalogue design");
            let d = etpn_synth::compile_source(&w.source).expect("catalogue design compiles");
            let _s = t.span("lint", "lint.lint");
            std::hint::black_box(etpn_lint::lint_compiled(
                &d,
                &etpn_lint::LintConfig::default(),
            ));
        }
        m.insert(
            "serve.persist_bytes_per_run",
            dir_bytes(&s.data_dir) as f64 / s.covered_runs.load(Ordering::Relaxed).max(1) as f64,
        );
        let spans = t.take();
        let avg = |name: &str| mean(&durations(&spans, name, None));
        let connect = durations(&spans, "serve.connect", None);
        let ttfb = durations(&spans, "serve.ttfb", None);
        m.insert("serve.connect_us.p50", quantile(&connect, 0.5));
        m.insert("serve.ttfb_us.p50", quantile(&ttfb, 0.5));
        m.insert("serve.ttfb_us.p99", quantile(&ttfb, 0.99));
        m.insert("core.json_parse_us", avg("core.json_parse"));
        m.insert("serve.register_us", avg("serve.registry.register"));
        m.insert("lint.lint_us", avg("lint.lint"));
        m.insert("obs.tracing_overhead_pct", obs_overhead_pct(ctx, s, tally));
        (spans, m)
    }

    fn trace_cycles(_ctx: &Ctx) -> u32 {
        1
    }
}
