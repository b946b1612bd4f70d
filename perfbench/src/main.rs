//! The etpn benchmark: three workloads, each measured end to end with
//! tracing off, and once more with the benchmark's own spans around every
//! call into the workspace for the per-layer split.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload sim-long --seed 1 --seconds 25 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. `--trace 0` reports the
//! end-to-end metrics, `--trace 1` the per-layer metrics (see
//! `perfbench/README.md`). A failed correctness check exits with code 1.

mod serve_mixed;
mod sim_long;
mod synth_explore;
mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;
use trace::{Span, Tracer};

/// Bumped whenever a change to the benchmark makes its numbers
/// incomparable with earlier results.
const BENCH_VERSION: &str = "2";

/// Workload names.
const WORKLOADS: [&str; 3] = ["sim-long", "serve-mixed", "synth-explore"];

/// Every per-layer metric with its unit. Each traced run prints all of
/// them; a metric of a layer the workload never calls reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    // sim-long
    ("sim.compile_ms", "ms"),
    ("sim.step_us.p50.small", "us"),
    ("sim.step_us.p99.small", "us"),
    ("sim.step_us.p50.large", "us"),
    ("sim.step_us.p99.large", "us"),
    ("sim.step_us.p50.catalogue", "us"),
    ("sim.step_us.p99.catalogue", "us"),
    ("sim.step_us_instr.p50", "us"),
    ("sim.firings_per_step", "count"),
    ("rec.bytes_per_step", "B"),
    // serve-mixed
    ("serve.connect_us.p50", "us"),
    ("serve.ttfb_us.p50", "us"),
    ("serve.ttfb_us.p99", "us"),
    ("serve.accept_wait_us.p50", "us"),
    ("serve.accept_wait_us.p99", "us"),
    ("serve.queue_wait_us.p50", "us"),
    ("serve.queue_wait_us.p99", "us"),
    ("serve.service_us.p50.run", "us"),
    ("serve.service_us.p99.run", "us"),
    ("serve.service_us.p50.check", "us"),
    ("serve.service_us.p99.check", "us"),
    ("serve.service_us.p50.lint", "us"),
    ("serve.service_us.p99.lint", "us"),
    ("serve.service_us.p50.register", "us"),
    ("serve.service_us.p99.register", "us"),
    ("core.json_parse_us", "us"),
    ("serve.register_us", "us"),
    ("lint.lint_us", "us"),
    ("serve.persist_bytes_per_run", "B"),
    ("serve.shed", "count"),
    ("serve.cov_shed", "count"),
    ("serve.retries", "count"),
    ("serve.backend_fallbacks", "count"),
    ("serve.failures", "count"),
    ("obs.tracing_overhead_pct", "%"),
    // synth-explore
    ("lang.parse_us", "us"),
    ("synth.compile_us", "us"),
    ("analysis.proper_us", "us"),
    ("synth.optimize_ms", "ms"),
    ("synth.evals", "count"),
    ("synth.us_per_eval", "us"),
    ("synth.accept_ratio", "ratio"),
    ("transform.apply_us", "us"),
    ("synth.emit_us", "us"),
    ("synth.area_total", "count"),
    ("synth.latency_total", "count"),
    // every workload: self time per layer over the traced pass; `client`
    // is the benchmark's own code
    ("layer.core.self_ms", "ms"),
    ("layer.lang.self_ms", "ms"),
    ("layer.synth.self_ms", "ms"),
    ("layer.transform.self_ms", "ms"),
    ("layer.analysis.self_ms", "ms"),
    ("layer.lint.self_ms", "ms"),
    ("layer.sim.self_ms", "ms"),
    ("layer.rec.self_ms", "ms"),
    ("layer.cov.self_ms", "ms"),
    ("layer.serve.self_ms", "ms"),
    ("layer.client.self_ms", "ms"),
    // every workload: traced minus untraced, as a share of untraced
    ("trace_overhead.setup_s", "%"),
    ("trace_overhead.peak_rss_mb", "%"),
    ("trace_overhead.throughput_per_s", "%"),
    ("trace_overhead.latency_p50_ms", "%"),
];

/// The `PER_LAYER` name spelled `name`.
pub fn per_layer(name: &str) -> &'static str {
    PER_LAYER
        .iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("{name} is not in PER_LAYER"))
        .0
}

/// Run parameters shared by every workload.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    /// Shrink every input for the self-test.
    pub tiny: bool,
    /// Corrupt each expected output before the correctness gate (the
    /// self-test's negative case).
    pub corrupt: bool,
    /// CPUs this process may run on (`nproc`), for the host fingerprint.
    pub nproc: usize,
    /// Directory for trace files and scratch data, inside the checkout.
    pub out_dir: PathBuf,
}

/// How much work one pass does.
#[derive(Clone, Copy, Debug)]
pub enum Budget {
    /// Whole cycles over the workload's inputs until this many seconds
    /// have passed.
    Seconds(f64),
    /// Exactly this many cycles (the traced run and its untraced twin).
    Cycles(u32),
}

impl Budget {
    /// Should another cycle start, given `done` cycles so far? A timed
    /// pass runs at least `min_cycles` cycles, so every kind of operation
    /// has that many samples, and after that only cycles that, at the
    /// pace so far, end within the seconds.
    pub fn more(self, done: u32, started: Instant, min_cycles: u32) -> bool {
        match self {
            Budget::Seconds(s) => {
                let spent = started.elapsed().as_secs_f64();
                done < min_cycles || spent + spent / f64::from(done) <= s
            }
            Budget::Cycles(n) => done < n,
        }
    }
}

/// Operations attempted and failed, over the gate and the timed passes.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Count one operation; `Err` carries why it failed.
    pub fn check(&mut self, what: &str, ok: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = ok {
            self.failed += 1;
            if self.failed <= 20 {
                eprintln!("perfbench: FAILED {what}: {why}");
            }
        }
    }

    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// One timed operation.
struct Sample {
    kind: u64,
    /// Work done, in the workload's unit: steps, requests, syntheses.
    units: f64,
    secs: f64,
}

/// What one pass measured: every operation with its kind, the work it did
/// and the seconds it took.
pub struct Pass {
    samples: Vec<Sample>,
    kind_time: KindTime,
    /// Operations in flight at once: the closed-loop clients, or 1.
    concurrency: f64,
    /// Peak resident set, MiB, when the pass read it after a fixed amount
    /// of work; otherwise the process's peak at the end counts.
    pub peak_rss_mb: Option<f64>,
}

/// How a kind's samples make the kind's time.
///
/// On a shared 2-vCPU cloud VM (Sapphire Rapids Xeon, KVM), branchy and
/// memory-heavy code runs up to about 1.8 times as slow in stretches from
/// a fraction of a second to minutes, while a dependent ALU loop keeps
/// its speed and no time is stolen from the thread: other tenants on the
/// same physical cores. Inside a slow stretch of a minute, the fastest
/// of a kind's runs of a few milliseconds still comes within ~15 % of
/// the quiet speed, its fourth fastest only within ~40 %.
#[derive(Clone, Copy)]
pub enum KindTime {
    /// The fastest sample, for kinds that repeat identical work many
    /// times; a change that slows the code slows every sample, so it
    /// still shows. A kind with fewer than `MIN_FASTEST` samples (the
    /// traced run and its untraced twin do one to three cycles) takes the
    /// median, so the fastest does not pick the luckiest of a few.
    Fastest,
    /// The median sample, for operations whose latency holds a wait that
    /// does not follow the host's speed (etpnd's accept poll), which the
    /// fastest samples would leave out.
    Median,
}

/// Fewest samples a kind takes its fastest from.
const MIN_FASTEST: usize = 8;

impl Pass {
    /// An empty pass of operations `concurrency` at once.
    pub fn new(kind_time: KindTime, concurrency: f64) -> Pass {
        Pass {
            samples: Vec::new(),
            kind_time,
            concurrency,
            peak_rss_mb: None,
        }
    }

    /// Count one operation of kind `kind`.
    pub fn op(&mut self, kind: u64, units: f64, secs: f64) {
        self.samples.push(Sample { kind, units, secs });
    }

    /// Each kind's time, s (see `KindTime`).
    fn kind_times(&self) -> BTreeMap<u64, f64> {
        let mut by_kind: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
        for s in &self.samples {
            by_kind.entry(s.kind).or_default().push(s.secs);
        }
        by_kind
            .into_iter()
            .map(|(kind, mut times)| {
                times.sort_by(f64::total_cmp);
                let fastest =
                    matches!(self.kind_time, KindTime::Fastest) && times.len() >= MIN_FASTEST;
                (kind, times[if fastest { 0 } else { (times.len() - 1) / 2 }])
            })
            .collect()
    }

    /// Every operation, each at its kind's time, s.
    fn op_times(&self) -> Vec<f64> {
        let kinds = self.kind_times();
        self.samples.iter().map(|s| kinds[&s.kind]).collect()
    }

    /// Work units per second: the work over the time the operations take
    /// at their kinds' times, `concurrency` at once.
    fn throughput(&self) -> f64 {
        let units: f64 = self.samples.iter().map(|s| s.units).sum();
        let secs: f64 = self.op_times().iter().sum();
        units / (secs / self.concurrency).max(1e-9)
    }

    /// Every operation's latency at its kind's time, ms.
    fn latencies_ms(&self) -> Vec<f64> {
        self.op_times().iter().map(|s| s * 1e3).collect()
    }
}

/// Per-layer metric values by name.
pub type Layers = BTreeMap<&'static str, f64>;

/// One workload: set-up, correctness gate, timed pass, per-layer split.
pub trait Workload {
    type State;
    fn setup(ctx: &Ctx, t: &Tracer) -> Self::State;
    fn gate(ctx: &Ctx, s: &mut Self::State, tally: &mut Tally);
    fn pass(ctx: &Ctx, s: &mut Self::State, t: &Tracer, b: Budget, tally: &mut Tally) -> Pass;
    /// Extra traced calls after the traced pass (one-by-one replays,
    /// scrapes), then the workload's per-layer metrics from the spans.
    fn layers(ctx: &Ctx, s: &mut Self::State, t: &Tracer, tally: &mut Tally)
        -> (Vec<Span>, Layers);
    /// Cycles the traced run and its untraced twin each do.
    fn trace_cycles(ctx: &Ctx) -> u32;
}

pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Xorshift64: the benchmark's seeded input generator. The state must
/// not be 0.
pub struct Rng(pub u64);

impl Rng {
    pub fn next_u64(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            v.swap(i, j);
        }
    }
}

/// Perturb the first expected value, for the self-test's negative case.
pub fn corrupt(expected: &mut std::collections::HashMap<String, Vec<i64>>) {
    let mut names: Vec<&String> = expected.keys().collect();
    names.sort();
    let first = names[0].clone();
    if let Some(v) = expected.get_mut(&first).and_then(|v| v.first_mut()) {
        *v += 1;
    }
}

/// Arithmetic mean; 0 for an empty sample.
pub fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

/// Nearest-rank quantile; 0 for an empty sample.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

/// Durations (µs) of the spans called `name`, optionally only those
/// tagged `tag`.
pub fn durations(spans: &[Span], name: &str, tag: Option<&str>) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name && tag.is_none_or(|t| s.tag == t))
        .map(Span::dur_us)
        .collect()
}

/// Peak resident set size of this process, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push(' '),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn command_line(cmd: &mut std::process::Command) -> String {
    cmd.output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Where a result was measured: results compare only on one host.
fn host_fingerprint(ctx: &Ctx) -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark sits in the repository");
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    format!(
        "{{\"nproc\": {}, \"cpu\": {}, \"rustc\": {}, \"commit\": {}, \"bench_version\": {}}}",
        ctx.nproc,
        json_str(&cpu),
        json_str(&command_line(Command::new("rustc").arg("--version"))),
        json_str(&command_line(
            // The checkout may not be a git repository; git must not find
            // one above it.
            Command::new("git")
                .arg("-C")
                .arg(root)
                .args(["rev-parse", "HEAD"])
                .env("GIT_CEILING_DIRECTORIES", root.parent().unwrap_or(root))
        )),
        json_str(BENCH_VERSION)
    )
}

/// End-to-end metrics of one pass plus set-up and memory.
fn e2e(setup_s: f64, rss_mb: f64, p: &Pass) -> Vec<(&'static str, f64, &'static str)> {
    let lat = p.latencies_ms();
    vec![
        ("setup_s", setup_s, "s"),
        ("peak_rss_mb", rss_mb, "MiB"),
        ("throughput_per_s", p.throughput(), "1/s"),
        ("latency_p50_ms", quantile(&lat, 0.5), "ms"),
    ]
}

/// Set-up repetitions; `setup_s` is their median.
const SETUPS: usize = 32;

struct Outcome {
    tally: Tally,
    metrics: Vec<(String, f64, &'static str)>,
}

/// Set up `n` times, keeping the last state.
fn setups<W: Workload>(ctx: &Ctx, n: usize, times: &mut Vec<f64>) -> W::State {
    let off = Tracer::new(false);
    let mut state = None;
    for _ in 0..n {
        drop(state.take());
        let t0 = Instant::now();
        state = Some(W::setup(ctx, &off));
        times.push(t0.elapsed().as_secs_f64());
    }
    state.expect("at least one set-up")
}

fn run_workload<W: Workload>(ctx: &Ctx, name: &str, traced: bool) -> Outcome {
    let off = Tracer::new(false);
    let mut tally = Tally::default();
    // Half the set-ups before the pass and half after it, so a slow
    // stretch of the host at either end does not decide `setup_s`.
    let mut setup_times = Vec::new();
    let mut state = setups::<W>(ctx, SETUPS / 2, &mut setup_times);
    W::gate(ctx, &mut state, &mut tally);

    if !traced {
        let pass = W::pass(
            ctx,
            &mut state,
            &off,
            Budget::Seconds(ctx.seconds),
            &mut tally,
        );
        drop(state);
        let rss = pass.peak_rss_mb.unwrap_or_else(peak_rss_mb);
        drop(setups::<W>(ctx, SETUPS - SETUPS / 2, &mut setup_times));
        let metrics = e2e(median(&setup_times), rss, &pass)
            .into_iter()
            .map(|(n, v, u)| (n.to_string(), v, u))
            .collect();
        return Outcome { tally, metrics };
    }

    // The untraced twin and the traced pass do the same cycles, each on a
    // fresh set-up, so their difference is the cost of the spans.
    let cycles = W::trace_cycles(ctx);
    let plain = W::pass(ctx, &mut state, &off, Budget::Cycles(cycles), &mut tally);
    drop(state);
    let rss_plain = peak_rss_mb();
    drop(setups::<W>(ctx, SETUPS - SETUPS / 2, &mut setup_times));
    let setup_s = median(&setup_times);
    let on = Tracer::new(true);
    let t0 = Instant::now();
    let mut state = {
        let _s = on.span("client", "setup");
        W::setup(ctx, &on)
    };
    let setup_traced = t0.elapsed().as_secs_f64();
    W::gate(ctx, &mut state, &mut tally);
    let traced_pass = W::pass(ctx, &mut state, &on, Budget::Cycles(cycles), &mut tally);
    let (spans, mut layers) = W::layers(ctx, &mut state, &on, &mut tally);
    drop(state);
    let rss_traced = peak_rss_mb();

    let selfs = trace::self_times_us(&spans);
    for &(key, _) in PER_LAYER {
        let Some(layer) = key
            .strip_prefix("layer.")
            .and_then(|r| r.strip_suffix(".self_ms"))
        else {
            continue;
        };
        let ms = spans
            .iter()
            .zip(&selfs)
            .filter(|(s, _)| s.layer == layer)
            .map(|(_, us)| us / 1e3)
            .sum();
        layers.insert(key, ms);
    }
    let before = e2e(setup_s, rss_plain, &plain);
    let after = e2e(setup_traced, rss_traced, &traced_pass);
    for ((n, u, _), (_, t, _)) in before.iter().zip(&after) {
        let key = per_layer(&format!("trace_overhead.{n}"));
        layers.insert(key, if *u == 0.0 { 0.0 } else { (t - u) / u * 100.0 });
    }

    let path = ctx
        .out_dir
        .join(format!("trace-{name}-seed{}.json", ctx.seed));
    let meta = format!(
        "{{\"workload\": {}, \"seed\": {}, \"dropped_spans\": {}, \"host\": {}}}",
        json_str(name),
        ctx.seed,
        on.dropped(),
        host_fingerprint(ctx)
    );
    match std::fs::write(&path, trace::chrome_json(&spans, &meta)) {
        Ok(()) => eprintln!(
            "perfbench: {} spans written to {}",
            spans.len(),
            path.display()
        ),
        Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
    }

    let metrics = PER_LAYER
        .iter()
        .map(|&(n, unit)| (n.to_string(), layers.get(n).copied().unwrap_or(0.0), unit))
        .collect();
    Outcome { tally, metrics }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
    corrupt: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Option<&str> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
    };
    let workload = value("--workload")
        .ok_or("missing --workload <name>")?
        .to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}`; one of {WORKLOADS:?}"
        ));
    }
    let num = |flag: &str, default: &str| -> Result<f64, String> {
        value(flag)
            .unwrap_or(default)
            .parse::<f64>()
            .map_err(|_| format!("{flag} takes a number"))
    };
    Ok(Args {
        workload,
        seed: num("--seed", "1")? as u64,
        seconds: num("--seconds", "10")?,
        trace: num("--trace", "0")? != 0.0,
        tiny: argv.iter().any(|a| a == "--tiny"),
        corrupt: argv.iter().any(|a| a == "--corrupt-expected"),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\nusage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--tiny] [--corrupt-expected]");
            std::process::exit(2);
        }
    };
    let out_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("perfbench: cannot create {}: {e}", out_dir.display());
        std::process::exit(2);
    }
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        tiny: args.tiny,
        corrupt: args.corrupt,
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        out_dir,
    };
    let name = args.workload.as_str();
    let out = match name {
        "sim-long" => run_workload::<sim_long::SimLong>(&ctx, name, args.trace),
        "serve-mixed" => run_workload::<serve_mixed::ServeMixed>(&ctx, name, args.trace),
        _ => run_workload::<synth_explore::SynthExplore>(&ctx, name, args.trace),
    };
    println!(
        "{{\"host\": {}, \"workload\": {}, \"seed\": {}, \"trace\": {}}}",
        host_fingerprint(&ctx),
        json_str(name),
        ctx.seed,
        u8::from(args.trace)
    );
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|(n, v, u)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!(
                "{}: {{\"value\": {v}, \"unit\": {}}}",
                json_str(n),
                json_str(u)
            )
        })
        .collect();
    let correct = out.tally.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.tally.attempted.max(1),
        out.tally.failed,
        metrics.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}
