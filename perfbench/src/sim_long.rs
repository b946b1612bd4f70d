//! `sim-long`: long `MaximalStep` runs on the compiled engine, one thread.
//!
//! Inputs are cyclic `random_net` nets at two sizes — one whose tables
//! stay in cache, one whose tables do not — and the data-path-heavy
//! catalogue designs `fir16` and `ewf` on their representative inputs.
//! Every input runs once plain and once with coverage and a ring recorder
//! on, the way etpnd and fault campaigns run it. An operation is one run;
//! the work unit is one control step.

use crate::trace::{key_scope, Span, Tracer};
use crate::{
    durations, mean, median, per_layer, quantile, Budget, Ctx, KindTime, Layers, Pass, Tally,
    Workload,
};
use etpn_core::Etpn;
use etpn_cov::CovDb;
use etpn_rec::RecordConfig;
use etpn_sim::{Backend, ScriptedEnv, Simulator, Trace};
use std::collections::HashMap;
use std::time::Instant;

pub struct SimLong;

struct Item {
    label: &'static str,
    g: Etpn,
    env: ScriptedEnv,
    reg_inits: Vec<(String, i64)>,
    fp: u64,
    /// Step budget of one run (cyclic nets never terminate on their own).
    budget: u64,
    /// Steps one run takes, set by the gate from the interpreter oracle.
    steps: u64,
    /// Reference outputs (catalogue designs only).
    expected: Option<HashMap<String, Vec<i64>>>,
    cov: Option<CovDb>,
}

pub struct State {
    items: Vec<Item>,
    /// Exact counters of the traced pass.
    firings: u64,
    steps: u64,
    rec_bytes: u64,
    rec_records: u64,
}

struct Sizes {
    small: usize,
    large: usize,
    nets: u64,
    small_steps: u64,
    large_steps: u64,
    trace_steps: u64,
}

fn sizes(ctx: &Ctx) -> Sizes {
    if ctx.tiny {
        Sizes {
            small: 32,
            large: 96,
            nets: 1,
            small_steps: 500,
            large_steps: 200,
            trace_steps: 100,
        }
    } else {
        Sizes {
            small: 128,
            large: 1024,
            // Few inputs of a few milliseconds a run, so each input gets
            // hundreds of samples a pass to take its fastest from (see
            // `KindTime`).
            nets: 4,
            small_steps: 4_000,
            large_steps: 1_000,
            trace_steps: 2_000,
        }
    }
}

/// A random net whose terminal transition loops back to the initial place,
/// so it runs for as long as the budget allows.
fn cyclic_net(seed: u64, n: usize) -> Etpn {
    let mut g = etpn_workloads::random_net(seed, n);
    let t_end = g
        .ctl
        .transitions()
        .iter()
        .find(|(_, tr)| tr.post.is_empty())
        .map(|(t, _)| t)
        .expect("random nets have a terminal transition");
    let first = g.ctl.initial_places()[0];
    g.ctl.flow_ts(t_end, first).expect("fresh flow edge");
    g
}

fn outputs_of(g: &Etpn, t: &Trace, want: &HashMap<String, Vec<i64>>) -> Result<(), String> {
    for (name, values) in want {
        let got = t.values_on_named_output(g, name);
        if &got != values {
            return Err(format!("output {name}: got {got:?}, expected {values:?}"));
        }
    }
    Ok(())
}

impl Item {
    fn sim(&self, backend: Backend, instr: bool) -> Simulator<'_, ScriptedEnv> {
        let mut sim = Simulator::new(&self.g, self.env.clone()).with_backend(backend);
        for (n, v) in &self.reg_inits {
            sim = sim.init_register(n, *v);
        }
        if instr {
            sim = sim
                .with_coverage()
                .with_recorder(RecordConfig::default())
                .with_design_fingerprint(self.fp);
        }
        sim
    }

    /// Step budget of one run: traced runs and their untraced twin cut
    /// the nets short, so the per-step spans stay few enough to keep.
    fn budget(&self, short: bool, trace_steps: u64) -> u64 {
        if short && self.expected.is_none() {
            self.budget.min(trace_steps)
        } else {
            self.budget
        }
    }

    /// Steps a correct run with `budget` takes.
    fn steps_for(&self, budget: u64) -> u64 {
        if self.expected.is_some() {
            self.steps
        } else {
            budget
        }
    }

    fn check(&self, t: &Trace, budget: u64) -> Result<(), String> {
        let want = self.steps_for(budget);
        if t.steps != want {
            return Err(format!("{} steps, expected {want}", t.steps));
        }
        match &self.expected {
            Some(want) => outputs_of(&self.g, t, want),
            None => Ok(()),
        }
    }
}

/// One run, plain or instrumented. Traced plain runs step one call at a
/// time so each step gets its own span; the ring recorder only attaches
/// inside `Simulator::run`, so instrumented runs are timed whole.
fn run_one(item: &Item, idx: usize, instr: bool, budget: u64, t: &Tracer) -> Trace {
    let _key = key_scope(idx as u64 + 1);
    let tag = if instr { "instr" } else { item.label };
    let _run = t.span_with("sim", "sim.run", tag, 0);
    let mut sim = item.sim(Backend::Compiled, instr);
    if t.on() && !instr {
        for _ in 0..budget {
            let _s = t.span_with("sim", "sim.step", item.label, 0);
            match sim.step_once() {
                Ok(Some(_)) => {}
                _ => break,
            }
        }
    }
    sim.run(budget).expect("the gate ran this input cleanly")
}

impl Workload for SimLong {
    type State = State;

    fn setup(ctx: &Ctx, t: &Tracer) -> State {
        let z = sizes(ctx);
        let mut items = Vec::new();
        for i in 0..z.nets {
            for (label, n, budget) in [
                ("small", z.small, z.small_steps),
                ("large", z.large, z.large_steps),
            ] {
                let seed = ctx
                    .seed
                    .wrapping_mul(1_000_003)
                    .wrapping_add(i * 2 + (n as u64));
                let g = {
                    let _s = t.span("core", "workloads.random_net");
                    cyclic_net(seed, n)
                };
                items.push((label, g, ScriptedEnv::new(), Vec::new(), budget, None));
            }
        }
        for name in ["fir16", "ewf"] {
            let w = etpn_workloads::by_name(name).expect("catalogue design");
            let d = {
                let _s = t.span("synth", "synth.compile_source");
                etpn_synth::compile_source(&w.source).expect("catalogue design compiles")
            };
            let mut expected = w.expected();
            if ctx.corrupt {
                crate::corrupt(&mut expected);
            }
            items.push((
                "catalogue",
                d.etpn,
                w.env(),
                d.reg_inits,
                w.max_steps,
                Some(expected),
            ));
        }
        let items = items
            .into_iter()
            .map(|(label, g, env, reg_inits, budget, expected)| {
                let fp = {
                    let _s = t.span("core", "core.fingerprint");
                    g.fingerprint()
                };
                {
                    let _s = t.span("sim", "sim.compile");
                    std::hint::black_box(etpn_sim::CompiledDesign::compile(&g));
                }
                etpn_sim::get_or_compile(&g);
                Item {
                    label,
                    g,
                    env,
                    reg_inits,
                    fp,
                    budget,
                    steps: 0,
                    expected,
                    cov: None,
                }
            })
            .collect();
        State {
            items,
            firings: 0,
            steps: 0,
            rec_bytes: 0,
            rec_records: 0,
        }
    }

    fn gate(_ctx: &Ctx, s: &mut State, tally: &mut Tally) {
        for item in &mut s.items {
            // The interpreter is the semantic oracle; nets are compared
            // over a prefix, catalogue designs over the whole run.
            let prefix = if item.expected.is_some() {
                item.budget
            } else {
                500
            };
            let oracle = item
                .sim(Backend::Interp, false)
                .watch_registers()
                .run(prefix);
            let fast = item
                .sim(Backend::Compiled, false)
                .watch_registers()
                .run(prefix);
            let same = match (&oracle, &fast) {
                (Ok(a), Ok(b)) => {
                    if a.steps == b.steps
                        && a.firings == b.firings
                        && a.fire_counts == b.fire_counts
                        && a.watched == b.watched
                        && a.events.len() == b.events.len()
                    {
                        Ok(())
                    } else {
                        Err("compiled trace differs from the interpreter's".to_string())
                    }
                }
                (a, b) => Err(format!(
                    "run failed: {:?} / {:?}",
                    a.as_ref().err(),
                    b.as_ref().err()
                )),
            };
            tally.check(&format!("{} compiled == interp", item.label), same);
            if let Some(want) = &item.expected {
                item.steps = oracle.as_ref().map_or(0, |t| t.steps);
                for instr in [false, true] {
                    let res = item
                        .sim(Backend::Compiled, instr)
                        .run(item.budget)
                        .map_err(|e| e.to_string())
                        .and_then(|t| outputs_of(&item.g, &t, want));
                    tally.check("catalogue outputs == expected()", res);
                }
            } else {
                item.steps = item.budget;
            }
        }
    }

    fn pass(ctx: &Ctx, s: &mut State, t: &Tracer, b: Budget, tally: &mut Tally) -> Pass {
        let z = sizes(ctx);
        let mut p = Pass::new(KindTime::Fastest, 1.0);
        let started = Instant::now();
        let mut cycles = 0;
        while b.more(cycles, started, 3) {
            for idx in 0..s.items.len() {
                for instr in [false, true] {
                    let item = &s.items[idx];
                    let budget = item.budget(matches!(b, Budget::Cycles(_)), z.trace_steps);
                    let t0 = Instant::now();
                    let trace = run_one(item, idx, instr, budget, t);
                    let dt = t0.elapsed().as_secs_f64();
                    p.op(idx as u64 * 2 + u64::from(instr), trace.steps as f64, dt);
                    tally.check("sim run", item.check(&trace, budget));
                    if t.on() {
                        s.firings += trace.firings;
                        s.steps += trace.steps;
                    }
                    if instr {
                        absorb(
                            t,
                            &mut s.items[idx],
                            trace,
                            &mut s.rec_bytes,
                            &mut s.rec_records,
                        );
                    }
                }
            }
            cycles += 1;
        }
        p
    }

    fn layers(ctx: &Ctx, s: &mut State, t: &Tracer, _tally: &mut Tally) -> (Vec<Span>, Layers) {
        let z = sizes(ctx);
        let spans = t.take();
        let mut m = Layers::new();
        m.insert(
            "sim.compile_ms",
            mean(&durations(&spans, "sim.compile", None)) / 1e3,
        );
        for label in ["small", "large", "catalogue"] {
            let d = durations(&spans, "sim.step", Some(label));
            m.insert(
                per_layer(&format!("sim.step_us.p50.{label}")),
                quantile(&d, 0.5),
            );
            m.insert(
                per_layer(&format!("sim.step_us.p99.{label}")),
                quantile(&d, 0.99),
            );
        }
        let per_step: Vec<f64> = spans
            .iter()
            .filter(|sp| sp.name == "sim.run" && sp.tag == "instr")
            .filter_map(|sp| {
                let item = s.items.get(sp.key.checked_sub(1)? as usize)?;
                let steps = item.steps_for(item.budget(true, z.trace_steps));
                (steps > 0).then(|| sp.dur_us() / steps as f64)
            })
            .collect();
        m.insert("sim.step_us_instr.p50", median(&per_step));
        m.insert(
            "sim.firings_per_step",
            s.firings as f64 / s.steps.max(1) as f64,
        );
        m.insert(
            "rec.bytes_per_step",
            s.rec_bytes as f64 / s.rec_records.max(1) as f64,
        );
        (spans, m)
    }

    fn trace_cycles(_ctx: &Ctx) -> u32 {
        3
    }
}

/// What etpnd does with an instrumented run: merge its coverage into the
/// design's database. The traced run also sizes the ring journal.
fn absorb(t: &Tracer, item: &mut Item, trace: Trace, bytes: &mut u64, records: &mut u64) {
    if let Some(db) = trace.cov {
        let _s = t.span("cov", "cov.merge");
        match &mut item.cov {
            Some(acc) => {
                let _ = acc.merge(&db);
            }
            None => item.cov = Some(db),
        }
    }
    if t.on() {
        if let Some(rec) = &trace.recording {
            let n = {
                let _s = t.span("rec", "rec.to_bytes");
                rec.to_bytes().len()
            };
            *bytes += n as u64;
            *records += rec.len() as u64;
        }
    }
}
