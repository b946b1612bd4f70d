//! `synth-explore`: the Sec. 5 transformational synthesis loop
//! (`etpn_synth::synthesize`) on every catalogue design under each of the
//! three objectives — the E5 grid — on one thread. An operation and the
//! work unit are both one synthesis.
//!
//! The timed pass leaves out the `LONG` designs; the traced run and its
//! untraced twin synthesize the whole grid.
//!
//! The traced run replaces `synthesize` by the same pipeline called stage
//! by stage, so each stage gets its own span, and checks that it emits the
//! same netlist.

use crate::trace::{key_scope, Span, Tracer};
use crate::{durations, mean, Budget, Ctx, KindTime, Layers, Pass, Rng, Tally, Workload};
use etpn_analysis::check_properly_designed;
use etpn_core::Etpn;
use etpn_sim::{Backend, Simulator};
use etpn_synth::{
    binding_report, cost_report, netlist, synthesize, CostReport, ModuleLibrary, Objective,
    Optimizer,
};
use etpn_transform::Rewriter;
use std::collections::HashMap;
use std::time::Instant;

pub struct SynthExplore;

/// Designs whose synthesis takes about a second a grid point, 85 % of
/// the whole grid. A timed pass of 40 s gets only four samples of each,
/// and no statistic of four one-second samples escapes the host's slow
/// stretches, which last minutes (see `KindTime`): their throughput moved
/// by a third between runs of the same code. The timed pass runs the rest
/// of the grid, whose grid points take 0.4–100 ms and get a hundred
/// samples or more.
const LONG: [&str; 3] = ["fir16", "ewf", "ar_lattice"];

const OBJECTIVES: [(&str, Objective); 3] = [
    ("min-delay", Objective::MinDelay { max_area: None }),
    ("min-area", Objective::MinArea { max_latency: None }),
    ("balanced", Objective::Balanced),
];

struct Design {
    w: etpn_workloads::Workload,
    expected: HashMap<String, Vec<i64>>,
    /// One of `LONG`: left out of timed passes.
    long: bool,
}

/// What one synthesis produced, as far as the checks need it.
struct Outcome {
    optimized: Etpn,
    reg_inits: Vec<(String, i64)>,
    final_cost: CostReport,
    netlist: String,
    evaluations: usize,
    accepted: usize,
    /// The rewrite session of a staged run, for the log replay.
    session: Option<Rewriter>,
}

pub struct State {
    designs: Vec<Design>,
    /// (design, objective) pairs in seeded order.
    grid: Vec<(usize, usize)>,
    lib: ModuleLibrary,
    /// Final cost and netlist of each grid point, from its first run.
    reference: HashMap<(usize, usize), (CostReport, String)>,
    /// Outcomes of the traced pass, for the exact counts.
    traced: Vec<((usize, usize), Outcome)>,
}

/// The `synthesize` pipeline stage by stage, each stage in its own span.
fn staged(
    src: &str,
    objective: Objective,
    lib: &ModuleLibrary,
    t: &Tracer,
) -> Result<Outcome, String> {
    let prog = {
        let _s = t.span("lang", "lang.parse");
        etpn_lang::parse_and_check(src).map_err(|e| e.to_string())?
    };
    let compiled = {
        let _s = t.span("synth", "synth.compile");
        etpn_synth::compile(&prog).map_err(|e| e.to_string())?
    };
    {
        let _s = t.span("analysis", "analysis.proper");
        let r = check_properly_designed(&compiled.etpn);
        if !r.is_proper() {
            return Err(r.summary());
        }
    }
    let mut pre = compiled.etpn.clone();
    {
        let _s = t.span("synth", "synth.cleanup");
        etpn_synth::share_constants(&mut pre).map_err(|e| e.to_string())?;
    }
    {
        let _s = t.span("synth", "synth.cost");
        std::hint::black_box(cost_report(&pre, lib));
    }
    let mut rw = Rewriter::new(pre);
    let report = {
        let _s = t.span("synth", "synth.optimize");
        Optimizer::new(lib.clone(), objective).optimize(&mut rw)
    };
    let optimized = rw.design().clone();
    {
        let _s = t.span("analysis", "analysis.proper");
        let r = check_properly_designed(&optimized);
        if !r.is_proper() {
            return Err(r.summary());
        }
    }
    let (final_cost, text) = {
        let _s = t.span("synth", "synth.emit");
        let cost = cost_report(&optimized, lib);
        std::hint::black_box(binding_report(&optimized, lib));
        (cost, netlist(&optimized, lib, &compiled.name))
    };
    Ok(Outcome {
        optimized,
        reg_inits: compiled.reg_inits,
        final_cost,
        netlist: text,
        evaluations: report.evaluations,
        accepted: report.steps.len(),
        session: Some(rw),
    })
}

/// Replay a session's transformation log through a fresh rewriter: the
/// provenance witness must rebuild the optimized design exactly.
fn replay(rw: &Rewriter, t: &Tracer) -> Result<(), String> {
    let mut again = Rewriter::new(rw.origin().clone());
    for tr in rw.log() {
        let _s = t.span("transform", "transform.apply");
        again.apply(tr.clone()).map_err(|e| e.to_string())?;
    }
    if again.design().fingerprint() != rw.design().fingerprint() {
        return Err("transform log replay does not rebuild the optimized design".into());
    }
    Ok(())
}

fn whole(src: &str, objective: Objective, lib: &ModuleLibrary) -> Result<Outcome, String> {
    let r = synthesize(src, objective, lib).map_err(|e| e.to_string())?;
    Ok(Outcome {
        optimized: r.optimized,
        reg_inits: r.compiled.reg_inits,
        final_cost: r.final_cost,
        netlist: r.netlist,
        evaluations: r.optimizer.evaluations,
        accepted: r.optimizer.steps.len(),
        session: None,
    })
}

/// The first result of a grid point must be properly designed and
/// simulate to the reference outputs; later ones must repeat it exactly.
fn check(s: &mut State, at: (usize, usize), o: &Outcome) -> Result<(), String> {
    if let Some((cost, text)) = s.reference.get(&at) {
        return if *cost == o.final_cost && *text == o.netlist {
            Ok(())
        } else {
            Err("synthesis result changed between runs".into())
        };
    }
    let d = &s.designs[at.0];
    if !check_properly_designed(&o.optimized).is_proper() {
        return Err(format!(
            "{}: optimized design is not properly designed",
            d.w.name
        ));
    }
    let mut sim = Simulator::new(&o.optimized, d.w.env()).with_backend(Backend::Compiled);
    for (n, v) in &o.reg_inits {
        sim = sim.init_register(n, *v);
    }
    let trace = sim.run(d.w.max_steps).map_err(|e| e.to_string())?;
    for (name, want) in &d.expected {
        let got = trace.values_on_named_output(&o.optimized, name);
        if &got != want {
            return Err(format!(
                "{} output {name}: got {got:?}, expected {want:?}",
                d.w.name
            ));
        }
    }
    s.reference.insert(at, (o.final_cost, o.netlist.clone()));
    Ok(())
}

impl Workload for SynthExplore {
    type State = State;

    fn setup(ctx: &Ctx, t: &Tracer) -> State {
        let names: Vec<&str> = if ctx.tiny {
            vec!["gcd", "diffeq"]
        } else {
            etpn_workloads::catalog().iter().map(|w| w.name).collect()
        };
        let designs: Vec<Design> = names
            .iter()
            .map(|name| {
                let w = etpn_workloads::by_name(name).expect("catalogue design");
                let mut expected = {
                    let _s = t.span("client", "workloads.expected");
                    w.expected()
                };
                if ctx.corrupt {
                    crate::corrupt(&mut expected);
                }
                let long = LONG.contains(name);
                Design { w, expected, long }
            })
            .collect();
        let mut grid: Vec<(usize, usize)> = (0..designs.len())
            .flat_map(|d| (0..OBJECTIVES.len()).map(move |o| (d, o)))
            .collect();
        Rng(ctx.seed ^ 0xD1B5_4A32_D192_ED03).shuffle(&mut grid);
        State {
            designs,
            grid,
            lib: ModuleLibrary::standard(),
            reference: HashMap::new(),
            traced: Vec::new(),
        }
    }

    fn gate(_ctx: &Ctx, s: &mut State, tally: &mut Tally) {
        // The stage-by-stage pipeline must emit what `synthesize` emits;
        // the traced run checks this on every grid point, here on gcd.
        let off = Tracer::new(false);
        let gcd = etpn_workloads::by_name("gcd").expect("catalogue design");
        for (label, objective) in OBJECTIVES {
            let res = match (
                whole(&gcd.source, objective, &s.lib),
                staged(&gcd.source, objective, &s.lib, &off),
            ) {
                (Ok(a), Ok(b)) if a.netlist == b.netlist && a.final_cost == b.final_cost => Ok(()),
                (Ok(_), Ok(_)) => Err(format!(
                    "gcd {label}: staged pipeline emits another netlist"
                )),
                (a, b) => Err(format!("gcd {label}: {:?} / {:?}", a.err(), b.err())),
            };
            tally.check("staged pipeline == synthesize", res);
        }
    }

    fn pass(_ctx: &Ctx, s: &mut State, t: &Tracer, b: Budget, tally: &mut Tally) -> Pass {
        let mut p = Pass::new(KindTime::Fastest, 1.0);
        let timed = matches!(b, Budget::Seconds(_));
        let started = Instant::now();
        let mut cycles = 0;
        while b.more(cycles, started, 3) {
            for (k, at) in s.grid.clone().into_iter().enumerate() {
                if timed && s.designs[at.0].long {
                    continue;
                }
                let _key = key_scope(k as u64 + 1);
                let (label, objective) = OBJECTIVES[at.1];
                let src = &s.designs[at.0].w.source;
                let t0 = Instant::now();
                let res = if t.on() {
                    let _s = t.span_with("client", "synthesize", label, 0);
                    staged(src, objective, &s.lib, t)
                } else {
                    whole(src, objective, &s.lib)
                };
                p.op(k as u64, 1.0, t0.elapsed().as_secs_f64());
                let ok = res.and_then(|o| {
                    let ok = check(s, at, &o)
                        .and_then(|()| o.session.as_ref().map_or(Ok(()), |rw| replay(rw, t)));
                    if t.on() {
                        s.traced.push((at, o));
                    }
                    ok
                });
                tally.check("synthesis", ok);
            }
            cycles += 1;
        }
        p
    }

    fn layers(_ctx: &Ctx, s: &mut State, t: &Tracer, tally: &mut Tally) -> (Vec<Span>, Layers) {
        for (at, o) in &s.traced {
            let (_, objective) = OBJECTIVES[at.1];
            let res = whole(&s.designs[at.0].w.source, objective, &s.lib).and_then(|w| {
                (w.netlist == o.netlist && w.final_cost == o.final_cost)
                    .then_some(())
                    .ok_or_else(|| {
                        "staged pipeline emits another netlist than synthesize".to_string()
                    })
            });
            tally.check("staged pipeline == synthesize", res);
        }
        let spans = t.take();
        let avg = |name: &str| mean(&durations(&spans, name, None));
        let evals: usize = s.traced.iter().map(|(_, o)| o.evaluations).sum();
        let accepted: usize = s.traced.iter().map(|(_, o)| o.accepted).sum();
        let optimize_us: f64 = durations(&spans, "synth.optimize", None).iter().sum();
        let mut m = Layers::new();
        m.insert("lang.parse_us", avg("lang.parse"));
        m.insert("synth.compile_us", avg("synth.compile"));
        m.insert("analysis.proper_us", avg("analysis.proper"));
        m.insert("synth.optimize_ms", avg("synth.optimize") / 1e3);
        m.insert("synth.evals", evals as f64);
        m.insert("synth.us_per_eval", optimize_us / evals.max(1) as f64);
        m.insert("synth.accept_ratio", accepted as f64 / evals.max(1) as f64);
        m.insert("transform.apply_us", avg("transform.apply"));
        m.insert("synth.emit_us", avg("synth.emit"));
        m.insert(
            "synth.area_total",
            s.traced
                .iter()
                .map(|(_, o)| o.final_cost.total_area as f64)
                .sum(),
        );
        m.insert(
            "synth.latency_total",
            s.traced
                .iter()
                .map(|(_, o)| o.final_cost.latency_bound as f64)
                .sum(),
        );
        (spans, m)
    }

    fn trace_cycles(_ctx: &Ctx) -> u32 {
        1
    }
}
