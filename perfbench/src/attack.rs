//! `attack-a36`: protocol + adversary → worst delay. Guided search on the
//! bit-sliced A(36,7) objective under the Figure-2 fault set.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use rand::rngs::SmallRng;
use rand::SeedableRng;
use sc_attack::{search, Delay, MoveSpace, Objective, Script, SearchConfig, SearchReport};
use sc_core::{Algorithm, CounterBuilder};
use sc_protocol::SyncProtocol as _;

use crate::{median, percentile, splitmix, Ctx, Run};

/// The Figure-2 fault set of A(36,7).
const FAULTS: [usize; 7] = [0, 1, 2, 3, 4, 12, 24];
const SCENARIOS: u64 = 64;
const HORIZON: u64 = 96;
/// Scripted rounds per candidate and the move vocabulary, as in the
/// repository's worst-case search table.
const SCRIPT_ROUNDS: usize = 4;
const SPACE: MoveSpace = MoveSpace {
    raw_values: 8,
    salts: 3,
    max_lag: 3,
};
/// Fixed search seeds: the workload seed picks the scenarios only.
const SEARCH_SEED: u64 = 0xa36;
/// Search calls per run; step `i` repeats call `i mod CALLS`, so each call
/// is timed many times. Only a call's first run compiles round programs,
/// so a run of any length stays below the 512 programs the sliced model
/// caches before it drops them all (past that clear, peak memory depends
/// on allocator timing and no longer repeats from run to run), and the
/// repeats measure warm sliced evals.
const CALLS: u64 = 4;
/// Sweep evaluations per `search::search` call (one loop step): a short
/// step, so that a run repeats each call many times.
const BUDGET: u64 = 8;
/// Nominal seconds of one warm search call on the reference host.
const STEP_S: f64 = 0.2;
/// Distinct scripts the traced run scores cold, then warm.
const PROBE_SCRIPTS: usize = 12;

pub fn a36() -> Algorithm {
    CounterBuilder::corollary1(1, 2)
        .and_then(|b| b.boost(3))
        .and_then(|b| b.boost(3))
        .and_then(|b| b.build())
        .expect("A(36,7) is a valid Figure-2 stack")
}

type A36Objective<'a> = Objective<'a, Algorithm, &'a Algorithm>;

/// `Objective::new` + `attach_sliced` over this run's 64 scenarios.
fn objective<'a>(ctx: &Ctx<'_>, algo: &'a Algorithm) -> A36Objective<'a> {
    let base = splitmix(ctx.seed) >> 20;
    let mut obj = Objective::new(algo, algo, FAULTS.to_vec(), base..base + SCENARIOS, HORIZON)
        .expect("horizon fits the confirmation suffix");
    let sliced = ctx.tracer.span("lower", || obj.attach_sliced());
    assert!(sliced, "A(36,7) must lower to the sliced engine");
    obj
}

fn config(call: u64, threads: usize) -> SearchConfig {
    let mut cfg = SearchConfig::new(SCRIPT_ROUNDS, SPACE, SEARCH_SEED + call);
    cfg.budget = BUDGET;
    cfg.threads = threads;
    cfg
}

pub fn run(ctx: &Ctx<'_>) -> Run {
    let mut run = Run::default();
    let algo = a36();
    // Each set-up builds the algorithm and the objective; the kept
    // objective borrows the first algorithm, which is identical.
    let mut build = || {
        black_box(a36());
        objective(ctx, &algo)
    };
    let mut obj = crate::setup(ctx, &mut run, &mut build);
    let threads = sc_exec::threads();
    // Each call's first report; a repeat must reproduce it.
    let mut firsts: BTreeMap<u64, SearchReport> = BTreeMap::new();
    let mut evals = 0u64;
    let mut first_call_s = 0.0;
    while run.next_step(ctx, STEP_S, &mut build) {
        let call = run.steps % CALLS;
        let cfg = config(call, threads);
        let start = Instant::now();
        let report = ctx.tracer.span("search", || search::search(&obj, &cfg));
        if run.steps == 0 {
            first_call_s = start.elapsed().as_secs_f64();
        }
        evals += report.evaluations;
        run.did(call, report.evaluations as f64);
        match firsts.get(&call) {
            None => {
                firsts.insert(call, report);
            }
            Some(first) => run.check(
                (&first.best, first.delay, first.evaluations)
                    == (&report.best, report.delay, report.evaluations),
                format!("repeat of search call {call} reproduces its first report"),
            ),
        }
    }
    let best = firsts
        .into_values()
        .map(|report| (report.best, report.delay))
        .reduce(|a, b| if b.1 > a.1 { b } else { a });
    run.unit = "attack.evals_per_s";

    // Oracle: the scalar full-horizon engine must score the best script
    // exactly as the sliced early-exit path did.
    let (script, delay) = best.expect("at least one search call");
    let oracle = ctx.tracer.span("check", || obj.evaluate_full(&script));
    run.check(
        oracle == delay,
        format!("best script: sliced {delay:?} vs scalar oracle {oracle:?}"),
    );
    run.note(format!(
        "best delay found: worst {} unstable {} total {} over {evals} evals \
         in {} calls ({CALLS} distinct)",
        delay.worst, delay.unstable, delay.total, run.steps
    ));

    if !ctx.tracer.enabled() {
        return run;
    }
    // Cold vs warm evals: distinct scripts on a fresh objective, scored
    // once (round programs compiled) and again (cache hits).
    let algo = a36();
    let mut fresh = objective(ctx, &algo);
    let mut rng = SmallRng::seed_from_u64(splitmix(ctx.seed ^ 0x0b1ec7));
    let scripts: Vec<Script> = (0..PROBE_SCRIPTS)
        .map(|_| {
            Script::random(
                algo.n(),
                FAULTS.to_vec(),
                SCRIPT_ROUNDS,
                0,
                &SPACE,
                &mut rng,
            )
        })
        .collect();
    let timed = |obj: &mut A36Objective<'_>| -> (Vec<f64>, Vec<Delay>) {
        scripts
            .iter()
            .map(|script| {
                let start = Instant::now();
                let delay = ctx
                    .tracer
                    .span("objective", || black_box(obj.evaluate(script)));
                (start.elapsed().as_secs_f64() * 1e3, delay)
            })
            .unzip()
    };
    let (cold, cold_delays) = timed(&mut fresh);
    let (warm, warm_delays) = timed(&mut fresh);
    run.check(
        cold_delays == warm_delays,
        "warm re-evaluation reproduces the cold delays".into(),
    );

    // Thread speed-up: the first search call again at cap 1, on a fresh
    // objective, against the same call at the default cap above.
    let serial_obj = objective(ctx, &algo);
    let serial_cfg = config(0, 1);
    let start = Instant::now();
    ctx.tracer.span("search", || {
        black_box(search::search(&serial_obj, &serial_cfg))
    });
    let serial_s = start.elapsed().as_secs_f64();

    let lower = ctx.tracer.durations_ms("lower");
    run.layer("lower.model_ms", median(&lower));
    run.layer("objective.cold_eval_ms.p50", median(&cold));
    run.layer("objective.cold_eval_ms.p99", percentile(&cold, 0.99));
    run.layer("objective.warm_eval_ms.p50", median(&warm));
    run.layer("objective.warm_eval_ms.p99", percentile(&warm, 0.99));
    run.layer("objective.cold_warm_ratio", median(&cold) / median(&warm));
    run.layer("search.evals", evals as f64);
    run.layer("search.ms_per_eval", run.loop_s * 1e3 / evals as f64);
    run.layer("search.thread_speedup", serial_s / first_call_s);
    run.note(format!(
        "objective: {PROBE_SCRIPTS} cold and {PROBE_SCRIPTS} warm evals; \
         thread speed-up of one {BUDGET}-eval search: cap {threads} vs cap 1"
    ));
    run
}
