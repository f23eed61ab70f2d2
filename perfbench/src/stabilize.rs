//! `stabilize-a36`: the E1/E3 stabilisation sweep of A(36,7) on the scalar
//! prepared engine with the early-decision exit, one batch per native
//! adversary regime.

use std::time::Instant;

use sc_core::{Algorithm, CounterState};
use sc_sim::{
    adversaries, random_periodic, sleeper, two_faced_periodic, Adversary, Batch, Scenario,
};

use crate::{median, splitmix, Ctx, Run};

const FAULTS: [usize; 7] = [0, 1, 2, 3, 4, 12, 24];
/// Scenarios per regime batch: small enough that a run times each batch
/// about thirty times.
const SCENARIOS: u64 = 8;
/// Rounds per scenario. Theorem 1's bound for A(36,7) is 4992 rounds, too
/// long to sweep every regime's batch several times in one run, so a
/// scenario still unstable at the horizon is a verdict, not a failure; the
/// full-horizon oracle below checks the verdicts.
const HORIZON: u64 = 512;
/// Nominal seconds of one step (one regime batch) on the reference host.
const STEP_S: f64 = 0.125;
/// Scenarios per regime re-run at full horizon as the early-exit oracle.
const ORACLE_SCENARIOS: usize = 4;

/// Native regimes that snapshot (so the early exit applies), with the
/// per-layer metric of each.
const REGIMES: [(&str, &str); 5] = [
    ("crash", "sim.regime_ms.crash"),
    ("replay", "sim.regime_ms.replay"),
    ("sleeper", "sim.regime_ms.sleeper"),
    ("two_faced_periodic", "sim.regime_ms.two_faced_periodic"),
    ("random_periodic", "sim.regime_ms.random_periodic"),
];

fn adversary<'a>(
    regime: &str,
    algo: &'a Algorithm,
    seed: u64,
) -> Box<dyn Adversary<CounterState> + 'a> {
    let faulty = FAULTS.iter().copied();
    match regime {
        "crash" => Box::new(adversaries::crash(algo, faulty, seed)),
        "replay" => Box::new(adversaries::replay(faulty, 3)),
        "sleeper" => Box::new(sleeper(
            algo,
            faulty,
            64,
            adversaries::crash(algo, FAULTS, seed),
            seed,
        )),
        "two_faced_periodic" => Box::new(two_faced_periodic(faulty, seed, 8)),
        "random_periodic" => Box::new(random_periodic(algo, faulty, seed, 8)),
        _ => unreachable!("regimes are the fixed list above"),
    }
}

/// The scenarios of regime `r`.
fn scenarios(seed: u64, r: u64) -> Vec<Scenario<CounterState>> {
    let base = splitmix(seed ^ r) >> 20;
    Scenario::seeds(base..base + SCENARIOS)
}

pub fn run(ctx: &Ctx<'_>) -> Run {
    let mut run = Run::default();
    let mut build = crate::attack::a36;
    let algo = crate::setup(ctx, &mut run, &mut build);
    let batch = Batch::new(&algo, HORIZON);

    // Step `i` sweeps regime `i mod 5` over that regime's scenarios, so
    // each regime's batch is timed many times; the nominal step count
    // of a run is a multiple of 5, so every run has the same mix.
    let mut regime_ms: Vec<Vec<f64>> = vec![Vec::new(); REGIMES.len()];
    let (mut fabricated, mut early_exits, mut saved, mut unstable) = (0u64, 0u64, 0u64, 0u64);
    let mut sample = Vec::new();
    while run.next_step(ctx, STEP_S, &mut build) {
        let r = run.steps as usize % REGIMES.len();
        let scenarios = scenarios(ctx.seed, r as u64);
        let t = Instant::now();
        let report = ctx.tracer.span("sim", || {
            batch.run_prepared_early(&scenarios, |s: &Scenario<CounterState>| {
                adversary(REGIMES[r].0, &algo, s.seed)
            })
        });
        regime_ms[r].push(t.elapsed().as_secs_f64() * 1e3);
        run.did(r as u64, (SCENARIOS * HORIZON) as f64);
        fabricated += report.fabricated_states();
        early_exits += report.early_exits() as u64;
        saved += report.rounds_saved(HORIZON);
        unstable += report.outcomes.iter().filter(|o| o.result.is_err()).count() as u64;
        if run.steps < REGIMES.len() as u64 {
            sample.push((scenarios, report));
        }
    }
    let swept = run.steps * SCENARIOS;
    run.unit = "sim.scenario_rounds_per_s";

    // Oracle: full-horizon verdicts for a sample of each regime's first
    // batch.
    for (r, (scenarios, report)) in sample.iter().enumerate() {
        let picked = &scenarios[..ORACLE_SCENARIOS];
        let full = ctx.tracer.span("check", || {
            batch.run_prepared(picked, |s: &Scenario<CounterState>| {
                adversary(REGIMES[r].0, &algo, s.seed)
            })
        });
        for (early, full) in report.outcomes.iter().zip(&full.outcomes) {
            run.check(
                early.result == full.result,
                format!(
                    "{}: early verdict of seed {} vs full horizon",
                    REGIMES[r].0, early.seed
                ),
            );
        }
    }
    run.note(format!(
        "{swept} scenarios x {HORIZON} rounds; {unstable} not stabilised at the horizon, \
         {early_exits} early exits; {ORACLE_SCENARIOS} scenarios per regime checked"
    ));

    if ctx.tracer.enabled() {
        for ((_, metric), ms) in REGIMES.iter().zip(&regime_ms) {
            run.layer(metric, median(ms));
        }
        run.layer("sim.fabricated_states", fabricated as f64);
        run.layer("sim.early_exits", early_exits as f64);
        run.layer(
            "sim.rounds_saved_ratio",
            saved as f64 / (swept * HORIZON) as f64,
        );
    }
    run
}
