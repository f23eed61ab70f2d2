//! `runtime-det`: `FaultPlan` → recovery. The live runtime's node, mailbox
//! and monitor code driven by the deterministic harness on A(12,3), under
//! over-budget bursts of every bounded fault kind: several plans, each
//! with one burst on one block of `F + 1` nodes. Each harness run is
//! single-threaded; a step runs every plan, one harness run per core at a
//! time, as a user checking many plans would.

use std::time::Instant;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sc_attack::{MoveSpace, Script};
use sc_core::{Algorithm, CounterBuilder};
use sc_protocol::Counter as _;
use sc_runtime::{
    run_deterministic, FaultEntry, FaultKind, FaultPlan, MonitorCore, RunReport, RuntimeConfig,
};

use crate::{median, splitmix, Ctx, Run};

const N: usize = 12;
const F: usize = 3;
/// Plans per step; plan `k` bursts block `k mod 3` of `F + 1` nodes, so
/// every block is hit and the plans split evenly over two cores.
const PLANS: u64 = 4;
const BURST_LEN: u64 = 12;
/// Rounds before the burst, and the most its start is jittered.
const LEAD: u64 = 400;
const JITTER: u64 = 200;
const PERIOD_NS: u64 = 1_000_000;
/// Nominal seconds of one step on the reference host.
const STEP_S: f64 = 0.3;
/// Honest steps timed by the traced pass for `runtime.fault_cost`.
const HONEST_STEPS: usize = 3;

fn a12() -> Algorithm {
    CounterBuilder::corollary1(1, 2)
        .and_then(|b| b.boost(3))
        .and_then(|b| b.build())
        .expect("A(12,3) is a valid stack")
}

/// Plan `k`'s burst wraps the four nodes of block `k mod 3` as mute, delayed,
/// equivocating and scripted for `BURST_LEN` rounds, from a seed-jittered
/// start: one more fault than A(12,3) tolerates. The horizon leaves at
/// least the stabilisation bound plus the monitor's confirmation window
/// after the burst's end: the burst must be recovered from before it.
fn config(algo: &Algorithm, seed: u64, k: u64) -> RuntimeConfig {
    let mut rng = SmallRng::seed_from_u64(splitmix(seed ^ k.wrapping_mul(0x9E37_79B9)));
    let from_round = LEAD + rng.random_range(0..JITTER);
    let block = 4 * (k % 3);
    let nodes = [block, block + 1, block + 2, block + 3].map(|v| v as usize);
    let script = Script::random(N, vec![nodes[3]], 4, 0, &MoveSpace::echoes(2), &mut rng);
    let kinds = [
        FaultKind::Mute,
        FaultKind::Delayed {
            jitter_permille: 1500,
        },
        FaultKind::Equivocate,
        FaultKind::Scripted(script),
    ];
    let entries = nodes
        .into_iter()
        .zip(kinds)
        .map(|(node, kind)| FaultEntry {
            node,
            from_round,
            until_round: Some(from_round + BURST_LEN),
            kind,
        })
        .collect();
    RuntimeConfig {
        period_ns: PERIOD_NS,
        horizon: LEAD + JITTER + BURST_LEN + recovery_bound(algo),
        seed: splitmix(seed ^ k ^ 0x12),
        confirm: None,
        // The derived quorum is n minus the wrapped nodes, one node short
        // of `n − f`; outside the burst at most F misbehave.
        quorum: Some(N - F),
        plan: FaultPlan::new(N, entries).expect("burst plan is well-formed"),
    }
}

/// Once a burst ends no node misbehaves, so Theorem 1's bound applies from
/// the burst end; the monitor then needs its confirmation window.
fn recovery_bound(algo: &Algorithm) -> u64 {
    algo.stabilization_bound() + MonitorCore::default_confirm(algo.modulus())
}

/// Rounds from the burst's end to the monitor's last return to stability
/// (0 if it never lost stability), or `None` if the monitor is still
/// unstable at the horizon.
fn burst_recovery(report: &RunReport, config: &RuntimeConfig) -> Option<u64> {
    let end = config
        .plan
        .entries()
        .iter()
        .filter_map(|e| e.until_round)
        .max()
        .expect("the plan has a bounded burst");
    let stable_at_horizon = report
        .events
        .iter()
        .rfind(|e| e.round < config.horizon)
        .is_some_and(|e| e.stable);
    stable_at_horizon.then(|| {
        report
            .events
            .iter()
            .rfind(|e| e.stable && e.round >= end)
            .map_or(0, |e| e.round - end)
    })
}

/// Runs every plan once, `threads` harness runs at a time (plan `k` on
/// worker `k mod threads`), and returns the reports in plan order.
fn run_plans(algo: &Algorithm, configs: &[RuntimeConfig], threads: usize) -> Vec<RunReport> {
    let share = |t: usize| -> Vec<RunReport> {
        configs
            .iter()
            .skip(t)
            .step_by(threads)
            .map(|config| run_deterministic(algo, config).expect("the plan is valid for A(12,3)"))
            .collect()
    };
    let shares: Vec<Vec<RunReport>> = std::thread::scope(|scope| {
        let workers: Vec<_> = (1..threads)
            .map(|t| scope.spawn(move || share(t)))
            .collect();
        let mut shares = vec![share(0)];
        shares.extend(workers.into_iter().map(|w| w.join().expect("harness run")));
        shares
    });
    let mut shares: Vec<_> = shares.into_iter().map(Vec::into_iter).collect();
    (0..configs.len())
        .map(|k| shares[k % threads].next().expect("one report per plan"))
        .collect()
}

pub fn run(ctx: &Ctx<'_>) -> Run {
    let mut run = Run::default();
    let mut build = || {
        let algo = a12();
        let configs: Vec<RuntimeConfig> = (0..PLANS).map(|k| config(&algo, ctx.seed, k)).collect();
        (algo, configs)
    };
    let (algo, configs) = crate::setup(ctx, &mut run, &mut build);
    let threads = sc_exec::threads().min(configs.len());
    let rounds: u64 = configs.iter().map(|c| c.horizon).sum();

    // The first step's reports; every later step must reproduce them.
    let mut first: Option<Vec<RunReport>> = None;
    let mut step_ms = Vec::new();
    let mut check = |run: &mut Run, reports: Vec<RunReport>| match &first {
        None => first = Some(reports),
        Some(first) => {
            for (k, (a, b)) in first.iter().zip(&reports).enumerate() {
                run.check(
                    a.digest == b.digest,
                    format!("plan {k}: a repeat run reproduces the first run's digest"),
                );
            }
        }
    };
    while run.next_step(ctx, STEP_S, &mut build) {
        let t = Instant::now();
        let reports = ctx
            .tracer
            .span("runtime", || run_plans(&algo, &configs, threads));
        step_ms.push(t.elapsed().as_secs_f64() * 1e3);
        run.did(0, rounds as f64);
        check(&mut run, reports);
    }
    if run.steps == 1 {
        // Reproducibility needs a second run even when the loop took one.
        let again = ctx
            .tracer
            .span("check", || run_plans(&algo, &configs, threads));
        check(&mut run, again);
    }
    run.unit = "runtime.rounds_per_s";
    let reports = first.expect("at least one step");

    let bound = recovery_bound(&algo);
    let mut recovery_max = 0;
    for (k, (report, config)) in reports.iter().zip(&configs).enumerate() {
        let recovery = burst_recovery(report, config);
        run.check(
            recovery.is_some_and(|r| r <= bound),
            format!("plan {k}: recovery {recovery:?} rounds within the bound {bound}"),
        );
        recovery_max = recovery_max.max(recovery.unwrap_or(0));
    }
    run.note(format!(
        "{} steps of {PLANS} plans of {} rounds on {threads} threads, digests {}; \
         runtime.recovery_rounds_max = {recovery_max} rounds (bound {bound})",
        run.steps,
        configs[0].horizon,
        reports
            .iter()
            .map(|r| format!("{:#018x}", r.digest))
            .collect::<Vec<_>>()
            .join(" ")
    ));

    if ctx.tracer.enabled() {
        let honest: Vec<RuntimeConfig> = configs
            .iter()
            .map(|c| RuntimeConfig::honest(N, PERIOD_NS, c.horizon, c.seed))
            .collect();
        let honest_ms: Vec<f64> = (0..HONEST_STEPS)
            .map(|_| {
                let t = Instant::now();
                ctx.tracer
                    .span("runtime", || run_plans(&algo, &honest, threads));
                t.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        let missed: u64 = reports.iter().map(|r| r.missed.iter().sum::<u64>()).sum();
        let recoveries: usize = reports.iter().map(|r| r.recoveries.len()).sum();
        run.layer("runtime.missed_messages", missed as f64);
        run.layer("runtime.recoveries", recoveries as f64);
        run.layer(
            "runtime.first_stable_round",
            reports[0].first_stable_round.map_or(0.0, |r| r as f64),
        );
        run.layer("runtime.recovery_rounds_max", recovery_max as f64);
        run.layer("runtime.fault_cost", median(&step_ms) / median(&honest_ms));
    }
    run
}
