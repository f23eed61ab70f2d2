//! `synth-sweep`: table → verdict. The attack pre-filter and the quotient
//! verifier over seeded windows of the `n=5, f=1, c=2, |X|=3` symmetric family.

use std::collections::BTreeMap;
use std::time::Instant;

use sc_attack::{AttackPreFilter, Objective};
use sc_core::Algorithm;
use sc_verifier::{sweep_family, Analyzer, CandidateFilter, SweepCheckpoint, SymmetricFamily};

use crate::spans::Tracer;
use crate::{median, percentile, splitmix, Ctx, Run};

/// Candidates per `sweep_family` call (one loop step): a short step, so
/// that a run sweeps each window many times.
const CHUNK: u64 = 2;
/// Seeded windows per run; step `i` sweeps window `i mod WINDOWS`, so each
/// window is timed many times.
const WINDOWS: u64 = 8;
/// Nominal seconds of one chunk on the reference host.
const STEP_S: f64 = 0.0625;
/// Pre-filter shape, as in the repository's n=5 campaign: scenarios,
/// scripted rounds, evaluation budget per candidate.
const FILTER: (usize, usize, u64) = (4, 3, 48);
/// Fixed pre-filter search seed: the workload seed picks the windows only.
/// The search seed sets how fast every candidate is broken, so a seeded
/// one would make some runs uniformly cheaper than others.
const FILTER_SEED: u64 = 9;
/// Candidates re-verified and re-lowered by the traced run.
const PROBES: usize = 8;

fn family() -> SymmetricFamily {
    SymmetricFamily::new(5, 1, 2, 3).expect("the n=5 |X|=3 family is well-formed")
}

/// The pre-filter with every `reject` call timed as a `prefilter` span.
/// Forks carry the submitting span, so spans recorded on pool workers
/// still hang off the sweep that caused them.
struct TimedFilter<'t> {
    inner: AttackPreFilter,
    tracer: &'t Tracer,
    parent: Option<u64>,
}

impl CandidateFilter for TimedFilter<'_> {
    fn reject(&mut self, lut: &sc_core::LutCounter) -> bool {
        let inner = &mut self.inner;
        self.tracer
            .span_under(self.parent, "prefilter", || inner.reject(lut))
    }

    fn fork(&self) -> Option<Self> {
        Some(TimedFilter {
            inner: self.inner.fork()?,
            tracer: self.tracer,
            parent: self.parent,
        })
    }

    fn absorb(&mut self, fork: Self) {
        self.inner.absorb(fork.inner);
    }
}

struct Sweep<'t> {
    family: SymmetricFamily,
    filter: TimedFilter<'t>,
    analyzer: Analyzer,
    checkpoint: SweepCheckpoint,
}

/// First candidate of window `w` of `CHUNK` candidates: an index whose
/// low eight base-3 digits are zero, so every window starts at the same
/// class pattern. The windows are spread over the family by the seed, so a
/// run samples the family in several places instead of one.
fn window(family: &SymmetricFamily, seed: u64, w: u64) -> u64 {
    let align = 3u64.pow(8);
    let total = family.len().expect("the family size fits in u64");
    (splitmix(seed ^ w.wrapping_mul(0x9E37_79B9)) % (total / align)) * align
}

fn setup<'t>(ctx: &Ctx<'t>) -> Sweep<'t> {
    let family = family();
    let start = window(&family, ctx.seed, 0);
    let mut analyzer = Analyzer::new();
    analyzer.dedup_fault_sets(true);
    let (scenarios, rounds, budget) = FILTER;
    Sweep {
        family,
        filter: TimedFilter {
            inner: AttackPreFilter::new(scenarios, rounds, budget, FILTER_SEED),
            tracer: ctx.tracer,
            parent: None,
        },
        analyzer,
        checkpoint: SweepCheckpoint {
            position: start,
            ..SweepCheckpoint::new()
        },
    }
}

pub fn run(ctx: &Ctx<'_>) -> Run {
    let mut run = Run::default();
    let mut build = || setup(ctx);
    let mut sweep = crate::setup(ctx, &mut run, &mut build);
    let first = sweep.checkpoint.clone();

    let mut after_first = None;
    // Ledger counts each window's first sweep added; a repeat must add the
    // same (the pre-filter's search is seeded per candidate).
    let mut added: BTreeMap<u64, [u64; 3]> = BTreeMap::new();
    let mut processed = 0u64;
    while run.next_step(ctx, STEP_S, &mut build) {
        let input = run.steps % WINDOWS;
        sweep.checkpoint.position = window(&sweep.family, ctx.seed, input);
        let before = sweep.checkpoint.ledger;
        let result = ctx.tracer.span("sweep", || {
            sweep.filter.parent = ctx.tracer.current();
            sweep_family(
                &sweep.family,
                &mut sweep.filter,
                &mut sweep.analyzer,
                &mut sweep.checkpoint,
                CHUNK,
            )
        });
        let swept = result.as_ref().map_or(0, |outcome| outcome.processed);
        run.check(
            result.is_ok(),
            format!("sweep of window {input}: {result:?}"),
        );
        processed += swept;
        run.did(input, swept as f64);
        let after = sweep.checkpoint.ledger;
        let counts = [
            after.filtered - before.filtered,
            after.survivors - before.survivors,
            after.found - before.found,
        ];
        if let Some(first) = added.insert(input, counts) {
            run.check(
                first == counts,
                format!("window {input}: repeat adds {counts:?}, first sweep {first:?}"),
            );
        }
        if run.steps == 0 {
            after_first = Some(sweep.checkpoint.clone());
        }
    }
    let reject_ms = ctx.tracer.durations_ms("prefilter");
    run.unit = "sweep.candidates_per_s";

    let ledger = sweep.checkpoint.ledger;
    run.check(
        ledger.screened == processed
            && ledger.screened == ledger.filtered + ledger.survivors
            && ledger.verified == ledger.survivors,
        format!("ledger invariants: {ledger:?} after {processed} candidates"),
    );
    // Thread-count invariance: the first chunk again at cap 1.
    let mut serial = setup(ctx);
    serial.checkpoint = first.clone();
    ctx.tracer
        .span("check", || {
            sc_verifier::sweep_family_on(
                sc_exec::pool(),
                1,
                &serial.family,
                &mut serial.filter,
                &mut serial.analyzer,
                &mut serial.checkpoint,
                CHUNK,
            )
        })
        .expect("the serial re-sweep of a swept chunk cannot fail");
    run.check(
        Some(&serial.checkpoint) == after_first.as_ref(),
        "the first chunk's checkpoint at cap 1 equals the default cap's".into(),
    );
    run.note(format!(
        "{} sweeps of {WINDOWS} windows of {CHUNK}, the first from candidate {}: \
         {} screened, {} filtered, {} survivors, {} found; {} attack evals",
        run.steps,
        first.position,
        ledger.screened,
        ledger.filtered,
        ledger.survivors,
        ledger.found,
        sweep.filter.inner.evaluations()
    ));

    if !ctx.tracer.enabled() {
        return run;
    }
    // The verifier on the survivors, then the first window: a
    // rejected candidate must fail exhaustive verification (the filter is
    // reject-only) and a survivor must get the verdict the sweep recorded.
    let mut analyzer = Analyzer::new();
    analyzer.dedup_fault_sets(true);
    let mut lut = sweep.family.seed().expect("family seed");
    let mut analyze_ms = Vec::new();
    let mut survivors = sweep.checkpoint.survivors.clone();
    survivors.sort_unstable();
    survivors.dedup();
    let first_window = first.position..first.position + CHUNK;
    let rejected = first_window.clone().filter(|i| !survivors.contains(i));
    for index in survivors.iter().copied().chain(rejected).take(PROBES) {
        sweep.family.instantiate(index, &mut lut);
        let t = Instant::now();
        let summary = ctx.tracer.span("verifier", || analyzer.analyze(&lut));
        analyze_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let expect_correct = sweep.checkpoint.found.iter().any(|&(i, _)| i == index);
        run.check(
            summary.is_ok_and(|s| s.failure.is_none() == expect_correct),
            format!("exhaustive verdict of candidate {index}"),
        );
    }
    for index in first_window.take(PROBES) {
        sweep.family.instantiate(index, &mut lut);
        let algo = Algorithm::lut(lut.spec().clone()).expect("family tables are valid");
        let horizon = 3u64.pow(5) + sc_sim::required_confirmation(2);
        let mut obj = Objective::new(&algo, &algo, vec![0], 0..FILTER.0 as u64, horizon)
            .expect("horizon fits the confirmation suffix");
        ctx.tracer.span("lower", || obj.attach_sliced());
    }

    let threads = sc_exec::threads() as f64;
    let filter = &sweep.filter.inner;
    run.layer("lower.model_ms", median(&ctx.tracer.durations_ms("lower")));
    run.layer("prefilter.reject_ms.p50", median(&reject_ms));
    run.layer("prefilter.reject_ms.p99", percentile(&reject_ms, 0.99));
    run.layer("prefilter.evals", filter.evaluations() as f64);
    run.layer(
        "prefilter.reject_ratio",
        filter.rejected() as f64 / filter.screened() as f64,
    );
    run.layer(
        "prefilter.share",
        reject_ms.iter().sum::<f64>() / 1e3 / (run.loop_s * threads),
    );
    run.layer("verifier.analyze_ms.p50", median(&analyze_ms));
    run.layer("verifier.survivors", survivors.len() as f64);
    run.note(format!(
        "prefilter.share is pre-filter busy time over sweep wall × {threads} threads; \
         {} prefilter spans, {} re-analysed survivors",
        reject_ms.len(),
        analyze_ms.len()
    ));
    run
}
