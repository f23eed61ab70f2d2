//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload builds its inputs from `--seed`, times its set-up
//! (`setup_s`; see [`setup()`]), then runs a loop of about
//! `--seconds` of work (see [`Limit`]) and checks the outputs against an
//! oracle. The last stdout line is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics`. With `--trace 0` the metrics are
//! the end-to-end ones; with `--trace 1` the untraced pass is followed by
//! the same number of loop steps under the span recorder, and the metrics
//! are the per-layer ones, derived from the spans. The span list and a run
//! record with provenance are written to `perfbench/out/`.
//!
//! Every layer is timed from outside, around calls into the public
//! functions of its crate; nothing inside the `sc-*` crates is changed.

mod attack;
mod runtime;
mod spans;
mod stabilize;
mod synth;

use std::time::Instant;

use spans::Tracer;

/// Set-up timing. The host's speed flips between two levels every few
/// seconds, so set-up is sampled across the whole run, not in one burst:
/// [`setup()`] takes `SETUP_REPS` samples before the loop and
/// [`Run::next_step`] one more between steps. A sample is the mean of a
/// batch of builds that takes at least `SETUP_BATCH_S`, so that the
/// clock's own cost does not dominate a set-up of a few microseconds.
/// `setup_s` is the median sample.
const SETUP_REPS: usize = 5;
const SETUP_BATCH_S: f64 = 0.002;

/// Per-layer metrics (traced run), with units, as `BENCHMARK.json`
/// declares them. A workload that does not exercise a layer reports 0 for
/// it. The end-to-end metrics are `setup_s`, `peak_rss_mb` and
/// `throughput`, the workload's own rate (see [`Run::unit`]).
pub const PER_LAYER: [(&str, &str); 49] = [
    ("lower.model_ms", "ms"),
    ("objective.cold_eval_ms.p50", "ms"),
    ("objective.cold_eval_ms.p99", "ms"),
    ("objective.warm_eval_ms.p50", "ms"),
    ("objective.warm_eval_ms.p99", "ms"),
    ("objective.cold_warm_ratio", "ratio"),
    ("search.evals", "count"),
    ("search.ms_per_eval", "ms"),
    ("search.thread_speedup", "x"),
    ("prefilter.reject_ms.p50", "ms"),
    ("prefilter.reject_ms.p99", "ms"),
    ("prefilter.evals", "count"),
    ("prefilter.reject_ratio", "ratio"),
    ("prefilter.share", "ratio"),
    ("verifier.analyze_ms.p50", "ms"),
    ("verifier.survivors", "count"),
    ("sim.regime_ms.crash", "ms"),
    ("sim.regime_ms.replay", "ms"),
    ("sim.regime_ms.sleeper", "ms"),
    ("sim.regime_ms.two_faced_periodic", "ms"),
    ("sim.regime_ms.random_periodic", "ms"),
    ("sim.fabricated_states", "count"),
    ("sim.early_exits", "count"),
    ("sim.rounds_saved_ratio", "ratio"),
    ("exec.batches", "count"),
    ("exec.claimed", "count"),
    ("exec.busy_s", "s"),
    ("exec.idle_share", "ratio"),
    ("runtime.missed_messages", "count"),
    ("runtime.recoveries", "count"),
    ("runtime.first_stable_round", "rounds"),
    ("runtime.recovery_rounds_max", "rounds"),
    ("runtime.fault_cost", "ratio"),
    ("self_s.setup", "s"),
    ("self_s.lower", "s"),
    ("self_s.objective", "s"),
    ("self_s.search", "s"),
    ("self_s.sweep", "s"),
    ("self_s.prefilter", "s"),
    ("self_s.verifier", "s"),
    ("self_s.sim", "s"),
    ("self_s.runtime", "s"),
    ("self_s.check", "s"),
    ("self_s.unattributed", "s"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_share", "ratio"),
    ("trace.closure_error", "ratio"),
    ("trace.unattributed_share", "ratio"),
    ("trace.closure_ok", "bool"),
];

pub const WORKLOADS: [&str; 4] = ["attack-a36", "synth-sweep", "stabilize-a36", "runtime-det"];

/// How many steps a workload's loop takes.
#[derive(Clone, Copy, Debug)]
pub enum Limit {
    /// About this many seconds of work: a fixed number of steps, from the
    /// step's nominal duration, so a seed always does the same work and
    /// only its timing varies. A run stops early once it has taken twice
    /// the time, so a much slower build still finishes.
    Seconds(f64),
    /// Exactly this many steps: the traced pass repeats the untraced one.
    Steps(u64),
}

impl Limit {
    /// Whether to take another step after `steps` steps that took
    /// `loop_s` seconds, given one step's nominal seconds on the
    /// reference host.
    pub fn more(&self, steps: u64, loop_s: f64, step_s: f64) -> bool {
        match *self {
            Limit::Seconds(s) => {
                let target = ((s / step_s).round() as u64).max(1);
                steps < target && (steps == 0 || loop_s < 2.0 * s)
            }
            Limit::Steps(n) => steps < n,
        }
    }
}

#[derive(Clone, Copy)]
pub struct Ctx<'t> {
    pub seed: u64,
    pub limit: Limit,
    pub tracer: &'t Tracer,
}

/// One loop step: which of the workload's inputs it ran, its units of
/// work and its seconds. Steps that run the same input do the same work.
#[derive(Clone, Copy, Debug)]
pub struct Step {
    pub input: u64,
    pub work: f64,
    pub secs: f64,
}

/// What one pass of a workload measured and checked.
#[derive(Default)]
pub struct Run {
    pub setup_s: Vec<f64>,
    /// Loop steps taken (the traced pass repeats this many).
    pub steps: u64,
    /// Every step taken, in order.
    pub log: Vec<Step>,
    /// Seconds spent in loop steps (set-up samples between steps excluded).
    pub loop_s: f64,
    step_start: Option<Instant>,
    /// Input and work of the step in progress, from [`Run::did`].
    current: Option<(u64, f64)>,
    /// Set-up batch size found by [`setup()`].
    setup_batch: u32,
    /// Name of the workload's throughput, printed next to `throughput`.
    pub unit: &'static str,
    /// Checked operations and those that errored or disagreed with their
    /// oracle.
    pub attempted: u64,
    pub failed: u64,
    pub layers: Vec<(&'static str, f64)>,
    pub notes: Vec<String>,
}

impl Run {
    /// Loop control, called before each step and once after the last:
    /// ends the step in progress, says whether to take another and, if
    /// so, takes one set-up sample with `build` before starting it. Inside
    /// a step `run.steps` is the step's index.
    pub fn next_step<T>(
        &mut self,
        ctx: &Ctx<'_>,
        step_s: f64,
        build: &mut impl FnMut() -> T,
    ) -> bool {
        if let Some(start) = self.step_start.take() {
            let secs = start.elapsed().as_secs_f64();
            let (input, work) = self.current.take().expect("each step calls Run::did");
            self.log.push(Step { input, work, secs });
            self.loop_s += secs;
            self.steps += 1;
        }
        let more = ctx.limit.more(self.steps, self.loop_s, step_s);
        if more {
            ctx.tracer.span("setup", || self.setup_sample(build));
            self.step_start = Some(Instant::now());
        }
        more
    }

    /// Times one batch of `setup_batch` builds and records the mean;
    /// returns the last value built and the batch's seconds.
    fn setup_sample<T>(&mut self, build: &mut impl FnMut() -> T) -> (T, f64) {
        let start = Instant::now();
        for _ in 1..self.setup_batch {
            std::hint::black_box(build());
        }
        let value = build();
        let took = start.elapsed().as_secs_f64();
        self.setup_s.push(took / f64::from(self.setup_batch));
        (value, took)
    }

    /// Records that the step in progress ran input `input` and did `work`
    /// units of work.
    pub fn did(&mut self, input: u64, work: f64) {
        self.current = Some((input, work));
    }

    /// Units of work of all steps.
    pub fn work(&self) -> f64 {
        self.log.iter().map(|s| s.work).sum()
    }

    /// The workload's rate: work over seconds of all steps but each
    /// input's first, its warm-up (caches fill, round programs compile).
    /// Every workload takes many short steps over a small seeded set of
    /// inputs and runs on both cores; the host's speed drifts as other
    /// tenants load the shared cores, and the total over the run is
    /// steadier than any single step (the fastest step is a rare extreme).
    pub fn throughput(&self) -> f64 {
        let mut seen = std::collections::BTreeSet::new();
        let warm: Vec<&Step> = self.log.iter().filter(|s| !seen.insert(s.input)).collect();
        // A run too short to repeat any input has only warm-ups.
        let steps = if warm.is_empty() {
            self.log.iter().collect()
        } else {
            warm
        };
        let work: f64 = steps.iter().map(|s| s.work).sum();
        let secs: f64 = steps.iter().map(|s| s.secs).sum();
        work / secs
    }

    /// Counts one oracle comparison; a disagreement is reported on stderr.
    pub fn check(&mut self, ok: bool, what: String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("CHECK FAILED: {what}");
        }
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "undeclared layer metric {name}"
        );
        self.layers.push((name, value));
    }
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Nearest-rank percentile; 0 for an empty sample.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    if q == 0.5 && sorted.len().is_multiple_of(2) {
        let hi = sorted.len() / 2;
        return (sorted[hi - 1] + sorted[hi]) / 2.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Sizes the set-up batch, takes the first `SETUP_REPS` set-up samples
/// inside one `setup` span, and returns the last value built. The loop
/// keeps sampling through [`Run::next_step`] with the same `build`.
pub fn setup<T>(ctx: &Ctx<'_>, run: &mut Run, build: &mut impl FnMut() -> T) -> T {
    ctx.tracer.span("setup", || {
        run.setup_batch = 1;
        loop {
            let (value, took) = run.setup_sample(build);
            if took < SETUP_BATCH_S {
                // Too short to time well: drop the sample, grow the batch.
                run.setup_s.pop();
                run.setup_batch *= 2;
            } else if run.setup_s.len() >= SETUP_REPS {
                return value;
            }
        }
    })
}

/// SplitMix64: spreads a workload seed into independent input streams.
pub fn splitmix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn dispatch(workload: &str, ctx: &Ctx<'_>) -> Run {
    match workload {
        "attack-a36" => attack::run(ctx),
        "synth-sweep" => synth::run(ctx),
        "stabilize-a36" => stabilize::run(ctx),
        "runtime-det" => runtime::run(ctx),
        _ => unreachable!("workload names are validated in parse_args"),
    }
}

/// Peak resident set size of this process in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Commit, cores, thread budget, features, compiler and seed of this run.
fn provenance(args: &Args) -> String {
    // Only a repository rooted at the working directory names the commit:
    // the ceiling keeps git from searching, and reading, above it.
    let commit = std::env::current_dir()
        .ok()
        .and_then(|cwd| {
            let mut git = std::process::Command::new("git");
            git.args(["rev-parse", "HEAD"]);
            if let Some(parent) = cwd.parent() {
                git.env("GIT_CEILING_DIRECTORIES", parent);
            }
            git.output().ok()
        })
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(
            || "unknown (not a git checkout)".to_string(),
            |c| c.trim().to_string(),
        );
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let sc_threads = std::env::var("SC_THREADS").unwrap_or_default();
    format!(
        "{{\"commit\":\"{commit}\",\"nproc\":{nproc},\"sc_exec_threads\":{},\
         \"SC_THREADS\":\"{sc_threads}\",\"features\":\"parallel\",\
         \"rustc\":\"{}\",\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{}}}",
        sc_exec::threads(),
        env!("PERFBENCH_RUSTC"),
        args.workload,
        args.seed,
        args.seconds,
        args.trace
    )
}

/// A finite JSON number (non-finite values cannot be written).
fn num(value: f64) -> f64 {
    if value.is_finite() {
        value
    } else {
        0.0
    }
}

fn metrics_json(metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\":{{\"value\":{:?},\"unit\":\"{unit}\"}}",
                num(*value)
            )
        })
        .collect();
    format!("{{{}}}", body.join(","))
}

/// Per-layer metrics of the traced pass: the workload's own, the pool's
/// counters, the span-derived self times, tracing overhead and closure.
fn layer_metrics(
    untraced: &Run,
    traced: &Run,
    tracer: &Tracer,
    pool: (sc_exec::PoolStats, sc_exec::PoolStats),
) -> (Vec<(&'static str, f64)>, spans::Closure) {
    let spans = tracer.spans();
    let root = spans
        .iter()
        .find(|s| s.name == "workload" && s.parent.is_none())
        .expect("root span recorded")
        .id;
    let closure = spans::closure(&spans, root);
    let (before, after) = pool;
    let busy_s = (after.busy_ns - before.busy_ns) as f64 / 1e9;
    let capacity = after.workers as f64 * closure.wall_s;
    let mut layers = traced.layers.clone();
    layers.extend([
        ("exec.batches", (after.batches - before.batches) as f64),
        ("exec.claimed", (after.claimed - before.claimed) as f64),
        ("exec.busy_s", busy_s),
        (
            "exec.idle_share",
            if capacity > 0.0 {
                1.0 - busy_s / capacity
            } else {
                0.0
            },
        ),
        ("trace.overhead_s", traced.loop_s - untraced.loop_s),
        (
            "trace.overhead_share",
            (traced.loop_s - untraced.loop_s) / untraced.loop_s,
        ),
        ("trace.closure_error", closure.error),
        ("trace.unattributed_share", closure.unattributed),
        ("trace.closure_ok", f64::from(u8::from(closure.holds()))),
    ]);
    for (name, _) in PER_LAYER {
        if let Some(span) = name.strip_prefix("self_s.") {
            layers.push((name, closure.self_s.get(span).copied().unwrap_or(0.0)));
        }
    }
    (layers, closure)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let provenance = provenance(&args);
    println!("provenance {provenance}");

    let off = Tracer::new(false);
    let untraced = dispatch(
        &args.workload,
        &Ctx {
            seed: args.seed,
            limit: Limit::Seconds(args.seconds),
            tracer: &off,
        },
    );
    for line in &untraced.notes {
        println!("{line}");
    }
    let throughput = untraced.throughput();
    println!(
        "{} = {throughput:.3} 1/s ({} work units in {} steps, {:.3} s)",
        untraced.unit,
        untraced.work(),
        untraced.steps,
        untraced.loop_s
    );
    let mut attempted = untraced.attempted;
    let mut failed = untraced.failed;

    let metrics: Vec<(&str, f64, &str)> = if args.trace {
        let tracer = Tracer::new(true);
        let ctx = Ctx {
            seed: args.seed,
            limit: Limit::Steps(untraced.steps),
            tracer: &tracer,
        };
        let before = sc_exec::pool().stats();
        let traced = tracer.span("workload", || dispatch(&args.workload, &ctx));
        let after = sc_exec::pool().stats();
        attempted += traced.attempted;
        failed += traced.failed;
        let (layers, closure) = layer_metrics(&untraced, &traced, &tracer, (before, after));
        let mut checks = Run::default();
        checks.check(
            closure.holds(),
            format!(
                "closure: error {:.2e} (max {:.0e}), unattributed {:.4} (max {})",
                closure.error,
                spans::CLOSURE_TOLERANCE,
                closure.unattributed,
                spans::UNATTRIBUTED_TOLERANCE
            ),
        );
        attempted += checks.attempted;
        failed += checks.failed;
        for line in &traced.notes {
            println!("traced: {line}");
        }
        println!(
            "closure: self times sum to the {:.3} s traced wall within {:.2e} \
             (tolerance {:.0e}); unattributed share {:.4} (tolerance {})",
            closure.wall_s,
            closure.error,
            spans::CLOSURE_TOLERANCE,
            closure.unattributed,
            spans::UNATTRIBUTED_TOLERANCE
        );
        for (name, seconds) in &closure.self_s {
            println!("  self {name:<14} {seconds:>10.4} s");
        }
        write_out(&args, &provenance, &tracer, &layers);
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let value = layers
                    .iter()
                    .rev()
                    .find(|(n, _)| *n == name)
                    .map_or(0.0, |(_, v)| *v);
                (name, value, unit)
            })
            .collect()
    } else {
        vec![
            ("setup_s", median(&untraced.setup_s), "s"),
            ("peak_rss_mb", peak_rss_mb(), "MB"),
            ("throughput", throughput, "1/s"),
        ]
    };
    for (name, value, unit) in &metrics {
        println!("{name} = {value} {unit}");
    }
    // Not a metric (it is 0 on correct code); the result line carries it
    // as `failed` over `attempted`.
    println!(
        "failed_ratio = {} ({failed} of {attempted} checked operations)",
        failed as f64 / attempted as f64
    );
    println!(
        "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{}}}",
        failed == 0,
        metrics_json(&metrics)
    );
}

/// Writes the span list and the run record (provenance + layer metrics)
/// under `perfbench/out/`. A write failure is reported, not fatal: the
/// metrics on stdout are the result.
fn write_out(args: &Args, provenance: &str, tracer: &Tracer, layers: &[(&str, f64)]) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let stem = format!("{}-seed{}", args.workload, args.seed);
    let layer_json: Vec<String> = layers
        .iter()
        .map(|(name, value)| format!("\"{name}\":{:?}", num(*value)))
        .collect();
    let record = format!(
        "{{\"provenance\":{provenance},\"layers\":{{{}}}}}\n",
        layer_json.join(",")
    );
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| {
            std::fs::write(
                dir.join(format!("{stem}.spans.json")),
                spans::to_json(&tracer.spans()),
            )
        })
        .and_then(|()| std::fs::write(dir.join(format!("{stem}.record.json")), record));
    match written {
        Ok(()) => println!("spans and run record written to {}", dir.display()),
        Err(e) => eprintln!("perfbench: could not write {}: {e}", dir.display()),
    }
}
