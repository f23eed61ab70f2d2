//! Sliced-vs-scalar equivalence for scripted attacks, the only adversary
//! form the bit-sliced engine runs:
//!
//! * an [`Objective`] with the bit-sliced path attached scores arbitrary
//!   scripts **exactly** like the scalar full-horizon oracle
//!   ([`Objective::evaluate_full`]), under in-place mutation chains, on
//!   A(4,1), on A(12,3) with random fault sets and on A(36,7) with seven
//!   faulty nodes;
//! * the same scripts give the same verdict seed for seed on `Batch`
//!   (through [`ScriptedAdversary`]) and on `SlicedBatch` (through
//!   [`SlicedScript`]): stabilisation rounds, `NotStabilized` details and
//!   `HorizonTooShort` alike;
//! * ragged sweeps (scenario counts straddling the 64-lane word boundary)
//!   keep the equality;
//! * the library's replay adversary and its one-round lasso script give
//!   the same verdicts on `Batch` (native and scripted) and on
//!   `SlicedBatch`;
//! * the plane transpose (`pack_lane` / `unpack_lane`) round-trips
//!   arbitrary bundles at arbitrary lane positions.

use proptest::{prop_assert, prop_assert_eq, proptest, ProptestConfig};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sc_attack::{Move, MoveSpace, Objective, RawState, Script, ScriptedAdversary, SlicedScript};
use sc_core::{Algorithm, CounterBuilder, CounterState};
use sc_protocol::{BitVec, NodeId, PlaneBuf, SyncProtocol};
use sc_sim::{adversaries, Batch, BatchReport, Scenario, SlicedBatch};

fn a4() -> Algorithm {
    CounterBuilder::corollary1(1, 8).unwrap().build().unwrap()
}

fn a12() -> Algorithm {
    CounterBuilder::corollary1(1, 2)
        .unwrap()
        .boost(3)
        .unwrap()
        .build()
        .unwrap()
}

fn a36() -> Algorithm {
    CounterBuilder::corollary1(1, 2)
        .unwrap()
        .boost(3)
        .unwrap()
        .boost(3)
        .unwrap()
        .build()
        .unwrap()
}

/// Seed + stabilisation verdict per scenario, the part of an outcome both
/// engines must agree on.
type Verdicts = Vec<(u64, String)>;

fn verdicts(report: &BatchReport) -> Verdicts {
    report
        .outcomes
        .iter()
        .map(|o| (o.seed, format!("{:?}", o.result)))
        .collect()
}

/// The dense raw vocabulary `SlicedScript` takes: one 256-entry row per
/// faulty sender, resolved through the protocol's own `RawState`.
fn raw_rows(algo: &Algorithm, script: &Script) -> Vec<Vec<CounterState>> {
    script
        .fault_set()
        .iter()
        .map(|&g| {
            (0..=u8::MAX)
                .map(|v| algo.raw_state(NodeId::new(g), v))
                .collect()
        })
        .collect()
}

/// Runs `script` over seeds `0..count` on `Batch` (through
/// [`ScriptedAdversary`]) and on `SlicedBatch` (through [`SlicedScript`])
/// and returns both per-seed verdict lists, scalar first.
fn scripted_verdicts(
    algo: &Algorithm,
    script: &Script,
    count: u64,
    horizon: u64,
) -> (Verdicts, Verdicts) {
    let scenarios: Vec<Scenario<CounterState>> = Scenario::seeds(0..count);
    let scalar =
        Batch::new(algo, horizon).run(&scenarios, |_| ScriptedAdversary::new(script, algo));
    let rows = raw_rows(algo, script);
    let sliced = SlicedBatch::new(algo, horizon)
        .lane_words(1)
        .run(&scenarios, &SlicedScript::new(script, &rows))
        .expect("the stack lowers");
    (verdicts(&scalar), verdicts(&sliced))
}

/// [`adversaries::replay`] as a one-round lasso: the faulty nodes show
/// receiver `v` the `v`-th correct node (mod the correct count) as of
/// `delay − 1` rounds ago, a plain echo when `delay = 1`.
fn replay_script(n: usize, faulty: Vec<usize>, delay: usize) -> Script {
    let row: Vec<Move> = (0..n)
        .map(|v| {
            if delay == 1 {
                Move::Echo(v as u8)
            } else {
                Move::Stale {
                    lag: (delay - 1) as u8,
                    salt: v as u8,
                }
            }
        })
        .collect();
    let width = faulty.len();
    Script::new(n, faulty, vec![row.repeat(width)], 0).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// On A(4,1), a sliced-attached objective scores random scripts — and
    /// every in-place mutation of them — identically to the scalar
    /// full-horizon oracle, across all three move kinds.
    #[test]
    fn sliced_scripted_objective_equals_scalar_oracle(seed in proptest::any::<u64>()) {
        let algo = a4();
        let mut rng = SmallRng::seed_from_u64(seed);
        let fault = rng.random_range(0..4usize);
        let space = MoveSpace { raw_values: 5, salts: 3, max_lag: 3 };
        let rounds = rng.random_range(1..=4usize);
        let cycle_start = rng.random_range(0..rounds);
        let mut script =
            Script::random(4, vec![fault], rounds, cycle_start, &space, &mut rng);

        let mut obj = Objective::new(&algo, &algo, vec![fault], 0..5, 64).unwrap();
        prop_assert!(obj.attach_sliced(), "A(4,1) must lower");
        for step in 0..3 {
            let sliced = obj.evaluate(&script);
            let scalar = obj.evaluate_full(&script);
            prop_assert_eq!(sliced, scalar, "mutation step {} diverged", step);
            let to = (fault + 1 + step) % 4;
            script.set_move(step % rounds, 0, to, space.sample(&mut rng));
        }
    }

    /// The bundle transpose round-trips arbitrary widths at arbitrary lanes,
    /// including lanes beyond the first word and partial trailing planes.
    #[test]
    fn plane_transpose_round_trips(seed in proptest::any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let width = rng.random_range(1..=70usize);
        let lane_words = rng.random_range(1..=3usize);
        let mut buf = PlaneBuf::new(width, lane_words);
        let lanes: Vec<usize> =
            (0..4).map(|_| rng.random_range(0..lane_words * 64)).collect();
        let payloads: Vec<BitVec> = lanes
            .iter()
            .map(|_| {
                let mut bits = BitVec::new();
                for _ in 0..width {
                    bits.push_bit(rng.random_range(0..2u32) == 1);
                }
                bits
            })
            .collect();
        // Later packs may overwrite earlier lanes; verify against the last
        // write per lane.
        for (lane, bits) in lanes.iter().zip(&payloads) {
            buf.pack_lane(*lane, 0, bits);
        }
        for (i, (lane, bits)) in lanes.iter().zip(&payloads).enumerate() {
            if lanes[i + 1..].contains(lane) {
                continue;
            }
            let mut out = BitVec::new();
            buf.unpack_lane(*lane, 0, width, &mut out);
            prop_assert_eq!(&out, bits, "lane {} width {}", lane, width);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    /// A(12,3): random fault sets of size 1–3 (up to full resilience),
    /// random lasso scripts over all three move kinds, ragged scenario
    /// counts — `Batch` and `SlicedBatch` give the same verdict seed for
    /// seed, and the sliced objective scores exactly like the scalar oracle.
    #[test]
    fn a12_random_fault_sets_score_like_the_scalar_oracle(seed in proptest::any::<u64>()) {
        let algo = a12();
        let mut rng = SmallRng::seed_from_u64(seed);
        let f = rng.random_range(1..=3usize);
        let mut faults: Vec<usize> = (0..12).collect();
        faults.rotate_left(rng.random_range(0..12));
        faults.truncate(f);
        faults.sort_unstable();
        let count = rng.random_range(1..=40u64);
        let space = MoveSpace { raw_values: 8, salts: 9, max_lag: 3 };
        let rounds = rng.random_range(1..=3usize);
        let cycle_start = rng.random_range(0..rounds);
        let script = Script::random(12, faults.clone(), rounds, cycle_start, &space, &mut rng);

        let (scalar, sliced) = scripted_verdicts(&algo, &script, count, 120);
        prop_assert_eq!(scalar, sliced, "verdicts: faults {:?}, {} scenarios", faults, count);

        let mut obj = Objective::new(&algo, &algo, faults.clone(), 0..count, 120).unwrap();
        prop_assert!(obj.attach_sliced(), "A(12,3) must lower");
        let sliced = obj.evaluate(&script);
        let scalar = obj.evaluate_full(&script);
        prop_assert_eq!(sliced, scalar, "score: faults {:?}, {} scenarios", faults, count);
    }
}

/// A(36,7) smoke: the full Figure 2 stack with seven faulty nodes and a
/// two-round lasso mixing equivocation (different echoes to even and odd
/// receivers), raw fabrications and stale replays, over a ragged sweep.
/// At horizon 60 some seeds stabilise and some do not, so the engines must
/// agree seed for seed on stabilisation rounds and on `NotStabilized`
/// details (last violation, confirmation progress), not just on the
/// objective's totals.
#[test]
fn a36_seven_faults_score_like_the_scalar_oracle() {
    let algo = a36();
    let faults = vec![0usize, 5, 11, 17, 23, 29, 35];
    let n = 36;
    let round = |t: usize| -> Vec<Move> {
        (0..faults.len() * n)
            .map(|i| {
                let (g, v) = (i / n, i % n);
                match (v + g + t) % 3 {
                    0 => Move::Echo((v % 2) as u8 * 7),
                    1 => Move::Raw((v * 5 + g + t) as u8),
                    _ => Move::Stale {
                        lag: (1 + (v + t) % 3) as u8,
                        salt: (v % 4) as u8,
                    },
                }
            })
            .collect()
    };
    let script = Script::new(n, faults.clone(), vec![round(0), round(1)], 0).unwrap();
    let (scalar, sliced) = scripted_verdicts(&algo, &script, 9, 60);
    assert_eq!(scalar, sliced);
    let settled = scalar.iter().filter(|(_, v)| v.starts_with("Ok(")).count();
    assert!(
        (1..9).contains(&settled),
        "the sweep should mix both verdict kinds: {scalar:?}"
    );
    let mut obj = Objective::new(&algo, &algo, faults, 0..9, 60).unwrap();
    assert!(obj.attach_sliced(), "A(36,7) must lower");
    assert_eq!(obj.evaluate(&script), obj.evaluate_full(&script));
}

/// Replay as a Script: on A(4,1) and A(12,3), for delays 1, 2 and 4, the
/// native [`adversaries::replay`] on `Batch`, its one-round lasso script
/// on `Batch` (through [`ScriptedAdversary`]) and the same script on
/// `SlicedBatch` (through [`SlicedScript`]) give identical verdicts.
#[test]
fn replay_as_a_script_matches_native_replay_on_both_engines() {
    let cases = [
        (a4(), vec![3usize], 1200u64, 48u64),
        (a12(), vec![2, 7, 11], 200, 24),
    ];
    for (algo, faulty, horizon, count) in &cases {
        let scenarios: Vec<Scenario<CounterState>> = Scenario::seeds(0..*count);
        for delay in [1usize, 2, 4] {
            let label = format!("n = {}, delay {delay}", algo.n());
            let native = Batch::new(algo, *horizon).run(&scenarios, |_| {
                adversaries::replay::<CounterState>(faulty.iter().copied(), delay)
            });
            let script = replay_script(algo.n(), faulty.clone(), delay);
            let (scripted, sliced) = scripted_verdicts(algo, &script, *count, *horizon);
            assert_eq!(verdicts(&native), scripted, "{label}: Batch");
            assert_eq!(verdicts(&native), sliced, "{label}: SlicedBatch");
        }
    }
}

/// A horizon shorter than the confirmation window fails every seed with
/// `HorizonTooShort` on a real lowered stack, as it does on `Batch`.
#[test]
fn short_horizon_fails_like_batch_on_a_lowered_stack() {
    let algo = a4();
    let script = replay_script(4, vec![1], 2);
    let (scalar, sliced) = scripted_verdicts(&algo, &script, 3, 4);
    assert_eq!(scalar, sliced);
    assert!(
        sliced
            .iter()
            .all(|(_, v)| v.starts_with("Err(HorizonTooShort")),
        "{sliced:?}"
    );
}

/// Ragged multi-word sweeps: 70 scenarios span two lane words with a ragged
/// tail, and a script mixing every move kind still scores exactly like the
/// scalar oracle — on a horizon long enough for many lanes to stabilise, so
/// the equality covers real stabilisation rounds, not just timeouts.
#[test]
fn ragged_multiword_sweep_matches_scalar_oracle() {
    let algo = a4();
    let rounds = vec![
        vec![
            Move::Echo(0),
            Move::Raw(3),
            Move::Stale { lag: 2, salt: 1 },
            Move::Raw(200),
        ],
        vec![
            Move::Stale { lag: 1, salt: 0 },
            Move::Echo(2),
            Move::Raw(0),
            Move::Echo(1),
        ],
    ];
    let script = Script::new(4, vec![2], rounds, 1).unwrap();
    let mut obj = Objective::new(&algo, &algo, vec![2], 0..70, 600).unwrap();
    assert!(obj.attach_sliced());
    let sliced = obj.evaluate(&script);
    let scalar = obj.evaluate_full(&script);
    assert_eq!(sliced, scalar);
    assert!(
        sliced.worst > 0,
        "a live attack sweep should register delay: {sliced:?}"
    );
    assert_eq!(obj.evaluations(), 2);
}

/// Stacks outside the lowering's gate (a boosting layer with `m = 3`) leave
/// the objective on the scalar path instead of attaching.
#[test]
fn unsupported_stacks_stay_scalar() {
    let inner = Algorithm::trivial(9 * 6u64.pow(5) * 4).unwrap();
    let wide = Algorithm::boosted(inner, 5, 1, 8, 0).unwrap();
    let mut obj = Objective::new(&wide, &wide, vec![1], 0..2, 64).unwrap();
    assert!(!obj.attach_sliced());
    assert!(!obj.is_sliced());
}
