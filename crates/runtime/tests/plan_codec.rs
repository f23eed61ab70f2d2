//! Property coverage for the `FaultPlan` codec: lossless round-trips on
//! arbitrary injection schedules (including inline `Script` payloads and
//! `Script`-import plans), deterministic re-encoding, and typed
//! rejection of truncated byte streams and of zero-width script headers.

use proptest::{prop_assert, prop_assert_eq, proptest, ProptestConfig};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sc_attack::{MoveSpace, Script};
use sc_protocol::{BitVec, CodecError};
use sc_runtime::{FaultEntry, FaultKind, FaultPlan};

/// A random well-formed plan: n in 4..=9, up to 3 wrapped nodes, all
/// five kinds reachable, windowed and unbounded entries mixed.
fn random_plan(seed: u64) -> FaultPlan {
    let mut rng = SmallRng::seed_from_u64(seed);
    let n: usize = rng.random_range(4..=9);
    let f: usize = rng.random_range(0..=3.min(n - 1));
    let mut nodes: Vec<usize> = (0..n).collect();
    nodes.rotate_left(rng.random_range(0..n));
    nodes.truncate(f);
    nodes.sort_unstable();
    let entries = nodes
        .iter()
        .map(|&node| {
            let from_round: u64 = rng.random_range(0..1000);
            let until_round = if rng.random_bool(0.5) {
                Some(from_round + rng.random_range(1..500))
            } else {
                None
            };
            let kind = match rng.random_range(0..5u32) {
                0 => FaultKind::Crash,
                1 => FaultKind::Mute,
                2 => FaultKind::Delayed {
                    jitter_permille: rng.random_range(0..=(1 << 20) - 1),
                },
                3 => FaultKind::Equivocate,
                _ => {
                    let space = MoveSpace {
                        raw_values: rng.random_range(0..=3),
                        salts: rng.random_range(1..=3),
                        max_lag: rng.random_range(0..=2),
                    };
                    let rounds: usize = rng.random_range(1..=4);
                    let cycle_start = rng.random_range(0..rounds);
                    FaultKind::Scripted(Script::random(
                        n,
                        vec![node],
                        rounds,
                        cycle_start,
                        &space,
                        &mut rng,
                    ))
                }
            };
            FaultEntry {
                node,
                from_round,
                until_round,
                kind,
            }
        })
        .collect();
    FaultPlan::new(n, entries).expect("sampled plan is well-formed")
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Encode → decode is the identity on arbitrary plans, and
    /// re-encoding the decoded plan is bit-identical.
    #[test]
    fn plan_codec_is_lossless(seed in proptest::any::<u64>()) {
        let plan = random_plan(seed);
        let mut bits = BitVec::new();
        plan.encode(&mut bits);
        let back = FaultPlan::decode(&mut bits.reader()).unwrap();
        prop_assert_eq!(&back, &plan);
        let mut bits2 = BitVec::new();
        back.encode(&mut bits2);
        prop_assert_eq!(bits.len(), bits2.len());
        prop_assert_eq!(bits.words(), bits2.words());
    }

    /// A `Script`-import plan (the attack-search → runtime seam) wraps
    /// every scripted node and survives the round-trip.
    #[test]
    fn script_import_round_trips(seed in proptest::any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let n: usize = rng.random_range(4..=7);
        let f: usize = rng.random_range(1..=2);
        let mut fault_set: Vec<usize> = (0..n).collect();
        fault_set.rotate_left(rng.random_range(0..n));
        fault_set.truncate(f);
        fault_set.sort_unstable();
        let rounds: usize = rng.random_range(1..=5);
        let script = Script::random(
            n,
            fault_set.clone(),
            rounds,
            rng.random_range(0..rounds),
            &MoveSpace { raw_values: 2, salts: 2, max_lag: 2 },
            &mut rng,
        );
        let plan = FaultPlan::scripted(&script).unwrap();
        prop_assert_eq!(plan.fault_count(), f);
        for &node in &fault_set {
            let entry = plan.entry_for(node).expect("every scripted node wrapped");
            prop_assert!(matches!(entry.kind, FaultKind::Scripted(_)));
            prop_assert_eq!(entry.from_round, 0);
            prop_assert_eq!(entry.until_round, None);
        }
        let mut bits = BitVec::new();
        plan.encode(&mut bits);
        prop_assert_eq!(&FaultPlan::decode(&mut bits.reader()).unwrap(), &plan);
    }

    /// Every proper prefix of an encoding fails to decode losslessly:
    /// either a typed error, or (if a prefix happens to parse) a plan
    /// different from the original — never silent garbage equality.
    #[test]
    fn truncation_never_decodes_to_the_original(seed in proptest::any::<u64>()) {
        let plan = random_plan(seed);
        let mut bits = BitVec::new();
        plan.encode(&mut bits);
        if bits.is_empty() {
            return;
        }
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xdead);
        for _ in 0..8 {
            let keep = rng.random_range(0..bits.len());
            let mut truncated = BitVec::new();
            for i in 0..keep {
                truncated.push_bit(bits.bit(i));
            }
            if let Ok(back) = FaultPlan::decode(&mut truncated.reader()) {
                prop_assert!(
                    back != plan,
                    "a strict prefix must not decode to the original plan"
                );
            }
        }
    }
}

/// A scripted entry whose inline script header claims rounds but no
/// faulty senders (n = 4, f = 0, len = 2^26) is a typed decode error:
/// zero-width rounds read no bits, so the header alone must stop it.
#[test]
fn decode_rejects_a_scripted_entry_with_rounds_but_no_faulty_senders() {
    let mut bits = BitVec::new();
    bits.push_bits(4, 16); // plan n
    bits.push_bits(1, 8); // one entry
    bits.push_bits(2, 16); // node
    bits.push_bits(0, 32); // from_round
    bits.push_bit(false); // unbounded
    bits.push_bits(4, 3); // FaultKind::Scripted
    bits.push_bits(4, 16); // script n
    bits.push_bits(0, 8); // script f
    bits.push_bits(1 << 26, 32); // script rounds
    bits.push_bits(0, 32); // script cycle_start
    assert_eq!(
        FaultPlan::decode(&mut bits.reader()),
        Err(CodecError::InvalidField {
            field: "script rounds without faulty senders",
            value: 1 << 26,
        })
    );
}
