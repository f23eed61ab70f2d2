//! Scripted attacks on the bit-sliced plane: [`SlicedScript`] translates a
//! [`Script`] into the face tables of [`sc_sim::SlicedStrategy`], so one
//! objective sweep advances 64 scenarios per word instead of one. It is the
//! only sliced strategy: any oblivious adversary reaches the sliced engine
//! by being written as a [`Script`], and crash, replay and equivocation are
//! checked against their scalar natives in that form.
//!
//! The translation is semantics-preserving move by move:
//!
//! * [`Move::Echo`]`(salt)` → [`FaceRef::Honest`] of the `salt`-th correct
//!   node — the donor rule of [`sc_sim::adversaries::donor_id`], which the
//!   scalar [`crate::ScriptedAdversary`] uses;
//! * [`Move::Raw`]`(v)` → [`FaceRef::Packed`] naming a lane-uniform bundle
//!   holding the vocabulary state `raw_state(sender, v)`. The packed id is
//!   `g · 256 + v` — a *fixed* map over the full `u8` vocabulary, so every
//!   script evaluated against one compiled model agrees on what each id
//!   holds (the model asserts re-registrations are consistent);
//! * [`Move::Stale`]`{lag, salt}` → [`FaceRef::Ring`] of the same donor;
//!   the engine clamps the lag to the observed history and rewrites lag 0
//!   to an echo, exactly the scalar warm-up rule.
//!
//! A script plays the same moves in every lane, so every raw bundle folds
//! into compile-time constants and lanes differ only in their initial
//! configurations.

use sc_protocol::{FaceRef, NodeId, RoundFaces};
use sc_sim::adversaries::normalize_faults;
use sc_sim::SlicedStrategy;

use crate::script::{Move, Script};

/// Dense raw-vocabulary stride of the packed-id map: faulty sender `g`'s
/// value `v` lives at packed id `g * RAW_STRIDE + v`.
const RAW_STRIDE: usize = 256;

/// A [`Script`] as a lane-uniform [`SlicedStrategy`]: the sliced twin of
/// [`crate::ScriptedAdversary`], with verdict-identical executions
/// (property-tested through [`crate::Objective`]'s two evaluation paths).
pub struct SlicedScript<'s, S> {
    script: &'s Script,
    faulty: Vec<NodeId>,
    honest: Vec<u32>,
    /// `raw_states[g][v]`: the vocabulary state faulty sender `g` fabricates
    /// for [`Move::Raw`]`(v)`, pre-resolved over the full `u8` range.
    raw_states: &'s [Vec<S>],
}

impl<'s, S> SlicedScript<'s, S> {
    /// Wraps `script` over a pre-resolved raw vocabulary (one dense
    /// 256-entry row per faulty sender, in fault-set order).
    ///
    /// # Panics
    ///
    /// Panics when `raw_states` does not hold exactly one full row per
    /// faulty sender.
    pub fn new(script: &'s Script, raw_states: &'s [Vec<S>]) -> Self {
        let faulty = normalize_faults(script.fault_set().iter().copied());
        assert_eq!(
            raw_states.len(),
            faulty.len(),
            "one raw vocabulary row per faulty sender"
        );
        assert!(
            raw_states.iter().all(|row| row.len() == RAW_STRIDE),
            "raw vocabulary rows must cover the full u8 range"
        );
        let honest = (0..script.n() as u32)
            .filter(|&v| faulty.binary_search(&NodeId::new(v as usize)).is_err())
            .collect();
        SlicedScript {
            script,
            faulty,
            honest,
            raw_states,
        }
    }

    /// The `salt`-th correct node — [`sc_sim::adversaries::donor_id`] on the
    /// sliced plane.
    fn donor(&self, salt: u8) -> u32 {
        self.honest[salt as usize % self.honest.len()]
    }
}

impl<'s, S> SlicedStrategy<S> for SlicedScript<'s, S> {
    fn faulty(&self) -> &[NodeId] {
        &self.faulty
    }

    fn max_lag(&self) -> usize {
        self.script.max_lag()
    }

    fn packed_bundles(&self) -> Vec<(NodeId, &S)> {
        self.faulty
            .iter()
            .zip(self.raw_states)
            .flat_map(|(&node, row)| row.iter().map(move |state| (node, state)))
            .collect()
    }

    fn faces(&self, round: u64, n: usize, faces: &mut RoundFaces) {
        for g in 0..self.faulty.len() {
            for to in 0..n {
                faces.rows[g * n + to] = match self.script.move_at(round, g, to) {
                    Move::Echo(salt) => FaceRef::Honest(self.donor(salt)),
                    Move::Raw(value) => FaceRef::Packed((g * RAW_STRIDE + value as usize) as u16),
                    Move::Stale { lag, salt } => FaceRef::Ring {
                        lag,
                        donor: self.donor(salt),
                    },
                };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn raw_rows(f: usize) -> Vec<Vec<u64>> {
        (0..f)
            .map(|g| {
                (0..RAW_STRIDE as u64)
                    .map(|v| g as u64 * 1000 + v)
                    .collect()
            })
            .collect()
    }

    #[test]
    fn faces_translate_every_move_kind() {
        let script = Script::new(
            4,
            vec![1],
            vec![vec![
                Move::Echo(0),
                Move::Raw(7),
                Move::Stale { lag: 2, salt: 1 },
                Move::Echo(5),
            ]],
            0,
        )
        .unwrap();
        let rows = raw_rows(1);
        let strategy = SlicedScript::new(&script, &rows);
        assert_eq!(strategy.max_lag(), 2);
        let mut faces = RoundFaces::new(1, 4);
        strategy.faces(0, 4, &mut faces);
        // Honest nodes are {0, 2, 3}: salt 0 → 0, salt 1 → 2, salt 5 → 3.
        assert_eq!(faces.rows[0], FaceRef::Honest(0));
        assert_eq!(faces.rows[1], FaceRef::Packed(7));
        assert_eq!(faces.rows[2], FaceRef::Ring { lag: 2, donor: 2 });
        assert_eq!(faces.rows[3], FaceRef::Honest(3));
        // Lasso wrap: round 9 plays the same (single) scripted round.
        let mut later = RoundFaces::new(1, 4);
        strategy.faces(9, 4, &mut later);
        assert_eq!(later, faces);
    }

    #[test]
    fn packed_ids_use_the_dense_per_sender_stride() {
        let script = Script::new(4, vec![0, 2], vec![vec![Move::Raw(3); 8]], 0).unwrap();
        let rows = raw_rows(2);
        let strategy = SlicedScript::new(&script, &rows);
        let bundles = strategy.packed_bundles();
        assert_eq!(bundles.len(), 2 * RAW_STRIDE);
        let (node, state) = bundles[RAW_STRIDE + 3];
        assert_eq!(node.index(), 2);
        assert_eq!(*state, 1003);
        let mut faces = RoundFaces::new(2, 4);
        strategy.faces(0, 4, &mut faces);
        assert_eq!(faces.rows[1], FaceRef::Packed(3)); // sender group 0
        assert_eq!(faces.rows[4 + 1], FaceRef::Packed(RAW_STRIDE as u16 + 3));
    }
}
