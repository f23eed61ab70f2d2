//! Bit-sliced scenario sweeps: 64 scenarios per machine word.
//!
//! [`crate::Batch`] steps one scenario at a time through the scalar engine.
//! This module is the transposed counterpart: scenario state lives in
//! [`PlaneBuf`] planes (one `u64` word per state bit, 64 scenarios per
//! "lane"), the protocol transition is compiled **once** into a
//! [`Program`] of word ops (see `sc-core`'s DAG builder), and
//! [`SlicedBatch`] advances whole lane groups per round. Lanes differ only
//! in their initial configurations; the adversary's moves are lane-uniform
//! and become honest-plane loads, ring loads and compiled constants.
//!
//! The scalar engine stays the oracle: every sliced sweep is asserted
//! verdict-identical (seed and stabilisation [`ScenarioOutcome::result`])
//! against [`crate::Batch`] in the test suites and the throughput gate.
//! Two ledger fields are engine-specific and deliberately excluded from
//! that comparison: [`ScenarioOutcome::fabricated_states`] (the sliced
//! engine has no message pool; it reports 0) and
//! [`ScenarioOutcome::exit_reason`] (always [`ExitReason::FullHorizon`];
//! the sliced engine amortises rounds across lanes instead of exiting
//! early).
//!
//! The pieces:
//!
//! * [`SlicedProtocol`] — a counter that can lower its transition to round
//!   programs for a given fault set ([`RoundProgramSource`]).
//! * [`SlicedStrategy`] — the adversary interface of the sliced plane:
//!   instead of per-receiver message leases, a strategy names one
//!   [`FaceRef`] per (faulty sender, receiver) pair per round, plus the
//!   lane-uniform states its packed faces stand for. Its one
//!   implementation is `sc-attack`'s `SlicedScript`, the sliced
//!   interpreter of a scripted attack.
//! * [`SlicedBatch`] — the sweep engine, mirroring [`crate::Batch`]'s
//!   verdict pipeline ([`OnlineDetector`] per lane).

use std::sync::{Arc, Mutex};

use rand::rngs::SmallRng;
use rand::SeedableRng;
use sc_protocol::{
    BitVec, Counter, ExecSpaces, FaceRef, NodeId, PlaneBuf, Program, RoundFaces, SlicedLayout,
};

use crate::batch::{BatchReport, Scenario, ScenarioOutcome};
use crate::early::ExitReason;
use crate::obs::SimObs;
use crate::simulation::required_confirmation;
use crate::stabilization::OnlineDetector;
use crate::SimError;

/// A compiled transition model for one (protocol, fault set) pair.
///
/// Produced by [`SlicedProtocol::sliced_model`] and driven by
/// [`SlicedBatch`]: the engine packs states through
/// [`extend_bundle`](RoundProgramSource::extend_bundle), registers the
/// strategy's packed states, and asks for one [`Program`] per distinct
/// (canonicalised) face pattern — implementations cache compiled programs,
/// so a lasso-periodic attack costs at most one compile per distinct round
/// pattern no matter how many sweeps reuse the model.
pub trait RoundProgramSource {
    /// The per-node bundle layout of the model's arenas.
    fn layout(&self) -> SlicedLayout;

    /// Extends a codec-encoded state of `node` (the first
    /// [`SlicedLayout::state_bits`] bits of `bundle`) into a full bundle by
    /// appending the derived ext planes and the output field. The node
    /// matters when outputs are node-dependent (per-node LUT tables).
    fn extend_bundle(&self, node: u32, bundle: &mut BitVec);

    /// Registers packed bundle `id`: the full, lane-uniform bundle bits a
    /// [`FaceRef::Packed`] face of that id stands for, compiled to
    /// constants (enabling whole-subtree folding). Registration is
    /// idempotent; re-registering an id with different content is a caller
    /// bug and panics.
    fn register_packed(&mut self, id: u16, bundle: &BitVec);

    /// Whether `id` is already registered. The engine skips the (costly)
    /// re-encode + idempotence check for known ids, so hot objectives that
    /// sweep thousands of scripts against one model pay the vocabulary
    /// encoding once, not per evaluation.
    fn packed_registered(&self, id: u16) -> bool {
        let _ = id;
        false
    }

    /// The compiled program for one canonicalised face pattern.
    fn round_program(&mut self, faces: &RoundFaces) -> Arc<Program>;
}

/// A counter whose transition can be lowered to bit-sliced round programs.
///
/// Returning `None` (unsupported structure for `faulty`) makes callers fall
/// back to the scalar engine — slicing is an accelerator, never a semantic
/// fork.
pub trait SlicedProtocol: Counter {
    /// Builds the compiled model for a sorted fault set.
    fn sliced_model(&self, faulty: &[NodeId]) -> Option<Box<dyn RoundProgramSource + Send>>;
}

/// A Byzantine strategy on the sliced plane.
///
/// Where a scalar [`crate::Adversary`] returns per-receiver message leases
/// round by round, a sliced strategy declares, per round, a *face table*:
/// one [`FaceRef`] per (faulty sender, receiver) pair, the same in every
/// lane. A [`FaceRef::Packed`] face names one of the strategy's
/// [`packed_bundles`](SlicedStrategy::packed_bundles), a lane-uniform
/// state the lowering folds into constants.
pub trait SlicedStrategy<S> {
    /// Sorted, deduplicated fault set.
    fn faulty(&self) -> &[NodeId];

    /// Deepest replay-ring lag any face ever names (before the engine's
    /// per-round clamping).
    fn max_lag(&self) -> usize;

    /// The states packed faces stand for, indexed by [`FaceRef::Packed`]
    /// id: each is encoded as a broadcast of the paired sender.
    fn packed_bundles(&self) -> Vec<(NodeId, &S)>;

    /// Writes the face table for `round` into `faces` (pre-sized to
    /// `faulty × n` rows). Rows for faulty receivers are ignored (the
    /// engine canonicalises them away).
    fn faces(&self, round: u64, n: usize, faces: &mut RoundFaces);
}

/// Bit-sliced batched sweep runner: the transposed twin of
/// [`crate::Batch`].
///
/// Scenarios are packed 64-per-word into lane groups of
/// `64 × lane_words` lanes; each group advances through compiled round
/// programs, with per-lane stabilisation verdicts from the same
/// [`OnlineDetector`] the scalar engine uses — which is what makes verdict
/// equality structural rather than coincidental. Groups fan out across
/// threads (strided assignment, like the attack searcher's `fan_out`).
#[derive(Clone, Copy, Debug)]
pub struct SlicedBatch<'a, P> {
    protocol: &'a P,
    horizon: u64,
    threads: usize,
    lane_words: usize,
    obs: Option<&'a SimObs>,
}

impl<'a, P: SlicedProtocol> SlicedBatch<'a, P> {
    /// A sweep runner giving each scenario `horizon` rounds.
    pub fn new(protocol: &'a P, horizon: u64) -> Self {
        SlicedBatch {
            protocol,
            horizon,
            threads: sc_exec::threads(),
            lane_words: 4,
            obs: None,
        }
    }

    /// Meters every scenario of this sweep into `obs`, a lane group at a
    /// time (see [`crate::Batch::observed`]). Verdicts are bitwise
    /// unchanged.
    pub fn observed(mut self, obs: &'a SimObs) -> Self {
        self.obs = Some(obs);
        self
    }

    /// Caps the worker thread count (clamped to at least 1).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Sets the lane-group width in 64-lane words (default 4, i.e. 256
    /// scenarios per group). Wider groups amortise op dispatch over more
    /// lanes; narrower groups expose more thread parallelism for short
    /// scenario lists. Verdicts are invariant under this knob.
    pub fn lane_words(mut self, lane_words: usize) -> Self {
        self.lane_words = lane_words.max(1);
        self
    }

    /// Runs every scenario under `strategy`, producing verdicts in input
    /// order, or `None` when the protocol cannot lower this fault set (the
    /// caller falls back to [`crate::Batch`]).
    pub fn run<S>(&self, scenarios: &[Scenario<P::State>], strategy: &S) -> Option<BatchReport>
    where
        S: SlicedStrategy<P::State> + Sync,
        P: Sync,
        P::State: Send + Sync,
    {
        let model = self.protocol.sliced_model(strategy.faulty())?;
        Some(self.run_with_model(scenarios, strategy, &Mutex::new(model)))
    }

    /// [`run`](SlicedBatch::run) against a caller-owned model, so hot loops
    /// (attack objectives) reuse one compiled model — and its program cache
    /// — across thousands of sweeps.
    pub fn run_with_model<S>(
        &self,
        scenarios: &[Scenario<P::State>],
        strategy: &S,
        model: &Mutex<Box<dyn RoundProgramSource + Send>>,
    ) -> BatchReport
    where
        S: SlicedStrategy<P::State> + Sync,
        P: Sync,
        P::State: Send + Sync,
    {
        let confirm = required_confirmation(self.protocol.modulus());
        if self.horizon < confirm {
            let outcomes: Vec<ScenarioOutcome> = scenarios
                .iter()
                .map(|s| ScenarioOutcome {
                    seed: s.seed,
                    result: Err(SimError::HorizonTooShort {
                        horizon: self.horizon,
                        required: confirm,
                    }),
                    fabricated_states: 0,
                    exit_reason: ExitReason::FullHorizon,
                })
                .collect();
            if let Some(obs) = self.obs {
                for outcome in &outcomes {
                    obs.scenario_done(outcome);
                }
            }
            return BatchReport { outcomes };
        }
        if scenarios.is_empty() {
            return BatchReport {
                outcomes: Vec::new(),
            };
        }

        let layout = model.lock().expect("model poisoned").layout();
        let n = layout.n as usize;
        let faulty: Vec<NodeId> = strategy.faulty().to_vec();
        let honest: Vec<u32> = (0..n as u32)
            .filter(|&i| faulty.binary_search(&NodeId::new(i as usize)).is_err())
            .collect();
        assert!(!honest.is_empty(), "sliced sweeps need a correct node");

        {
            let mut m = model.lock().expect("model poisoned");
            for (id, (node, state)) in strategy.packed_bundles().into_iter().enumerate() {
                if m.packed_registered(id as u16) {
                    continue;
                }
                let mut bits = BitVec::new();
                self.protocol.encode_state(node, state, &mut bits);
                m.extend_bundle(node.index() as u32, &mut bits);
                m.register_packed(id as u16, &bits);
            }
        }

        let group_lanes = self.lane_words * 64;
        let group_count = scenarios.len().div_ceil(group_lanes);
        let run_group = |gi: usize| -> Vec<ScenarioOutcome> {
            let outcomes = self.run_group(
                gi, scenarios, strategy, model, &layout, &faulty, &honest, confirm,
            );
            // Metered per lane group as workers finish, so a long sweep's
            // scenarios/s reads live rather than at the join.
            if let Some(obs) = self.obs {
                for outcome in &outcomes {
                    obs.scenario_done(outcome);
                }
            }
            outcomes
        };

        let outcomes = self.schedule_groups(group_count, &run_group);
        BatchReport { outcomes }
    }

    /// Fans group execution out over the persistent [`sc_exec`] pool
    /// (workers claim groups dynamically, so long and short tails
    /// load-balance) and restores input order.
    fn schedule_groups(
        &self,
        group_count: usize,
        run_group: &(impl Fn(usize) -> Vec<ScenarioOutcome> + Sync),
    ) -> Vec<ScenarioOutcome> {
        sc_exec::map(group_count, self.threads, run_group)
            .into_iter()
            .flatten()
            .collect()
    }

    /// Packs, advances and adjudicates one lane group, on the calling
    /// thread's warm [`GroupScratch`].
    #[allow(clippy::too_many_arguments)]
    fn run_group<S>(
        &self,
        gi: usize,
        scenarios: &[Scenario<P::State>],
        strategy: &S,
        model: &Mutex<Box<dyn RoundProgramSource + Send>>,
        layout: &SlicedLayout,
        faulty: &[NodeId],
        honest: &[u32],
        confirm: u64,
    ) -> Vec<ScenarioOutcome>
    where
        S: SlicedStrategy<P::State>,
    {
        GROUP_SCRATCH.with(GroupScratch::new, |scr| {
            self.run_group_with(
                scr, gi, scenarios, strategy, model, layout, faulty, honest, confirm,
            )
        })
    }

    /// [`run_group`](SlicedBatch::run_group)'s body, against explicit
    /// scratch buffers.
    #[allow(clippy::too_many_arguments)]
    fn run_group_with<S>(
        &self,
        scr: &mut GroupScratch,
        gi: usize,
        scenarios: &[Scenario<P::State>],
        strategy: &S,
        model: &Mutex<Box<dyn RoundProgramSource + Send>>,
        layout: &SlicedLayout,
        faulty: &[NodeId],
        honest: &[u32],
        confirm: u64,
    ) -> Vec<ScenarioOutcome>
    where
        S: SlicedStrategy<P::State>,
    {
        let group_lanes = self.lane_words * 64;
        let start = gi * group_lanes;
        let end = (start + group_lanes).min(scenarios.len());
        let active = end - start;
        let n = layout.n as usize;
        scr.reshape(
            layout.total_planes() as usize,
            self.lane_words,
            faulty.len(),
            n,
        );

        {
            let m = model.lock().expect("model poisoned");
            let mut bits = BitVec::new();
            for (l, scenario) in scenarios[start..end].iter().enumerate() {
                let states: Vec<P::State> = match &scenario.init {
                    Some(states) => states.clone(),
                    None => {
                        // Mirror `Simulation::new`: one SmallRng per seed,
                        // nodes sampled in id order.
                        let mut rng = SmallRng::seed_from_u64(scenario.seed);
                        (0..n)
                            .map(|i| self.protocol.random_state(NodeId::new(i), &mut rng))
                            .collect()
                    }
                };
                for (i, state) in states.iter().enumerate() {
                    bits.clear();
                    self.protocol.encode_state(NodeId::new(i), state, &mut bits);
                    m.extend_bundle(i as u32, &mut bits);
                    scr.cur
                        .pack_lane(l, layout.node_base(i as u32) as usize, &bits);
                }
            }
        }

        scr.detectors
            .extend((0..active).map(|_| OnlineDetector::new(self.protocol.modulus())));
        observe_group(
            &scr.cur,
            layout,
            honest,
            active,
            &mut scr.detectors,
            &mut scr.agree,
        );

        let max_lag = strategy.max_lag();
        for round in 0..self.horizon {
            strategy.faces(round, n, &mut scr.faces);
            canonicalize_faces(&mut scr.faces, round, max_lag, faulty, n);
            let program = model
                .lock()
                .expect("model poisoned")
                .round_program(&scr.faces);
            // Planes no Store covers (faulty bundles) carry over unchanged.
            scr.next.copy_from(&scr.cur);
            let spaces = ExecSpaces {
                cur: &scr.cur,
                ring: &scr.ring,
            };
            program.exec(&spaces, &mut scr.next, &mut scr.exec);
            observe_group(
                &scr.next,
                layout,
                honest,
                active,
                &mut scr.detectors,
                &mut scr.agree,
            );
            if max_lag > 0 {
                if scr.ring.len() < max_lag {
                    let entry = match scr.spare.pop() {
                        Some(mut buf) => {
                            buf.copy_from(&scr.cur);
                            buf
                        }
                        None => scr.cur.clone(),
                    };
                    scr.ring.insert(0, entry);
                } else {
                    scr.ring.rotate_right(1);
                    scr.ring[0].copy_from(&scr.cur);
                }
            }
            std::mem::swap(&mut scr.cur, &mut scr.next);
        }

        scenarios[start..end]
            .iter()
            .zip(scr.detectors.drain(..))
            .map(|(scenario, detector)| ScenarioOutcome {
                seed: scenario.seed,
                result: detector.finish(confirm),
                fabricated_states: 0,
                exit_reason: ExitReason::FullHorizon,
            })
            .collect()
    }
}

/// Reusable per-worker buffers for [`SlicedBatch::run_group`] — the plane
/// arenas, replay ring and face table every group would otherwise allocate
/// from cold. Parked per OS thread in [`GROUP_SCRATCH`], so hot callers
/// (attack objectives sweep thousands of scripts through one `SlicedBatch`
/// shape) reuse warm allocations across calls.
struct GroupScratch {
    /// Current / next state arenas (`total_planes × lane_words`).
    cur: PlaneBuf,
    next: PlaneBuf,
    /// Replay ring, rebuilt per group exactly as a cold run would (one
    /// entry per executed round up to `max_lag`, so clamped lags never
    /// read a stale buffer); `spare` parks its buffers between groups.
    ring: Vec<PlaneBuf>,
    spare: Vec<PlaneBuf>,
    detectors: Vec<OnlineDetector>,
    agree: Vec<u64>,
    faces: RoundFaces,
    /// `Program::exec`'s op arena.
    exec: Vec<u64>,
}

impl GroupScratch {
    fn new() -> GroupScratch {
        GroupScratch {
            cur: PlaneBuf::new(0, 1),
            next: PlaneBuf::new(0, 1),
            ring: Vec::new(),
            spare: Vec::new(),
            detectors: Vec::new(),
            agree: Vec::new(),
            faces: RoundFaces::default(),
            exec: Vec::new(),
        }
    }

    /// Re-shapes the buffers for one group: zeroes what survives a
    /// matching shape, drops and rebuilds what does not. After this the
    /// scratch is indistinguishable from freshly allocated buffers.
    fn reshape(&mut self, total_planes: usize, lw: usize, faulty: usize, n: usize) {
        // Ring buffers share the state arenas' shape; park them first so
        // a matching reshape reuses them.
        self.spare.append(&mut self.ring);
        if self.cur.planes() != total_planes || self.cur.lane_words() != lw {
            self.cur = PlaneBuf::new(total_planes, lw);
            self.next = PlaneBuf::new(total_planes, lw);
            self.spare.clear();
        } else {
            // `next` is fully overwritten by `copy_from` each round and
            // ring entries on insertion; only `cur` is packed additively.
            self.cur.clear();
        }
        self.detectors.clear();
        self.faces = RoundFaces::new(faulty, n);
    }
}

/// Per-OS-thread [`GroupScratch`] slots, warm across `SlicedBatch` runs.
static GROUP_SCRATCH: sc_exec::WorkerScratch<GroupScratch> = sc_exec::WorkerScratch::new();

/// Clamps ring lags to what the execution has actually produced (the scalar
/// replay/stale semantics: effective lag `min(lag, round)`), rewrites
/// zero-lag rings to plain echoes, and blanks rows aimed at faulty
/// receivers — making equal-in-effect face tables equal as cache keys.
fn canonicalize_faces(
    faces: &mut RoundFaces,
    round: u64,
    max_lag: usize,
    faulty: &[NodeId],
    n: usize,
) {
    for g in 0..faulty.len() {
        for v in 0..n {
            let idx = g * n + v;
            if faulty.binary_search(&NodeId::new(v)).is_ok() {
                faces.rows[idx] = FaceRef::Honest(0);
                continue;
            }
            if let FaceRef::Ring { lag, donor } = faces.rows[idx] {
                let eff = (lag as u64).min(round).min(max_lag as u64) as u8;
                faces.rows[idx] = if eff == 0 {
                    FaceRef::Honest(donor)
                } else {
                    FaceRef::Ring { lag: eff, donor }
                };
            }
        }
    }
}

/// Word-parallel agreement check plus per-lane [`OnlineDetector`] feed —
/// the sliced equivalent of observing
/// [`Simulation::agreed_output_now`](crate::Simulation::agreed_output_now).
fn observe_group(
    arena: &PlaneBuf,
    layout: &SlicedLayout,
    honest: &[u32],
    active: usize,
    detectors: &mut [OnlineDetector],
    agree: &mut Vec<u64>,
) {
    let lw = arena.lane_words();
    let ow = layout.out_bits as usize;
    let out0 = layout.out_base(honest[0]) as usize;
    agree.clear();
    agree.resize(lw, u64::MAX);
    for &h in &honest[1..] {
        let out_h = layout.out_base(h) as usize;
        for (k, word) in agree.iter_mut().enumerate() {
            let mut eq = u64::MAX;
            for i in 0..ow {
                eq &= !(arena.word(out_h + i, k) ^ arena.word(out0 + i, k));
            }
            *word &= eq;
        }
    }
    for (lane, detector) in detectors.iter_mut().enumerate().take(active) {
        let agreed = if (agree[lane / 64] >> (lane % 64)) & 1 == 1 {
            Some(arena.read_value(lane, out0, ow))
        } else {
            None
        };
        detector.observe(agreed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    use sc_protocol::{Op, Space};

    use crate::adversaries;
    use crate::batch::Batch;
    use crate::testing::FollowMax;

    /// Hand-lowered round-program source for [`FollowMax`]: per honest
    /// receiver, `max` over the n faces then `+1 mod c`. Exercises every
    /// face source (current plane, replay ring, packed constant) without
    /// depending on the `sc-core` compiler.
    struct MaxModel {
        n: usize,
        c: u64,
        sb: u16,
        faulty: Vec<NodeId>,
        packed: HashMap<u16, u64>,
        cache: HashMap<RoundFaces, Arc<Program>>,
    }

    impl MaxModel {
        fn layout_of(&self) -> SlicedLayout {
            SlicedLayout {
                n: self.n as u32,
                state_bits: self.sb as u32,
                ext_bits: 0,
                out_bits: self.sb as u32,
            }
        }
    }

    impl RoundProgramSource for MaxModel {
        fn layout(&self) -> SlicedLayout {
            self.layout_of()
        }

        fn extend_bundle(&self, _node: u32, bundle: &mut BitVec) {
            // out field = the state value itself (FollowMax::output is id).
            let v = bundle.reader().read_bits(self.sb as u32).unwrap();
            bundle.push_bits(v, self.sb as u32);
        }

        fn register_packed(&mut self, id: u16, bundle: &BitVec) {
            let v = bundle.reader().read_bits(self.sb as u32).unwrap();
            let prev = self.packed.insert(id, v);
            assert!(prev.is_none_or(|p| p == v), "packed slot re-registered");
        }

        fn round_program(&mut self, faces: &RoundFaces) -> Arc<Program> {
            if let Some(p) = self.cache.get(faces) {
                return p.clone();
            }
            let layout = self.layout_of();
            let sb = self.sb;
            let mut ops = Vec::new();
            let mut top = 0u32;
            let mut alloc = |w: u16| {
                let at = top;
                top += w as u32;
                at
            };
            for v in 0..self.n {
                let g_of = |j: usize| self.faulty.binary_search(&NodeId::new(j)).ok();
                if g_of(v).is_some() {
                    continue;
                }
                let mut operands = Vec::new();
                for j in 0..self.n {
                    let dst = alloc(sb);
                    let op = match g_of(j) {
                        None => Op::Load {
                            dst,
                            space: Space::Cur,
                            off: layout.node_base(j as u32),
                            w: sb,
                        },
                        Some(g) => match faces.face(g, self.n, v) {
                            FaceRef::Honest(d) => Op::Load {
                                dst,
                                space: Space::Cur,
                                off: layout.node_base(d),
                                w: sb,
                            },
                            FaceRef::Ring { lag, donor } => Op::Load {
                                dst,
                                space: Space::Ring(lag),
                                off: layout.node_base(donor),
                                w: sb,
                            },
                            FaceRef::Packed(id) => Op::Const {
                                dst,
                                value: self.packed[&id],
                                w: sb,
                            },
                        },
                    };
                    ops.push(op);
                    operands.push(dst);
                }
                let mut best = operands[0];
                for &x in &operands[1..] {
                    let lt = alloc(1);
                    ops.push(Op::Lt {
                        dst: lt,
                        a: best,
                        aw: sb,
                        b: x,
                        bw: sb,
                    });
                    let m = alloc(sb);
                    ops.push(Op::Mux {
                        dst: m,
                        c: lt,
                        a: x,
                        b: best,
                        w: sb,
                    });
                    best = m;
                }
                let one = alloc(1);
                ops.push(Op::Const {
                    dst: one,
                    value: 1,
                    w: 1,
                });
                let t = alloc(sb + 1);
                ops.push(Op::Add {
                    dst: t,
                    a: best,
                    aw: sb,
                    b: one,
                    bw: 1,
                    w: sb + 1,
                });
                let modulus = alloc(sb + 1);
                ops.push(Op::Const {
                    dst: modulus,
                    value: self.c,
                    w: sb + 1,
                });
                let wrap = alloc(1);
                ops.push(Op::Eq {
                    dst: wrap,
                    a: t,
                    aw: sb + 1,
                    b: modulus,
                    bw: sb + 1,
                });
                let zero = alloc(sb);
                ops.push(Op::Const {
                    dst: zero,
                    value: 0,
                    w: sb,
                });
                let res = alloc(sb);
                ops.push(Op::Mux {
                    dst: res,
                    c: wrap,
                    a: zero,
                    b: t + 1, // low sb planes of the (sb+1)-wide sum
                    w: sb,
                });
                ops.push(Op::Store {
                    src: res,
                    off: layout.node_base(v as u32),
                    w: sb,
                });
                ops.push(Op::Store {
                    src: res,
                    off: layout.out_base(v as u32),
                    w: sb,
                });
            }
            let program = Arc::new(Program {
                ops,
                arena_planes: top,
            });
            self.cache.insert(faces.clone(), program.clone());
            program
        }
    }

    impl SlicedProtocol for FollowMax {
        fn sliced_model(&self, faulty: &[NodeId]) -> Option<Box<dyn RoundProgramSource + Send>> {
            Some(Box::new(MaxModel {
                n: self.n,
                c: self.c,
                sb: sc_protocol::bits_for(self.c) as u16,
                faulty: faulty.to_vec(),
                packed: HashMap::new(),
                cache: HashMap::new(),
            }))
        }
    }

    /// A lane-uniform fixture strategy: every round, the `g`-th faulty node
    /// shows receiver `v` the face `rows[g * n + v]`, and packed id `i`
    /// stands for `packed[i]`.
    struct Fixture {
        faulty: Vec<NodeId>,
        rows: Vec<FaceRef>,
        max_lag: usize,
        packed: Vec<(NodeId, u64)>,
    }

    impl Fixture {
        /// The faces of [`adversaries::replay`]: receiver `v` sees the
        /// `v mod |honest|`-th honest node as of `delay − 1` rounds ago.
        fn replay(n: usize, faulty: &[usize], delay: usize) -> Fixture {
            let faulty = adversaries::normalize_faults(faulty.iter().copied());
            let honest: Vec<u32> = (0..n as u32)
                .filter(|&v| faulty.binary_search(&NodeId::new(v as usize)).is_err())
                .collect();
            let lag = (delay - 1) as u8;
            let row: Vec<FaceRef> = (0..n)
                .map(|v| {
                    let donor = honest[v % honest.len()];
                    if lag == 0 {
                        FaceRef::Honest(donor)
                    } else {
                        FaceRef::Ring { lag, donor }
                    }
                })
                .collect();
            Fixture {
                rows: row.repeat(faulty.len()),
                faulty,
                max_lag: delay - 1,
                packed: Vec::new(),
            }
        }

        /// The faces of [`adversaries::fixed`]: every faulty node shows
        /// every receiver `state`, one packed bundle per sender.
        fn fixed(n: usize, faulty: &[usize], state: u64) -> Fixture {
            let faulty = adversaries::normalize_faults(faulty.iter().copied());
            let rows = (0..faulty.len())
                .flat_map(|g| vec![FaceRef::Packed(g as u16); n])
                .collect();
            Fixture {
                rows,
                max_lag: 0,
                packed: faulty.iter().map(|&id| (id, state)).collect(),
                faulty,
            }
        }
    }

    impl SlicedStrategy<u64> for Fixture {
        fn faulty(&self) -> &[NodeId] {
            &self.faulty
        }

        fn max_lag(&self) -> usize {
            self.max_lag
        }

        fn packed_bundles(&self) -> Vec<(NodeId, &u64)> {
            self.packed.iter().map(|(id, state)| (*id, state)).collect()
        }

        fn faces(&self, _round: u64, _n: usize, faces: &mut RoundFaces) {
            faces.rows.copy_from_slice(&self.rows);
        }
    }

    /// Seed + stabilisation verdict, the cross-engine comparable part of an
    /// outcome (the fabrication/exit ledgers are engine-specific).
    fn verdicts(report: &BatchReport) -> Vec<(u64, &Result<crate::StabilizationReport, SimError>)> {
        report
            .outcomes
            .iter()
            .map(|o| (o.seed, &o.result))
            .collect()
    }

    #[test]
    fn uniform_packed_faces_match_scalar_fixed() {
        let p = FollowMax { n: 5, c: 8 };
        let scenarios = Scenario::seeds(0..150);
        for state in [0u64, 5] {
            let scalar =
                Batch::new(&p, 64).run(&scenarios, |_| adversaries::fixed([1usize, 3], state));
            let sliced = SlicedBatch::new(&p, 64)
                .lane_words(1)
                .run(&scenarios, &Fixture::fixed(p.n, &[1, 3], state))
                .unwrap();
            assert_eq!(verdicts(&scalar), verdicts(&sliced), "state {state}");
        }
    }

    #[test]
    fn explicit_initial_configurations_are_honoured() {
        let p = FollowMax { n: 4, c: 8 };
        let scenarios: Vec<Scenario<u64>> = (0..70)
            .map(|seed| Scenario::with_states(seed, vec![seed % 8, (seed + 1) % 8, 3, 5]))
            .collect();
        let scalar = Batch::new(&p, 64).run(&scenarios, |_| adversaries::replay::<u64>([0], 3));
        let sliced = SlicedBatch::new(&p, 64)
            .lane_words(1)
            .run(&scenarios, &Fixture::replay(p.n, &[0], 3))
            .unwrap();
        assert_eq!(verdicts(&scalar), verdicts(&sliced));
    }

    #[test]
    fn verdicts_invariant_under_threads_and_lane_words() {
        let p = FollowMax { n: 5, c: 8 };
        let scenarios = Scenario::seeds(0..200);
        let strategy = Fixture::replay(p.n, &[4], 3);
        let base = SlicedBatch::new(&p, 64)
            .threads(1)
            .lane_words(1)
            .run(&scenarios, &strategy)
            .unwrap();
        for (threads, lane_words) in [(4, 1), (1, 2), (3, 2)] {
            let other = SlicedBatch::new(&p, 64)
                .threads(threads)
                .lane_words(lane_words)
                .run(&scenarios, &strategy)
                .unwrap();
            assert_eq!(
                verdicts(&base),
                verdicts(&other),
                "threads {threads}, lane_words {lane_words}"
            );
        }
    }

    #[test]
    fn short_horizon_fails_every_lane_up_front() {
        let p = FollowMax { n: 3, c: 4 };
        let scenarios = Scenario::seeds(0..5);
        let strategy = Fixture::replay(p.n, &[1], 2);
        let report = SlicedBatch::new(&p, 4).run(&scenarios, &strategy).unwrap();
        for outcome in &report.outcomes {
            assert!(matches!(
                outcome.result,
                Err(SimError::HorizonTooShort {
                    horizon: 4,
                    required: 8
                })
            ));
        }
    }
}
