//! Bit-sliced state planes and the word-op program they are evaluated with.
//!
//! The scalar engine steps one scenario at a time; this module stores
//! scenario state *column-wise* instead: one `u64` word per state bit holds
//! that bit for 64 scenarios ("lanes") at once, and a protocol transition
//! lowered to word ops (see `sc-core`'s DAG builder) advances all lanes with
//! a single pass of AND/OR/XOR/MUX/adder networks. The layout follows the
//! codec in [`crate::BitVec`]: bit `i` of an encoded state maps to plane `i`
//! of its bundle, so plane order is MSB-first exactly like `push_bits`.
//!
//! The pieces:
//!
//! * [`PlaneBuf`] — a `planes × lane_words` transposed arena with
//!   pack/unpack converters from the codec bit strings.
//! * [`Op`] / [`Program`] — a flat bytecode of word operations over plane
//!   ranges, executed by [`Program::exec`] against an [`ExecSpaces`] bundle
//!   of input arenas (the current state and the replay ring).
//! * [`FaceRef`] / [`RoundFaces`] — how one round's adversarial faces are
//!   named when compiling a round program: each (faulty sender, receiver)
//!   pair resolves to an honest broadcast, a ring lag, or a lane-uniform
//!   packed bundle the compiler folds into constants.
//! * [`SlicedLayout`] — the per-node bundle layout (state, derived "ext"
//!   planes, output field) shared between the lowering and the engine.

use crate::bits::BitVec;

/// Transposed scenario state: `planes × lane_words` words of 64 lanes each.
///
/// Plane `p`, lane `ℓ` lives at bit `ℓ % 64` of word `ℓ / 64` of plane `p`.
/// Plane indices are MSB-first per field, matching [`BitVec::push_bits`]:
/// packing an encoded state at `base_plane` puts codec bit `i` into plane
/// `base_plane + i`, so the *first* plane of a `w`-bit field is the value's
/// most significant bit.
///
/// # Example
///
/// ```
/// use sc_protocol::{BitVec, PlaneBuf};
///
/// let mut buf = PlaneBuf::new(4, 2); // 4 planes, 128 lanes
/// let mut bits = BitVec::new();
/// bits.push_bits(0b1011, 4);
/// buf.pack_lane(70, 0, &bits);
/// assert_eq!(buf.read_value(70, 0, 4), 0b1011);
/// assert_eq!(buf.read_value(69, 0, 4), 0);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PlaneBuf {
    planes: usize,
    lane_words: usize,
    data: Vec<u64>,
}

impl PlaneBuf {
    /// Creates a zeroed arena of `planes` bit planes spanning
    /// `lane_words * 64` lanes.
    pub fn new(planes: usize, lane_words: usize) -> Self {
        PlaneBuf {
            planes,
            lane_words,
            data: vec![0; planes * lane_words],
        }
    }

    /// Number of bit planes.
    pub fn planes(&self) -> usize {
        self.planes
    }

    /// Words per plane (64 lanes each).
    pub fn lane_words(&self) -> usize {
        self.lane_words
    }

    /// Number of lanes (`lane_words * 64`).
    pub fn lanes(&self) -> usize {
        self.lane_words * 64
    }

    /// The word holding lanes `64k..64k+64` of plane `p`.
    #[inline]
    pub fn word(&self, plane: usize, k: usize) -> u64 {
        debug_assert!(plane < self.planes && k < self.lane_words);
        self.data[plane * self.lane_words + k]
    }

    /// Mutable access to one plane word.
    #[inline]
    pub fn word_mut(&mut self, plane: usize, k: usize) -> &mut u64 {
        debug_assert!(plane < self.planes && k < self.lane_words);
        &mut self.data[plane * self.lane_words + k]
    }

    /// One full plane as a word slice.
    pub fn plane(&self, plane: usize) -> &[u64] {
        &self.data[plane * self.lane_words..(plane + 1) * self.lane_words]
    }

    /// Zeroes every plane, keeping the allocation.
    pub fn clear(&mut self) {
        self.data.iter_mut().for_each(|w| *w = 0);
    }

    /// Reads the bit of `lane` in `plane`.
    #[inline]
    pub fn lane_bit(&self, plane: usize, lane: usize) -> bool {
        (self.word(plane, lane / 64) >> (lane % 64)) & 1 == 1
    }

    /// Sets or clears the bit of `lane` in `plane`.
    #[inline]
    pub fn set_lane_bit(&mut self, plane: usize, lane: usize, bit: bool) {
        let mask = 1u64 << (lane % 64);
        let w = self.word_mut(plane, lane / 64);
        if bit {
            *w |= mask;
        } else {
            *w &= !mask;
        }
    }

    /// Transposes one codec bit string into this arena: codec bit `i` of
    /// `bits` lands in plane `base_plane + i` at `lane`.
    ///
    /// # Panics
    ///
    /// Panics if the planes or the lane are out of range.
    pub fn pack_lane(&mut self, lane: usize, base_plane: usize, bits: &BitVec) {
        assert!(lane < self.lanes(), "lane {lane} out of range");
        assert!(
            base_plane + bits.len() <= self.planes,
            "field of {} bits at plane {base_plane} exceeds {} planes",
            bits.len(),
            self.planes
        );
        for i in 0..bits.len() {
            self.set_lane_bit(base_plane + i, lane, bits.bit(i));
        }
    }

    /// Transposes `width` planes of one lane back into a codec bit string,
    /// appending to `out` (plane `base_plane + i` becomes the `i`-th pushed
    /// bit, restoring MSB-first field order).
    pub fn unpack_lane(&self, lane: usize, base_plane: usize, width: usize, out: &mut BitVec) {
        for i in 0..width {
            out.push_bit(self.lane_bit(base_plane + i, lane));
        }
    }

    /// Reads a `width ≤ 64`-bit field of one lane as an integer, treating
    /// `base_plane` as the most significant bit (codec order).
    pub fn read_value(&self, lane: usize, base_plane: usize, width: usize) -> u64 {
        assert!(width <= 64, "width {width} exceeds u64");
        let mut v = 0u64;
        for i in 0..width {
            v = (v << 1) | u64::from(self.lane_bit(base_plane + i, lane));
        }
        v
    }

    /// Broadcasts one codec bit string into **all** lanes: codec bit `i`
    /// sets plane `base_plane + i` to all-ones or all-zeroes.
    pub fn fill_uniform(&mut self, base_plane: usize, bits: &BitVec) {
        assert!(base_plane + bits.len() <= self.planes);
        for i in 0..bits.len() {
            let fill = if bits.bit(i) { u64::MAX } else { 0 };
            let p = base_plane + i;
            self.data[p * self.lane_words..(p + 1) * self.lane_words]
                .iter_mut()
                .for_each(|w| *w = fill);
        }
    }

    /// Copies the whole arena of `other` over this one.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn copy_from(&mut self, other: &PlaneBuf) {
        assert_eq!(self.planes, other.planes);
        assert_eq!(self.lane_words, other.lane_words);
        self.data.copy_from_slice(&other.data);
    }
}

/// Which input arena a [`Op::Load`] reads from. Both hold every node's
/// bundle at the [`SlicedLayout`] offsets; lane-uniform inputs never need
/// an arena, they compile to [`Op::Const`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Space {
    /// The current-round state arena.
    Cur,
    /// The replay ring: `Ring(lag)` is the state arena `lag ≥ 1` rounds ago.
    Ring(u8),
}

/// One word operation over plane ranges of the scratch arena.
///
/// All `dst`/`a`/`b`/`c` fields are plane offsets into the program's scratch
/// arena; widths count planes. Multi-plane operands are MSB-first (plane
/// `a + 0` is the most significant bit), matching [`PlaneBuf`] packing.
/// Comparison and arithmetic ops carry per-operand widths and zero-extend
/// the shorter operand.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Op {
    /// `dst[0..w] = space[off..off+w]`.
    Load {
        /// Destination plane offset.
        dst: u32,
        /// Source arena.
        space: Space,
        /// Source plane offset.
        off: u32,
        /// Planes copied.
        w: u16,
    },
    /// `dst[0..w] = value` broadcast to every lane (plane `dst` holds bit
    /// `w-1` of `value`).
    Const {
        /// Destination plane offset.
        dst: u32,
        /// Lane-uniform value.
        value: u64,
        /// Field width in planes.
        w: u16,
    },
    /// `dst = !a`, plane-wise over `w` planes.
    Not {
        /// Destination plane offset.
        dst: u32,
        /// Operand plane offset.
        a: u32,
        /// Field width in planes.
        w: u16,
    },
    /// `dst = a & b`, plane-wise over `w` planes.
    And {
        /// Destination plane offset.
        dst: u32,
        /// Left operand plane offset.
        a: u32,
        /// Right operand plane offset.
        b: u32,
        /// Field width in planes.
        w: u16,
    },
    /// `dst = a | b`, plane-wise over `w` planes.
    Or {
        /// Destination plane offset.
        dst: u32,
        /// Left operand plane offset.
        a: u32,
        /// Right operand plane offset.
        b: u32,
        /// Field width in planes.
        w: u16,
    },
    /// `dst = a ^ b`, plane-wise over `w` planes.
    Xor {
        /// Destination plane offset.
        dst: u32,
        /// Left operand plane offset.
        a: u32,
        /// Right operand plane offset.
        b: u32,
        /// Field width in planes.
        w: u16,
    },
    /// `dst = c ? a : b` per lane; `c` is a single plane.
    Mux {
        /// Destination plane offset.
        dst: u32,
        /// Single-plane lane condition.
        c: u32,
        /// Taken when the condition bit is set.
        a: u32,
        /// Taken when the condition bit is clear.
        b: u32,
        /// Field width in planes.
        w: u16,
    },
    /// Single-plane `dst = (a == b)` with zero-extension of the narrower
    /// operand.
    Eq {
        /// Destination plane offset (1 plane).
        dst: u32,
        /// Left operand plane offset.
        a: u32,
        /// Left operand width.
        aw: u16,
        /// Right operand plane offset.
        b: u32,
        /// Right operand width.
        bw: u16,
    },
    /// Single-plane unsigned `dst = (a < b)` with zero-extension.
    Lt {
        /// Destination plane offset (1 plane).
        dst: u32,
        /// Left operand plane offset.
        a: u32,
        /// Left operand width.
        aw: u16,
        /// Right operand plane offset.
        b: u32,
        /// Right operand width.
        bw: u16,
    },
    /// `dst = (a + b) mod 2^w`, a ripple-carry adder over `w` result planes.
    Add {
        /// Destination plane offset.
        dst: u32,
        /// Left operand plane offset.
        a: u32,
        /// Left operand width.
        aw: u16,
        /// Right operand plane offset.
        b: u32,
        /// Right operand width.
        bw: u16,
        /// Result width in planes.
        w: u16,
    },
    /// `dst = (a - b) mod 2^w` (two's complement: `a + !b + 1`).
    Sub {
        /// Destination plane offset.
        dst: u32,
        /// Left operand plane offset.
        a: u32,
        /// Left operand width.
        aw: u16,
        /// Right operand plane offset.
        b: u32,
        /// Right operand width.
        bw: u16,
        /// Result width in planes.
        w: u16,
    },
    /// `dst[0..w] = a[0..w]` within the scratch arena.
    Copy {
        /// Destination plane offset.
        dst: u32,
        /// Source plane offset.
        a: u32,
        /// Planes copied.
        w: u16,
    },
    /// Writes `src[0..w]` of the scratch arena into the *next-state* arena
    /// at plane `off`.
    Store {
        /// Source plane offset in the scratch arena.
        src: u32,
        /// Destination plane offset in the next-state arena.
        off: u32,
        /// Planes written.
        w: u16,
    },
}

/// The read-only input arenas one round program executes against, one per
/// [`Space`].
pub struct ExecSpaces<'a> {
    /// Current-round state (all node bundles): [`Space::Cur`].
    pub cur: &'a PlaneBuf,
    /// Replay ring: `ring[lag - 1]` is the state `lag` rounds ago, read by
    /// [`Space::Ring`]. May be shorter than the deepest lag only if no op
    /// references deeper lags.
    pub ring: &'a [PlaneBuf],
}

/// A compiled round program: a flat op list over a scratch arena.
///
/// Produced once per distinct face pattern by the lowering in `sc-core` and
/// executed every round by the sliced engine. Execution is deterministic and
/// branch-free: every op touches whole plane words, so one pass advances
/// `64 × lane_words` scenarios.
#[derive(Clone, Debug, Default)]
pub struct Program {
    /// The operations, in execution order (already topologically sorted).
    pub ops: Vec<Op>,
    /// Scratch arena height in planes.
    pub arena_planes: u32,
}

impl Program {
    /// Runs the program: reads `spaces`, writes stored fields into `next`.
    ///
    /// `scratch` is resized to the program's arena and reused across calls.
    /// Planes of `next` that no [`Op::Store`] covers are left untouched, so
    /// the engine pre-copies `cur` into `next` for carried-over planes (the
    /// lowering stores every live plane, making that copy belt-and-braces).
    pub fn exec(&self, spaces: &ExecSpaces<'_>, next: &mut PlaneBuf, scratch: &mut Vec<u64>) {
        let lw = spaces.cur.lane_words();
        debug_assert_eq!(next.lane_words(), lw);
        scratch.clear();
        scratch.resize(self.arena_planes as usize * lw, 0);
        if lw == 1 {
            // The dominant attack-sweep shape (≤ 64 scenarios): one word
            // per plane, so the plane arithmetic collapses to direct
            // indexing and the per-word inner loops disappear.
            return self.exec_single(spaces, next, scratch);
        }
        let idx = |p: u32, k: usize| p as usize * lw + k;
        for op in &self.ops {
            match *op {
                Op::Load { dst, space, off, w } => {
                    let src = match space {
                        Space::Cur => spaces.cur,
                        Space::Ring(lag) => &spaces.ring[lag as usize - 1],
                    };
                    for i in 0..w as u32 {
                        for k in 0..lw {
                            scratch[idx(dst + i, k)] = src.word((off + i) as usize, k);
                        }
                    }
                }
                Op::Const { dst, value, w } => {
                    for i in 0..w as u32 {
                        let bit = (value >> (w as u32 - 1 - i)) & 1;
                        let fill = if bit == 1 { u64::MAX } else { 0 };
                        for k in 0..lw {
                            scratch[idx(dst + i, k)] = fill;
                        }
                    }
                }
                Op::Not { dst, a, w } => {
                    for i in 0..w as u32 {
                        for k in 0..lw {
                            scratch[idx(dst + i, k)] = !scratch[idx(a + i, k)];
                        }
                    }
                }
                Op::And { dst, a, b, w } => {
                    for i in 0..w as u32 {
                        for k in 0..lw {
                            scratch[idx(dst + i, k)] =
                                scratch[idx(a + i, k)] & scratch[idx(b + i, k)];
                        }
                    }
                }
                Op::Or { dst, a, b, w } => {
                    for i in 0..w as u32 {
                        for k in 0..lw {
                            scratch[idx(dst + i, k)] =
                                scratch[idx(a + i, k)] | scratch[idx(b + i, k)];
                        }
                    }
                }
                Op::Xor { dst, a, b, w } => {
                    for i in 0..w as u32 {
                        for k in 0..lw {
                            scratch[idx(dst + i, k)] =
                                scratch[idx(a + i, k)] ^ scratch[idx(b + i, k)];
                        }
                    }
                }
                Op::Mux { dst, c, a, b, w } => {
                    for i in 0..w as u32 {
                        for k in 0..lw {
                            let sel = scratch[idx(c, k)];
                            scratch[idx(dst + i, k)] =
                                (sel & scratch[idx(a + i, k)]) | (!sel & scratch[idx(b + i, k)]);
                        }
                    }
                }
                Op::Eq { dst, a, aw, b, bw } => {
                    let nbits = aw.max(bw) as u32;
                    for k in 0..lw {
                        let mut acc = u64::MAX;
                        for j in 0..nbits {
                            let av = operand_bit(scratch, &idx, a, aw, j, k);
                            let bv = operand_bit(scratch, &idx, b, bw, j, k);
                            acc &= !(av ^ bv);
                        }
                        scratch[idx(dst, k)] = acc;
                    }
                }
                Op::Lt { dst, a, aw, b, bw } => {
                    let nbits = aw.max(bw) as u32;
                    for k in 0..lw {
                        let mut lt = 0u64;
                        let mut eqm = u64::MAX;
                        // MSB-first scan: a < b at the first differing bit.
                        for j in (0..nbits).rev() {
                            let av = operand_bit(scratch, &idx, a, aw, j, k);
                            let bv = operand_bit(scratch, &idx, b, bw, j, k);
                            lt |= eqm & !av & bv;
                            eqm &= !(av ^ bv);
                        }
                        scratch[idx(dst, k)] = lt;
                    }
                }
                Op::Add {
                    dst,
                    a,
                    aw,
                    b,
                    bw,
                    w,
                } => {
                    for k in 0..lw {
                        let mut carry = 0u64;
                        // LSB-first ripple over the result planes.
                        for j in 0..w as u32 {
                            let av = operand_bit(scratch, &idx, a, aw, j, k);
                            let bv = operand_bit(scratch, &idx, b, bw, j, k);
                            let sum = av ^ bv ^ carry;
                            carry = (av & bv) | (carry & (av ^ bv));
                            scratch[idx(dst + (w as u32 - 1 - j), k)] = sum;
                        }
                    }
                }
                Op::Sub {
                    dst,
                    a,
                    aw,
                    b,
                    bw,
                    w,
                } => {
                    for k in 0..lw {
                        let mut carry = u64::MAX; // the +1 of two's complement
                        for j in 0..w as u32 {
                            let av = operand_bit(scratch, &idx, a, aw, j, k);
                            let bv = !operand_bit(scratch, &idx, b, bw, j, k);
                            let sum = av ^ bv ^ carry;
                            carry = (av & bv) | (carry & (av ^ bv));
                            scratch[idx(dst + (w as u32 - 1 - j), k)] = sum;
                        }
                    }
                }
                Op::Copy { dst, a, w } => {
                    for i in 0..w as u32 {
                        for k in 0..lw {
                            scratch[idx(dst + i, k)] = scratch[idx(a + i, k)];
                        }
                    }
                }
                Op::Store { src, off, w } => {
                    for i in 0..w as u32 {
                        for k in 0..lw {
                            *next.word_mut((off + i) as usize, k) = scratch[idx(src + i, k)];
                        }
                    }
                }
            }
        }
    }

    /// [`Program::exec`] specialised to `lane_words == 1`: every plane is
    /// one u64, operands index the scratch arena directly, and the
    /// bitwise ops run over bounds-check-free slice windows. The windows
    /// are sound because the arena is SSA and placed in topological
    /// order: every operand plane lies strictly below `dst`, so
    /// `split_at_mut(dst)` separates reads from writes.
    fn exec_single(&self, spaces: &ExecSpaces<'_>, next: &mut PlaneBuf, scratch: &mut [u64]) {
        /// Value bit `j` (LSB-indexed) of the MSB-first operand at `a`,
        /// zero-extended past its width.
        #[inline]
        fn bit1(lo: &[u64], a: u32, aw: u16, j: u32) -> u64 {
            if j < aw as u32 {
                lo[(a + (aw as u32 - 1 - j)) as usize]
            } else {
                0
            }
        }
        /// Operand window `a .. a + w` below the split point.
        #[inline]
        fn win(lo: &[u64], a: u32, w: u16) -> &[u64] {
            &lo[a as usize..a as usize + w as usize]
        }
        for op in &self.ops {
            match *op {
                Op::Load { dst, space, off, w } => {
                    let src = match space {
                        Space::Cur => spaces.cur,
                        Space::Ring(lag) => &spaces.ring[lag as usize - 1],
                    };
                    for i in 0..w as u32 {
                        scratch[(dst + i) as usize] = src.word((off + i) as usize, 0);
                    }
                }
                Op::Const { dst, value, w } => {
                    for i in 0..w as u32 {
                        let bit = (value >> (w as u32 - 1 - i)) & 1;
                        scratch[(dst + i) as usize] = if bit == 1 { u64::MAX } else { 0 };
                    }
                }
                Op::Not { dst, a, w } => {
                    let (lo, hi) = scratch.split_at_mut(dst as usize);
                    for (d, &x) in hi[..w as usize].iter_mut().zip(win(lo, a, w)) {
                        *d = !x;
                    }
                }
                Op::And { dst, a, b, w } => {
                    let (lo, hi) = scratch.split_at_mut(dst as usize);
                    for ((d, &x), &y) in hi[..w as usize]
                        .iter_mut()
                        .zip(win(lo, a, w))
                        .zip(win(lo, b, w))
                    {
                        *d = x & y;
                    }
                }
                Op::Or { dst, a, b, w } => {
                    let (lo, hi) = scratch.split_at_mut(dst as usize);
                    for ((d, &x), &y) in hi[..w as usize]
                        .iter_mut()
                        .zip(win(lo, a, w))
                        .zip(win(lo, b, w))
                    {
                        *d = x | y;
                    }
                }
                Op::Xor { dst, a, b, w } => {
                    let (lo, hi) = scratch.split_at_mut(dst as usize);
                    for ((d, &x), &y) in hi[..w as usize]
                        .iter_mut()
                        .zip(win(lo, a, w))
                        .zip(win(lo, b, w))
                    {
                        *d = x ^ y;
                    }
                }
                Op::Mux { dst, c, a, b, w } => {
                    let (lo, hi) = scratch.split_at_mut(dst as usize);
                    let sel = lo[c as usize];
                    for ((d, &x), &y) in hi[..w as usize]
                        .iter_mut()
                        .zip(win(lo, a, w))
                        .zip(win(lo, b, w))
                    {
                        *d = (sel & x) | (!sel & y);
                    }
                }
                Op::Eq { dst, a, aw, b, bw } => {
                    let mut acc = u64::MAX;
                    if aw == bw {
                        for (&x, &y) in win(scratch, a, aw).iter().zip(win(scratch, b, bw)) {
                            acc &= !(x ^ y);
                        }
                    } else {
                        for j in 0..aw.max(bw) as u32 {
                            acc &= !(bit1(scratch, a, aw, j) ^ bit1(scratch, b, bw, j));
                        }
                    }
                    scratch[dst as usize] = acc;
                }
                Op::Lt { dst, a, aw, b, bw } => {
                    let mut lt = 0u64;
                    let mut eqm = u64::MAX;
                    if aw == bw {
                        // MSB-first scan: a < b at the first differing bit.
                        for (&x, &y) in win(scratch, a, aw).iter().zip(win(scratch, b, bw)) {
                            lt |= eqm & !x & y;
                            eqm &= !(x ^ y);
                        }
                    } else {
                        for j in (0..aw.max(bw) as u32).rev() {
                            let av = bit1(scratch, a, aw, j);
                            let bv = bit1(scratch, b, bw, j);
                            lt |= eqm & !av & bv;
                            eqm &= !(av ^ bv);
                        }
                    }
                    scratch[dst as usize] = lt;
                }
                Op::Add {
                    dst,
                    a,
                    aw,
                    b,
                    bw,
                    w,
                } => {
                    let (lo, hi) = scratch.split_at_mut(dst as usize);
                    let (a, b) = (a as usize, b as usize);
                    let (w, aw, bw) = (w as usize, aw as usize, bw as usize);
                    let hi = &mut hi[..w];
                    // LSB-first ripple. While both operands have real bits
                    // the loop runs over plain reversed slices — no
                    // zero-extension checks, no bounds checks.
                    let m = w.min(aw).min(bw);
                    let mut carry = 0u64;
                    let xs = lo[a + aw - m..a + aw].iter().rev();
                    let ys = lo[b + bw - m..b + bw].iter().rev();
                    for ((d, &x), &y) in hi.iter_mut().rev().zip(xs).zip(ys) {
                        *d = x ^ y ^ carry;
                        carry = (x & y) | (carry & (x ^ y));
                    }
                    // Tail: at least one operand is exhausted (reads 0).
                    for j in m..w {
                        let x = if j < aw { lo[a + aw - 1 - j] } else { 0 };
                        let y = if j < bw { lo[b + bw - 1 - j] } else { 0 };
                        hi[w - 1 - j] = x ^ y ^ carry;
                        carry = (x & y) | (carry & (x ^ y));
                    }
                }
                Op::Sub {
                    dst,
                    a,
                    aw,
                    b,
                    bw,
                    w,
                } => {
                    let (lo, hi) = scratch.split_at_mut(dst as usize);
                    let (a, b) = (a as usize, b as usize);
                    let (w, aw, bw) = (w as usize, aw as usize, bw as usize);
                    let hi = &mut hi[..w];
                    let m = w.min(aw).min(bw);
                    let mut carry = u64::MAX; // the +1 of two's complement
                    let xs = lo[a + aw - m..a + aw].iter().rev();
                    let ys = lo[b + bw - m..b + bw].iter().rev();
                    for ((d, &x), &y) in hi.iter_mut().rev().zip(xs).zip(ys) {
                        let y = !y;
                        *d = x ^ y ^ carry;
                        carry = (x & y) | (carry & (x ^ y));
                    }
                    for j in m..w {
                        let x = if j < aw { lo[a + aw - 1 - j] } else { 0 };
                        let y = if j < bw {
                            !lo[b + bw - 1 - j]
                        } else {
                            u64::MAX
                        };
                        hi[w - 1 - j] = x ^ y ^ carry;
                        carry = (x & y) | (carry & (x ^ y));
                    }
                }
                Op::Copy { dst, a, w } => {
                    let (lo, hi) = scratch.split_at_mut(dst as usize);
                    hi[..w as usize].copy_from_slice(win(lo, a, w));
                }
                Op::Store { src, off, w } => {
                    for i in 0..w as u32 {
                        *next.word_mut((off + i) as usize, 0) = scratch[(src + i) as usize];
                    }
                }
            }
        }
    }
}

/// Value bit `j` (LSB-indexed) of a width-`aw` MSB-first operand at plane
/// `a`, zero-extended past its width.
#[inline]
fn operand_bit(
    scratch: &[u64],
    idx: &impl Fn(u32, usize) -> usize,
    a: u32,
    aw: u16,
    j: u32,
    k: usize,
) -> u64 {
    if j < aw as u32 {
        scratch[idx(a + (aw as u32 - 1 - j), k)]
    } else {
        0
    }
}

/// Where one (faulty sender, receiver) face of a round comes from.
///
/// A *face* is the state a faulty node shows one particular receiver this
/// round. Compiling a round program resolves every face to one of three
/// sources; two [`RoundFaces`] that resolve identically compile to the same
/// program, which is what makes the per-pattern program cache effective.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaceRef {
    /// Echo the current broadcast of honest node `i` (global index).
    Honest(u32),
    /// Echo what `donor` (global index, honest) broadcast `lag ≥ 1` rounds
    /// ago, served from the replay ring.
    Ring {
        /// Rounds back (1 = previous round).
        lag: u8,
        /// Honest donor's global node index.
        donor: u32,
    },
    /// A registered packed bundle: one lane-uniform state, compiled to
    /// constants.
    Packed(u16),
}

/// The resolved faces of one round: `rows[g * n + v]` is what the `g`-th
/// faulty node shows receiver `v`.
///
/// Receivers that are themselves faulty still get a row (it is never read);
/// strategies fill them with any value, canonically `Honest(0)`.
#[derive(Clone, Debug, PartialEq, Eq, Hash, Default)]
pub struct RoundFaces {
    /// Face sources, row-major over (faulty index, receiver).
    pub rows: Vec<FaceRef>,
}

impl RoundFaces {
    /// A face table of `faulty * n` rows, all `Honest(0)`.
    pub fn new(faulty: usize, n: usize) -> Self {
        RoundFaces {
            rows: vec![FaceRef::Honest(0); faulty * n],
        }
    }

    /// The face the `g`-th faulty node shows receiver `v`.
    pub fn face(&self, g: usize, n: usize, v: usize) -> FaceRef {
        self.rows[g * n + v]
    }

    /// Sets the face the `g`-th faulty node shows receiver `v`.
    pub fn set_face(&mut self, g: usize, n: usize, v: usize, face: FaceRef) {
        self.rows[g * n + v] = face;
    }
}

/// Per-node bundle layout of a sliced protocol arena.
///
/// Each node owns `state_bits + ext_bits + out_bits` consecutive planes:
/// the codec-encoded state, derived planes the lowering tracks
/// incrementally (e.g. divmod residues), and the lane-wise output field the
/// stabilisation detector reads.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SlicedLayout {
    /// Number of nodes.
    pub n: u32,
    /// Codec state width in bits (= planes).
    pub state_bits: u32,
    /// Derived planes carried per node.
    pub ext_bits: u32,
    /// Output field width in planes.
    pub out_bits: u32,
}

impl SlicedLayout {
    /// Planes per node bundle.
    pub fn node_planes(&self) -> u32 {
        self.state_bits + self.ext_bits + self.out_bits
    }

    /// Total planes of a full state arena.
    pub fn total_planes(&self) -> u32 {
        self.n * self.node_planes()
    }

    /// First plane of node `i`'s bundle.
    pub fn node_base(&self, i: u32) -> u32 {
        i * self.node_planes()
    }

    /// First plane of node `i`'s ext field.
    pub fn ext_base(&self, i: u32) -> u32 {
        self.node_base(i) + self.state_bits
    }

    /// First plane of node `i`'s output field.
    pub fn out_base(&self, i: u32) -> u32 {
        self.node_base(i) + self.state_bits + self.ext_bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xorshift(state: &mut u64) -> u64 {
        let mut x = *state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *state = x;
        x
    }

    #[test]
    fn pack_unpack_round_trip_ragged() {
        // 100 lanes over 2 lane words (ragged: 28 inactive lanes).
        let mut buf = PlaneBuf::new(11, 2);
        let mut rng = 0x1234_5678_9abc_def1u64;
        let mut originals = Vec::new();
        for lane in 0..100 {
            let mut bits = BitVec::new();
            bits.push_bits(xorshift(&mut rng) & 0x7ff, 11);
            buf.pack_lane(lane, 0, &bits);
            originals.push(bits);
        }
        for (lane, bits) in originals.iter().enumerate() {
            let mut out = BitVec::new();
            buf.unpack_lane(lane, 0, 11, &mut out);
            assert_eq!(&out, bits, "lane {lane}");
            assert_eq!(
                buf.read_value(lane, 0, 11),
                bits.reader().read_bits(11).unwrap()
            );
        }
    }

    #[test]
    fn fill_uniform_broadcasts_to_every_lane() {
        let mut buf = PlaneBuf::new(5, 3);
        let mut bits = BitVec::new();
        bits.push_bits(0b10110, 5);
        buf.fill_uniform(0, &bits);
        for lane in [0, 63, 64, 100, 191] {
            assert_eq!(buf.read_value(lane, 0, 5), 0b10110, "lane {lane}");
        }
    }

    /// Packs per-lane operands, runs one op, and checks every lane against
    /// scalar arithmetic.
    fn check_binop(op: Op, aw: u32, bw: u32, dst: u32, dw: u32, f: impl Fn(u64, u64) -> u64) {
        let arena = dst + dw;
        let mut cur = PlaneBuf::new((aw + bw) as usize, 2);
        let mut rng = 0x5eed_0000_0000_0001u64;
        let lanes = 128;
        let mut avs = Vec::new();
        let mut bvs = Vec::new();
        for lane in 0..lanes {
            let av = xorshift(&mut rng) & ((1 << aw) - 1);
            let bv = xorshift(&mut rng) & ((1 << bw) - 1);
            let mut bits = BitVec::new();
            bits.push_bits(av, aw);
            bits.push_bits(bv, bw);
            cur.pack_lane(lane, 0, &bits);
            avs.push(av);
            bvs.push(bv);
        }
        let prog = Program {
            ops: vec![
                Op::Load {
                    dst: 0,
                    space: Space::Cur,
                    off: 0,
                    w: aw as u16,
                },
                Op::Load {
                    dst: aw,
                    space: Space::Cur,
                    off: aw,
                    w: bw as u16,
                },
                op,
                Op::Store {
                    src: dst,
                    off: 0,
                    w: dw as u16,
                },
            ],
            arena_planes: arena,
        };
        let mut next = PlaneBuf::new(dw as usize, 2);
        let spaces = ExecSpaces {
            cur: &cur,
            ring: &[],
        };
        let mut scratch = Vec::new();
        prog.exec(&spaces, &mut next, &mut scratch);
        for lane in 0..lanes {
            let got = next.read_value(lane, 0, dw as usize);
            let want = f(avs[lane], bvs[lane]) & if dw == 64 { u64::MAX } else { (1 << dw) - 1 };
            assert_eq!(got, want, "lane {lane}: a={} b={}", avs[lane], bvs[lane]);
        }
    }

    #[test]
    fn add_matches_scalar_with_zero_extension() {
        check_binop(
            Op::Add {
                dst: 12,
                a: 0,
                aw: 7,
                b: 7,
                bw: 5,
                w: 8,
            },
            7,
            5,
            12,
            8,
            |a, b| a + b,
        );
    }

    #[test]
    fn sub_matches_scalar_modulo_width() {
        check_binop(
            Op::Sub {
                dst: 12,
                a: 0,
                aw: 6,
                b: 6,
                bw: 6,
                w: 6,
            },
            6,
            6,
            12,
            6,
            |a, b| a.wrapping_sub(b),
        );
    }

    #[test]
    fn eq_and_lt_match_scalar() {
        check_binop(
            Op::Eq {
                dst: 9,
                a: 0,
                aw: 4,
                b: 4,
                bw: 5,
            },
            4,
            5,
            9,
            1,
            |a, b| u64::from(a == b),
        );
        check_binop(
            Op::Lt {
                dst: 9,
                a: 0,
                aw: 4,
                b: 4,
                bw: 5,
            },
            4,
            5,
            9,
            1,
            |a, b| u64::from(a < b),
        );
    }

    #[test]
    fn mux_selects_per_lane() {
        // Operand a is 1 cond bit + 3 value bits; operand b is 3 value bits.
        check_binop(
            Op::Mux {
                dst: 7,
                c: 0,
                a: 1,
                b: 4,
                w: 3,
            },
            4,
            3,
            7,
            3,
            |a, b| if a >> 3 == 1 { a & 7 } else { b },
        );
    }

    #[test]
    fn const_and_logic_ops() {
        let cur = PlaneBuf::new(1, 1);
        let prog = Program {
            ops: vec![
                Op::Const {
                    dst: 0,
                    value: 0b1010,
                    w: 4,
                },
                Op::Const {
                    dst: 4,
                    value: 0b0110,
                    w: 4,
                },
                Op::And {
                    dst: 8,
                    a: 0,
                    b: 4,
                    w: 4,
                },
                Op::Or {
                    dst: 12,
                    a: 0,
                    b: 4,
                    w: 4,
                },
                Op::Xor {
                    dst: 16,
                    a: 0,
                    b: 4,
                    w: 4,
                },
                Op::Not {
                    dst: 20,
                    a: 0,
                    w: 4,
                },
                Op::Store {
                    src: 8,
                    off: 0,
                    w: 4,
                },
                Op::Store {
                    src: 12,
                    off: 4,
                    w: 4,
                },
                Op::Store {
                    src: 16,
                    off: 8,
                    w: 4,
                },
                Op::Store {
                    src: 20,
                    off: 12,
                    w: 4,
                },
            ],
            arena_planes: 24,
        };
        let mut next = PlaneBuf::new(16, 1);
        let spaces = ExecSpaces {
            cur: &cur,
            ring: &[],
        };
        prog.exec(&spaces, &mut next, &mut Vec::new());
        for lane in [0, 17, 63] {
            assert_eq!(next.read_value(lane, 0, 4), 0b0010);
            assert_eq!(next.read_value(lane, 4, 4), 0b1110);
            assert_eq!(next.read_value(lane, 8, 4), 0b1100);
            assert_eq!(next.read_value(lane, 12, 4), 0b0101);
        }
    }

    #[test]
    fn load_resolves_all_spaces() {
        let mut cur = PlaneBuf::new(2, 1);
        let mut ring0 = PlaneBuf::new(2, 1);
        for lane in 0..64 {
            cur.set_lane_bit(0, lane, lane % 2 == 0);
            ring0.set_lane_bit(0, lane, lane % 3 == 0);
        }
        let prog = Program {
            ops: vec![
                Op::Load {
                    dst: 0,
                    space: Space::Cur,
                    off: 0,
                    w: 1,
                },
                Op::Load {
                    dst: 1,
                    space: Space::Ring(1),
                    off: 0,
                    w: 1,
                },
                Op::Store {
                    src: 0,
                    off: 0,
                    w: 2,
                },
            ],
            arena_planes: 2,
        };
        let mut next = PlaneBuf::new(2, 1);
        let spaces = ExecSpaces {
            cur: &cur,
            ring: std::slice::from_ref(&ring0),
        };
        prog.exec(&spaces, &mut next, &mut Vec::new());
        for lane in 0..64 {
            assert_eq!(next.lane_bit(0, lane), lane % 2 == 0);
            assert_eq!(next.lane_bit(1, lane), lane % 3 == 0);
        }
    }

    #[test]
    fn layout_offsets() {
        let l = SlicedLayout {
            n: 4,
            state_bits: 12,
            ext_bits: 3,
            out_bits: 5,
        };
        assert_eq!(l.node_planes(), 20);
        assert_eq!(l.total_planes(), 80);
        assert_eq!(l.node_base(2), 40);
        assert_eq!(l.ext_base(2), 52);
        assert_eq!(l.out_base(2), 55);
    }
}
