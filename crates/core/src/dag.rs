//! Hash-consing DAG builder lowering transitions to bit-sliced word ops.
//!
//! The sliced engine (`sc-sim`'s `SlicedBatch`) executes flat
//! [`sc_protocol::Program`] bytecode; this module is the compiler that
//! produces it. A [`Builder`] grows an SSA DAG of word-level nodes
//! (AND/OR/XOR/MUX, comparators, ripple adders, slices) with two
//! load-bearing properties:
//!
//! * **Hash-consing (CSE).** Every node is canonicalised (commutative
//!   operand ordering) and deduplicated, so the per-receiver lowering in
//!   [`crate::SlicedAlgorithm`](crate::Algorithm) can be written naively —
//!   shared honest sub-computations (pairwise equalities, popcounts,
//!   divmods) collapse into a single node automatically.
//! * **Constant folding.** Lane-uniform inputs (packed raw-value palettes,
//!   crash faces) are [`Builder::constant`]s, and every operator folds
//!   constant operands, so entire adversarial sub-circuits evaporate at
//!   compile time instead of costing word ops every round.
//!
//! [`Builder::finalize`] dead-code-eliminates from the store roots, assigns
//! contiguous scratch planes per live node (MSB-first, matching
//! [`sc_protocol::PlaneBuf`] packing) and emits the bytecode.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use sc_protocol::{bits_for, Op, Program, Space};

/// Multiply-xor hasher (the rustc-hash idiom). Interning is the compile
/// hot path — every lowered sub-expression probes the CSE map — and the
/// default SipHash dominates it; node keys are small fixed-size structs,
/// exactly the shape this hasher is good at.
#[derive(Default)]
struct FxHasher(u64);

impl Hasher for FxHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.0 = (self.0.rotate_left(5) ^ u64::from_le_bytes(buf))
                .wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
        }
    }
}

/// Reference to a node in a [`Builder`] DAG.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeRef(u32);

/// The node kinds of the word-op DAG. Internal; exposed only through
/// [`Builder`] methods.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Node {
    Input {
        space: Space,
        off: u32,
        w: u16,
    },
    Const {
        value: u64,
        w: u16,
    },
    Not(NodeRef),
    And(NodeRef, NodeRef),
    Or(NodeRef, NodeRef),
    Xor(NodeRef, NodeRef),
    Mux {
        c: NodeRef,
        a: NodeRef,
        b: NodeRef,
    },
    Eq(NodeRef, NodeRef),
    Lt(NodeRef, NodeRef),
    Add {
        a: NodeRef,
        b: NodeRef,
        w: u16,
    },
    Sub {
        a: NodeRef,
        b: NodeRef,
        w: u16,
    },
    /// `(a >> lo) & ((1 << w) - 1)` — contiguous planes in MSB-first layout.
    Slice {
        a: NodeRef,
        lo: u16,
        w: u16,
    },
    /// Zero-extension to `w` planes.
    ZExt {
        a: NodeRef,
        w: u16,
    },
    /// `hi * 2^width(lo) + lo`.
    Concat {
        hi: NodeRef,
        lo: NodeRef,
    },
}

/// Hash-consing builder of bit-sliced word-op programs.
///
/// # Example
///
/// ```
/// use sc_core::Builder;
/// use sc_protocol::Space;
///
/// let mut b = Builder::new();
/// let x = b.input(Space::Cur, 0, 4);
/// let one = b.constant(1, 1);
/// let inc = b.add_width(x, one, 5);
/// let prog = b.finalize(&[(inc, 0)]);
/// assert!(prog.arena_planes >= 5);
/// ```
#[derive(Default)]
pub struct Builder {
    nodes: Vec<Node>,
    widths: Vec<u16>,
    cache: HashMap<Node, NodeRef, BuildHasherDefault<FxHasher>>,
}

impl Builder {
    /// An empty DAG.
    pub fn new() -> Self {
        Builder::default()
    }

    /// Result width (in planes) of `a`.
    pub fn width(&self, a: NodeRef) -> u16 {
        self.widths[a.0 as usize]
    }

    /// The constant value of `a`, when it folded to one.
    pub fn as_const(&self, a: NodeRef) -> Option<u64> {
        match self.nodes[a.0 as usize] {
            Node::Const { value, .. } => Some(value),
            _ => None,
        }
    }

    /// Number of nodes built so far (CSE-deduplicated).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether no nodes have been built.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    fn intern(&mut self, node: Node, w: u16) -> NodeRef {
        if let Some(&r) = self.cache.get(&node) {
            return r;
        }
        let r = NodeRef(self.nodes.len() as u32);
        self.nodes.push(node);
        self.widths.push(w);
        self.cache.insert(node, r);
        r
    }

    /// A load from an input arena: `w` planes at `off` in `space`.
    pub fn input(&mut self, space: Space, off: u32, w: u16) -> NodeRef {
        self.intern(Node::Input { space, off, w }, w)
    }

    /// A lane-uniform constant of `w` planes.
    ///
    /// # Panics
    ///
    /// Panics if `value` does not fit in `w` bits.
    pub fn constant(&mut self, value: u64, w: u16) -> NodeRef {
        assert!(
            w as u32 >= 64 || value < (1u64 << w),
            "constant {value} does not fit in {w} bits"
        );
        self.intern(Node::Const { value, w }, w)
    }

    fn mask(w: u16) -> u64 {
        if w as u32 >= 64 {
            u64::MAX
        } else {
            (1u64 << w) - 1
        }
    }

    /// Bitwise complement.
    pub fn not(&mut self, a: NodeRef) -> NodeRef {
        let w = self.width(a);
        if let Some(v) = self.as_const(a) {
            return self.constant(!v & Self::mask(w), w);
        }
        if let Node::Not(inner) = self.nodes[a.0 as usize] {
            return inner;
        }
        self.intern(Node::Not(a), w)
    }

    fn logic(
        &mut self,
        a: NodeRef,
        b: NodeRef,
        f: fn(u64, u64) -> u64,
        make: fn(NodeRef, NodeRef) -> Node,
    ) -> NodeRef {
        let w = self.width(a);
        assert_eq!(w, self.width(b), "logic op width mismatch");
        if let (Some(x), Some(y)) = (self.as_const(a), self.as_const(b)) {
            return self.constant(f(x, y) & Self::mask(w), w);
        }
        let (a, b) = (a.min(b), a.max(b));
        self.intern(make(a, b), w)
    }

    /// Bitwise AND (equal widths).
    pub fn and(&mut self, a: NodeRef, b: NodeRef) -> NodeRef {
        let w = self.width(a);
        if a == b {
            return a;
        }
        for (x, y) in [(a, b), (b, a)] {
            match self.as_const(x) {
                Some(0) => return self.constant(0, w),
                Some(v) if v == Self::mask(w) => return y,
                _ => {}
            }
        }
        self.logic(a, b, |x, y| x & y, Node::And)
    }

    /// Bitwise OR (equal widths).
    pub fn or(&mut self, a: NodeRef, b: NodeRef) -> NodeRef {
        let w = self.width(a);
        if a == b {
            return a;
        }
        for (x, y) in [(a, b), (b, a)] {
            match self.as_const(x) {
                Some(0) => return y,
                Some(v) if v == Self::mask(w) => return self.constant(Self::mask(w), w),
                _ => {}
            }
        }
        self.logic(a, b, |x, y| x | y, Node::Or)
    }

    /// Bitwise XOR (equal widths).
    pub fn xor(&mut self, a: NodeRef, b: NodeRef) -> NodeRef {
        let w = self.width(a);
        if a == b {
            return self.constant(0, w);
        }
        for (x, y) in [(a, b), (b, a)] {
            if self.as_const(x) == Some(0) {
                return y;
            }
        }
        self.logic(a, b, |x, y| x ^ y, Node::Xor)
    }

    /// Per-lane select: `c ? a : b`. `c` must be 1 plane; `a`/`b` equal
    /// widths.
    pub fn mux(&mut self, c: NodeRef, a: NodeRef, b: NodeRef) -> NodeRef {
        assert_eq!(self.width(c), 1, "mux condition must be one plane");
        let w = self.width(a);
        assert_eq!(w, self.width(b), "mux arm width mismatch");
        match self.as_const(c) {
            Some(1) => return a,
            Some(0) => return b,
            _ => {}
        }
        if a == b {
            return a;
        }
        if w == 1 {
            // 1-bit arms reduce to pure logic, unlocking further folding.
            if let (Some(x), Some(y)) = (self.as_const(a), self.as_const(b)) {
                return match (x, y) {
                    (1, 0) => c,
                    (0, 1) => self.not(c),
                    _ => unreachable!("consts folded by the arms above"),
                };
            }
        }
        self.intern(Node::Mux { c, a, b }, w)
    }

    /// Single-plane `a == b`; the narrower operand is zero-extended.
    pub fn eq(&mut self, a: NodeRef, b: NodeRef) -> NodeRef {
        if a == b {
            return self.constant(1, 1);
        }
        if let (Some(x), Some(y)) = (self.as_const(a), self.as_const(b)) {
            return self.constant(u64::from(x == y), 1);
        }
        let (a, b) = (a.min(b), a.max(b));
        self.intern(Node::Eq(a, b), 1)
    }

    /// Single-plane unsigned `a < b`; the narrower operand is zero-extended.
    pub fn lt(&mut self, a: NodeRef, b: NodeRef) -> NodeRef {
        if a == b {
            return self.constant(0, 1);
        }
        if let (Some(x), Some(y)) = (self.as_const(a), self.as_const(b)) {
            return self.constant(u64::from(x < y), 1);
        }
        self.intern(Node::Lt(a, b), 1)
    }

    /// `(a + b) mod 2^w` with result width `w`; operands zero-extend.
    pub fn add_width(&mut self, a: NodeRef, b: NodeRef, w: u16) -> NodeRef {
        if let (Some(x), Some(y)) = (self.as_const(a), self.as_const(b)) {
            return self.constant(x.wrapping_add(y) & Self::mask(w), w);
        }
        if self.as_const(a) == Some(0) && self.width(b) == w {
            return b;
        }
        if self.as_const(b) == Some(0) && self.width(a) == w {
            return a;
        }
        let (a, b) = (a.min(b), a.max(b));
        self.intern(Node::Add { a, b, w }, w)
    }

    /// `(a - b) mod 2^w` with result width `w`; operands zero-extend.
    pub fn sub_width(&mut self, a: NodeRef, b: NodeRef, w: u16) -> NodeRef {
        if let (Some(x), Some(y)) = (self.as_const(a), self.as_const(b)) {
            return self.constant(x.wrapping_sub(y) & Self::mask(w), w);
        }
        if self.as_const(b) == Some(0) && self.width(a) == w {
            return a;
        }
        self.intern(Node::Sub { a, b, w }, w)
    }

    /// `(a >> lo) & ((1 << w) - 1)`: bits `lo..lo+w` of `a`.
    ///
    /// # Panics
    ///
    /// Panics if the slice reaches past `a`'s width.
    pub fn slice(&mut self, a: NodeRef, lo: u16, w: u16) -> NodeRef {
        let aw = self.width(a);
        assert!(lo + w <= aw, "slice {lo}..{} exceeds width {aw}", lo + w);
        if lo == 0 && w == aw {
            return a;
        }
        if let Some(v) = self.as_const(a) {
            return self.constant((v >> lo) & Self::mask(w), w);
        }
        if let Node::Slice {
            a: inner, lo: l0, ..
        } = self.nodes[a.0 as usize]
        {
            return self.slice(inner, l0 + lo, w);
        }
        self.intern(Node::Slice { a, lo, w }, w)
    }

    /// Zero-extends `a` to `w ≥ width(a)` planes.
    pub fn zext(&mut self, a: NodeRef, w: u16) -> NodeRef {
        let aw = self.width(a);
        assert!(w >= aw, "zext must not narrow ({aw} -> {w})");
        if w == aw {
            return a;
        }
        if let Some(v) = self.as_const(a) {
            return self.constant(v, w);
        }
        self.intern(Node::ZExt { a, w }, w)
    }

    /// `hi * 2^width(lo) + lo` — field concatenation, MSB side first.
    pub fn concat(&mut self, hi: NodeRef, lo: NodeRef) -> NodeRef {
        let w = self.width(hi) + self.width(lo);
        assert!(w as u32 <= 64, "concat width {w} exceeds u64");
        if let (Some(h), Some(l)) = (self.as_const(hi), self.as_const(lo)) {
            return self.constant((h << self.width(lo)) | l, w);
        }
        if self.as_const(hi) == Some(0) {
            return self.zext(lo, w);
        }
        self.intern(Node::Concat { hi, lo }, w)
    }

    // ---- derived helpers ------------------------------------------------

    /// `a == v` for a constant `v` (any width relation).
    pub fn eq_const(&mut self, a: NodeRef, v: u64) -> NodeRef {
        let w = (bits_for(v + 1).max(1)) as u16;
        let c = self.constant(v, w);
        self.eq(a, c)
    }

    /// Unsigned `a > v` for a constant `v`.
    pub fn gt_const(&mut self, a: NodeRef, v: u64) -> NodeRef {
        let w = (bits_for(v + 1).max(1)) as u16;
        let c = self.constant(v, w);
        self.lt(c, a)
    }

    /// Unsigned `a >= v` for a constant `v`.
    pub fn ge_const(&mut self, a: NodeRef, v: u64) -> NodeRef {
        let w = (bits_for(v + 1).max(1)) as u16;
        let c = self.constant(v, w);
        let lt = self.lt(a, c);
        self.not(lt)
    }

    /// Unsigned `a < v` for a constant `v`.
    pub fn lt_const(&mut self, a: NodeRef, v: u64) -> NodeRef {
        let w = (bits_for(v + 1).max(1)) as u16;
        let c = self.constant(v, w);
        self.lt(a, c)
    }

    /// `min(a, b)` (unsigned, equal widths).
    pub fn min(&mut self, a: NodeRef, b: NodeRef) -> NodeRef {
        let c = self.lt(a, b);
        self.mux(c, a, b)
    }

    /// Population count of single-plane bits, as a
    /// `bits_for(len)`-wide value, built as a balanced adder tree.
    pub fn popcount(&mut self, bits: &[NodeRef]) -> NodeRef {
        assert!(!bits.is_empty(), "popcount of nothing");
        for &b in bits {
            assert_eq!(self.width(b), 1, "popcount inputs must be single planes");
        }
        let mut layer: Vec<NodeRef> = bits.to_vec();
        while layer.len() > 1 {
            let mut next = Vec::with_capacity(layer.len().div_ceil(2));
            let mut it = layer.chunks(2);
            for pair in &mut it {
                match pair {
                    [a, b] => {
                        let w = self.width(*a).max(self.width(*b)) + 1;
                        next.push(self.add_width(*a, *b, w));
                    }
                    [a] => next.push(*a),
                    _ => unreachable!(),
                }
            }
            layer = next;
        }
        layer[0]
    }

    /// Restoring long division by a constant: returns `(a / d, a % d)`.
    ///
    /// The remainder has width `bits_for(d)`, the quotient `width(a)`.
    ///
    /// # Panics
    ///
    /// Panics if `d < 2`.
    pub fn divmod_const(&mut self, a: NodeRef, d: u64) -> (NodeRef, NodeRef) {
        assert!(d >= 2, "divisor must be at least 2");
        if let Some(v) = self.as_const(a) {
            let qw = self.width(a);
            let rw = bits_for(d) as u16;
            return (
                self.constant(v / d, qw),
                self.constant((v % d) & Self::mask(rw), rw),
            );
        }
        let n = self.width(a);
        // Working remainder can reach 2d-1 before the restoring subtract.
        let rw = bits_for(2 * d) as u16;
        let dc = self.constant(d, rw);
        let mut rem = self.constant(0, rw);
        let mut q: Option<NodeRef> = None;
        for j in (0..n).rev() {
            let bit = self.slice(a, j, 1);
            // (rem << 1) | bit without an adder: drop the remainder's top
            // bit (it is always 0 after the restoring step) and append the
            // incoming dividend bit below.
            let kept = self.slice(rem, 0, rw - 1);
            rem = self.concat(kept, bit);
            let lt = self.lt(rem, dc);
            let ge = self.not(lt);
            let sub = self.sub_width(rem, dc, rw);
            rem = self.mux(ge, sub, rem);
            q = Some(match q {
                None => ge,
                Some(acc) => self.concat(acc, ge),
            });
        }
        let rem_final = self.slice(rem, 0, bits_for(d) as u16);
        (q.expect("width > 0"), rem_final)
    }

    /// DCE from the store roots, then emits bytecode.
    ///
    /// `stores` lists `(node, next_arena_plane_offset)` pairs; each live
    /// node gets a contiguous scratch range, topologically ordered by
    /// construction.
    pub fn finalize(&mut self, stores: &[(NodeRef, u32)]) -> Program {
        let mut live = vec![false; self.nodes.len()];
        let mut stack: Vec<NodeRef> = stores.iter().map(|&(r, _)| r).collect();
        while let Some(r) = stack.pop() {
            let i = r.0 as usize;
            if live[i] {
                continue;
            }
            live[i] = true;
            match self.nodes[i] {
                Node::Input { .. } | Node::Const { .. } => {}
                Node::Not(a) | Node::Slice { a, .. } | Node::ZExt { a, .. } => stack.push(a),
                Node::And(a, b)
                | Node::Or(a, b)
                | Node::Xor(a, b)
                | Node::Eq(a, b)
                | Node::Lt(a, b)
                | Node::Add { a, b, .. }
                | Node::Sub { a, b, .. }
                | Node::Concat { hi: a, lo: b } => {
                    stack.push(a);
                    stack.push(b);
                }
                Node::Mux { c, a, b } => {
                    stack.push(c);
                    stack.push(a);
                    stack.push(b);
                }
            }
        }
        let mut offset = vec![u32::MAX; self.nodes.len()];
        let mut arena = 0u32;
        for i in 0..self.nodes.len() {
            if !live[i] {
                continue;
            }
            // A slice is a contiguous sub-range of its (earlier, hence
            // already placed) operand: alias it instead of copying. The
            // arena is SSA — every plane is written exactly once — so
            // read-only aliases are safe.
            if let Node::Slice { a, lo, w } = self.nodes[i] {
                let aw = self.widths[a.0 as usize];
                offset[i] = offset[a.0 as usize] + (aw - lo - w) as u32;
                continue;
            }
            offset[i] = arena;
            arena += self.widths[i] as u32;
        }
        let mut ops = Vec::new();
        for i in 0..self.nodes.len() {
            if !live[i] {
                continue;
            }
            let dst = offset[i];
            let w = self.widths[i];
            let pos = |r: NodeRef| offset[r.0 as usize];
            let wid = |r: NodeRef| self.widths[r.0 as usize];
            match self.nodes[i] {
                Node::Input { space, off, w } => ops.push(Op::Load { dst, space, off, w }),
                Node::Const { value, w } => ops.push(Op::Const { dst, value, w }),
                Node::Not(a) => ops.push(Op::Not { dst, a: pos(a), w }),
                Node::And(a, b) => ops.push(Op::And {
                    dst,
                    a: pos(a),
                    b: pos(b),
                    w,
                }),
                Node::Or(a, b) => ops.push(Op::Or {
                    dst,
                    a: pos(a),
                    b: pos(b),
                    w,
                }),
                Node::Xor(a, b) => ops.push(Op::Xor {
                    dst,
                    a: pos(a),
                    b: pos(b),
                    w,
                }),
                Node::Mux { c, a, b } => ops.push(Op::Mux {
                    dst,
                    c: pos(c),
                    a: pos(a),
                    b: pos(b),
                    w,
                }),
                Node::Eq(a, b) => ops.push(Op::Eq {
                    dst,
                    a: pos(a),
                    aw: wid(a),
                    b: pos(b),
                    bw: wid(b),
                }),
                Node::Lt(a, b) => ops.push(Op::Lt {
                    dst,
                    a: pos(a),
                    aw: wid(a),
                    b: pos(b),
                    bw: wid(b),
                }),
                Node::Add { a, b, w } => ops.push(Op::Add {
                    dst,
                    a: pos(a),
                    aw: wid(a),
                    b: pos(b),
                    bw: wid(b),
                    w,
                }),
                Node::Sub { a, b, w } => ops.push(Op::Sub {
                    dst,
                    a: pos(a),
                    aw: wid(a),
                    b: pos(b),
                    bw: wid(b),
                    w,
                }),
                // Slices are offset aliases into their operand (resolved
                // during placement above): no op, no copy.
                Node::Slice { .. } => {}
                Node::ZExt { a, w } => {
                    let aw = wid(a);
                    ops.push(Op::Const {
                        dst,
                        value: 0,
                        w: w - aw,
                    });
                    ops.push(Op::Copy {
                        dst: dst + (w - aw) as u32,
                        a: pos(a),
                        w: aw,
                    });
                }
                Node::Concat { hi, lo } => {
                    ops.push(Op::Copy {
                        dst,
                        a: pos(hi),
                        w: wid(hi),
                    });
                    ops.push(Op::Copy {
                        dst: dst + wid(hi) as u32,
                        a: pos(lo),
                        w: wid(lo),
                    });
                }
            }
        }
        for &(r, off) in stores {
            ops.push(Op::Store {
                src: offset[r.0 as usize],
                off,
                w: self.widths[r.0 as usize],
            });
        }
        Program {
            ops,
            arena_planes: arena,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sc_protocol::{BitVec, ExecSpaces, PlaneBuf};

    fn run_on_lanes(prog: &Program, cur: &PlaneBuf, out_planes: usize) -> PlaneBuf {
        let mut next = PlaneBuf::new(out_planes, cur.lane_words());
        let spaces = ExecSpaces { cur, ring: &[] };
        prog.exec(&spaces, &mut next, &mut Vec::new());
        next
    }

    fn pack_values(values: &[u64], width: u32) -> PlaneBuf {
        let mut buf = PlaneBuf::new(width as usize, values.len().div_ceil(64));
        for (lane, &v) in values.iter().enumerate() {
            let mut bits = BitVec::new();
            bits.push_bits(v, width);
            buf.pack_lane(lane, 0, &bits);
        }
        buf
    }

    #[test]
    fn cse_dedups_and_canonicalises() {
        let mut b = Builder::new();
        let x = b.input(Space::Cur, 0, 3);
        let y = b.input(Space::Cur, 3, 3);
        let p = b.and(x, y);
        let q = b.and(y, x);
        assert_eq!(p, q);
        let before = b.len();
        let _again = b.and(x, y);
        assert_eq!(b.len(), before);
    }

    #[test]
    fn constant_folding_collapses_subtrees() {
        let mut b = Builder::new();
        let c5 = b.constant(5, 4);
        let c3 = b.constant(3, 4);
        let sum = b.add_width(c5, c3, 4);
        assert_eq!(b.as_const(sum), Some(8));
        let (q, r) = b.divmod_const(sum, 3);
        assert_eq!(b.as_const(q), Some(2));
        assert_eq!(b.as_const(r), Some(2));
        let x = b.input(Space::Cur, 0, 4);
        let t = b.constant(1, 1);
        let m = b.mux(t, c5, x);
        assert_eq!(b.as_const(m), Some(5));
    }

    #[test]
    fn divmod_matches_scalar() {
        for d in [2u64, 3, 9, 15, 27] {
            let values: Vec<u64> = (0..128).map(|i| (i * 37 + 11) % 512).collect();
            let mut b = Builder::new();
            let a = b.input(Space::Cur, 0, 9);
            let (q, r) = b.divmod_const(a, d);
            let qw = b.width(q) as u32;
            let rw = b.width(r) as u32;
            let prog = b.finalize(&[(q, 0), (r, qw)]);
            let cur = pack_values(&values, 9);
            let next = run_on_lanes(&prog, &cur, (qw + rw) as usize);
            for (lane, &v) in values.iter().enumerate() {
                assert_eq!(
                    next.read_value(lane, 0, qw as usize),
                    v / d,
                    "q lane {lane} d {d}"
                );
                assert_eq!(
                    next.read_value(lane, qw as usize, rw as usize),
                    v % d,
                    "r lane {lane} d {d}"
                );
            }
        }
    }

    #[test]
    fn popcount_matches_scalar() {
        let values: Vec<u64> = (0..128).map(|i| (i * 97 + 13) % 128).collect();
        let mut b = Builder::new();
        let bits: Vec<NodeRef> = (0..7).map(|i| b.input(Space::Cur, i, 1)).collect();
        let pc = b.popcount(&bits);
        let w = b.width(pc) as u32;
        let prog = b.finalize(&[(pc, 0)]);
        let cur = pack_values(&values, 7);
        let next = run_on_lanes(&prog, &cur, w as usize);
        for (lane, &v) in values.iter().enumerate() {
            assert_eq!(
                next.read_value(lane, 0, w as usize),
                u64::from(v.count_ones()),
                "lane {lane}"
            );
        }
    }

    #[test]
    fn slice_concat_zext_round_trip() {
        let values: Vec<u64> = (0..100).map(|i| (i * 73 + 5) % 256).collect();
        let mut b = Builder::new();
        let a = b.input(Space::Cur, 0, 8);
        let hi = b.slice(a, 4, 4);
        let lo = b.slice(a, 0, 4);
        let back = b.concat(hi, lo);
        let wide = b.zext(lo, 8);
        let prog = b.finalize(&[(back, 0), (wide, 8)]);
        let cur = pack_values(&values, 8);
        let next = run_on_lanes(&prog, &cur, 16);
        for (lane, &v) in values.iter().enumerate() {
            assert_eq!(next.read_value(lane, 0, 8), v, "concat lane {lane}");
            assert_eq!(next.read_value(lane, 8, 8), v & 0xf, "zext lane {lane}");
        }
    }

    #[test]
    fn comparison_helpers_match_scalar() {
        let values: Vec<u64> = (0..128).map(|i| i % 20).collect();
        let mut b = Builder::new();
        let a = b.input(Space::Cur, 0, 5);
        let eq7 = b.eq_const(a, 7);
        let gt7 = b.gt_const(a, 7);
        let ge7 = b.ge_const(a, 7);
        let lt7 = b.lt_const(a, 7);
        let prog = b.finalize(&[(eq7, 0), (gt7, 1), (ge7, 2), (lt7, 3)]);
        let cur = pack_values(&values, 5);
        let next = run_on_lanes(&prog, &cur, 4);
        for (lane, &v) in values.iter().enumerate() {
            assert_eq!(next.lane_bit(0, lane), v == 7, "eq lane {lane}");
            assert_eq!(next.lane_bit(1, lane), v > 7, "gt lane {lane}");
            assert_eq!(next.lane_bit(2, lane), v >= 7, "ge lane {lane}");
            assert_eq!(next.lane_bit(3, lane), v < 7, "lt lane {lane}");
        }
    }

    #[test]
    fn min_and_mux_fold() {
        let mut b = Builder::new();
        let c2 = b.constant(2, 3);
        let c5 = b.constant(5, 3);
        let m = b.min(c5, c2);
        assert_eq!(b.as_const(m), Some(2));
        // 1-bit mux with constant arms reduces to the condition itself.
        let c = b.input(Space::Cur, 0, 1);
        let one = b.constant(1, 1);
        let zero = b.constant(0, 1);
        assert_eq!(b.mux(c, one, zero), c);
        let n = b.mux(c, zero, one);
        let nn = b.not(n);
        assert_eq!(nn, c);
    }

    #[test]
    fn dce_drops_unreferenced_nodes() {
        let mut b = Builder::new();
        let x = b.input(Space::Cur, 0, 4);
        let y = b.input(Space::Cur, 4, 4);
        let _dead = b.add_width(x, y, 5);
        let keep = b.not(x);
        let prog = b.finalize(&[(keep, 0)]);
        // Only the input load, the not, and the store should survive.
        assert_eq!(prog.ops.len(), 3);
    }
}
