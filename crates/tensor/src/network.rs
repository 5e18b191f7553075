//! A small feed-forward network container with explicit caches.
//!
//! The embedded NN `f` of a Neural ODE is a *shallow* stack of layers (the
//! paper's prototype maps a 4-conv-layer `f` onto 4 NN cores). The adjoint
//! backward pass needs vector-Jacobian products of `f` with respect to both
//! its input state and its parameters, so [`Network::forward`] returns
//! explicit per-op caches and [`Network::backward`] consumes them.

use crate::activation::Activation;
use crate::arena::with_arena_f32;
use crate::conv::Conv2d;
use crate::dense::Dense;
use crate::matmul;
use crate::norm::{GroupNorm, GroupNormCache};
use crate::shape::Shape;
use crate::tensor::Tensor;

/// One operation in a [`Network`].
#[derive(Clone, Debug)]
pub enum Op {
    /// 2-D convolution (feature-map states).
    Conv2d(Conv2d),
    /// Dense layer (vector states).
    Dense(Dense),
    /// Elementwise activation.
    Activation(Activation),
    /// Group normalization.
    GroupNorm(GroupNorm),
    /// Appends the current ODE time `t` as an extra input channel (rank-4
    /// input) or feature (rank-2 input), making `f = f(t, h)`.
    ConcatTime,
}

impl Op {
    /// Convenience constructor for a convolution op.
    pub fn conv2d(conv: Conv2d) -> Op {
        Op::Conv2d(conv)
    }

    /// Convenience constructor for a dense op.
    pub fn dense(dense: Dense) -> Op {
        Op::Dense(dense)
    }

    /// Convenience constructor for a ReLU op.
    pub fn relu() -> Op {
        Op::Activation(Activation::Relu)
    }

    /// Convenience constructor for a tanh op.
    pub fn tanh() -> Op {
        Op::Activation(Activation::Tanh)
    }

    /// Convenience constructor for a GroupNorm op.
    pub fn group_norm(gn: GroupNorm) -> Op {
        Op::GroupNorm(gn)
    }

    /// Number of trainable parameter tensors in this op.
    pub fn param_count(&self) -> usize {
        match self {
            Op::Conv2d(_) | Op::Dense(_) | Op::GroupNorm(_) => 2,
            Op::Activation(_) | Op::ConcatTime => 0,
        }
    }

    /// `true` when every trainable parameter of this op is finite (no
    /// NaN/Inf). Parameterless ops are trivially finite.
    pub fn params_finite(&self) -> bool {
        let tensors: [&Tensor; 2] = match self {
            Op::Conv2d(c) => [c.weight(), c.bias()],
            Op::Dense(d) => [d.weight(), d.bias()],
            Op::GroupNorm(g) => [g.gamma(), g.beta()],
            Op::Activation(_) | Op::ConcatTime => return true,
        };
        tensors
            .iter()
            .all(|t| t.data().iter().all(|v| v.is_finite()))
    }
}

/// Cache produced by one op's forward pass.
#[derive(Clone, Debug)]
pub enum OpCache {
    /// Cached input of a conv (needed for the weight gradient).
    Conv { x: Tensor },
    /// Cached input of a dense layer.
    Dense { x: Tensor },
    /// Cached input of an activation.
    Activation { x: Tensor },
    /// Cached input and per-group statistics of a GroupNorm (the backward
    /// pass recomputes x̂ from these instead of a materialized buffer).
    GroupNorm { x: Tensor, cache: GroupNormCache },
    /// Shape of the pre-concat input (to strip the time channel on backward).
    ConcatTime { in_shape: Vec<usize> },
}

impl OpCache {
    /// The op input this cache keeps, if any.
    fn into_input(self) -> Option<Tensor> {
        match self {
            OpCache::Conv { x }
            | OpCache::Dense { x }
            | OpCache::Activation { x }
            | OpCache::GroupNorm { x, .. } => Some(x),
            OpCache::ConcatTime { .. } => None,
        }
    }
}

/// A feed-forward stack of [`Op`]s — the embedded NN `f(t, h)`.
///
/// # Example
///
/// ```
/// use enode_tensor::{Tensor, network::{Network, Op}, dense::Dense};
/// let f = Network::new(vec![
///     Op::dense(Dense::new_seeded(2, 16, 1)),
///     Op::tanh(),
///     Op::dense(Dense::new_seeded(16, 2, 2)),
/// ]);
/// let h = Tensor::from_vec(vec![1.0, 0.5], &[1, 2]);
/// let dh_dt = f.eval(0.0, &h);
/// assert_eq!(dh_dt.shape(), h.shape());
/// ```
#[derive(Clone, Debug)]
pub struct Network {
    ops: Vec<Op>,
    /// The kernel launches of [`Network::eval_into`], in order.
    launches: Vec<Launch>,
    /// The widest `Dense` output and the number of `ConcatTime` ops: a
    /// `d`-wide row never grows past `d.max(widest_dense) + concats`.
    widest_dense: usize,
    concats: usize,
}

/// Floats in each of the two stack rows of the rank-2 row pass
/// ([`Network::eval_into`]). The widest shipped row is 33 floats
/// (`three_body`'s `dynamic_system(12, 32, 2)`: 32 hidden features plus
/// the time); wider rows take their two rows from the arena.
const STACK_ROW: usize = 64;

/// One kernel launch of [`Network::eval_into`]: op `start` — a conv
/// fusing the GroupNorm and activation in `start + 1..fused_end`, or a
/// single op (`fused_end == start + 1`) — then the activations in
/// `fused_end..end`, applied in place to its output.
#[derive(Clone, Copy, Debug)]
struct Launch {
    start: usize,
    fused_end: usize,
    end: usize,
}

/// Splits `ops` into launches: every maximal `Conv2d → [GroupNorm] →
/// [Activation]` run with at least one of the two fuses into its conv,
/// and every activation after a launch runs in place on its output.
fn launches(ops: &[Op]) -> Vec<Launch> {
    let mut out = Vec::new();
    let mut start = 0;
    while start < ops.len() {
        let mut fused_end = start + 1;
        if let Op::Conv2d(_) = ops[start] {
            if let Some(Op::GroupNorm(_)) = ops.get(fused_end) {
                fused_end += 1;
            }
            if let Some(Op::Activation(_)) = ops.get(fused_end) {
                fused_end += 1;
            }
        }
        let mut end = fused_end;
        while let Some(Op::Activation(_)) = ops.get(end) {
            end += 1;
        }
        out.push(Launch {
            start,
            fused_end,
            end,
        });
        start = end;
    }
    out
}

impl Network {
    /// Creates a network from a stack of ops.
    pub fn new(ops: Vec<Op>) -> Self {
        let launches = launches(&ops);
        let widest_dense = ops
            .iter()
            .map(|op| match op {
                Op::Dense(d) => d.out_features(),
                _ => 0,
            })
            .max()
            .unwrap_or(0);
        let concats = ops.iter().filter(|op| matches!(op, Op::ConcatTime)).count();
        Network {
            ops,
            launches,
            widest_dense,
            concats,
        }
    }

    /// The ops in execution order.
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// Number of layers (ops).
    pub fn depth(&self) -> usize {
        self.ops.len()
    }

    /// Number of *compute* layers (convs + denses) — what the paper counts
    /// as "the number of layers in f".
    pub fn compute_depth(&self) -> usize {
        self.ops
            .iter()
            .filter(|op| matches!(op, Op::Conv2d(_) | Op::Dense(_)))
            .count()
    }

    /// Total number of trainable parameter tensors.
    pub fn param_count(&self) -> usize {
        self.ops.iter().map(Op::param_count).sum()
    }

    /// Total number of scalar parameters.
    pub fn scalar_param_count(&self) -> usize {
        self.params().iter().map(|p| p.len()).sum()
    }

    /// Immutable references to every parameter tensor, in op order
    /// (weight before bias / gamma before beta).
    pub fn params(&self) -> Vec<&Tensor> {
        let mut out = Vec::new();
        for op in &self.ops {
            match op {
                Op::Conv2d(c) => {
                    out.push(c.weight());
                    out.push(c.bias());
                }
                Op::Dense(d) => {
                    out.push(d.weight());
                    out.push(d.bias());
                }
                Op::GroupNorm(g) => {
                    out.push(g.gamma());
                    out.push(g.beta());
                }
                Op::Activation(_) | Op::ConcatTime => {}
            }
        }
        out
    }

    /// Mutable references to every parameter tensor, same order as
    /// [`Network::params`].
    pub fn params_mut(&mut self) -> Vec<&mut Tensor> {
        let mut out = Vec::new();
        for op in &mut self.ops {
            match op {
                Op::Conv2d(c) => {
                    let (w, b) = c.params_mut();
                    out.push(w);
                    out.push(b);
                }
                Op::Dense(d) => {
                    let (w, b) = d.params_mut();
                    out.push(w);
                    out.push(b);
                }
                Op::GroupNorm(g) => {
                    let (gamma, beta) = g.params_mut();
                    out.push(gamma);
                    out.push(beta);
                }
                Op::Activation(_) | Op::ConcatTime => {}
            }
        }
        out
    }

    /// MAC count of one forward evaluation on the given input shape (used by
    /// the hardware cost models). Activations/norms count zero MACs.
    pub fn macs(&self, input_shape: &[usize]) -> u64 {
        let mut shape = input_shape.to_vec();
        let mut total = 0u64;
        for op in &self.ops {
            match op {
                Op::Conv2d(c) => {
                    total += c.macs(shape[0], shape[2], shape[3]);
                    shape[1] = c.out_channels();
                }
                Op::Dense(d) => {
                    total += d.macs(shape[0]);
                    shape[1] = d.out_features();
                }
                Op::ConcatTime => shape[1] += 1,
                Op::Activation(_) | Op::GroupNorm(_) => {}
            }
        }
        total
    }

    /// Evaluates `f(t, h)` without retaining caches (inference-only path):
    /// allocates the output and runs [`Network::eval_into`].
    pub fn eval(&self, t: f32, x: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(self.output_shape(*x.shape_obj()).dims());
        self.eval_into(t, x, &mut out);
        out
    }

    /// Evaluates `f(t, h)` into `out` without retaining caches — the one
    /// implementation of inference-time evaluation. A warm evaluation
    /// makes no heap allocation. The input's shape picks one of two
    /// regimes; both give the bits of the op-by-op pass
    /// ([`Network::forward_at`]).
    ///
    /// **The row pass** takes a vector state `[N, D]` with fewer rows than
    /// one register tile (`N < matmul::MR`; a serving solve has `N = 1`).
    /// Its `f` is a few dozen MACs, so the work around the ops weighs about
    /// as much as the arithmetic. Each row runs the ops in order over two
    /// stack rows: `ConcatTime` appends `t`, each `Dense` runs its row
    /// chain, each [`Activation`] runs in place, and the last op writes
    /// straight into `out`'s row. There is no arena checkout, no shape
    /// fold and no per-launch dispatch. Rows wider than the stack bound
    /// (64 floats) take their two rows from one arena checkout instead.
    ///
    /// **The launch chain** takes feature maps and batches of at least
    /// `MR` rows. Ops run as kernel launches, split once when the network
    /// is built. The intermediate results share one checkout of the
    /// thread-local arena ([`crate::arena::with_arena_f32`]) and the last
    /// launch writes straight into `out`. Each maximal
    /// `Conv2d → [GroupNorm] → [Activation]` run is one launch of the fused
    /// kernel behind [`Conv2d::forward_fused`], which keeps each sample's
    /// conv output in the arena and applies the normalization and
    /// activation as an epilogue; dense batches run the packed GEMM. The
    /// fused path is bit-identical to the op-by-op pass (same k-order
    /// accumulation, same moment arithmetic), so training/inference parity
    /// is exact. Every other [`Activation`] runs in place
    /// ([`Activation::apply_slice`]) on the output of the launch before it.
    ///
    /// In both regimes an activation at the head of the stack copies the
    /// input first, so `x` is never written.
    ///
    /// # Panics
    ///
    /// Panics if `out` does not have the shape [`Network::eval`] would
    /// return for `x`, or an op rejects its input shape.
    pub fn eval_into(&self, t: f32, x: &Tensor, out: &mut Tensor) {
        let dims = x.shape();
        if dims.len() == 2 && dims[0] < matmul::MR && !self.ops.is_empty() {
            self.eval_rows(t, x.data(), dims[1], out);
            return;
        }
        // The intermediate launch outputs share one arena checkout.
        let mut shape = *x.shape_obj();
        let mut scratch = 0;
        for (k, l) in self.launches.iter().enumerate() {
            shape = op_output_shape(&self.ops[l.start], shape);
            if k + 1 < self.launches.len() {
                scratch += shape.len();
            }
        }
        assert_eq!(
            out.shape_obj(),
            &shape,
            "eval_into: output buffer has the wrong shape"
        );
        if self.ops.is_empty() {
            out.copy_from(x);
            return;
        }
        with_arena_f32(scratch, |mut rest| {
            let (mut input, mut shape): (&[f32], Shape) = (x.data(), *x.shape_obj());
            for l in &self.launches {
                let out_shape = op_output_shape(&self.ops[l.start], shape);
                if l.end == self.ops.len() {
                    self.launch(l, t, input, shape, out.data_mut());
                } else {
                    let (dst, tail) = std::mem::take(&mut rest).split_at_mut(out_shape.len());
                    self.launch(l, t, input, shape, dst);
                    input = dst;
                    rest = tail;
                }
                shape = out_shape;
            }
        });
    }

    /// The row pass of [`Network::eval_into`] over the rows of `x`, each
    /// `d` features wide.
    fn eval_rows(&self, t: f32, x: &[f32], d: usize, out: &mut Tensor) {
        let n = x.len() / d;
        let out_dims = out.shape();
        assert!(
            out_dims.len() == 2 && out_dims[0] == n,
            "eval_into: output buffer has the wrong shape"
        );
        let width = d.max(self.widest_dense) + self.concats;
        if width <= STACK_ROW {
            let mut rows = [[0.0f32; STACK_ROW]; 2];
            let [a, b] = &mut rows;
            self.row_pass(t, x, d, out.data_mut(), a, b);
        } else {
            with_arena_f32(2 * width, |rows| {
                let (a, b) = rows.split_at_mut(width);
                self.row_pass(t, x, d, out.data_mut(), a, b);
            });
        }
    }

    /// Runs every launch on each `d`-wide row of `x` into the matching row
    /// of `out` (as many rows), alternating between the rows `a` and `b`,
    /// each at least as wide as any intermediate result.
    fn row_pass(&self, t: f32, x: &[f32], d: usize, out: &mut [f32], a: &mut [f32], b: &mut [f32]) {
        let o = out.len() / (x.len() / d);
        let last = self.launches.len() - 1;
        for (xrow, yrow) in x.chunks_exact(d).zip(out.chunks_exact_mut(o)) {
            let (mut cur, mut next) = (&mut *a, &mut *b);
            let mut width = d;
            for (k, l) in self.launches.iter().enumerate() {
                let input: &[f32] = if k == 0 { xrow } else { &cur[..width] };
                let head = &self.ops[l.start];
                width = match head {
                    Op::Dense(dense) => {
                        assert_eq!(width, dense.in_features(), "input feature mismatch");
                        dense.out_features()
                    }
                    Op::ConcatTime => width + 1,
                    Op::Activation(_) => width,
                    Op::Conv2d(_) | Op::GroupNorm(_) => {
                        panic!("expected rank-4 shape, got a rank-2 state")
                    }
                };
                let dst = if k == last {
                    assert_eq!(width, o, "eval_into: output buffer has the wrong shape");
                    &mut *yrow
                } else {
                    &mut next[..width]
                };
                match head {
                    Op::Dense(dense) => dense.forward_row(input, dst),
                    Op::ConcatTime => {
                        dst[..width - 1].copy_from_slice(input);
                        dst[width - 1] = t;
                    }
                    _ => dst.copy_from_slice(input),
                }
                // An activation at the head of the launch was copied above
                // and runs here with the ones after it.
                for op in &self.ops[l.start..l.end] {
                    if let Op::Activation(act) = op {
                        act.apply_slice(dst);
                    }
                }
                std::mem::swap(&mut cur, &mut next);
            }
        }
    }

    /// The shape `f` maps an input of shape `input` to.
    fn output_shape(&self, input: Shape) -> Shape {
        self.ops
            .iter()
            .fold(input, |shape, op| op_output_shape(op, shape))
    }

    /// Runs `launch` from `input` (of shape `shape`) into `dst`.
    fn launch(&self, launch: &Launch, t: f32, input: &[f32], shape: Shape, dst: &mut [f32]) {
        let first = &self.ops[launch.start];
        let fused = &self.ops[launch.start + 1..launch.fused_end];
        match first {
            Op::Conv2d(c) if !fused.is_empty() => {
                let gn = fused.iter().find_map(|op| match op {
                    Op::GroupNorm(g) => Some(g),
                    _ => None,
                });
                let act = fused.iter().find_map(|op| match op {
                    Op::Activation(a) => Some(*a),
                    _ => None,
                });
                c.forward_fused_into(input, shape.nchw(), gn, act, dst);
            }
            op => apply_op_into(op, t, input, shape, dst),
        }
        for op in &self.ops[launch.fused_end..launch.end] {
            if let Op::Activation(a) = op {
                a.apply_slice(dst);
            }
        }
    }

    /// Forward pass at `t = 0` with caches.
    pub fn forward(&self, x: &Tensor) -> (Tensor, Vec<OpCache>) {
        self.forward_at(0.0, x)
    }

    /// Forward pass of `f(t, ·)` with caches for [`Network::backward`]:
    /// allocates the output and runs [`Network::forward_at_into`].
    pub fn forward_at(&self, t: f32, x: &Tensor) -> (Tensor, Vec<OpCache>) {
        let mut out = Tensor::zeros(self.output_shape(*x.shape_obj()).dims());
        let mut caches = Vec::with_capacity(self.ops.len());
        self.forward_at_into(t, x, &mut out, &mut caches);
        (out, caches)
    }

    /// Forward pass of `f(t, ·)` into `out` and `caches`, reusing their
    /// storage: each op input that `caches` holds from an earlier call is
    /// overwritten in place when its length fits, and `out` when it
    /// already has the output's shape. A caller that keeps one
    /// `(out, caches)` pair per RK stage — the ACA backward's training
    /// states — allocates them once, not once per interval. The values
    /// are those of the unfused op-by-op pass, bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if an op rejects its input shape.
    pub fn forward_at_into(&self, t: f32, x: &Tensor, out: &mut Tensor, caches: &mut Vec<OpCache>) {
        let mut spare: Vec<Tensor> = caches.drain(..).filter_map(OpCache::into_input).collect();
        let Some((last, body)) = self.ops.split_last() else {
            *out = x.clone();
            return;
        };
        let mut cur = recycled(&mut spare, *x.shape_obj());
        cur.copy_from(x);
        for op in body {
            let mut y = recycled(&mut spare, op_output_shape(op, *cur.shape_obj()));
            caches.push(forward_op_into(op, t, cur, y.data_mut()));
            cur = y;
        }
        let shape = op_output_shape(last, *cur.shape_obj());
        if out.shape_obj() != &shape {
            *out = Tensor::zeros(shape.dims());
        }
        caches.push(forward_op_into(last, t, cur, out.data_mut()));
    }

    /// Backward pass: given the forward caches and the output cotangent
    /// `dy`, returns the input cotangent `dx = dyᵀ·∂f/∂h` and the parameter
    /// cotangents `dθ = dyᵀ·∂f/∂θ`, aligned with [`Network::params`].
    ///
    /// These are exactly the two vector-Jacobian products the adjoint ODE
    /// (paper eqs. 4 and 5) integrates.
    ///
    /// # Panics
    ///
    /// Panics if `caches` was not produced by a matching forward pass.
    pub fn backward(&self, caches: &[OpCache], dy: &Tensor) -> (Tensor, Vec<Tensor>) {
        assert_eq!(caches.len(), self.ops.len(), "cache/op count mismatch");
        let mut grads_rev: Vec<Tensor> = Vec::new();
        let mut cur = dy.clone();
        for (op, cache) in self.ops.iter().zip(caches).rev() {
            match (op, cache) {
                (Op::Conv2d(c), OpCache::Conv { x }) => {
                    let (dw, db) = c.backward_params(x, &cur);
                    grads_rev.push(db);
                    grads_rev.push(dw);
                    cur = c.backward_input(&cur);
                }
                (Op::Dense(d), OpCache::Dense { x }) => {
                    let (dw, db) = d.backward_params(x, &cur);
                    grads_rev.push(db);
                    grads_rev.push(dw);
                    cur = d.backward_input(&cur);
                }
                (Op::Activation(a), OpCache::Activation { x }) => {
                    cur = a.backward(x, &cur);
                }
                (Op::GroupNorm(g), OpCache::GroupNorm { x, cache }) => {
                    let (dx, dgamma, dbeta) = g.backward(x, cache, &cur);
                    grads_rev.push(dbeta);
                    grads_rev.push(dgamma);
                    cur = dx;
                }
                (Op::ConcatTime, OpCache::ConcatTime { in_shape }) => {
                    cur = strip_time_channel(&cur, in_shape);
                }
                _ => panic!("cache kind does not match op kind"),
            }
        }
        grads_rev.reverse();
        (cur, grads_rev)
    }

    /// Applies `param += scale * grad` for every parameter (used by the
    /// optimizers and by gradient-descent tests).
    ///
    /// # Panics
    ///
    /// Panics if `grads` is not aligned with [`Network::params`].
    pub fn apply_gradients(&mut self, grads: &[Tensor], scale: f32) {
        let mut params = self.params_mut();
        assert_eq!(params.len(), grads.len(), "gradient count mismatch");
        for (p, g) in params.iter_mut().zip(grads) {
            p.axpy(scale, g);
        }
    }
}

/// The shape `op` produces from an input of shape `shape`.
fn op_output_shape(op: &Op, shape: Shape) -> Shape {
    match op {
        Op::Conv2d(c) => {
            assert_eq!(shape.rank(), 4, "expected rank-4 shape, got {shape:?}");
            shape.with_extent(1, c.out_channels())
        }
        Op::Dense(d) => {
            assert_eq!(shape.rank(), 2, "dense layers take [N, D] input");
            shape.with_extent(1, d.out_features())
        }
        Op::ConcatTime => {
            assert!(
                matches!(shape.rank(), 2 | 4),
                "ConcatTime supports rank 2 or 4 inputs, got rank {}",
                shape.rank()
            );
            shape.with_extent(1, shape.dims()[1] + 1)
        }
        Op::Activation(_) | Op::GroupNorm(_) => shape,
    }
}

/// Applies a single op without caches from `x` (of shape `shape`) into
/// `dst` (the unfused inference step).
fn apply_op_into(op: &Op, t: f32, x: &[f32], shape: Shape, dst: &mut [f32]) {
    match op {
        Op::Conv2d(c) => c.forward_into(x, shape.nchw(), dst),
        Op::Dense(d) => {
            assert_eq!(shape.dims()[1], d.in_features(), "input feature mismatch");
            d.forward_into(x, shape.dims()[0], dst);
        }
        Op::Activation(a) => {
            dst.copy_from_slice(x);
            a.apply_slice(dst);
        }
        Op::GroupNorm(g) => {
            // Per sample through the fused epilogue's normalize, whose
            // arithmetic is `GroupNorm::forward`'s.
            let (_, c, h, w) = shape.nchw();
            assert_eq!(c, g.channels(), "channel mismatch");
            for (xs, ys) in x
                .chunks_exact(c * h * w)
                .zip(dst.chunks_exact_mut(c * h * w))
            {
                g.normalize_into(xs, ys, h * w, None);
            }
        }
        Op::ConcatTime => concat_time_into(x, shape, t, dst),
    }
}

/// Runs `op` on `x` into `dst` and returns the cache that keeps `x` for
/// the backward pass (the training step of [`Network::forward_at_into`]).
fn forward_op_into(op: &Op, t: f32, x: Tensor, dst: &mut [f32]) -> OpCache {
    if let Op::GroupNorm(g) = op {
        let cache = g.forward_into(&x, dst);
        return OpCache::GroupNorm { x, cache };
    }
    apply_op_into(op, t, x.data(), *x.shape_obj(), dst);
    match op {
        Op::Conv2d(_) => OpCache::Conv { x },
        Op::Dense(_) => OpCache::Dense { x },
        Op::Activation(_) => OpCache::Activation { x },
        Op::ConcatTime => OpCache::ConcatTime {
            in_shape: x.shape().to_vec(),
        },
        Op::GroupNorm(_) => unreachable!("handled above"),
    }
}

/// A tensor of `shape` on the storage of one of `spare`'s tensors of the
/// same length (contents stale), or a fresh one.
fn recycled(spare: &mut Vec<Tensor>, shape: Shape) -> Tensor {
    match spare.iter().position(|b| b.len() == shape.len()) {
        Some(i) => Tensor::from_vec(spare.swap_remove(i).into_vec(), shape.dims()),
        None => Tensor::zeros(shape.dims()),
    }
}

/// Appends a constant channel (rank 4) or feature (rank 2) holding `t`
/// from `x` (of shape `shape`) into `dst`.
fn concat_time_into(x: &[f32], shape: Shape, t: f32, dst: &mut [f32]) {
    let (n, per_sample) = (shape.dims()[0], shape.len() / shape.dims()[0]);
    // The appended channel is one `H·W` plane per sample at rank 4, one
    // feature at rank 2.
    let extra = if shape.rank() == 4 {
        shape.dims()[2] * shape.dims()[3]
    } else {
        1
    };
    debug_assert_eq!(dst.len(), n * (per_sample + extra));
    for (xs, ys) in x
        .chunks_exact(per_sample)
        .zip(dst.chunks_exact_mut(per_sample + extra))
    {
        ys[..per_sample].copy_from_slice(xs);
        ys[per_sample..].fill(t);
    }
}

/// Drops the appended time channel/feature from a cotangent.
fn strip_time_channel(dy: &Tensor, in_shape: &[usize]) -> Tensor {
    match in_shape.len() {
        4 => {
            let (n, c, h, w) = (in_shape[0], in_shape[1], in_shape[2], in_shape[3]);
            let mut dx = Tensor::zeros(in_shape);
            for ni in 0..n {
                for ci in 0..c {
                    for hi in 0..h {
                        for wi in 0..w {
                            *dx.at4_mut(ni, ci, hi, wi) = dy.at4(ni, ci, hi, wi);
                        }
                    }
                }
            }
            dx
        }
        2 => {
            let (n, d) = (in_shape[0], in_shape[1]);
            let mut dx = Tensor::zeros(in_shape);
            for ni in 0..n {
                for di in 0..d {
                    dx.data_mut()[ni * d + di] = dy.data()[ni * (d + 1) + di];
                }
            }
            dx
        }
        r => panic!("ConcatTime supports rank 2 or 4 inputs, got rank {r}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init;

    fn small_conv_net() -> Network {
        Network::new(vec![
            Op::ConcatTime,
            Op::conv2d(Conv2d::new_seeded(3, 4, 3, 1)),
            Op::relu(),
            Op::conv2d(Conv2d::new_seeded(4, 2, 3, 2)),
        ])
    }

    fn small_dense_net() -> Network {
        Network::new(vec![
            Op::ConcatTime,
            Op::dense(Dense::new_seeded(3, 8, 1)),
            Op::tanh(),
            Op::dense(Dense::new_seeded(8, 2, 2)),
        ])
    }

    #[test]
    fn forward_shapes() {
        let f = small_conv_net();
        let x = Tensor::ones(&[1, 2, 5, 5]);
        let (y, caches) = f.forward_at(0.5, &x);
        assert_eq!(y.shape(), &[1, 2, 5, 5]);
        assert_eq!(caches.len(), 4);
    }

    #[test]
    fn time_channel_changes_output() {
        let f = small_dense_net();
        let x = Tensor::from_vec(vec![0.3, -0.7], &[1, 2]);
        let y0 = f.eval(0.0, &x);
        let y1 = f.eval(1.0, &x);
        assert_ne!(y0.data(), y1.data(), "f must depend on t via ConcatTime");
    }

    #[test]
    fn input_vjp_matches_finite_difference() {
        let f = small_dense_net();
        let mut x = init::uniform(&[1, 2], -1.0, 1.0, 10);
        let v = init::uniform(&[1, 2], -1.0, 1.0, 11);
        let (_, caches) = f.forward_at(0.3, &x);
        let (dx, _) = f.backward(&caches, &v);
        let eps = 1e-3;
        for i in 0..2 {
            let orig = x.data()[i];
            x.data_mut()[i] = orig + eps;
            let lp = f.eval(0.3, &x).dot(&v);
            x.data_mut()[i] = orig - eps;
            let lm = f.eval(0.3, &x).dot(&v);
            x.data_mut()[i] = orig;
            let fd = (lp - lm) / (2.0 * eps);
            assert!(
                (fd - dx.data()[i]).abs() < 1e-2 * fd.abs().max(1.0),
                "dx[{i}]: fd {fd} vs {}",
                dx.data()[i]
            );
        }
    }

    #[test]
    fn param_vjp_matches_finite_difference() {
        let mut f = small_dense_net();
        let x = init::uniform(&[2, 2], -1.0, 1.0, 20);
        let v = init::uniform(&[2, 2], -1.0, 1.0, 21);
        let (_, caches) = f.forward_at(0.7, &x);
        let (_, grads) = f.backward(&caches, &v);
        assert_eq!(grads.len(), f.param_count());
        let eps = 1e-3;
        // Spot-check the first weight tensor.
        for idx in [0usize, 5, 11] {
            let orig = f.params()[0].data()[idx];
            f.params_mut()[0].data_mut()[idx] = orig + eps;
            let lp = f.eval(0.7, &x).dot(&v);
            f.params_mut()[0].data_mut()[idx] = orig - eps;
            let lm = f.eval(0.7, &x).dot(&v);
            f.params_mut()[0].data_mut()[idx] = orig;
            let fd = (lp - lm) / (2.0 * eps);
            assert!(
                (fd - grads[0].data()[idx]).abs() < 1e-2 * fd.abs().max(1.0),
                "dtheta[0][{idx}]: fd {fd} vs {}",
                grads[0].data()[idx]
            );
        }
    }

    #[test]
    fn conv_net_backward_shapes() {
        let f = small_conv_net();
        let x = Tensor::ones(&[1, 2, 4, 4]);
        let (y, caches) = f.forward_at(0.0, &x);
        let (dx, grads) = f.backward(&caches, &Tensor::ones(y.shape()));
        assert_eq!(dx.shape(), x.shape());
        assert_eq!(grads.len(), 4); // two convs x (weight, bias)
        assert_eq!(grads[0].shape(), &[4, 3, 3, 3]);
    }

    #[test]
    fn macs_accumulate_through_ops() {
        let f = small_conv_net();
        // conv1: 4*3*9 per pixel, conv2: 2*4*9 per pixel, over 25 pixels.
        let expect = (4 * 3 * 9 + 2 * 4 * 9) * 25;
        assert_eq!(f.macs(&[1, 2, 5, 5]), expect as u64);
    }

    #[test]
    fn apply_gradients_moves_params() {
        let mut f = small_dense_net();
        let x = init::uniform(&[1, 2], -1.0, 1.0, 30);
        let (y, caches) = f.forward_at(0.0, &x);
        let (_, grads) = f.backward(&caches, &y); // dL/dy = y => L = 0.5|y|^2
        let before = f.eval(0.0, &x).norm_l2();
        f.apply_gradients(&grads, -0.05);
        let after = f.eval(0.0, &x).norm_l2();
        assert!(
            after < before,
            "gradient step must reduce |f| ({before} -> {after})"
        );
    }

    #[test]
    fn compute_depth_counts_only_linear_ops() {
        assert_eq!(small_conv_net().compute_depth(), 2);
        assert_eq!(small_dense_net().compute_depth(), 2);
    }

    #[test]
    fn eval_fused_matches_forward_at_bitwise() {
        // `eval` routes Conv2d→GroupNorm→Activation runs through the fused
        // kernel; the contract is bit-identity with the cached op-by-op
        // pass, not mere closeness.
        let f = Network::new(vec![
            Op::ConcatTime,
            Op::conv2d(Conv2d::new_seeded(3, 4, 3, 1)),
            Op::group_norm(GroupNorm::new(4, 2)),
            Op::relu(),
            Op::conv2d(Conv2d::new_seeded(4, 2, 3, 2)),
            Op::tanh(),
        ]);
        let x = init::uniform(&[3, 2, 6, 6], -1.0, 1.0, 40);
        let fused = f.eval(0.37, &x);
        let (unfused, _) = f.forward_at(0.37, &x);
        assert_eq!(fused.data(), unfused.data());
        assert_eq!(fused.shape(), unfused.shape());

        // Dense nets and bare convs take the unfused path and must agree too.
        let g = small_dense_net();
        let xd = init::uniform(&[2, 2], -1.0, 1.0, 41);
        assert_eq!(g.eval(0.9, &xd).data(), g.forward_at(0.9, &xd).0.data());

        // A leading activation reads the caller's borrowed input (it must
        // copy, and leave `x` untouched); the two activations in a row
        // then run in place on owned buffers.
        let h = Network::new(vec![
            Op::tanh(),
            Op::ConcatTime,
            Op::dense(Dense::new_seeded(3, 8, 3)),
            Op::tanh(),
            Op::relu(),
            Op::dense(Dense::new_seeded(8, 2, 4)),
            Op::Activation(Activation::Softplus),
        ]);
        let xh = init::uniform(&[3, 2], -2.0, 2.0, 42);
        let before: Vec<u32> = xh.data().iter().map(|v| v.to_bits()).collect();
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let evaluated = h.eval(0.25, &xh);
        assert_eq!(bits(&evaluated), bits(&h.forward_at(0.25, &xh).0));
        assert_eq!(bits(&xh), before, "eval must not write its input");
    }

    #[test]
    fn eval_into_overwrites_a_dirty_buffer_bitwise() {
        // Every launch kind: a bare GroupNorm (rank 4, no conv before it),
        // the time concat, a lone conv, a fused conv group and trailing
        // in-place activations; plus a network with no ops.
        let f = Network::new(vec![
            Op::group_norm(GroupNorm::new(2, 1)),
            Op::relu(),
            Op::ConcatTime,
            Op::conv2d(Conv2d::new_seeded(3, 4, 3, 5)),
            Op::conv2d(Conv2d::new_seeded(4, 2, 3, 6)),
            Op::group_norm(GroupNorm::new(2, 2)),
            Op::tanh(),
            Op::relu(),
        ]);
        let x = init::uniform(&[2, 2, 5, 5], -1.0, 1.0, 43);
        let mut out = Tensor::full(&[2, 2, 5, 5], f32::NAN);
        f.eval_into(0.6, &x, &mut out);
        assert_eq!(out.data(), f.forward_at(0.6, &x).0.data());

        let empty = Network::new(Vec::new());
        empty.eval_into(0.0, &x, &mut out);
        assert_eq!(out.data(), x.data());
    }

    #[test]
    fn forward_at_into_reuses_stale_training_states_bitwise() {
        // Every op kind, the time concat mid-stack; the reused states come
        // from another input, another time and, last, another batch size.
        let f = Network::new(vec![
            Op::conv2d(Conv2d::new_seeded(2, 3, 3, 7)),
            Op::ConcatTime,
            Op::conv2d(Conv2d::new_seeded(4, 4, 3, 8)),
            Op::group_norm(GroupNorm::new(4, 2)),
            Op::relu(),
            Op::conv2d(Conv2d::new_seeded(4, 2, 3, 9)),
            Op::tanh(),
        ]);
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let stale = init::uniform(&[2, 2, 5, 5], -3.0, 3.0, 44);
        let (mut out, mut caches) = f.forward_at(0.1, &stale);
        for (n, seed) in [(2, 45), (3, 46)] {
            let x = init::uniform(&[n, 2, 5, 5], -1.0, 1.0, seed);
            f.forward_at_into(0.8, &x, &mut out, &mut caches);
            let (fresh, fresh_caches) = f.forward_at(0.8, &x);
            assert_eq!(out.shape(), fresh.shape());
            assert_eq!(bits(&out), bits(&fresh));
            assert_eq!(caches.len(), fresh_caches.len());
            for (c, fc) in caches.iter().zip(&fresh_caches) {
                match (c, fc) {
                    (
                        OpCache::GroupNorm { x, cache },
                        OpCache::GroupNorm {
                            x: fx,
                            cache: fcache,
                        },
                    ) => {
                        assert_eq!(bits(x), bits(fx));
                        assert_eq!(cache.mean, fcache.mean);
                        assert_eq!(cache.inv_std, fcache.inv_std);
                    }
                    (
                        OpCache::ConcatTime { in_shape },
                        OpCache::ConcatTime { in_shape: fshape },
                    ) => assert_eq!(in_shape, fshape),
                    _ => {
                        let (x, fx) = (c.clone().into_input(), fc.clone().into_input());
                        assert_eq!(x.as_ref().map(bits), fx.as_ref().map(bits));
                        assert_eq!(
                            x.map(|t| t.shape().to_vec()),
                            fx.map(|t| t.shape().to_vec())
                        );
                    }
                }
            }
        }

        let empty = Network::new(Vec::new());
        empty.forward_at_into(0.0, &stale, &mut out, &mut caches);
        assert_eq!((bits(&out), caches.len()), (bits(&stale), 0));
    }

    #[test]
    #[should_panic(expected = "wrong shape")]
    fn eval_into_rejects_a_misshapen_buffer() {
        let f = small_dense_net();
        let x = Tensor::from_vec(vec![0.3, -0.7], &[1, 2]);
        f.eval_into(0.0, &x, &mut Tensor::zeros(&[1, 3]));
    }
}
