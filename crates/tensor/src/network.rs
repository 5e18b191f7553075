//! A small feed-forward network container with explicit caches.
//!
//! The embedded NN `f` of a Neural ODE is a *shallow* stack of layers (the
//! paper's prototype maps a 4-conv-layer `f` onto 4 NN cores). The adjoint
//! backward pass needs vector-Jacobian products of `f` with respect to both
//! its input state and its parameters, so [`Network::forward`] returns
//! explicit per-op caches and [`Network::backward`] consumes them.

use crate::activation::Activation;
use crate::conv::Conv2d;
use crate::dense::Dense;
use crate::norm::{GroupNorm, GroupNormCache};
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
}

impl Network {
    /// Creates a network from a stack of ops.
    pub fn new(ops: Vec<Op>) -> Self {
        Network { ops }
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

    /// Evaluates `f(t, h)` without retaining caches (inference-only path).
    ///
    /// Maximal `Conv2d → [GroupNorm] → [Activation]` runs on rank-4 input
    /// execute through [`Conv2d::forward_fused`], which keeps each sample's
    /// conv output in the thread-local arena and applies the normalization
    /// and activation as an epilogue instead of materializing intermediate
    /// NCHW tensors. The fused path is bit-identical to the op-by-op pass
    /// (same k-order GEMM, same moment arithmetic), so training/inference
    /// parity is exact.
    ///
    /// An [`Activation`] that follows an op whose output the network
    /// already owns is applied in place ([`Activation::apply_slice`], the
    /// body [`Activation::forward`] runs on its copy), so it allocates
    /// nothing. Only an activation at the head of the stack, which would
    /// overwrite the caller's borrowed input, copies first.
    pub fn eval(&self, t: f32, x: &Tensor) -> Tensor {
        let mut cur: Option<Tensor> = None;
        let mut i = 0;
        while i < self.ops.len() {
            if let (Op::Activation(a), Some(owned)) = (&self.ops[i], cur.as_mut()) {
                a.apply_slice(owned.data_mut());
                i += 1;
                continue;
            }
            let input = cur.as_ref().unwrap_or(x);
            if let Op::Conv2d(c) = &self.ops[i] {
                if input.shape().len() == 4 {
                    let mut j = i + 1;
                    let gn = match self.ops.get(j) {
                        Some(Op::GroupNorm(g)) => {
                            j += 1;
                            Some(g)
                        }
                        _ => None,
                    };
                    let act = match self.ops.get(j) {
                        Some(Op::Activation(a)) => {
                            j += 1;
                            Some(*a)
                        }
                        _ => None,
                    };
                    if gn.is_some() || act.is_some() {
                        cur = Some(c.forward_fused(input, gn, act));
                        i = j;
                        continue;
                    }
                }
            }
            cur = Some(apply_op(&self.ops[i], t, input));
            i += 1;
        }
        cur.unwrap_or_else(|| x.clone())
    }

    /// Forward pass at `t = 0` with caches.
    pub fn forward(&self, x: &Tensor) -> (Tensor, Vec<OpCache>) {
        self.forward_at(0.0, x)
    }

    /// Forward pass of `f(t, ·)` with caches for [`Network::backward`].
    pub fn forward_at(&self, t: f32, x: &Tensor) -> (Tensor, Vec<OpCache>) {
        let mut caches = Vec::with_capacity(self.ops.len());
        let mut cur = x.clone();
        for op in &self.ops {
            match op {
                Op::Conv2d(c) => {
                    let y = c.forward(&cur);
                    caches.push(OpCache::Conv { x: cur });
                    cur = y;
                }
                Op::Dense(d) => {
                    let y = d.forward(&cur);
                    caches.push(OpCache::Dense { x: cur });
                    cur = y;
                }
                Op::Activation(a) => {
                    let y = a.forward(&cur);
                    caches.push(OpCache::Activation { x: cur });
                    cur = y;
                }
                Op::GroupNorm(g) => {
                    let (y, cache) = g.forward(&cur);
                    caches.push(OpCache::GroupNorm { x: cur, cache });
                    cur = y;
                }
                Op::ConcatTime => {
                    let in_shape = cur.shape().to_vec();
                    let y = concat_time(&cur, t);
                    caches.push(OpCache::ConcatTime { in_shape });
                    cur = y;
                }
            }
        }
        (cur, caches)
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

/// Applies a single op without caches (the unfused inference step).
fn apply_op(op: &Op, t: f32, x: &Tensor) -> Tensor {
    match op {
        Op::Conv2d(c) => c.forward(x),
        Op::Dense(d) => d.forward(x),
        Op::Activation(a) => a.forward(x),
        Op::GroupNorm(g) => g.forward(x).0,
        Op::ConcatTime => concat_time(x, t),
    }
}

/// Appends a constant channel (rank 4) or feature (rank 2) holding `t`.
fn concat_time(x: &Tensor, t: f32) -> Tensor {
    match x.shape().len() {
        4 => {
            let (n, c, h, w) = x.shape_obj().nchw();
            let mut y = Tensor::zeros(&[n, c + 1, h, w]);
            for ni in 0..n {
                for ci in 0..c {
                    for hi in 0..h {
                        for wi in 0..w {
                            *y.at4_mut(ni, ci, hi, wi) = x.at4(ni, ci, hi, wi);
                        }
                    }
                }
                for hi in 0..h {
                    for wi in 0..w {
                        *y.at4_mut(ni, c, hi, wi) = t;
                    }
                }
            }
            y
        }
        2 => {
            let (n, d) = (x.shape()[0], x.shape()[1]);
            let mut y = Tensor::zeros(&[n, d + 1]);
            for ni in 0..n {
                for di in 0..d {
                    y.data_mut()[ni * (d + 1) + di] = x.data()[ni * d + di];
                }
                y.data_mut()[ni * (d + 1) + d] = t;
            }
            y
        }
        r => panic!("ConcatTime supports rank 2 or 4 inputs, got rank {r}"),
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
}
