//! NN tensor substrate for the eNODE reproduction.
//!
//! This crate provides everything the Neural-ODE stack needs from a neural
//! network library, built from scratch:
//!
//! * [`Tensor`] — a dense row-major tensor of `f32` with shape-checked
//!   elementwise and linear-algebra helpers.
//! * [`F16`] — a software IEEE-754 binary16 type used for storage-size
//!   accounting and quantization experiments (the eNODE prototype datapath
//!   is FP16).
//! * Convolution ([`conv`]) with forward, input-gradient and weight-gradient
//!   passes (the three directions the unified eNODE NN core executes).
//! * Dense layers, activations, and group normalization with full backward
//!   passes ([`dense`], [`activation`], [`norm`]).
//! * A small network container ([`network::Network`]) with explicit caches so
//!   the Neural-ODE adjoint pass can form vector-Jacobian products with
//!   respect to both the input state and the parameters.
//! * Optimizers ([`optim`]) and initializers ([`init`]).
//! * A scoped worker-pool parallel execution layer ([`parallel`]) with a
//!   bit-identical determinism contract, a thread-local bump arena for
//!   kernel scratch ([`arena`]), and the packed-panel register-tiled
//!   matmul microkernel ([`matmul`]) behind the im2col convolution fast
//!   path.
//! * Kernel-split summaries ([`access`]) registered beside every
//!   parallel kernel: the item count, grain, flops and region sizes the
//!   split lints and the roofline cost model in `enode-analysis` read.
//! * A feature-gated lock-order recorder ([`synctrace`]): under
//!   `--features synctrace` the worker pool (and the serving runtime one
//!   crate up) records every `held → acquired` lock nesting it takes, for
//!   the serve crate's traced lock-order test.
//!
//! # Example
//!
//! ```
//! use enode_tensor::{Tensor, network::{Network, Op}, conv::Conv2d};
//!
//! // A tiny embedded NN f: conv3x3 -> ReLU -> conv3x3, as used inside a
//! // Neural-ODE integration layer.
//! let f = Network::new(vec![
//!     Op::conv2d(Conv2d::new_seeded(4, 4, 3, 1)),
//!     Op::relu(),
//!     Op::conv2d(Conv2d::new_seeded(4, 4, 3, 2)),
//! ]);
//! let h = Tensor::ones(&[1, 4, 8, 8]);
//! let (y, caches) = f.forward(&h);
//! assert_eq!(y.shape(), h.shape());
//! // Vector-Jacobian products for the adjoint ODE:
//! let a = Tensor::ones(y.shape());
//! let (dh, dtheta) = f.backward(&caches, &a);
//! assert_eq!(dh.shape(), h.shape());
//! assert_eq!(dtheta.len(), f.param_count());
//! ```

pub mod access;
pub mod activation;
pub mod arena;
pub mod conv;
pub mod dense;
pub mod f16;
pub mod gradcheck;
pub mod init;
pub mod lincomb;
pub mod matmul;
pub mod network;
pub mod norm;
pub mod optim;
pub mod parallel;
pub mod pool;
pub mod rng;
pub mod sanitize;
pub mod shape;
pub(crate) mod simd;
pub mod synctrace;
pub mod tensor;

pub use f16::F16;
pub use rng::Rng64;
pub use shape::Shape;
pub use tensor::Tensor;
