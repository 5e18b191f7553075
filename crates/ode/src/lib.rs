//! Runge–Kutta numerical integration for the eNODE reproduction.
//!
//! Implements the ODE-solving substrate the paper builds on:
//!
//! * [`tableau`] — generic Butcher tableaux: Euler, Midpoint, Heun, the
//!   RK23 (Bogacki–Shampine) pair the paper uses throughout, classic RK4,
//!   RKF45 and DOPRI5.
//! * [`stepper`] — the stepping core every solve runs on: per-solve stage,
//!   partial-state, candidate and error buffers, one Runge–Kutta trial with
//!   embedded error estimation and FSAL reuse, and one iterative stepsize
//!   search parameterized by a recorder of accepted points and a decision
//!   norm.
//! * [`step`] — one allocating Runge–Kutta step over any [`StateOps`] state.
//! * [`solver`] — fixed-step and adaptive initial-value-problem solvers with
//!   full search statistics (evaluation points, trials, function
//!   evaluations) as profiled in paper §II.
//! * [`controller`] — iterative stepsize-search controllers: the classic
//!   Press–Teukolsky accept/reject search (§II-B) and eNODE's
//!   **slope-adaptive stepsize search** (§VII-A).
//! * [`ddg`] — the data-dependency graph of a **depth-first integrator**
//!   (§IV, Fig 6a): integral states `k_i`, factored partial states
//!   `p_{i,j}` and error partials `e_i`, with lifetime analysis used by the
//!   hardware buffer models.
//!
//! # Example: adaptive RK23 on exponential decay
//!
//! ```
//! use enode_ode::{solver::{solve_adaptive, AdaptiveOptions}, tableau::ButcherTableau};
//! use enode_ode::controller::ClassicController;
//!
//! let tableau = ButcherTableau::rk23_bogacki_shampine();
//! let mut controller = ClassicController::new(tableau.error_order());
//! let opts = AdaptiveOptions::new(1e-8);
//! let sol = solve_adaptive(
//!     |_, y: &Vec<f64>| vec![-y[0]],
//!     0.0,
//!     1.0,
//!     vec![1.0],
//!     &tableau,
//!     &mut controller,
//!     &opts,
//! ).unwrap();
//! let exact = (-1.0f64).exp();
//! assert!((sol.final_state()[0] - exact).abs() < 1e-6);
//! ```

pub mod controller;
pub mod ddg;
pub mod problems;
pub mod solver;
pub mod state;
pub mod step;
pub mod stepper;
pub mod stiffness;
pub mod tableau;
pub mod verify;

pub use controller::{
    ClassicController, ConventionalSearchController, PiController, SlopeAdaptiveController,
    StepController,
};
pub use solver::{solve_adaptive, solve_fixed, AdaptiveOptions, Solution};
pub use state::StateOps;
pub use stepper::Stepper;
pub use tableau::ButcherTableau;
