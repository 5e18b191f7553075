//! Host-normalized benchmark of eNODE Neural-ODE serving and ACA
//! training. See `README.md` beside this crate for the workloads, the
//! metrics and how to run it.

pub mod gate;
pub mod host;
pub mod referent;
pub mod report;
pub mod serve;
pub mod spans;
pub mod stats;
pub mod streams;
pub mod timing;
pub mod train;
