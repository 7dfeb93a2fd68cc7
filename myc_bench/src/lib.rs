//! `myc_bench`: one certified Mycelium round measured end to end and per
//! layer, across the direct, real-process and recovery paths.
//!
//! Every layer is measured from outside, by timing calls into public
//! functions of the repository's crates; nothing outside this package
//! changes. See `README.md` beside this package for the workloads, the
//! metrics and how they interact.

pub mod attrib;
pub mod harness;
pub mod spec;
pub mod units;
pub mod workloads;
