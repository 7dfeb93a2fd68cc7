//! What the benchmark is built from: order statistics, `/proc` readers,
//! spans and the JSON writer. Nothing here knows a workload.

pub mod json;
pub mod procfs;
pub mod span;
pub mod stats;
