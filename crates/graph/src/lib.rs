//! Graph substrate for the Mycelium reproduction.
//!
//! Mycelium's data model (§2) is a graph distributed across user devices:
//! one vertex per participant, an edge whenever one participant knows a
//! pseudonym of another, private data on both vertices (infection status,
//! diagnosis time, age, …) and edges (contact duration, frequency,
//! location, …). This crate provides:
//!
//! * [`graph`] — a compact CSR graph with per-edge attributes.
//! * [`data`] — the vertex/edge attribute schema the paper's ten example
//!   queries (Figure 2) touch.
//! * [`generate`] — synthetic workloads: Erdős–Rényi and household/community
//!   contact graphs, plus an SEIR-style epidemic simulation that produces
//!   realistic infection timelines (the paper's GAEN-like data source is
//!   substituted per DESIGN.md).
//! * [`pregel`] — the §7 Q1 baseline, the paper's "GraphX" comparison
//!   (plaintext Q1 on a cleartext graph).
//!
//! Origins find their `k`-hop neighbourhoods with `mycelium_query::eval::khop_rows`,
//! a breadth-first search over this crate's [`Graph`].

pub mod data;
pub mod generate;
pub mod graph;
pub mod pregel;

pub use data::{EdgeData, Location, Setting, VertexData};
pub use graph::Graph;
