//! A compact CSR (compressed sparse row) graph with per-edge attributes.
//!
//! The graph is undirected: every contact is stored as two directed
//! half-edges sharing the same [`EdgeData`]. Vertex degree is bounded by
//! the Mycelium parameter `d` (Figure 4: `d = 10`); the builder enforces
//! the bound so the privacy analysis's assumptions hold.

use crate::data::EdgeData;

/// A vertex identifier.
pub type VertexId = u32;

/// An undirected graph in CSR form.
#[derive(Debug, Clone)]
pub struct Graph {
    /// `offsets[v]..offsets[v+1]` indexes `neighbors`/`edge_data` for `v`.
    offsets: Vec<usize>,
    neighbors: Vec<VertexId>,
    edge_data: Vec<EdgeData>,
}

/// Builder accumulating undirected edges before CSR conversion.
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    n: usize,
    adjacency: Vec<Vec<(VertexId, EdgeData)>>,
    degree_bound: usize,
}

impl GraphBuilder {
    /// Creates a builder for `n` vertices with the given degree bound.
    pub fn new(n: usize, degree_bound: usize) -> Self {
        Self {
            n,
            adjacency: vec![Vec::new(); n],
            degree_bound,
        }
    }

    /// Adds an undirected edge; returns `false` (and adds nothing) if it
    /// would exceed either endpoint's degree bound, duplicate an existing
    /// edge, or form a self-loop.
    pub fn add_edge(&mut self, a: VertexId, b: VertexId, data: EdgeData) -> bool {
        let (ai, bi) = (a as usize, b as usize);
        if a == b || ai >= self.n || bi >= self.n {
            return false;
        }
        if self.adjacency[ai].len() >= self.degree_bound
            || self.adjacency[bi].len() >= self.degree_bound
        {
            return false;
        }
        if self.adjacency[ai].iter().any(|(v, _)| *v == b) {
            return false;
        }
        self.adjacency[ai].push((b, data));
        self.adjacency[bi].push((a, data));
        true
    }

    /// Current degree of a vertex.
    pub fn degree(&self, v: VertexId) -> usize {
        self.adjacency[v as usize].len()
    }

    /// Finalizes into CSR form.
    pub fn build(self) -> Graph {
        let mut offsets = Vec::with_capacity(self.n + 1);
        let mut neighbors = Vec::new();
        let mut edge_data = Vec::new();
        offsets.push(0);
        for adj in &self.adjacency {
            for &(v, d) in adj {
                neighbors.push(v);
                edge_data.push(d);
            }
            offsets.push(neighbors.len());
        }
        Graph {
            offsets,
            neighbors,
            edge_data,
        }
    }
}

impl Graph {
    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// True when the graph has no vertices.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of undirected edges.
    pub fn edge_count(&self) -> usize {
        self.neighbors.len() / 2
    }

    /// Degree of `v`.
    pub fn degree(&self, v: VertexId) -> usize {
        self.offsets[v as usize + 1] - self.offsets[v as usize]
    }

    /// Maximum degree across all vertices.
    pub fn max_degree(&self) -> usize {
        (0..self.len() as VertexId)
            .map(|v| self.degree(v))
            .max()
            .unwrap_or(0)
    }

    /// Iterates `(neighbor, edge_data)` for `v`.
    pub fn neighbors(&self, v: VertexId) -> impl Iterator<Item = (VertexId, &EdgeData)> + '_ {
        let r = self.offsets[v as usize]..self.offsets[v as usize + 1];
        self.neighbors[r.clone()]
            .iter()
            .copied()
            .zip(self.edge_data[r].iter())
    }

    /// The edge data between `a` and `b`, if adjacent.
    pub fn edge(&self, a: VertexId, b: VertexId) -> Option<&EdgeData> {
        self.neighbors(a).find(|(v, _)| *v == b).map(|(_, d)| d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::EdgeData;

    fn ed() -> EdgeData {
        EdgeData::household_contact(1)
    }

    fn line(n: usize) -> Graph {
        let mut b = GraphBuilder::new(n, 4);
        for i in 0..n - 1 {
            assert!(b.add_edge(i as u32, i as u32 + 1, ed()));
        }
        b.build()
    }

    #[test]
    fn csr_roundtrip() {
        let g = line(5);
        assert_eq!(g.len(), 5);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(2), 2);
        let n2: Vec<u32> = g.neighbors(2).map(|(v, _)| v).collect();
        assert_eq!(n2, vec![1, 3]);
        assert!(g.edge(0, 1).is_some());
        assert!(g.edge(0, 2).is_none());
    }

    #[test]
    fn degree_bound_enforced() {
        let mut b = GraphBuilder::new(5, 2);
        assert!(b.add_edge(0, 1, ed()));
        assert!(b.add_edge(0, 2, ed()));
        assert!(!b.add_edge(0, 3, ed()), "third edge exceeds bound");
        assert_eq!(b.degree(0), 2);
        let g = b.build();
        assert!(g.max_degree() <= 2);
    }

    #[test]
    fn self_loops_and_duplicates_rejected() {
        let mut b = GraphBuilder::new(3, 4);
        assert!(!b.add_edge(1, 1, ed()));
        assert!(b.add_edge(0, 1, ed()));
        assert!(!b.add_edge(0, 1, ed()));
        assert!(!b.add_edge(1, 0, ed()), "reverse duplicate rejected");
        assert!(!b.add_edge(0, 5, ed()), "out of range rejected");
    }
}
