//! The §7 plaintext baseline.
//!
//! The paper compares against plaintext GraphX (a Pregel-style engine)
//! running Q1 on a cleartext graph; [`q1_plaintext_histogram`] is that
//! baseline. The encrypted pipeline's oracle is
//! `mycelium_query::eval::evaluate`.

use crate::data::VertexData;
use crate::graph::{Graph, VertexId};

/// The §7 plaintext baseline: Q1 over a 1-hop (or `k`-hop) neighborhood.
///
/// For every *infected* origin, counts the infections in its `k`-hop
/// neighborhood diagnosed within `window` days of the origin's diagnosis,
/// and returns the histogram of those counts (index = count).
pub fn q1_plaintext_histogram(
    graph: &Graph,
    vertices: &[VertexData],
    k: usize,
    window: u16,
    max_count: usize,
) -> Vec<u64> {
    let mut hist = vec![0u64; max_count + 1];
    // Stamped BFS: one shared `seen` array (stamp = current origin + 1)
    // keeps the whole scan linear in Σ|neighborhood| instead of O(N²).
    let mut seen = vec![0u32; graph.len()];
    let mut frontier: Vec<VertexId> = Vec::new();
    let mut next: Vec<VertexId> = Vec::new();
    for v in 0..graph.len() as VertexId {
        let vd = vertices[v as usize];
        if !vd.infected {
            continue;
        }
        let stamp = v + 1;
        let mut count = 0usize;
        seen[v as usize] = stamp;
        frontier.clear();
        frontier.push(v);
        for _ in 0..k {
            next.clear();
            for &u in &frontier {
                for (w, _) in graph.neighbors(u) {
                    if seen[w as usize] == stamp {
                        continue;
                    }
                    seen[w as usize] = stamp;
                    next.push(w);
                    let wd = vertices[w as usize];
                    if wd.infected && wd.t_inf.abs_diff(vd.t_inf) <= window {
                        count += 1;
                    }
                }
            }
            std::mem::swap(&mut frontier, &mut next);
        }
        hist[count.min(max_count)] += 1;
    }
    hist
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::EdgeData;
    use crate::graph::GraphBuilder;

    fn line(n: usize) -> Graph {
        let mut b = GraphBuilder::new(n, 4);
        for i in 0..n - 1 {
            b.add_edge(i as u32, i as u32 + 1, EdgeData::household_contact(0));
        }
        b.build()
    }

    #[test]
    fn q1_baseline_on_known_graph() {
        // Line 0-1-2-3; 0 and 2 infected on days 0 and 3.
        let g = line(4);
        let mut vd = vec![VertexData::healthy(30, 0); 4];
        vd[0] = VertexData {
            infected: true,
            t_inf: 0,
            age: 30,
            household: 0,
        };
        vd[2] = VertexData {
            infected: true,
            t_inf: 3,
            age: 40,
            household: 1,
        };
        // 1-hop: neither infected vertex sees the other → both count 0.
        let h1 = q1_plaintext_histogram(&g, &vd, 1, 14, 8);
        assert_eq!(h1[0], 2);
        assert_eq!(h1.iter().sum::<u64>(), 2);
        // 2-hop: each sees the other → both count 1.
        let h2 = q1_plaintext_histogram(&g, &vd, 2, 14, 8);
        assert_eq!(h2[1], 2);
        // Window of 2 days excludes the day-3 diagnosis.
        let h2w = q1_plaintext_histogram(&g, &vd, 2, 2, 8);
        assert_eq!(h2w[0], 2);
    }
}
