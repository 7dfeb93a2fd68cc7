//! Ground-truth plaintext evaluation.
//!
//! Evaluates a query directly over a synthetic [`Population`], with exactly
//! the semantics the encrypted pipeline implements:
//!
//! * An origin whose `self` clauses fail contributes nothing (`Enc(0)`).
//! * A row (k-hop neighbor + first edge) whose `dest`/`edge`/cross clauses
//!   fail contributes a neutral value (`Enc(x^0)` multiplies to nothing).
//! * `HISTO` produces, per group, the histogram of per-origin local values.
//! * `GSUM` ratio queries produce, per group, the joint (count, sum)
//!   census; the released statistic is `Σ clip(sum) / Σ count`.
//!
//! This module is the oracle: integration tests run the encrypted pipeline
//! and require bit-identical histograms.

use mycelium_graph::data::{Location, VertexData};
use mycelium_graph::generate::Population;
use mycelium_graph::graph::VertexId;

use crate::analyze::{Analysis, ClauseSite, GroupKind, Schema};
use crate::ast::{Atom, CmpOp, Column, ColumnGroup, GroupBy, Inner, Query, Value};
use crate::crosseval::{clause_holds_at_position, cross_group_index, discretize_dest};

/// One group's results.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupResult {
    /// Human-readable group label.
    pub label: String,
    /// For `HISTO`: histogram of per-origin local values
    /// (`histogram[v]` = number of origins whose local result was `v`).
    /// For ratio `GSUM`: flattened joint census
    /// (`histogram[count · value_radix + sum]`).
    pub histogram: Vec<u64>,
    /// Total matching pairs (`Σ count`), for ratio queries.
    pub total_pairs: u64,
    /// Total clipped sum (`Σ clip(sum)`), for ratio queries.
    pub total_clipped_sum: u64,
}

impl GroupResult {
    /// The secondary attack rate `Σ clip(sum) / Σ count` (0 when empty).
    pub fn rate(&self) -> f64 {
        if self.total_pairs == 0 {
            0.0
        } else {
            self.total_clipped_sum as f64 / self.total_pairs as f64
        }
    }
}

/// The full plaintext result of a query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlainResult {
    /// One entry per group.
    pub groups: Vec<GroupResult>,
}

/// A row of the conceptual `neigh(k)` table.
#[derive(Debug, Clone, Copy)]
pub struct Row<'a> {
    /// Origin vertex data.
    pub self_v: &'a VertexData,
    /// Neighbor vertex data.
    pub dest: &'a VertexData,
    /// First edge on the path from origin to neighbor.
    pub edge: &'a mycelium_graph::data::EdgeData,
}

/// Evaluates a query over a population.
///
/// `analysis` must come from [`crate::analyze::analyze`] on the same query
/// and schema.
pub fn evaluate(
    query: &Query,
    analysis: &Analysis,
    schema: &Schema,
    pop: &Population,
) -> PlainResult {
    let groups = analysis.groups;
    let hist_len = if analysis.joint_ratio {
        analysis.count_radix * analysis.value_radix
    } else {
        analysis.value_radix
    };
    let mut result: Vec<GroupResult> = (0..groups)
        .map(|g| GroupResult {
            label: group_label(query.group_by.as_ref(), g),
            histogram: vec![0; hist_len],
            total_pairs: 0,
            total_clipped_sum: 0,
        })
        .collect();
    let clip = query.clip.unwrap_or((0, u64::MAX));
    for v in 0..pop.graph.len() as VertexId {
        let self_v = &pop.vertices[v as usize];
        // Self clauses.
        if !self_clauses_hold(query, analysis, self_v, schema) {
            continue;
        }
        // Per-group accumulators.
        let mut count = vec![0u64; groups];
        let mut sum = vec![0u64; groups];
        for (w, first_edge) in khop_rows(pop, v, query.hops) {
            let row = Row {
                self_v,
                dest: &pop.vertices[w as usize],
                edge: first_edge,
            };
            // Exact evaluation of dest/edge clauses; discretized (§4.5)
            // evaluation of cross clauses at the dest's sequence position.
            if !dest_edge_clauses_hold(query, analysis, &row, schema) {
                continue;
            }
            let pos = analysis
                .sequence_column
                .as_ref()
                .and_then(|col| discretize_dest(col, row.dest, schema));
            if let Some(col) = analysis.sequence_column.as_ref() {
                let p = match pos {
                    Some(p) => p,
                    None => continue, // Out-of-range dest never matches.
                };
                let cross_ok = query
                    .predicate
                    .clauses
                    .iter()
                    .zip(&analysis.clause_sites)
                    .filter(|(_, site)| **site == ClauseSite::Cross)
                    .all(|(clause, _)| {
                        clause_holds_at_position(clause, self_v, row.edge, col, p, schema)
                    });
                if !cross_ok {
                    continue;
                }
            }
            let g = match analysis.group_kind {
                GroupKind::None | GroupKind::SelfSide => 0,
                GroupKind::PerEdge => {
                    group_index(query.group_by.as_ref().expect("grouped"), &row, schema)
                }
                GroupKind::Cross => cross_group_index(
                    query.group_by.as_ref().expect("grouped"),
                    self_v,
                    analysis.sequence_column.as_ref().expect("cross grouping"),
                    pos.expect("cross grouping requires a position"),
                    schema,
                ),
            };
            let val = match &query.inner {
                Inner::Count => 1,
                Inner::Sum(expr) | Inner::Ratio(expr) => {
                    eval_value(expr, &row, schema).max(0) as u64
                }
            };
            count[g] += 1;
            sum[g] += val;
        }
        // Distribute the origin's local result(s).
        match analysis.group_kind {
            GroupKind::None => {
                record(&mut result[0], query, analysis, count[0], sum[0], clip);
            }
            GroupKind::SelfSide => {
                let g = self_group_index(query.group_by.as_ref().expect("grouped"), self_v, schema);
                record(&mut result[g], query, analysis, count[0], sum[0], clip);
            }
            GroupKind::PerEdge | GroupKind::Cross => {
                for g in 0..groups {
                    record(&mut result[g], query, analysis, count[g], sum[g], clip);
                }
            }
        }
    }
    PlainResult { groups: result }
}

fn record(
    gr: &mut GroupResult,
    query: &Query,
    analysis: &Analysis,
    count: u64,
    sum: u64,
    clip: (u64, u64),
) {
    if analysis.joint_ratio {
        let c = (count as usize).min(analysis.count_radix - 1);
        let s = (sum as usize).min(analysis.value_radix - 1);
        gr.histogram[c * analysis.value_radix + s] += 1;
        gr.total_pairs += c as u64;
        // §4.4 clipping: per-origin sums outside [a, b] clamp to the bounds.
        gr.total_clipped_sum += (s as u64).clamp(clip.0, clip.1);
    } else {
        let local = match query.inner {
            Inner::Count => count,
            _ => sum,
        };
        let idx = (local as usize).min(analysis.value_radix - 1);
        gr.histogram[idx] += 1;
    }
}

/// Iterates the `neigh(k)` rows of origin `v`: each distinct vertex within
/// `k` hops, paired with the first edge on the BFS path from `v`.
pub fn khop_rows(
    pop: &Population,
    v: VertexId,
    k: usize,
) -> Vec<(VertexId, &mycelium_graph::data::EdgeData)> {
    let g = &pop.graph;
    let n = g.len();
    let mut first_hop: Vec<Option<VertexId>> = vec![None; n];
    let mut dist = vec![usize::MAX; n];
    dist[v as usize] = 0;
    let mut frontier = vec![v];
    let mut out = Vec::new();
    for hop in 1..=k {
        let mut next = Vec::new();
        for &u in &frontier {
            for (w, _) in g.neighbors(u) {
                if dist[w as usize] != usize::MAX {
                    continue;
                }
                dist[w as usize] = hop;
                first_hop[w as usize] = if hop == 1 {
                    Some(w)
                } else {
                    first_hop[u as usize]
                };
                next.push(w);
                out.push(w);
            }
        }
        frontier = next;
    }
    out.into_iter()
        .map(|w| {
            let fh = first_hop[w as usize].expect("reached vertices have a first hop");
            let edge = g.edge(v, fh).expect("first hop is adjacent");
            (w, edge)
        })
        .collect()
}

fn self_clauses_hold(
    query: &Query,
    analysis: &Analysis,
    self_v: &VertexData,
    schema: &Schema,
) -> bool {
    // Self clauses reference no dest/edge data; evaluate with a dummy row
    // mirroring self (the dest/edge fields are never read).
    let dummy_edge = mycelium_graph::data::EdgeData::household_contact(0);
    let row = Row {
        self_v,
        dest: self_v,
        edge: &dummy_edge,
    };
    query
        .predicate
        .clauses
        .iter()
        .zip(&analysis.clause_sites)
        .filter(|(_, site)| **site == ClauseSite::SelfOnly)
        .all(|(clause, _)| clause.iter().any(|a| eval_atom(a, &row, schema)))
}

fn dest_edge_clauses_hold(query: &Query, analysis: &Analysis, row: &Row, schema: &Schema) -> bool {
    query
        .predicate
        .clauses
        .iter()
        .zip(&analysis.clause_sites)
        .filter(|(_, site)| **site == ClauseSite::DestEdge)
        .all(|(clause, _)| clause.iter().any(|a| eval_atom(a, row, schema)))
}

/// Evaluates an atom over a row.
pub fn eval_atom(atom: &Atom, row: &Row, schema: &Schema) -> bool {
    match atom {
        Atom::Bool(col) => eval_bool_column(col, row),
        Atom::Cmp { lhs, op, rhs } => {
            let l = eval_value(lhs, row, schema);
            let r = eval_value(rhs, row, schema);
            match op {
                CmpOp::Eq => l == r,
                CmpOp::Ne => l != r,
                CmpOp::Lt => l < r,
                CmpOp::Le => l <= r,
                CmpOp::Gt => l > r,
                CmpOp::Ge => l >= r,
            }
        }
        Atom::Between { value, lo, hi } => {
            let v = eval_value(value, row, schema);
            v >= eval_value(lo, row, schema) && v <= eval_value(hi, row, schema)
        }
        Atom::Func { name, arg } => {
            let loc = location_of(arg, row);
            match name.as_str() {
                "onSubway" => loc == Some(Location::Subway),
                "isHousehold" => loc == Some(Location::Household),
                _ => false,
            }
        }
    }
}

fn eval_bool_column(col: &Column, row: &Row) -> bool {
    let v = vertex_of(col.group, row);
    match col.name.as_str() {
        "inf" | "tInf" => v.map(|d| d.infected).unwrap_or(false),
        _ => eval_column(col, row, &Schema::default()) != 0,
    }
}

/// Evaluates an arithmetic value over a row.
pub fn eval_value(value: &Value, row: &Row, schema: &Schema) -> i64 {
    match value {
        Value::Col(c) => eval_column(c, row, schema),
        Value::Lit(l) => *l,
        Value::Add(inner, l) => eval_value(inner, row, schema) + l,
        Value::SubCols(a, b) => eval_column(a, row, schema) - eval_column(b, row, schema),
    }
}

fn vertex_of<'a>(group: ColumnGroup, row: &'a Row) -> Option<&'a VertexData> {
    match group {
        ColumnGroup::SelfV => Some(row.self_v),
        ColumnGroup::Dest => Some(row.dest),
        ColumnGroup::Edge => None,
    }
}

fn location_of(col: &Column, row: &Row) -> Option<Location> {
    if col.group == ColumnGroup::Edge && col.name == "location" {
        Some(row.edge.location)
    } else {
        None
    }
}

/// Evaluates a column to an integer. Diagnosis time is `-1` for
/// never-diagnosed participants so range tests cannot spuriously match.
pub fn eval_column(col: &Column, row: &Row, schema: &Schema) -> i64 {
    match col.group {
        ColumnGroup::SelfV | ColumnGroup::Dest => {
            let v = vertex_of(col.group, row).expect("vertex group");
            match col.name.as_str() {
                "inf" => v.infected as i64,
                "tInf" => {
                    if v.infected {
                        v.t_inf as i64
                    } else {
                        -1
                    }
                }
                "age" => v.age as i64,
                _ => 0,
            }
        }
        ColumnGroup::Edge => match col.name.as_str() {
            "duration" => {
                ((row.edge.duration / schema.duration_unit) as i64).min(schema.duration_cap as i64)
            }
            "contacts" => (row.edge.contacts as i64).min(schema.contacts_cap as i64),
            "last_contact" => row.edge.last_contact as i64,
            _ => 0,
        },
    }
}

/// Group index for per-row (edge / cross) grouping.
pub fn group_index(gb: &GroupBy, row: &Row, schema: &Schema) -> usize {
    match gb {
        GroupBy::Col(c) if c.name == "setting" => row.edge.setting.index(),
        GroupBy::Col(c) => (eval_column(c, row, schema).max(0) as usize) % 2,
        GroupBy::Func { name, arg } => match name.as_str() {
            "isHousehold" => (row.edge.location == Location::Household) as usize,
            "onSubway" => (row.edge.location == Location::Subway) as usize,
            "stage" => {
                let x = eval_value(arg, row, schema);
                usize::from(x > 5)
            }
            _ => 0,
        },
    }
}

/// Group index for self-side grouping.
pub fn self_group_index(gb: &GroupBy, self_v: &VertexData, schema: &Schema) -> usize {
    match gb {
        GroupBy::Col(c) if c.name == "age" => self_v.age_group().min(schema.age_range - 1),
        _ => 0,
    }
}

/// Human-readable group label.
pub fn group_label(gb: Option<&GroupBy>, g: usize) -> String {
    match gb {
        None => "all".to_string(),
        Some(GroupBy::Col(c)) if c.name == "age" => format!("age {}-{}", g * 10, g * 10 + 9),
        Some(GroupBy::Col(c)) if c.name == "setting" => {
            ["family", "social", "work"][g.min(2)].to_string()
        }
        Some(GroupBy::Func { name, .. }) if name == "isHousehold" => {
            ["non-household", "household"][g.min(1)].to_string()
        }
        Some(GroupBy::Func { name, .. }) if name == "stage" => {
            ["incubation", "illness"][g.min(1)].to_string()
        }
        Some(_) => format!("group {g}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::analyze;
    use crate::builtin::{paper_queries, paper_query};
    use mycelium_graph::generate::{epidemic_population, ContactGraphConfig, EpidemicConfig};
    use mycelium_math::rng::{SeedableRng, StdRng};

    fn population(n: usize) -> Population {
        let mut rng = StdRng::seed_from_u64(77);
        epidemic_population(
            &ContactGraphConfig {
                n,
                ..ContactGraphConfig::default()
            },
            &EpidemicConfig::default(),
            &mut rng,
        )
    }

    #[test]
    fn all_paper_queries_evaluate() {
        let pop = population(500);
        let schema = Schema::default();
        for q in paper_queries() {
            let a = analyze(&q, &schema).unwrap();
            let r = evaluate(&q, &a, &schema, &pop);
            assert_eq!(r.groups.len(), a.groups, "{}", q.name);
            let total: u64 = r
                .groups
                .iter()
                .map(|g| g.histogram.iter().sum::<u64>())
                .sum();
            assert!(total > 0, "{} produced an empty result", q.name);
        }
    }

    #[test]
    fn q1_total_counts_infected_origins() {
        // Every infected origin contributes exactly one histogram entry.
        let pop = population(400);
        let schema = Schema::default();
        let q = paper_query("Q1").unwrap();
        let a = analyze(&q, &schema).unwrap();
        let r = evaluate(&q, &a, &schema, &pop);
        let infected = pop.vertices.iter().filter(|v| v.infected).count() as u64;
        assert_eq!(r.groups[0].histogram.iter().sum::<u64>(), infected);
    }

    #[test]
    fn q1_matches_pregel_baseline() {
        // The generic evaluator must agree with the hand-written plaintext
        // baseline on the count distribution.
        let pop = population(400);
        let schema = Schema::default();
        let q = paper_query("Q1").unwrap();
        let a = analyze(&q, &schema).unwrap();
        let r = evaluate(&q, &a, &schema, &pop);
        let max = a.value_radix - 1;
        let baseline = mycelium_graph::pregel::q1_plaintext_histogram(
            &pop.graph,
            &pop.vertices,
            2,
            u16::MAX, // No window in Q1's SQL.
            max,
        );
        assert_eq!(&r.groups[0].histogram[..=max], &baseline[..]);
    }

    #[test]
    fn q8_household_rate_exceeds_community() {
        let pop = population(2000);
        let schema = Schema::default();
        let q = paper_query("Q8").unwrap();
        let a = analyze(&q, &schema).unwrap();
        let r = evaluate(&q, &a, &schema, &pop);
        assert_eq!(r.groups.len(), 2);
        let non_household = &r.groups[0];
        let household = &r.groups[1];
        assert!(household.total_pairs > 0);
        assert!(
            household.rate() > non_household.rate(),
            "household SAR {} vs {}",
            household.rate(),
            non_household.rate()
        );
    }

    #[test]
    fn q5_age_groups_partition_origins() {
        let pop = population(300);
        let schema = Schema::default();
        let q = paper_query("Q5").unwrap();
        let a = analyze(&q, &schema).unwrap();
        let r = evaluate(&q, &a, &schema, &pop);
        // Every vertex is an origin (no self clauses) and lands in exactly
        // one age group.
        let total: u64 = r
            .groups
            .iter()
            .map(|g| g.histogram.iter().sum::<u64>())
            .sum();
        assert_eq!(total, 300);
    }

    #[test]
    fn q6_grouped_totals_match_infected() {
        let pop = population(400);
        let schema = Schema::default();
        let q = paper_query("Q6").unwrap();
        let a = analyze(&q, &schema).unwrap();
        let r = evaluate(&q, &a, &schema, &pop);
        let infected = pop.vertices.iter().filter(|v| v.infected).count() as u64;
        let total: u64 = r
            .groups
            .iter()
            .map(|g| g.histogram.iter().sum::<u64>())
            .sum();
        assert_eq!(total, infected);
    }

    #[test]
    fn q7_per_edge_groups_each_get_every_origin() {
        let pop = population(300);
        let schema = Schema::default();
        let q = paper_query("Q7").unwrap();
        let a = analyze(&q, &schema).unwrap();
        let r = evaluate(&q, &a, &schema, &pop);
        let infected = pop.vertices.iter().filter(|v| v.infected).count() as u64;
        // With per-edge grouping every passing origin contributes one entry
        // to EVERY group window.
        for g in &r.groups {
            assert_eq!(g.histogram.iter().sum::<u64>(), infected, "{}", g.label);
        }
    }

    #[test]
    fn khop_rows_first_edge() {
        // On a path 0-1-2, origin 0's 2-hop rows are (1, edge01), (2, edge01).
        use mycelium_graph::data::EdgeData;
        use mycelium_graph::graph::GraphBuilder;
        let mut b = GraphBuilder::new(3, 4);
        let mut e1 = EdgeData::household_contact(1);
        e1.duration = 100;
        let mut e2 = EdgeData::household_contact(2);
        e2.duration = 200;
        b.add_edge(0, 1, e1);
        b.add_edge(1, 2, e2);
        let pop = Population {
            graph: b.build(),
            vertices: vec![VertexData::healthy(30, 0); 3],
        };
        let rows = khop_rows(&pop, 0, 2);
        assert_eq!(rows.len(), 2);
        for (_, e) in rows {
            assert_eq!(e.duration, 100, "first edge is always edge(0,1)");
        }
    }

    /// The vertices of `v`'s `k`-hop rows, sorted.
    fn khop_vertices(graph: mycelium_graph::graph::Graph, v: VertexId, k: usize) -> Vec<VertexId> {
        let pop = Population {
            vertices: vec![VertexData::healthy(30, 0); graph.len()],
            graph,
        };
        let mut hood: Vec<VertexId> = khop_rows(&pop, v, k).into_iter().map(|(w, _)| w).collect();
        hood.sort_unstable();
        hood
    }

    #[test]
    fn khop_on_line() {
        use mycelium_graph::data::EdgeData;
        use mycelium_graph::graph::GraphBuilder;
        let line = || {
            let mut b = GraphBuilder::new(7, 4);
            for i in 0..6 {
                assert!(b.add_edge(i, i + 1, EdgeData::household_contact(1)));
            }
            b.build()
        };
        assert_eq!(khop_vertices(line(), 3, 1), vec![2, 4]);
        assert_eq!(khop_vertices(line(), 3, 2), vec![1, 2, 4, 5]);
        // Endpoints.
        assert_eq!(khop_vertices(line(), 0, 2), vec![1, 2]);
        // k = 0.
        assert!(khop_vertices(line(), 3, 0).is_empty());
    }

    #[test]
    fn khop_does_not_revisit() {
        // Triangle: 2-hop neighborhood of a vertex is just the other two.
        use mycelium_graph::data::EdgeData;
        use mycelium_graph::graph::GraphBuilder;
        let mut b = GraphBuilder::new(3, 4);
        b.add_edge(0, 1, EdgeData::household_contact(1));
        b.add_edge(1, 2, EdgeData::household_contact(1));
        b.add_edge(2, 0, EdgeData::household_contact(1));
        assert_eq!(khop_vertices(b.build(), 0, 2), vec![1, 2]);
    }

    #[test]
    fn uninfected_t_inf_never_matches_ranges() {
        let schema = Schema::default();
        let healthy = VertexData::healthy(30, 0);
        let edge = mycelium_graph::data::EdgeData::household_contact(10);
        let row = Row {
            self_v: &healthy,
            dest: &healthy,
            edge: &edge,
        };
        let col = Column::new(ColumnGroup::Dest, "tInf");
        assert_eq!(eval_column(&col, &row, &schema), -1);
    }
}
