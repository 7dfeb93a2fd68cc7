//! Synthetic workload generation.
//!
//! The paper's motivating data source is a GAEN-style contact-tracing
//! deployment (§2); since no such dataset is public, we synthesize
//! household/community contact graphs and run an SEIR-style epidemic over
//! them, producing exactly the attributes the Figure 2 queries consume
//! (diagnosis times, contact durations/frequencies, settings, locations,
//! ages). The generator parameters are chosen so the epidemiological
//! queries have signal: secondary attack rates are higher in households,
//! infection chains respect the `tInf > self.tInf + 2` serial-interval
//! filters, and so on.

use mycelium_math::rng::Rng;

use crate::data::{EdgeData, Location, Setting, VertexData};
use crate::graph::{Graph, GraphBuilder, VertexId};

/// Parameters for the household/community contact-graph generator.
#[derive(Debug, Clone)]
pub struct ContactGraphConfig {
    /// Number of participants.
    pub n: usize,
    /// Degree bound `d` (Figure 4: 10).
    pub degree_bound: usize,
    /// Mean household size (households are 1..=2·mean-1, uniform).
    pub mean_household: usize,
    /// Community (work/social) edges attempted per vertex.
    pub community_edges: usize,
    /// Fraction of community edges that are subway contacts.
    pub subway_fraction: f64,
    /// Observation window in days.
    pub days: u16,
}

impl Default for ContactGraphConfig {
    fn default() -> Self {
        Self {
            n: 1000,
            degree_bound: 10,
            mean_household: 3,
            community_edges: 3,
            subway_fraction: 0.15,
            days: 28,
        }
    }
}

/// A generated population: graph + private vertex data.
#[derive(Debug, Clone)]
pub struct Population {
    /// The contact graph.
    pub graph: Graph,
    /// Per-vertex private data.
    pub vertices: Vec<VertexData>,
}

/// Generates an Erdős–Rényi-style random graph with bounded degree and
/// uniform edge attributes (used by the communication-layer benchmarks
/// where vertex data is irrelevant).
pub fn random_graph<R: Rng + ?Sized>(
    n: usize,
    avg_degree: usize,
    degree_bound: usize,
    rng: &mut R,
) -> Graph {
    let mut b = GraphBuilder::new(n, degree_bound);
    let target_edges = n * avg_degree / 2;
    let mut attempts = 0usize;
    let mut added = 0usize;
    while added < target_edges && attempts < target_edges * 20 {
        attempts += 1;
        let a = rng.gen_range(0..n) as VertexId;
        let c = rng.gen_range(0..n) as VertexId;
        let data = EdgeData {
            duration: rng.gen_range(5..600),
            contacts: rng.gen_range(1..50),
            last_contact: rng.gen_range(0..28),
            setting: Setting::Social,
            location: Location::Other,
        };
        if b.add_edge(a, c, data) {
            added += 1;
        }
    }
    b.build()
}

/// Generates a household/community contact graph with ages and edge
/// attributes.
pub fn contact_graph<R: Rng + ?Sized>(cfg: &ContactGraphConfig, rng: &mut R) -> Population {
    let mut builder = GraphBuilder::new(cfg.n, cfg.degree_bound);
    let mut vertices = Vec::with_capacity(cfg.n);
    // Assign households and ages.
    let mut household = 0u32;
    let mut i = 0usize;
    while i < cfg.n {
        let size = rng.gen_range(1..=2 * cfg.mean_household - 1).min(cfg.n - i);
        // Household members: adults plus possibly children.
        for j in 0..size {
            let age = if j < 2 {
                rng.gen_range(25..70)
            } else {
                rng.gen_range(1..30)
            };
            vertices.push(VertexData::healthy(age as u8, household));
        }
        // Fully connect the household.
        for a in i..i + size {
            for b in a + 1..i + size {
                let day = rng.gen_range(cfg.days.saturating_sub(3)..cfg.days);
                builder.add_edge(
                    a as VertexId,
                    b as VertexId,
                    EdgeData {
                        duration: rng.gen_range(300..1200),
                        contacts: rng.gen_range(20..60),
                        last_contact: day,
                        setting: Setting::Family,
                        location: Location::Household,
                    },
                );
            }
        }
        i += size;
        household += 1;
    }
    // Community edges.
    for v in 0..cfg.n {
        for _ in 0..cfg.community_edges {
            let w = rng.gen_range(0..cfg.n);
            if vertices[v].household == vertices[w.min(cfg.n - 1)].household {
                continue;
            }
            let subway = rng.gen::<f64>() < cfg.subway_fraction;
            let setting = if rng.gen::<bool>() {
                Setting::Work
            } else {
                Setting::Social
            };
            builder.add_edge(
                v as VertexId,
                w as VertexId,
                EdgeData {
                    duration: rng.gen_range(5..240),
                    contacts: rng.gen_range(1..20),
                    last_contact: rng.gen_range(0..cfg.days),
                    setting,
                    location: if subway {
                        Location::Subway
                    } else {
                        Location::Other
                    },
                },
            );
        }
    }
    Population {
        graph: builder.build(),
        vertices,
    }
}

/// Parameters of the epidemic simulation.
#[derive(Debug, Clone)]
pub struct EpidemicConfig {
    /// Fraction of the population initially infected (day 0 seeds).
    pub seed_fraction: f64,
    /// Per-day transmission probability along a household edge.
    pub household_rate: f64,
    /// Per-day transmission probability along a community edge.
    pub community_rate: f64,
    /// Days simulated.
    pub days: u16,
}

impl Default for EpidemicConfig {
    fn default() -> Self {
        Self {
            seed_fraction: 0.02,
            household_rate: 0.06,
            community_rate: 0.01,
            days: 28,
        }
    }
}

/// Runs an SEIR-style epidemic over the population, setting `infected` and
/// `t_inf` on the vertex data. Returns the number of infections.
pub fn run_epidemic<R: Rng + ?Sized>(
    pop: &mut Population,
    cfg: &EpidemicConfig,
    rng: &mut R,
) -> usize {
    let n = pop.vertices.len();
    // Seed.
    for v in pop.vertices.iter_mut() {
        if rng.gen::<f64>() < cfg.seed_fraction {
            v.infected = true;
            v.t_inf = 0;
        }
    }
    // Day-by-day spread; an infected vertex is infectious from t_inf+1 to
    // t_inf+10 (roughly an illness period).
    for day in 1..=cfg.days {
        let mut newly: Vec<(usize, u16)> = Vec::new();
        for v in 0..n {
            let vd = pop.vertices[v];
            if !vd.infected || day <= vd.t_inf || day > vd.t_inf + 10 {
                continue;
            }
            for (w, e) in pop.graph.neighbors(v as VertexId) {
                let wd = &pop.vertices[w as usize];
                if wd.infected {
                    continue;
                }
                let rate = if e.location == Location::Household {
                    cfg.household_rate
                } else {
                    cfg.community_rate
                };
                if rng.gen::<f64>() < rate {
                    newly.push((w as usize, day));
                }
            }
        }
        for (w, day) in newly {
            let vd = &mut pop.vertices[w];
            if !vd.infected {
                vd.infected = true;
                vd.t_inf = day;
            }
        }
    }
    pop.vertices.iter().filter(|v| v.infected).count()
}

/// Convenience: contact graph + epidemic in one call.
pub fn epidemic_population<R: Rng + ?Sized>(
    cfg: &ContactGraphConfig,
    epi: &EpidemicConfig,
    rng: &mut R,
) -> Population {
    let mut pop = contact_graph(cfg, rng);
    run_epidemic(&mut pop, epi, rng);
    pop
}

#[cfg(test)]
mod tests {
    use super::*;
    use mycelium_math::rng::{SeedableRng, StdRng};

    #[test]
    fn random_graph_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = random_graph(500, 6, 10, &mut rng);
        assert_eq!(g.len(), 500);
        assert!(g.max_degree() <= 10);
        assert!(g.edge_count() > 500, "should be reasonably dense");
    }

    #[test]
    fn contact_graph_structure() {
        let mut rng = StdRng::seed_from_u64(2);
        let cfg = ContactGraphConfig::default();
        let pop = contact_graph(&cfg, &mut rng);
        assert_eq!(pop.graph.len(), cfg.n);
        assert_eq!(pop.vertices.len(), cfg.n);
        assert!(pop.graph.max_degree() <= cfg.degree_bound);
        // Household edges exist and are marked correctly.
        let mut household_edges = 0;
        let mut community_edges = 0;
        for v in 0..cfg.n as VertexId {
            for (_, e) in pop.graph.neighbors(v) {
                match e.location {
                    Location::Household => household_edges += 1,
                    _ => community_edges += 1,
                }
            }
        }
        assert!(household_edges > 0);
        assert!(community_edges > 0);
        // Household edges always connect members of the same household.
        for v in 0..cfg.n as VertexId {
            for (w, e) in pop.graph.neighbors(v) {
                if e.location == Location::Household {
                    assert_eq!(
                        pop.vertices[v as usize].household,
                        pop.vertices[w as usize].household
                    );
                }
            }
        }
    }

    #[test]
    fn epidemic_spreads_and_respects_time() {
        let mut rng = StdRng::seed_from_u64(3);
        let cfg = ContactGraphConfig::default();
        let mut pop = contact_graph(&cfg, &mut rng);
        let infected = run_epidemic(&mut pop, &EpidemicConfig::default(), &mut rng);
        let seeds = pop
            .vertices
            .iter()
            .filter(|v| v.infected && v.t_inf == 0)
            .count();
        assert!(
            infected > seeds,
            "the epidemic must spread beyond the seeds"
        );
        assert!(infected < cfg.n, "not everyone gets infected in 28 days");
        for v in &pop.vertices {
            if v.infected {
                assert!(v.t_inf <= EpidemicConfig::default().days);
            }
        }
    }

    #[test]
    fn household_transmission_dominates() {
        // With household rate >> community rate, secondary attack rate in
        // households must exceed the community one (the Q8 signal).
        let mut rng = StdRng::seed_from_u64(4);
        let cfg = ContactGraphConfig {
            n: 3000,
            ..ContactGraphConfig::default()
        };
        let pop = epidemic_population(&cfg, &EpidemicConfig::default(), &mut rng);
        let (mut hh_pairs, mut hh_second) = (0u64, 0u64);
        let (mut co_pairs, mut co_second) = (0u64, 0u64);
        for v in 0..cfg.n as VertexId {
            let vd = pop.vertices[v as usize];
            if !vd.infected {
                continue;
            }
            for (w, e) in pop.graph.neighbors(v) {
                let wd = pop.vertices[w as usize];
                let secondary = wd.infected && wd.t_inf > vd.t_inf;
                if e.location == Location::Household {
                    hh_pairs += 1;
                    hh_second += secondary as u64;
                } else {
                    co_pairs += 1;
                    co_second += secondary as u64;
                }
            }
        }
        let hh_rate = hh_second as f64 / hh_pairs.max(1) as f64;
        let co_rate = co_second as f64 / co_pairs.max(1) as f64;
        assert!(
            hh_rate > co_rate,
            "household SAR {hh_rate} must exceed community SAR {co_rate}"
        );
    }

    #[test]
    fn deterministic_generation() {
        let cfg = ContactGraphConfig::default();
        let a = contact_graph(&cfg, &mut StdRng::seed_from_u64(9));
        let b = contact_graph(&cfg, &mut StdRng::seed_from_u64(9));
        assert_eq!(a.vertices, b.vertices);
        assert_eq!(a.graph.edge_count(), b.graph.edge_count());
    }
}
