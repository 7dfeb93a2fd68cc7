//! Contact-tracing study: the epidemiological questions that motivate the
//! paper (§2.1), answered privately over a synthetic GAEN-style
//! population.
//!
//! ```text
//! cargo run --release --example contact_tracing
//! ```
//!
//! Runs three studies from Figure 2 — secondary attack rates in household
//! vs non-household contacts (Q8), secondary infections by exposure type
//! (Q7), and attack rates by disease stage (Q10) — each end-to-end under
//! encryption, and prints the epidemiology a vetted analyst would read
//! off the noisy releases.

use mycelium::params::SystemParams;
use mycelium::run_query_encrypted;
use mycelium_bgv::KeySet;
use mycelium_dp::PrivacyBudget;
use mycelium_graph::generate::{epidemic_population, ContactGraphConfig, EpidemicConfig};
use mycelium_math::rng::{SeedableRng, StdRng};
use mycelium_query::analyze::analyze;
use mycelium_query::builtin::paper_query;
use mycelium_query::eval::evaluate;

fn main() {
    let mut rng = StdRng::seed_from_u64(7);
    let params = SystemParams::simulation();
    let pop = epidemic_population(
        &ContactGraphConfig {
            n: 150,
            degree_bound: params.degree_bound,
            days: 13,
            subway_fraction: 0.2,
            ..ContactGraphConfig::default()
        },
        &EpidemicConfig {
            days: 13,
            seed_fraction: 0.08,
            household_rate: 0.12,
            community_rate: 0.02,
        },
        &mut rng,
    );
    println!(
        "synthetic GAEN population: {} devices, {} infected over 13 days\n",
        pop.vertices.len(),
        pop.vertices.iter().filter(|v| v.infected).count()
    );
    println!("generating system keys (each query deals its committee fresh shares) ...\n");
    let keys = KeySet::generate(&params.bgv, &mut rng);
    let mut budget = PrivacyBudget::new(10.0);

    for name in ["Q8", "Q7", "Q10"] {
        let query = paper_query(name).expect("builtin");
        let analysis = analyze(&query, &params.schema).expect("analyzable");
        let oracle = evaluate(&query, &analysis, &params.schema, &pop);
        let outcome = run_query_encrypted(
            &query,
            &pop,
            &params,
            &keys,
            &[],
            false,
            &mut budget,
            &mut rng,
        )
        .expect("query runs");
        println!("=== {name} ===");
        for (got, want) in outcome.exact.groups.iter().zip(&oracle.groups) {
            assert_eq!(got.histogram, want.histogram, "oracle check");
            if got.total_pairs > 0 {
                println!(
                    "  {:<14} secondary attack rate {:.1}%  ({} matched pairs)",
                    got.label,
                    100.0 * got.rate(),
                    got.total_pairs
                );
            } else {
                let total: u64 = got.histogram.iter().sum();
                let nonzero: u64 = got.histogram.iter().skip(1).sum();
                println!(
                    "  {:<14} {} origins, {} with ≥1 secondary infection",
                    got.label, total, nonzero
                );
            }
        }
        println!("  (ε spent so far: {:.1})\n", 10.0 - budget.remaining());
    }
    println!(
        "The household attack rate exceeding the community one, and illness-stage\n\
         transmission exceeding incubation-stage, are the signals the cited\n\
         epidemiology papers measured by manual tracing — recovered here without\n\
         any device revealing its contacts or infection status."
    );
}
