//! End-to-end correctness: the encrypted pipeline must reproduce the
//! plaintext oracle bit-for-bit (pre-noise) for every paper query.
//!
//! This is the strongest correctness statement in the repository: queries
//! are parsed, analyzed, executed under real BGV encryption with
//! committee-based threshold decryption, decoded — and the decoded
//! histograms are compared against a direct plaintext evaluation of the
//! same query over the same population.

use mycelium::params::SystemParams;
use mycelium::{run_query_encrypted, MaliciousBehavior};
use mycelium_bgv::KeySet;
use mycelium_dp::PrivacyBudget;
use mycelium_graph::generate::{
    epidemic_population, ContactGraphConfig, EpidemicConfig, Population,
};
use mycelium_math::rng::{SeedableRng, StdRng};
use mycelium_query::analyze::analyze;
use mycelium_query::builtin::paper_query;
use mycelium_query::eval::evaluate;

fn simulation_population(n: usize, seed: u64) -> Population {
    let mut rng = StdRng::seed_from_u64(seed);
    // 13-day window keeps every diagnosis time inside the schema's
    // 14-value discrete range, so the §4.5 sequence encoding covers all
    // occurring values.
    let cfg = ContactGraphConfig {
        n,
        degree_bound: 4,
        mean_household: 3,
        community_edges: 2,
        subway_fraction: 0.2,
        days: 13,
    };
    let epi = EpidemicConfig {
        seed_fraction: 0.08,
        household_rate: 0.10,
        community_rate: 0.02,
        days: 13,
    };
    epidemic_population(&cfg, &epi, &mut rng)
}

fn setup() -> (SystemParams, KeySet, Population, StdRng) {
    setup_with(80)
}

fn setup_with(n: usize) -> (SystemParams, KeySet, Population, StdRng) {
    let params = SystemParams::simulation();
    let mut rng = StdRng::seed_from_u64(1234);
    let keys = KeySet::generate(&params.bgv, &mut rng);
    let pop = simulation_population(n, 42);
    (params, keys, pop, rng)
}

fn check_query(name: &str, with_proofs: bool) {
    check_query_on(name, with_proofs, 80);
}

fn check_query_on(name: &str, with_proofs: bool, n: usize) {
    let (params, keys, pop, mut rng) = setup_with(n);
    let query = paper_query(name).expect("builtin query");
    let analysis = analyze(&query, &params.schema).expect("analyzable");
    let oracle = evaluate(&query, &analysis, &params.schema, &pop);
    let mut budget = PrivacyBudget::new(100.0);
    let outcome = run_query_encrypted(
        &query,
        &pop,
        &params,
        &keys,
        &[],
        with_proofs,
        &mut budget,
        &mut rng,
    )
    .unwrap_or_else(|e| panic!("{name} failed: {e}"));
    assert_eq!(
        outcome.exact.groups.len(),
        oracle.groups.len(),
        "{name}: group count"
    );
    for (got, want) in outcome.exact.groups.iter().zip(&oracle.groups) {
        assert_eq!(got.label, want.label, "{name}");
        assert_eq!(
            got.histogram, want.histogram,
            "{name} [{}]: encrypted histogram must match the oracle",
            got.label
        );
        assert_eq!(got.total_pairs, want.total_pairs, "{name} [{}]", got.label);
        assert_eq!(
            got.total_clipped_sum, want.total_clipped_sum,
            "{name} [{}]",
            got.label
        );
    }
    assert!(
        outcome.stats.final_budget_bits > 0.0,
        "{name}: noise budget exhausted ({} bits)",
        outcome.stats.final_budget_bits
    );
    assert!(outcome.rejected_devices.is_empty());
}

#[test]
fn q2_sum_edge_duration_matches_oracle() {
    check_query("Q2", false);
}

#[test]
fn q3_cross_comparison_matches_oracle() {
    check_query("Q3", false);
}

#[test]
fn q4_subway_filter_matches_oracle() {
    check_query("Q4", false);
    // A population with no vertices sums one `Enc(0)`: the oracle's
    // all-zero histogram, not a failure.
    check_query_on("Q4", false, 0);
}

#[test]
fn q5_self_group_matches_oracle() {
    check_query("Q5", false);
}

#[test]
fn q6_grouped_cross_matches_oracle() {
    check_query("Q6", false);
}

#[test]
fn q7_per_edge_groups_match_oracle() {
    check_query("Q7", false);
}

#[test]
fn q8_ratio_per_edge_matches_oracle() {
    check_query("Q8", false);
}

#[test]
fn q9_ratio_cross_matches_oracle() {
    check_query("Q9", false);
}

#[test]
fn q10_cross_grouped_ratio_matches_oracle() {
    check_query("Q10", false);
}

#[test]
fn q4_with_proofs_enabled() {
    check_query("Q4", true);
}

#[test]
fn q1_two_hop_runs_at_deep_parameters() {
    // At simulation BGV parameters (6 levels) the 2-hop Q1 exceeds the
    // noise budget — the §6.2 result in miniature. With a deeper chain it
    // runs and matches the oracle.
    let mut params = SystemParams::simulation();
    let pop = {
        let mut rng = StdRng::seed_from_u64(7);
        let cfg = ContactGraphConfig {
            n: 40,
            degree_bound: 3,
            mean_household: 2,
            community_edges: 1,
            subway_fraction: 0.2,
            days: 13,
        };
        let epi = EpidemicConfig {
            seed_fraction: 0.1,
            household_rate: 0.12,
            community_rate: 0.03,
            days: 13,
        };
        epidemic_population(&cfg, &epi, &mut rng)
    };
    params.schema.degree_bound = 3;
    params.degree_bound = 3;
    let query = paper_query("Q1").unwrap();
    let mut rng = StdRng::seed_from_u64(99);

    // Shallow chain: rejected statically.
    let shallow_keys = KeySet::generate(&params.bgv, &mut rng);
    let mut budget = PrivacyBudget::new(100.0);
    let err = run_query_encrypted(
        &query,
        &pop,
        &params,
        &shallow_keys,
        &[],
        false,
        &mut budget,
        &mut rng,
    );
    assert!(
        matches!(err, Err(mycelium::ExecError::NoiseBudgetExceeded { .. })),
        "expected noise-budget rejection, got {err:?}"
    );

    // Deep chain: runs and matches the oracle.
    params.bgv.levels = 14;
    let keys = KeySet::generate(&params.bgv, &mut rng);
    let analysis = analyze(&query, &params.schema).unwrap();
    let oracle = evaluate(&query, &analysis, &params.schema, &pop);
    let mut budget = PrivacyBudget::new(100.0);
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
    .expect("deep chain must run");
    assert_eq!(
        outcome.exact.groups[0].histogram,
        oracle.groups[0].histogram
    );
    assert!(outcome.stats.final_budget_bits > 0.0);
}

#[test]
fn malicious_contribution_rejected_with_proofs() {
    let (params, keys, pop, mut rng) = setup();
    let query = paper_query("Q4").unwrap();
    let analysis = analyze(&query, &params.schema).unwrap();
    let oracle = evaluate(&query, &analysis, &params.schema, &pop);
    // Pick a cheater that actually matters: an infected vertex's neighbor.
    let cheater = (0..pop.graph.len() as u32)
        .find(|&v| pop.graph.degree(v) > 0)
        .unwrap();
    let behaviors = [MaliciousBehavior::OversizedContribution { device: cheater }];
    let mut budget = PrivacyBudget::new(100.0);
    let outcome = run_query_encrypted(
        &query,
        &pop,
        &params,
        &keys,
        &behaviors,
        true,
        &mut budget,
        &mut rng,
    )
    .unwrap();
    // The cheater is caught and its contribution neutralized.
    assert!(outcome.rejected_devices.contains(&cheater));
    // The result stays close to the oracle: the only deviation is the
    // cheater's own (discarded) honest contribution.
    let got: u64 = outcome.exact.groups[0].histogram.iter().sum();
    let want: u64 = oracle.groups[0].histogram.iter().sum();
    assert_eq!(got, want, "origin count unchanged");
}

#[test]
fn dropped_out_devices_default_to_neutral() {
    let (params, keys, pop, mut rng) = setup();
    let query = paper_query("Q4").unwrap();
    // Everybody drops out: every local result becomes 0.
    let behaviors: Vec<MaliciousBehavior> = (0..pop.graph.len() as u32)
        .map(|device| MaliciousBehavior::DropOut { device })
        .collect();
    let mut budget = PrivacyBudget::new(100.0);
    let outcome = run_query_encrypted(
        &query,
        &pop,
        &params,
        &keys,
        &behaviors,
        false,
        &mut budget,
        &mut rng,
    )
    .unwrap();
    let hist = &outcome.exact.groups[0].histogram;
    // All origins that pass their self clauses land in bin 0.
    assert_eq!(hist.iter().sum::<u64>(), hist[0]);
}
