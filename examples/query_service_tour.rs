//! The query service end to end: one budgeted session driving the five
//! conformance query classes through the full encrypted pipeline, a
//! refused sixth round, and a certified round whose sealed certificate
//! binds its ledger charge.
//!
//! ```text
//! cargo run --release --example query_service_tour
//! ```
//!
//! Every admitted round is checked bit-for-bit against the plaintext
//! oracle.

use mycelium::deep_simulation_params;
use mycelium_bgv::KeySet;
use mycelium_budget::Composition;
use mycelium_cert::{verify_bytes, RoundCertificate};
use mycelium_graph::generate::{epidemic_population, ContactGraphConfig, EpidemicConfig};
use mycelium_math::rng::{SeedableRng, StdRng};
use mycelium_net::{QuerySession, SessionError, SimNetConfig};
use mycelium_query::analyze::analyze;
use mycelium_query::builtin::{paper_query, CONFORMANCE_QUERY_TEXT};
use mycelium_query::eval::evaluate;

fn main() {
    println!("=== A five-query session against a ledger of capacity 5ε ===\n");
    let params = deep_simulation_params();
    let mut rng = StdRng::seed_from_u64(1234);
    let keys = KeySet::generate(&params.bgv, &mut rng);
    let pop = epidemic_population(
        &ContactGraphConfig {
            n: 40,
            degree_bound: 3,
            mean_household: 2,
            community_edges: 1,
            subway_fraction: 0.2,
            days: 13,
        },
        &EpidemicConfig {
            seed_fraction: 0.1,
            household_rate: 0.12,
            community_rate: 0.03,
            days: 13,
        },
        &mut StdRng::seed_from_u64(7),
    );
    let mut session = QuerySession::new(
        "contacts",
        5.0,
        Composition::Basic,
        params.clone(),
        pop.clone(),
        keys,
        false,
        99,
    )
    .expect("valid session");

    println!(
        "{:<10} {:>6} {:>8} {:>10} {:>7} {:>7}",
        "query", "round", "charged", "remaining", "groups", "oracle"
    );
    for (name, _, _) in &CONFORMANCE_QUERY_TEXT {
        let query = paper_query(name).expect("builtin");
        let analysis = analyze(&query, &params.schema).expect("analyzable");
        let oracle = evaluate(&query, &analysis, &params.schema, &pop);
        let round = session.run(&query, &[]).expect("admitted round runs");
        let exact = &round.outcome.exact;
        let matches = exact
            .groups
            .iter()
            .zip(&oracle.groups)
            .all(|(g, o)| g.histogram == o.histogram);
        println!(
            "{:<10} {:>6} {:>8.2} {:>10.2} {:>7} {:>7}",
            round.query,
            round.round,
            round.charged_epsilon,
            round.remaining_after,
            exact.groups.len(),
            if matches { "exact" } else { "DIVERGED" },
        );
        assert!(matches, "{name} diverged from the plaintext oracle");
    }

    println!("\n=== The sixth round: a typed, permanent refusal ===\n");
    let sixth = paper_query("SEIR").unwrap();
    match session.run(&sixth, &[]) {
        Err(SessionError::Refused {
            round,
            query,
            refusal,
        }) => println!("round {round} ({query}): {refusal}"),
        other => panic!("expected a refusal, got {other:?}"),
    }
    println!(
        "ledger: spent {:.2} of {:.2}, {} decided rounds, digest {}…",
        session.ledger().spent(),
        session.ledger().capacity(),
        session.ledger().decided_rounds(),
        session.ledger().digest()[..4]
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect::<String>(),
    );

    println!("\n=== A certified round binds its charge into the signed transcript ===\n");
    let sim_params = mycelium::params::SystemParams::simulation();
    let sim_pop = epidemic_population(
        &ContactGraphConfig {
            n: 24,
            degree_bound: 4,
            mean_household: 3,
            community_edges: 2,
            subway_fraction: 0.2,
            days: 13,
        },
        &EpidemicConfig {
            seed_fraction: 0.08,
            household_rate: 0.10,
            community_rate: 0.02,
            days: 13,
        },
        &mut StdRng::seed_from_u64(42),
    );
    let sim_keys = KeySet::generate(&sim_params.bgv, &mut StdRng::seed_from_u64(1234));
    let mut certified = QuerySession::new(
        "certified",
        1.0,
        Composition::Basic,
        sim_params,
        sim_pop,
        sim_keys,
        true,
        11,
    )
    .expect("valid session");
    let round = certified
        .run_certified(&paper_query("Q4").unwrap(), &[], &SimNetConfig::default())
        .expect("round converges");
    let bytes = round.outcome.certificate.as_ref().expect("sealed");
    let cert = RoundCertificate::decode(bytes).unwrap();
    println!(
        "certificate: {} bytes, charged_epsilon {:.2}, verdict: {}",
        bytes.len(),
        cert.charged_epsilon(),
        verify_bytes(bytes),
    );
    assert_eq!(cert.charged_epsilon(), round.charged_epsilon);
}
