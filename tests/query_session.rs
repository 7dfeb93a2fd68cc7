//! The multi-query session end-to-end: five distinct query classes
//! driven through the full encrypted pipeline as one budgeted session,
//! a sixth over-budget round refused with a typed error, and the
//! certified path binding each round's charged epsilon into its signed
//! round certificate.
//!
//! This is the tentpole acceptance test for the query service: the
//! session ledger (mycelium-budget) is the accountant, the encrypted
//! executor must stay bit-identical to the plaintext oracle for every
//! admitted round, and refusals must be deterministic and permanent.

use mycelium::deep_simulation_params;
use mycelium::params::SystemParams;
use mycelium_bgv::KeySet;
use mycelium_budget::Composition;
use mycelium_cert::{verify_bytes, RoundCertificate};
use mycelium_dp::DpError;
use mycelium_graph::generate::{
    epidemic_population, ContactGraphConfig, EpidemicConfig, Population,
};
use mycelium_math::rng::{SeedableRng, StdRng};
use mycelium_net::{QuerySession, SessionError, SimNetConfig};
use mycelium_query::analyze::analyze;
use mycelium_query::builtin::{paper_query, CONFORMANCE_QUERY_TEXT};
use mycelium_query::eval::evaluate;

/// A small dense population at degree bound 3 — the two-hop `KHOP`
/// query's `d^k` chains stay inside the deepened BGV chain.
fn deep_population(seed: u64) -> Population {
    let mut rng = StdRng::seed_from_u64(seed);
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
}

fn deep_session(capacity: f64, seed: u64) -> QuerySession {
    let params = deep_simulation_params();
    let mut rng = StdRng::seed_from_u64(1234);
    let keys = KeySet::generate(&params.bgv, &mut rng);
    let pop = deep_population(7);
    QuerySession::new(
        "contacts",
        capacity,
        Composition::Basic,
        params,
        pop,
        keys,
        false,
        seed,
    )
    .expect("valid session")
}

/// Tentpole: all five conformance query classes run as one session —
/// each admitted round's exact (pre-noise) result is bit-identical to
/// the plaintext oracle — and the sixth round is refused with the typed
/// budget error.
#[test]
fn five_query_session_matches_oracle_and_refuses_the_sixth() {
    let params = deep_simulation_params();
    let pop = deep_population(7);
    let mut session = deep_session(5.0, 99);

    for (i, (name, _, _)) in CONFORMANCE_QUERY_TEXT.iter().enumerate() {
        let query = paper_query(name).expect("conformance query resolves");
        let analysis = analyze(&query, &params.schema).expect("analyzable");
        let oracle = evaluate(&query, &analysis, &params.schema, &pop);

        let round = session
            .run(&query, &[])
            .unwrap_or_else(|e| panic!("{name} must be admitted and run: {e}"));
        assert_eq!(round.round, i as u32);
        assert_eq!(round.query, *name);
        assert_eq!(round.charged_epsilon, params.epsilon, "{name}");
        assert!(
            (round.remaining_after - (5.0 - (i + 1) as f64)).abs() < 1e-9,
            "{name}: remaining {} after round {i}",
            round.remaining_after
        );

        let exact = &round.outcome.exact;
        assert_eq!(exact.groups.len(), oracle.groups.len(), "{name}: groups");
        for (got, want) in exact.groups.iter().zip(&oracle.groups) {
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
            round.outcome.stats.final_budget_bits > 0.0,
            "{name}: noise budget exhausted"
        );
    }

    // All capacity charged: the ledger is full and the session refuses
    // round 5 with the typed refusal — no ciphertext moves.
    assert_eq!(session.ledger().spent(), 5.0);
    assert_eq!(session.ledger().remaining(), 0.0);
    let sixth = paper_query("SEIR").unwrap();
    match session.run(&sixth, &[]) {
        Err(SessionError::Refused {
            round,
            query,
            refusal:
                DpError::BudgetExhausted {
                    requested,
                    remaining,
                },
        }) => {
            assert_eq!(round, 5);
            assert_eq!(query, "SEIR");
            assert_eq!(requested, 1.0);
            assert_eq!(remaining, 0.0);
        }
        other => panic!("expected a typed budget refusal, got {other:?}"),
    }
    // The refusal is recorded permanently.
    assert!(session.ledger().refusal(5).is_some());
    assert_eq!(session.ledger().decided_rounds(), 6);
}

/// A refused round consumes its index but no budget, and re-running the
/// whole session reproduces the identical ledger digest (admissions,
/// charges, and refusals are all deterministic).
#[test]
fn session_reruns_are_bit_identical() {
    let run_once = || {
        let mut session = deep_session(2.0, 4242);
        let query = paper_query("DEGREE").unwrap();
        let a = session.run(&query, &[]).expect("round 0 admitted");
        let b = session.run(&query, &[]).expect("round 1 admitted");
        let refused = session.run(&query, &[]);
        assert!(matches!(
            refused,
            Err(SessionError::Refused { round: 2, .. })
        ));
        (
            a.outcome.exact.groups.clone(),
            b.outcome.exact.groups.clone(),
            session.ledger().digest(),
        )
    };
    let (a1, b1, d1) = run_once();
    let (a2, b2, d2) = run_once();
    assert_eq!(a1, a2, "round 0 exact result must be deterministic");
    assert_eq!(b1, b2, "round 1 exact result must be deterministic");
    assert_eq!(d1, d2, "ledger digest must be deterministic");
}

/// The certified path: a session round through the simnet executor
/// yields a sealed certificate whose `charged_epsilon` equals the
/// ledger's charge for that round, and the certificate verifies
/// offline.
#[test]
fn certified_round_binds_the_charged_epsilon() {
    let params = SystemParams::simulation();
    let mut rng = StdRng::seed_from_u64(1234);
    let keys = KeySet::generate(&params.bgv, &mut rng);
    let pop = {
        let cfg = ContactGraphConfig {
            n: 24,
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
        epidemic_population(&cfg, &epi, &mut StdRng::seed_from_u64(42))
    };
    let mut session = QuerySession::new(
        "certified",
        1.0,
        Composition::Basic,
        params,
        pop,
        keys,
        true,
        11,
    )
    .expect("valid session");

    let query = paper_query("Q4").unwrap();
    let round = session
        .run_certified(&query, &[], &SimNetConfig::default())
        .expect("round admitted and converged");
    assert_eq!(round.charged_epsilon, 1.0);

    let bytes = round
        .outcome
        .certificate
        .as_ref()
        .expect("fault-free certified round must seal a certificate");
    let verdict = verify_bytes(bytes);
    assert!(verdict.is_valid(), "{verdict}");
    let cert = RoundCertificate::decode(bytes).unwrap();
    assert_eq!(
        cert.charged_epsilon(),
        round.charged_epsilon,
        "the certificate must bind the ledger's charge for the round"
    );

    // Capacity 1.0 is now spent: the next certified round is refused
    // before any actor is spawned.
    match session.run_certified(&query, &[], &SimNetConfig::default()) {
        Err(SessionError::Refused {
            round: 1,
            refusal: DpError::BudgetExhausted { .. },
            ..
        }) => {}
        other => panic!("expected refusal, got {other:?}"),
    }
}
