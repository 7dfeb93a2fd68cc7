//! The query-service benchmark behind `BENCH_queries.json`.
//!
//! Drives the five conformance query classes (`SEIR`, `DEGREE`, `KHOP`,
//! `CLIPGB`, `CROSSEVAL`) through one budgeted [`QuerySession`] at the
//! deepened simulation parameters, checks each admitted round's exact
//! (pre-noise) result against the plaintext oracle, and records the sixth
//! round's typed refusal.
//!
//! Everything in the report is a pure function of the seed — counters,
//! fixed-format epsilons, and ledger digests — so two runs with the same
//! seed produce byte-identical JSON, the determinism contract CI relies
//! on when it archives the artifact.

use mycelium::deep_simulation_params;
use mycelium_bgv::KeySet;
use mycelium_budget::Composition;
use mycelium_dp::DpError;
use mycelium_graph::generate::{
    epidemic_population, ContactGraphConfig, EpidemicConfig, Population,
};
use mycelium_math::json::Json;
use mycelium_math::rng::{SeedableRng, StdRng};
use mycelium_net::{QuerySession, SessionError};
use mycelium_query::analyze::analyze;
use mycelium_query::builtin::{paper_query, CONFORMANCE_QUERY_TEXT};
use mycelium_query::eval::evaluate;

/// Benchmark configuration.
#[derive(Debug, Clone)]
pub struct QueriesConfig {
    /// Seed for the population and the session randomness stream.
    pub seed: u64,
    /// Smoke mode: smaller population, same rounds (for CI).
    pub smoke: bool,
}

/// The rendered report.
#[derive(Debug)]
pub struct QueriesReport {
    /// The document.
    pub json: Json,
    /// Whether every admitted round matched the oracle and the sixth round
    /// was refused.
    pub all_exact: bool,
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn deep_population(n: usize, seed: u64) -> Population {
    let mut rng = StdRng::seed_from_u64(seed);
    epidemic_population(
        &ContactGraphConfig {
            n,
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
        &mut rng,
    )
}

/// An epsilon as the report has always written it: a string at four
/// decimals.
fn epsilon(x: f64) -> Json {
    format!("{x:.4}").into()
}

/// The cell of a round the session did not run.
fn failed_round(query: &str, error: &str) -> Json {
    Json::obj([
        ("query", query.into()),
        ("admitted", false.into()),
        ("error", error.into()),
    ])
}

/// Runs the full sweep.
pub fn run_queries(cfg: &QueriesConfig) -> QueriesReport {
    let n_pop = if cfg.smoke { 24 } else { 40 };
    let params = deep_simulation_params();
    let pop = deep_population(n_pop, cfg.seed);
    let mut key_rng = StdRng::seed_from_u64(1234);
    let keys = KeySet::generate(&params.bgv, &mut key_rng);
    let capacity = CONFORMANCE_QUERY_TEXT.len() as f64 * params.epsilon;
    let mut session = QuerySession::new(
        "contacts",
        capacity,
        Composition::Basic,
        params.clone(),
        pop.clone(),
        keys,
        false,
        cfg.seed,
    )
    .expect("valid session");

    let mut all_exact = true;
    let mut round_cells = Vec::new();
    for (name, _, _) in &CONFORMANCE_QUERY_TEXT {
        let query = paper_query(name).expect("conformance query resolves");
        let analysis = analyze(&query, &params.schema).expect("analyzable");
        let oracle = evaluate(&query, &analysis, &params.schema, &pop);
        match session.run(&query, &[]) {
            Ok(round) => {
                let exact = &round.outcome.exact;
                let matches = exact.groups.len() == oracle.groups.len()
                    && exact.groups.iter().zip(&oracle.groups).all(|(g, o)| {
                        g.label == o.label
                            && g.histogram == o.histogram
                            && g.total_pairs == o.total_pairs
                            && g.total_clipped_sum == o.total_clipped_sum
                    });
                all_exact &= matches;
                let pairs: u64 = exact.groups.iter().map(|g| g.total_pairs).sum();
                round_cells.push(Json::obj([
                    ("query", round.query.as_str().into()),
                    ("round", round.round.into()),
                    ("admitted", true.into()),
                    ("charged_epsilon", epsilon(round.charged_epsilon)),
                    ("remaining_after", epsilon(round.remaining_after)),
                    ("groups", exact.groups.len().into()),
                    ("total_pairs", pairs.into()),
                    ("matches_oracle", matches.into()),
                ]));
            }
            Err(e) => {
                all_exact = false;
                round_cells.push(failed_round(name, &e.to_string()));
            }
        }
    }

    // The sixth round must be refused: the session capacity is exactly
    // five charges.
    let sixth = paper_query("SEIR").expect("builtin");
    let refusal_cell = match session.run(&sixth, &[]) {
        Err(SessionError::Refused {
            round,
            query,
            refusal:
                DpError::BudgetExhausted {
                    requested,
                    remaining,
                },
        }) => Json::obj([
            ("query", query.into()),
            ("round", round.into()),
            ("admitted", false.into()),
            ("refused", true.into()),
            ("requested", epsilon(requested)),
            ("remaining", epsilon(remaining)),
        ]),
        other => {
            all_exact = false;
            let got = other.map(|r| (r.round, r.query));
            Json::obj([
                ("refused", false.into()),
                (
                    "error",
                    format!("expected a typed refusal, got {got:?}").into(),
                ),
            ])
        }
    };

    let json = Json::obj([
        ("seed", cfg.seed.into()),
        ("smoke", cfg.smoke.into()),
        ("population", n_pop.into()),
        ("capacity", epsilon(capacity)),
        ("all_exact", all_exact.into()),
        ("ledger_digest", hex(&session.ledger().digest()).into()),
        ("rounds", Json::Arr(round_cells)),
        ("refusal", refusal_cell),
    ]);
    QueriesReport { json, all_exact }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mycelium_math::json::{self, Json};

    /// What an error renders can hold anything: a simulated round's cause
    /// as its `Display` writes it, quotes, backslashes and line breaks
    /// included.
    const ERROR: &str =
        "simulated round failed (charge refunded): \"quoted\" at C:\\sweep\nsecond line";

    #[test]
    fn a_failed_round_is_valid_json_whatever_its_error_says() {
        let cell = failed_round("SEIR", ERROR).to_string();
        let cell = json::parse(&cell).expect("a failed round's cell parses");
        assert_eq!(cell.get("error").and_then(Json::as_str), Some(ERROR));
    }

    #[test]
    fn smoke_sweep_is_exact_and_deterministic() {
        let cfg = QueriesConfig {
            seed: 3,
            smoke: true,
        };
        let a = run_queries(&cfg);
        assert!(a.all_exact, "sweep not exact:\n{}", a.json);
        let refused = a.json.get("refusal").and_then(|r| r.get("refused"));
        assert_eq!(refused, Some(&Json::Bool(true)));
        let b = run_queries(&cfg);
        assert_eq!(a.json, b.json, "same seed must render identical JSON");
    }
}
