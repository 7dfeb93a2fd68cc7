//! The round-convergence benchmark behind `BENCH_rounds.json`.
//!
//! Sweeps the two simnet-hosted protocol phases — the encrypted query
//! round ([`mycelium_net::run_query_simulated`]) and mixnet circuit setup + onion
//! forwarding ([`mycelium_mixnet::simtransport`]) — over message-drop
//! rates {0, 1%, 5%} and crash counts, and reports per-cell convergence,
//! virtual time, traffic, and retry counts.
//!
//! Everything in the report is a pure function of the seed: counters are
//! integers, virtual time is in ticks, and no wall clock is consulted, so
//! two runs with the same seed produce byte-identical JSON — the
//! determinism contract CI relies on when it archives the artifact.

use mycelium::params::SystemParams;

use mycelium_bgv::KeySet;
use mycelium_dp::PrivacyBudget;
use mycelium_graph::generate::{
    epidemic_population, ContactGraphConfig, EpidemicConfig, Population,
};
use mycelium_math::json::Json;
use mycelium_math::rng::{SeedableRng, StdRng};
use mycelium_mixnet::simtransport::{run_mixnet_simulated, MixSimConfig};
use mycelium_net::{run_query_simulated, SimNetConfig, SimRoundOutcome};
use mycelium_query::builtin::paper_query;
use mycelium_sharing::committee::threshold;
use mycelium_simnet::FaultPlan;

/// Swept drop rates.
pub const DROP_RATES: [f64; 3] = [0.0, 0.01, 0.05];

/// Benchmark configuration.
#[derive(Debug, Clone)]
pub struct RoundsConfig {
    /// Seed for every simulation in the sweep.
    pub seed: u64,
    /// Smoke mode: smaller population, same sweep structure (for CI).
    pub smoke: bool,
}

/// The rendered report.
#[derive(Debug)]
pub struct RoundsReport {
    /// The document (integers and fixed-format rates only).
    pub json: Json,
    /// Whether every cell of the sweep converged.
    pub all_converged: bool,
}

/// A sweep cell: where it sits, then what it measured.
fn cell<'a>(
    coords: [(&'a str, Json); 2],
    fields: impl IntoIterator<Item = (&'a str, Json)>,
) -> Json {
    Json::obj(coords.into_iter().chain(fields))
}

/// A sweep cell that did not converge: where it sits, and why.
fn failed_cell(coords: [(&str, Json); 2], error: &str) -> Json {
    cell(
        coords,
        [("converged", false.into()), ("error", error.into())],
    )
}

/// A sweep's parameters, keys and `n`-device epidemic population, all
/// derived from `seed`.
fn setup(n: usize, seed: u64) -> (SystemParams, KeySet, Population) {
    let params = SystemParams::simulation();
    let mut rng = StdRng::seed_from_u64(seed);
    let keys = KeySet::generate(&params.bgv, &mut rng);
    let graph = ContactGraphConfig {
        n,
        degree_bound: 4,
        days: 13,
        ..ContactGraphConfig::default()
    };
    let epidemic = EpidemicConfig {
        days: 13,
        seed_fraction: 0.1,
        ..EpidemicConfig::default()
    };
    let pop = epidemic_population(&graph, &epidemic, &mut rng);
    (params, keys, pop)
}

/// Runs the full sweep.
pub fn run_rounds(cfg: &RoundsConfig) -> RoundsReport {
    let n_pop = if cfg.smoke { 30 } else { 60 };
    let (params, keys, pop) = setup(n_pop, cfg.seed);
    let query = paper_query("Q4").expect("builtin query");
    let n = pop.graph.len();
    let t = threshold(params.committee_size);

    let mut all_converged = true;
    let mut query_cells = Vec::new();
    // Committee crash counts: none, and the maximum the threshold
    // tolerates (t of c). Every cell is expected to converge.
    for &drop in &DROP_RATES {
        for crashes in [0usize, t] {
            let mut fault = FaultPlan::none().with_drop_prob(drop);
            for m in 0..crashes {
                // Committee actors are ids n+1 ..= n+c.
                fault = fault.with_crash(n + 1 + m, 0);
            }
            let sim_cfg = SimNetConfig {
                seed: cfg.seed,
                fault,
                ..SimNetConfig::default()
            };
            let mut budget = PrivacyBudget::new(1000.0);
            let result = run_query_simulated(
                &query,
                &pop,
                &params,
                &keys,
                &[],
                false,
                &mut budget,
                &sim_cfg,
            );
            let coords = [
                ("drop", Json::fixed(drop, 2)),
                ("committee_crashes", crashes.into()),
            ];
            query_cells.push(match result {
                Ok(out) => {
                    let m = &out.metrics;
                    let fields = [
                        ("converged", true.into()),
                        ("elapsed_ticks", out.elapsed.into()),
                        ("sent_msgs", m.total_sent_msgs().into()),
                        ("sent_bytes", m.total_sent_bytes().into()),
                        ("dropped_msgs", m.dropped_msgs.into()),
                        ("retries", m.total_retries().into()),
                        ("timer_fires", m.timer_fires.into()),
                        ("rejected", out.rejected_devices.len().into()),
                    ];
                    cell(coords, fields)
                }
                Err(e) => {
                    all_converged = false;
                    failed_cell(coords, &e.to_string())
                }
            });
        }
    }

    let mut mix_cells = Vec::new();
    let mix_base = MixSimConfig {
        n: if cfg.smoke { 40 } else { 60 },
        sources: if cfg.smoke { 6 } else { 8 },
        seed: cfg.seed,
        ..MixSimConfig::default()
    };
    // Crash victim: the busiest non-source device of a lossless metered
    // pre-pass — a relay (or destination) the traffic actually crosses,
    // chosen deterministically.
    let victim = {
        let base = run_mixnet_simulated(&mix_base);
        (mix_base.sources..mix_base.n)
            .max_by_key(|&i| {
                let a = &base.metrics.actors[i];
                (a.sent_msgs + a.recv_msgs, std::cmp::Reverse(i))
            })
            .expect("non-source devices exist")
    };
    // Crash counts: none, and the victim relay. Every message must
    // *resolve* (deliver or exhaust its replicas' retries) — a cell
    // converges even when the crash makes some mids undeliverable.
    for &drop in &DROP_RATES {
        for crashes in [0usize, 1] {
            let mut cfg_cell = mix_base.clone();
            let mut fault = FaultPlan::none().with_drop_prob(drop);
            if crashes > 0 {
                fault = fault.with_crash(victim, 0);
            }
            cfg_cell.fault = fault;
            let r = run_mixnet_simulated(&cfg_cell);
            all_converged &= r.converged;
            // With no crashed relays, retries must recover every drop.
            if crashes == 0 {
                all_converged &= r.delivered == r.expected;
            }
            let coords = [
                ("drop", Json::fixed(drop, 2)),
                ("crashed_relays", crashes.into()),
            ];
            let fields = [
                ("converged", r.converged.into()),
                ("elapsed_ticks", r.elapsed.into()),
                ("expected", r.expected.into()),
                ("delivered", r.delivered.into()),
                ("failed", r.failed.into()),
                ("sent_msgs", r.metrics.total_sent_msgs().into()),
                ("sent_bytes", r.metrics.total_sent_bytes().into()),
                ("dropped_msgs", r.metrics.dropped_msgs.into()),
                ("retries", r.metrics.total_retries().into()),
            ];
            mix_cells.push(cell(coords, fields));
        }
    }

    let shard_cells = shard_sweep_cells(cfg, &mut all_converged);

    let json = Json::obj([
        ("seed", cfg.seed.into()),
        ("smoke", cfg.smoke.into()),
        ("population", n_pop.into()),
        ("all_converged", all_converged.into()),
        ("query_round", Json::Arr(query_cells)),
        ("shard_sweep", Json::Arr(shard_cells)),
        ("mixnet", Json::Arr(mix_cells)),
    ]);
    RoundsReport {
        json,
        all_converged,
    }
}

/// The device-count × shard-count sweep of the sharded aggregation
/// plane (DESIGN.md "Sharded aggregation").
///
/// Every cell runs the fault-free encrypted round at `agg_shards ∈
/// {1, 2, 4, 8}` and reports (a) whether the decoded and released
/// histograms are bit-identical to the single-hub cell at the same
/// device count — the associativity invariant — and (b) the metered
/// device-plane bytes against the `mycelium::costs` analytic intake
/// model. The model excludes message headers and acks, so the gate
/// allows 5%; a drift beyond that flips `all_converged` and fails CI.
///
/// Everything reported here is a pure function of the seed (wall-clock
/// and peak-RSS measurements live in the `bench_rounds` binary, outside
/// this deterministic artifact).
fn shard_sweep_cells(cfg: &RoundsConfig, all_converged: &mut bool) -> Vec<Json> {
    use mycelium::costs::intake_bytes_per_device;
    use mycelium::plan::{origin_work, QueryPlan};

    const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];
    let device_counts: &[usize] = if cfg.smoke { &[24] } else { &[24, 40] };
    let mut cells = Vec::new();
    for &n_pop in device_counts {
        let (params, keys, pop) = setup(n_pop, cfg.seed);
        let query = paper_query("Q4").expect("builtin query");
        let n = pop.graph.len();

        // Analytic prediction: each origin's request list is some
        // device's contribution duty, so summing per-origin work covers
        // the whole device plane exactly once.
        let plan = QueryPlan::new(&query, &pop, &params, false).expect("plan");
        let predicted_total: u64 = (0..n as u32)
            .map(|v| {
                let work = origin_work(&plan, &query, &params, &pop, v);
                intake_bytes_per_device(&plan, &work, &params.bgv)
            })
            .sum();

        let mut hub_baseline: Option<SimRoundOutcome> = None;
        for shards in SHARD_COUNTS {
            let sim_cfg = SimNetConfig {
                seed: cfg.seed,
                agg_shards: shards,
                ..SimNetConfig::default()
            };
            let mut budget = PrivacyBudget::new(1000.0);
            let result = run_query_simulated(
                &query,
                &pop,
                &params,
                &keys,
                &[],
                false,
                &mut budget,
                &sim_cfg,
            );
            let coords = || [("n", n.into()), ("shards", shards.into())];
            cells.push(match result {
                Ok(out) => {
                    let device_bytes: u64 = (0..n).map(|v| out.metrics.actors[v].sent_bytes).sum();
                    let delta = (device_bytes as f64 - predicted_total as f64).abs()
                        / predicted_total as f64;
                    let within_gate = delta <= 0.05;
                    let matches_hub = match &hub_baseline {
                        None => true,
                        Some(hub) => {
                            hub.exact
                                .groups
                                .iter()
                                .zip(&out.exact.groups)
                                .all(|(a, b)| a.histogram == b.histogram)
                                && hub
                                    .released
                                    .iter()
                                    .zip(&out.released)
                                    .all(|(a, b)| a.histogram == b.histogram)
                        }
                    };
                    *all_converged &= within_gate && matches_hub;
                    let fields = [
                        ("converged", true.into()),
                        ("elapsed_ticks", out.elapsed.into()),
                        ("sent_bytes", out.metrics.total_sent_bytes().into()),
                        ("device_bytes", device_bytes.into()),
                        ("bytes_per_device", (device_bytes / n as u64).into()),
                        (
                            "predicted_bytes_per_device",
                            (predicted_total / n as u64).into(),
                        ),
                        ("model_delta_pct", Json::fixed(delta * 100.0, 2)),
                        ("model_within_5pct", within_gate.into()),
                        ("matches_hub", matches_hub.into()),
                    ];
                    if shards == 1 {
                        hub_baseline = Some(out);
                    }
                    cell(coords(), fields)
                }
                Err(e) => {
                    *all_converged = false;
                    failed_cell(coords(), &e.to_string())
                }
            });
        }
    }
    cells
}

#[cfg(test)]
mod tests {
    use super::*;
    use mycelium_math::json;

    /// What an error renders can hold anything.
    const ERROR: &str = "Decode(\"bad \\\"frame\\\"\")\nat C:\\sweep";

    #[test]
    fn a_failed_cell_is_valid_json_whatever_its_error_says() {
        let cell = failed_cell([("n", 24u64.into()), ("shards", 4u64.into())], ERROR).to_string();
        let cell = json::parse(&cell).expect("a failed cell parses");
        assert_eq!(cell.get("error").and_then(Json::as_str), Some(ERROR));
        assert_eq!(cell.get("shards").and_then(Json::as_u64), Some(4));
    }
}
