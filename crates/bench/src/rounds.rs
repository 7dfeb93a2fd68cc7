//! The round-convergence benchmark behind `BENCH_rounds.json`.
//!
//! Sweeps the two simnet-hosted protocol phases — the encrypted query
//! round ([`mycelium::simround`]) and mixnet circuit setup + onion
//! forwarding ([`mycelium_mixnet::simtransport`]) — over message-drop
//! rates {0, 1%, 5%} and crash counts, and reports per-cell convergence,
//! virtual time, traffic, and retry counts.
//!
//! Everything in the report is a pure function of the seed: counters are
//! integers, virtual time is in ticks, and no wall clock is consulted, so
//! two runs with the same seed produce byte-identical JSON — the
//! determinism contract CI relies on when it archives the artifact.

use mycelium::params::SystemParams;
use mycelium::{run_query_simulated, SimNetConfig};
use mycelium_bgv::KeySet;
use mycelium_dp::PrivacyBudget;
use mycelium_graph::generate::{epidemic_population, ContactGraphConfig, EpidemicConfig};
use mycelium_math::rng::{SeedableRng, StdRng};
use mycelium_mixnet::simtransport::{run_mixnet_simulated, MixSimConfig};
use mycelium_query::builtin::paper_query;
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
    /// Deterministic JSON (integers and fixed-format rates only).
    pub json: String,
    /// Whether every cell of the sweep converged.
    pub all_converged: bool,
}

fn drop_label(p: f64) -> String {
    format!("{p:.2}")
}

/// Runs the full sweep.
pub fn run_rounds(cfg: &RoundsConfig) -> RoundsReport {
    let n_pop = if cfg.smoke { 30 } else { 60 };
    let params = SystemParams::simulation();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let keys = KeySet::generate(&params.bgv, &mut rng);
    let pop = epidemic_population(
        &ContactGraphConfig {
            n: n_pop,
            degree_bound: 4,
            days: 13,
            ..ContactGraphConfig::default()
        },
        &EpidemicConfig {
            days: 13,
            seed_fraction: 0.1,
            ..EpidemicConfig::default()
        },
        &mut rng,
    );
    let query = paper_query("Q4").expect("builtin query");
    let n = pop.graph.len();
    let t = params.committee_size / 2;

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
            let cell = match result {
                Ok(out) => {
                    let m = &out.metrics;
                    format!(
                        "{{\"drop\": {}, \"committee_crashes\": {}, \"converged\": true, \
                         \"elapsed_ticks\": {}, \"sent_msgs\": {}, \"sent_bytes\": {}, \
                         \"dropped_msgs\": {}, \"retries\": {}, \"timer_fires\": {}, \
                         \"rejected\": {}}}",
                        drop_label(drop),
                        crashes,
                        out.elapsed,
                        m.total_sent_msgs(),
                        m.total_sent_bytes(),
                        m.dropped_msgs,
                        m.total_retries(),
                        m.timer_fires,
                        out.rejected_devices.len(),
                    )
                }
                Err(e) => {
                    all_converged = false;
                    format!(
                        "{{\"drop\": {}, \"committee_crashes\": {}, \"converged\": false, \
                         \"error\": \"{e}\"}}",
                        drop_label(drop),
                        crashes,
                    )
                }
            };
            query_cells.push(cell);
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
            mix_cells.push(format!(
                "{{\"drop\": {}, \"crashed_relays\": {}, \"converged\": {}, \
                 \"elapsed_ticks\": {}, \"expected\": {}, \"delivered\": {}, \"failed\": {}, \
                 \"sent_msgs\": {}, \"sent_bytes\": {}, \"dropped_msgs\": {}, \"retries\": {}}}",
                drop_label(drop),
                crashes,
                r.converged,
                r.elapsed,
                r.expected,
                r.delivered,
                r.failed,
                r.metrics.total_sent_msgs(),
                r.metrics.total_sent_bytes(),
                r.metrics.dropped_msgs,
                r.metrics.total_retries(),
            ));
        }
    }

    let shard_cells = shard_sweep_cells(cfg, &mut all_converged);

    let json = format!(
        "{{\n  \"seed\": {},\n  \"smoke\": {},\n  \"population\": {},\n  \
         \"all_converged\": {},\n  \"query_round\": [\n    {}\n  ],\n  \
         \"shard_sweep\": [\n    {}\n  ],\n  \
         \"mixnet\": [\n    {}\n  ]\n}}\n",
        cfg.seed,
        cfg.smoke,
        n_pop,
        all_converged,
        query_cells.join(",\n    "),
        shard_cells.join(",\n    "),
        mix_cells.join(",\n    "),
    );
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
fn shard_sweep_cells(cfg: &RoundsConfig, all_converged: &mut bool) -> Vec<String> {
    use mycelium::costs::{intake_bytes_per_device, submission_level};
    use mycelium::plan::{origin_work, QueryPlan};

    const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];
    let device_counts: &[usize] = if cfg.smoke { &[24] } else { &[24, 40] };
    let mut cells = Vec::new();
    for &n_pop in device_counts {
        let params = SystemParams::simulation();
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let keys = KeySet::generate(&params.bgv, &mut rng);
        let pop = epidemic_population(
            &ContactGraphConfig {
                n: n_pop,
                degree_bound: 4,
                days: 13,
                ..ContactGraphConfig::default()
            },
            &EpidemicConfig {
                days: 13,
                seed_fraction: 0.1,
                ..EpidemicConfig::default()
            },
            &mut rng,
        );
        let query = paper_query("Q4").expect("builtin query");
        let n = pop.graph.len();

        // Analytic prediction: each origin's request list is some
        // device's contribution duty, so summing per-origin work covers
        // the whole device plane exactly once.
        let plan = QueryPlan::new(&query, &pop, &params, false).expect("plan");
        let fresh = params.bgv.levels;
        let predicted_total: u64 = (0..n as u32)
            .map(|v| {
                let work = origin_work(&plan, &query, &params, &pop, v);
                intake_bytes_per_device(
                    work.requests.len(),
                    &params.bgv,
                    fresh,
                    submission_level(&plan, &work, fresh),
                )
            })
            .sum();

        let mut hub_baseline: Option<mycelium::SimRoundOutcome> = None;
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
            let cell = match result {
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
                    let cell = format!(
                        "{{\"n\": {}, \"shards\": {}, \"converged\": true, \
                         \"elapsed_ticks\": {}, \"sent_bytes\": {}, \
                         \"device_bytes\": {}, \"bytes_per_device\": {}, \
                         \"predicted_bytes_per_device\": {}, \
                         \"model_delta_pct\": {:.2}, \"model_within_5pct\": {}, \
                         \"matches_hub\": {}}}",
                        n,
                        shards,
                        out.elapsed,
                        out.metrics.total_sent_bytes(),
                        device_bytes,
                        device_bytes / n as u64,
                        predicted_total / n as u64,
                        delta * 100.0,
                        within_gate,
                        matches_hub,
                    );
                    if shards == 1 {
                        hub_baseline = Some(out);
                    }
                    cell
                }
                Err(e) => {
                    *all_converged = false;
                    format!(
                        "{{\"n\": {n}, \"shards\": {shards}, \"converged\": false, \
                         \"error\": \"{e}\"}}"
                    )
                }
            };
            cells.push(cell);
        }
    }
    cells
}
