//! `direct_q4` / `direct_q5`: one round through the in-process executor.

use mycelium::exec::{release_noisy, ExecStats};
use mycelium::plan::{aggregate_and_audit, combine_origin, origin_work};
use mycelium::{run_query_encrypted, QueryPlan, SystemParams};
use mycelium_bgv::{Ciphertext, KeySet};
use mycelium_crypto::sha256::Sha256;
use mycelium_dp::PrivacyBudget;
use mycelium_graph::generate::Population;
use mycelium_graph::graph::VertexId;
use mycelium_math::rng::{Rng, SeedableRng, StdRng};
use mycelium_net::round::{build_population, RoundSpec};
use mycelium_query::analyze::analyze;
use mycelium_query::ast::Query;
use mycelium_query::builtin::paper_query;
use mycelium_query::eval::{evaluate, PlainResult};

use super::{Cfg, Layers, Traced, Workload};
use crate::harness::span::Tracer;
use crate::harness::stats::median;

/// Which query the executor runs, at what size.
#[derive(Debug, Clone, Copy)]
pub struct DirectShape {
    /// Paper query name.
    pub query: &'static str,
    /// Population size.
    pub n: usize,
    /// Whether contributions carry well-formedness proofs.
    pub proofs: bool,
}

/// Set-up state of a direct workload.
pub struct Direct {
    shape: DirectShape,
    seed: u64,
    params: SystemParams,
    pop: Population,
    query: Query,
    keys: KeySet,
    oracle: PlainResult,
    rounds: u64,
}

impl Direct {
    /// A fresh randomness stream per round, so no two rounds encrypt
    /// with the same coins.
    fn round_rng(&mut self) -> StdRng {
        self.rounds += 1;
        StdRng::seed_from_u64(self.seed).with_stream(0xD1EC_0000 + self.rounds)
    }

    /// One round through `run_query_encrypted`, checked against the oracle.
    fn round(&mut self) -> Result<ExecStats, String> {
        let mut rng = self.round_rng();
        let out = run_query_encrypted(
            &self.query,
            &self.pop,
            &self.params,
            &self.keys,
            &[],
            self.shape.proofs,
            &mut PrivacyBudget::new(1e9),
            &mut rng,
        )
        .map_err(|e| format!("executor failed: {e}"))?;
        if out.exact != self.oracle {
            return Err("decoded result differs from the plaintext oracle".into());
        }
        Ok(out.stats)
    }

    /// The benchmark's own copy of the `run_query_encrypted` loop, with a
    /// span around each call into a public function. Serial, as the
    /// executor is under `MYC_THREADS=1`.
    fn traced_round(&mut self, tr: &mut Tracer) -> Result<ExecStats, String> {
        let rng = &mut self.round_rng();
        let (query, pop, params, keys) = (&self.query, &self.pop, &self.params, &self.keys);
        let fail = |e: mycelium::ExecError| format!("traced executor failed: {e}");
        tr.enter("round");
        let plan = tr
            .span("plan_new", || {
                QueryPlan::new(query, pop, params, self.shape.proofs)
            })
            .map_err(fail)?;
        let mut stats = ExecStats::default();
        let mut rejected: Vec<VertexId> = Vec::new();
        let mut master_seed = [0u8; 32];
        rng.fill(&mut master_seed);
        let mut origin_cts: Vec<Ciphertext> = Vec::with_capacity(pop.graph.len());
        for v in 0..pop.graph.len() as VertexId {
            let mut h = Sha256::new();
            h.update(&master_seed);
            h.update(&v.to_le_bytes());
            let rng = &mut StdRng::from_seed(h.finalize());
            let work = tr.span("origin_work", || origin_work(&plan, query, params, pop, v));
            let mut cts: Vec<Ciphertext> = Vec::with_capacity(work.requests.len());
            for &(w, exp) in &work.requests {
                let sc = tr
                    .span("build_contribution", || {
                        plan.build_contribution(keys, w, exp, false, rng)
                    })
                    .map_err(fail)?;
                stats.neighbor_ciphertexts += 1;
                if plan.circuit.is_some() {
                    stats.proofs_verified += 1;
                    if !tr.span("verify_contribution", || plan.verify_contribution(&sc)) {
                        if !rejected.contains(&w) {
                            rejected.push(w);
                        }
                        cts.push(plan.neutral_ct(keys, rng).map_err(fail)?);
                        continue;
                    }
                }
                cts.push(sc.ct);
            }
            let out = tr
                .span("combine_origin", || {
                    combine_origin(&plan, keys, &work, &cts, &mut stats, rng)
                })
                .map_err(fail)?;
            origin_cts.push(out);
        }
        let aggregate = tr
            .span("aggregate_and_audit", || aggregate_and_audit(origin_cts))
            .map_err(fail)?;
        let run = tr
            .span("run_committee", || {
                mycelium::committee::run_committee(
                    &aggregate,
                    &keys.secret,
                    params.devices.max(pop.graph.len() as u64),
                    params.committee_size,
                    b"query-beacon",
                    plan.analysis.sensitivity,
                    params.epsilon,
                    &mut PrivacyBudget::new(1e9),
                    plan.released_values(),
                    rng,
                )
            })
            .map_err(|e| format!("traced committee failed: {e}"))?;
        let exact = tr.span("decode", || {
            let exact = mycelium::decode::decode_aggregate(&run.plaintext, query, &plan.analysis);
            std::hint::black_box(release_noisy(&exact, &run.noise, plan.released_len));
            exact
        });
        tr.exit();
        stats.rejected = rejected.len();
        if exact != self.oracle {
            return Err("traced result differs from the plaintext oracle".into());
        }
        Ok(stats)
    }
}

/// The spans of the traced loop, in call order.
const SPANS: [&str; 8] = [
    "plan_new",
    "origin_work",
    "build_contribution",
    "verify_contribution",
    "combine_origin",
    "aggregate_and_audit",
    "run_committee",
    "decode",
];

impl Workload for Direct {
    type Shape = DirectShape;

    fn set_up(shape: &DirectShape, cfg: &Cfg) -> Result<Self, String> {
        let params = SystemParams::simulation();
        // The population of the round planes, so every workload of one
        // seed queries the same kind of graph.
        let pop = build_population(&RoundSpec {
            seed: cfg.seed,
            n: cfg.population(shape.n),
            ..RoundSpec::default()
        });
        let query = paper_query(shape.query).ok_or("unknown paper query")?;
        let keys = KeySet::generate(
            &params.bgv,
            &mut StdRng::seed_from_u64(cfg.seed).with_stream(mycelium::streams::KEYS),
        );
        let analysis = analyze(&query, &params.schema).map_err(|e| e.to_string())?;
        let oracle = evaluate(&query, &analysis, &params.schema, &pop);
        Ok(Direct {
            shape: *shape,
            seed: cfg.seed,
            params,
            pop,
            query,
            keys,
            oracle,
            rounds: 0,
        })
    }

    fn op(&mut self) -> Result<f64, String> {
        self.round().map(|_| 0.0)
    }

    fn trace(&mut self, cfg: &Cfg, out: &mut Layers) -> Result<Traced, String> {
        // Traced and untraced rounds alternate, so both see the same
        // machine; their ratio is what tracing costs.
        let mut tr = Tracer::new();
        let (mut traced, mut untraced) = (Vec::new(), Vec::new());
        let mut stats = ExecStats::default();
        let started = std::time::Instant::now();
        let mut round = 0;
        while round < 2 || started.elapsed().as_secs_f64() < cfg.seconds {
            let t = std::time::Instant::now();
            self.round()?;
            untraced.push(t.elapsed().as_secs_f64());
            tr.set_round(round);
            let t = std::time::Instant::now();
            stats = self.traced_round(&mut tr)?;
            traced.push(t.elapsed().as_secs_f64());
            round += 1;
        }
        let own = tr.self_times();
        let per_round = |name: &'static str| -> f64 {
            median(
                &(0..round)
                    .map(|r| own.get(&(r, name)).copied().unwrap_or(0.0))
                    .collect::<Vec<_>>(),
            )
        };
        for name in SPANS {
            out.set(&format!("mycelium.{name}_s"), per_round(name));
        }
        let coverage: Vec<f64> = (0..round)
            .map(|r| {
                let inside: f64 = SPANS
                    .iter()
                    .map(|n| own.get(&(r, *n)).copied().unwrap_or(0.0))
                    .sum();
                inside / (inside + own[&(r, "round")])
            })
            .collect();
        out.set("mycelium.span_coverage", median(&coverage));
        out.set("mycelium.contributions", stats.neighbor_ciphertexts as f64);
        out.set("mycelium.multiplications", stats.multiplications as f64);
        out.set("mycelium.proofs_verified", stats.proofs_verified as f64);
        out.set("mycelium.rejected", stats.rejected as f64);
        out.set("trace.overhead_ratio", median(&traced) / median(&untraced));
        // Two threads against one, on the untraced executor (this is the
        // only place the benchmark leaves MYC_THREADS=1).
        std::env::set_var("MYC_THREADS", "2");
        let t = std::time::Instant::now();
        let two = self.round();
        let two_s = t.elapsed().as_secs_f64();
        std::env::set_var("MYC_THREADS", "1");
        two?;
        out.set("mycelium.par_speedup_2t", median(&untraced) / two_s);
        Ok(Traced::default())
    }
}
