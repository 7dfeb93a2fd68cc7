//! Component throughput benchmark for the BGV compute plane.
//!
//! Measures ops/sec for the operations a round spends its homomorphic time
//! in — the RNS forward/inverse NTT, encryption, the tensor-product
//! multiply, relinearization, one- and multi-step modulus switching — and a
//! full end-to-end encrypted query, at two parameter sets: `test_small`
//! (`N = 1024`, 6 × 40-bit — what every `myc_bench` workload and
//! `net::round::build_setup` run) and `test_medium` (`N = 4096`,
//! 12 × 45-bit), across the thread matrix `MYC_THREADS ∈ {1, 2, 4, 8}`
//! capped at the machine's core count. The active SIMD kernel tier and the
//! detected CPU features are recorded alongside the numbers, so a baseline
//! from a different machine is self-describing.
//!
//! Two more sections say how close the operations sit to what the kernels
//! allow:
//!
//! * `tiers`: µs per transform and per element-wise kernel (1024 lanes,
//!   40-bit prime) for **every** tier this host can run, so "which tier
//!   beats scalar on which kernel" is a measured table, not a belief;
//! * `floor_ratio`: per operation and parameter set, the operation's time
//!   over `(its transform count × the single-transform time of the same
//!   run)` — 1.0 would be an operation that does nothing but transform.
//!   The single-transform time is taken right before and right after the
//!   operation's own measurement (this host's speed drifts by tens of
//!   percent over a run), so the ratio is self-relative in time as well as
//!   across machines; the process exits nonzero if `encrypt`,
//!   `relinearize` or `mod_switch_down` at `test_small` exceeds
//!   [`FLOOR_RATIO_GATE`].
//!
//! Before overwriting `BENCH_bgv.json`, the committed copy is re-read as
//! the *baseline*: the emitted `speedup` section is the measured new/old
//! ops-per-sec ratio per kernel (at `MYC_THREADS=1`), and the process
//! exits nonzero if any kernel regressed by more than 10% — which is what
//! lets CI run this binary as a perf gate. Under `MYC_NO_SIMD=1` the run
//! only prints (the committed numbers are the auto tier's: it neither
//! compares against them nor overwrites them). Thread-count scaling is
//! reported separately under `thread_scaling`. Built on
//! `std::time::Instant` only; run with `--release`.

use std::time::Instant;

use mycelium::params::SystemParams;
use mycelium::run_query_encrypted;
use mycelium_bgv::encoding::encode_monomial;
use mycelium_bgv::{BgvParams, Ciphertext, KeySet};
use mycelium_dp::PrivacyBudget;
use mycelium_graph::generate::{epidemic_population, ContactGraphConfig, EpidemicConfig};
use mycelium_math::ntt::NttTable;
use mycelium_math::rng::{RngCore, SeedableRng, StdRng};
use mycelium_math::simd::{self, Kernels};
use mycelium_math::zq::{ntt_primes, Modulus};

/// Largest `floor_ratio` the gated operations may show at `test_small`
/// (they sat at 3.8–4.0 before the limb-major pipelines; ≈ 2 since).
const FLOOR_RATIO_GATE: f64 = 2.5;
/// The operations the floor-ratio gate covers.
const GATED_OPS: [&str; 3] = ["encrypt", "relinearize", "mod_switch_down"];

/// One kernel's measurement.
struct Sample {
    name: &'static str,
    iters: u64,
    secs: f64,
    /// Time per iteration over the operation's transform floor (its
    /// transform count × the single-transform time measured around it).
    floor_ratio: Option<f64>,
}

impl Sample {
    fn ops_per_sec(&self) -> f64 {
        self.iters as f64 / self.secs
    }
    fn micros(&self) -> f64 {
        1e6 * self.secs / self.iters as f64
    }
}

/// Runs `op` until `min_secs` of wall time accumulates (at least once) and
/// returns the measurement.
fn bench(name: &'static str, min_secs: f64, mut op: impl FnMut()) -> Sample {
    // Warm-up: one untimed iteration to populate caches and lazy inits.
    op();
    let mut iters = 0u64;
    let start = Instant::now();
    loop {
        op();
        iters += 1;
        if start.elapsed().as_secs_f64() >= min_secs {
            break;
        }
    }
    let secs = start.elapsed().as_secs_f64();
    eprintln!(
        "  {name:<16} {iters:>7} iters in {secs:>5.2} s  ({:>10.2} ops/s)",
        iters as f64 / secs
    );
    Sample {
        name,
        iters,
        secs,
        floor_ratio: None,
    }
}

/// The BGV rows at one parameter set. `mod_switch_to` drops two thirds of
/// the chain in one call (level 6 → 2 at `test_small`), the shape of the
/// fresh operand of every multiplication in a round.
///
/// Transform counts behind `floor_ratio`, at level `l` and 2-part inputs:
/// `encrypt` `3l`, `relinearize` `l + l·(l−1)`, `mod_switch_down` and
/// `mod_switch_to` `2l` (dropped limbs inverse, kept limbs forward, per
/// part).
fn run_bgv_rows(params: &BgvParams, min_secs: f64) -> Vec<Sample> {
    let mut rng = StdRng::seed_from_u64(0xBE9C);
    let keys = KeySet::generate(params, &mut rng);
    let t = params.plaintext_modulus;
    let pt = encode_monomial(3, params.n, t).unwrap();
    let a = Ciphertext::encrypt(&keys.public, &pt, &mut rng).unwrap();
    let b = Ciphertext::encrypt(
        &keys.public,
        &encode_monomial(5, params.n, t).unwrap(),
        &mut rng,
    )
    .unwrap();
    let prod = a.mul(&b).unwrap();
    let relinearized = prod.relinearize(&keys.relin).unwrap();
    let mut poly = a.parts()[0].clone();
    let l = params.levels as f64;
    // One iteration = one full RNS transform (all residues) each way.
    let mut roundtrip = || {
        poly.to_coeff();
        poly.to_ntt();
    };
    // `op` with the single-transform time taken on both sides of it.
    let mut with_floor = |name: &'static str, transforms: f64, op: &mut dyn FnMut()| {
        let before = micros(&mut roundtrip);
        let mut sample = bench(name, min_secs, op);
        let single = (before + micros(&mut roundtrip)) / 2.0 / (2.0 * l);
        sample.floor_ratio = Some(sample.micros() / (transforms * single));
        sample
    };

    let encrypt = with_floor("encrypt", 3.0 * l, &mut || {
        std::hint::black_box(Ciphertext::encrypt(&keys.public, &pt, &mut rng).unwrap());
    });
    let bgv_mul = bench("bgv_mul", min_secs, || {
        std::hint::black_box(a.mul(&b).unwrap());
    });
    let relinearize = with_floor("relinearize", l * l, &mut || {
        std::hint::black_box(prod.relinearize(&keys.relin).unwrap());
    });
    let mod_switch_down = with_floor("mod_switch_down", 2.0 * l, &mut || {
        std::hint::black_box(relinearized.mod_switch_down().unwrap());
    });
    let mod_switch_to = with_floor("mod_switch_to", 2.0 * l, &mut || {
        std::hint::black_box(a.mod_switch_to(params.levels / 3).unwrap());
    });
    let ntt = bench("ntt", min_secs, roundtrip);
    vec![
        ntt,
        encrypt,
        bgv_mul,
        relinearize,
        mod_switch_down,
        mod_switch_to,
    ]
}

/// End-to-end: the paper's Q4 over a small epidemic population, full
/// pipeline (encrypt, prove-free aggregate, summation tree, committee).
fn run_e2e(min_secs: f64) -> Sample {
    let sys = SystemParams::simulation();
    let mut rng = StdRng::seed_from_u64(0xE2E);
    let keys = KeySet::generate(&sys.bgv, &mut rng);
    let pop = epidemic_population(
        &ContactGraphConfig {
            n: 40,
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
    let query = mycelium_query::builtin::paper_query("Q4").unwrap();
    bench("e2e_query", min_secs, || {
        let mut budget = PrivacyBudget::new(1e9);
        let mut qrng = StdRng::seed_from_u64(0xE2E2);
        std::hint::black_box(
            run_query_encrypted(
                &query,
                &pop,
                &sys,
                &keys,
                &[],
                false,
                &mut budget,
                &mut qrng,
            )
            .unwrap(),
        );
    })
}

/// A named parameter set of the suite matrix.
struct ParamSet {
    name: &'static str,
    params: BgvParams,
    /// The end-to-end query runs once per thread count, with the first set.
    with_e2e: bool,
}

/// One cell of the suite matrix.
struct Suite {
    params: &'static str,
    threads: usize,
    samples: Vec<Sample>,
}

/// µs per call of `op`, timed for ~20 ms after a warm-up.
fn micros(mut op: impl FnMut()) -> f64 {
    for _ in 0..64 {
        op();
    }
    let start = Instant::now();
    let mut iters = 0u64;
    while start.elapsed().as_secs_f64() < 0.02 {
        for _ in 0..64 {
            op();
        }
        iters += 64;
    }
    1e6 * start.elapsed().as_secs_f64() / iters as f64
}

/// The per-tier table: every kernel of every available tier on 1024 lanes
/// of a 40-bit chain prime (the `test_small` shape). Transforms run on the
/// previous transform's output, i.e. on fresh data every call. The codec's
/// `pack` / `unpack` rows are taken at 55 bits (`paper_sized`) as well:
/// their cost follows the width.
fn run_tiers() -> Vec<(&'static str, Vec<(&'static str, f64)>)> {
    let n = 1024;
    let q = Modulus::new_prime(ntt_primes(40, n, 1)[0]).unwrap();
    let qv = q.value();
    let table = NttTable::new(q, n).unwrap();
    let mut rng = StdRng::seed_from_u64(0x71E5);
    let mut draw = || -> Vec<u64> { (0..n).map(|_| rng.next_u64() % qv).collect() };
    let (a, b, c) = (draw(), draw(), draw());
    let bs: Vec<u64> = b.iter().map(|&w| q.shoup(w)).collect();
    let cs: Vec<u64> = c.iter().map(|&w| q.shoup(w)).collect();
    let small: Vec<i64> = a.iter().map(|&x| (x % 41) as i64 - 20).collect();
    let (w, ws) = (b[0], bs[0]);
    let q55 = Modulus::new_prime(ntt_primes(55, n, 1)[0]).unwrap();
    let a55: Vec<u64> = a.iter().map(|&x| x * 0x7fff % q55.value()).collect();
    let (mut packed40, mut packed55) = (vec![0u8; n * 40 / 8], vec![0u8; n * 55 / 8]);
    simd::all_available()
        .into_iter()
        .map(|k: &'static Kernels| {
            let (mut x, mut y) = (a.clone(), c.clone());
            let rows = vec![
                ("ntt_forward", micros(|| table.forward_with(k, &mut x))),
                ("ntt_inverse", micros(|| table.inverse_with(k, &mut x))),
                ("add_assign", micros(|| (k.add_assign)(&q, &mut x, &b))),
                (
                    "lift_signed",
                    micros(|| (k.lift_signed)(&q, &mut x, &small)),
                ),
                ("mul_assign", micros(|| (k.mul_assign)(&q, &mut x, &b))),
                (
                    "mul_shoup_assign",
                    micros(|| (k.mul_shoup_assign)(&q, &mut x, &b, &bs)),
                ),
                (
                    "mul_shoup_add2",
                    micros(|| (k.mul_shoup_add2)(&q, &mut x, &mut y, &a, (&b, &bs), (&c, &cs))),
                ),
                (
                    "mul_shoup_add_lazy2",
                    micros(|| {
                        // Canonical again before every call: the lazy
                        // budget is the caller's.
                        x.copy_from_slice(&a);
                        y.copy_from_slice(&c);
                        (k.mul_shoup_add_lazy2)(&q, &mut x, &mut y, &a, (&b, &bs), (&c, &cs))
                    }),
                ),
                (
                    "mul_shoup_scalar_into",
                    micros(|| (k.mul_shoup_scalar_into)(&q, &mut x, &a, w, ws)),
                ),
                (
                    "rescale_step",
                    micros(|| (k.rescale_step)(&q, &mut x, &small, &small, w, ws)),
                ),
                (
                    "reduce_lazy_pow2",
                    micros(|| (k.reduce_lazy_pow2)(qv, &mut x, 4)),
                ),
                ("pack40", micros(|| (k.pack)(&q, &mut packed40, &a))),
                (
                    "unpack40",
                    micros(|| assert!((k.unpack)(&q, &mut x, &packed40))),
                ),
                ("pack55", micros(|| (k.pack)(&q55, &mut packed55, &a55))),
                (
                    "unpack55",
                    micros(|| assert!((k.unpack)(&q55, &mut x, &packed55))),
                ),
            ];
            eprintln!(
                "  {:<12} fwd {:>5.2} us  inv {:>5.2} us",
                k.name, rows[0].1, rows[1].1
            );
            (k.name, rows)
        })
        .collect()
}

fn json_results(samples: &[Sample]) -> String {
    let fields: Vec<String> = samples
        .iter()
        .map(|s| {
            format!(
                "      \"{}\": {{\"ops_per_sec\": {:.4}, \"iters\": {}, \"secs\": {:.4}}}",
                s.name,
                s.ops_per_sec(),
                s.iters,
                s.secs
            )
        })
        .collect();
    fields.join(",\n")
}

/// Extracts `(params/kernel, ops_per_sec)` pairs from the `MYC_THREADS=1`
/// suites of a previously written `BENCH_bgv.json`, without a JSON
/// library: the file is our own output, one suite header, kernel or
/// closing brace per line. (A file from before the `params` key existed
/// has one serial suite, at `test_medium`.)
fn baseline_ops(json: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    // The parameter set of the serial suite the cursor is inside, if any.
    let mut suite: Option<&str> = None;
    for line in json.lines().map(str::trim) {
        if line.contains("\"results\": {") {
            let params = line
                .split("\"params\": \"")
                .nth(1)
                .and_then(|rest| rest.split('"').next())
                .unwrap_or("test_medium");
            suite = line.contains("\"threads\": 1,").then_some(params);
        } else if line.starts_with("}}") {
            suite = None;
        } else if let (Some(params), Some((name, rest))) = (
            suite,
            line.strip_prefix('"')
                .and_then(|l| l.split_once("\": {\"ops_per_sec\": ")),
        ) {
            if let Some(v) = rest.split([',', '}']).next().and_then(|v| v.parse().ok()) {
                out.push((format!("{params}/{name}"), v));
            }
        }
    }
    out
}

fn main() {
    let ncores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let scalar_run = simd::simd_disabled_by_env();
    // Read the committed numbers *before* overwriting: they are the
    // baseline the speedup section and the regression gate compare against.
    let baseline = if scalar_run {
        eprintln!("MYC_NO_SIMD: printing the scalar rows; no baseline compare, no file written");
        Vec::new()
    } else {
        std::fs::read_to_string("BENCH_bgv.json")
            .map(|s| baseline_ops(&s))
            .unwrap_or_default()
    };
    if baseline.is_empty() && !scalar_run {
        eprintln!("no committed BENCH_bgv.json baseline; speedups default to 1.00");
    }

    let sets = [
        ParamSet {
            name: "test_medium",
            params: BgvParams::test_medium(),
            with_e2e: true,
        },
        ParamSet {
            name: "test_small",
            params: BgvParams::test_small(),
            with_e2e: false,
        },
    ];
    // Thread matrix {1, 2, 4, 8} capped at the host's core count: the
    // scaling numbers are only meaningful up to real parallelism, and a
    // CI box with fewer cores should not publish oversubscribed ratios.
    let mut suites: Vec<Suite> = Vec::new();
    for threads in [1usize, 2, 4, 8] {
        if threads > ncores && threads != 1 {
            continue;
        }
        std::env::set_var("MYC_THREADS", threads.to_string());
        for set in &sets {
            eprintln!("== {} MYC_THREADS={threads} ==", set.name);
            let mut samples = run_bgv_rows(&set.params, 0.5);
            if set.with_e2e {
                samples.push(run_e2e(1.0));
            }
            suites.push(Suite {
                params: set.name,
                threads,
                samples,
            });
        }
    }
    std::env::set_var("MYC_THREADS", "1");
    eprintln!("== kernel tiers ==");
    let tiers = run_tiers();
    std::env::remove_var("MYC_THREADS");

    let simd_active = simd::active_name();
    let features_json: Vec<String> = simd::detected_features()
        .iter()
        .map(|f| format!("\"{f}\""))
        .collect();
    let mut json = format!(
        "{{\n  \"ncores\": {ncores},\n  \"simd\": {{\"active\": \"{simd_active}\", \"features\": [{}]}},\n  \"suites\": [\n",
        features_json.join(", ")
    );
    for (i, suite) in suites.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"params\": \"{}\", \"threads\": {}, \"results\": {{\n{}\n    }}}}{}\n",
            suite.params,
            suite.threads,
            json_results(&suite.samples),
            if i + 1 < suites.len() { "," } else { "" }
        ));
    }
    let serial: Vec<&Suite> = suites.iter().filter(|s| s.threads == 1).collect();

    // Floor ratios of the serial suites, and their gate.
    json.push_str("  ],\n  \"floor_ratio\": {\n");
    let mut over_floor: Vec<String> = Vec::new();
    let rows: Vec<String> = serial
        .iter()
        .map(|suite| {
            let cells: Vec<String> = suite
                .samples
                .iter()
                .filter_map(|s| {
                    let ratio = s.floor_ratio?;
                    if suite.params == "test_small"
                        && GATED_OPS.contains(&s.name)
                        && ratio > FLOOR_RATIO_GATE
                    {
                        over_floor.push(format!("{}: {ratio:.2}", s.name));
                    }
                    Some(format!("\"{}\": {ratio:.2}", s.name))
                })
                .collect();
            format!("    \"{}\": {{{}}}", suite.params, cells.join(", "))
        })
        .collect();
    json.push_str(&rows.join(",\n"));

    // Per-tier kernel table.
    json.push_str("\n  },\n  \"tiers\": {\n");
    let rows: Vec<String> = tiers
        .iter()
        .map(|(name, kernels)| {
            let cells: Vec<String> = kernels
                .iter()
                .map(|(kernel, us)| format!("\"{kernel}_us\": {us:.3}"))
                .collect();
            format!("    \"{name}\": {{{}}}", cells.join(", "))
        })
        .collect();
    json.push_str(&rows.join(",\n"));

    // Measured speedup vs the committed baseline (serial suite vs serial
    // suite), and the >10% regression gate.
    json.push_str("\n  },\n  \"speedup\": {\n");
    let mut lines: Vec<String> = Vec::new();
    let mut regressions: Vec<String> = Vec::new();
    for suite in &serial {
        for s in &suite.samples {
            let key = format!("{}/{}", suite.params, s.name);
            let old = baseline
                .iter()
                .find(|(n, _)| *n == key)
                .map(|&(_, v)| v)
                .filter(|&v| v > 0.0);
            let ratio = old.map(|o| s.ops_per_sec() / o).unwrap_or(1.0);
            if ratio < 0.9 {
                regressions.push(format!(
                    "{key}: {:.2} -> {:.2} ops/s ({:.0}%)",
                    old.unwrap_or(0.0),
                    s.ops_per_sec(),
                    ratio * 100.0
                ));
            }
            lines.push(format!("    \"{key}\": {ratio:.2}"));
        }
    }
    json.push_str(&lines.join(",\n"));

    // Thread-count scaling of this run: per-kernel ratio of each
    // multi-thread suite over the serial suite of the same parameters.
    // Empty on a 1-core host (the matrix is capped at real cores, so there
    // is nothing to compare).
    json.push_str("\n  },\n  \"thread_scaling\": {\n");
    let rows: Vec<String> = suites
        .iter()
        .filter(|s| s.threads > 1)
        .map(|suite| {
            let base = serial
                .iter()
                .find(|b| b.params == suite.params)
                .expect("every parameter set has a serial suite");
            let cells: Vec<String> = base
                .samples
                .iter()
                .zip(&suite.samples)
                .map(|(b, p)| format!("\"{}\": {:.2}", b.name, p.ops_per_sec() / b.ops_per_sec()))
                .collect();
            format!(
                "    \"{}/{}\": {{{}}}",
                suite.params,
                suite.threads,
                cells.join(", ")
            )
        })
        .collect();
    json.push_str(&rows.join(",\n"));
    json.push_str("\n  }\n}\n");

    println!("{json}");
    if !scalar_run {
        std::fs::write("BENCH_bgv.json", &json).expect("write BENCH_bgv.json");
        eprintln!("wrote BENCH_bgv.json");
    }
    let mut failed = false;
    if !over_floor.is_empty() {
        eprintln!(
            "FLOOR RATIO above {FLOOR_RATIO_GATE} at test_small (op time / transform floor):"
        );
        for r in &over_floor {
            eprintln!("  {r}");
        }
        failed = true;
    }
    if !regressions.is_empty() {
        eprintln!("PERFORMANCE REGRESSION (>10% below committed baseline):");
        for r in &regressions {
            eprintln!("  {r}");
        }
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}
