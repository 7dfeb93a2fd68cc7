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
//! The `digest` section records the [`sha256::Tier`] the striped hash runs
//! on (`tier`) and times, per parameter set, `plan::ciphertext_digest` of
//! one fresh ciphertext beside one SHA-256 lane over the same ciphertext's
//! residues as 8-byte words (the digest it replaced), alternately in one
//! run; and, as `journal_record`, the journal's checksum of a 62 kB record
//! (`journal::record_checksum`, striped) beside one SHA-256 lane over the
//! same record (the checksum it replaced). The process exits nonzero if
//! the ciphertext `ratio` at `test_small` exceeds [`DIGEST_RATIO_GATE`]
//! on the tier that runs, or the record's exceeds
//! [`RECORD_RATIO_GATE`] where the AVX-512 tier runs. `MYC_NO_SIMD=1`
//! runs the scalar tier, which neither gate holds.
//!
//! Before overwriting `BENCH_bgv.json`, the committed copy is re-read (by
//! `json::parse`) as the *baseline*: the emitted `speedup` section is the
//! measured new/old ops-per-sec ratio per kernel (at `MYC_THREADS=1`), and
//! the process exits nonzero if any kernel regressed by more than 10% —
//! which is what lets CI run this binary as a perf gate — or if the file is
//! there but is no baseline (it does not parse, or holds no serial suite).
//! Both gates read the document the run writes ([`checks`]). Under
//! `MYC_NO_SIMD=1` the run only prints (the committed numbers are the auto
//! tier's: it neither compares against them nor overwrites them).
//! Thread-count scaling is reported separately under `thread_scaling`.
//! Built on `std::time::Instant` only; run with `--release`.

use std::time::Instant;

use mycelium::params::SystemParams;
use mycelium::plan::ciphertext_digest;
use mycelium::run_query_encrypted;
use mycelium_bench::{finish, Args};
use mycelium_bgv::encoding::encode_monomial;
use mycelium_bgv::{BgvParams, Ciphertext, KeySet};
use mycelium_crypto::sha256::{self, Sha256};
use mycelium_dp::PrivacyBudget;
use mycelium_graph::generate::{epidemic_population, ContactGraphConfig, EpidemicConfig};
use mycelium_math::json::{self, Json};
use mycelium_math::ntt::NttTable;
use mycelium_math::rng::{RngCore, SeedableRng, StdRng};
use mycelium_math::simd::{self, Kernels};
use mycelium_math::zq::{ntt_primes, Modulus};
use mycelium_net::journal;

/// Largest `floor_ratio` the gated operations may show at `test_small`
/// (they sat at 3.8–4.0 before the limb-major pipelines; ≈ 2 since).
const FLOOR_RATIO_GATE: f64 = 2.5;
/// The operations the floor-ratio gate covers.
const GATED_OPS: [&str; 3] = ["encrypt", "relinearize", "mod_switch_down"];

/// Largest `ciphertext_digest` time, over one SHA-256 lane across the
/// 8-byte-word stream, at `test_small`, per striped-hash tier: 0.34
/// measured on the sixteen AVX-512 lanes of a 2-vCPU Xeon; the stripes
/// run two at a time on the same two SHA-NI chains the digest of two
/// parts side by side measured 0.48–0.54 on there. The scalar tier is not
/// gated.
const DIGEST_RATIO_GATE: [(&str, f64); 2] = [("avx512", 0.40), ("sha_ni", 0.7)];

/// Largest striped journal-record checksum time over one SHA-256 lane
/// across the same 62 kB record, where the AVX-512 tier runs (0.46–0.49
/// measured on the same Xeon; two SHA-NI chains, ≈ 0.7 by their
/// throughput, are not gated).
const RECORD_RATIO_GATE: f64 = 0.6;

/// Payload bytes of the timed journal record: one contribution with its
/// proof at the benchmark's parameters.
const RECORD_BYTES: usize = 62_000;

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

/// The digest `ciphertext_digest` replaced: one SHA-256 lane over every
/// residue of every part as an 8-byte little-endian word.
fn word_stream_digest(ct: &Ciphertext) -> [u8; 32] {
    const CHUNK: usize = 1024;
    let mut h = Sha256::new();
    let mut buf = [0u8; CHUNK * 8];
    for row in ct.parts().iter().flat_map(|p| p.residues()) {
        for chunk in row.chunks(CHUNK) {
            for (dst, &x) in buf.chunks_exact_mut(8).zip(chunk) {
                dst.copy_from_slice(&x.to_le_bytes());
            }
            h.update(&buf[..chunk.len() * 8]);
        }
    }
    h.finalize()
}

/// `(a µs, b µs)`: five alternations of the two, the median of each, so
/// both see the same stretch of the host's speed.
fn alternated(mut a: impl FnMut(), mut b: impl FnMut()) -> (f64, f64) {
    let (mut xs, mut ys) = (Vec::new(), Vec::new());
    for _ in 0..5 {
        xs.push(micros(&mut a));
        ys.push(micros(&mut b));
    }
    let median = |mut v: Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    (median(xs), median(ys))
}

/// `(ciphertext_digest µs, word stream µs)` of one fresh ciphertext.
fn run_digest(params: &BgvParams) -> (f64, f64) {
    let mut rng = StdRng::seed_from_u64(0xD16E);
    let keys = KeySet::generate(params, &mut rng);
    let pt = encode_monomial(3, params.n, params.plaintext_modulus).unwrap();
    let ct = Ciphertext::encrypt(&keys.public, &pt, &mut rng).unwrap();
    let (packed, words) = alternated(
        || {
            std::hint::black_box(ciphertext_digest(std::hint::black_box(&ct)));
        },
        || {
            std::hint::black_box(word_stream_digest(std::hint::black_box(&ct)));
        },
    );
    eprintln!("  ciphertext_digest {packed:>8.2} us  word stream {words:>8.2} us");
    (packed, words)
}

/// `(striped checksum µs, one-lane checksum µs)` of one journal record of
/// [`RECORD_BYTES`].
fn run_record_checksum() -> (f64, f64) {
    let mut payload = vec![0u8; RECORD_BYTES];
    StdRng::seed_from_u64(0x3A1).fill_bytes(&mut payload);
    let seq = 504u64;
    let (striped, one_lane) = alternated(
        || {
            std::hint::black_box(journal::record_checksum(
                seq,
                std::hint::black_box(&payload),
            ));
        },
        || {
            let payload = std::hint::black_box(&payload[..]);
            std::hint::black_box(sha256::sha256_concat(&[&seq.to_le_bytes(), payload]));
        },
    );
    eprintln!("  record checksum   {striped:>8.2} us  one lane    {one_lane:>8.2} us");
    (striped, one_lane)
}

/// End-to-end: the paper's Q4 over a small epidemic population, full
/// pipeline (encrypt, prove-free aggregate, one sum, committee).
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

/// The `(params/kernel, ops_per_sec)` rows of the serial (`threads: 1`)
/// suites of a `BENCH_bgv.json`, in file order: the baseline the speedup
/// section and the regression gate compare against. A text that does not
/// parse, or holds no serial row, is no baseline.
fn baseline_ops(text: &str) -> Result<Vec<(String, f64)>, String> {
    let doc = json::parse(text).map_err(|e| e.to_string())?;
    let suites = doc
        .get("suites")
        .and_then(Json::as_array)
        .unwrap_or_default();
    let serial = suites
        .iter()
        .filter(|s| s.get("threads").and_then(Json::as_u64) == Some(1));
    let rows: Vec<_> = serial
        .flat_map(|suite| {
            let params = suite
                .get("params")
                .and_then(Json::as_str)
                .unwrap_or_default();
            let results = suite.get("results").and_then(Json::as_object);
            results
                .unwrap_or_default()
                .iter()
                .filter_map(move |(name, row)| {
                    let ops = row.get("ops_per_sec")?.as_f64()?;
                    Some((format!("{params}/{name}"), ops))
                })
        })
        .collect();
    if rows.is_empty() {
        return Err("no threads: 1 suite".into());
    }
    Ok(rows)
}

/// The gates a `BENCH_bgv.json` document is held to, read back from its
/// own (two-decimal) values: a serial row more than 10 % below the
/// committed baseline (`speedup` under 0.90), and a gated operation at
/// `test_small` above [`FLOOR_RATIO_GATE`] (or missing).
fn checks(doc: &Json) -> Vec<String> {
    let floor = doc.get("floor_ratio").and_then(|f| f.get("test_small"));
    let over_floor = GATED_OPS.iter().filter_map(|op| {
        let gate = format!("floor ratio of {op} at test_small");
        match floor.and_then(|f| f.get(op)?.as_f64()) {
            Some(ratio) if ratio <= FLOOR_RATIO_GATE => None,
            Some(ratio) => Some(format!("{gate}: {ratio} > {FLOOR_RATIO_GATE}")),
            None => Some(format!("{gate}: not in the document")),
        }
    });
    let digest = doc.get("digest");
    let tier = digest.and_then(|d| d.get("tier")?.as_str());
    let ratio_gate = |gate: &str, row: &str, bound: f64| match digest
        .and_then(|d| d.get(row)?.get("ratio")?.as_f64())
    {
        Some(ratio) if ratio <= bound => None,
        Some(ratio) => Some(format!("{gate}: {ratio} > {bound}")),
        None => Some(format!("{gate}: not in the document")),
    };
    let digest_gate = DIGEST_RATIO_GATE
        .iter()
        .find(|(t, _)| Some(*t) == tier)
        .and_then(|&(tier, bound)| {
            let gate = format!("ciphertext_digest over the word stream at test_small on {tier}");
            ratio_gate(&gate, "test_small", bound)
        });
    let record_gate = (tier == Some("avx512"))
        .then(|| {
            let gate = "striped journal-record checksum over one lane on avx512";
            ratio_gate(gate, "journal_record", RECORD_RATIO_GATE)
        })
        .flatten();
    let speedup = doc
        .get("speedup")
        .and_then(Json::as_object)
        .unwrap_or_default();
    let regressions = speedup.iter().filter_map(|(key, ratio)| {
        let ratio = ratio.as_f64().filter(|&r| r < 0.9)?;
        Some(format!("{key}: {ratio}x the committed ops/s"))
    });
    over_floor
        .chain(digest_gate)
        .chain(record_gate)
        .chain(regressions)
        .collect()
}

fn main() {
    let args = Args::parse("bench_bgv", 0, "BENCH_bgv.json");
    let ncores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let scalar_run = simd::simd_disabled_by_env();
    // Read the committed numbers *before* overwriting: they are the
    // baseline the speedup section and the regression gate compare against.
    let mut failures = Vec::new();
    let baseline = if scalar_run {
        eprintln!("MYC_NO_SIMD: printing the scalar rows; no baseline compare, no file written");
        Vec::new()
    } else if let Ok(text) = std::fs::read_to_string(&args.out) {
        baseline_ops(&text).unwrap_or_else(|e| {
            failures.push(format!("{} is no baseline: {e}", args.out));
            Vec::new()
        })
    } else {
        eprintln!("no committed BENCH_bgv.json baseline; speedups default to 1.00");
        Vec::new()
    };

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
    eprintln!("== ciphertext digest ==");
    let digests: Vec<_> = sets
        .iter()
        .map(|set| (set.name, run_digest(&set.params)))
        .collect();
    let record = run_record_checksum();
    std::env::remove_var("MYC_THREADS");

    let serial: Vec<&Suite> = suites.iter().filter(|s| s.threads == 1).collect();
    let results = |samples: &[Sample]| {
        Json::obj(samples.iter().map(|s| {
            let row = Json::obj([
                ("ops_per_sec", Json::fixed(s.ops_per_sec(), 4)),
                ("iters", s.iters.into()),
                ("secs", Json::fixed(s.secs, 4)),
            ]);
            (s.name, row)
        }))
    };
    let suites_json = suites.iter().map(|suite| {
        Json::obj([
            ("params", suite.params.into()),
            ("threads", suite.threads.into()),
            ("results", results(&suite.samples)),
        ])
    });
    // Floor ratios of the serial suites.
    let floor_ratio = serial.iter().map(|suite| {
        let ratios = suite
            .samples
            .iter()
            .filter_map(|s| Some((s.name, Json::fixed(s.floor_ratio?, 2))));
        (suite.params, Json::obj(ratios))
    });
    // Per-tier kernel table.
    let tiers = tiers.iter().map(|(name, kernels)| {
        let cells = kernels
            .iter()
            .map(|(kernel, us)| (format!("{kernel}_us"), Json::fixed(*us, 3)));
        (*name, Json::obj(cells))
    });
    // Measured speedup vs the committed baseline, serial suite vs serial
    // suite (1.00 where the baseline has no such row).
    let speedup = serial.iter().flat_map(|suite| {
        suite.samples.iter().map(|s| {
            let key = format!("{}/{}", suite.params, s.name);
            let old = baseline.iter().find(|(n, _)| *n == key).map(|&(_, v)| v);
            let ratio = old
                .filter(|&v| v > 0.0)
                .map_or(1.0, |o| s.ops_per_sec() / o);
            (key, Json::fixed(ratio, 2))
        })
    });
    // Thread-count scaling of this run: per-kernel ratio of each
    // multi-thread suite over the serial suite of the same parameters.
    // Empty on a 1-core host (the matrix is capped at real cores, so there
    // is nothing to compare).
    let thread_scaling = suites.iter().filter(|s| s.threads > 1).map(|suite| {
        let base = serial
            .iter()
            .find(|b| b.params == suite.params)
            .expect("every parameter set has a serial suite");
        let cells = base
            .samples
            .iter()
            .zip(&suite.samples)
            .map(|(b, p)| (b.name, Json::fixed(p.ops_per_sec() / b.ops_per_sec(), 2)));
        (
            format!("{}/{}", suite.params, suite.threads),
            Json::obj(cells),
        )
    });
    let simd = Json::obj([
        ("active", simd::active_name().into()),
        ("features", simd::detected_features().into_iter().collect()),
    ]);
    let digest = digests.iter().map(|&(name, (packed, words))| {
        let row = Json::obj([
            ("ciphertext_digest_us", Json::fixed(packed, 2)),
            ("word_stream_us", Json::fixed(words, 2)),
            ("ratio", Json::fixed(packed / words, 2)),
        ]);
        (name, row)
    });
    let (striped, one_lane) = record;
    let record = Json::obj([
        ("bytes", RECORD_BYTES.into()),
        ("striped_us", Json::fixed(striped, 2)),
        ("one_lane_us", Json::fixed(one_lane, 2)),
        ("ratio", Json::fixed(striped / one_lane, 2)),
    ]);
    let digest = std::iter::once(("tier", sha256::striped_tier().name().into()))
        .chain(digest)
        .chain([("journal_record", record)]);
    let doc = Json::obj([
        ("ncores", ncores.into()),
        ("simd", simd),
        ("suites", suites_json.collect()),
        ("floor_ratio", Json::obj(floor_ratio)),
        ("tiers", Json::obj(tiers)),
        ("digest", Json::obj(digest)),
        ("speedup", Json::obj(speedup)),
        ("thread_scaling", Json::obj(thread_scaling)),
    ]);
    failures.extend(checks(&doc));
    finish((!scalar_run).then_some(args.out.as_str()), &doc, &failures);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The committed `BENCH_bgv.json`: every serial row the regression
    /// gate compares against, at the values the file holds. (A refreshed
    /// file refreshes these numbers.)
    #[test]
    fn committed_baseline_yields_every_serial_row() {
        let rows = baseline_ops(include_str!("../../../../BENCH_bgv.json")).unwrap();
        let want = [
            ("test_medium/ntt", 3873.3142),
            ("test_medium/encrypt", 941.7089),
            ("test_medium/bgv_mul", 1783.9166),
            ("test_medium/relinearize", 254.952),
            ("test_medium/mod_switch_down", 1230.3463),
            ("test_medium/mod_switch_to", 869.8555),
            ("test_medium/e2e_query", 54.6726),
            ("test_small/ntt", 34152.4314),
            ("test_small/encrypt", 12967.4573),
            ("test_small/bgv_mul", 67925.9802),
            ("test_small/relinearize", 6864.3968),
            ("test_small/mod_switch_down", 20014.2819),
            ("test_small/mod_switch_to", 13298.7828),
        ];
        assert_eq!(rows, want.map(|(key, ops)| (key.to_string(), ops)));
    }

    #[test]
    fn a_file_that_is_no_baseline_fails_the_run() {
        let serial_at = |threads: u64| {
            let row = Json::obj([("ops_per_sec", Json::fixed(12.5, 4))]);
            let suite = Json::obj([
                ("params", "test_small".into()),
                ("threads", threads.into()),
                ("results", Json::obj([("ntt", row)])),
            ]);
            Json::obj([("suites", Json::Arr(vec![suite]))]).to_string()
        };
        let rows = baseline_ops(&serial_at(1)).unwrap();
        assert_eq!(rows, [("test_small/ntt".to_string(), 12.5)]);
        for text in [
            serial_at(2),
            "{}".into(),
            "{\"suites\": [".into(),
            String::new(),
        ] {
            assert!(baseline_ops(&text).is_err(), "{text}");
        }
    }

    #[test]
    fn each_gate_fails_a_document_that_breaks_it() {
        let doc = |encrypt: f64, speedup: f64| {
            let floor = GATED_OPS.map(|op| {
                (
                    op,
                    Json::fixed(if op == "encrypt" { encrypt } else { 2.0 }, 2),
                )
            });
            Json::obj([
                ("floor_ratio", Json::obj([("test_small", Json::obj(floor))])),
                (
                    "speedup",
                    Json::obj([("test_small/ntt", Json::fixed(speedup, 2))]),
                ),
            ])
        };
        assert_eq!(checks(&doc(2.5, 0.9)), Vec::<String>::new());
        let failed = checks(&doc(2.51, 0.9));
        assert_eq!(failed.len(), 1);
        assert!(
            failed[0].starts_with("floor ratio of encrypt"),
            "{failed:?}"
        );
        let failed = checks(&doc(1.9, 0.89));
        assert_eq!(failed.len(), 1);
        assert!(failed[0].starts_with("test_small/ntt: 0.89x"), "{failed:?}");
        // Every gated operation must be in the document.
        assert_eq!(checks(&Json::obj::<&str>([])).len(), GATED_OPS.len());
    }

    #[test]
    fn the_digest_gates_follow_the_striped_tier() {
        let floor = Json::obj(GATED_OPS.map(|op| (op, Json::fixed(2.0, 2))));
        let doc = |tier: &str, ratio: f64, record: f64| {
            let row = |ratio| Json::obj([("ratio", Json::fixed(ratio, 2))]);
            let digest = Json::obj([
                ("tier", tier.into()),
                ("test_small", row(ratio)),
                ("journal_record", row(record)),
            ]);
            Json::obj([
                ("floor_ratio", Json::obj([("test_small", floor.clone())])),
                ("digest", digest),
            ])
        };
        let fails = |doc: Json| checks(&doc);
        // Sixteen AVX-512 lanes: the ciphertext at 0.40, the record at 0.6.
        assert_eq!(fails(doc("avx512", 0.4, 0.6)), Vec::<String>::new());
        let failed = fails(doc("avx512", 0.41, 0.6));
        assert_eq!(failed.len(), 1);
        assert!(
            failed[0].starts_with("ciphertext_digest over"),
            "{failed:?}"
        );
        let failed = fails(doc("avx512", 0.4, 0.61));
        assert_eq!(failed.len(), 1);
        assert!(
            failed[0].starts_with("striped journal-record"),
            "{failed:?}"
        );
        // Two SHA-NI chains: the ciphertext at 0.7, the record not gated.
        assert_eq!(fails(doc("sha_ni", 0.7, 0.9)), Vec::<String>::new());
        let failed = fails(doc("sha_ni", 0.71, 0.9));
        assert_eq!(failed.len(), 1);
        assert!(failed[0].ends_with("on sha_ni: 0.71 > 0.7"), "{failed:?}");
        // The scalar rounds (no SIMD, or MYC_NO_SIMD=1): printed, not gated.
        assert_eq!(fails(doc("scalar", 1.2, 1.1)), Vec::<String>::new());
        // A gated tier whose rows are missing fails by name.
        let bare = Json::obj([
            ("floor_ratio", Json::obj([("test_small", floor.clone())])),
            ("digest", Json::obj([("tier", "avx512".into())])),
        ]);
        assert_eq!(fails(bare).len(), 2);
    }
}
