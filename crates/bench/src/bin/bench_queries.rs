//! Query-service benchmark: the five conformance query classes driven
//! through one budgeted session, each admitted round checked exactly
//! against the plaintext oracle, and the sixth round refused.
//!
//! Writes `BENCH_queries.json` (byte-identical across runs with the
//! same seed) and exits non-zero if any admitted round diverges from
//! the oracle or the over-budget round is not refused — the properties
//! CI gates on. Wall-clock timing goes to stderr only.
//!
//! Usage: `bench_queries [--smoke] [--seed N] [--out PATH]`

use std::time::Instant;

use mycelium_bench::queries::{run_queries, QueriesConfig};
use mycelium_bench::{finish, Args};

fn main() {
    let usage = "bench_queries [--smoke] [--seed N] [--out PATH]";
    let args = Args::parse(usage, 3, "BENCH_queries.json");
    let cfg = QueriesConfig {
        seed: args.seed,
        smoke: args.smoke,
    };
    eprintln!(
        "bench_queries: seed {} {} -> {}",
        cfg.seed,
        if cfg.smoke { "(smoke)" } else { "(full)" },
        args.out,
    );
    let started = Instant::now();
    let report = run_queries(&cfg);
    eprintln!(
        "bench_queries: all_exact={} in {:.1}s",
        report.all_exact,
        started.elapsed().as_secs_f64()
    );
    let failures = if report.all_exact {
        vec![]
    } else {
        vec!["a round left the oracle or the sixth was not refused".into()]
    };
    finish(Some(&args.out), &report.json, &failures);
}
