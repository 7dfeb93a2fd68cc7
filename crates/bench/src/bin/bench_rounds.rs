//! Round-convergence benchmark: the simnet-hosted query round and mixnet
//! phases swept over drop rates {0, 1%, 5%} and crash counts, plus the
//! device-count × shard-count sweep of the sharded aggregation plane.
//!
//! Writes `BENCH_rounds.json` (byte-identical across runs with the same
//! seed) and exits non-zero if any sweep cell fails to converge or
//! drifts from the analytic byte model — the properties CI gates on.
//! Host-dependent measurements (wall-clock, peak RSS) are deliberately
//! kept out of that artifact: they go to `<out>.host.json` and stderr.
//!
//! Usage: `bench_rounds [--smoke] [--seed N] [--out PATH]`

use std::time::Instant;

use mycelium_bench::rounds::{run_rounds, RoundsConfig};
use mycelium_bench::{finish, Args};
use mycelium_math::json::Json;
use mycelium_net::metrics::peak_rss_kb;

fn main() {
    let usage = "bench_rounds [--smoke] [--seed N] [--out PATH]";
    let args = Args::parse(usage, 1, "BENCH_rounds.json");
    let cfg = RoundsConfig {
        seed: args.seed,
        smoke: args.smoke,
    };
    eprintln!(
        "bench_rounds: seed {} ({} sweep)",
        cfg.seed,
        if cfg.smoke { "smoke" } else { "full" }
    );
    let started = Instant::now();
    let report = run_rounds(&cfg);
    let wall_ms = started.elapsed().as_millis() as u64;
    let rss_kb = peak_rss_kb().unwrap_or(0);

    let host_path = format!("{}.host.json", args.out);
    let host = Json::obj([("wall_ms", wall_ms.into()), ("peak_rss_kb", rss_kb.into())]);
    std::fs::write(&host_path, format!("{host}\n")).expect("write host report");
    eprintln!("wrote {host_path} (wall {wall_ms} ms, peak RSS {rss_kb} kB)");
    let failures = if report.all_converged {
        vec![]
    } else {
        vec!["a sweep cell did not converge or drifted from the byte model".into()]
    };
    finish(Some(&args.out), &report.json, &failures);
}
