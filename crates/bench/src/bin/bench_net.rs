//! Transport-plane benchmark: loopback throughput, per-exchange
//! latency, and handshake cost over the authenticated-encryption TCP
//! channel. Writes `BENCH_net.json` (fixed field order) and exits 1 if it
//! fails one of [`mycelium_bench::net::checks`]. `--smoke` shrinks the
//! time budget for CI.

use mycelium_bench::{finish, net, Args};

fn main() {
    let args = Args::parse("bench_net [--smoke]", 0, "BENCH_net.json");
    eprintln!(
        "bench_net: payload sweep over loopback (smoke={})",
        args.smoke
    );
    let doc = net::to_json(&net::run(args.smoke));
    finish(Some(&args.out), &doc, &net::checks(&doc));
}
