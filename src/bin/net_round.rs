//! Multi-process query round launcher.
//!
//! One binary, five roles — the driver re-execs itself for each role:
//!
//! ```text
//! net_round driver     [round args] --out DIR [--crash-origin J --crash-after K]
//! net_round aggregator [round args] --out DIR [--die-after KIND:N --die-mid-journal N]
//! net_round device     [round args] --out DIR --shard I --addr HOST:PORT
//! net_round origin     [round args] --out DIR --shard J --addr HOST:PORT [--crash-after K]
//! net_round committee  [round args] --out DIR --member M --addr HOST:PORT
//! ```
//!
//! Round args include the transport hardening knobs: `--io-ms MS` sets
//! the per-request client I/O deadline, and `--net-seed N` /
//! `--net-drill` front every server with a deterministic link-fault
//! proxy (`mycelium_net::netchaos`) — `--net-seed 0` interposes the
//! proxy but injects nothing, which is how the wire-transparency test
//! proves the chaos plane costs zero bytes when idle.
//!
//! Flag parsing and role dispatch live in `mycelium_net::cli`, shared
//! with the `chaos_round` binary.

use mycelium_net::cli;

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    let role = argv.get(1).cloned().unwrap_or_default();
    let result = cli::parse_args(&argv[2..]).and_then(|args| {
        cli::dispatch(&role, &args).unwrap_or_else(|| {
            Err(format!(
                "usage: net_round <driver|aggregator|device|origin|committee> [args] \
                 (got {role:?})"
            ))
        })
    });
    if let Err(e) = result {
        eprintln!("net_round {role}: {e}");
        std::process::exit(1);
    }
}
