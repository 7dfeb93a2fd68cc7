//! Benchmark harness regenerating every table and figure of the paper's
//! evaluation (§6).
//!
//! The `paper` binary's subcommands (`fig5` … `fig9`, `device_costs`, …,
//! `all`) print the same rows/series the paper reports plus a
//! paper-vs-measured comparison; `EXPERIMENTS.md` records the outputs.
//!
//! Each `bench_*` binary writes one JSON document and ends through one
//! gate rule, [`finish`]: write it, print it, name every failed check on
//! stderr, exit 1 if there is one (2 on an argument [`Args::parse`]
//! refuses). What fails each:
//!
//! * `bench_bgv` (`BENCH_bgv.json`, the component costs the §6 models
//!   extrapolate from): a serial row > 10 % below the committed file, that
//!   file there but unreadable, or encrypt / relinearize / mod_switch_down
//!   at `test_small` above 2.5× their transform floor;
//! * `bench_net` (`BENCH_net.json`, [`net::checks`]): shutdown p50 over
//!   50 ms, over 0.5 fsyncs per ack at window 8, over 40 000 minor faults
//!   per 1 000 exchanges, or an active AEAD seal slower than scalar at
//!   64 KiB;
//! * `bench_rounds` (`BENCH_rounds.json`, [`rounds`]): a cell that does not
//!   converge, leaves the single hub's histogram or drifts > 5 % from the
//!   byte model;
//! * `bench_queries` (`BENCH_queries.json`, [`queries`]): a round off the
//!   oracle, no refusal of the over-budget round, or a protocol cell off
//!   the fault-free ledger digest.

use mycelium_math::json::Json;

pub mod net;
pub mod queries;
pub mod rounds;

/// Formats a byte count as MB with one decimal.
pub fn mb(bytes: f64) -> String {
    format!("{:.1} MB", bytes / 1e6)
}

/// The options of a `bench_*` binary.
#[derive(Debug, PartialEq)]
pub struct Args {
    /// `--smoke`: a smaller run of the same shape, for CI.
    pub smoke: bool,
    /// `--seed N`: the seed of every simulation.
    pub seed: u64,
    /// `--out PATH`: where the document goes.
    pub out: String,
}

impl Args {
    /// Parses the process arguments against `usage` (e.g.
    /// `"bench_rounds [--smoke] [--seed N] [--out PATH]"`): a flag the
    /// usage does not name is refused like an unknown one, with the usage
    /// and exit code 2. `seed` and `out` are the defaults.
    pub fn parse(usage: &str, seed: u64, out: &str) -> Args {
        Args::parse_from(usage, seed, out, std::env::args().skip(1)).unwrap_or_else(|e| {
            eprintln!("{e}\nusage: {usage}");
            std::process::exit(2)
        })
    }

    fn parse_from(
        usage: &str,
        seed: u64,
        out: &str,
        mut argv: impl Iterator<Item = String>,
    ) -> Result<Args, String> {
        let mut args = Args {
            smoke: false,
            seed,
            out: out.to_string(),
        };
        while let Some(arg) = argv.next() {
            let named = usage
                .split_whitespace()
                .any(|word| word.trim_matches(['[', ']']) == arg);
            match arg.as_str() {
                "--smoke" if named => args.smoke = true,
                "--seed" if named => {
                    args.seed = argv
                        .next()
                        .and_then(|s| s.parse().ok())
                        .ok_or("--seed needs an integer")?;
                }
                "--out" if named => args.out = argv.next().ok_or("--out needs a path")?,
                _ => return Err(format!("unknown argument: {arg}")),
            }
        }
        Ok(args)
    }
}

/// The one way a `bench_*` binary ends: writes `doc` to `path` (a run
/// that only prints passes `None`), prints it, names every failure on
/// stderr and exits 1 if there is any.
pub fn finish(path: Option<&str>, doc: &Json, failures: &[String]) {
    let text = format!("{doc}\n");
    if let Some(path) = path {
        std::fs::write(path, &text).unwrap_or_else(|e| panic!("write {path}: {e}"));
        eprintln!("wrote {path}");
    }
    print!("{text}");
    for failure in failures {
        eprintln!("FAIL: {failure}");
    }
    if !failures.is_empty() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting() {
        assert_eq!(mb(4_300_000.0), "4.3 MB");
    }

    #[test]
    fn args_take_only_the_flags_their_usage_names() {
        let parse = |usage, argv: &[&str]| {
            let argv = argv.iter().map(|a| a.to_string());
            Args::parse_from(usage, 3, "OUT.json", argv)
        };
        let full = "bench_x [--smoke] [--seed N] [--out PATH]";
        let want = |smoke, seed, out: &str| {
            Ok(Args {
                smoke,
                seed,
                out: out.into(),
            })
        };
        assert_eq!(parse(full, &[]), want(false, 3, "OUT.json"));
        assert_eq!(
            parse(full, &["--seed", "9", "--smoke", "--out", "x.json"]),
            want(true, 9, "x.json")
        );
        assert_eq!(
            parse("bench_x [--smoke]", &["--smoke"]),
            want(true, 3, "OUT.json")
        );
        for argv in [&["--seed", "nine"][..], &["--out"], &["--fast"]] {
            assert!(parse(full, argv).is_err(), "{argv:?}");
        }
        assert!(parse("bench_x [--smoke]", &["--seed", "9"]).is_err());
        assert!(parse("bench_x", &["--smoke"]).is_err());
    }
}
