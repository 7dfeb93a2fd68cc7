//! Shared CLI parsing and role dispatch for the round binaries.
//!
//! `net_round` and `chaos_round` re-exec themselves for each role, so
//! both need the same flag set and the same role → function dispatch;
//! this module is that single source of truth.
//!
//! Round flags (shared by every role so each process derives identical
//! state): `--seed N --n N --query NAME --devices D --origins O
//! --shards S --proofs 0|1 --contrib-ms MS --timeout-ms MS --io-ms MS`.
//!
//! Net-chaos flags: `--net-seed N` (deterministic link-fault plan
//! derived from N; 0 is the empty plan) or `--net-drill` (the fixed
//! three-phase drill). Every server then fronts itself with a
//! [`crate::netchaos::ChaosProxy`].
//!
//! Budget-session flags: `--round N` (the round's index in its
//! session), `--budget-dataset NAME --budget-capacity EPS
//! --budget-delta D --budget-advanced 0|1` (the session ledger), and
//! `--budget-wal PATH` (the shared session WAL; defaults to
//! `budget.wal` under `--out`).
//!
//! Role flags: `--out DIR --shard I --member M --addr HOST:PORT`.
//!
//! Fault-injection flags: `--crash-after K --crash-origin J` (origin
//! self-crash, driver watchdog respawn), `--die-after KIND:N` and
//! `--die-mid-journal N` (aggregator/shard chaos kills), `--seeds a,b,c`
//! (chaos seed matrix).

use std::net::SocketAddr;
use std::path::PathBuf;
use std::time::Duration;

use crate::round::{
    run_aggregator, run_committee, run_device, run_driver, run_origin, run_shard, AggFaults,
    BudgetCfg, DriverOpts, RoundSpec,
};

/// Everything the round binaries parse from the command line.
pub struct Args {
    /// The shared round spec.
    pub spec: RoundSpec,
    /// Output directory for artifacts.
    pub out: PathBuf,
    /// Device/origin/aggregation shard index.
    pub shard: usize,
    /// Committee member id (1-based).
    pub member: u64,
    /// Aggregator address (roles); the `agg.addr` file takes precedence
    /// when present.
    pub addr: Option<SocketAddr>,
    /// Origin self-crash after K submissions (exit 17).
    pub crash_after: Option<usize>,
    /// Which origin shard the driver arms with `--crash-after`.
    pub crash_origin: Option<usize>,
    /// Aggregator: abort after the Nth handled message of a kind.
    pub die_after: Option<(String, u32)>,
    /// Aggregator: abort mid-write of the Nth journal record.
    pub die_mid_journal: Option<u32>,
    /// Chaos seed matrix.
    pub seeds: Vec<u64>,
}

/// Parses every flag after the role word.
pub fn parse_args(rest: &[String]) -> Result<Args, String> {
    let mut args = Args {
        spec: RoundSpec::default(),
        out: PathBuf::from("target/net_round"),
        shard: 0,
        member: 1,
        addr: None,
        crash_after: None,
        crash_origin: None,
        die_after: None,
        die_mid_journal: None,
        seeds: Vec::new(),
    };
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--seed" => args.spec.seed = parse(value("--seed")?)?,
            "--n" => args.spec.n = parse(value("--n")?)?,
            "--query" => args.spec.query = value("--query")?.clone(),
            "--devices" => args.spec.device_shards = parse(value("--devices")?)?,
            "--origins" => args.spec.origin_shards = parse(value("--origins")?)?,
            "--shards" => args.spec.agg_shards = parse(value("--shards")?)?,
            "--proofs" => args.spec.with_proofs = value("--proofs")? == "1",
            "--contrib-ms" => {
                args.spec.contrib_deadline = Duration::from_millis(parse(value("--contrib-ms")?)?)
            }
            "--timeout-ms" => {
                args.spec.round_timeout = Duration::from_millis(parse(value("--timeout-ms")?)?)
            }
            "--io-ms" => args.spec.io_timeout = Duration::from_millis(parse(value("--io-ms")?)?),
            "--net-seed" => {
                args.spec.net = Some(crate::netchaos::NetProfile::Seeded(parse(value(
                    "--net-seed",
                )?)?))
            }
            "--net-drill" => args.spec.net = Some(crate::netchaos::NetProfile::Drill),
            "--round" => args.spec.round = parse(value("--round")?)?,
            "--budget-dataset" => {
                budget(&mut args.spec).dataset = value("--budget-dataset")?.clone()
            }
            "--budget-capacity" => {
                budget(&mut args.spec).capacity = parse(value("--budget-capacity")?)?
            }
            "--budget-delta" => budget(&mut args.spec).delta = parse(value("--budget-delta")?)?,
            "--budget-advanced" => {
                budget(&mut args.spec).advanced = value("--budget-advanced")? == "1"
            }
            "--budget-wal" => args.spec.budget_wal = Some(PathBuf::from(value("--budget-wal")?)),
            "--out" => args.out = PathBuf::from(value("--out")?),
            "--shard" => args.shard = parse(value("--shard")?)?,
            "--member" => args.member = parse(value("--member")?)?,
            "--addr" => {
                args.addr = Some(
                    value("--addr")?
                        .parse()
                        .map_err(|e| format!("bad --addr: {e}"))?,
                )
            }
            "--crash-after" => args.crash_after = Some(parse(value("--crash-after")?)?),
            "--crash-origin" => args.crash_origin = Some(parse(value("--crash-origin")?)?),
            "--die-after" => {
                let v = value("--die-after")?;
                let (kind, count) = v
                    .split_once(':')
                    .ok_or_else(|| format!("--die-after wants KIND:N, got {v:?}"))?;
                args.die_after = Some((kind.to_string(), parse(count)?));
            }
            "--die-mid-journal" => args.die_mid_journal = Some(parse(value("--die-mid-journal")?)?),
            "--seeds" => {
                args.seeds = value("--seeds")?
                    .split(',')
                    .map(parse)
                    .collect::<Result<_, _>>()?;
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

/// The `--budget-*` flags arrive piecemeal; the first one materializes
/// a default configuration for the rest to fill in.
fn budget(spec: &mut RoundSpec) -> &mut BudgetCfg {
    spec.budget.get_or_insert_with(|| BudgetCfg {
        dataset: "dataset".into(),
        capacity: 1.0,
        delta: 0.0,
        advanced: false,
    })
}

fn parse<T: std::str::FromStr>(s: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    s.parse().map_err(|e| format!("bad value {s:?}: {e}"))
}

fn addr_of(args: &Args) -> Result<SocketAddr, String> {
    args.addr.ok_or_else(|| "--addr is required".into())
}

/// Runs one of the standard roles. Returns `None` for an unknown
/// role word so the calling binary can layer its own modes on top.
pub fn dispatch(role: &str, args: &Args) -> Option<Result<(), String>> {
    let result = match role {
        "driver" => {
            let exe = match std::env::current_exe() {
                Ok(exe) => exe,
                Err(e) => return Some(Err(e.to_string())),
            };
            let opts = DriverOpts {
                crash_origin: args.crash_origin.zip(args.crash_after.or(Some(0))),
            };
            run_driver(&exe, &args.spec, &args.out, &opts)
        }
        "aggregator" => {
            let faults = AggFaults {
                die_after: args.die_after.clone(),
                die_mid_journal: args.die_mid_journal,
            };
            run_aggregator(&args.spec, &args.out, &faults)
        }
        "shard" => {
            let faults = AggFaults {
                die_after: args.die_after.clone(),
                die_mid_journal: args.die_mid_journal,
            };
            match addr_of(args) {
                Ok(addr) => run_shard(&args.spec, args.shard, addr, &args.out, &faults),
                Err(e) => return Some(Err(e)),
            }
        }
        "device" => match addr_of(args) {
            Ok(addr) => run_device(&args.spec, args.shard, addr, &args.out),
            Err(e) => return Some(Err(e)),
        },
        "origin" => match addr_of(args) {
            Ok(addr) => run_origin(&args.spec, args.shard, addr, &args.out, args.crash_after),
            Err(e) => return Some(Err(e)),
        },
        "committee" => match addr_of(args) {
            Ok(addr) => run_committee(&args.spec, args.member, addr, &args.out),
            Err(e) => return Some(Err(e)),
        },
        _ => return None,
    };
    Some(result.map_err(|e| e.to_string()))
}
