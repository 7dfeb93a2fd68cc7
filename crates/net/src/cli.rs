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
//! Fault-injection flags: `--crash-after K --crash-origin J` (the driver
//! arms origin shard J to exit after K submissions and relaunches it
//! clean), `--die-after KIND:N` and `--die-mid-journal N` (an aggregator or
//! shard aborts after its `N`th handled `KIND` request or mid-write of its
//! `N`th journal record; `N` counts from 1 and `KIND` is one of
//! [`NetMsg::REQUEST_KINDS`] — a kill that could never fire is refused),
//! `--seeds a,b,c` (chaos seed matrix).

use std::net::SocketAddr;
use std::path::PathBuf;
use std::time::Duration;

use crate::proto::NetMsg;
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
    /// Aggregator / shard: the chaos kills `--die-after` and
    /// `--die-mid-journal` arm.
    pub faults: AggFaults,
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
        faults: AggFaults::default(),
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
                if !NetMsg::REQUEST_KINDS.contains(&kind) {
                    return Err(DeadKill::UnknownKind(kind.to_string()).to_string());
                }
                args.faults.die_after = Some((kind.to_string(), kill_count("--die-after", count)?));
            }
            "--die-mid-journal" => {
                let count = value("--die-mid-journal")?;
                args.faults.die_mid_journal = Some(kill_count("--die-mid-journal", count)?);
            }
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

/// A kill flag that could never fire.
#[derive(Debug)]
enum DeadKill {
    /// A count of 0 under this flag: counts are incremented before they
    /// are compared.
    Zero(&'static str),
    /// A `--die-after` kind that no server handles.
    UnknownKind(String),
}

impl std::fmt::Display for DeadKill {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeadKill::Zero(flag) => write!(f, "{flag} counts from 1: a count of 0 never fires"),
            DeadKill::UnknownKind(kind) => {
                let kinds = NetMsg::REQUEST_KINDS.join(", ");
                write!(
                    f,
                    "--die-after: no server handles {kind:?} (kinds: {kinds})"
                )
            }
        }
    }
}

/// A kill flag's count, which must be able to fire.
fn kill_count(flag: &'static str, s: &str) -> Result<u32, String> {
    match parse(s)? {
        0 => Err(DeadKill::Zero(flag).to_string()),
        n => Ok(n),
    }
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

/// Runs one of the standard roles. Returns `None` for an unknown
/// role word so the calling binary can layer its own modes on top.
pub fn dispatch(role: &str, args: &Args) -> Option<Result<(), String>> {
    match role {
        "driver" | "aggregator" | "shard" | "device" | "origin" | "committee" => {
            Some(run_role(role, args))
        }
        _ => None,
    }
}

fn run_role(role: &str, args: &Args) -> Result<(), String> {
    let (spec, out) = (&args.spec, &args.out);
    let addr = || args.addr.ok_or_else(|| "--addr is required".to_string());
    let ran = match role {
        "driver" => {
            let exe = std::env::current_exe().map_err(|e| e.to_string())?;
            let opts = DriverOpts {
                crash_origin: args.crash_origin.zip(args.crash_after.or(Some(0))),
            };
            run_driver(&exe, spec, out, &opts)
        }
        "aggregator" => run_aggregator(spec, out, &args.faults),
        "shard" => run_shard(spec, args.shard, addr()?, out, &args.faults),
        "device" => run_device(spec, args.shard, addr()?, out),
        "origin" => run_origin(spec, args.shard, addr()?, out, args.crash_after),
        "committee" => run_committee(spec, args.member, addr()?, out),
        other => unreachable!("dispatch checked the role word {other:?}"),
    };
    ran.map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parsed(flags: &[&str]) -> Result<Args, String> {
        parse_args(&flags.iter().map(|f| f.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn kill_flags_that_could_never_fire_are_refused() {
        for flags in [["--die-after", "PushContrib:0"], ["--die-mid-journal", "0"]] {
            let zero = DeadKill::Zero(flags[0]).to_string();
            assert_eq!(parsed(&flags).err(), Some(zero));
        }
        for kind in ["PushContrb", "Ack", ""] {
            let unknown = DeadKill::UnknownKind(kind.into()).to_string();
            assert!(NetMsg::REQUEST_KINDS.iter().all(|k| unknown.contains(k)));
            let flags = ["--die-after", &format!("{kind}:3")];
            assert_eq!(parsed(&flags).err(), Some(unknown));
        }
        // Every request kind, and a count from 1, arms a kill.
        for kind in NetMsg::REQUEST_KINDS {
            let args = parsed(&["--die-after", &format!("{kind}:2")]).expect("a live kill");
            assert_eq!(args.faults.die_after, Some((kind.to_string(), 2)));
        }
        let args = parsed(&["--die-mid-journal", "1"]).expect("a live kill");
        assert_eq!(args.faults.die_mid_journal, Some(1));
    }
}
