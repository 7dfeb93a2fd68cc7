//! Fault-injection matrices for the multi-process query round.
//!
//! ```text
//! chaos_round chaos [round args] --out DIR --seeds 1,2,3,...
//! chaos_round drill [round args] --out DIR
//! chaos_round netchaos [round args] --out DIR --seeds 1,2,3,...
//! chaos_round netdrill [round args] --out DIR
//! ```
//!
//! `chaos` runs one chaos round per seed — each with a seed-derived
//! kill schedule that murders aggregator incarnations at randomized
//! protocol steps (and `SIGKILL`s other roles) — and writes the
//! aggregate `CHAOS_report.json` artifact. The process exits nonzero if
//! any run violates the invariant (a hang or a wrong answer; typed
//! failures are acceptable, silent divergence never is).
//!
//! `drill` runs the fixed three-phase acceptance drill: the aggregator
//! dies once during contribution intake, once during origin summation,
//! and once during committee decryption, and the round must still
//! produce the bit-identical released histogram. With `--shards N`
//! (N > 1) the drill switches to the sharded layout: one intake shard
//! dies mid-intake and the coordinator dies mid-combine and again
//! during decryption.
//!
//! `netchaos` and `netdrill` run the *link*-fault counterparts: every
//! server fronts itself with a deterministic
//! [`ChaosProxy`](mycelium_net::netchaos::ChaosProxy) replaying a
//! seed-derived fault plan (mid-frame resets, dropped replies,
//! slow-loris stalls, latency, healing partitions), and the runner
//! writes `CHAOS_net.json`, reconciling injected fault counts against
//! the merged transport metrics on every exact run. `netchaos` runs the
//! seed matrix (`--seeds`, default 1..=8); `netdrill` runs the fixed
//! drill — partition and bit flip during intake, stall during
//! summation, reset storm during committee decryption — and must end
//! exact.
//!
//! All four are one matrix loop over one runner
//! ([`run_chaos`](mycelium_net::chaos::run_chaos), in this process, on the
//! round's one supervision loop — the ordinary driver's) and one report
//! shape (DESIGN.md "Fault injection"); the fault source only picks the
//! plan (process kills, or none with `spec.net` set) and the report file.
//! Wall-clock durations go to stderr, never into the artifacts.
//!
//! Any other role word (`aggregator`, `device`, …) dispatches through
//! the shared CLI layer — the supervision loop re-execs this same binary
//! for every child process.

use std::time::{Duration, Instant};

use mycelium_net::chaos::{report_json, run_chaos, ChaosPlan, ChaosVerdict};
use mycelium_net::cli::{self, Args};
use mycelium_net::netchaos::NetProfile;
use mycelium_net::round::files;

/// Which fault source a matrix injects.
#[derive(Clone, Copy, PartialEq)]
enum Source {
    /// Scheduled process kills (`CHAOS_report.json`).
    Kills,
    /// Proxied link faults (`CHAOS_net.json`).
    Links,
}

/// Runs one round per seed under `source`'s seed-derived plan — or, for
/// a `drill`, one round under its fixed plan, which must end exact
/// rather than merely typed — and writes the source's report artifact.
fn run_matrix(args: &Args, source: Source, drill: bool) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    std::fs::create_dir_all(&args.out).map_err(|e| e.to_string())?;
    let mut base = args.spec.clone();
    // Stall faults hold a connection just past the per-request I/O
    // deadline, so the deployment-default 20 s deadline would cost each
    // stall ~21 s of wall clock. Tighten it unless the caller already
    // chose one — the deadline is a timing knob, outside the binding
    // digest, so this never perturbs the protocol state.
    if source == Source::Links && base.io_timeout == mycelium_net::RoundSpec::default().io_timeout {
        base.io_timeout = Duration::from_secs(3);
    }
    let seeds: Vec<u64> = if drill {
        vec![args.spec.seed]
    } else if args.seeds.is_empty() {
        (1..=8).collect()
    } else {
        args.seeds.clone()
    };
    let mut outcomes = Vec::new();
    for &seed in &seeds {
        let mut spec = base.clone();
        let started = Instant::now();
        let (plan, dir) = match source {
            Source::Kills => {
                spec.seed = seed;
                let plan = match (drill, spec.agg_shards > 1) {
                    (false, _) => ChaosPlan::derive(seed, &spec),
                    (true, sharded) => ChaosPlan {
                        seed,
                        ..if sharded {
                            ChaosPlan::drill_sharded()
                        } else {
                            ChaosPlan::drill()
                        }
                    },
                };
                eprintln!(
                    "chaos_round: seed {seed}: {} aggregator kill(s), {} role kill(s), {} shard \
                     kill(s)",
                    plan.agg_kills.len(),
                    plan.role_kills.len(),
                    plan.shard_kills.len()
                );
                (plan, format!("seed-{seed}"))
            }
            Source::Links => {
                let (profile, dir) = if drill {
                    (NetProfile::Drill, "net-drill".to_string())
                } else {
                    (NetProfile::Seeded(seed), format!("net-seed-{seed}"))
                };
                spec.net = Some(profile);
                eprintln!(
                    "chaos_round: {dir} ({} shard(s)): {:?}",
                    spec.agg_shards, profile
                );
                let plan = ChaosPlan {
                    seed,
                    ..ChaosPlan::default()
                };
                (plan, dir)
            }
        };
        let outcome =
            run_chaos(&exe, &spec, &args.out.join(dir), &plan, drill).map_err(|e| e.to_string())?;
        eprintln!(
            "chaos_round: seed {seed}: verdict {} after {} aggregator incarnation(s) in {} ms, \
             reconciled {}",
            outcome.verdict,
            outcome.agg_incarnations,
            started.elapsed().as_millis(),
            outcome.reconciled
        );
        outcomes.push(outcome);
    }
    let report = report_json(&outcomes);
    let report_path = args.out.join(match source {
        Source::Kills => files::CHAOS_JSON,
        Source::Links => files::CHAOS_NET_JSON,
    });
    std::fs::write(&report_path, &report).map_err(|e| e.to_string())?;
    println!("{report}");
    let bad: Vec<String> = outcomes
        .iter()
        .filter(|o| !o.ok() || (drill && o.verdict != ChaosVerdict::Exact))
        .map(|o| format!("seed {}: {} ({})", o.seed, o.verdict, o.reconciled))
        .collect();
    if bad.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "chaos invariant violated ({}); see {}",
            bad.join(", "),
            report_path.display()
        ))
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    let role = argv.get(1).cloned().unwrap_or_default();
    let result = cli::parse_args(&argv[2..]).and_then(|args| match role.as_str() {
        "chaos" => run_matrix(&args, Source::Kills, false),
        "drill" => run_matrix(&args, Source::Kills, true),
        "netchaos" => run_matrix(&args, Source::Links, false),
        "netdrill" => run_matrix(&args, Source::Links, true),
        other => cli::dispatch(other, &args).unwrap_or_else(|| {
            Err(format!(
                "usage: chaos_round <chaos|drill|netchaos|netdrill|aggregator|device|origin|\
                 committee> [args] (got {role:?})"
            ))
        }),
    });
    if let Err(e) = result {
        eprintln!("chaos_round {role}: {e}");
        std::process::exit(1);
    }
}
