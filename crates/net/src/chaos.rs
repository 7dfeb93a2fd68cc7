//! The fault-injection plane of the transport: kill schedules, the
//! runner, the verdict and the report.
//!
//! Runs the full multi-process loopback round under two fault sources
//! — scheduled process kills (a [`ChaosPlan`], this module) and link
//! faults (a [`NetFaultPlan`] replayed by the
//! [`ChaosProxy`](crate::netchaos::ChaosProxy) in front of every
//! server) — and checks the paper's robustness invariant: every run
//! must end in the bit-identical released histogram with a valid
//! certificate, or a typed failure. Never a hang, never a silently
//! wrong answer. Both sources run through one [`run_chaos`] and report
//! through one [`ChaosOutcome`].
//!
//! Three kill mechanisms cover the interesting crash points:
//!
//! * `--die-after KIND:N` — the aggregator aborts right after the `N`th
//!   handled message of a kind, i.e. after the mutation is journaled
//!   and fsync'd but before the client sees the reply (the classic
//!   "acknowledged write, lost ack" window).
//! * `--die-mid-journal N` — the aggregator aborts halfway through the
//!   `write(2)` of its `N`th journal record, leaving a torn tail the
//!   next incarnation must truncate away.
//! * plain `SIGKILL` of device / origin / committee processes at
//!   scheduled wall-clock offsets.
//!
//! This module only plans and judges: the round is launched, supervised
//! and relaunched by [`crate::round`]'s one supervision loop — the one
//! the ordinary driver runs — which takes the plan as plain data.

use std::path::Path;
use std::time::Duration;

use mycelium::exec::NoisyGroup;
use mycelium::params::SystemParams;
use mycelium::roles::Member;
use mycelium_math::json::Json;
use mycelium_math::rng::{Rng, SeedableRng, StdRng};
use mycelium_query::eval::{evaluate, PlainResult};
use mycelium_sharing::threshold::derive_joint_noise;

use crate::error::NetError;
use crate::netchaos::{reconcile, FaultLedger, NetFaultPlan, NetProfile};
use crate::round::{
    build_setup, client_names, decode_outcome, files, supervise, End, KillSchedule, RoundSetup,
    RoundSpec,
};

// ---------------------------------------------------------------------------
// Kill schedules
// ---------------------------------------------------------------------------

/// One scheduled aggregator death (armed via CLI flags on a single
/// incarnation; the next incarnation gets the next kill in the plan).
#[derive(Debug, Clone)]
pub enum AggKill {
    /// Abort after the `count`th handled message of `kind`
    /// (post-journal-commit, pre-reply).
    After {
        /// Message kind (`PushContrib`, `SubmitOrigin`,
        /// `CommitteeCheckIn`, `PushShare`).
        kind: String,
        /// Which occurrence triggers the abort (1-based).
        count: u32,
    },
    /// Abort halfway through writing the `count`th journal record,
    /// leaving a torn tail.
    MidJournal {
        /// Which journal append triggers the abort (1-based).
        count: u32,
    },
}

impl AggKill {
    fn to_args(&self) -> Vec<String> {
        match self {
            AggKill::After { kind, count } => {
                vec!["--die-after".into(), format!("{kind}:{count}")]
            }
            AggKill::MidJournal { count } => {
                vec!["--die-mid-journal".into(), count.to_string()]
            }
        }
    }
}

impl std::fmt::Display for AggKill {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AggKill::After { kind, count } => write!(f, "abort after {count} {kind}"),
            AggKill::MidJournal { count } => write!(f, "abort mid-write of journal record {count}"),
        }
    }
}

/// One scheduled `SIGKILL` of a non-aggregator role.
#[derive(Debug, Clone)]
pub struct RoleKill {
    /// Child name (`device-3`, `origin-0`, `committee-2`).
    pub name: String,
    /// Wall-clock offset from round start.
    pub at: Duration,
}

/// A full kill schedule for one chaos run (the default kills nothing).
#[derive(Debug, Clone, Default)]
pub struct ChaosPlan {
    /// The seed the schedule was derived from (reported, for replay).
    pub seed: u64,
    /// Aggregator (hub or coordinator) deaths, one armed per
    /// incarnation in order.
    pub agg_kills: Vec<AggKill>,
    /// Role `SIGKILL`s at wall-clock offsets.
    pub role_kills: Vec<RoleKill>,
    /// Aggregation-shard deaths (`(shard, kill)`), armed per shard in
    /// listed order, one per incarnation. Sharded layout only.
    pub shard_kills: Vec<(usize, AggKill)>,
}

impl ChaosPlan {
    /// The fixed three-phase drill from the acceptance criteria: the
    /// aggregator dies once in each protocol phase — contribution
    /// intake, origin summation, and committee decryption — and every
    /// death must still converge to the bit-identical histogram.
    pub fn drill() -> Self {
        ChaosPlan {
            seed: 0,
            agg_kills: vec![
                AggKill::After {
                    kind: "PushContrib".into(),
                    count: 4,
                },
                AggKill::After {
                    kind: "SubmitOrigin".into(),
                    count: 3,
                },
                AggKill::After {
                    kind: "PushShare".into(),
                    count: 2,
                },
            ],
            role_kills: Vec::new(),
            shard_kills: Vec::new(),
        }
    }

    /// The sharded-layout drill from the acceptance criteria: one
    /// intake shard dies mid-intake (journal replay of its WAL
    /// partition), and the coordinator dies twice — right after a shard
    /// root lands (the mid-combine window: the root is journaled, the
    /// combine may have fired, the shard never saw the ack) and again
    /// during committee decryption. The round must still end `exact`.
    pub fn drill_sharded() -> Self {
        ChaosPlan {
            seed: 0,
            agg_kills: vec![
                AggKill::After {
                    kind: "ShardRoot".into(),
                    count: 1,
                },
                AggKill::After {
                    kind: "PushShare".into(),
                    count: 2,
                },
            ],
            role_kills: Vec::new(),
            shard_kills: vec![(
                0,
                AggKill::After {
                    kind: "PushContrib".into(),
                    count: 2,
                },
            )],
        }
    }

    /// Derives a randomized (but seed-deterministic) kill schedule:
    /// one to three aggregator deaths — by message count or mid-journal
    /// write — plus up to two role `SIGKILL`s.
    pub fn derive(seed: u64, spec: &RoundSpec) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xC4A0_55ED);
        // The hub handles intake; a coordinator only ever sees shard
        // roots and committee traffic, so its kill kinds differ (a kill
        // armed on a kind that never arrives simply never fires).
        let kinds: &[&str] = if spec.agg_shards > 1 {
            &["ShardRoot", "CommitteeCheckIn", "PushShare"]
        } else {
            &[
                "PushContrib",
                "SubmitOrigin",
                "CommitteeCheckIn",
                "PushShare",
            ]
        };
        let n_agg = rng.gen_range(1..=3u64);
        let mut agg_kills = Vec::new();
        for _ in 0..n_agg {
            if rng.gen_bool(0.25) {
                agg_kills.push(AggKill::MidJournal {
                    count: rng.gen_range(1..=16u64) as u32,
                });
            } else {
                let kind = kinds[rng.gen_range(0..kinds.len() as u64) as usize];
                agg_kills.push(AggKill::After {
                    kind: kind.into(),
                    count: rng.gen_range(1..=5u64) as u32,
                });
            }
        }
        let names = client_names(spec, SystemParams::simulation().committee_size);
        let mut role_kills = Vec::new();
        for _ in 0..rng.gen_range(0..=2u64) {
            role_kills.push(RoleKill {
                name: names[rng.gen_range(0..names.len() as u64) as usize].clone(),
                at: Duration::from_millis(rng.gen_range(200..=2000u64)),
            });
        }
        // Intake-shard kills (sharded layout only; the extra rng draws
        // happen after everything else, so single-hub schedules are
        // unchanged for any given seed).
        let mut shard_kills = Vec::new();
        if spec.agg_shards > 1 {
            let intake = ["PushContrib", "SubmitOrigin"];
            for _ in 0..rng.gen_range(1..=2u64) {
                let s = rng.gen_range(0..spec.agg_shards as u64) as usize;
                if rng.gen_bool(0.25) {
                    shard_kills.push((
                        s,
                        AggKill::MidJournal {
                            count: rng.gen_range(1..=8u64) as u32,
                        },
                    ));
                } else {
                    let kind = intake[rng.gen_range(0..intake.len() as u64) as usize];
                    shard_kills.push((
                        s,
                        AggKill::After {
                            kind: kind.into(),
                            count: rng.gen_range(1..=4u64) as u32,
                        },
                    ));
                }
            }
        }
        ChaosPlan {
            seed,
            agg_kills,
            role_kills,
            shard_kills,
        }
    }

    /// The plan as the supervision loop takes it: each journaled server's
    /// deaths as the arguments its successive incarnations launch with,
    /// each role kill as a `SIGKILL` offset of its child.
    fn kill_schedule(&self) -> KillSchedule {
        let mut schedule = KillSchedule::new();
        let mut arm = |name: String, kill: &AggKill| {
            let armed = &mut schedule.entry(name).or_default().armed;
            armed.push((kill.to_args(), kill.to_string()));
        };
        self.agg_kills
            .iter()
            .for_each(|kill| arm("aggregator".into(), kill));
        for (s, kill) in &self.shard_kills {
            arm(format!("shard-{s}"), kill);
        }
        for kill in &self.role_kills {
            let planned = schedule.entry(kill.name.clone()).or_default();
            planned.sigkill_at.push(kill.at);
        }
        schedule
    }
}

// ---------------------------------------------------------------------------
// Outcome
// ---------------------------------------------------------------------------

/// How one chaos run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosVerdict {
    /// The released histogram was bit-identical to the reference.
    Exact,
    /// The round ended with a typed failure (an `Err` outcome or an
    /// aggregator that died with a typed error every incarnation).
    TypedFailure,
    /// INVARIANT VIOLATION: the round produced a different histogram.
    WrongAnswer,
    /// INVARIANT VIOLATION: the round neither finished nor failed
    /// within the round timeout.
    Hang,
    /// INVARIANT VIOLATION: the histogram was right but the round's
    /// certificate is missing or fails offline verification — crash
    /// recovery is not allowed to cost the round its proof object.
    BadCertificate,
}

impl ChaosVerdict {
    /// Whether this verdict satisfies the chaos invariant.
    pub fn ok(self) -> bool {
        matches!(self, ChaosVerdict::Exact | ChaosVerdict::TypedFailure)
    }

    fn as_str(self) -> &'static str {
        match self {
            ChaosVerdict::Exact => "exact",
            ChaosVerdict::TypedFailure => "typed_failure",
            ChaosVerdict::WrongAnswer => "wrong_answer",
            ChaosVerdict::Hang => "hang",
            ChaosVerdict::BadCertificate => "bad_certificate",
        }
    }
}

impl std::fmt::Display for ChaosVerdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One run's report entry — the same shape in `CHAOS_report.json`
/// (process kills) and `CHAOS_net.json` (link faults). Deliberately
/// holds no wall-clock fields: rerunning a link-fault seed must produce
/// a byte-identical entry.
#[derive(Debug, Clone)]
pub struct ChaosOutcome {
    /// The schedule seed (the round seed, for a drill).
    pub seed: u64,
    /// Whether the plan was a fixed drill rather than seed-derived
    /// (rendered as `"plan": "drill" | "seeded"`).
    pub drill: bool,
    /// Aggregation-plane shard count of the run.
    pub shards: usize,
    /// How the run ended.
    pub verdict: ChaosVerdict,
    /// How many aggregator incarnations the run took (1 = never died).
    pub agg_incarnations: u32,
    /// Human-readable log of every kill and respawn that fired.
    pub kills: Vec<String>,
    /// The link faults the run's plan scheduled, by kind.
    pub injected: FaultLedger,
    /// `"ok"`, `"skipped"` (non-exact verdict, or kills in play), or a
    /// `"mismatch: …"` listing.
    pub reconciled: String,
}

impl ChaosOutcome {
    /// Whether the run kept the plane's invariant: exact or typed, and
    /// reconciled where reconciliation ran.
    pub fn ok(&self) -> bool {
        self.verdict.ok() && !self.reconciled.starts_with("mismatch")
    }

    /// One run as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("seed", self.seed.into()),
            ("plan", if self.drill { "drill" } else { "seeded" }.into()),
            ("shards", self.shards.into()),
            ("verdict", self.verdict.as_str().into()),
            ("agg_incarnations", self.agg_incarnations.into()),
            ("kills", self.kills.iter().cloned().collect()),
            ("injected", self.injected.to_json()),
            ("reconciled", self.reconciled.as_str().into()),
        ])
    }
}

/// Renders a full matrix report (the `CHAOS_report.json` and
/// `CHAOS_net.json` artifacts).
pub fn report_json(outcomes: &[ChaosOutcome]) -> String {
    let violations = outcomes.iter().filter(|o| !o.ok()).count();
    let report = Json::obj([
        ("runs", outcomes.iter().map(ChaosOutcome::to_json).collect()),
        ("invariant_violations", violations.into()),
    ]);
    format!("{report}\n")
}

// ---------------------------------------------------------------------------
// The chaos round
// ---------------------------------------------------------------------------

/// The fault-free reference: exact histogram from the plaintext
/// evaluator, released histogram from the deterministic joint noise
/// (committee seeds are a pure function of the round seed, so the
/// *noised* release is reproducible too — decryption is exact and
/// contributes no randomness).
fn reference_result(setup: &RoundSetup) -> (PlainResult, Vec<NoisyGroup>) {
    let exact = evaluate(
        &setup.query,
        &setup.plan.analysis,
        &setup.params.schema,
        &setup.pop,
    );
    let seeds: Vec<[u8; 32]> = (1..=setup.committee_size as u64)
        .map(|m| Member::new(setup.spec.seed, m).noise_seed())
        .collect();
    let b = setup.plan.analysis.sensitivity / setup.params.epsilon;
    let noise = derive_joint_noise(&seeds, b, setup.plan.released_values());
    let released = mycelium::exec::release_noisy(&exact, &noise, setup.plan.released_len);
    (exact, released)
}

/// Judges the end state a finished run left in `out_dir` against the
/// fault-free reference.
fn judge_outcome(out_dir: &Path, setup: &RoundSetup) -> ChaosVerdict {
    let Ok(bytes) = std::fs::read(out_dir.join(files::OUTCOME)) else {
        return ChaosVerdict::Hang;
    };
    let Ok(outcome) = decode_outcome(&bytes) else {
        return ChaosVerdict::WrongAnswer;
    };
    let Ok(outcome) = outcome else {
        return ChaosVerdict::TypedFailure;
    };
    let (want_exact, want_released) = reference_result(setup);
    // Bit-identical: each group's label and histogram, in order.
    let exact = outcome
        .exact
        .groups
        .iter()
        .map(|g| (&g.label, &g.histogram));
    let released = outcome.released.iter().map(|g| (&g.label, &g.histogram));
    let want_exact = want_exact.groups.iter().map(|g| (&g.label, &g.histogram));
    let want_released = want_released.iter().map(|g| (&g.label, &g.histogram));
    if !exact.eq(want_exact) || !released.eq(want_released) {
        return ChaosVerdict::WrongAnswer;
    }
    // A successful round must also carry its proof: the certificate
    // artifact exists and verifies offline, however many incarnations
    // the aggregator burned through.
    let Ok(text) = std::fs::read_to_string(out_dir.join(files::CERT_JSON)) else {
        return ChaosVerdict::BadCertificate;
    };
    let Some(cert) = mycelium_cert::extract_cert_hex(&text) else {
        return ChaosVerdict::BadCertificate;
    };
    if !mycelium_cert::verify_bytes(&cert).is_valid() {
        return ChaosVerdict::BadCertificate;
    }
    ChaosVerdict::Exact
}

/// Runs one chaos round through the round's one supervision loop: the
/// full multi-process round under `plan`'s kill schedule (the empty plan
/// for a link-fault run) and `spec.net`'s link faults (`None` for a kill
/// run). Every victim is relaunched by the one respawn rule — a server
/// recovers by journal replay, the other roles by re-pulling and
/// idempotent re-pushing — and the end state is judged against the
/// fault-free reference; an exact run without kills then reconciles its
/// fired link faults against the transport counters.
pub fn run_chaos(
    exe: &Path,
    spec: &RoundSpec,
    out_dir: &Path,
    plan: &ChaosPlan,
    drill: bool,
) -> Result<ChaosOutcome, NetError> {
    // A chaos run is always a fresh round: stale journal or address
    // files from a previous run would be replayed as protocol state.
    let _ = std::fs::remove_dir_all(out_dir);
    std::fs::create_dir_all(out_dir)?;
    let setup = build_setup(spec)?;
    let schedule = plan.kill_schedule();
    let run = supervise(exe, &setup, out_dir, &schedule)?;
    let verdict = match run.end {
        End::Timeout => ChaosVerdict::Hang,
        End::GaveUp => ChaosVerdict::TypedFailure,
        End::Over => judge_outcome(out_dir, &setup),
    };
    // What every server's proxy replays: the empty plan without a profile.
    let links = NetFaultPlan::derive(&spec.net.unwrap_or(NetProfile::Seeded(0)), &setup);
    // Kills cost retries of their own, so the link-fault identities only
    // hold on runs without them.
    let reconciled = if verdict == ChaosVerdict::Exact && schedule.is_empty() {
        reconcile(out_dir, spec, &links)
    } else {
        "skipped".into()
    };
    Ok(ChaosOutcome {
        seed: plan.seed,
        drill,
        shards: spec.agg_shards,
        verdict,
        agg_incarnations: run.agg_incarnations,
        kills: run.log,
        injected: links.injected(),
        reconciled,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_journaled_servers_are_armed_with_kills() {
        let schedule = ChaosPlan::drill_sharded().kill_schedule();
        assert_eq!(schedule["aggregator"].armed.len(), 2);
        assert_eq!(schedule["shard-0"].armed.len(), 1);
        assert!(!schedule.contains_key("shard-1"));
        assert!(!schedule.contains_key("device-0"));
        // A role kill is a `SIGKILL` offset, never launch arguments.
        let at = Duration::from_millis(700);
        let name = "device-3".to_string();
        let plan = ChaosPlan {
            role_kills: vec![RoleKill { name, at }],
            ..ChaosPlan::default()
        };
        let schedule = plan.kill_schedule();
        assert!(schedule["device-3"].armed.is_empty());
        assert_eq!(schedule["device-3"].sigkill_at, [at]);
    }

    #[test]
    fn report_is_deterministic_and_flags_mismatches() {
        let outcome = ChaosOutcome {
            seed: 3,
            drill: false,
            shards: 1,
            verdict: ChaosVerdict::Exact,
            agg_incarnations: 1,
            kills: Vec::new(),
            injected: FaultLedger {
                resets: 2,
                reply_drops: 1,
                ..FaultLedger::default()
            },
            reconciled: "ok".into(),
        };
        let a = report_json(std::slice::from_ref(&outcome));
        let b = report_json(std::slice::from_ref(&outcome));
        assert_eq!(a, b);
        assert!(a.contains("\"invariant_violations\": 0"));
        let bad = ChaosOutcome {
            reconciled: "mismatch: retries 3 != 2".into(),
            ..outcome
        };
        assert!(report_json(&[bad]).contains("\"invariant_violations\": 1"));
    }

    #[test]
    fn report_text_is_pinned() {
        let clean = ChaosOutcome {
            seed: 3,
            drill: false,
            shards: 1,
            verdict: ChaosVerdict::Exact,
            agg_incarnations: 1,
            kills: Vec::new(),
            injected: FaultLedger {
                resets: 2,
                reply_drops: 1,
                ..FaultLedger::default()
            },
            reconciled: "ok".into(),
        };
        let killed = ChaosOutcome {
            seed: 9,
            drill: true,
            shards: 4,
            verdict: ChaosVerdict::TypedFailure,
            agg_incarnations: 3,
            kills: vec![
                "aggregator: died \"after PushContrib:3\"".into(),
                "device-1: SIGKILL at 700 ms".into(),
            ],
            injected: FaultLedger::default(),
            reconciled: "mismatch: \"retries\" 3 != 2".into(),
        };
        assert_eq!(
            report_json(&[clean, killed]),
            r#"{
  "runs": [
    {
      "seed": 3,
      "plan": "seeded",
      "shards": 1,
      "verdict": "exact",
      "agg_incarnations": 1,
      "kills": [],
      "injected": {"flips": 0, "latency_injections": 0, "partition_rejects": 0, "reply_drops": 1, "resets": 2, "stall_replies": 0, "stall_requests": 0},
      "reconciled": "ok"
    },
    {
      "seed": 9,
      "plan": "drill",
      "shards": 4,
      "verdict": "typed_failure",
      "agg_incarnations": 3,
      "kills": ["aggregator: died \"after PushContrib:3\"", "device-1: SIGKILL at 700 ms"],
      "injected": {"flips": 0, "latency_injections": 0, "partition_rejects": 0, "reply_drops": 0, "resets": 0, "stall_replies": 0, "stall_requests": 0},
      "reconciled": "mismatch: \"retries\" 3 != 2"
    }
  ],
  "invariant_violations": 1
}
"#
        );
    }
}
