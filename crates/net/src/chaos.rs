//! The fault-injection plane of the transport: kill schedules, runners
//! and report.
//!
//! Runs the full multi-process loopback round under two fault sources
//! — scheduled process kills (a [`ChaosPlan`], this module) and link
//! faults (a [`NetFaultPlan`] replayed by the
//! [`ChaosProxy`](crate::netchaos::ChaosProxy) in front of every
//! server) — and checks the paper's robustness invariant: every run
//! must end in the bit-identical released histogram with a valid
//! certificate, or a typed failure. Never a hang, never a silently
//! wrong answer. Both sources report through one [`ChaosOutcome`].
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
//! [`Supervised`] is the *single* restart mechanism and [`RoundTree`]
//! the single launcher (both [`crate::round`]'s): the ordinary driver and
//! the chaos supervisor both spawn, name and respawn the round's children
//! through them.

use std::path::Path;
use std::time::{Duration, Instant};

use mycelium::exec::NoisyGroup;
use mycelium::params::SystemParams;
use mycelium::roles::Member;
use mycelium_math::rng::{Rng, SeedableRng, StdRng};
use mycelium_query::eval::{evaluate, PlainResult};
use mycelium_sharing::threshold::derive_joint_noise;

use crate::error::NetError;
use crate::netchaos::{reconcile, FaultLedger, NetFaultPlan, NetProfile};
use crate::proto::NetMsg;
use crate::round::{
    build_setup, client_names, decode_outcome, files, role, HubClient, RoundSetup, RoundSpec,
    RoundTree, Supervised,
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

/// A full kill schedule for one chaos run.
#[derive(Debug, Clone)]
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

    /// The deaths scheduled for child `name`, in arming order: none
    /// unless it is a journaled server (`aggregator`, `shard-N`).
    fn kills_for(&self, name: &str) -> Vec<AggKill> {
        if name == "aggregator" {
            return self.agg_kills.clone();
        }
        let shard = name.strip_prefix("shard-").and_then(|s| s.parse().ok());
        let on_shard = self.shard_kills.iter().filter(|(s, _)| Some(*s) == shard);
        on_shard.map(|(_, kill)| kill.clone()).collect()
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

    /// Renders one run as a JSON object.
    pub fn to_json(&self, indent: usize) -> String {
        let pad = " ".repeat(indent);
        let quote = |s: &String| format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""));
        let kills: Vec<String> = self.kills.iter().map(quote).collect();
        format!(
            "{pad}{{\n{pad}  \"seed\": {},\n{pad}  \"plan\": \"{}\",\n\
             {pad}  \"shards\": {},\n{pad}  \"verdict\": \"{}\",\n\
             {pad}  \"agg_incarnations\": {},\n{pad}  \"kills\": [{}],\n\
             {pad}  \"injected\": {},\n{pad}  \"reconciled\": {}\n{pad}}}",
            self.seed,
            if self.drill { "drill" } else { "seeded" },
            self.shards,
            self.verdict,
            self.agg_incarnations,
            kills.join(", "),
            self.injected.to_json(),
            quote(&self.reconciled),
        )
    }
}

/// Renders a full matrix report (the `CHAOS_report.json` and
/// `CHAOS_net.json` artifacts).
pub fn report_json(outcomes: &[ChaosOutcome]) -> String {
    let runs: Vec<String> = outcomes.iter().map(|o| o.to_json(4)).collect();
    let violations = outcomes.iter().filter(|o| !o.ok()).count();
    format!(
        "{{\n  \"runs\": [\n{}\n  ],\n  \"invariant_violations\": {}\n}}\n",
        runs.join(",\n"),
        violations
    )
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
    let exact_ok = outcome.exact.groups.len() == want_exact.groups.len()
        && outcome
            .exact
            .groups
            .iter()
            .zip(&want_exact.groups)
            .all(|(a, b)| a.label == b.label && a.histogram == b.histogram);
    let released_ok = outcome.released.len() == want_released.len()
        && outcome
            .released
            .iter()
            .zip(&want_released)
            .all(|(a, b)| a.label == b.label && a.histogram == b.histogram);
    if !(exact_ok && released_ok) {
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

/// The link-fault plan the spec's profile stands for (the empty plan
/// without one) — what every server's proxy replays.
fn link_plan(setup: &RoundSetup) -> NetFaultPlan {
    let profile = setup.spec.net.unwrap_or(NetProfile::Seeded(0));
    NetFaultPlan::derive(&profile, setup)
}

/// Runs one chaos round: executes the full multi-process round under
/// the plan's kill schedule, respawning every victim (a server recovers
/// by journal replay; other roles recover by re-pulling and idempotent
/// re-pushing), and judges the end state against the fault-free
/// reference.
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
    let started = Instant::now();
    let mut kills: Vec<String> = Vec::new();

    // Each server's incarnation i (1-based) is armed with its i-th
    // planned kill; every other crashed role is respawned clean.
    let mut tree = RoundTree::launch(exe, &setup, out_dir, |name| {
        let first_kill = plan.kills_for(name).first().map(AggKill::to_args);
        (first_kill.unwrap_or_default(), 8)
    })?;
    // How the kill log names a server's incarnations: bare for the
    // aggregator, `shard N ` for a shard.
    let log_prefix = |server: &str| match server.strip_prefix("shard-") {
        Some(shard) => format!("shard {shard} "),
        None => String::new(),
    };
    let mut armed: Vec<(Vec<AggKill>, u32)> = Vec::new();
    for server in &tree.servers {
        let planned = plan.kills_for(&server.name);
        if let Some(kill) = planned.first() {
            let who = log_prefix(&server.name);
            kills.push(format!("{who}incarnation 1 armed: {kill}"));
        }
        armed.push((planned, 1));
    }

    enum Exit {
        AggDone,
        GaveUp,
        Timeout,
    }

    let mut role_fired = vec![false; plan.role_kills.len()];
    let mut driver = HubClient::new(&setup, role::DRIVER, tree.addr, out_dir);
    let mut finished = false;
    let exit = 'round: loop {
        if started.elapsed() >= spec.round_timeout {
            break Exit::Timeout;
        }
        // Scheduled role SIGKILLs.
        for (idx, rk) in plan.role_kills.iter().enumerate() {
            if !role_fired[idx] && started.elapsed() >= rk.at {
                role_fired[idx] = true;
                if let Some(cp) = tree.clients.iter_mut().find(|c| c.name == rk.name) {
                    if cp.kill()? {
                        kills.push(format!("SIGKILL {} at {:?}", rk.name, rk.at));
                    } else {
                        kills.push(format!("{} already exited before {:?}", rk.name, rk.at));
                    }
                }
            }
        }
        // Server supervision: a dead incarnation — coordinator or shard
        // — is respawned with its next scheduled kill armed (clean once
        // its plan runs out) and recovers by replaying its own journal.
        // A shard that exits cleanly stays down: the coordinator
        // already holds its sealed root.
        for (server, (planned, incarnations)) in tree.servers.iter_mut().zip(&mut armed) {
            let Some(status) = server.try_exit()? else {
                continue;
            };
            let is_agg = server.name == "aggregator";
            if status.success() {
                if is_agg {
                    break 'round Exit::AggDone;
                }
                continue;
            }
            let who = log_prefix(&server.name);
            // An incarnation that keeps dying on recovery (a typed
            // replay failure, say) must not respawn forever: a small
            // allowance past the scheduled kills turns persistent death
            // into a typed verdict.
            if *incarnations >= planned.len() as u32 + 4 {
                kills.push(format!(
                    "giving up: {who}incarnation {incarnations} died with {status}"
                ));
                break 'round Exit::GaveUp;
            }
            let next = planned.get(*incarnations as usize);
            *incarnations += 1;
            let arming = next.map_or("clean".to_string(), |kill| format!("armed: {kill}"));
            kills.push(format!(
                "{who}incarnation {incarnations} respawned after {status}, {arming}"
            ));
            let kill_args = next.map(AggKill::to_args).unwrap_or_default();
            server.respawn_with_args(tree.cmd.of(&server.name, kill_args))?;
            if is_agg {
                server.read_banner()?;
                // `driver_seen` is liveness state, not journaled: a
                // fresh incarnation needs to observe our poll again
                // before it can exit.
                finished = false;
            }
        }
        // Every other crashed role is respawned through the same
        // mechanism the ordinary driver uses.
        for cp in tree.clients.iter_mut() {
            cp.watch()?;
        }
        // Single-attempt status poll (a live aggregator holds it for at
        // most a poll period, a dead one fails it: this loop must keep
        // supervising while the aggregator is down). Once the round
        // reports finished the poller goes quiet; the aggregator closes
        // the idle session when it exits.
        if !finished {
            if let Ok(NetMsg::Finished) = driver.poll_once(&setup, &NetMsg::PullStatus) {
                finished = true;
            }
        }
        std::thread::sleep(Duration::from_millis(30));
    };

    // Drain: give children a grace window to exit on their own, then
    // reap whatever is left so the run never leaks processes.
    let grace = Instant::now() + Duration::from_secs(15);
    let abandon = matches!(exit, Exit::Timeout | Exit::GaveUp);
    loop {
        let mut alive = false;
        for cp in tree.clients.iter_mut().chain(&mut tree.servers[1..]) {
            alive |= cp.try_exit()?.is_none();
        }
        if !alive || Instant::now() >= grace || abandon {
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    for cp in tree.clients.iter_mut().chain(tree.servers.iter_mut().rev()) {
        let _ = cp.kill();
    }

    let verdict = match exit {
        Exit::Timeout => ChaosVerdict::Hang,
        Exit::GaveUp => ChaosVerdict::TypedFailure,
        Exit::AggDone => judge_outcome(out_dir, &setup),
    };
    Ok(ChaosOutcome {
        seed: plan.seed,
        drill,
        shards: spec.agg_shards,
        verdict,
        agg_incarnations: armed[0].1,
        kills,
        injected: link_plan(&setup).injected(),
        // Kills cost retries of their own, so the link-fault identities
        // only hold on runs without them.
        reconciled: "skipped".into(),
    })
}

/// Runs one net-chaos round: spawns the ordinary driver (every server
/// self-wraps in a [`ChaosProxy`](crate::netchaos::ChaosProxy) because
/// the profile rides in the spec's CLI rendering), watchdogs it against
/// the round timeout, and judges the end state exactly as
/// [`run_chaos`] does — then reconciles fired faults against transport
/// counters on exact runs. `spec.net` must be set.
pub fn run_netchaos(
    exe: &Path,
    spec: &RoundSpec,
    out_dir: &Path,
) -> Result<ChaosOutcome, NetError> {
    let profile = spec
        .net
        .ok_or_else(|| NetError::Supervision("run_netchaos needs spec.net".into()))?;
    // Always a fresh round: stale journals or address files would be
    // replayed as protocol state.
    let _ = std::fs::remove_dir_all(out_dir);
    std::fs::create_dir_all(out_dir)?;
    let setup = build_setup(spec)?;
    let plan = link_plan(&setup);

    let mut args = vec!["driver".to_string()];
    args.extend(spec.to_args());
    args.extend(["--out".to_string(), out_dir.display().to_string()]);
    let mut driver = Supervised::spawn(exe, "net-driver", args, false)?;
    let deadline = Instant::now() + spec.round_timeout + Duration::from_secs(30);
    let status = loop {
        if let Some(status) = driver.try_exit()? {
            break Some(status);
        }
        if Instant::now() >= deadline {
            let _ = driver.kill();
            break None;
        }
        std::thread::sleep(Duration::from_millis(50));
    };
    let verdict = match status {
        None => ChaosVerdict::Hang,
        Some(status) => {
            let v = judge_outcome(out_dir, &setup);
            if v == ChaosVerdict::Hang && !status.success() {
                // The driver exited nonzero before an outcome landed:
                // a typed failure surfaced through the process tree,
                // not a hang.
                ChaosVerdict::TypedFailure
            } else {
                v
            }
        }
    };
    let reconciled = if verdict == ChaosVerdict::Exact {
        reconcile(out_dir, spec, &plan)
    } else {
        "skipped".into()
    };
    Ok(ChaosOutcome {
        seed: match profile {
            NetProfile::Seeded(seed) => seed,
            NetProfile::Drill => spec.seed,
        },
        drill: profile == NetProfile::Drill,
        shards: spec.agg_shards,
        verdict,
        agg_incarnations: 1,
        kills: Vec::new(),
        injected: plan.injected(),
        reconciled,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_journaled_servers_are_armed_with_kills() {
        let plan = ChaosPlan::drill_sharded();
        assert_eq!(plan.kills_for("aggregator").len(), 2);
        assert_eq!(plan.kills_for("shard-0").len(), 1);
        assert!(plan.kills_for("shard-1").is_empty());
        assert!(plan.kills_for("device-0").is_empty());
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
}
