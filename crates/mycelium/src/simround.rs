//! The encrypted query round as a message-passing protocol over simnet.
//!
//! [`run_query_encrypted`](crate::exec::run_query_encrypted) executes the
//! round as direct function calls; this module executes the *same* round
//! (same building blocks, from [`crate::plan`]) as actors exchanging
//! messages over a faulty network:
//!
//! * **Device actors** (ids `0..n`) play both protocol roles: as
//!   *neighbors* they encrypt their `x^e` contributions and send them —
//!   with well-formedness proofs — to the aggregator, retrying with
//!   bounded exponential backoff until acked; as *origins* they collect
//!   their neighbors' verified ciphertexts, combine them (§4.4–§4.5),
//!   and submit. A contribution that never arrives by the origin's
//!   deadline defaults to the neutral `Enc(x^0)` (§4.4), so device
//!   drop-outs degrade the answer instead of wedging the round.
//! * **The aggregation actor** (id `n`; sharded, also one per intake
//!   shard) drives the aggregation core ([`crate::aggcore`]): each
//!   contribution's proof is verified — `Enc(x^0)` substituted for
//!   offenders (§4.7), which is how Byzantine payload substitution injected
//!   through the simnet [`FaultPlan`] is caught — verified ciphertexts are
//!   forwarded to origins, submissions summed through the verifiable
//!   summation tree, and the committee driven: ping → pick `t+1` live
//!   members → collect decryption shares, reselecting once if a chosen
//!   member crashes mid-phase. The actor itself only adds messaging,
//!   retries, which deadline timer fired, and phase metrics.
//! * **Committee actors** (ids `n+1..=n+c`) answer pings with their
//!   liveness (and joint-noise seed) and compute decryption shares
//!   against the participant set the aggregator announces — Lagrange
//!   coefficients depend on exactly who participates, so the set is
//!   agreed before any share is computed.
//!
//! The round tolerates up to `c − (t+1)` committee crashes; beyond that
//! the aggregator reports the typed [`SimRoundError::CommitteeUnavailable`]
//! instead of producing a wrong answer. Everything is reproducible from
//! the config seed: same seed ⇒ bit-identical result *and* metrics, at
//! any `MYC_THREADS` setting.

use std::cell::RefCell;
use std::rc::Rc;

use mycelium_bgv::{Ciphertext, KeySet};
use mycelium_cert::OriginCommit;
use mycelium_dp::PrivacyBudget;
use mycelium_graph::generate::Population;
use mycelium_graph::graph::VertexId;
use mycelium_math::rng::{SeedableRng, StdRng};
use mycelium_query::ast::Query;
use mycelium_query::eval::PlainResult;
use mycelium_sharing::committee::elect;
use mycelium_sharing::threshold::{DecryptionShare, KeyShareSet};
use mycelium_simnet::{
    ActorId, Ctx, FaultPlan, LinkModel, Payload, Process, Retrier, RoundMetrics, Simulation, Tick,
};

use crate::aggcore::{CommitteeTail, CoreError, Intake, Mark, Round, RoundCtx, Timeout};
use crate::committee::CommitteeError;
use crate::exec::{ExecError, MaliciousBehavior, NoisyGroup};
use crate::params::SystemParams;
use crate::plan::{OriginWork, QueryPlan, SignedContribution};
use crate::roles::{self, Duty, Member};
use crate::streams;
use crate::summation::{shard_of, PartialRoot};

/// Timer-key layout (per actor, so ranges only need to be disjoint within
/// one actor): retrier message ids live below `1 << 40`; control keys
/// above `1 << 50`.
const SUBMIT_MSG_ID: u64 = 1 << 40;
const PING_BASE: u64 = 1 << 40;
const SHARE_BASE: u64 = 1 << 41;
const CERT_BASE: u64 = 1 << 42;
const ORIGIN_DEADLINE_KEY: u64 = 1 << 50;
const SUBMIT_DEADLINE_KEY: u64 = 1 << 50;
const PING_DEADLINE_KEY: u64 = (1 << 50) + 1;
const CERT_DEADLINE_KEY: u64 = (1 << 50) + 2;
const SHARE_DEADLINE_BASE: u64 = (1 << 50) + 0x100;

/// Simulated-round configuration.
#[derive(Debug, Clone)]
pub struct SimNetConfig {
    /// Seed for the whole simulation (network, actors, setup).
    pub seed: u64,
    /// Fault schedule.
    pub fault: FaultPlan,
    /// Link latency model.
    pub latency: LinkModel,
    /// Retrier base timeout (ticks).
    pub base_timeout: Tick,
    /// Retrier retransmission budget per message.
    pub max_retries: u32,
    /// Per-phase deadline (ticks): origins give up waiting for missing
    /// contributions, the aggregator gives up waiting for submissions,
    /// pongs, and shares.
    pub deadline: Tick,
    /// Virtual-time budget for the whole round.
    pub max_ticks: Tick,
    /// Aggregation shards. `1` is the classic single-hub topology; `N > 1`
    /// splits intake across `N` shard actors (devices hash-routed by
    /// [`shard_of`]) that each seal a partial summation-tree root and ship
    /// it to the coordinator.
    pub agg_shards: usize,
}

impl Default for SimNetConfig {
    fn default() -> Self {
        Self {
            seed: 0,
            fault: FaultPlan::none(),
            latency: LinkModel::default(),
            base_timeout: 64,
            max_retries: 8,
            deadline: 100_000,
            max_ticks: 10_000_000,
            agg_shards: 1,
        }
    }
}

/// Typed failures of the simulated round.
#[derive(Debug, Clone, PartialEq)]
pub enum SimRoundError {
    /// Planning or cryptographic failure (shared with the direct path).
    Exec(ExecError),
    /// Too few committee members alive to reach the decryption threshold.
    CommitteeUnavailable {
        /// Members that answered pings (or shares) in time.
        alive: usize,
        /// `t + 1`, the number of participants needed.
        need: usize,
    },
    /// The protocol did not complete within the virtual-time budget.
    NotConverged {
        /// Virtual time when the run was cut off.
        elapsed: Tick,
    },
}

impl std::fmt::Display for SimRoundError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimRoundError::Exec(e) => write!(f, "{e}"),
            SimRoundError::CommitteeUnavailable { alive, need } => {
                write!(f, "committee unavailable: {alive} alive, {need} needed")
            }
            SimRoundError::NotConverged { elapsed } => {
                write!(f, "round did not converge within {elapsed} ticks")
            }
        }
    }
}

impl std::error::Error for SimRoundError {}

impl From<ExecError> for SimRoundError {
    fn from(e: ExecError) -> Self {
        SimRoundError::Exec(e)
    }
}

/// The outcome of a simulated round, mirroring
/// [`EncryptedOutcome`](crate::exec::EncryptedOutcome) plus the network
/// measurements.
#[derive(Debug)]
pub struct SimRoundOutcome {
    /// Decoded exact (pre-noise) result — compare against the oracle.
    pub exact: PlainResult,
    /// The released, noised result.
    pub released: Vec<NoisyGroup>,
    /// Devices whose contributions the aggregator rejected.
    pub rejected_devices: Vec<VertexId>,
    /// Elected committee member device indices.
    pub members: Vec<u64>,
    /// Everything the network measured.
    pub metrics: RoundMetrics,
    /// Virtual time the round took.
    pub elapsed: Tick,
    /// Encoded [`RoundCertificate`] for the round, present when at least
    /// `t + 1` committee members signed the transcript in time.
    pub certificate: Option<Vec<u8>>,
}

/// Wire messages of the round.
#[derive(Clone)]
pub enum RoundMsg {
    /// Device → aggregator: a neighbor contribution for `origin`'s
    /// `slot`, with its well-formedness proof.
    Contrib {
        /// Sender-scoped retrier id.
        msg_id: u64,
        /// The origin this contribution belongs to.
        origin: VertexId,
        /// Slot in the origin's work list.
        slot: u32,
        /// The signed contribution.
        sc: SignedContribution,
    },
    /// Aggregator → device: contribution received.
    ContribAck {
        /// Echoed retrier id.
        msg_id: u64,
    },
    /// Aggregator → origin: a verified (or substituted) contribution.
    OriginDeliver {
        /// Aggregator-scoped retrier id.
        msg_id: u64,
        /// Slot in the origin's work list.
        slot: u32,
        /// The verified ciphertext.
        ct: Ciphertext,
    },
    /// Origin → aggregator: delivery received.
    OriginAck {
        /// Echoed retrier id.
        msg_id: u64,
    },
    /// Origin → aggregator: the combined origin ciphertext.
    Submission {
        /// Sender-scoped retrier id.
        msg_id: u64,
        /// The submitting origin.
        origin: VertexId,
        /// Its combined ciphertext.
        ct: Ciphertext,
    },
    /// Aggregator → origin: submission received.
    SubmissionAck {
        /// Echoed retrier id.
        msg_id: u64,
    },
    /// Aggregator → committee member: liveness probe.
    Ping {
        /// Aggregator-scoped retrier id.
        msg_id: u64,
    },
    /// Committee member → aggregator: alive, with joint-noise seed.
    Pong {
        /// Echoed retrier id.
        msg_id: u64,
        /// 1-based Shamir member index.
        member: u64,
        /// This member's joint-noise seed contribution.
        seed: [u8; 32],
    },
    /// Aggregator → committee member: compute a decryption share against
    /// this participant set.
    ShareRequest {
        /// Aggregator-scoped retrier id.
        msg_id: u64,
        /// Selection round (bumped on reselection).
        round: u32,
        /// The agreed participant set (Lagrange depends on it).
        participants: Vec<u64>,
        /// The aggregate to decrypt.
        ct: Ciphertext,
    },
    /// Committee member → aggregator: the decryption share.
    Share {
        /// Echoed retrier id.
        msg_id: u64,
        /// Echoed selection round.
        round: u32,
        /// 1-based Shamir member index.
        member: u64,
        /// The share.
        share: DecryptionShare,
    },
    /// Shard → coordinator: the shard's sealed partial summation-tree
    /// root over its owned origins, plus the devices it rejected.
    ShardRootMsg {
        /// Sender-scoped retrier id.
        msg_id: u64,
        /// The sending shard's index.
        shard: u32,
        /// Devices whose contributions failed proof verification.
        rejected: Vec<VertexId>,
        /// The shard tree's root commitment (grafted into the
        /// coordinator's top tree, so the published global root
        /// transitively commits every origin ciphertext).
        commitment: [u8; 32],
        /// How many origins the shard summed.
        leaves: u32,
        /// Frozen per-origin certificate commitments for the shard's
        /// owned origins (leaf plus accepted/rejected slot counts).
        commits: Vec<OriginCommit>,
        /// The shard's homomorphic partial aggregate.
        ct: Ciphertext,
    },
    /// Coordinator → shard: root received.
    ShardRootAck {
        /// Echoed retrier id.
        msg_id: u64,
    },
    /// Aggregator → committee member: sign the round-certificate
    /// transcript.
    CertSignReq {
        /// Aggregator-scoped retrier id.
        msg_id: u64,
        /// The certificate transcript digest to sign.
        transcript: [u8; 32],
    },
    /// Committee member → aggregator: Ed25519 signature over the
    /// transcript.
    CertSig {
        /// Echoed retrier id.
        msg_id: u64,
        /// 1-based Shamir member index.
        member: u64,
        /// The signature.
        sig: [u8; 64],
    },
}

/// Declared wire size of a ciphertext: its RNS representation, each
/// residue at the width of its prime — what the net codec writes.
pub fn ct_wire_bytes(ct: &Ciphertext) -> usize {
    ct.parts().iter().map(|p| p.packed_bytes()).sum()
}

impl Payload for RoundMsg {
    fn wire_bytes(&self) -> usize {
        const HDR: usize = 16;
        match self {
            RoundMsg::Contrib { sc, .. } => {
                // Proof size: root + per-opening (index, value, salt, path).
                let proof = sc.proof.as_ref().map_or(0, |p| 32 + p.openings.len() * 96);
                HDR + ct_wire_bytes(&sc.ct) + proof
            }
            RoundMsg::OriginDeliver { ct, .. } | RoundMsg::Submission { ct, .. } => {
                HDR + ct_wire_bytes(ct)
            }
            RoundMsg::ShareRequest {
                participants, ct, ..
            } => HDR + participants.len() * 8 + ct_wire_bytes(ct),
            // One RNS polynomial, metered as a ciphertext part is.
            RoundMsg::Share { share, .. } => HDR + 32 + share.d.packed_bytes(),
            RoundMsg::ShardRootMsg {
                rejected,
                commits,
                ct,
                ..
            } => {
                // origin + leaf + accepted + rejected per commit.
                HDR + 4 + rejected.len() * 4 + 32 + 4 + 4 + commits.len() * 44 + ct_wire_bytes(ct)
            }
            RoundMsg::Pong { .. } => HDR + 40,
            RoundMsg::CertSignReq { .. } => HDR + 32,
            RoundMsg::CertSig { .. } => HDR + 72,
            RoundMsg::ContribAck { .. }
            | RoundMsg::OriginAck { .. }
            | RoundMsg::SubmissionAck { .. }
            | RoundMsg::ShardRootAck { .. }
            | RoundMsg::Ping { .. } => HDR,
        }
    }
}

struct DeviceActor {
    vertex: VertexId,
    /// The round spec seed [`roles`] derives this vertex's streams from.
    spec_seed: u64,
    agg: ActorId,
    agg_shards: usize,
    shard_base: ActorId,
    plan: Rc<QueryPlan>,
    keys: Rc<KeySet>,
    duties: Vec<Duty>,
    work: OriginWork,
    cheating: bool,
    dropped_out: bool,
    deadline: Tick,
    received: Vec<Option<Ciphertext>>,
    combined: bool,
    retrier: Retrier<RoundMsg>,
}

impl DeviceActor {
    /// Where traffic concerning origin `o` goes: the hub in the classic
    /// topology, the owning shard actor in the sharded one.
    fn intake_actor(&self, origin: VertexId) -> ActorId {
        if self.agg_shards > 1 {
            self.shard_base + shard_of(origin, self.agg_shards)
        } else {
            self.agg
        }
    }

    fn combine_and_submit(&mut self, ctx: &mut Ctx<RoundMsg>) {
        if self.combined {
            return;
        }
        self.combined = true;
        let slots = std::mem::take(&mut self.received);
        let out = roles::submission(&self.plan, &self.keys, self.spec_seed, &self.work, slots)
            .expect("origin combine");
        ctx.phase_done("contrib");
        let msg = RoundMsg::Submission {
            msg_id: SUBMIT_MSG_ID,
            origin: self.vertex,
            ct: out,
        };
        let dst = self.intake_actor(self.vertex);
        self.retrier.send(ctx, SUBMIT_MSG_ID, dst, msg);
    }
}

impl Process<RoundMsg> for DeviceActor {
    fn on_start(&mut self, ctx: &mut Ctx<RoundMsg>) {
        ctx.set_timer(self.deadline, ORIGIN_DEADLINE_KEY);
        if !self.dropped_out {
            let (seed, v, duties) = (self.spec_seed, self.vertex, &self.duties);
            let built =
                roles::contributions(&self.plan, &self.keys, seed, v, duties, self.cheating);
            for (msg_id, (duty, sc)) in (0u64..).zip(duties.iter().zip(built)) {
                let msg = RoundMsg::Contrib {
                    msg_id,
                    origin: duty.origin,
                    slot: duty.slot,
                    sc: sc.expect("contribution encryption"),
                };
                let dst = self.intake_actor(duty.origin);
                self.retrier.send(ctx, msg_id, dst, msg);
            }
        }
        if self.work.requests.is_empty() {
            self.combine_and_submit(ctx);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<RoundMsg>, from: ActorId, msg: RoundMsg) {
        match msg {
            RoundMsg::ContribAck { msg_id } | RoundMsg::SubmissionAck { msg_id } => {
                self.retrier.ack(msg_id);
            }
            RoundMsg::OriginDeliver { msg_id, slot, ct } => {
                ctx.send(from, RoundMsg::OriginAck { msg_id });
                let slot = slot as usize;
                if !self.combined && self.received[slot].is_none() {
                    self.received[slot] = Some(ct);
                    if self.received.iter().all(Option::is_some) {
                        self.combine_and_submit(ctx);
                    }
                }
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<RoundMsg>, key: u64) {
        if key == ORIGIN_DEADLINE_KEY {
            self.combine_and_submit(ctx);
            return;
        }
        // Exhausted retries: the receiving side's deadline substitution
        // takes over, so there is nothing left to do here.
        let _ = self.retrier.on_timer(ctx, key);
    }
}

/// The round inputs every aggregation actor hands the core.
struct AggShared {
    plan: Rc<QueryPlan>,
    keys: Rc<KeySet>,
    query: Query,
    params: SystemParams,
    seed: u64,
}

impl AggShared {
    fn ctx(&self) -> RoundCtx<'_> {
        let (params, seed) = (&self.params, self.seed);
        roles::round_ctx(
            &self.plan,
            &self.keys,
            &self.query,
            params,
            seed,
            params.epsilon,
        )
    }
}

/// A core failure as the round's typed error; `None` for a malformed
/// message, which is dropped rather than failing the round.
fn sim_error(e: CoreError) -> Option<SimRoundError> {
    Some(match e {
        CoreError::CommitteeUnavailable { alive, need } => {
            SimRoundError::CommitteeUnavailable { alive, need }
        }
        CoreError::Bgv(e) => ExecError::from(e).into(),
        CoreError::Exec(_, e) => e.into(),
        CoreError::Threshold(e) => ExecError::Committee(CommitteeError::Threshold(e)).into(),
        CoreError::Invalid(_) => return None,
    })
}

/// A simulated aggregation-plane process's round; the shard roots travel
/// with their tree commitment.
type SimRound = Round<PartialRoot>;

/// An aggregation-plane process: the hub or, in the sharded topology, the
/// coordinator or an intake shard — whichever its [`Round`] is composed as.
/// Protocol state, the transitions and when each is due live in
/// [`crate::aggcore`]; this actor adds the messaging pattern (push with
/// retries), says which virtual-time deadline fired, and the phase metrics.
struct AggregatorActor {
    shared: Rc<AggShared>,
    n_devices: usize,
    deadline: Tick,
    retrier: Retrier<RoundMsg>,
    /// A shard's index (it ships its sealed root to the coordinator, the
    /// actor right after the devices).
    shard: Option<u32>,
    /// Shared with [`run_query_simulated`], which reads the result off it.
    round: Rc<RefCell<SimRound>>,
    next_fwd_id: u64,
}

impl AggregatorActor {
    /// Delay and timer key of `timeout` (the share wait is keyed by the
    /// selection round it belongs to).
    fn timer(&self, timeout: Timeout, share_round: u32) -> (Tick, u64) {
        match timeout {
            // Origins substitute at `deadline`, then combine and submit;
            // give the submissions one more deadline on top.
            Timeout::Intake => (self.deadline * 2, SUBMIT_DEADLINE_KEY),
            Timeout::CheckIn => (self.deadline, PING_DEADLINE_KEY),
            Timeout::Shares => (self.deadline, SHARE_DEADLINE_BASE + share_round as u64),
            Timeout::Cert => (self.deadline, CERT_DEADLINE_KEY),
        }
    }

    fn arm(&self, ctx: &mut Ctx<RoundMsg>, round: &SimRound, timeout: Timeout) {
        let (delay, key) = self.timer(timeout, round.tail.share_round);
        ctx.set_timer(delay, key);
    }

    /// Sends `msg(id)` to each of the `members` committee members under
    /// retrier id `base + m`.
    fn broadcast(
        &mut self,
        ctx: &mut Ctx<RoundMsg>,
        members: usize,
        base: u64,
        msg: impl Fn(u64) -> RoundMsg,
    ) {
        for m in 1..=members as u64 {
            let dst = self.n_devices + m as usize;
            self.retrier.send(ctx, base + m, dst, msg(base + m));
        }
    }

    /// While the core says a transition is due — `fired` being the deadline
    /// timer that just went off, if one did — applies it, then reacts; the
    /// reactions are only messaging.
    fn step(&mut self, ctx: &mut Ctx<RoundMsg>, round: &mut SimRound, fired: Option<u64>) {
        loop {
            let expired = |t| fired == Some(self.timer(t, round.tail.share_round).1);
            let Some(mark) = round.due(expired) else {
                return;
            };
            round.apply(&mark, &self.shared.ctx(), ctx.rng());
            if round.failed.is_some() {
                return ctx.halt();
            }
            match mark {
                Mark::Aggregate => self.ship_or_ping(ctx, round),
                Mark::Select | Mark::Reselect => self.request_shares(ctx, round),
                Mark::Seal => {
                    ctx.phase_done("certify");
                    ctx.halt();
                }
                Mark::Commit | Mark::Fail(_) => {}
            }
        }
    }

    /// After the aggregate: a shard ships its sealed root — with the frozen
    /// commitments and reject set — to the coordinator; the hub and the
    /// coordinator open the committee phase by probing liveness (the
    /// participant set must be agreed before shares are computed).
    fn ship_or_ping(&mut self, ctx: &mut Ctx<RoundMsg>, round: &SimRound) {
        let Some(shard) = self.shard else {
            ctx.phase_done("aggregate");
            let members = round.tail.pongs.len();
            self.broadcast(ctx, members, PING_BASE, |msg_id| RoundMsg::Ping { msg_id });
            return self.arm(ctx, round, Timeout::CheckIn);
        };
        ctx.phase_done("seal");
        let (plane, root) = (&round.intake.plane, round.aggregate.as_ref());
        let (commitment, leaves) = round.tree.expect("a shard seals its own tree");
        let msg = RoundMsg::ShardRootMsg {
            msg_id: SUBMIT_MSG_ID,
            shard,
            rejected: plane.certified().to_vec(),
            commitment,
            leaves: leaves as u32,
            commits: plane.commits.iter().flatten().cloned().collect(),
            ct: root.expect("just sealed").ct().clone(),
        };
        self.retrier.send(ctx, SUBMIT_MSG_ID, self.n_devices, msg);
    }

    /// After a (re)selection: asks every participant for its share.
    fn request_shares(&mut self, ctx: &mut Ctx<RoundMsg>, round: &SimRound) {
        let (tail, aggregate) = (&round.tail, round.aggregate.as_ref());
        let aggregate = aggregate.expect("selection follows the aggregate");
        for &m in &tail.participants {
            let msg_id = SHARE_BASE + ((tail.share_round as u64) << 20) + m;
            let request = RoundMsg::ShareRequest {
                msg_id,
                round: tail.share_round,
                participants: tail.participants.clone(),
                ct: aggregate.ct().clone(),
            };
            self.retrier
                .send(ctx, msg_id, self.n_devices + m as usize, request);
        }
        self.arm(ctx, round, Timeout::Shares);
    }

    /// The deciding share landed: collects committee signatures over the
    /// certificate transcript (the halt waits for the seal), or — failed, or
    /// nothing to sign — ends the round here.
    fn after_decision(&mut self, ctx: &mut Ctx<RoundMsg>, round: &SimRound) {
        if round.failed.is_some() {
            return ctx.halt();
        }
        ctx.phase_done("committee");
        let Some(cert) = &round.tail.cert else {
            ctx.phase_done("certify");
            return ctx.halt();
        };
        let (members, transcript) = (round.tail.pongs.len(), cert.transcript);
        self.broadcast(ctx, members, CERT_BASE, |msg_id| RoundMsg::CertSignReq {
            msg_id,
            transcript,
        });
        self.arm(ctx, round, Timeout::Cert);
    }
}

impl Process<RoundMsg> for AggregatorActor {
    fn on_start(&mut self, ctx: &mut Ctx<RoundMsg>) {
        let cell = Rc::clone(&self.round);
        let round = &mut *cell.borrow_mut();
        self.arm(ctx, round, Timeout::Intake);
        self.step(ctx, round, None);
    }

    fn on_message(&mut self, ctx: &mut Ctx<RoundMsg>, from: ActorId, msg: RoundMsg) {
        let cell = Rc::clone(&self.round);
        let round = &mut *cell.borrow_mut();
        let shared = self.shared.ctx();
        // Every delivery is acked; a request the process's composition does
        // not serve is the core's typed error and dropped.
        match msg {
            RoundMsg::Contrib {
                msg_id,
                origin,
                slot,
                sc,
            } => {
                ctx.send(from, RoundMsg::ContribAck { msg_id });
                let intake = &mut round.intake;
                let verified = intake.accept_contribution(origin, slot, sc, &shared, ctx.rng());
                // Push the verified (or substituted) contribution to its
                // origin until acked.
                if let Ok(Some(parked)) = verified {
                    let msg_id = self.next_fwd_id;
                    self.next_fwd_id += 1;
                    let ct = parked.into_ct();
                    let deliver = RoundMsg::OriginDeliver { msg_id, slot, ct };
                    self.retrier.send(ctx, msg_id, origin as ActorId, deliver);
                }
            }
            RoundMsg::Submission { msg_id, origin, ct } => {
                ctx.send(from, RoundMsg::SubmissionAck { msg_id });
                if let Ok(true) = round.intake.accept_submission(origin, ct) {
                    ctx.phase_done("submit");
                }
            }
            RoundMsg::OriginAck { msg_id } | RoundMsg::ShardRootAck { msg_id } => {
                self.retrier.ack(msg_id);
            }
            RoundMsg::ShardRootMsg {
                msg_id,
                shard,
                rejected,
                commitment,
                leaves,
                commits,
                ct,
            } => {
                ctx.send(from, RoundMsg::ShardRootAck { msg_id });
                let root = PartialRoot {
                    sum: ct,
                    commitment,
                    leaf_count: leaves as usize,
                };
                if let Some(roots) = &mut round.roots {
                    let intake = &mut round.intake;
                    let _ = intake.accept_root(roots, shard, root, rejected, commits);
                }
            }
            RoundMsg::Pong {
                msg_id,
                member,
                seed,
            } => {
                self.retrier.ack(msg_id);
                // Once selection ran, a pong is a stale probe reply.
                if round.outcome().is_none() && round.tail.share_round == 0 {
                    let _ = round.tail.check_in(member, seed);
                }
            }
            RoundMsg::Share {
                msg_id,
                round: share_round,
                member,
                share,
            } => {
                self.retrier.ack(msg_id);
                if let Ok(true) = round.accept_share(member, share_round, share, &shared) {
                    self.after_decision(ctx, round);
                }
            }
            RoundMsg::CertSig {
                msg_id,
                member,
                sig,
            } => {
                self.retrier.ack(msg_id);
                let _ = round.tail.accept_sig(member, sig, self.shared.seed);
            }
            _ => {}
        }
        self.step(ctx, round, None);
    }

    fn on_restart(&mut self, ctx: &mut Ctx<RoundMsg>) {
        // Crash-durable restart (the simnet model of the journaled
        // aggregator): state survived intact, but every armed timer and
        // in-flight send died with the process. Re-send everything
        // unacknowledged and re-arm the deadline of the phase the
        // journal replay landed us in.
        let cell = Rc::clone(&self.round);
        let round = &*cell.borrow();
        if round.is_over() {
            return;
        }
        self.retrier.resend_all(ctx);
        let waits_on = if round.outcome().is_some() {
            Timeout::Cert
        } else if round.aggregate.is_none() {
            Timeout::Intake
        } else if self.shard.is_some() {
            return;
        } else if round.tail.share_round == 0 {
            Timeout::CheckIn
        } else {
            Timeout::Shares
        };
        self.arm(ctx, round, waits_on);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<RoundMsg>, key: u64) {
        let cell = Rc::clone(&self.round);
        let round = &mut *cell.borrow_mut();
        if key >= SUBMIT_DEADLINE_KEY {
            // A control key: a deadline of the round fired.
            return self.step(ctx, round, Some(key));
        }
        // Only certificate-sign retries stay live after the result is
        // decided; everything else died with the round. (Exhausted retries:
        // the receiving side's deadline takes over.)
        if round.outcome().is_none() || round.signing() {
            let _ = self.retrier.on_timer(ctx, key);
        }
    }
}

struct CommitteeActor {
    member: u64,
    me: Member,
    key_shares: Rc<KeyShareSet>,
}

impl Process<RoundMsg> for CommitteeActor {
    fn on_message(&mut self, ctx: &mut Ctx<RoundMsg>, from: ActorId, msg: RoundMsg) {
        let (member, me) = (self.member, &mut self.me);
        let reply = match msg {
            RoundMsg::Ping { msg_id } => {
                let seed = me.noise_seed();
                RoundMsg::Pong {
                    msg_id,
                    member,
                    seed,
                }
            }
            RoundMsg::ShareRequest {
                msg_id,
                round,
                participants,
                ct,
            } if participants.contains(&member) => {
                let share = me
                    .share(&self.key_shares, round, &participants, &ct)
                    .expect("share computation on relinearized aggregate");
                RoundMsg::Share {
                    msg_id,
                    round,
                    member,
                    share,
                }
            }
            RoundMsg::CertSignReq { msg_id, transcript } => {
                let sig = me.sign(&transcript);
                RoundMsg::CertSig {
                    msg_id,
                    member,
                    sig,
                }
            }
            _ => return,
        };
        ctx.send(from, reply);
    }
}

/// Runs the encrypted query round as a message-passing protocol over the
/// simnet, under the given fault plan. The cryptographic pipeline is the
/// same as [`run_query_encrypted`](crate::exec::run_query_encrypted) —
/// with a healthy network (or one whose losses the retries recover) the
/// exact (pre-noise) result is identical to the direct path's.
///
/// `MaliciousBehavior` maps onto the network: a `DropOut` device sends no
/// contributions (origins substitute `Enc(x^0)` at their deadline); an
/// `OversizedContribution` device submits forged-proof contributions that
/// the aggregator rejects. Listing device actors in
/// `cfg.fault.byzantine` substitutes their `Contrib` payloads in flight
/// with an oversized (forged-proof) contribution — the Byzantine payload
/// arrives as a real message and is caught by the same proof check.
#[allow(clippy::too_many_arguments)]
pub fn run_query_simulated(
    query: &Query,
    pop: &Population,
    params: &SystemParams,
    keys: &KeySet,
    behaviors: &[MaliciousBehavior],
    with_proofs: bool,
    budget: &mut PrivacyBudget,
    cfg: &SimNetConfig,
) -> Result<SimRoundOutcome, SimRoundError> {
    let plan = QueryPlan::new(query, pop, params, with_proofs)?;
    // The committee will not release anything the budget cannot cover;
    // charge up front, exactly like the direct path (§4.4).
    budget
        .charge(params.epsilon)
        .map_err(|e| ExecError::Committee(CommitteeError::Budget(e)))?;
    let n = pop.graph.len();
    let c = params.committee_size;
    let t = c / 2;
    let members = elect(params.devices.max(n as u64), c, b"query-beacon");
    let mut setup_rng = StdRng::seed_from_u64(cfg.seed).with_stream(streams::DEAL);
    let key_shares = Rc::new(KeyShareSet::deal(&keys.secret, t, c, &mut setup_rng));
    let keys = Rc::new(keys.clone());

    let works = roles::works(&plan, query, params, pop);
    let mut duties = roles::duties(&works);
    let slot_map = roles::slot_map(&works);
    let plan = Rc::new(plan);
    let shared = Rc::new(AggShared {
        plan: Rc::clone(&plan),
        keys: Rc::clone(&keys),
        query: query.clone(),
        params: params.clone(),
        seed: cfg.seed,
    });

    let mut sim: Simulation<RoundMsg> = Simulation::new(cfg.seed)
        .with_latency(cfg.latency)
        .with_fault_plan(cfg.fault.clone());
    if !cfg.fault.byzantine.is_empty() {
        // In-flight Byzantine substitution: the payload is replaced by an
        // oversized contribution whose witness violates the one-hot
        // circuit, so proof verification at the aggregator fails and the
        // contribution is attributed to the sending device. (Substituting
        // only the ciphertext would not do: this spot-check argument has
        // no prover secret, so binding is per-witness, not per-statement —
        // the deployed system's Groth16 + end-to-end authentication is
        // what rules that out; see DESIGN.md.)
        let evil = plan
            .build_contribution(&keys, 0, 0, true, &mut setup_rng)
            .expect("evil contribution");
        sim = sim.with_tamper(move |_src, _dst, msg: &mut RoundMsg| {
            if let RoundMsg::Contrib { sc, .. } = msg {
                sc.ct = evil.ct.clone();
                sc.proof = evil.proof.clone();
                true
            } else {
                false
            }
        });
    }
    let shards = cfg.agg_shards.max(1);
    // Actor id layout: devices `0..n`, aggregator/coordinator `n`,
    // committee `n+1..=n+c`, shard actors appended after (`n+c+1 + s`) so
    // every classic actor keeps its id — and therefore its rng stream —
    // at any shard count.
    let shard_base = n + c + 1;
    for (v, work) in works.into_iter().enumerate() {
        let slots = work.requests.len();
        sim.add_actor(Box::new(DeviceActor {
            vertex: v as VertexId,
            spec_seed: cfg.seed,
            agg: n,
            agg_shards: shards,
            shard_base,
            plan: Rc::clone(&plan),
            keys: Rc::clone(&keys),
            duties: std::mem::take(&mut duties[v]),
            work,
            cheating: MaliciousBehavior::is_cheater(behaviors, v as VertexId),
            dropped_out: MaliciousBehavior::dropped_out(behaviors, v as VertexId),
            deadline: cfg.deadline,
            received: vec![None; slots],
            combined: false,
            retrier: Retrier::new(cfg.base_timeout, cfg.max_retries),
        }));
    }
    let composed = |owns: &dyn Fn(VertexId) -> bool, roots, tail| {
        let intake = Intake::new(slot_map.clone(), owns);
        Rc::new(RefCell::new(SimRound::new(intake, roots, tail)))
    };
    let actor = |round: &Rc<RefCell<SimRound>>, shard| {
        Box::new(AggregatorActor {
            shared: Rc::clone(&shared),
            n_devices: n,
            deadline: cfg.deadline,
            retrier: Retrier::new(cfg.base_timeout, cfg.max_retries),
            shard,
            round: Rc::clone(round),
            next_fwd_id: 0,
        })
    };
    // Hub, or coordinator: no origin of its own (devices route to their
    // owning shard), the shards' roots instead.
    let roots = (shards > 1).then(|| vec![None; shards]);
    let hub = composed(&|_| shards == 1, roots, CommitteeTail::new(c, t));
    sim.add_actor(actor(&hub, None));
    for m in 1..=c as u64 {
        sim.add_actor(Box::new(CommitteeActor {
            member: m,
            me: Member::new(cfg.seed, m),
            key_shares: Rc::clone(&key_shares),
        }));
    }
    let mut rounds = vec![Rc::clone(&hub)];
    let shard_actors = if shards > 1 { shards } else { 0 };
    for s in 0..shard_actors {
        // A shard: its own origins, a committee of zero.
        let owns = |v| shard_of(v, shards) == s;
        let shard = composed(&owns, None, CommitteeTail::new(0, 0));
        sim.add_actor(actor(&shard, Some(s as u32)));
        rounds.push(shard);
    }

    let report = sim.run(cfg.max_ticks);
    let failed = |round: &Rc<RefCell<SimRound>>| round.borrow().failed.clone().and_then(sim_error);
    if let Some(err) = rounds.iter().find_map(failed) {
        return Err(err);
    }
    let mut hub = hub.borrow_mut();
    let Some((exact, released)) = hub.tail.released.take() else {
        return Err(SimRoundError::NotConverged {
            elapsed: report.elapsed,
        });
    };
    let mut rejected_devices = std::mem::take(&mut hub.intake.plane.rejected);
    rejected_devices.sort_unstable();
    Ok(SimRoundOutcome {
        exact,
        released,
        rejected_devices,
        members,
        metrics: sim.metrics.clone(),
        elapsed: report.elapsed,
        certificate: hub.tail.cert_bytes.take(),
    })
}
