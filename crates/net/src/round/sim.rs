//! The round on the deterministic simnet ([`run_query_simulated`]). The
//! aggregation plane is the [`AggState`] the processes run — without a
//! journal, on the simulation's virtual clock — and every client is the
//! role machine the processes run (`machine`), in one generic actor:
//!
//! * a vertex (ids `0..n`) is a device pushing its contributions
//!   (`PushContrib`) and an origin pulling its row (`PullReady`), combining
//!   it and submitting (`SubmitOrigin`);
//! * the hub or coordinator is actor `n`; a committee member (`n+1..=n+c`)
//!   polls `CommitteeCheckIn` and is handed share and sign tasks;
//! * an intake shard (after the committee, so every other actor keeps its id
//!   and rng stream at any shard count) pushes its sealed `ShardRoot` to the
//!   coordinator, then polls `PullShardStatus` — its uplink, the same actor.
//!
//! A request travels under an id its reply echoes, as a frame's sequence
//! number does on a socket; a [`Retrier`] sends an unanswered one again, and
//! the state's first-write-wins absorbs the duplicates. A "not yet"
//! (`OriginPending`, `CommitteeWait`) is answered at once and asked again
//! after [`PARK`] ticks — the rate a held request gives on a socket. Every
//! message is metered at the sealed frame that would carry its encoding.
//!
//! What the simulator adds to the processes is a virtual clock, actor ids
//! and no journal. A crash window keeps a plane's state (the journal's
//! model); the restart re-arms its tick and re-sends what is unanswered.
//! Everything is reproducible from the config seed: same seed ⇒
//! bit-identical result *and* metrics, at any `MYC_THREADS` setting.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use mycelium::aggcore::CoreError;
use mycelium::committee::CommitteeError;
use mycelium::exec::{ExecError, MaliciousBehavior, NoisyGroup};
use mycelium::params::SystemParams;
use mycelium::streams;
use mycelium_bgv::KeySet;
use mycelium_dp::PrivacyBudget;
use mycelium_graph::generate::Population;
use mycelium_graph::graph::VertexId;
use mycelium_math::rng::{SeedableRng, StdRng};
use mycelium_query::ast::Query;
use mycelium_query::eval::PlainResult;
use mycelium_sharing::committee::elect;
use mycelium_simnet::{
    ActorId, Ctx, FaultPlan, LinkModel, Payload, Process, Retrier, RoundMetrics, Simulation, Tick,
};

use super::agg::AggState;
use super::machine::{Device, Member, Next, Origin, Role, RoleError, To, Uplink};
use super::spec::{shard_of, RoundSetup, RoundSpec, PARK, TICK};
use crate::channel::SecureChannel;
use crate::proto::NetMsg;

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
    /// The round's contribution deadline (ticks, read as the spec's
    /// `contrib_deadline` in milliseconds): origins are handed their rows
    /// with holes after it, and every later deadline is derived from it.
    pub deadline: Tick,
    /// Virtual-time budget for the whole round.
    pub max_ticks: Tick,
    /// Aggregation shards. `1` is the classic single-hub topology; `N > 1`
    /// splits intake across `N` shard actors (devices hash-routed by
    /// [`shard_of`]) that each seal a partial root and ship it to the
    /// coordinator.
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
        /// Members that checked in (or delivered shares) in time.
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
/// [`EncryptedOutcome`](mycelium::exec::EncryptedOutcome) plus the network
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
    /// Encoded [`RoundCertificate`](mycelium_cert::RoundCertificate) for
    /// the round, present when at least `t + 1` committee members signed
    /// the transcript in time.
    pub certificate: Option<Vec<u8>>,
}

/// Timer keys beside the [`Retrier`]'s (request ids, counting up from 0).
const ASK_AGAIN: u64 = 1 << 50;
const TICK_KEY: u64 = (1 << 50) + 1;

/// `d` in virtual ticks, one per millisecond.
fn ticks(d: Duration) -> Tick {
    d.as_millis() as Tick
}

/// A request or its reply on the simulated network, under the id that
/// pairs them.
#[derive(Clone)]
struct Wire {
    id: u64,
    msg: NetMsg,
}

impl Payload for Wire {
    /// What the sealed frame carrying the message's encoding costs.
    fn wire_bytes(&self) -> usize {
        SecureChannel::wire_cost(self.msg.encode().len())
    }

    fn kind(&self) -> &'static str {
        self.msg.kind()
    }
}

/// Where the actors sit: vertices `0..n`, the hub or coordinator `n`,
/// members `n+1..=n+c`, intake shards after them.
#[derive(Clone, Copy)]
struct Layout {
    n: usize,
    c: usize,
    shards: usize,
}

impl Layout {
    fn hub(self) -> ActorId {
        self.n
    }

    /// The server `to` names: the hub, or — for origin `v`'s intake — the
    /// hub or `v`'s shard.
    fn server(self, to: To) -> ActorId {
        match (to, self.shards) {
            (To::Hub, _) | (To::Intake(_), 1) => self.hub(),
            (To::Intake(v), s) => self.n + self.c + 1 + shard_of(v, s),
        }
    }
}

/// A client of the plane: one role's machine, its requests each under a
/// fresh id, sent again by the [`Retrier`] until their replies come, and the
/// one to ask again after a "not yet".
struct Client<R> {
    role: R,
    retrier: Retrier<Wire>,
    next_id: u64,
    again: Option<(ActorId, NetMsg)>,
    layout: Layout,
}

impl<R: Role> Client<R> {
    fn new(role: R, cfg: &SimNetConfig, layout: Layout) -> Self {
        let retrier = Retrier::new(cfg.base_timeout, cfg.max_retries);
        let (next_id, again) = (0, None);
        Client {
            role,
            retrier,
            next_id,
            again,
            layout,
        }
    }

    fn send(&mut self, ctx: &mut Ctx<Wire>, dst: ActorId, msg: NetMsg) {
        let id = self.next_id;
        self.next_id += 1;
        self.retrier.send(ctx, id, dst, Wire { id, msg });
    }

    /// Sends what the role asks until it waits for a reply: a re-ask after a
    /// park period — the rate a held request gives on a socket — the rest at
    /// once.
    fn pump(&mut self, ctx: &mut Ctx<Wire>) {
        loop {
            match self.role.next().expect("a simulated client's next request") {
                Next::Ask(to, msg) => {
                    if let NetMsg::SubmitOrigin { .. } = msg {
                        ctx.phase_done("contrib");
                    }
                    self.send(ctx, self.layout.server(to), msg);
                }
                Next::Again(to, msg) => {
                    self.again = Some((self.layout.server(to), msg));
                    ctx.set_timer(ticks(PARK), ASK_AGAIN);
                }
                Next::Wait | Next::Done => return,
            }
        }
    }
}

impl<R: Role> Process<Wire> for Client<R> {
    fn on_start(&mut self, ctx: &mut Ctx<Wire>) {
        self.pump(ctx);
    }

    /// A reply to a request still unanswered goes to the role.
    fn on_message(&mut self, ctx: &mut Ctx<Wire>, _from: ActorId, wire: Wire) {
        if self.retrier.ack(wire.id) {
            let taken = self.role.reply(wire.msg);
            taken.expect("a reply of the simulated plane");
            self.pump(ctx);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<Wire>, key: u64) {
        if key != ASK_AGAIN {
            // An exhausted retry is given up: the server's deadline covers it.
            let _ = self.retrier.on_timer(ctx, key);
        } else if let Some((dst, msg)) = self.again.take() {
            self.send(ctx, dst, msg);
        }
    }

    /// After a crash window, whose timers died with it: sends every
    /// unanswered request again and re-arms the pending ask.
    fn on_restart(&mut self, ctx: &mut Ctx<Wire>) {
        self.retrier.resend_all(ctx);
        if self.again.is_some() {
            ctx.set_timer(ticks(PARK), ASK_AGAIN);
        }
    }
}

/// Vertex `v`: a device pushing its contributions, and an origin pulling its
/// row, combining and submitting it — each at the server owning the origin.
struct Vertex<'a> {
    device: Device<'a>,
    origin: Origin<'a>,
}

impl Role for Vertex<'_> {
    fn next(&mut self) -> Result<Next, RoleError> {
        match self.device.next()? {
            Next::Done => self.origin.next(),
            push => Ok(push),
        }
    }

    /// The device pushes everything as the vertex starts (nothing windows
    /// it here), so every reply is the origin's to take — a push's `Ack`
    /// included.
    fn reply(&mut self, reply: NetMsg) -> Result<(), RoleError> {
        self.origin.reply(reply)
    }

    fn over(&self) -> bool {
        self.origin.over()
    }
}

/// An aggregation-plane process — the hub, the coordinator or intake shard
/// `shard` — hosting its [`AggState`]: every request answered at once, the
/// state's time-driven transitions run every [`TICK`] and around each
/// request, and what they moved reported as phases.
struct PlaneActor {
    st: Rc<RefCell<AggState>>,
    ticks: Arc<AtomicU64>,
    /// A shard's client half towards the coordinator.
    uplink: Option<Client<Uplink>>,
    aggregated: bool,
    decided: bool,
}

impl PlaneActor {
    /// Reports what the last step moved — the aggregate (a shard then
    /// pushes its root), the decision, the end of the round — and halts the
    /// run once the hub is done or any plane failed.
    fn react(&mut self, ctx: &mut Ctx<Wire>) {
        let st = self.st.borrow();
        if !self.aggregated && st.aggregated() {
            self.aggregated = true;
            match &mut self.uplink {
                Some(uplink) => {
                    ctx.phase_done("seal");
                    let root = st.shard_root_msg().expect("a sealed shard has a root");
                    uplink.role.seal(root);
                    uplink.pump(ctx);
                }
                None => ctx.phase_done("aggregate"),
            }
        }
        if st.core_error().is_some() {
            return ctx.halt();
        }
        if self.uplink.is_some() || st.outcome().is_none() {
            return;
        }
        if !std::mem::replace(&mut self.decided, true) {
            ctx.phase_done("committee");
        }
        if st.is_over() {
            ctx.phase_done("certify");
            ctx.halt();
        }
    }
}

impl Process<Wire> for PlaneActor {
    fn on_start(&mut self, ctx: &mut Ctx<Wire>) {
        self.on_timer(ctx, TICK_KEY);
    }

    fn on_message(&mut self, ctx: &mut Ctx<Wire>, from: ActorId, wire: Wire) {
        if let Some(uplink) = self.uplink.as_mut().filter(|u| from == u.layout.hub()) {
            return uplink.on_message(ctx, from, wire);
        }
        self.ticks.store(ctx.now(), Ordering::Relaxed);
        let Wire { id, msg } = wire;
        let mut st = self.st.borrow_mut();
        let submitted = matches!(msg, NetMsg::SubmitOrigin { .. }) && st.mutates(&msg);
        // The state takes a request's ciphertext from its encoding, as it
        // does off the wire. A request the state refuses (out of range, or
        // not this plane's) goes unanswered.
        let raw = msg.encode();
        if let Ok((reply, _)) = st.handle_deferred(msg, &raw) {
            if submitted {
                ctx.phase_done("submit");
            }
            ctx.send(from, Wire { id, msg: reply });
        }
        drop(st);
        self.react(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<Wire>, key: u64) {
        if key != TICK_KEY {
            if let Some(uplink) = &mut self.uplink {
                uplink.on_timer(ctx, key);
            }
            return;
        }
        self.ticks.store(ctx.now(), Ordering::Relaxed);
        let ticked = self.st.borrow_mut().tick();
        ticked.expect("an unjournaled state has nothing to persist");
        self.react(ctx);
        ctx.set_timer(ticks(TICK), TICK_KEY);
    }

    fn on_restart(&mut self, ctx: &mut Ctx<Wire>) {
        if let Some(uplink) = &mut self.uplink {
            uplink.on_restart(ctx);
        }
        self.on_timer(ctx, TICK_KEY);
    }
}

/// A core failure as the round's typed error; `None` for the failures only
/// a process meets (a refused budget, a failed journal).
fn sim_error(e: &CoreError) -> Option<SimRoundError> {
    Some(match e.clone() {
        CoreError::CommitteeUnavailable { alive, need } => {
            SimRoundError::CommitteeUnavailable { alive, need }
        }
        CoreError::Bgv(e) => ExecError::from(e).into(),
        CoreError::Exec(_, e) => e.into(),
        CoreError::Threshold(e) => ExecError::Committee(CommitteeError::Threshold(e)).into(),
        CoreError::Invalid(_) => return None,
    })
}

/// Runs the encrypted query round as processes on the simnet, under the
/// given fault plan: the same setup, clients' computations and aggregation
/// state as the real-process round — with a healthy network (or one whose
/// losses the retries recover) the exact (pre-noise) result is identical to
/// the direct path's, and the certificate to the processes'.
///
/// `MaliciousBehavior` maps onto the network: a `DropOut` device sends no
/// contributions (its origins are handed the row with a hole and substitute
/// `Enc(x^0)`); an `OversizedContribution` device submits forged-proof
/// contributions that the aggregator rejects. Listing device actors in
/// `cfg.fault.byzantine` substitutes their `PushContrib` payloads in flight
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
    let shards = cfg.agg_shards.max(1);
    let spec = RoundSpec {
        seed: cfg.seed,
        n: pop.graph.len(),
        query: query.name.clone(),
        agg_shards: shards,
        with_proofs,
        contrib_deadline: Duration::from_millis(cfg.deadline),
        ..RoundSpec::default()
    };
    let setup = RoundSetup::from_parts(
        spec,
        params.clone(),
        pop.clone(),
        query.clone(),
        keys.clone(),
    );
    let setup = Arc::new(setup?);
    // The committee will not release anything the budget cannot cover;
    // charge up front, exactly like the direct path (§4.4).
    budget
        .charge(params.epsilon)
        .map_err(|e| ExecError::Committee(CommitteeError::Budget(e)))?;
    let (n, c) = (pop.graph.len(), setup.committee_size);
    let layout = Layout { n, c, shards };
    let members = elect(params.devices.max(n as u64), c, b"query-beacon");

    let mut sim: Simulation<Wire> = Simulation::new(cfg.seed)
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
        let mut rng = StdRng::seed_from_u64(cfg.seed).with_stream(streams::DEAL);
        let evil = setup
            .plan
            .build_contribution(&setup.keys, 0, 0, true, &mut rng);
        let evil = evil.expect("evil contribution");
        sim = sim.with_tamper(move |_src, _dst, wire: &mut Wire| {
            let NetMsg::PushContrib { sc, .. } = &mut wire.msg else {
                return false;
            };
            sc.ct = evil.ct.clone();
            sc.proof = evil.proof.clone();
            true
        });
    }
    for v in 0..n as VertexId {
        let pushing = (!MaliciousBehavior::dropped_out(behaviors, v)).then_some(v);
        let cheating = MaliciousBehavior::is_cheater(behaviors, v);
        let device = Device::new(&setup, pushing.into_iter(), cheating);
        let origin = Origin::new(&setup, vec![v]);
        let vertex = Vertex { device, origin };
        sim.add_actor(Box::new(Client::new(vertex, cfg, layout)));
    }
    let ticks = Arc::new(AtomicU64::new(0));
    let mut planes = Vec::new();
    let mut plane = |sim: &mut Simulation<Wire>, shard| {
        // The planes' clock: the simulation's virtual ticks, read as ms.
        let now = Arc::clone(&ticks);
        let clock = Box::new(move || Duration::from_millis(now.load(Ordering::Relaxed)));
        let st = AggState::with_clock(Arc::clone(&setup), shard, clock);
        let st = Rc::new(RefCell::new(st));
        planes.push(Rc::clone(&st));
        sim.add_actor(Box::new(PlaneActor {
            st,
            ticks: Arc::clone(&ticks),
            uplink: shard.map(|s| Client::new(Uplink::new(s), cfg, layout)),
            aggregated: false,
            decided: false,
        }));
    };
    plane(&mut sim, None);
    for member in 1..=c as u64 {
        let member = Member::new(&setup, member);
        sim.add_actor(Box::new(Client::new(member, cfg, layout)));
    }
    let intake_shards = if shards > 1 { shards as u32 } else { 0 };
    for s in 0..intake_shards {
        plane(&mut sim, Some(s));
    }

    let report = sim.run(cfg.max_ticks);
    let failed = |st: &Rc<RefCell<AggState>>| st.borrow().core_error().and_then(sim_error);
    if let Some(e) = planes.iter().find_map(failed) {
        return Err(e);
    }
    let mut hub = planes[0].borrow_mut();
    let Some(Ok(out)) = hub.take_outcome() else {
        return Err(SimRoundError::NotConverged {
            elapsed: report.elapsed,
        });
    };
    Ok(SimRoundOutcome {
        exact: out.exact,
        released: out.released,
        rejected_devices: out.rejected,
        members,
        metrics: sim.metrics.clone(),
        elapsed: report.elapsed,
        certificate: hub.certificate().map(<[u8]>::to_vec),
    })
}
