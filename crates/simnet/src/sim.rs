//! The discrete-event loop: virtual clock, event queue, actors.
//!
//! The simulator owns a set of actor-style processes and a binary-heap
//! event queue keyed by `(tick, sequence number)`. Actors never touch the
//! queue directly: handler methods receive a [`Ctx`] through which they
//! send messages, set timers, draw from their private RNG stream, record
//! retries/phase completions, and halt the run. Effects are buffered and
//! applied after the handler returns, so a handler always observes a
//! consistent snapshot of virtual time.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use mycelium_math::rng::{Rng, SeedableRng, StdRng};

use crate::fault::{FaultPlan, LinkModel};
use crate::metrics::RoundMetrics;

/// Index of an actor in the simulation.
pub type ActorId = usize;

/// Virtual time in abstract ticks.
pub type Tick = u64;

/// A message type the simulator can carry.
///
/// `wire_bytes` is the *declared* on-the-wire size used for bandwidth
/// metering; it lets a simulation meter paper-scale ciphertext traffic
/// without materializing multi-megabyte buffers.
pub trait Payload: Clone {
    /// Declared size of this message on the wire.
    fn wire_bytes(&self) -> usize {
        0
    }

    /// The message's kind, under which its sender's traffic is also
    /// metered ([`RoundMetrics::sent_kinds`]).
    fn kind(&self) -> &'static str {
        ""
    }
}

impl Payload for Vec<u8> {
    fn wire_bytes(&self) -> usize {
        self.len()
    }
}

/// An actor: reacts to messages and timers, produces sends and timers.
pub trait Process<M: Payload> {
    /// Called once at tick 0, before any message flows.
    fn on_start(&mut self, _ctx: &mut Ctx<M>) {}

    /// Called for every delivered message.
    fn on_message(&mut self, ctx: &mut Ctx<M>, from: ActorId, msg: M);

    /// Called when a timer this actor set fires.
    fn on_timer(&mut self, _ctx: &mut Ctx<M>, _key: u64) {}

    /// Called when a [`FaultPlan::recover_at`](crate::FaultPlan) entry
    /// revives this actor after a crash. State is intact (the model for
    /// crash-durable actors, e.g. a journaled aggregator), but every
    /// timer that popped during the blackout was lost and in-flight
    /// deliveries were dead-lettered — implementations should re-arm
    /// deadlines and re-send unacknowledged traffic here.
    fn on_restart(&mut self, _ctx: &mut Ctx<M>) {}
}

/// A queued outgoing message (the unit of sending).
#[derive(Debug, Clone)]
pub struct Outgoing<M> {
    /// Destination actor.
    pub dst: ActorId,
    /// Payload.
    pub msg: M,
}

enum Effect<M> {
    Send(Outgoing<M>),
    Timer { delay: Tick, key: u64 },
    Retry,
    PhaseDone(String),
    Halt,
}

/// The handle through which an actor interacts with the simulation.
pub struct Ctx<'a, M: Payload> {
    id: ActorId,
    now: Tick,
    effects: &'a mut Vec<Effect<M>>,
    rng: &'a mut StdRng,
}

impl<M: Payload> Ctx<'_, M> {
    /// This actor's id.
    pub fn id(&self) -> ActorId {
        self.id
    }

    /// The current virtual time.
    pub fn now(&self) -> Tick {
        self.now
    }

    /// Sends `msg` to `dst` (subject to latency and the fault plan).
    pub fn send(&mut self, dst: ActorId, msg: M) {
        self.effects.push(Effect::Send(Outgoing { dst, msg }));
    }

    /// Arms a timer that fires `delay` ticks from now with `key`.
    pub fn set_timer(&mut self, delay: Tick, key: u64) {
        self.effects.push(Effect::Timer { delay, key });
    }

    /// This actor's private deterministic RNG stream.
    pub fn rng(&mut self) -> &mut StdRng {
        self.rng
    }

    /// Counts one retransmission against this actor.
    pub fn count_retry(&mut self) {
        self.effects.push(Effect::Retry);
    }

    /// Records completion of a named phase at the current tick.
    pub fn phase_done(&mut self, phase: &str) {
        self.effects.push(Effect::PhaseDone(phase.to_string()));
    }

    /// Stops the simulation (protocol converged).
    pub fn halt(&mut self) {
        self.effects.push(Effect::Halt);
    }
}

enum EventKind<M> {
    Deliver { src: ActorId, dst: ActorId, msg: M },
    Timer { actor: ActorId, key: u64 },
    Crash { actor: ActorId },
    Recover { actor: ActorId },
}

struct Event<M> {
    at: Tick,
    seq: u64,
    kind: EventKind<M>,
}

impl<M> PartialEq for Event<M> {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}
impl<M> Eq for Event<M> {}
impl<M> PartialOrd for Event<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Event<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// The outcome of a [`Simulation::run`].
#[derive(Debug, Clone, Copy)]
pub struct RunReport {
    /// Whether the protocol converged (an actor halted, or the event
    /// queue drained) before the tick budget ran out.
    pub converged: bool,
    /// Virtual time when the run stopped.
    pub elapsed: Tick,
    /// Events processed.
    pub events: u64,
}

enum Call<M> {
    Start,
    Message(ActorId, M),
    Timer(u64),
    Restart,
}

/// The deterministic discrete-event simulator. Its actors may borrow what
/// outlives it (`'a`).
pub struct Simulation<'a, M: Payload> {
    clock: Tick,
    next_seq: u64,
    queue: BinaryHeap<Reverse<Event<M>>>,
    actors: Vec<Option<Box<dyn Process<M> + 'a>>>,
    rngs: Vec<StdRng>,
    crashed: Vec<bool>,
    net_rng: StdRng,
    latency: LinkModel,
    fault: FaultPlan,
    #[allow(clippy::type_complexity)]
    tamper: Option<Box<dyn FnMut(ActorId, ActorId, &mut M) -> bool>>,
    halted: bool,
    started: bool,
    seed: u64,
    /// Everything measured so far.
    pub metrics: RoundMetrics,
}

impl<'a, M: Payload> Simulation<'a, M> {
    /// Creates an empty simulation reproducible from `seed`.
    pub fn new(seed: u64) -> Self {
        Self {
            clock: 0,
            next_seq: 0,
            queue: BinaryHeap::new(),
            actors: Vec::new(),
            rngs: Vec::new(),
            crashed: Vec::new(),
            net_rng: StdRng::seed_from_u64(seed),
            latency: LinkModel::default(),
            fault: FaultPlan::none(),
            tamper: None,
            halted: false,
            started: false,
            seed,
            metrics: RoundMetrics::new(0),
        }
    }

    /// Sets the link latency model (builder style).
    pub fn with_latency(mut self, latency: LinkModel) -> Self {
        self.latency = latency;
        self
    }

    /// Installs the fault plan (builder style).
    pub fn with_fault_plan(mut self, fault: FaultPlan) -> Self {
        self.fault = fault;
        self
    }

    /// Installs the Byzantine tamper hook: called for every message sent
    /// by an actor listed in `FaultPlan::byzantine`; returns whether it
    /// substituted the payload.
    pub fn with_tamper(
        mut self,
        hook: impl FnMut(ActorId, ActorId, &mut M) -> bool + 'static,
    ) -> Self {
        self.tamper = Some(Box::new(hook));
        self
    }

    /// Registers an actor; ids are assigned densely from 0.
    ///
    /// Actor `i` draws from keystream `i + 1` of the simulation seed, so
    /// its randomness is independent of every other actor's and of the
    /// network's (stream 0 — the [`StdRng`] default).
    pub fn add_actor(&mut self, actor: Box<dyn Process<M> + 'a>) -> ActorId {
        let id = self.actors.len();
        self.actors.push(Some(actor));
        self.rngs
            .push(StdRng::seed_from_u64(self.seed).with_stream(id as u64 + 1));
        self.crashed.push(false);
        self.metrics.actors.push(Default::default());
        id
    }

    /// The current virtual time.
    pub fn now(&self) -> Tick {
        self.clock
    }

    fn push_event(&mut self, at: Tick, kind: EventKind<M>) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.queue.push(Reverse(Event { at, seq, kind }));
    }

    fn dispatch(&mut self, id: ActorId, call: Call<M>) {
        let mut actor = self.actors[id].take().expect("actor registered");
        let mut effects: Vec<Effect<M>> = Vec::new();
        {
            let mut ctx = Ctx {
                id,
                now: self.clock,
                effects: &mut effects,
                rng: &mut self.rngs[id],
            };
            match call {
                Call::Start => actor.on_start(&mut ctx),
                Call::Message(from, msg) => actor.on_message(&mut ctx, from, msg),
                Call::Timer(key) => actor.on_timer(&mut ctx, key),
                Call::Restart => actor.on_restart(&mut ctx),
            }
        }
        self.actors[id] = Some(actor);
        for effect in effects {
            self.apply(id, effect);
        }
    }

    fn apply(&mut self, src: ActorId, effect: Effect<M>) {
        match effect {
            Effect::Send(Outgoing { dst, mut msg }) => {
                let mut tampered = false;
                if self.fault.byzantine.contains(&src) {
                    if let Some(hook) = self.tamper.as_mut() {
                        tampered = hook(src, dst, &mut msg);
                    }
                }
                if tampered {
                    self.metrics.tampered_msgs += 1;
                }
                let bytes = msg.wire_bytes() as u64;
                self.metrics.actors[src].sent_msgs += 1;
                self.metrics.actors[src].sent_bytes += bytes;
                let kind = self.metrics.sent_kinds.entry((src, msg.kind()));
                let (msgs, kind_bytes) = kind.or_default();
                *msgs += 1;
                *kind_bytes += bytes;
                let severed = self.fault.partitioned(src, dst, self.clock);
                let dropped = severed
                    || (self.fault.drop_prob > 0.0 && self.net_rng.gen_bool(self.fault.drop_prob));
                if dropped {
                    self.metrics.dropped_msgs += 1;
                    self.metrics.dropped_bytes += bytes;
                    return;
                }
                let jitter = if self.latency.jitter > 0 {
                    self.net_rng.gen_range(0..=self.latency.jitter)
                } else {
                    0
                };
                let delay = (self.latency.base + jitter).max(1);
                let at = self.clock + delay;
                self.push_event(at, EventKind::Deliver { src, dst, msg });
            }
            Effect::Timer { delay, key } => {
                let at = self.clock + delay.max(1);
                self.push_event(at, EventKind::Timer { actor: src, key });
            }
            Effect::Retry => self.metrics.actors[src].retries += 1,
            Effect::PhaseDone(name) => self.metrics.phase_done(&name, self.clock),
            Effect::Halt => self.halted = true,
        }
    }

    /// Runs until an actor halts, the queue drains, or virtual time would
    /// exceed `max_ticks`.
    ///
    /// The first call boots the run: crash events are scheduled from the
    /// fault plan and every (non-crashed) actor's `on_start` fires at
    /// tick 0, in actor-id order.
    pub fn run(&mut self, max_ticks: Tick) -> RunReport {
        if !self.started {
            self.started = true;
            for (actor, at) in self.fault.crash_at.clone() {
                if at == 0 {
                    self.crashed[actor] = true;
                } else {
                    self.push_event(at, EventKind::Crash { actor });
                }
            }
            // Recoveries are scheduled strictly after tick 0 — a tick-0
            // restart of a tick-0 crash would be a no-op crash anyway.
            for (actor, at) in self.fault.recover_at.clone() {
                self.push_event(at.max(1), EventKind::Recover { actor });
            }
            for id in 0..self.actors.len() {
                if !self.crashed[id] && !self.halted {
                    self.dispatch(id, Call::Start);
                }
            }
        }
        let mut events = 0u64;
        while !self.halted {
            let Some(Reverse(ev)) = self.queue.pop() else {
                break;
            };
            if ev.at > max_ticks {
                // Out of budget: the event stays unprocessed; report
                // non-convergence below.
                self.queue.push(Reverse(ev));
                break;
            }
            self.clock = ev.at;
            events += 1;
            match ev.kind {
                EventKind::Deliver { src, dst, msg } => {
                    if self.crashed[dst] {
                        self.metrics.dead_letters += 1;
                        continue;
                    }
                    self.metrics.actors[dst].recv_msgs += 1;
                    self.metrics.actors[dst].recv_bytes += msg.wire_bytes() as u64;
                    self.dispatch(dst, Call::Message(src, msg));
                }
                EventKind::Timer { actor, key } => {
                    if self.crashed[actor] {
                        continue;
                    }
                    self.metrics.timer_fires += 1;
                    self.dispatch(actor, Call::Timer(key));
                }
                EventKind::Crash { actor } => {
                    self.crashed[actor] = true;
                }
                EventKind::Recover { actor } => {
                    if self.crashed[actor] {
                        self.crashed[actor] = false;
                        self.metrics.restarts += 1;
                        self.dispatch(actor, Call::Restart);
                    }
                }
            }
        }
        RunReport {
            converged: self.halted || self.queue.is_empty(),
            elapsed: self.clock,
            events,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::Partition;
    use std::cell::RefCell;
    use std::rc::Rc;

    impl Payload for u64 {
        fn wire_bytes(&self) -> usize {
            8
        }
    }

    /// Sends `count` pings to a peer; the peer echoes; halts when all
    /// echoes arrive, retrying on a timer.
    struct Pinger {
        peer: ActorId,
        count: u64,
        acked: Vec<bool>,
        log: Rc<RefCell<Vec<Tick>>>,
    }

    impl Process<u64> for Pinger {
        fn on_start(&mut self, ctx: &mut Ctx<u64>) {
            for i in 0..self.count {
                ctx.send(self.peer, i);
            }
            ctx.set_timer(100, 0);
        }
        fn on_message(&mut self, ctx: &mut Ctx<u64>, _from: ActorId, msg: u64) {
            self.acked[msg as usize] = true;
            self.log.borrow_mut().push(ctx.now());
            if self.acked.iter().all(|&a| a) {
                ctx.phase_done("ping");
                ctx.halt();
            }
        }
        fn on_timer(&mut self, ctx: &mut Ctx<u64>, _key: u64) {
            for (i, &a) in self.acked.iter().enumerate() {
                if !a {
                    ctx.count_retry();
                    ctx.send(self.peer, i as u64);
                }
            }
            ctx.set_timer(100, 0);
        }
        fn on_restart(&mut self, ctx: &mut Ctx<u64>) {
            // Timers armed before the blackout are gone; re-arm the retry
            // timer so unacked pings go back on the wire.
            ctx.set_timer(1, 0);
        }
    }

    struct Echo;
    impl Process<u64> for Echo {
        fn on_message(&mut self, ctx: &mut Ctx<u64>, from: ActorId, msg: u64) {
            ctx.send(from, msg);
        }
    }

    fn ping_sim(seed: u64, fault: FaultPlan) -> (Simulation<'static, u64>, Rc<RefCell<Vec<Tick>>>) {
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Simulation::new(seed).with_fault_plan(fault);
        sim.add_actor(Box::new(Pinger {
            peer: 1,
            count: 8,
            acked: vec![false; 8],
            log: Rc::clone(&log),
        }));
        sim.add_actor(Box::new(Echo));
        (sim, log)
    }

    #[test]
    fn lossless_run_converges_without_retries() {
        let (mut sim, _) = ping_sim(1, FaultPlan::none());
        let report = sim.run(10_000);
        assert!(report.converged);
        assert_eq!(sim.metrics.total_retries(), 0);
        assert_eq!(sim.metrics.dropped_msgs, 0);
        // 8 pings + 8 echoes.
        assert_eq!(sim.metrics.total_sent_msgs(), 16);
        assert_eq!(sim.metrics.total_sent_bytes(), 16 * 8);
        assert_eq!(sim.metrics.phases["ping"].count(), 1);
    }

    #[test]
    fn drops_are_recovered_by_retries() {
        let (mut sim, _) = ping_sim(7, FaultPlan::none().with_drop_prob(0.3));
        let report = sim.run(1_000_000);
        assert!(report.converged, "retries recover a 30% loss rate");
        assert!(sim.metrics.dropped_msgs > 0, "drops actually happened");
        assert!(sim.metrics.total_retries() > 0);
    }

    #[test]
    fn identical_seeds_identical_traces() {
        let run = |seed| {
            let (mut sim, log) = ping_sim(seed, FaultPlan::none().with_drop_prob(0.2));
            let report = sim.run(1_000_000);
            let delivered = log.borrow().clone();
            (
                report.elapsed,
                report.events,
                sim.metrics.to_json(),
                delivered,
            )
        };
        assert_eq!(run(42), run(42), "same seed, bit-identical trace");
        // Different seeds see different jitter/drop patterns.
        assert_ne!(run(42).3, run(43).3);
    }

    #[test]
    fn crashed_receiver_generates_dead_letters() {
        let (mut sim, _) = ping_sim(3, FaultPlan::none().with_crash(1, 1));
        let report = sim.run(5_000);
        assert!(!report.converged, "echo never answers after crashing");
        assert!(sim.metrics.dead_letters > 0);
    }

    #[test]
    fn crash_window_recovers_via_on_restart() {
        // The pinger blacks out at tick 5 — every echo in flight is a
        // dead letter and its retry timer is lost with it — then revives
        // at tick 2_000 with state intact (the journal model). Its
        // `on_restart` re-arms the timer, the unacked pings are resent,
        // and the run converges to the same final state as a clean run.
        let (mut sim, log) = ping_sim(3, FaultPlan::none().with_crash_window(0, 5, 2_000));
        let report = sim.run(1_000_000);
        assert!(report.converged, "recovered run converges");
        assert_eq!(sim.metrics.restarts, 1);
        assert!(
            sim.metrics.dead_letters > 0,
            "blackout dead-lettered echoes"
        );
        assert!(
            log.borrow().iter().all(|&t| t >= 2_000),
            "no delivery lands during the blackout"
        );
        assert_eq!(sim.metrics.phases["ping"].count(), 1);
    }

    #[test]
    fn recovery_without_matching_crash_is_a_no_op() {
        let (mut sim, _) = ping_sim(3, FaultPlan::none().with_recovery(0, 50));
        let report = sim.run(1_000_000);
        assert!(report.converged);
        assert_eq!(sim.metrics.restarts, 0, "never crashed, never restarted");
    }

    #[test]
    fn crash_at_zero_suppresses_on_start() {
        let (mut sim, _) = ping_sim(3, FaultPlan::none().with_crash(0, 0));
        let report = sim.run(5_000);
        // The pinger never starts: nothing is sent, queue drains instantly.
        assert!(report.converged);
        assert_eq!(sim.metrics.total_sent_msgs(), 0);
    }

    #[test]
    fn partition_blocks_and_heals() {
        let fault = FaultPlan {
            partitions: vec![Partition {
                a: vec![0],
                b: vec![1],
                from: 0,
                until: 500,
            }],
            ..FaultPlan::none()
        };
        let (mut sim, log) = ping_sim(5, fault);
        let report = sim.run(1_000_000);
        assert!(report.converged, "retries after the partition heals");
        assert!(
            log.borrow().iter().all(|&t| t >= 500),
            "no echo crosses the active partition"
        );
    }

    /// Sends one value to a relay, which forwards it to a sink.
    struct Shout {
        relay: ActorId,
    }
    impl Process<u64> for Shout {
        fn on_start(&mut self, ctx: &mut Ctx<u64>) {
            ctx.send(self.relay, 7);
        }
        fn on_message(&mut self, _ctx: &mut Ctx<u64>, _from: ActorId, _msg: u64) {}
    }
    struct Relay {
        sink: ActorId,
    }
    impl Process<u64> for Relay {
        fn on_message(&mut self, ctx: &mut Ctx<u64>, _from: ActorId, msg: u64) {
            ctx.send(self.sink, msg);
        }
    }
    struct Sink {
        seen: Rc<RefCell<Vec<u64>>>,
    }
    impl Process<u64> for Sink {
        fn on_message(&mut self, ctx: &mut Ctx<u64>, _from: ActorId, msg: u64) {
            self.seen.borrow_mut().push(msg);
            ctx.halt();
        }
    }

    #[test]
    fn tamper_hook_touches_only_byzantine_senders() {
        let seen = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Simulation::new(11)
            .with_fault_plan(FaultPlan::none().with_byzantine(1))
            .with_tamper(|src, _dst, msg: &mut u64| {
                assert_eq!(src, 1, "only the Byzantine relay is tampered");
                *msg ^= 0xFF00;
                true
            });
        sim.add_actor(Box::new(Shout { relay: 1 }));
        sim.add_actor(Box::new(Relay { sink: 2 }));
        sim.add_actor(Box::new(Sink {
            seen: Rc::clone(&seen),
        }));
        let report = sim.run(10_000);
        assert!(report.converged);
        assert_eq!(sim.metrics.tampered_msgs, 1);
        // The honest send (0 → 1) was untouched; the relay's copy was
        // substituted in flight.
        assert_eq!(*seen.borrow(), vec![7 ^ 0xFF00]);
    }
}
