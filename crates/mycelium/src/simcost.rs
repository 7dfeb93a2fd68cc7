//! Reconciling the §6.4 analytic bandwidth model against the simnet.
//!
//! [`crate::costs::device_bandwidth`] *extrapolates* Figure 7 from the
//! messaging pattern: a device sends `r·cq·d` ciphertexts, receives as
//! many, and a forwarder additionally relays a batch of `(r·cq·d)/f`.
//! This module *executes* that pattern as an actual message-passing run:
//! every contribution is a message routed source → `k` forwarder hops →
//! destination, and [`RoundMetrics`] meters what each device really sent
//! and received on the wire.
//!
//! Messages **declare** their on-the-wire size (`Payload::wire_bytes` =
//! one BGV ciphertext at the configured parameters) instead of carrying
//! 4.3 MB of residues, so the reconciliation runs at full Figure-7
//! message counts in milliseconds.
//!
//! The deliberate structural difference between the two accountings: the
//! simnet meters a relayed batch **twice** at a forwarder (once received,
//! once sent), while the model's `forwarder − non_forwarder` counts it
//! once. `tests/sim_costs.rs` pins both views against each other exactly.

use std::cell::RefCell;
use std::rc::Rc;

use mycelium_simnet::{ActorId, Ctx, Payload, Process, RoundMetrics, Simulation};

use crate::params::SystemParams;

/// Configuration of a cost-accounting run: the Figure-7 parameters plus
/// an explicit population size.
#[derive(Debug, Clone)]
pub struct CostSimConfig {
    /// Devices.
    pub n: usize,
    /// Onion hops `k`.
    pub k: usize,
    /// Replica paths `r`.
    pub r: usize,
    /// Ciphertexts per contribution `C_q`.
    pub cq: usize,
    /// Contacts per device `d`.
    pub degree: usize,
    /// Forwarder fraction `f` (each of the `k` hop classes holds `f·n`
    /// devices, mirroring the beacon-keyed class structure of §3.4).
    pub forwarder_fraction: f64,
    /// Declared bytes per ciphertext message.
    pub ct_bytes: usize,
}

impl CostSimConfig {
    /// The Figure-7 messaging pattern of `params` at population `n`.
    ///
    /// `n` must make the schedule divide exactly (`f·n` integral and
    /// `n·r·cq·d` divisible by the class size) for the per-forwarder
    /// batch to be uniform — the paper's expectation, realized exactly.
    pub fn figure7(params: &SystemParams, k: usize, r: usize, cq: usize, n: usize) -> Self {
        Self {
            n,
            k,
            r,
            cq,
            degree: params.degree_bound,
            forwarder_fraction: params.forwarder_fraction,
            ct_bytes: params.bgv.ciphertext_bytes(),
        }
    }

    fn class_size(&self) -> usize {
        let s = (self.forwarder_fraction * self.n as f64).round() as usize;
        assert!(s > 0, "forwarder class is empty at n = {}", self.n);
        s
    }
}

/// What the metered run measured, per device class.
#[derive(Debug, Clone)]
pub struct CostSimReport {
    /// Mean bytes (sent + received) over non-forwarder devices.
    pub non_forwarder_bytes: f64,
    /// Mean bytes (sent + received) over forwarder devices.
    pub forwarder_bytes: f64,
    /// Mean messages (sent + received) over non-forwarder devices.
    pub non_forwarder_msgs: f64,
    /// Mean messages (sent + received) over forwarder devices.
    pub forwarder_msgs: f64,
    /// Bytes each forwarder relayed (metered once, not twice).
    pub relayed_bytes_per_forwarder: f64,
    /// Messages delivered end-to-end.
    pub delivered: u64,
    /// Messages the sources injected.
    pub expected: u64,
    /// The raw network metrics.
    pub metrics: RoundMetrics,
}

/// A ciphertext in transit: a declared size and the hops still ahead.
#[derive(Clone)]
struct CostMsg {
    bytes: usize,
    route: Vec<ActorId>,
}

impl Payload for CostMsg {
    fn wire_bytes(&self) -> usize {
        self.bytes
    }
}

struct CostActor {
    /// Messages this device injects at start: `(first hop, payload)`.
    outbox: Vec<(ActorId, CostMsg)>,
    delivered: Rc<RefCell<u64>>,
    relayed: Rc<RefCell<Vec<u64>>>,
    id: ActorId,
}

impl Process<CostMsg> for CostActor {
    fn on_start(&mut self, ctx: &mut Ctx<CostMsg>) {
        for (dst, msg) in self.outbox.drain(..) {
            ctx.send(dst, msg);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<CostMsg>, _from: ActorId, mut msg: CostMsg) {
        if msg.route.is_empty() {
            *self.delivered.borrow_mut() += 1;
            return;
        }
        self.relayed.borrow_mut()[self.id] += msg.bytes as u64;
        let next = msg.route.remove(0);
        ctx.send(next, msg);
    }
}

/// Runs the Figure-7 messaging pattern and meters it.
///
/// Deterministic and RNG-free: hop assignment is round-robin within each
/// forwarder class, so every forwarder relays exactly the model's batch
/// when the schedule divides evenly. Devices `0 .. k·f·n` are the
/// forwarders (class `i` = `[i·f·n, (i+1)·f·n)`); they send and receive
/// their own contributions like everyone else, exactly as in the model.
pub fn run_cost_sim(cfg: &CostSimConfig) -> CostSimReport {
    let class = cfg.class_size();
    let n_forwarders = cfg.k * class;
    assert!(
        n_forwarders <= cfg.n,
        "k·f must be ≤ 1 ({} forwarders, {} devices)",
        n_forwarders,
        cfg.n
    );

    // Per-level round-robin counters: message m's hop at level i is the
    // next device of class i.
    let mut counters = vec![0usize; cfg.k];
    let mut outboxes: Vec<Vec<(ActorId, CostMsg)>> = vec![Vec::new(); cfg.n];
    let mut expected = 0u64;
    for (src, outbox) in outboxes.iter_mut().enumerate() {
        for j in 0..cfg.degree {
            let dst = (src + 1 + j) % cfg.n;
            for _ in 0..cfg.r * cfg.cq {
                let mut route: Vec<ActorId> = (0..cfg.k)
                    .map(|level| {
                        let hop = level * class + counters[level] % class;
                        counters[level] += 1;
                        hop
                    })
                    .collect();
                let first = route.remove(0);
                route.push(dst);
                outbox.push((
                    first,
                    CostMsg {
                        bytes: cfg.ct_bytes,
                        route,
                    },
                ));
                expected += 1;
            }
        }
    }

    let delivered = Rc::new(RefCell::new(0u64));
    let relayed = Rc::new(RefCell::new(vec![0u64; cfg.n]));
    let mut sim: Simulation<CostMsg> = Simulation::new(0);
    for (id, outbox) in outboxes.into_iter().enumerate() {
        sim.add_actor(Box::new(CostActor {
            outbox,
            delivered: Rc::clone(&delivered),
            relayed: Rc::clone(&relayed),
            id,
        }));
    }
    let report = sim.run(u64::MAX);
    assert!(report.converged, "a lossless accounting run always drains");

    let is_forwarder = |id: usize| id < n_forwarders;
    let mean = |f: &dyn Fn(usize) -> f64, fwd: bool| -> f64 {
        let ids: Vec<usize> = (0..cfg.n).filter(|&i| is_forwarder(i) == fwd).collect();
        ids.iter().map(|&i| f(i)).sum::<f64>() / ids.len() as f64
    };
    let bytes =
        |i: usize| (sim.metrics.actors[i].sent_bytes + sim.metrics.actors[i].recv_bytes) as f64;
    let msgs =
        |i: usize| (sim.metrics.actors[i].sent_msgs + sim.metrics.actors[i].recv_msgs) as f64;
    let relay_mean = {
        let relayed = relayed.borrow();
        (0..n_forwarders).map(|i| relayed[i] as f64).sum::<f64>() / n_forwarders.max(1) as f64
    };
    let delivered = *delivered.borrow();
    CostSimReport {
        non_forwarder_bytes: mean(&bytes, false),
        forwarder_bytes: mean(&bytes, true),
        non_forwarder_msgs: mean(&msgs, false),
        forwarder_msgs: mean(&msgs, true),
        relayed_bytes_per_forwarder: relay_mean,
        delivered,
        expected,
        metrics: sim.metrics.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_message_is_delivered() {
        let cfg = CostSimConfig {
            n: 40,
            k: 2,
            r: 2,
            cq: 1,
            degree: 4,
            forwarder_fraction: 0.1,
            ct_bytes: 1000,
        };
        let rep = run_cost_sim(&cfg);
        assert_eq!(rep.delivered, rep.expected);
        assert_eq!(rep.expected, (40 * 4 * 2) as u64);
    }

    #[test]
    fn forwarders_carry_the_batch() {
        let cfg = CostSimConfig {
            n: 40,
            k: 2,
            r: 2,
            cq: 1,
            degree: 4,
            forwarder_fraction: 0.1,
            ct_bytes: 1000,
        };
        let rep = run_cost_sim(&cfg);
        // batch = r·cq·d/f = 80 messages of 1000 B, relayed once each.
        assert_eq!(rep.relayed_bytes_per_forwarder, 80_000.0);
        assert!(rep.forwarder_bytes > rep.non_forwarder_bytes);
    }
}
