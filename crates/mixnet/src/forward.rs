//! Message forwarding over established circuits (§3.5).
//!
//! One communication round of the vertex program costs `k + 1` C-rounds:
//! sources deposit onion-encrypted messages into their first hops'
//! mailboxes; in each subsequent C-round, every hop downloads its mailbox,
//! peels one layer, mixes, and re-deposits under the next path id. Each
//! C-round's mailboxes are committed and the root is posted to the bulletin
//! board, but no hop checks a download against it yet. A hop that is
//! missing an expected message (sender offline, upstream hop failed, or the
//! message was maliciously dropped) uploads a **dummy** — uniformly random
//! bytes of the same length — so the aggregator-visible communication
//! pattern never changes. Destinations detect dummies (and any corruption)
//! via the authenticated inner layer.

use std::collections::HashMap;

use mycelium_math::rng::Rng;

use crate::bulletin::Entry;
use crate::circuit::{Network, NextHop};
use crate::mailbox::MailboxRound;
use crate::onion::{build_onion, open_inner, peel_layer, random_dummy, PathId};

/// A message to send in this vertex-program round.
#[derive(Debug, Clone)]
pub struct OutgoingMessage {
    /// Sending device (pseudonym number).
    pub src: usize,
    /// Target pseudonym number (must have circuits established).
    pub target: usize,
    /// Message id (embedded, used for replica deduplication).
    pub id: u64,
    /// Payload bytes (padded to the configured message length).
    pub payload: Vec<u8>,
}

/// The outcome of one forwarding round.
#[derive(Debug, Clone)]
pub struct DeliveryReport {
    /// `delivered[id]` = number of replica copies that arrived intact.
    pub delivered: HashMap<u64, usize>,
    /// Messages attempted.
    pub attempted: usize,
    /// Dummies injected by hops to mask missing messages.
    pub dummies_injected: usize,
    /// Dummy/garbage blobs destinations rejected via the inner MAC.
    pub rejected_at_destination: usize,
    /// C-rounds consumed (`k + 1`).
    pub crounds: u64,
}

impl DeliveryReport {
    /// Fraction of distinct messages that arrived at least once — the
    /// "goodput" of Figure 5(c).
    pub fn goodput(&self) -> f64 {
        if self.attempted == 0 {
            return 1.0;
        }
        let ok = self.delivered.values().filter(|&&c| c > 0).count();
        ok as f64 / self.attempted as f64
    }
}

/// An in-flight blob between hops.
#[derive(Debug, Clone)]
struct InFlight {
    path: PathId,
    blob: Vec<u8>,
}

fn encode(msg: &InFlight) -> Vec<u8> {
    let mut v = Vec::with_capacity(16 + msg.blob.len());
    v.extend_from_slice(&msg.path.0);
    v.extend_from_slice(&msg.blob);
    v
}

impl Network {
    /// Executes one full forwarding round for a batch of messages.
    ///
    /// Each message is sent over all `r` replica circuits its source holds
    /// toward the target. Returns the delivery report; the C-round counter
    /// advances by `k + 1`.
    pub fn forward_messages<R: Rng + ?Sized>(
        &mut self,
        messages: &[OutgoingMessage],
        rng: &mut R,
    ) -> DeliveryReport {
        let k = self.config.hops;
        let base = self.cround;
        let n = self.maps.pseudonym_count();
        let padded_len = self.config.message_len;
        // C-round base+1: sources deposit into first-hop mailboxes.
        let mut current: Vec<Vec<InFlight>> = vec![Vec::new(); n];
        let mut mailboxes = MailboxRound::new(n);
        for m in messages {
            if !self.devices[m.src].online {
                continue;
            }
            let mut payload = Vec::with_capacity(padded_len);
            payload.extend_from_slice(&m.id.to_le_bytes());
            payload.extend_from_slice(&m.payload);
            assert!(
                payload.len() <= padded_len,
                "payload exceeds the configured message length"
            );
            payload.resize(padded_len, 0);
            for c in self.circuits[m.src].iter().filter(|c| c.target == m.target) {
                let onion = build_onion(&c.hop_keys, &c.dst_key, base, &payload, rng);
                let inflight = InFlight {
                    path: c.entry_path,
                    blob: onion,
                };
                mailboxes.deposit(c.hops[0], encode(&inflight));
                current[c.hops[0]].push(inflight);
            }
        }
        let commit = mailboxes.commit();
        self.bulletin.post(Entry::CRoundRoot {
            round: base + 1,
            root: commit.root(),
        });
        let mut dummies_injected = 0usize;
        // C-rounds base+2 .. base+k+1: hops peel, mix, forward.
        for level in 0..k {
            let mut next: Vec<Vec<InFlight>> = vec![Vec::new(); n];
            let mut next_mailboxes = MailboxRound::new(n);
            for (dev_idx, slot) in current.iter_mut().enumerate() {
                // Index incoming messages by path id.
                let incoming: HashMap<PathId, Vec<u8>> =
                    slot.drain(..).map(|m| (m.path, m.blob)).collect();
                let device = &self.devices[dev_idx];
                let online = device.online;
                let drops = device.malicious_drop;
                // Collect this level's routes (sorted for determinism).
                let mut routes: Vec<(PathId, crate::circuit::RouteEntry)> = device
                    .routes
                    .iter()
                    .filter(|(_, e)| e.level == level)
                    .map(|(p, e)| (*p, e.clone()))
                    .collect();
                routes.sort_by_key(|(p, _)| p.0);
                if !online {
                    // An offline hop forwards nothing; downstream hops will
                    // cover with dummies.
                    continue;
                }
                for (in_path, entry) in routes {
                    let out_blob = match incoming.get(&in_path) {
                        Some(blob) if !drops => peel_layer(&entry.key, base, level, blob),
                        _ => {
                            // Missing (or maliciously dropped): substitute
                            // a random dummy of the right size (§3.5).
                            dummies_injected += 1;
                            let expect = crate::onion::onion_len(padded_len);
                            random_dummy(expect, rng)
                        }
                    };
                    match entry.next {
                        NextHop::Forward(next_hop) => {
                            let m = InFlight {
                                path: entry.out_path,
                                blob: out_blob,
                            };
                            next_mailboxes.deposit(next_hop, encode(&m));
                            next[next_hop].push(m);
                        }
                        NextHop::Deliver(dst) => {
                            let m = InFlight {
                                path: entry.out_path,
                                blob: out_blob,
                            };
                            next_mailboxes.deposit(dst, encode(&m));
                            next[dst].push(m);
                        }
                        NextHop::Pending => {}
                    }
                }
            }
            let commit = next_mailboxes.commit();
            self.bulletin.post(Entry::CRoundRoot {
                round: base + 2 + level as u64,
                root: commit.root(),
            });
            current = next;
        }
        // Destinations open their mailboxes.
        let mut delivered: HashMap<u64, usize> = HashMap::new();
        for m in messages {
            delivered.insert(m.id, 0);
        }
        let mut rejected = 0usize;
        for (dst, slot) in current.iter_mut().enumerate() {
            if slot.is_empty() || !self.devices[dst].online {
                continue;
            }
            let keypair = self.devices[dst].keypair.clone();
            for m in slot.drain(..) {
                match open_inner(&keypair, &m.blob) {
                    Ok(payload) if payload.len() >= 8 => {
                        let id =
                            u64::from_le_bytes(payload[..8].try_into().expect("length checked"));
                        if let Some(c) = delivered.get_mut(&id) {
                            *c += 1;
                        } else {
                            rejected += 1;
                        }
                    }
                    _ => rejected += 1,
                }
            }
        }
        self.cround = base + k as u64 + 1;
        DeliveryReport {
            delivered,
            attempted: messages.len(),
            dummies_injected,
            rejected_at_destination: rejected,
            crounds: k as u64 + 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::MixnetConfig;
    use mycelium_math::rng::{SeedableRng, StdRng};

    fn setup(n: usize, k: usize, r: usize) -> (Network, StdRng) {
        let mut rng = StdRng::seed_from_u64(71);
        let cfg = MixnetConfig {
            hops: k,
            replicas: r,
            forwarder_fraction: 0.4,
            degree: 4,
            message_len: 64,
        };
        (Network::new(n, cfg, &mut rng), rng)
    }

    #[test]
    fn end_to_end_delivery() {
        let (mut net, mut rng) = setup(200, 3, 2);
        net.telescope(&[(0, vec![50]), (1, vec![51])], &mut rng)
            .unwrap();
        let msgs = vec![
            OutgoingMessage {
                src: 0,
                target: 50,
                id: 100,
                payload: b"query q1".to_vec(),
            },
            OutgoingMessage {
                src: 1,
                target: 51,
                id: 101,
                payload: b"query q2".to_vec(),
            },
        ];
        let report = net.forward_messages(&msgs, &mut rng);
        assert_eq!(report.crounds, 4);
        assert_eq!(report.delivered[&100], 2, "both replicas arrive");
        assert_eq!(report.delivered[&101], 2);
        assert_eq!(report.goodput(), 1.0);
        assert_eq!(report.dummies_injected, 0);
    }

    #[test]
    fn offline_source_sends_nothing() {
        let (mut net, mut rng) = setup(150, 2, 1);
        net.telescope(&[(0, vec![40])], &mut rng).unwrap();
        net.set_online(0, false);
        let msgs = vec![OutgoingMessage {
            src: 0,
            target: 40,
            id: 7,
            payload: vec![],
        }];
        let report = net.forward_messages(&msgs, &mut rng);
        assert_eq!(report.delivered[&7], 0);
        // The first hop covers for the missing message with a dummy.
        assert!(report.dummies_injected >= 1);
        assert!(report.rejected_at_destination >= 1);
    }

    #[test]
    fn offline_hop_triggers_downstream_dummies() {
        let (mut net, mut rng) = setup(200, 3, 1);
        net.telescope(&[(0, vec![60])], &mut rng).unwrap();
        let first_hop = net.circuits[0][0].hops[0];
        net.set_online(first_hop, false);
        let report = net.forward_messages(
            &[OutgoingMessage {
                src: 0,
                target: 60,
                id: 9,
                payload: b"x".to_vec(),
            }],
            &mut rng,
        );
        assert_eq!(report.delivered[&9], 0, "single replica lost");
        // Hop 2 (and hop 3) substitute dummies.
        assert!(report.dummies_injected >= 1);
        assert!(report.rejected_at_destination >= 1);
    }

    #[test]
    fn replicas_survive_single_path_failure() {
        let (mut net, mut rng) = setup(300, 2, 3);
        net.telescope(&[(5, vec![80])], &mut rng).unwrap();
        // Kill the first hop of exactly one replica path.
        let victim = net.circuits[5][0].hops[0];
        net.set_online(victim, false);
        let report = net.forward_messages(
            &[OutgoingMessage {
                src: 5,
                target: 80,
                id: 11,
                payload: b"resilient".to_vec(),
            }],
            &mut rng,
        );
        // At least one replica must get through (unless the same device is
        // a hop on every path, which the seed avoids).
        assert!(report.delivered[&11] >= 1);
        assert_eq!(report.goodput(), 1.0);
    }

    #[test]
    fn malicious_hop_drops_but_inner_mac_catches_dummies() {
        let (mut net, mut rng) = setup(200, 2, 1);
        net.telescope(&[(0, vec![70])], &mut rng).unwrap();
        let hop2 = net.circuits[0][0].hops[1];
        net.devices[hop2].malicious_drop = true;
        let report = net.forward_messages(
            &[OutgoingMessage {
                src: 0,
                target: 70,
                id: 13,
                payload: b"drop me".to_vec(),
            }],
            &mut rng,
        );
        assert_eq!(report.delivered[&13], 0);
        assert_eq!(report.rejected_at_destination, 1);
        // The pattern is preserved: the dropped message was replaced.
        assert_eq!(report.dummies_injected, 1);
    }

    #[test]
    fn traffic_pattern_is_invariant_under_drops() {
        // The aggregator's view — how many blobs each device uploads per
        // C-round — must be IDENTICAL whether or not a message was dropped:
        // that is exactly what dummy cover traffic guarantees (§3.5).
        let count_uploads = |net: &mut Network, rng: &mut StdRng| -> Vec<usize> {
            let report = net.forward_messages(
                &[OutgoingMessage {
                    src: 0,
                    target: 90,
                    id: 1,
                    payload: b"observe me".to_vec(),
                }],
                rng,
            );
            // Uploads per round = real forwards + dummies; with one message
            // per level the totals per round are 1 regardless of content.
            vec![report.dummies_injected + report.delivered[&1]]
        };
        // Run 1: healthy network.
        let (mut net_a, mut rng_a) = setup(200, 3, 1);
        net_a.telescope(&[(0, vec![90])], &mut rng_a).unwrap();
        let healthy = count_uploads(&mut net_a, &mut rng_a);
        // Run 2: same topology, middle hop maliciously drops.
        let (mut net_b, mut rng_b) = setup(200, 3, 1);
        net_b.telescope(&[(0, vec![90])], &mut rng_b).unwrap();
        let hop = net_b.circuits[0][0].hops[1];
        net_b.devices[hop].malicious_drop = true;
        let dropped = count_uploads(&mut net_b, &mut rng_b);
        // Deliveries+dummies is conserved: a drop converts a delivery into
        // a dummy, never into silence.
        assert_eq!(healthy.iter().sum::<usize>(), dropped.iter().sum::<usize>());
    }

    #[test]
    fn cround_roots_posted_every_round() {
        let (mut net, mut rng) = setup(150, 2, 1);
        net.telescope(&[(0, vec![30])], &mut rng).unwrap();
        let before = net.cround;
        net.forward_messages(
            &[OutgoingMessage {
                src: 0,
                target: 30,
                id: 1,
                payload: vec![],
            }],
            &mut rng,
        );
        for round in before + 1..=before + 3 {
            assert!(
                net.bulletin.cround_root(round).is_some(),
                "round {round} committed"
            );
        }
    }
}
