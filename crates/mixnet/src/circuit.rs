//! Telescoping circuit setup (§3.4).
//!
//! Every source establishes `r` independent `k`-hop paths to each of its
//! `d` targets. Hops are drawn from the beacon-selected forwarder classes;
//! keys are established Tor-style, extending one hop at a time through the
//! already-built prefix so the aggregator never sees which pseudonym a
//! source intends to route through (except hop 1, whose lookup it can
//! observe anyway). Extension to hop `i` costs `2i` C-rounds (the request
//! telescopes out `i` hops and the reply telescopes back); after the last
//! extension, final hops wait `k` C-rounds for ACK complaints before
//! fetching destination keys — `Σ 2i + k = k² + 2k` C-rounds in total,
//! which the simulation *counts* rather than assumes (Figure 5(d)).
//!
//! The simulation runs the real cryptography: `M1` lookups are verified
//! against the committed root, extend requests are `PEnc`/`AE` protected,
//! and hop routing tables store exactly what a real device would persist
//! (path-id → key, next hop, outgoing path-id).

use std::collections::HashMap;

use mycelium_crypto::penc::{KeyPair, PublicKey};
use mycelium_math::rng::Rng;

use crate::bulletin::{BulletinBoard, Entry};
use crate::maps::{DeviceRegistration, VerifiableMaps};
use crate::onion::{select_hop, PathId};

/// Mixnet parameters (Figure 4 defaults).
#[derive(Debug, Clone)]
pub struct MixnetConfig {
    /// Onion-routing hops `k`.
    pub hops: usize,
    /// Replicas of each message `r`.
    pub replicas: usize,
    /// Forwarder fraction `f`.
    pub forwarder_fraction: f64,
    /// Degree bound `d` (messages per device per round).
    pub degree: usize,
    /// Fixed payload size in bytes (all messages are padded to this).
    pub message_len: usize,
}

impl Default for MixnetConfig {
    fn default() -> Self {
        Self {
            hops: 3,
            replicas: 2,
            forwarder_fraction: 0.1,
            degree: 10,
            message_len: 256,
        }
    }
}

/// Where a route forwards to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NextHop {
    /// Forward to another mix (pseudonym number).
    Forward(usize),
    /// Final hop: deliver the peeled blob to the destination's mailbox.
    Deliver(usize),
    /// Not yet extended (set during telescoping).
    Pending,
}

/// A hop's routing-table entry.
#[derive(Debug, Clone)]
pub struct RouteEntry {
    /// Symmetric key shared with the (anonymous) source.
    pub key: [u8; 32],
    /// Next destination.
    pub next: NextHop,
    /// Path id used on the outgoing edge.
    pub out_path: PathId,
    /// Position of this hop along the path (0-based): traffic for this
    /// route arrives in forwarding round `base + level + 1`.
    pub level: usize,
}

/// One device's mixnet state.
#[derive(Debug)]
pub struct DeviceState {
    /// The device's (single, for the simulation) pseudonym key pair.
    pub keypair: KeyPair,
    /// Whether the device is currently online.
    pub online: bool,
    /// Failure-injection flag: a malicious forwarder that drops every real
    /// message passing through it (while covering with dummies).
    pub malicious_drop: bool,
    /// Routing table: incoming path id → route.
    pub routes: HashMap<PathId, RouteEntry>,
}

/// A fully-established circuit, from the source's perspective.
#[derive(Debug, Clone)]
pub struct Circuit {
    /// Destination pseudonym number.
    pub target: usize,
    /// Hop pseudonym numbers, in path order.
    pub hops: Vec<usize>,
    /// Symmetric keys shared with each hop.
    pub hop_keys: Vec<[u8; 32]>,
    /// Path id on the first edge (source → hop 1).
    pub entry_path: PathId,
    /// The destination's public key (fetched by the last hop).
    pub dst_key: PublicKey,
}

/// Setup failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SetupError {
    /// A lookup proof failed verification (malicious aggregator).
    BadLookup,
    /// Unanswered complaints: path setup must restart without the
    /// offending devices (§3.4).
    Restart {
        /// Number of open complaints.
        complaints: usize,
    },
}

/// The simulated mix network: devices + aggregator state.
#[derive(Debug)]
pub struct Network {
    /// Parameters.
    pub config: MixnetConfig,
    /// The epoch's verifiable maps.
    pub maps: VerifiableMaps,
    /// The public bulletin board.
    pub bulletin: BulletinBoard,
    /// Device states, indexed by pseudonym number (one pseudonym each).
    pub devices: Vec<DeviceState>,
    /// Current C-round.
    pub cround: u64,
    /// Established circuits: `circuits[src]` lists the source's paths.
    pub circuits: Vec<Vec<Circuit>>,
    /// The beacon in force.
    pub beacon: Vec<u8>,
}

impl Network {
    /// Initializes a network of `n` devices: key generation, registration,
    /// map construction, root + beacon publication. The beacon `B` is drawn
    /// from `rng`, not flipped collectively as in the paper (§3.4).
    pub fn new<R: Rng + ?Sized>(n: usize, config: MixnetConfig, rng: &mut R) -> Self {
        let devices: Vec<DeviceState> = (0..n)
            .map(|_| DeviceState {
                keypair: KeyPair::generate(rng),
                online: true,
                malicious_drop: false,
                routes: HashMap::new(),
            })
            .collect();
        let regs: Vec<DeviceRegistration> = devices
            .iter()
            .enumerate()
            .map(|(d, dev)| DeviceRegistration {
                device: d as u64,
                keys: vec![dev.keypair.public()],
            })
            .collect();
        let maps = VerifiableMaps::build(&regs, 1).expect("one pseudonym per device");
        let mut bulletin = BulletinBoard::new();
        bulletin.post(Entry::M1Root(maps.m1_root()));
        bulletin.post(Entry::M2Root(maps.m2_root()));
        let mut beacon = vec![0u8; 32];
        rng.fill(&mut beacon[..]);
        bulletin.post(Entry::Beacon(beacon.clone()));
        Self {
            config,
            maps,
            bulletin,
            devices,
            cround: 0,
            circuits: vec![Vec::new(); n],
            beacon,
        }
    }

    /// Marks a device online or offline.
    pub fn set_online(&mut self, device: usize, online: bool) {
        self.devices[device].online = online;
    }

    /// Plans and telescopes `r` circuits from `src` to each target, with
    /// full verification. Returns the number of C-rounds consumed.
    ///
    /// The per-hop protocol steps are executed with real key material; the
    /// C-round counter advances by `2i` per extension and `k` for the ACK
    /// wait, exactly as the message schedule of §3.4 dictates.
    pub fn telescope<R: Rng + ?Sized>(
        &mut self,
        sources_and_targets: &[(usize, Vec<usize>)],
        rng: &mut R,
    ) -> Result<u64, SetupError> {
        let k = self.config.hops;
        let start = self.cround;
        let m1_root = self.maps.m1_root();
        // Plan: per source, per target, per replica, choose hops.
        struct Plan {
            src: usize,
            target: usize,
            hops: Vec<usize>,
            keys: Vec<[u8; 32]>,
            path_ids: Vec<PathId>,
        }
        let mut plans: Vec<Plan> = Vec::new();
        for (src, targets) in sources_and_targets {
            for &target in targets {
                for _ in 0..self.config.replicas {
                    let hops: Vec<usize> = (1..=k)
                        .map(|i| {
                            select_hop(
                                i,
                                k,
                                self.config.forwarder_fraction,
                                self.maps.pseudonym_count() as u64,
                                &self.beacon,
                                rng,
                            ) as usize
                        })
                        .collect();
                    plans.push(Plan {
                        src: *src,
                        target,
                        hops,
                        keys: Vec::new(),
                        path_ids: Vec::new(),
                    });
                }
            }
        }
        // Extension i: all plans extend to their i-th hop. Costs 2i rounds.
        for i in 0..k {
            for plan in plans.iter_mut() {
                let hop = plan.hops[i];
                // The source (for i = 0) or the previous hop (i > 0) looks
                // up the hop's leaf; the requester verifies the proof.
                let (leaf, proof) = self.maps.lookup(hop).ok_or(SetupError::BadLookup)?;
                VerifiableMaps::verify_lookup(&m1_root, hop, &leaf, &proof)
                    .map_err(|_| SetupError::BadLookup)?;
                // Fresh symmetric key, transported under PEnc + the AE
                // prefix of the established circuit (the transcript is
                // exercised end-to-end by the forwarding tests; here we
                // install the state both endpoints would hold).
                let mut key = [0u8; 32];
                rng.fill(&mut key);
                let in_path = PathId::random(rng);
                // The previous hop learns the mapping from its out-path to
                // the new hop.
                if i == 0 {
                    plan.path_ids.push(in_path);
                } else {
                    let prev = plan.hops[i - 1];
                    let prev_entry_path = plan.path_ids[i - 1];
                    let e = self.devices[prev]
                        .routes
                        .get_mut(&prev_entry_path)
                        .expect("previous hop was extended");
                    e.next = NextHop::Forward(hop);
                    e.out_path = in_path;
                    plan.path_ids.push(in_path);
                }
                self.devices[hop].routes.insert(
                    in_path,
                    RouteEntry {
                        key,
                        next: NextHop::Pending,
                        out_path: PathId::random(rng),
                        level: i,
                    },
                );
                plan.keys.push(key);
            }
            self.cround += 2 * (i as u64 + 1);
        }
        // ACK wait: k C-rounds; then last hops fetch destination keys.
        self.cround += k as u64;
        let open = self.bulletin.open_complaints(self.cround);
        if !open.is_empty() {
            return Err(SetupError::Restart {
                complaints: open.len(),
            });
        }
        for plan in plans.iter() {
            let last = plan.hops[k - 1];
            let (leaf, proof) = self.maps.lookup(plan.target).ok_or(SetupError::BadLookup)?;
            VerifiableMaps::verify_lookup(&m1_root, plan.target, &leaf, &proof)
                .map_err(|_| SetupError::BadLookup)?;
            let entry_path = plan.path_ids[k - 1];
            let e = self.devices[last]
                .routes
                .get_mut(&entry_path)
                .expect("last hop was extended");
            e.next = NextHop::Deliver(plan.target);
            self.circuits[plan.src].push(Circuit {
                target: plan.target,
                hops: plan.hops.clone(),
                hop_keys: plan.keys.clone(),
                entry_path: plan.path_ids[0],
                dst_key: leaf.key,
            });
        }
        Ok(self.cround - start)
    }

    /// The expected telescoping duration in C-rounds: `k² + 2k` (§3.4).
    pub fn telescoping_rounds(k: usize) -> u64 {
        (k * k + 2 * k) as u64
    }

    /// The forwarding duration for a query + response in C-rounds:
    /// `2k + 2` (§6.3).
    pub fn forwarding_rounds(k: usize) -> u64 {
        (2 * k + 2) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mycelium_math::rng::{SeedableRng, StdRng};

    fn network(n: usize, k: usize, r: usize) -> (Network, StdRng) {
        let mut rng = StdRng::seed_from_u64(61);
        let cfg = MixnetConfig {
            hops: k,
            replicas: r,
            forwarder_fraction: 0.3,
            degree: 4,
            message_len: 64,
        };
        (Network::new(n, cfg, &mut rng), rng)
    }

    #[test]
    fn telescoping_round_count_matches_paper_formula() {
        for k in [2usize, 3, 4] {
            let (mut net, mut rng) = network(200, k, 1);
            let used = net.telescope(&[(0, vec![5])], &mut rng).unwrap();
            assert_eq!(used, Network::telescoping_rounds(k), "k={k}");
        }
    }

    #[test]
    fn circuits_have_full_state() {
        let (mut net, mut rng) = network(300, 3, 2);
        net.telescope(&[(1, vec![7, 9])], &mut rng).unwrap();
        let circuits = &net.circuits[1];
        assert_eq!(circuits.len(), 2 * 2, "r=2 paths per target");
        for c in circuits {
            assert_eq!(c.hops.len(), 3);
            assert_eq!(c.hop_keys.len(), 3);
            // Hops are drawn from the correct forwarder classes.
            for (i, &h) in c.hops.iter().enumerate() {
                assert_eq!(
                    crate::onion::forwarder_class(h as u64, &net.beacon, 0.3, 3),
                    Some(i),
                    "hop {i}"
                );
            }
            assert_eq!(c.dst_key, net.devices[c.target].keypair.public());
        }
    }

    #[test]
    fn hop_routing_tables_chain() {
        let (mut net, mut rng) = network(300, 3, 1);
        net.telescope(&[(0, vec![10])], &mut rng).unwrap();
        let c = &net.circuits[0][0];
        // Follow the chain from the entry path.
        let mut path = c.entry_path;
        for (i, &h) in c.hops.iter().enumerate() {
            let entry = net.devices[h].routes.get(&path).expect("route exists");
            assert_eq!(entry.key, c.hop_keys[i]);
            match entry.next {
                NextHop::Forward(next) => {
                    assert_eq!(next, c.hops[i + 1]);
                    path = entry.out_path;
                }
                NextHop::Deliver(dst) => {
                    assert_eq!(i, c.hops.len() - 1);
                    assert_eq!(dst, c.target);
                }
                NextHop::Pending => panic!("hop {i} not extended"),
            }
        }
    }

    #[test]
    fn open_complaint_forces_restart() {
        let (mut net, mut rng) = network(200, 2, 1);
        // A device complains pre-emptively about the ACK round.
        let ack_round = 2 + 4 + 2; // Extensions (2+4) plus ACK wait (k=2).
        net.bulletin.post(Entry::Complaint {
            device: 3,
            round: ack_round,
            reason: "no inclusion proof".into(),
        });
        assert!(matches!(
            net.telescope(&[(0, vec![5])], &mut rng),
            Err(SetupError::Restart { complaints: 1 })
        ));
    }

    #[test]
    fn round_formulas() {
        assert_eq!(Network::telescoping_rounds(3), 15);
        assert_eq!(Network::forwarding_rounds(3), 8);
        assert_eq!(Network::telescoping_rounds(2), 8);
    }
}
