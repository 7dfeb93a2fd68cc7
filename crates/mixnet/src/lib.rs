//! Mycelium's anonymous communication layer (§3).
//!
//! Devices must exchange messages with their graph neighbors knowing only
//! pseudonyms, through an untrusted aggregator, without revealing the graph
//! topology. The design is a mix network in which *devices themselves* are
//! the mixes and the aggregator is a mediator holding per-pseudonym
//! mailboxes:
//!
//! * [`bulletin`] — the public bulletin board (blockchain stand-in) that
//!   prevents the aggregator from equivocating.
//! * [`maps`] — the verifiable maps `M1` (pseudonym number → pseudonym,
//!   public key, device number) and `M2` (device number → pseudonym
//!   hashes), Merkle-committed and audited by devices (§3.3).
//! * [`mailbox`] — per-pseudonym mailboxes with per-C-round Merkle
//!   commitments (mailbox MHTs under a C-round MHT), inclusion proofs for
//!   senders, and drop detection for receivers.
//! * [`onion`] — hop selection via the beacon-keyed PRF buckets (§3.4) and
//!   layered encryption: an authenticated inner layer (source ↔
//!   destination) under MAC-less stream-cipher middle layers, so that
//!   forwarders can substitute undetectable dummies (§3.5).
//! * [`circuit`] — the telescoping path-setup protocol (`k² + 2k`
//!   C-rounds), with ACKs and bulletin-board complaints.
//! * [`forward`] — per-round message forwarding (`k + 1` C-rounds each
//!   way), batch mixing, and dummy substitution for dropped messages.
//! * [`simtransport`] — circuit setup and onion forwarding re-hosted as
//!   message-passing actors on the deterministic simnet, recovering
//!   dropped messages by timeout + bounded-backoff retry.
//! * [`analysis`] — the Figure 5 curves: anonymity-set size,
//!   identification probability, goodput under failures, and protocol
//!   duration, both closed-form and by Monte-Carlo simulation.

pub mod analysis;
pub mod bulletin;
pub mod circuit;
pub mod forward;
pub mod mailbox;
pub mod maps;
pub mod onion;
pub mod simtransport;

pub use bulletin::BulletinBoard;
pub use maps::{DeviceRegistration, VerifiableMaps};
