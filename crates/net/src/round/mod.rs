//! The encrypted query round across real OS processes.
//!
//! [`mycelium::run_query_encrypted`] executes the round as function
//! calls and [`mycelium::run_query_simulated`] as actors on a virtual
//! clock; this module executes the *same* round (same planning and
//! cryptographic building blocks from `mycelium::plan`) as separate
//! processes exchanging BGV ciphertexts, ZKP transcripts, and threshold
//! decryption shares over encrypted loopback TCP channels.
//!
//! ## Topology
//!
//! The **aggregator** is the only server (a hub). Devices, origins,
//! committee members, and the driver are its clients; what each role
//! computes is [`mycelium::roles`], this module is the messaging. A client
//! never sleeps between asks: a request whose answer is "not yet" is held
//! by the server ([`PARK`]) until the answer exists.
//!
//! * **Device processes** shard the per-vertex contribution duties and
//!   push each (`PushContrib`), up to [`WINDOW`] in flight per link while
//!   the next is being encrypted, until all are acked, then exit.
//! * **Origin processes** shard the per-vertex origin work. A process does
//!   not walk its vertices in order: `PullReady` names every origin it
//!   still owes, and the server hands over whichever of their rows are
//!   ready — the verified slot ciphertexts, with holes once the
//!   contribution deadline passed (§4.4) — a [`BATCH`] at the most, holding
//!   the request while none is. The process combines and submits: the next
//!   batch asked for before this one is combined, a submission's `Ack` read
//!   only when the next batch arrives behind it, one such loop per intake
//!   shard. So origins combine while devices still push, and the round ends
//!   with intake instead of a queue of rows behind it. (`PullOrigin`, one
//!   named row, is the same routine's one-origin case.)
//! * **Committee processes** ask `CommitteeCheckIn` (carrying their
//!   joint-noise seed) and are handed a `CommitteeShareTask` once the
//!   participant set is agreed, then a `CertSignTask`.
//! * **The driver** spawns everyone, watches child exits (respawning a
//!   crashed origin once — all protocol state lives at the aggregator,
//!   so a respawned origin recovers by pulling, and is handed only the
//!   rows nobody has submitted), asks `PullStatus`,
//!   and merges every process's wire metrics into one JSON artifact.
//!
//! ## Durability
//!
//! The aggregator's [`AggState`] is crash-durable: every accepted,
//! state-mutating request and every wall-clock phase transition is
//! logged to a write-ahead [`Journal`] (made durable — one group-commit
//! `fsync` covers every handler waiting on it — before the reply goes
//! out), so a `kill -9` at any protocol step loses nothing. A respawned
//! aggregator replays the journal, rebuilds bit-identical state
//! (verified against embedded state-digest checkpoints), rebinds a
//! fresh port, and publishes it via the `agg.addr` file; clients
//! re-resolve the address whenever their retries exhaust. The chaos
//! supervisor in [`super::chaos`] exercises exactly this path.
//!
//! ## Determinism
//!
//! Every process rebuilds the population, keys, key shares, query plan,
//! and all transport identities from the shared `(seed, n, query)`
//! arguments — no key material ever crosses the wire. Decryption is
//! exact, so the decoded pre-noise histogram depends only on the
//! population and query, never on encryption randomness: the
//! multi-process round is bit-identical to the in-process executor.
//! All requests are idempotent (first write wins at the aggregator), so
//! the client layer's at-least-once retry is safe — including across
//! aggregator respawns.
//!
//! ## Map
//!
//! * `spec` — what a round is: [`RoundSpec`], [`build_setup`], the outcome
//!   and file formats, [`PARK`] / [`WINDOW`] / [`BATCH`].
//! * `agg` — one aggregation process's state and journal ([`AggState`]).
//! * `serve` — that state behind a server ([`SharedAgg`]: parking, row
//!   replies), [`run_aggregator`] and [`run_shard`].
//! * `clients` — the links to it, [`run_device`] / [`run_origin`] /
//!   [`run_committee`]; they name no server state.
//! * `driver` — the process tree ([`Supervised`]) and [`run_driver`].
//!
//! `spec ← agg ← serve` and `spec ← clients ← driver`; a shard is also the
//! coordinator's client, so `serve` uses `clients`. No edge runs back.
//!
//! [`Journal`]: crate::Journal

mod agg;
mod clients;
mod driver;
mod serve;
mod spec;

pub use agg::{AggFaults, AggState};
pub(crate) use clients::HubClient;
pub use clients::{run_committee, run_device, run_origin};
pub(crate) use driver::{client_names, RoundTree};
pub use driver::{run_driver, DriverOpts, Supervised};
pub use serve::{run_aggregator, run_shard, SharedAgg};
pub use spec::{
    build_population, build_setup, decode_outcome, encode_outcome, files, read_addr_file,
    read_named_addr_file, role, shard_of, BudgetCfg, NetProfile, RoundOutcome, RoundSetup,
    RoundSpec, BATCH, PARK, WINDOW,
};
