//! `mycelium-net`: the real-network transport plane.
//!
//! Everything the repository runs elsewhere as function calls
//! ([`mycelium::run_query_encrypted`]) runs here across real OS
//! processes over loopback TCP — same planning, same cryptography, same
//! bit-exact decoded histogram — and, on the deterministic simnet, as
//! actors driving the same aggregation state ([`run_query_simulated`]).
//! Hermetic like the rest of the workspace: built on `std::net` and the
//! in-repo crypto, no external dependencies.
//!
//! Layers, bottom up:
//!
//! * [`frame`] — length-prefixed frames with a versioned 20-byte header.
//! * [`channel`] — mutually authenticated key agreement (x25519 +
//!   HKDF from `mycelium-crypto`) and AEAD-sealed [`SecureChannel`]s
//!   with strictly sequential per-direction nonces (replay/reorder
//!   rejection for free).
//! * [`server`] / [`client`] — a thread-per-connection request/response
//!   server with a bounded worker pool that answers the requests a
//!   connection has pipelined as one burst behind one durability wait, and
//!   a reconnecting client that keeps a window of requests in flight and
//!   reuses the simulated transport's [`BackoffPolicy`] schedule.
//! * [`codec`] / [`proto`] — validated wire codecs for ciphertexts,
//!   proofs, and decryption shares, and the query-round message set, all
//!   written with the workspace's one byte codec ([`wire`]).
//! * [`journal`] — the aggregator's append-only, checksummed,
//!   fsync'd write-ahead journal: every accepted mutation is durable
//!   before the reply, and a respawned aggregator replays it back to
//!   the exact pre-crash state.
//! * [`round`] — the multi-process round itself: aggregator server,
//!   device/origin/committee client roles, and the driver that spawns
//!   them and runs the one loop that supervises them; and the same round
//!   on the simnet, under a fault plan ([`SimNetConfig`]).
//! * [`session`] — the multi-query session: a privacy-budget ledger
//!   (`mycelium-budget`) admitting, charging, and refusing rounds across
//!   the direct and the simulated executor.
//! * [`chaos`] — the fault-injection plane behind the `chaos_round`
//!   binary: the kill schedules ([`ChaosPlan`]), the one runner for both
//!   fault sources, and the one verdict and report ([`ChaosOutcome`]) that
//!   check the round still ends in a bit-identical histogram or a typed
//!   failure.
//! * [`cli`] — flag parsing and role dispatch shared by the
//!   `net_round` and `chaos_round` binaries.
//! * [`metrics`] — per-kind wire counters and latency series, merged
//!   across processes and reconciled against the analytical cost model
//!   in `mycelium::costs`.
//! * [`netchaos`] — the plane's link-fault source: every server fronts
//!   itself with a seeded [`ChaosProxy`](netchaos::ChaosProxy)
//!   replaying resets, dropped replies, slow-loris stalls, bit flips,
//!   latency, and healing partitions, with a fired-fault ledger that
//!   reconciles against the transport counters.

pub mod channel;
pub mod chaos;
pub mod cli;
pub mod client;
pub mod codec;
pub mod error;
pub mod frame;
pub mod journal;
pub mod metrics;
pub mod netchaos;
pub mod proto;
pub mod round;
pub mod server;
pub mod session;

/// The workspace's one byte codec ([`mycelium_crypto::codec`]), under the
/// path callers of the transport have always named it by. Every
/// [`CodecError`](mycelium_crypto::codec::CodecError) a transport decoder
/// meets reaches its caller through `?` as a typed [`NetError::Decode`]
/// naming the field.
pub mod wire {
    pub use mycelium_crypto::codec::{Reader, Writer};

    #[cfg(test)]
    mod tests {
        use super::*;
        use crate::NetError;

        /// Reads one `u32` field and nothing after it, failing as the
        /// transport's decoders do.
        fn decode_u32(bytes: &[u8]) -> Result<u32, NetError> {
            let mut r = Reader::new(bytes);
            let v = r.u32("seq")?;
            r.end()?;
            Ok(v)
        }

        fn decode_message(e: NetError) -> String {
            match e {
                NetError::Decode(msg) => msg,
                other => panic!("expected a decode failure, got {other:?}"),
            }
        }

        #[test]
        fn roundtrip_primitives() {
            let mut w = Writer::new();
            w.put_u8(7);
            w.put_u32(70_000);
            w.put_u64(1 << 40);
            w.put_i64(-5);
            w.put_f64(1.5);
            w.put_bytes(b"abc");
            w.put_u64_slice(&[1, 2, 3]);
            w.put_str("héllo");
            let bytes = w.finish();
            let mut r = Reader::new(&bytes);
            assert_eq!(r.u8("a").unwrap(), 7);
            assert_eq!(r.u32("b").unwrap(), 70_000);
            assert_eq!(r.u64("c").unwrap(), 1 << 40);
            assert_eq!(r.i64("d").unwrap(), -5);
            assert_eq!(r.f64("e").unwrap(), 1.5);
            assert_eq!(r.bytes("f", 3).unwrap(), b"abc");
            assert_eq!(r.u64s("g", 3).unwrap(), [1, 2, 3]);
            assert_eq!(r.str("h", 16).unwrap(), "héllo");
            r.end().unwrap();
            assert_eq!(decode_u32(&70_000u32.to_le_bytes()).unwrap(), 70_000);
        }

        #[test]
        fn roundtrip_and_limits() {
            let mut w = Writer::new();
            w.put_u8(7);
            w.put_u32(0xAABB_CCDD);
            w.put_u64(u64::MAX);
            w.put_i64(-5);
            w.put_str("hi");
            let bytes = w.finish();
            let mut r = Reader::new(&bytes);
            assert_eq!(r.u8("a").unwrap(), 7);
            assert_eq!(r.u32("b").unwrap(), 0xAABB_CCDD);
            assert_eq!(r.u64("c").unwrap(), u64::MAX);
            assert_eq!(r.i64("d").unwrap(), -5);
            assert_eq!(r.str("e", 16).unwrap(), "hi");
            r.end().unwrap();
            // A limit admits a count equal to it and refuses one above it.
            let mut w = Writer::new();
            w.put_str("four");
            let bytes = w.finish();
            assert_eq!(Reader::new(&bytes).str("f", 4).unwrap(), "four");
            assert!(Reader::new(&bytes).str("f", 3).is_err());
            let mut w = Writer::new();
            w.put_u32_slice(&[1, 2]);
            let bytes = w.finish();
            assert_eq!(Reader::new(&bytes).u32s("g", 2).unwrap(), [1, 2]);
            let e: NetError = Reader::new(&bytes).u32s("g", 1).unwrap_err().into();
            assert!(decode_message(e).contains("g count 2 exceeds limit 1"));
        }

        #[test]
        fn truncation_is_typed() {
            let msg = decode_message(decode_u32(&[1, 2]).unwrap_err());
            assert!(msg.contains("seq"), "{msg}");
        }

        #[test]
        fn oversized_length_prefix_is_typed() {
            // A length prefix claiming more than remains must not allocate
            // or panic, however loose the caller's limit.
            let bytes = u32::MAX.to_le_bytes();
            let unbounded = u32::MAX as usize;
            let e: NetError = Reader::new(&bytes).str("s", unbounded).unwrap_err().into();
            assert!(decode_message(e).contains("input ends inside s"));
            let e: NetError = Reader::new(&bytes).u64s("v", unbounded).unwrap_err().into();
            assert!(decode_message(e).contains("input ends inside v"));
        }

        #[test]
        fn trailing_bytes_detected() {
            let r = Reader::new(&[0]);
            assert!(r.end().is_err());
            let msg = decode_message(decode_u32(&[1, 0, 0, 0, 9]).unwrap_err());
            assert!(msg.contains("1 trailing bytes"), "{msg}");
        }

        #[test]
        fn typed_failures() {
            use mycelium_crypto::codec::CodecError;
            let mut r = Reader::new(&[1, 2]);
            assert!(matches!(r.u32("x"), Err(CodecError::Truncated { .. })));
            let mut w = Writer::new();
            w.put_u32(100);
            let bytes = w.finish();
            let mut r = Reader::new(&bytes);
            assert!(matches!(
                r.count("n", 10),
                Err(CodecError::CountTooLarge { .. })
            ));
            let mut w = Writer::new();
            w.put_u32(2);
            w.put_bytes(&[0xff, 0xfe]);
            let bytes = w.finish();
            let mut r = Reader::new(&bytes);
            let bad_utf8 = r.str("s", 16).unwrap_err();
            assert!(matches!(bad_utf8, CodecError::BadUtf8 { field: "s" }));
            // Every failure is a decode failure once it reaches the transport.
            assert!(decode_message(bad_utf8.into()).contains("s is not valid UTF-8"));
            let r = Reader::new(&[0]);
            assert!(matches!(
                r.end(),
                Err(CodecError::TrailingBytes { extra: 1 })
            ));
        }
    }
}

pub use channel::{Identity, SecureChannel, HANDSHAKE_WIRE_BYTES};
pub use chaos::{ChaosOutcome, ChaosPlan};
pub use client::{Client, ClientConfig, FRAME_OVERHEAD};
pub use error::NetError;
pub use journal::{Journal, JournalError};
pub use metrics::NetMetrics;
pub use netchaos::{ChaosProxy, NetFaultPlan, NetProfile};
pub use round::{
    run_query_simulated, RoundSetup, RoundSpec, SimNetConfig, SimRoundError, SimRoundOutcome,
};
pub use server::{Handler, Server, ServerConfig};
pub use session::{QuerySession, SessionError, SessionRound};

// Re-exported so doc links and downstream users name one source of truth.
pub use mycelium_simnet::BackoffPolicy;

/// Locks a mutex, recovering the guard if a previous holder panicked.
///
/// Hub state is designed idempotent/first-write-wins, so a half-applied
/// mutation from a panicked handler thread cannot corrupt it — whereas
/// std's default poisoning policy (every later `lock().unwrap()` panics
/// too) would wedge the whole server on one bad request. Every lock in
/// the transport plane goes through here.
pub fn lock_recover<T: ?Sized>(m: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}
