//! The query-round application protocol.
//!
//! The aggregator is the only server; devices, origins, and committee
//! members are polling clients (a hub topology — contributions and
//! origin submissions live at the aggregator, which is what lets a
//! crashed-and-respawned origin resume from nothing but its role
//! arguments). Every request is *idempotent*: pushing the same
//! contribution, submission, or share twice is indistinguishable from
//! pushing it once, so the client's at-least-once retry is safe.

use std::ops::Range;

use mycelium::plan::{ciphertext_len, SignedContribution};
use mycelium_bgv::Ciphertext;
use mycelium_cert::OriginCommit;
use mycelium_crypto::codec::{CodecError, Reader, Writer};
use mycelium_sharing::DecryptionShare;

use crate::codec::{
    decode_ciphertext, decode_contribution, decode_opt_ciphertext, decode_share, encode_ciphertext,
    encode_contribution, encode_opt_ciphertext, encode_share, CodecCtx, PutCiphertext,
};
use crate::error::NetError;

/// One origin's neighbourhood row as it is handed over: a ciphertext per
/// contribution slot, `None` for a slot whose device never delivered (the
/// origin substitutes a neutral ciphertext).
pub type OriginRow = Vec<Option<Ciphertext>>;

/// One protocol message (request or reply).
#[derive(Clone)]
pub enum NetMsg {
    /// Device → aggregator: a contribution for one slot of one origin's
    /// neighbourhood row.
    PushContrib {
        /// Destination origin index.
        origin: u32,
        /// Slot in that origin's request list.
        slot: u32,
        /// The ciphertext (and optional well-formedness proof).
        sc: Box<SignedContribution>,
    },
    /// Origin → aggregator: are my contribution slots filled yet?
    PullOrigin {
        /// The asking origin's index.
        origin: u32,
    },
    /// Origin process → aggregator: whichever of these origins' rows can be
    /// handed over now. `want` names every origin the process still owes a
    /// submission for and holds no row of; the reply is [`NetMsg::ReadyRows`],
    /// or `OriginPending` when some are owed and none is ready.
    PullReady {
        /// The origins asked about.
        want: Vec<u32>,
    },
    /// Origin → aggregator: my combined row ciphertext.
    SubmitOrigin {
        /// The submitting origin's index.
        origin: u32,
        /// The homomorphically combined result.
        ct: Box<Ciphertext>,
    },
    /// Committee member → aggregator: alive, with my noise seed.
    CommitteeCheckIn {
        /// Member id.
        member: u64,
        /// This member's contribution to the joint DP noise seed.
        seed: [u8; 32],
    },
    /// Committee member → aggregator: my threshold decryption share.
    PushShare {
        /// Member id.
        member: u64,
        /// Participant-set attempt this share belongs to.
        round: u32,
        /// The partial decryption.
        share: Box<DecryptionShare>,
    },
    /// Driver → aggregator: is the round finished?
    PullStatus,
    /// Shard → coordinator: the shard's sealed partial sum (its root) over
    /// its owned origins, plus the devices it rejected.
    /// Idempotent: the coordinator keeps the first root per shard.
    ShardRoot {
        /// The sending shard's index.
        shard: u32,
        /// Devices whose contributions failed proof verification at
        /// this shard (the coordinator unions them into the outcome).
        rejected: Vec<u32>,
        /// Frozen per-origin contribution commitments for the origins
        /// this shard owns; the coordinator folds them into the round
        /// certificate's commitment tree.
        commits: Vec<OriginCommit>,
        /// The shard's homomorphically combined partial aggregate.
        root: Box<Ciphertext>,
    },
    /// Shard → coordinator: is the round finished? (Cheap poll so a
    /// shard can linger for late retries and exit when the round ends.)
    PullShardStatus {
        /// The asking shard's index.
        shard: u32,
    },
    /// Committee member → aggregator: an ed25519 signature over the
    /// round certificate's transcript digest. Idempotent (first wins).
    PushCertSig {
        /// Member id.
        member: u64,
        /// Detached signature over the transcript.
        sig: [u8; 64],
    },

    /// Generic acknowledgement.
    Ack,
    /// Reply to `PullOrigin`: not all slots verified yet.
    OriginPending {
        /// Slots filled and verified so far.
        have: u32,
        /// Slots required.
        need: u32,
    },
    /// Reply to `PullOrigin`: all slots resolved; `None` marks a slot
    /// whose device never delivered (the origin substitutes a neutral
    /// ciphertext).
    OriginJob {
        /// Per-slot contribution ciphertexts.
        cts: OriginRow,
    },
    /// Reply to `PullReady`: the wanted rows that are ready (every slot
    /// resolved, as in `OriginJob`), a bounded number of them, each under its
    /// origin's index. Empty: the aggregator already holds a submission for
    /// every origin named, so nothing is owed.
    ReadyRows {
        /// `(origin, per-slot contribution ciphertexts)`.
        rows: Vec<(u32, OriginRow)>,
    },
    /// Reply to committee polls: nothing to do yet.
    CommitteeWait,
    /// Reply to a check-in once the aggregate is ready and this member
    /// is in the participant set.
    CommitteeShareTask {
        /// Participant-set attempt number.
        round: u32,
        /// The chosen participant set (determines Lagrange coefficients).
        participants: Vec<u64>,
        /// The aggregate ciphertext to partially decrypt.
        ct: Box<Ciphertext>,
    },
    /// Reply to a committee check-in once the round certificate's
    /// transcript is fixed and this member's signature is still missing.
    CertSignTask {
        /// The certificate transcript digest to sign.
        transcript: [u8; 32],
    },
    /// Reply to `PullStatus` / committee polls once the result is out.
    Finished,
}

const MAX_SLOTS: usize = 1 << 16;

/// The one encoding of a row, whichever reply carries it and however its
/// holder keeps the ciphertexts.
fn put_row<'a, C: PutCiphertext + 'a>(
    w: &mut Writer,
    slots: impl ExactSizeIterator<Item = Option<&'a C>>,
) {
    w.put_u32(slots.len() as u32);
    for ct in slots {
        encode_opt_ciphertext(w, ct);
    }
}

fn get_row(r: &mut Reader, cc: &CodecCtx) -> Result<OriginRow, NetError> {
    r.seq("row slots", MAX_SLOTS, |r| decode_opt_ciphertext(r, cc))
}

impl NetMsg {
    /// The [`kind`](Self::kind)s a server handles: the requests (every
    /// other kind is a reply).
    pub const REQUEST_KINDS: [&'static str; 10] = [
        "PushContrib",
        "PullOrigin",
        "PullReady",
        "SubmitOrigin",
        "CommitteeCheckIn",
        "PushShare",
        "PullStatus",
        "ShardRoot",
        "PullShardStatus",
        "PushCertSig",
    ];

    /// Stable label for metrics attribution.
    pub fn kind(&self) -> &'static str {
        match self {
            NetMsg::PushContrib { .. } => "PushContrib",
            NetMsg::PullOrigin { .. } => "PullOrigin",
            NetMsg::PullReady { .. } => "PullReady",
            NetMsg::SubmitOrigin { .. } => "SubmitOrigin",
            NetMsg::CommitteeCheckIn { .. } => "CommitteeCheckIn",
            NetMsg::PushShare { .. } => "PushShare",
            NetMsg::PullStatus => "PullStatus",
            NetMsg::ShardRoot { .. } => "ShardRoot",
            NetMsg::PullShardStatus { .. } => "PullShardStatus",
            NetMsg::PushCertSig { .. } => "PushCertSig",
            NetMsg::Ack => "Ack",
            NetMsg::OriginPending { .. } => "OriginPending",
            NetMsg::OriginJob { .. } => "OriginJob",
            NetMsg::ReadyRows { .. } => "ReadyRows",
            NetMsg::CommitteeWait => "CommitteeWait",
            NetMsg::CommitteeShareTask { .. } => "CommitteeShareTask",
            NetMsg::CertSignTask { .. } => "CertSignTask",
            NetMsg::Finished => "Finished",
        }
    }

    /// Where the ciphertext a request carries lies in its encoding — a
    /// device's contribution, an origin's submission, a shard's root — and
    /// `None` for every other message. `NetMsg::decode` validated those
    /// bytes, and the encoding is canonical, so they are the ciphertext's
    /// own encoding.
    pub fn ciphertext_span(&self) -> Option<Range<usize>> {
        let (start, ct) = match self {
            // Tag, origin, slot, device.
            NetMsg::PushContrib { sc, .. } => (1 + 4 + 4 + 4, &sc.ct),
            // Tag, origin.
            NetMsg::SubmitOrigin { ct, .. } => (1 + 4, &**ct),
            // Tag, shard, the reject list, then the commitments (origin,
            // leaf, accepted, rejected), each list behind its count.
            NetMsg::ShardRoot {
                rejected,
                commits,
                root,
                ..
            } => (
                1 + 4 + 4 + 4 * rejected.len() + 4 + 44 * commits.len(),
                &**root,
            ),
            _ => return None,
        };
        Some(start..start + ciphertext_len(ct))
    }

    /// Serializes the message into a buffer of its own.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        self.encode_into(&mut w);
        w.finish()
    }

    /// Writes an `OriginJob` over `slots` — the row as whoever holds it
    /// holds it, so the aggregator copies its parked ciphertexts' bytes.
    pub fn put_origin_job<'a, C: PutCiphertext + 'a>(
        w: &mut Writer,
        slots: impl ExactSizeIterator<Item = Option<&'a C>>,
    ) {
        w.put_u8(18);
        put_row(w, slots);
    }

    /// Writes a `ReadyRows` over `rows`, each row as in
    /// [`put_origin_job`](Self::put_origin_job).
    pub fn put_ready_rows<'a, C, R>(w: &mut Writer, rows: impl ExactSizeIterator<Item = (u32, R)>)
    where
        C: PutCiphertext + 'a,
        R: ExactSizeIterator<Item = Option<&'a C>>,
    {
        w.put_u8(23);
        w.put_u32(rows.len() as u32);
        for (origin, slots) in rows {
            w.put_u32(origin);
            put_row(w, slots);
        }
    }

    /// Writes a `CommitteeShareTask` over `ct`, held as in
    /// [`put_origin_job`](Self::put_origin_job).
    pub fn put_share_task(
        w: &mut Writer,
        round: u32,
        participants: &[u64],
        ct: &impl PutCiphertext,
    ) {
        w.put_u8(20);
        w.put_u32(round);
        w.put_u64_slice(participants);
        ct.put_into(w);
    }

    /// Serializes the message behind whatever `w` already holds.
    pub fn encode_into(&self, w: &mut Writer) {
        match self {
            NetMsg::PushContrib { origin, slot, sc } => {
                w.put_u8(1);
                w.put_u32(*origin);
                w.put_u32(*slot);
                encode_contribution(w, sc);
            }
            NetMsg::PullOrigin { origin } => {
                w.put_u8(2);
                w.put_u32(*origin);
            }
            NetMsg::PullReady { want } => {
                w.put_u8(10);
                w.put_u32_slice(want);
            }
            NetMsg::SubmitOrigin { origin, ct } => {
                w.put_u8(3);
                w.put_u32(*origin);
                encode_ciphertext(w, ct);
            }
            NetMsg::CommitteeCheckIn { member, seed } => {
                w.put_u8(4);
                w.put_u64(*member);
                w.put_bytes(seed);
            }
            NetMsg::PushShare {
                member,
                round,
                share,
            } => {
                w.put_u8(5);
                w.put_u64(*member);
                w.put_u32(*round);
                encode_share(w, share);
            }
            NetMsg::PullStatus => w.put_u8(6),
            NetMsg::ShardRoot {
                shard,
                rejected,
                commits,
                root,
            } => {
                w.put_u8(7);
                w.put_u32(*shard);
                w.put_u32_slice(rejected);
                w.put_seq(commits, |w, c| {
                    w.put_u32(c.origin);
                    w.put_bytes(&c.leaf);
                    w.put_u32(c.accepted);
                    w.put_u32(c.rejected);
                });
                encode_ciphertext(w, root);
            }
            NetMsg::PullShardStatus { shard } => {
                w.put_u8(8);
                w.put_u32(*shard);
            }
            NetMsg::PushCertSig { member, sig } => {
                w.put_u8(9);
                w.put_u64(*member);
                w.put_bytes(sig);
            }
            NetMsg::Ack => w.put_u8(16),
            NetMsg::OriginPending { have, need } => {
                w.put_u8(17);
                w.put_u32(*have);
                w.put_u32(*need);
            }
            NetMsg::OriginJob { cts } => {
                NetMsg::put_origin_job(w, cts.iter().map(Option::as_ref));
            }
            NetMsg::ReadyRows { rows } => {
                let rows = rows.iter();
                let rows = rows.map(|(origin, cts)| (*origin, cts.iter().map(Option::as_ref)));
                NetMsg::put_ready_rows(w, rows);
            }
            NetMsg::CommitteeWait => w.put_u8(19),
            NetMsg::CommitteeShareTask {
                round,
                participants,
                ct,
            } => NetMsg::put_share_task(w, *round, participants, ct.as_ref()),
            NetMsg::CertSignTask { transcript } => {
                w.put_u8(22);
                w.put_bytes(transcript);
            }
            NetMsg::Finished => w.put_u8(21),
        }
    }

    /// Deserializes a message, validating every field.
    pub fn decode(bytes: &[u8], cc: &CodecCtx) -> Result<NetMsg, NetError> {
        let mut r = Reader::new(bytes);
        let msg = match r.u8("message")? {
            1 => NetMsg::PushContrib {
                origin: r.u32("origin")?,
                slot: r.u32("slot")?,
                sc: Box::new(decode_contribution(&mut r, cc)?),
            },
            2 => NetMsg::PullOrigin {
                origin: r.u32("origin")?,
            },
            3 => NetMsg::SubmitOrigin {
                origin: r.u32("origin")?,
                ct: Box::new(decode_ciphertext(&mut r, cc)?),
            },
            4 => NetMsg::CommitteeCheckIn {
                member: r.u64("member")?,
                seed: r.array("noise seed")?,
            },
            5 => NetMsg::PushShare {
                member: r.u64("member")?,
                round: r.u32("share round")?,
                share: Box::new(decode_share(&mut r, cc)?),
            },
            6 => NetMsg::PullStatus,
            7 => NetMsg::ShardRoot {
                shard: r.u32("shard")?,
                rejected: r.u32s("rejected", MAX_SLOTS)?,
                commits: r.seq("origin commits", MAX_SLOTS, |r| -> Result<_, CodecError> {
                    Ok(OriginCommit {
                        origin: r.u32("commit origin")?,
                        leaf: r.array("commit leaf")?,
                        accepted: r.u32("commit accepted")?,
                        rejected: r.u32("commit rejected")?,
                    })
                })?,
                root: Box::new(decode_ciphertext(&mut r, cc)?),
            },
            8 => NetMsg::PullShardStatus {
                shard: r.u32("shard")?,
            },
            9 => NetMsg::PushCertSig {
                member: r.u64("member")?,
                sig: r.array("certificate signature")?,
            },
            10 => NetMsg::PullReady {
                want: r.u32s("want", MAX_SLOTS)?,
            },
            16 => NetMsg::Ack,
            17 => NetMsg::OriginPending {
                have: r.u32("slots filled")?,
                need: r.u32("slots required")?,
            },
            18 => NetMsg::OriginJob {
                cts: get_row(&mut r, cc)?,
            },
            19 => NetMsg::CommitteeWait,
            20 => NetMsg::CommitteeShareTask {
                round: r.u32("share round")?,
                participants: r.u64s("participants", MAX_SLOTS)?,
                ct: Box::new(decode_ciphertext(&mut r, cc)?),
            },
            21 => NetMsg::Finished,
            22 => NetMsg::CertSignTask {
                transcript: r.array("transcript")?,
            },
            23 => NetMsg::ReadyRows {
                rows: r.seq("ready rows", MAX_SLOTS, |r| -> Result<_, NetError> {
                    Ok((r.u32("row origin")?, get_row(r, cc)?))
                })?,
            },
            tag => return CodecError::bad_tag("message", tag),
        };
        r.end()?;
        Ok(msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mycelium_bgv::BgvParams;

    #[test]
    fn plain_messages_roundtrip() {
        let cc = CodecCtx::new(&BgvParams::test_small());
        for msg in [
            NetMsg::PullOrigin { origin: 3 },
            NetMsg::CommitteeCheckIn {
                member: 2,
                seed: [7u8; 32],
            },
            NetMsg::PullStatus,
            NetMsg::PullShardStatus { shard: 2 },
            NetMsg::PushCertSig {
                member: 3,
                sig: [0xA5u8; 64],
            },
            NetMsg::Ack,
            NetMsg::OriginPending { have: 2, need: 5 },
            NetMsg::CommitteeWait,
            NetMsg::CertSignTask {
                transcript: [0x42u8; 32],
            },
            NetMsg::Finished,
        ] {
            let kind = msg.kind();
            let back = NetMsg::decode(&msg.encode(), &cc).unwrap();
            assert_eq!(back.kind(), kind);
            // Requests are tagged below 16 on the wire, replies from 16.
            let request = msg.encode()[0] < 16;
            assert_eq!(NetMsg::REQUEST_KINDS.contains(&kind), request, "{kind}");
        }
    }

    #[test]
    fn cert_messages_roundtrip_field_exact() {
        let cc = CodecCtx::new(&BgvParams::test_small());
        let sig_msg = NetMsg::PushCertSig {
            member: 9,
            sig: core::array::from_fn(|i| i as u8),
        };
        match NetMsg::decode(&sig_msg.encode(), &cc).unwrap() {
            NetMsg::PushCertSig { member, sig } => {
                assert_eq!(member, 9);
                assert_eq!(sig, core::array::from_fn(|i| i as u8));
            }
            other => panic!("wrong decode: {}", other.kind()),
        }
        let task = NetMsg::CertSignTask {
            transcript: core::array::from_fn(|i| 31 - i as u8),
        };
        match NetMsg::decode(&task.encode(), &cc).unwrap() {
            NetMsg::CertSignTask { transcript } => {
                assert_eq!(transcript, core::array::from_fn(|i| 31 - i as u8));
            }
            other => panic!("wrong decode: {}", other.kind()),
        }
    }

    /// Satellite: fuzz-style decoding — random byte strings through the
    /// full message decoder must never panic; they either decode cleanly
    /// or fail with a typed [`NetError::Decode`].
    #[test]
    fn random_bytes_never_panic_the_decoder() {
        use mycelium_math::rng::{Rng, RngCore, SeedableRng, StdRng};
        let cc = CodecCtx::new(&BgvParams::test_small());
        let mut rng = StdRng::seed_from_u64(0xF02);
        for round in 0..2048 {
            let len = (rng.next_u64() % 512) as usize;
            let mut buf = vec![0u8; len];
            rng.fill(&mut buf[..]);
            if round % 4 == 0 && !buf.is_empty() {
                // Bias toward real tags so deep field decoders get hit.
                buf[0] = [1, 3, 4, 5, 7, 9, 10, 18, 20, 22, 23][round % 11];
            }
            match NetMsg::decode(&buf, &cc) {
                Ok(_) => {}
                Err(NetError::Decode(_)) => {}
                Err(e) => panic!("fuzz round {round}: untyped failure {e:?}"),
            }
        }
    }

    #[test]
    fn trailing_garbage_rejected() {
        let cc = CodecCtx::new(&BgvParams::test_small());
        let mut bytes = NetMsg::Ack.encode();
        bytes.push(0);
        assert!(matches!(
            NetMsg::decode(&bytes, &cc),
            Err(NetError::Decode(_))
        ));
    }

    #[test]
    fn unknown_tag_rejected() {
        let cc = CodecCtx::new(&BgvParams::test_small());
        assert!(matches!(
            NetMsg::decode(&[200], &cc),
            Err(NetError::Decode(_))
        ));
    }

    #[test]
    fn ready_row_pull_and_its_rows_roundtrip_field_exact() {
        use mycelium_bgv::{KeySet, Plaintext};
        use mycelium_math::rng::{SeedableRng, StdRng};
        let params = BgvParams::test_small();
        let mut rng = StdRng::seed_from_u64(5);
        let keys = KeySet::generate(&params, &mut rng);
        let cc = CodecCtx::with_context(std::sync::Arc::clone(keys.public.context()), &params);

        let pull = NetMsg::PullReady {
            want: vec![7, 0, 93],
        };
        match NetMsg::decode(&pull.encode(), &cc).unwrap() {
            NetMsg::PullReady { want } => assert_eq!(want, [7, 0, 93]),
            other => panic!("wrong decode: {}", other.kind()),
        }

        let pt = Plaintext::zero(params.n, params.plaintext_modulus);
        let ct = Ciphertext::encrypt(&keys.public, &pt, &mut rng).unwrap();
        let rows = NetMsg::ReadyRows {
            rows: vec![(93, vec![Some(ct.clone()), None]), (7, vec![])],
        };
        let bytes = rows.encode();
        let NetMsg::ReadyRows { rows: back } = NetMsg::decode(&bytes, &cc).unwrap() else {
            panic!("wrong decode");
        };
        let shape = |rows: &[(u32, OriginRow)]| -> Vec<(u32, Vec<bool>)> {
            let filled = |cts: &OriginRow| cts.iter().map(Option::is_some).collect();
            rows.iter().map(|(o, cts)| (*o, filled(cts))).collect()
        };
        assert_eq!(shape(&back), [(93, vec![true, false]), (7, vec![])]);
        // Re-encoding is the identity, so the ciphertext came back whole.
        assert_eq!(NetMsg::ReadyRows { rows: back }.encode(), bytes);
        // A row is the same bytes whichever reply carries it: `OriginJob` is
        // its tag and the row, `ReadyRows` tag, count, origin and the row.
        let row = vec![Some(ct), None];
        let one = NetMsg::ReadyRows {
            rows: vec![(93, row.clone())],
        };
        let job = NetMsg::OriginJob { cts: row };
        assert_eq!(job.encode()[1..], one.encode()[9..]);
        // The empty batch is a message of its own, not a missing reply.
        let empty = NetMsg::ReadyRows { rows: Vec::new() };
        assert!(matches!(
            NetMsg::decode(&empty.encode(), &cc).unwrap(),
            NetMsg::ReadyRows { rows } if rows.is_empty()
        ));
    }

    #[test]
    fn a_ciphertext_span_is_where_the_encoding_puts_the_ciphertext() {
        use crate::codec::encode_ciphertext;
        use mycelium_bgv::{KeySet, Plaintext};
        use mycelium_math::rng::{SeedableRng, StdRng};
        let params = BgvParams::test_small();
        let mut rng = StdRng::seed_from_u64(6);
        let keys = KeySet::generate(&params, &mut rng);
        let pt = Plaintext::zero(params.n, params.plaintext_modulus);
        let ct = Ciphertext::encrypt_at_level(&keys.public, &pt, 3, &mut rng).unwrap();
        let mut w = Writer::new();
        encode_ciphertext(&mut w, &ct);
        let want = w.finish();
        let commit = |origin| OriginCommit {
            origin,
            leaf: [origin as u8; 32],
            accepted: 2,
            rejected: 1,
        };
        let sc = SignedContribution {
            device: 9,
            ct: ct.clone(),
            proof: None,
        };
        for msg in [
            NetMsg::PushContrib {
                origin: 4,
                slot: 1,
                sc: Box::new(sc),
            },
            NetMsg::SubmitOrigin {
                origin: 4,
                ct: Box::new(ct.clone()),
            },
            NetMsg::ShardRoot {
                shard: 2,
                rejected: vec![5, 8, 13],
                commits: vec![commit(3), commit(7)],
                root: Box::new(ct.clone()),
            },
        ] {
            let bytes = msg.encode();
            let at = msg.ciphertext_span().expect("it carries a ciphertext");
            let kind = msg.kind();
            assert_eq!(bytes[at.clone()], want, "{kind}");
            // Only a contribution has something behind it: its proof option.
            let behind = bytes.len() - at.end;
            assert_eq!(behind, (kind == "PushContrib") as usize, "{kind}");
        }
        for msg in [NetMsg::PullOrigin { origin: 4 }, NetMsg::Ack] {
            assert_eq!(msg.ciphertext_span(), None, "{}", msg.kind());
        }
    }

    #[test]
    fn oversized_want_and_row_counts_are_typed_decode_errors() {
        let cc = CodecCtx::new(&BgvParams::test_small());
        // A `want` list one past the cap, every word present.
        let mut w = Writer::new();
        w.put_u8(10);
        w.put_u32_slice(&vec![0u32; MAX_SLOTS + 1]);
        assert!(matches!(
            NetMsg::decode(&w.finish(), &cc),
            Err(NetError::Decode(_))
        ));
        // At the cap it decodes.
        let at_cap = NetMsg::PullReady {
            want: vec![0; MAX_SLOTS],
        };
        assert!(NetMsg::decode(&at_cap.encode(), &cc).is_ok());
        // A `want` list that claims more words than the frame holds.
        let mut w = Writer::new();
        w.put_u8(10);
        w.put_u32(3);
        w.put_u32(1);
        assert!(matches!(
            NetMsg::decode(&w.finish(), &cc),
            Err(NetError::Decode(_))
        ));
        // A row count past the cap is refused before anything is allocated
        // for it, and so is a row's slot count.
        for body in [vec![MAX_SLOTS as u32 + 1], vec![1, 0, MAX_SLOTS as u32 + 1]] {
            let mut w = Writer::new();
            w.put_u8(23);
            body.iter().for_each(|&word| w.put_u32(word));
            assert!(matches!(
                NetMsg::decode(&w.finish(), &cc),
                Err(NetError::Decode(_))
            ));
        }
    }
}
