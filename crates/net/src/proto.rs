//! The query-round application protocol.
//!
//! The aggregator is the only server; devices, origins, and committee
//! members are polling clients (a hub topology — contributions and
//! origin submissions live at the aggregator, which is what lets a
//! crashed-and-respawned origin resume from nothing but its role
//! arguments). Every request is *idempotent*: pushing the same
//! contribution, submission, or share twice is indistinguishable from
//! pushing it once, so the client's at-least-once retry is safe.

use mycelium::plan::SignedContribution;
use mycelium_bgv::Ciphertext;
use mycelium_cert::OriginCommit;
use mycelium_sharing::DecryptionShare;

use crate::codec::{
    decode_ciphertext, decode_contribution, decode_opt_ciphertext, decode_share, encode_ciphertext,
    encode_contribution, encode_opt_ciphertext, encode_share, CodecCtx,
};
use crate::error::NetError;
use crate::wire::{Reader, Writer};

/// One protocol message (request or reply).
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
    /// Shard → coordinator: the shard's sealed partial summation-tree
    /// root over its owned origins, plus the devices it rejected.
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
        cts: Vec<Option<Ciphertext>>,
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

impl NetMsg {
    /// Stable label for metrics attribution.
    pub fn kind(&self) -> &'static str {
        match self {
            NetMsg::PushContrib { .. } => "PushContrib",
            NetMsg::PullOrigin { .. } => "PullOrigin",
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
            NetMsg::CommitteeWait => "CommitteeWait",
            NetMsg::CommitteeShareTask { .. } => "CommitteeShareTask",
            NetMsg::CertSignTask { .. } => "CertSignTask",
            NetMsg::Finished => "Finished",
        }
    }

    /// Serializes the message into a buffer of its own.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        self.encode_into(&mut w);
        w.finish()
    }

    /// Writes an `OriginJob` over `slots` — the row as whoever holds it
    /// holds it, so the aggregator encodes its parked ciphertexts where
    /// they lie.
    pub fn put_origin_job<'a>(
        w: &mut Writer,
        slots: impl ExactSizeIterator<Item = Option<&'a Ciphertext>>,
    ) {
        w.put_u8(18);
        w.put_u32(slots.len() as u32);
        for ct in slots {
            encode_opt_ciphertext(w, ct);
        }
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
                w.put_u32(commits.len() as u32);
                for c in commits {
                    w.put_u32(c.origin);
                    w.put_bytes(&c.leaf);
                    w.put_u32(c.accepted);
                    w.put_u32(c.rejected);
                }
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
            NetMsg::CommitteeWait => w.put_u8(19),
            NetMsg::CommitteeShareTask {
                round,
                participants,
                ct,
            } => {
                w.put_u8(20);
                w.put_u32(*round);
                w.put_u64_slice(participants);
                encode_ciphertext(w, ct);
            }
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
        let msg = match r.get_u8()? {
            1 => NetMsg::PushContrib {
                origin: r.get_u32()?,
                slot: r.get_u32()?,
                sc: Box::new(decode_contribution(&mut r, cc)?),
            },
            2 => NetMsg::PullOrigin {
                origin: r.get_u32()?,
            },
            3 => NetMsg::SubmitOrigin {
                origin: r.get_u32()?,
                ct: Box::new(decode_ciphertext(&mut r, cc)?),
            },
            4 => NetMsg::CommitteeCheckIn {
                member: r.get_u64()?,
                seed: r.get_array32()?,
            },
            5 => NetMsg::PushShare {
                member: r.get_u64()?,
                round: r.get_u32()?,
                share: Box::new(decode_share(&mut r, cc)?),
            },
            6 => NetMsg::PullStatus,
            7 => {
                let shard = r.get_u32()?;
                let rejected = r.get_u32_vec()?;
                if rejected.len() > MAX_SLOTS {
                    return Err(NetError::Decode("oversized rejected set".into()));
                }
                let n_commits = r.get_u32()? as usize;
                if n_commits > MAX_SLOTS {
                    return Err(NetError::Decode(format!(
                        "shard root with {n_commits} origin commits"
                    )));
                }
                let mut commits = Vec::with_capacity(n_commits);
                for _ in 0..n_commits {
                    commits.push(OriginCommit {
                        origin: r.get_u32()?,
                        leaf: r.get_array32()?,
                        accepted: r.get_u32()?,
                        rejected: r.get_u32()?,
                    });
                }
                let root = Box::new(decode_ciphertext(&mut r, cc)?);
                NetMsg::ShardRoot {
                    shard,
                    rejected,
                    commits,
                    root,
                }
            }
            8 => NetMsg::PullShardStatus {
                shard: r.get_u32()?,
            },
            9 => NetMsg::PushCertSig {
                member: r.get_u64()?,
                sig: r.get_bytes(64)?.try_into().expect("64 bytes"),
            },
            16 => NetMsg::Ack,
            17 => NetMsg::OriginPending {
                have: r.get_u32()?,
                need: r.get_u32()?,
            },
            18 => {
                let n = r.get_u32()? as usize;
                if n > MAX_SLOTS {
                    return Err(NetError::Decode(format!("origin job with {n} slots")));
                }
                let mut cts = Vec::with_capacity(n);
                for _ in 0..n {
                    cts.push(decode_opt_ciphertext(&mut r, cc)?);
                }
                NetMsg::OriginJob { cts }
            }
            19 => NetMsg::CommitteeWait,
            20 => {
                let round = r.get_u32()?;
                let participants = r.get_u64_vec()?;
                if participants.len() > MAX_SLOTS {
                    return Err(NetError::Decode("oversized participant set".into()));
                }
                let ct = Box::new(decode_ciphertext(&mut r, cc)?);
                NetMsg::CommitteeShareTask {
                    round,
                    participants,
                    ct,
                }
            }
            21 => NetMsg::Finished,
            22 => NetMsg::CertSignTask {
                transcript: r.get_array32()?,
            },
            tag => return Err(NetError::Decode(format!("unknown message tag {tag}"))),
        };
        r.expect_end()?;
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
                buf[0] = [1, 3, 4, 5, 7, 9, 18, 20, 22][round % 9];
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
}
