//! Proof-carrying rounds: Merkle contribution commitments, signed
//! `RoundCertificate`s, and the offline verifier.
//!
//! Mycelium's aggregation plane is untrusted; this crate adds the trust
//! layer that makes a round's output independently checkable after the
//! fact. During intake every accepted (ZKP-verified) contribution's
//! digest is recorded; at sealing time the executor folds them into a
//! canonical Merkle commitment ([`commit`]), binds it together with the
//! round spec, the sealed aggregate digest, the DP-noise commitment and
//! the released histograms into a transcript digest, and collects Ed25519
//! committee signatures over that transcript ([`certificate`]). The
//! result serializes to a self-contained [`RoundCertificate`] that
//! [`verify_bytes`] checks with no network and no round state, returning
//! a typed [`Verdict`] — never panicking ([`verify`]).
//!
//! What the verifier establishes: the committee quorum (≥ t+1 of the
//! round's committee) signed exactly this commitment tree, reject set,
//! aggregate digest, noise commitment and histogram, and the Merkle
//! structure internally coheres. What it does *not* establish: that the
//! ciphertext digests in the leaves correspond to well-formed
//! contributions (that is the ZKP audit's job, attested by the quorum) or
//! that the noise was sampled honestly (the commitment is opaque by
//! design — opening it would reveal the exact histogram).
//!
//! Only `mycelium-crypto` is a dependency, so the verifier binary stays
//! standalone; both executors depend on this crate, never the reverse.

pub mod certificate;
pub mod commit;
pub mod json;
pub mod verify;

pub use certificate::{
    cert_fingerprint, committee_public_key, committee_signing_secret, noise_commitment,
    sign_transcript, verify_transcript_sig, verify_transcript_sig_by, CertError, CertLayout,
    CertSpec, CommitteeSig, ReleasedGroup, RoundCertificate, CERT_MAGIC, CERT_VERSION,
};
pub use commit::{
    build_segments, commit_origin, origin_leaf, segment_of, segment_range, segment_root,
    OriginCommit, SegmentSummary, SlotStatus, CERT_SEGMENTS,
};
pub use json::{extract_cert_hex, from_hex, render_json, to_hex};
pub use verify::{verify, verify_bytes, Verdict};

#[cfg(test)]
pub(crate) mod test_support {
    use super::*;
    use mycelium_crypto::sha256::Digest;

    /// A small, fully valid certificate used across unit tests.
    pub fn sample_certificate() -> RoundCertificate {
        let spec = CertSpec {
            seed: 42,
            devices: 24,
            query: "Q4".into(),
            with_proofs: true,
        };
        let mut leaves: Vec<Digest> = Vec::new();
        let mut counts = Vec::new();
        for i in 0..24u32 {
            let (slots, count) = if i == 7 {
                (vec![(i, SlotStatus::Rejected)], (0u32, 1u32))
            } else {
                (vec![(i, SlotStatus::Accepted([i as u8; 32]))], (1u32, 0u32))
            };
            leaves.push(origin_leaf(i, &slots));
            counts.push(count);
        }
        let (segments, contrib_root) = build_segments(&leaves, &counts);
        let mut cert = RoundCertificate {
            spec_digest: spec.digest(),
            spec,
            committee: 5,
            threshold: 2,
            share_round: 0,
            participants: vec![1, 2, 3],
            leaves,
            segments,
            contrib_root,
            rejected: vec![7],
            aggregate_digest: [3u8; 32],
            noise_commitment: noise_commitment(&[[1u8; 32], [2u8; 32]]),
            charged_epsilon_bits: 1.0f64.to_bits(),
            released: vec![ReleasedGroup {
                label: "infected".into(),
                histogram: vec![5, -1, 0],
            }],
            transcript: [0u8; 32],
            signatures: Vec::new(),
        };
        cert.transcript = cert.compute_transcript();
        for m in 1..=3u64 {
            cert.signatures.push(CommitteeSig {
                member: m,
                sig: sign_transcript(cert.spec.seed, m, &cert.transcript),
            });
        }
        cert
    }
}
