//! The serializable `RoundCertificate` and its binding digests.

use std::fmt;

use mycelium_crypto::codec::{CodecError, Reader, Writer};
use mycelium_crypto::sha256::{sha256_concat, Digest};
use mycelium_crypto::{eddsa, sha256};

use crate::commit::SegmentSummary;

/// Leading magic of a serialized certificate.
pub const CERT_MAGIC: &[u8; 8] = b"MYCCERT1";
/// Current format version.
pub const CERT_VERSION: u32 = 1;

const SPEC_TAG: &[u8] = b"myc-cert-spec";
const TRANSCRIPT_TAG: &[u8] = b"myc-cert-transcript";
const KEY_TAG: &[u8] = b"myc-cert-key";
const NOISE_TAG: &[u8] = b"myc-noise-commit";

const MAX_QUERY: usize = 1 << 16;
const MAX_COMMITTEE: usize = 1 << 16;
const MAX_ORIGINS: usize = 1 << 24;
const MAX_SEGMENTS: usize = 64;
const MAX_GROUPS: usize = 1 << 12;
const MAX_HIST: usize = 1 << 20;

/// Typed decode failure for certificate bytes: not a certificate of this
/// format, or bytes the one codec refuses (see
/// [`mycelium_crypto::codec`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CertError {
    /// The leading magic was not `MYCCERT1`.
    BadMagic,
    /// Unknown format version.
    BadVersion(u32),
    /// Truncated, oversized, non-canonical or trailing bytes.
    Codec(CodecError),
}

impl fmt::Display for CertError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::BadMagic => write!(f, "not a round certificate (bad magic)"),
            Self::BadVersion(v) => write!(f, "unsupported certificate version {v}"),
            Self::Codec(e) => write!(f, "malformed certificate: {e}"),
        }
    }
}

impl std::error::Error for CertError {}

impl From<CodecError> for CertError {
    fn from(e: CodecError) -> Self {
        Self::Codec(e)
    }
}

/// The round parameters a certificate is bound to.
///
/// Deliberately excludes the physical shard count: the commitment plane is
/// canonical, so rounds that differ only in intake partitioning produce the
/// same certificate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CertSpec {
    /// Round seed; everything deterministic hangs off it.
    pub seed: u64,
    /// Number of devices (= origins) in the round.
    pub devices: u32,
    /// Query name, e.g. `Q4`.
    pub query: String,
    /// Whether contributions carried ZK proofs.
    pub with_proofs: bool,
}

impl CertSpec {
    /// The spec binding digest.
    pub fn digest(&self) -> Digest {
        sha256_concat(&[
            SPEC_TAG,
            &self.seed.to_le_bytes(),
            &self.devices.to_le_bytes(),
            &(self.query.len() as u32).to_le_bytes(),
            self.query.as_bytes(),
            &[self.with_proofs as u8],
        ])
    }
}

/// One decoded-and-released histogram group.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReleasedGroup {
    /// Group label from the query plan.
    pub label: String,
    /// Noised counts.
    pub histogram: Vec<i64>,
}

/// A committee signature over the transcript digest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommitteeSig {
    /// Committee member index (1-based).
    pub member: u64,
    /// Ed25519 signature over the transcript digest.
    pub sig: [u8; 64],
}

/// A self-contained, offline-checkable record of one query round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundCertificate {
    /// Round parameters.
    pub spec: CertSpec,
    /// `spec.digest()`, stored explicitly so tampering either field is
    /// detectable independently.
    pub spec_digest: Digest,
    /// Committee size `c`.
    pub committee: u32,
    /// Decryption threshold `t`; validity needs at least `t + 1` signatures.
    pub threshold: u32,
    /// Committee (re)selection round that produced the decryption.
    pub share_round: u32,
    /// The `t + 1` members whose shares decrypted the aggregate.
    pub participants: Vec<u32>,
    /// Per-origin commitment leaves, in origin order.
    pub leaves: Vec<Digest>,
    /// Canonical segment summaries (see [`crate::commit`]).
    pub segments: Vec<SegmentSummary>,
    /// Merkle root over the segment roots.
    pub contrib_root: Digest,
    /// Devices whose contributions failed the ZKP audit, ascending.
    pub rejected: Vec<u32>,
    /// Digest of the sealed encrypted aggregate.
    pub aggregate_digest: Digest,
    /// Commitment to the joint DP-noise seed (opaque; see module docs).
    pub noise_commitment: Digest,
    /// IEEE-754 bit pattern of the epsilon the budget ledger charged for
    /// this round (stored as bits so the struct stays `Eq` and the
    /// encoding is canonical; see [`RoundCertificate::charged_epsilon`]).
    pub charged_epsilon_bits: u64,
    /// The released noisy histograms.
    pub released: Vec<ReleasedGroup>,
    /// The transcript digest the committee signed.
    pub transcript: Digest,
    /// Committee signatures, ascending by member.
    pub signatures: Vec<CommitteeSig>,
}

/// Byte spans of each certificate section, for tamper-matrix tests.
#[derive(Debug, Clone)]
pub struct CertLayout {
    /// `(section name, byte range)` pairs in encoding order.
    pub sections: Vec<(&'static str, std::ops::Range<usize>)>,
}

impl RoundCertificate {
    /// The epsilon the privacy-budget ledger charged for this round.
    pub fn charged_epsilon(&self) -> f64 {
        f64::from_bits(self.charged_epsilon_bits)
    }

    /// Sets the charged epsilon from its `f64` value.
    pub fn set_charged_epsilon(&mut self, epsilon: f64) {
        self.charged_epsilon_bits = epsilon.to_bits();
    }

    /// Encodes the certificate body up to (excluding) the transcript field.
    ///
    /// This is the exact byte string the transcript digest commits to, so
    /// any flipped body byte that still decodes will fail the binding check.
    fn encode_core(&self) -> Vec<u8> {
        let (bytes, layout) = self.encode_with_layout();
        let end = layout
            .sections
            .iter()
            .find(|(name, _)| *name == "transcript")
            .expect("layout has a transcript section")
            .1
            .start;
        bytes[..end].to_vec()
    }

    /// The transcript digest over the certificate body.
    pub fn compute_transcript(&self) -> Digest {
        sha256_concat(&[TRANSCRIPT_TAG, &self.encode_core()])
    }

    /// Serializes the certificate.
    pub fn encode(&self) -> Vec<u8> {
        self.encode_with_layout().0
    }

    /// Serializes the certificate and reports each section's byte span.
    pub fn encode_with_layout(&self) -> (Vec<u8>, CertLayout) {
        let mut w = Writer::new();
        let mut sections = Vec::new();
        let mut mark = 0usize;
        let section = |w: &Writer, name: &'static str, sections: &mut Vec<_>, mark: &mut usize| {
            sections.push((name, *mark..w.len()));
            *mark = w.len();
        };

        w.put_bytes(CERT_MAGIC);
        section(&w, "magic", &mut sections, &mut mark);
        w.put_u32(CERT_VERSION);
        section(&w, "version", &mut sections, &mut mark);

        w.put_u64(self.spec.seed);
        w.put_u32(self.spec.devices);
        w.put_str(&self.spec.query);
        w.put_bool(self.spec.with_proofs);
        section(&w, "spec", &mut sections, &mut mark);

        w.put_bytes(&self.spec_digest);
        section(&w, "spec_digest", &mut sections, &mut mark);

        w.put_u32(self.committee);
        w.put_u32(self.threshold);
        w.put_u32(self.share_round);
        w.put_u32_slice(&self.participants);
        section(&w, "committee_meta", &mut sections, &mut mark);

        w.put_seq(&self.leaves, |w, leaf| w.put_bytes(leaf));
        section(&w, "leaves", &mut sections, &mut mark);

        w.put_seq(&self.segments, |w, s| {
            w.put_bytes(&s.root);
            w.put_u32(s.origins);
            w.put_u32(s.accepted);
            w.put_u32(s.rejected);
        });
        section(&w, "segments", &mut sections, &mut mark);

        w.put_bytes(&self.contrib_root);
        section(&w, "contrib_root", &mut sections, &mut mark);

        w.put_u32_slice(&self.rejected);
        section(&w, "rejected", &mut sections, &mut mark);

        w.put_bytes(&self.aggregate_digest);
        section(&w, "aggregate_digest", &mut sections, &mut mark);
        w.put_bytes(&self.noise_commitment);
        section(&w, "noise_commitment", &mut sections, &mut mark);

        w.put_u64(self.charged_epsilon_bits);
        section(&w, "charged_epsilon", &mut sections, &mut mark);

        w.put_seq(&self.released, |w, g| {
            w.put_str(&g.label);
            w.put_seq(&g.histogram, |w, &v| w.put_i64(v));
        });
        section(&w, "released", &mut sections, &mut mark);

        w.put_bytes(&self.transcript);
        section(&w, "transcript", &mut sections, &mut mark);

        w.put_seq(&self.signatures, |w, s| {
            w.put_u64(s.member);
            w.put_bytes(&s.sig);
        });
        section(&w, "signatures", &mut sections, &mut mark);

        (w.finish(), CertLayout { sections })
    }

    /// Deserializes a certificate; every failure is a typed [`CertError`].
    pub fn decode(bytes: &[u8]) -> Result<Self, CertError> {
        let mut r = Reader::new(bytes);
        if r.array("magic")? != *CERT_MAGIC {
            return Err(CertError::BadMagic);
        }
        let version = r.u32("version")?;
        if version != CERT_VERSION {
            return Err(CertError::BadVersion(version));
        }

        // Fields in encoding order: a struct expression evaluates in the
        // order it is written.
        let cert = Self {
            spec: CertSpec {
                seed: r.u64("seed")?,
                devices: r.u32("devices")?,
                query: r.str("query", MAX_QUERY)?,
                // Any byte but 0 / 1 would re-encode as 0 / 1 and sail past
                // the transcript binding: the canonical bool refuses it.
                with_proofs: r.bool("with_proofs")?,
            },
            spec_digest: r.array("spec_digest")?,
            committee: r.u32("committee")?,
            threshold: r.u32("threshold")?,
            share_round: r.u32("share_round")?,
            participants: r.u32s("participants", MAX_COMMITTEE)?,
            leaves: r.seq("leaves", MAX_ORIGINS, |r| r.array("leaf"))?,
            segments: r.seq("segments", MAX_SEGMENTS, |r| -> Result<_, CodecError> {
                Ok(SegmentSummary {
                    root: r.array("segment root")?,
                    origins: r.u32("segment origins")?,
                    accepted: r.u32("segment accepted")?,
                    rejected: r.u32("segment rejected")?,
                })
            })?,
            contrib_root: r.array("contrib_root")?,
            rejected: r.u32s("rejected", MAX_ORIGINS)?,
            aggregate_digest: r.array("aggregate_digest")?,
            noise_commitment: r.array("noise_commitment")?,
            charged_epsilon_bits: r.u64("charged_epsilon")?,
            released: r.seq("released", MAX_GROUPS, |r| -> Result<_, CodecError> {
                Ok(ReleasedGroup {
                    label: r.str("group label", MAX_QUERY)?,
                    histogram: r.seq("histogram", MAX_HIST, |r| r.i64("histogram value"))?,
                })
            })?,
            transcript: r.array("transcript")?,
            signatures: r.seq("signatures", MAX_COMMITTEE, |r| -> Result<_, CodecError> {
                Ok(CommitteeSig {
                    member: r.u64("signature member")?,
                    sig: r.array("signature bytes")?,
                })
            })?,
        };
        r.end()?;
        Ok(cert)
    }
}

/// Commitment to the joint DP-noise seed: `H(tag ‖ XOR of member seeds)`.
///
/// The verifier treats this as an opaque binding — it proves the committee
/// signed over *some* fixed noise randomness, not that the noise was
/// sampled honestly. Opening it would reveal the seeds and with them the
/// exact (un-noised) histogram, so the certificate never carries them.
pub fn noise_commitment(seeds: &[[u8; 32]]) -> Digest {
    let mut joint = [0u8; 32];
    for s in seeds {
        for (j, b) in s.iter().enumerate() {
            joint[j] ^= b;
        }
    }
    sha256_concat(&[NOISE_TAG, &joint])
}

/// A committee member's certificate-signing secret.
///
/// Hermetic setting: every key in the reproduction derives from the round
/// seed, so the verifier re-derives public keys from the certificate's own
/// spec. A deployment would anchor these in a PKI instead; the verifier
/// logic (threshold counting, transcript binding) is unchanged either way.
pub fn committee_signing_secret(seed: u64, member: u64) -> [u8; 32] {
    sha256_concat(&[KEY_TAG, &seed.to_le_bytes(), &member.to_le_bytes()])
}

/// The matching public key.
pub fn committee_public_key(seed: u64, member: u64) -> [u8; 32] {
    eddsa::public_key(&committee_signing_secret(seed, member))
}

/// Signs a transcript digest as committee member `member`.
pub fn sign_transcript(seed: u64, member: u64, transcript: &Digest) -> [u8; 64] {
    eddsa::sign(&committee_signing_secret(seed, member), transcript)
}

/// Verifies one member's transcript signature.
pub fn verify_transcript_sig(seed: u64, member: u64, transcript: &Digest, sig: &[u8; 64]) -> bool {
    verify_transcript_sig_by(&committee_public_key(seed, member), transcript, sig)
}

/// [`verify_transcript_sig`] against a member's public key derived
/// already ([`committee_public_key`]), for a verifier that checks many of
/// one member's signatures.
pub fn verify_transcript_sig_by(
    public_key: &[u8; 32],
    transcript: &Digest,
    sig: &[u8; 64],
) -> bool {
    eddsa::verify(public_key, transcript, sig)
}

/// Convenience digest of an entire encoded certificate (for logs/tests).
pub fn cert_fingerprint(bytes: &[u8]) -> Digest {
    sha256::sha256(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commit::CERT_SEGMENTS;
    use crate::test_support::sample_certificate as sample;

    #[test]
    fn encode_decode_roundtrip() {
        let cert = sample();
        let bytes = cert.encode();
        let back = RoundCertificate::decode(&bytes).unwrap();
        assert_eq!(back, cert);
        assert_eq!(back.encode(), bytes, "canonical re-encode");
    }

    #[test]
    fn layout_sections_tile_the_encoding() {
        let cert = sample();
        let (bytes, layout) = cert.encode_with_layout();
        let mut pos = 0usize;
        for (name, range) in &layout.sections {
            assert_eq!(range.start, pos, "section {name} is contiguous");
            assert!(range.end >= range.start);
            pos = range.end;
        }
        assert_eq!(pos, bytes.len(), "sections cover every byte");
        assert_eq!(cert.segments.len(), CERT_SEGMENTS);
    }

    #[test]
    fn transcript_covers_the_body() {
        let mut cert = sample();
        let t = cert.compute_transcript();
        cert.released[0].histogram[1] += 1;
        assert_ne!(cert.compute_transcript(), t);
    }

    #[test]
    fn signing_keys_are_member_and_seed_specific() {
        let t = [5u8; 32];
        let sig = sign_transcript(1, 2, &t);
        assert!(verify_transcript_sig(1, 2, &t, &sig));
        assert!(!verify_transcript_sig(1, 3, &t, &sig));
        assert!(!verify_transcript_sig(2, 2, &t, &sig));
    }

    #[test]
    fn noise_commitment_is_order_invariant_but_seed_sensitive() {
        let a = [1u8; 32];
        let b = [9u8; 32];
        assert_eq!(noise_commitment(&[a, b]), noise_commitment(&[b, a]));
        assert_ne!(noise_commitment(&[a, b]), noise_commitment(&[a]));
    }
}
