//! The offline certificate checker.
//!
//! [`verify_bytes`] needs nothing but the certificate itself: Merkle roots
//! are recomputed from the carried leaves, binding digests are recomputed
//! by re-encoding the decoded body, and committee public keys are
//! re-derived from the certificate's own spec seed. It never touches the
//! network, round state, or the filesystem, and never panics — every
//! outcome is a typed [`Verdict`].

use std::fmt;

use mycelium_crypto::merkle::MerkleTree;

use crate::certificate::{verify_transcript_sig, CertError, RoundCertificate};
use crate::commit::{segment_range, segment_root, CERT_SEGMENTS};

/// Typed outcome of certificate verification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// Every check passed.
    Valid {
        /// How many committee signatures verified.
        signatures: usize,
    },
    /// The bytes do not decode to a certificate.
    BadEncoding(CertError),
    /// A Merkle commitment does not match the carried leaves.
    WrongRoot(String),
    /// A binding digest (spec or transcript) does not match the body.
    WrongBinding(String),
    /// A committee signature is absent, malformed, or fails to verify.
    WrongSignature(String),
    /// Fewer than `t + 1` valid signatures.
    InsufficientSignatures {
        /// Signatures present and valid.
        have: usize,
        /// Signatures required.
        need: usize,
    },
}

impl Verdict {
    /// True only for [`Verdict::Valid`].
    pub fn is_valid(&self) -> bool {
        matches!(self, Self::Valid { .. })
    }

    /// Stable lowercase kind tag (used by `myc_verify` and CI).
    pub fn kind(&self) -> &'static str {
        match self {
            Self::Valid { .. } => "valid",
            Self::BadEncoding(_) => "bad-encoding",
            Self::WrongRoot(_) => "wrong-root",
            Self::WrongBinding(_) => "wrong-binding",
            Self::WrongSignature(_) => "wrong-signature",
            Self::InsufficientSignatures { .. } => "insufficient-signatures",
        }
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Valid { signatures } => {
                write!(f, "valid ({signatures} committee signatures)")
            }
            Self::BadEncoding(e) => write!(f, "bad-encoding: {e}"),
            Self::WrongRoot(what) => write!(f, "wrong-root: {what}"),
            Self::WrongBinding(what) => write!(f, "wrong-binding: {what}"),
            Self::WrongSignature(what) => write!(f, "wrong-signature: {what}"),
            Self::InsufficientSignatures { have, need } => {
                write!(f, "insufficient-signatures: {have} of {need} required")
            }
        }
    }
}

/// Decodes and verifies certificate bytes.
pub fn verify_bytes(bytes: &[u8]) -> Verdict {
    match RoundCertificate::decode(bytes) {
        Ok(cert) => verify(&cert),
        Err(e) => Verdict::BadEncoding(e),
    }
}

/// Verifies a decoded certificate.
pub fn verify(cert: &RoundCertificate) -> Verdict {
    // 1. Merkle consistency: recompute every segment root from the carried
    //    leaves and fold them into the contribution root.
    if cert.segments.len() != CERT_SEGMENTS {
        return Verdict::WrongRoot(format!(
            "expected {CERT_SEGMENTS} segments, certificate carries {}",
            cert.segments.len()
        ));
    }
    if cert.leaves.len() != cert.spec.devices as usize {
        return Verdict::WrongRoot(format!(
            "{} leaves for {} devices",
            cert.leaves.len(),
            cert.spec.devices
        ));
    }
    for (s, seg) in cert.segments.iter().enumerate() {
        let range = segment_range(s, cert.leaves.len());
        if seg.origins as usize != range.len() {
            return Verdict::WrongRoot(format!(
                "segment {s} claims {} origins, canonical range has {}",
                seg.origins,
                range.len()
            ));
        }
        if segment_root(&cert.leaves[range]) != seg.root {
            return Verdict::WrongRoot(format!("segment {s} root mismatch"));
        }
    }
    let folded =
        MerkleTree::from_leaf_hashes(cert.segments.iter().map(|s| s.root).collect()).root();
    if folded != cert.contrib_root {
        return Verdict::WrongRoot("contribution root mismatch".into());
    }

    // 2. Binding digests: the spec digest and the transcript must both be
    //    recomputable from the decoded body.
    if cert.spec.digest() != cert.spec_digest {
        return Verdict::WrongBinding("spec digest mismatch".into());
    }
    if cert.compute_transcript() != cert.transcript {
        return Verdict::WrongBinding("transcript digest mismatch".into());
    }
    // Structural protocol facts the transcript alone cannot express.
    if cert.threshold >= cert.committee {
        return Verdict::WrongBinding(format!(
            "threshold {} not below committee size {}",
            cert.threshold, cert.committee
        ));
    }
    if cert.participants.len() != cert.threshold as usize + 1 {
        return Verdict::WrongBinding(format!(
            "{} participants for threshold {}",
            cert.participants.len(),
            cert.threshold
        ));
    }
    let mut prev_part = 0u32;
    for &p in &cert.participants {
        if p == 0 || p > cert.committee || p <= prev_part {
            return Verdict::WrongBinding(format!("participant {p} out of order or range"));
        }
        prev_part = p;
    }
    let mut prev_rej = None;
    for &d in &cert.rejected {
        if prev_rej.is_some_and(|p| d <= p) {
            return Verdict::WrongBinding("reject set not strictly ascending".into());
        }
        prev_rej = Some(d);
    }
    // The charged epsilon is covered by the transcript byte-for-byte; on
    // top of that it must be a plausible privacy charge at all.
    let eps = cert.charged_epsilon();
    if !eps.is_finite() || eps <= 0.0 {
        return Verdict::WrongBinding(format!("charged epsilon {eps} not positive and finite"));
    }
    // Every rejected device has at least one rejected slot, but may have
    // several (one per duty it forged a proof for), so this is a one-sided
    // bound rather than an equality.
    let claimed_rejected: u32 = cert.segments.iter().map(|s| s.rejected).sum();
    if (claimed_rejected as usize) < cert.rejected.len() {
        return Verdict::WrongBinding(format!(
            "segments claim {claimed_rejected} rejected slots for {} rejected devices",
            cert.rejected.len()
        ));
    }

    // 3. Committee signatures over the transcript, public keys re-derived
    //    from the spec seed.
    let mut prev_member = 0u64;
    for s in &cert.signatures {
        if s.member == 0 || s.member > cert.committee as u64 {
            return Verdict::WrongSignature(format!("member {} out of range", s.member));
        }
        if s.member <= prev_member {
            return Verdict::WrongSignature(format!(
                "member {} repeated or out of order",
                s.member
            ));
        }
        prev_member = s.member;
        if !verify_transcript_sig(cert.spec.seed, s.member, &cert.transcript, &s.sig) {
            return Verdict::WrongSignature(format!("member {} signature invalid", s.member));
        }
    }

    // 4. Threshold: strictly more than t signers, i.e. >= t + 1.
    let need = cert.threshold as usize + 1;
    if cert.signatures.len() < need {
        return Verdict::InsufficientSignatures {
            have: cert.signatures.len(),
            need,
        };
    }
    Verdict::Valid {
        signatures: cert.signatures.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::certificate::{sign_transcript, CommitteeSig};
    use crate::test_support::sample_certificate;

    #[test]
    fn sample_certificate_is_valid() {
        let cert = sample_certificate();
        assert_eq!(verify(&cert), Verdict::Valid { signatures: 3 });
        assert_eq!(
            verify_bytes(&cert.encode()),
            Verdict::Valid { signatures: 3 }
        );
    }

    #[test]
    fn garbage_is_bad_encoding() {
        assert!(matches!(verify_bytes(b"junk"), Verdict::BadEncoding(_)));
        assert!(matches!(verify_bytes(&[]), Verdict::BadEncoding(_)));
    }

    #[test]
    fn leaf_tamper_is_wrong_root() {
        let mut cert = sample_certificate();
        cert.leaves[5][0] ^= 1;
        assert!(matches!(verify(&cert), Verdict::WrongRoot(_)));
    }

    #[test]
    fn histogram_tamper_is_wrong_binding() {
        let mut cert = sample_certificate();
        cert.released[0].histogram[0] += 1;
        assert!(matches!(verify(&cert), Verdict::WrongBinding(_)));
    }

    #[test]
    fn implausible_charged_epsilon_is_wrong_binding() {
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let mut cert = sample_certificate();
            cert.set_charged_epsilon(bad);
            cert.transcript = cert.compute_transcript();
            for s in &mut cert.signatures {
                s.sig = sign_transcript(cert.spec.seed, s.member, &cert.transcript);
            }
            assert!(
                matches!(verify(&cert), Verdict::WrongBinding(_)),
                "epsilon {bad} must be rejected even when correctly signed"
            );
        }
    }

    #[test]
    fn charged_epsilon_tamper_is_wrong_binding() {
        let mut cert = sample_certificate();
        cert.set_charged_epsilon(0.5);
        assert!(matches!(verify(&cert), Verdict::WrongBinding(_)));
    }

    #[test]
    fn foreign_signature_is_wrong_signature() {
        let mut cert = sample_certificate();
        // Signed by the right member under the wrong seed.
        cert.signatures[0].sig = sign_transcript(999, 1, &cert.transcript);
        assert!(matches!(verify(&cert), Verdict::WrongSignature(_)));
    }

    #[test]
    fn dropping_below_threshold_is_insufficient() {
        let mut cert = sample_certificate();
        cert.signatures.truncate(2);
        assert_eq!(
            verify(&cert),
            Verdict::InsufficientSignatures { have: 2, need: 3 }
        );
    }

    #[test]
    fn duplicate_member_is_wrong_signature() {
        let mut cert = sample_certificate();
        let dup = cert.signatures[0].clone();
        cert.signatures.insert(1, CommitteeSig { ..dup });
        assert!(matches!(verify(&cert), Verdict::WrongSignature(_)));
    }
}
