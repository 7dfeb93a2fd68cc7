//! Binary codecs for the cryptographic payloads the round exchanges.
//!
//! `RnsPoly` construction panics on malformed input by design (its
//! callers are trusted in-process code), so these decoders validate
//! *everything* — level bounds, residue ranges, part counts — and return
//! [`NetError::Decode`] before any constructor runs. A peer can never
//! panic this process with bytes, only earn a typed rejection. (In the
//! deployed protocol a tampered frame already dies at the AEAD; these
//! checks guard against version skew and honest bugs.)

use std::sync::Arc;

use mycelium::plan::SignedContribution;
use mycelium_bgv::{BgvParams, Ciphertext};
use mycelium_crypto::merkle::InclusionProof;
use mycelium_crypto::sha256::Digest;
use mycelium_math::rns::{Representation, RnsContext, RnsPoly};
use mycelium_query::eval::{GroupResult, PlainResult};
use mycelium_sharing::DecryptionShare;
use mycelium_zkp::argument::{Opening, Proof};

use crate::error::NetError;
use crate::wire::{Reader, Writer};

/// Everything a decoder needs to rebuild ring elements.
pub struct CodecCtx {
    /// The RNS context (moduli chain, degree).
    pub ctx: Arc<RnsContext>,
    /// The BGV parameters the ciphertexts live under.
    pub params: BgvParams,
}

impl CodecCtx {
    /// Builds a fresh context for a parameter set. Only usable when the
    /// decoded values never mix with ring elements from another context
    /// (`RnsPoly` arithmetic requires pointer-identical contexts) — for
    /// anything touching a `KeySet`, use [`CodecCtx::with_context`].
    pub fn new(params: &BgvParams) -> Self {
        CodecCtx {
            ctx: params.build_context(),
            params: params.clone(),
        }
    }

    /// Wraps an existing context (e.g. `keys.public.context()`), so the
    /// decoded polynomials interoperate with everything derived from it.
    pub fn with_context(ctx: Arc<RnsContext>, params: &BgvParams) -> Self {
        CodecCtx {
            ctx,
            params: params.clone(),
        }
    }
}

/// Upper bound on ciphertext parts accepted off the wire (fresh = 2,
/// pre-relinearization products go to 3; 8 leaves headroom).
const MAX_CT_PARTS: usize = 8;
/// Upper bound on proof openings accepted off the wire.
const MAX_OPENINGS: usize = 1 << 16;
/// Upper bound on Merkle path length accepted off the wire (2^48 leaves).
const MAX_SIBLINGS: usize = 48;

/// Encoded size of one polynomial at `level` residue rows.
pub fn poly_encoded_bytes(level: usize, degree: usize) -> usize {
    2 + level * degree * 8
}

/// Encoded size of a ciphertext with `nparts` parts at `level`.
pub fn ciphertext_encoded_bytes(nparts: usize, level: usize, degree: usize) -> usize {
    1 + 8 + nparts * poly_encoded_bytes(level, degree)
}

/// Serializes one `RnsPoly`.
pub fn encode_poly(w: &mut Writer, p: &RnsPoly) {
    let words: usize = p.residues().iter().map(Vec::len).sum();
    w.reserve(2 + 8 * words);
    w.put_u8(match p.representation() {
        Representation::Coefficient => 0,
        Representation::Ntt => 1,
    });
    w.put_u8(p.level() as u8);
    for row in p.residues() {
        for &x in row {
            w.put_u64(x);
        }
    }
}

/// Deserializes one `RnsPoly`, validating level and residue ranges.
pub fn decode_poly(r: &mut Reader, cc: &CodecCtx) -> Result<RnsPoly, NetError> {
    let rep = match r.get_u8()? {
        0 => Representation::Coefficient,
        1 => Representation::Ntt,
        v => return Err(NetError::Decode(format!("bad representation tag {v}"))),
    };
    let level = r.get_u8()? as usize;
    if level < 1 || level > cc.ctx.max_level() {
        return Err(NetError::Decode(format!(
            "polynomial level {level} outside 1..={}",
            cc.ctx.max_level()
        )));
    }
    let degree = cc.ctx.degree();
    let mut residues = Vec::with_capacity(level);
    for i in 0..level {
        let q = cc.ctx.moduli()[i].value();
        let mut row = Vec::with_capacity(degree);
        for _ in 0..degree {
            let x = r.get_u64()?;
            if x >= q {
                return Err(NetError::Decode(format!(
                    "residue {x} out of range for modulus {q}"
                )));
            }
            row.push(x);
        }
        residues.push(row);
    }
    Ok(RnsPoly::from_residues(Arc::clone(&cc.ctx), rep, residues))
}

/// Serializes a ciphertext.
pub fn encode_ciphertext(w: &mut Writer, ct: &Ciphertext) {
    w.put_u8(ct.parts().len() as u8);
    w.put_f64(ct.noise_log2());
    for p in ct.parts() {
        encode_poly(w, p);
    }
}

/// Deserializes a ciphertext.
pub fn decode_ciphertext(r: &mut Reader, cc: &CodecCtx) -> Result<Ciphertext, NetError> {
    let nparts = r.get_u8()? as usize;
    if !(1..=MAX_CT_PARTS).contains(&nparts) {
        return Err(NetError::Decode(format!(
            "bad ciphertext part count {nparts}"
        )));
    }
    let noise_log2 = r.get_f64()?;
    if !noise_log2.is_finite() {
        return Err(NetError::Decode("non-finite noise bound".into()));
    }
    let mut parts = Vec::with_capacity(nparts);
    for _ in 0..nparts {
        parts.push(decode_poly(r, cc)?);
    }
    let level = parts[0].level();
    if parts.iter().any(|p| p.level() != level) {
        return Err(NetError::Decode("mixed-level ciphertext parts".into()));
    }
    Ok(Ciphertext::from_parts(parts, noise_log2, cc.params.clone()))
}

/// Serializes an optional ciphertext (the aggregator's per-slot state).
pub fn encode_opt_ciphertext(w: &mut Writer, ct: Option<&Ciphertext>) {
    match ct {
        None => w.put_u8(0),
        Some(ct) => {
            w.put_u8(1);
            encode_ciphertext(w, ct);
        }
    }
}

/// Deserializes an `Option<Ciphertext>`.
pub fn decode_opt_ciphertext(
    r: &mut Reader,
    cc: &CodecCtx,
) -> Result<Option<Ciphertext>, NetError> {
    match r.get_u8()? {
        0 => Ok(None),
        1 => Ok(Some(decode_ciphertext(r, cc)?)),
        v => Err(NetError::Decode(format!("bad option tag {v}"))),
    }
}

fn encode_digest(w: &mut Writer, d: &Digest) {
    w.put_bytes(d);
}

fn decode_digest(r: &mut Reader) -> Result<Digest, NetError> {
    r.get_array32()
}

/// Serializes a ZKP spot-check proof.
pub fn encode_proof(w: &mut Writer, p: &Proof) {
    encode_digest(w, &p.witness_root);
    w.put_u32(p.checks as u32);
    w.put_u32(p.openings.len() as u32);
    for o in &p.openings {
        w.put_u64(o.var as u64);
        w.put_u64(o.value);
        encode_digest(w, &o.salt);
        w.put_u32(o.proof.siblings.len() as u32);
        for s in &o.proof.siblings {
            encode_digest(w, s);
        }
    }
}

/// Deserializes a ZKP spot-check proof.
pub fn decode_proof(r: &mut Reader) -> Result<Proof, NetError> {
    let witness_root = decode_digest(r)?;
    let checks = r.get_u32()? as usize;
    let n = r.get_u32()? as usize;
    if n > MAX_OPENINGS {
        return Err(NetError::Decode(format!("proof claims {n} openings")));
    }
    let mut openings = Vec::with_capacity(n);
    for _ in 0..n {
        let var = r.get_u64()? as usize;
        let value = r.get_u64()?;
        let salt = decode_digest(r)?;
        let ns = r.get_u32()? as usize;
        if ns > MAX_SIBLINGS {
            return Err(NetError::Decode(format!("merkle path of {ns} siblings")));
        }
        let mut siblings = Vec::with_capacity(ns);
        for _ in 0..ns {
            siblings.push(decode_digest(r)?);
        }
        openings.push(Opening {
            var,
            value,
            salt,
            proof: InclusionProof { siblings },
        });
    }
    Ok(Proof {
        witness_root,
        openings,
        checks,
    })
}

/// Serializes a device contribution.
pub fn encode_contribution(w: &mut Writer, sc: &SignedContribution) {
    w.put_u32(sc.device);
    encode_ciphertext(w, &sc.ct);
    match &sc.proof {
        None => w.put_u8(0),
        Some(p) => {
            w.put_u8(1);
            encode_proof(w, p);
        }
    }
}

/// Deserializes a device contribution.
pub fn decode_contribution(r: &mut Reader, cc: &CodecCtx) -> Result<SignedContribution, NetError> {
    let device = r.get_u32()?;
    let ct = decode_ciphertext(r, cc)?;
    let proof = match r.get_u8()? {
        0 => None,
        1 => Some(decode_proof(r)?),
        v => return Err(NetError::Decode(format!("bad option tag {v}"))),
    };
    Ok(SignedContribution { device, ct, proof })
}

/// Serializes a threshold decryption share.
pub fn encode_share(w: &mut Writer, s: &DecryptionShare) {
    w.put_u64(s.member);
    encode_poly(w, &s.d);
}

/// Deserializes a threshold decryption share.
pub fn decode_share(r: &mut Reader, cc: &CodecCtx) -> Result<DecryptionShare, NetError> {
    let member = r.get_u64()?;
    let d = decode_poly(r, cc)?;
    Ok(DecryptionShare { member, d })
}

/// Serializes a decoded plaintext query result.
pub fn encode_plain_result(w: &mut Writer, pr: &PlainResult) {
    w.put_u32(pr.groups.len() as u32);
    for g in &pr.groups {
        w.put_str(&g.label);
        w.put_u64_slice(&g.histogram);
        w.put_u64(g.total_pairs);
        w.put_u64(g.total_clipped_sum);
    }
}

/// Deserializes a decoded plaintext query result.
pub fn decode_plain_result(r: &mut Reader) -> Result<PlainResult, NetError> {
    let n = r.get_u32()? as usize;
    if n > 1 << 16 {
        return Err(NetError::Decode(format!("result claims {n} groups")));
    }
    let mut groups = Vec::with_capacity(n);
    for _ in 0..n {
        groups.push(GroupResult {
            label: r.get_str()?,
            histogram: r.get_u64_vec()?,
            total_pairs: r.get_u64()?,
            total_clipped_sum: r.get_u64()?,
        });
    }
    Ok(PlainResult { groups })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mycelium_bgv::{KeySet, Plaintext};
    use mycelium_math::rng::{SeedableRng, StdRng};

    fn cc() -> CodecCtx {
        CodecCtx::new(&BgvParams::test_small())
    }

    #[test]
    fn ciphertext_roundtrip_preserves_decryption() {
        let params = BgvParams::test_small();
        let mut rng = StdRng::seed_from_u64(1);
        let keys = KeySet::generate(&params, &mut rng);
        let cc = CodecCtx::with_context(Arc::clone(keys.public.context()), &params);
        let mut coeffs = vec![0u64; cc.params.n];
        coeffs[3] = 7;
        let pt = Plaintext::new(coeffs, cc.params.plaintext_modulus).unwrap();
        let ct = Ciphertext::encrypt(&keys.public, &pt, &mut rng).unwrap();

        let mut w = Writer::new();
        encode_ciphertext(&mut w, &ct);
        let bytes = w.finish();
        assert_eq!(
            bytes.len(),
            ciphertext_encoded_bytes(ct.parts().len(), ct.level(), cc.params.n)
        );
        let mut r = Reader::new(&bytes);
        let back = decode_ciphertext(&mut r, &cc).unwrap();
        r.expect_end().unwrap();
        assert_eq!(back.decrypt(&keys.secret).coeffs(), pt.coeffs());
    }

    #[test]
    fn out_of_range_residue_rejected() {
        let cc = cc();
        let mut rng = StdRng::seed_from_u64(2);
        let keys = KeySet::generate(&cc.params, &mut rng);
        let pt = Plaintext::zero(cc.params.n, cc.params.plaintext_modulus);
        let ct = Ciphertext::encrypt(&keys.public, &pt, &mut rng).unwrap();
        let mut w = Writer::new();
        encode_ciphertext(&mut w, &ct);
        let mut bytes = w.finish();
        // Overwrite the first residue word with u64::MAX — must be a
        // typed decode error, never a panic inside RnsPoly.
        let off = 1 + 8 + 2; // nparts + noise + rep/level tags
        bytes[off..off + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        let mut r = Reader::new(&bytes);
        assert!(matches!(
            decode_ciphertext(&mut r, &cc),
            Err(NetError::Decode(_))
        ));
    }

    #[test]
    fn bad_level_rejected() {
        let cc = cc();
        let mut w = Writer::new();
        w.put_u8(2); // parts
        w.put_f64(1.0);
        w.put_u8(1); // rep = Ntt
        w.put_u8(200); // level far beyond the chain
        let bytes = w.finish();
        let mut r = Reader::new(&bytes);
        assert!(matches!(
            decode_ciphertext(&mut r, &cc),
            Err(NetError::Decode(_))
        ));
    }

    #[test]
    fn proof_roundtrip() {
        let p = Proof {
            witness_root: [9u8; 32],
            openings: vec![Opening {
                var: 4,
                value: 1,
                salt: [3u8; 32],
                proof: InclusionProof {
                    siblings: vec![[1u8; 32], [2u8; 32]],
                },
            }],
            checks: 80,
        };
        let mut w = Writer::new();
        encode_proof(&mut w, &p);
        let bytes = w.finish();
        let mut r = Reader::new(&bytes);
        let back = decode_proof(&mut r).unwrap();
        r.expect_end().unwrap();
        assert_eq!(back.witness_root, p.witness_root);
        assert_eq!(back.checks, 80);
        assert_eq!(back.openings.len(), 1);
        assert_eq!(back.openings[0].proof.siblings.len(), 2);
    }

    #[test]
    fn plain_result_roundtrip() {
        let pr = PlainResult {
            groups: vec![GroupResult {
                label: "all".into(),
                histogram: vec![5, 0, 2],
                total_pairs: 7,
                total_clipped_sum: 4,
            }],
        };
        let mut w = Writer::new();
        encode_plain_result(&mut w, &pr);
        let bytes = w.finish();
        let mut r = Reader::new(&bytes);
        let back = decode_plain_result(&mut r).unwrap();
        assert_eq!(back.groups[0].label, "all");
        assert_eq!(back.groups[0].histogram, vec![5, 0, 2]);
    }
}
