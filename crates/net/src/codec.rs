//! Binary codecs for the cryptographic payloads the round exchanges.
//!
//! [`encode_poly`] / [`decode_poly`] are the one place residues are
//! serialized, and journal records store request bodies as they arrived, so
//! their layout is the wire's, the journal's and replay's at once: a
//! representation tag, a level, then one row per active prime — the ring's
//! `n` residues packed at the bit width `w` of that prime (residue `i` is
//! bits `i·w .. (i+1)·w` of the row read as one little-endian number;
//! [`mycelium_math::ew::pack`]). Both sides hold the chain, so no width
//! travels; `n` is a power of two ≥ 8, so a row is `n·w / 8` whole bytes
//! and there is no padding to define; and a canonical residue has exactly
//! one encoding, so `encode(decode(bytes)) == bytes`.
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
use mycelium_math::ew;
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

/// Encoded size of one polynomial of `ctx` at `level` residue rows.
pub fn poly_encoded_bytes(ctx: &RnsContext, level: usize) -> usize {
    2 + ctx.packed_bytes(level)
}

/// Encoded size of a ciphertext of `ctx` with `nparts` parts at `level`.
pub fn ciphertext_encoded_bytes(ctx: &RnsContext, nparts: usize, level: usize) -> usize {
    1 + 8 + nparts * poly_encoded_bytes(ctx, level)
}

/// Serializes one `RnsPoly`.
pub fn encode_poly(w: &mut Writer, p: &RnsPoly) {
    let ctx = p.context();
    w.reserve(poly_encoded_bytes(ctx, p.level()));
    w.put_u8(match p.representation() {
        Representation::Coefficient => 0,
        Representation::Ntt => 1,
    });
    w.put_u8(p.level() as u8);
    for (m, row) in ctx.moduli().iter().zip(p.residues()) {
        ew::pack(m, w.put_zeroed(ew::packed_len(m.bits(), row.len())), row);
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
    for m in &cc.ctx.moduli()[..level] {
        let packed = r.get_bytes(ew::packed_len(m.bits(), degree))?;
        let mut row = vec![0u64; degree];
        if !ew::unpack(m, &mut row, packed) {
            return Err(NetError::Decode(format!(
                "residue out of range for modulus {}",
                m.value()
            )));
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
            ciphertext_encoded_bytes(&cc.ctx, ct.parts().len(), ct.level())
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
        // Set every bit of the first residue — the first 40 bits behind
        // the tags — which no 40-bit prime reaches: must be a typed decode
        // error, never a panic inside RnsPoly.
        assert_eq!(cc.params.prime_bits, 40);
        let off = 1 + 8 + 2; // nparts + noise + rep/level tags
        bytes[off..off + 5].fill(0xff);
        let mut r = Reader::new(&bytes);
        assert!(matches!(
            decode_ciphertext(&mut r, &cc),
            Err(NetError::Decode(_))
        ));
    }

    /// A context over the first three chain primes of each preset — widths
    /// 40, 45 and 55 — at degree 16, where the preset's own is large.
    fn preset_contexts() -> Vec<CodecCtx> {
        [
            BgvParams::test_small(),
            BgvParams::test_medium(),
            BgvParams::paper_sized(),
        ]
        .iter()
        .map(|params| {
            let primes = params.chain_primes();
            let ctx =
                RnsContext::new(16, &primes[..3]).expect("chain primes suit any smaller ring");
            assert!(ctx.moduli().iter().all(|m| m.bits() == params.prime_bits));
            CodecCtx::with_context(ctx, params)
        })
        .collect()
    }

    fn encoded(p: &RnsPoly) -> Vec<u8> {
        let mut w = Writer::new();
        encode_poly(&mut w, p);
        w.finish()
    }

    /// Overwrites residue `lane` of row `row` in an encoded polynomial of
    /// `cc`'s context, bit by bit.
    fn poke(bytes: &mut [u8], cc: &CodecCtx, row: usize, lane: usize, value: u64) {
        let w = cc.ctx.moduli()[row].bits() as usize;
        let start = 8 * (2 + cc.ctx.packed_bytes(row)) + lane * w;
        for b in 0..w {
            let (byte, bit) = ((start + b) / 8, (start + b) % 8);
            bytes[byte] = bytes[byte] & !(1 << bit) | ((value >> b & 1) as u8) << bit;
        }
    }

    #[test]
    fn packed_rows_round_trip_at_the_presets_widths() {
        for cc in preset_contexts() {
            let (ctx, n) = (&cc.ctx, cc.ctx.degree());
            let width = ctx.moduli()[0].bits();
            // 0 and q − 1 in every lane position of a pack group, against
            // the other in the rest; and a row of distinct values.
            for at in 0..8 {
                for flip in [false, true] {
                    let residues: Vec<Vec<u64>> = ctx
                        .moduli()
                        .iter()
                        .map(|m| {
                            let (fill, odd) = if flip {
                                (m.value() - 1, 0)
                            } else {
                                (0, m.value() - 1)
                            };
                            (0..n)
                                .map(|i| if i % 8 == at { odd } else { fill })
                                .collect()
                        })
                        .collect();
                    let p = RnsPoly::from_residues(Arc::clone(ctx), Representation::Ntt, residues);
                    let bytes = encoded(&p);
                    assert_eq!(bytes.len(), poly_encoded_bytes(ctx, 3), "width {width}");
                    assert_eq!(bytes.len(), 2 + 3 * n * width as usize / 8);
                    let mut r = Reader::new(&bytes);
                    let back = decode_poly(&mut r, &cc).unwrap();
                    r.expect_end().unwrap();
                    assert_eq!(back, p, "width {width} lane {at}");
                    // One canonical form: what decodes encodes to the same bytes.
                    assert_eq!(encoded(&back), bytes);
                }
            }
            let counting: Vec<u64> = (0..n as u64).map(|i| i * 0x0123_4567_89ab % 1000).collect();
            let p = RnsPoly::from_u64(Arc::clone(ctx), 2, &counting);
            let back = decode_poly(&mut Reader::new(&encoded(&p)), &cc).unwrap();
            assert_eq!(back, p);
            assert_eq!(back.level(), 2);
        }
    }

    #[test]
    fn short_rows_and_noncanonical_residues_are_typed_errors() {
        for cc in preset_contexts() {
            let p = RnsPoly::from_u64(Arc::clone(&cc.ctx), 3, &[5; 16]);
            let bytes = encoded(&p);
            let decode = |bytes: &[u8]| decode_poly(&mut Reader::new(bytes), &cc);
            assert_eq!(decode(&bytes).unwrap(), p);
            // The last row one byte short; a message one byte long; nothing.
            for cut in [bytes.len() - 1, 1, 0] {
                assert!(matches!(decode(&bytes[..cut]), Err(NetError::Decode(_))));
            }
            // q itself, and every bit of the width, in each lane position
            // of a pack group, first row and last.
            for row in [0, 2] {
                let m = cc.ctx.moduli()[row];
                for lane in 0..8 {
                    for bad in [m.value(), (1 << m.bits()) - 1] {
                        let mut mauled = bytes.clone();
                        poke(&mut mauled, &cc, row, 8 + lane, bad);
                        assert!(
                            matches!(decode(&mauled), Err(NetError::Decode(_))),
                            "row {row} lane {lane} value {bad}"
                        );
                        // The neighbours were left alone: q − 1 there decodes.
                        poke(&mut mauled, &cc, row, 8 + lane, m.value() - 1);
                        let ok = decode(&mauled).unwrap();
                        assert_eq!(ok.residues()[row][8 + lane], m.value() - 1);
                        assert_eq!(ok.residues()[row][7 + lane], 5);
                    }
                }
            }
        }
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
