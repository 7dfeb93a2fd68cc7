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
//! *everything* — representation, level bounds, residue ranges, part
//! counts — and return
//! [`NetError::Decode`] before any constructor runs; payloads with nothing
//! to validate beyond their framing (proofs, plaintext results) fail with
//! the workspace codec's [`CodecError`]. A peer can never
//! panic this process with bytes, only earn a typed rejection. (In the
//! deployed protocol a tampered frame already dies at the AEAD; these
//! checks guard against version skew and honest bugs.)

use std::sync::Arc;

use mycelium::aggcore::Parked;
use mycelium::plan::{self, SignedContribution};
use mycelium_bgv::{BgvParams, Ciphertext};
use mycelium_crypto::codec::{CodecError, Reader, Writer};
use mycelium_crypto::merkle::InclusionProof;
use mycelium_math::ew;
use mycelium_math::rns::{Representation, RnsContext, RnsPoly};
use mycelium_query::eval::{GroupResult, PlainResult};
use mycelium_sharing::DecryptionShare;
use mycelium_zkp::argument::{Opening, Proof};

use crate::error::NetError;

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

/// The parts of every ciphertext that travels: origins relinearize each
/// product, so nothing a round exchanges is of higher degree.
const CT_PARTS: usize = 2;
/// Upper bound on proof openings accepted off the wire.
const MAX_OPENINGS: usize = 1 << 16;
/// Upper bound on Merkle path length accepted off the wire (2^48 leaves).
const MAX_SIBLINGS: usize = 48;
/// Upper bound on the groups of a query result.
pub(crate) const MAX_GROUPS: usize = 1 << 16;
/// Upper bound on a group label (labels, not payloads).
pub(crate) const MAX_LABEL: usize = 1 << 16;
/// Upper bound on a histogram's bins.
pub(crate) const MAX_HIST: usize = 1 << 20;

/// Encoded size of one polynomial of `ctx` at `level` residue rows.
pub fn poly_encoded_bytes(ctx: &RnsContext, level: usize) -> usize {
    2 + ctx.packed_bytes(level)
}

/// Encoded size of a ciphertext of `ctx` with `nparts` parts at `level`.
pub fn ciphertext_encoded_bytes(ctx: &RnsContext, nparts: usize, level: usize) -> usize {
    1 + nparts * poly_encoded_bytes(ctx, level)
}

/// Serializes one `RnsPoly` ([`plan::put_part`] writes its bytes).
pub fn encode_poly(w: &mut Writer, p: &RnsPoly) {
    w.reserve(plan::part_len(p));
    plan::put_part(w, p);
}

/// Deserializes one `RnsPoly`, validating representation, level and
/// residue ranges. Every polynomial a round exchanges — ciphertext part or
/// decryption share — is in NTT representation, the one the arithmetic
/// that consumes it requires; the coefficient tag (0) is a bad tag.
pub fn decode_poly(r: &mut Reader, cc: &CodecCtx) -> Result<RnsPoly, NetError> {
    match r.u8("representation")? {
        1 => {}
        tag => return CodecError::bad_tag("representation", tag),
    }
    let level = r.u8("level")? as usize;
    if level < 1 || level > cc.ctx.max_level() {
        return Err(NetError::Decode(format!(
            "polynomial level {level} outside 1..={}",
            cc.ctx.max_level()
        )));
    }
    let degree = cc.ctx.degree();
    let mut residues = Vec::with_capacity(level);
    for m in &cc.ctx.moduli()[..level] {
        let packed = r.bytes("residue row", ew::packed_len(m.bits(), degree))?;
        let mut row = vec![0u64; degree];
        if !ew::unpack(m, &mut row, packed) {
            return Err(NetError::Decode(format!(
                "residue out of range for modulus {}",
                m.value()
            )));
        }
        residues.push(row);
    }
    Ok(RnsPoly::from_residues(
        Arc::clone(&cc.ctx),
        Representation::Ntt,
        residues,
    ))
}

/// Serializes a ciphertext ([`plan::put_ciphertext`] writes its bytes).
pub fn encode_ciphertext(w: &mut Writer, ct: &Ciphertext) {
    w.reserve(plan::ciphertext_len(ct));
    plan::put_ciphertext(w, ct);
}

/// A ciphertext as a message writes it: one in words is encoded, one held
/// as its encoding ([`Parked`]) is copied — from memory, or straight from
/// the journal that holds it.
pub trait PutCiphertext {
    /// Appends the ciphertext's encoding to `w`.
    fn put_into(&self, w: &mut Writer);
}

impl PutCiphertext for Ciphertext {
    fn put_into(&self, w: &mut Writer) {
        encode_ciphertext(w, self);
    }
}

impl PutCiphertext for Parked {
    fn put_into(&self, w: &mut Writer) {
        self.put(w);
    }
}

/// Deserializes a ciphertext: exactly two parts at one level.
pub fn decode_ciphertext(r: &mut Reader, cc: &CodecCtx) -> Result<Ciphertext, NetError> {
    let nparts = r.u8("ciphertext parts")? as usize;
    if nparts != CT_PARTS {
        return Err(NetError::Decode(format!(
            "bad ciphertext part count {nparts}"
        )));
    }
    let mut parts = Vec::with_capacity(nparts);
    for _ in 0..nparts {
        parts.push(decode_poly(r, cc)?);
    }
    if parts[0].level() != parts[1].level() {
        return Err(NetError::Decode("mixed-level ciphertext parts".into()));
    }
    Ok(Ciphertext::from_parts(parts, cc.params.clone()))
}

/// Serializes an optional ciphertext (the aggregator's per-slot state).
pub fn encode_opt_ciphertext<C: PutCiphertext>(w: &mut Writer, ct: Option<&C>) {
    w.put_opt(ct, |w, ct| ct.put_into(w));
}

/// Deserializes an `Option<Ciphertext>`.
pub fn decode_opt_ciphertext(
    r: &mut Reader,
    cc: &CodecCtx,
) -> Result<Option<Ciphertext>, NetError> {
    r.opt("slot", |r| decode_ciphertext(r, cc))
}

/// Serializes a ZKP spot-check proof.
pub fn encode_proof(w: &mut Writer, p: &Proof) {
    w.put_bytes(&p.witness_root);
    w.put_u32(p.checks as u32);
    w.put_seq(&p.openings, |w, o| {
        w.put_u64(o.var as u64);
        w.put_u64(o.value);
        w.put_bytes(&o.salt);
        w.put_seq(&o.proof.siblings, |w, s| w.put_bytes(s));
    });
}

/// Deserializes a ZKP spot-check proof.
pub fn decode_proof(r: &mut Reader) -> Result<Proof, CodecError> {
    let (witness_root, checks) = (r.array("witness root")?, r.u32("checks")? as usize);
    let openings = r.seq("openings", MAX_OPENINGS, |r| -> Result<_, CodecError> {
        Ok(Opening {
            var: r.u64("opening var")? as usize,
            value: r.u64("opening value")?,
            salt: r.array("opening salt")?,
            proof: InclusionProof {
                siblings: r.seq("siblings", MAX_SIBLINGS, |r| r.array("sibling"))?,
            },
        })
    })?;
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
    w.put_opt(sc.proof.as_ref(), encode_proof);
}

/// Deserializes a device contribution.
pub fn decode_contribution(r: &mut Reader, cc: &CodecCtx) -> Result<SignedContribution, NetError> {
    Ok(SignedContribution {
        device: r.u32("device")?,
        ct: decode_ciphertext(r, cc)?,
        proof: r.opt("proof", decode_proof)?,
    })
}

/// Serializes a threshold decryption share.
pub fn encode_share(w: &mut Writer, s: &DecryptionShare) {
    w.put_u64(s.member);
    encode_poly(w, &s.d);
}

/// Deserializes a threshold decryption share.
pub fn decode_share(r: &mut Reader, cc: &CodecCtx) -> Result<DecryptionShare, NetError> {
    Ok(DecryptionShare {
        member: r.u64("share member")?,
        d: decode_poly(r, cc)?,
    })
}

/// Serializes a decoded plaintext query result.
pub fn encode_plain_result(w: &mut Writer, pr: &PlainResult) {
    w.put_seq(&pr.groups, |w, g| {
        w.put_str(&g.label);
        w.put_u64_slice(&g.histogram);
        w.put_u64(g.total_pairs);
        w.put_u64(g.total_clipped_sum);
    });
}

/// Deserializes a decoded plaintext query result.
pub fn decode_plain_result(r: &mut Reader) -> Result<PlainResult, CodecError> {
    let groups = r.seq("result groups", MAX_GROUPS, |r| -> Result<_, CodecError> {
        Ok(GroupResult {
            label: r.str("group label", MAX_LABEL)?,
            histogram: r.u64s("histogram", MAX_HIST)?,
            total_pairs: r.u64("total pairs")?,
            total_clipped_sum: r.u64("total clipped sum")?,
        })
    })?;
    Ok(PlainResult { groups })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mycelium::plan::ciphertext_digest;
    use mycelium_bgv::{KeySet, Plaintext};
    use mycelium_crypto::merkle::MerkleTree;
    use mycelium_crypto::sha256::{sha256, sha256_concat};
    use mycelium_math::rng::{SeedableRng, StdRng};
    use mycelium_zkp::argument;
    use mycelium_zkp::r1cs::ConstraintSystem;
    use mycelium_zkp::wellformed::{well_formed_circuit, well_formed_witness};

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
        r.end().unwrap();
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
        let off = 1 + 2; // nparts + rep/level tags
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
                    r.end().unwrap();
                    assert_eq!(back, p, "width {width} lane {at}");
                    // One canonical form: what decodes encodes to the same bytes.
                    assert_eq!(encoded(&back), bytes);
                }
            }
            let counting: Vec<u64> = (0..n as u64).map(|i| i * 0x0123_4567_89ab % 1000).collect();
            let p = RnsPoly::from_residues(Arc::clone(ctx), Representation::Ntt, vec![counting; 2]);
            let back = decode_poly(&mut Reader::new(&encoded(&p)), &cc).unwrap();
            assert_eq!(back, p);
            assert_eq!(back.level(), 2);
        }
    }

    #[test]
    fn short_rows_and_noncanonical_residues_are_typed_errors() {
        for cc in preset_contexts() {
            let p = RnsPoly::from_residues(
                Arc::clone(&cc.ctx),
                Representation::Ntt,
                vec![vec![5; 16]; 3],
            );
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
        r.end().unwrap();
        assert_eq!(back.witness_root, p.witness_root);
        assert_eq!(back.checks, 80);
        assert_eq!(back.openings.len(), 1);
        assert_eq!(back.openings[0].proof.siblings.len(), 2);
    }

    /// `plan::ciphertext_digest` by its `myc-ct-v3` definition, from this
    /// codec's bytes: the bytes `encode_poly` writes for each part, in
    /// order, cut into stripes of `S = max(1024, ⌈len / 16⌉ rounded up to
    /// 64)` bytes, and SHA-256 over `"myc-ct-v3"`, the part count, the
    /// length, the stripe count and each stripe's SHA-256.
    fn digest_of_the_encoding(ct: &Ciphertext) -> [u8; 32] {
        let bytes: Vec<u8> = ct.parts().iter().flat_map(encoded).collect();
        let stripe = (bytes.len().div_ceil(16).div_ceil(64) * 64).max(1024);
        let leaves: Vec<[u8; 32]> = bytes.chunks(stripe).map(sha256).collect();
        let mut stream = b"myc-ct-v3".to_vec();
        stream.push(ct.parts().len() as u8);
        stream.extend((bytes.len() as u64).to_le_bytes());
        stream.push(leaves.len() as u8);
        stream.extend(leaves.concat());
        sha256(&stream)
    }

    #[test]
    fn ciphertext_digest_hashes_what_the_codec_writes() {
        let params = BgvParams::test_small();
        let mut rng = StdRng::seed_from_u64(3);
        let keys = KeySet::generate(&params, &mut rng);
        let pt = Plaintext::zero(params.n, params.plaintext_modulus);
        let ct = Ciphertext::encrypt(&keys.public, &pt, &mut rng).unwrap();
        for level in (1..=ct.level()).rev() {
            let at = ct.mod_switch_to(level).unwrap();
            assert_eq!(
                ciphertext_digest(&at),
                digest_of_the_encoding(&at),
                "level {level}"
            );
        }
        // Widths 40, 45 and 55; rows of one pack chunk (degree 16) and of
        // several (degree 4096 spans four 1024-lane chunks).
        let wide = {
            let primes = BgvParams::test_medium().chain_primes();
            CodecCtx::with_context(
                RnsContext::new(4096, &primes[..2]).unwrap(),
                &BgvParams::test_medium(),
            )
        };
        for cc in preset_contexts().into_iter().chain([wide]) {
            let ctx = &cc.ctx;
            let part = |salt: u64| {
                let rows = ctx.moduli().iter().map(|m| {
                    let draw = |i: u64| (i ^ salt).wrapping_mul(0x9e37_79b9_7f4a_7c15) % m.value();
                    (0..ctx.degree() as u64).map(draw).collect()
                });
                RnsPoly::from_residues(Arc::clone(ctx), Representation::Ntt, rows.collect())
            };
            let ct = Ciphertext::from_parts(vec![part(1), part(2)], cc.params.clone());
            assert_eq!(ciphertext_digest(&ct), digest_of_the_encoding(&ct));
        }
    }

    /// The spot-check prover before `challenge_indices` took a circuit its
    /// checks cover without hashing, and before it derived each leaf salt
    /// once — frozen, so the current prover's proof bytes are pinned to it.
    fn frozen_prove(
        cs: &ConstraintSystem,
        witness: &[u64],
        statement: &[u8; 32],
        checks: usize,
    ) -> Proof {
        let words: Vec<u8> = witness.iter().flat_map(|w| w.to_le_bytes()).collect();
        let master = sha256_concat(&[b"zkp-salt", statement, &words]);
        let salt =
            |v: usize| sha256_concat(&[b"zkp-leaf-salt", &master, &(v as u64).to_le_bytes()]);
        let leaf = |v: usize| {
            [
                &(v as u64).to_le_bytes()[..],
                &witness[v].to_le_bytes(),
                &salt(v),
            ]
            .concat()
        };
        let tree = MerkleTree::build(&(0..witness.len()).map(leaf).collect::<Vec<_>>());
        let (root, total) = (tree.root(), cs.constraints.len());
        let mut indices = Vec::new();
        let mut ctr = 0u64;
        while indices.len() < checks.min(total) {
            let d = sha256_concat(&[b"zkp-challenge", &root, statement, &ctr.to_le_bytes()]);
            ctr += 1;
            let idx = (u64::from_le_bytes(d[..8].try_into().unwrap()) % total as u64) as usize;
            if !indices.contains(&idx) {
                indices.push(idx);
            }
        }
        let mut vars: Vec<usize> = Vec::new();
        for &i in &indices {
            let con = &cs.constraints[i];
            for v in con.a.vars().chain(con.b.vars()).chain(con.c.vars()) {
                if v != 0 && !vars.contains(&v) {
                    vars.push(v);
                }
            }
        }
        vars.sort_unstable();
        let openings = vars
            .into_iter()
            .map(|v| Opening {
                var: v,
                value: witness[v],
                salt: salt(v),
                proof: tree.prove(v).unwrap(),
            })
            .collect();
        Proof {
            witness_root: root,
            openings,
            checks,
        }
    }

    #[test]
    fn proof_bytes_are_the_frozen_provers() {
        let field = mycelium_math::zq::Modulus::new_prime(2_147_483_647).unwrap();
        let encode = |p: &Proof| {
            let mut w = Writer::new();
            encode_proof(&mut w, p);
            w.finish()
        };
        // Constraints below the checks (Q4's circuit: every one is checked)
        // and above them (sampled), honest witnesses and a doubled one.
        let cases = [
            (8, 8, argument::DEFAULT_CHECKS),
            (8, 8, 3),
            (256, 16, argument::DEFAULT_CHECKS),
            (256, 16, 20),
        ];
        for (len, window, checks) in cases {
            let c = well_formed_circuit(field, len, window);
            let below = c.cs.constraints.len() <= checks;
            for (hot, weight) in [(0, 1), (5, 1), (7, 2)] {
                let mut coeffs = vec![0u64; len];
                coeffs[hot] = weight;
                let w = well_formed_witness(&c, &coeffs);
                let statement = sha256(&[len as u8, hot as u8]);
                let got = encode(&argument::prove_unchecked(&c.cs, &w, &statement, checks));
                let want = encode(&frozen_prove(&c.cs, &w, &statement, checks));
                assert_eq!(
                    got, want,
                    "len {len} checks {checks} (below: {below}) x^{hot}·{weight}"
                );
            }
        }
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
