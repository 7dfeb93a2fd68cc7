//! Query planning and the per-role protocol building blocks.
//!
//! [`run_query_encrypted`](crate::exec::run_query_encrypted) executes the
//! whole round as one in-process pipeline; the simnet round
//! ([`crate::simround`]) executes the same round as message-passing actors
//! over a faulty network. Both are built from the pieces here, so the two
//! paths cannot drift apart:
//!
//! * [`QueryPlan`] — the feasibility-checked compilation of a query:
//!   semantic analysis, span/noise-budget checks, and the shared
//!   well-formedness circuit.
//! * [`OriginWork`] — the *data-only* description of one origin's job:
//!   which neighbor contributions it needs (device, exponent) and how to
//!   combine them (multiply, or select-add-subtract for sequence
//!   queries). Computing it involves no cryptography, so device actors
//!   can be scheduled from it.
//! * [`SignedContribution`] — a device's wire message: ciphertext plus
//!   optional well-formedness proof, verified by the aggregator.

use mycelium_bgv::encoding::{encode_constant, encode_monomial};
use mycelium_bgv::noise::plan_chain;
use mycelium_bgv::{Ciphertext, KeySet, Plaintext};
use mycelium_crypto::sha256::{Digest, Sha256};
use mycelium_graph::generate::Population;
use mycelium_graph::graph::VertexId;
use mycelium_math::par;
use mycelium_math::rng::Rng;
use mycelium_math::zq::Modulus;
use mycelium_query::analyze::{Analysis, ClauseSite, GroupKind};
use mycelium_query::ast::Query;
use mycelium_query::crosseval::{clause_holds_at_position, cross_group_index, discretize_dest};
use mycelium_query::eval::{eval_atom, eval_value, group_index, self_group_index, Row};
use mycelium_zkp::wellformed::{well_formed_circuit, well_formed_witness, WellFormedCircuit};
use mycelium_zkp::{argument, Proof};

use crate::exec::{ExecError, ExecStats};
use crate::params::SystemParams;

/// Digest of a ciphertext's full RNS representation (used to bind proofs
/// and summation-tree commitments to concrete ciphertexts).
pub fn ciphertext_digest(ct: &Ciphertext) -> Digest {
    // Serialize residues in kilobyte-scale chunks instead of one 8-byte
    // hasher update per coefficient; the stream (and thus the digest) is
    // unchanged, but the SHA-256 block pipeline stays full.
    const CHUNK: usize = 1024;
    let mut h = Sha256::new();
    let mut buf = [0u8; CHUNK * 8];
    for part in ct.parts() {
        for res in part.residues() {
            for chunk in res.chunks(CHUNK) {
                for (dst, &x) in buf.chunks_exact_mut(8).zip(chunk) {
                    dst.copy_from_slice(&x.to_le_bytes());
                }
                h.update(&buf[..chunk.len() * 8]);
            }
        }
    }
    h.finalize()
}

/// The feasibility-checked compilation of one query against one
/// parameter set. Immutable and shareable across every actor in a round.
pub struct QueryPlan {
    /// Semantic analysis of the query.
    pub analysis: Analysis,
    /// Ring degree.
    pub n_ring: usize,
    /// Plaintext modulus.
    pub t_pt: u64,
    /// The shared well-formedness circuit (`None` when proofs are off).
    pub circuit: Option<WellFormedCircuit>,
    /// Number of noisy values released per group.
    pub released_len: usize,
}

impl QueryPlan {
    /// Analyzes `query` and checks it fits the ring and the noise budget
    /// (§6.2); `with_proofs` builds the §4.6 well-formedness circuit.
    pub fn new(
        query: &Query,
        pop: &Population,
        params: &SystemParams,
        with_proofs: bool,
    ) -> Result<Self, ExecError> {
        let schema = &params.schema;
        let analysis = mycelium_query::analyze::analyze(query, schema)
            .map_err(|e| ExecError::Analyze(e.to_string()))?;
        let n_ring = params.bgv.n;
        if analysis.total_span > n_ring {
            return Err(ExecError::SpanTooLarge {
                span: analysis.total_span,
                ring: n_ring,
            });
        }
        if query.hops > 1
            && (analysis.groups > 1 || analysis.joint_ratio || analysis.sequence_column.is_some())
        {
            return Err(ExecError::UnsupportedMultiHop);
        }
        // §6.2 feasibility: the multiplication chain must fit the noise
        // budget.
        let plan = plan_chain(
            &params.bgv,
            analysis
                .muls
                .min(pop.graph.max_degree().pow(query.hops as u32)),
        );
        if !plan.feasible {
            return Err(ExecError::NoiseBudgetExceeded {
                muls: analysis.muls,
            });
        }
        let field = Modulus::new_prime(2_147_483_647).expect("prime");
        let circuit = with_proofs
            .then(|| well_formed_circuit(field, analysis.total_span, analysis.total_span));
        let released_len = if analysis.joint_ratio {
            analysis.count_radix * analysis.value_radix
        } else {
            analysis.value_radix
        };
        Ok(Self {
            analysis,
            n_ring,
            t_pt: params.bgv.plaintext_modulus,
            circuit,
            released_len,
        })
    }

    /// Total released (noisy) values across all groups.
    pub fn released_values(&self) -> usize {
        self.released_len * self.analysis.groups
    }
}

/// A device's wire message: its encrypted contribution plus the optional
/// well-formedness proof the aggregator checks (§4.6).
#[derive(Clone)]
pub struct SignedContribution {
    /// The contributing device.
    pub device: VertexId,
    /// `Enc(x^e)` (or a malformed ciphertext, for cheaters).
    pub ct: Ciphertext,
    /// Proof that the plaintext is a one-hot monomial.
    pub proof: Option<Proof>,
}

impl QueryPlan {
    /// Device side: encrypts `x^exp` and attaches a well-formedness proof
    /// when the plan requires one. A `cheating` device doubles its
    /// coefficient (claiming twice its honest weight) and forges the
    /// proof — which cannot verify, since the witness violates the
    /// one-hot constraint system.
    pub fn build_contribution<R: Rng + ?Sized>(
        &self,
        keys: &KeySet,
        device: VertexId,
        exp: usize,
        cheating: bool,
        rng: &mut R,
    ) -> Result<SignedContribution, ExecError> {
        let mut coeffs = vec![0u64; self.n_ring];
        coeffs[exp] = if cheating { 2 } else { 1 };
        let pt = Plaintext::new(coeffs.clone(), self.t_pt)?;
        let ct = Ciphertext::encrypt(&keys.public, &pt, rng)?;
        let proof = self.circuit.as_ref().map(|c| {
            let witness = well_formed_witness(c, &coeffs[..self.analysis.total_span]);
            let statement = ciphertext_digest(&ct);
            argument::prove_unchecked(&c.cs, &witness, &statement, 48)
        });
        Ok(SignedContribution { device, ct, proof })
    }

    /// The neutral contribution `Enc(x^0)` — what a dropped-out device
    /// defaults to (§4.4) and what the aggregator substitutes for a
    /// rejected one (§4.7). Stays at the top level: a substituted
    /// contribution flows through the same multiplicative combine as an
    /// honest one.
    pub fn neutral_ct<R: Rng + ?Sized>(
        &self,
        keys: &KeySet,
        rng: &mut R,
    ) -> Result<Ciphertext, ExecError> {
        let pt = encode_monomial(0, self.n_ring, self.t_pt)?;
        Ok(Ciphertext::encrypt(&keys.public, &pt, rng)?)
    }

    /// The neutral *accumulator* `Enc(x^0)`, born at
    /// [`AGGREGATION_LEVEL`]: unlike [`QueryPlan::neutral_ct`], an empty
    /// group accumulator is never multiplied — it is only shifted and
    /// summed — and every origin output is mod-switched to the
    /// aggregation level anyway, so encrypting at the top of the chain
    /// would pay the full-chain NTTs and the whole switch ladder for
    /// nothing.
    pub fn neutral_acc<R: Rng + ?Sized>(
        &self,
        keys: &KeySet,
        rng: &mut R,
    ) -> Result<Ciphertext, ExecError> {
        let pt = encode_monomial(0, self.n_ring, self.t_pt)?;
        Ok(Ciphertext::encrypt_at_level(
            &keys.public,
            &pt,
            AGGREGATION_LEVEL,
            rng,
        )?)
    }

    /// Aggregator side: checks a contribution's well-formedness proof
    /// against the ciphertext digest. Always true when proofs are off.
    pub fn verify_contribution(&self, sc: &SignedContribution) -> bool {
        // Only a proof that is both wanted and present needs the digest.
        self.circuit.is_none()
            || sc.proof.is_some()
                && self.verify_proof(&ciphertext_digest(&sc.ct), sc.proof.as_ref())
    }

    /// [`QueryPlan::verify_contribution`] for a caller that already holds
    /// the contribution's [`ciphertext_digest`] as `statement`.
    pub fn verify_proof(&self, statement: &Digest, proof: Option<&Proof>) -> bool {
        match (&self.circuit, proof) {
            (None, _) => true,
            (Some(_), None) => false,
            (Some(c), Some(proof)) => argument::verify(&c.cs, statement, proof),
        }
    }
}

/// How one neighbor row folds into the origin's accumulators.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RowCombine {
    /// Multiply contribution `slot` into accumulator 0.
    Simple(usize),
    /// §4.5 subsequence selection: per `(group, slots)`, ADD the slots'
    /// ciphertexts, subtract `Enc(ℓ−1)`, and multiply the combination
    /// into accumulator `group`.
    Selected(Vec<(usize, Vec<usize>)>),
}

/// The data-only description of one origin's job: every neighbor
/// contribution it needs and the recipe for combining them. Contains no
/// ciphertexts, so it can be computed once and used both to schedule
/// device work and to drive the combine.
#[derive(Debug, Clone)]
pub struct OriginWork {
    /// The origin vertex.
    pub origin: VertexId,
    /// Slot-indexed contribution requests: `requests[slot]` is
    /// `(device, exponent)`.
    pub requests: Vec<(VertexId, usize)>,
    /// Per-row combine recipe referencing slots.
    pub rows: Vec<RowCombine>,
    /// Number of group accumulators.
    pub acc_count: usize,
    /// Whether the origin's own `self` clauses hold; if not, it submits
    /// `Enc(0)` regardless of its neighbors.
    pub self_ok: bool,
    /// Monomial shift applied to the single accumulator for `SelfSide`
    /// grouping (zero otherwise).
    pub self_shift: usize,
}

/// One neighbor's contribution exponents: `(sequence position, exponent)`
/// per active position, or a single `(0, exponent)` for non-sequence
/// queries. Exponent 0 encodes "inactive" (the neutral `x^0`).
fn neighbor_exponents(
    row: &Row,
    query: &Query,
    analysis: &Analysis,
    schema: &mycelium_query::analyze::Schema,
) -> Vec<(usize, usize)> {
    // Exact dest/edge clause evaluation.
    let dest_ok = query
        .predicate
        .clauses
        .iter()
        .zip(&analysis.clause_sites)
        .filter(|(_, site)| **site == ClauseSite::DestEdge)
        .all(|(clause, _)| clause.iter().any(|a| eval_atom(a, row, schema)));
    let val = match &query.inner {
        mycelium_query::ast::Inner::Count => 1u64,
        mycelium_query::ast::Inner::Sum(e) | mycelium_query::ast::Inner::Ratio(e) => {
            eval_value(e, row, schema).max(0) as u64
        }
    };
    let base = match analysis.group_kind {
        GroupKind::PerEdge => {
            let g = group_index(query.group_by.as_ref().expect("grouped"), row, schema);
            analysis.group_window.pow(g as u32)
        }
        _ => 1,
    };
    let unit = if analysis.joint_ratio {
        analysis.value_radix + val as usize
    } else {
        val as usize
    };
    match analysis.sequence_column.as_ref() {
        None => {
            let exp = if dest_ok { base * unit } else { 0 };
            vec![(0, exp)]
        }
        Some(col) => {
            let range = schema.column_range(col);
            let dv = discretize_dest(col, row.dest, schema);
            (0..range)
                .map(|p| {
                    let active = dest_ok && dv == Some(p);
                    (p, if active { base * unit } else { 0 })
                })
                .collect()
        }
    }
}

/// Multiplies `fresh` into the accumulator, relinearizing and dropping a
/// level as the noise plan requires.
pub fn multiply_into(
    acc: &mut Option<Ciphertext>,
    fresh: Ciphertext,
    keys: &KeySet,
    stats: &mut ExecStats,
) -> Result<(), ExecError> {
    match acc.take() {
        None => *acc = Some(fresh),
        Some(a) => {
            let fresh = fresh.mod_switch_to(a.level())?;
            let mut prod = a.mul(&fresh)?.relinearize(&keys.relin)?;
            if prod.level() > 1 {
                prod = prod.mod_switch_down()?;
            }
            stats.multiplications += 1;
            *acc = Some(prod);
        }
    }
    Ok(())
}

/// Computes one origin's [`OriginWork`] — pure clause evaluation, no
/// cryptography.
pub fn origin_work(
    plan: &QueryPlan,
    query: &Query,
    params: &SystemParams,
    pop: &Population,
    v: VertexId,
) -> OriginWork {
    let schema = &params.schema;
    let analysis = &plan.analysis;
    let self_v = &pop.vertices[v as usize];
    let acc_count = if analysis.group_kind == GroupKind::Cross {
        analysis.groups
    } else {
        1
    };
    let mut requests: Vec<(VertexId, usize)> = Vec::new();
    let mut rows: Vec<RowCombine> = Vec::new();
    for (w, edge) in mycelium_query::eval::khop_rows(pop, v, query.hops) {
        let row = Row {
            self_v,
            dest: &pop.vertices[w as usize],
            edge,
        };
        let exponents = neighbor_exponents(&row, query, analysis, schema);
        match analysis.sequence_column.as_ref() {
            None => {
                let (_, exp) = exponents[0];
                requests.push((w, exp));
                rows.push(RowCombine::Simple(requests.len() - 1));
            }
            Some(col) => {
                // §4.5: the origin selects the subsequence of positions
                // where its cross clauses hold, routing each position to
                // its group for cross grouping.
                let mut selected: Vec<Vec<usize>> = vec![Vec::new(); acc_count];
                for (pos, exp) in exponents {
                    let cross_ok = query
                        .predicate
                        .clauses
                        .iter()
                        .zip(&analysis.clause_sites)
                        .filter(|(_, site)| **site == ClauseSite::Cross)
                        .all(|(clause, _)| {
                            clause_holds_at_position(clause, self_v, edge, col, pos, schema)
                        });
                    if !cross_ok {
                        continue;
                    }
                    let g = if analysis.group_kind == GroupKind::Cross {
                        cross_group_index(
                            query.group_by.as_ref().expect("cross grouping"),
                            self_v,
                            col,
                            pos,
                            schema,
                        )
                    } else {
                        0
                    };
                    requests.push((w, exp));
                    selected[g].push(requests.len() - 1);
                }
                rows.push(RowCombine::Selected(
                    selected
                        .into_iter()
                        .enumerate()
                        .filter(|(_, slots)| !slots.is_empty())
                        .collect(),
                ));
            }
        }
    }
    // §4.4 final processing inputs: self clauses and the group shift.
    let self_ok = query
        .predicate
        .clauses
        .iter()
        .zip(&analysis.clause_sites)
        .filter(|(_, site)| **site == ClauseSite::SelfOnly)
        .all(|(clause, _)| {
            let dummy_edge = mycelium_graph::data::EdgeData::household_contact(0);
            let row = Row {
                self_v,
                dest: self_v,
                edge: &dummy_edge,
            };
            clause.iter().any(|a| eval_atom(a, &row, schema))
        });
    let self_shift = if analysis.group_kind == GroupKind::SelfSide {
        self_group_index(query.group_by.as_ref().expect("grouped"), self_v, schema)
            * analysis.group_window
    } else {
        0
    };
    OriginWork {
        origin: v,
        requests,
        rows,
        acc_count,
        self_ok,
        self_shift,
    }
}

/// Origin side: folds the slot-indexed contributions into the submitted
/// ciphertext, following the work's combine recipe (§4.4–§4.5).
/// `cts[slot]` must hold the (verified or substituted) ciphertext for
/// `work.requests[slot]`.
pub fn combine_origin<R: Rng + ?Sized>(
    plan: &QueryPlan,
    keys: &KeySet,
    work: &OriginWork,
    cts: &[Ciphertext],
    stats: &mut ExecStats,
    rng: &mut R,
) -> Result<Ciphertext, ExecError> {
    assert_eq!(cts.len(), work.requests.len(), "one ciphertext per slot");
    let (n_ring, t_pt) = (plan.n_ring, plan.t_pt);
    if !work.self_ok {
        // Failing self clauses zero the whole origin (§4.4). The zero is
        // only ever summed, so it is born at the aggregation level.
        return Ok(Ciphertext::encrypt_at_level(
            &keys.public,
            &Plaintext::zero(n_ring, t_pt),
            AGGREGATION_LEVEL,
            rng,
        )?);
    }
    let mut accs: Vec<Option<Ciphertext>> = vec![None; work.acc_count];
    for row in &work.rows {
        match row {
            RowCombine::Simple(slot) => {
                multiply_into(&mut accs[0], cts[*slot].clone(), keys, stats)?;
            }
            RowCombine::Selected(groups) => {
                for (g, slots) in groups {
                    let ell = slots.len() as u64;
                    let mut sum: Option<Ciphertext> = None;
                    for &slot in slots {
                        match &mut sum {
                            None => sum = Some(cts[slot].clone()),
                            Some(s) => s.add_assign(&cts[slot])?,
                        }
                    }
                    let combined = sum
                        .expect("nonempty subsequence")
                        .sub_plain(&encode_constant(ell - 1, n_ring, t_pt)?)?;
                    multiply_into(&mut accs[*g], combined, keys, stats)?;
                }
            }
        }
    }
    // Materialize empty accumulators as Enc(x^0).
    let mut materialized: Vec<Ciphertext> = Vec::with_capacity(work.acc_count);
    for acc in accs {
        materialized.push(match acc {
            Some(c) => c,
            None => plan.neutral_acc(keys, rng)?,
        });
    }
    let out = match plan.analysis.group_kind {
        GroupKind::None | GroupKind::PerEdge => materialized.remove(0),
        GroupKind::SelfSide => materialized.remove(0).mul_monomial(work.self_shift),
        GroupKind::Cross => {
            // Shift each group accumulator into its additive window and
            // sum.
            let min_level = materialized
                .iter()
                .map(|c| c.level())
                .min()
                .expect("nonempty");
            let mut sum: Option<Ciphertext> = None;
            for (g, ct) in materialized.into_iter().enumerate() {
                let shifted = ct
                    .mod_switch_to(min_level)?
                    .mul_monomial(g * plan.analysis.group_window);
                match &mut sum {
                    None => sum = Some(shifted),
                    Some(s) => s.add_assign(&shifted)?,
                }
            }
            sum.expect("at least one group")
        }
    };
    Ok(out)
}

/// The canonical aggregation level: every origin ciphertext is
/// mod-switched to the bottom of the chain *before* any summation.
///
/// An origin's output level is data-dependent (one switch-down per
/// homomorphic multiplication), so aligning to the *local* minimum would
/// make the aggregate's bytes depend on which ciphertexts happen to share
/// a summation tree. Mod-switching does not commute with addition at the
/// byte level (the rounding differs), so a shard that sums at its local
/// minimum and lets the coordinator switch the *sum* down would produce a
/// different — equally decryptable — ciphertext than the hub. Pinning
/// every leaf to level 1 makes the sealed aggregate a pure mod-q sum of
/// partition-independent leaves: bit-identical for any shard layout, which
/// is what lets the round certificate commit a canonical aggregate digest.
pub const AGGREGATION_LEVEL: usize = 1;

/// Aggregator side (§4.2): [`seal_shard_root`] over every origin, keeping
/// only the root sum.
pub fn aggregate_and_audit(origin_cts: Vec<Ciphertext>) -> Result<Ciphertext, ExecError> {
    Ok(seal_shard_root(origin_cts)?.sum)
}

/// Aligns the origin ciphertexts to [`AGGREGATION_LEVEL`] (the one
/// canonical level, so a partition into shards never shows in the bytes),
/// builds the verifiable summation tree, audits inclusion paths and random
/// interior nodes, and seals the root — the hub's global aggregate, or a
/// shard's partial root for shipment to the coordinator.
pub fn seal_shard_root(
    origin_cts: Vec<Ciphertext>,
) -> Result<crate::summation::PartialRoot, ExecError> {
    let aligned: Vec<Ciphertext> =
        par::map(&origin_cts, |_, ct| ct.mod_switch_to(AGGREGATION_LEVEL))
            .into_iter()
            .collect::<Result<_, _>>()?;
    drop(origin_cts);
    let audit_copies: Vec<Ciphertext> = aligned.iter().take(3).cloned().collect();
    let tree = crate::summation::SummationTree::build(aligned)?;
    let root_commitment = tree.root().commitment;
    for (i, own) in audit_copies.iter().enumerate() {
        tree.verify_inclusion(i, own, &root_commitment)
            .expect("honest aggregator's summation tree verifies");
    }
    tree.spot_check_random(0xA0D1, 8)
        .expect("honest aggregator's partial sums verify");
    Ok(tree.seal_root())
}

/// Coordinator side of the sharded aggregation plane: grafts the sealed
/// shard roots (all already at [`AGGREGATION_LEVEL`]) into the top
/// summation tree ([`SummationTree::combine_partials`](crate::summation::SummationTree::combine_partials)),
/// audits it, and returns the global root sum. Homomorphic addition is
/// exact coefficient-wise addition mod q and every leaf was switched to
/// the canonical level *before* any summation, so for any shard count the
/// returned ciphertext is bit-identical to [`aggregate_and_audit`] over
/// the concatenated origin ciphertexts.
pub fn combine_shard_roots(
    parts: Vec<crate::summation::PartialRoot>,
) -> Result<Ciphertext, ExecError> {
    let aligned: Vec<crate::summation::PartialRoot> = parts
        .into_iter()
        .map(|mut p| {
            p.sum = p.sum.mod_switch_to(AGGREGATION_LEVEL)?;
            Ok::<_, mycelium_bgv::BgvError>(p)
        })
        .collect::<Result<_, _>>()?;
    let tree = crate::summation::SummationTree::combine_partials(&aligned)?;
    tree.spot_check_random(0xC0DE, 8)
        .expect("honest coordinator's top tree verifies");
    Ok(tree.root().sum.clone())
}
