//! Query planning and the per-role protocol building blocks.
//!
//! [`run_query_encrypted`](crate::exec::run_query_encrypted) executes the
//! whole round as one in-process pipeline; `mycelium_net::round` executes
//! the same round as processes, or as actors on the simnet. Both are built
//! from the pieces here, so the two paths cannot drift apart:
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

use std::cell::RefCell;
use std::sync::Arc;

use mycelium_bgv::encoding::{encode_constant, encode_monomial};
use mycelium_bgv::noise::{plan_chain, start_level};
use mycelium_bgv::{BgvError, BgvParams, Ciphertext, KeySet, Plaintext};
use mycelium_crypto::codec::Writer;
use mycelium_crypto::sha256::{self, Digest};
use mycelium_graph::generate::Population;
use mycelium_graph::graph::VertexId;
use mycelium_math::ew;
use mycelium_math::rng::Rng;
use mycelium_math::rns::{Representation, RnsContext, RnsPoly};
use mycelium_math::zq::Modulus;
use mycelium_query::analyze::{Analysis, ClauseSite, GroupKind};
use mycelium_query::ast::Query;
use mycelium_query::crosseval::{clause_holds_at_position, cross_group_index, discretize_dest};
use mycelium_query::eval::{eval_atom, eval_value, group_index, self_group_index, Row};
use mycelium_zkp::wellformed::{well_formed_circuit, well_formed_witness, WellFormedCircuit};
use mycelium_zkp::{argument, Proof};

use crate::exec::{ExecError, ExecStats};
use crate::params::SystemParams;

/// Where the encoding writers ([`put_part`], [`put_ciphertext`]) put bytes:
/// each call lends the next `n` bytes, every one of which the writer fills —
/// the codec's `Writer` (a row at a time, so each is zeroed and packed while
/// it is in cache) or a buffer filled front to back.
pub trait Sink {
    /// The next `n` bytes, to be filled whole.
    fn lend(&mut self, n: usize) -> &mut [u8];
}

impl Sink for Writer {
    fn lend(&mut self, n: usize) -> &mut [u8] {
        self.put_zeroed(n)
    }
}

impl Sink for &mut [u8] {
    fn lend(&mut self, n: usize) -> &mut [u8] {
        let (head, tail) = std::mem::take(self).split_at_mut(n);
        *self = tail;
        head
    }
}

/// Bytes [`put_part`] writes for `p`.
pub fn part_len(p: &RnsPoly) -> usize {
    2 + p.context().packed_bytes(p.level())
}

/// The one writer of a ring element's bytes — what the wire codec writes
/// for one, what [`ciphertext_digest`] hashes and what a parked ciphertext
/// ([`Parked`](crate::aggcore::Parked)) holds: the representation tag, the
/// level, and each residue row packed at the width of its prime.
pub fn put_part(out: &mut impl Sink, p: &RnsPoly) {
    let head = out.lend(2);
    head[0] = match p.representation() {
        Representation::Coefficient => 0,
        Representation::Ntt => 1,
    };
    head[1] = p.level() as u8;
    for (m, row) in p.context().moduli().iter().zip(p.residues()) {
        ew::pack(m, out.lend(ew::packed_len(m.bits(), row.len())), row);
    }
}

/// Bytes [`put_ciphertext`] writes for `ct`.
pub fn ciphertext_len(ct: &Ciphertext) -> usize {
    1 + ct.parts().iter().map(part_len).sum::<usize>()
}

/// A ciphertext's encoding — the wire's, the journal's and a parked
/// ciphertext's: its part count (one byte), then each part as
/// [`put_part`] writes it.
pub fn put_ciphertext(out: &mut impl Sink, ct: &Ciphertext) {
    out.lend(1)[0] = ct.parts().len() as u8;
    for p in ct.parts() {
        put_part(out, p);
    }
}

/// Inverse of [`put_ciphertext`], into ring elements of `ctx` — for
/// bytes this process wrote itself, so malformed ones panic (the wire
/// codec validates what a peer sends).
pub fn read_ciphertext(bytes: &[u8], ctx: &Arc<RnsContext>, params: &BgvParams) -> Ciphertext {
    let mut at = 1;
    let mut parts = Vec::with_capacity(bytes[0] as usize);
    for _ in 0..bytes[0] {
        let rep = match bytes[at] {
            0 => Representation::Coefficient,
            _ => Representation::Ntt,
        };
        let level = bytes[at + 1] as usize;
        at += 2;
        let mut rows = Vec::with_capacity(level);
        for m in &ctx.moduli()[..level] {
            let packed = ew::packed_len(m.bits(), ctx.degree());
            let mut row = vec![0u64; ctx.degree()];
            let canonical = ew::unpack(m, &mut row, &bytes[at..at + packed]);
            assert!(canonical, "a residue at or above its prime");
            rows.push(row);
            at += packed;
        }
        parts.push(RnsPoly::from_residues(Arc::clone(ctx), rep, rows));
    }
    assert_eq!(at, bytes.len(), "ciphertext length");
    Ciphertext::from_parts(parts, params.clone())
}

/// [`ciphertext_digest`] of the ciphertext whose encoding
/// ([`put_ciphertext`]) is `encoded`, hashing those bytes where they lie.
pub fn encoding_digest(encoded: &[u8]) -> Digest {
    parts_digest(encoded[0], &encoded[1..])
}

/// [`ciphertext_digest`] of `nparts` parts whose bytes ([`put_part`]) are
/// `parts`.
fn parts_digest(nparts: u8, parts: &[u8]) -> Digest {
    let mut domain = *b"myc-ct-v3\0";
    domain[9] = nparts;
    sha256::striped(&domain, parts)
}

/// Digest of a ciphertext — what binds proofs and the certificate to
/// concrete ciphertexts:
/// `sha256::striped("myc-ct-v3" ‖ nparts as u8, bytes)`, where `bytes` is
/// exactly what the wire codec writes for the parts, in order
/// ([`put_part`]). What travels is what is hashed; a canonical residue
/// has exactly one packed form, so the digest is as injective as the
/// encoding. The bytes are packed into a buffer each thread keeps, so a
/// digest allocates nothing once the thread has taken one of this size.
pub fn ciphertext_digest(ct: &Ciphertext) -> Digest {
    thread_local! {
        static BYTES: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
    }
    BYTES.with_borrow_mut(|bytes| {
        // Every byte is written before it is hashed: the buffer only
        // grows, and only its growth is zeroed.
        bytes.resize(ciphertext_len(ct) - 1, 0);
        let mut out = &mut bytes[..];
        for p in ct.parts() {
            put_part(&mut out, p);
        }
        parts_digest(ct.parts().len() as u8, bytes)
    })
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
    /// `chain_starts[m]`: the level an accumulator of `m` multiplications
    /// starts at ([`start_level`]), for every count the plan admits.
    chain_starts: Vec<usize>,
    /// `contribution_levels[slot]`: the level a contribution to `slot` is
    /// encrypted at ([`QueryPlan::contribution_level`]).
    contribution_levels: Vec<usize>,
    /// The top of the modulus chain.
    top_level: usize,
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
        let admitted = analysis
            .muls
            .min(pop.graph.max_degree().pow(query.hops as u32));
        if !plan_chain(&params.bgv, admitted).feasible {
            return Err(ExecError::NoiseBudgetExceeded {
                muls: analysis.muls,
            });
        }
        // Every origin output (each group accumulator, under cross
        // grouping) is one leaf of the global sum; a §4.5 feed adds up to
        // one ciphertext per sequence position.
        let leaves = pop.graph.len() * accumulators(&analysis);
        let width = analysis
            .sequence_column
            .as_ref()
            .map_or(1, |col| schema.column_range(col));
        // An origin's rows are its k-hop neighbourhood, at most
        // `max_degree^hops` vertices, and each accumulator is fed at most
        // once per row.
        let most_feeds = pop.graph.max_degree().pow(query.hops as u32);
        // The level-1 sum must hold every leaf. The population's count of
        // leaves born there with fresh noise (unfed accumulators,
        // self-failed zeros) may not need a higher start than one such leaf
        // does, and a chain of every feed count the population produces
        // needs a start.
        let bgv = &params.bgv;
        let summable = start_level(bgv, 0, leaves, 1) == start_level(bgv, 0, 1, 1)
            && (0..most_feeds).all(|m| start_level(bgv, m, leaves, width).is_some());
        if !summable {
            return Err(ExecError::NoiseBudgetExceeded {
                muls: analysis.muls,
            });
        }
        let chain_starts = (0..=admitted)
            .map_while(|m| start_level(bgv, m, leaves, width))
            .collect();
        let field = Modulus::new_prime(2_147_483_647).expect("prime");
        let circuit = with_proofs
            .then(|| well_formed_circuit(field, analysis.total_span, analysis.total_span));
        let released_len = if analysis.joint_ratio {
            analysis.count_radix * analysis.value_radix
        } else {
            analysis.value_radix
        };
        let mut plan = Self {
            analysis,
            n_ring,
            t_pt: params.bgv.plaintext_modulus,
            circuit,
            released_len,
            chain_starts,
            contribution_levels: Vec::new(),
            top_level: params.bgv.levels,
        };
        plan.contribution_levels = plan.slot_levels(most_feeds);
        Ok(plan)
    }

    /// Per slot, the highest level at which [`combine_origin`]'s reversed
    /// fold consumes that slot's operand, over every accumulator of up to
    /// `most_feeds` feeds, and never below an earlier slot's. Of `f`
    /// feeds, the last moves in first, at `s = chain_start(f − 1)`; feed
    /// `j < f − 1` meets the accumulator after `f − 2 − j` products, at
    /// `max(1, s − (f − 2 − j))`. A feed's slot index is at least its feed
    /// index (a §4.5 row adds one slot per selected position), so slot `j`'s
    /// level serves every feed it can be part of.
    fn slot_levels(&self, most_feeds: usize) -> Vec<usize> {
        let mut levels = vec![1; most_feeds];
        for f in 1..=most_feeds {
            let start = self.chain_start(f - 1);
            levels[f - 1] = levels[f - 1].max(start);
            for (j, level) in levels[..f - 1].iter_mut().enumerate() {
                *level = (*level).max(start.saturating_sub(f - 2 - j));
            }
        }
        for j in 1..most_feeds {
            levels[j] = levels[j].max(levels[j - 1]);
        }
        levels
    }

    /// The level a contribution to `slot` is encrypted at: every chain this
    /// population admits consumes the slot's operand at or below it, so an
    /// origin only ever switches a contribution down. A function of the
    /// slot index and the public plan alone — never of the origin's degree,
    /// its `self` clauses or its §4.5 selections.
    pub fn contribution_level(&self, slot: usize) -> usize {
        let levels = &self.contribution_levels;
        let level = levels.get(slot).or(levels.last());
        level.copied().unwrap_or(self.top_level)
    }

    /// The level an accumulator of `muls` multiplications starts at: the
    /// planned one, or the top of the chain for a count beyond the table.
    pub fn chain_start(&self, muls: usize) -> usize {
        self.chain_starts
            .get(muls)
            .copied()
            .unwrap_or(self.top_level)
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
    /// [`QueryPlan::build_contribution_at`] the top of the modulus chain.
    pub fn build_contribution<R: Rng + ?Sized>(
        &self,
        keys: &KeySet,
        device: VertexId,
        exp: usize,
        cheating: bool,
        rng: &mut R,
    ) -> Result<SignedContribution, ExecError> {
        self.build_contribution_at(keys, device, exp, cheating, self.top_level, rng)
    }

    /// Device side: encrypts `x^exp` at `level` (its slot's
    /// [`QueryPlan::contribution_level`]) and attaches a well-formedness
    /// proof when the plan requires one; the proof's statement binds the
    /// level. A `cheating` device doubles its coefficient (claiming twice
    /// its honest weight) and forges the proof — which cannot verify,
    /// since the witness violates the one-hot constraint system.
    pub fn build_contribution_at<R: Rng + ?Sized>(
        &self,
        keys: &KeySet,
        device: VertexId,
        exp: usize,
        cheating: bool,
        level: usize,
        rng: &mut R,
    ) -> Result<SignedContribution, ExecError> {
        let mut coeffs = vec![0u64; self.n_ring];
        coeffs[exp] = if cheating { 2 } else { 1 };
        let pt = Plaintext::new(coeffs.clone(), self.t_pt)?;
        let ct = Ciphertext::encrypt_at_level(&keys.public, &pt, level, rng)?;
        let proof = self.circuit.as_ref().map(|c| {
            let witness = well_formed_witness(c, &coeffs[..self.analysis.total_span]);
            let statement = ciphertext_digest(&ct);
            argument::prove_unchecked(&c.cs, &witness, &statement, argument::DEFAULT_CHECKS)
        });
        Ok(SignedContribution { device, ct, proof })
    }

    /// [`QueryPlan::neutral_ct_at`] the top of the modulus chain.
    pub fn neutral_ct<R: Rng + ?Sized>(
        &self,
        keys: &KeySet,
        rng: &mut R,
    ) -> Result<Ciphertext, ExecError> {
        self.neutral_ct_at(keys, self.top_level, rng)
    }

    /// `Enc(x^0)` at `level`: what a dropped-out device defaults to (§4.4)
    /// and what the aggregator substitutes for a rejected contribution
    /// (§4.7), both at the slot's [`QueryPlan::contribution_level`], so a
    /// substitute flows through the same combine as an honest
    /// contribution; and, at [`AGGREGATION_LEVEL`], an accumulator no row
    /// feeds — never multiplied, only shifted and summed.
    pub fn neutral_ct_at<R: Rng + ?Sized>(
        &self,
        keys: &KeySet,
        level: usize,
        rng: &mut R,
    ) -> Result<Ciphertext, ExecError> {
        let pt = encode_monomial(0, self.n_ring, self.t_pt)?;
        Ok(Ciphertext::encrypt_at_level(&keys.public, &pt, level, rng)?)
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

impl OriginWork {
    /// How many times each accumulator is fed: one feed per `Simple` row
    /// into accumulator 0, one per selected group of a `Selected` row.
    /// An accumulator fed `f` times multiplies `f − 1` times.
    pub fn feeds(&self) -> Vec<usize> {
        let mut feeds = vec![0usize; self.acc_count];
        for row in &self.rows {
            match row {
                RowCombine::Simple(_) => feeds[0] += 1,
                RowCombine::Selected(groups) => {
                    for (g, _) in groups {
                        feeds[*g] += 1;
                    }
                }
            }
        }
        feeds
    }
}

/// Group accumulators per origin: one per group under cross grouping,
/// else one.
fn accumulators(analysis: &Analysis) -> usize {
    if analysis.group_kind == GroupKind::Cross {
        analysis.groups
    } else {
        1
    }
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
/// level as the noise plan requires. The first feed only moves in,
/// switched down to `start` ([`QueryPlan::chain_start`]).
pub fn multiply_into(
    acc: &mut Option<Ciphertext>,
    fresh: Ciphertext,
    start: usize,
    keys: &KeySet,
    stats: &mut ExecStats,
) -> Result<(), ExecError> {
    match acc.take() {
        None if fresh.level() > start => *acc = Some(fresh.mod_switch_to(start)?),
        None => *acc = Some(fresh),
        Some(a) => {
            let fresh = at_level(fresh, a.level())?;
            let mut prod = a.mul_relinearize(&fresh, &keys.relin)?;
            if prod.level() > 1 {
                prod = prod.mod_switch_down()?;
            }
            stats.multiplications += 1;
            *acc = Some(prod);
        }
    }
    Ok(())
}

/// `ct` switched down to `level`, or moved as it is when it is there.
fn at_level(ct: Ciphertext, level: usize) -> Result<Ciphertext, BgvError> {
    if ct.level() == level {
        Ok(ct)
    } else {
        ct.mod_switch_to(level)
    }
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
    let acc_count = accumulators(analysis);
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
/// `work.requests[slot]`, at or above its slot's
/// [`QueryPlan::contribution_level`]. Rows fold last to first, so the low
/// slots every origin fills meet the accumulator lowest in the chain and
/// the top level is only ever needed by a high slot that few origins have.
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
    let starts: Vec<usize> = work
        .feeds()
        .iter()
        .map(|&f| plan.chain_start(f.saturating_sub(1)))
        .collect();
    let mut accs: Vec<Option<Ciphertext>> = vec![None; work.acc_count];
    for row in work.rows.iter().rev() {
        match row {
            RowCombine::Simple(slot) => {
                multiply_into(&mut accs[0], cts[*slot].clone(), starts[0], keys, stats)?;
            }
            RowCombine::Selected(groups) => {
                for (g, slots) in groups {
                    // The selected slots are added where they meet the
                    // accumulator (its level, or the start for the first
                    // feed): each above it is switched there first, each
                    // at it is read in place.
                    let level = accs[*g].as_ref().map_or(starts[*g], Ciphertext::level);
                    let ell = slots.len() as u64;
                    let mut sum: Option<Ciphertext> = None;
                    for &slot in slots {
                        let switched;
                        let ct = if cts[slot].level() == level {
                            &cts[slot]
                        } else {
                            switched = cts[slot].mod_switch_to(level)?;
                            &switched
                        };
                        match &mut sum {
                            None => sum = Some(ct.clone()),
                            Some(s) => s.add_assign(ct)?,
                        }
                    }
                    let combined = sum
                        .expect("nonempty subsequence")
                        .sub_plain(&encode_constant(ell - 1, n_ring, t_pt)?)?;
                    multiply_into(&mut accs[*g], combined, starts[*g], keys, stats)?;
                }
            }
        }
    }
    // Materialize empty accumulators as Enc(x^0).
    let mut materialized: Vec<Ciphertext> = Vec::with_capacity(work.acc_count);
    for acc in accs {
        materialized.push(match acc {
            Some(c) => c,
            None => plan.neutral_ct_at(keys, AGGREGATION_LEVEL, rng)?,
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
                let shifted = at_level(ct, min_level)?.mul_monomial(g * plan.analysis.group_window);
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
/// homomorphic multiplication, from a start the population size can
/// raise: [`QueryPlan::chain_start`]), so aligning to the *local* minimum
/// would make the aggregate's bytes depend on which ciphertexts happen to
/// be summed together. Mod-switching does not commute with addition at the
/// byte level (the rounding differs), so a shard that sums at its local
/// minimum and lets the coordinator switch the *sum* down would produce a
/// different — equally decryptable — ciphertext than the hub. Pinning
/// every term to level 1 makes the sealed aggregate a pure mod-q sum of
/// partition-independent terms: bit-identical for any shard layout, which
/// is what lets the round certificate commit a canonical aggregate digest.
pub const AGGREGATION_LEVEL: usize = 1;

/// Aggregator side (§4.2): the one place an aggregate is summed — the hub's
/// global aggregate, a shard's partial root, or the coordinator's sum of
/// the shards' roots. A running fold: each ciphertext is aligned to
/// [`AGGREGATION_LEVEL`] (switched down if above it) and added to the sum
/// as it comes, so the caller can make the terms one at a time and no more
/// than the sum and one term are held. Addition mod q is exact, so the
/// bytes are those of any order or partition summed again. No party
/// audits the additions (DESIGN.md, "Summation-tree audit"): the round
/// certificate's aggregate digest binds the result.
///
/// # Panics
///
/// Panics on an empty input: every caller sums at least one `Enc(0)`.
pub fn aggregate_and_audit(
    cts: impl IntoIterator<Item = Ciphertext>,
) -> Result<Ciphertext, ExecError> {
    let aligned = |ct: Ciphertext| match ct.level() {
        AGGREGATION_LEVEL => Ok(ct),
        _ => ct.mod_switch_to(AGGREGATION_LEVEL),
    };
    let mut cts = cts.into_iter();
    let first = cts
        .next()
        .expect("an aggregate needs at least one ciphertext");
    let mut sum = aligned(first)?;
    for ct in cts {
        sum.add_assign(&aligned(ct)?)?;
    }
    Ok(sum)
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    use mycelium_graph::generate::{epidemic_population, ContactGraphConfig, EpidemicConfig};
    use mycelium_math::rng::{SeedableRng, StdRng};
    use mycelium_query::builtin::paper_query;

    use super::*;

    /// An epidemic population of `n` under `params`' degree bound.
    fn population(params: &SystemParams, n: usize) -> Population {
        let cfg = ContactGraphConfig {
            n,
            degree_bound: params.schema.degree_bound,
            ..ContactGraphConfig::default()
        };
        let rng = &mut StdRng::seed_from_u64(7);
        epidemic_population(&cfg, &EpidemicConfig::default(), rng)
    }

    /// `(slot, level)` for every operand [`combine_origin`] consumes, at
    /// the level it meets its accumulator — the fold's level arithmetic,
    /// with no cryptography.
    fn consumed_levels(plan: &QueryPlan, work: &OriginWork) -> Vec<(usize, usize)> {
        let feeds = work.feeds();
        let mut at: Vec<Option<usize>> = vec![None; work.acc_count];
        let mut consumed = Vec::new();
        for row in work.rows.iter().rev() {
            let groups = match row {
                RowCombine::Simple(slot) => vec![(0, vec![*slot])],
                RowCombine::Selected(groups) => groups.clone(),
            };
            for (g, slots) in groups {
                let start = plan.chain_start(feeds[g] - 1);
                let meet = at[g].unwrap_or(start);
                consumed.extend(slots.iter().map(|&slot| (slot, meet)));
                at[g] = Some(at[g].map_or(start, |l| l.saturating_sub(1).max(1)));
            }
        }
        consumed
    }

    /// A plain work of `f` rows, slot `j` from device `j + 1`, each `x^1`.
    fn plain_work(f: usize) -> OriginWork {
        OriginWork {
            origin: 0,
            requests: (1..=f as VertexId).map(|w| (w, 1)).collect(),
            rows: (0..f).map(RowCombine::Simple).collect(),
            acc_count: 1,
            self_ok: true,
            self_shift: 0,
        }
    }

    #[test]
    fn the_reversed_fold_never_consumes_an_operand_above_its_slots_level() {
        // Plain (Q4), §4.5-selected (Q3) and cross-grouped (Q10) queries
        // under the simulation schema at every preset that computes, and
        // under the paper's schema at the paper's preset: every feed count
        // a population admits, and every origin's own work.
        let mut presets: Vec<SystemParams> = [
            BgvParams::test_small(),
            BgvParams::test_medium(),
            BgvParams::paper(),
        ]
        .into_iter()
        .map(|bgv| SystemParams {
            bgv,
            ..SystemParams::simulation()
        })
        .collect();
        presets.push(SystemParams::paper());
        for params in &presets {
            let pop = population(params, 40);
            let most_feeds = pop.graph.max_degree();
            for name in ["Q4", "Q3", "Q10"] {
                let query = paper_query(name).unwrap();
                let plan = QueryPlan::new(&query, &pop, params, false).unwrap();
                let what = format!("{name} at {} levels", params.bgv.levels);
                let works = (0..pop.graph.len() as VertexId)
                    .map(|v| origin_work(&plan, &query, params, &pop, v))
                    .chain((1..=most_feeds).map(plain_work));
                for work in works {
                    assert!(work.feeds().iter().all(|&f| f <= most_feeds));
                    for (slot, level) in consumed_levels(&plan, &work) {
                        let planned = plan.contribution_level(slot);
                        assert!(
                            level <= planned,
                            "{what}: slot {slot} at {level} > {planned}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn planning_refuses_a_population_its_level_one_sum_cannot_hold() {
        // At `test_small` a leaf born at the aggregation level carries
        // ≈ 25.3 bits of fresh noise against a 39-bit budget, so the
        // level-1 sum holds fewer than 2^13.7 of them: a population of
        // 10^4 fits, one of 2^14 does not.
        let params = SystemParams::simulation();
        let q4 = paper_query("Q4").unwrap();
        let plan = |n| QueryPlan::new(&q4, &population(&params, n), &params, false);
        assert!(plan(10_000).is_ok());
        assert!(matches!(
            plan(1 << 14),
            Err(ExecError::NoiseBudgetExceeded { .. })
        ));
    }

    #[test]
    fn contribution_levels_at_test_small() {
        // A chain of `f` feeds starts at level `f`, so slot `j` is consumed
        // at `j + 2` at most, and the last slot of the longest chain at
        // its start: 2, 3, 4, 4 for a population of degree 4.
        let params = SystemParams::simulation();
        let pop = population(&params, 40);
        assert_eq!(pop.graph.max_degree(), 4);
        let plan = QueryPlan::new(&paper_query("Q4").unwrap(), &pop, &params, false).unwrap();
        let levels: Vec<usize> = (0..6).map(|slot| plan.contribution_level(slot)).collect();
        assert_eq!(levels, [2, 3, 4, 4, 4, 4]);
    }

    /// Combines `f` feeds of `x^1`, each encrypted at its slot's level,
    /// for every feed count up to the population's degree, and checks the
    /// product decrypts to `x^f` exactly, within the noise
    /// [`mycelium_bgv::noise::plan_chain_from`] plans from the chain's
    /// start.
    fn at_level_chains_decrypt_within_the_plan(bgv: BgvParams) {
        let params = SystemParams {
            bgv,
            ..SystemParams::simulation()
        };
        let pop = population(&params, 40);
        let plan = QueryPlan::new(&paper_query("Q4").unwrap(), &pop, &params, false).unwrap();
        let rng = &mut StdRng::seed_from_u64(11);
        let keys = KeySet::generate(&params.bgv, rng);
        for f in 1..=pop.graph.max_degree() {
            let work = plain_work(f);
            let contribution = |(slot, &(w, exp)): (usize, &(VertexId, usize))| {
                let level = plan.contribution_level(slot);
                let sc = plan.build_contribution_at(&keys, w, exp, false, level, rng);
                sc.unwrap().ct
            };
            let cts: Vec<_> = work.requests.iter().enumerate().map(contribution).collect();
            let stats = &mut ExecStats::default();
            let out = combine_origin(&plan, &keys, &work, &cts, stats, rng).unwrap();
            let chain =
                mycelium_bgv::noise::plan_chain_from(&params.bgv, f - 1, plan.chain_start(f - 1));
            assert_eq!(out.level(), chain.final_level, "f {f}");
            let (pt, measured, _) = out.decrypt_with_noise(&keys.secret);
            let mut want = vec![0u64; params.bgv.n];
            want[f] = 1;
            assert_eq!(pt.coeffs(), want.as_slice(), "f {f}: x^{f}");
            let planned = chain.final_noise_log2;
            assert!(
                measured <= planned,
                "f {f}: measured {measured} > {planned}"
            );
        }
    }

    #[test]
    fn at_level_chains_decrypt_within_the_plan_at_test_small() {
        at_level_chains_decrypt_within_the_plan(BgvParams::test_small());
    }

    #[test]
    fn at_level_chains_decrypt_within_the_plan_at_test_medium() {
        at_level_chains_decrypt_within_the_plan(BgvParams::test_medium());
    }

    /// A two-part ciphertext over three 45-bit primes at degree 2048 —
    /// 69 124 encoded bytes, sixteen stripes of 4 352 whose boundaries fall
    /// inside rows.
    fn ciphertext(rep: Representation, parts: [Vec<Vec<u64>>; 2]) -> Ciphertext {
        let params = BgvParams::test_medium();
        let ctx = RnsContext::new(2048, &params.chain_primes()[..3]).unwrap();
        let parts = parts.map(|rows| RnsPoly::from_residues(Arc::clone(&ctx), rep, rows));
        Ciphertext::from_parts(parts.into(), params)
    }

    fn residues(salt: u64) -> Vec<Vec<u64>> {
        let primes = BgvParams::test_medium().chain_primes();
        let row = |q: u64| {
            let draw = |i: u64| (i << 8 ^ salt).wrapping_mul(0x9e37_79b9_7f4a_7c15) % q;
            (0..2048u64).map(draw).collect()
        };
        primes[..3].iter().map(|&q| row(q)).collect()
    }

    #[test]
    fn every_residue_of_every_part_moves_the_digest() {
        let base = [residues(1), residues(2)];
        let primes = BgvParams::test_medium().chain_primes();
        let mut seen = HashSet::from([ciphertext_digest(&ciphertext(
            Representation::Ntt,
            base.clone(),
        ))]);
        // Every lane position of the first pack group and of the last, in
        // every row of both parts.
        let lanes = (0..ew::PACK_LANES).chain(2048 - ew::PACK_LANES..2048);
        for part in 0..2 {
            for (row, &q) in primes[..3].iter().enumerate() {
                for lane in lanes.clone() {
                    let mut parts = base.clone();
                    let x = &mut parts[part][row][lane];
                    *x = (*x + 1) % q;
                    let d = ciphertext_digest(&ciphertext(Representation::Ntt, parts));
                    assert!(seen.insert(d), "part {part} row {row} lane {lane}");
                }
            }
        }
    }

    #[test]
    fn part_order_level_and_representation_are_bound() {
        let [c0, c1] = [residues(1), residues(2)];
        let digest = |rep, parts| ciphertext_digest(&ciphertext(rep, parts));
        let base = digest(Representation::Ntt, [c0.clone(), c1.clone()]);
        // c0 and c1 swapped.
        assert_ne!(digest(Representation::Ntt, [c1.clone(), c0.clone()]), base);
        // The same residues in coefficient form.
        assert_ne!(
            digest(Representation::Coefficient, [c0.clone(), c1.clone()]),
            base
        );
        // One level down: the same leading rows, the last prime dropped.
        let drop = |mut rows: Vec<Vec<u64>>| {
            rows.pop();
            rows
        };
        assert_ne!(digest(Representation::Ntt, [drop(c0), drop(c1)]), base);
    }

    /// `ct`'s wire encoding.
    fn encoding(ct: &Ciphertext) -> Vec<u8> {
        let mut bytes = vec![0u8; ciphertext_len(ct)];
        put_ciphertext(&mut &mut bytes[..], ct);
        bytes
    }

    /// `n` fresh encryptions at `test_small`, of `x^(i mod 7)` for the `i`-th.
    fn monomials(n: usize) -> (KeySet, Vec<Ciphertext>) {
        let params = BgvParams::test_small();
        let mut rng = StdRng::seed_from_u64(313);
        let keys = KeySet::generate_deferred(&params, &mut rng);
        let cts = (0..n)
            .map(|i| {
                let pt = encode_monomial(i % 7, params.n, params.plaintext_modulus).unwrap();
                Ciphertext::encrypt(&keys.public, &pt, &mut rng).unwrap()
            })
            .collect();
        (keys, cts)
    }

    #[test]
    fn root_is_the_full_sum() {
        for n in [1usize, 2, 5, 8] {
            let (keys, cts) = monomials(n);
            let root = aggregate_and_audit(cts).unwrap();
            assert_eq!(root.level(), AGGREGATION_LEVEL);
            // One monomial per ciphertext: the coefficients add up to n.
            let total: u64 = root.decrypt(&keys.secret).coeffs().iter().sum();
            assert_eq!(total, n as u64, "n={n}");
        }
    }

    #[test]
    fn combined_partials_root_bit_identical_to_flat_tree() {
        // Homomorphic addition is exact mod-q addition of RNS residues,
        // so the root's encoding must be bit-identical for *any* order and
        // partition of the ciphertexts into shards — the invariant the
        // sharded aggregation plane rests on: the coordinator sums the
        // shards' roots the same way. The terms differ in noise (the
        // `i`-th is the sum of the first `i + 1`), as origins' outputs do.
        let (_, cts) = monomials(16);
        let mut terms: Vec<Ciphertext> = Vec::new();
        for ct in &cts {
            let ct = ct.mod_switch_to(AGGREGATION_LEVEL).unwrap();
            terms.push(terms.last().map_or(ct.clone(), |t| t.add(&ct).unwrap()));
        }
        for n in 1..=terms.len() {
            let terms = &terms[..n];
            let flat = encoding(&aggregate_and_audit(terms.to_vec()).unwrap());
            let reversed: Vec<Ciphertext> = terms.iter().rev().cloned().collect();
            let reversed = encoding(&aggregate_and_audit(reversed).unwrap());
            assert!(reversed == flat, "n={n} reversed");
            for shards in [1usize, 2, 4, 8] {
                let mut buckets: Vec<Vec<Ciphertext>> = vec![Vec::new(); shards.min(n)];
                for (i, ct) in terms.iter().enumerate() {
                    buckets[i % shards.min(n)].push(ct.clone());
                }
                let roots = buckets.into_iter().map(|b| aggregate_and_audit(b).unwrap());
                let top = aggregate_and_audit(roots.collect::<Vec<_>>()).unwrap();
                assert!(encoding(&top) == flat, "n={n} shards={shards}");
            }
        }
    }
    #[test]
    fn the_running_fold_equals_the_aligned_sum_at_mixed_levels() {
        // Terms at every level of the chain, folded one at a time off a
        // lazy iterator in shuffled orders: the bytes are those of every
        // term switched to the aggregation level first and then summed,
        // as the sum over a `Vec` was formed.
        let (keys, cts) = monomials(12);
        let top = keys.public.context().max_level();
        let terms: Vec<Ciphertext> = cts
            .iter()
            .enumerate()
            .map(|(i, ct)| ct.mod_switch_to(1 + i % top).unwrap())
            .collect();
        let aligned = terms
            .iter()
            .map(|ct| ct.mod_switch_to(AGGREGATION_LEVEL).unwrap());
        let want = aligned.reduce(|a, b| a.add(&b).unwrap()).unwrap();
        assert!(encoding(&aggregate_and_audit(terms.clone()).unwrap()) == encoding(&want));
        let mut rng = StdRng::seed_from_u64(17);
        for _ in 0..4 {
            let mut order: Vec<usize> = (0..terms.len()).collect();
            for i in (1..order.len()).rev() {
                order.swap(i, rng.gen_range(0..=i));
            }
            let lazy = order.iter().map(|&i| terms[i].clone());
            let folded = aggregate_and_audit(lazy).unwrap();
            assert_eq!(folded.level(), AGGREGATION_LEVEL);
            assert!(encoding(&folded) == encoding(&want), "order {order:?}");
        }
    }
}
