//! The encrypted query executor (§4.3–§4.6).
//!
//! Simulates every device's protocol role in-process, with real
//! cryptography end to end:
//!
//! * **Neighbors** evaluate their `dest`/`edge` clauses exactly, encode
//!   their contribution as a monomial `x^e` (with the group/ratio packing
//!   from the analysis), encrypt under the system BGV key at the level
//!   their origin's product consumes the slot at, and attach a
//!   well-formedness proof.
//! * **The aggregator** verifies each proof and replaces the contribution
//!   of any device whose proof fails with the neutral `Enc(x^0)` (§4.6 /
//!   §4.7: Byzantine inputs are discarded, bounding their influence).
//! * **Origins** multiply contributions together (selecting sequence
//!   positions for cross clauses), relinearizing after every product,
//!   apply their `self` clauses (failing → `Enc(0)`), shift into their
//!   `GROUP BY` window, and submit.
//! * **The aggregator** aligns levels and sums every origin's ciphertext;
//!   it never relinearizes (the paper defers relinearization to it, §5 —
//!   a deviation of this prototype). The **committee** threshold-decrypts
//!   and adds noise.
//!
//! The per-role building blocks (contribution building/verification, the
//! origin combine, the aggregate's one sum) live in [`crate::plan`] and
//! are shared with the message-passing execution in `mycelium_net::round`;
//! this module wires them into the direct, in-process pipeline.
//!
//! The decoded (pre-noise) result is exposed so integration tests can
//! compare it bit-for-bit against the plaintext oracle
//! (`mycelium_query::eval::evaluate`).

use mycelium_bgv::{BgvError, Ciphertext, KeySet, Plaintext};
use mycelium_crypto::sha256::Sha256;
use mycelium_dp::PrivacyBudget;
use mycelium_graph::generate::Population;
use mycelium_graph::graph::VertexId;
use mycelium_math::par;
use mycelium_math::rng::{Rng, SeedableRng, StdRng};
use mycelium_query::ast::Query;
use mycelium_query::eval::PlainResult;

use crate::committee::{run_committee, CommitteeError};
use crate::decode::decode_aggregate;
use crate::params::SystemParams;
use crate::plan::{combine_origin, origin_work, QueryPlan};

pub use crate::plan::ciphertext_digest;

/// Byzantine-behaviour injection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MaliciousBehavior {
    /// The device submits a contribution with a coefficient of 2 (twice
    /// its honest weight) and a forged proof.
    OversizedContribution {
        /// The cheating device.
        device: VertexId,
    },
    /// The device drops out mid-query: its contribution defaults to
    /// `Enc(x^0)` (§4.4 — "their value defaults to Enc(x^0)").
    DropOut {
        /// The vanished device.
        device: VertexId,
    },
}

impl MaliciousBehavior {
    /// Whether `device` submits oversized (forged-proof) contributions.
    pub fn is_cheater(behaviors: &[Self], device: VertexId) -> bool {
        behaviors
            .iter()
            .any(|b| matches!(b, Self::OversizedContribution { device: d } if *d == device))
    }

    /// Whether `device` drops out of the query.
    pub fn dropped_out(behaviors: &[Self], device: VertexId) -> bool {
        behaviors
            .iter()
            .any(|b| matches!(b, Self::DropOut { device: d } if *d == device))
    }
}

/// Executor errors.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecError {
    /// The window layout does not fit the ring degree.
    SpanTooLarge {
        /// Required coefficients.
        span: usize,
        /// Ring degree.
        ring: usize,
    },
    /// The multiplication chain exceeds the HE noise budget (§6.2 — the
    /// reason Q1 cannot run at paper scale).
    NoiseBudgetExceeded {
        /// Multiplications required.
        muls: usize,
    },
    /// Multi-hop queries are only supported for the simple (ungrouped,
    /// non-ratio, non-cross) shape, as in §4.4's basic protocol.
    UnsupportedMultiHop,
    /// An HE operation failed.
    Bgv(BgvError),
    /// Semantic analysis failed.
    Analyze(String),
    /// The committee phase failed.
    Committee(CommitteeError),
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::SpanTooLarge { span, ring } => {
                write!(f, "encoding needs {span} coefficients, ring has {ring}")
            }
            ExecError::NoiseBudgetExceeded { muls } => {
                write!(f, "{muls} multiplications exceed the HE noise budget")
            }
            ExecError::UnsupportedMultiHop => {
                write!(f, "multi-hop queries support only the basic COUNT shape")
            }
            ExecError::Bgv(e) => write!(f, "HE failure: {e}"),
            ExecError::Analyze(e) => write!(f, "analysis failure: {e}"),
            ExecError::Committee(e) => write!(f, "committee failure: {e}"),
        }
    }
}

impl std::error::Error for ExecError {}

impl From<BgvError> for ExecError {
    fn from(e: BgvError) -> Self {
        ExecError::Bgv(e)
    }
}

/// Execution statistics.
#[derive(Debug, Clone, Default)]
pub struct ExecStats {
    /// Ciphertexts produced by neighbors.
    pub neighbor_ciphertexts: usize,
    /// Homomorphic multiplications performed.
    pub multiplications: usize,
    /// Well-formedness proofs verified.
    pub proofs_verified: usize,
    /// Contributions rejected (invalid proofs).
    pub rejected: usize,
    /// Level of the final aggregate.
    pub final_level: usize,
    /// Measured noise budget of the aggregate before decryption (bits).
    pub final_budget_bits: f64,
}

impl ExecStats {
    /// Folds one origin's counters into the query-wide totals.
    pub(crate) fn merge(&mut self, other: &ExecStats) {
        self.neighbor_ciphertexts += other.neighbor_ciphertexts;
        self.multiplications += other.multiplications;
        self.proofs_verified += other.proofs_verified;
    }
}

/// One group's released (noisy) statistics.
#[derive(Debug, Clone)]
pub struct NoisyGroup {
    /// Group label.
    pub label: String,
    /// Noisy histogram (may contain negative values).
    pub histogram: Vec<i64>,
}

/// The outcome of an encrypted query run.
#[derive(Debug)]
pub struct EncryptedOutcome {
    /// Decoded exact (pre-noise) result — compare against the oracle.
    pub exact: PlainResult,
    /// The released, noised result (what the analyst sees).
    pub released: Vec<NoisyGroup>,
    /// Devices whose contributions were rejected.
    pub rejected_devices: Vec<VertexId>,
    /// Statistics.
    pub stats: ExecStats,
}

/// Assembles the released (noisy) groups from the exact decode and the
/// committee's joint noise (shared by the direct, simulated, and TCP
/// transport executors).
pub fn release_noisy(exact: &PlainResult, noise: &[i64], released_len: usize) -> Vec<NoisyGroup> {
    exact
        .groups
        .iter()
        .enumerate()
        .map(|(g, gr)| NoisyGroup {
            label: gr.label.clone(),
            histogram: gr
                .histogram
                .iter()
                .enumerate()
                .map(|(i, &c)| c as i64 + noise[g * released_len + i])
                .collect(),
        })
        .collect()
}

/// Runs a query end-to-end under encryption.
///
/// `with_proofs` enables the §4.6 well-formedness proofs (the aggregator
/// verifies each contribution and discards offenders). Disabling them is
/// faster and demonstrates — together with
/// [`MaliciousBehavior::OversizedContribution`] — exactly the attack the
/// proofs exist to stop.
#[allow(clippy::too_many_arguments)]
pub fn run_query_encrypted<R: Rng + ?Sized>(
    query: &Query,
    pop: &Population,
    params: &SystemParams,
    keys: &KeySet,
    behaviors: &[MaliciousBehavior],
    with_proofs: bool,
    budget: &mut PrivacyBudget,
    rng: &mut R,
) -> Result<EncryptedOutcome, ExecError> {
    let plan = QueryPlan::new(query, pop, params, with_proofs)?;
    let mut stats = ExecStats::default();
    let mut rejected_devices: Vec<VertexId> = Vec::new();

    // Every origin draws from its own randomness stream, derived from a
    // single master seed and its vertex id. Streams are independent of how
    // origins are scheduled across threads, so the query result is
    // bit-identical at any `MYC_THREADS` setting.
    let mut master_seed = [0u8; 32];
    rng.fill(&mut master_seed);
    let origin_rng = |v: VertexId| -> StdRng {
        let mut h = Sha256::new();
        h.update(&master_seed);
        h.update(&v.to_le_bytes());
        StdRng::from_seed(h.finalize())
    };

    let n_pop = pop.graph.len();
    // One origin = one unit of parallel work: compute the origin's work
    // list, build each requested neighbor contribution (the aggregator
    // verifying proofs and substituting Enc(x^0) for offenders), then
    // combine. The merge below folds private counters back in origin
    // order, so totals and the rejected list come out exactly as in a
    // serial run.
    let process_origin =
        |v: VertexId| -> Result<(Ciphertext, ExecStats, Vec<VertexId>), ExecError> {
            let mut stats = ExecStats::default();
            let mut rejected: Vec<VertexId> = Vec::new();
            let rng = &mut origin_rng(v);
            let work = origin_work(&plan, query, params, pop, v);
            let mut cts: Vec<Ciphertext> = Vec::with_capacity(work.requests.len());
            for (slot, &(w, exp)) in work.requests.iter().enumerate() {
                let level = plan.contribution_level(slot);
                if MaliciousBehavior::dropped_out(behaviors, w) {
                    // §4.4: dropped devices default to the neutral Enc(x^0).
                    cts.push(plan.neutral_ct_at(keys, level, rng)?);
                    continue;
                }
                let cheating = MaliciousBehavior::is_cheater(behaviors, w);
                let sc = plan.build_contribution_at(keys, w, exp, cheating, level, rng)?;
                stats.neighbor_ciphertexts += 1;
                if plan.circuit.is_some() {
                    stats.proofs_verified += 1;
                    if !plan.verify_contribution(&sc) {
                        // The aggregator discards this contribution (§4.7).
                        if !rejected.contains(&w) {
                            rejected.push(w);
                        }
                        cts.push(plan.neutral_ct_at(keys, level, rng)?);
                        continue;
                    }
                }
                cts.push(sc.ct);
            }
            let out = combine_origin(&plan, keys, &work, &cts, &mut stats, rng)?;
            Ok((out, stats, rejected))
        };
    let mut origin_cts: Vec<Ciphertext> = Vec::with_capacity(n_pop);
    for result in par::map_indices(n_pop, |v| process_origin(v as VertexId)) {
        let (ct, origin_stats, origin_rejected) = result?;
        stats.merge(&origin_stats);
        for w in origin_rejected {
            if !rejected_devices.contains(&w) {
                rejected_devices.push(w);
            }
        }
        origin_cts.push(ct);
    }
    if origin_cts.is_empty() {
        // No origin: the aggregate is one `Enc(0)`, as the aggregation plane seals it.
        let zero = Plaintext::zero(plan.n_ring, plan.t_pt);
        origin_cts.push(Ciphertext::encrypt(&keys.public, &zero, rng)?);
    }
    // Global aggregation (§4.2): align levels and sum once.
    let aggregate = crate::plan::aggregate_and_audit(origin_cts)?;
    stats.final_level = aggregate.level();
    stats.final_budget_bits = aggregate.decrypt_with_noise(&keys.secret).2;
    // Committee phase.
    let run = run_committee(
        &aggregate,
        &keys.secret,
        params.devices.max(pop.graph.len() as u64),
        params.committee_size,
        b"query-beacon",
        plan.analysis.sensitivity,
        params.epsilon,
        budget,
        plan.released_values(),
        rng,
    )
    .map_err(ExecError::Committee)?;
    stats.rejected = rejected_devices.len();
    let exact = decode_aggregate(&run.plaintext, query, &plan.analysis);
    let released = release_noisy(&exact, &run.noise, plan.released_len);
    Ok(EncryptedOutcome {
        exact,
        released,
        rejected_devices,
        stats,
    })
}
