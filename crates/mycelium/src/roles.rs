//! The client half of the round (§4.4), written once: what a device, an
//! origin and a committee member *compute*, with no transport. The
//! simulated round ([`crate::simround`]) and the real-process round
//! (`mycelium_net::round`) are messaging around these calls, which is what
//! makes their ciphertexts — and so their sealed certificates —
//! byte-identical for one spec. Each role draws from its own [`streams`]
//! base in the one order fixed here; [`crate::aggcore`] is the server half.

use mycelium_bgv::{Ciphertext, KeySet};
use mycelium_cert::sign_transcript;
use mycelium_graph::generate::Population;
use mycelium_graph::graph::VertexId;
use mycelium_math::par;
use mycelium_math::rng::{Rng, SeedableRng, StdRng};
use mycelium_query::ast::Query;
use mycelium_sharing::threshold::{decryption_share, DecryptionShare, KeyShareSet, ThresholdError};

use crate::aggcore::RoundCtx;
use crate::exec::{ExecError, ExecStats};
use crate::params::SystemParams;
use crate::plan::{combine_origin, origin_work, OriginWork, QueryPlan, SignedContribution};
use crate::streams;

/// Bound `B` of the uniform smudging noise `e_i ∈ [-B, B]` a member adds
/// to its decryption share.
pub const SMUDGE_BOUND: i64 = 1 << 10;

/// One outgoing contribution duty of a device vertex.
#[derive(Debug, Clone)]
pub struct Duty {
    /// The origin the contribution is addressed to.
    pub origin: VertexId,
    /// Slot in that origin's request list.
    pub slot: u32,
    /// The monomial exponent to encrypt.
    pub exp: usize,
}

/// Every vertex's origin work (pure clause evaluation, the same at any
/// thread count).
pub fn works(
    plan: &QueryPlan,
    query: &Query,
    params: &SystemParams,
    pop: &Population,
) -> Vec<OriginWork> {
    let work = |v| origin_work(plan, query, params, pop, v as VertexId);
    par::map_indices(pop.graph.len(), work)
}

/// `works` inverted: `duties[w]` lists what device `w` owes, ordered by
/// origin and then slot — the order its contribution stream is drawn in.
pub fn duties(works: &[OriginWork]) -> Vec<Vec<Duty>> {
    let mut duties = vec![Vec::new(); works.len()];
    for work in works {
        for (slot, &(w, exp)) in work.requests.iter().enumerate() {
            let (origin, slot) = (work.origin, slot as u32);
            duties[w as usize].push(Duty { origin, slot, exp });
        }
    }
    duties
}

/// `slot_map[o][s]`: the device expected to fill origin `o`'s contribution
/// slot `s` (the certificate commitment's leaf shape).
pub fn slot_map(works: &[OriginWork]) -> Vec<Vec<VertexId>> {
    let devices = |w: &OriginWork| w.requests.iter().map(|&(d, _)| d).collect();
    works.iter().map(devices).collect()
}

/// The aggregation core's view of the round. `charged_epsilon` is what the
/// certificate records; the joint noise is always scaled to `params.epsilon`.
pub fn round_ctx<'a>(
    plan: &'a QueryPlan,
    keys: &'a KeySet,
    query: &'a Query,
    params: &SystemParams,
    seed: u64,
    charged_epsilon: f64,
) -> RoundCtx<'a> {
    RoundCtx {
        plan,
        keys,
        query,
        seed,
        noise_scale: plan.analysis.sensitivity / params.epsilon,
        charged_epsilon,
    }
}

/// Device `v`: its contributions in duty order, each drawn (lazily, as the
/// caller sends the one before) from the stream `CONTRIB + v` — so what a
/// vertex encrypts does not depend on which process hosts it.
pub fn contributions<'a>(
    plan: &'a QueryPlan,
    keys: &'a KeySet,
    seed: u64,
    v: VertexId,
    duties: &'a [Duty],
    cheating: bool,
) -> impl Iterator<Item = Result<SignedContribution, ExecError>> + 'a {
    let mut rng = StdRng::seed_from_u64(seed).with_stream(streams::CONTRIB + v as u64);
    let build = move |duty: &Duty| plan.build_contribution(keys, v, duty.exp, cheating, &mut rng);
    duties.iter().map(build)
}

/// Origin `v`: the ciphertext it submits. From the stream `ORIGIN + v`: a
/// neutral `Enc(x^0)` for every slot that never arrived, in slot order
/// (§4.4), then the combine.
pub fn submission(
    plan: &QueryPlan,
    keys: &KeySet,
    seed: u64,
    work: &OriginWork,
    slots: Vec<Option<Ciphertext>>,
) -> Result<Ciphertext, ExecError> {
    let mut rng = StdRng::seed_from_u64(seed).with_stream(streams::ORIGIN + work.origin as u64);
    let fill = |slot: Option<Ciphertext>| slot.map_or_else(|| plan.neutral_ct(keys, &mut rng), Ok);
    let cts = slots.into_iter().map(fill).collect::<Result<Vec<_>, _>>()?;
    combine_origin(plan, keys, work, &cts, &mut ExecStats::default(), &mut rng)
}

/// Committee member `m` (1-based). Its stream `COMMITTEE + m` fills the
/// joint-noise seed first, then smudges one share per selection round.
pub struct Member {
    member: u64,
    seed: u64,
    rng: StdRng,
    noise_seed: [u8; 32],
    /// A round asked again (a lost reply, a respawned aggregator) is
    /// answered with the share already made for it: nothing is drawn twice.
    shares: Vec<(u32, DecryptionShare)>,
}

impl Member {
    /// Member `member` of the round seeded `seed`.
    pub fn new(seed: u64, member: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed).with_stream(streams::COMMITTEE + member);
        let mut noise_seed = [0u8; 32];
        rng.fill(&mut noise_seed);
        let shares = Vec::new();
        Member {
            member,
            seed,
            rng,
            noise_seed,
            shares,
        }
    }

    /// This member's contribution to the joint DP noise.
    pub fn noise_seed(&self) -> [u8; 32] {
        self.noise_seed
    }

    /// The decryption share of `ct` for selection round `round` — Lagrange
    /// coefficients depend on exactly who takes part, so `participants` is
    /// agreed before any share is computed.
    pub fn share(
        &mut self,
        key_shares: &KeyShareSet,
        round: u32,
        participants: &[u64],
        ct: &Ciphertext,
    ) -> Result<DecryptionShare, ThresholdError> {
        if let Some((_, share)) = self.shares.iter().find(|(r, _)| *r == round) {
            return Ok(share.clone());
        }
        let (member, rng) = (self.member, &mut self.rng);
        let share = decryption_share(ct, key_shares, member, participants, SMUDGE_BOUND, rng)?;
        self.shares.push((round, share.clone()));
        Ok(share)
    }

    /// Endorses the round certificate: a detached ed25519 signature over
    /// its transcript digest, under the key derived from the round seed
    /// (hermetic stand-in for deployed PKI). Deterministic, so a respawned
    /// member re-signs identically.
    pub fn sign(&self, transcript: &[u8; 32]) -> [u8; 64] {
        sign_transcript(self.seed, self.member, transcript)
    }
}
