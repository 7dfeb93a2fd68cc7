//! The aggregation plane's protocol core (§4.4–§4.7), written once: verify proofs and
//! substitute `Enc(x^0)` for offenders, sum the origins with `Enc(0)` for the missing
//! ([`aggregate_and_audit`]), pick `t + 1` live committee members, threshold-decrypt, add joint
//! noise, certify. Plain state and transitions — randomness, plan and keys passed in; no
//! clock, file, socket, thread, journal or simulator — driven by `mycelium_net::round`'s
//! `AggState` in the processes and on the simulator alike. A process's [`Round`] is composed
//! of the parts: hub = [`Intake`] over every origin + [`CommitteeTail`]; shard = [`Intake`]
//! over its origins + a committee of zero; coordinator = shard-root slots
//! ([`Intake::accept_root`]) + the tail. Every write is first-write-wins beside a
//! non-mutating [`Slot`] predicate; *when* a phase transition fires is [`Round::due`], told
//! only which [`Timeout`]s have passed.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

use mycelium_bgv::{BgvError, BgvParams, Ciphertext, KeySet, Plaintext};
use mycelium_cert::{
    build_segments, commit_origin, committee_public_key, noise_commitment,
    verify_transcript_sig_by, CertSpec, CommitteeSig, OriginCommit, ReleasedGroup,
    RoundCertificate, SlotStatus,
};
use mycelium_crypto::codec::Writer;
use mycelium_crypto::sha256::Digest;
use mycelium_graph::graph::VertexId;
use mycelium_math::rng::Rng;
use mycelium_math::rns::RnsContext;
use mycelium_query::ast::Query;
use mycelium_query::eval::PlainResult;
use mycelium_sharing::threshold::{combine, derive_joint_noise, DecryptionShare, ThresholdError};
use mycelium_zkp::Proof;

use crate::decode::decode_aggregate;
use crate::exec::{release_noisy, ExecError, NoisyGroup};
use crate::plan::{aggregate_and_audit, QueryPlan};
use crate::plan::{ciphertext_len, encoding_digest, put_ciphertext, read_ciphertext, Sink};

/// The core's one typed failure; `Display` is the canonical message.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// Fewer than `need = t + 1` committee members are `alive`.
    CommitteeUnavailable { alive: usize, need: usize },
    /// A request names something outside the round (the full message).
    Invalid(String),
    /// Encrypting a substitute `Enc(0)` failed.
    Bgv(BgvError),
    /// The named step (`"neutral encryption"`, `"aggregation"`) failed.
    Exec(&'static str, ExecError),
    /// Combining the decryption shares failed.
    Threshold(ThresholdError),
}

impl std::fmt::Display for CoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreError::CommitteeUnavailable { alive, need } => {
                write!(f, "committee unavailable: {alive} alive, {need} needed")
            }
            CoreError::Invalid(what) => write!(f, "{what}"),
            CoreError::Bgv(e) => write!(f, "substitute encryption failed: {e}"),
            CoreError::Exec(step, e) => write!(f, "{step} failed: {e}"),
            CoreError::Threshold(e) => write!(f, "threshold combine failed: {e}"),
        }
    }
}

/// Whether a first-write-wins slot would take a write: `Open` (it mutates),
/// `Filled` (a repeat is a redelivery), `Closed` (unwanted: ignored).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Slot {
    Open,
    Filled,
    Closed,
}

impl Slot {
    fn of<T>(held: &Option<T>, wanted: bool) -> Slot {
        match held {
            Some(_) => Slot::Filled,
            None if wanted => Slot::Open,
            None => Slot::Closed,
        }
    }

    fn fill<T>(self, held: &mut Option<T>, v: T) -> bool {
        if self == Slot::Open {
            *held = Some(v);
        }
        self == Slot::Open
    }
}

/// Where a driver keeps bytes outside its memory — the journal it wrote them
/// to — read back by position. The core does no I/O: the driver implements
/// this over its file.
pub trait Lot: Send + Sync + std::fmt::Debug {
    /// Fills `out` with the bytes stored from position `at` on. A store that
    /// cannot give back what it took has lost the round's durable state: the
    /// implementation ends the process, as a crash would.
    fn read_at(&self, at: u64, out: &mut [u8]);
}

/// Where a ciphertext's encoding lies in a [`Lot`]: the lot, and the
/// position its first byte was written at.
#[derive(Debug, Clone)]
pub struct Stored {
    pub lot: Arc<dyn Lot>,
    pub at: u64,
}

/// Where a parked ciphertext's bytes are.
#[derive(Debug, Clone)]
enum Held {
    /// In this process's memory.
    Owned(Box<[u8]>),
    /// `len` bytes of a lot, where the driver wrote them.
    Stored(Stored, usize),
}

/// A ciphertext the plane holds: the bytes its wire encoding is made of
/// ([`put_ciphertext`]), beside their
/// [`ciphertext_digest`](crate::plan::ciphertext_digest) — both taken
/// once, when the ciphertext arrived or was formed. The aggregator mostly
/// relays: a row and the committee's copy of the aggregate leave as copies
/// of these bytes ([`Parked::put`]), and everything that needs the digest
/// (the proof check, the slot status, a driver's state checkpoint, the
/// certificate) reads this one value, so holding more never costs more
/// hashing or packing. A ciphertext a driver journalled is held where the
/// journal holds it ([`Stored`]), so the process keeps one copy, on disk;
/// the rest — neutral substitutes, the aggregate, everything a driver
/// without a journal takes in — are held in memory. Words come back
/// ([`Parked::ct`]) where the plane computes — the aggregate forming, and
/// the combine — and for a shard's one root message. The fields are
/// private: the bytes and the digest are always the ciphertext's.
#[derive(Debug, Clone)]
pub struct Parked {
    held: Held,
    digest: Digest,
    level: usize,
    ctx: Arc<RnsContext>,
    params: BgvParams,
}

impl Parked {
    /// Packs `ct` into a buffer of exactly its encoding's size and hashes
    /// that; nothing downstream does either again.
    pub fn new(ct: Ciphertext) -> Self {
        let mut w = Writer::with_capacity(ciphertext_len(&ct));
        put_ciphertext(&mut w, &ct);
        let bytes = w.finish().into_boxed_slice();
        let digest = encoding_digest(&bytes);
        Parked {
            held: Held::Owned(bytes),
            digest,
            level: ct.level(),
            ctx: Arc::clone(ct.parts()[0].context()),
            params: ct.params().clone(),
        }
    }

    /// A ciphertext that arrived as its encoding `bytes` — validated by the
    /// receiver, who took their [`encoding_digest`] once, as `digest` — over
    /// `ctx` and `params`: held where `stored` says the receiver wrote those
    /// bytes, or else as a copy of them.
    pub fn received(
        bytes: &[u8],
        digest: Digest,
        stored: Option<Stored>,
        ctx: &Arc<RnsContext>,
        params: &BgvParams,
    ) -> Self {
        let held = match stored {
            Some(at) => Held::Stored(at, bytes.len()),
            None => Held::Owned(bytes.into()),
        };
        Parked {
            held,
            digest,
            // The part count, then the first part's representation and level.
            level: bytes[2] as usize,
            ctx: Arc::clone(ctx),
            params: params.clone(),
        }
    }

    /// The ciphertext, unpacked bit for bit (residues and level) over the
    /// context it was accepted in.
    pub fn ct(&self) -> Ciphertext {
        read_ciphertext(&self.bytes(), &self.ctx, &self.params)
    }

    /// The ciphertext's wire encoding, as the codec writes it: borrowed
    /// where it is held in memory, read back where it is stored.
    pub fn bytes(&self) -> Cow<'_, [u8]> {
        match &self.held {
            Held::Owned(bytes) => Cow::Borrowed(bytes),
            Held::Stored(at, len) => {
                let mut bytes = vec![0; *len];
                at.lot.read_at(at.at, &mut bytes);
                Cow::Owned(bytes)
            }
        }
    }

    /// Writes the wire encoding straight into `out`.
    pub fn put(&self, out: &mut impl Sink) {
        match &self.held {
            Held::Owned(bytes) => out.lend(bytes.len()).copy_from_slice(bytes),
            Held::Stored(at, len) => at.lot.read_at(at.at, out.lend(*len)),
        }
    }

    /// How many of its bytes this process holds in memory: all of them, or
    /// none where they are stored.
    pub fn resident(&self) -> usize {
        match &self.held {
            Held::Owned(bytes) => bytes.len(),
            Held::Stored(..) => 0,
        }
    }

    /// The level the ciphertext sits at.
    pub fn level(&self) -> usize {
        self.level
    }

    pub fn digest(&self) -> &Digest {
        &self.digest
    }
}

/// A device's contribution as the plane takes it in: the device, its
/// ciphertext parked as it arrived, and the proof that comes with it.
#[derive(Debug, Clone)]
pub struct Received {
    pub device: VertexId,
    pub ct: Parked,
    pub proof: Option<Proof>,
}

/// Why the aggregator discards a contribution (§4.6–§4.7).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rejection {
    /// Encrypted at level `got`, below the `need` its slot's chain consumes
    /// it at ([`QueryPlan::contribution_level`]): no origin could switch it
    /// up. Its proof is not checked.
    Level { got: usize, need: usize },
    /// The well-formedness proof is missing or does not verify.
    Proof,
}

/// The checks a contribution to `slot` must pass before an origin may
/// combine it: at or above its slot's level (an origin switches a higher
/// one down), then a proof that verifies against its digest — the one
/// taken when it arrived, which the slot outcome records too.
pub fn screen(rc: Received, slot: u32, plan: &QueryPlan) -> Result<Parked, Rejection> {
    let Received { ct, proof, .. } = rc;
    let (got, need) = (ct.level(), plan.contribution_level(slot as usize));
    if got < need {
        return Err(Rejection::Level { got, need });
    }
    match plan.verify_proof(ct.digest(), proof.as_ref()) {
        true => Ok(ct),
        false => Err(Rejection::Proof),
    }
}

/// The round's immutable inputs, borrowed by every transition.
pub struct RoundCtx<'a> {
    /// The query plan (its circuit decides whether proofs are checked).
    pub plan: &'a QueryPlan,
    pub keys: &'a KeySet,
    pub query: &'a Query,
    /// The round spec seed (certificate binding, committee signing keys).
    pub seed: u64,
    /// Laplace scale `sensitivity / epsilon` of the joint noise.
    pub noise_scale: f64,
    /// The epsilon the certificate records as charged.
    pub charged_epsilon: f64,
}

/// A process's commitment plane, frozen *before* the aggregate seals so
/// nothing that arrives later can move the certified tree.
#[derive(Default)]
pub struct Commitments {
    /// `commits[v]`: origin `v`'s frozen commitment.
    pub commits: Vec<Option<OriginCommit>>,
    /// Every device whose proof failed, in arrival order (the outcome's list).
    pub rejected: Vec<VertexId>,
    /// Set by [`Intake::freeze_commits`] to how many of `rejected` it certified.
    pub frozen: Option<usize>,
}

impl Commitments {
    /// The rejects the certificate and a shard's root name: those known at
    /// the freeze. A later offender is still neutralised and reported.
    pub fn certified(&self) -> &[VertexId] {
        &self.rejected[..self.frozen.unwrap_or(self.rejected.len())]
    }
}

/// Which aggregation shard owns vertex `v` (as origin *and* as the
/// destination of every contribution addressed to it).
///
/// A splitmix64 finalizer rather than `v % shards`: the assignment is a
/// *hash*, stable under any renumbering-adjacent reasoning and
/// insensitive to stride patterns in vertex ids, and — being pure
/// integer arithmetic on `(v, shards)` — identical across processes,
/// platforms, and `MYC_THREADS` settings. Both aggregation planes (the
/// simulated round and the real TCP round) route through this one
/// function, so their shard topologies mirror each other exactly.
pub fn shard_of(v: VertexId, shards: usize) -> usize {
    if shards <= 1 {
        return 0;
    }
    let mut x = (v as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    (x % shards as u64) as usize
}

/// Per-origin intake: the hub owns every origin, a shard its own, the coordinator none.
pub struct Intake {
    /// `slot_map[o]`: owned origin `o`'s slot devices (`None`: not owned).
    slot_map: Vec<Option<Vec<VertexId>>>,
    /// Outcome of every contribution slot written so far.
    pub statuses: BTreeMap<(u32, u32), SlotStatus>,
    /// `submissions[v]`: origin `v`'s combined ciphertext.
    pub submissions: Vec<Option<Parked>>,
    /// This process's commitment plane (coordinator: see [`Intake::accept_root`]).
    pub plane: Commitments,
}

impl Intake {
    /// Intake over the origins `owns` selects.
    pub fn new(slots: Vec<Vec<VertexId>>, owns: impl Fn(VertexId) -> bool) -> Self {
        let owned = |(v, devices)| owns(v as VertexId).then_some(devices);
        let mut plane = Commitments::default();
        plane.commits.resize(slots.len(), None);
        let slot_map: Vec<_> = slots.into_iter().enumerate().map(owned).collect();
        Intake {
            submissions: vec![None; slot_map.len()],
            statuses: BTreeMap::new(),
            plane,
            slot_map,
        }
    }

    fn rows(&self) -> impl Iterator<Item = (usize, &Vec<VertexId>, &Option<Parked>)> {
        let all = self.slot_map.iter().zip(&self.submissions).enumerate();
        all.filter_map(|(v, (devices, row))| Some((v, devices.as_ref()?, row)))
    }

    /// Whether every owned origin has submitted.
    pub fn is_complete(&self) -> bool {
        self.rows().all(|(_, _, row)| row.is_some())
    }

    /// State of contribution slot `(origin, slot)`.
    pub fn contribution_slot(&self, origin: u32, slot: u32) -> Result<Slot, CoreError> {
        let devices = self.slot_map.get(origin as usize).and_then(Option::as_ref);
        if devices.is_none_or(|d| slot as usize >= d.len()) {
            let what = format!("contribution for origin {origin} slot {slot} out of range");
            return Err(CoreError::Invalid(what));
        }
        Ok(Slot::of(&self.statuses.get(&(origin, slot)), true))
    }

    /// §4.6–§4.7: [`screen`]s the contribution and returns what the origin
    /// gets: the contribution (slot outcome: its digest *as verified*), or a
    /// neutral `Enc(x^0)` at the slot's level for an offender, who joins the
    /// reject set.
    pub fn accept_contribution<R: Rng + ?Sized>(
        &mut self,
        origin: u32,
        slot: u32,
        rc: Received,
        ctx: &RoundCtx,
        rng: &mut R,
    ) -> Result<Option<Parked>, CoreError> {
        if self.contribution_slot(origin, slot)? != Slot::Open {
            return Ok(None);
        }
        let device = rc.device;
        if let Ok(parked) = screen(rc, slot, ctx.plan) {
            let status = SlotStatus::Accepted(*parked.digest());
            self.statuses.insert((origin, slot), status);
            return Ok(Some(parked));
        }
        self.statuses.insert((origin, slot), SlotStatus::Rejected);
        if !self.plane.rejected.contains(&device) {
            self.plane.rejected.push(device);
        }
        let level = ctx.plan.contribution_level(slot as usize);
        let neutral = ctx.plan.neutral_ct_at(ctx.keys, level, rng);
        let neutral = neutral.map_err(|e| CoreError::Exec("neutral encryption", e))?;
        Ok(Some(Parked::new(neutral)))
    }

    /// State of origin `origin`'s submission slot.
    pub fn submission_slot(&self, origin: u32) -> Result<Slot, CoreError> {
        match self.slot_map.get(origin as usize) {
            Some(Some(_)) => Ok(Slot::of(&self.submissions[origin as usize], true)),
            _ => Err(CoreError::Invalid(format!("origin {origin} out of range"))),
        }
    }

    /// Records `origin`'s combined ciphertext; `false` on a redelivery.
    pub fn accept_submission(&mut self, origin: u32, ct: Parked) -> Result<bool, CoreError> {
        let slot = self.submission_slot(origin)?;
        Ok(slot.fill(&mut self.submissions[origin as usize], ct))
    }

    /// Freezes the owned origins' commitments (unwritten slots: `Missing`).
    pub fn freeze_commits(&mut self) {
        if self.plane.frozen.is_some() {
            return;
        }
        self.plane.frozen = Some(self.plane.rejected.len());
        let mut commits = std::mem::take(&mut self.plane.commits);
        for (v, devices, _) in self.rows() {
            let status = |s: usize| self.statuses.get(&(v as u32, s as u32)).copied();
            let slot = |(s, &d): (usize, &VertexId)| (d, status(s).unwrap_or(SlotStatus::Missing));
            let slots: Vec<(u32, SlotStatus)> = devices.iter().enumerate().map(slot).collect();
            commits[v] = Some(commit_origin(v as u32, &slots));
        }
        self.plane.commits = commits;
    }

    /// Commitment-then-seal: freezes, then sums the owned submissions
    /// ([`aggregate_and_audit`]), each unpacked as the fold reaches it; a
    /// missing origin (or an empty intake) adds `Enc(0)`.
    pub fn seal<R: Rng + ?Sized>(
        &mut self,
        ctx: &RoundCtx,
        rng: &mut R,
    ) -> Result<Ciphertext, CoreError> {
        self.freeze_commits();
        let zero = Plaintext::zero(ctx.plan.n_ring, ctx.plan.t_pt);
        let mut fill = |row: Option<&Parked>| match row {
            Some(parked) => Ok(parked.ct()),
            None => Ciphertext::encrypt(&ctx.keys.public, &zero, &mut *rng).map_err(CoreError::Bgv),
        };
        let mut rows = self.rows().map(|(_, _, row)| row.as_ref());
        // An empty intake sums one `Enc(0)`.
        let first = fill(rows.next().flatten())?;
        let mut failed = Ok(());
        let rest = rows.map_while(|row| fill(row).map_err(|e| failed = Err(e)).ok());
        let sum = aggregate_and_audit(std::iter::once(first).chain(rest));
        failed?;
        sum.map_err(|e| CoreError::Exec("aggregation", e))
    }

    /// Coordinator: state of `shard`'s slot among `roots` (`R`: the root as the
    /// driver's wire carries it); an out-of-population delivery is an error.
    pub fn root_slot<R>(
        &self,
        roots: &[Option<R>],
        shard: u32,
        rejected: &[VertexId],
        commits: &[OriginCommit],
    ) -> Result<Slot, CoreError> {
        let invalid = |what: &str| Err(CoreError::Invalid(format!("shard {shard} {what}")));
        let origins = self.plane.commits.len();
        let Some(root) = roots.get(shard as usize) else {
            return invalid("out of range");
        };
        if rejected.iter().any(|&v| v as usize >= origins) {
            return invalid("rejected a device outside the population");
        }
        if commits.iter().any(|c| c.origin as usize >= origins) {
            return invalid("committed an origin outside the population");
        }
        Ok(Slot::of(root, true))
    }

    /// Records `shard`'s root, merging its reject set and commitments.
    pub fn accept_root<R>(
        &mut self,
        roots: &mut [Option<R>],
        shard: u32,
        root: R,
        rejected: Vec<VertexId>,
        commits: Vec<OriginCommit>,
    ) -> Result<bool, CoreError> {
        let slot = self.root_slot(roots, shard, &rejected, &commits)?;
        if !slot.fill(&mut roots[shard as usize], root) {
            return Ok(false);
        }
        for v in rejected {
            if !self.plane.rejected.contains(&v) {
                self.plane.rejected.push(v);
            }
        }
        for cmt in commits {
            self.plane.commits[cmt.origin as usize].get_or_insert(cmt);
        }
        Ok(true)
    }
}

/// After the aggregate: liveness, selection, decryption, noise, certificate.
#[derive(Default)]
pub struct CommitteeTail {
    threshold: usize,
    /// `pongs[m - 1]`: member `m`'s joint-noise seed, once checked in.
    pub pongs: Vec<Option<[u8; 32]>>,
    /// Selection round (0 before the first selection).
    pub share_round: u32,
    pub participants: Vec<u64>,
    /// Whether the one allowed reselection has been spent.
    pub reselected: bool,
    /// `shares[m]`: member `m`'s share for the current selection round.
    pub shares: Vec<Option<DecryptionShare>>,
    /// The decoded exact result and its noised release, once decided.
    pub released: Option<(PlainResult, Vec<NoisyGroup>)>,
    /// The certificate awaiting signatures (transcript fixed).
    pub cert: Option<RoundCertificate>,
    /// `cert_sigs[m]`: member `m`'s verified transcript signature.
    pub cert_sigs: Vec<Option<[u8; 64]>>,
    pub sealed: bool,
    /// The sealed certificate's canonical bytes (quorum reached).
    pub cert_bytes: Option<Vec<u8>>,
    /// `member_keys[m]`: the round seed and member `m`'s public key under
    /// it, derived on the first signature `m` sends.
    member_keys: Vec<OnceLock<(u64, [u8; 32])>>,
}

impl CommitteeTail {
    /// A tail for a committee of `c` members with Shamir threshold `t`.
    pub fn new(c: usize, t: usize) -> Self {
        CommitteeTail {
            threshold: t,
            pongs: vec![None; c],
            shares: vec![None; c + 1],
            cert_sigs: vec![None; c + 1],
            member_keys: vec![OnceLock::new(); c + 1],
            ..Default::default()
        }
    }

    /// The one place a member index is validated.
    fn member(&self, member: u64) -> Result<usize, CoreError> {
        let unknown = || CoreError::Invalid(format!("member {member} out of range"));
        let known = (1..=self.pongs.len() as u64).contains(&member);
        known.then_some(member as usize).ok_or_else(unknown)
    }

    /// State of `member`'s check-in slot.
    pub fn pong_slot(&self, member: u64) -> Result<Slot, CoreError> {
        Ok(Slot::of(&self.pongs[self.member(member)? - 1], true))
    }

    /// Records `member` alive, with its noise seed; `false` on a repeat.
    pub fn check_in(&mut self, member: u64, seed: [u8; 32]) -> Result<bool, CoreError> {
        let slot = self.pong_slot(member)?;
        Ok(slot.fill(&mut self.pongs[member as usize - 1], seed))
    }

    /// Members with a live check-in, ascending.
    pub fn alive(&self) -> Vec<u64> {
        let live = |m: &u64| self.pongs[*m as usize - 1].is_some();
        (1..=self.pongs.len() as u64).filter(live).collect()
    }

    /// The typed failure at the current liveness.
    pub fn unavailable(&self) -> CoreError {
        let (alive, need) = (self.alive().len(), self.threshold + 1);
        CoreError::CommitteeUnavailable { alive, need }
    }

    /// Picks the first `t + 1` alive members and opens a fresh share round.
    pub fn select(&mut self) -> Result<(), CoreError> {
        let alive = self.alive();
        let chosen = alive.get(..=self.threshold).map(<[u64]>::to_vec);
        self.participants = chosen.ok_or_else(|| self.unavailable())?;
        self.share_round += 1;
        self.shares = vec![None; self.pongs.len() + 1];
        Ok(())
    }

    /// Participants that have not delivered their share.
    pub fn stragglers(&self) -> Vec<u64> {
        let missing = |m: &&u64| self.shares[**m as usize].is_none();
        self.participants.iter().filter(missing).copied().collect()
    }

    /// Declares the stragglers dead and selects again — once only.
    pub fn reselect(&mut self) -> Result<(), CoreError> {
        if std::mem::replace(&mut self.reselected, true) {
            return Err(self.unavailable());
        }
        for m in self.stragglers() {
            self.pongs[m as usize - 1] = None;
        }
        self.select()
    }

    /// State of `member`'s share slot for selection round `round`.
    pub fn share_slot(&self, member: u64, round: u32) -> Result<Slot, CoreError> {
        let held = &self.shares[self.member(member)?];
        let wanted = self.released.is_none() && self.participants.contains(&member);
        if round != self.share_round {
            return Ok(Slot::Closed);
        }
        Ok(Slot::of(held, wanted))
    }

    /// Records a share; the last one decides the round (`true`).
    pub fn accept_share(
        &mut self,
        member: u64,
        round: u32,
        share: DecryptionShare,
        aggregate: &Parked,
        plane: &Commitments,
        ctx: &RoundCtx,
    ) -> Result<bool, CoreError> {
        let slot = self.share_slot(member, round)?;
        if !slot.fill(&mut self.shares[member as usize], share) || !self.stragglers().is_empty() {
            return Ok(false);
        }
        let held = |m: &u64| self.shares[*m as usize].clone().expect("no stragglers");
        let got: Vec<DecryptionShare> = self.participants.iter().map(held).collect();
        let plaintext =
            combine(&aggregate.ct(), &got, self.threshold).map_err(CoreError::Threshold)?;
        let exact = decode_aggregate(&plaintext, ctx.query, &ctx.plan.analysis);
        let seeds: Vec<[u8; 32]> = self.pongs.iter().flatten().copied().collect();
        let noise = derive_joint_noise(&seeds, ctx.noise_scale, ctx.plan.released_values());
        let released = release_noisy(&exact, &noise, ctx.plan.released_len);
        self.cert = self.build_certificate(aggregate, plane, &seeds, &released, ctx);
        self.released = Some((exact, released));
        Ok(true)
    }

    /// The unsigned certificate; `None` while any commitment is missing.
    fn build_certificate(
        &self,
        aggregate: &Parked,
        plane: &Commitments,
        seeds: &[[u8; 32]],
        released: &[NoisyGroup],
        ctx: &RoundCtx,
    ) -> Option<RoundCertificate> {
        let commits = plane.commits.iter().map(Option::as_ref);
        let commits: Vec<&OriginCommit> = commits.collect::<Option<_>>()?;
        let leaves: Vec<_> = commits.iter().map(|c| c.leaf).collect();
        let counts: Vec<_> = commits.iter().map(|c| (c.accepted, c.rejected)).collect();
        let (segments, contrib_root) = build_segments(&leaves, &counts);
        let mut rejected = plane.certified().to_vec();
        rejected.sort_unstable();
        let spec = CertSpec {
            seed: ctx.seed,
            devices: commits.len() as u32,
            query: ctx.query.name.clone(),
            with_proofs: ctx.plan.circuit.is_some(),
        };
        let group = |g: &NoisyGroup| ReleasedGroup {
            label: g.label.clone(),
            histogram: g.histogram.clone(),
        };
        let mut cert = RoundCertificate {
            spec_digest: spec.digest(),
            spec,
            committee: self.pongs.len() as u32,
            threshold: self.threshold as u32,
            share_round: self.share_round,
            participants: self.participants.iter().map(|&m| m as u32).collect(),
            leaves,
            segments,
            contrib_root,
            rejected,
            aggregate_digest: *aggregate.digest(),
            noise_commitment: noise_commitment(seeds),
            charged_epsilon_bits: ctx.charged_epsilon.to_bits(),
            released: released.iter().map(group).collect(),
            transcript: [0u8; 32],
            signatures: Vec::new(),
        };
        cert.transcript = cert.compute_transcript();
        Some(cert)
    }

    /// State of `member`'s signature slot for `sig`; forged is `Closed`.
    /// Verifies `sig` only if the slot would otherwise take it.
    pub fn sig_slot(&self, member: u64, sig: &[u8; 64], seed: u64) -> Result<Slot, CoreError> {
        let m = self.member(member)?;
        let held = &self.cert_sigs[m];
        let valid = |c: &RoundCertificate| {
            verify_transcript_sig_by(&self.member_key(seed, m), &c.transcript, sig)
        };
        let wanted = held.is_none() && !self.sealed && self.cert.as_ref().is_some_and(valid);
        Ok(Slot::of(held, wanted))
    }

    /// Member `m`'s public key under `seed`: derived once per tail.
    fn member_key(&self, seed: u64, m: usize) -> [u8; 32] {
        let derive = || (seed, committee_public_key(seed, m as u64));
        match self.member_keys.get(m).map(|key| *key.get_or_init(derive)) {
            Some((derived_for, key)) if derived_for == seed => key,
            _ => derive().1,
        }
    }

    /// Records `member`'s transcript signature; `true` if it counted.
    pub fn accept_sig(&mut self, member: u64, sig: [u8; 64], seed: u64) -> Result<bool, CoreError> {
        let slot = self.sig_slot(member, &sig, seed)?;
        self.fill_sig(member, slot, sig)
    }

    /// [`CommitteeTail::accept_sig`] with the verdict `slot` that
    /// [`CommitteeTail::sig_slot`] gave for this very signature, in this
    /// state: the signature is not verified again.
    pub fn fill_sig(&mut self, member: u64, slot: Slot, sig: [u8; 64]) -> Result<bool, CoreError> {
        let m = self.member(member)?;
        Ok(slot.fill(&mut self.cert_sigs[m], sig))
    }

    /// Whether every member signed.
    pub fn all_signed(&self) -> bool {
        self.cert_sigs[1..].iter().all(Option::is_some)
    }

    /// Closes signature collection: more than `t` signatures yield the bytes, fewer none.
    pub fn seal(&mut self) -> Option<&[u8]> {
        let fresh = !std::mem::replace(&mut self.sealed, true);
        if let Some(cert) = self.cert.as_mut().filter(|_| fresh) {
            let sigs = (0u64..).zip(&self.cert_sigs);
            let signed = sigs.filter_map(|(member, s)| s.map(|sig| CommitteeSig { member, sig }));
            cert.signatures = signed.collect();
            if cert.signatures.len() > self.threshold {
                self.cert_bytes = Some(cert.encode());
            }
        }
        self.cert_bytes.as_deref()
    }
}

/// A deadline a driver reports as passed — all the core is ever told about time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Timeout {
    /// The wait for origin submissions.
    Intake,
    /// The wait for committee check-ins.
    CheckIn,
    /// The wait for the current selection round's shares.
    Shares,
    /// The wait for certificate signatures.
    Cert,
}

/// A phase transition of the round — the journal's mark records, one to one.
#[derive(Debug, Clone, PartialEq)]
pub enum Mark {
    /// Freeze the commitment plane (always before [`Mark::Aggregate`]).
    Commit,
    /// Form the aggregate: the sealed sum of the owned origins, or of the shard roots.
    Aggregate,
    /// Pick the first `t + 1` live members.
    Select,
    /// Declare the share stragglers dead and pick again.
    Reselect,
    /// End the round in a typed failure.
    Fail(CoreError),
    /// Close signature collection on the certificate.
    Seal,
}

/// One aggregation-plane process's round: its parts, and the one statement of when each
/// phase transition fires ([`Round::due`]) and what it does ([`Round::apply`]).
pub struct Round {
    pub intake: Intake,
    /// The shards' sealed roots (`Some` on the coordinator only).
    pub roots: Option<Vec<Option<Parked>>>,
    pub aggregate: Option<Parked>,
    pub tail: CommitteeTail,
    /// The typed failure the round ended in.
    pub failed: Option<CoreError>,
}

impl Round {
    pub fn new(intake: Intake, roots: Option<Vec<Option<Parked>>>, tail: CommitteeTail) -> Self {
        Round {
            intake,
            roots,
            aggregate: None,
            tail,
            failed: None,
        }
    }

    /// The decided outcome: the exact result beside its noised release, or the failure.
    pub fn outcome(&self) -> Option<Result<&(PlainResult, Vec<NoisyGroup>), &CoreError>> {
        match &self.failed {
            Some(e) => Some(Err(e)),
            None => self.tail.released.as_ref().map(Ok),
        }
    }

    /// Whether certificate signatures are still being collected.
    pub fn signing(&self) -> bool {
        self.tail.cert.is_some() && !self.tail.sealed
    }

    /// Whether the round is over for its clients: decided, and no signature still wanted.
    pub fn is_over(&self) -> bool {
        self.outcome().is_some() && !self.signing()
    }

    /// The transition that is due now, given which deadlines `expired` says have passed.
    pub fn due(&self, expired: impl Fn(Timeout) -> bool) -> Option<Mark> {
        let tail = &self.tail;
        if self.outcome().is_some() {
            let seal = self.signing() && (tail.all_signed() || expired(Timeout::Cert));
            return seal.then_some(Mark::Seal);
        }
        if self.aggregate.is_none() {
            // A missing origin adds `Enc(0)` once the deadline passes; a missing shard
            // root is a whole subpopulation, so the coordinator waits for every one.
            let ready = match &self.roots {
                None => self.intake.is_complete() || expired(Timeout::Intake),
                Some(roots) => roots.iter().all(Option::is_some),
            };
            let frozen = self.intake.plane.frozen.is_some();
            return ready.then_some(if frozen {
                Mark::Aggregate
            } else {
                Mark::Commit
            });
        }
        if tail.pongs.is_empty() {
            // A committee of zero: a shard's round ends at its sealed root.
            return None;
        }
        if tail.participants.is_empty() {
            let all_in = tail.alive().len() == tail.pongs.len();
            return (all_in || expired(Timeout::CheckIn)).then_some(Mark::Select);
        }
        if tail.stragglers().is_empty() || !expired(Timeout::Shares) {
            return None;
        }
        // One reselection; a second round of stragglers is the typed failure.
        Some(match tail.reselected {
            false => Mark::Reselect,
            true => Mark::Fail(tail.unavailable()),
        })
    }

    /// Applies `mark`; a transition that cannot complete ends the round in its error.
    pub fn apply<G: Rng + ?Sized>(&mut self, mark: &Mark, ctx: &RoundCtx, rng: &mut G) {
        let applied = match mark {
            Mark::Commit => {
                self.intake.freeze_commits();
                Ok(())
            }
            Mark::Aggregate => self.form_aggregate(ctx, rng),
            Mark::Select => self.tail.select(),
            Mark::Reselect => self.tail.reselect(),
            Mark::Fail(e) => Err(e.clone()),
            Mark::Seal => {
                self.tail.seal();
                Ok(())
            }
        };
        if let (Err(e), None) = (applied, self.outcome()) {
            self.failed = Some(e);
        }
    }

    fn form_aggregate<G: Rng + ?Sized>(
        &mut self,
        ctx: &RoundCtx,
        rng: &mut G,
    ) -> Result<(), CoreError> {
        if self.aggregate.is_some() {
            return Ok(());
        }
        let sum = match &self.roots {
            None => self.intake.seal(ctx, rng)?,
            Some(roots) => {
                if roots.iter().any(Option::is_none) {
                    return Err(CoreError::Invalid("shard root missing".into()));
                }
                let roots = roots.iter().flatten().map(Parked::ct);
                aggregate_and_audit(roots).map_err(|e| CoreError::Exec("aggregation", e))?
            }
        };
        self.aggregate = Some(Parked::new(sum));
        Ok(())
    }

    /// Records a share ([`CommitteeTail::accept_share`]); `true` when it decided the
    /// round — released, or failed in the combine.
    pub fn accept_share(
        &mut self,
        member: u64,
        round: u32,
        share: DecryptionShare,
        ctx: &RoundCtx,
    ) -> Result<bool, CoreError> {
        self.tail.share_slot(member, round)?;
        let (None, Some(aggregate)) = (self.outcome(), &self.aggregate) else {
            return Ok(false);
        };
        let plane = &self.intake.plane;
        let decided = self
            .tail
            .accept_share(member, round, share, aggregate, plane, ctx);
        decided.or_else(|e| {
            self.failed = Some(e);
            Ok(true)
        })
    }
}
