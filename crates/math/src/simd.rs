//! Runtime-dispatched SIMD kernel tiers for the polynomial hot path.
//!
//! Every element-wise kernel ([`crate::ew`]) and both NTT butterfly passes
//! ([`crate::ntt`]) route through a process-wide
//! [`Kernels`] vtable selected exactly once, at first use:
//!
//! * `x86_64` with AVX-512 IFMA → 8-lane tier on the 52×52→104-bit
//!   multiplier (`vpmadd52{lo,hi}uq`), for chain primes with `4q ≤ 2^52`;
//! * `x86_64` with AVX-512F+DQ → 8-lane tier (native 64-bit `vpmullq`);
//! * `x86_64` with AVX2 → 4-lane tier (32×32 partial-product emulation);
//! * `aarch64` with NEON → 2-lane tier;
//! * anything else, or `MYC_NO_SIMD=1` in the environment → the scalar
//!   Harvey/Barrett oracles, verbatim.
//!
//! Everything is hermetic `core::arch` — no external crates, no nightly
//! features — and gated behind **runtime** feature detection, so one
//! binary runs correctly on any host.
//!
//! # Bit-identity contract
//!
//! The hard invariant: every tier produces **canonical outputs**
//! bit-identical to the scalar oracle, on any CPU, at any `MYC_THREADS`.
//! Lazy intermediates are *not* part of the contract: a tier may hold a
//! different representative of the same residue class inside a kernel (or
//! in a lazy accumulator it hands back) as long as it is congruent mod `q`
//! and inside the documented bound, because the canonical representative
//! every consumer eventually stores is unique.
//!
//! * The Shoup kernels compute `a·w − ⌊a·w_s/β⌋·q` with `β = 2^64` on the
//!   64-bit tiers and `β = 2^52` on the IFMA tier (for `q ≤ 2^50`; the
//!   52-bit constant is `w_s >> 12`, exactly `⌊w·2^52/q⌋`, so no second
//!   table exists). Either estimate lands in `[0, 2q)`; the two can differ
//!   by `q`, which the closing conditional subtraction erases.
//! * The lazy two-row accumulate (`mul_shoup_add_lazy2`) therefore hands
//!   back accumulators that are congruent to the scalar oracle's and below
//!   the same `(2l+1)·q` bound, not lane-for-lane equal to it; they are
//!   equal after [`crate::ew::reduce_lazy_pow2`] — the NTT tiers' contract.
//! * The Barrett product kernels (`mul_assign`, `tensor3`, …) are
//!   Montgomery REDC at radix 2^52 on the IFMA tier, each output
//!   canonicalized before it is stored. The 64-bit tiers run the scalar
//!   oracle for them and for the inverse transform: a 64-bit high product
//!   emulated from 32×32 partials loses to scalar there (`BENCH_bgv.json`
//!   `tiers`), and IFMA hands them every modulus above its `2^50`.
//! * The NTT is canonical-in, canonical-out: both drivers end with a full
//!   `mod q` canonicalization (a vector pass of the tier — a scalar
//!   compare-and-branch loop there mispredicts on every fresh input and
//!   once doubled the cost of a transform inside key switching), and
//!   every butterfly formula used here is congruent to the reference
//!   butterfly mod `q` with lazy bounds that never overflow.
//!
//! * `pack` / `unpack` (the codec's residue rows) move bits and compare,
//!   nothing else: the AVX-512 tiers do eight lanes per step with
//!   per-lane variable shifts, the other tiers' rows are the scalar
//!   functions.
//!
//! Non-multiple-of-lane-width tails always fall back to the scalar oracle
//! for the remaining elements.
//!
//! # Lazy-domain ranges
//!
//! | kernel | inputs | intermediate | stored |
//! |---|---|---|---|
//! | NTT forward pass | `[0, 4q)` | `[0, 4q)` | `[0, q)` after final pass |
//! | NTT inverse pass | `[0, 2q)` | `[0, 2q)` | `[0, q)` after `n^{-1}` fold |
//! | `mul_shoup_*` | canonical | `[0, 2q)` | canonical |
//! | `mul_shoup_add_lazy2` | canonical | `[0, (2l+1)q)` | caller reduces |
//! | `rescale_step` | canonical, `|d|, |w| < q` | `[0, 3q)` | canonical |
//! | Montgomery products (IFMA) | canonical | `[0, 2q)` | canonical |
//!
//! Debug builds assert the stage ranges (see `debug_check_range`), so a
//! domain violation fails loudly in `cargo test` instead of wrapping
//! silently in release.

use std::sync::OnceLock;

use crate::ew::ShoupRow;
use crate::zq::Modulus;

/// Cache block size for NTT passes, in 64-bit elements (32 KiB — half a
/// typical L1d). Transforms larger than this run their early butterflies
/// as global passes, then finish each block-sized region to completion
/// while it is still cache-hot.
pub(crate) const NTT_BLOCK: usize = 4096;

/// Borrowed view of one direction of an [`crate::ntt::NttTable`]: the
/// modulus plus the bit-reversed twiddles (and, for the inverse, the
/// folded `n^{-1}`). Kernel tiers are written against this shape so the
/// table itself stays private to `ntt.rs`.
#[derive(Debug, Clone, Copy)]
pub struct NttShape<'a> {
    /// The prime modulus (`q < 2^62`, so `4q` fits u64).
    pub q: u64,
    /// Bit-reversed twiddle powers for this direction.
    pub roots: &'a [u64],
    /// Shoup constants `floor(w·2^64/q)` matching `roots`.
    pub shoup: &'a [u64],
    /// `n^{-1} mod q` (inverse direction only; 0 for forward).
    pub n_inv: u64,
    /// Shoup constant for `n_inv` (inverse direction only).
    pub n_inv_shoup: u64,
}

/// One butterfly stage over `chunks` chunks of `2t` elements starting at
/// `a[0]`, using twiddles `roots[root_base + chunk_index]`.
pub type NttPass = fn(&NttShape, &mut [u64], usize, usize, usize);

/// Signature of `mul_shoup_into`: `(m, out, a, b, b_shoup)`.
pub type ShoupTernaryFn = fn(&Modulus, &mut [u64], &[u64], &[u64], &[u64]);

/// Signature of the two-row fused multiply-adds
/// (`mul_shoup_add2`, `mul_shoup_add_lazy2`): `(m, acc0, acc1, a, k0, k1)`.
pub type ShoupAdd2Fn = fn(&Modulus, &mut [u64], &mut [u64], &[u64], ShoupRow, ShoupRow);

/// One modulus-switching step: `(m, y, d, w, inv, inv_shoup)`, see
/// [`crate::ew::rescale_step`].
pub type RescaleFn = fn(&Modulus, &mut [u64], &[i64], &[i64], u64, u64);

/// Closing pass of a forward NTT: `(q, a, k)`, see
/// [`crate::ew::reduce_lazy_pow2`].
pub type ReduceFn = fn(u64, &mut [u64], u32);

/// Closing pass of an inverse NTT: `(q, a, w, w_shoup)`, see
/// [`crate::ew::scale_assign_scalar`].
pub type ScaleFn = fn(u64, &mut [u64], u64, u64);

/// The kernel vtable: one function pointer per hot kernel, selected once
/// per process. All entries share the signatures of their scalar oracles
/// in [`crate::ew`] / the pass drivers here.
pub struct Kernels {
    /// Tier name (`"scalar"`, `"avx2"`, `"avx512"`, `"avx512ifma"`,
    /// `"neon"`).
    pub name: &'static str,
    /// Full forward negacyclic NTT: canonical in, canonical out.
    pub ntt_fwd: fn(&NttShape, &mut [u64]),
    /// Full inverse negacyclic NTT: canonical in, canonical out.
    pub ntt_inv: fn(&NttShape, &mut [u64]),
    /// `a[i] = a[i] + b[i] mod q`.
    pub add_assign: fn(&Modulus, &mut [u64], &[u64]),
    /// `a[i] = a[i] − b[i] mod q`.
    pub sub_assign: fn(&Modulus, &mut [u64], &[u64]),
    /// `a[i] = −a[i] mod q`.
    pub neg_assign: fn(&Modulus, &mut [u64]),
    /// `out[i] = src[i] mod q` for signed `|src[i]| < q`.
    pub lift_signed: fn(&Modulus, &mut [u64], &[i64]),
    /// Residues to bytes at the modulus's bit width; see [`crate::ew::pack`].
    pub pack: fn(&Modulus, &mut [u8], &[u64]),
    /// Bytes to residues, and whether all are canonical; see
    /// [`crate::ew::unpack`].
    pub unpack: fn(&Modulus, &mut [u64], &[u8]) -> bool,
    /// `out[i] = src[i] mod q` for `src[i] < 2q`.
    pub reduce_once_into: fn(&Modulus, &mut [u64], &[u64]),
    /// `a[i] = a[i]·b[i] mod q`.
    pub mul_assign: fn(&Modulus, &mut [u64], &[u64]),
    /// `out[i] = a[i]·b[i] mod q`.
    pub mul_into: fn(&Modulus, &mut [u64], &[u64], &[u64]),
    /// `acc[i] += a[i]·b[i] mod q`.
    pub mul_add_assign: fn(&Modulus, &mut [u64], &[u64], &[u64]),
    /// Fused degree-1 tensor product; see [`crate::ew::tensor3`].
    #[allow(clippy::type_complexity)]
    pub tensor3:
        fn(&Modulus, (&[u64], &[u64]), (&[u64], &[u64]), (&mut [u64], &mut [u64], &mut [u64])),
    /// `a[i] = a[i]·b[i] mod q` with Shoup constants for `b`.
    pub mul_shoup_assign: fn(&Modulus, &mut [u64], &[u64], &[u64]),
    /// `out[i] = a[i]·b[i] mod q` with Shoup constants for `b`.
    pub mul_shoup_into: ShoupTernaryFn,
    /// Two-row canonical accumulate; see [`crate::ew::mul_shoup_add2`].
    pub mul_shoup_add2: ShoupAdd2Fn,
    /// Two-row lazy accumulate; see [`crate::ew::mul_shoup_add_lazy2`].
    pub mul_shoup_add_lazy2: ShoupAdd2Fn,
    /// `out[i] = a[i]·w mod q` for one broadcast Shoup scalar.
    pub mul_shoup_scalar_into: fn(&Modulus, &mut [u64], &[u64], u64, u64),
    /// `acc[i] += a[i]·w mod q` for one broadcast Shoup scalar.
    pub mul_shoup_scalar_add_assign: fn(&Modulus, &mut [u64], &[u64], u64, u64),
    /// One modulus-switching step; see [`crate::ew::rescale_step`].
    pub rescale_step: RescaleFn,
    /// `a[i] = a[i]·w mod q` in place, any lazy input the tier's
    /// multiplier accepts; also the `n^{-1}` fold of the inverse NTT.
    pub scale_assign: ScaleFn,
    /// `[0, q·2^k) → [0, q)`; also the closing pass of the forward NTT.
    pub reduce_lazy_pow2: ReduceFn,
}

static ACTIVE: OnceLock<&'static Kernels> = OnceLock::new();

/// Returns the process-wide active kernel tier, selecting it on first
/// call. `MYC_NO_SIMD` (any non-empty value other than `"0"`) forces the
/// scalar tier; it is read once, so set it before the first kernel runs.
#[inline]
pub fn kernels() -> &'static Kernels {
    ACTIVE.get_or_init(select)
}

/// The scalar tier, independent of what [`kernels`] selected — the
/// bit-exact oracle the differential tests compare against.
pub fn scalar_kernels() -> &'static Kernels {
    &scalar::KERNELS
}

/// Name of the active tier (for bench metadata and logs).
pub fn active_name() -> &'static str {
    kernels().name
}

/// Every tier this host can run, scalar first — regardless of
/// `MYC_NO_SIMD`. Differential tests iterate this list.
pub fn all_available() -> Vec<&'static Kernels> {
    let mut tiers: Vec<&'static Kernels> = vec![&scalar::KERNELS];
    #[cfg(target_arch = "x86_64")]
    {
        if std::is_x86_feature_detected!("avx2") {
            tiers.push(&avx2::KERNELS);
        }
        if std::is_x86_feature_detected!("avx512f") && std::is_x86_feature_detected!("avx512dq") {
            tiers.push(&avx512::KERNELS);
            if std::is_x86_feature_detected!("avx512ifma") {
                tiers.push(&avx512ifma::KERNELS);
            }
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        if std::arch::is_aarch64_feature_detected!("neon") {
            tiers.push(&neon::KERNELS);
        }
    }
    tiers
}

/// Runtime-detected CPU features relevant to the kernel tiers (for
/// BENCH_bgv.json metadata).
pub fn detected_features() -> Vec<&'static str> {
    #[allow(unused_mut)]
    let mut feats: Vec<&'static str> = Vec::new();
    #[cfg(target_arch = "x86_64")]
    {
        for (name, on) in [
            ("avx2", std::is_x86_feature_detected!("avx2")),
            ("avx512f", std::is_x86_feature_detected!("avx512f")),
            ("avx512dq", std::is_x86_feature_detected!("avx512dq")),
            ("avx512ifma", std::is_x86_feature_detected!("avx512ifma")),
            ("sha", std::is_x86_feature_detected!("sha")),
        ] {
            if on {
                feats.push(name);
            }
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        for (name, on) in [
            ("neon", std::arch::is_aarch64_feature_detected!("neon")),
            ("sha2", std::arch::is_aarch64_feature_detected!("sha2")),
        ] {
            if on {
                feats.push(name);
            }
        }
    }
    feats
}

/// Whether `MYC_NO_SIMD` set to `value` forces the scalar tier: any value
/// does but the empty one and `0`, blanks around it aside.
fn no_simd(value: Option<&str>) -> bool {
    value.is_some_and(|v| !matches!(v.trim(), "" | "0"))
}

/// True when the `MYC_NO_SIMD` override forces the scalar tier. The one
/// reader of the variable: the AEAD's ChaCha20 and the SHA-256 dispatch
/// ask here too.
pub fn simd_disabled_by_env() -> bool {
    no_simd(std::env::var("MYC_NO_SIMD").ok().as_deref())
}

fn select() -> &'static Kernels {
    if simd_disabled_by_env() {
        return &scalar::KERNELS;
    }
    #[cfg(target_arch = "x86_64")]
    {
        if std::is_x86_feature_detected!("avx512f") && std::is_x86_feature_detected!("avx512dq") {
            if std::is_x86_feature_detected!("avx512ifma") {
                return &avx512ifma::KERNELS;
            }
            return &avx512::KERNELS;
        }
        if std::is_x86_feature_detected!("avx2") {
            return &avx2::KERNELS;
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        if std::arch::is_aarch64_feature_detected!("neon") {
            return &neon::KERNELS;
        }
    }
    &scalar::KERNELS
}

/// Debug-only range check for the lazy stage invariants.
#[cfg(debug_assertions)]
pub(crate) fn debug_check_range(a: &[u64], bound: u64, stage: &str) {
    for (j, &x) in a.iter().enumerate() {
        debug_assert!(
            x < bound,
            "lazy SIMD overflow at {stage}: a[{j}] = {x} >= {bound}"
        );
    }
}

// ---------------------------------------------------------------------------
// Cache-blocked NTT drivers (shared by every tier; only the butterfly pass
// differs per tier).
// ---------------------------------------------------------------------------

/// Runs the full forward CT transform through `pass`, cache-blocked:
/// global stages while chunks exceed [`NTT_BLOCK`], then each block-sized
/// region is driven to completion. Butterfly order changes, butterfly
/// *inputs* do not (stages within a region only read that region once its
/// prior stages are complete), so outputs are bit-identical to the
/// unblocked loop. Ends with the single `[0, 4q) → [0, q)` pass, `reduce`
/// with `k = 2`.
pub(crate) fn fwd_driver(s: &NttShape, a: &mut [u64], pass: NttPass, reduce: ReduceFn) {
    let n = a.len();
    let q = s.q;
    let block = NTT_BLOCK.min(n);
    let mut m = 1usize;
    let mut t = n / 2;
    while m < n && 2 * t > block {
        pass(s, a, m, m, t);
        #[cfg(debug_assertions)]
        debug_check_range(a, 4 * q, "forward global stage");
        m *= 2;
        t /= 2;
    }
    if m < n {
        let region = 2 * t;
        for (r, reg) in a.chunks_exact_mut(region).enumerate() {
            let mut lm = 1usize;
            let mut lt = t;
            let mut gm = m;
            while gm < n {
                pass(s, reg, gm + r * lm, lm, lt);
                lm *= 2;
                lt /= 2;
                gm *= 2;
            }
            #[cfg(debug_assertions)]
            debug_check_range(reg, 4 * q, "forward local stages");
        }
    }
    reduce(q, a, 2);
}

/// Inverse GS mirror of [`fwd_driver`]: local stages first (while chunks
/// fit a block), then the global stages, then the `n^{-1}` fold +
/// canonicalization (`scale`, on `[0, 2q)` inputs).
pub(crate) fn inv_driver(s: &NttShape, a: &mut [u64], pass: NttPass, scale: ScaleFn) {
    let n = a.len();
    let q = s.q;
    let block = NTT_BLOCK.min(n);
    let mut t_global = 1usize;
    let mut m_global = n;
    for (r, reg) in a.chunks_exact_mut(block).enumerate() {
        let mut t = 1usize;
        let mut m = n;
        while 2 * t <= block {
            let h = m / 2;
            let lh = block / (2 * t);
            pass(s, reg, h + r * lh, lh, t);
            t *= 2;
            m = h;
        }
        #[cfg(debug_assertions)]
        debug_check_range(reg, 2 * q, "inverse local stages");
        t_global = t;
        m_global = m;
    }
    let mut t = t_global;
    let mut m = m_global;
    while m > 1 {
        let h = m / 2;
        pass(s, a, h, h, t);
        #[cfg(debug_assertions)]
        debug_check_range(a, 2 * q, "inverse global stage");
        t *= 2;
        m = h;
    }
    scale(q, a, s.n_inv, s.n_inv_shoup);
}

// ---------------------------------------------------------------------------
// Scalar tier — the bit-exact oracle and universal fallback.
// ---------------------------------------------------------------------------

pub(crate) mod scalar {
    use super::{fwd_driver, inv_driver, Kernels, NttShape};
    use crate::ew;

    /// One forward CT stage: Harvey butterflies, values stay in `[0, 4q)`.
    pub(crate) fn fwd_pass(s: &NttShape, a: &mut [u64], root_base: usize, chunks: usize, t: usize) {
        debug_assert_eq!(a.len(), chunks * 2 * t);
        let q = s.q;
        let two_q = q << 1;
        for (i, chunk) in a.chunks_exact_mut(2 * t).enumerate() {
            let w = s.roots[root_base + i];
            let ws = s.shoup[root_base + i];
            let (lo, hi) = chunk.split_at_mut(t);
            for (x, y) in lo.iter_mut().zip(hi.iter_mut()) {
                let u = if *x >= two_q { *x - two_q } else { *x };
                // mul_shoup_lazy inlined against the shape's q.
                let yh = ((*y as u128 * ws as u128) >> 64) as u64;
                let v = y.wrapping_mul(w).wrapping_sub(yh.wrapping_mul(q)); // < 2q
                *x = u + v;
                *y = u + two_q - v;
            }
        }
    }

    /// One inverse GS stage: values stay in `[0, 2q)`.
    pub(crate) fn inv_pass(s: &NttShape, a: &mut [u64], root_base: usize, chunks: usize, t: usize) {
        debug_assert_eq!(a.len(), chunks * 2 * t);
        let q = s.q;
        let two_q = q << 1;
        for (i, chunk) in a.chunks_exact_mut(2 * t).enumerate() {
            let w = s.roots[root_base + i];
            let ws = s.shoup[root_base + i];
            let (lo, hi) = chunk.split_at_mut(t);
            for (x, y) in lo.iter_mut().zip(hi.iter_mut()) {
                let u = *x;
                let v = *y;
                let sum = u + v; // < 4q
                *x = if sum >= two_q { sum - two_q } else { sum };
                let d = u + two_q - v; // < 4q
                let dh = ((d as u128 * ws as u128) >> 64) as u64;
                *y = d.wrapping_mul(w).wrapping_sub(dh.wrapping_mul(q)); // < 2q
            }
        }
    }

    fn ntt_fwd(s: &NttShape, a: &mut [u64]) {
        fwd_driver(s, a, fwd_pass, ew::reduce_lazy_pow2_scalar);
    }

    pub(crate) fn ntt_inv(s: &NttShape, a: &mut [u64]) {
        inv_driver(s, a, inv_pass, ew::scale_assign_scalar);
    }

    pub(crate) static KERNELS: Kernels = Kernels {
        name: "scalar",
        ntt_fwd,
        ntt_inv,
        add_assign: ew::add_assign_scalar,
        sub_assign: ew::sub_assign_scalar,
        neg_assign: ew::neg_assign_scalar,
        lift_signed: ew::lift_signed_scalar,
        pack: ew::pack_scalar,
        unpack: ew::unpack_scalar,
        reduce_once_into: ew::reduce_once_into_scalar,
        mul_assign: ew::mul_assign_scalar,
        mul_into: ew::mul_into_scalar,
        mul_add_assign: ew::mul_add_assign_scalar,
        tensor3: ew::tensor3_scalar,
        mul_shoup_assign: ew::mul_shoup_assign_scalar,
        mul_shoup_into: ew::mul_shoup_into_scalar,
        mul_shoup_add2: ew::mul_shoup_add2_scalar,
        mul_shoup_add_lazy2: ew::mul_shoup_add_lazy2_scalar,
        mul_shoup_scalar_into: ew::mul_shoup_scalar_into_scalar,
        mul_shoup_scalar_add_assign: ew::mul_shoup_scalar_add_assign_scalar,
        rescale_step: ew::rescale_step_scalar,
        scale_assign: ew::scale_assign_scalar,
        reduce_lazy_pow2: ew::reduce_lazy_pow2_scalar,
    };
}

// ---------------------------------------------------------------------------
// The Shoup / additive kernel family shared by every vector tier.
// ---------------------------------------------------------------------------

/// The vtable of a vector tier, from the kernel functions in scope.
macro_rules! tier_kernels {
    ($name:literal) => {
        Kernels {
            name: $name,
            ntt_fwd,
            ntt_inv,
            add_assign,
            sub_assign,
            neg_assign,
            lift_signed,
            pack,
            unpack,
            reduce_once_into,
            mul_assign,
            mul_into,
            mul_add_assign,
            tensor3,
            mul_shoup_assign,
            mul_shoup_into,
            mul_shoup_add2,
            mul_shoup_add_lazy2,
            mul_shoup_scalar_into,
            mul_shoup_scalar_add_assign,
            rescale_step,
            scale_assign,
            reduce_lazy_pow2,
        }
    };
}

/// The Shoup-multiplier, additive and lifting kernels of a vector tier,
/// written once against the tier's primitive ops (`V`, `LANES`, `splat`,
/// `loadv`, `storev`, `addv`, `subv`, `cond_sub`) and its lazy Shoup
/// product `shoup_lazy_v(a, w, ws, qv) ∈ [0, 2q)` — the 64-bit
/// `mulhi`/`mullo` form on the generic tiers, the 52-bit IFMA form on
/// `avx512ifma`. `$fits(q)` says whether the tier's multiplier is sound
/// for the modulus; where it is not, the kernel forwards to `$fallback`.
macro_rules! shoup_family {
    ($feat:literal, $fits:expr, $fallback:expr) => {
        #[target_feature(enable = $feat)]
        unsafe fn add_assign_impl(m: &Modulus, a: &mut [u64], b: &[u64]) {
            debug_assert_eq!(a.len(), b.len());
            let qv = splat(m.value());
            let head = a.len() / LANES * LANES;
            let mut i = 0usize;
            while i < head {
                let s = addv(loadv(a.as_ptr().add(i)), loadv(b.as_ptr().add(i)));
                storev(a.as_mut_ptr().add(i), cond_sub(s, qv));
                i += LANES;
            }
            crate::ew::add_assign_scalar(m, &mut a[head..], &b[head..]);
        }

        #[target_feature(enable = $feat)]
        unsafe fn sub_assign_impl(m: &Modulus, a: &mut [u64], b: &[u64]) {
            debug_assert_eq!(a.len(), b.len());
            let qv = splat(m.value());
            let head = a.len() / LANES * LANES;
            let mut i = 0usize;
            while i < head {
                // a + q − b ∈ (0, 2q).
                let d = subv(addv(loadv(a.as_ptr().add(i)), qv), loadv(b.as_ptr().add(i)));
                storev(a.as_mut_ptr().add(i), cond_sub(d, qv));
                i += LANES;
            }
            crate::ew::sub_assign_scalar(m, &mut a[head..], &b[head..]);
        }

        #[target_feature(enable = $feat)]
        unsafe fn neg_assign_impl(m: &Modulus, a: &mut [u64]) {
            let qv = splat(m.value());
            let head = a.len() / LANES * LANES;
            let mut i = 0usize;
            while i < head {
                // q − a ∈ (0, q]; the conditional subtract maps q to 0.
                let d = subv(qv, loadv(a.as_ptr().add(i)));
                storev(a.as_mut_ptr().add(i), cond_sub(d, qv));
                i += LANES;
            }
            crate::ew::neg_assign_scalar(m, &mut a[head..]);
        }

        /// Two's-complement lift of `|c| < q`: `c + q` wraps a negative
        /// `c` into `[0, q)` and pushes a non-negative one to `[q, 2q)`,
        /// where the conditional subtract takes the `q` back off.
        #[target_feature(enable = $feat)]
        #[inline]
        unsafe fn lift_v(c: V, qv: V) -> V {
            cond_sub(addv(c, qv), qv)
        }

        #[target_feature(enable = $feat)]
        unsafe fn lift_signed_impl(m: &Modulus, out: &mut [u64], src: &[i64]) {
            debug_assert_eq!(out.len(), src.len());
            let qv = splat(m.value());
            let head = out.len() / LANES * LANES;
            let mut i = 0usize;
            while i < head {
                let c = loadv(src.as_ptr().add(i).cast());
                storev(out.as_mut_ptr().add(i), lift_v(c, qv));
                i += LANES;
            }
            crate::ew::lift_signed_scalar(m, &mut out[head..], &src[head..]);
        }

        #[target_feature(enable = $feat)]
        unsafe fn reduce_once_into_impl(m: &Modulus, out: &mut [u64], src: &[u64]) {
            debug_assert_eq!(out.len(), src.len());
            let qv = splat(m.value());
            let head = out.len() / LANES * LANES;
            let mut i = 0usize;
            while i < head {
                storev(
                    out.as_mut_ptr().add(i),
                    cond_sub(loadv(src.as_ptr().add(i)), qv),
                );
                i += LANES;
            }
            crate::ew::reduce_once_into_scalar(m, &mut out[head..], &src[head..]);
        }

        #[target_feature(enable = $feat)]
        unsafe fn reduce_lazy_pow2_impl(q: u64, a: &mut [u64], k: u32) {
            let head = a.len() / LANES * LANES;
            let mut i = 0usize;
            while i < head {
                let mut v = loadv(a.as_ptr().add(i));
                let mut s = k;
                while s > 0 {
                    s -= 1;
                    v = cond_sub(v, splat(q << s));
                }
                storev(a.as_mut_ptr().add(i), v);
                i += LANES;
            }
            crate::ew::reduce_lazy_pow2_scalar(q, &mut a[head..], k);
        }

        #[target_feature(enable = $feat)]
        unsafe fn scale_assign_impl(q: u64, a: &mut [u64], w: u64, ws: u64) {
            let qv = splat(q);
            let wv = splat(w);
            let wsv = splat(ws);
            let head = a.len() / LANES * LANES;
            let mut i = 0usize;
            while i < head {
                let r = shoup_lazy_v(loadv(a.as_ptr().add(i)), wv, wsv, qv);
                storev(a.as_mut_ptr().add(i), cond_sub(r, qv));
                i += LANES;
            }
            crate::ew::scale_assign_scalar(q, &mut a[head..], w, ws);
        }

        #[target_feature(enable = $feat)]
        unsafe fn mul_shoup_assign_impl(m: &Modulus, a: &mut [u64], b: &[u64], bs: &[u64]) {
            debug_assert_eq!(a.len(), b.len());
            debug_assert_eq!(b.len(), bs.len());
            let qv = splat(m.value());
            let head = a.len() / LANES * LANES;
            let mut i = 0usize;
            while i < head {
                let r = shoup_lazy_v(
                    loadv(a.as_ptr().add(i)),
                    loadv(b.as_ptr().add(i)),
                    loadv(bs.as_ptr().add(i)),
                    qv,
                );
                storev(a.as_mut_ptr().add(i), cond_sub(r, qv));
                i += LANES;
            }
            crate::ew::mul_shoup_assign_scalar(m, &mut a[head..], &b[head..], &bs[head..]);
        }

        #[target_feature(enable = $feat)]
        unsafe fn mul_shoup_into_impl(
            m: &Modulus,
            out: &mut [u64],
            a: &[u64],
            b: &[u64],
            bs: &[u64],
        ) {
            debug_assert_eq!(out.len(), a.len());
            debug_assert_eq!(a.len(), b.len());
            debug_assert_eq!(b.len(), bs.len());
            let qv = splat(m.value());
            let head = a.len() / LANES * LANES;
            let mut i = 0usize;
            while i < head {
                let r = shoup_lazy_v(
                    loadv(a.as_ptr().add(i)),
                    loadv(b.as_ptr().add(i)),
                    loadv(bs.as_ptr().add(i)),
                    qv,
                );
                storev(out.as_mut_ptr().add(i), cond_sub(r, qv));
                i += LANES;
            }
            crate::ew::mul_shoup_into_scalar(
                m,
                &mut out[head..],
                &a[head..],
                &b[head..],
                &bs[head..],
            );
        }

        /// Both two-row accumulates: `a` is loaded once per lane group,
        /// each row adds its lazy product; `LAZY` leaves the wrapped sum,
        /// otherwise `acc + p < 3q` is canonicalized.
        #[target_feature(enable = $feat)]
        unsafe fn mul_shoup_add2_impl<const LAZY: bool>(
            m: &Modulus,
            acc0: &mut [u64],
            acc1: &mut [u64],
            a: &[u64],
            k0: ShoupRow,
            k1: ShoupRow,
        ) {
            let n = a.len();
            debug_assert!([
                acc0.len(),
                acc1.len(),
                k0.0.len(),
                k0.1.len(),
                k1.0.len(),
                k1.1.len()
            ]
            .iter()
            .all(|&len| len == n));
            let qv = splat(m.value());
            let tqv = splat(m.value() << 1);
            let head = n / LANES * LANES;
            let mut i = 0usize;
            while i < head {
                let av = loadv(a.as_ptr().add(i));
                let p0 = shoup_lazy_v(
                    av,
                    loadv(k0.0.as_ptr().add(i)),
                    loadv(k0.1.as_ptr().add(i)),
                    qv,
                );
                let p1 = shoup_lazy_v(
                    av,
                    loadv(k1.0.as_ptr().add(i)),
                    loadv(k1.1.as_ptr().add(i)),
                    qv,
                );
                let mut s0 = addv(loadv(acc0.as_ptr().add(i)), p0);
                let mut s1 = addv(loadv(acc1.as_ptr().add(i)), p1);
                if !LAZY {
                    s0 = cond_sub(cond_sub(s0, tqv), qv);
                    s1 = cond_sub(cond_sub(s1, tqv), qv);
                }
                storev(acc0.as_mut_ptr().add(i), s0);
                storev(acc1.as_mut_ptr().add(i), s1);
                i += LANES;
            }
            let tail = if LAZY {
                crate::ew::mul_shoup_add_lazy2_scalar
            } else {
                crate::ew::mul_shoup_add2_scalar
            };
            tail(
                m,
                &mut acc0[head..],
                &mut acc1[head..],
                &a[head..],
                (&k0.0[head..], &k0.1[head..]),
                (&k1.0[head..], &k1.1[head..]),
            );
        }

        #[target_feature(enable = $feat)]
        unsafe fn mul_shoup_scalar_into_impl(
            m: &Modulus,
            out: &mut [u64],
            a: &[u64],
            w: u64,
            ws: u64,
        ) {
            debug_assert_eq!(out.len(), a.len());
            let qv = splat(m.value());
            let wv = splat(w);
            let wsv = splat(ws);
            let head = a.len() / LANES * LANES;
            let mut i = 0usize;
            while i < head {
                let r = shoup_lazy_v(loadv(a.as_ptr().add(i)), wv, wsv, qv);
                storev(out.as_mut_ptr().add(i), cond_sub(r, qv));
                i += LANES;
            }
            crate::ew::mul_shoup_scalar_into_scalar(m, &mut out[head..], &a[head..], w, ws);
        }

        #[target_feature(enable = $feat)]
        unsafe fn mul_shoup_scalar_add_assign_impl(
            m: &Modulus,
            acc: &mut [u64],
            a: &[u64],
            w: u64,
            ws: u64,
        ) {
            debug_assert_eq!(acc.len(), a.len());
            let qv = splat(m.value());
            let tqv = splat(m.value() << 1);
            let wv = splat(w);
            let wsv = splat(ws);
            let head = a.len() / LANES * LANES;
            let mut i = 0usize;
            while i < head {
                let p = shoup_lazy_v(loadv(a.as_ptr().add(i)), wv, wsv, qv);
                let s = addv(loadv(acc.as_ptr().add(i)), p); // < 3q
                storev(acc.as_mut_ptr().add(i), cond_sub(cond_sub(s, tqv), qv));
                i += LANES;
            }
            crate::ew::mul_shoup_scalar_add_assign_scalar(m, &mut acc[head..], &a[head..], w, ws);
        }

        #[target_feature(enable = $feat)]
        unsafe fn rescale_step_impl(
            m: &Modulus,
            y: &mut [u64],
            d: &[i64],
            w: &[i64],
            inv: u64,
            inv_shoup: u64,
        ) {
            debug_assert_eq!(y.len(), d.len());
            debug_assert_eq!(y.len(), w.len());
            let qv = splat(m.value());
            let tqv = splat(m.value() << 1);
            let iv = splat(inv);
            let isv = splat(inv_shoup);
            let head = y.len() / LANES * LANES;
            let mut i = 0usize;
            while i < head {
                let dv = lift_v(loadv(d.as_ptr().add(i).cast()), qv);
                let wv = lift_v(loadv(w.as_ptr().add(i).cast()), qv);
                // y − d, canonical, then the lazy product < 2q.
                let x = cond_sub(subv(addv(loadv(y.as_ptr().add(i)), qv), dv), qv);
                let p = shoup_lazy_v(x, iv, isv, qv);
                // p + q − w ∈ (0, 3q).
                let r = addv(p, subv(qv, wv));
                storev(y.as_mut_ptr().add(i), cond_sub(cond_sub(r, tqv), qv));
                i += LANES;
            }
            crate::ew::rescale_step_scalar(
                m,
                &mut y[head..],
                &d[head..],
                &w[head..],
                inv,
                inv_shoup,
            );
        }

        // SAFETY (all wrappers below): these function pointers are only
        // published through `select()` / `all_available()`, which gate
        // this module behind runtime detection of exactly the features
        // named in the `#[target_feature]` attributes above.
        fn add_assign(m: &Modulus, a: &mut [u64], b: &[u64]) {
            unsafe { add_assign_impl(m, a, b) }
        }
        fn sub_assign(m: &Modulus, a: &mut [u64], b: &[u64]) {
            unsafe { sub_assign_impl(m, a, b) }
        }
        fn neg_assign(m: &Modulus, a: &mut [u64]) {
            unsafe { neg_assign_impl(m, a) }
        }
        fn lift_signed(m: &Modulus, out: &mut [u64], src: &[i64]) {
            unsafe { lift_signed_impl(m, out, src) }
        }
        fn reduce_once_into(m: &Modulus, out: &mut [u64], src: &[u64]) {
            unsafe { reduce_once_into_impl(m, out, src) }
        }
        fn reduce_lazy_pow2(q: u64, a: &mut [u64], k: u32) {
            unsafe { reduce_lazy_pow2_impl(q, a, k) }
        }
        fn scale_assign(q: u64, a: &mut [u64], w: u64, ws: u64) {
            if !($fits)(q) {
                return ($fallback.scale_assign)(q, a, w, ws);
            }
            unsafe { scale_assign_impl(q, a, w, ws) }
        }
        fn mul_shoup_assign(m: &Modulus, a: &mut [u64], b: &[u64], bs: &[u64]) {
            if !($fits)(m.value()) {
                return ($fallback.mul_shoup_assign)(m, a, b, bs);
            }
            unsafe { mul_shoup_assign_impl(m, a, b, bs) }
        }
        fn mul_shoup_into(m: &Modulus, out: &mut [u64], a: &[u64], b: &[u64], bs: &[u64]) {
            if !($fits)(m.value()) {
                return ($fallback.mul_shoup_into)(m, out, a, b, bs);
            }
            unsafe { mul_shoup_into_impl(m, out, a, b, bs) }
        }
        fn mul_shoup_add2(
            m: &Modulus,
            acc0: &mut [u64],
            acc1: &mut [u64],
            a: &[u64],
            k0: ShoupRow,
            k1: ShoupRow,
        ) {
            if !($fits)(m.value()) {
                return ($fallback.mul_shoup_add2)(m, acc0, acc1, a, k0, k1);
            }
            unsafe { mul_shoup_add2_impl::<false>(m, acc0, acc1, a, k0, k1) }
        }
        fn mul_shoup_add_lazy2(
            m: &Modulus,
            acc0: &mut [u64],
            acc1: &mut [u64],
            a: &[u64],
            k0: ShoupRow,
            k1: ShoupRow,
        ) {
            if !($fits)(m.value()) {
                return ($fallback.mul_shoup_add_lazy2)(m, acc0, acc1, a, k0, k1);
            }
            unsafe { mul_shoup_add2_impl::<true>(m, acc0, acc1, a, k0, k1) }
        }
        fn mul_shoup_scalar_into(m: &Modulus, out: &mut [u64], a: &[u64], w: u64, ws: u64) {
            if !($fits)(m.value()) {
                return ($fallback.mul_shoup_scalar_into)(m, out, a, w, ws);
            }
            unsafe { mul_shoup_scalar_into_impl(m, out, a, w, ws) }
        }
        fn mul_shoup_scalar_add_assign(m: &Modulus, acc: &mut [u64], a: &[u64], w: u64, ws: u64) {
            if !($fits)(m.value()) {
                return ($fallback.mul_shoup_scalar_add_assign)(m, acc, a, w, ws);
            }
            unsafe { mul_shoup_scalar_add_assign_impl(m, acc, a, w, ws) }
        }
        fn rescale_step(
            m: &Modulus,
            y: &mut [u64],
            d: &[i64],
            w: &[i64],
            inv: u64,
            inv_shoup: u64,
        ) {
            if !($fits)(m.value()) {
                return ($fallback.rescale_step)(m, y, d, w, inv, inv_shoup);
            }
            unsafe { rescale_step_impl(m, y, d, w, inv, inv_shoup) }
        }
    };
}

// ---------------------------------------------------------------------------
// Vector tiers. Each ISA module defines eight primitive ops (splat / loadv /
// storev / addv / subv / mullo64 / mulhi64 / cond_sub) and this macro
// expands the identical kernel bodies against them, so the arithmetic lives
// in exactly one place.
// ---------------------------------------------------------------------------

macro_rules! vector_tier_body {
    ($name:literal, $feat:literal) => {
        // The rows on which the emulated 64-bit multiplier loses to scalar
        // (BENCH_bgv.json `tiers`): the inverse transform and the products.
        use crate::ew::{
            mul_add_assign_scalar as mul_add_assign, mul_assign_scalar as mul_assign,
            mul_into_scalar as mul_into, tensor3_scalar as tensor3,
        };
        use crate::simd::scalar::ntt_inv;

        /// `a·w − ⌊a·w_s/2^64⌋·q` (wrapping) — the Harvey/Shoup lazy
        /// product, lane-parallel. Same integer formula as
        /// `Modulus::mul_shoup_lazy`, so lazy intermediates match the
        /// scalar path bit for bit. Result `< 2q` for canonical `w`.
        #[target_feature(enable = $feat)]
        #[inline]
        unsafe fn shoup_lazy_v(a: V, w: V, ws: V, qv: V) -> V {
            subv(mullo64(a, w), mullo64(mulhi64(a, ws), qv))
        }

        #[target_feature(enable = $feat)]
        unsafe fn fwd_pass_impl(
            s: &NttShape,
            a: &mut [u64],
            root_base: usize,
            chunks: usize,
            t: usize,
        ) {
            debug_assert_eq!(a.len(), chunks * 2 * t);
            if t < LANES {
                return crate::simd::scalar::fwd_pass(s, a, root_base, chunks, t);
            }
            let qv = splat(s.q);
            let tqv = splat(s.q << 1);
            for (i, chunk) in a.chunks_exact_mut(2 * t).enumerate() {
                let wv = splat(s.roots[root_base + i]);
                let wsv = splat(s.shoup[root_base + i]);
                let (lo, hi) = chunk.split_at_mut(t);
                let mut j = 0usize;
                while j < t {
                    // Harvey CT butterfly, [0,4q) → [0,4q), identical to
                    // the scalar kernel lane by lane.
                    let u = cond_sub(loadv(lo.as_ptr().add(j)), tqv);
                    let v = shoup_lazy_v(loadv(hi.as_ptr().add(j)), wv, wsv, qv);
                    storev(lo.as_mut_ptr().add(j), addv(u, v));
                    storev(hi.as_mut_ptr().add(j), addv(u, subv(tqv, v)));
                    j += LANES;
                }
            }
        }

        shoup_family!($feat, |_q: u64| true, crate::simd::scalar::KERNELS);

        // SAFETY: this function pointer is only published through
        // `select()` / `all_available()`, which gate this module behind
        // runtime detection of exactly the features named in the
        // `#[target_feature]` attribute above.
        fn fwd_pass(s: &NttShape, a: &mut [u64], root_base: usize, chunks: usize, t: usize) {
            unsafe { fwd_pass_impl(s, a, root_base, chunks, t) }
        }
        fn ntt_fwd(s: &NttShape, a: &mut [u64]) {
            crate::simd::fwd_driver(s, a, fwd_pass, reduce_lazy_pow2)
        }

        pub(crate) static KERNELS: Kernels = tier_kernels!($name);
    };
}

/// AVX2 tier: 4 × u64 lanes. 64-bit products are emulated from
/// `vpmuludq` 32×32 partial products; unsigned compares use the
/// sign-bias trick (`x ^ 2^63` turns unsigned order into signed order).
#[cfg(target_arch = "x86_64")]
pub(crate) mod avx2 {
    use super::{Kernels, NttShape};
    use crate::ew::{pack_scalar as pack, unpack_scalar as unpack, ShoupRow};
    use crate::zq::Modulus;
    use core::arch::x86_64::*;

    const LANES: usize = 4;
    type V = __m256i;

    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn splat(x: u64) -> V {
        _mm256_set1_epi64x(x as i64)
    }
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn loadv(p: *const u64) -> V {
        _mm256_loadu_si256(p as *const __m256i)
    }
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn storev(p: *mut u64, v: V) {
        _mm256_storeu_si256(p as *mut __m256i, v)
    }
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn addv(a: V, b: V) -> V {
        _mm256_add_epi64(a, b)
    }
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn subv(a: V, b: V) -> V {
        _mm256_sub_epi64(a, b)
    }
    /// Low 64 bits of each unsigned 64×64 product (wrapping):
    /// `lo(a·b) = ll + ((a_lo·b_hi + a_hi·b_lo) << 32)`.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn mullo64(a: V, b: V) -> V {
        let a_hi = _mm256_srli_epi64::<32>(a);
        let b_hi = _mm256_srli_epi64::<32>(b);
        let ll = _mm256_mul_epu32(a, b);
        let cross = _mm256_add_epi64(_mm256_mul_epu32(a, b_hi), _mm256_mul_epu32(a_hi, b));
        _mm256_add_epi64(ll, _mm256_slli_epi64::<32>(cross))
    }
    /// High 64 bits of each unsigned 64×64 product from the four 32×32
    /// partials, with exact carry propagation through the middle column.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn mulhi64(a: V, b: V) -> V {
        let m32 = _mm256_set1_epi64x(0xFFFF_FFFF);
        let a_hi = _mm256_srli_epi64::<32>(a);
        let b_hi = _mm256_srli_epi64::<32>(b);
        let ll = _mm256_mul_epu32(a, b);
        let lh = _mm256_mul_epu32(a, b_hi);
        let hl = _mm256_mul_epu32(a_hi, b);
        let hh = _mm256_mul_epu32(a_hi, b_hi);
        let mid = _mm256_add_epi64(
            _mm256_add_epi64(_mm256_srli_epi64::<32>(ll), _mm256_and_si256(lh, m32)),
            _mm256_and_si256(hl, m32),
        );
        _mm256_add_epi64(
            _mm256_add_epi64(hh, _mm256_srli_epi64::<32>(lh)),
            _mm256_add_epi64(_mm256_srli_epi64::<32>(hl), _mm256_srli_epi64::<32>(mid)),
        )
    }
    /// `if x >= b { x - b } else { x }` (unsigned per lane).
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn cond_sub(x: V, b: V) -> V {
        let bias = _mm256_set1_epi64x(i64::MIN);
        let lt = _mm256_cmpgt_epi64(_mm256_xor_si256(b, bias), _mm256_xor_si256(x, bias));
        _mm256_sub_epi64(x, _mm256_andnot_si256(lt, b))
    }

    vector_tier_body!("avx2", "avx2");
}

/// AVX-512F+DQ tier: 8 × u64 lanes with native 64-bit low products
/// (`vpmullq`) and native unsigned min, which makes the conditional
/// subtract a single `vpminuq` against the wrapped difference.
#[cfg(target_arch = "x86_64")]
pub(crate) mod avx512 {
    use super::{Kernels, NttShape};
    use crate::ew::{check_packed_shape, ShoupRow};
    use crate::zq::Modulus;
    use core::arch::x86_64::*;

    const LANES: usize = 8;
    type V = __m512i;

    #[target_feature(enable = "avx512f,avx512dq")]
    #[inline]
    unsafe fn splat(x: u64) -> V {
        _mm512_set1_epi64(x as i64)
    }
    #[target_feature(enable = "avx512f,avx512dq")]
    #[inline]
    unsafe fn loadv(p: *const u64) -> V {
        _mm512_loadu_si512(p.cast())
    }
    #[target_feature(enable = "avx512f,avx512dq")]
    #[inline]
    unsafe fn storev(p: *mut u64, v: V) {
        _mm512_storeu_si512(p.cast(), v)
    }
    #[target_feature(enable = "avx512f,avx512dq")]
    #[inline]
    unsafe fn addv(a: V, b: V) -> V {
        _mm512_add_epi64(a, b)
    }
    #[target_feature(enable = "avx512f,avx512dq")]
    #[inline]
    unsafe fn subv(a: V, b: V) -> V {
        _mm512_sub_epi64(a, b)
    }
    #[target_feature(enable = "avx512f,avx512dq")]
    #[inline]
    unsafe fn mullo64(a: V, b: V) -> V {
        _mm512_mullo_epi64(a, b)
    }
    /// High 64 bits of each unsigned 64×64 product (no native vpmulhuq;
    /// same four-partial-product emulation as the AVX2 tier).
    #[target_feature(enable = "avx512f,avx512dq")]
    #[inline]
    unsafe fn mulhi64(a: V, b: V) -> V {
        let m32 = _mm512_set1_epi64(0xFFFF_FFFF);
        let a_hi = _mm512_srli_epi64::<32>(a);
        let b_hi = _mm512_srli_epi64::<32>(b);
        let ll = _mm512_mul_epu32(a, b);
        let lh = _mm512_mul_epu32(a, b_hi);
        let hl = _mm512_mul_epu32(a_hi, b);
        let hh = _mm512_mul_epu32(a_hi, b_hi);
        let mid = _mm512_add_epi64(
            _mm512_add_epi64(_mm512_srli_epi64::<32>(ll), _mm512_and_si512(lh, m32)),
            _mm512_and_si512(hl, m32),
        );
        _mm512_add_epi64(
            _mm512_add_epi64(hh, _mm512_srli_epi64::<32>(lh)),
            _mm512_add_epi64(_mm512_srli_epi64::<32>(hl), _mm512_srli_epi64::<32>(mid)),
        )
    }
    /// `min_epu64(x, x - b)`: if `x >= b` the difference is smaller, if
    /// `x < b` it wraps to a huge value — either way the min is right.
    #[target_feature(enable = "avx512f,avx512dq")]
    #[inline]
    unsafe fn cond_sub(x: V, b: V) -> V {
        _mm512_min_epu64(x, _mm512_sub_epi64(x, b))
    }

    vector_tier_body!("avx512", "avx512f,avx512dq");

    /// Bytes one vector load or store spans.
    const SPAN: usize = 8 * LANES;
    // One vector is one pack group.
    const _: () = assert!(LANES == crate::ew::PACK_LANES);

    /// How many leading pack groups of `w` bytes can be moved with whole
    /// [`SPAN`]-byte accesses inside a row of `len` bytes: group `g` starts
    /// at byte `g·w` and its access must end by `len`.
    fn whole_span_groups(len: usize, w: usize) -> usize {
        len.checked_sub(SPAN).map_or(0, |room| room / w + 1)
    }

    /// Per-lane indices and shift counts as a vector.
    #[target_feature(enable = "avx512f,avx512dq")]
    #[inline]
    unsafe fn lanes(x: [u64; LANES]) -> V {
        loadv(x.as_ptr())
    }

    /// Eight residues in, `w` bytes out. Word `k` of a group's bytes is
    /// bits `64k..64k + 64` of the eight residues laid end to end: the rest
    /// of the residue that straddles its start, shifted down, and the next
    /// two, shifted up (`w ≥ 32`, so a third never fits) — a shift count of
    /// 64 or more leaves nothing, which is how a term that falls outside
    /// the word, or the group, drops out. Each store spans [`SPAN`] bytes;
    /// what it writes past the group's `w` belongs to the groups behind it,
    /// which are written next. Returns how many groups it wrote: those
    /// whose store fits inside `out`.
    ///
    /// # Safety
    /// The CPU must support AVX-512F+DQ. (Every access is bounded by the
    /// slices' own lengths.)
    #[target_feature(enable = "avx512f,avx512dq")]
    unsafe fn pack_impl(w: usize, out: &mut [u8], src: &[u64]) -> usize {
        let (mut idx, mut shift) = ([[0u64; LANES]; 3], [[64u64; LANES]; 3]);
        for k in 0..LANES {
            let first = 64 * k / w;
            let consumed = 64 * k - first * w;
            for t in 0..3 {
                idx[t][k] = ((first + t) % LANES) as u64;
                if first + t < LANES {
                    // Term 0 shifts right by `consumed`; term t > 0 left by
                    // t·w − consumed, which is positive.
                    shift[t][k] = (t * w).abs_diff(consumed) as u64;
                }
            }
        }
        let (idx, shift) = (idx.map(|x| lanes(x)), shift.map(|x| lanes(x)));
        let groups = whole_span_groups(out.len(), w).min(src.len() / LANES);
        for g in 0..groups {
            let x = loadv(src.as_ptr().add(g * LANES));
            let word = _mm512_or_si512(
                _mm512_srlv_epi64(_mm512_permutexvar_epi64(idx[0], x), shift[0]),
                _mm512_or_si512(
                    _mm512_sllv_epi64(_mm512_permutexvar_epi64(idx[1], x), shift[1]),
                    _mm512_sllv_epi64(_mm512_permutexvar_epi64(idx[2], x), shift[2]),
                ),
            );
            // SAFETY: g < whole_span_groups, so g·w + SPAN ≤ out.len().
            _mm512_storeu_si512(out.as_mut_ptr().add(g * w).cast(), word);
        }
        groups
    }

    /// `w` bytes in, eight residues out. Lane `i` starts at bit `i·w`: the rest of the word that bit
    /// is in, shifted down, under the start of the next word, shifted up
    /// (by 64, i.e. to nothing, when the lane starts on a word boundary),
    /// masked to `w` bits. Returns how many groups it read — those whose
    /// load fits inside `src` — and whether all of their lanes are below `q`.
    ///
    /// # Safety
    /// The CPU must support AVX-512F+DQ. (Every access is bounded by the
    /// slices' own lengths.)
    #[target_feature(enable = "avx512f,avx512dq")]
    unsafe fn unpack_impl(q: u64, w: usize, out: &mut [u64], src: &[u8]) -> (usize, bool) {
        let (mut word, mut down) = ([0u64; LANES], [0u64; LANES]);
        for i in 0..LANES {
            word[i] = (i * w / 64) as u64;
            down[i] = (i * w % 64) as u64;
        }
        let next = lanes(word.map(|k| (k + 1) % LANES as u64));
        let up = lanes(down.map(|s| 64 - s));
        let (word, down) = (lanes(word), lanes(down));
        let mask = splat(u64::MAX >> (64 - w));
        let qv = splat(q);
        let groups = whole_span_groups(src.len(), w).min(out.len() / LANES);
        let mut over = 0u8;
        for g in 0..groups {
            // SAFETY: g < whole_span_groups, so g·w + SPAN ≤ src.len().
            let bytes = _mm512_loadu_si512(src.as_ptr().add(g * w).cast());
            let x = _mm512_and_si512(
                _mm512_or_si512(
                    _mm512_srlv_epi64(_mm512_permutexvar_epi64(word, bytes), down),
                    _mm512_sllv_epi64(_mm512_permutexvar_epi64(next, bytes), up),
                ),
                mask,
            );
            over |= _mm512_cmpge_epu64_mask(x, qv);
            storev(out.as_mut_ptr().add(g * LANES), x);
        }
        (groups, over == 0)
    }

    // SAFETY (both wrappers): published only through `select()` /
    // `all_available()` behind runtime detection of avx512f+dq.
    pub(super) fn pack(m: &Modulus, out: &mut [u8], src: &[u64]) {
        let w = check_packed_shape(m, src.len(), out.len());
        if w < 32 {
            return crate::ew::pack_scalar(m, out, src);
        }
        let done = unsafe { pack_impl(w, out, src) };
        crate::ew::pack_scalar(m, &mut out[done * w..], &src[done * LANES..]);
    }
    pub(super) fn unpack(m: &Modulus, out: &mut [u64], src: &[u8]) -> bool {
        let w = check_packed_shape(m, out.len(), src.len());
        let (done, canonical) = unsafe { unpack_impl(m.value(), w, out, src) };
        crate::ew::unpack_scalar(m, &mut out[done * LANES..], &src[done * w..]) && canonical
    }
}

/// AVX-512 IFMA tier: 8 × u64 lanes on the 52×52→104-bit fused
/// multiply-add (`vpmadd52luq` / `vpmadd52huq`). Where the generic
/// AVX-512 tier must emulate a 64-bit high product from four 32×32
/// partials (~10 ops), IFMA delivers both halves of a 104-bit product in
/// two instructions — provided every multiplier operand fits 52 bits.
///
/// That bound holds for this workspace's chain primes whenever
/// `4q ≤ 2^52` (the lazy NTT domain is `[0, 4q)`), so each kernel gates
/// on [`MAX_Q`] and falls back to the 64-bit AVX-512 tier outside it.
///
/// Bit-identity: the butterflies and the Shoup kernels estimate quotients
/// against `2^52` instead of `2^64`, which can shift a *lazy intermediate*
/// by `q` relative to the scalar oracle — but every intermediate stays
/// congruent mod `q` within the same overflow-free ranges, and every
/// stored output is canonicalized, so outputs are bit-identical (see the
/// module-level contract). The product kernels are Montgomery REDC at
/// radix 2^52. Neither the butterflies nor the Shoup family need a table
/// of their own: the 52-bit constant of a 64-bit Shoup constant
/// `w_s = ⌊w·2^64/q⌋` is `w_s >> 12`, exactly `⌊w·2^52/q⌋`.
#[cfg(target_arch = "x86_64")]
pub(crate) mod avx512ifma {
    use super::avx512::{pack, unpack};
    use super::{Kernels, NttShape};
    use crate::ew::ShoupRow;
    use crate::zq::Modulus;
    use core::arch::x86_64::*;

    const LANES: usize = 8;
    /// Largest modulus the 52-bit kernels accept: `4q ≤ 2^52`.
    pub(crate) const MAX_Q: u64 = 1u64 << 50;
    type V = __m512i;

    #[target_feature(enable = "avx512f,avx512dq,avx512ifma")]
    #[inline]
    unsafe fn splat(x: u64) -> V {
        _mm512_set1_epi64(x as i64)
    }
    #[target_feature(enable = "avx512f,avx512dq,avx512ifma")]
    #[inline]
    unsafe fn loadv(p: *const u64) -> V {
        _mm512_loadu_si512(p.cast())
    }
    #[target_feature(enable = "avx512f,avx512dq,avx512ifma")]
    #[inline]
    unsafe fn storev(p: *mut u64, v: V) {
        _mm512_storeu_si512(p.cast(), v)
    }
    #[target_feature(enable = "avx512f,avx512dq,avx512ifma")]
    #[inline]
    unsafe fn addv(a: V, b: V) -> V {
        _mm512_add_epi64(a, b)
    }
    #[target_feature(enable = "avx512f,avx512dq,avx512ifma")]
    #[inline]
    unsafe fn subv(a: V, b: V) -> V {
        _mm512_sub_epi64(a, b)
    }
    #[target_feature(enable = "avx512f,avx512dq,avx512ifma")]
    #[inline]
    unsafe fn cond_sub(x: V, b: V) -> V {
        _mm512_min_epu64(x, _mm512_sub_epi64(x, b))
    }
    #[target_feature(enable = "avx512f,avx512dq,avx512ifma")]
    #[inline]
    unsafe fn carry_nonzero(lo: V) -> V {
        _mm512_min_epu64(lo, _mm512_set1_epi64(1))
    }
    /// `acc + (a·b mod 2^52)` per lane (operands taken mod 2^52).
    #[target_feature(enable = "avx512f,avx512dq,avx512ifma")]
    #[inline]
    unsafe fn mad52lo(acc: V, a: V, b: V) -> V {
        _mm512_madd52lo_epu64(acc, a, b)
    }
    /// `acc + ⌊a·b / 2^52⌋` per lane (operands taken mod 2^52).
    #[target_feature(enable = "avx512f,avx512dq,avx512ifma")]
    #[inline]
    unsafe fn mad52hi(acc: V, a: V, b: V) -> V {
        _mm512_madd52hi_epu64(acc, a, b)
    }

    /// Radix-2^52 Shoup lazy product: `a·w − ⌊a·ws52/2^52⌋·q`, computed
    /// mod 2^52 and masked back. Exact (the true value is in `[0, 2q)`
    /// ⊂ `[0, 2^52)`) when `a < 2^52` and `ws52 = ⌊w·2^52/q⌋` (a 64-bit
    /// Shoup constant shifted right by 12) — every caller sits behind the
    /// `4q ≤ 2^52` gate.
    #[target_feature(enable = "avx512f,avx512dq,avx512ifma")]
    #[inline]
    unsafe fn shoup52_lazy_v(a: V, w: V, ws52: V, qv: V, zero: V, m52: V) -> V {
        let hi = mad52hi(zero, a, ws52);
        _mm512_and_si512(subv(mad52lo(zero, a, w), mad52lo(zero, hi, qv)), m52)
    }

    /// Radix-2^52 Montgomery product: `a·b·2^{-52} mod q`, lazy in
    /// `[0, 2q)`. Sound while `a·b < q·2^52` and both operands fit 52
    /// bits — `a < 2q`, `b < q`, `2q ≤ 2^52` qualifies. Same shape as the
    /// 64-bit REDC: `m = lo·(-q^{-1}) mod 2^52`, then
    /// `(x + m·q)/2^52 = hi + ⌊m·q/2^52⌋ + (lo != 0)`.
    #[target_feature(enable = "avx512f,avx512dq,avx512ifma")]
    #[inline]
    unsafe fn mont52_mul_lazy(a: V, b: V, qv: V, qinv52: V, zero: V) -> V {
        let lo = mad52lo(zero, a, b);
        let hi = mad52hi(zero, a, b);
        let m = mad52lo(zero, lo, qinv52);
        addv(addv(hi, mad52hi(zero, m, qv)), carry_nonzero(lo))
    }

    /// The family's lazy Shoup product on the 52-bit multiplier, from the
    /// ordinary 64-bit constant: `⌊⌊w·2^64/q⌋ / 2^12⌋ = ⌊w·2^52/q⌋`.
    /// Needs `a < 2^52` — canonical inputs and the `[0, 2q)` values of the
    /// inverse NTT qualify under the `q ≤ 2^50` gate.
    #[target_feature(enable = "avx512f,avx512dq,avx512ifma")]
    #[inline]
    unsafe fn shoup_lazy_v(a: V, w: V, ws: V, qv: V) -> V {
        shoup52_lazy_v(
            a,
            w,
            _mm512_srli_epi64::<12>(ws),
            qv,
            _mm512_setzero_si512(),
            splat((1u64 << 52) - 1),
        )
    }

    shoup_family!(
        "avx512f,avx512dq,avx512ifma",
        |q: u64| q <= MAX_Q,
        super::avx512::KERNELS
    );

    /// Harvey CT butterfly on whole vectors: `[0,4q) → [0,4q)`.
    #[target_feature(enable = "avx512f,avx512dq,avx512ifma")]
    #[inline]
    #[allow(clippy::too_many_arguments)]
    unsafe fn fwd_bfly(x: V, y: V, w: V, ws: V, qv: V, tqv: V, zero: V, m52: V) -> (V, V) {
        let u = cond_sub(x, tqv);
        let v = shoup52_lazy_v(y, w, ws, qv, zero, m52);
        (addv(u, v), addv(u, subv(tqv, v)))
    }

    /// GS butterfly on whole vectors: `[0,2q) → [0,2q)`.
    #[target_feature(enable = "avx512f,avx512dq,avx512ifma")]
    #[inline]
    #[allow(clippy::too_many_arguments)]
    unsafe fn inv_bfly(x: V, y: V, w: V, ws: V, qv: V, tqv: V, zero: V, m52: V) -> (V, V) {
        let s = cond_sub(addv(x, y), tqv);
        let d = addv(x, subv(tqv, y));
        (s, shoup52_lazy_v(d, w, ws, qv, zero, m52))
    }

    /// Broadcasts 2 consecutive twiddles to 4 lanes each: `[w0×4, w1×4]`.
    #[target_feature(enable = "avx512f,avx512dq,avx512ifma")]
    #[inline]
    unsafe fn spread2(p: *const u64) -> V {
        let pair = _mm512_castsi128_si512(_mm_loadu_si128(p.cast()));
        _mm512_permutexvar_epi64(_mm512_setr_epi64(0, 0, 0, 0, 1, 1, 1, 1), pair)
    }

    /// Broadcasts 4 consecutive twiddles to 2 lanes each: `[w0,w0,…,w3,w3]`.
    #[target_feature(enable = "avx512f,avx512dq,avx512ifma")]
    #[inline]
    unsafe fn spread4(p: *const u64) -> V {
        let quad = _mm512_castsi256_si512(_mm256_loadu_si256(p.cast()));
        _mm512_permutexvar_epi64(_mm512_setr_epi64(0, 0, 1, 1, 2, 2, 3, 3), quad)
    }

    /// The three sub-vector-length butterfly stages, vectorized by
    /// regrouping lanes across two 8-lane vectors with `permutex2var`
    /// instead of falling back to scalar. Each macro expansion handles one
    /// `t` ∈ {4, 2, 1}: gather the `x`/`y` operands of 8 butterflies into
    /// whole vectors, apply the identical butterfly formulas, and scatter
    /// back. Lane regrouping cannot affect results — the butterflies are
    /// lane-local and the driver's final canonicalization fixes the lazy
    /// representative, so the transform stays bit-identical to scalar.
    macro_rules! small_t_pass {
        ($name:ident, $bfly:ident, $gx:expr, $gy:expr, $s0:expr, $s1:expr,
         $tw:expr, $pitch:expr) => {
            #[target_feature(enable = "avx512f,avx512dq,avx512ifma")]
            unsafe fn $name(s: &NttShape, a: &mut [u64], root_base: usize, chunks: usize) {
                let qv = splat(s.q);
                let tqv = splat(s.q << 1);
                let zero = _mm512_setzero_si512();
                let m52 = splat((1u64 << 52) - 1);
                let idx_x: V = $gx;
                let idx_y: V = $gy;
                let idx_s0: V = $s0;
                let idx_s1: V = $s1;
                let mut c = 0usize;
                while c < chunks {
                    let p = a.as_mut_ptr().add(c * $pitch * 2);
                    let v0 = loadv(p);
                    let v1 = loadv(p.add(LANES));
                    let x = _mm512_permutex2var_epi64(v0, idx_x, v1);
                    let y = _mm512_permutex2var_epi64(v0, idx_y, v1);
                    let w = $tw(s.roots.as_ptr().add(root_base + c));
                    let ws = _mm512_srli_epi64::<12>($tw(s.shoup.as_ptr().add(root_base + c)));
                    let (xo, yo) = $bfly(x, y, w, ws, qv, tqv, zero, m52);
                    storev(p, _mm512_permutex2var_epi64(xo, idx_s0, yo));
                    storev(p.add(LANES), _mm512_permutex2var_epi64(xo, idx_s1, yo));
                    c += 16 / ($pitch * 2);
                }
            }
        };
    }

    // t = 4: two 8-element chunks per iteration; x/y are the chunk halves.
    small_t_pass!(
        fwd_t4,
        fwd_bfly,
        _mm512_setr_epi64(0, 1, 2, 3, 8, 9, 10, 11),
        _mm512_setr_epi64(4, 5, 6, 7, 12, 13, 14, 15),
        _mm512_setr_epi64(0, 1, 2, 3, 8, 9, 10, 11),
        _mm512_setr_epi64(4, 5, 6, 7, 12, 13, 14, 15),
        spread2,
        4
    );
    small_t_pass!(
        inv_t4,
        inv_bfly,
        _mm512_setr_epi64(0, 1, 2, 3, 8, 9, 10, 11),
        _mm512_setr_epi64(4, 5, 6, 7, 12, 13, 14, 15),
        _mm512_setr_epi64(0, 1, 2, 3, 8, 9, 10, 11),
        _mm512_setr_epi64(4, 5, 6, 7, 12, 13, 14, 15),
        spread2,
        4
    );
    // t = 2: four 4-element chunks per iteration.
    small_t_pass!(
        fwd_t2,
        fwd_bfly,
        _mm512_setr_epi64(0, 1, 4, 5, 8, 9, 12, 13),
        _mm512_setr_epi64(2, 3, 6, 7, 10, 11, 14, 15),
        _mm512_setr_epi64(0, 1, 8, 9, 2, 3, 10, 11),
        _mm512_setr_epi64(4, 5, 12, 13, 6, 7, 14, 15),
        spread4,
        2
    );
    small_t_pass!(
        inv_t2,
        inv_bfly,
        _mm512_setr_epi64(0, 1, 4, 5, 8, 9, 12, 13),
        _mm512_setr_epi64(2, 3, 6, 7, 10, 11, 14, 15),
        _mm512_setr_epi64(0, 1, 8, 9, 2, 3, 10, 11),
        _mm512_setr_epi64(4, 5, 12, 13, 6, 7, 14, 15),
        spread4,
        2
    );
    // t = 1: eight 2-element chunks per iteration; one twiddle per chunk,
    // so the twiddles load directly as a contiguous vector.
    small_t_pass!(
        fwd_t1,
        fwd_bfly,
        _mm512_setr_epi64(0, 2, 4, 6, 8, 10, 12, 14),
        _mm512_setr_epi64(1, 3, 5, 7, 9, 11, 13, 15),
        _mm512_setr_epi64(0, 8, 1, 9, 2, 10, 3, 11),
        _mm512_setr_epi64(4, 12, 5, 13, 6, 14, 7, 15),
        loadv,
        1
    );
    small_t_pass!(
        inv_t1,
        inv_bfly,
        _mm512_setr_epi64(0, 2, 4, 6, 8, 10, 12, 14),
        _mm512_setr_epi64(1, 3, 5, 7, 9, 11, 13, 15),
        _mm512_setr_epi64(0, 8, 1, 9, 2, 10, 3, 11),
        _mm512_setr_epi64(4, 12, 5, 13, 6, 14, 7, 15),
        loadv,
        1
    );

    #[target_feature(enable = "avx512f,avx512dq,avx512ifma")]
    unsafe fn fwd_pass_impl(
        s: &NttShape,
        a: &mut [u64],
        root_base: usize,
        chunks: usize,
        t: usize,
    ) {
        debug_assert_eq!(a.len(), chunks * 2 * t);
        debug_assert!(s.q <= MAX_Q, "IFMA pass needs 4q ≤ 2^52");
        if t < LANES {
            // Each specialized stage consumes 16 elements per iteration,
            // so it needs the chunk count to cover whole vector pairs.
            match t {
                4 if chunks.is_multiple_of(2) => return fwd_t4(s, a, root_base, chunks),
                2 if chunks.is_multiple_of(4) => return fwd_t2(s, a, root_base, chunks),
                1 if chunks.is_multiple_of(8) => return fwd_t1(s, a, root_base, chunks),
                _ => {}
            }
            return crate::simd::scalar::fwd_pass(s, a, root_base, chunks, t);
        }
        let qv = splat(s.q);
        let tqv = splat(s.q << 1);
        let zero = _mm512_setzero_si512();
        let m52 = splat((1u64 << 52) - 1);
        for (i, chunk) in a.chunks_exact_mut(2 * t).enumerate() {
            let wv = splat(s.roots[root_base + i]);
            let wsv = splat(s.shoup[root_base + i] >> 12);
            let (lo, hi) = chunk.split_at_mut(t);
            let mut j = 0usize;
            while j < t {
                // Harvey CT butterfly, [0,4q) → [0,4q); y < 4q ≤ 2^52
                // keeps the 52-bit quotient estimate exact.
                let u = cond_sub(loadv(lo.as_ptr().add(j)), tqv);
                let v = shoup52_lazy_v(loadv(hi.as_ptr().add(j)), wv, wsv, qv, zero, m52);
                storev(lo.as_mut_ptr().add(j), addv(u, v));
                storev(hi.as_mut_ptr().add(j), addv(u, subv(tqv, v)));
                j += LANES;
            }
        }
    }

    #[target_feature(enable = "avx512f,avx512dq,avx512ifma")]
    unsafe fn inv_pass_impl(
        s: &NttShape,
        a: &mut [u64],
        root_base: usize,
        chunks: usize,
        t: usize,
    ) {
        debug_assert_eq!(a.len(), chunks * 2 * t);
        debug_assert!(s.q <= MAX_Q, "IFMA pass needs 4q ≤ 2^52");
        if t < LANES {
            match t {
                4 if chunks.is_multiple_of(2) => return inv_t4(s, a, root_base, chunks),
                2 if chunks.is_multiple_of(4) => return inv_t2(s, a, root_base, chunks),
                1 if chunks.is_multiple_of(8) => return inv_t1(s, a, root_base, chunks),
                _ => {}
            }
            return crate::simd::scalar::inv_pass(s, a, root_base, chunks, t);
        }
        let qv = splat(s.q);
        let tqv = splat(s.q << 1);
        let zero = _mm512_setzero_si512();
        let m52 = splat((1u64 << 52) - 1);
        for (i, chunk) in a.chunks_exact_mut(2 * t).enumerate() {
            let wv = splat(s.roots[root_base + i]);
            let wsv = splat(s.shoup[root_base + i] >> 12);
            let (lo, hi) = chunk.split_at_mut(t);
            let mut j = 0usize;
            while j < t {
                // GS butterfly, [0,2q) → [0,2q); d < 4q ≤ 2^52.
                let u = loadv(lo.as_ptr().add(j));
                let v = loadv(hi.as_ptr().add(j));
                storev(lo.as_mut_ptr().add(j), cond_sub(addv(u, v), tqv));
                let d = addv(u, subv(tqv, v));
                storev(
                    hi.as_mut_ptr().add(j),
                    shoup52_lazy_v(d, wv, wsv, qv, zero, m52),
                );
                j += LANES;
            }
        }
    }

    #[target_feature(enable = "avx512f,avx512dq,avx512ifma")]
    unsafe fn mul_assign_impl(m: &Modulus, a: &mut [u64], b: &[u64]) {
        debug_assert_eq!(a.len(), b.len());
        let qv = splat(m.value());
        let qiv = splat(m.mont52_qinv_neg());
        let r2v = splat(m.mont52_r2());
        let zero = _mm512_setzero_si512();
        let head = a.len() / LANES * LANES;
        let mut i = 0usize;
        while i < head {
            let ar = mont52_mul_lazy(loadv(a.as_ptr().add(i)), r2v, qv, qiv, zero); // a·2^52, < 2q
            let p = mont52_mul_lazy(ar, loadv(b.as_ptr().add(i)), qv, qiv, zero); // a·b, < 2q
            storev(a.as_mut_ptr().add(i), cond_sub(p, qv));
            i += LANES;
        }
        crate::ew::mul_assign_scalar(m, &mut a[head..], &b[head..]);
    }

    #[target_feature(enable = "avx512f,avx512dq,avx512ifma")]
    unsafe fn mul_into_impl(m: &Modulus, out: &mut [u64], a: &[u64], b: &[u64]) {
        debug_assert_eq!(out.len(), a.len());
        debug_assert_eq!(a.len(), b.len());
        let qv = splat(m.value());
        let qiv = splat(m.mont52_qinv_neg());
        let r2v = splat(m.mont52_r2());
        let zero = _mm512_setzero_si512();
        let head = a.len() / LANES * LANES;
        let mut i = 0usize;
        while i < head {
            let ar = mont52_mul_lazy(loadv(a.as_ptr().add(i)), r2v, qv, qiv, zero);
            let p = mont52_mul_lazy(ar, loadv(b.as_ptr().add(i)), qv, qiv, zero);
            storev(out.as_mut_ptr().add(i), cond_sub(p, qv));
            i += LANES;
        }
        crate::ew::mul_into_scalar(m, &mut out[head..], &a[head..], &b[head..]);
    }

    #[target_feature(enable = "avx512f,avx512dq,avx512ifma")]
    unsafe fn mul_add_assign_impl(m: &Modulus, acc: &mut [u64], a: &[u64], b: &[u64]) {
        debug_assert_eq!(acc.len(), a.len());
        debug_assert_eq!(a.len(), b.len());
        let qv = splat(m.value());
        let qiv = splat(m.mont52_qinv_neg());
        let r2v = splat(m.mont52_r2());
        let zero = _mm512_setzero_si512();
        let head = a.len() / LANES * LANES;
        let mut i = 0usize;
        while i < head {
            let ar = mont52_mul_lazy(loadv(a.as_ptr().add(i)), r2v, qv, qiv, zero);
            let p = cond_sub(
                mont52_mul_lazy(ar, loadv(b.as_ptr().add(i)), qv, qiv, zero),
                qv,
            );
            let s = addv(loadv(acc.as_ptr().add(i)), p); // both < q
            storev(acc.as_mut_ptr().add(i), cond_sub(s, qv));
            i += LANES;
        }
        crate::ew::mul_add_assign_scalar(m, &mut acc[head..], &a[head..], &b[head..]);
    }

    #[target_feature(enable = "avx512f,avx512dq,avx512ifma")]
    unsafe fn tensor3_impl(
        m: &Modulus,
        x: (&[u64], &[u64]),
        y: (&[u64], &[u64]),
        out: (&mut [u64], &mut [u64], &mut [u64]),
    ) {
        let (x0, x1) = x;
        let (y0, y1) = y;
        let (r0, r1, r2) = out;
        let n = x0.len();
        debug_assert_eq!(n, x1.len());
        debug_assert_eq!(n, y0.len());
        debug_assert_eq!(n, y1.len());
        debug_assert_eq!(n, r0.len());
        debug_assert_eq!(n, r1.len());
        debug_assert_eq!(n, r2.len());
        let qv = splat(m.value());
        let tqv = splat(m.value() << 1);
        let qiv = splat(m.mont52_qinv_neg());
        let r2c = splat(m.mont52_r2());
        let zero = _mm512_setzero_si512();
        let head = n / LANES * LANES;
        let mut i = 0usize;
        while i < head {
            // Same dataflow as the generic tier's tensor3, at radix 2^52:
            // lift x once, four lazy partial products, one
            // canonicalization per output.
            let a0 = mont52_mul_lazy(loadv(x0.as_ptr().add(i)), r2c, qv, qiv, zero);
            let a1 = mont52_mul_lazy(loadv(x1.as_ptr().add(i)), r2c, qv, qiv, zero);
            let b0 = loadv(y0.as_ptr().add(i));
            let b1 = loadv(y1.as_ptr().add(i));
            let p00 = mont52_mul_lazy(a0, b0, qv, qiv, zero);
            let p01 = mont52_mul_lazy(a0, b1, qv, qiv, zero);
            let p10 = mont52_mul_lazy(a1, b0, qv, qiv, zero);
            let p11 = mont52_mul_lazy(a1, b1, qv, qiv, zero);
            storev(r0.as_mut_ptr().add(i), cond_sub(p00, qv));
            let mid = addv(p01, p10); // < 4q
            storev(r1.as_mut_ptr().add(i), cond_sub(cond_sub(mid, tqv), qv));
            storev(r2.as_mut_ptr().add(i), cond_sub(p11, qv));
            i += LANES;
        }
        crate::ew::tensor3_scalar(
            m,
            (&x0[head..], &x1[head..]),
            (&y0[head..], &y1[head..]),
            (&mut r0[head..], &mut r1[head..], &mut r2[head..]),
        );
    }

    /// True when the 52-bit product kernels are sound for this modulus.
    #[inline]
    fn fits52(m: &Modulus) -> bool {
        m.value() & 1 == 1 && m.value() <= MAX_Q
    }

    // SAFETY (all wrappers): published only through `select()` /
    // `all_available()` behind runtime detection of avx512f+dq+ifma.
    fn fwd_pass(s: &NttShape, a: &mut [u64], root_base: usize, chunks: usize, t: usize) {
        unsafe { fwd_pass_impl(s, a, root_base, chunks, t) }
    }
    fn inv_pass(s: &NttShape, a: &mut [u64], root_base: usize, chunks: usize, t: usize) {
        unsafe { inv_pass_impl(s, a, root_base, chunks, t) }
    }
    fn ntt_fwd(s: &NttShape, a: &mut [u64]) {
        if s.q > MAX_Q {
            return (super::avx512::KERNELS.ntt_fwd)(s, a);
        }
        crate::simd::fwd_driver(s, a, fwd_pass, reduce_lazy_pow2)
    }
    fn ntt_inv(s: &NttShape, a: &mut [u64]) {
        if s.q > MAX_Q {
            return (super::avx512::KERNELS.ntt_inv)(s, a);
        }
        crate::simd::inv_driver(s, a, inv_pass, scale_assign)
    }
    fn mul_assign(m: &Modulus, a: &mut [u64], b: &[u64]) {
        if !fits52(m) {
            return (super::avx512::KERNELS.mul_assign)(m, a, b);
        }
        unsafe { mul_assign_impl(m, a, b) }
    }
    fn mul_into(m: &Modulus, out: &mut [u64], a: &[u64], b: &[u64]) {
        if !fits52(m) {
            return (super::avx512::KERNELS.mul_into)(m, out, a, b);
        }
        unsafe { mul_into_impl(m, out, a, b) }
    }
    fn mul_add_assign(m: &Modulus, acc: &mut [u64], a: &[u64], b: &[u64]) {
        if !fits52(m) {
            return (super::avx512::KERNELS.mul_add_assign)(m, acc, a, b);
        }
        unsafe { mul_add_assign_impl(m, acc, a, b) }
    }
    fn tensor3(
        m: &Modulus,
        x: (&[u64], &[u64]),
        y: (&[u64], &[u64]),
        out: (&mut [u64], &mut [u64], &mut [u64]),
    ) {
        if !fits52(m) {
            return (super::avx512::KERNELS.tensor3)(m, x, y, out);
        }
        unsafe { tensor3_impl(m, x, y, out) }
    }

    pub(crate) static KERNELS: Kernels = tier_kernels!("avx512ifma");
}

/// NEON tier: 2 × u64 lanes; 64-bit products from `vmull_u32` 32×32
/// widening partials.
#[cfg(target_arch = "aarch64")]
pub(crate) mod neon {
    use super::{Kernels, NttShape};
    use crate::ew::{pack_scalar as pack, unpack_scalar as unpack, ShoupRow};
    use crate::zq::Modulus;
    use core::arch::aarch64::*;

    const LANES: usize = 2;
    type V = uint64x2_t;

    #[target_feature(enable = "neon")]
    #[inline]
    unsafe fn splat(x: u64) -> V {
        vdupq_n_u64(x)
    }
    #[target_feature(enable = "neon")]
    #[inline]
    unsafe fn loadv(p: *const u64) -> V {
        vld1q_u64(p)
    }
    #[target_feature(enable = "neon")]
    #[inline]
    unsafe fn storev(p: *mut u64, v: V) {
        vst1q_u64(p, v)
    }
    #[target_feature(enable = "neon")]
    #[inline]
    unsafe fn addv(a: V, b: V) -> V {
        vaddq_u64(a, b)
    }
    #[target_feature(enable = "neon")]
    #[inline]
    unsafe fn subv(a: V, b: V) -> V {
        vsubq_u64(a, b)
    }
    #[target_feature(enable = "neon")]
    #[inline]
    unsafe fn mullo64(a: V, b: V) -> V {
        let a_lo = vmovn_u64(a);
        let a_hi = vshrn_n_u64::<32>(a);
        let b_lo = vmovn_u64(b);
        let b_hi = vshrn_n_u64::<32>(b);
        let ll = vmull_u32(a_lo, b_lo);
        let cross = vmlal_u32(vmull_u32(a_lo, b_hi), a_hi, b_lo);
        vaddq_u64(ll, vshlq_n_u64::<32>(cross))
    }
    #[target_feature(enable = "neon")]
    #[inline]
    unsafe fn mulhi64(a: V, b: V) -> V {
        let m32 = vdupq_n_u64(0xFFFF_FFFF);
        let a_lo = vmovn_u64(a);
        let a_hi = vshrn_n_u64::<32>(a);
        let b_lo = vmovn_u64(b);
        let b_hi = vshrn_n_u64::<32>(b);
        let ll = vmull_u32(a_lo, b_lo);
        let lh = vmull_u32(a_lo, b_hi);
        let hl = vmull_u32(a_hi, b_lo);
        let hh = vmull_u32(a_hi, b_hi);
        let mid = vaddq_u64(
            vaddq_u64(vshrq_n_u64::<32>(ll), vandq_u64(lh, m32)),
            vandq_u64(hl, m32),
        );
        vaddq_u64(
            vaddq_u64(hh, vshrq_n_u64::<32>(lh)),
            vaddq_u64(vshrq_n_u64::<32>(hl), vshrq_n_u64::<32>(mid)),
        )
    }
    #[target_feature(enable = "neon")]
    #[inline]
    unsafe fn cond_sub(x: V, b: V) -> V {
        vsubq_u64(x, vandq_u64(vcgeq_u64(x, b), b))
    }

    vector_tier_body!("neon", "neon");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selection_is_stable_and_scalar_always_available() {
        assert_eq!(kernels().name, kernels().name);
        let tiers = all_available();
        assert_eq!(tiers[0].name, "scalar");
        // The active tier must be one of the available tiers.
        assert!(tiers.iter().any(|t| t.name == kernels().name));
    }

    #[test]
    fn myc_no_simd_is_off_only_when_unset_empty_or_zero() {
        for off in [None, Some(""), Some("0"), Some(" 0 ")] {
            assert!(!no_simd(off), "{off:?}");
        }
        for on in ["1", " 1 ", "true"] {
            assert!(no_simd(Some(on)), "{on:?}");
        }
    }
}
