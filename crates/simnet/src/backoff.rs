//! Bounded-exponential-backoff policy, shared between the simulated and
//! the real transport plane.
//!
//! [`Retrier`](crate::retry::Retrier) (virtual-time retransmission over
//! the simnet) and `mycelium-net` (wall-clock reconnection over TCP) must
//! not diverge in how they space retries: the simulator is the model we
//! validate recovery behaviour against, so both consume this one policy.
//! Units are abstract — simnet feeds ticks, the socket layer milliseconds.

/// Bounded exponential backoff: the first wait is `base`, each later one
/// doubles, and at most `max_retries` retries are attempted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackoffPolicy {
    /// Initial wait (ticks or milliseconds — the caller's unit).
    pub base: u64,
    /// Retry budget: attempts beyond this are [`BackoffPolicy::exhausted`].
    pub max_retries: u32,
}

impl BackoffPolicy {
    /// Creates a policy.
    ///
    /// # Panics
    ///
    /// Panics if `base == 0` (a zero wait would busy-spin).
    pub fn new(base: u64, max_retries: u32) -> Self {
        assert!(base > 0, "backoff base must be positive");
        Self { base, max_retries }
    }

    /// The wait before retry number `attempt` (0-based: `wait(0)` is the
    /// initial timeout, `wait(k)` the one armed after the `k`-th
    /// retransmission). The shift is capped so it cannot overflow and
    /// waits stay sane.
    pub fn wait(&self, attempt: u32) -> u64 {
        self.base << attempt.min(16)
    }

    /// Full-jitter wait before retry number `attempt`: uniform in
    /// `1..=wait(attempt)`. Decorrelates retry storms — after a
    /// partition heals, callers sharing a schedule would otherwise all
    /// retransmit on the same tick. Deterministic for a given `rng`
    /// state, so the simulator and seeded chaos runs stay reproducible.
    pub fn wait_jittered<R: mycelium_math::rng::Rng + ?Sized>(
        &self,
        attempt: u32,
        rng: &mut R,
    ) -> u64 {
        rng.gen_range(0..=self.wait(attempt)).max(1)
    }

    /// Whether `attempts` retries already exhaust the budget.
    pub fn exhausted(&self, attempts: u32) -> bool {
        attempts >= self.max_retries
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn doubling_schedule() {
        let p = BackoffPolicy::new(64, 8);
        assert_eq!(p.wait(0), 64);
        assert_eq!(p.wait(1), 128);
        assert_eq!(p.wait(3), 512);
    }

    #[test]
    fn shift_is_capped() {
        let p = BackoffPolicy::new(64, 40);
        assert_eq!(p.wait(16), p.wait(39), "cap prevents overflow");
    }

    #[test]
    fn budget() {
        let p = BackoffPolicy::new(10, 2);
        assert!(!p.exhausted(0));
        assert!(!p.exhausted(1));
        assert!(p.exhausted(2));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_base_rejected() {
        BackoffPolicy::new(0, 1);
    }

    #[test]
    fn jitter_is_bounded_positive_and_deterministic() {
        use mycelium_math::rng::{SeedableRng, StdRng};
        let p = BackoffPolicy::new(50, 8);
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for attempt in 0..6 {
            let wa = p.wait_jittered(attempt, &mut a);
            let wb = p.wait_jittered(attempt, &mut b);
            assert_eq!(wa, wb, "same seed, same schedule");
            assert!(wa >= 1, "jittered wait never busy-spins");
            assert!(wa <= p.wait(attempt), "jitter stays under the cap");
        }
    }
}
