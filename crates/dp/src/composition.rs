//! Budget-stretching techniques (§4.4's "more sophisticated techniques").
//!
//! The prototype (like the paper's) charges each query its full `ε`.
//! §4.4 points at standard improvements; the budget ledger uses one,
//! **advanced composition** (Dwork–Roth Thm 3.20): `k` queries at `ε`
//! each are `(ε', kδ' + δ)`-DP with
//! `ε' = ε·√(2k·ln(1/δ)) + k·ε·(e^ε − 1)` — for small `ε` the budget grows
//! as `√k` instead of `k`.

use crate::DpError;

/// Total privacy cost of `k` adaptively-chosen `epsilon`-DP queries under
/// advanced composition at slack `delta`.
///
/// Returns the `ε'` such that the composition is `(ε', k·δ_each + delta)`-DP.
///
/// Every degenerate input is a typed [`DpError::InvalidParameter`], never
/// a NaN: `epsilon` must be positive and finite, `delta` must lie in
/// `(0, 1)`, and `k` must be at least one (composing zero queries is a
/// caller bug, not a zero-cost composition).
pub fn advanced_composition(epsilon: f64, k: usize, delta: f64) -> Result<f64, DpError> {
    if !epsilon.is_finite() || epsilon <= 0.0 {
        return Err(DpError::InvalidParameter);
    }
    if !delta.is_finite() || delta <= 0.0 || delta >= 1.0 {
        return Err(DpError::InvalidParameter);
    }
    if k == 0 {
        return Err(DpError::InvalidParameter);
    }
    let k = k as f64;
    Ok(epsilon * (2.0 * k * (1.0 / delta).ln()).sqrt() + k * epsilon * (epsilon.exp() - 1.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn advanced_beats_basic_for_many_queries() {
        // 100 queries at ε=0.1: basic costs 10; advanced far less.
        let adv = advanced_composition(0.1, 100, 1e-6).unwrap();
        assert!(adv < 10.0, "advanced {adv}");
        assert!(adv > 0.1, "still more than one query");
    }

    #[test]
    fn stretch_factor() {
        // A budget of 1 pays for 100 queries at ε = 0.01 under basic
        // composition; advanced composition fits more than twice as many.
        let basic = 100;
        assert!(advanced_composition(0.01, 2 * basic + 1, 1e-6).unwrap() <= 1.0);
    }

    #[test]
    fn invalid_parameters() {
        assert!(advanced_composition(0.0, 5, 1e-6).is_err());
        assert!(advanced_composition(0.1, 5, 0.0).is_err());
        assert!(advanced_composition(0.1, 5, 1.5).is_err());
    }

    #[test]
    fn degenerate_inputs_are_typed_errors_not_nan() {
        // k = 0: composing zero queries is a caller bug.
        assert_eq!(
            advanced_composition(0.1, 0, 1e-6),
            Err(DpError::InvalidParameter)
        );
        // delta exactly 1 (and above) leaves ln(1/δ) degenerate.
        assert_eq!(
            advanced_composition(0.1, 5, 1.0),
            Err(DpError::InvalidParameter)
        );
        // Non-finite parameters.
        assert_eq!(
            advanced_composition(f64::NAN, 5, 1e-6),
            Err(DpError::InvalidParameter)
        );
        assert_eq!(
            advanced_composition(0.1, 5, f64::INFINITY),
            Err(DpError::InvalidParameter)
        );
        // Every valid composition must come out finite.
        for k in [1usize, 2, 10, 1000] {
            let e = advanced_composition(0.5, k, 1e-9).unwrap();
            assert!(e.is_finite() && e > 0.0);
        }
    }
}
