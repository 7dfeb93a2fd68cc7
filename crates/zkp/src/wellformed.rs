//! The §4.6 well-formedness statements as R1CS circuits.
//!
//! A contribution plaintext is **well-formed** when each group window holds
//! at most one nonzero coefficient and that coefficient is exactly 1 —
//! precisely what stops a Byzantine device from reporting a vector "with
//! coefficients larger than 1, or with more than one nonzero coefficient"
//! (§4.6). The circuit, per window:
//!
//! * booleanity: `m_i · (m_i − 1) = 0` for every coefficient, and
//! * exclusivity: `S · (S − 1) = 0` where `S = Σ_i m_i`
//!   (so zero or one coefficient is set).

use mycelium_math::zq::Modulus;

use crate::r1cs::{ConstraintSystem, LinearCombination, Var};

/// The well-formedness circuit for a plaintext of `len` coefficients split
/// into equal `window`-sized group windows.
#[derive(Debug, Clone)]
pub struct WellFormedCircuit {
    /// The constraint system.
    pub cs: ConstraintSystem,
    /// Witness variables of the plaintext coefficients, in order.
    pub coeff_vars: Vec<Var>,
}

/// Builds the circuit.
///
/// # Panics
///
/// Panics if `window` is zero or does not divide `len`.
pub fn well_formed_circuit(field: Modulus, len: usize, window: usize) -> WellFormedCircuit {
    assert!(
        window > 0 && len.is_multiple_of(window),
        "window must divide length"
    );
    let mut cs = ConstraintSystem::new(field);
    let coeff_vars: Vec<Var> = (0..len).map(|_| cs.alloc()).collect();
    cs.num_public = 0;
    let minus_one = field.value() - 1;
    // Booleanity per coefficient.
    for &v in &coeff_vars {
        cs.enforce(
            LinearCombination::var(v),
            LinearCombination::var(v).plus(0, minus_one),
            LinearCombination::zero(),
        );
    }
    // Exclusivity per window.
    for w in coeff_vars.chunks(window) {
        let mut sum = LinearCombination::zero();
        for &v in w {
            sum = sum.plus(v, 1);
        }
        let mut sum_minus_one = sum.clone();
        sum_minus_one = sum_minus_one.plus(0, minus_one);
        cs.enforce(sum, sum_minus_one, LinearCombination::zero());
    }
    WellFormedCircuit { cs, coeff_vars }
}

/// Builds the witness for a plaintext coefficient vector.
///
/// # Panics
///
/// Panics if the coefficient count mismatches the circuit.
pub fn well_formed_witness(circuit: &WellFormedCircuit, coeffs: &[u64]) -> Vec<u64> {
    assert_eq!(coeffs.len(), circuit.coeff_vars.len(), "coefficient count");
    let mut w = vec![0u64; circuit.cs.num_vars];
    w[0] = 1;
    for (&v, &c) in circuit.coeff_vars.iter().zip(coeffs) {
        w[v] = circuit.cs.field.reduce(c);
    }
    w
}

#[cfg(test)]
mod tests {
    use super::*;

    fn field() -> Modulus {
        Modulus::new_prime(2_147_483_647).unwrap()
    }

    #[test]
    fn honest_monomials_satisfy() {
        let c = well_formed_circuit(field(), 8, 4);
        for hot in 0..8 {
            let mut coeffs = vec![0u64; 8];
            coeffs[hot] = 1;
            let w = well_formed_witness(&c, &coeffs);
            assert!(c.cs.is_satisfied(&w), "hot={hot}");
        }
        // All-zero (Enc(0)) is also well-formed.
        let w = well_formed_witness(&c, &[0u64; 8]);
        assert!(c.cs.is_satisfied(&w));
        // One per window is fine.
        let w = well_formed_witness(&c, &[0, 1, 0, 0, 0, 0, 1, 0]);
        assert!(c.cs.is_satisfied(&w));
    }

    #[test]
    fn oversized_coefficient_rejected() {
        let c = well_formed_circuit(field(), 4, 4);
        let w = well_formed_witness(&c, &[2, 0, 0, 0]);
        assert!(!c.cs.is_satisfied(&w));
    }

    #[test]
    fn two_in_one_window_rejected() {
        let c = well_formed_circuit(field(), 4, 4);
        let w = well_formed_witness(&c, &[1, 0, 1, 0]);
        assert!(!c.cs.is_satisfied(&w));
        // But the same pattern across two windows is fine.
        let c2 = well_formed_circuit(field(), 4, 2);
        let w2 = well_formed_witness(&c2, &[1, 0, 1, 0]);
        assert!(c2.cs.is_satisfied(&w2));
    }

    #[test]
    fn oracle_matches_circuit() {
        let c = well_formed_circuit(field(), 6, 3);
        // Each window of three one-hot or empty, or not.
        let cases: [([u64; 6], bool); 4] = [
            ([0, 0, 0, 0, 0, 0], true),
            ([1, 0, 0, 0, 1, 0], true),
            ([1, 1, 0, 0, 0, 0], false),
            ([0, 3, 0, 0, 0, 0], false),
        ];
        for (coeffs, well_formed) in cases {
            let w = well_formed_witness(&c, &coeffs);
            assert_eq!(c.cs.is_satisfied(&w), well_formed, "{coeffs:?}");
        }
    }

    #[test]
    fn constraint_count() {
        let c = well_formed_circuit(field(), 16, 4);
        // 16 booleanity + 4 exclusivity.
        assert_eq!(c.cs.constraints.len(), 20);
    }

    #[test]
    #[should_panic(expected = "window must divide length")]
    fn bad_window_rejected() {
        let _ = well_formed_circuit(field(), 10, 4);
    }
}
