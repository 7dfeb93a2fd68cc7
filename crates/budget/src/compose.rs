//! The composition rule a ledger prices its history with.

use mycelium_dp::composition::advanced_composition;

use mycelium_crypto::codec::{CodecError, Reader, Writer};

use crate::{BudgetError, QueryCost};

/// How a ledger composes the epsilons of its live (reserved or charged)
/// entries into one total spend.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Composition {
    /// Basic sequential composition: `ε_total = Σ ε_i`.
    Basic,
    /// Advanced composition (Dwork–Roth Thm 3.20) at the given slack: a
    /// homogeneous run of `k` charges at the same `ε` is priced at
    /// `min(k·ε, ε·√(2k·ln(1/δ)) + k·ε·(e^ε − 1))` — both are valid DP
    /// bounds, so the ledger may take the tighter. Heterogeneous charge
    /// sets fall back to basic summation.
    Advanced {
        /// The composition slack `δ` (must lie in `(0, 1)`).
        delta: f64,
    },
}

impl Composition {
    /// Validates the variant's parameters.
    pub fn validate(&self) -> Result<(), BudgetError> {
        if let Composition::Advanced { delta } = self {
            if !delta.is_finite() || *delta <= 0.0 || *delta >= 1.0 {
                return Err(BudgetError::InvalidParameter(format!(
                    "advanced-composition delta {delta} outside (0, 1)"
                )));
            }
        }
        Ok(())
    }

    /// Canonical encoding (part of the ledger digest).
    pub fn encode(&self, w: &mut Writer) {
        match self {
            Composition::Basic => w.put_u8(0),
            Composition::Advanced { delta } => {
                w.put_u8(1);
                w.put_f64(*delta);
            }
        }
    }

    /// Strict decoding.
    pub fn decode(r: &mut Reader) -> Result<Self, BudgetError> {
        match r.u8("composition")? {
            0 => Ok(Composition::Basic),
            1 => Ok(Composition::Advanced {
                delta: r.f64("delta")?,
            }),
            tag => CodecError::bad_tag("composition", tag),
        }
    }
}

/// Composed epsilon spend of a set of live charges.
///
/// Charges must already be validated (positive, finite epsilons); an
/// empty set costs zero.
pub fn composed_epsilon(costs: &[&QueryCost], composition: Composition) -> f64 {
    if costs.is_empty() {
        return 0.0;
    }
    let basic: f64 = costs.iter().map(|c| c.epsilon).sum();
    if let Composition::Advanced { delta } = composition {
        let first = costs[0].epsilon.to_bits();
        let homogeneous = costs.iter().all(|c| c.epsilon.to_bits() == first);
        if homogeneous {
            if let Ok(adv) = advanced_composition(costs[0].epsilon, costs.len(), delta) {
                return basic.min(adv);
            }
        }
    }
    basic
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cost(epsilon: f64) -> QueryCost {
        QueryCost {
            epsilon,
            delta: 0.0,
            sensitivity: 2.0,
        }
    }

    #[test]
    fn basic_is_the_sum() {
        let costs = [cost(0.5), cost(1.0), cost(0.25)];
        let refs: Vec<&QueryCost> = costs.iter().collect();
        assert_eq!(composed_epsilon(&refs, Composition::Basic), 1.75);
        assert_eq!(composed_epsilon(&[], Composition::Basic), 0.0);
    }

    #[test]
    fn advanced_never_exceeds_basic_and_wins_for_small_epsilon() {
        // 200 homogeneous charges at ε = 0.01: advanced is far tighter.
        let costs: Vec<QueryCost> = (0..200).map(|_| cost(0.01)).collect();
        let refs: Vec<&QueryCost> = costs.iter().collect();
        let basic = composed_epsilon(&refs, Composition::Basic);
        let adv = composed_epsilon(&refs, Composition::Advanced { delta: 1e-6 });
        assert!((basic - 2.0).abs() < 1e-9, "basic sum was {basic}");
        assert!(adv < basic, "advanced {adv} must beat basic {basic}");
        // At ε = 1 the advanced bound is looser; min() keeps the basic one.
        let big: Vec<QueryCost> = (0..5).map(|_| cost(1.0)).collect();
        let refs: Vec<&QueryCost> = big.iter().collect();
        assert_eq!(
            composed_epsilon(&refs, Composition::Advanced { delta: 1e-6 }),
            5.0
        );
    }

    #[test]
    fn heterogeneous_charges_fall_back_to_basic() {
        let costs = [cost(0.01), cost(0.02)];
        let refs: Vec<&QueryCost> = costs.iter().collect();
        assert_eq!(
            composed_epsilon(&refs, Composition::Advanced { delta: 1e-6 }),
            0.03
        );
    }

    #[test]
    fn validation_and_codec() {
        assert!(Composition::Advanced { delta: 0.0 }.validate().is_err());
        assert!(Composition::Advanced { delta: 1.0 }.validate().is_err());
        assert!(Composition::Advanced { delta: f64::NAN }
            .validate()
            .is_err());
        assert!(Composition::Basic.validate().is_ok());
        for c in [Composition::Basic, Composition::Advanced { delta: 1e-9 }] {
            let mut w = Writer::new();
            c.encode(&mut w);
            let bytes = w.finish();
            let mut r = Reader::new(&bytes);
            assert_eq!(Composition::decode(&mut r).unwrap(), c);
            r.end().unwrap();
        }
        assert_eq!(
            Composition::decode(&mut Reader::new(&[9])),
            Err(BudgetError::Codec(CodecError::BadTag {
                field: "composition",
                tag: 9
            }))
        );
    }
}
