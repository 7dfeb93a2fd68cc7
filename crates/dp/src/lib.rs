//! Differential privacy: budget accounting (§2.3, §4.4, §4.7).
//!
//! Mycelium's committee adds calibrated noise to every released statistic:
//! for a query with sensitivity `s` released at privacy cost `ε`, each
//! value gets independent discrete Laplace noise of scale `s/ε`, drawn by
//! `mycelium_sharing::threshold::derive_joint_noise` and added by
//! `mycelium::exec::release_noisy`. The committee also maintains a
//! *privacy budget* from which each query's `ε` is deducted; the prototype
//! (like the paper's) deducts the full `ε` per query, which is safe but
//! conservative.

pub mod composition;

/// Budget-accounting errors.
#[derive(Debug, Clone, PartialEq)]
pub enum DpError {
    /// The requested `ε` exceeds the remaining budget.
    BudgetExhausted {
        /// Requested cost.
        requested: f64,
        /// Remaining budget.
        remaining: f64,
    },
    /// Nonpositive `ε` or sensitivity.
    InvalidParameter,
}

impl std::fmt::Display for DpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DpError::BudgetExhausted {
                requested,
                remaining,
            } => write!(
                f,
                "privacy budget exhausted: requested ε={requested}, remaining {remaining}"
            ),
            DpError::InvalidParameter => write!(f, "ε and sensitivity must be positive"),
        }
    }
}

impl std::error::Error for DpError {}

/// A privacy budget tracker (§4.4).
#[derive(Debug, Clone)]
pub struct PrivacyBudget {
    total: f64,
    spent: f64,
}

impl PrivacyBudget {
    /// Creates a budget of `total` ε.
    ///
    /// # Panics
    ///
    /// Panics if `total` is not positive and finite.
    pub fn new(total: f64) -> Self {
        assert!(total > 0.0 && total.is_finite(), "budget must be positive");
        Self { total, spent: 0.0 }
    }

    /// Remaining budget.
    pub fn remaining(&self) -> f64 {
        (self.total - self.spent).max(0.0)
    }

    /// Total budget.
    pub fn total(&self) -> f64 {
        self.total
    }

    /// Charges `epsilon` (the conservative full-cost accounting the
    /// prototype uses).
    pub fn charge(&mut self, epsilon: f64) -> Result<(), DpError> {
        if epsilon <= 0.0 || !epsilon.is_finite() {
            return Err(DpError::InvalidParameter);
        }
        if epsilon > self.remaining() + 1e-12 {
            return Err(DpError::BudgetExhausted {
                requested: epsilon,
                remaining: self.remaining(),
            });
        }
        self.spent += epsilon;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_accounting() {
        let mut b = PrivacyBudget::new(1.0);
        assert_eq!(b.remaining(), 1.0);
        b.charge(0.3).unwrap();
        b.charge(0.3).unwrap();
        assert!((b.remaining() - 0.4).abs() < 1e-12);
        assert!(matches!(
            b.charge(0.5),
            Err(DpError::BudgetExhausted { .. })
        ));
        // The failed charge spent nothing.
        assert!((b.remaining() - 0.4).abs() < 1e-12);
        b.charge(0.4).unwrap();
        assert!(b.remaining() < 1e-9);
    }

    #[test]
    fn invalid_parameters_rejected() {
        let mut b = PrivacyBudget::new(1.0);
        assert_eq!(b.charge(0.0), Err(DpError::InvalidParameter));
        assert_eq!(b.charge(-1.0), Err(DpError::InvalidParameter));
    }

    #[test]
    #[should_panic(expected = "budget must be positive")]
    fn zero_budget_rejected() {
        let _ = PrivacyBudget::new(0.0);
    }
}
