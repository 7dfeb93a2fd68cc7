//! System parameters (Figure 4) and presets.

use mycelium_bgv::BgvParams;
use mycelium_query::analyze::Schema;

/// The full parameter set of a Mycelium deployment.
#[derive(Debug, Clone)]
pub struct SystemParams {
    /// Number of devices `N`.
    pub devices: u64,
    /// Onion-routing hops `k`.
    pub hops: usize,
    /// Replicas of each message `r`.
    pub replicas: usize,
    /// Fraction of forwarders `f`.
    pub forwarder_fraction: f64,
    /// Committee size `c`.
    pub committee_size: usize,
    /// Degree bound `d`.
    pub degree_bound: usize,
    /// BGV parameters.
    pub bgv: BgvParams,
    /// Query-language schema (column ranges and caps).
    pub schema: Schema,
    /// Privacy parameter per query.
    pub epsilon: f64,
}

impl SystemParams {
    /// The paper's defaults (Figure 4): `N = 1.1·10⁶`, `k = 3`, `r = 2`,
    /// `f = 0.1`, `c = 10`, `d = 10`.
    pub fn paper() -> Self {
        Self {
            devices: 1_100_000,
            hops: 3,
            replicas: 2,
            forwarder_fraction: 0.1,
            committee_size: 10,
            degree_bound: 10,
            bgv: BgvParams::paper(),
            schema: Schema::default(),
            epsilon: 1.0,
        }
    }

    /// A small simulation preset that runs the whole pipeline in-process
    /// in seconds: tiny ring, small population, degree bound 4.
    pub fn simulation() -> Self {
        let schema = Schema {
            degree_bound: 4,
            t_inf_range: 14,
            age_range: 10,
            duration_cap: 12,
            contacts_cap: 10,
            duration_unit: 60,
        };
        Self {
            devices: 300,
            hops: 2,
            replicas: 2,
            forwarder_fraction: 0.3,
            committee_size: 5,
            degree_bound: 4,
            bgv: BgvParams::test_small(),
            schema,
            epsilon: 1.0,
        }
    }
}

/// The deepened simulation preset the conformance session runs at: the
/// BGV chain is extended to 14 levels so the two-hop `KHOP` query fits
/// the multiplication budget (at [`SystemParams::simulation`]'s 6
/// levels it reproduces the §6.2 infeasibility result), and the degree
/// bound drops to 3 to keep `d^k` chains short.
pub fn deep_simulation_params() -> SystemParams {
    let mut params = SystemParams::simulation();
    params.bgv.levels = 14;
    params.degree_bound = 3;
    params.schema.degree_bound = 3;
    params
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_match_figure4() {
        let p = SystemParams::paper();
        assert_eq!(p.devices, 1_100_000);
        assert_eq!(p.hops, 3);
        assert_eq!(p.replicas, 2);
        assert_eq!(p.forwarder_fraction, 0.1);
        assert_eq!(p.committee_size, 10);
        assert_eq!(p.degree_bound, 10);
        assert_eq!(p.bgv.n, 32768);
        assert_eq!(p.bgv.plaintext_modulus, 1 << 30);
    }

    #[test]
    fn simulation_preset_is_consistent() {
        let p = SystemParams::simulation();
        assert_eq!(p.schema.degree_bound, p.degree_bound);
        assert!(p.bgv.n >= 512);
    }
}
