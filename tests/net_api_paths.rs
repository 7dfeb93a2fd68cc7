//! The repository benchmark's API surface, built by tier-1.
//!
//! `myc_bench/` is a package of its own, so `cargo test` never compiles it:
//! a renamed or moved path would be found only by the separate benchmark
//! build. The blocks below are the `use` lists of the three benchmark files
//! that call into the workspace, and the calls are the ones `agg_recover`
//! stands on.

use std::sync::Arc;

#[test]
#[allow(unused_imports)]
fn the_paths_the_benchmark_names_resolve() {
    // myc_bench/src/units.rs
    {
        use mycelium::exec::ExecStats;
        use mycelium::plan::{ciphertext_digest, combine_origin, SignedContribution};
        use mycelium_bgv::encoding::encode_monomial;
        use mycelium_bgv::Ciphertext;
        use mycelium_budget::{Composition, Ledger, LedgerEntry};
        use mycelium_crypto::sha256::sha256;
        use mycelium_crypto::{aead, eddsa};
        use mycelium_math::ntt::NttTable;
        use mycelium_math::rng::{SeedableRng, StdRng};
        use mycelium_math::zq::Modulus;
        use mycelium_net::client::{Client, ClientConfig};
        use mycelium_net::error::NetError;
        use mycelium_net::journal::Journal;
        use mycelium_net::proto::NetMsg;
        use mycelium_net::round::{build_population, build_setup, AggState, RoundSetup};
        use mycelium_net::server::{Handler, Server, ServerConfig};
        use mycelium_net::wire::Writer;
        use mycelium_net::Identity;
        use mycelium_query::analyze::{analyze, cost_report};
        use mycelium_sharing::threshold::{combine, decryption_share};
        use mycelium_zkp::argument;
        use mycelium_zkp::wellformed::well_formed_witness;
    }
    // myc_bench/src/workloads/net.rs
    {
        use mycelium_cert::{extract_cert_hex, verify_bytes};
        use mycelium_net::journal::Journal;
        use mycelium_net::metrics::NetMetrics;
        use mycelium_net::round::{
            build_setup, decode_outcome, files, run_driver, AggState, DriverOpts, RoundSetup,
            RoundSpec,
        };
        use mycelium_query::eval::{evaluate, PlainResult};
    }
    // myc_bench/src/workloads/direct.rs
    {
        use mycelium::exec::{release_noisy, ExecStats};
        use mycelium::plan::{aggregate_and_audit, combine_origin, origin_work};
        use mycelium::{run_query_encrypted, QueryPlan, SystemParams};
        use mycelium_bgv::{Ciphertext, KeySet};
        use mycelium_crypto::sha256::Sha256;
        use mycelium_dp::PrivacyBudget;
        use mycelium_graph::generate::Population;
        use mycelium_graph::graph::VertexId;
        use mycelium_math::rng::{Rng, SeedableRng, StdRng};
        use mycelium_net::round::{build_population, RoundSpec};
        use mycelium_query::analyze::analyze;
        use mycelium_query::ast::Query;
        use mycelium_query::builtin::paper_query;
        use mycelium_query::eval::{evaluate, PlainResult};
    }

    use mycelium_net::round::{build_setup, AggState, RoundSpec};
    let setup = Arc::new(build_setup(&RoundSpec::default()).expect("the default spec plans"));
    let fresh = AggState::new(Arc::clone(&setup));
    let journal = std::env::temp_dir().join(format!("mycelium-api-paths-{}", std::process::id()));
    let _ = std::fs::remove_file(&journal);
    // A first incarnation: nothing to replay, so the empty state.
    let recovered = AggState::recover(setup, &journal).expect("a fresh journal opens");
    assert_eq!(recovered.journal_records(), 0);
    assert!(!recovered.is_finished());
    assert_eq!(recovered.digest(), fresh.digest());
    let _ = std::fs::remove_file(&journal);
}
