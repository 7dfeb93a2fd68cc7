//! Fault injection on the simulated (message-passing) query round.
//!
//! The direct executor ([`mycelium::run_query_encrypted`]) assumes a
//! perfect network; these tests run the same protocol over the simnet
//! ([`mycelium::run_query_simulated`]) with drops, crashes, and Byzantine
//! tampering, and assert that the recovery machinery — retries, deadlines,
//! committee reselection, proof verification — yields the *exact* oracle
//! result or a typed, clean failure.

use mycelium::params::SystemParams;
use mycelium::MaliciousBehavior;
use mycelium_bgv::KeySet;
use mycelium_dp::PrivacyBudget;
use mycelium_graph::generate::{
    epidemic_population, ContactGraphConfig, EpidemicConfig, Population,
};
use mycelium_math::rng::{SeedableRng, StdRng};
use mycelium_net::{run_query_simulated, SimNetConfig, SimRoundError};
use mycelium_query::analyze::analyze;
use mycelium_query::builtin::paper_query;
use mycelium_query::eval::{evaluate, PlainResult};
use mycelium_simnet::FaultPlan;

fn setup(n: usize) -> (SystemParams, KeySet, Population) {
    let params = SystemParams::simulation();
    let mut rng = StdRng::seed_from_u64(1234);
    let keys = KeySet::generate(&params.bgv, &mut rng);
    let cfg = ContactGraphConfig {
        n,
        degree_bound: 4,
        mean_household: 3,
        community_edges: 2,
        subway_fraction: 0.2,
        days: 13,
    };
    let epi = EpidemicConfig {
        seed_fraction: 0.08,
        household_rate: 0.10,
        community_rate: 0.02,
        days: 13,
    };
    let pop = epidemic_population(&cfg, &epi, &mut StdRng::seed_from_u64(42));
    (params, keys, pop)
}

fn oracle(params: &SystemParams, pop: &Population, name: &str) -> PlainResult {
    let query = paper_query(name).unwrap();
    let analysis = analyze(&query, &params.schema).unwrap();
    evaluate(&query, &analysis, &params.schema, pop)
}

/// Runs `f` with `MYC_THREADS` pinned to `n` (see tests/determinism.rs).
fn with_threads<T>(n: usize, f: impl FnOnce() -> T) -> T {
    std::env::set_var("MYC_THREADS", n.to_string());
    let out = f();
    std::env::remove_var("MYC_THREADS");
    out
}

#[test]
fn five_percent_drop_recovered_to_exact_oracle_result() {
    let (params, keys, pop) = setup(60);
    let want = oracle(&params, &pop, "Q4");
    let query = paper_query("Q4").unwrap();
    let mut budget = PrivacyBudget::new(10.0);
    let cfg = SimNetConfig {
        seed: 5,
        fault: FaultPlan::none().with_drop_prob(0.05),
        ..SimNetConfig::default()
    };
    let out = run_query_simulated(&query, &pop, &params, &keys, &[], false, &mut budget, &cfg)
        .expect("retries must recover a 5% loss rate");
    assert!(
        out.metrics.total_retries() > 0,
        "a 5% drop rate must trigger at least one retransmission"
    );
    assert_eq!(out.exact.groups.len(), want.groups.len());
    for (got, want) in out.exact.groups.iter().zip(&want.groups) {
        assert_eq!(got.label, want.label);
        assert_eq!(
            got.histogram, want.histogram,
            "lossy-network result must still match the oracle exactly"
        );
    }
    assert!(out.rejected_devices.is_empty());
}

#[test]
fn committee_crashes_within_threshold_are_tolerated() {
    // c = 5, t = 2: threshold decryption needs t + 1 = 3 shares, so the
    // round survives n − t = ... exactly 2 crashed members.
    let (params, keys, pop) = setup(50);
    let want = oracle(&params, &pop, "Q4");
    let query = paper_query("Q4").unwrap();
    let n = pop.graph.len();
    let c = params.committee_size;
    assert_eq!(c, 5);
    let mut budget = PrivacyBudget::new(10.0);
    // Committee actors are ids n+1 ..= n+c; crash two of them at tick 0.
    let cfg = SimNetConfig {
        seed: 6,
        fault: FaultPlan::none().with_crash(n + 1, 0).with_crash(n + 3, 0),
        ..SimNetConfig::default()
    };
    let out = run_query_simulated(&query, &pop, &params, &keys, &[], false, &mut budget, &cfg)
        .expect("t+1 members remain alive: decryption must succeed");
    assert_eq!(out.exact.groups[0].histogram, want.groups[0].histogram);
    assert_eq!(out.members.len(), c);
}

#[test]
fn too_many_committee_crashes_fail_cleanly() {
    // Crash 3 of 5 members: only 2 < t + 1 = 3 remain, so the aggregator
    // must detect the stragglers by deadline and return a typed error —
    // not panic, not hang.
    let (params, keys, pop) = setup(50);
    let query = paper_query("Q4").unwrap();
    let n = pop.graph.len();
    let mut budget = PrivacyBudget::new(10.0);
    let cfg = SimNetConfig {
        seed: 7,
        fault: FaultPlan::none()
            .with_crash(n + 1, 0)
            .with_crash(n + 2, 0)
            .with_crash(n + 4, 0),
        ..SimNetConfig::default()
    };
    let err = run_query_simulated(&query, &pop, &params, &keys, &[], false, &mut budget, &cfg)
        .expect_err("2 < t+1 alive members cannot decrypt");
    assert_eq!(
        err,
        SimRoundError::CommitteeUnavailable { alive: 2, need: 3 }
    );
}

#[test]
fn crashed_device_detected_by_deadline() {
    // A crashed device never contributes and never submits its origin
    // ciphertext: its peers substitute Enc(x^0) at their deadline and the
    // aggregator fills Enc(0) at its own, so the round still converges.
    let (params, keys, pop) = setup(50);
    let want = oracle(&params, &pop, "Q4");
    let query = paper_query("Q4").unwrap();
    let mut budget = PrivacyBudget::new(10.0);
    let victim = 3usize;
    let cfg = SimNetConfig {
        seed: 8,
        fault: FaultPlan::none().with_crash(victim, 0),
        ..SimNetConfig::default()
    };
    let out = run_query_simulated(&query, &pop, &params, &keys, &[], false, &mut budget, &cfg)
        .expect("one crashed device must not block the round");
    let got: u64 = out.exact.groups[0].histogram.iter().sum();
    let full: u64 = want.groups[0].histogram.iter().sum();
    // The victim's own origin submission is gone; everything else counts.
    assert!(got <= full);
    assert!(got + 1 >= full, "at most the victim's origin count is lost");
}

#[test]
fn byzantine_transit_tampering_rejected_by_proofs() {
    // A Byzantine device's Contrib payloads are substituted in flight
    // (FaultPlan::byzantine → tamper hook). With proofs enabled the
    // aggregator actor rejects every tampered contribution — the proof no
    // longer matches the ciphertext digest — and neutralizes it.
    let (params, keys, pop) = setup(50);
    let want = oracle(&params, &pop, "Q4");
    let query = paper_query("Q4").unwrap();
    let byzantine = (0..pop.graph.len() as u32)
        .find(|&v| pop.graph.degree(v) > 0)
        .unwrap();
    let mut budget = PrivacyBudget::new(10.0);
    let cfg = SimNetConfig {
        seed: 9,
        fault: FaultPlan::none().with_byzantine(byzantine as usize),
        ..SimNetConfig::default()
    };
    let out = run_query_simulated(&query, &pop, &params, &keys, &[], true, &mut budget, &cfg)
        .expect("tampering must be absorbed, not fatal");
    assert!(
        out.rejected_devices.contains(&byzantine),
        "the aggregator must attribute the tampered payloads: {:?}",
        out.rejected_devices
    );
    // Neutralization preserves the origin count (each origin still lands
    // in exactly one histogram bin).
    let got: u64 = out.exact.groups[0].histogram.iter().sum();
    let full: u64 = want.groups[0].histogram.iter().sum();
    assert_eq!(got, full);
}

#[test]
fn simulated_round_is_thread_count_invariant() {
    // The simnet event loop is serial; the BGV compute plane inside the
    // actors fans out over MYC_THREADS. Same seed ⇒ bit-identical result
    // *and metrics* at any thread count.
    let run = || {
        let (params, keys, pop) = setup(50);
        let query = paper_query("Q4").unwrap();
        let mut budget = PrivacyBudget::new(10.0);
        let cfg = SimNetConfig {
            seed: 10,
            fault: FaultPlan::none().with_drop_prob(0.02),
            ..SimNetConfig::default()
        };
        let out = run_query_simulated(&query, &pop, &params, &keys, &[], false, &mut budget, &cfg)
            .unwrap();
        (
            out.exact.groups[0].histogram.clone(),
            out.released[0].histogram.clone(),
            out.elapsed,
            out.metrics.to_json(),
        )
    };
    let serial = with_threads(1, run);
    let parallel = with_threads(8, run);
    assert_eq!(serial.0, parallel.0, "exact histograms");
    assert_eq!(serial.1, parallel.1, "released (noised) histograms");
    assert_eq!(serial.2, parallel.2, "virtual-time trajectory");
    assert_eq!(serial.3, parallel.3, "full metrics JSON");
}

#[test]
fn bench_smoke_sweep_json_is_thread_count_invariant() {
    // The CI artifact (BENCH_rounds.json) is a pure function of the seed:
    // the full smoke sweep must render byte-identical JSON whether the
    // BGV compute plane runs on 1 thread or 8.
    use mycelium_bench::rounds::{run_rounds, RoundsConfig};
    let cfg = RoundsConfig {
        seed: 1,
        smoke: true,
    };
    let serial = with_threads(1, || run_rounds(&cfg));
    let parallel = with_threads(8, || run_rounds(&cfg));
    assert!(serial.all_converged);
    assert_eq!(
        serial.json, parallel.json,
        "sweep JSON must be byte-identical across thread counts"
    );
}

#[test]
fn aggregator_blackouts_in_each_phase_recover_to_exact_oracle_result() {
    // The simnet model of the journaled aggregator (see DESIGN.md
    // "Durability & chaos"): a crash-and-restart blackout keeps state
    // intact but loses every armed timer and in-flight delivery;
    // `on_restart` re-arms deadlines and the senders' retriers re-drive
    // the traffic. One blackout per protocol phase — contribution
    // intake, origin summation, committee decryption — must each yield
    // the bit-identical oracle histogram, exactly like the chaos drill
    // does over real processes.
    let (params, keys, pop) = setup(50);
    let want = oracle(&params, &pop, "Q4");
    let query = paper_query("Q4").unwrap();
    let n = pop.graph.len();

    // Calibrate the phase boundaries from a fault-free run at the same
    // seed: virtual time is deterministic, so the phase series tell us
    // exactly when submissions, the aggregate, and the committee finish.
    let mut budget = PrivacyBudget::new(100.0);
    let cfg = SimNetConfig {
        seed: 20,
        ..SimNetConfig::default()
    };
    let clean = run_query_simulated(&query, &pop, &params, &keys, &[], false, &mut budget, &cfg)
        .expect("calibration run");
    let first_submit = clean.metrics.phases["submit"].min();
    let aggregate_at = clean.metrics.phases["aggregate"].min();
    let committee_at = clean.metrics.phases["committee"].min();
    assert!(
        first_submit < aggregate_at && aggregate_at < committee_at,
        "phases must be ordered: submit {first_submit} < aggregate {aggregate_at} \
         < committee {committee_at}"
    );
    let mid_decrypt = aggregate_at + (committee_at - aggregate_at) / 2;

    let windows = [
        ("contribution intake", 5, first_submit + 2_000),
        ("origin summation", first_submit + 1, first_submit + 3_000),
        ("committee decryption", mid_decrypt, mid_decrypt + 2_500),
    ];
    for (phase, from, until) in windows {
        let mut budget = PrivacyBudget::new(100.0);
        let cfg = SimNetConfig {
            seed: 20,
            fault: FaultPlan::none().with_crash_window(n, from, until),
            ..SimNetConfig::default()
        };
        let out = run_query_simulated(&query, &pop, &params, &keys, &[], false, &mut budget, &cfg)
            .unwrap_or_else(|e| {
                panic!("{phase} blackout [{from}, {until}) must recover, got {e:?}")
            });
        assert_eq!(out.metrics.restarts, 1, "{phase}: one restart");
        assert!(
            out.metrics.dead_letters > 0,
            "{phase}: a blackout mid-round must dead-letter something"
        );
        assert_eq!(out.exact.groups.len(), want.groups.len());
        for (got, want) in out.exact.groups.iter().zip(&want.groups) {
            assert_eq!(
                got.histogram, want.histogram,
                "{phase} blackout changed the answer"
            );
        }
    }
}

#[test]
fn aggregator_blackout_recovery_is_thread_count_invariant() {
    // The recovery path (timer re-arm, retrier re-drive, dead-letter
    // accounting) lives entirely in the serial event loop; only the BGV
    // compute plane fans out. Same seed + same blackout ⇒ bit-identical
    // result, virtual-time trajectory, and metrics at any thread count.
    let run = || {
        let (params, keys, pop) = setup(50);
        let query = paper_query("Q4").unwrap();
        let n = pop.graph.len();
        let mut budget = PrivacyBudget::new(100.0);
        let calibrate = SimNetConfig {
            seed: 21,
            ..SimNetConfig::default()
        };
        let clean = run_query_simulated(
            &query,
            &pop,
            &params,
            &keys,
            &[],
            false,
            &mut budget,
            &calibrate,
        )
        .unwrap();
        let first_submit = clean.metrics.phases["submit"].min();
        let mut budget = PrivacyBudget::new(100.0);
        let cfg = SimNetConfig {
            seed: 21,
            fault: FaultPlan::none().with_crash_window(n, 5, first_submit + 2_000),
            ..SimNetConfig::default()
        };
        let out = run_query_simulated(&query, &pop, &params, &keys, &[], false, &mut budget, &cfg)
            .unwrap();
        assert_eq!(out.metrics.restarts, 1);
        (
            out.exact.groups[0].histogram.clone(),
            out.released[0].histogram.clone(),
            out.elapsed,
            out.metrics.to_json(),
        )
    };
    let serial = with_threads(1, run);
    let parallel = with_threads(8, run);
    assert_eq!(serial.0, parallel.0, "exact histograms");
    assert_eq!(serial.1, parallel.1, "released (noised) histograms");
    assert_eq!(serial.2, parallel.2, "virtual-time trajectory");
    assert_eq!(serial.3, parallel.3, "full metrics JSON");
}

#[test]
fn dropped_out_device_matches_direct_executor_semantics() {
    // DropOut over the network: the device sends nothing, origins fill
    // Enc(x^0) at their deadline — the same §4.4 semantics as the direct
    // path, so the two executors must agree bit-for-bit.
    let (params, keys, pop) = setup(50);
    let query = paper_query("Q4").unwrap();
    let dropped = (0..pop.graph.len() as u32)
        .find(|&v| pop.graph.degree(v) > 0)
        .unwrap();
    let behaviors = [MaliciousBehavior::DropOut { device: dropped }];

    let mut budget = PrivacyBudget::new(10.0);
    let cfg = SimNetConfig {
        seed: 11,
        ..SimNetConfig::default()
    };
    let sim = run_query_simulated(
        &query,
        &pop,
        &params,
        &keys,
        &behaviors,
        false,
        &mut budget,
        &cfg,
    )
    .unwrap();

    let mut budget = PrivacyBudget::new(10.0);
    let mut rng = StdRng::seed_from_u64(99);
    let direct = mycelium::run_query_encrypted(
        &query,
        &pop,
        &params,
        &keys,
        &behaviors,
        false,
        &mut budget,
        &mut rng,
    )
    .unwrap();
    assert_eq!(
        sim.exact.groups[0].histogram, direct.exact.groups[0].histogram,
        "network DropOut semantics must match the direct executor"
    );
}
