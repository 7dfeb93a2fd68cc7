//! The fault schedules the CI matrices explore, pinned.
//!
//! `chaos_round chaos` and `chaos_round netchaos` derive every kill
//! schedule and link-fault plan from a seed, so a refactor of the fault
//! plane that shifts one rng draw silently swaps the explored schedules
//! for different ones. Each pin below is the sha256 of the `Debug`
//! rendering of what the CI jobs derive (seeds 1..=8 at 1 and 4
//! aggregation shards, plus the fixed drills). No process is spawned.

use std::time::Duration;

use mycelium_net::chaos::ChaosPlan;
use mycelium_net::netchaos::{NetFaultPlan, NetProfile};
use mycelium_net::round::{build_setup, RoundSpec};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

#[track_caller]
fn assert_pinned(what: &str, rendering: &str, want: &str) {
    let got = hex(&mycelium_crypto::sha256(rendering.as_bytes()));
    assert_eq!(got, want, "{what} moved; it now derives:\n{rendering}");
}

fn spec(agg_shards: usize) -> RoundSpec {
    RoundSpec {
        agg_shards,
        ..RoundSpec::default()
    }
}

/// The eight schedules `f` derives for seeds 1..=8, one per line.
fn seeds(f: impl Fn(u64) -> String) -> String {
    (1..=8u64)
        .map(|s| format!("seed {s}: {}\n", f(s)))
        .collect()
}

#[test]
fn seeded_kill_schedules_are_pinned() {
    for (shards, want) in [
        (
            1,
            "d60de53ea830d0e88315909c2829863d984846db08df2bfe28b43bdeaa926fa2",
        ),
        (
            4,
            "8c81a1ea5c40eef44bd3f49bb2e71627d15575e332c02a93d2967e97ff8c22ee",
        ),
    ] {
        // `chaos_round chaos` runs seed N over the spec reseeded to N.
        let plans = seeds(|seed| {
            let spec = RoundSpec {
                seed,
                ..spec(shards)
            };
            format!("{:?}", ChaosPlan::derive(seed, &spec))
        });
        assert_pinned(
            &format!("ChaosPlan::derive at {shards} shard(s)"),
            &plans,
            want,
        );
    }
}

#[test]
fn kill_drills_are_pinned() {
    assert_pinned(
        "ChaosPlan::drill",
        &format!("{:?}", ChaosPlan::drill()),
        "aff4ad4fa4c70cd620a9865c632a71264f512fefbaad60a51469ba374ceeb2fb",
    );
    assert_pinned(
        "ChaosPlan::drill_sharded",
        &format!("{:?}", ChaosPlan::drill_sharded()),
        "8d5b73d29deabe27fa7c91f07ad4f522c693fe139c2483d38aaed42e04584c11",
    );
}

#[test]
fn link_fault_plans_are_pinned() {
    for (shards, want_seeded, want_drill) in [
        (
            1,
            "8195a5f8eabc92e958879c66ac1540a79afa5324819e5a55bd1ef4b062a0d7f2",
            "687c69f2cd37d9d29317a3f0b26f2761dfb605a5a0fa547d5e01390f34325ce7",
        ),
        (
            4,
            "bb0b28ba690dbcc935e55639f005c400fde953cf064f1681b18c1757a2712362",
            "03ea5f817f04bb0fef5f373478bccb471d01827c87a1a66caeb128835e618156",
        ),
    ] {
        // `chaos_round netchaos` tightens the default I/O deadline to 3 s,
        // and stall faults hold for that deadline plus a second.
        let setup = build_setup(&RoundSpec {
            io_timeout: Duration::from_secs(3),
            ..spec(shards)
        })
        .expect("setup");
        let plans = seeds(|seed| {
            format!(
                "{:?}",
                NetFaultPlan::derive(&NetProfile::Seeded(seed), &setup)
            )
        });
        assert_pinned(
            &format!("NetFaultPlan::derive(Seeded) at {shards} shard(s)"),
            &plans,
            want_seeded,
        );
        assert_pinned(
            &format!("NetFaultPlan::derive(Drill) at {shards} shard(s)"),
            &format!("{:?}", NetFaultPlan::derive(&NetProfile::Drill, &setup)),
            want_drill,
        );
    }
}
