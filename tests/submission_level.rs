//! `costs::submission_level` is the exact mirror of `combine_origin`'s
//! level arithmetic: for every origin of a round's population, the level
//! the model predicts is the level the real combine submits at — under a
//! plain product (Q4), a §4.5 subsequence selection (Q3) and cross
//! grouping (Q10).

use mycelium::costs::submission_level;
use mycelium::exec::ExecStats;
use mycelium::plan::{combine_origin, RowCombine, AGGREGATION_LEVEL};
use mycelium_math::rng::{SeedableRng, StdRng};
use mycelium_net::round::{build_setup, RoundSpec};
use mycelium_query::analyze::GroupKind;

/// Combines every origin of `query`'s round and checks its level against
/// the mirror; returns how many origins submitted above the aggregation
/// level.
fn mirror_holds(query: &str, kind: GroupKind, selected: bool) -> usize {
    let setup = build_setup(&RoundSpec {
        seed: 7,
        n: 24,
        query: query.into(),
        ..RoundSpec::default()
    })
    .unwrap();
    let plan = &setup.plan;
    assert_eq!(plan.analysis.group_kind, kind, "{query}");
    let mut rng = StdRng::seed_from_u64(7);
    let mut above = 0;
    for work in &setup.works {
        assert!(work
            .rows
            .iter()
            .all(|row| matches!(row, RowCombine::Selected(_)) == selected));
        let cts: Vec<_> = work
            .requests
            .iter()
            .map(|&(device, exp)| {
                let sc = plan.build_contribution(&setup.keys, device, exp, false, &mut rng);
                sc.unwrap().ct
            })
            .collect();
        let mut stats = ExecStats::default();
        let out = combine_origin(plan, &setup.keys, work, &cts, &mut stats, &mut rng).unwrap();
        assert_eq!(
            out.level(),
            submission_level(plan, work),
            "{query}: origin {}",
            work.origin
        );
        above += usize::from(out.level() > AGGREGATION_LEVEL);
    }
    above
}

#[test]
fn plain_products_submit_at_the_mirrored_level() {
    // At 24 leaves every planned chain ends at the bottom.
    assert_eq!(mirror_holds("Q4", GroupKind::None, false), 0);
}

#[test]
fn selected_subsequences_submit_at_the_mirrored_level() {
    mirror_holds("Q3", GroupKind::None, true);
}

#[test]
fn cross_groups_submit_at_the_mirrored_level() {
    mirror_holds("Q10", GroupKind::Cross, true);
}
