//! `PullShardStatus` is validated like `ShardRoot`: only a coordinator
//! tracks which shards observed `Finished`, and only for its own shard ids.
//!
//! Before the fix any `shard: u32` was recorded by any process: one stray
//! poll at a hub made "every shard observed the end" unreachable (the exit
//! stalled for the full finish grace), and an out-of-range id at a
//! coordinator counted towards it (an early exit before a real shard saw
//! `Finished`).

use std::sync::Arc;

use mycelium_net::proto::NetMsg;
use mycelium_net::round::{build_setup, AggState, RoundSpec};
use mycelium_net::NetError;

fn poll(shards: usize, shard: u32) -> Result<NetMsg, NetError> {
    let spec = RoundSpec {
        agg_shards: shards,
        ..RoundSpec::default()
    };
    let setup = Arc::new(build_setup(&spec).unwrap());
    let raw = NetMsg::PullShardStatus { shard }.encode();
    let msg = NetMsg::decode(&raw, &setup.cc).unwrap();
    AggState::new(Arc::clone(&setup)).handle(msg, &raw)
}

#[test]
fn a_hub_rejects_shard_status_polls() {
    for shard in [0, 3] {
        let err = poll(1, shard).map(|m| m.kind()).unwrap_err();
        assert!(
            matches!(&err, NetError::Decode(why) if why.contains("out of range")),
            "expected a typed decode error, got {err}"
        );
    }
}

#[test]
fn a_coordinator_accepts_only_its_own_shard_ids() {
    for shard in 0..4 {
        let reply = poll(4, shard).unwrap();
        assert!(matches!(reply, NetMsg::CommitteeWait), "round still open");
    }
    for shard in [4, u32::MAX] {
        let err = poll(4, shard).map(|m| m.kind()).unwrap_err();
        assert!(
            matches!(&err, NetError::Decode(why) if why == &format!("shard {shard} out of range")),
            "expected a typed decode error, got {err}"
        );
    }
}
