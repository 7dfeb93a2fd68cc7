//! The client roles of the round (§4.4) — device, origin, committee member
//! and an intake shard's uplink to the coordinator — each a machine without
//! a transport: it says what it asks next ([`Role::next`]) and takes the
//! replies ([`Role::reply`]). The processes drive them over sockets
//! (`clients`, and `serve`'s shard loop), the simulator over its network
//! (`sim`). Every call into [`mycelium::roles`] is here, so what a role
//! computes, and in which order it asks, is written once.

use std::collections::VecDeque;

use mycelium::exec::ExecError;
use mycelium::plan::SignedContribution;
use mycelium::roles::{self, Duty};
use mycelium_bgv::Ciphertext;
use mycelium_graph::graph::VertexId;

use super::spec::RoundSetup;
use crate::error::NetError;
use crate::proto::{NetMsg, OriginRow};

/// The server a request goes to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum To {
    /// The hub, or the coordinator above one shard.
    Hub,
    /// The server holding origin `v`'s row: the hub, or `v`'s intake shard.
    Intake(VertexId),
}

/// What a role asks next.
pub(super) enum Next {
    /// A request, to send now.
    Ask(To, NetMsg),
    /// A request answered "not yet", to ask again — over a socket at once
    /// (the server held it for a park period before answering), on the
    /// simulator a park period later.
    Again(To, NetMsg),
    /// Nothing to ask until a reply arrives.
    Wait,
    /// Nothing left to ask.
    Done,
}

/// A client role of the round.
pub(super) trait Role {
    /// The role's next request. The work it takes — an encryption, a
    /// batch's combine — is done here, in the order the requests go out.
    fn next(&mut self) -> Result<Next, RoleError>;

    /// Checks and takes the reply to one of the role's requests.
    fn reply(&mut self, reply: NetMsg) -> Result<(), RoleError>;

    /// Whether a reply said the round is over (`Finished`): the role asks
    /// nothing more.
    fn over(&self) -> bool;
}

/// A reply a role refuses, or a step of [`mycelium::roles`] that failed.
#[derive(Debug, Clone, PartialEq)]
pub(super) enum RoleError {
    /// A `reply` of a kind `role` never asks for.
    Unexpected {
        role: &'static str,
        reply: &'static str,
    },
    /// A row handed to an origin process for an `origin` it did not ask for.
    Unasked { origin: u32 },
    /// A row of `origin` with `got` slots, where the origin has `need`.
    SlotCount {
        origin: u32,
        got: usize,
        need: usize,
    },
    /// A `step` of [`mycelium::roles`] failed on well-formed input.
    Failed { step: &'static str, cause: String },
}

impl RoleError {
    fn unexpected(role: &'static str, reply: &NetMsg) -> Self {
        RoleError::Unexpected {
            role,
            reply: reply.kind(),
        }
    }

    fn failed(step: &'static str, cause: impl std::fmt::Display) -> Self {
        let cause = cause.to_string();
        RoleError::Failed { step, cause }
    }
}

impl std::fmt::Display for RoleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RoleError::Unexpected { role, reply } => {
                write!(f, "unexpected {reply} reply to a {role}")
            }
            RoleError::Unasked { origin } => write!(f, "a row nobody asked for (origin {origin})"),
            RoleError::SlotCount { origin, got, need } => {
                write!(f, "origin {origin}'s row has {got} slots, not {need}")
            }
            RoleError::Failed { step, cause } => write!(f, "{step}: {cause}"),
        }
    }
}

/// A refused reply is a typed decode failure of the client that got it.
impl From<RoleError> for NetError {
    fn from(e: RoleError) -> Self {
        NetError::Decode(e.to_string())
    }
}

type Pushes<'a> = Box<dyn Iterator<Item = (&'a Duty, Result<SignedContribution, ExecError>)> + 'a>;

/// The devices of some vertices: every contribution duty, in duty order and
/// one per [`next`](Role::next), encrypted from its vertex's own stream and
/// pushed to the server holding its origin's row.
pub(super) struct Device<'a> {
    pushes: Pushes<'a>,
    over: bool,
}

impl<'a> Device<'a> {
    /// The devices of `vertices`; a `cheating` one's contributions carry
    /// forged proofs.
    pub(super) fn new(
        setup: &'a RoundSetup,
        vertices: impl Iterator<Item = VertexId> + 'a,
        cheating: bool,
    ) -> Self {
        let (plan, keys, seed) = (&setup.plan, &setup.keys, setup.spec.seed);
        let pushes = vertices.flat_map(move |v| {
            let duties = &setup.duties[v as usize];
            let built = roles::contributions(plan, keys, seed, v, duties, cheating);
            duties.iter().zip(built)
        });
        let pushes = Box::new(pushes);
        Device {
            pushes,
            over: false,
        }
    }
}

impl Role for Device<'_> {
    fn next(&mut self) -> Result<Next, RoleError> {
        if self.over {
            return Ok(Next::Done);
        }
        let Some((duty, sc)) = self.pushes.next() else {
            return Ok(Next::Done);
        };
        let sc = sc.map_err(|e| RoleError::failed("contribution encryption", e))?;
        let (origin, slot, sc) = (duty.origin, duty.slot, Box::new(sc));
        let push = NetMsg::PushContrib { origin, slot, sc };
        Ok(Next::Ask(To::Intake(origin), push))
    }

    fn reply(&mut self, reply: NetMsg) -> Result<(), RoleError> {
        match reply {
            NetMsg::Ack => {}
            NetMsg::Finished => self.over = true,
            other => return Err(RoleError::unexpected("device", &other)),
        }
        Ok(())
    }

    fn over(&self) -> bool {
        self.over
    }
}

/// Where an origin's `PullReady` stands.
#[derive(Clone, Copy, PartialEq)]
enum Pull {
    /// None is in flight.
    Idle,
    /// One is in flight.
    Out,
    /// One was answered "not yet": to be asked again.
    Again,
}

/// The origins of one link of an origin process (or of a simulated vertex):
/// asks for whichever owed rows are ready, combines each batch (the neutral
/// `Enc(x^0)` for a slot that never arrived) and submits it.
///
/// The link is kept busy: the next batch is asked for before this one is
/// combined, and this one's submissions wait until that batch has arrived —
/// so a large request is never written while a large reply is outstanding —
/// unless nothing is being asked for. An empty batch says nothing named is
/// still owed (a respawn whose predecessor submitted them).
pub(super) struct Origin<'a> {
    setup: &'a RoundSetup,
    /// Owed origins whose rows have not been handed over.
    want: Vec<u32>,
    pull: Pull,
    /// The batch last handed over, to combine.
    batch: Vec<(u32, OriginRow)>,
    /// Combined rows, submitted while no pull is in flight.
    combined: VecDeque<(u32, Ciphertext)>,
    over: bool,
}

impl<'a> Origin<'a> {
    /// The role serving the origins in `want`.
    pub(super) fn new(setup: &'a RoundSetup, want: Vec<u32>) -> Self {
        let (batch, combined) = (Vec::new(), VecDeque::new());
        let (pull, over) = (Pull::Idle, false);
        Origin {
            setup,
            want,
            pull,
            batch,
            combined,
            over,
        }
    }
}

impl Role for Origin<'_> {
    fn next(&mut self) -> Result<Next, RoleError> {
        loop {
            if self.over {
                return Ok(Next::Done);
            }
            if self.pull == Pull::Idle {
                if let Some((origin, ct)) = self.combined.pop_front() {
                    let submit = NetMsg::SubmitOrigin {
                        origin,
                        ct: Box::new(ct),
                    };
                    return Ok(Next::Ask(To::Intake(origin), submit));
                }
            }
            if self.pull == Pull::Again || (self.pull == Pull::Idle && !self.want.is_empty()) {
                let (to, want) = (To::Intake(self.want[0]), self.want.clone());
                let pull = NetMsg::PullReady { want };
                let again = std::mem::replace(&mut self.pull, Pull::Out) == Pull::Again;
                return Ok(if again {
                    Next::Again(to, pull)
                } else {
                    Next::Ask(to, pull)
                });
            }
            if self.batch.is_empty() {
                return Ok(match self.pull {
                    Pull::Out => Next::Wait,
                    _ => Next::Done,
                });
            }
            let (setup, seed) = (self.setup, self.setup.spec.seed);
            for (origin, slots) in std::mem::take(&mut self.batch) {
                let work = &setup.works[origin as usize];
                let ct = roles::submission(&setup.plan, &setup.keys, seed, work, slots);
                let ct = ct.map_err(|e| RoleError::failed("origin combine", e))?;
                self.combined.push_back((origin, ct));
            }
        }
    }

    fn reply(&mut self, reply: NetMsg) -> Result<(), RoleError> {
        match reply {
            NetMsg::Ack => {}
            NetMsg::Finished => self.over = true,
            NetMsg::OriginPending { .. } if self.pull == Pull::Out => self.pull = Pull::Again,
            NetMsg::ReadyRows { rows } if self.pull == Pull::Out => {
                for (origin, slots) in &rows {
                    if !self.want.contains(origin) {
                        return Err(RoleError::Unasked { origin: *origin });
                    }
                    let need = self.setup.works[*origin as usize].requests.len();
                    if slots.len() != need {
                        let (origin, got) = (*origin, slots.len());
                        return Err(RoleError::SlotCount { origin, got, need });
                    }
                }
                if rows.is_empty() {
                    self.want.clear();
                }
                self.want.retain(|v| rows.iter().all(|(o, _)| o != v));
                self.pull = Pull::Idle;
                self.batch.extend(rows);
            }
            other => return Err(RoleError::unexpected("origin", &other)),
        }
        Ok(())
    }

    fn over(&self) -> bool {
        self.over
    }
}

/// What a role that asks one thing at a time asks next: the request its
/// last reply called for, if that is not yet asked.
fn one_at_a_time(over: bool, next: &mut Option<Next>) -> Result<Next, RoleError> {
    Ok(if over {
        Next::Done
    } else {
        next.take().unwrap_or(Next::Wait)
    })
}

/// Committee member `m`: checks in with its noise seed until it is handed a
/// share or a signing task, answers it, and checks in again.
pub(super) struct Member<'a> {
    setup: &'a RoundSetup,
    member: u64,
    me: roles::Member,
    next: Option<Next>,
    over: bool,
}

impl<'a> Member<'a> {
    /// Member `member` (1-based) of the round.
    pub(super) fn new(setup: &'a RoundSetup, member: u64) -> Self {
        let me = roles::Member::new(setup.spec.seed, member);
        let seed = me.noise_seed();
        let next = Some(Next::Ask(
            To::Hub,
            NetMsg::CommitteeCheckIn { member, seed },
        ));
        let over = false;
        Member {
            setup,
            member,
            me,
            next,
            over,
        }
    }
}

impl Role for Member<'_> {
    fn next(&mut self) -> Result<Next, RoleError> {
        one_at_a_time(self.over, &mut self.next)
    }

    fn reply(&mut self, reply: NetMsg) -> Result<(), RoleError> {
        let (member, seed) = (self.member, self.me.noise_seed());
        let check_in = NetMsg::CommitteeCheckIn { member, seed };
        let answer = match reply {
            NetMsg::Finished => {
                self.over = true;
                return Ok(());
            }
            NetMsg::CommitteeWait => {
                self.next = Some(Next::Again(To::Hub, check_in));
                return Ok(());
            }
            NetMsg::Ack => check_in,
            NetMsg::CommitteeShareTask {
                round,
                participants,
                ct,
            } => {
                let share = self
                    .me
                    .share(&self.setup.key_shares, round, &participants, &ct);
                let share = Box::new(share.map_err(|e| RoleError::failed("share computation", e))?);
                NetMsg::PushShare {
                    member,
                    round,
                    share,
                }
            }
            NetMsg::CertSignTask { transcript } => {
                let sig = self.me.sign(&transcript);
                NetMsg::PushCertSig { member, sig }
            }
            other => return Err(RoleError::unexpected("committee member", &other)),
        };
        self.next = Some(Next::Ask(To::Hub, answer));
        Ok(())
    }

    fn over(&self) -> bool {
        self.over
    }
}

/// Intake shard `shard`'s client half: pushes its sealed root to the
/// coordinator, then polls until the round is over.
pub(super) struct Uplink {
    shard: u32,
    sealed: bool,
    next: Option<Next>,
    over: bool,
}

impl Uplink {
    /// The uplink of intake shard `shard`, its root not sealed yet.
    pub(super) fn new(shard: u32) -> Self {
        let (sealed, next, over) = (false, None, false);
        Uplink {
            shard,
            sealed,
            next,
            over,
        }
    }

    /// Whether the shard's root has been handed over ([`Uplink::seal`]).
    pub(super) fn sealed(&self) -> bool {
        self.sealed
    }

    /// Hands over the shard's sealed `ShardRoot`, once.
    pub(super) fn seal(&mut self, root: NetMsg) {
        if !std::mem::replace(&mut self.sealed, true) {
            self.next = Some(Next::Ask(To::Hub, root));
        }
    }
}

impl Role for Uplink {
    fn next(&mut self) -> Result<Next, RoleError> {
        one_at_a_time(self.over, &mut self.next)
    }

    fn reply(&mut self, reply: NetMsg) -> Result<(), RoleError> {
        let poll = NetMsg::PullShardStatus { shard: self.shard };
        self.next = match reply {
            NetMsg::Finished => {
                self.over = true;
                None
            }
            // The root is taken.
            NetMsg::Ack => Some(Next::Ask(To::Hub, poll)),
            NetMsg::CommitteeWait => Some(Next::Again(To::Hub, poll)),
            other => return Err(RoleError::unexpected("shard", &other)),
        };
        Ok(())
    }

    fn over(&self) -> bool {
        self.over
    }
}

#[cfg(test)]
mod tests {
    use super::super::spec::{build_setup, RoundSpec};
    use super::*;
    use mycelium_math::rng::{SeedableRng, StdRng};

    fn setup() -> RoundSetup {
        build_setup(&RoundSpec {
            n: 16,
            ..RoundSpec::default()
        })
        .unwrap()
    }

    /// What `role` asks until it waits or is done, rendered.
    fn steps(role: &mut dyn Role) -> Vec<String> {
        let mut steps = Vec::new();
        loop {
            let (verb, msg) = match role.next().unwrap() {
                Next::Ask(_, msg) => ("ask", msg),
                Next::Again(_, msg) => ("again", msg),
                Next::Wait => return [steps, vec!["wait".into()]].concat(),
                Next::Done => return [steps, vec!["done".into()]].concat(),
            };
            let numbers = match &msg {
                NetMsg::PullReady { want } => want.clone(),
                NetMsg::SubmitOrigin { origin, .. } => vec![*origin],
                NetMsg::PushContrib { origin, slot, .. } => vec![*origin, *slot],
                _ => Vec::new(),
            };
            let numbers = numbers.iter().map(|n| format!(" {n}")).collect::<String>();
            steps.push(format!("{verb} {}{numbers}", msg.kind()));
        }
    }

    /// The rows of `origins` as a deadline hands them over: every slot a hole.
    fn rows(setup: &RoundSetup, origins: &[u32]) -> NetMsg {
        let row = |&o: &u32| (o, vec![None; setup.works[o as usize].requests.len()]);
        let rows = origins.iter().map(row).collect();
        NetMsg::ReadyRows { rows }
    }

    fn root(setup: &RoundSetup) -> NetMsg {
        let ct = setup
            .plan
            .neutral_ct(&setup.keys, &mut StdRng::seed_from_u64(1));
        let (rejected, commits) = (Vec::new(), Vec::new());
        let root = Box::new(ct.unwrap());
        NetMsg::ShardRoot {
            shard: 3,
            rejected,
            commits,
            root,
        }
    }

    #[test]
    fn an_origin_asks_for_the_next_batch_first_and_holds_submissions_until_it_arrives() {
        let setup = setup();
        let mut origin = Origin::new(&setup, (0..6).collect());
        assert_eq!(steps(&mut origin), ["ask PullReady 0 1 2 3 4 5", "wait"]);
        origin.reply(rows(&setup, &[0, 1])).unwrap();
        // Rows 0 and 1 are combined behind the next pull, and held.
        assert_eq!(steps(&mut origin), ["ask PullReady 2 3 4 5", "wait"]);
        origin
            .reply(NetMsg::OriginPending { have: 1, need: 9 })
            .unwrap();
        assert_eq!(steps(&mut origin), ["again PullReady 2 3 4 5", "wait"]);
        // The next batch is in: the held submissions go, then the next pull.
        origin.reply(rows(&setup, &[2])).unwrap();
        let expected = [
            "ask SubmitOrigin 0",
            "ask SubmitOrigin 1",
            "ask PullReady 3 4 5",
            "wait",
        ];
        assert_eq!(steps(&mut origin), expected);
        origin.reply(NetMsg::Ack).unwrap();
        origin.reply(NetMsg::Ack).unwrap();
        // The last batch: no pull is outstanding, so nothing waits.
        origin.reply(rows(&setup, &[3, 4, 5])).unwrap();
        let expected = [
            "ask SubmitOrigin 2",
            "ask SubmitOrigin 3",
            "ask SubmitOrigin 4",
            "ask SubmitOrigin 5",
            "done",
        ];
        assert_eq!(steps(&mut origin), expected);
    }

    #[test]
    fn an_empty_batch_sends_what_is_held_and_ends_the_pulls() {
        let setup = setup();
        let mut origin = Origin::new(&setup, vec![4, 7, 9]);
        assert_eq!(steps(&mut origin), ["ask PullReady 4 7 9", "wait"]);
        origin.reply(rows(&setup, &[7])).unwrap();
        assert_eq!(steps(&mut origin), ["ask PullReady 4 9", "wait"]);
        origin
            .reply(NetMsg::ReadyRows { rows: Vec::new() })
            .unwrap();
        assert_eq!(steps(&mut origin), ["ask SubmitOrigin 7", "done"]);
    }

    #[test]
    fn a_device_pushes_its_duties_in_order_each_to_its_origins_server() {
        let setup = setup();
        let v = setup.duties.iter().position(|d| d.len() >= 2).unwrap() as VertexId;
        let mut device = Device::new(&setup, [v].into_iter(), false);
        for duty in &setup.duties[v as usize] {
            let Ok(Next::Ask(to, NetMsg::PushContrib { origin, slot, .. })) = device.next() else {
                panic!("not a push");
            };
            assert_eq!(
                (to, origin, slot),
                (To::Intake(duty.origin), duty.origin, duty.slot)
            );
            device.reply(NetMsg::Ack).unwrap();
        }
        assert!(matches!(device.next(), Ok(Next::Done)));
    }

    #[test]
    fn a_member_checks_in_again_after_a_wait_and_after_each_answer() {
        let setup = setup();
        let mut member = Member::new(&setup, 2);
        let me = roles::Member::new(setup.spec.seed, 2);
        let Ok(Next::Ask(To::Hub, NetMsg::CommitteeCheckIn { member: 2, seed })) = member.next()
        else {
            panic!("not a check-in");
        };
        assert_eq!(seed, me.noise_seed());
        assert_eq!(steps(&mut member), ["wait"]);
        member.reply(NetMsg::CommitteeWait).unwrap();
        assert_eq!(steps(&mut member), ["again CommitteeCheckIn", "wait"]);
        let transcript = [7; 32];
        member.reply(NetMsg::CertSignTask { transcript }).unwrap();
        let Ok(Next::Ask(To::Hub, NetMsg::PushCertSig { member: 2, sig })) = member.next() else {
            panic!("not a signature");
        };
        assert_eq!(sig, me.sign(&transcript));
        member.reply(NetMsg::Ack).unwrap();
        assert_eq!(steps(&mut member), ["ask CommitteeCheckIn", "wait"]);
    }

    #[test]
    fn an_uplink_pushes_its_root_then_polls_until_the_round_is_over() {
        let setup = setup();
        let mut uplink = Uplink::new(3);
        assert_eq!(steps(&mut uplink), ["wait"]);
        uplink.seal(root(&setup));
        assert_eq!(steps(&mut uplink), ["ask ShardRoot", "wait"]);
        uplink.reply(NetMsg::Ack).unwrap();
        assert_eq!(steps(&mut uplink), ["ask PullShardStatus", "wait"]);
        uplink.reply(NetMsg::CommitteeWait).unwrap();
        assert_eq!(steps(&mut uplink), ["again PullShardStatus", "wait"]);
        uplink.reply(NetMsg::Finished).unwrap();
        assert_eq!(steps(&mut uplink), ["done"]);
    }

    #[test]
    fn finished_ends_every_role() {
        let setup = setup();
        let v = setup.duties.iter().position(|d| d.len() >= 2).unwrap() as VertexId;
        let mut device = Device::new(&setup, [v].into_iter(), false);
        assert!(matches!(device.next(), Ok(Next::Ask(..))));
        // An origin holding a combined row it has not sent.
        let mut origin = Origin::new(&setup, vec![0, 1]);
        steps(&mut origin);
        origin.reply(rows(&setup, &[0])).unwrap();
        assert_eq!(steps(&mut origin), ["ask PullReady 1", "wait"]);
        let mut member = Member::new(&setup, 1);
        steps(&mut member);
        let mut uplink = Uplink::new(3);
        uplink.seal(root(&setup));
        steps(&mut uplink);
        let roles: [&mut dyn Role; 4] = [&mut device, &mut origin, &mut member, &mut uplink];
        for role in roles {
            assert!(!role.over());
            role.reply(NetMsg::Finished).unwrap();
            assert!(role.over());
            assert_eq!(steps(role), ["done"]);
        }
    }

    #[test]
    fn a_reply_a_role_never_asked_for_is_a_typed_error() {
        let setup = setup();
        let unexpected = |role, reply| Err(RoleError::Unexpected { role, reply });
        let pending = || NetMsg::OriginPending { have: 0, need: 1 };
        let mut origin = Origin::new(&setup, vec![0, 1]);
        let not_pulling = origin.reply(pending());
        assert_eq!(not_pulling, unexpected("origin", "OriginPending"));
        steps(&mut origin);
        let unasked = origin.reply(rows(&setup, &[2]));
        assert_eq!(unasked, Err(RoleError::Unasked { origin: 2 }));
        let need = setup.works[1].requests.len();
        let got = need + 1;
        let long = origin.reply(NetMsg::ReadyRows {
            rows: vec![(1, vec![None; got])],
        });
        assert_eq!(
            long,
            Err(RoleError::SlotCount {
                origin: 1,
                got,
                need
            })
        );
        let wait = origin.reply(NetMsg::CommitteeWait);
        assert_eq!(wait, unexpected("origin", "CommitteeWait"));
        let no_rows = || NetMsg::ReadyRows { rows: Vec::new() };
        let mut device = Device::new(&setup, std::iter::empty(), false);
        assert_eq!(device.reply(no_rows()), unexpected("device", "ReadyRows"));
        let mut member = Member::new(&setup, 1);
        let pending_member = member.reply(pending());
        assert_eq!(
            pending_member,
            unexpected("committee member", "OriginPending")
        );
        let mut uplink = Uplink::new(3);
        assert_eq!(uplink.reply(no_rows()), unexpected("shard", "ReadyRows"));
    }
}
