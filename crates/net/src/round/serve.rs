//! An [`AggState`] behind a listening server: requests held until their
//! answer exists, and the main loops of the aggregator and shard processes.

use std::net::SocketAddr;
use std::path::Path;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use mycelium_crypto::codec::Writer;

use super::agg::{settle, AggFaults, AggState, Reply};
use super::clients::HubClient;
use super::machine::{Next, Role, Uplink};
use super::spec::{
    build_setup, encode_outcome, files, role, write_metrics, write_named_addr_file, RoundSetup,
    RoundSpec, PARK, TICK,
};
use crate::channel::Identity;
use crate::error::NetError;
use crate::lock_recover;
use crate::metrics::NetMetrics;
use crate::proto::NetMsg;
use crate::server::{Handled, Handler, Server, ServerConfig};

/// How long a finished aggregator waits for committee members to observe
/// `Finished` before giving up on stragglers and exiting anyway.
const FINISH_GRACE: Duration = Duration::from_secs(10);

/// An [`AggState`] as its process shares it: the server's workers handle
/// requests on it, and the process's main loop runs its wall-clock
/// transitions and sleeps until the round reaches the point it waits for.
///
/// As a [`Handler`] it decodes a request, handles it under the state lock
/// (journal → apply → checkpoint), encodes the reply into the connection's
/// frame buffer — an origin's job straight from the parked row — and lets
/// the lock go. The claim it returns is waited on by the connection's
/// worker, once per burst of requests and outside the lock, so other
/// requests are verified, applied and answered during the disk wait; no
/// reply leaves before it. Under the `die_after` chaos knob a request is
/// handled, made durable and then *not* answered, so the client must
/// retry into the respawned process's idempotent path.
pub struct SharedAgg {
    state: Mutex<AggState>,
    /// Notified when a handled request moved one of
    /// [`AggState::milestones`]. Everything that sleeps on it sleeps with
    /// a timeout, so wall-clock deadlines fire regardless.
    moved: Condvar,
    setup: Arc<RoundSetup>,
    die_after: Option<(String, u32)>,
    die_count: Mutex<u32>,
}

impl SharedAgg {
    /// Shares `st`, to be served with the chaos knobs in `faults`.
    pub fn new(st: AggState, setup: &Arc<RoundSetup>, faults: &AggFaults) -> Arc<Self> {
        Arc::new(SharedAgg {
            state: Mutex::new(st),
            moved: Condvar::new(),
            setup: Arc::clone(setup),
            die_after: faults.die_after.clone(),
            die_count: Mutex::new(0),
        })
    }

    /// The state, locked.
    pub fn lock(&self) -> MutexGuard<'_, AggState> {
        lock_recover(&self.state)
    }

    /// Sleeps (the state unlocked) until a request moves a milestone or
    /// `timeout` passes, whichever is first.
    fn wait<'a>(&self, s: MutexGuard<'a, AggState>, timeout: Duration) -> MutexGuard<'a, AggState> {
        let woken = self.moved.wait_timeout(s, timeout);
        woken.unwrap_or_else(PoisonError::into_inner).0
    }

    /// Runs `step` on the state and wakes every sleeper if it moved a
    /// milestone.
    fn observe<T>(&self, s: &mut AggState, step: impl FnOnce(&mut AggState) -> T) -> T {
        let before = s.milestones();
        let out = step(s);
        if s.milestones() != before {
            self.moved.notify_all();
        }
        out
    }

    /// Runs the due wall-clock transitions; a journal failure fails the
    /// round rather than the process. What they append is made durable
    /// by whoever next waits on the journal — the next handled request,
    /// or the main loop before it acts on what it saw ([`Self::sync`]).
    fn tick(&self, s: &mut AggState) {
        self.observe(s, |s| {
            if let Err(e) = s.tick().and_then(|_| s.checkpoint()) {
                s.fail(format!("journal failure: {e}"));
            }
        })
    }

    /// Unlocks the state and waits until everything it journaled is on
    /// disk.
    fn sync(&self, s: MutexGuard<'_, AggState>) -> Result<(), NetError> {
        let pending = s.pending();
        drop(s);
        settle(pending)
    }
}

impl Handler for SharedAgg {
    fn handle_into(
        &self,
        _peer: [u8; 32],
        request: &[u8],
        reply: &mut Writer,
        may_wait: bool,
    ) -> Result<Handled, NetError> {
        let mut msg = NetMsg::decode(request, &self.setup.cc)?;
        let kind = msg.kind();
        let asked = Instant::now();
        let mut s = self.lock();
        // A reply that says "not yet" is held (the state unlocked) and the
        // request handled again whenever a milestone moves, until its answer
        // exists or one park period has passed — but never in front of
        // replies the connection has not written yet.
        let pending = loop {
            let (answer, pending) = self.observe(&mut s, |s| s.handle_reply(msg, request))?;
            let left = PARK.saturating_sub(asked.elapsed());
            let not_yet = matches!(
                answer,
                Reply::Msg(NetMsg::OriginPending { .. } | NetMsg::CommitteeWait)
            );
            if !not_yet || left.is_zero() {
                s.encode_reply(&answer, reply);
                break pending;
            }
            if !may_wait {
                return Ok(Handled::WouldWait);
            }
            s = self.wait(s, left);
            msg = NetMsg::decode(request, &self.setup.cc)?;
        };
        drop(s);
        if let Some((k, n)) = self.die_after.as_ref().filter(|(k, _)| kind == k.as_str()) {
            let mut count = lock_recover(&self.die_count);
            *count += 1;
            if *count == *n {
                settle(pending)?;
                eprintln!("{}: chaos kill after {n} {k}", self.lock().who());
                std::process::abort();
            }
        }
        Ok(Handled::Reply(pending))
    }
}

/// One served aggregation-plane process (the aggregator or an intake
/// shard): its journaled state behind the listening server, plus the
/// fault-injecting proxy when the round runs under a net-chaos profile.
struct Served {
    name: String,
    shared: Arc<SharedAgg>,
    server: Server,
    proxy: Option<crate::netchaos::ChaosProxy>,
}

impl Served {
    /// Serves `st` — intake shard `shard`'s state, or the hub's or
    /// coordinator's — under the transport identity that implies.
    /// Publishes the dialable address via the role's address file and a
    /// `LISTENING` banner on stdout.
    fn spawn(
        st: AggState,
        shard: Option<u32>,
        setup: &Arc<RoundSetup>,
        faults: &AggFaults,
        out_dir: &Path,
    ) -> Result<Self, NetError> {
        let spec = &setup.spec;
        // One worker per intake client, plus slack; the aggregator also
        // serves the committee and the shards.
        let intake_workers = spec.device_shards + spec.origin_shards + 3;
        let (name, role_id, workers, server_seed, addr_file) = match shard {
            None => (
                "aggregator".to_string(),
                role::AGGREGATOR,
                intake_workers + setup.committee_size + spec.agg_shards,
                spec.seed,
                files::AGG_ADDR.to_string(),
            ),
            Some(s) => (
                format!("shard-{s}"),
                role::SHARD_BASE + s,
                intake_workers,
                spec.seed ^ (0x5a5a + s as u64),
                files::shard_addr(s as usize),
            ),
        };
        let shared = SharedAgg::new(st, setup, faults);
        let config = ServerConfig {
            workers,
            roster: Some(setup.roster()),
            ..ServerConfig::default()
        };
        let identity = Identity::derive(setup.spec.seed, role_id);
        let handler: Arc<dyn Handler> = shared.clone();
        let server = Server::spawn("127.0.0.1:0", identity, config, handler, server_seed)?;
        // Under a net-chaos profile every client dials the fault-injecting
        // proxy, not the server: publish the proxy's address everywhere
        // the real one would go.
        let proxy = match &setup.spec.net {
            Some(profile) => Some(crate::netchaos::ChaosProxy::spawn(
                server.local_addr(),
                role_id,
                &crate::netchaos::NetFaultPlan::derive(profile, setup),
                &setup.link_roster(),
            )?),
            None => None,
        };
        let public_addr = proxy
            .as_ref()
            .map_or(server.local_addr(), |p| p.local_addr());
        write_named_addr_file(out_dir, &addr_file, public_addr)?;
        println!("LISTENING {public_addr}");
        use std::io::Write as _;
        std::io::stdout().flush()?;
        Ok(Served {
            name,
            shared,
            server,
            proxy,
        })
    }

    /// Stops serving, then writes this process's metrics (merged with its
    /// client half's, if any) and fault ledger. In that order: the main
    /// loop can get here while the request that let it go is still being
    /// answered, and only a stopped server has sent — and counted — its
    /// last reply.
    fn finish(self, out_dir: &Path, client_half: Option<NetMetrics>) -> Result<(), NetError> {
        let server_metrics = self.server.metrics();
        self.server.shutdown();
        if let Some(p) = self.proxy {
            let ledger = format!("{}\n", p.shutdown().to_json());
            std::fs::write(out_dir.join(files::netfaults(&self.name)), ledger)?;
        }
        let mut metrics = lock_recover(&server_metrics).clone();
        if let Some(m) = &client_half {
            metrics.merge(m);
        }
        let s = self.shared.lock();
        metrics.duplicates_suppressed += s.duplicates_suppressed();
        let stats = s.sync_stats();
        metrics.wal_syncs += stats.syncs;
        let waits = &mut metrics.sync_wait_micros.completions;
        waits.extend(stats.wait_micros);
        let (early, owned) = s.rows_handed_early();
        eprintln!(
            "{}: {} fsyncs for {} journal records, {} minor faults, peak RSS {} kB, \
             rows handed out before the last contribution: {early} of {owned}",
            self.name,
            stats.syncs,
            s.journal_records(),
            crate::metrics::minor_faults().unwrap_or(0),
            crate::metrics::peak_rss_kb().unwrap_or(0)
        );
        write_metrics(out_dir, &self.name, &metrics)
    }
}

/// Runs the aggregator: recovers state from the journal (fresh on the
/// first incarnation), serves the round on a loopback port published via
/// the `agg.addr` file, writes the outcome and its metrics into
/// `out_dir`, and exits once the round is over and observed.
pub fn run_aggregator(
    spec: &RoundSpec,
    out_dir: &Path,
    faults: &AggFaults,
) -> Result<(), NetError> {
    std::fs::create_dir_all(out_dir)?;
    let setup = Arc::new(build_setup(spec)?);
    let mut st = AggState::recover(Arc::clone(&setup), &out_dir.join(files::JOURNAL))?;
    st.set_faults(faults);
    if spec.budget.is_some() {
        let wal_path = spec
            .budget_wal
            .clone()
            .unwrap_or_else(|| out_dir.join(files::BUDGET_WAL));
        st.install_budget(&wal_path)?;
    }
    let served = Served::spawn(st, None, &setup, faults, out_dir)?;

    let started = Instant::now();
    let mut outcome_since: Option<Instant> = None;
    let shared = &served.shared;
    let mut s = shared.lock();
    let (result, cert_json) = loop {
        shared.tick(&mut s);
        if s.is_over() {
            let since = *outcome_since.get_or_insert_with(Instant::now);
            // Committee members (and shards) that died after the
            // outcome formed can never poll `Finished`; a grace period
            // keeps their absence from wedging the exit.
            if s.finished_observed(since.elapsed() >= FINISH_GRACE) {
                let json = s.certificate_json();
                break (s.take_outcome().expect("checked"), json);
            }
        }
        if started.elapsed() >= spec.round_timeout {
            let json = s.certificate_json();
            break (
                s.take_outcome().unwrap_or_else(|| {
                    Err(format!(
                        "round did not converge within {:?}",
                        spec.round_timeout
                    ))
                }),
                json,
            );
        }
        s = shared.wait(s, TICK);
    };
    shared.sync(s)?;
    // The certificate lands on disk *before* the outcome file: the
    // outcome is the durable end-of-round signal lingering roles watch,
    // so nobody can observe a finished round with a missing certificate.
    if let Some(json) = cert_json {
        std::fs::write(out_dir.join(files::CERT_JSON), json)?;
    }
    std::fs::write(out_dir.join(files::OUTCOME), encode_outcome(&result))?;
    served.finish(out_dir, None)?;
    match result {
        Ok(_) => Ok(()),
        Err(e) => Err(NetError::Decode(format!("round failed: {e}"))),
    }
}

/// Runs aggregation shard `shard`: recovers its own WAL partition,
/// serves intake for the origins it owns on a loopback port published
/// via `shard-N.addr`, pushes its sealed root to the coordinator at
/// `addr`, and lingers — acking late client retries — until the
/// coordinator reports the round finished (or the outcome file appears,
/// covering a coordinator that exited before this shard's poll).
pub fn run_shard(
    spec: &RoundSpec,
    shard: usize,
    addr: SocketAddr,
    out_dir: &Path,
    faults: &AggFaults,
) -> Result<(), NetError> {
    std::fs::create_dir_all(out_dir)?;
    let setup = Arc::new(build_setup(spec)?);
    let mut st = AggState::recover_shard(
        Arc::clone(&setup),
        shard as u32,
        &out_dir.join(files::shard_journal(shard)),
    )?;
    st.set_faults(faults);
    let served = Served::spawn(st, Some(shard as u32), &setup, faults, out_dir)?;

    // Client half towards the coordinator: the shard's uplink, one request
    // per pass of the loop; a request whose exchange failed goes again on
    // the next.
    let role_id = role::SHARD_BASE + shard as u32;
    let mut coord = HubClient::new(&setup, role_id, addr, out_dir);
    let mut uplink = Uplink::new(shard as u32);
    let mut unanswered = None;
    let started = Instant::now();
    // The loop sleeps on the state: the request that seals the root wakes
    // it, so the root goes to the coordinator at once; a failed push and
    // the linger poll after the ack repeat every [`TICK`].
    let result = {
        let shared = &served.shared;
        let mut s = shared.lock();
        loop {
            shared.tick(&mut s);
            if let Some(e) = s.failure() {
                break Err(NetError::Decode(format!("shard {shard} failed: {e}")));
            }
            if !uplink.sealed() {
                if let Some(root) = s.shard_root_msg() {
                    uplink.seal(root);
                }
            }
            let ask = match unanswered.take() {
                Some(msg) => Some(msg),
                None => match uplink.next() {
                    Ok(Next::Ask(_, msg) | Next::Again(_, msg)) => Some(msg),
                    Ok(Next::Wait) => None,
                    Ok(Next::Done) => break Ok(()),
                    Err(e) => break Err(e.into()),
                },
            };
            if let Some(msg) = ask {
                // Talk to the coordinator with the state unlocked, and only
                // about a root that is on disk.
                if let Err(e) = shared.sync(s) {
                    break Err(e);
                }
                let polled = matches!(msg, NetMsg::PullShardStatus { .. });
                match coord.poll_once(&setup, &msg) {
                    Ok(reply) => {
                        if let Err(e) = uplink.reply(reply) {
                            break Err(e.into());
                        }
                    }
                    Err(_) => unanswered = Some(msg),
                }
                // The coordinator may have exited (finish grace elapsed)
                // before this shard's poll saw Finished; the outcome file is
                // the durable end-of-round signal.
                if uplink.over() || (polled && out_dir.join(files::OUTCOME).exists()) {
                    break Ok(());
                }
                s = shared.lock();
            }
            if started.elapsed() >= spec.round_timeout {
                break Err(NetError::Decode(format!(
                    "shard {shard} round did not converge within {:?}",
                    spec.round_timeout
                )));
            }
            s = shared.wait(s, TICK);
        }
    };
    served.finish(out_dir, Some(coord.metrics()))?;
    result
}
