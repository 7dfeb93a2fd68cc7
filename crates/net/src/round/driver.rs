//! The round's process tree and the one loop that supervises it.
//!
//! `RoundTree` is the one launcher: it names the children of a [`RoundSpec`]
//! and spawns them. `supervise` is the only supervision loop: [`run_driver`]
//! runs it with the ordinary schedule, the fault-injection harness with a
//! kill plan, which arrives as plain data (`Planned` per child), so this
//! module names nothing of the harness. Each pass fires the `SIGKILL`s that
//! are due, applies `respawn_rule` to every child that has exited, and polls
//! `PullStatus` — held by the aggregator for [`PARK`] while the round runs,
//! so the loop sleeps only while the aggregator is unreachable. Once the
//! aggregator has answered `Finished` the loop blocks on its exit. A round
//! that is over is reaped with blocking waits; a tree that timed out or was
//! given up on is killed first. Either way the metrics are merged into
//! `NET_round.json`.

use std::collections::BTreeMap;
use std::io::BufRead;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use super::clients::HubClient;
use super::spec::{build_setup, files, role, write_metrics, RoundSetup, RoundSpec, PARK};
use crate::error::NetError;
use crate::metrics::NetMetrics;
use crate::proto::NetMsg;

/// Incarnations a child may use beyond its planned kills: one that keeps
/// dying on recovery (a typed replay failure, say) is not relaunched forever.
const SPARE_INCARNATIONS: u32 = 4;

/// One child process of the round, in its current incarnation.
struct Supervised {
    /// Role label used in supervision messages (`origin-1`, …).
    name: String,
    exe: PathBuf,
    child: Child,
    piped: bool,
    /// Launches so far (1 = never relaunched).
    incarnations: u32,
}

impl Supervised {
    /// Spawns `exe args...` (stdout piped if `piped`) with the
    /// single-threaded compute-plane setting every round child uses.
    fn spawn(exe: &Path, name: &str, args: Vec<String>, piped: bool) -> Result<Self, NetError> {
        let child = Self::launch(exe, &args, piped)?;
        Ok(Supervised {
            name: name.to_string(),
            exe: exe.to_path_buf(),
            child,
            piped,
            incarnations: 1,
        })
    }

    fn launch(exe: &Path, args: &[String], piped: bool) -> Result<Child, NetError> {
        let mut cmd = Command::new(exe);
        cmd.args(args).env("MYC_THREADS", "1");
        if piped {
            cmd.stdout(Stdio::piped());
        }
        Ok(cmd.spawn()?)
    }

    /// Reads the `LISTENING <addr>` banner from a piped server child
    /// and keeps draining the pipe so the child can never block on
    /// stdout.
    fn read_banner(&mut self) -> Result<SocketAddr, NetError> {
        let stdout =
            self.child.stdout.take().ok_or_else(|| {
                NetError::Supervision(format!("{} stdout was not piped", self.name))
            })?;
        let mut reader = std::io::BufReader::new(stdout);
        let mut line = String::new();
        reader.read_line(&mut line)?;
        let addr: SocketAddr = line
            .trim()
            .strip_prefix("LISTENING ")
            .ok_or_else(|| NetError::Decode(format!("bad {} banner: {line:?}", self.name)))?
            .parse()
            .map_err(|e| NetError::Decode(format!("bad {} address: {e}", self.name)))?;
        std::thread::spawn(move || {
            let mut sink = String::new();
            while matches!(reader.read_line(&mut sink), Ok(n) if n > 0) {
                sink.clear();
            }
        });
        Ok(addr)
    }

    /// Launches the next incarnation under `args` in place of the current,
    /// exited one.
    fn relaunch(&mut self, args: &[String]) -> Result<(), NetError> {
        self.child = Self::launch(&self.exe, args, self.piped)?;
        self.incarnations += 1;
        if self.piped {
            // Clients find a moved server through its address file, so the
            // banner is only waited for; an incarnation that dies before it
            // shows as an exit on the next pass.
            let _ = self.read_banner();
        }
        Ok(())
    }

    /// Delivers `SIGKILL` to a still-running child and reaps it.
    /// Returns whether there was anything to kill.
    fn kill(&mut self) -> Result<bool, NetError> {
        if self.child.try_wait()?.is_some() {
            return Ok(false);
        }
        self.child.kill()?;
        self.child.wait()?;
        Ok(true)
    }
}

impl Drop for Supervised {
    fn drop(&mut self) {
        // No child outlives its supervisor, whichever way that returns (a
        // reaped child is not signalled again).
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

// ---------------------------------------------------------------------------
// The process tree
// ---------------------------------------------------------------------------

/// The round's client children — device shards, origin shards,
/// committee members — by name, in launch order.
pub(crate) fn client_names(spec: &RoundSpec, committee_size: usize) -> Vec<String> {
    let devices = (0..spec.device_shards).map(|i| format!("device-{i}"));
    let origins = (0..spec.origin_shards).map(|j| format!("origin-{j}"));
    let committee = (1..=committee_size).map(|m| format!("committee-{m}"));
    devices.chain(origins).chain(committee).collect()
}

/// Spells the driver → child command lines.
struct ChildArgs {
    /// What every command line ends with: the spec, then `--out DIR`.
    tail: Vec<String>,
    /// The aggregator's address, once its banner has announced it.
    addr: Option<SocketAddr>,
}

impl ChildArgs {
    /// The command line of child `name` (`aggregator`, `shard-2`,
    /// `device-0`, `committee-3`, …) followed by `extra`: the role word,
    /// for an indexed child its index under its role's flag and the
    /// aggregator address it dials, and the shared tail.
    fn of(&self, name: &str, extra: Vec<String>) -> Vec<String> {
        let (role, index) = name.split_once('-').unwrap_or((name, ""));
        let mut args = vec![role.to_string()];
        if !index.is_empty() {
            let flag = if role == "committee" {
                "--member"
            } else {
                "--shard"
            };
            let addr = self.addr.expect("the aggregator is launched first");
            args.extend([flag, index, "--addr", &addr.to_string()].map(String::from));
        }
        args.extend(self.tail.iter().cloned());
        args.extend(extra);
        args
    }
}

/// The round's process tree: the one place that names the children of
/// a [`RoundSpec`] and spawns them.
struct RoundTree {
    /// The children's command lines (for relaunches).
    cmd: ChildArgs,
    /// The aggregator's banner address, which every other child dials.
    addr: SocketAddr,
    /// The aggregator (hub or coordinator) first, then the intake shards
    /// of a sharded layout — which publish their own addresses via
    /// `shard-N.addr` files that device and origin clients wait on, so
    /// everyone can start concurrently — then device shards, origin
    /// shards and committee members.
    children: Vec<Supervised>,
}

impl RoundTree {
    /// Spawns the whole tree, the aggregator first: its stdout announces
    /// the bound port. Each child's first incarnation launches with the
    /// arguments `schedule` arms it with.
    fn launch(
        exe: &Path,
        setup: &RoundSetup,
        out_dir: &Path,
        schedule: &KillSchedule,
    ) -> Result<Self, NetError> {
        let spec = &setup.spec;
        let mut tail = spec.to_args();
        tail.extend(["--out".to_string(), out_dir.display().to_string()]);
        let mut cmd = ChildArgs { tail, addr: None };
        let spawn = |cmd: &ChildArgs, name: &str, piped: bool| {
            let first = schedule.get(name).and_then(|plan| plan.armed.first());
            let extra = first.map(|(args, _)| args.clone()).unwrap_or_default();
            Supervised::spawn(exe, name, cmd.of(name, extra), piped)
        };
        let mut agg = spawn(&cmd, "aggregator", true)?;
        let addr = agg.read_banner()?;
        cmd.addr = Some(addr);
        let mut children = vec![agg];
        if spec.agg_shards > 1 {
            for s in 0..spec.agg_shards {
                children.push(spawn(&cmd, &format!("shard-{s}"), false)?);
            }
        }
        for name in client_names(spec, setup.committee_size) {
            children.push(spawn(&cmd, &name, false)?);
        }
        Ok(RoundTree {
            cmd,
            addr,
            children,
        })
    }
}

// ---------------------------------------------------------------------------
// The supervision loop
// ---------------------------------------------------------------------------

/// What a kill schedule plans for one child.
#[derive(Debug, Clone, Default)]
pub(crate) struct Planned {
    /// The extra arguments incarnations 1, 2, … launch with, in turn, each
    /// with the label the log arms it under; past the list, none.
    pub armed: Vec<(Vec<String>, String)>,
    /// Offsets from the start of the round at which it is sent `SIGKILL`.
    pub sigkill_at: Vec<Duration>,
}

/// A kill schedule: what it plans for each child it names.
pub(crate) type KillSchedule = BTreeMap<String, Planned>;

/// What [`respawn_rule`] does with a child that has exited.
#[derive(Debug, PartialEq)]
enum Respawn<'a> {
    /// Nothing: it exited cleanly, or after the round's outcome was written.
    No,
    /// Launch the next incarnation armed with this entry, or clean.
    With(Option<&'a (Vec<String>, String)>),
    /// It has used its planned kills and [`SPARE_INCARNATIONS`] more.
    GiveUp,
}

/// The one respawn rule, for every child: one that `failed` (exited
/// nonzero) before the round's outcome file was on disk is relaunched with
/// its next scheduled arguments, none once the schedule runs out, until it
/// has used its planned kills plus [`SPARE_INCARNATIONS`] incarnations. An
/// aggregator that exits nonzero after writing the outcome (a budget
/// refusal, `CommitteeUnavailable`) has ended the round.
fn respawn_rule(
    failed: bool,
    outcome_written: bool,
    incarnations: u32,
    plan: &Planned,
) -> Respawn<'_> {
    let planned = (plan.armed.len() + plan.sigkill_at.len()) as u32;
    if !failed || outcome_written {
        Respawn::No
    } else if incarnations >= planned + SPARE_INCARNATIONS {
        Respawn::GiveUp
    } else {
        Respawn::With(plan.armed.get(incarnations as usize))
    }
}

/// How the kill log names a journaled server's incarnations — bare for the
/// aggregator, `shard N ` for an intake shard — or `None` for a client,
/// whose relaunches go to stderr only.
fn server_label(name: &str) -> Option<String> {
    match name.strip_prefix("shard-") {
        Some(shard) => Some(format!("shard {shard} ")),
        None => (name == "aggregator").then(String::new),
    }
}

/// How a supervised round ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum End {
    /// The aggregator exited and is not relaunched: the round is over.
    Over,
    /// A child used up its incarnations (the log's last line says which).
    GaveUp,
    /// The round timeout passed first.
    Timeout,
}

/// What [`supervise`] reports of a round.
pub(crate) struct Supervision {
    pub end: End,
    /// Every armed incarnation, `SIGKILL`, relaunch of a journaled server
    /// and give-up, in order.
    pub log: Vec<String>,
    /// How many incarnations the aggregator took (1 = never died).
    pub agg_incarnations: u32,
    /// Why the run failed, if it did: the children whose last incarnation
    /// exited nonzero in a round that is over, else the give-up or the
    /// timeout; and any metrics file that does not decode.
    pub failures: Vec<String>,
}

/// The one supervision loop (see the module doc).
pub(crate) fn supervise(
    exe: &Path,
    setup: &RoundSetup,
    out_dir: &Path,
    schedule: &KillSchedule,
) -> Result<Supervision, NetError> {
    let unplanned = Planned::default();
    let plan = |name: &str| schedule.get(name).unwrap_or(&unplanned);
    let mut log: Vec<String> = Vec::new();
    let mut note = |line: String| {
        eprintln!("driver: {line}");
        log.push(line);
    };
    // Kill offsets and the round timeout count from before the launch.
    let started = Instant::now();
    let mut tree = RoundTree::launch(exe, setup, out_dir, schedule)?;
    let mut sigkills = Vec::new();
    for (i, child) in tree.children.iter().enumerate() {
        let planned = plan(&child.name);
        if let Some((_, label)) = planned.armed.first() {
            let who = server_label(&child.name).unwrap_or(format!("{} ", child.name));
            note(format!("{who}incarnation 1 armed: {label}"));
        }
        sigkills.extend(planned.sigkill_at.iter().map(|&at| (at, i)));
    }
    sigkills.sort();
    let mut sigkills = sigkills.into_iter().peekable();

    let outcome = out_dir.join(files::OUTCOME);
    let mut driver = HubClient::new(setup, role::DRIVER, tree.addr, out_dir);
    let mut finished = false;
    let end = 'round: loop {
        if started.elapsed() >= setup.spec.round_timeout {
            break End::Timeout;
        }
        while let Some((at, i)) = sigkills.next_if(|(at, _)| started.elapsed() >= *at) {
            let child = &mut tree.children[i];
            note(if child.kill()? {
                format!("SIGKILL {} at {at:?}", child.name)
            } else {
                format!("{} already exited before {at:?}", child.name)
            });
        }
        let mut over = false;
        for (i, child) in tree.children.iter_mut().enumerate() {
            let Some(status) = child.child.try_wait()? else {
                continue;
            };
            let (failed, n) = (!status.success(), child.incarnations);
            let written = failed && outcome.exists();
            let who = server_label(&child.name);
            let armed = match respawn_rule(failed, written, n, plan(&child.name)) {
                Respawn::No => {
                    over |= i == 0;
                    continue;
                }
                Respawn::GiveUp => {
                    let who = who.unwrap_or(format!("{} ", child.name));
                    note(format!(
                        "giving up: {who}incarnation {n} died with {status}"
                    ));
                    break 'round End::GaveUp;
                }
                Respawn::With(armed) => armed,
            };
            let arming = armed.map_or("clean".into(), |(_, label)| format!("armed: {label}"));
            match who {
                Some(who) => note(format!(
                    "{who}incarnation {} respawned after {status}, {arming}",
                    n + 1
                )),
                None => eprintln!("driver: {} exited with {status}, respawning", child.name),
            }
            let extra = armed.map(|(args, _)| args.clone()).unwrap_or_default();
            child.relaunch(&tree.cmd.of(&child.name, extra))?;
            if i == 0 {
                // Having seen `Finished` is liveness state, not journaled:
                // a fresh aggregator must answer the poll again to exit.
                finished = false;
            }
        }
        if over {
            break End::Over;
        }
        if finished {
            // The aggregator exits once everyone who must has observed the
            // end of the round; the next pass judges how it exited.
            tree.children[0].child.wait()?;
            continue;
        }
        // The aggregator holds the poll for [`PARK`] or until the round
        // is over, so an answered poll is followed by the next at once.
        match driver.poll_once(setup, &NetMsg::PullStatus) {
            Ok(NetMsg::Finished) => finished = true,
            Ok(_) => {}
            Err(_) => std::thread::sleep(PARK),
        }
    };

    let mut failures = match end {
        End::Over => Vec::new(),
        End::GaveUp => log.last().cloned().into_iter().collect(),
        End::Timeout => vec![format!(
            "the round did not end within {:?}",
            setup.spec.round_timeout
        )],
    };
    for child in &mut tree.children {
        if end != End::Over {
            child.kill()?;
        }
        let status = child.child.wait()?;
        if end == End::Over && !status.success() {
            failures.push(format!("{} exited with {status}", child.name));
        }
    }

    // Merge all metrics files (the driver's own included). A file a killed
    // process left half-written fails the run, not the merge.
    write_metrics(out_dir, "driver", &driver.metrics())?;
    let mut merged = NetMetrics::default();
    let mut entries: Vec<PathBuf> = std::fs::read_dir(out_dir)?
        .filter_map(|e| Some(e.ok()?.path()))
        .filter(|p| {
            let name = p.file_name().and_then(|n| n.to_str()).unwrap_or_default();
            name.starts_with("metrics-") && name.ends_with(".bin")
        })
        .collect();
    entries.sort();
    for path in entries {
        match NetMetrics::decode(&std::fs::read(&path)?) {
            Ok(metrics) => merged.merge(&metrics),
            Err(e) => failures.push(format!("{}: {e}", path.display())),
        }
    }
    std::fs::write(out_dir.join(files::METRICS_MERGED), merged.encode())?;
    let json = format!("{}\n", merged.to_json());
    std::fs::write(out_dir.join(files::METRICS_JSON), json)?;
    let agg_incarnations = tree.children[0].incarnations;
    Ok(Supervision {
        end,
        log,
        agg_incarnations,
        failures,
    })
}

/// Driver options.
#[derive(Debug, Clone, Default)]
pub struct DriverOpts {
    /// Kill origin shard `.0` after `.1` submitted vertices (exit 17); the
    /// driver relaunches it clean.
    pub crash_origin: Option<(usize, usize)>,
}

/// Orchestrates the whole multi-process round: the one supervision loop
/// over child processes of `exe` (normally `current_exe()`), with
/// `opts.crash_origin` as a one-entry schedule. Fails unless every child's
/// last incarnation exited cleanly; the metrics are merged either way.
pub fn run_driver(
    exe: &Path,
    spec: &RoundSpec,
    out_dir: &Path,
    opts: &DriverOpts,
) -> Result<(), NetError> {
    std::fs::create_dir_all(out_dir)?;
    let setup = build_setup(spec)?;
    let schedule = opts.crash_origin.map(|(shard, after)| {
        let args = vec!["--crash-after".to_string(), after.to_string()];
        let armed = vec![(args, format!("crash after {after} submissions"))];
        (
            format!("origin-{shard}"),
            Planned {
                armed,
                ..Planned::default()
            },
        )
    });
    let run = supervise(exe, &setup, out_dir, &schedule.into_iter().collect())?;
    if run.failures.is_empty() {
        Ok(())
    } else {
        Err(NetError::Supervision(run.failures.join("; ")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_respawn_rule() {
        let entry = |args: &str, label: &str| {
            let args = args.split(' ').map(String::from).collect();
            (args, label.to_string())
        };
        // Two armed incarnations and a `SIGKILL`: three planned kills.
        let plan = Planned {
            armed: vec![
                entry("--die-after PushContrib:4", "1st"),
                entry("--die-mid-journal 3", "2nd"),
            ],
            sigkill_at: vec![Duration::from_millis(500)],
        };
        let rule = |failed, written, n| respawn_rule(failed, written, n, &plan);
        // In arming order, then clean, until 3 planned + 4 spare are spent.
        assert_eq!(rule(true, false, 1), Respawn::With(Some(&plan.armed[1])));
        assert!((2..=6).all(|n| rule(true, false, n) == Respawn::With(None)));
        assert_eq!(rule(true, false, 7), Respawn::GiveUp);
        assert_eq!(
            respawn_rule(true, false, 4, &Planned::default()),
            Respawn::GiveUp
        );
        // A clean exit is left be; so is an aggregator that exited nonzero
        // after writing the outcome (a budget refusal), kills left or not.
        assert_eq!(rule(false, false, 1), Respawn::No);
        assert_eq!(rule(true, true, 1), Respawn::No);
    }
}
