//! The round's process tree — the one launcher ([`RoundTree`]) and the one
//! restart mechanism ([`Supervised`]) — and the ordinary driver over them.

use std::io::BufRead;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::time::Instant;

use super::clients::HubClient;
use super::spec::{build_setup, files, role, write_metrics, RoundSetup, RoundSpec, PARK};
use crate::error::NetError;
use crate::metrics::NetMetrics;
use crate::proto::NetMsg;

/// A supervised child process: spawn, non-blocking crash detection, and
/// budgeted respawn. This is the one restart mechanism in the transport
/// plane — the round driver's origin watchdog and the chaos supervisor
/// both go through it.
pub struct Supervised {
    /// Role label used in supervision messages (`origin-1`, …).
    pub name: String,
    exe: PathBuf,
    child: Child,
    piped: bool,
    respawn_args: Vec<String>,
    budget: u32,
    done: bool,
}

impl Supervised {
    /// Spawns `exe args...` (stdout piped if `piped`) with the
    /// single-threaded compute-plane setting every round child uses.
    pub fn spawn(exe: &Path, name: &str, args: Vec<String>, piped: bool) -> Result<Self, NetError> {
        let child = Self::launch(exe, &args, piped)?;
        Ok(Supervised {
            name: name.to_string(),
            exe: exe.to_path_buf(),
            child,
            piped,
            respawn_args: Vec::new(),
            budget: 0,
            done: false,
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

    /// Arms automatic respawn: a crashed (nonzero-exit) child is
    /// relaunched with `args`, at most `budget` times.
    pub fn with_respawn(mut self, args: Vec<String>, budget: u32) -> Self {
        self.respawn_args = args;
        self.budget = budget;
        self
    }

    /// Reads the `LISTENING <addr>` banner from a piped server child
    /// and keeps draining the pipe so the child can never block on
    /// stdout.
    pub fn read_banner(&mut self) -> Result<SocketAddr, NetError> {
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

    /// Non-blocking exit probe of the current incarnation.
    pub fn try_exit(&mut self) -> Result<Option<ExitStatus>, NetError> {
        Ok(self.child.try_wait()?)
    }

    /// Replaces the current incarnation (killing it if still alive)
    /// with a fresh launch under different arguments. The chaos
    /// supervisor uses this to arm each server incarnation with the
    /// next scheduled kill.
    pub fn respawn_with_args(&mut self, args: Vec<String>) -> Result<(), NetError> {
        let _ = self.child.kill();
        let _ = self.child.wait();
        self.child = Self::launch(&self.exe, &args, self.piped)?;
        self.done = false;
        Ok(())
    }

    /// Delivers `SIGKILL` to a still-running child and reaps it.
    /// Returns whether there was anything to kill.
    pub fn kill(&mut self) -> Result<bool, NetError> {
        if self.done || self.child.try_wait()?.is_some() {
            return Ok(false);
        }
        self.child.kill()?;
        self.child.wait()?;
        Ok(true)
    }

    /// One watchdog poll: respawns a crashed child within its budget.
    /// An exited child's status is collected by [`Supervised::wait`].
    pub fn watch(&mut self) -> Result<(), NetError> {
        if self.done {
            return Ok(());
        }
        let Some(status) = self.child.try_wait()? else {
            return Ok(());
        };
        if status.success() || self.budget == 0 {
            self.done = true;
            return Ok(());
        }
        self.budget -= 1;
        eprintln!(
            "driver: {} exited with {status}, respawning once",
            self.name
        );
        self.child = Self::launch(&self.exe, &self.respawn_args, self.piped)?;
        Ok(())
    }

    /// Blocks until the current incarnation exits (cached status if it
    /// already has).
    pub fn wait(&mut self) -> Result<ExitStatus, NetError> {
        Ok(self.child.wait()?)
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
pub(crate) struct ChildArgs {
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
    pub fn of(&self, name: &str, extra: Vec<String>) -> Vec<String> {
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
pub(crate) struct RoundTree {
    /// The children's command lines (for respawns under new arguments).
    pub cmd: ChildArgs,
    /// The aggregator's banner address, which every other child dials.
    pub addr: SocketAddr,
    /// The journaled servers: the aggregator (hub or coordinator)
    /// first, then the intake shards of a sharded layout — which
    /// publish their own addresses via `shard-N.addr` files that device
    /// and origin clients wait on, so everyone can start concurrently.
    pub servers: Vec<Supervised>,
    /// Device shards, origin shards and committee members.
    pub clients: Vec<Supervised>,
}

impl RoundTree {
    /// Spawns the whole tree, the aggregator first: its stdout announces
    /// the bound port. `first(name)` gives a child's extra first-launch
    /// arguments and how often [`Supervised::watch`] may respawn a
    /// crashed incarnation without them.
    pub fn launch(
        exe: &Path,
        setup: &RoundSetup,
        out_dir: &Path,
        first: impl Fn(&str) -> (Vec<String>, u32),
    ) -> Result<Self, NetError> {
        let spec = &setup.spec;
        let mut tail = spec.to_args();
        tail.extend(["--out".to_string(), out_dir.display().to_string()]);
        let mut cmd = ChildArgs { tail, addr: None };
        let spawn = |cmd: &ChildArgs, name: &str, piped: bool| -> Result<Supervised, NetError> {
            let (extra, budget) = first(name);
            let child = Supervised::spawn(exe, name, cmd.of(name, extra), piped)?;
            Ok(child.with_respawn(cmd.of(name, Vec::new()), budget))
        };
        let mut agg = spawn(&cmd, "aggregator", true)?;
        let addr = agg.read_banner()?;
        cmd.addr = Some(addr);
        let mut servers = vec![agg];
        if spec.agg_shards > 1 {
            for s in 0..spec.agg_shards {
                servers.push(spawn(&cmd, &format!("shard-{s}"), false)?);
            }
        }
        let clients = client_names(spec, setup.committee_size)
            .iter()
            .map(|name| spawn(&cmd, name, false))
            .collect::<Result<_, _>>()?;
        Ok(RoundTree {
            cmd,
            addr,
            servers,
            clients,
        })
    }
}

/// Driver options.
#[derive(Debug, Clone, Default)]
pub struct DriverOpts {
    /// Kill origin shard `.0` after `.1` submitted vertices (exit 17);
    /// the watchdog respawns it once.
    pub crash_origin: Option<(usize, usize)>,
}

/// Orchestrates the whole multi-process round: spawns the aggregator,
/// device/origin shards, and committee members as child processes of
/// `exe` (normally `current_exe()`), watches for crashed origins and
/// respawns each once (through the shared [`RoundTree`] launcher and
/// `Supervised` restart mechanism the chaos supervisor also uses), waits
/// for completion, and merges all metrics files into `NET_round.json`.
pub fn run_driver(
    exe: &Path,
    spec: &RoundSpec,
    out_dir: &Path,
    opts: &DriverOpts,
) -> Result<(), NetError> {
    std::fs::create_dir_all(out_dir)?;
    let setup = build_setup(spec)?;
    let crash = opts
        .crash_origin
        .map(|(shard, after)| (format!("origin-{shard}"), after));
    let mut tree = RoundTree::launch(exe, &setup, out_dir, |name| {
        // Only origins are respawned, once; the armed one is told to
        // crash itself on its first launch.
        let crash_args = match &crash {
            Some((victim, after)) if victim == name => {
                vec!["--crash-after".to_string(), after.to_string()]
            }
            _ => Vec::new(),
        };
        (crash_args, name.starts_with("origin-") as u32)
    })?;

    // Watchdog + status poll until the aggregator reports Finished.
    let mut driver = HubClient::new(&setup, role::DRIVER, tree.addr, out_dir);
    let started = Instant::now();
    let finished = loop {
        if started.elapsed() >= spec.round_timeout {
            break false;
        }
        // Respawn crashed origins (nonzero exit before completion).
        for cp in tree.clients.iter_mut() {
            cp.watch()?;
        }
        // The aggregator holds the poll for [`PARK`] or until the round
        // is over, so an answered poll is followed by the next at once.
        match driver.request_msg(&setup, &NetMsg::PullStatus) {
            Ok(NetMsg::Finished) => break true,
            Ok(_) => {}
            // The aggregator may be briefly unreachable while saturated;
            // the client already retried, so just keep polling.
            Err(_) => std::thread::sleep(PARK),
        }
    };

    // Drain every child — shards, then clients — then the aggregator
    // itself.
    let mut failures: Vec<String> = Vec::new();
    let (agg, shards) = tree.servers.split_first_mut().expect("the aggregator");
    for cp in shards.iter_mut().chain(&mut tree.clients).chain([agg]) {
        let status = cp.wait()?;
        if !status.success() {
            failures.push(format!("{} exited with {status}", cp.name));
        }
    }
    if !finished {
        failures.push("driver status poll never saw Finished".into());
    }

    // Merge all metrics files (the driver's own included).
    write_metrics(out_dir, "driver", &driver.metrics())?;
    let mut merged = NetMetrics::default();
    let mut entries: Vec<PathBuf> = std::fs::read_dir(out_dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("metrics-") && n.ends_with(".bin"))
        })
        .collect();
    entries.sort();
    for path in entries {
        let bytes = std::fs::read(&path)?;
        merged.merge(&NetMetrics::decode(&bytes)?);
    }
    std::fs::write(out_dir.join(files::METRICS_MERGED), merged.encode())?;
    std::fs::write(out_dir.join(files::METRICS_JSON), merged.to_json(0) + "\n")?;

    if failures.is_empty() {
        Ok(())
    } else {
        Err(NetError::Supervision(failures.join("; ")))
    }
}
