//! `net_hub` / `net_sharded` / `agg_recover`: one certified round
//! through real processes over encrypted loopback TCP, and the replay of
//! the journal such a round leaves behind.
//!
//! The benchmark process is the round's driver: it passes its own
//! executable to `run_driver`, and `main` forwards the role words to
//! `mycelium_net::cli::dispatch`.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use mycelium_cert::{extract_cert_hex, verify_bytes};
use mycelium_net::journal::Journal;
use mycelium_net::metrics::NetMetrics;
use mycelium_net::round::{
    build_setup, decode_outcome, files, run_driver, AggState, DriverOpts, RoundSetup, RoundSpec,
};
use mycelium_query::eval::{evaluate, PlainResult};

use super::{Cfg, Layers, Traced, Workload};
use crate::harness::procfs::RoleUsage;

/// The round the net workloads run: Q4 with proofs, two device
/// processes and one origin process, so that with the aggregator at most
/// about three processes are busy on two cores.
pub fn round_spec(seed: u64, n: usize, agg_shards: usize) -> RoundSpec {
    RoundSpec {
        seed,
        n,
        query: "Q4".into(),
        device_shards: 2,
        origin_shards: 1,
        agg_shards,
        with_proofs: true,
        // The watchdog: a round that hangs ends as a failed operation.
        // Every role carries the same deadline, so no child outlives it.
        round_timeout: Duration::from_secs(100),
        ..RoundSpec::default()
    }
}

/// Size and topology of a net workload.
#[derive(Debug, Clone, Copy)]
pub struct NetShape {
    /// Population size.
    pub n: usize,
    /// Aggregation-plane intake shards (1 = the single hub).
    pub agg_shards: usize,
}

/// Everything a finished round left in its out directory.
pub struct RoundArtifacts {
    /// Merged transport counters of every process.
    pub metrics: NetMetrics,
    /// What each role process used.
    pub roles: Vec<RoleUsage>,
    /// Bytes of every journal partition.
    pub wal_bytes: u64,
    /// The sealed certificate's canonical bytes.
    pub certificate: Vec<u8>,
}

/// Checks a finished round's artifacts: the outcome decodes to the
/// oracle-exact result and the certificate verifies offline.
pub fn check_round(out_dir: &Path, oracle: &PlainResult) -> Result<RoundArtifacts, String> {
    let read = |name: &str| {
        std::fs::read(out_dir.join(name)).map_err(|e| format!("{name} unreadable: {e}"))
    };
    let outcome = decode_outcome(&read(files::OUTCOME)?)
        .map_err(|e| format!("outcome.bin does not decode: {e}"))?
        .map_err(|e| format!("round ended in a typed failure: {e}"))?;
    if outcome.exact != *oracle {
        return Err("released result differs from the plaintext oracle".into());
    }
    let cert_json = String::from_utf8(read(files::CERT_JSON)?).map_err(|e| e.to_string())?;
    let certificate = extract_cert_hex(&cert_json).ok_or("certificate artifact has no hex")?;
    let verdict = verify_bytes(&certificate);
    if !verdict.is_valid() {
        return Err(format!("certificate rejected: {verdict}"));
    }
    let metrics = NetMetrics::decode(&read(files::METRICS_MERGED)?)
        .map_err(|e| format!("merged metrics do not decode: {e}"))?;
    let mut wal_bytes = 0;
    for entry in std::fs::read_dir(out_dir).map_err(|e| e.to_string())? {
        let entry = entry.map_err(|e| e.to_string())?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.starts_with("journal") && name.ends_with(".bin") {
            wal_bytes += entry.metadata().map_err(|e| e.to_string())?.len();
        }
    }
    let roles = RoleUsage::read_all(out_dir).map_err(|e| e.to_string())?;
    Ok(RoundArtifacts {
        metrics,
        roles,
        wal_bytes,
        certificate,
    })
}

/// Set-up state of `net_hub` and `net_sharded`.
pub struct NetRound {
    spec: RoundSpec,
    setup: Arc<RoundSetup>,
    oracle: PlainResult,
    exe: PathBuf,
    out_dir: PathBuf,
}

impl NetRound {
    /// The shared set-up the round derives from its spec.
    pub fn setup(&self) -> &Arc<RoundSetup> {
        &self.setup
    }

    /// The plaintext result every round of this spec must release.
    pub fn oracle(&self) -> &PlainResult {
        &self.oracle
    }

    /// Where the round's artifacts go.
    pub fn out_dir(&self) -> &Path {
        &self.out_dir
    }

    /// Contributions every round of this spec carries.
    pub fn contributions(&self) -> usize {
        self.setup.works.iter().map(|w| w.requests.len()).sum()
    }

    /// Records in the journals the last round left, every partition
    /// opened under the binding its writer used.
    pub fn wal_records(&self) -> Result<usize, String> {
        let mut journals = vec![(
            files::JOURNAL.to_string(),
            self.spec.coordinator_binding_digest(),
        )];
        if self.spec.agg_shards > 1 {
            for s in 0..self.spec.agg_shards {
                journals.push((
                    files::shard_journal(s),
                    self.spec.shard_binding_digest(s as u32),
                ));
            }
        }
        let mut records = 0;
        for (name, binding) in journals {
            let (_, recs) = Journal::open(&self.out_dir.join(&name), &binding)
                .map_err(|e| format!("{name}: {e}"))?;
            records += recs.len();
        }
        Ok(records)
    }

    /// Runs one round into a wiped out directory (a stale journal must
    /// never be replayed into a later round) and checks what it left.
    pub fn round(&self) -> Result<RoundArtifacts, String> {
        let _ = std::fs::remove_dir_all(&self.out_dir);
        std::fs::create_dir_all(&self.out_dir).map_err(|e| e.to_string())?;
        run_driver(&self.exe, &self.spec, &self.out_dir, &DriverOpts::default())
            .map_err(|e| format!("driver failed: {e}"))?;
        check_round(&self.out_dir, &self.oracle)
    }
}

impl Workload for NetRound {
    type Shape = NetShape;

    fn set_up(shape: &NetShape, cfg: &Cfg) -> Result<Self, String> {
        let spec = round_spec(cfg.seed, cfg.population(shape.n), shape.agg_shards);
        let setup = Arc::new(build_setup(&spec).map_err(|e| e.to_string())?);
        let oracle = evaluate(
            &setup.query,
            &setup.plan.analysis,
            &setup.params.schema,
            &setup.pop,
        );
        Ok(NetRound {
            spec,
            setup,
            oracle,
            exe: cfg.exe.clone(),
            out_dir: cfg.scratch.clone(),
        })
    }

    fn op(&mut self) -> Result<f64, String> {
        let art = self.round()?;
        Ok(art.roles.iter().map(|r| r.rss_mb).fold(0.0, f64::max))
    }

    fn trace(&mut self, cfg: &Cfg, out: &mut Layers) -> Result<Traced, String> {
        let (facts, certificate) = crate::attrib::trace_rounds(self, cfg, out)?;
        Ok(Traced {
            certificate: Some(certificate),
            round: Some(facts),
        })
    }
}

/// Set-up state of `agg_recover`: the sealed journal of one hub round.
pub struct Recover {
    setup: Arc<RoundSetup>,
    journal: PathBuf,
    journal_bytes: u64,
    certificate: Vec<u8>,
}

impl Workload for Recover {
    type Shape = NetShape;

    fn set_up(shape: &NetShape, cfg: &Cfg) -> Result<Self, String> {
        let round = NetRound::set_up(shape, cfg)?;
        let journal = round.out_dir.join(files::JOURNAL);
        let art = round.round()?;
        Ok(Recover {
            setup: round.setup,
            journal_bytes: std::fs::metadata(&journal)
                .map_err(|e| e.to_string())?
                .len(),
            journal,
            certificate: art.certificate,
        })
    }

    fn op(&mut self) -> Result<f64, String> {
        let st = AggState::recover(Arc::clone(&self.setup), &self.journal)
            .map_err(|e| format!("replay failed: {e}"))?;
        if !st.is_finished() {
            return Err("replayed aggregator is not finished".into());
        }
        if st.certificate() != Some(&self.certificate[..]) {
            return Err("replayed certificate differs from the sealed one".into());
        }
        drop(st);
        let len = std::fs::metadata(&self.journal)
            .map_err(|e| e.to_string())?
            .len();
        if len != self.journal_bytes {
            return Err(format!(
                "replay changed the journal: {} -> {len} bytes",
                self.journal_bytes
            ));
        }
        Ok(0.0)
    }

    fn trace(&mut self, _cfg: &Cfg, _out: &mut Layers) -> Result<Traced, String> {
        // Replay is one call; its layers are the unit costs every trace
        // run reports (`net.journal_replay_mb_s`, `zkp.verify_us`, codec).
        Ok(Traced {
            certificate: Some(self.certificate.clone()),
            round: None,
        })
    }
}
