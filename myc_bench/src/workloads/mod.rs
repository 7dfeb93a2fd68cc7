//! The workloads and the closed loop that measures them.

pub mod direct;
pub mod net;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use crate::attrib::RoundFacts;
use crate::harness::json::{number_after, Json};
use crate::harness::procfs::{cpu_times, peak_rss_mb, reset_peak_rss};
use crate::harness::stats::{median, summarize, Summary};
use crate::spec::{self, Kind};

/// What one benchmark run is asked to do.
#[derive(Debug, Clone)]
pub struct Cfg {
    /// Seed of every input (population, keys, identities, noise).
    pub seed: u64,
    /// How long the closed loop measures.
    pub seconds: f64,
    /// Per-layer run (spans, unit costs, round artifacts) instead of the
    /// end-to-end one.
    pub trace: bool,
    /// Tiny populations, for the smoke test.
    pub smoke: bool,
    /// The executable role processes are spawned from.
    pub exe: PathBuf,
    /// The directory this run's artifacts go to; wiped per operation.
    pub scratch: PathBuf,
}

impl Cfg {
    /// The population a workload of `full` devices runs at.
    pub fn population(&self, full: usize) -> usize {
        if self.smoke {
            24
        } else {
            full
        }
    }
}

/// Per-layer metrics by name; a layer the workload does not touch
/// stays 0.
#[derive(Debug, Default)]
pub struct Layers(BTreeMap<String, f64>);

impl Layers {
    /// Records `value` under `name`, which must be a declared layer
    /// metric.
    pub fn set(&mut self, name: &str, value: f64) {
        assert!(
            spec::PER_LAYER.iter().any(|m| m.name == name),
            "undeclared per-layer metric {name}"
        );
        self.0.insert(name.to_string(), value);
    }

    /// The recorded value, 0 when the layer was not touched.
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// One workload: set-up from a seed, one checked operation, and the
/// per-layer view of the same operation.
pub trait Workload: Sized {
    /// What distinguishes the workloads this type runs.
    type Shape;

    /// Builds every input from `cfg.seed`.
    fn set_up(shape: &Self::Shape, cfg: &Cfg) -> Result<Self, String>;

    /// Runs one operation and checks its output. Returns the largest
    /// peak resident set among the operation's child processes, in MB
    /// (0 when it has none).
    fn op(&mut self) -> Result<f64, String>;

    /// Fills in the per-layer metrics this workload can observe.
    fn trace(&mut self, cfg: &Cfg, out: &mut Layers) -> Result<Traced, String>;
}

/// What a traced workload hands on to the unit costs and the attribution.
#[derive(Debug, Default)]
pub struct Traced {
    /// A sealed round certificate, when the workload has one.
    pub certificate: Option<Vec<u8>>,
    /// The counts of its real-process round, when it ran one.
    pub round: Option<RoundFacts>,
}

/// One metric of a report.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Declared name.
    pub name: &'static str,
    /// Declared unit.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

/// What one run measured.
#[derive(Debug, Clone)]
pub struct Report {
    /// Workload name.
    pub workload: &'static str,
    /// Seed of the inputs.
    pub seed: u64,
    /// Every operation's output was checked and none failed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations whose output was wrong or that did not finish.
    pub failed: u64,
    /// End-to-end metrics, or per-layer ones for a trace run.
    pub metrics: Vec<Metric>,
    /// Wall-clock seconds per operation (end-to-end runs).
    pub wall: Option<Summary>,
    /// Why operations failed, one line each.
    pub failures: Vec<String>,
}

impl Report {
    /// Reads back the result line of a run of `workload` (see
    /// [`Report::result`]).
    pub fn parse(workload: &spec::Workload, seed: u64, trace: bool, line: &str) -> Option<Self> {
        let declared: Vec<(&'static str, &'static str)> = if trace {
            spec::PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
        } else {
            spec::END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
        };
        let metrics = declared
            .into_iter()
            .map(|(name, unit)| {
                let value = number_after(line, &format!("\"{name}\": {{\"value\": "))?;
                Some(Metric { name, unit, value })
            })
            .collect::<Option<Vec<_>>>()?;
        Some(Report {
            workload: workload.name,
            seed,
            correct: line.contains("\"correct\": true"),
            attempted: number_after(line, "\"attempted\": ")? as u64,
            failed: number_after(line, "\"failed\": ")? as u64,
            metrics,
            wall: None,
            failures: Vec::new(),
        })
    }

    /// The result object a run prints as its last line.
    pub fn result(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Int(self.attempted.max(1))),
            ("failed", Json::Int(self.failed)),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|m| {
                    let value = [("value", Json::Num(m.value)), ("unit", Json::str(m.unit))];
                    (m.name, Json::obj(value))
                })),
            ),
        ])
    }
}

/// `setup_s` is the median of this many set-ups before the loop ...
const SETUPS_BEFORE: usize = 5;
/// ... and, where a set-up takes less than this many seconds, ...
const CHEAP_SETUP_S: f64 = 0.1;
/// ... of this many more after every operation: the machine's speed
/// drifts within a run, so set-up time is sampled over the same stretch
/// of it as the operations are.
const SETUPS_PER_OP: usize = 4;

/// Runs `workload` as `cfg` asks.
pub fn run(workload: &spec::Workload, cfg: &Cfg) -> Report {
    match workload.kind {
        Kind::Direct(shape) => measure::<direct::Direct>(workload, &shape, cfg),
        Kind::Net(shape) => measure::<net::NetRound>(workload, &shape, cfg),
        Kind::Recover(shape) => measure::<net::Recover>(workload, &shape, cfg),
    }
}

fn measure<W: Workload>(workload: &spec::Workload, shape: &W::Shape, cfg: &Cfg) -> Report {
    let mut report = Report {
        workload: workload.name,
        seed: cfg.seed,
        correct: false,
        attempted: 0,
        failed: 0,
        metrics: Vec::new(),
        wall: None,
        failures: Vec::new(),
    };
    let _ = std::fs::remove_dir_all(&cfg.scratch);

    // Set-up, several times over: the last state is the one measured.
    let timed_set_up = |setup_s: &mut Vec<f64>| {
        let t = Instant::now();
        let state = W::set_up(shape, cfg);
        setup_s.push(t.elapsed().as_secs_f64());
        state
    };
    let mut setup_s = Vec::new();
    let mut state = None;
    for _ in 0..SETUPS_BEFORE {
        drop(state.take());
        match timed_set_up(&mut setup_s) {
            Ok(s) => state = Some(s),
            Err(e) => {
                report.attempted = 1;
                report.failed = 1;
                report.failures.push(format!("set-up failed: {e}"));
                return report;
            }
        }
    }
    let mut state = state.expect("at least one set-up");
    let cheap_setup = median(&setup_s) < CHEAP_SETUP_S;

    if cfg.trace {
        let mut layers = Layers::default();
        report.attempted = 1;
        let traced = state.trace(cfg, &mut layers).and_then(|traced| {
            crate::units::measure(cfg, traced.certificate.as_deref(), &mut layers)?;
            if let Some(facts) = &traced.round {
                crate::attrib::attribute(facts, &mut layers);
            }
            Ok(())
        });
        if let Err(e) = traced {
            report.failed = 1;
            report.failures.push(e);
        }
        report.correct = report.failed == 0;
        report.metrics = spec::PER_LAYER
            .iter()
            .map(|m| Metric {
                name: m.name,
                unit: m.unit,
                value: layers.get(m.name),
            })
            .collect();
        let _ = std::fs::remove_dir_all(&cfg.scratch);
        return report;
    }

    // The closed loop: one operation at a time, the next one only after
    // the previous one was checked. The first operation warms caches and
    // lazy tables and is not counted.
    if let Err(e) = state.op() {
        report.failures.push(format!("warm-up: {e}"));
    }
    let (mut wall, mut rss) = (Vec::new(), Vec::new());
    let mut cpu_s = 0.0;
    let started = Instant::now();
    let min_ops = if cfg.smoke { 2 } else { 3 };
    while report.attempted < min_ops || started.elapsed().as_secs_f64() < cfg.seconds {
        reset_peak_rss();
        let cpu_before = cpu_times().total_s();
        let t = Instant::now();
        let result = state.op();
        let secs = t.elapsed().as_secs_f64();
        cpu_s += cpu_times().total_s() - cpu_before;
        report.attempted += 1;
        match result {
            Ok(children_rss_mb) => {
                wall.push(secs);
                rss.push(peak_rss_mb().max(children_rss_mb));
            }
            Err(e) => {
                report.failed += 1;
                report.failures.push(e);
            }
        }
        if cheap_setup {
            for _ in 0..SETUPS_PER_OP {
                if let Err(e) = timed_set_up(&mut setup_s) {
                    report.failures.push(format!("set-up failed: {e}"));
                }
            }
        }
    }
    // CPU time comes in clock ticks of 10 ms: the mean over the
    // operations resolves finer than any one of them.
    let cpu_s = cpu_s / report.attempted as f64;
    let _ = std::fs::remove_dir_all(&cfg.scratch);

    let (Some(wall), Some(rss), Some(setup)) =
        (summarize(&wall), summarize(&rss), summarize(&setup_s))
    else {
        return report;
    };
    report.correct = report.failed == 0 && report.failures.is_empty();
    report.wall = Some(wall);
    let value = |name: &str| -> f64 {
        match name {
            "wall_s" => wall.median,
            "cpu_s" => cpu_s,
            "peak_rss_mb" => rss.median,
            "setup_s" => setup.median,
            other => unreachable!("undeclared end-to-end metric {other}"),
        }
    };
    report.metrics = spec::END_TO_END
        .iter()
        .map(|m| Metric {
            name: m.name,
            unit: m.unit,
            value: value(m.name),
        })
        .collect();
    report
}
