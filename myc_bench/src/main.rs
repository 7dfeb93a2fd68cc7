//! The benchmark binary.
//!
//! ```text
//! myc_bench --workload W --seed N --seconds S --trace 0|1   one run, result JSON on the last line
//! myc_bench run   [--seed N] [--seconds S] [--smoke]        every workload, end to end
//! myc_bench trace [--seed N] [--seconds S] [--smoke]        every workload, per layer
//! myc_bench check-repeat [--seed N] [--seconds S] [--smoke] two sets, compared within the bounds
//! myc_bench manifest                                        BENCHMARK.json, from the tables in spec.rs
//! myc_bench aggregator|shard|device|origin|committee ...    a role process of a round (internal)
//! ```

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use myc_bench::harness::json::Json;
use myc_bench::harness::procfs::RoleUsage;
use myc_bench::spec::{self, WORKLOADS};
use myc_bench::workloads::{self, Cfg, Report};
use mycelium_net::cli;

const ROLES: [&str; 5] = ["aggregator", "shard", "device", "origin", "committee"];

/// Exit code of a refused or malformed invocation.
const USAGE: u8 = 2;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().collect();
    let mode = argv.get(1).map(String::as_str).unwrap_or_default();
    if ROLES.contains(&mode) {
        return role_process(mode, &argv[2..]);
    }
    if mode == "manifest" {
        print!("{}", spec::manifest());
        return ExitCode::SUCCESS;
    }
    if let Err(why) = guard_rails() {
        eprintln!("myc_bench: refusing to run: {why}");
        return ExitCode::from(USAGE);
    }
    let parsed = match mode {
        "run" | "trace" | "check-repeat" => Flags::parse(&argv[2..]),
        _ => Flags::parse(&argv[1..]),
    };
    let flags = match parsed {
        Ok(f) => f,
        Err(why) => {
            eprintln!("myc_bench: {why}\n(see the head of src/main.rs for the usage)");
            return ExitCode::from(USAGE);
        }
    };
    match (mode, &flags.workload) {
        ("run", None) => exit_code(run_set(&flags, false).1),
        ("trace", None) => exit_code(run_set(&flags, true).1),
        ("check-repeat", None) => check_repeat(&flags),
        (_, Some(name)) if mode.starts_with("--") => match spec::workload(name) {
            Some(w) => {
                let report = workloads::run(w, &flags.cfg(w.name, flags.trace));
                print_report(&report);
                println!("{}", report.result().line());
                ExitCode::SUCCESS
            }
            None => {
                eprintln!("myc_bench: unknown workload {name:?}");
                ExitCode::from(USAGE)
            }
        },
        _ => {
            eprintln!("myc_bench: nothing to do (see the head of src/main.rs for the usage)");
            ExitCode::from(USAGE)
        }
    }
}

/// Runs one role of a real-process round and leaves this process's
/// usage report beside the round's other artifacts.
fn role_process(role: &str, rest: &[String]) -> ExitCode {
    let started = Instant::now();
    let result = cli::parse_args(rest).and_then(|args| {
        let result = cli::dispatch(role, &args).expect("a role word");
        // Best effort: a round without usage reports still has a result.
        let _ = RoleUsage::of_self(role, started).write(&args.out);
        result
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("myc_bench {role}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The settings every gated number assumes. The benchmark pins one
/// compute thread itself; it refuses an environment that says otherwise.
fn guard_rails() -> Result<(), String> {
    if cfg!(debug_assertions) {
        return Err("this is a debug build; build with --release".into());
    }
    if let Ok(v) = std::env::var("MYC_NO_SIMD") {
        return Err(format!(
            "MYC_NO_SIMD={v} is set; results record the SIMD tier the CPU offers"
        ));
    }
    match std::env::var("MYC_THREADS") {
        Ok(v) if v.trim() != "1" => {
            return Err(format!(
                "MYC_THREADS={v} is set; results are recorded at MYC_THREADS=1"
            ))
        }
        _ => std::env::set_var("MYC_THREADS", "1"),
    }
    Ok(())
}

struct Flags {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut flags = Flags {
            workload: None,
            seed: 7,
            seconds: spec::RUN_SECONDS as f64,
            trace: false,
            smoke: false,
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => flags.workload = Some(value()?.clone()),
                "--seed" => {
                    flags.seed = value()?.parse().map_err(|e| format!("bad --seed: {e}"))?
                }
                "--seconds" => {
                    flags.seconds = value()?
                        .parse()
                        .map_err(|e| format!("bad --seconds: {e}"))?;
                    if !(flags.seconds > 0.0 && flags.seconds <= 600.0) {
                        return Err("--seconds must be in (0, 600]".into());
                    }
                }
                "--trace" => {
                    flags.trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace wants 0 or 1, got {other:?}")),
                    }
                }
                "--smoke" => flags.smoke = true,
                other => return Err(format!("unknown flag {other}")),
            }
        }
        if flags.smoke {
            flags.seconds = flags.seconds.min(1.0);
        }
        Ok(flags)
    }

    fn cfg(&self, workload: &str, trace: bool) -> Cfg {
        let exe = std::env::current_exe().expect("the benchmark's own path");
        Cfg {
            seed: self.seed,
            seconds: self.seconds,
            trace,
            smoke: self.smoke,
            scratch: runs_dir(&exe).join(format!("{workload}-{}", std::process::id())),
            exe,
        }
    }
}

/// Artifacts go beside the executable (`<target>/release/myc_bench_runs/`):
/// inside the checkout, on its file system, and ignored by git.
fn runs_dir(exe: &std::path::Path) -> PathBuf {
    exe.with_file_name("myc_bench_runs")
}

fn environment() -> Json {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    Json::obj([
        ("nproc", Json::Int(cores as u64)),
        ("myc_threads", Json::Int(1)),
        ("simd", Json::str(mycelium_math::simd::active_name())),
        ("profile", Json::str("release")),
        ("transport", Json::str("loopback TCP")),
    ])
}

fn print_report(r: &Report) {
    println!(
        "workload {} (seed {}): {} operations, {} failed",
        r.workload, r.seed, r.attempted, r.failed
    );
    if let Some(w) = r.wall {
        println!(
            "  wall_s per operation: median {} min {} max {} over {} samples",
            w.median, w.min, w.max, w.n
        );
    }
    for m in &r.metrics {
        println!("  {:<40} {:>22} {}", m.name, m.value, m.unit);
    }
    for f in &r.failures {
        println!("  FAILED: {f}");
    }
}

/// Runs every workload once, each in a process of its own as the
/// driver does (a workload's peak memory must not depend on what ran
/// before it); returns the reports and whether all passed.
fn run_set(flags: &Flags, trace: bool) -> (Vec<Report>, bool) {
    println!("environment {}", environment().line());
    let exe = std::env::current_exe().expect("the benchmark's own path");
    let reports: Vec<Report> = WORKLOADS
        .iter()
        .filter_map(|w| {
            let mut run = std::process::Command::new(&exe);
            run.args([
                "--workload",
                w.name,
                "--trace",
                if trace { "1" } else { "0" },
            ])
            .args(["--seed", &flags.seed.to_string()])
            .args(["--seconds", &flags.seconds.to_string()])
            .args(flags.smoke.then_some("--smoke"));
            let stdout = match run.stderr(std::process::Stdio::inherit()).output() {
                Ok(out) => String::from_utf8_lossy(&out.stdout).into_owned(),
                Err(e) => {
                    eprintln!("myc_bench: {} did not start: {e}", w.name);
                    return None;
                }
            };
            let (table, result) = stdout.trim_end().rsplit_once('\n')?;
            println!("{table}");
            Report::parse(w, flags.seed, trace, result)
        })
        .collect();
    let doc = Json::obj([
        ("environment", environment()),
        ("seed", Json::Int(flags.seed)),
        ("trace", Json::Bool(trace)),
        (
            "workloads",
            Json::Arr(
                reports
                    .iter()
                    .map(|r| Json::obj([("name", Json::str(r.workload)), ("result", r.result())]))
                    .collect(),
            ),
        ),
    ]);
    let dir = runs_dir(&std::env::current_exe().expect("own path"));
    let path = dir.join(if trace { "trace.json" } else { "results.json" });
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, doc.pretty())) {
        Ok(()) => println!("written {}", path.display()),
        Err(e) => eprintln!("myc_bench: {} not written: {e}", path.display()),
    }
    let ok = reports.len() == WORKLOADS.len() && reports.iter().all(|r| r.correct);
    (reports, ok)
}

fn exit_code(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Two sets back to back: every end-to-end metric of the second must be
/// within its own bound of the first, so a bound too tight for this
/// host's noise is found here and not by a later change.
fn check_repeat(flags: &Flags) -> ExitCode {
    let (first, a) = run_set(flags, false);
    let (second, b) = run_set(flags, false);
    let mut ok = a && b;
    println!(
        "{:<12} {:<12} {:>12} {:>12} {:>8} {:>6}",
        "workload", "metric", "first", "second", "spread", "bound"
    );
    for (x, y) in first.iter().zip(&second) {
        if x.failed != y.failed {
            println!("{:<12} failed {} then {}", x.workload, x.failed, y.failed);
            ok = false;
        }
        for ((mx, my), e2e) in x.metrics.iter().zip(&y.metrics).zip(&spec::END_TO_END) {
            let spread = (mx.value - my.value).abs() / mx.value.min(my.value);
            let within = spread <= e2e.bound;
            ok &= within;
            println!(
                "{:<12} {:<12} {:>12.5} {:>12.5} {:>7.2}% {:>5.0}%{}",
                x.workload,
                mx.name,
                mx.value,
                my.value,
                spread * 100.0,
                e2e.bound * 100.0,
                if within { "" } else { "  <- beyond its bound" }
            );
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
