//! CPU time and peak resident memory from `/proc`, with `std` alone.
//!
//! Every role process of a real-process round reports what it used in a
//! `rusage-<role>-<pid>.json` file in the round's out directory; the
//! benchmark process reads its own figures, and those of the children it
//! waited for, from the same `/proc` files.

use std::path::Path;
use std::time::Instant;

use super::json::number_after;

/// Kernel clock ticks per second of the times in `/proc/<pid>/stat`.
/// `USER_HZ` is 100 on every Linux port; `std` has no `sysconf` to ask.
const TICKS_PER_SEC: f64 = 100.0;

/// CPU seconds of one process, from `/proc/<pid>/stat`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CpuTimes {
    /// User + system time of the process itself.
    pub own_s: f64,
    /// User + system time of the children it has waited for (and of
    /// theirs, transitively).
    pub children_s: f64,
}

impl CpuTimes {
    /// Own plus waited-for children.
    pub fn total_s(&self) -> f64 {
        self.own_s + self.children_s
    }
}

/// Parses one `/proc/<pid>/stat` line. The second field, `(comm)`, may
/// itself hold spaces and parentheses, so fields are counted from the
/// last `)`.
pub fn parse_stat(stat: &str) -> Option<CpuTimes> {
    let rest = &stat[stat.rfind(')')? + 1..];
    // `rest` starts at field 3 (state); utime, stime, cutime and cstime
    // are fields 14 to 17.
    let ticks: Vec<f64> = rest
        .split_ascii_whitespace()
        .skip(11)
        .take(4)
        .map(|f| f.parse::<u64>().ok().map(|t| t as f64))
        .collect::<Option<_>>()?;
    let [utime, stime, cutime, cstime] = ticks[..] else {
        return None;
    };
    Some(CpuTimes {
        own_s: (utime + stime) / TICKS_PER_SEC,
        children_s: (cutime + cstime) / TICKS_PER_SEC,
    })
}

/// Parses the `VmHWM` (peak resident set) line of `/proc/<pid>/status`,
/// in KiB.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    line.trim().strip_suffix("kB")?.trim().parse().ok()
}

/// This process's CPU times so far (zeros off Linux).
pub fn cpu_times() -> CpuTimes {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_stat(&s))
        .unwrap_or_default()
}

/// This process's peak resident set so far, in MB (0 off Linux).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_vm_hwm_kb(&s))
        .map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// Resets this process's peak-resident-set watermark to its current
/// resident set, so the next [`peak_rss_mb`] covers one operation and
/// not the set-up before it. Where the kernel refuses, the watermark
/// simply keeps covering the whole process.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// What one role process of a round used, as it reports on exit.
#[derive(Debug, Clone, PartialEq)]
pub struct RoleUsage {
    /// `aggregator`, `shard`, `device`, `origin` or `committee`.
    pub role: String,
    /// User + system CPU seconds.
    pub cpu_s: f64,
    /// Peak resident set in MB.
    pub rss_mb: f64,
    /// Process lifetime in seconds.
    pub wall_s: f64,
}

impl RoleUsage {
    /// The usage of this process since `started`.
    pub fn of_self(role: &str, started: Instant) -> Self {
        RoleUsage {
            role: role.to_string(),
            cpu_s: cpu_times().own_s,
            rss_mb: peak_rss_mb(),
            wall_s: started.elapsed().as_secs_f64(),
        }
    }

    /// Writes `rusage-<role>-<pid>.json` into `out_dir`.
    pub fn write(&self, out_dir: &Path) -> std::io::Result<()> {
        let name = format!("rusage-{}-{}.json", self.role, std::process::id());
        let body = format!(
            "{{\"role\": \"{}\", \"cpu_s\": {}, \"rss_mb\": {}, \"wall_s\": {}}}\n",
            self.role, self.cpu_s, self.rss_mb, self.wall_s
        );
        std::fs::write(out_dir.join(name), body)
    }

    /// Parses one report written by [`RoleUsage::write`].
    pub fn parse(text: &str) -> Option<Self> {
        let num = |key: &str| number_after(text, &format!("\"{key}\": "));
        let at = text.find("\"role\": \"")? + 9;
        let role = text[at..].split('"').next()?.to_string();
        Some(RoleUsage {
            role,
            cpu_s: num("cpu_s")?,
            rss_mb: num("rss_mb")?,
            wall_s: num("wall_s")?,
        })
    }

    /// Every report in `out_dir`, in file-name order.
    pub fn read_all(out_dir: &Path) -> std::io::Result<Vec<Self>> {
        let mut paths: Vec<_> = std::fs::read_dir(out_dir)?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("rusage-") && n.ends_with(".json"))
            })
            .collect();
        paths.sort();
        let mut out = Vec::with_capacity(paths.len());
        for p in paths {
            let text = std::fs::read_to_string(&p)?;
            out.push(Self::parse(&text).ok_or_else(|| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("unreadable usage report {}", p.display()),
                )
            })?);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_are_counted_from_the_last_parenthesis() {
        let plain = "4242 (myc_bench) R 1 4242 4242 0 -1 4194304 900 0 0 0 \
                     123 45 600 70 20 0 1 0 1000 1000000 250 18446744073709551615 0 0";
        let t = parse_stat(plain).unwrap();
        assert_eq!(t.own_s, 1.68);
        assert_eq!(t.children_s, 6.7);
        assert_eq!(t.total_s(), 1.68 + 6.7);
        // A comm holding spaces and parentheses must not shift the fields.
        let nasty = "4242 (a) b (c)) d) S 1 4242 4242 0 -1 4194304 900 0 0 0 \
                     123 45 600 70 20 0 1 0 1000 1000000 250 18446744073709551615 0 0";
        assert_eq!(parse_stat(nasty), Some(t));
        assert_eq!(parse_stat("4242 (short) R 1 2 3"), None);
        assert_eq!(parse_stat("no parenthesis at all"), None);
    }

    #[test]
    fn vm_hwm_is_read_in_kib() {
        let status =
            "Name:\tmyc_bench\nVmPeak:\t  300000 kB\nVmHWM:\t   88064 kB\nVmRSS:\t 1000 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(88064));
        assert_eq!(parse_vm_hwm_kb("Name:\tx\nVmRSS:\t 1000 kB\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\t lots kB\n"), None);
    }

    #[test]
    fn role_usage_round_trips_through_its_file() {
        let dir = std::env::temp_dir().join(format!("myc-bench-procfs-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let u = RoleUsage {
            role: "aggregator".into(),
            cpu_s: 1.25,
            rss_mb: 86.5,
            wall_s: 2.625,
        };
        u.write(&dir).unwrap();
        assert_eq!(RoleUsage::read_all(&dir).unwrap(), vec![u]);
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(RoleUsage::parse("{\"role\": \"x\"}"), None);
    }

    #[test]
    fn own_figures_are_readable_on_linux() {
        if cfg!(target_os = "linux") {
            assert!(peak_rss_mb() > 0.0);
            let spin = Instant::now();
            while spin.elapsed().as_millis() < 30 {
                std::hint::black_box(0u64);
            }
            assert!(cpu_times().own_s > 0.0);
        }
    }
}
