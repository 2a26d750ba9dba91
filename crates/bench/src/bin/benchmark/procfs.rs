//! Per-thread and per-process OS accounting from `/proc`.
//!
//! The serving layers run on named threads the benchmark does not own
//! (`cocktail-serve-reactor`, `cocktail-serve-shard-*`). Linux truncates
//! thread names to 15 bytes, which makes both read `cocktail-serve-`, so
//! threads are told apart by when they appear: the benchmark lists the
//! process's tasks before and after starting each component.

use std::collections::BTreeSet;
use std::ops::Sub;

/// `/proc/<pid>/task/<tid>/schedstat`: time on CPU, time runnable but
/// waiting for a CPU, and timeslices.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedStat {
    /// Nanoseconds spent running.
    pub cpu_ns: u64,
    /// Nanoseconds spent waiting on a run queue.
    pub runq_ns: u64,
}

/// Parses a schedstat line (`cpu_ns runq_ns timeslices`).
pub fn parse_schedstat(text: &str) -> Option<SchedStat> {
    let mut it = text.split_whitespace().map(str::parse::<u64>);
    Some(SchedStat {
        cpu_ns: it.next()?.ok()?,
        runq_ns: it.next()?.ok()?,
    })
}

/// CPU migrations from a task's `sched` file (`se.nr_migrations`). The
/// task's `io` file would count syscalls, but only `read`/`write`-family
/// ones, and the standard library's sockets use `recv`/`send`, which it
/// does not count.
pub fn parse_sched_migrations(text: &str) -> Option<u64> {
    text.lines()
        .find_map(|l| l.strip_prefix("se.nr_migrations"))
        .and_then(|rest| rest.trim_start_matches([' ', ':']).trim().parse().ok())
}

/// The fields of a `status` file the benchmark reads.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Status {
    /// Voluntary plus involuntary context switches.
    pub ctxsw: u64,
    /// Peak resident set size in kB (`VmHWM`; process-wide).
    pub vm_hwm_kb: u64,
}

/// Parses a `status` file; missing fields read as 0.
pub fn parse_status(text: &str) -> Status {
    let field = |name: &str| {
        text.lines()
            .find_map(|l| l.strip_prefix(name))
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(0)
    };
    Status {
        ctxsw: field("voluntary_ctxt_switches:") + field("nonvoluntary_ctxt_switches:"),
        vm_hwm_kb: field("VmHWM:"),
    }
}

/// `utime + stime` in clock ticks from a `stat` line. The command name
/// may contain spaces and parentheses, so fields are counted after the
/// last `)`.
pub fn parse_stat_cpu_ticks(text: &str) -> Option<u64> {
    let rest = &text[text.rfind(')')? + 1..];
    // after the name: state is field 3, utime 14, stime 15
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// Cumulative accounting of one thread.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ThreadSample {
    /// Nanoseconds on CPU.
    pub cpu_ns: u64,
    /// Nanoseconds waiting for a CPU.
    pub runq_ns: u64,
    /// Moves between CPUs.
    pub migrations: u64,
    /// Context switches.
    pub ctxsw: u64,
}

impl Sub for ThreadSample {
    type Output = ThreadSample;

    fn sub(self, rhs: ThreadSample) -> ThreadSample {
        ThreadSample {
            cpu_ns: self.cpu_ns.saturating_sub(rhs.cpu_ns),
            runq_ns: self.runq_ns.saturating_sub(rhs.runq_ns),
            migrations: self.migrations.saturating_sub(rhs.migrations),
            ctxsw: self.ctxsw.saturating_sub(rhs.ctxsw),
        }
    }
}

impl std::ops::Add for ThreadSample {
    type Output = ThreadSample;

    fn add(self, rhs: ThreadSample) -> ThreadSample {
        ThreadSample {
            cpu_ns: self.cpu_ns + rhs.cpu_ns,
            runq_ns: self.runq_ns + rhs.runq_ns,
            migrations: self.migrations + rhs.migrations,
            ctxsw: self.ctxsw + rhs.ctxsw,
        }
    }
}

fn sample_dir(dir: &str) -> Option<ThreadSample> {
    let read = |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).ok();
    let sched = parse_schedstat(&read("schedstat")?)?;
    Some(ThreadSample {
        cpu_ns: sched.cpu_ns,
        runq_ns: sched.runq_ns,
        migrations: read("sched")
            .as_deref()
            .and_then(parse_sched_migrations)
            .unwrap_or(0),
        ctxsw: parse_status(&read("status")?).ctxsw,
    })
}

/// Accounting of thread `tid` of this process (`None` once it exited).
pub fn sample_thread(tid: u32) -> Option<ThreadSample> {
    sample_dir(&format!("/proc/self/task/{tid}"))
}

/// Accounting of the calling thread.
pub fn sample_self() -> ThreadSample {
    sample_dir("/proc/thread-self").unwrap_or_default()
}

/// Sum of [`sample_thread`] over `tids` (exited threads count as zero).
pub fn sample_threads(tids: &BTreeSet<u32>) -> ThreadSample {
    tids.iter()
        .filter_map(|&t| sample_thread(t))
        .fold(ThreadSample::default(), |a, b| a + b)
}

/// The ids of this process's live threads.
pub fn thread_ids() -> BTreeSet<u32> {
    std::fs::read_dir("/proc/self/task")
        .map(|dir| {
            dir.filter_map(|e| e.ok()?.file_name().to_str()?.parse().ok())
                .collect()
        })
        .unwrap_or_default()
}

/// Machine-wide CPU ticks from the `cpu` line of `/proc/stat`: all ticks,
/// and the ticks a hypervisor gave to other guests while this one's
/// virtual CPUs were runnable (steal).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CpuTicks {
    /// Sum of every column.
    pub total: u64,
    /// The steal column.
    pub steal: u64,
}

/// Parses the aggregate `cpu` line of `/proc/stat`.
pub fn parse_cpu_ticks(text: &str) -> Option<CpuTicks> {
    let line = text.lines().find(|l| l.starts_with("cpu "))?;
    let cols: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .map(str::parse)
        .collect::<Result<_, _>>()
        .ok()?;
    Some(CpuTicks {
        total: cols.iter().sum(),
        steal: *cols.get(7)?,
    })
}

/// The machine's CPU ticks now.
pub fn cpu_ticks() -> CpuTicks {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|t| parse_cpu_ticks(&t))
        .unwrap_or_default()
}

/// Process CPU time (user + system, every thread ever run) in seconds.
/// `/proc` reports it in `USER_HZ` ticks, which Linux fixes at 100.
pub fn process_cpu_s() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|t| parse_stat_cpu_ticks(&t))
        .map_or(0.0, |ticks| ticks as f64 / 100.0)
}

/// Peak resident set size of the process in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .map(|t| parse_status(&t).vm_hwm_kb as f64 / 1024.0)
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_schedstat() {
        assert_eq!(
            parse_schedstat("504591 1459081 1\n"),
            Some(SchedStat {
                cpu_ns: 504_591,
                runq_ns: 1_459_081
            })
        );
        assert_eq!(parse_schedstat("12"), None);
        assert_eq!(parse_schedstat("x y z"), None);
    }

    #[test]
    fn parses_sched_migrations() {
        let text = "cat (13067, #threads: 1)\n\
                    -------------------------------------------------------------------\n\
                    se.exec_start                                :       3310292.221742\n\
                    se.nr_migrations                             :                   17\n\
                    nr_switches                                  :                    1\n";
        assert_eq!(parse_sched_migrations(text), Some(17));
        assert_eq!(parse_sched_migrations("nr_switches : 1\n"), None);
    }

    #[test]
    fn parses_status() {
        let text = "Name:\tbenchmark\nVmHWM:\t    1792 kB\nVmRSS:\t    1700 kB\n\
                    voluntary_ctxt_switches:\t7\nnonvoluntary_ctxt_switches:\t2\n";
        assert_eq!(
            parse_status(text),
            Status {
                ctxsw: 9,
                vm_hwm_kb: 1792
            }
        );
        assert_eq!(parse_status("Name:\tx\n"), Status::default());
    }

    #[test]
    fn parses_stat_ticks_past_odd_names() {
        let text = "4331 (we (ird) name) R 4324 4331 4324 0 -1 4194304 79 0 0 0 \
                    25 17 0 0 20 0 1 0 235283 2703360 283";
        assert_eq!(parse_stat_cpu_ticks(text), Some(42));
        assert_eq!(parse_stat_cpu_ticks("no parens"), None);
    }

    #[test]
    fn parses_cpu_ticks() {
        let text = "cpu  190809 0 4712 311964 2466 0 663 374 0 0\n\
                    cpu0 90569 0 2947 158933 2441 0 398 229 0 0\n";
        let a = parse_cpu_ticks(text).expect("cpu line");
        assert_eq!(a.steal, 374);
        assert_eq!(a.total, 190_809 + 4712 + 311_964 + 2466 + 663 + 374);
        assert_eq!(parse_cpu_ticks("intr 1 2 3\n"), None);
    }

    #[test]
    fn live_process_is_readable() {
        assert!(!thread_ids().is_empty());
        // the kernel folds a running thread's time in at ticks and
        // switches, so give it some to fold
        let t = std::time::Instant::now();
        while t.elapsed() < std::time::Duration::from_millis(30) {
            std::hint::black_box(t.elapsed());
        }
        std::thread::yield_now();
        assert!(sample_self().cpu_ns > 0);
        assert!(peak_rss_mb() > 0.0);
    }
}
