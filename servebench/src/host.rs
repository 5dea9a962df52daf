//! The host side of a run: counters read from `/proc` (process CPU time,
//! peak resident set size, CPU steal) and the idle spinners.

use std::fs;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Linux reports `/proc` CPU times in `USER_HZ` ticks, fixed at 100 by the
/// kernel ABI on every architecture the workspace builds for.
const TICKS_PER_S: f64 = 100.0;

/// User + system CPU seconds consumed so far by this process, all threads
/// (fields 14 and 15 of `/proc/self/stat`).
pub fn process_cpu_s() -> f64 {
    let stat = read("/proc/self/stat");
    // The command name (field 2) may contain spaces; fields after it are
    // counted from the closing parenthesis, starting at field 3 (`state`).
    let rest = &stat[stat.rfind(')').map_or(0, |i| i + 1)..];
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| f.get(i).and_then(|v| v.parse::<u64>().ok()).unwrap_or(0);
    (ticks(11) + ticks(12)) as f64 / TICKS_PER_S
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    read("/proc/self/status")
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// Aggregate CPU time counters from the first line of `/proc/stat`:
/// `(steal, total)` in ticks.
#[derive(Debug, Clone, Copy)]
pub struct CpuTimes {
    steal: u64,
    total: u64,
}

impl CpuTimes {
    /// Reads the current host-wide counters.
    pub fn now() -> Self {
        let stat = read("/proc/stat");
        let line = stat.lines().next().unwrap_or("");
        // user nice system idle iowait irq softirq steal (guest time is
        // already included in user and nice).
        let v: Vec<u64> = line
            .split_whitespace()
            .skip(1)
            .take(8)
            .map(|x| x.parse().unwrap_or(0))
            .collect();
        Self {
            steal: v.get(7).copied().unwrap_or(0),
            total: v.iter().sum(),
        }
    }

    /// Share of host CPU time stolen by the hypervisor since `earlier`.
    pub fn steal_frac_since(&self, earlier: &CpuTimes) -> f64 {
        let total = self.total.saturating_sub(earlier.total);
        if total == 0 {
            return 0.0;
        }
        self.steal.saturating_sub(earlier.steal) as f64 / total as f64
    }
}

fn read(path: &str) -> String {
    fs::read_to_string(path).unwrap_or_default()
}

/// Puts the calling thread under `SCHED_FIFO` at the lowest real-time
/// priority; returns whether the kernel allowed it (it needs
/// `CAP_SYS_NICE`).
///
/// The open loop's sender and receiver share two CPUs with the server. At
/// normal priority a waking client thread can wait for a server thread's
/// time slice, and that wait lands in the measured latency, which is timed
/// from the scheduled send: on a 2-vCPU host it put the generator's own p99
/// lag near 2 ms. A real-time client thread runs as soon as it wakes, and
/// it only copies one frame per wake-up, so the server loses next to
/// nothing to it.
pub fn realtime_thread() -> bool {
    #[repr(C)]
    struct SchedParam {
        sched_priority: i32,
    }
    extern "C" {
        fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
    }
    const SCHED_FIFO: i32 = 1;
    let param = SchedParam { sched_priority: 1 };
    // SAFETY: `sched_setscheduler` is the C library's; pid 0 is the calling
    // thread, and `param` is a valid `struct sched_param` for the call.
    unsafe { sched_setscheduler(0, SCHED_FIFO, &param) == 0 }
}

/// Keeps every CPU busy at the lowest scheduling priority while the
/// benchmark runs, so a CPU never halts between requests.
///
/// On a virtual machine a halted vCPU that the server wakes waits for the
/// hypervisor to schedule it again, and that wait (reported as steal)
/// varies with other tenants' load: without spinners, `open_rps` p50 moved
/// between 1.1 and 3.6 ms over ten runs on a shared 2-vCPU KVM host. A
/// `SCHED_IDLE` spinner yields to any runnable thread of the benchmark, and
/// runs in its own process, so it adds nothing to `cpu_ms_per_req`.
pub struct IdleSpinners {
    children: Vec<Child>,
    mode: &'static str,
}

/// Longest a spinner runs even if its parent hangs (a run ends within 180 s).
const SPIN_CAP: Duration = Duration::from_secs(300);

impl IdleSpinners {
    /// Starts one spinner per CPU, under `SCHED_IDLE` (`chrt --idle 0`), or
    /// else at nice 19; without either tool, none.
    pub fn start() -> Self {
        let n = std::thread::available_parallelism().map_or(1, |n| n.get());
        let (Ok(exe), parent) = (std::env::current_exe(), std::process::id().to_string()) else {
            return Self::none();
        };
        let wrappers: [(&'static str, &[&str]); 2] = [
            ("SCHED_IDLE", &["chrt", "--idle", "0"]),
            ("nice 19", &["nice", "-n", "19"]),
        ];
        for (mode, wrapper) in wrappers {
            let mut s = Self {
                children: Vec::new(),
                mode,
            };
            for _ in 0..n {
                let child = Command::new(wrapper[0])
                    .args(&wrapper[1..])
                    .arg(&exe)
                    .args(["--spin", &parent])
                    .stdin(Stdio::null())
                    .stdout(Stdio::null())
                    .stderr(Stdio::null())
                    .spawn();
                match child {
                    Ok(c) => s.children.push(c),
                    Err(_) => break,
                }
            }
            // A wrapper that cannot set the policy exits at once.
            std::thread::sleep(Duration::from_millis(50));
            if s.children.len() == n
                && s.children
                    .iter_mut()
                    .all(|c| matches!(c.try_wait(), Ok(None)))
            {
                return s;
            }
        }
        Self::none()
    }

    fn none() -> Self {
        Self {
            children: Vec::new(),
            mode: "none",
        }
    }

    /// How the spinners run: `SCHED_IDLE`, `nice 19` or `none`.
    pub fn mode(&self) -> &'static str {
        self.mode
    }
}

impl Drop for IdleSpinners {
    fn drop(&mut self) {
        for c in &mut self.children {
            // Best effort: a spinner that already exited cannot be killed.
            drop(c.kill());
            drop(c.wait());
        }
    }
}

/// A spinner's body: burns CPU until its parent `parent` is gone or
/// [`SPIN_CAP`] has passed, then exits.
pub fn spin(parent: u32) -> ! {
    let t0 = Instant::now();
    let mut x = 0u64;
    while std::os::unix::process::parent_id() == parent && t0.elapsed() < SPIN_CAP {
        for _ in 0..100_000 {
            x = std::hint::black_box(x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1));
        }
    }
    std::process::exit(0)
}
