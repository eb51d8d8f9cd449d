//! Per-thread and per-process CPU time measurement.
//!
//! The paper's scaling figures need the compute time *each rank would take
//! on its own processor*. When simulated ranks timeshare fewer physical
//! cores than there are ranks, wall-clock conflates them — but the kernel
//! still accounts CPU time per thread, so the calling thread's consumed
//! CPU time is the honest per-rank cost. Read from
//! `/proc/thread-self/schedstat` (nanoseconds, first field), falling back
//! to `/proc/thread-self/stat` (utime+stime jiffies at the conventional
//! 100 Hz), and finally to zero on non-Linux systems (callers then fall
//! back to wall-clock). Stage timings that must include worker threads
//! read the whole process's CPU from `/proc/self/stat` instead.

/// CPU seconds consumed by the calling thread so far, or `None` when the
/// kernel interface is unavailable.
///
/// The kernel adds a running thread's current time slice to its
/// schedstat only at a scheduler tick or a context switch, so a thread
/// that reads its own figure can miss up to a tick (several ms) of work.
/// That is noise for a thread timed once over a whole run, but a thread
/// that lives for one short scheduling window would be undercounted
/// several-fold. Yielding first makes the kernel account the slice so
/// far.
pub fn thread_cpu_seconds() -> Option<f64> {
    std::thread::yield_now();
    if let Ok(text) = std::fs::read_to_string("/proc/thread-self/schedstat") {
        if let Some(ns) = text
            .split_whitespace()
            .next()
            .and_then(|f| f.parse::<u64>().ok())
        {
            return Some(ns as f64 / 1e9);
        }
    }
    std::fs::read_to_string("/proc/thread-self/stat")
        .ok()
        .and_then(|text| stat_cpu_seconds(&text))
}

/// CPU seconds (user + system) consumed by the whole process so far —
/// every thread, including threads that have already exited — or `None`
/// when `/proc/self/stat` is unavailable.
pub fn process_cpu_seconds() -> Option<f64> {
    let text = std::fs::read_to_string("/proc/self/stat").ok()?;
    stat_cpu_seconds(&text)
}

/// utime + stime from a `/proc/.../stat` line, in seconds.
fn stat_cpu_seconds(text: &str) -> Option<f64> {
    // Fields 14 and 15 (1-indexed) after the parenthesised comm field
    // are utime and stime in clock ticks; `rest` starts at field 3
    // ("state"), so they sit at indices 11 and 12.
    let mut fields = text.rsplit(')').next()?.split_whitespace().skip(11);
    let ut: u64 = fields.next()?.parse().ok()?;
    let st: u64 = fields.next()?.parse().ok()?;
    const TICKS_PER_SEC: f64 = 100.0; // Linux USER_HZ
    Some((ut + st) as f64 / TICKS_PER_SEC)
}

/// A scope timer over the calling thread's CPU time, with wall-clock
/// fallback when thread accounting is unavailable.
#[derive(Debug)]
pub struct ThreadCpuTimer {
    cpu_start: Option<f64>,
    wall_start: std::time::Instant,
}

impl ThreadCpuTimer {
    /// Start timing the calling thread.
    pub fn start() -> ThreadCpuTimer {
        ThreadCpuTimer {
            cpu_start: thread_cpu_seconds(),
            wall_start: std::time::Instant::now(),
        }
    }

    /// CPU seconds since `start` (wall seconds when unsupported).
    pub fn elapsed(&self) -> f64 {
        match (self.cpu_start, thread_cpu_seconds()) {
            (Some(a), Some(b)) => (b - a).max(0.0),
            _ => self.wall_start.elapsed().as_secs_f64(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_grows_with_work() {
        let timer = ThreadCpuTimer::start();
        // Burn a measurable amount of CPU.
        let mut acc = 0u64;
        for i in 0..20_000_000u64 {
            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
        }
        std::hint::black_box(acc);
        let t = timer.elapsed();
        assert!(t > 0.0, "timer must advance, got {t}");
        assert!(t < 60.0, "implausibly large CPU time {t}");
    }

    #[test]
    fn sleeping_consumes_no_cpu() {
        // Only meaningful when thread CPU accounting is available.
        if thread_cpu_seconds().is_none() {
            return;
        }
        let timer = ThreadCpuTimer::start();
        std::thread::sleep(std::time::Duration::from_millis(120));
        let t = timer.elapsed();
        assert!(t < 0.05, "sleep should not count as CPU time, got {t}");
    }

    #[test]
    fn cpu_time_is_monotone() {
        if let (Some(a), Some(b)) = (thread_cpu_seconds(), thread_cpu_seconds()) {
            assert!(b >= a);
        }
    }
}
