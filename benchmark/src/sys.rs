//! What the benchmark asks of the operating system: process and thread
//! CPU time, peak resident memory, pinning the process to one core, and
//! the description of the box a run record carries.

use std::io;
use std::mem::size_of_val;
use std::process::Command;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, OnceLock};
use std::thread::JoinHandle;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// Words of a CPU affinity mask: room for 1024 CPUs, glibc's `cpu_set_t`.
const CPU_MASK_WORDS: usize = 16;

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn sched_setscheduler(pid: i32, policy: i32, param: *const i32) -> i32;
}

/// `SCHED_IDLE` on Linux: runs only when nothing else wants the CPU.
const SCHED_IDLE: i32 = 5;

/// `CLOCK_PROCESS_CPUTIME_ID` and `CLOCK_THREAD_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_clock_s(clock_id: i32) -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `timespec` (two 64-bit fields on
    // 64-bit Linux, the only target this benchmark builds for) that lives
    // across the call, and both clock ids are constants the kernel knows.
    let rc = unsafe { clock_gettime(clock_id, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock_id}) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// User + system CPU seconds consumed so far by every thread of this
/// process, exited ones included: client, reactor and engine workers all
/// count, which is what catches "faster by burning the other core". What
/// [`IdleSpinners`] burn is the harness's, not the program's, and is taken
/// out.
pub fn process_cpu_s() -> f64 {
    cpu_clock_s(CLOCK_PROCESS_CPUTIME_ID) - SPINNER_CPU_NS.load(Ordering::Relaxed) as f64 * 1e-9
}

/// CPU seconds the calling thread alone has consumed so far: what a call
/// costs its caller, whoever else got the core in between.
pub fn thread_cpu_s() -> f64 {
    cpu_clock_s(CLOCK_THREAD_CPUTIME_ID)
}

/// The CPUs the calling thread may run on, ascending.
fn allowed_cpus() -> io::Result<Vec<usize>> {
    let mut mask = [0u64; CPU_MASK_WORDS];
    // SAFETY: `mask` is a writable buffer of exactly the size passed; pid
    // 0 is the calling thread.
    if unsafe { sched_getaffinity(0, size_of_val(&mask), mask.as_mut_ptr()) } != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok((0..CPU_MASK_WORDS * 64)
        .filter(|c| mask[c / 64] >> (c % 64) & 1 == 1)
        .collect())
}

/// Confine the calling thread, and every thread it starts from now on, to
/// `cpu`.
fn pin_this_thread(cpu: usize) -> io::Result<()> {
    let mut mask = [0u64; CPU_MASK_WORDS];
    mask[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `mask` is a readable buffer of exactly the size passed.
    if unsafe { sched_setaffinity(0, size_of_val(&mask), mask.as_ptr()) } != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

/// The CPUs the process could use when [`pin_to_last_cpu`] ran.
static CPUS_AT_START: OnceLock<Vec<usize>> = OnceLock::new();

/// Confine the calling thread, and every thread it starts from now on, to
/// the last CPU it may run on (the first one takes the device interrupts
/// of this VM); returns that CPU. Call it before any thread is spawned.
pub fn pin_to_last_cpu() -> io::Result<usize> {
    let allowed = allowed_cpus()?;
    let cpu = *allowed
        .last()
        .ok_or_else(|| io::Error::other("empty CPU affinity mask"))?;
    CPUS_AT_START.get_or_init(|| allowed);
    pin_this_thread(cpu)?;
    Ok(cpu)
}

/// Move the calling thread from the CPU [`pin_to_last_cpu`] chose to the
/// first one the process could use then, so that it shares no core with
/// the threads left behind. `None`, and nothing moves, when the process
/// was not pinned or has a single CPU.
pub fn move_to_first_cpu() -> io::Result<Option<usize>> {
    match CPUS_AT_START.get().map(Vec::as_slice) {
        Some([first, .., _]) => pin_this_thread(*first).map(|()| Some(*first)),
        _ => Ok(None),
    }
}

/// CPU nanoseconds all [`IdleSpinners`] of this process have burnt.
static SPINNER_CPU_NS: AtomicU64 = AtomicU64::new(0);

/// Arithmetic steps between two looks at the clock and the stop flag:
/// some tens of microseconds, which bounds what [`process_cpu_s`] can miss.
const SPIN_BURST: u64 = 50_000;

/// One `SCHED_IDLE` thread spinning on each CPU the process could use when
/// [`pin_to_last_cpu`] ran, for as long as the value lives.
///
/// A virtual CPU with nothing to run halts, and waking it is the host's
/// business: 50-600 us on this VM, and for minutes at a time several times
/// that, paid by every hand-over to a thread on an otherwise idle core. A
/// CPU that always has an idle-priority spinner never halts, so a wake-up
/// is an ordinary reschedule, and the spinner yields to any real thread at
/// once.
pub struct IdleSpinners {
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

impl IdleSpinners {
    /// Start the spinners; fails, leaving none behind, if a thread cannot
    /// be pinned or demoted (it must never spin at normal priority).
    pub fn start() -> io::Result<IdleSpinners> {
        let cpus = CPUS_AT_START
            .get()
            .ok_or_else(|| io::Error::other("pin the process before starting idle spinners"))?;
        let mut spinners = IdleSpinners {
            stop: Arc::new(AtomicBool::new(false)),
            threads: Vec::new(),
        };
        for &cpu in cpus {
            let stop = spinners.stop.clone();
            let (ready, is_ready) = mpsc::channel();
            spinners.threads.push(std::thread::spawn(move || {
                let demoted = pin_this_thread(cpu).and_then(|()| {
                    // SAFETY: the parameter points at a `sched_param`, one
                    // int that must be 0 for `SCHED_IDLE`; pid 0 is the
                    // calling thread.
                    match unsafe { sched_setscheduler(0, SCHED_IDLE, &0) } {
                        0 => Ok(()),
                        _ => Err(io::Error::last_os_error()),
                    }
                });
                let spin = demoted.is_ok();
                let _ = ready.send(demoted);
                let mut published = 0u64;
                let mut x = 1u64;
                while spin && !stop.load(Ordering::Relaxed) {
                    // Plain arithmetic, not `spin_loop`: a guest pausing in
                    // a tight loop makes the hypervisor step in.
                    for i in 0..SPIN_BURST {
                        x = x.wrapping_mul(6364136223846793005).wrapping_add(i);
                    }
                    std::hint::black_box(x);
                    let burnt = (thread_cpu_s() * 1e9) as u64;
                    SPINNER_CPU_NS.fetch_add(burnt - published, Ordering::Relaxed);
                    published = burnt;
                }
            }));
            is_ready
                .recv()
                .map_err(|e| io::Error::other(e.to_string()))??;
        }
        Ok(spinners)
    }
}

impl Drop for IdleSpinners {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The CPU model string of the first core, or `"unknown"`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .and_then(|rest| rest.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// First line of `cmd args...` on stdout, or `"unknown"` when the command
/// is missing or fails (a driver checkout is not a git repository).
pub fn first_line_of(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Seconds since the Unix epoch, rendered as an ISO-8601 UTC timestamp.
pub fn utc_now() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let (days, rem) = (secs / 86_400, secs % 86_400);
    // Civil-from-days (Howard Hinnant's algorithm), valid for the Unix era.
    let z = days as i64 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = yoe + era * 400 + i64::from(m <= 2);
    format!(
        "{y:04}-{m:02}-{d:02}T{:02}:{:02}:{:02}Z",
        rem / 3600,
        rem % 3600 / 60,
        rem % 60
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clock_advances_with_work() {
        let before = process_cpu_s();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        assert!(process_cpu_s() > before);
    }

    #[test]
    fn thread_clock_counts_only_the_calling_thread() {
        let before = thread_cpu_s();
        std::thread::spawn(|| {
            let mut x = 0u64;
            for i in 0..50_000_000u64 {
                x = x.wrapping_add(std::hint::black_box(i));
            }
            std::hint::black_box(x);
        })
        .join()
        .expect("spinner thread");
        // The spinner burnt tens of milliseconds; this thread only waited.
        assert!(thread_cpu_s() - before < 0.01);
    }

    #[test]
    fn pinning_leaves_one_cpu_and_moving_away_another() {
        // On its own thread, so the test harness's other threads keep
        // their cores.
        std::thread::spawn(|| {
            let before = allowed_cpus().expect("affinity");
            let cpu = pin_to_last_cpu().expect("pin");
            assert_eq!(Some(&cpu), before.last());
            assert_eq!(allowed_cpus().expect("affinity"), vec![cpu]);
            // Threads started afterwards inherit the one CPU ...
            let child = std::thread::spawn(|| {
                let inherited = allowed_cpus().expect("affinity");
                // ... and a client thread can leave it, if there is another.
                let moved = move_to_first_cpu().expect("move");
                (inherited, moved, allowed_cpus().expect("affinity"))
            })
            .join()
            .expect("child thread");
            assert_eq!(child.0, vec![cpu]);
            if before.len() > 1 {
                assert_eq!(child.1, Some(before[0]));
                assert_eq!(child.2, vec![before[0]]);
            } else {
                assert_eq!((child.1, child.2), (None, vec![cpu]));
            }
        })
        .join()
        .expect("pinned thread");
    }

    #[test]
    fn idle_spinners_account_for_their_cpu_time_and_stop() {
        std::thread::spawn(|| {
            pin_to_last_cpu().expect("pin");
            let before = SPINNER_CPU_NS.load(Ordering::Relaxed);
            let spinners = IdleSpinners::start().expect("start idle spinners");
            // Idle priority: on a busy box the first burst may take a while.
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
            while SPINNER_CPU_NS.load(Ordering::Relaxed) == before {
                assert!(std::time::Instant::now() < deadline, "no spinner ever ran");
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            // Dropping joins every spinner; nothing is burnt afterwards.
            drop(spinners);
            let after = SPINNER_CPU_NS.load(Ordering::Relaxed);
            std::thread::sleep(std::time::Duration::from_millis(20));
            assert_eq!(SPINNER_CPU_NS.load(Ordering::Relaxed), after);
        })
        .join()
        .expect("spinner test thread");
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mib() > 0.0);
    }

    #[test]
    fn utc_timestamp_shape() {
        let t = utc_now();
        assert_eq!(t.len(), 20);
        assert!(t.ends_with('Z') && t.as_bytes()[10] == b'T');
    }
}
