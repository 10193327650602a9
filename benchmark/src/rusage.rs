//! Host memory: the peak resident set of this process and of each
//! child process the suite workloads start.

use std::io;
use std::os::unix::process::ExitStatusExt;
use std::process::{Child, ExitStatus};

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("tia-benchmark reads memory use through Linux's /proc and wait4 (64-bit layout)");

/// This process's peak resident set (`VmHWM`) in KiB.
pub fn self_peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

/// How a child process ended and what it used.
#[derive(Debug, Clone, Copy)]
pub struct ChildUsage {
    /// Its exit status.
    pub status: ExitStatus,
    /// Its peak resident set in KiB.
    pub max_rss_kb: u64,
}

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// Linux `struct rusage` on 64-bit targets: two `timeval`s, then
/// fourteen `long`s of which `ru_maxrss` is the first. Only the kernel
/// writes the other fields; they exist to give the struct its layout.
#[repr(C)]
#[allow(dead_code)]
struct RUsage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut RUsage) -> i32;
}

/// Waits for `child` and returns its exit status together with its own
/// peak resident set, which `std`'s `wait` does not report.
///
/// # Errors
///
/// Returns the OS error if the child cannot be waited for.
pub fn wait_child(child: Child) -> io::Result<ChildUsage> {
    let pid = i32::try_from(child.id()).map_err(|_| io::Error::other("pid out of range"))?;
    let mut status = 0i32;
    let mut usage = RUsage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss: 0,
        rest: [0; 13],
    };
    loop {
        // SAFETY: `pid` names a child this process spawned and has not
        // reaped (`Child` only reaps in `wait`/`try_wait`, which take
        // it by reference and are never called on it); `status` and
        // `usage` are live, writable and laid out as the kernel's
        // `int` and 64-bit `struct rusage`.
        let r = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if r == pid {
            break;
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    drop(child);
    Ok(ChildUsage {
        status: ExitStatus::from_raw(status),
        max_rss_kb: u64::try_from(usage.maxrss).unwrap_or(0),
    })
}
