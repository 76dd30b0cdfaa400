//! What the host can say about the process: its fingerprint, its peak
//! resident set, and the CPU and memory its children used.
//!
//! Every reading the platform cannot supply is `None` — reported as
//! absent, never as 0.

use serde::Serialize;
use std::path::Path;

/// Who ran a result: the numbers of one host are never compared with a
/// baseline taken on another.
#[derive(Debug, Clone, Serialize)]
pub struct Fingerprint {
    /// Hardware threads available to this process.
    pub hw_threads: usize,
    /// `rustc -V` of the compiler that built the benchmark.
    pub rustc: Option<String>,
    /// Commit of the source tree, when it is a git checkout.
    pub commit: Option<String>,
}

impl Fingerprint {
    /// Fingerprint of this host and build.
    pub fn current() -> Fingerprint {
        Fingerprint {
            hw_threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
            rustc: option_env!("PERFBENCH_RUSTC_VERSION").map(str::to_string),
            commit: git_commit(Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.git"))),
        }
    }
}

/// The commit `HEAD` names, read from the git directory's files (no git
/// process, and nothing outside the checkout is read).
fn git_commit(git_dir: &Path) -> Option<String> {
    let head = std::fs::read_to_string(git_dir.join("HEAD")).ok()?;
    let head = head.trim();
    let hash = match head.strip_prefix("ref: ") {
        None => head.to_string(),
        Some(name) => match std::fs::read_to_string(git_dir.join(name)) {
            Ok(hash) => hash.trim().to_string(),
            Err(_) => std::fs::read_to_string(git_dir.join("packed-refs"))
                .ok()?
                .lines()
                .find_map(|line| {
                    line.strip_suffix(name)?
                        .strip_suffix(' ')
                        .map(str::to_string)
                })?,
        },
    };
    let valid = hash.len() == 40 && hash.chars().all(|c| c.is_ascii_hexdigit());
    valid.then_some(hash)
}

/// Start a fresh resident-set high-water mark for this process
/// (`/proc/self/clear_refs` ← `5`). Returns whether the platform
/// allowed it; without it a peak would carry over from earlier work.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set of this process since the last
/// [`reset_peak_rss`], in MiB (`VmHWM`).
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

/// CPU time and peak resident set from `getrusage`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Usage {
    /// User plus system CPU seconds.
    pub cpu_s: f64,
    /// Peak resident set in MiB. For the children this is the largest
    /// single waited-for child, not a sum.
    pub max_rss_mib: f64,
}

/// Usage of this process (every thread of it).
pub fn self_usage() -> Option<Usage> {
    rusage::get(rusage::SELF)
}

/// Usage of every child this process has waited for.
pub fn children_usage() -> Option<Usage> {
    rusage::get(rusage::CHILDREN)
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
mod rusage {
    use super::Usage;

    pub const SELF: i32 = 0;
    pub const CHILDREN: i32 = -1;

    #[repr(C)]
    struct Timeval {
        sec: i64,
        usec: i64,
    }

    /// `struct rusage` on 64-bit Linux: two timevals, then fourteen
    /// `long` fields, the first of which is `ru_maxrss` in KiB.
    #[repr(C)]
    struct RUsage {
        utime: Timeval,
        stime: Timeval,
        maxrss: i64,
        rest: [i64; 13],
    }

    extern "C" {
        fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    }

    pub fn get(who: i32) -> Option<Usage> {
        let mut usage = RUsage {
            utime: Timeval { sec: 0, usec: 0 },
            stime: Timeval { sec: 0, usec: 0 },
            maxrss: 0,
            rest: [0; 13],
        };
        // SAFETY: `usage` is a live, writable value laid out as the
        // platform's `struct rusage` (the cfg above restricts this module
        // to 64-bit Linux, where every field is 8 bytes), and `who` is
        // one of the two selectors defined above.
        let rc = unsafe { getrusage(who, &mut usage) };
        if rc != 0 {
            return None;
        }
        let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 / 1e6;
        Some(Usage {
            cpu_s: secs(&usage.utime) + secs(&usage.stime),
            max_rss_mib: usage.maxrss as f64 / 1024.0,
        })
    }
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
mod rusage {
    use super::Usage;

    pub const SELF: i32 = 0;
    pub const CHILDREN: i32 = -1;

    pub fn get(_who: i32) -> Option<Usage> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commit_is_read_through_a_symbolic_ref_or_packed_refs() {
        let dir = Path::new(crate::trace::OUT_DIR).join(format!("git-{}", std::process::id()));
        let hash = "0123456789abcdef0123456789abcdef01234567";
        std::fs::create_dir_all(dir.join("refs/heads")).unwrap();
        std::fs::write(dir.join("HEAD"), "ref: refs/heads/main\n").unwrap();
        std::fs::write(dir.join("packed-refs"), format!("{hash} refs/heads/main\n")).unwrap();
        assert_eq!(git_commit(&dir).as_deref(), Some(hash));
        std::fs::write(dir.join("refs/heads/main"), format!("{hash}\n")).unwrap();
        assert_eq!(git_commit(&dir).as_deref(), Some(hash));
        std::fs::write(dir.join("HEAD"), "not a hash\n").unwrap();
        assert_eq!(git_commit(&dir), None);
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(git_commit(&dir), None, "no git directory, no commit");
    }

    #[test]
    fn usage_and_peak_rss_are_readable_on_linux() {
        if cfg!(target_os = "linux") {
            assert!(peak_rss_mib().is_some_and(|mib| mib > 0.0));
            assert!(self_usage().is_some_and(|u| u.cpu_s >= 0.0 && u.max_rss_mib > 0.0));
            assert!(children_usage().is_some());
        }
    }
}
