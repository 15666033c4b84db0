//! One-shot `glitch-cli` invocations: the argv surface users call.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

/// A finished invocation.
pub struct Invocation {
    /// Host wall time from spawn to exit, in seconds.
    pub wall_s: f64,
    /// Standard output.
    pub stdout: String,
}

impl Invocation {
    /// The last non-empty stdout line (the `--json` report, or the
    /// metrics dump when `--metrics-json` is given).
    pub fn last_line(&self) -> &str {
        self.stdout
            .lines()
            .rev()
            .find(|l| !l.trim().is_empty())
            .unwrap_or_default()
    }
}

/// The `glitch-cli` binary under test.
#[derive(Debug, Clone)]
pub struct Cli {
    binary: PathBuf,
}

impl Cli {
    /// Wraps the binary at `binary`.
    ///
    /// # Errors
    ///
    /// Returns a message when the file does not exist.
    pub fn new(binary: &Path) -> Result<Cli, String> {
        if !binary.is_file() {
            return Err(format!(
                "glitch-cli binary not found at {}",
                binary.display()
            ));
        }
        Ok(Cli {
            binary: binary.to_path_buf(),
        })
    }

    /// Runs `glitch-cli <args>` to completion and times it.
    ///
    /// # Errors
    ///
    /// Returns a message (with stderr) when the process cannot start or
    /// exits unsuccessfully.
    pub fn run(&self, args: &[String]) -> Result<Invocation, String> {
        let start = Instant::now();
        let output = Command::new(&self.binary)
            .args(args)
            .stdin(Stdio::null())
            .output()
            .map_err(|e| format!("cannot run {}: {e}", self.binary.display()))?;
        let wall_s = start.elapsed().as_secs_f64();
        if !output.status.success() {
            return Err(format!(
                "glitch-cli {} failed ({}): {}",
                args.join(" "),
                output.status,
                String::from_utf8_lossy(&output.stderr).trim()
            ));
        }
        Ok(Invocation {
            wall_s,
            stdout: String::from_utf8_lossy(&output.stdout).into_owned(),
        })
    }
}

#[repr(C)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

/// Peak resident set size in MiB of this process (`children = false`) or
/// of the largest reaped child process (`children = true`).
pub fn peak_rss_mb(children: bool) -> f64 {
    const RUSAGE_SELF: i32 = 0;
    const RUSAGE_CHILDREN: i32 = -1;
    let mut usage = RUsage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    let who = if children {
        RUSAGE_CHILDREN
    } else {
        RUSAGE_SELF
    };
    // SAFETY: `usage` is a writable struct laid out as the C `struct
    // rusage` on 64-bit Linux (two timevals, then fourteen longs).
    let rc = unsafe { getrusage(who, &mut usage) };
    if rc != 0 {
        return 0.0;
    }
    usage.maxrss as f64 / 1024.0
}
