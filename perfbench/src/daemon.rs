//! A `guardiand` child process per workload.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Pids of the daemons alive now, for the watchdog.
static LIVE: Mutex<Vec<u32>> = Mutex::new(Vec::new());

/// Exit with an error if the run is still going after `limit`, killing
/// every daemon first, so that a hang anywhere cannot outlive the run's
/// time limit or leave a daemon behind.
pub fn watchdog(limit: Duration) {
    std::thread::spawn(move || {
        std::thread::sleep(limit);
        eprintln!("perfbench: still running after {limit:?}; giving up");
        let pids = LIVE.lock().map(|l| l.clone()).unwrap_or_default();
        for pid in pids {
            let _ = Command::new("kill").arg("-9").arg(pid.to_string()).status();
        }
        std::process::exit(3);
    });
}

/// Which endpoint the daemon serves tenants on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Wire {
    /// Unix domain socket.
    Uds,
    /// Shared-memory rings, handshaken over a Unix socket.
    Shm,
}

/// A running daemon; killed and reaped on drop.
pub struct Daemon {
    child: Child,
    /// Tenant endpoint, relative to the run directory.
    pub socket: PathBuf,
    /// Endpoint kind.
    pub wire: Wire,
}

impl Daemon {
    /// Spawn `bin` serving one endpoint with `flags`, and wait until it
    /// prints its readiness line.
    pub fn spawn(bin: &Path, wire: Wire, flags: &[&str]) -> Result<Daemon, String> {
        static NEXT: AtomicU32 = AtomicU32::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let socket = PathBuf::from(format!("g{}-{n}.sock", std::process::id()));
        let _ = std::fs::remove_file(&socket);
        let endpoint = match wire {
            Wire::Uds => "--uds",
            Wire::Shm => "--shm",
        };
        let mut child = Command::new(bin)
            .arg(endpoint)
            .arg(&socket)
            .args(flags)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?;
        LIVE.lock().expect("daemon registry lock").push(child.id());
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut line = String::new();
        let ready = BufReader::new(stdout).read_line(&mut line);
        let daemon = Daemon {
            child,
            socket,
            wire,
        };
        match ready {
            Ok(_) if line.starts_with("guardiand: listening") => Ok(daemon),
            Ok(_) => Err(format!("guardiand did not become ready: {line:?}")),
            Err(e) => Err(format!("guardiand did not become ready: {e}")),
        }
    }

    /// The daemon's peak resident set so far, in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.child.id());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| format!("{path}: no VmHWM"))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Ok(mut live) = LIVE.lock() {
            live.retain(|&pid| pid != self.child.id());
        }
        let _ = std::fs::remove_file(&self.socket);
    }
}
