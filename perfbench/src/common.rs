//! What every workload shares: run settings, the seeded generator, and
//! the per-tenant tally of requests, launches and failures.

use crate::daemon::Daemon;
use crate::trace::Span;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Settings of one workload run.
#[derive(Clone)]
pub struct Ctx {
    /// The `guardiand` binary.
    pub daemon_bin: PathBuf,
    /// Workload seed.
    pub seed: u64,
    /// Record spans.
    pub traced: bool,
}

impl Ctx {
    /// Spawn this run's daemon.
    pub fn daemon(&self, wire: crate::daemon::Wire, flags: &[&str]) -> Result<Daemon, String> {
        Daemon::spawn(&self.daemon_bin, wire, flags)
    }
}

/// splitmix64: a small, fully specified generator, so that a seed gives
/// the same inputs on every host.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    /// Generator for `seed`, split by `stream` so tenants differ.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next();
        r
    }

    /// Next 64 random bits.
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// Uniform in `(0, 1]`.
    pub fn unit(&mut self) -> f64 {
        ((self.next() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }
}

/// The measured window of a run: requests that start before `warm_until`
/// warm caches and are not recorded; none start after `deadline`.
#[derive(Clone, Copy)]
pub struct Window {
    /// Time origin of every timestamp.
    pub origin: Instant,
    /// End of the warm-up.
    pub warm_until: Instant,
    /// No request starts after this.
    pub deadline: Instant,
}

/// How long a run warms up and then measures.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    /// Warm-up, not recorded.
    pub warm: Duration,
    /// Measured time.
    pub measure: Duration,
}

impl Plan {
    /// The window of this plan, starting now.
    pub fn start(&self) -> Window {
        let origin = Instant::now();
        Window {
            origin,
            warm_until: origin + self.warm,
            deadline: origin + self.warm + self.measure,
        }
    }
}

impl Window {
    /// Seconds since the origin.
    pub fn secs(&self, t: Instant) -> f64 {
        t.duration_since(self.origin).as_secs_f64()
    }

    /// Whether a request starting now is past the deadline.
    pub fn over(&self) -> bool {
        Instant::now() >= self.deadline
    }

    /// Whether a request started at `t` is recorded.
    pub fn measured(&self, t: Instant) -> bool {
        t >= self.warm_until
    }
}

/// One tenant thread's record of a run.
#[derive(Default)]
pub struct Tally {
    /// Operations attempted (requests, lifecycles, checks).
    pub attempted: u64,
    /// Operations that failed or failed a check.
    pub failed: u64,
    /// Completion time (s) of each measured request.
    pub done_s: Vec<f64>,
    /// Verified launches of each measured request.
    pub launches: Vec<u64>,
    /// Latency (µs) of each measured request.
    pub latency_us: Vec<f64>,
    /// Client-side `cuda_device_synchronize` time (µs) at each sync.
    pub sync_us: Vec<f64>,
    /// First failure, for the report.
    pub first_error: Option<String>,
    /// Spans, when traced.
    pub spans: Vec<Span>,
    /// A best-effort tenant: its launches count, its requests do not.
    pub background: bool,
}

impl Tally {
    /// A tally of one operation that failed.
    pub fn failure(what: impl Into<String>) -> Tally {
        let mut t = Tally {
            attempted: 1,
            ..Tally::default()
        };
        t.fail(what);
        t
    }

    /// Record a failed operation.
    pub fn fail(&mut self, what: impl Into<String>) {
        self.failed += 1;
        if self.first_error.is_none() {
            self.first_error = Some(what.into());
        }
    }

    /// Record a measured request.
    pub fn request(&mut self, w: &Window, end: Instant, latency: Duration, launches: u64) {
        self.done_s.push(w.secs(end));
        self.launches.push(launches);
        self.latency_us.push(latency.as_secs_f64() * 1e6);
    }

    /// Requests per second: events after the first over the time from the
    /// first to the last, so the request in flight at the deadline adds
    /// no truncation error.
    pub fn request_rate(&self) -> f64 {
        crate::stats::rate(&self.done_s)
    }

    /// Verified launches per second over the same span as
    /// [`Tally::request_rate`].
    pub fn launch_rate(&self) -> f64 {
        match self.done_s.as_slice() {
            [first, .., last] if last > first => {
                self.launches[1..].iter().sum::<u64>() as f64 / (last - first)
            }
            _ => 0.0,
        }
    }
}

/// Start tracing on this thread when the run is traced.
pub fn trace_thread(ctx: &Ctx, w: &Window) {
    if ctx.traced {
        crate::trace::start(w.origin);
    }
}

/// Wait until `t`; returns how late the caller is past `t`. Sleeps until
/// shortly before `t` and spins the rest, since a sleep alone overshoots
/// by the timer slack plus a wake-up, which would be charged to every
/// request of an open loop.
pub fn wait_until(t: Instant) -> Duration {
    const SPIN: Duration = Duration::from_micros(200);
    let now = Instant::now();
    if t > now + SPIN {
        std::thread::sleep(t - now - SPIN);
    }
    while Instant::now() < t {
        std::hint::spin_loop();
    }
    Instant::now().saturating_duration_since(t)
}

/// Read little-endian u32 words.
pub fn words(bytes: &[u8]) -> Vec<u32> {
    bytes
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect()
}

/// Write little-endian u32 words.
pub fn bytes_of(words: &[u32]) -> Vec<u8> {
    words.iter().flat_map(|w| w.to_le_bytes()).collect()
}
