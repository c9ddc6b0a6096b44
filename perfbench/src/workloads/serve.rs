//! `serve`: a latency-class tenant and a best-effort tenant over uds, on
//! a GPU with kernel-slice preemption and a QoS in-flight budget.
//!
//! The latency tenant is an open loop: requests (a 2×32 `fill` launch,
//! a sync and a read-back) arrive at seeded Poisson times at
//! [`REQUESTS_PER_S`], and each is timed from when it was due, so a
//! stall also charges the requests queued behind it. The best-effort
//! tenant sends clumps of [`CLUMP`] 32×32 `fill` launches at
//! [`CLUMPS_PER_S`], well below saturation.
//!
//! Why that background load: on a 2-core host one clump keeps the
//! simulated GPU busy for roughly 30 ms, so 8 clumps/s is about a quarter
//! of device time, the load of a device shared with a batch tenant that
//! is far from saturated. Near saturation the open loop measures queueing
//! and not Guardian: with the background tenant at ~90% of device time,
//! latency requests at 200/s queued for a median of ~170 s from their due
//! time. That overload regime is recorded in this crate's README for a
//! later workload; it is not what this one measures.

use super::{api_of, join_all, timed_setups, Run};
use crate::common::{bytes_of, trace_thread, wait_until, words, Ctx, Plan, Rng, Tally, Window};
use crate::daemon::{Daemon, Wire};
use crate::report::Metric;
use crate::stats::{median, percentile, slo_pct, Summary};
use crate::tenant::{connect, disconnect};
use crate::trace::{self, span_res};
use cuda_rt::{ArgPack, CudaApi};
use gpu_sim::LaunchConfig;
use guardian::{GrdLib, QosClass};
use std::time::{Duration, Instant};

/// Mean arrival rate of latency requests.
pub const REQUESTS_PER_S: f64 = 400.0;
/// Launches per best-effort clump.
pub const CLUMP: usize = 64;
/// Best-effort clumps offered per second.
pub const CLUMPS_PER_S: f64 = 8.0;
/// A latency request meets its objective within this time from due.
pub const SLO_US: f64 = 10_000.0;
/// Daemon flags: deferred acks let the best-effort tenant pipeline its
/// clump, the budget gates it while the latency tenant is active, and
/// slicing lets latency kernels take SMs mid-kernel.
const FLAGS: &[&str] = &["--deferred", "--qos-budget", "8", "--slice-cycles", "2000"];

/// u32 slots of the latency tenant's buffer.
const LAT_SLOTS: usize = 128;
/// u32 slots of the best-effort tenant's buffer.
const BG_SLOTS: usize = 2048;

/// The latency tenant's launch.
pub fn latency_cfg() -> LaunchConfig {
    LaunchConfig::linear(2, 32)
}

/// The best-effort tenant's launch.
pub fn bg_cfg() -> LaunchConfig {
    LaunchConfig::linear(32, 32)
}

struct Setup {
    daemon: Daemon,
    latency: GrdLib,
    bg: GrdLib,
}

fn setup(ctx: &Ctx) -> Result<Setup, String> {
    let daemon = ctx.daemon(Wire::Uds, FLAGS)?;
    let fatbin = guardiand::tenant_fatbin();
    let tenant = |qos| -> Result<GrdLib, String> {
        let mut lib = connect(&daemon, 1 << 20, qos).map_err(|e| format!("serve connect: {e}"))?;
        lib.register_fatbin(&fatbin)
            .map_err(|e| format!("serve register: {e}"))?;
        Ok(lib)
    };
    let latency = tenant(QosClass::Latency)?;
    if latency.qos() != QosClass::Latency {
        return Err("serve: latency class not granted".into());
    }
    let bg = tenant(QosClass::BestEffort)?;
    Ok(Setup {
        daemon,
        latency,
        bg,
    })
}

/// What the open-loop generator saw, besides the tally.
#[derive(Default)]
struct Generator {
    /// Requests due inside the measured window.
    sent: usize,
    /// How late each measured request was sent, ms.
    late_ms: Vec<f64>,
}

pub fn run(ctx: &Ctx, setups: usize, plan: Plan) -> Result<Run, String> {
    let (setup_s, s) = timed_setups(setups, || setup(ctx))?;
    let w = plan.start();
    let (lat, mut bg) = std::thread::scope(|scope| {
        let lat = scope.spawn(|| latency_tenant(ctx, w, s.latency));
        let bg = scope.spawn(|| bg_tenant(ctx, w, s.bg));
        let bg = join_all(vec![bg]).pop().expect("one tally");
        let lat = lat.join().unwrap_or_else(|_| {
            let t = Tally::failure("latency tenant panicked");
            (t, Generator::default())
        });
        (lat, bg)
    });
    let (lat, gen) = lat;
    let rss_mb = s.daemon.peak_rss_mb()?;
    bg.background = true;

    let latency = Summary::of(&lat.latency_us, 99.0);
    let mut late = gen.late_ms.clone();
    late.sort_by(f64::total_cmp);
    let quarter = gen.late_ms.len() / 4;
    let growth = if quarter > 0 {
        median(&gen.late_ms[gen.late_ms.len() - quarter..]) - median(&gen.late_ms[..quarter])
    } else {
        f64::NAN
    };
    let busy_s: f64 = bg.latency_us.iter().sum::<f64>() / 1e6;
    let span_s = match bg.done_s.as_slice() {
        [first, .., last] => last - first,
        _ => f64::NAN,
    };
    let extra = vec![
        Metric::new("serve_p50_us", latency.p50, "us", latency.n),
        Metric::new("serve_p99_us", latency.tail, "us", latency.n)
            .note(format!("p{}", latency.tail_pct)),
        Metric::new(
            "serve_slo_pct",
            slo_pct(&lat.latency_us, gen.sent, SLO_US),
            "%",
            gen.sent,
        )
        .note(format!("within {} ms of due", SLO_US / 1e3)),
        Metric::new(
            "bg_launch_rate",
            bg.launch_rate(),
            "launches/s",
            bg.done_s.len(),
        )
        .note(format!("{CLUMPS_PER_S} clumps/s offered")),
        Metric::new(
            "serve.gen_late_ms",
            percentile(&late, 99.0),
            "ms",
            late.len(),
        )
        .note("p99 of send time past due"),
        Metric::new("serve.backlog_growth_ms", growth, "ms", late.len())
            .note("median lateness, last quarter minus first"),
        Metric::new("bg.busy_pct", busy_s * 100.0 / span_s, "%", bg.done_s.len())
            .note("clump service time over the run"),
    ];
    Ok(Run {
        setup_s,
        tallies: vec![lat, bg],
        rss_mb,
        extra,
    })
}

fn latency_tenant(ctx: &Ctx, w: Window, lib: GrdLib) -> (Tally, Generator) {
    trace_thread(ctx, &w);
    let mut t = Tally::default();
    let mut gen = Generator::default();
    let mut api = api_of(ctx, lib);
    let mut rng = Rng::new(ctx.seed, 100);
    let bytes = (4 * LAT_SLOTS) as u64;
    let mut shadow = vec![0u32; LAT_SLOTS];
    t.attempted += 1;
    let buf = match api
        .cuda_malloc(bytes)
        .and_then(|b| api.cuda_memcpy_h2d(b, &bytes_of(&shadow)).map(|()| b))
    {
        Ok(b) => b,
        Err(e) => {
            t.fail(format!("latency malloc: {e}"));
            return (t, gen);
        }
    };
    let mut due = w.origin;
    let mut req = 0;
    loop {
        due += Duration::from_secs_f64(-rng.unit().ln() / REQUESTS_PER_S);
        if due >= w.deadline {
            break;
        }
        let offset = rng.below(64) as usize;
        let n = 1 + rng.below(64) as u32;
        let late = wait_until(due);
        let measured = w.measured(due);
        if measured {
            gen.sent += 1;
            gen.late_ms.push(late.as_secs_f64() * 1e3);
        }
        req += 1;
        trace::set_request(req);
        t.attempted += 1;
        let args = ArgPack::new().ptr(buf + 4 * offset as u64).u32(n).finish();
        let r = (|| -> Result<Vec<u8>, String> {
            span_res("serve.launch_call", || {
                api.cuda_launch_kernel("fill", latency_cfg(), &args, Default::default())
            })
            .map_err(|e| format!("latency launch: {e}"))?;
            let ts = Instant::now();
            span_res("serve.sync_wait", || api.cuda_device_synchronize())
                .map_err(|e| format!("latency sync: {e}"))?;
            if measured {
                t.sync_us.push(ts.elapsed().as_secs_f64() * 1e6);
            }
            api.cuda_memcpy_d2h(buf, bytes)
                .map_err(|e| format!("latency read-back: {e}"))
        })();
        for i in 0..(n as usize).min(64) {
            shadow[offset + i] = i as u32;
        }
        match r {
            Ok(b) if words(&b) == shadow => {}
            Ok(_) => {
                t.fail(format!("latency read-back differs at request {req}"));
                break;
            }
            Err(e) => {
                t.fail(e);
                break;
            }
        }
        if measured {
            let end = Instant::now();
            t.request(&w, end, end - due, 1);
        }
    }
    disconnect(api);
    t.spans = trace::finish();
    (t, gen)
}

fn bg_tenant(ctx: &Ctx, w: Window, lib: GrdLib) -> Tally {
    trace_thread(ctx, &w);
    let mut t = Tally::default();
    let mut api = api_of(ctx, lib);
    let mut rng = Rng::new(ctx.seed, 200);
    let bytes = (4 * BG_SLOTS) as u64;
    let mut shadow = vec![0u32; BG_SLOTS];
    t.attempted += 1;
    let buf = match api
        .cuda_malloc(bytes)
        .and_then(|b| api.cuda_memcpy_h2d(b, &bytes_of(&shadow)).map(|()| b))
    {
        Ok(b) => b,
        Err(e) => {
            t.fail(format!("background malloc: {e}"));
            return t;
        }
    };
    let period = Duration::from_secs_f64(1.0 / CLUMPS_PER_S);
    let mut due = w.origin;
    let mut clump = 0;
    while due < w.deadline {
        wait_until(due);
        due += period;
        clump += 1;
        trace::set_request(clump);
        t.attempted += 1;
        let t0 = Instant::now();
        let launches: Vec<(usize, u32)> = (0..CLUMP)
            .map(|_| (rng.below(1024) as usize, 1 + rng.below(1024) as u32))
            .collect();
        let r = (|| -> Result<Vec<u8>, String> {
            trace::span("bg.burst_enqueue", || {
                for &(offset, n) in &launches {
                    let args = ArgPack::new().ptr(buf + 4 * offset as u64).u32(n).finish();
                    api.cuda_launch_kernel("fill", bg_cfg(), &args, Default::default())
                        .map_err(|e| format!("background launch: {e}"))?;
                }
                Ok::<(), String>(())
            })?;
            api.cuda_device_synchronize()
                .map_err(|e| format!("background sync: {e}"))?;
            api.cuda_memcpy_d2h(buf, bytes)
                .map_err(|e| format!("background read-back: {e}"))
        })();
        for &(offset, n) in &launches {
            for i in 0..n as usize {
                shadow[offset + i] = i as u32;
            }
        }
        match r {
            Ok(b) if words(&b) == shadow => {}
            Ok(_) => {
                t.fail(format!("background read-back differs at clump {clump}"));
                break;
            }
            Err(e) => {
                t.fail(e);
                break;
            }
        }
        if w.measured(t0) {
            let end = Instant::now();
            t.request(&w, end, end - t0, CLUMP as u64);
        }
    }
    disconnect(api);
    t.spans = trace::finish();
    t
}
