//! `churn`: whole tenant lifecycles over uds, back to back, beside one
//! steady tenant. A lifecycle is connect → register → malloc → launch →
//! sync → read-back → disconnect. Every [`ATTACK_EVERY`]th lifecycle is
//! an attacker aiming `stomp` at the steady tenant's buffer; the daemon
//! runs in checking mode, so the attacker is reaped at its sync, and the
//! steady tenant's read-back must stay byte-exact.

use super::{api_of, timed_setups, Run};
use crate::common::{bytes_of, trace_thread, words, Ctx, Plan, Rng, Tally, Window};
use crate::daemon::{Daemon, Wire};
use crate::report::Metric;
use crate::stats::Summary;
use crate::tenant::{connect, disconnect};
use crate::trace;
use cuda_rt::{ArgPack, CudaApi, DevicePtr};
use gpu_sim::LaunchConfig;
use guardian::{GrdLib, QosClass};
use std::time::Instant;

/// One lifecycle in this many is an attacker.
pub const ATTACK_EVERY: u64 = 16;
const FLAGS: &[&str] = &["--protection", "check"];
/// u32 slots of the steady tenant's buffer.
const STEADY_SLOTS: usize = 256;
/// Threads of a lifecycle's `fill` launch.
const THREADS: u32 = 32;

/// A lifecycle's launch.
pub fn launch_cfg() -> LaunchConfig {
    LaunchConfig::linear(1, THREADS)
}

struct Steady {
    api: Box<dyn CudaApi>,
    buf: DevicePtr,
    pattern: Vec<u32>,
}

struct Setup {
    daemon: Daemon,
    steady: GrdLib,
}

fn setup(ctx: &Ctx) -> Result<Setup, String> {
    let daemon = ctx.daemon(Wire::Uds, FLAGS)?;
    let mut steady = connect(&daemon, 1 << 20, QosClass::BestEffort)
        .map_err(|e| format!("churn connect: {e}"))?;
    steady
        .register_fatbin(&guardiand::tenant_fatbin())
        .map_err(|e| format!("churn register: {e}"))?;
    Ok(Setup { daemon, steady })
}

pub fn run(ctx: &Ctx, setups: usize, plan: Plan) -> Result<Run, String> {
    let (setup_s, s) = timed_setups(setups, || setup(ctx))?;
    let w = plan.start();
    let tally = lifecycles(ctx, w, &s.daemon, s.steady);
    let rss_mb = s.daemon.peak_rss_mb()?;
    let lat = Summary::of(&tally.latency_us, 99.0);
    let extra = vec![
        Metric::new("churn_rate", tally.request_rate(), "lifecycles/s", lat.n),
        Metric::new("lifecycle_p50_us", lat.p50, "us", lat.n),
        Metric::new("lifecycle_p99_us", lat.tail, "us", lat.n).note(format!("p{}", lat.tail_pct)),
    ];
    Ok(Run {
        setup_s,
        tallies: vec![tally],
        rss_mb,
        extra,
    })
}

fn lifecycles(ctx: &Ctx, w: Window, daemon: &Daemon, steady: GrdLib) -> Tally {
    trace_thread(ctx, &w);
    let mut t = Tally::default();
    let mut rng = Rng::new(ctx.seed, 300);
    let fatbin = guardiand::tenant_fatbin();
    let pattern: Vec<u32> = (0..STEADY_SLOTS).map(|_| rng.next() as u32).collect();
    let mut steady_api = api_of(ctx, steady);
    t.attempted += 1;
    let buf = match steady_api
        .cuda_malloc((4 * STEADY_SLOTS) as u64)
        .and_then(|b| {
            steady_api
                .cuda_memcpy_h2d(b, &bytes_of(&pattern))
                .map(|()| b)
        }) {
        Ok(b) => b,
        Err(e) => {
            t.fail(format!("steady tenant set-up: {e}"));
            return t;
        }
    };
    let mut steady = Steady {
        api: steady_api,
        buf,
        pattern,
    };
    let mut n = 0u64;
    while !w.over() {
        n += 1;
        trace::set_request(n);
        t.attempted += 1;
        let t0 = Instant::now();
        let attack = n.is_multiple_of(ATTACK_EVERY);
        let r = if attack {
            attacker(ctx, daemon, &fatbin, &mut rng, &steady)
        } else {
            lifecycle(ctx, daemon, &fatbin, &mut rng)
        };
        let end = Instant::now();
        if let Err(e) = r {
            t.fail(e);
            break;
        }
        if w.measured(t0) {
            t.request(&w, end, end - t0, u64::from(!attack));
        }
        if attack {
            t.attempted += 1;
            if let Err(e) = check_steady(&mut steady) {
                t.fail(e);
                break;
            }
        }
    }
    disconnect(steady.api);
    t.spans = trace::finish();
    t
}

/// A well-behaved lifecycle; its read-back is verified.
fn lifecycle(ctx: &Ctx, daemon: &Daemon, fatbin: &[u8], rng: &mut Rng) -> Result<(), String> {
    let n = 1 + rng.below(u64::from(THREADS)) as u32;
    let lib =
        connect(daemon, 1 << 20, QosClass::BestEffort).map_err(|e| format!("connect: {e}"))?;
    let mut api = api_of(ctx, lib);
    let r = (|| -> Result<Vec<u8>, String> {
        api.register_fatbin(fatbin)
            .map_err(|e| format!("register: {e}"))?;
        let buf = api
            .cuda_malloc(u64::from(4 * THREADS))
            .map_err(|e| format!("malloc: {e}"))?;
        let args = ArgPack::new().ptr(buf).u32(n).finish();
        api.cuda_launch_kernel("fill", launch_cfg(), &args, Default::default())
            .map_err(|e| format!("launch: {e}"))?;
        api.cuda_device_synchronize()
            .map_err(|e| format!("sync: {e}"))?;
        api.cuda_memcpy_d2h(buf, u64::from(4 * n))
            .map_err(|e| format!("read-back: {e}"))
    })();
    disconnect(api);
    let got = words(&r?);
    if got.iter().enumerate().any(|(i, &v)| v != i as u32) {
        return Err("lifecycle read-back differs".into());
    }
    Ok(())
}

/// An attacker lifecycle: `stomp` at a seeded word of the steady
/// tenant's buffer. Checking mode must reap it at its sync.
fn attacker(
    ctx: &Ctx,
    daemon: &Daemon,
    fatbin: &[u8],
    rng: &mut Rng,
    steady: &Steady,
) -> Result<(), String> {
    let target = steady.buf + 4 * rng.below(STEADY_SLOTS as u64);
    let value = rng.next() as u32;
    let lib = connect(daemon, 1 << 20, QosClass::BestEffort)
        .map_err(|e| format!("attacker connect: {e}"))?;
    let mut api = api_of(ctx, lib);
    let r = (|| -> Result<bool, String> {
        api.register_fatbin(fatbin)
            .map_err(|e| format!("attacker register: {e}"))?;
        let args = ArgPack::new().ptr(target).u32(value).finish();
        api.cuda_launch_kernel(
            "stomp",
            LaunchConfig::linear(1, 1),
            &args,
            Default::default(),
        )
        .map_err(|e| format!("attacker launch: {e}"))?;
        Ok(api.cuda_device_synchronize().is_err())
    })();
    disconnect(api);
    if r? {
        Ok(())
    } else {
        Err("attacker was not reaped at its sync".into())
    }
}

fn check_steady(steady: &mut Steady) -> Result<(), String> {
    let got = steady
        .api
        .cuda_memcpy_d2h(steady.buf, (4 * STEADY_SLOTS) as u64)
        .map_err(|e| format!("steady read-back: {e}"))?;
    if words(&got) != steady.pattern {
        return Err("steady tenant's buffer changed under an attacker".into());
    }
    Ok(())
}
