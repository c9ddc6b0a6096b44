//! `dispatch`: two tenants over shm with deferred acks, each sending 1×1
//! `fill` launches and synchronising every [`BATCH`] launches, whose
//! buffers are then read back and checked byte for byte. The
//! simulator does almost nothing per launch, so the time measured is
//! Guardian's own fixed cost: GrdLib, proto, transport, session, exec.

use super::{api_of, join_all, timed_setups, Run};
use crate::common::{trace_thread, words, Ctx, Plan, Rng, Tally, Window};
use crate::daemon::{Daemon, Wire};
use crate::report::Metric;
use crate::stats::Summary;
use crate::tenant::connect;
use crate::trace;
use cuda_rt::{ArgPack, CudaApi};
use gpu_sim::LaunchConfig;
use guardian::{GrdLib, QosClass};
use std::time::Instant;

/// Launches between synchronisations.
pub const BATCH: usize = 100;
/// u32 slots in each tenant's buffer; every batch targets [`BATCH`]
/// distinct seeded slots.
const SLOTS: usize = 256;
/// Daemon flags. Thread-per-session, because under the event pool a
/// fresh daemon's shm connect can hang for good (see the README).
pub const FLAGS: &[&str] = &["--deferred", "--driver", "threads"];

/// The launch every dispatch tenant sends.
pub fn launch_cfg() -> LaunchConfig {
    LaunchConfig::linear(1, 1)
}

struct Setup {
    daemon: Daemon,
    tenants: Vec<GrdLib>,
}

fn setup(ctx: &Ctx) -> Result<Setup, String> {
    let daemon = ctx.daemon(Wire::Shm, FLAGS)?;
    let fatbin = guardiand::tenant_fatbin();
    let mut tenants = Vec::new();
    for _ in 0..2 {
        let mut lib = connect(&daemon, 1 << 20, QosClass::BestEffort)
            .map_err(|e| format!("dispatch connect: {e}"))?;
        lib.register_fatbin(&fatbin)
            .map_err(|e| format!("dispatch register: {e}"))?;
        tenants.push(lib);
    }
    Ok(Setup { daemon, tenants })
}

pub fn run(ctx: &Ctx, setups: usize, plan: Plan) -> Result<Run, String> {
    let (setup_s, s) = timed_setups(setups, || setup(ctx))?;
    let w = plan.start();
    let tallies = std::thread::scope(|scope| {
        let handles = s
            .tenants
            .into_iter()
            .enumerate()
            .map(|(i, lib)| scope.spawn(move || tenant(ctx, w, i as u64, lib)))
            .collect();
        join_all(handles)
    });
    let rss_mb = s.daemon.peak_rss_mb()?;
    let syncs: Vec<f64> = tallies.iter().flat_map(|t| t.sync_us.clone()).collect();
    let sync = Summary::of(&syncs, 99.0);
    let extra = vec![
        Metric::new("sync_p50_us", sync.p50, "us", sync.n),
        Metric::new("sync_p99_us", sync.tail, "us", sync.n).note(format!("p{}", sync.tail_pct)),
    ];
    Ok(Run {
        setup_s,
        tallies,
        rss_mb,
        extra,
    })
}

/// `BATCH` distinct slots out of `SLOTS`, seeded.
fn pick_slots(rng: &mut Rng) -> Vec<usize> {
    let mut all: Vec<usize> = (0..SLOTS).collect();
    for i in 0..BATCH {
        let j = i + rng.below((SLOTS - i) as u64) as usize;
        all.swap(i, j);
    }
    all.truncate(BATCH);
    all
}

fn tenant(ctx: &Ctx, w: Window, id: u64, lib: GrdLib) -> Tally {
    trace_thread(ctx, &w);
    let mut t = Tally::default();
    let mut api = api_of(ctx, lib);
    let mut rng = Rng::new(ctx.seed, id);
    let bytes = (4 * SLOTS) as u64;
    t.attempted += 1;
    let buf = match api.cuda_malloc(bytes) {
        Ok(b) => b,
        Err(e) => {
            t.fail(format!("malloc: {e}"));
            return t;
        }
    };
    let mut req = 0;
    while !w.over() {
        req += 1;
        trace::set_request(req);
        t.attempted += 1;
        let slots = pick_slots(&mut rng);
        let t0 = Instant::now();
        let r = (|| -> Result<Vec<u8>, String> {
            api.cuda_memset(buf, 0xFF, bytes)
                .map_err(|e| format!("memset: {e}"))?;
            for &slot in &slots {
                let args = ArgPack::new().ptr(buf + 4 * slot as u64).u32(1).finish();
                api.cuda_launch_kernel("fill", launch_cfg(), &args, Default::default())
                    .map_err(|e| format!("launch: {e}"))?;
            }
            let ts = Instant::now();
            api.cuda_device_synchronize()
                .map_err(|e| format!("sync: {e}"))?;
            if w.measured(t0) {
                t.sync_us.push(ts.elapsed().as_secs_f64() * 1e6);
            }
            api.cuda_memcpy_d2h(buf, bytes)
                .map_err(|e| format!("read-back: {e}"))
        })();
        let got = match r {
            Ok(b) => words(&b),
            Err(e) => {
                t.fail(e);
                break;
            }
        };
        let mut want = vec![u32::MAX; SLOTS];
        for &slot in &slots {
            want[slot] = 0;
        }
        if got != want {
            t.fail(format!("dispatch read-back differs in batch {req}"));
            break;
        }
        let end = Instant::now();
        if w.measured(t0) {
            t.request(&w, end, end - t0, BATCH as u64);
        }
    }
    crate::tenant::disconnect(api);
    t.spans = trace::finish();
    t
}
