//! `train`: two training jobs over uds, Lenet (Caffe, direct allocator)
//! and Cv (PyTorch, caching allocator), one per tenant. A job connects,
//! builds its model and runs [`STEPS`] steps; every step uploads a batch
//! with memcpy H2D and reads back the loss, which must equal, bit for
//! bit, the loss of the same step run under `Deployment::Native`. The
//! simulator does most of the work here, and dispatch little.

use super::{api_of, join_all, timed_setups, Run};
use crate::common::{trace_thread, Ctx, Plan, Tally, Window};
use crate::daemon::{Daemon, Wire};
use crate::report::Metric;
use crate::tenant::{connect, disconnect};
use crate::trace::{self, span_res};
use cuda_rt::{CudaApi, CudaResult, SharedDevice};
use culibs::cublas::CublasHandle;
use culibs::cudnn::CudnnHandle;
use frameworks::{CachingAlloc, Dataset, DirectAlloc, Model, Network, TensorAlloc};
use guardian::backends::{deploy, Deployment};
use guardian::{GrdLib, QosClass};
use std::sync::OnceLock;
use std::time::Instant;

/// Samples per step.
pub const BATCH_SIZE: u32 = 2;
/// Steps per job.
const STEPS: usize = 6;
/// One job per tenant.
const NETS: [Network; 2] = [Network::Lenet, Network::Cv];
/// Partition each tenant asks for.
const MEM: u64 = 8 << 20;
/// SGD learning rate.
const LR: f32 = 0.1;

/// Span names around the `Model` methods of one step.
struct StepSpans {
    load_batch: &'static str,
    forward: &'static str,
    loss: &'static str,
    backward: &'static str,
}

const GUARDED: StepSpans = StepSpans {
    load_batch: "frameworks.load_batch",
    forward: "frameworks.forward",
    loss: "frameworks.loss",
    backward: "frameworks.backward",
};

const NATIVE: StepSpans = StepSpans {
    load_batch: "frameworks.native_load_batch",
    forward: "frameworks.native_forward",
    loss: "frameworks.native_loss",
    backward: "frameworks.native_backward",
};

/// The job's model seed and data for `net` under workload seed `seed`.
fn job_inputs(net: Network, seed: u64) -> (u64, Dataset) {
    let job_seed = seed.wrapping_mul(31).wrapping_add(net as u64);
    let data = frameworks::generate(net.corpus(), BATCH_SIZE as usize * STEPS, job_seed);
    (job_seed, data)
}

/// Run one training job; `step_done(step, loss, started)` is called after
/// every step. Stops early, after a whole step, when `stop()` says so.
fn job(
    api: &mut dyn CudaApi,
    net: Network,
    seed: u64,
    names: &StepSpans,
    stop: &dyn Fn() -> bool,
    step_done: &mut dyn FnMut(usize, f32, Instant) -> bool,
) -> CudaResult<()> {
    let (job_seed, data) = job_inputs(net, seed);
    let mut direct = DirectAlloc;
    let mut caching = CachingAlloc::new();
    let alloc: &mut dyn TensorAlloc = if net.is_caffe() {
        &mut direct
    } else {
        &mut caching
    };
    let blas = CublasHandle::create(api)?;
    let dnn = CudnnHandle::create(api)?;
    let mut model = Model::build(api, alloc, net, BATCH_SIZE, job_seed)?;
    let bs = BATCH_SIZE as usize;
    for step in 0..STEPS {
        if stop() {
            break;
        }
        let t0 = Instant::now();
        let images = &data.images[step * bs * data.dim..(step + 1) * bs * data.dim];
        let labels = &data.labels[step * bs..(step + 1) * bs];
        span_res(names.load_batch, || model.load_batch(api, images, labels))?;
        span_res(names.forward, || model.forward(api, &blas, &dnn))?;
        let (loss, _) = span_res(names.loss, || model.loss_and_accuracy(api))?;
        span_res(names.backward, || model.backward_and_step(api, &blas, LR))?;
        if !step_done(step, loss, t0) {
            break;
        }
    }
    api.cuda_device_synchronize()
}

/// The same jobs run in process: the bit-exact losses under native
/// time-sharing, and the simulated cycles under native and under
/// Guardian fencing.
pub struct Reference {
    /// Loss bits of each step, per net.
    losses: [Vec<u32>; 2],
    /// Launches per step, per net.
    launches_per_step: [u64; 2],
    /// Simulated cycles of each job natively.
    pub native_cycles: [u64; 2],
    /// Simulated cycles of each job under Guardian fencing.
    pub guardian_cycles: [u64; 2],
    /// Spans of the native runs, when traced.
    pub spans: Vec<trace::Span>,
}

fn in_process(
    deployment: Deployment,
    net: Network,
    seed: u64,
    names: &StepSpans,
) -> CudaResult<(Vec<u32>, u64, u64)> {
    let device: SharedDevice =
        cuda_rt::share_device(gpu_sim::Device::new(gpu_sim::spec::test_gpu()));
    let mut tenancy = deploy(&device, deployment, 1, MEM, &[])?;
    let mut losses = Vec::new();
    let mut launches_before = 0;
    let r = {
        let api = tenancy.runtimes[0].as_mut();
        job(api, net, seed, names, &|| false, &mut |step, loss, _| {
            if step == 0 {
                launches_before = device.lock().total_launches();
            }
            losses.push(loss.to_bits());
            true
        })
    };
    r?;
    tenancy.shutdown();
    let mut dev = device.lock();
    dev.synchronize();
    let per_step = (dev.total_launches() - launches_before) / (STEPS as u64 - 1).max(1);
    Ok((losses, dev.now(), per_step))
}

/// The reference for `seed`, computed once per process.
pub fn reference(ctx: &Ctx) -> Result<&'static Reference, String> {
    static REF: OnceLock<Result<Reference, String>> = OnceLock::new();
    REF.get_or_init(|| {
        if ctx.traced {
            trace::start(Instant::now());
        }
        let mut r = Reference {
            losses: [Vec::new(), Vec::new()],
            launches_per_step: [0; 2],
            native_cycles: [0; 2],
            guardian_cycles: [0; 2],
            spans: Vec::new(),
        };
        for (i, net) in NETS.into_iter().enumerate() {
            let (losses, cycles, per_step) = in_process(Deployment::Native, net, ctx.seed, &NATIVE)
                .map_err(|e| format!("native {net:?}: {e}"))?;
            let (_, g_cycles, _) = in_process(Deployment::GuardianFencing, net, ctx.seed, &GUARDED)
                .map_err(|e| format!("guardian {net:?}: {e}"))?;
            r.losses[i] = losses;
            r.launches_per_step[i] = per_step;
            r.native_cycles[i] = cycles;
            r.guardian_cycles[i] = g_cycles;
        }
        // Only the native spans: the in-process Guardian run is not the
        // daemon path the frameworks spans describe.
        r.spans = trace::finish()
            .into_iter()
            .filter(|s| s.name.starts_with("frameworks.native_"))
            .collect();
        Ok(r)
    })
    .as_ref()
    .map_err(Clone::clone)
}

impl Reference {
    /// Simulated-time overhead of Guardian fencing over native, percent.
    pub fn overhead_pct(&self) -> f64 {
        crate::stats::overhead_pct(
            self.guardian_cycles.iter().sum(),
            self.native_cycles.iter().sum(),
        )
    }
}

struct Setup {
    daemon: Daemon,
    tenants: Vec<GrdLib>,
}

fn setup(ctx: &Ctx) -> Result<Setup, String> {
    let daemon = ctx.daemon(Wire::Uds, &[])?;
    let mut tenants = Vec::new();
    for _ in NETS {
        let mut lib = connect(&daemon, MEM, QosClass::BestEffort)
            .map_err(|e| format!("train connect: {e}"))?;
        for fatbin in [
            culibs::fatbins::cublas_fatbin(),
            culibs::fatbins::cudnn_fatbin(),
        ] {
            lib.register_fatbin(fatbin)
                .map_err(|e| format!("train register: {e}"))?;
        }
        tenants.push(lib);
    }
    Ok(Setup { daemon, tenants })
}

pub fn run(ctx: &Ctx, setups: usize, plan: Plan) -> Result<Run, String> {
    let (setup_s, s) = timed_setups(setups, || setup(ctx))?;
    let reference = reference(ctx)?;
    let w = plan.start();
    let daemon = &s.daemon;
    let mut tallies = std::thread::scope(|scope| {
        let handles = s
            .tenants
            .into_iter()
            .enumerate()
            .map(|(i, lib)| scope.spawn(move || tenant(ctx, w, daemon, reference, i, lib)))
            .collect();
        join_all(handles)
    });
    let rss_mb = s.daemon.peak_rss_mb()?;
    if ctx.traced {
        tallies.push(Tally {
            spans: reference.spans.clone(),
            ..Tally::default()
        });
    }
    let steps_per_s: f64 = tallies.iter().map(Tally::request_rate).sum();
    let steps: usize = tallies.iter().map(|t| t.done_s.len()).sum();
    let extra = vec![
        Metric::new(
            "train_samples_per_s",
            steps_per_s * f64::from(BATCH_SIZE),
            "samples/s",
            steps,
        )
        .note(format!("batch size {BATCH_SIZE}")),
        Metric::new(
            "sim.train_cycles",
            reference.native_cycles.iter().sum::<u64>() as f64,
            "count",
            NETS.len(),
        ),
    ];
    Ok(Run {
        setup_s,
        tallies,
        rss_mb,
        extra,
    })
}

fn tenant(
    ctx: &Ctx,
    w: Window,
    daemon: &Daemon,
    reference: &Reference,
    i: usize,
    first: GrdLib,
) -> Tally {
    trace_thread(ctx, &w);
    let net = NETS[i];
    let mut t = Tally::default();
    let mut lib = Some(first);
    let mut req = 0u64;
    while !w.over() {
        let conn = match lib.take() {
            Some(l) => Ok(l),
            None => connect(daemon, MEM, QosClass::BestEffort),
        };
        t.attempted += 1;
        let mut api = match conn {
            Ok(l) => api_of(ctx, l),
            Err(e) => {
                t.fail(format!("{net:?} connect: {e}"));
                break;
            }
        };
        let mut mismatch = None;
        let r = job(
            api.as_mut(),
            net,
            ctx.seed,
            &GUARDED,
            &|| w.over(),
            &mut |step, loss, t0| {
                t.attempted += 1;
                req += 1;
                trace::set_request(req);
                if loss.to_bits() != reference.losses[i][step] {
                    mismatch = Some(step);
                    return false;
                }
                if w.measured(t0) {
                    let end = Instant::now();
                    t.request(&w, end, end - t0, reference.launches_per_step[i]);
                }
                true
            },
        );
        disconnect(api);
        if let Some(step) = mismatch {
            t.fail(format!("{net:?} loss at step {step} differs from native"));
            break;
        }
        if let Err(e) = r {
            t.fail(format!("{net:?} job: {e}"));
            break;
        }
    }
    t.spans = trace::finish();
    t
}
