//! Isolated layer probes: each layer's public functions timed with the
//! rest of the stack removed, on the inputs of the workload being run.

use crate::common::Ctx;
use crate::daemon::Wire;
use crate::report::Metric;
use crate::stats::median;
use crate::workloads::{churn, dispatch, serve, Kind};
use cuda_rt::{ArgPack, CudaApi, NativeRuntime};
use gpu_sim::LaunchConfig;
use guardian::backends::{deploy, Deployment};
use guardian::proto::{encode_launch, Request};
use guardian::transport::shm::{ShmDialer, ShmListener};
use guardian::transport::uds::{UdsDialer, UdsListener};
use guardian::transport::{Connection, Dialer, Listener};
use guardian::{PartitionAllocator, Protection, QosClass};
use std::path::Path;
use std::time::{Duration, Instant};

/// Calls and failures of one probed layer.
#[derive(Debug, Default, Clone, Copy)]
pub struct Count {
    /// Calls made.
    pub calls: u64,
    /// Calls that failed.
    pub failed: u64,
    /// Time spent in the layer's calls, ns.
    pub busy_ns: u64,
}

/// Everything the probes measured.
#[derive(Default)]
pub struct Probes {
    /// Per-layer metrics.
    pub metrics: Vec<Metric>,
    /// Per-layer call counts, by layer name.
    pub counts: Vec<(&'static str, Count)>,
}

impl Probes {
    fn count(&mut self, layer: &'static str, calls: u64, failed: u64, busy: Duration) {
        self.counts.push((
            layer,
            Count {
                calls,
                failed,
                busy_ns: busy.as_nanos() as u64,
            },
        ));
    }
}

/// The kernel name, geometry and arguments of `kind`'s typical launch.
fn workload_launch(kind: Kind) -> (&'static str, LaunchConfig, Vec<u8>) {
    let fill = |cfg| ("fill", cfg, ArgPack::new().ptr(1 << 40).u32(64).finish());
    match kind {
        Kind::Dispatch => fill(dispatch::launch_cfg()),
        Kind::Serve => fill(serve::latency_cfg()),
        Kind::Churn => fill(churn::launch_cfg()),
        // A cuBLAS GEMM launch: six pointer/size arguments.
        Kind::Train => (
            "sgemm_nn",
            LaunchConfig {
                grid: (4, 4, 1),
                block: (16, 16, 1),
            },
            (0..6)
                .fold(ArgPack::new(), |p, i| p.u64((1 << 40) + i * 4096))
                .finish(),
        ),
    }
}

/// Run `f` repeatedly for about `budget` (at least `min` times); returns
/// the time per call.
fn per_call(budget: Duration, min: u64, mut f: impl FnMut()) -> (Duration, u64) {
    let t0 = Instant::now();
    let mut n = 0u64;
    while n < min || t0.elapsed() < budget {
        for _ in 0..64 {
            f();
        }
        n += 64;
    }
    (t0.elapsed() / n as u32, n)
}

fn proto(p: &mut Probes, kind: Kind) {
    let (name, cfg, args) = workload_launch(kind);
    let budget = Duration::from_millis(150);
    let t0 = Instant::now();
    let (enc, n_enc) = per_call(budget, 1000, || {
        std::hint::black_box(encode_launch(
            name,
            &cfg,
            std::hint::black_box(&args),
            false,
        ));
    });
    let frame = encode_launch(name, &cfg, &args, false);
    let mut failed = 0;
    let (dec, n_dec) = per_call(budget, 1000, || {
        if Request::decode(std::hint::black_box(&frame)).is_err() {
            failed += 1;
        }
    });
    p.count("proto", n_enc + n_dec, failed, t0.elapsed());
    p.metrics.push(Metric::new(
        "proto.encode_launch_ns",
        enc.as_nanos() as f64,
        "ns",
        n_enc as usize,
    ));
    p.metrics.push(Metric::new(
        "proto.decode_launch_ns",
        dec.as_nanos() as f64,
        "ns",
        n_dec as usize,
    ));
}

/// Serve one connection: a first frame of `[0]` asks for one-way mode
/// (count frames, answer each one-byte frame), `[1]` for echo mode.
fn echo_peer(conn: Box<dyn Connection>) {
    let Ok(mode) = conn.recv() else { return };
    while let Ok(frame) = conn.recv() {
        let reply = match (mode.first(), frame.len()) {
            (Some(0), 1) => vec![0],
            (Some(0), _) => continue,
            _ => frame,
        };
        if conn.send(reply).is_err() {
            return;
        }
    }
}

/// One-way ns per frame and round-trip µs for `frame` over one wire.
fn transport_wire(
    wire: Wire,
    frame: &[u8],
    count: &mut Count,
) -> Result<(f64, f64, usize), String> {
    let path = Path::new(match wire {
        Wire::Uds => "probe-uds.sock",
        Wire::Shm => "probe-shm.sock",
    });
    let _ = std::fs::remove_file(path);
    let err = |e: guardian::transport::TransportError| format!("transport probe: {e}");
    let (listener, unblock, dialer): (Box<dyn Listener>, _, Box<dyn Dialer>) = match wire {
        Wire::Uds => {
            let (l, unblock) = UdsListener::bind(path).map_err(err)?;
            (Box::new(l), unblock, Box::new(UdsDialer::new(path)))
        }
        Wire::Shm => {
            let (l, unblock) = ShmListener::bind(path).map_err(err)?;
            (Box::new(l), unblock, Box::new(ShmDialer::new(path)))
        }
    };
    std::thread::scope(|s| {
        let server = s.spawn(move || {
            for _ in 0..2 {
                match listener.accept() {
                    Ok(c) => echo_peer(c),
                    Err(_) => return,
                }
            }
        });
        let t0 = Instant::now();
        let result = (|| {
            let oneway = dialer.dial().map_err(err)?;
            oneway.send(vec![0]).map_err(err)?;
            let n = 20_000u32;
            let t = Instant::now();
            for _ in 0..n {
                oneway.send(frame.to_vec()).map_err(err)?;
            }
            oneway.send(vec![0]).map_err(err)?;
            oneway.recv().map_err(err)?;
            let oneway_ns = t.elapsed().as_nanos() as f64 / f64::from(n);
            drop(oneway);

            let echo = dialer.dial().map_err(err)?;
            echo.send(vec![1]).map_err(err)?;
            let mut rtts = Vec::new();
            for _ in 0..2000 {
                let t = Instant::now();
                echo.send(frame.to_vec()).map_err(err)?;
                echo.recv().map_err(err)?;
                rtts.push(t.elapsed().as_secs_f64() * 1e6);
            }
            count.calls += u64::from(n) + 2 * rtts.len() as u64;
            Ok((oneway_ns, median(&rtts), rtts.len()))
        })();
        count.busy_ns += t0.elapsed().as_nanos() as u64;
        if result.is_err() {
            count.failed += 1;
        }
        // The client's connections are closed, which ends the echo
        // peers; if it failed before dialing both, wake the accept.
        if result.is_err() {
            unblock();
        }
        let _ = server.join();
        result
    })
}

fn transport(p: &mut Probes, kind: Kind) -> Result<(), String> {
    let (name, cfg, args) = workload_launch(kind);
    let frame = encode_launch(name, &cfg, &args, false);
    let mut count = Count::default();
    for (wire, label) in [(Wire::Shm, "shm"), (Wire::Uds, "uds")] {
        let (oneway, rtt, n) = transport_wire(wire, &frame, &mut count)?;
        let (oneway_name, rtt_name) = match label {
            "shm" => ("transport.shm_oneway_ns", "transport.shm_rtt_us"),
            _ => ("transport.uds_oneway_ns", "transport.uds_rtt_us"),
        };
        p.metrics
            .push(Metric::new(oneway_name, oneway, "ns", 20_000));
        p.metrics
            .push(Metric::new(rtt_name, rtt, "us", n).note("median"));
    }
    p.counts.push(("transport", count));
    Ok(())
}

fn patcher(p: &mut Probes) -> Result<(), String> {
    let fixtures = guardiand::tenant_fatbin();
    let fatbins: [&[u8]; 3] = [
        culibs::fatbins::cublas_fatbin(),
        culibs::fatbins::cudnn_fatbin(),
        &fixtures,
    ];
    let t0 = Instant::now();
    let mut passes = Vec::new();
    let mut added = 0u64;
    for pass in 0..3 {
        let t = Instant::now();
        for fb in fatbins {
            let images = ptx_patcher::sandbox_fatbin(fb, Protection::FenceBitwise)
                .map_err(|e| format!("patcher probe: {e}"))?;
            if pass == 0 {
                added += images
                    .iter()
                    .flat_map(|i| &i.info)
                    .map(|f| u64::from(f.added_instructions))
                    .sum::<u64>();
            }
        }
        passes.push(t.elapsed().as_secs_f64() * 1e6);
    }
    p.count("patcher", 3 * fatbins.len() as u64, 0, t0.elapsed());
    p.metrics.push(
        Metric::new("patcher.sandbox_us", median(&passes), "us", passes.len())
            .note("cuBLAS + cuDNN + fixtures fatbins"),
    );
    p.metrics
        .push(Metric::new("patcher.added_instr", added as f64, "count", 3));
    Ok(())
}

/// Native per-launch time of `cfg` in batches of `batch` launches and
/// one sync, through the simulator alone.
fn native_launch_us(
    api: &mut NativeRuntime,
    buf: u64,
    cfg: LaunchConfig,
    batch: u32,
    budget: Duration,
    calls: &mut u64,
) -> Result<(f64, usize), String> {
    let args = ArgPack::new().ptr(buf).u32(1024).finish();
    let mut samples = Vec::new();
    let t0 = Instant::now();
    while samples.len() < 5 || t0.elapsed() < budget {
        let t = Instant::now();
        for _ in 0..batch {
            api.cuda_launch_kernel("fill", cfg, &args, Default::default())
                .map_err(|e| format!("sim probe: {e}"))?;
        }
        api.cuda_device_synchronize()
            .map_err(|e| format!("sim probe: {e}"))?;
        samples.push(t.elapsed().as_secs_f64() * 1e6 / f64::from(batch));
        *calls += u64::from(batch) + 1;
    }
    Ok((median(&samples), samples.len()))
}

fn sim(p: &mut Probes) -> Result<f64, String> {
    let device = cuda_rt::share_device(gpu_sim::Device::new(gpu_sim::spec::test_gpu()));
    let mut api = NativeRuntime::new(device).map_err(|e| format!("sim probe: {e}"))?;
    let mut calls = 0;
    let t0 = Instant::now();
    api.register_fatbin(&guardiand::tenant_fatbin())
        .map_err(|e| format!("sim probe: {e}"))?;
    let buf = api
        .cuda_malloc(4096)
        .map_err(|e| format!("sim probe: {e}"))?;
    let budget = Duration::from_millis(150);
    let (k1, n1) = native_launch_us(
        &mut api,
        buf,
        LaunchConfig::linear(1, 1),
        100,
        budget,
        &mut calls,
    )?;
    let (k64, n64) = native_launch_us(
        &mut api,
        buf,
        LaunchConfig::linear(2, 32),
        10,
        budget,
        &mut calls,
    )?;
    let (k1024, n1024) = native_launch_us(
        &mut api,
        buf,
        LaunchConfig::linear(32, 32),
        4,
        budget,
        &mut calls,
    )?;
    p.count("sim", calls, 0, t0.elapsed());
    p.metrics
        .push(Metric::new("sim.kernel_1x1_us", k1, "us", n1).note("median batch of 100"));
    p.metrics
        .push(Metric::new("sim.kernel_2x32_us", k64, "us", n64).note("median batch of 10"));
    p.metrics
        .push(Metric::new("sim.kernel_32x32_us", k1024, "us", n1024).note("median batch of 4"));
    p.metrics.push(
        Metric::new(
            "sim.ns_per_thread",
            (k1024 - k1) * 1e3 / 1023.0,
            "ns",
            n1024,
        )
        .note("32x32 over 1x1, per added thread"),
    );
    Ok(k1)
}

fn alloc(p: &mut Probes) {
    let mut pa = PartitionAllocator::new(1 << 40, 32 << 20);
    let mut failed = 0;
    let t0 = Instant::now();
    let (per, n) = per_call(Duration::from_millis(100), 1000, || {
        match pa.alloc(1 << 20) {
            Ok(part) => {
                if pa.free(std::hint::black_box(part).base).is_err() {
                    failed += 1;
                }
            }
            Err(_) => failed += 1,
        }
    });
    p.count("alloc", 2 * n, failed, t0.elapsed());
    p.metrics.push(
        Metric::new(
            "alloc.partition_ns",
            per.as_nanos() as f64,
            "ns",
            n as usize,
        )
        .note("alloc + free of 1 MiB"),
    );
}

/// Per-launch wall time of one dispatch tenant alone against its own
/// daemon, µs.
fn one_tenant_launch_us(ctx: &Ctx) -> Result<(f64, usize), String> {
    let daemon = ctx.daemon(Wire::Shm, dispatch::FLAGS)?;
    let mut lib = crate::tenant::connect(&daemon, 1 << 20, QosClass::BestEffort)
        .map_err(|e| format!("overhead probe: {e}"))?;
    lib.register_fatbin(&guardiand::tenant_fatbin())
        .map_err(|e| format!("overhead probe: {e}"))?;
    let buf = lib
        .cuda_malloc(4096)
        .map_err(|e| format!("overhead probe: {e}"))?;
    let args = ArgPack::new().ptr(buf).u32(1).finish();
    let mut samples = Vec::new();
    let t0 = Instant::now();
    while samples.len() < 20 || t0.elapsed() < Duration::from_millis(300) {
        let t = Instant::now();
        for _ in 0..dispatch::BATCH {
            lib.cuda_launch_kernel("fill", dispatch::launch_cfg(), &args, Default::default())
                .map_err(|e| format!("overhead probe: {e}"))?;
        }
        lib.cuda_device_synchronize()
            .map_err(|e| format!("overhead probe: {e}"))?;
        samples.push(t.elapsed().as_secs_f64() * 1e6 / dispatch::BATCH as f64);
    }
    Ok((median(&samples), samples.len()))
}

/// Run every probe on `kind`'s inputs.
pub fn run(ctx: &Ctx, kind: Kind) -> Result<Probes, String> {
    let mut p = Probes::default();
    proto(&mut p, kind);
    transport(&mut p, kind)?;
    patcher(&mut p)?;
    let kernel_1x1 = sim(&mut p)?;
    alloc(&mut p);
    let (per_launch, n) = one_tenant_launch_us(ctx)?;
    let overhead = crate::stats::overhead_per_launch_us(per_launch, kernel_1x1);
    let get = |name: &str| {
        p.metrics
            .iter()
            .find(|m| m.name == name)
            .map_or(f64::NAN, |m| m.value)
    };
    let explained_us = (get("proto.encode_launch_ns")
        + get("proto.decode_launch_ns")
        + get("transport.shm_oneway_ns"))
        / 1e3;
    p.metrics.push(
        Metric::new("guardian.launch_1tenant_us", per_launch, "us", n)
            .note("one dispatch tenant, batches of 100"),
    );
    p.metrics.push(
        Metric::new("guardian.overhead_per_launch_us", overhead, "us", n)
            .note("launch_1tenant minus sim.kernel_1x1"),
    );
    p.metrics.push(
        Metric::new(
            "guardian.unexplained_per_launch_us",
            overhead - explained_us,
            "us",
            n,
        )
        .note("overhead minus proto and shm one-way; not gated"),
    );
    Ok(p)
}

/// Simulated-time overhead, percent, of Guardian over native on the
/// kernels `kind` launches (train measures its own jobs instead).
pub fn sim_overhead_pct(kind: Kind) -> Result<f64, String> {
    let (protection, mix): (Deployment, Vec<(LaunchConfig, u32)>) = match kind {
        Kind::Dispatch => (
            Deployment::GuardianFencing,
            vec![(dispatch::launch_cfg(), 100)],
        ),
        // One background clump and the latency requests due meanwhile.
        Kind::Serve => (
            Deployment::GuardianFencing,
            vec![
                (serve::bg_cfg(), serve::CLUMP as u32),
                (
                    serve::latency_cfg(),
                    (serve::REQUESTS_PER_S / serve::CLUMPS_PER_S) as u32,
                ),
            ],
        ),
        Kind::Churn => (
            Deployment::GuardianChecking,
            vec![(churn::launch_cfg(), 16)],
        ),
        Kind::Train => return Err("train measures its own jobs".into()),
    };
    let cycles = |deployment| -> Result<u64, String> {
        let err = |e: cuda_rt::CudaError| format!("sim overhead: {e}");
        let device = cuda_rt::share_device(gpu_sim::Device::new(gpu_sim::spec::test_gpu()));
        let mut t = deploy(&device, deployment, 1, 1 << 20, &[]).map_err(err)?;
        let api = t.runtimes[0].as_mut();
        api.register_fatbin(&guardiand::tenant_fatbin())
            .map_err(err)?;
        let buf = api.cuda_malloc(8192).map_err(err)?;
        let args = ArgPack::new().ptr(buf).u32(1024).finish();
        let start = {
            let mut d = device.lock();
            d.synchronize();
            d.now()
        };
        for &(cfg, n) in &mix {
            for _ in 0..n {
                api.cuda_launch_kernel("fill", cfg, &args, Default::default())
                    .map_err(err)?;
            }
        }
        api.cuda_device_synchronize().map_err(err)?;
        t.shutdown();
        let mut d = device.lock();
        d.synchronize();
        Ok(d.now() - start)
    };
    Ok(crate::stats::overhead_pct(
        cycles(protection)?,
        cycles(Deployment::Native)?,
    ))
}
