//! Multi-GPU manager acceptance: one grdManager owning a **device set**,
//! exercised end to end in a single scenario family —
//!
//! * hint-pinned placement (strict hints land exactly where asked, or
//!   fail rather than spill),
//! * least-loaded default routing,
//! * one **live migration** with the tenant's data checksummed before
//!   and after the move, while other tenants keep launching,
//! * an OOB fault on GPU 0 killing only the offender while GPU 1's
//!   tenants make verified progress,
//! * and the control-plane rebalancer converging a skewed placement.

use cuda_rt::{share_device, ArgPack, CudaApi, CudaError};
use gpu_sim::spec::test_gpu;
use gpu_sim::LaunchConfig;
use guardian::{
    spawn_manager_multi, BoundTransport, GrdLib, ManagerConfig, PlacementHint, PlacementPolicy,
    Protection,
};
use ptx::fatbin::FatBin;

fn fatbin() -> Vec<u8> {
    let mut fb = FatBin::new();
    fb.push_ptx("app", guardian::fixtures::FILL);
    fb.push_ptx("attack", guardian::fixtures::STOMP);
    fb.to_bytes().to_vec()
}

fn two_gpu_manager(protection: Protection, pool: u64) -> guardian::ManagerHandle {
    let devices = gpu_sim::device_set(vec![test_gpu(), test_gpu()])
        .into_iter()
        .map(share_device)
        .collect();
    let fb = fatbin();
    spawn_manager_multi(
        devices,
        ManagerConfig {
            protection,
            pool_bytes: Some(pool),
            placement: PlacementPolicy::LeastLoaded,
            ..ManagerConfig::default()
        },
        &[&fb],
        BoundTransport::channel(),
    )
    .unwrap()
}

fn run_fill(lib: &mut GrdLib, n: u32) -> Vec<u8> {
    let buf = lib.cuda_malloc(4 * n as u64).unwrap();
    let args = ArgPack::new().ptr(buf).u32(n).finish();
    lib.cuda_launch_kernel(
        "fill",
        LaunchConfig::linear(n.div_ceil(32), 32),
        &args,
        Default::default(),
    )
    .unwrap();
    lib.cuda_device_synchronize().unwrap();
    let out = lib.cuda_memcpy_d2h(buf, 4 * n as u64).unwrap();
    for i in 0..n {
        let v = u32::from_le_bytes(out[i as usize * 4..][..4].try_into().unwrap());
        assert_eq!(v, i);
    }
    // Churn loops call this unboundedly; don't leak the partition heap.
    lib.cuda_free(buf).unwrap();
    out
}

/// The ISSUE's 4-tenant / 2-GPU scenario, in one test: pinning, default
/// routing, live migration with checksum, and cross-GPU fault isolation.
#[test]
fn four_tenants_two_gpus_end_to_end() {
    // Protection::Check so the OOB act is *detected* (fencing would wrap
    // it harmlessly) — the paper's detection/debugging mode.
    let mgr = two_gpu_manager(Protection::Check, 16 << 20);
    assert_eq!(mgr.device_count(), 2);

    // --- hint-pinned placement --------------------------------------
    let mut t0 = GrdLib::connect_hinted(&mgr, 4 << 20, Some(PlacementHint::pin(0))).unwrap();
    let mut t1 = GrdLib::connect_hinted(&mgr, 4 << 20, Some(PlacementHint::pin(1))).unwrap();
    assert_eq!(t0.device(), 0, "strict hint must land on device 0");
    assert_eq!(t1.device(), 1, "strict hint must land on device 1");

    // --- least-loaded default routing --------------------------------
    // Both devices carry one 4 MiB tenant; the next two un-hinted
    // connects must spread, one per device.
    let mut t2 = GrdLib::connect(&mgr, 4 << 20).unwrap();
    let t3 = GrdLib::connect(&mgr, 4 << 20).unwrap();
    assert_ne!(
        t2.device(),
        t3.device(),
        "least-loaded routing must spread equal tenants across devices"
    );
    let infos = mgr.device_infos().unwrap();
    assert_eq!(infos.len(), 2);
    for info in &infos {
        assert_eq!(info.tenants, 2, "two tenants per device: {infos:?}");
        assert_eq!(info.used_bytes, 8 << 20);
        assert_eq!(info.pool_bytes, 16 << 20);
    }

    // --- live migration with data intact ------------------------------
    // t2 seeds a recognizable pattern, checksums it, migrates to the
    // other GPU — while t0 and t1 hammer their own data planes from
    // other threads — and verifies the checksum at the new address.
    let payload: Vec<u8> = (0..8192u32).flat_map(|i| i.to_le_bytes()).collect();
    let before_buf = t2.cuda_malloc(payload.len() as u64).unwrap();
    t2.cuda_memcpy_h2d(before_buf, &payload).unwrap();
    let checksum = |bytes: &[u8]| -> u64 {
        bytes
            .iter()
            .fold(0u64, |h, &b| h.wrapping_mul(131).wrapping_add(b as u64))
    };
    let sum_before = checksum(
        &t2.cuda_memcpy_d2h(before_buf, payload.len() as u64)
            .unwrap(),
    );

    let src_device = t2.device();
    let dst_device = 1 - src_device;
    let (old_base, old_size) = t2.partition();

    // Other tenants' data planes must be undisturbed during the move.
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let churn = {
        let stop = stop.clone();
        std::thread::spawn(move || {
            let mut n = 0u32;
            while !stop.load(std::sync::atomic::Ordering::SeqCst) {
                run_fill(&mut t0, 64);
                run_fill(&mut t1, 64);
                n += 1;
            }
            (t0, t1, n)
        })
    };

    let delta = t2.migrate(dst_device).unwrap();
    assert_eq!(t2.device(), dst_device, "migration must rebind the device");
    let (new_base, new_size) = t2.partition();
    assert_eq!(new_size, old_size, "migration is a same-size move");
    assert_eq!(delta, new_base.wrapping_sub(old_base));

    let after_buf = before_buf.wrapping_add(delta);
    let sum_after = checksum(&t2.cuda_memcpy_d2h(after_buf, payload.len() as u64).unwrap());
    assert_eq!(sum_before, sum_after, "data corrupted by migration");
    // The migrated tenant's data plane works on the new device.
    run_fill(&mut t2, 128);

    stop.store(true, std::sync::atomic::Ordering::SeqCst);
    let (t0, t1, churn_rounds) = churn.join().unwrap();
    assert!(churn_rounds > 0, "churn thread never ran");

    // Source pool bytes were reclaimed; destination gained them.
    let infos = mgr.device_infos().unwrap();
    assert_eq!(infos[src_device as usize].used_bytes, 4 << 20);
    assert_eq!(infos[dst_device as usize].used_bytes, 12 << 20);

    // --- OOB on GPU 0 kills only the offender -------------------------
    // t2 migrated off src_device; the tenant still on device 0 attacks.
    let (attacker, mut survivor) = if t0.device() == 0 { (t0, t1) } else { (t1, t0) };
    let mut attacker = attacker;
    let (base, size) = attacker.partition();
    let args = ArgPack::new().ptr(base + size).u32(0x4141_4141).finish();
    attacker
        .cuda_launch_kernel(
            "stomp",
            LaunchConfig::linear(1, 1),
            &args,
            Default::default(),
        )
        .unwrap();
    assert!(
        attacker.cuda_device_synchronize().is_err(),
        "checking mode must detect the OOB store"
    );
    assert!(
        matches!(attacker.cuda_malloc(16), Err(CudaError::Rejected(_))),
        "the kill must be sticky"
    );
    // GPU 1 tenants make verified progress after the fault on GPU 0.
    assert_eq!(survivor.device(), 1);
    run_fill(&mut survivor, 256);
    run_fill(&mut t2, 256);

    drop((attacker, survivor, t2, t3));
    mgr.shutdown();
}

/// Migration invalidates events recorded on the source device: their
/// timestamps are that device's cycle counts, incomparable with the
/// destination's clock — a stale handle must error, never produce a
/// garbage elapsed time.
#[test]
fn migration_invalidates_recorded_events() {
    let mgr = two_gpu_manager(Protection::FenceBitwise, 8 << 20);
    let mut t = GrdLib::connect_hinted(&mgr, 2 << 20, Some(PlacementHint::pin(0))).unwrap();
    let before = t.cuda_event_create_with_flags(0).unwrap();
    t.cuda_event_record(before, Default::default()).unwrap();
    t.cuda_device_synchronize().unwrap();
    t.migrate(1).unwrap();
    let after = t.cuda_event_create_with_flags(0).unwrap();
    t.cuda_event_record(after, Default::default()).unwrap();
    t.cuda_device_synchronize().unwrap();
    assert!(
        t.cuda_event_elapsed_ms(before, after).is_err(),
        "cross-device elapsed must be rejected"
    );
    // Fresh events on the destination work normally.
    let after2 = t.cuda_event_create_with_flags(0).unwrap();
    t.cuda_event_record(after2, Default::default()).unwrap();
    t.cuda_device_synchronize().unwrap();
    assert!(t.cuda_event_elapsed_ms(after, after2).is_ok());
    drop(t);
    mgr.shutdown();
}

/// A strict hint whose device cannot host the tenant fails instead of
/// spilling; a `prefer` hint spills to the policy's choice.
#[test]
fn strict_hints_fail_instead_of_spilling() {
    let mgr = two_gpu_manager(Protection::FenceBitwise, 8 << 20);
    // Fill device 0 completely.
    let _pin = GrdLib::connect_hinted(&mgr, 8 << 20, Some(PlacementHint::pin(0))).unwrap();
    // Strict: no capacity on 0 → OutOfMemory, even though 1 is empty.
    assert!(matches!(
        GrdLib::connect_hinted(&mgr, 1 << 20, Some(PlacementHint::pin(0))),
        Err(CudaError::OutOfMemory)
    ));
    // Prefer: spills onto device 1.
    let spilled = GrdLib::connect_hinted(&mgr, 1 << 20, Some(PlacementHint::prefer(0))).unwrap();
    assert_eq!(spilled.device(), 1);
    // Unknown device: rejected outright.
    assert!(matches!(
        GrdLib::connect_hinted(&mgr, 1 << 20, Some(PlacementHint::pin(9))),
        Err(CudaError::Rejected(_))
    ));
    drop(spilled);
    drop(_pin);
    mgr.shutdown();
}

/// The control-plane rebalancer narrows a skewed placement one migration
/// at a time, and reports balance once converged.
#[test]
fn rebalancer_converges_skewed_placement() {
    let mgr = two_gpu_manager(Protection::FenceBitwise, 16 << 20);
    // Pin four tenants onto device 0; device 1 idles.
    let mut tenants: Vec<GrdLib> = (0..4)
        .map(|_| GrdLib::connect_hinted(&mgr, 2 << 20, Some(PlacementHint::pin(0))).unwrap())
        .collect();
    // Seed each with a distinct pattern so moves are data-checked.
    let mut bufs = Vec::new();
    for (i, t) in tenants.iter_mut().enumerate() {
        let buf = t.cuda_malloc(1024).unwrap();
        t.cuda_memcpy_h2d(buf, &[i as u8 + 1; 1024]).unwrap();
        bufs.push(buf);
    }
    let mut moves = 0;
    while let Some((_client, src, dst)) = mgr.rebalance().unwrap() {
        assert_eq!((src, dst), (0, 1));
        moves += 1;
        assert!(moves <= 4, "rebalancer failed to converge");
    }
    // 8 MiB vs 0 → two moves lands at 4 MiB vs 4 MiB; a third would
    // only re-skew, so the rebalancer must stop at two.
    assert_eq!(moves, 2, "expected exactly two migrations to balance");
    let infos = mgr.device_infos().unwrap();
    assert_eq!(infos[0].used_bytes, infos[1].used_bytes);
    assert_eq!(infos[0].tenants, 2);
    assert_eq!(infos[1].tenants, 2);
    // Every tenant — moved or not — still sees its own pattern. Moved
    // tenants' cached pointers are stale until they `refresh()`; the
    // delta translates pre-move allocations to the new frame.
    // (delta may be 0 even for a moved tenant — the two devices' address
    // spaces are independent and can coincide numerically — so count
    // moves by device, not by delta.)
    let mut moved_tenants = 0;
    for (i, t) in tenants.iter_mut().enumerate() {
        let delta = t.refresh().unwrap();
        if t.device() == 1 {
            moved_tenants += 1;
        }
        let data = t
            .cuda_memcpy_d2h(bufs[i].wrapping_add(delta), 1024)
            .unwrap();
        assert_eq!(data, vec![i as u8 + 1; 1024], "tenant {i} data lost");
    }
    assert_eq!(moved_tenants, 2, "exactly two tenants now live on device 1");
    drop(tenants);
    mgr.shutdown();
}

/// Candidate choice is activity-aware: with an idle 8 MiB tenant and a
/// hot 2 MiB one crowding device 0, the rebalancer migrates the idle
/// tenant even though the hot one is smaller — moving it pauses nobody,
/// while moving the hot tenant would stall its launch stream behind the
/// copy barrier.
#[test]
fn rebalancer_prefers_idle_tenant_over_hot_smaller_one() {
    let mgr = two_gpu_manager(Protection::FenceBitwise, 16 << 20);
    let mut idle = GrdLib::connect_hinted(&mgr, 8 << 20, Some(PlacementHint::pin(0))).unwrap();
    let mut hot = GrdLib::connect_hinted(&mgr, 2 << 20, Some(PlacementHint::pin(0))).unwrap();
    // Make the small tenant unambiguously hot: a burst of launches the
    // idle tenant never matches.
    let buf = hot.cuda_malloc(4 * 64).unwrap();
    let args = ArgPack::new().ptr(buf).u32(64).finish();
    for _ in 0..16 {
        hot.cuda_launch_kernel(
            "fill",
            LaunchConfig::linear(2, 32),
            &args,
            Default::default(),
        )
        .unwrap();
    }
    hot.cuda_device_synchronize().unwrap();

    let (_client, src, dst) = mgr
        .rebalance()
        .unwrap()
        .expect("skewed placement must produce a migration");
    assert_eq!((src, dst), (0, 1));
    idle.refresh().unwrap();
    hot.refresh().unwrap();
    assert_eq!(idle.device(), 1, "the idle tenant is the one that moved");
    assert_eq!(hot.device(), 0, "the hot tenant stays put");
    drop((idle, hot));
    mgr.shutdown();
}

/// Default pool sizing targets half of the device's *total* memory: on
/// the 64 MiB test GPU the context's 1 MiB scratch must not demote the
/// pool to 16 MiB (sizing from free memory alone loses a whole
/// power-of-two doubling).
#[test]
fn default_pool_is_half_of_total_memory_despite_context_overhead() {
    let devices = vec![share_device(gpu_sim::Device::new(test_gpu()))];
    let fb = fatbin();
    let mgr = spawn_manager_multi(
        devices,
        ManagerConfig::default(), // pool_bytes: None — the sizing under test
        &[&fb],
        BoundTransport::channel(),
    )
    .unwrap();
    let infos = mgr.device_infos().unwrap();
    assert_eq!(
        infos[0].pool_bytes,
        32 << 20,
        "64 MiB device must yield a 32 MiB default pool"
    );
    mgr.shutdown();
}

/// Aborts the whole test binary if `f` has not returned within `limit`:
/// a control-plane deadlock must fail the run, not hang it.
fn with_kill_timeout<R>(limit: std::time::Duration, what: &str, f: impl FnOnce() -> R) -> R {
    let (done, wait) = std::sync::mpsc::channel::<()>();
    let what = what.to_string();
    let watchdog = std::thread::spawn(move || {
        if let Err(std::sync::mpsc::RecvTimeoutError::Timeout) = wait.recv_timeout(limit) {
            eprintln!("{what}: still running after {limit:?}; presumed deadlocked");
            std::process::abort();
        }
    });
    let r = f();
    drop(done);
    watchdog.join().unwrap();
    r
}

/// One tenant lifecycle: register, allocate, write a pattern, fill a
/// second buffer on the device, read both back, free. Returns whether
/// both read-backs completed. Any successful read-back must be
/// byte-exact; an error is allowed — the tenant may have been revoked
/// or expired, or migrated under its cached pointers (a stale pointer
/// fails the partition check instead of reading someone else's bytes).
fn lifecycle(lib: &mut GrdLib, fb: &[u8], tag: u8) -> Result<(), CudaError> {
    const N: u32 = 256;
    lib.register_fatbin(fb)?;
    let pat = lib.cuda_malloc(N as u64)?;
    let out = lib.cuda_malloc(4 * N as u64)?;
    let pattern: Vec<u8> = (0..N).map(|i| (i as u8) ^ tag).collect();
    lib.cuda_memcpy_h2d(pat, &pattern)?;
    let args = ArgPack::new().ptr(out).u32(N).finish();
    lib.cuda_launch_kernel(
        "fill",
        LaunchConfig::linear(N / 32, 32),
        &args,
        Default::default(),
    )?;
    lib.cuda_device_synchronize()?;
    assert_eq!(
        lib.cuda_memcpy_d2h(pat, N as u64)?,
        pattern,
        "pattern read-back"
    );
    let filled = lib.cuda_memcpy_d2h(out, 4 * N as u64)?;
    for i in 0..N {
        let v = u32::from_le_bytes(filled[i as usize * 4..][..4].try_into().unwrap());
        assert_eq!(v, i, "fill read-back at {i}");
    }
    lib.cuda_free(out)?;
    lib.cuda_free(pat)
}

/// Liveness of the inline control plane: tenant threads race connect /
/// register / malloc / free / disconnect on a 2-GPU manager while other
/// threads revoke tenants through the admin (`guardianctl`) path, let
/// short leases expire under the sweeper, migrate partitions, and
/// rebalance. Nothing may deadlock, and every read-back a tenant gets
/// back must be byte-exact.
#[test]
fn control_plane_survives_racing_lifecycles_revokes_expiry_and_migration() {
    use guardian::proto::AdminRequest;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    const TENANTS: u8 = 6;
    const RUN: Duration = Duration::from_millis(1500);
    let mgr = two_gpu_manager(Protection::FenceBitwise, 16 << 20);
    let admin = mgr.admin();
    let uid = guardian::transport::peercred::current_uid();
    let stop = Arc::new(AtomicBool::new(false));
    let verified = Arc::new(AtomicU64::new(0));
    let mut churn_errors = 0u64;
    let (mut revoked, mut migrated) = (0u64, 0u64);
    with_kill_timeout(Duration::from_secs(120), "control-plane stress", || {
        std::thread::scope(|s| {
            let tenants: Vec<_> = (0..TENANTS)
                .map(|t| {
                    let (mgr, stop, verified) = (&mgr, &stop, &verified);
                    s.spawn(move || {
                        let fb = fatbin();
                        let mut errors = 0u64;
                        let mut round = 0u8;
                        while !stop.load(Ordering::Relaxed) {
                            round = round.wrapping_add(1);
                            let hint = round
                                .is_multiple_of(3)
                                .then(|| PlacementHint::pin(u32::from(t % 2)));
                            let Ok(mut lib) = GrdLib::connect_hinted(mgr, 1 << 20, hint) else {
                                errors += 1; // pool momentarily full
                                std::thread::yield_now();
                                continue;
                            };
                            for _ in 0..3 {
                                match lifecycle(&mut lib, &fb, t.wrapping_mul(31) ^ round) {
                                    Ok(()) => {
                                        verified.fetch_add(1, Ordering::Relaxed);
                                    }
                                    Err(_) => {
                                        errors += 1;
                                        break;
                                    }
                                }
                            }
                        }
                        errors
                    })
                })
                .collect();
            // guardianctl-path revocation of whoever is live.
            let revoker = s.spawn(|| {
                let mut n = 0u64;
                let mut pick = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    let live = mgr.control_plane().tenants_table();
                    pick = pick.wrapping_add(7);
                    if let Some(t) = live.get(pick % live.len().max(1)) {
                        let r = admin.handle(AdminRequest::LeaseRevoke { client: t.client });
                        if matches!(r, guardian::proto::AdminResponse::Ok { .. }) {
                            n += 1;
                        }
                    }
                    std::thread::sleep(Duration::from_millis(7));
                }
                n
            });
            // Short leases for whoever connects in the window — racing
            // tenants included — plus one idle tenant held until the
            // sweeper (or the revoker) ends it.
            let expirer = s.spawn(|| {
                let lease = |ttl_ms| AdminRequest::LeaseSet {
                    uid,
                    mem_bytes: u64::MAX,
                    streams: u32::MAX,
                    ttl_ms,
                    qos: 0,
                };
                while !stop.load(Ordering::Relaxed) {
                    admin.handle(lease(5));
                    let lib = GrdLib::connect(&mgr, 1 << 20);
                    admin.handle(lease(0));
                    if let Ok(mut lib) = lib {
                        while lib.cuda_device_synchronize().is_ok() {
                            std::thread::sleep(Duration::from_millis(2));
                        }
                    }
                }
            });
            // Operator migrations and rebalance steps.
            let mover = s.spawn(|| {
                let mut n = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    for t in mgr.control_plane().tenants_table() {
                        if mgr
                            .migrate_partition(guardian::ClientId(t.client), 1 - t.device)
                            .is_ok()
                        {
                            n += 1;
                        }
                    }
                    let _ = mgr.rebalance();
                    std::thread::sleep(Duration::from_millis(3));
                }
                n
            });
            let start = Instant::now();
            while start.elapsed() < RUN {
                std::thread::sleep(Duration::from_millis(20));
            }
            stop.store(true, Ordering::Relaxed);
            for t in tenants {
                churn_errors += t.join().unwrap();
            }
            revoked = revoker.join().unwrap();
            expirer.join().unwrap();
            migrated = mover.join().unwrap();
        });
    });
    let expired = mgr.control_plane().expired_total.load(Ordering::Relaxed);
    eprintln!(
        "verified {} lifecycles; {revoked} revoked, {expired} expired, \
         {migrated} migrated, {churn_errors} interrupted",
        verified.load(Ordering::Relaxed)
    );
    assert!(
        verified.load(Ordering::Relaxed) > 0,
        "no tenant made progress"
    );
    assert!(revoked > 0, "the revoker never landed");
    assert!(expired > 0, "no lease expired under the sweeper");
    assert!(migrated > 0, "no partition migrated");
    // Every tenancy is gone: both pools are whole again.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let infos = mgr.device_infos().unwrap();
        if infos.iter().all(|i| i.used_bytes == 0 && i.tenants == 0) {
            break;
        }
        assert!(Instant::now() < deadline, "partitions leaked: {infos:?}");
        std::thread::sleep(Duration::from_millis(5));
    }
    mgr.shutdown();
}

/// Dropping the last handle releases every device context — device
/// memory returns to what it was before the manager existed — and
/// returns at once instead of waiting out a lease-sweep tick.
#[test]
fn dropping_the_last_handle_releases_every_device_context_promptly() {
    let devices: Vec<_> = gpu_sim::device_set(vec![test_gpu(), test_gpu()])
        .into_iter()
        .map(share_device)
        .collect();
    let before: Vec<u64> = devices.iter().map(|d| d.lock().used_bytes()).collect();
    let fb = fatbin();
    let mgr = spawn_manager_multi(
        devices.clone(),
        ManagerConfig {
            pool_bytes: Some(16 << 20),
            ..ManagerConfig::default()
        },
        &[&fb],
        BoundTransport::channel(),
    )
    .unwrap();
    for d in &devices {
        assert!(d.lock().used_bytes() > before[0], "pool not reserved");
    }
    for gpu in 0..2 {
        let mut t = GrdLib::connect_hinted(&mgr, 2 << 20, Some(PlacementHint::pin(gpu))).unwrap();
        run_fill(&mut t, 64);
    }
    let start = std::time::Instant::now();
    drop(mgr);
    let took = start.elapsed();
    let after: Vec<u64> = devices.iter().map(|d| d.lock().used_bytes()).collect();
    assert_eq!(after, before, "device contexts outlived the manager");
    assert!(
        took < std::time::Duration::from_millis(100),
        "dropping the last handle took {took:?}"
    );
}
