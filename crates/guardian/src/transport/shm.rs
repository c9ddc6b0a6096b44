//! Shared-memory ring transport: syscall-free frame exchange between
//! processes.
//!
//! Each connection is an mmap'd file holding one fixed-capacity SPSC byte
//! ring per direction. Head and tail are monotonically increasing 64-bit
//! byte counters in dedicated cache lines; the producer publishes a frame
//! (4-byte length + payload, wrapping at byte granularity) with a single
//! release store of the tail, the consumer retires it with a release
//! store of the head. A send on the hot path is therefore two bounded
//! `memcpy`s and one atomic store — no syscall, no lock shared with the
//! peer — which is what makes this the transport of choice for the
//! high-rate one-way deferred-launch path.
//!
//! A Unix domain socket carries the connection handshake (the dialer
//! creates the ring file, names it to the listener, and unlinks it once
//! both sides have it mapped) and then serves as the **liveness channel**:
//! neither side writes to it again, so a readable EOF means the peer is
//! gone — including by `SIGKILL`, where the kernel closes the socket for
//! the corpse. The receiver drains frames still in the ring before
//! reporting [`TransportError::Disconnected`] (tail is published only
//! after a frame is fully written, so everything up to tail is intact
//! even after a mid-storm kill).
//!
//! **Parking is eventfd-driven.** The dialer creates one eventfd
//! *doorbell* per side and passes both to the listener with the
//! handshake (`SCM_RIGHTS` on the hello's preamble byte). A waiter —
//! consumer out of frames, or producer out of ring space — publishes a
//! *parked* flag in the ring header, re-checks the counters (Dekker
//! style, with seq-cst fences on both sides), and then sleeps in
//! `poll(2)` on its doorbell **and** the liveness socket. The peer rings
//! the doorbell only when the parked flag is set, so the hot path stays
//! syscall-free, and a parked side wakes instantly on either new
//! data/space or peer death (socket EOF) — no sleep ladder, no liveness
//! probe cadence. Peers that skip the doorbell exchange (legacy or
//! hand-rolled hellos) fall back to a short spin followed by a 1 ms
//! `poll` on the socket alone: still wakeup-driven for death detection,
//! just periodic for data.

use super::frame::{self, BufPool, FrameView, BATCH_FLAG, PREAMBLE};
use super::peercred::UidPolicy;
use super::{sys, Connection, Dialer, Listener, TransportError};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::ffi::c_void;
use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{fence, AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Default per-direction ring capacity (1 MiB: thousands of launch
/// frames in flight before the producer ever waits).
pub const DEFAULT_RING_CAPACITY: u32 = 1 << 20;

/// Bounds on the capacity a dialer may request (validated by the
/// listener before mapping a client-named file).
const MIN_CAPACITY: u32 = 4096;
const MAX_CAPACITY: u32 = 1 << 30;

/// File magic identifying a Guardian ring file.
const SHM_MAGIC: u64 = u64::from_le_bytes(*b"GRDSHMR\x01");

// ---- fixed file layout -----------------------------------------------------
// Heads and tails live 64 bytes apart so the producer's tail line and the
// consumer's head line never false-share.

const OFF_MAGIC: usize = 0;
const OFF_VERSION: usize = 8;
const OFF_CAPACITY: usize = 12;
const OFF_C2S_TAIL: usize = 64;
const OFF_C2S_HEAD: usize = 128;
const OFF_S2C_TAIL: usize = 192;
const OFF_S2C_HEAD: usize = 256;
/// Parked flags (u32, 0|1): set by a side before it sleeps in `poll` on
/// its doorbell, checked by the peer after publishing — the peer only
/// pays the `write(eventfd)` syscall when someone is actually asleep.
const OFF_CLIENT_PARKED: usize = 320;
const OFF_SERVER_PARKED: usize = 384;
const OFF_DATA: usize = 4096;

fn file_len(capacity: u32) -> u64 {
    OFF_DATA as u64 + 2 * capacity as u64
}

const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(5);

fn io_err(op: &'static str, e: &std::io::Error) -> TransportError {
    TransportError::from_io(op, e)
}

// ---- raw mapping -----------------------------------------------------------

// The container vendors no `libc` crate, but every Rust binary links the
// C runtime; declare the two symbols we need directly.
extern "C" {
    fn mmap(
        addr: *mut c_void,
        len: usize,
        prot: i32,
        flags: i32,
        fd: i32,
        offset: i64,
    ) -> *mut c_void;
    fn munmap(addr: *mut c_void, len: usize) -> i32;
}

const PROT_READ: i32 = 1;
const PROT_WRITE: i32 = 2;
const MAP_SHARED: i32 = 1;

/// An mmap'd shared file. Page-aligned, unmapped on drop.
struct RawMap {
    ptr: *mut u8,
    len: usize,
}

// The map is plain shared memory; all concurrent access goes through the
// atomics at fixed offsets and the SPSC discipline documented above.
unsafe impl Send for RawMap {}
unsafe impl Sync for RawMap {}

impl RawMap {
    fn map(file: &File, len: usize) -> Result<RawMap, TransportError> {
        let ptr = unsafe {
            mmap(
                std::ptr::null_mut(),
                len,
                PROT_READ | PROT_WRITE,
                MAP_SHARED,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr as isize == -1 || ptr.is_null() {
            return Err(TransportError::Io {
                op: "mmap",
                kind: std::io::ErrorKind::Other,
                detail: format!("mmap of {len} bytes failed"),
            });
        }
        Ok(RawMap {
            ptr: ptr.cast(),
            len,
        })
    }

    /// The atomic u64 at byte offset `off` (offsets are 8-byte aligned by
    /// construction; the mapping itself is page-aligned).
    fn atomic_u64(&self, off: usize) -> &AtomicU64 {
        debug_assert!(off.is_multiple_of(8) && off + 8 <= self.len);
        unsafe { &*(self.ptr.add(off) as *const AtomicU64) }
    }

    fn atomic_u32(&self, off: usize) -> &AtomicU32 {
        debug_assert!(off.is_multiple_of(4) && off + 4 <= self.len);
        unsafe { &*(self.ptr.add(off) as *const AtomicU32) }
    }
}

impl Drop for RawMap {
    fn drop(&mut self) {
        unsafe {
            munmap(self.ptr.cast(), self.len);
        }
    }
}

/// One direction of the ring: where its data lives and which counters
/// belong to it. `head`/`tail` are byte offsets into the header area.
#[derive(Clone, Copy)]
struct RingRef {
    data: usize,
    cap: u64,
    head: usize,
    tail: usize,
}

/// Copy `bytes` into the ring at logical position `pos`, wrapping.
fn ring_write(map: &RawMap, r: RingRef, pos: u64, bytes: &[u8]) {
    let idx = (pos & (r.cap - 1)) as usize;
    let first = bytes.len().min(r.cap as usize - idx);
    unsafe {
        std::ptr::copy_nonoverlapping(bytes.as_ptr(), map.ptr.add(r.data + idx), first);
        if first < bytes.len() {
            std::ptr::copy_nonoverlapping(
                bytes.as_ptr().add(first),
                map.ptr.add(r.data),
                bytes.len() - first,
            );
        }
    }
}

/// Copy from the ring at logical position `pos` into `out`, wrapping.
fn ring_read(map: &RawMap, r: RingRef, pos: u64, out: &mut [u8]) {
    let idx = (pos & (r.cap - 1)) as usize;
    let first = out.len().min(r.cap as usize - idx);
    unsafe {
        std::ptr::copy_nonoverlapping(map.ptr.add(r.data + idx), out.as_mut_ptr(), first);
        if first < out.len() {
            std::ptr::copy_nonoverlapping(
                map.ptr.add(r.data),
                out.as_mut_ptr().add(first),
                out.len() - first,
            );
        }
    }
}

// ---- parking ---------------------------------------------------------------

/// Iterations of `spin_loop`/`yield_now` before a waiter parks for real.
/// Short: the doorbell wake costs ~a microsecond, so burning long spin
/// phases per idle tenant is exactly what this transport no longer does.
const SPIN_ITERS: u32 = 128;
const YIELD_ITERS: u32 = 32;

/// Safety-net timeout for a doorbell park. The Dekker protocol makes a
/// lost wakeup impossible in theory; the bound makes a latent bug cost
/// 100 ms instead of a hang (and re-checks liveness on the way out).
const PARK_TIMEOUT_MS: i32 = 100;

/// Park interval for connections without doorbells (legacy or
/// hand-rolled peers that skipped the fd exchange): poll the liveness
/// socket — waking instantly on peer death — and re-check the ring every
/// millisecond.
const FALLBACK_PARK_MS: i32 = 1;

/// The eventfd pair wired up by the handshake: the peer rings `mine`
/// when we are parked; we ring `peers` when they are.
struct Doorbells {
    mine: sys::OwnedFd,
    peers: sys::OwnedFd,
}

/// Probe the liveness socket: EOF means the peer is gone (exited,
/// crashed, or SIGKILLed — the kernel closes its end either way).
fn peer_gone(sock: &UnixStream) -> bool {
    let mut probe = [0u8; 8];
    match (&*sock).read(&mut probe) {
        Ok(0) => true,
        Ok(_) => false, // stray bytes: peer still holds the socket
        Err(e) => e.kind() != std::io::ErrorKind::WouldBlock,
    }
}

// ---- connection ------------------------------------------------------------

/// Which half of the ring file this endpoint is.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Side {
    Client,
    Server,
}

/// One shared-memory connection endpoint.
pub struct ShmConnection {
    map: RawMap,
    sock: UnixStream,
    send_ring: RingRef,
    recv_ring: RingRef,
    /// Serializes local senders (the ring is SPSC per direction; the
    /// lock makes one endpoint's concurrent callers look like the single
    /// producer the ring requires).
    send_lock: Mutex<()>,
    /// Serializes local receivers; also queues the tail of a decoded
    /// batch frame so every `recv`/`try_recv` returns one payload.
    recv_lock: Mutex<VecDeque<FrameView>>,
    /// Recycles the receive-copy buffers frames are lifted into off the
    /// ring, so a steady-state receiver allocates nothing per frame.
    recv_pool: Arc<BufPool>,
    /// Eventfd pair from the handshake; `None` for peers that skipped
    /// the fd exchange (fallback parking applies).
    doorbells: Option<Doorbells>,
    /// Header offset of *our* parked flag (set before we sleep).
    my_parked: usize,
    /// Header offset of the *peer's* parked flag (checked after we
    /// publish).
    peer_parked: usize,
    /// Server side only: the listener's exclusive claim on the ring
    /// file, released on drop.
    _claim: Option<RingClaim>,
}

impl ShmConnection {
    /// Wrap a mapped ring and its handshake socket. The socket goes
    /// non-blocking here, whoever built it: [`peer_gone`] probes it with
    /// a `read` that must never wait for bytes.
    fn new(
        map: RawMap,
        sock: UnixStream,
        capacity: u32,
        side: Side,
        doorbells: Option<Doorbells>,
        claim: Option<RingClaim>,
    ) -> Result<Self, TransportError> {
        sock.set_nonblocking(true)
            .map_err(|e| io_err("handshake", &e))?;
        let cap = capacity as u64;
        let c2s = RingRef {
            data: OFF_DATA,
            cap,
            head: OFF_C2S_HEAD,
            tail: OFF_C2S_TAIL,
        };
        let s2c = RingRef {
            data: OFF_DATA + capacity as usize,
            cap,
            head: OFF_S2C_HEAD,
            tail: OFF_S2C_TAIL,
        };
        let (send_ring, recv_ring, my_parked, peer_parked) = match side {
            Side::Client => (c2s, s2c, OFF_CLIENT_PARKED, OFF_SERVER_PARKED),
            Side::Server => (s2c, c2s, OFF_SERVER_PARKED, OFF_CLIENT_PARKED),
        };
        Ok(ShmConnection {
            map,
            sock,
            send_ring,
            recv_ring,
            send_lock: Mutex::new(()),
            recv_lock: Mutex::new(VecDeque::new()),
            recv_pool: BufPool::new(),
            doorbells,
            my_parked,
            peer_parked,
            _claim: claim,
        })
    }

    /// After publishing (tail advance) or retiring (head advance): ring
    /// the peer's doorbell iff it declared itself parked. The seq-cst
    /// fence pairs with the one in [`ShmConnection::park`] — either we
    /// see their parked flag, or they see our counter update.
    fn wake_peer_if_parked(&self) {
        fence(Ordering::SeqCst);
        if let Some(db) = &self.doorbells {
            if self.map.atomic_u32(self.peer_parked).load(Ordering::SeqCst) == 1 {
                sys::eventfd_signal(db.peers.raw());
            }
        }
    }

    /// Park until the doorbell rings, the peer dies, or `ready()` turns
    /// true. Returns `Err(Disconnected)` only on peer death with
    /// `ready()` still false (so a receiver drains the ring first).
    ///
    /// One endpoint can have a sender (out of space) and a receiver (out
    /// of frames) parked at once sharing one doorbell; a wake meant for
    /// one may be consumed by the other. The bounded park makes that a
    /// latency blip, not a hang.
    fn park(&self, ready: impl Fn() -> bool) -> Result<(), TransportError> {
        match &self.doorbells {
            Some(db) => {
                let parked = self.map.atomic_u32(self.my_parked);
                parked.store(1, Ordering::SeqCst);
                fence(Ordering::SeqCst);
                if ready() {
                    parked.store(0, Ordering::SeqCst);
                    return Ok(());
                }
                if peer_gone(&self.sock) {
                    parked.store(0, Ordering::SeqCst);
                    return Err(TransportError::Disconnected);
                }
                sys::poll_fds(
                    &[
                        (db.mine.raw(), sys::POLLIN),
                        (self.sock.as_raw_fd(), sys::POLLIN),
                    ],
                    PARK_TIMEOUT_MS,
                );
                sys::eventfd_drain(db.mine.raw());
                parked.store(0, Ordering::SeqCst);
                if !ready() && peer_gone(&self.sock) {
                    return Err(TransportError::Disconnected);
                }
                Ok(())
            }
            None => {
                // No doorbell: poll the liveness socket alone. Peer
                // death still wakes us instantly; fresh data is picked
                // up on the next 1 ms tick.
                sys::poll_fds(&[(self.sock.as_raw_fd(), sys::POLLIN)], FALLBACK_PARK_MS);
                if !ready() && peer_gone(&self.sock) {
                    return Err(TransportError::Disconnected);
                }
                Ok(())
            }
        }
    }

    /// Spin briefly, then park until `ready()`. The caller re-derives
    /// whatever state it needs after this returns.
    fn wait_until(&self, ready: impl Fn() -> bool) -> Result<(), TransportError> {
        loop {
            for _ in 0..SPIN_ITERS {
                if ready() {
                    return Ok(());
                }
                std::hint::spin_loop();
            }
            for _ in 0..YIELD_ITERS {
                if ready() {
                    return Ok(());
                }
                std::thread::yield_now();
            }
            self.park(&ready)?;
            if ready() {
                return Ok(());
            }
        }
    }

    /// Sole producer (send lock held): write `word` (length prefix,
    /// possibly batch-flagged) + `body`, waiting for ring space.
    fn raw_send(&self, word: u32, body: &[u8]) -> Result<(), TransportError> {
        let r = self.send_ring;
        let need = body.len() as u64 + 4;
        debug_assert!(need <= r.cap, "caller checks capacity");
        let tail_a = self.map.atomic_u64(r.tail);
        let head_a = self.map.atomic_u64(r.head);
        // Sole producer under the lock: our own tail is stable.
        let tail = tail_a.load(Ordering::Relaxed);
        let hostile = std::cell::Cell::new(false);
        self.wait_until(|| {
            // The consumer's head counter lives in memory the peer can
            // scribble on; treat it as untrusted input, exactly like the
            // recv path treats the producer's counters. A head "ahead"
            // of our tail can only mean a hostile or corrupted peer.
            let head = head_a.load(Ordering::Acquire);
            let used = tail.wrapping_sub(head);
            if used > r.cap {
                hostile.set(true);
                return true;
            }
            r.cap - used >= need
        })?;
        if hostile.get() {
            let head = head_a.load(Ordering::Acquire);
            return Err(TransportError::Io {
                op: "send",
                kind: std::io::ErrorKind::InvalidData,
                detail: format!("ring consumer head {head} ahead of producer tail {tail}"),
            });
        }
        ring_write(&self.map, r, tail, &word.to_le_bytes());
        ring_write(&self.map, r, tail + 4, body);
        // Publish: the consumer's acquire load of tail sees the frame
        // bytes fully written.
        tail_a.store(tail + need, Ordering::Release);
        self.wake_peer_if_parked();
        Ok(())
    }

    /// With the recv lock held and the ring non-empty at `(head, tail)`:
    /// consume one wire frame, pushing its payload(s) onto `pending`
    /// (one for a plain frame, each sub-frame for a batch).
    fn consume_wire_frame(
        &self,
        pending: &mut VecDeque<FrameView>,
        head: u64,
        tail: u64,
    ) -> Result<(), TransportError> {
        let r = self.recv_ring;
        // The producer's tail is peer-writable memory: untrusted. A tail
        // "behind" our head (published > cap after wrapping) means a
        // hostile or corrupted producer.
        let published = tail.wrapping_sub(head);
        let mut len_bytes = [0u8; 4];
        ring_read(&self.map, r, head, &mut len_bytes);
        let word = u32::from_le_bytes(len_bytes);
        let len = (word & !BATCH_FLAG) as u64;
        if published > r.cap || len + 4 > published {
            // Only a corrupted (or hostile) producer can publish a length
            // beyond its own published bytes; don't trust the stream.
            return Err(TransportError::Io {
                op: "recv",
                kind: std::io::ErrorKind::InvalidData,
                detail: format!("ring frame length {len} exceeds published bytes"),
            });
        }
        // Lift the payload off the ring into a pooled buffer: the one
        // unavoidable copy (ring slots recycle under the producer), but
        // the buffer itself is reused across frames.
        let mut payload = self.recv_pool.take();
        payload.resize(len as usize, 0);
        ring_read(&self.map, r, head + 4, &mut payload);
        self.map
            .atomic_u64(r.head)
            .store(head + 4 + len, Ordering::Release);
        // A producer parked on backpressure wants to know space opened.
        self.wake_peer_if_parked();
        let view = FrameView::pooled(payload, &self.recv_pool);
        if word & BATCH_FLAG == 0 {
            pending.push_back(view);
        } else {
            // Sub-frames are bounded by the batch body, which the check
            // above already bounded by the ring capacity. Each sub-frame
            // is a zero-copy sub-view of the shared body block.
            frame::split_batch_views(&view, r.cap.min(u32::MAX as u64) as u32, pending)?;
        }
        Ok(())
    }
}

impl Connection for ShmConnection {
    fn send(&self, frame: Vec<u8>) -> Result<(), TransportError> {
        let r = self.send_ring;
        let need = frame.len() as u64 + 4;
        if need > r.cap {
            return Err(TransportError::FrameTooLarge {
                len: frame.len() as u64,
                max: r.cap - 4,
            });
        }
        let _guard = self.send_lock.lock();
        self.raw_send(frame.len() as u32, &frame)
    }

    fn recv(&self) -> Result<Vec<u8>, TransportError> {
        let r = self.recv_ring;
        let mut pending = self.recv_lock.lock();
        loop {
            if let Some(f) = pending.pop_front() {
                return Ok(f.into_vec());
            }
            let tail_a = self.map.atomic_u64(r.tail);
            let head_a = self.map.atomic_u64(r.head);
            let head = head_a.load(Ordering::Relaxed);
            // Ring drained: only a dead peer may end the stream — frames
            // written before the peer died are still delivered.
            self.wait_until(|| tail_a.load(Ordering::Acquire) != head)?;
            let tail = tail_a.load(Ordering::Acquire);
            self.consume_wire_frame(&mut pending, head, tail)?;
        }
    }

    fn send_batch(&self, frames: Vec<Vec<u8>>) -> Result<(), TransportError> {
        if frames.len() <= 1 {
            return match frames.into_iter().next() {
                Some(f) => self.send(f),
                None => Ok(()),
            };
        }
        let r = self.send_ring;
        let body = frame::batch_body(&frames);
        if body.len() as u64 + 4 > r.cap {
            // Run too large for one publish: send frame-by-frame under
            // one producer lock so the run stays contiguous.
            let _guard = self.send_lock.lock();
            for f in frames {
                let need = f.len() as u64 + 4;
                if need > r.cap {
                    return Err(TransportError::FrameTooLarge {
                        len: f.len() as u64,
                        max: r.cap - 4,
                    });
                }
                self.raw_send(f.len() as u32, &f)?;
            }
            return Ok(());
        }
        let _guard = self.send_lock.lock();
        self.raw_send(body.len() as u32 | BATCH_FLAG, &body)
    }

    fn try_recv(&self) -> Result<Option<FrameView>, TransportError> {
        let r = self.recv_ring;
        let mut pending = self.recv_lock.lock();
        // Reset park state from a previous None: drain the doorbell and
        // clear the flag so producers go back to syscall-free publishes.
        if let Some(db) = &self.doorbells {
            self.map
                .atomic_u32(self.my_parked)
                .store(0, Ordering::SeqCst);
            sys::eventfd_drain(db.mine.raw());
        }
        loop {
            if let Some(f) = pending.pop_front() {
                return Ok(Some(f));
            }
            let tail_a = self.map.atomic_u64(r.tail);
            let head_a = self.map.atomic_u64(r.head);
            let head = head_a.load(Ordering::Relaxed);
            let tail = tail_a.load(Ordering::Acquire);
            if tail != head {
                self.consume_wire_frame(&mut pending, head, tail)?;
                continue;
            }
            // Empty. Declare ourselves parked *before* the final check —
            // the Dekker handshake with the producer's publish path —
            // so the executor's next poll cannot miss a frame published
            // in between.
            if let Some(_db) = &self.doorbells {
                self.map
                    .atomic_u32(self.my_parked)
                    .store(1, Ordering::SeqCst);
                fence(Ordering::SeqCst);
                if tail_a.load(Ordering::SeqCst) != head {
                    self.map
                        .atomic_u32(self.my_parked)
                        .store(0, Ordering::SeqCst);
                    continue;
                }
            }
            if peer_gone(&self.sock) {
                return Err(TransportError::Disconnected);
            }
            return Ok(None);
        }
    }

    fn has_queued(&self) -> bool {
        // Sub-frames of a batch already lifted off the ring, or bytes
        // the producer published that we have not consumed yet.
        if !self.recv_lock.lock().is_empty() {
            return true;
        }
        let r = self.recv_ring;
        self.map.atomic_u64(r.tail).load(Ordering::Acquire)
            != self.map.atomic_u64(r.head).load(Ordering::Relaxed)
    }

    fn enter_event_mode(&self) -> bool {
        // Event mode needs the doorbell: ring traffic never touches a
        // pollable fd otherwise. Doorbell-less peers keep a dedicated
        // blocking thread.
        self.doorbells.is_some()
    }

    fn event_fds(&self) -> Vec<i32> {
        match &self.doorbells {
            Some(db) => vec![db.mine.raw(), self.sock.as_raw_fd()],
            None => Vec::new(),
        }
    }
}

// ---- handshake -------------------------------------------------------------

/// Client half of the handshake: name the ring file and its capacity.
/// This is the doorbell-less legacy form (kept as the wire baseline —
/// and as the hand-rolled-hostile-client path the tests exercise);
/// [`send_hello_with_bells`] is what the dialer actually uses.
#[cfg_attr(not(test), allow(dead_code))]
fn send_hello(sock: &UnixStream, path: &Path, capacity: u32) -> Result<(), TransportError> {
    let bytes = path.as_os_str().as_encoded_bytes();
    let mut msg = Vec::with_capacity(12 + bytes.len());
    msg.extend_from_slice(&PREAMBLE);
    msg.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
    msg.extend_from_slice(bytes);
    msg.extend_from_slice(&capacity.to_le_bytes());
    (&*sock)
        .write_all(&msg)
        .map_err(|e| io_err("handshake", &e))
}

/// [`send_hello`] with the two doorbell eventfds riding `SCM_RIGHTS` on
/// the preamble bytes (`[client's bell, server's bell]`). The rest of
/// the hello travels as plain stream bytes, so a server reads it
/// identically either way.
fn send_hello_with_bells(
    sock: &UnixStream,
    path: &Path,
    capacity: u32,
    client_bell: &sys::OwnedFd,
    server_bell: &sys::OwnedFd,
) -> Result<(), TransportError> {
    let sent = sys::send_with_fds(
        sock.as_raw_fd(),
        &PREAMBLE,
        &[client_bell.raw(), server_bell.raw()],
    )
    .map_err(|e| io_err("handshake", &e))?;
    if sent != PREAMBLE.len() {
        return Err(TransportError::Io {
            op: "handshake",
            kind: std::io::ErrorKind::WriteZero,
            detail: format!("short preamble sendmsg ({sent} of 4 bytes)"),
        });
    }
    let bytes = path.as_os_str().as_encoded_bytes();
    let mut msg = Vec::with_capacity(8 + bytes.len());
    msg.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
    msg.extend_from_slice(bytes);
    msg.extend_from_slice(&capacity.to_le_bytes());
    (&*sock)
        .write_all(&msg)
        .map_err(|e| io_err("handshake", &e))
}

/// Server half: read the hello, validate, map the ring file. Collects
/// the doorbell fds if the client attached them (`None` otherwise —
/// the connection then uses fallback parking).
fn read_hello(sock: &UnixStream) -> Result<(PathBuf, u32, Option<Doorbells>), TransportError> {
    // The preamble comes via recvmsg so an attached SCM_RIGHTS payload
    // is collected; a plain-write legacy hello yields the same bytes
    // with no fds. Loop in case the kernel splits the 4 bytes.
    let mut preamble = [0u8; 4];
    let mut got = 0usize;
    let mut fds = Vec::new();
    while got < 4 {
        let (n, mut newfds) = sys::recv_with_fds(sock.as_raw_fd(), &mut preamble[got..], 2)
            .map_err(|e| io_err("handshake", &e))?;
        if n == 0 {
            return Err(TransportError::Disconnected);
        }
        got += n;
        fds.append(&mut newfds);
    }
    frame::check_preamble(&preamble)?;
    // Exactly two fds form a doorbell pair (ours is the second); any
    // other count is a peer playing games — ignore the fds, keep the
    // connection on fallback parking.
    let doorbells = if fds.len() == 2 {
        let server_bell = fds.pop().expect("two fds");
        let client_bell = fds.pop().expect("two fds");
        Some(Doorbells {
            mine: server_bell,
            peers: client_bell,
        })
    } else {
        None
    };
    let mut len_bytes = [0u8; 4];
    (&*sock)
        .read_exact(&mut len_bytes)
        .map_err(|e| io_err("handshake", &e))?;
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len == 0 || len > 4096 {
        return Err(TransportError::Io {
            op: "handshake",
            kind: std::io::ErrorKind::InvalidData,
            detail: format!("ring path length {len} out of range"),
        });
    }
    let mut path_bytes = vec![0u8; len];
    (&*sock)
        .read_exact(&mut path_bytes)
        .map_err(|e| io_err("handshake", &e))?;
    let mut cap_bytes = [0u8; 4];
    (&*sock)
        .read_exact(&mut cap_bytes)
        .map_err(|e| io_err("handshake", &e))?;
    let capacity = u32::from_le_bytes(cap_bytes);
    if !capacity.is_power_of_two() || !(MIN_CAPACITY..=MAX_CAPACITY).contains(&capacity) {
        return Err(TransportError::Io {
            op: "handshake",
            kind: std::io::ErrorKind::InvalidData,
            detail: format!("ring capacity {capacity} invalid"),
        });
    }
    // Lossless round trip: the bytes came from as_encoded_bytes on the
    // client; treat them as a platform path verbatim.
    let path =
        PathBuf::from(unsafe { std::ffi::OsString::from_encoded_bytes_unchecked(path_bytes) });
    Ok((path, capacity, doorbells))
}

fn validate_header(map: &RawMap, capacity: u32) -> Result<(), TransportError> {
    let magic = map.atomic_u64(OFF_MAGIC).load(Ordering::Acquire);
    if magic != SHM_MAGIC {
        return Err(TransportError::Io {
            op: "handshake",
            kind: std::io::ErrorKind::InvalidData,
            detail: format!("ring file magic {magic:#x} != {SHM_MAGIC:#x}"),
        });
    }
    let version = map.atomic_u32(OFF_VERSION).load(Ordering::Acquire);
    if version != frame::TRANSPORT_VERSION as u32 {
        return Err(TransportError::VersionMismatch {
            got: version as u8,
            want: frame::TRANSPORT_VERSION,
        });
    }
    let cap = map.atomic_u32(OFF_CAPACITY).load(Ordering::Acquire);
    if cap != capacity {
        return Err(TransportError::Io {
            op: "handshake",
            kind: std::io::ErrorKind::InvalidData,
            detail: format!("ring header capacity {cap} != hello capacity {capacity}"),
        });
    }
    Ok(())
}

// ---- listener / dialer -----------------------------------------------------

/// Identity of a mapped ring file: `(device, inode)`. The SPSC ring
/// discipline tolerates exactly one server-side endpoint per file; the
/// listener tracks live claims so a hostile client cannot alias one
/// ring file into two connections (two server producers on one ring
/// would race inside the trusted manager).
type RingFileId = (u64, u64);

/// Registry entry held by a server-side connection; frees the ring-file
/// claim when the connection drops.
struct RingClaim {
    id: RingFileId,
    registry: Arc<Mutex<std::collections::HashSet<RingFileId>>>,
}

impl Drop for RingClaim {
    fn drop(&mut self) {
        self.registry.lock().remove(&self.id);
    }
}

/// Server side: accepts shared-memory connections handshaken over a Unix
/// socket at a well-known path.
pub struct ShmListener {
    listener: UnixListener,
    path: PathBuf,
    stop: Arc<AtomicBool>,
    policy: UidPolicy,
    /// Optional per-uid connect-rate gate on the handshake socket.
    admission: Option<Arc<crate::control::Admission>>,
    /// Ring files currently mapped by live server connections.
    mapped: Arc<Mutex<std::collections::HashSet<RingFileId>>>,
}

impl ShmListener {
    /// Bind the handshake socket at `path` (replacing any stale file).
    /// Returns the listener and an `unblock` closure for shutdown, as
    /// [`UdsListener::bind`](super::uds::UdsListener::bind) does.
    ///
    /// # Errors
    ///
    /// [`TransportError::Io`] when binding fails.
    pub fn bind(path: &Path) -> Result<(Self, super::UnblockFn), TransportError> {
        Self::bind_with_policy(path, UidPolicy::AllowAll)
    }

    /// [`ShmListener::bind`] with an `SO_PEERCRED` uid policy on the
    /// handshake socket — the ring file is only ever opened for peers
    /// the policy admits.
    ///
    /// # Errors
    ///
    /// As [`ShmListener::bind`].
    pub fn bind_with_policy(
        path: &Path,
        policy: UidPolicy,
    ) -> Result<(Self, super::UnblockFn), TransportError> {
        Self::bind_gated(path, policy, None)
    }

    /// [`ShmListener::bind_with_policy`] with an optional per-uid
    /// connect-rate gate ([`Admission`](crate::control::Admission)) on
    /// the handshake socket: over-rate peers are dropped before their
    /// hello is read (their ring file is never opened).
    ///
    /// # Errors
    ///
    /// As [`ShmListener::bind`].
    pub fn bind_gated(
        path: &Path,
        policy: UidPolicy,
        admission: Option<Arc<crate::control::Admission>>,
    ) -> Result<(Self, super::UnblockFn), TransportError> {
        if path.exists() {
            std::fs::remove_file(path).map_err(|e| io_err("bind", &e))?;
        }
        let listener = UnixListener::bind(path).map_err(|e| io_err("bind", &e))?;
        let stop = Arc::new(AtomicBool::new(false));
        let unblock = {
            let stop = stop.clone();
            let path = path.to_path_buf();
            Box::new(move || {
                stop.store(true, Ordering::SeqCst);
                let _ = UnixStream::connect(&path);
            })
        };
        Ok((
            ShmListener {
                listener,
                path: path.to_path_buf(),
                stop,
                policy,
                admission,
                mapped: Arc::new(Mutex::new(std::collections::HashSet::new())),
            },
            unblock,
        ))
    }
}

/// Server half of the hello: validate, open, claim, and map the ring
/// file the client named. Runs on the accepted connection's own session
/// thread (see [`PendingShmConnection`]), never on the accept loop.
fn complete_server_handshake(
    sock: &UnixStream,
    mapped: &Arc<Mutex<std::collections::HashSet<RingFileId>>>,
) -> Result<(RawMap, u32, Option<Doorbells>, RingClaim), TransportError> {
    use std::os::unix::fs::{MetadataExt, OpenOptionsExt};

    sock.set_read_timeout(Some(HANDSHAKE_TIMEOUT))
        .map_err(|e| io_err("handshake", &e))?;
    let (ring_path, capacity, doorbells) = read_hello(sock)?;
    // O_NOFOLLOW | O_NONBLOCK (asm-generic Linux values, shared by
    // x86_64 and aarch64): the path is attacker-controlled, so refuse
    // symlinks outright and never block inside open(2) on a smuggled
    // FIFO. O_NONBLOCK on a regular file is a no-op for mmap/IO here.
    const O_NONBLOCK: i32 = 0o4000;
    const O_NOFOLLOW: i32 = 0o400000;
    let file = OpenOptions::new()
        .read(true)
        .write(true)
        .custom_flags(O_NOFOLLOW | O_NONBLOCK)
        .open(&ring_path)
        .map_err(|e| io_err("handshake", &e))?;
    let meta = file.metadata().map_err(|e| io_err("handshake", &e))?;
    // Only plain files are mappable ring backings; a FIFO, device
    // node, or socket smuggled in by path is an attack, not a ring.
    if !meta.file_type().is_file() {
        return Err(TransportError::Io {
            op: "handshake",
            kind: std::io::ErrorKind::InvalidData,
            detail: format!("ring path {} is not a regular file", ring_path.display()),
        });
    }
    let need = file_len(capacity);
    let have = meta.len();
    if have < need {
        return Err(TransportError::Io {
            op: "handshake",
            kind: std::io::ErrorKind::InvalidData,
            detail: format!("ring file is {have} bytes, need {need}"),
        });
    }
    // Claim the file by (device, inode): one server endpoint per
    // ring, or the SPSC invariant the unsafe ring code relies on is
    // gone. The claim is released when the connection drops.
    let id: RingFileId = (meta.dev(), meta.ino());
    if !mapped.lock().insert(id) {
        return Err(TransportError::Io {
            op: "handshake",
            kind: std::io::ErrorKind::AlreadyExists,
            detail: "ring file already serves another live connection".into(),
        });
    }
    let claim = RingClaim {
        id,
        registry: mapped.clone(),
    };
    let map = RawMap::map(&file, need as usize)?;
    validate_header(&map, capacity)?;
    // Ready byte: the client may unlink the file once we have it
    // mapped (the mapping outlives the directory entry).
    (&*sock)
        .write_all(&[1])
        .map_err(|e| io_err("handshake", &e))?;
    Ok((map, capacity, doorbells, claim))
}

/// A freshly accepted server half whose hello has not been read yet.
/// The handshake runs on the first send/recv — in the manager, that is
/// the connection's own session thread — so a client that connects and
/// stalls wedges only itself, never the accept loop.
struct PendingShmConnection {
    state: Mutex<ShmServerState>,
    /// `SO_PEERCRED` uid captured from the handshake socket at accept.
    peer_uid: Option<u32>,
}

enum ShmServerState {
    Pending {
        sock: UnixStream,
        mapped: Arc<Mutex<std::collections::HashSet<RingFileId>>>,
    },
    Ready(ShmConnection),
    /// Handshake failed; every subsequent op repeats the refusal.
    Failed,
}

impl PendingShmConnection {
    /// Run the handshake if it hasn't happened, then apply `f` to the
    /// live connection. The state lock is held across `f`; server-side
    /// connections are driven by a single session thread, so this
    /// serializes nothing that was concurrent before.
    fn with_ready<R>(
        &self,
        f: impl FnOnce(&ShmConnection) -> Result<R, TransportError>,
    ) -> Result<R, TransportError> {
        let mut state = self.state.lock();
        if let ShmServerState::Pending { sock, mapped } = &*state {
            match complete_server_handshake(sock, mapped) {
                Ok((map, capacity, doorbells, claim)) => {
                    // The socket moves into the connection; replace the
                    // state wholesale.
                    let old = std::mem::replace(&mut *state, ShmServerState::Failed);
                    let ShmServerState::Pending { sock, .. } = old else {
                        unreachable!("state checked above");
                    };
                    // A failure here leaves the state `Failed`.
                    *state = ShmServerState::Ready(ShmConnection::new(
                        map,
                        sock,
                        capacity,
                        Side::Server,
                        doorbells,
                        Some(claim),
                    )?);
                }
                Err(e) => {
                    *state = ShmServerState::Failed;
                    return Err(e);
                }
            }
        }
        match &*state {
            ShmServerState::Ready(conn) => f(conn),
            ShmServerState::Failed => Err(TransportError::Disconnected),
            ShmServerState::Pending { .. } => unreachable!("handshake just ran"),
        }
    }
}

impl Connection for PendingShmConnection {
    fn send(&self, frame: Vec<u8>) -> Result<(), TransportError> {
        self.with_ready(|c| c.send(frame))
    }

    fn recv(&self) -> Result<Vec<u8>, TransportError> {
        self.with_ready(|c| c.recv())
    }

    fn send_batch(&self, frames: Vec<Vec<u8>>) -> Result<(), TransportError> {
        self.with_ready(|c| c.send_batch(frames))
    }

    fn has_queued(&self) -> bool {
        match &*self.state.lock() {
            ShmServerState::Ready(c) => c.has_queued(),
            _ => false,
        }
    }

    fn try_recv(&self) -> Result<Option<FrameView>, TransportError> {
        // The first call runs the deferred handshake (bounded by
        // HANDSHAKE_TIMEOUT) on the executor worker that saw the hello
        // bytes arrive.
        self.with_ready(|c| c.try_recv())
    }

    fn enter_event_mode(&self) -> bool {
        // Adoptable: before the handshake the hello's arrival is itself
        // a socket-readable event. Whether the *ring* can be event-driven
        // is only known post-handshake — the executor re-queries
        // `event_fds` after each drain and demotes to a dedicated thread
        // if the client sent no doorbells.
        true
    }

    fn event_fds(&self) -> Vec<i32> {
        match &*self.state.lock() {
            ShmServerState::Pending { sock, .. } => vec![sock.as_raw_fd()],
            ShmServerState::Ready(c) => c.event_fds(),
            ShmServerState::Failed => Vec::new(),
        }
    }

    fn peer_uid(&self) -> Option<u32> {
        self.peer_uid
    }
}

impl Listener for ShmListener {
    fn accept(&self) -> Result<Box<dyn Connection>, TransportError> {
        loop {
            let (sock, _) = self.listener.accept().map_err(|e| io_err("accept", &e))?;
            if self.stop.load(Ordering::SeqCst) {
                return Err(TransportError::Disconnected);
            }
            // Credential gate: a peer the uid policy rejects is dropped
            // before the hello — its ring file is never opened or
            // mapped.
            if !self.policy.check(&sock) {
                drop(sock);
                continue;
            }
            let uid = super::peercred::peer_uid(&sock).ok();
            // Rate gate next: an over-rate uid is dropped before its
            // hello is read, and the loop moves on.
            if let (Some(adm), Some(uid)) = (&self.admission, uid) {
                if !adm.admit(uid) {
                    drop(sock);
                    continue;
                }
            }
            // The hello is deferred to the connection's first send/recv
            // (its session thread), keeping the accept loop un-wedgeable.
            return Ok(Box::new(PendingShmConnection {
                state: Mutex::new(ShmServerState::Pending {
                    sock,
                    mapped: self.mapped.clone(),
                }),
                peer_uid: uid,
            }));
        }
    }
}

impl Drop for ShmListener {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// Client side: creates a ring file per connection and hands it to the
/// listener over the handshake socket.
pub struct ShmDialer {
    path: PathBuf,
    capacity: u32,
}

static RING_SEQ: AtomicU64 = AtomicU64::new(0);

impl ShmDialer {
    /// A dialer for the handshake socket at `path` with the default ring
    /// capacity.
    pub fn new(path: impl AsRef<Path>) -> Self {
        Self::with_capacity(path, DEFAULT_RING_CAPACITY)
    }

    /// A dialer creating rings of `capacity` bytes per direction
    /// (power of two, 4 KiB – 1 GiB).
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range capacity — a build-time configuration
    /// error, not a runtime condition.
    pub fn with_capacity(path: impl AsRef<Path>, capacity: u32) -> Self {
        assert!(
            capacity.is_power_of_two() && (MIN_CAPACITY..=MAX_CAPACITY).contains(&capacity),
            "ring capacity {capacity} must be a power of two in [{MIN_CAPACITY}, {MAX_CAPACITY}]"
        );
        ShmDialer {
            path: path.as_ref().to_path_buf(),
            capacity,
        }
    }
}

impl Dialer for ShmDialer {
    fn dial(&self) -> Result<Box<dyn Connection>, TransportError> {
        // Create and initialize the ring file.
        let seq = RING_SEQ.fetch_add(1, Ordering::Relaxed);
        let ring_path =
            std::env::temp_dir().join(format!("grd-ring-{}-{seq}.shm", std::process::id()));
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create_new(true)
            .open(&ring_path)
            .map_err(|e| io_err("dial", &e))?;
        // Best-effort unlink on any early-exit path below.
        struct UnlinkGuard<'a>(Option<&'a Path>);
        impl Drop for UnlinkGuard<'_> {
            fn drop(&mut self) {
                if let Some(p) = self.0 {
                    let _ = std::fs::remove_file(p);
                }
            }
        }
        let mut guard = UnlinkGuard(Some(&ring_path));
        file.set_len(file_len(self.capacity))
            .map_err(|e| io_err("dial", &e))?;
        let map = RawMap::map(&file, file_len(self.capacity) as usize)?;
        map.atomic_u32(OFF_VERSION)
            .store(frame::TRANSPORT_VERSION as u32, Ordering::Release);
        map.atomic_u32(OFF_CAPACITY)
            .store(self.capacity, Ordering::Release);
        // Magic last: a file without it is never a valid ring.
        map.atomic_u64(OFF_MAGIC)
            .store(SHM_MAGIC, Ordering::Release);

        // Handshake over the socket, doorbell eventfds attached: the
        // client keeps the originals, the server gets kernel-duplicated
        // descriptors of the same eventfd objects.
        let client_bell = sys::eventfd_new().map_err(|e| io_err("dial", &e))?;
        let server_bell = sys::eventfd_new().map_err(|e| io_err("dial", &e))?;
        let sock = UnixStream::connect(&self.path).map_err(|e| io_err("dial", &e))?;
        sock.set_read_timeout(Some(HANDSHAKE_TIMEOUT))
            .map_err(|e| io_err("handshake", &e))?;
        send_hello_with_bells(&sock, &ring_path, self.capacity, &client_bell, &server_bell)?;
        let mut ready = [0u8; 1];
        (&sock)
            .read_exact(&mut ready)
            .map_err(|e| io_err("handshake", &e))?;
        if ready[0] != 1 {
            return Err(TransportError::Io {
                op: "handshake",
                kind: std::io::ErrorKind::InvalidData,
                detail: format!("listener rejected ring (ready byte {})", ready[0]),
            });
        }
        // Both sides hold the mapping; the directory entry can go. After
        // this point even SIGKILL leaks nothing on disk.
        let _ = std::fs::remove_file(&ring_path);
        guard.0 = None;
        Ok(Box::new(ShmConnection::new(
            map,
            sock,
            self.capacity,
            Side::Client,
            Some(Doorbells {
                mine: client_bell,
                peers: server_bell,
            }),
            None,
        )?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    fn temp_sock(tag: &str) -> PathBuf {
        crate::fixtures::temp_socket_path(&format!("shm-test-{tag}"))
    }

    #[test]
    fn frames_round_trip_through_the_ring() {
        let path = temp_sock("rt");
        let (listener, _unblock) = ShmListener::bind(&path).unwrap();
        let dialer = ShmDialer::with_capacity(&path, 4096);
        let server_thread = std::thread::spawn(move || {
            let server = listener.accept().unwrap();
            for _ in 0..3 {
                let f = server.recv().unwrap();
                server.send(f.iter().rev().copied().collect()).unwrap();
            }
            server
        });
        let client = dialer.dial().unwrap();
        for len in [0usize, 5, 1000] {
            let payload: Vec<u8> = (0..len).map(|i| i as u8).collect();
            client.send(payload.clone()).unwrap();
            let mut expect = payload;
            expect.reverse();
            assert_eq!(client.recv().unwrap(), expect);
        }
        drop(client);
        let server = server_thread.join().unwrap();
        assert_eq!(server.recv(), Err(TransportError::Disconnected));
    }

    #[test]
    fn wraparound_and_backpressure() {
        // Ring holds 4096 bytes/direction; push far more than a ring's
        // worth of frames with a slow consumer so the producer both wraps
        // and waits.
        let path = temp_sock("wrap");
        let (listener, _unblock) = ShmListener::bind(&path).unwrap();
        let dialer = ShmDialer::with_capacity(&path, 4096);
        let server_thread = std::thread::spawn(move || {
            let server = listener.accept().unwrap();
            let mut total = 0u64;
            for i in 0..200u32 {
                let f = server.recv().unwrap();
                assert_eq!(f.len(), 300);
                assert!(f.iter().all(|&b| b == i as u8), "frame {i} corrupted");
                total += f.len() as u64;
                if i % 16 == 0 {
                    std::thread::sleep(Duration::from_micros(200));
                }
            }
            total
        });
        let client = dialer.dial().unwrap();
        for i in 0..200u32 {
            client.send(vec![i as u8; 300]).unwrap();
        }
        assert_eq!(server_thread.join().unwrap(), 200 * 300);
        drop(client);
    }

    #[test]
    fn oversized_frame_fails_locally() {
        let path = temp_sock("big");
        let (listener, _unblock) = ShmListener::bind(&path).unwrap();
        // The server half completes the deferred handshake via its first
        // op (in the manager this is the session thread's first recv).
        let accept_thread = std::thread::spawn(move || {
            let c = listener.accept().unwrap();
            c.send(Vec::new()).unwrap();
            c
        });
        let client = ShmDialer::with_capacity(&path, 4096).dial().unwrap();
        assert!(matches!(
            client.send(vec![0u8; 5000]),
            Err(TransportError::FrameTooLarge { len: 5000, .. })
        ));
        drop(client);
        drop(accept_thread.join().unwrap());
    }

    #[test]
    fn frames_survive_peer_death_until_drained() {
        // The producer writes frames then vanishes (drop = socket EOF);
        // the consumer must still drain every published frame before
        // reporting Disconnected.
        let path = temp_sock("drain");
        let (listener, _unblock) = ShmListener::bind(&path).unwrap();
        // First server op completes the deferred handshake so the dial
        // below can return; the marker frame is never read by anyone.
        let accept_thread = std::thread::spawn(move || {
            let c = listener.accept().unwrap();
            c.send(vec![0xFE]).unwrap();
            c
        });
        let client = ShmDialer::with_capacity(&path, 65536).dial().unwrap();
        for i in 0..10u8 {
            client.send(vec![i; 64]).unwrap();
        }
        drop(client);
        let server = accept_thread.join().unwrap();
        for i in 0..10u8 {
            assert_eq!(server.recv().unwrap(), vec![i; 64]);
        }
        assert_eq!(server.recv(), Err(TransportError::Disconnected));
    }

    #[test]
    fn ring_file_is_unlinked_after_handshake() {
        let path = temp_sock("unlink");
        let (listener, _unblock) = ShmListener::bind(&path).unwrap();
        let accept_thread = std::thread::spawn(move || {
            let c = listener.accept().unwrap();
            c.send(Vec::new()).unwrap();
            c
        });
        let client = ShmDialer::with_capacity(&path, 4096).dial().unwrap();
        let _server = accept_thread.join().unwrap();
        let leftovers: Vec<_> = std::fs::read_dir(std::env::temp_dir())
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n.starts_with(&format!("grd-ring-{}-", std::process::id())))
            .collect();
        assert!(leftovers.is_empty(), "ring files leaked: {leftovers:?}");
        drop(client);
    }

    /// Peer-writable counters are untrusted input: a consumer head
    /// stored "ahead" of the producer's tail must fail the send with a
    /// protocol error, not underflow the free-space computation. The
    /// hostile client here never builds a `ShmConnection` at all — it
    /// holds its own raw mapping of the ring file, exactly as a
    /// malicious tenant would.
    #[test]
    fn hostile_head_counter_fails_send_without_panic() {
        let path = temp_sock("hostile");
        let (listener, _unblock) = ShmListener::bind(&path).unwrap();
        let accept_thread = std::thread::spawn(move || {
            let c = listener.accept().unwrap();
            // First op runs the deferred handshake (unblocking the
            // client's wait for the ready byte) and proves a clean send.
            c.send(vec![9]).unwrap();
            c
        });
        // Hand-rolled hostile client: create + map the ring, handshake.
        let capacity = 4096u32;
        let ring_path =
            std::env::temp_dir().join(format!("grd-hostile-ring-{}.shm", std::process::id()));
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create_new(true)
            .open(&ring_path)
            .unwrap();
        file.set_len(file_len(capacity)).unwrap();
        let map = RawMap::map(&file, file_len(capacity) as usize).unwrap();
        map.atomic_u32(OFF_VERSION)
            .store(frame::TRANSPORT_VERSION as u32, Ordering::Release);
        map.atomic_u32(OFF_CAPACITY)
            .store(capacity, Ordering::Release);
        map.atomic_u64(OFF_MAGIC)
            .store(SHM_MAGIC, Ordering::Release);
        let sock = UnixStream::connect(&path).unwrap();
        send_hello(&sock, &ring_path, capacity).unwrap();
        let mut ready = [0u8; 1];
        (&sock).read_exact(&mut ready).unwrap();
        assert_eq!(ready[0], 1);
        let _ = std::fs::remove_file(&ring_path);
        let server = accept_thread.join().unwrap();
        // The attack: publish an impossible s2c consumer head.
        map.atomic_u64(OFF_S2C_HEAD)
            .store(u64::MAX / 2, Ordering::Release);
        match server.send(vec![1, 2, 3]) {
            Err(TransportError::Io { op: "send", .. }) => {}
            other => panic!("hostile head produced {other:?}"),
        }
    }

    /// One ring file, one connection: a client replaying the same ring
    /// path in a second handshake is rejected, because two server-side
    /// producers on one ring would break the SPSC discipline.
    #[test]
    fn aliased_ring_file_is_rejected() {
        let path = temp_sock("alias");
        let (listener, _unblock) = ShmListener::bind(&path).unwrap();
        let accept_thread = std::thread::spawn(move || {
            let first = listener.accept().unwrap();
            let r1 = first.send(Vec::new());
            let second = listener.accept().unwrap();
            let r2 = second.send(Vec::new());
            (first, r1, r2)
        });
        // Legitimate dial, but capture the ring path before it is
        // unlinked by racing the dialer: hand-roll the handshake twice
        // with one file instead.
        let capacity = 4096u32;
        let ring_path =
            std::env::temp_dir().join(format!("grd-alias-ring-{}.shm", std::process::id()));
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create_new(true)
            .open(&ring_path)
            .unwrap();
        file.set_len(file_len(capacity)).unwrap();
        let map = RawMap::map(&file, file_len(capacity) as usize).unwrap();
        map.atomic_u32(OFF_VERSION)
            .store(frame::TRANSPORT_VERSION as u32, Ordering::Release);
        map.atomic_u32(OFF_CAPACITY)
            .store(capacity, Ordering::Release);
        map.atomic_u64(OFF_MAGIC)
            .store(SHM_MAGIC, Ordering::Release);

        let dial_once = || -> std::io::Result<u8> {
            let sock = UnixStream::connect(&path)?;
            send_hello(&sock, &ring_path, capacity).map_err(std::io::Error::other)?;
            let mut ready = [0u8; 1];
            (&sock).read_exact(&mut ready)?;
            // Leak the socket so the first connection stays alive for
            // the duration of the test.
            std::mem::forget(sock);
            Ok(ready[0])
        };
        assert_eq!(dial_once().unwrap(), 1, "first handshake accepted");
        // Second handshake naming the same file: the claim conflict
        // fails that connection (we observe EOF instead of a ready
        // byte), while the first connection stays healthy.
        let r = dial_once();
        assert!(
            r.is_err(),
            "aliased ring handshake must be rejected, got {r:?}"
        );
        let (_first, r1, r2) = accept_thread.join().unwrap();
        assert!(r1.is_ok(), "first connection must serve: {r1:?}");
        assert!(
            matches!(
                r2,
                Err(TransportError::Io {
                    op: "handshake",
                    kind: std::io::ErrorKind::AlreadyExists,
                    ..
                })
            ),
            "aliased claim produced {r2:?}"
        );
        let _ = std::fs::remove_file(&ring_path);
    }

    /// Regression gate for the satellite: a SIGKILLed (here: dropped —
    /// the kernel closes the socket either way) peer must be detected in
    /// well under 100 ms by a receiver that is idle-parked on its
    /// doorbell, because the park multiplexes the eventfd *and* the
    /// socket fd in one poll. The old spin→yield→sleep ladder only
    /// probed the socket once per wakeup, so a sleeping receiver could
    /// lag a full sleep quantum behind the death.
    #[test]
    fn dead_peer_is_detected_quickly_from_an_idle_park() {
        let path = temp_sock("deadpeer");
        let (listener, _unblock) = ShmListener::bind(&path).unwrap();
        let accept_thread = std::thread::spawn(move || {
            let c = listener.accept().unwrap();
            c.send(Vec::new()).unwrap(); // completes the deferred handshake
            let start = Instant::now();
            let r = c.recv();
            (r, start.elapsed())
        });
        let client = ShmDialer::with_capacity(&path, 4096).dial().unwrap();
        assert!(client.enter_event_mode(), "dialer must negotiate bells");
        // Give the server time to pass the spin/yield phases and park.
        std::thread::sleep(Duration::from_millis(50));
        drop(client);
        let (r, elapsed) = accept_thread.join().unwrap();
        assert_eq!(r, Err(TransportError::Disconnected));
        assert!(
            elapsed < Duration::from_millis(100),
            "parked receiver took {elapsed:?} to notice the dead peer"
        );
    }

    /// A batched send must arrive as the individual frames, in order,
    /// and the doorbell wakes the parked receiver for it.
    #[test]
    fn batch_round_trips_through_the_ring() {
        let path = temp_sock("batch");
        let (listener, _unblock) = ShmListener::bind(&path).unwrap();
        let server_thread = std::thread::spawn(move || {
            let server = listener.accept().unwrap();
            let mut got = Vec::new();
            for _ in 0..4 {
                got.push(server.recv().unwrap());
            }
            server
                .send_batch(vec![vec![7; 9], vec![], vec![8]])
                .unwrap();
            got
        });
        let client = ShmDialer::with_capacity(&path, 4096).dial().unwrap();
        let frames = vec![vec![1u8, 2, 3], Vec::new(), vec![4u8; 500], vec![5u8]];
        client.send_batch(frames.clone()).unwrap();
        for expect in [vec![7u8; 9], Vec::new(), vec![8u8]] {
            assert_eq!(client.recv().unwrap(), expect);
        }
        assert_eq!(server_thread.join().unwrap(), frames);
    }

    /// A batch whose combined body exceeds the ring capacity degrades
    /// to sequential plain sends instead of failing.
    #[test]
    fn oversized_batch_degrades_to_sequential_sends() {
        let path = temp_sock("bigbatch");
        let (listener, _unblock) = ShmListener::bind(&path).unwrap();
        let server_thread = std::thread::spawn(move || {
            let server = listener.accept().unwrap();
            (0..4)
                .map(|_| server.recv().unwrap().len())
                .collect::<Vec<_>>()
        });
        let client = ShmDialer::with_capacity(&path, 4096).dial().unwrap();
        // 4 × 1500 B > 4096 B ring: the combined body can never fit in
        // one wire frame, but each member fits on its own.
        client.send_batch(vec![vec![0u8; 1500]; 4]).unwrap();
        assert_eq!(server_thread.join().unwrap(), vec![1500; 4]);
        drop(client);
    }

    /// Event-mode contract: `try_recv` never blocks, returns queued
    /// frames in order, and reports `Disconnected` once the peer is
    /// gone and the ring is drained.
    #[test]
    fn try_recv_is_nonblocking_and_drains_before_disconnect() {
        let path = temp_sock("tryrecv");
        let (listener, _unblock) = ShmListener::bind(&path).unwrap();
        let accept_thread = std::thread::spawn(move || {
            let c = listener.accept().unwrap();
            c.send(Vec::new()).unwrap();
            c
        });
        let client = ShmDialer::with_capacity(&path, 4096).dial().unwrap();
        let server = accept_thread.join().unwrap();
        assert!(server.enter_event_mode());
        assert_eq!(server.event_fds().len(), 2, "doorbell + socket");
        assert_eq!(server.try_recv().unwrap(), None);
        client.send_batch(vec![vec![1], vec![2, 2]]).unwrap();
        client.send(vec![3, 3, 3]).unwrap();
        // The frames are already published when the sends return; no
        // polling loop is needed on the consumer side.
        assert_eq!(
            server.try_recv().unwrap().map(|f| f.into_vec()),
            Some(vec![1])
        );
        assert_eq!(
            server.try_recv().unwrap().map(|f| f.into_vec()),
            Some(vec![2, 2])
        );
        assert_eq!(
            server.try_recv().unwrap().map(|f| f.into_vec()),
            Some(vec![3, 3, 3])
        );
        drop(client);
        // Drained + dead peer → Disconnected (possibly after the close
        // propagates through the socket).
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            match server.try_recv() {
                Err(TransportError::Disconnected) => break,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(1))
                }
                other => panic!("expected eventual Disconnected, got {other:?}"),
            }
        }
    }

    /// Hand-rolled legacy client: create + map the ring, send the plain
    /// (doorbell-less) hello over a *blocking* socket, wait for the
    /// ready byte.
    fn legacy_client(path: &Path, tag: &str) -> ShmConnection {
        let capacity = 4096u32;
        let ring_path =
            std::env::temp_dir().join(format!("grd-legacy-ring-{tag}-{}.shm", std::process::id()));
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create_new(true)
            .open(&ring_path)
            .unwrap();
        file.set_len(file_len(capacity)).unwrap();
        let map = RawMap::map(&file, file_len(capacity) as usize).unwrap();
        map.atomic_u32(OFF_VERSION)
            .store(frame::TRANSPORT_VERSION as u32, Ordering::Release);
        map.atomic_u32(OFF_CAPACITY)
            .store(capacity, Ordering::Release);
        map.atomic_u64(OFF_MAGIC)
            .store(SHM_MAGIC, Ordering::Release);
        let sock = UnixStream::connect(path).unwrap();
        send_hello(&sock, &ring_path, capacity).unwrap();
        let mut ready = [0u8; 1];
        (&sock).read_exact(&mut ready).unwrap();
        assert_eq!(ready[0], 1);
        let _ = std::fs::remove_file(&ring_path);
        ShmConnection::new(map, sock, capacity, Side::Client, None, None).unwrap()
    }

    /// A legacy hello (no SCM_RIGHTS doorbells) still yields a working
    /// connection: the server falls back to the poll-based park.
    #[test]
    fn doorbell_less_hello_falls_back_cleanly() {
        let path = temp_sock("legacyhello");
        let (listener, _unblock) = ShmListener::bind(&path).unwrap();
        let accept_thread = std::thread::spawn(move || {
            let c = listener.accept().unwrap();
            let f = c.recv().unwrap();
            c.send(f).unwrap();
            let start = Instant::now();
            let r = c.recv();
            (r, start.elapsed())
        });
        let client = legacy_client(&path, "fallback");
        client.send(vec![42; 10]).unwrap();
        assert_eq!(client.recv().unwrap(), vec![42; 10]);
        // Death detection also works without bells (1 ms fallback poll).
        drop(client);
        let (r, elapsed) = accept_thread.join().unwrap();
        assert_eq!(r, Err(TransportError::Disconnected));
        assert!(
            elapsed < Duration::from_millis(100),
            "fallback park took {elapsed:?} to notice the dead peer"
        );
    }

    /// A reply that arrives after the receiver's spin/yield phase *and*
    /// its first fallback poll: the liveness probe must answer "still
    /// there", not block in `read` waiting for socket bytes that never
    /// come — even though the hand-rolled client handed
    /// `ShmConnection::new` a blocking socket.
    #[test]
    fn late_reply_on_a_blocking_handshake_socket_does_not_hang() {
        let path = temp_sock("legacylate");
        let (listener, _unblock) = ShmListener::bind(&path).unwrap();
        let accept_thread = std::thread::spawn(move || {
            let c = listener.accept().unwrap();
            let f = c.recv().unwrap();
            std::thread::sleep(Duration::from_millis(20));
            c.send(f).unwrap();
            c.recv()
        });
        let client = legacy_client(&path, "late");
        client.send(vec![7; 10]).unwrap();
        assert_eq!(client.recv().unwrap(), vec![7; 10]);
        drop(client);
        assert_eq!(
            accept_thread.join().unwrap(),
            Err(TransportError::Disconnected)
        );
    }
}
