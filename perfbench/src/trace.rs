//! In-memory spans around the calls the benchmark makes into each layer.
//!
//! Tracing is per thread: a thread that called [`start`] records a span
//! for every [`span`]/[`span_res`] it runs until [`finish`] hands the
//! spans back. Threads that never started tracing pay one thread-local
//! check per call. Spans carry the id of the request they serve and the
//! id of the enclosing span, so self time can be computed afterwards.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// `<layer>.<operation>`.
    pub name: &'static str,
    /// Unique within its thread, from 1.
    pub id: u32,
    /// Enclosing span's id; 0 for none.
    pub parent: u32,
    /// Request this call served.
    pub request: u64,
    /// Start, ns since the trace origin.
    pub start_ns: u64,
    /// End, ns since the trace origin.
    pub end_ns: u64,
    /// The call returned an error.
    pub failed: bool,
}

struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    next_id: u32,
    request: u64,
}

thread_local! {
    static TRACER: RefCell<Option<Tracer>> = const { RefCell::new(None) };
}

/// Start recording spans on this thread, timed from `origin`.
pub fn start(origin: Instant) {
    TRACER.with(|t| {
        *t.borrow_mut() = Some(Tracer {
            origin,
            spans: Vec::new(),
            open: Vec::new(),
            next_id: 1,
            request: 0,
        })
    });
}

/// Stop recording on this thread and return its spans.
pub fn finish() -> Vec<Span> {
    TRACER.with(|t| t.borrow_mut().take().map(|t| t.spans).unwrap_or_default())
}

/// Tag the spans that follow with request `id`.
pub fn set_request(id: u64) {
    TRACER.with(|t| {
        if let Some(t) = t.borrow_mut().as_mut() {
            t.request = id;
        }
    });
}

fn open() -> Option<(u32, u64)> {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let t = t.as_mut()?;
        let id = t.next_id;
        t.next_id += 1;
        t.open.push(id);
        Some((id, t.origin.elapsed().as_nanos() as u64))
    })
}

fn close(name: &'static str, id: u32, start_ns: u64, failed: bool) {
    TRACER.with(|t| {
        if let Some(t) = t.borrow_mut().as_mut() {
            let end_ns = t.origin.elapsed().as_nanos() as u64;
            t.open.pop();
            let parent = t.open.last().copied().unwrap_or(0);
            let request = t.request;
            t.spans.push(Span {
                name,
                id,
                parent,
                request,
                start_ns,
                end_ns,
                failed,
            });
        }
    });
}

/// Run `f` inside a span named `name`.
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    match open() {
        None => f(),
        Some((id, start_ns)) => {
            let out = f();
            close(name, id, start_ns, false);
            out
        }
    }
}

/// Run the fallible `f` inside a span named `name`, marking it failed
/// when `f` returns an error.
pub fn span_res<T, E>(name: &'static str, f: impl FnOnce() -> Result<T, E>) -> Result<T, E> {
    match open() {
        None => f(),
        Some((id, start_ns)) => {
            let out = f();
            close(name, id, start_ns, out.is_err());
            out
        }
    }
}

/// Totals for one span name.
#[derive(Debug, Clone, Copy, Default)]
pub struct Agg {
    /// Spans recorded.
    pub calls: u64,
    /// Spans whose call failed.
    pub failed: u64,
    /// Summed duration.
    pub total_ns: u64,
    /// Summed duration minus the part covered by direct children.
    pub self_ns: u64,
}

impl Agg {
    /// Mean duration per call in ns.
    pub fn mean_ns(&self) -> f64 {
        if self.calls == 0 {
            f64::NAN
        } else {
            self.total_ns as f64 / self.calls as f64
        }
    }
}

/// The layer of a span name: the part before the first `.`.
pub fn layer(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Aggregate spans by name, with self time. Each thread's spans are
/// passed as their own slice, since span ids are unique per thread.
pub fn aggregate(threads: &[Vec<Span>]) -> BTreeMap<&'static str, Agg> {
    let mut by_name: BTreeMap<&'static str, Agg> = BTreeMap::new();
    for spans in threads {
        let mut child_ns: BTreeMap<u32, u64> = BTreeMap::new();
        for s in spans {
            if s.parent != 0 {
                *child_ns.entry(s.parent).or_default() += s.end_ns - s.start_ns;
            }
        }
        for s in spans {
            let dur = s.end_ns - s.start_ns;
            let a = by_name.entry(s.name).or_default();
            a.calls += 1;
            a.failed += u64::from(s.failed);
            a.total_ns += dur;
            a.self_ns += dur.saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        }
    }
    by_name
}

/// Spans written out per thread; aggregates use them all.
pub const WRITE_PER_THREAD: usize = 20_000;

/// Write the first [`WRITE_PER_THREAD`] spans of each thread as one JSON
/// object per line.
pub fn write_jsonl(path: &std::path::Path, threads: &[Vec<Span>]) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (thread, spans) in threads.iter().enumerate() {
        for s in spans.iter().take(WRITE_PER_THREAD) {
            writeln!(
                w,
                "{{\"thread\":{thread},\"name\":\"{}\",\"id\":{},\"parent\":{},\"request\":{},\"start_ns\":{},\"end_ns\":{},\"failed\":{}}}",
                s.name, s.id, s.parent, s.request, s.start_ns, s.end_ns, s.failed
            )?;
        }
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        start(Instant::now());
        set_request(7);
        span("outer.op", || {
            std::thread::sleep(std::time::Duration::from_millis(2));
            let r: Result<(), ()> = span_res("inner.op", || {
                std::thread::sleep(std::time::Duration::from_millis(2));
                Err(())
            });
            assert!(r.is_err());
        });
        let spans = finish();
        assert_eq!(spans.len(), 2);
        let inner = &spans[0];
        let outer = &spans[1];
        assert_eq!((inner.parent, outer.parent), (outer.id, 0));
        assert_eq!((inner.request, outer.request), (7, 7));
        let agg = aggregate(std::slice::from_ref(&spans));
        let (i, o) = (agg["inner.op"], agg["outer.op"]);
        assert_eq!((i.calls, i.failed, o.failed), (1, 1, 0));
        assert_eq!(o.self_ns, o.total_ns - i.total_ns);
        assert_eq!(layer("inner.op"), "inner");
    }

    #[test]
    fn untraced_threads_record_nothing() {
        assert_eq!(span("x.y", || 3), 3);
        assert!(finish().is_empty());
    }
}
