//! The benchmark's own spans: recorded around calls into the workspace's
//! public functions, kept in memory, and written out as Chrome
//! `trace_event` JSON (loadable in Perfetto) when the run ends.
//!
//! A disabled [`Tracer`] records nothing, so the untraced and the traced
//! passes run the same code apart from the recording itself.
//!
//! `etpn_obs::trace` has a span tree of its own, but `obs` is one of the
//! layers measured here: timing the others with it would charge its cost
//! to every layer and move every per-layer number whenever `obs` changes.
//! Its context is also passed explicitly and carries one argument per
//! span, where these spans nest implicitly per thread around calls the
//! benchmark does not control and carry a layer, a tag and a key.

use std::cell::Cell;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Spans kept per run; beyond it spans are counted but not stored, so a
/// runaway traced pass cannot exhaust memory.
const MAX_SPANS: usize = 1_000_000;

/// One finished span.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    /// The workspace crate whose public function the span wraps.
    pub layer: &'static str,
    /// Free-form qualifier (net size, verb, objective).
    pub tag: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub id: u64,
    /// Enclosing span on the same thread; 0 for a root.
    pub parent: u64,
    /// Request or job id the span belongs to; 0 when none.
    pub key: u64,
    pub tid: u32,
}

impl Span {
    pub fn dur_us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

thread_local! {
    static CURRENT: Cell<u64> = const { Cell::new(0) };
    static TID: u32 = {
        static NEXT: AtomicU32 = AtomicU32::new(1);
        NEXT.fetch_add(1, Ordering::Relaxed)
    };
}

pub struct Tracer {
    on: bool,
    t0: Instant,
    next_id: AtomicU64,
    dropped: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

/// Records its span when dropped.
pub struct Guard<'t> {
    tracer: &'t Tracer,
    live: Option<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            t0: Instant::now(),
            next_id: AtomicU64::new(1),
            dropped: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    pub fn span(&self, layer: &'static str, name: &'static str) -> Guard<'_> {
        self.span_with(layer, name, "", 0)
    }

    pub fn span_with(
        &self,
        layer: &'static str,
        name: &'static str,
        tag: &'static str,
        key: u64,
    ) -> Guard<'_> {
        if !self.on {
            return Guard {
                tracer: self,
                live: None,
            };
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = CURRENT.with(|c| c.replace(id));
        let key = if key == 0 { KEY.with(|k| k.get()) } else { key };
        Guard {
            tracer: self,
            live: Some(Span {
                name,
                layer,
                tag,
                start_ns: self.now_ns(),
                end_ns: 0,
                id,
                parent,
                key,
                tid: TID.with(|t| *t),
            }),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    fn finish(&self, mut s: Span) {
        s.end_ns = self.now_ns();
        CURRENT.with(|c| c.set(s.parent));
        let mut spans = self.spans.lock().expect("span list lock poisoned");
        if spans.len() < MAX_SPANS {
            spans.push(s);
        } else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Take the recorded spans, ordered by start time.
    pub fn take(&self) -> Vec<Span> {
        let mut spans = std::mem::take(&mut *self.spans.lock().expect("span list lock poisoned"));
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }

    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

thread_local! {
    /// Request/job id inherited by spans opened without one of their own.
    static KEY: Cell<u64> = const { Cell::new(0) };
}

/// Mark the current thread's work as belonging to request/job `key` for
/// the lifetime of the returned value.
pub struct KeyScope(u64);

pub fn key_scope(key: u64) -> KeyScope {
    KeyScope(KEY.with(|k| k.replace(key)))
}

impl Drop for KeyScope {
    fn drop(&mut self) {
        KEY.with(|k| k.set(self.0));
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        if let Some(s) = self.live.take() {
            self.tracer.finish(s);
        }
    }
}

/// Self time of every span: its duration minus the part its children
/// cover. Children of one span run on the span's own thread one after
/// another, so their durations do not overlap and can simply be summed.
pub fn self_times_us(spans: &[Span]) -> Vec<f64> {
    let index: std::collections::HashMap<u64, usize> =
        spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(&p) = index.get(&s.parent) {
            child_ns[p] += s.end_ns - s.start_ns;
        }
    }
    spans
        .iter()
        .zip(child_ns)
        .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(c) as f64 / 1e3)
        .collect()
}

/// Chrome `trace_event` JSON: one complete (`"ph":"X"`) event per span,
/// with the span id, parent and request/job key as arguments.
pub fn chrome_json(spans: &[Span], meta: &str) -> String {
    let mut out = String::with_capacity(spans.len() * 160 + 256);
    out.push_str("{\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{},\"args\":{{\"id\":{},\"parent\":{},\"key\":{},\"tag\":\"{}\"}}}}",
            s.name,
            s.layer,
            s.start_ns as f64 / 1e3,
            (s.end_ns - s.start_ns) as f64 / 1e3,
            s.tid,
            s.id,
            s.parent,
            s.key,
            s.tag
        );
    }
    let _ = write!(
        out,
        "\n],\"displayTimeUnit\":\"ns\",\"otherData\":{meta}}}\n"
    );
    out
}
