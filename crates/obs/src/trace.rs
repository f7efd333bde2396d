//! Span-based tracing with explicit start/finish and parent ids.
//!
//! A [`Tracer`] is installed on the current thread with
//! [`Tracer::install`]; while the guard lives, [`span`] opens a span
//! parented to the innermost open span on this thread and finishes it
//! when the returned [`Span`] guard drops. Code that runs without an
//! installed tracer pays one thread-local read — the returned guard is
//! inert. There is no background machinery: spans are plain records
//! with relative start/end nanoseconds, collected inside the tracer
//! and assembled into a [`crate::QueryProfile`] afterwards.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

thread_local! {
    /// Stack of installed tracers (innermost last).
    static TRACERS: RefCell<Vec<Arc<Tracer>>> = const { RefCell::new(Vec::new()) };
    /// Stack of open spans on this thread: (tracer token, span id).
    ///
    /// Keyed by the tracer's process-unique token, NOT its address: a
    /// `Span` guard handed to another thread leaves its entry here
    /// until that thread drops it, and if entries were keyed by
    /// address, a later tracer allocated at the same address would
    /// adopt the stale entry as a parent — spans from one session
    /// bleeding into another's profile. Tokens are never reused, so a
    /// stale entry can only ever be ignored.
    static OPEN_SPANS: RefCell<Vec<(u64, u64)>> = const { RefCell::new(Vec::new()) };
}

/// Source of process-unique tracer tokens.
static NEXT_TRACER_TOKEN: AtomicU64 = AtomicU64::new(1);

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Span id (index into the tracer's span list).
    pub id: u64,
    /// Parent span id, if any.
    pub parent: Option<u64>,
    /// Operator / phase name.
    pub name: String,
    /// Start offset (ns since tracer creation).
    pub start_ns: u64,
    /// End offset; `None` while the span is still open.
    pub end_ns: Option<u64>,
    /// Output rows, when the operator reported them.
    pub rows: Option<u64>,
    /// Output bytes (estimated), when reported.
    pub bytes: Option<u64>,
    /// Worker threads used, when reported.
    pub workers: Option<u64>,
    /// Free-form numeric attributes.
    pub attrs: Vec<(String, u64)>,
}

impl SpanRecord {
    /// Wall time of a finished span (0 while open).
    pub fn wall_ns(&self) -> u64 {
        self.end_ns.unwrap_or(self.start_ns) - self.start_ns
    }
}

#[derive(Default)]
struct TracerState {
    spans: Vec<SpanRecord>,
    started: u64,
    finished: u64,
}

/// Collects the spans of one traced execution (typically one query).
pub struct Tracer {
    /// Process-unique identity (see `OPEN_SPANS`).
    token: u64,
    epoch: Instant,
    state: Mutex<TracerState>,
}

impl Tracer {
    /// A fresh tracer.
    pub fn new() -> Arc<Tracer> {
        Arc::new(Tracer {
            token: NEXT_TRACER_TOKEN.fetch_add(1, Ordering::Relaxed),
            epoch: Instant::now(),
            state: Mutex::new(TracerState::default()),
        })
    }

    /// This tracer's process-unique token (never reused).
    pub fn token(&self) -> u64 {
        self.token
    }

    /// Install this tracer as the current one on the calling thread
    /// until the guard drops. Installs nest (innermost wins).
    pub fn install(self: &Arc<Tracer>) -> TracerGuard {
        TRACERS.with(|t| t.borrow_mut().push(Arc::clone(self)));
        TracerGuard {
            tracer: Arc::clone(self),
        }
    }

    /// Start a span with an explicit parent (the [`span`] free function
    /// derives the parent from the thread's innermost open span).
    pub fn start_span(self: &Arc<Tracer>, name: &str, parent: Option<u64>) -> Span {
        let id = {
            let mut st = self.state.lock().unwrap();
            let id = st.spans.len() as u64;
            st.started += 1;
            st.spans.push(SpanRecord {
                id,
                parent,
                name: name.to_string(),
                start_ns: self.epoch.elapsed().as_nanos() as u64,
                end_ns: None,
                rows: None,
                bytes: None,
                workers: None,
                attrs: Vec::new(),
            });
            id
        };
        OPEN_SPANS.with(|s| s.borrow_mut().push((self.token, id)));
        Span {
            inner: Some((Arc::clone(self), id)),
        }
    }

    /// `(started, finished)` span counts so far.
    pub fn span_counts(&self) -> (u64, u64) {
        let st = self.state.lock().unwrap();
        (st.started, st.finished)
    }

    /// Copies of all recorded spans (finished or open).
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.state.lock().unwrap().spans.clone()
    }

    /// Assemble the finished spans into a profile tree.
    pub fn profile(&self) -> crate::QueryProfile {
        let st = self.state.lock().unwrap();
        crate::QueryProfile::from_spans(&st.spans, st.started, st.finished)
    }

    fn finish_span(&self, id: u64) {
        let end = self.epoch.elapsed().as_nanos() as u64;
        let mut st = self.state.lock().unwrap();
        st.finished += 1;
        st.spans[id as usize].end_ns = Some(end);
    }

    fn update_span(&self, id: u64, f: impl FnOnce(&mut SpanRecord)) {
        f(&mut self.state.lock().unwrap().spans[id as usize]);
    }
}

/// Keeps a tracer installed on the current thread.
pub struct TracerGuard {
    tracer: Arc<Tracer>,
}

impl Drop for TracerGuard {
    fn drop(&mut self) {
        TRACERS.with(|t| {
            let mut stack = t.borrow_mut();
            if let Some(pos) = stack.iter().rposition(|x| Arc::ptr_eq(x, &self.tracer)) {
                stack.remove(pos);
            }
        });
    }
}

/// The tracer currently installed on this thread, if any.
pub fn current_tracer() -> Option<Arc<Tracer>> {
    TRACERS.with(|t| t.borrow().last().cloned())
}

/// Open a span under the thread's current tracer, parented to the
/// innermost open span. Without an installed tracer this is a no-op
/// and returns an inert guard.
pub fn span(name: &str) -> Span {
    span_with(|| name.to_string())
}

/// [`span`] whose name is built only when a tracer records it: a hot
/// path that formats its span name pays nothing without one.
pub fn span_with(name: impl FnOnce() -> String) -> Span {
    let Some(tracer) = current_tracer() else {
        return Span { inner: None };
    };
    let name = name();
    let token = tracer.token;
    let parent = OPEN_SPANS.with(|s| {
        s.borrow()
            .iter()
            .rev()
            .find(|(t, _)| *t == token)
            .map(|&(_, id)| id)
    });
    tracer.start_span(&name, parent)
}

/// RAII span guard: finished exactly once, when dropped (or via the
/// explicit [`Span::finish`]).
pub struct Span {
    inner: Option<(Arc<Tracer>, u64)>,
}

impl Span {
    /// Whether this guard records anything (false without a tracer).
    pub fn is_recording(&self) -> bool {
        self.inner.is_some()
    }

    /// This span's id, when recording.
    pub fn id(&self) -> Option<u64> {
        self.inner.as_ref().map(|(_, id)| *id)
    }

    /// Report output rows.
    pub fn set_rows(&self, n: u64) {
        self.update(|rec| rec.rows = Some(n));
    }

    /// Report output bytes (estimated).
    pub fn set_bytes(&self, n: u64) {
        self.update(|rec| rec.bytes = Some(n));
    }

    /// Report output bytes computed by `n`, which runs only when this
    /// span records (an estimate that walks the output is skipped
    /// without a tracer).
    pub fn set_bytes_with(&self, n: impl FnOnce() -> u64) {
        if self.is_recording() {
            self.set_bytes(n());
        }
    }

    /// Report worker threads used.
    pub fn set_workers(&self, n: u64) {
        self.update(|rec| rec.workers = Some(n));
    }

    /// Attach a named numeric attribute.
    pub fn attr(&self, name: &str, value: u64) {
        self.update(|rec| rec.attrs.push((name.to_string(), value)));
    }

    fn update(&self, f: impl FnOnce(&mut SpanRecord)) {
        if let Some((tracer, id)) = &self.inner {
            tracer.update_span(*id, f);
        }
    }

    /// Finish explicitly (equivalent to dropping).
    pub fn finish(self) {}
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some((tracer, id)) = self.inner.take() {
            OPEN_SPANS.with(|s| {
                let mut stack = s.borrow_mut();
                if let Some(pos) = stack.iter().rposition(|&e| e == (tracer.token, id)) {
                    stack.remove(pos);
                }
            });
            tracer.finish_span(id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_without_tracer_is_inert() {
        assert!(current_tracer().is_none());
        let s = span("orphan");
        assert!(!s.is_recording());
        s.set_rows(5); // no-op, must not panic
    }

    #[test]
    fn lazy_values_are_computed_only_when_recording() {
        let called = std::cell::Cell::new(0);
        let name = || {
            called.set(called.get() + 1);
            "lazy".to_string()
        };
        let bytes = || {
            called.set(called.get() + 1);
            42
        };
        let inert = span_with(name);
        inert.set_bytes_with(bytes);
        assert!(!inert.is_recording());
        assert_eq!(called.get(), 0, "no tracer: neither closure runs");
        drop(inert);

        let tracer = Tracer::new();
        {
            let _g = tracer.install();
            span_with(name).set_bytes_with(bytes);
        }
        assert_eq!(called.get(), 2);
        let spans = tracer.spans();
        assert_eq!((spans[0].name.as_str(), spans[0].bytes), ("lazy", Some(42)));
    }

    #[test]
    fn spans_nest_and_finish_once() {
        let tracer = Tracer::new();
        {
            let _g = tracer.install();
            let root = span("root");
            {
                let child = span("child");
                child.set_rows(7);
                child.attr("chunks", 3);
            }
            root.set_rows(1);
        }
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "root");
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].rows, Some(7));
        assert_eq!(spans[1].attrs, vec![("chunks".to_string(), 3)]);
        assert!(spans.iter().all(|s| s.end_ns.is_some()));
        // Child finished before root, so child end <= root end and
        // child start >= root start (wall times nest).
        assert!(spans[1].start_ns >= spans[0].start_ns);
        assert!(spans[1].end_ns.unwrap() <= spans[0].end_ns.unwrap());
        assert_eq!(tracer.span_counts(), (2, 2));
    }

    #[test]
    fn uninstalled_tracer_gets_no_spans() {
        let a = Tracer::new();
        let b = Tracer::new();
        {
            let _ga = a.install();
            {
                let _gb = b.install();
                let _s = span("inner"); // goes to b (innermost)
            }
            let _s = span("outer"); // goes to a
        }
        assert_eq!(a.spans().len(), 1);
        assert_eq!(a.spans()[0].name, "outer");
        assert_eq!(b.spans().len(), 1);
        assert_eq!(b.spans()[0].name, "inner");
    }

    #[test]
    fn tracer_tokens_are_unique() {
        let a = Tracer::new();
        let b = Tracer::new();
        assert_ne!(a.token(), b.token());
    }

    /// Regression test for cross-session span bleed: a `Span` guard
    /// moved to (and dropped on) another thread leaves a stale entry on
    /// the origin thread's open-span stack. When that stack was keyed
    /// by tracer *address*, a later session whose tracer reused the
    /// freed allocation would misparent its spans to the dead session's
    /// span id. Keyed by unique token, the stale entry never matches.
    #[test]
    fn cross_thread_span_drop_cannot_misparent_later_sessions() {
        // Session 1 opens a span here but the guard is dropped on a
        // pool thread — the classic "query finishes on a worker"
        // interleaving. The origin thread's OPEN_SPANS entry survives.
        let t1 = Tracer::new();
        let leaked = {
            let _g = t1.install();
            span("session1-root")
        };
        std::thread::spawn(move || drop(leaked)).join().unwrap();
        assert_eq!(t1.span_counts(), (1, 1));
        drop(t1);

        // Many later sessions on this same thread: none of their root
        // spans may adopt a parent. Looping gives the allocator every
        // chance to reuse t1's freed address.
        for i in 0..64 {
            let t = Tracer::new();
            {
                let _g = t.install();
                let _s = span("later-root");
            }
            let spans = t.spans();
            assert_eq!(spans.len(), 1);
            assert_eq!(
                spans[0].parent, None,
                "session {i} adopted a stale parent from a dead session"
            );
        }
    }

    #[test]
    fn explicit_parent_and_wall_ns() {
        let tracer = Tracer::new();
        let root = tracer.start_span("r", None);
        let child = tracer.start_span("c", root.id());
        std::thread::sleep(std::time::Duration::from_millis(1));
        drop(child);
        drop(root);
        let spans = tracer.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[1].wall_ns() > 0);
        assert!(spans[1].wall_ns() <= spans[0].wall_ns());
    }
}
