//! The shared recording handle injected into every instrumented layer.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use crate::event::{Event, EventKind, TraceId};
use crate::metrics::{MetricsRegistry, MetricsSnapshot, Scope};
use crate::online::{OnlineChecker, OnlineConfig, OnlineReport};
use crate::span::{Span, SpanId, SpanPhase};

#[derive(Debug)]
struct Inner {
    capture_events: bool,
    seq: Cell<u64>,
    next_trace: Cell<u64>,
    events: RefCell<Vec<Event>>,
    spans: RefCell<Vec<Span>>,
    metrics: RefCell<MetricsRegistry>,
    online: RefCell<Option<OnlineChecker>>,
}

/// A cheap, clonable handle to one telemetry sink.
///
/// Four modes:
/// * [`Recorder::off`] (the default) — every call is a no-op behind one
///   `Option` check; nothing allocates;
/// * [`Recorder::metrics_only`] — counters and gauges accumulate, the
///   event log stays empty;
/// * [`Recorder::tracing`] — counters *and* the full typed event log;
/// * [`Recorder::online`] — counters, and every event fed to a streaming
///   checker without being stored.
///
/// The mode is known here and nowhere else: instrumented layers call
/// [`Recorder::count`], [`Recorder::record`] and friends unconditionally,
/// and each call keeps only what the mode asks for. Events are passed as
/// closures and built only when kept.
///
/// Recording is purely synchronous bookkeeping: no randomness, no task
/// spawning, no timers. A seeded simulation therefore executes the
/// identical virtual-time schedule whichever mode is active.
#[derive(Clone, Debug, Default)]
pub struct Recorder {
    inner: Option<Rc<Inner>>,
}

impl Recorder {
    /// A disabled recorder (all calls are no-ops).
    pub fn off() -> Self {
        Recorder { inner: None }
    }

    /// A recorder accumulating metrics but no events.
    pub fn metrics_only() -> Self {
        Self::with_capture(false)
    }

    /// A recorder capturing the event log and metrics.
    pub fn tracing() -> Self {
        Self::with_capture(true)
    }

    /// A recorder that feeds every event through a streaming
    /// [`OnlineChecker`] *without* storing the log: memory stays
    /// O(live keys) however long the run is. Metrics still accumulate.
    /// This is the mode `music-load` uses against a live cluster.
    pub fn online(cfg: OnlineConfig) -> Self {
        let r = Self::with_capture(false);
        r.attach_online(cfg);
        r
    }

    fn with_capture(capture_events: bool) -> Self {
        Recorder {
            inner: Some(Rc::new(Inner {
                capture_events,
                seq: Cell::new(0),
                next_trace: Cell::new(0),
                events: RefCell::new(Vec::new()),
                spans: RefCell::new(Vec::new()),
                metrics: RefCell::new(MetricsRegistry::new()),
                online: RefCell::new(None),
            })),
        }
    }

    /// Attaches a streaming checker to an active recorder; every event
    /// recorded from now on is checked as it arrives. No-op when the
    /// recorder is off.
    pub fn attach_online(&self, cfg: OnlineConfig) {
        if let Some(i) = &self.inner {
            *i.online.borrow_mut() = Some(OnlineChecker::new(cfg));
        }
    }

    /// Snapshot of the attached streaming checker's verdict (`None` when
    /// no checker is attached).
    pub fn online_report(&self) -> Option<OnlineReport> {
        self.inner
            .as_ref()
            .and_then(|i| i.online.borrow().as_ref().map(OnlineChecker::report))
    }

    /// Whether any recording (metrics or events) is active.
    pub fn is_on(&self) -> bool {
        self.inner.is_some()
    }

    /// Whether events are kept: true when the log is captured *or* a
    /// streaming checker is attached (it consumes events without storing
    /// them). [`Recorder::record`] already skips building an event it
    /// will not keep; check this only to skip work the recorder cannot,
    /// such as setting a task's trace or span tag.
    pub fn is_tracing(&self) -> bool {
        self.inner
            .as_ref()
            .is_some_and(|i| i.capture_events || i.online.borrow().is_some())
    }

    /// Mints the next trace id (monotone from 1). Returns `0` when the
    /// event log is off, so spans collapse to the "no trace" id.
    pub fn next_trace(&self) -> TraceId {
        match &self.inner {
            Some(i) if i.capture_events => {
                let t = i.next_trace.get() + 1;
                i.next_trace.set(t);
                t
            }
            _ => 0,
        }
    }

    /// Appends one event (no-op unless tracing). `at_us` is the virtual
    /// timestamp; the recorder assigns the sequence number. The payload
    /// is built by calling `kind` only when the event is kept, so callers
    /// record unconditionally and a recorder that is off or metrics-only
    /// never allocates a key string. When a streaming checker is attached
    /// the event is checked here, as it happens — and only *stored* if
    /// the log is also being captured.
    pub fn record(&self, at_us: u64, trace: TraceId, node: u32, kind: impl FnOnce() -> EventKind) {
        let Some(i) = &self.inner else { return };
        if !i.capture_events && i.online.borrow().is_none() {
            return;
        }
        // Built while no borrow is held: `kind` is the caller's code.
        let kind = kind();
        let seq = i.seq.get();
        i.seq.set(seq + 1);
        let e = Event {
            seq,
            at_us,
            trace,
            node,
            kind,
        };
        if let Some(c) = i.online.borrow_mut().as_mut() {
            c.push(&e);
        }
        if i.capture_events {
            i.events.borrow_mut().push(e);
        }
    }

    /// Adds `n` to a counter (no-op when off).
    pub fn count(&self, scope: Scope, name: &'static str, n: u64) {
        if let Some(i) = &self.inner {
            i.metrics.borrow_mut().add(scope, name, n);
        }
    }

    /// Raises a high-water-mark gauge (no-op when off).
    pub fn gauge_max(&self, scope: Scope, name: &'static str, v: u64) {
        if let Some(i) = &self.inner {
            i.metrics.borrow_mut().set_max(scope, name, v);
        }
    }

    /// Appends one histogram sample (no-op when off).
    pub fn observe(&self, scope: Scope, name: &'static str, v: u64) {
        if let Some(i) = &self.inner {
            i.metrics.borrow_mut().observe(scope, name, v);
        }
    }

    /// Opens a phase span (no-op unless tracing; returns `0` then).
    ///
    /// `parent` is the enclosing span (`0` for a root); the caller
    /// threads it explicitly — typically via the simulator's per-task
    /// span tag — because concurrent critical sections interleave at
    /// await points, so an implicit recorder-level stack would attribute
    /// children to the wrong section. Pure bookkeeping, like every other
    /// recorder call: the virtual-time schedule is unchanged.
    #[allow(clippy::too_many_arguments)]
    pub fn span_open(
        &self,
        at_us: u64,
        parent: SpanId,
        trace: TraceId,
        node: u32,
        site: u32,
        phase: SpanPhase,
        key: &str,
    ) -> SpanId {
        let Some(i) = &self.inner else { return 0 };
        if !i.capture_events {
            return 0;
        }
        let mut spans = i.spans.borrow_mut();
        let id = spans.len() as u64 + 1;
        spans.push(Span {
            id,
            parent,
            trace,
            node,
            site,
            phase,
            key: key.to_string(),
            start_us: at_us,
            end_us: None,
        });
        id
    }

    /// Closes span `id` at `at_us` (no-op for id `0`, unknown ids, or
    /// already-closed spans).
    pub fn span_close(&self, at_us: u64, id: SpanId) {
        let Some(i) = &self.inner else { return };
        if id == 0 || !i.capture_events {
            return;
        }
        if let Some(s) = i.spans.borrow_mut().get_mut(id as usize - 1) {
            if s.end_us.is_none() {
                s.end_us = Some(at_us);
            }
        }
    }

    /// A copy of the span log so far, in open order (ids dense from 1).
    pub fn spans(&self) -> Vec<Span> {
        match &self.inner {
            Some(i) => i.spans.borrow().clone(),
            None => Vec::new(),
        }
    }

    /// A copy of the event log so far, in sequence order.
    pub fn events(&self) -> Vec<Event> {
        match &self.inner {
            Some(i) => i.events.borrow().clone(),
            None => Vec::new(),
        }
    }

    /// Number of events recorded so far.
    pub fn event_count(&self) -> usize {
        self.inner.as_ref().map_or(0, |i| i.events.borrow().len())
    }

    /// A deterministic snapshot of all metrics.
    pub fn metrics(&self) -> MetricsSnapshot {
        match &self.inner {
            Some(i) => i.metrics.borrow().snapshot(),
            None => MetricsSnapshot::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_recorder_is_inert() {
        let r = Recorder::off();
        assert!(!r.is_on());
        assert!(!r.is_tracing());
        assert_eq!(r.next_trace(), 0);
        r.record(1, 0, 0, || EventKind::RepairRound { repaired: 0 });
        r.count(Scope::Global, "x", 1);
        assert!(r.events().is_empty());
        assert!(r.metrics().is_empty());
    }

    #[test]
    fn metrics_only_skips_events() {
        let r = Recorder::metrics_only();
        assert!(r.is_on());
        assert!(!r.is_tracing());
        r.record(1, 0, 0, || EventKind::RepairRound { repaired: 0 });
        r.count(Scope::Global, "x", 2);
        assert!(r.events().is_empty());
        assert_eq!(r.metrics().get(Scope::Global, "x"), 2);
    }

    #[test]
    fn tracing_assigns_monotone_seq_and_traces() {
        let r = Recorder::tracing();
        assert_eq!(r.next_trace(), 1);
        assert_eq!(r.next_trace(), 2);
        r.record(5, 1, 0, || EventKind::RepairRound { repaired: 0 });
        r.record(6, 2, 0, || EventKind::RepairRound { repaired: 1 });
        let ev = r.events();
        assert_eq!(ev[0].seq, 0);
        assert_eq!(ev[1].seq, 1);
        assert_eq!(r.event_count(), 2);
        // Clones share the sink.
        let r2 = r.clone();
        r2.record(7, 0, 0, || EventKind::RepairRound { repaired: 2 });
        assert_eq!(r.event_count(), 3);
    }

    #[test]
    fn online_recorder_checks_without_storing() {
        let r = Recorder::online(crate::online::OnlineConfig::unbounded());
        assert!(r.is_on());
        assert!(r.is_tracing(), "instrumentation must build payloads");
        r.record(0, 0, 0, || EventKind::LockEnqueue {
            key: "k".into(),
            lock_ref: 1,
        });
        r.record(1, 0, 0, || EventKind::LockGrant {
            key: "k".into(),
            lock_ref: 1,
        });
        r.record(2, 0, 0, || EventKind::LockRelease {
            key: "k".into(),
            lock_ref: 1,
        });
        assert!(r.events().is_empty(), "log must not accumulate");
        let rep = r.online_report().expect("checker attached");
        assert!(
            rep.ok(),
            "{:?} {:?}",
            rep.ecf.violations,
            rep.queue_violations
        );
        assert_eq!(rep.ecf.grants, 1);
        assert_eq!(rep.events_seen, 3);
    }

    #[test]
    fn attached_checker_sees_the_same_stream_as_the_log() {
        let r = Recorder::tracing();
        r.attach_online(crate::online::OnlineConfig::unbounded());
        r.record(1, 0, 0, || EventKind::LockGrant {
            key: "k".into(),
            lock_ref: 1,
        });
        r.record(2, 0, 0, || EventKind::LockGrant {
            key: "k".into(),
            lock_ref: 2,
        });
        let rep = r.online_report().expect("checker attached");
        assert_eq!(rep, crate::online::check_online(&r.events()));
        assert!(!rep.ok());
    }

    #[test]
    fn the_event_closure_may_use_the_recorder() {
        let r = Recorder::tracing();
        r.attach_online(crate::online::OnlineConfig::unbounded());
        r.record(1, 0, 0, || {
            assert_eq!(r.online_report().expect("attached").events_seen, 0);
            EventKind::RepairRound { repaired: 0 }
        });
        assert_eq!(r.event_count(), 1);
        assert_eq!(r.online_report().expect("attached").events_seen, 1);
    }

    #[test]
    fn spans_capture_only_when_tracing() {
        let off = Recorder::metrics_only();
        assert_eq!(off.span_open(1, 0, 0, 0, 0, SpanPhase::Section, "k"), 0);
        assert_eq!(off.spans().len(), 0);

        let r = Recorder::tracing();
        let root = r.span_open(10, 0, 1, 2, 0, SpanPhase::Section, "k");
        let child = r.span_open(12, root, 1, 2, 0, SpanPhase::DataPut, "k");
        assert_eq!((root, child), (1, 2));
        r.span_close(20, child);
        r.span_close(30, root);
        r.span_close(99, root); // double close is a no-op
        let spans = r.spans();
        assert_eq!(spans[0].end_us, Some(30));
        assert_eq!(spans[1].parent, root);
        assert_eq!(spans[1].duration_us(), Some(8));
        assert!(crate::span::check(&spans).ok());
    }
}
