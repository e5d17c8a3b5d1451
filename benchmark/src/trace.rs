//! The harness's span log and the transport wrapper that feeds it.
//!
//! Spans are recorded from outside the program, around calls into each
//! crate's public functions: root `cs` per section, children
//! `music.enter|get|put|release`, and — on the socket workloads — a
//! `transport.request` span under the client's current op for every frame
//! its stack sends. Everything stays in memory until the run ends.

use std::cell::{Cell, RefCell};
use std::fmt::Write as _;
use std::future::Future;
use std::rc::Rc;
use std::time::Instant;

use music_runtime::{RequestFuture, Runtime, Transport};
use music_simnet::executor::Sim;
use music_simnet::net::NodeId;
use music_simnet::time::{SimDuration, SimTime};

/// The workload's own clock, in nanoseconds: wall time on `tcp_*`,
/// virtual time on `sim_*` (whole microseconds × 1000).
#[derive(Clone)]
pub enum Clock {
    Wall(Instant),
    Virtual(Sim),
}

impl Clock {
    pub fn now_ns(&self) -> u64 {
        match self {
            Clock::Wall(origin) => origin.elapsed().as_nanos() as u64,
            Clock::Virtual(sim) => sim.true_now().as_micros() * 1_000,
        }
    }

    pub fn name(&self) -> &'static str {
        match self {
            Clock::Wall(_) => "wall_ns",
            Clock::Virtual(_) => "virtual_ns",
        }
    }
}

pub const CS: &str = "cs";
pub const ENTER: &str = "music.enter";
pub const GET: &str = "music.get";
pub const PUT: &str = "music.put";
pub const RELEASE: &str = "music.release";
pub const REQUEST: &str = "transport.request";

/// One recorded interval. `id` is its 1-based index in the log; `parent`
/// is `0` for a root; `cs` is the section id shared by a section's spans.
#[derive(Copy, Clone, Debug)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub cs: u32,
    pub name: &'static str,
    pub start_ns: u64,
    /// `0` while open. A request whose future was dropped before the reply
    /// (a retransmit timeout) is closed at the drop with `abandoned` set.
    pub end_ns: u64,
    /// Serving node and store tag of a request; `0` otherwise.
    pub node: u32,
    pub tag: u8,
    /// Payload bytes sent plus received by a request.
    pub bytes: u32,
    pub abandoned: bool,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The in-memory span log of one run (load thread only).
pub struct SpanLog {
    pub clock: Clock,
    spans: RefCell<Vec<Span>>,
}

impl SpanLog {
    pub fn new(clock: Clock) -> Rc<SpanLog> {
        Rc::new(SpanLog {
            clock,
            spans: RefCell::new(Vec::new()),
        })
    }

    pub fn open(&self, name: &'static str, parent: u32, cs: u32, node: u32, tag: u8) -> u32 {
        let mut spans = self.spans.borrow_mut();
        let id = spans.len() as u32 + 1;
        spans.push(Span {
            id,
            parent,
            cs,
            name,
            start_ns: self.clock.now_ns(),
            end_ns: 0,
            node,
            tag,
            bytes: 0,
            abandoned: false,
        });
        id
    }

    pub fn close(&self, id: u32) {
        let now = self.clock.now_ns();
        if let Some(s) = self.spans.borrow_mut().get_mut(id as usize - 1) {
            // A zero-length span still needs a non-zero end to read as closed.
            s.end_ns = now.max(s.start_ns).max(1);
        }
    }

    fn close_request(&self, id: u32, bytes: u32, abandoned: bool) {
        self.close(id);
        if let Some(s) = self.spans.borrow_mut().get_mut(id as usize - 1) {
            s.bytes = bytes;
            s.abandoned = abandoned;
        }
    }

    /// Drops everything recorded so far (the end of warm-up).
    pub fn clear(&self) {
        self.spans.borrow_mut().clear();
    }

    pub fn snapshot(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }
}

/// Where one client's spans attach: the section and op it is inside now.
/// Shared between the harness timers and that client's [`Traced`]
/// transports, which is what parents a request onto the op that sent it.
pub struct ClientTrace {
    pub log: Rc<SpanLog>,
    next_cs: Rc<Cell<u32>>,
    cs_id: Cell<u32>,
    cs_span: Cell<u32>,
    op_span: Cell<u32>,
}

impl ClientTrace {
    /// `next_cs` is shared by all clients of a run so section ids are unique.
    pub fn new(log: Rc<SpanLog>, next_cs: Rc<Cell<u32>>) -> Rc<ClientTrace> {
        Rc::new(ClientTrace {
            log,
            next_cs,
            cs_id: Cell::new(0),
            cs_span: Cell::new(0),
            op_span: Cell::new(0),
        })
    }

    pub fn open_cs(&self) {
        let id = self.next_cs.get() + 1;
        self.next_cs.set(id);
        self.cs_id.set(id);
        self.cs_span.set(self.log.open(CS, 0, id, 0, 0));
    }

    pub fn close_cs(&self) {
        self.log.close(self.cs_span.replace(0));
        self.cs_id.set(0);
    }

    /// Times `fut` as one op span under the current section.
    pub async fn op<T>(&self, name: &'static str, fut: impl Future<Output = T>) -> T {
        let id = self
            .log
            .open(name, self.cs_span.get(), self.cs_id.get(), 0, 0);
        self.op_span.set(id);
        let out = fut.await;
        self.op_span.set(0);
        self.log.close(id);
        out
    }
}

/// Times `fut` under `trace` when the run is traced; otherwise just runs it.
pub async fn op<T>(
    trace: Option<&ClientTrace>,
    name: &'static str,
    fut: impl Future<Output = T>,
) -> T {
    match trace {
        Some(t) => t.op(name, fut).await,
        None => fut.await,
    }
}

/// Closes its request span as abandoned unless the reply arrived first.
struct RequestGuard {
    log: Rc<SpanLog>,
    id: u32,
    sent: u32,
    done: bool,
}

impl Drop for RequestGuard {
    fn drop(&mut self) {
        if !self.done {
            self.log.close_request(self.id, self.sent, true);
        }
    }
}

/// A [`Transport`] wrapper that records one `transport.request` span per
/// frame, parented on the owning client's current op. As a [`Runtime`] it
/// delegates verbatim, so the stack above it cannot tell it is there.
pub struct Traced<T> {
    inner: T,
    tag: u8,
    ctx: Rc<ClientTrace>,
}

impl<T> Traced<T> {
    pub fn new(inner: T, tag: u8, ctx: Rc<ClientTrace>) -> Self {
        Traced { inner, tag, ctx }
    }
}

impl<T: Clone> Clone for Traced<T> {
    fn clone(&self) -> Self {
        Traced {
            inner: self.inner.clone(),
            tag: self.tag,
            ctx: Rc::clone(&self.ctx),
        }
    }
}

impl<T> std::fmt::Debug for Traced<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Traced").field("tag", &self.tag).finish()
    }
}

impl<T: Runtime> Runtime for Traced<T> {
    type Sleep = T::Sleep;
    type JoinHandle<U: 'static> = T::JoinHandle<U>;

    fn now(&self) -> SimTime {
        self.inner.now()
    }
    fn sleep(&self, dur: SimDuration) -> Self::Sleep {
        self.inner.sleep(dur)
    }
    fn sleep_until(&self, deadline: SimTime) -> Self::Sleep {
        self.inner.sleep_until(deadline)
    }
    fn spawn<F>(&self, future: F) -> Self::JoinHandle<F::Output>
    where
        F: Future + 'static,
        F::Output: 'static,
    {
        self.inner.spawn(future)
    }
    fn trace(&self) -> u64 {
        self.inner.trace()
    }
    fn set_trace(&self, tag: u64) {
        self.inner.set_trace(tag)
    }
    fn span(&self) -> u64 {
        self.inner.span()
    }
    fn set_span(&self, tag: u64) {
        self.inner.set_span(tag)
    }
}

impl<T: Transport> Transport for Traced<T> {
    fn request(&self, from: NodeId, to: NodeId, payload: Vec<u8>) -> RequestFuture {
        let ctx = &self.ctx;
        let parent = match ctx.op_span.get() {
            0 => ctx.cs_span.get(),
            op => op,
        };
        let sent = payload.len() as u32;
        let id = ctx
            .log
            .open(REQUEST, parent, ctx.cs_id.get(), to.0, self.tag);
        let mut guard = RequestGuard {
            log: Rc::clone(&ctx.log),
            id,
            sent,
            done: false,
        };
        let fut = self.inner.request(from, to, payload);
        Box::pin(async move {
            let out = fut.await;
            let received = out.as_ref().map_or(0, |r| r.len() as u32);
            guard.done = true;
            guard.log.close_request(guard.id, sent + received, false);
            out
        })
    }
}

/// Time inside `[start, end]` covered by at least one of `children`
/// (each clipped to the interval) — what a span's self time subtracts.
pub fn covered_ns(start: u64, end: u64, children: &mut [(u64, u64)]) -> u64 {
    children.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for &(s, e) in children.iter() {
        let s = s.max(reach);
        let e = e.min(end);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    covered
}

/// At most this many sections' spans go into the trace file; the metrics
/// are computed from the whole log.
pub const TRACE_FILE_SECTIONS: u32 = 2_000;

/// Renders the trace file: a header, the harness spans of the first
/// [`TRACE_FILE_SECTIONS`] sections, and (simulator runs) the program's
/// own phase spans as JSON lines embedded in `program_spans`.
pub fn to_json(workload: &str, clock: &Clock, spans: &[Span], program_spans: &[String]) -> String {
    let mut out = String::with_capacity(1 << 20);
    let written = spans.iter().filter(|s| s.cs <= TRACE_FILE_SECTIONS).count();
    let _ = write!(
        out,
        "{{\"workload\":\"{workload}\",\"clock\":\"{}\",\"spans_total\":{},\"spans_written\":{written},\"spans\":[",
        clock.name(),
        spans.len()
    );
    let mut first = true;
    for s in spans.iter().filter(|s| s.cs <= TRACE_FILE_SECTIONS) {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(
            out,
            "\n{{\"id\":{},\"parent\":{},\"cs\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}",
            s.id, s.parent, s.cs, s.name, s.start_ns, s.end_ns
        );
        if s.name == REQUEST {
            let _ = write!(
                out,
                ",\"node\":{},\"store\":{},\"bytes\":{},\"abandoned\":{}",
                s.node, s.tag, s.bytes, s.abandoned
            );
        }
        out.push('}');
    }
    out.push_str("\n],\"program_spans\":[");
    for (i, line) in program_spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('\n');
        out.push_str(line);
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covered_time_is_the_union_clipped_to_the_parent() {
        // Two overlapping children and one that overhangs the parent's end.
        let mut kids = vec![(10, 30), (20, 40), (90, 150)];
        assert_eq!(covered_ns(0, 100, &mut kids), 30 + 10);
        assert_eq!(covered_ns(0, 100, &mut []), 0);
        // A child entirely outside contributes nothing.
        assert_eq!(covered_ns(0, 100, &mut [(100, 200)]), 0);
    }
}
