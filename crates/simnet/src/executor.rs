//! The executor core both runtimes share, and [`Sim`], its virtual-time
//! instantiation.
//!
//! Every protocol in this workspace (quorum stores, Paxos, Zab, Raft, the
//! MUSIC layer itself) runs as ordinary `async` tasks on one single-threaded
//! [`Executor`]: a task slab, a ready queue, trace/span tags, the timer
//! queue, [`JoinHandle`] and [`Sleep`]. Only the [`Clock`] differs between
//! the two runtimes, and with it what an idle executor does:
//!
//! * [`Sim`] reads a [`VirtualClock`]. When no task is runnable it jumps
//!   the clock to the earliest live timer. A whole five-minute saturation
//!   experiment therefore executes in wall-clock milliseconds, and —
//!   because scheduling is a pure function of spawn/wake order and timer
//!   deadlines — two runs with the same seed are identical.
//! * `music_runtime::NativeRuntime` reads wall time. It fires every due
//!   timer, then parks its thread until the next live deadline or until a
//!   waker, possibly on another thread, unparks it.
//!
//! # Timers
//!
//! Replay rests on one ordering contract: timers fire in the total order
//! of `(deadline, seq)`, where `seq` counts registrations, so timers with
//! equal deadlines fire in registration order. A cancelled timer (a
//! dropped [`Sleep`], the loser of a [`crate::combinators::timeout`])
//! never fires and never moves the clock.
//!
//! The queue is a monotone radix queue over a slab of timer slots. A
//! `Sleep` holds a `(slot, seq)` handle, so registering, firing and
//! cancelling a timer allocate nothing, and a handle whose slot has been
//! reused cancels nothing. Cancelled entries stay queued and are discarded
//! when the queue reaches them. The queue's floor (the last deadline it
//! fired) never exceeds the clock: it moves only to a deadline that fires,
//! never to one a `run_until` horizon holds back or a cancelled one, so
//! every timer registered later is filed at or above it.
//!
//! # Examples
//!
//! ```
//! use music_simnet::executor::Sim;
//! use music_simnet::time::SimDuration;
//!
//! let sim = Sim::new();
//! let handle = sim.spawn({
//!     let sim = sim.clone();
//!     async move {
//!         sim.sleep(SimDuration::from_millis(10)).await;
//!         sim.now()
//!     }
//! });
//! sim.run();
//! assert_eq!(handle.try_result().unwrap().as_millis(), 10);
//! ```

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::fmt;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};
use std::thread::Thread;

use parking_lot::Mutex;

use crate::clock::{DriftClock, DriftSpec};
use crate::time::{SimDuration, SimTime};

/// The time source of an [`Executor`], and what the executor does when no
/// task is runnable: the one part its two instantiations do not share.
pub trait Clock: Default + 'static {
    /// Whether an idle executor parks its thread. A waker then unparks the
    /// thread that created the executor after queueing its task.
    const PARKS: bool;

    /// The current time in microseconds.
    fn now(&self) -> SimTime;

    /// Called when no task is runnable: fires timers due by `horizon` and
    /// moves the clock or waits for it. Returns `false` when nothing can
    /// ever run again, which only a virtual clock can know.
    fn idle(exec: &Executor<Self>, horizon: SimTime) -> bool;
}

/// Virtual time: starts at [`SimTime::ZERO`] and moves only when [`Sim`]
/// fires a timer or finishes a `run_until`.
#[derive(Default)]
pub struct VirtualClock(Cell<SimTime>);

impl Clock for VirtualClock {
    const PARKS: bool = false;

    fn now(&self) -> SimTime {
        self.0.get()
    }

    /// Jumps the clock to the next live deadline within `horizon` and fires
    /// that timer; cancelled timers never move time.
    fn idle(sim: &Sim, horizon: SimTime) -> bool {
        match sim.fire_next(horizon) {
            Ok(deadline) => {
                debug_assert!(deadline >= sim.true_now(), "time went backwards");
                sim.advance_to(deadline);
                true
            }
            Err(_) => false,
        }
    }
}

/// Identifier of a spawned task, used internally for wakeups.
type TaskId = usize;

/// The shared ready queue. It is `Send + Sync` because `std::task::Waker`
/// demands it, and because a wall-clock executor's tasks are woken from IO
/// threads; the executor itself is strictly single-threaded.
struct ReadyQueue {
    ids: Mutex<VecDeque<TaskId>>,
    /// The thread to unpark after a push: the wall-clock executor's, which
    /// parks when idle. `None` under the virtual clock, which never parks.
    unpark: Option<Thread>,
}

struct TaskWaker {
    id: TaskId,
    queued: AtomicBool,
    ready: Arc<ReadyQueue>,
}

impl Wake for TaskWaker {
    fn wake(self: Arc<Self>) {
        self.wake_by_ref();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        if !self.queued.swap(true, Ordering::AcqRel) {
            self.ready.ids.lock().push_back(self.id);
            // On a running thread this only sets the park token.
            if let Some(thread) = &self.ready.unpark {
                thread.unpark();
            }
        }
    }
}

struct TaskSlot {
    future: RefCell<Pin<Box<dyn Future<Output = ()>>>>,
    waker_state: Arc<TaskWaker>,
    waker: Waker,
    /// Telemetry trace tag: saved across polls so a span id set inside a
    /// task survives its awaits, and inherited by tasks it spawns.
    trace_tag: Cell<u64>,
    /// Telemetry span tag (the *current phase span*, distinct from the
    /// trace): same save/restore discipline as `trace_tag`, so nested
    /// phase spans parent correctly even when concurrent critical
    /// sections interleave at await points.
    span_tag: Cell<u64>,
}

/// A registered timer: the slot that holds its waker plus the sequence
/// number of the registration, which doubles as the slot's generation. A
/// handle whose slot has since fired, been cancelled or been reused no
/// longer matches the slot and cancels nothing.
#[derive(Copy, Clone)]
struct TimerHandle {
    slot: u32,
    seq: u64,
}

/// One queued registration, 24 bytes. It is live while its slot is armed
/// with the same `seq`; a cancelled entry stays queued until the queue
/// reaches it and is then discarded without touching the clock.
#[derive(Copy, Clone)]
struct TimerEntry {
    deadline: u64,
    seq: u64,
    slot: u32,
}

struct TimerSlot {
    seq: u64,
    /// `Some` while the timer is pending (armed).
    waker: Option<Waker>,
}

/// Radix buckets: 0 for entries at the floor, `b` for entries whose
/// deadline first differs from the floor at bit `b - 1`.
const BUCKETS: usize = 65;

/// The executor's timers: a monotone radix queue of [`TimerEntry`]s over a
/// slab of [`TimerSlot`]s. Entries pop in `(deadline, seq)` order, as from
/// a binary heap on that key; registering, firing and cancelling allocate
/// nothing once the vectors have grown.
///
/// Invariants:
/// * every queued deadline is `>= floor`, and `floor <= now`: the floor
///   only moves to a deadline that fires at once, never to one a horizon
///   holds back or a cancelled one, so a timer registered later (always
///   after `now`) cannot land below it;
/// * every bucket is in `seq` order: a registration appends the largest
///   `seq` yet, and a bucket is only redistributed into empty lower ones,
///   in order. Equal deadlines share a bucket, so they fire in
///   registration order.
struct Timers {
    floor: u64,
    buckets: [Vec<TimerEntry>; BUCKETS],
    /// Bit `b - 1` is set when bucket `b >= 1` is non-empty.
    occupied: u64,
    /// Next entry of bucket 0 to pop.
    head: usize,
    slots: Vec<TimerSlot>,
    free: Vec<u32>,
    next_seq: u64,
    /// Armed slots: timers registered and neither fired nor cancelled.
    pending: usize,
}

fn bucket_of(deadline: u64, floor: u64) -> usize {
    (u64::BITS - (deadline ^ floor).leading_zeros()) as usize
}

impl Timers {
    fn new() -> Self {
        Timers {
            floor: 0,
            // Room for a few entries in every bucket up front, so that a
            // sparse load never allocates when it first reaches a bucket.
            buckets: std::array::from_fn(|_| Vec::with_capacity(4)),
            occupied: 0,
            head: 0,
            slots: Vec::new(),
            free: Vec::new(),
            next_seq: 0,
            pending: 0,
        }
    }

    fn is_live(slots: &[TimerSlot], e: &TimerEntry) -> bool {
        let slot = &slots[e.slot as usize];
        slot.seq == e.seq && slot.waker.is_some()
    }

    fn push(&mut self, e: TimerEntry) {
        let b = bucket_of(e.deadline, self.floor);
        if b > 0 {
            self.occupied |= 1 << (b - 1);
        }
        self.buckets[b].push(e);
    }

    fn insert(&mut self, deadline: SimTime, waker: Waker) -> TimerHandle {
        let deadline = deadline.as_micros();
        debug_assert!(deadline >= self.floor, "timer filed below the floor");
        let seq = self.next_seq;
        self.next_seq += 1;
        let armed = TimerSlot {
            seq,
            waker: Some(waker),
        };
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = armed;
                slot
            }
            None => {
                self.slots.push(armed);
                (self.slots.len() - 1) as u32
            }
        };
        self.pending += 1;
        self.push(TimerEntry {
            deadline,
            seq,
            slot,
        });
        TimerHandle { slot, seq }
    }

    /// Takes the waker out of an armed slot and frees the slot.
    fn disarm(&mut self, slot: u32) -> Option<Waker> {
        let waker = self.slots[slot as usize].waker.take()?;
        self.free.push(slot);
        self.pending -= 1;
        Some(waker)
    }

    /// Disarms `h`'s slot if `h` is still pending, returning its waker (to
    /// be dropped outside the executor's borrow).
    fn cancel(&mut self, h: TimerHandle) -> Option<Waker> {
        if self.slots[h.slot as usize].seq != h.seq {
            return None;
        }
        self.disarm(h.slot)
    }

    fn will_wake(&self, h: TimerHandle, waker: &Waker) -> bool {
        let slot = &self.slots[h.slot as usize];
        slot.seq == h.seq && slot.waker.as_ref().is_some_and(|w| w.will_wake(waker))
    }

    /// Removes the earliest live timer if its deadline is `<= horizon`,
    /// returning its deadline and waker. Otherwise returns the earliest
    /// live deadline, which lies past the horizon, or `None` when no timer
    /// is live. Cancelled entries met on the way are discarded; the floor
    /// never moves past a timer that does not fire.
    fn pop_due(&mut self, horizon: u64) -> Result<(u64, Waker), Option<u64>> {
        loop {
            while let Some(&e) = self.buckets[0].get(self.head) {
                self.head += 1;
                if Self::is_live(&self.slots, &e) {
                    debug_assert!(e.deadline <= horizon, "floor beyond the horizon");
                    let waker = self.disarm(e.slot).expect("a live slot is armed");
                    return Ok((e.deadline, waker));
                }
            }
            self.buckets[0].clear();
            self.head = 0;
            if self.occupied == 0 {
                return Err(None);
            }
            // The lowest non-empty bucket holds the earliest deadlines.
            let b = self.occupied.trailing_zeros() as usize + 1;
            let bit = 1 << (b - 1);
            self.occupied &= !bit;
            let mut entries = std::mem::take(&mut self.buckets[b]);
            let slots = &self.slots;
            let mut min = None::<u64>;
            entries.retain(|e| {
                let live = Self::is_live(slots, e);
                if live {
                    min = Some(min.map_or(e.deadline, |m| m.min(e.deadline)));
                }
                live
            });
            match min {
                Some(m) if m > horizon => {
                    self.occupied |= bit;
                    self.buckets[b] = entries;
                    return Err(Some(m));
                }
                Some(m) => {
                    self.floor = m;
                    // Every entry moves to a lower bucket, which is empty:
                    // the in-order drain keeps each bucket in `seq` order.
                    for e in entries.drain(..) {
                        self.push(e);
                    }
                }
                None => {}
            }
            self.buckets[b] = entries;
        }
    }
}

struct Core<C> {
    clock: C,
    ready: Arc<ReadyQueue>,
    tasks: RefCell<Vec<Option<Rc<TaskSlot>>>>,
    free: RefCell<Vec<TaskId>>,
    timers: RefCell<Timers>,
    live: Cell<usize>,
    /// Trace tag of the code currently running (the polled task's tag, or
    /// the ambient tag between polls). Purely observational bookkeeping —
    /// it never influences scheduling.
    current_trace: Cell<u64>,
    /// Span tag of the code currently running (see `TaskSlot::span_tag`).
    current_span: Cell<u64>,
    /// Executor hot-path counters (see [`ExecutorProfile`]): pure `Cell`
    /// increments, so profiling never perturbs the schedule.
    profile: ProfileCells,
}

#[derive(Default)]
struct ProfileCells {
    tasks_spawned: Cell<u64>,
    task_polls: Cell<u64>,
    timers_set: Cell<u64>,
    timers_fired: Cell<u64>,
    timers_cancelled: Cell<u64>,
    max_ready_queue: Cell<u64>,
    max_timer_heap: Cell<u64>,
}

/// A snapshot of the executor's hot-path counters — the simulator's own
/// performance profile. Every field is a deterministic function of the
/// schedule, so profiles replay byte-identically for a fixed seed; pair
/// them with a wall-clock measurement around [`Sim::run`] to get
/// events-per-wall-second (the ROADMAP item 1 baseline).
///
/// The timer counters do not depend on how the queue discards cancelled
/// entries: after any run, `timers_set == timers_fired + timers_cancelled +`
/// [`Sim::pending_timers`].
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct ExecutorProfile {
    /// Tasks ever spawned.
    pub tasks_spawned: u64,
    /// Future polls executed (the executor's unit of work).
    pub task_polls: u64,
    /// Timers registered.
    pub timers_set: u64,
    /// Timers that fired and advanced (or held) the clock.
    pub timers_fired: u64,
    /// Timers cancelled before firing, counted when it happens: a `Sleep`
    /// dropped (timeout losers) or re-registered for a new waker while its
    /// timer is pending.
    pub timers_cancelled: u64,
    /// High-water mark of the ready queue (scheduler burst width).
    pub max_ready_queue: u64,
    /// High-water mark of pending timers, registered and neither fired nor
    /// cancelled (pending-timeout pressure).
    pub max_timer_heap: u64,
}

impl ExecutorProfile {
    /// Total scheduler events (polls + timer fires) — the denominator of
    /// the simulator's events/sec figures.
    pub fn events(&self) -> u64 {
        self.task_polls + self.timers_fired
    }
}

fn bump(counter: &Cell<u64>) {
    counter.set(counter.get() + 1);
}

fn raise(high_water: &Cell<u64>, level: usize) {
    high_water.set(high_water.get().max(level as u64));
}

/// The executor: tasks, wakeups, timers and telemetry tags over a
/// [`Clock`]. [`Sim`] is the executor over the [`VirtualClock`];
/// `music_runtime::NativeRuntime` is the same executor over wall time.
///
/// A cheap reference-counted handle; clone it freely into tasks. `!Send`:
/// one executor per thread.
///
/// A handle can optionally carry a **drift lens** ([`Sim::with_drift`]):
/// [`Executor::now`] through such a handle reads a node-local skewed clock
/// while scheduling, timers, and event delivery stay on true time
/// ([`Executor::true_now`]) — the model of a fleet whose nodes' clocks
/// drift.
pub struct Executor<C> {
    core: Rc<Core<C>>,
    /// Per-handle clock-skew lens; `None` reads true time.
    skew: Option<Rc<DriftClock>>,
}

/// The deterministic simulation runtime: the [`Executor`] over virtual
/// time, with its run loops ([`Sim::run`], [`Sim::run_until`]).
pub type Sim = Executor<VirtualClock>;

impl<C> Clone for Executor<C> {
    fn clone(&self) -> Self {
        Executor {
            core: Rc::clone(&self.core),
            skew: self.skew.clone(),
        }
    }
}

impl<C: Clock> fmt::Debug for Executor<C> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Executor")
            .field("now", &self.now())
            .field("live_tasks", &self.live_tasks())
            .finish()
    }
}

impl<C: Clock> Default for Executor<C> {
    fn default() -> Self {
        Self::new()
    }
}

impl<C: Clock> Executor<C> {
    /// Creates an executor with a fresh clock and no tasks: a simulation
    /// with the clock at [`SimTime::ZERO`], or a wall-clock runtime driven
    /// by the calling thread.
    pub fn new() -> Self {
        Executor {
            core: Rc::new(Core {
                clock: C::default(),
                ready: Arc::new(ReadyQueue {
                    ids: Mutex::new(VecDeque::new()),
                    unpark: C::PARKS.then(std::thread::current),
                }),
                tasks: RefCell::new(Vec::new()),
                free: RefCell::new(Vec::new()),
                timers: RefCell::new(Timers::new()),
                live: Cell::new(0),
                current_trace: Cell::new(0),
                current_span: Cell::new(0),
                profile: ProfileCells::default(),
            }),
            skew: None,
        }
    }

    /// Current time as this handle's node observes it: true time, mapped
    /// through the drift lens when one is attached ([`Sim::with_drift`]).
    pub fn now(&self) -> SimTime {
        match &self.skew {
            Some(clock) => clock.local(self.true_now()),
            None => self.true_now(),
        }
    }

    /// Current **true** time, ignoring any drift lens. This is the clock
    /// that orders event delivery and timer firing.
    pub fn true_now(&self) -> SimTime {
        self.core.clock.now()
    }

    /// Number of tasks that have been spawned and not yet completed.
    pub fn live_tasks(&self) -> usize {
        self.core.live.get()
    }

    /// The telemetry trace tag of the currently running task (`0` = no
    /// active span). Tags are inherited by spawned tasks and preserved
    /// across awaits, so a tag set at the start of a client operation is
    /// visible from every network transmission that operation causes.
    pub fn trace(&self) -> u64 {
        self.core.current_trace.get()
    }

    /// Sets the current task's trace tag (see [`Executor::trace`]). Purely
    /// observational: scheduling, timers, and randomness are unaffected.
    pub fn set_trace(&self, tag: u64) {
        self.core.current_trace.set(tag);
    }

    /// The phase-span tag of the currently running task (`0` = no open
    /// span). Distinct from [`Executor::trace`]: the trace names a whole
    /// client-visible operation, the span names the *currently open
    /// phase* within it. Inherited by spawned tasks and preserved across
    /// awaits, so instrumentation deep in the stack can parent its spans
    /// onto the caller's without threading ids through every signature.
    pub fn span(&self) -> u64 {
        self.core.current_span.get()
    }

    /// Sets the current task's span tag (see [`Executor::span`]). Purely
    /// observational, like [`Executor::set_trace`].
    pub fn set_span(&self, tag: u64) {
        self.core.current_span.set(tag);
    }

    /// A snapshot of the executor's hot-path counters.
    pub fn profile(&self) -> ExecutorProfile {
        let p = &self.core.profile;
        ExecutorProfile {
            tasks_spawned: p.tasks_spawned.get(),
            task_polls: p.task_polls.get(),
            timers_set: p.timers_set.get(),
            timers_fired: p.timers_fired.get(),
            timers_cancelled: p.timers_cancelled.get(),
            max_ready_queue: p.max_ready_queue.get(),
            max_timer_heap: p.max_timer_heap.get(),
        }
    }

    /// Spawns a task onto the executor and returns a [`JoinHandle`] for its
    /// output.
    ///
    /// Dropping the handle detaches the task; it keeps running. Tasks only
    /// make progress while the executor runs ([`Sim::run`],
    /// [`Executor::block_on`], [`Executor::turn`]).
    pub fn spawn<F>(&self, future: F) -> JoinHandle<F::Output>
    where
        F: Future + 'static,
        F::Output: 'static,
    {
        let state = Rc::new(RefCell::new(JoinState {
            result: None,
            done: false,
            waker: None,
        }));
        let state2 = Rc::clone(&state);
        let wrapped = async move {
            let out = future.await;
            let mut s = state2.borrow_mut();
            s.result = Some(out);
            s.done = true;
            if let Some(w) = s.waker.take() {
                w.wake();
            }
        };

        let core = &self.core;
        let id = {
            let mut free = core.free.borrow_mut();
            if let Some(id) = free.pop() {
                id
            } else {
                let mut tasks = core.tasks.borrow_mut();
                tasks.push(None);
                tasks.len() - 1
            }
        };
        let waker_state = Arc::new(TaskWaker {
            id,
            queued: AtomicBool::new(true),
            ready: Arc::clone(&core.ready),
        });
        let waker = Waker::from(Arc::clone(&waker_state));
        let slot = Rc::new(TaskSlot {
            future: RefCell::new(Box::pin(wrapped)),
            waker_state,
            waker,
            // Causal inheritance: a spawned task belongs to the span that
            // spawned it until it opens a span of its own.
            trace_tag: Cell::new(core.current_trace.get()),
            span_tag: Cell::new(core.current_span.get()),
        });
        core.tasks.borrow_mut()[id] = Some(slot);
        core.live.set(core.live.get() + 1);
        bump(&core.profile.tasks_spawned);
        let mut ready = core.ready.ids.lock();
        ready.push_back(id);
        raise(&core.profile.max_ready_queue, ready.len());
        JoinHandle { state }
    }

    /// Timers registered and neither fired nor cancelled yet (see
    /// [`ExecutorProfile`]).
    pub fn pending_timers(&self) -> usize {
        self.core.timers.borrow().pending
    }

    /// Registers `waker` to fire at `deadline`. Used by [`Sleep`].
    fn register_timer(&self, deadline: SimTime, waker: Waker) -> TimerHandle {
        let mut timers = self.core.timers.borrow_mut();
        let handle = timers.insert(deadline, waker);
        bump(&self.core.profile.timers_set);
        raise(&self.core.profile.max_timer_heap, timers.pending);
        handle
    }

    /// Cancels `h` if it is still pending; a stale handle cancels nothing.
    fn cancel_timer(&self, h: TimerHandle) {
        let waker = self.core.timers.borrow_mut().cancel(h);
        if waker.is_some() {
            bump(&self.core.profile.timers_cancelled);
        }
    }

    /// Returns a future that completes after `dur`.
    ///
    /// Durations are *true* time even through a drifted handle: a skewed
    /// clock changes what timestamps a node reads, not how fast its
    /// interval timers run (`CLOCK_MONOTONIC` semantics).
    pub fn sleep(&self, dur: SimDuration) -> Sleep<C> {
        self.sleep_until_true(self.true_now() + dur)
    }

    /// Returns a future that completes when this handle's clock reads
    /// `deadline`. Through a drifted handle the deadline is interpreted on
    /// the node-local clock and converted to true time at call site (the
    /// remaining local wait is taken at face value), so the timer itself
    /// still rides the true-time queue.
    pub fn sleep_until(&self, deadline: SimTime) -> Sleep<C> {
        let deadline = match &self.skew {
            Some(_) => self.true_now() + deadline.saturating_since(self.now()),
            None => deadline,
        };
        self.sleep_until_true(deadline)
    }

    fn sleep_until_true(&self, deadline: SimTime) -> Sleep<C> {
        Sleep {
            exec: self.clone(),
            deadline,
            timer: None,
        }
    }

    fn poll_task(&self, id: TaskId) {
        let core = &self.core;
        let slot = {
            let tasks = core.tasks.borrow();
            match tasks.get(id).and_then(|s| s.clone()) {
                Some(s) => s,
                None => return, // already completed; stale wake
            }
        };
        slot.waker_state.queued.store(false, Ordering::Release);
        let mut cx = Context::from_waker(&slot.waker);
        bump(&core.profile.task_polls);
        // Swap the task's trace and span tags in around the poll so
        // `trace()` / `span()` always name the operation and phase of the
        // code actually running, across awaits and interleavings.
        let outer_trace = core.current_trace.replace(slot.trace_tag.get());
        let outer_span = core.current_span.replace(slot.span_tag.get());
        let poll = slot.future.borrow_mut().as_mut().poll(&mut cx);
        slot.trace_tag.set(core.current_trace.replace(outer_trace));
        slot.span_tag.set(core.current_span.replace(outer_span));
        if poll.is_ready() {
            core.tasks.borrow_mut()[id] = None;
            core.free.borrow_mut().push(id);
            core.live.set(core.live.get() - 1);
        }
    }

    /// Whether a task is waiting to be polled.
    pub fn has_ready(&self) -> bool {
        !self.core.ready.ids.lock().is_empty()
    }

    /// Fires the earliest live timer if its deadline is `<= horizon`, and
    /// returns that deadline. Otherwise returns the earliest live deadline
    /// (past the horizon), or `None` when no timer is pending; cancelled
    /// timers are skipped and never reported. Moving the clock is left to
    /// [`Clock::idle`].
    pub fn fire_next(&self, horizon: SimTime) -> Result<SimTime, Option<SimTime>> {
        let due = self.core.timers.borrow_mut().pop_due(horizon.as_micros());
        match due {
            Ok((deadline, waker)) => {
                bump(&self.core.profile.timers_fired);
                waker.wake();
                Ok(SimTime::from_micros(deadline))
            }
            Err(next) => Err(next.map(SimTime::from_micros)),
        }
    }

    /// Runs one scheduler step: polls every runnable task (and those they
    /// wake), then lets the clock handle the idle executor. Returns `false`
    /// when the executor has quiesced (no runnable tasks and no timers
    /// within `horizon`).
    fn step(&self, horizon: SimTime) -> bool {
        let mut polled_any = false;
        loop {
            let next = {
                let mut ready = self.core.ready.ids.lock();
                raise(&self.core.profile.max_ready_queue, ready.len());
                ready.pop_front()
            };
            match next {
                Some(id) => {
                    self.poll_task(id);
                    polled_any = true;
                }
                None => break,
            }
        }
        C::idle(self, horizon) || polled_any
    }

    /// Runs one scheduler turn ([`Clock::idle`] included): on the wall
    /// clock, parks until the next timer or an external wake when nothing
    /// is runnable. Returns `false` once the executor has quiesced, which a
    /// wall clock never does.
    pub fn turn(&self) -> bool {
        self.step(SimTime::MAX)
    }

    /// Runs the executor until `handle`'s task completes, returning its
    /// output.
    ///
    /// # Panics
    ///
    /// Panics if the executor quiesces before the task completes (i.e. the
    /// task is deadlocked waiting on something that can never happen).
    pub fn run_until_complete<T>(&self, handle: JoinHandle<T>) -> T {
        loop {
            if let Some(v) = handle.try_result() {
                return v;
            }
            if !self.turn() {
                panic!(
                    "simulation quiesced before task completed (deadlock at {})",
                    self.now()
                );
            }
        }
    }

    /// Convenience: spawn `future` and run the executor to its completion.
    pub fn block_on<F>(&self, future: F) -> F::Output
    where
        F: Future + 'static,
        F::Output: 'static,
    {
        let handle = self.spawn(future);
        self.run_until_complete(handle)
    }
}

impl Sim {
    /// A handle onto the same simulation whose [`Executor::now`] reads a
    /// node-local clock skewed by `spec`. Scheduling is untouched: timers
    /// and tasks created through the skewed handle still run on true
    /// virtual time (interval timers behave like `CLOCK_MONOTONIC` — skew
    /// affects timestamps, not durations), so attaching drift never changes
    /// the event schedule and byte-replay is preserved.
    pub fn with_drift(&self, spec: DriftSpec) -> Sim {
        Sim {
            core: Rc::clone(&self.core),
            skew: Some(Rc::new(DriftClock::new(spec))),
        }
    }

    fn advance_to(&self, t: SimTime) {
        let clock = &self.core.clock.0;
        clock.set(t.max(clock.get()));
    }

    /// Runs until no task is runnable and no timer is pending.
    ///
    /// Tasks blocked forever (e.g. awaiting a message that was lost) do not
    /// keep the loop alive — a quiesced simulation returns even if such
    /// tasks exist.
    pub fn run(&self) {
        while self.turn() {}
    }

    /// Runs until the virtual clock reaches `deadline` (or the simulation
    /// quiesces first). The clock is left at `min(deadline, quiesce time)`.
    pub fn run_until(&self, deadline: SimTime) {
        while self.true_now() < deadline && self.step(deadline) {}
        // Quiesced early: jump the clock so callers observe the full span.
        self.advance_to(deadline);
    }
}

struct JoinState<T> {
    result: Option<T>,
    /// Set with `result` and never cleared, so taking the output leaves
    /// the handle done.
    done: bool,
    waker: Option<Waker>,
}

/// Future resolving to a spawned task's output.
///
/// Unlike some runtimes, dropping a `JoinHandle` never cancels the task —
/// this mirrors real distributed systems, where a message already sent keeps
/// having effects even if the sender stops waiting for the reply. Quorum
/// operations rely on this: the straggler replica writes still land.
pub struct JoinHandle<T> {
    state: Rc<RefCell<JoinState<T>>>,
}

impl<T> fmt::Debug for JoinHandle<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JoinHandle")
            .field("done", &self.is_done())
            .finish()
    }
}

impl<T> JoinHandle<T> {
    /// Takes the task output if the task has completed, without blocking.
    pub fn try_result(&self) -> Option<T> {
        self.state.borrow_mut().result.take()
    }

    /// Whether the task has completed (output may already be taken).
    pub fn is_done(&self) -> bool {
        self.state.borrow().done
    }
}

impl<T> Future for JoinHandle<T> {
    type Output = T;
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<T> {
        let mut s = self.state.borrow_mut();
        match s.result.take() {
            Some(v) => Poll::Ready(v),
            None => {
                s.waker = Some(cx.waker().clone());
                Poll::Pending
            }
        }
    }
}

/// Future returned by [`Sim::sleep`] / [`Sim::sleep_until`] (and by the
/// native runtime's, over its wall clock).
///
/// Dropping a `Sleep` before it fires cancels its timer: a dropped timer
/// never advances the virtual clock (critical for [`crate::combinators::timeout`],
/// which drops the loser of its race) and never wakes a parked executor.
pub struct Sleep<C: Clock = VirtualClock> {
    exec: Executor<C>,
    deadline: SimTime,
    timer: Option<TimerHandle>,
}

impl<C: Clock> Future for Sleep<C> {
    type Output = ();
    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        // The deadline was resolved to true time at creation; comparing
        // against a drifted clock here would double-apply the drift.
        if self.exec.true_now() >= self.deadline {
            // Fired, or created in the past. A registration still pending
            // (another timer at this instant moved the clock first) is left
            // to fire: its wake is part of the schedule.
            self.timer = None;
            Poll::Ready(())
        } else {
            // (Re-)register when unregistered or when the task's waker
            // changed since the last poll — the pending timer holds the old
            // waker and would otherwise wake the wrong task.
            let current = self
                .timer
                .is_some_and(|h| self.exec.core.timers.borrow().will_wake(h, cx.waker()));
            if !current {
                if let Some(old) = self.timer.take() {
                    self.exec.cancel_timer(old);
                }
                self.timer = Some(self.exec.register_timer(self.deadline, cx.waker().clone()));
            }
            Poll::Pending
        }
    }
}

impl<C: Clock> Drop for Sleep<C> {
    fn drop(&mut self) {
        if let Some(h) = self.timer.take() {
            self.exec.cancel_timer(h);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell as StdCell;

    #[test]
    fn clock_starts_at_zero() {
        let sim = Sim::new();
        assert_eq!(sim.now(), SimTime::ZERO);
    }

    #[test]
    fn sleep_advances_virtual_time() {
        let sim = Sim::new();
        let h = sim.spawn({
            let sim = sim.clone();
            async move {
                sim.sleep(SimDuration::from_millis(100)).await;
                sim.sleep(SimDuration::from_millis(50)).await;
                sim.now()
            }
        });
        let t = sim.run_until_complete(h);
        assert_eq!(t.as_millis(), 150);
    }

    #[test]
    fn concurrent_sleeps_interleave_deterministically() {
        let sim = Sim::new();
        let order = Rc::new(RefCell::new(Vec::new()));
        for (name, ms) in [("a", 30u64), ("b", 10), ("c", 20)] {
            let sim2 = sim.clone();
            let order = Rc::clone(&order);
            sim.spawn(async move {
                sim2.sleep(SimDuration::from_millis(ms)).await;
                order.borrow_mut().push(name);
            });
        }
        sim.run();
        assert_eq!(*order.borrow(), vec!["b", "c", "a"]);
    }

    #[test]
    fn join_handle_returns_value() {
        let sim = Sim::new();
        let h = sim.spawn(async { 42 });
        sim.run();
        assert_eq!(h.try_result(), Some(42));
    }

    #[test]
    fn block_on_nested_spawns() {
        let sim = Sim::new();
        let sim2 = sim.clone();
        let total = sim.block_on(async move {
            let mut handles = Vec::new();
            for i in 0..10u64 {
                let sim3 = sim2.clone();
                handles.push(sim2.spawn(async move {
                    sim3.sleep(SimDuration::from_micros(i)).await;
                    i
                }));
            }
            let mut sum = 0;
            for h in handles {
                sum += h.await;
            }
            sum
        });
        assert_eq!(total, 45);
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let sim = Sim::new();
        let fired = Rc::new(StdCell::new(false));
        let fired2 = Rc::clone(&fired);
        let sim2 = sim.clone();
        sim.spawn(async move {
            sim2.sleep(SimDuration::from_secs(10)).await;
            fired2.set(true);
        });
        sim.run_until(SimTime::from_micros(5_000_000));
        assert!(!fired.get());
        assert_eq!(sim.now(), SimTime::from_micros(5_000_000));
        sim.run();
        assert!(fired.get());
    }

    #[test]
    fn run_until_jumps_clock_when_quiesced() {
        let sim = Sim::new();
        sim.run_until(SimTime::from_micros(777));
        assert_eq!(sim.now(), SimTime::from_micros(777));
    }

    #[test]
    fn dropped_handle_detaches_but_task_still_runs() {
        let sim = Sim::new();
        let flag = Rc::new(StdCell::new(false));
        let flag2 = Rc::clone(&flag);
        let sim2 = sim.clone();
        drop(sim.spawn(async move {
            sim2.sleep(SimDuration::from_millis(1)).await;
            flag2.set(true);
        }));
        sim.run();
        assert!(flag.get());
    }

    #[test]
    fn simulation_quiesces_with_forever_pending_tasks() {
        let sim = Sim::new();
        sim.spawn(std::future::pending::<()>());
        sim.run(); // must terminate
        assert_eq!(sim.live_tasks(), 1);
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn run_until_complete_panics_on_deadlock() {
        let sim = Sim::new();
        let h = sim.spawn(std::future::pending::<()>());
        sim.run_until_complete(h);
    }

    #[test]
    fn task_slots_are_reused() {
        let sim = Sim::new();
        for _ in 0..100 {
            let h = sim.spawn(async {});
            sim.run();
            assert!(h.is_done());
        }
        assert!(sim.core.tasks.borrow().len() <= 2);
    }

    #[test]
    fn dropped_sleep_does_not_advance_the_clock() {
        let sim = Sim::new();
        let sim2 = sim.clone();
        sim.block_on(async move {
            // Create a far-future sleep and drop it immediately (what a
            // timeout whose inner future wins does).
            let long = sim2.sleep(SimDuration::from_secs(100));
            drop(long);
            sim2.sleep(SimDuration::from_millis(5)).await;
        });
        // Quiesce: the cancelled 100s timer must not fast-forward time.
        sim.run();
        assert_eq!(sim.now().as_millis(), 5, "clock stopped at the live timer");
    }

    #[test]
    fn trace_tags_survive_awaits_and_are_isolated_per_task() {
        let sim = Sim::new();
        let seen = Rc::new(RefCell::new(Vec::new()));
        for (tag, ms) in [(1u64, 30u64), (2, 10), (3, 20)] {
            let sim2 = sim.clone();
            let seen = Rc::clone(&seen);
            sim.spawn(async move {
                sim2.set_trace(tag);
                sim2.sleep(SimDuration::from_millis(ms)).await;
                // Interleaved with the other tasks, yet each observes its
                // own tag after resuming.
                seen.borrow_mut().push((tag, sim2.trace()));
            });
        }
        sim.run();
        assert_eq!(*seen.borrow(), vec![(2, 2), (3, 3), (1, 1)]);
    }

    #[test]
    fn spawned_tasks_inherit_the_spawners_trace_tag() {
        let sim = Sim::new();
        let sim2 = sim.clone();
        let child_tag = sim.block_on(async move {
            sim2.set_trace(7);
            let sim3 = sim2.clone();
            let h = sim2.spawn(async move {
                sim3.sleep(SimDuration::from_millis(1)).await;
                sim3.trace()
            });
            h.await
        });
        assert_eq!(child_tag, 7);
    }

    #[test]
    fn span_tags_are_isolated_per_task_and_inherited() {
        let sim = Sim::new();
        let seen = Rc::new(RefCell::new(Vec::new()));
        for (tag, ms) in [(10u64, 30u64), (20, 10), (30, 20)] {
            let sim2 = sim.clone();
            let seen = Rc::clone(&seen);
            sim.spawn(async move {
                sim2.set_span(tag);
                sim2.sleep(SimDuration::from_millis(ms)).await;
                seen.borrow_mut().push((tag, sim2.span()));
            });
        }
        sim.run();
        assert_eq!(*seen.borrow(), vec![(20, 20), (30, 30), (10, 10)]);

        let sim2 = sim.clone();
        let child = sim.block_on(async move {
            sim2.set_span(77);
            let sim3 = sim2.clone();
            let h = sim2.spawn(async move {
                sim3.sleep(SimDuration::from_millis(1)).await;
                sim3.span()
            });
            sim2.set_span(0);
            h.await
        });
        assert_eq!(child, 77, "spawned task inherits the span at spawn time");
    }

    #[test]
    fn profile_counts_polls_timers_and_depths() {
        let sim = Sim::new();
        for i in 0..4u64 {
            let sim2 = sim.clone();
            sim.spawn(async move {
                sim2.sleep(SimDuration::from_millis(i + 1)).await;
            });
        }
        // One cancelled timer: the loser of a drop race.
        let sim2 = sim.clone();
        sim.spawn(async move {
            let long = sim2.sleep(SimDuration::from_secs(99));
            drop(long);
        });
        sim.run();
        let p = sim.profile();
        assert_eq!(p.tasks_spawned, 5);
        assert_eq!(p.timers_fired, 4);
        assert_eq!(p.timers_set, 4, "the dropped sleep never registered");
        assert!(p.task_polls >= 9, "each sleeper polls at least twice");
        assert_eq!(p.events(), p.task_polls + p.timers_fired);
        assert!(p.max_ready_queue >= 4);
        assert!(p.max_timer_heap >= 1);
        // Deterministic: an identical schedule yields an identical profile.
        let sim_b = Sim::new();
        for i in 0..4u64 {
            let s = sim_b.clone();
            sim_b.spawn(async move {
                s.sleep(SimDuration::from_millis(i + 1)).await;
            });
        }
        let s = sim_b.clone();
        sim_b.spawn(async move {
            drop(s.sleep(SimDuration::from_secs(99)));
        });
        sim_b.run();
        assert_eq!(sim_b.profile(), p);
    }

    #[test]
    fn drifted_handle_skews_now_but_not_scheduling() {
        let sim = Sim::new();
        let fast = sim.with_drift(DriftSpec {
            offset_us: 2_000,
            rate_ppm: 0,
            step_us: 0,
            step_window: SimDuration::from_secs(1),
            seed: 0,
        });
        assert_eq!(sim.now(), SimTime::ZERO);
        assert_eq!(fast.now(), SimTime::from_micros(2_000));
        assert_eq!(fast.true_now(), SimTime::ZERO);

        // A sleep through the skewed handle takes true duration.
        let fast2 = fast.clone();
        let h = sim.spawn(async move {
            fast2.sleep(SimDuration::from_millis(10)).await;
            (fast2.true_now(), fast2.now())
        });
        let (true_t, local_t) = sim.run_until_complete(h);
        assert_eq!(true_t.as_millis(), 10);
        assert_eq!(local_t.as_micros(), 12_000);
    }

    #[test]
    fn drifted_sleep_until_interprets_the_local_clock() {
        let sim = Sim::new();
        let slow = sim.with_drift(DriftSpec {
            offset_us: -3_000,
            rate_ppm: 0,
            step_us: 0,
            step_window: SimDuration::from_secs(1),
            seed: 0,
        });
        let slow2 = slow.clone();
        let h = sim.spawn(async move {
            // Move past the offset so the local clock is out of its zero
            // clamp, then wait for local deadline 12ms: the local clock
            // reads true − 3ms, so the true wait runs to 15ms and the local
            // clock lands exactly on the deadline.
            slow2.sleep(SimDuration::from_millis(10)).await;
            slow2.sleep_until(SimTime::from_micros(12_000)).await;
            (slow2.true_now(), slow2.now())
        });
        let (true_t, local_t) = sim.run_until_complete(h);
        assert_eq!(true_t.as_micros(), 15_000);
        assert_eq!(local_t.as_micros(), 12_000);
    }

    #[test]
    fn drift_does_not_change_the_schedule() {
        // The same workload with and without drifted handles produces the
        // identical executor profile: drift touches timestamps only.
        let run = |drift: bool| {
            let sim = Sim::new();
            let order = Rc::new(RefCell::new(Vec::new()));
            for (i, ms) in [(0u64, 30u64), (1, 10), (2, 20)] {
                let handle = if drift {
                    sim.with_drift(DriftSpec::bounded(
                        i,
                        SimDuration::from_millis(5),
                        SimDuration::from_secs(60),
                    ))
                } else {
                    sim.clone()
                };
                let order = Rc::clone(&order);
                sim.spawn(async move {
                    handle.sleep(SimDuration::from_millis(ms)).await;
                    let _ = handle.now(); // read the (possibly skewed) clock
                    order.borrow_mut().push(i);
                });
            }
            sim.run();
            let seen = order.borrow().clone();
            (seen, sim.profile(), sim.now())
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn timers_with_same_deadline_fire_in_registration_order() {
        let sim = Sim::new();
        let order = Rc::new(RefCell::new(Vec::new()));
        for i in 0..5 {
            let sim2 = sim.clone();
            let order = Rc::clone(&order);
            sim.spawn(async move {
                sim2.sleep(SimDuration::from_millis(7)).await;
                order.borrow_mut().push(i);
            });
        }
        sim.run();
        assert_eq!(*order.borrow(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn timer_counters_balance_after_any_run() {
        let sim = Sim::new();
        let balanced = |sim: &Sim| {
            let p = sim.profile();
            p.timers_set == p.timers_fired + p.timers_cancelled + sim.pending_timers() as u64
        };
        for i in 0..6u64 {
            let s = sim.clone();
            sim.spawn(async move {
                // The inner sleep wins, so the 1 s timeout is cancelled
                // while its entry is still queued far ahead of the clock.
                let inner = s.sleep(SimDuration::from_millis(i + 1));
                let _ = crate::combinators::timeout(&s, SimDuration::from_secs(1), inner).await;
                s.sleep(SimDuration::from_secs(5)).await;
            });
        }
        assert!(balanced(&sim));
        sim.run_until(SimTime::from_micros(3_000));
        assert!(balanced(&sim));
        let p = sim.profile();
        assert_eq!((p.timers_set, p.timers_fired), (14, 3));
        // Counted when dropped, not when the queue reaches the entry.
        assert_eq!(p.timers_cancelled, 2);
        assert_eq!(sim.pending_timers(), 9);
        // Only live timers count towards the high-water mark.
        assert_eq!(p.max_timer_heap, 12);
        sim.run();
        assert!(balanced(&sim));
        let p = sim.profile();
        assert_eq!(
            (p.timers_set, p.timers_fired, p.timers_cancelled),
            (18, 12, 6)
        );
        assert_eq!(sim.pending_timers(), 0);
    }

    #[test]
    fn a_stale_handle_cancels_nothing_after_its_slot_is_reused() {
        let sim = Sim::new();
        let stale = sim.register_timer(SimTime::from_micros(10), Waker::noop().clone());
        sim.run();
        let fresh = sim.register_timer(SimTime::from_micros(20), Waker::noop().clone());
        assert_eq!(fresh.slot, stale.slot, "the fired timer's slot is reused");
        sim.cancel_timer(stale);
        assert_eq!(sim.pending_timers(), 1);
        sim.run();
        assert_eq!(sim.now(), SimTime::from_micros(20));
        let p = sim.profile();
        assert_eq!((p.timers_fired, p.timers_cancelled), (2, 0));
    }

    #[test]
    fn timer_entries_are_24_bytes() {
        assert_eq!(std::mem::size_of::<TimerEntry>(), 24);
    }
}
