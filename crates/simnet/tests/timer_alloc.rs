//! Timers cost no allocation: once warm, registering, firing and
//! cancelling a bare `Sleep` allocates nothing, and a `timeout` allocates
//! exactly once (its boxed future). A counting global allocator, per
//! thread so that concurrently running tests do not disturb each other,
//! makes the count exact. This binary holds only these tests because the
//! allocator is process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::future::Future;
use std::pin::Pin;
use std::task::{Context, Poll, Waker};

use music_simnet::combinators::timeout;
use music_simnet::executor::Sim;
use music_simnet::time::{SimDuration, SimTime};

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    ALLOCS.with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

fn poll<F: Future + Unpin>(f: &mut F) -> Poll<F::Output> {
    Pin::new(f).poll(&mut Context::from_waker(Waker::noop()))
}

/// Allocations made by `n` runs of `cycle`.
fn allocs_in(n: usize, mut cycle: impl FnMut()) -> u64 {
    let before = allocs();
    for _ in 0..n {
        cycle();
    }
    allocs() - before
}

fn register_fire(sim: &Sim) {
    let mut sleep = sim.sleep(SimDuration::from_micros(10));
    assert!(poll(&mut sleep).is_pending());
    sim.run();
    assert!(poll(&mut sleep).is_ready());
}

/// Each cycle ends with `run()`, which discards the cancelled entry, so
/// every cycle starts from the same empty queue.
fn register_drop(sim: &Sim) {
    let mut sleep = sim.sleep(SimDuration::from_micros(10));
    assert!(poll(&mut sleep).is_pending());
    drop(sleep);
    sim.run();
}

#[test]
fn bare_sleeps_allocate_nothing_once_warm() {
    let sim = Sim::new();
    allocs_in(100, || {
        register_fire(&sim);
        register_drop(&sim);
    });
    assert_eq!(allocs_in(10_000, || register_fire(&sim)), 0);
    assert_eq!(allocs_in(10_000, || register_drop(&sim)), 0);
    let p = sim.profile();
    assert_eq!(p.timers_fired, 10_100);
    assert_eq!(p.timers_cancelled, 10_100);
    // Only the fires moved the clock.
    assert_eq!(sim.now(), SimTime::from_micros(10 * 10_100));
}

#[test]
fn a_timeout_allocates_once() {
    let sim = Sim::new();
    let cycle = || {
        // The inner sleep wins; dropping the timeout cancels its own.
        let inner = sim.sleep(SimDuration::from_micros(10));
        let mut t = timeout(&sim, SimDuration::from_millis(1), inner);
        assert!(poll(&mut t).is_pending());
        sim.run_until(sim.now() + SimDuration::from_micros(10));
        assert_eq!(poll(&mut t), Poll::Ready(Ok(())));
        drop(t);
        sim.run();
    };
    allocs_in(100, cycle);
    assert_eq!(allocs_in(1_000, cycle), 1_000);
    assert_eq!(sim.profile().timers_cancelled, 1_100);
}
