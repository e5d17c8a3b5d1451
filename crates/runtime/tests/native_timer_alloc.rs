//! The native runtime's timers cost no allocation: once warm, registering
//! and firing or dropping a bare `Sleep` allocates nothing, and a
//! `timeout` allocates exactly once (its boxed future). A dropped sleep is
//! disarmed at once, so it never wakes a parked executor. A counting
//! global allocator, per thread so that concurrently running tests do not
//! disturb each other, makes the count exact. This binary holds only these
//! tests because the allocator is process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::future::Future;
use std::pin::Pin;
use std::task::{Context, Waker};

use music_runtime::{timeout, NativeRuntime};
use music_simnet::time::SimDuration;

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

/// Allocations made while the runtime drives `task` to completion; the
/// task itself is spawned before counting starts.
fn allocs_driving(rt: &NativeRuntime, task: impl Future<Output = ()> + 'static) -> u64 {
    let handle = rt.spawn(task);
    let before = allocs();
    while !handle.is_done() {
        rt.turn();
    }
    allocs() - before
}

/// `n` sleeps of 10 µs in a row: each registers, parks the executor and
/// fires (or, if the thread was descheduled past it, is due at once).
async fn register_fire(rt: NativeRuntime, n: usize) {
    for _ in 0..n {
        rt.sleep(SimDuration::from_micros(10)).await;
    }
}

/// `n` timeouts that the inner sleep wins; each drops its own sleep.
async fn timeouts(rt: NativeRuntime, n: usize) {
    for _ in 0..n {
        let inner = rt.sleep(SimDuration::from_micros(10));
        assert_eq!(timeout(&rt, SimDuration::from_secs(3), inner).await, Ok(()));
        assert_eq!(rt.pending_timers(), 0, "the losing sleep is disarmed");
    }
}

/// Registers a sleep and drops it, then turns once so the queue discards
/// the cancelled entry. Unparking our own thread first sets the park
/// token, so the turn does not park.
fn register_drop(rt: &NativeRuntime) {
    let mut sleep = rt.sleep(SimDuration::from_secs(3));
    assert!(Pin::new(&mut sleep)
        .poll(&mut Context::from_waker(Waker::noop()))
        .is_pending());
    assert_eq!(rt.pending_timers(), 1);
    drop(sleep);
    assert_eq!(
        rt.pending_timers(),
        0,
        "a dropped sleep is disarmed at once"
    );
    std::thread::current().unpark();
    rt.turn();
}

#[test]
fn bare_sleeps_allocate_nothing_once_warm() {
    let rt = NativeRuntime::new();
    allocs_driving(&rt, register_fire(rt.clone(), 100));
    assert_eq!(allocs_driving(&rt, register_fire(rt.clone(), 1_000)), 0);
    (0..100).for_each(|_| register_drop(&rt));
    let before = allocs();
    (0..1_000).for_each(|_| register_drop(&rt));
    assert_eq!(allocs() - before, 0);
}

#[test]
fn a_timeout_allocates_once() {
    let rt = NativeRuntime::new();
    allocs_driving(&rt, timeouts(rt.clone(), 100));
    assert_eq!(allocs_driving(&rt, timeouts(rt.clone(), 1_000)), 1_000);
}
