//! The failure detector's scan allocates for the keys that have a queue
//! head, not for the keys it watches: idle keys, even ones with a live
//! (headless) lock partition at every replica, cost a scan no allocation
//! at the replica and none at the watchdog. A counting global allocator,
//! per thread so that concurrently running tests do not disturb each
//! other, makes the count exact. This binary holds only this test because
//! the allocator is process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use music::{MusicConfig, MusicSystemBuilder, Watchdog};
use music_simnet::prelude::*;

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

fn quiet() -> NetConfig {
    NetConfig {
        service_fixed: SimDuration::ZERO,
        bandwidth_bytes_per_sec: u64::MAX / 2,
        loss: 0.0,
        jitter_frac: 0.0,
    }
}

/// Allocations made by one warm `scan_once` of a watchdog that watches
/// `idle` idle keys and one key whose queue holds an unclaimed head. Every
/// idle key had a reference enqueued and released, so its lock partition
/// is live, with no head, at every replica.
fn scan_allocs(idle: usize) -> u64 {
    let sys = MusicSystemBuilder::new()
        .profile(LatencyProfile::one_us())
        .net_config(quiet())
        .music_config(MusicConfig {
            // The head is never preempted: every scan takes the same path.
            failure_timeout: SimDuration::from_secs(1_000_000),
            ..MusicConfig::default()
        })
        .seed(5)
        .build();
    let sim = sys.sim().clone();
    let dog = Watchdog::new(sys.replica(1).clone(), SimDuration::from_millis(500));
    dog.watch("headed");
    for i in 0..idle {
        let (key, replica) = (format!("idle-{i:04}"), sys.replica(i % 3).clone());
        dog.watch(&key);
        sim.spawn(async move {
            let lr = replica.create_lock_ref(&key).await.unwrap();
            replica.release_lock(&key, lr).await.unwrap();
        });
    }
    let replica = sys.replica(0).clone();
    sim.spawn(async move {
        replica.create_lock_ref("headed").await.unwrap();
    });
    sim.run();

    let scan = || {
        let dog = dog.clone();
        sim.block_on(async move { dog.scan_once().await });
    };
    // Warm: the first scan starts the head's observation, and the
    // simulator's queues reach the size one scan needs.
    for _ in 0..3 {
        scan();
    }
    let before = allocs();
    scan();
    let n = allocs() - before;
    assert_eq!(dog.preemptions(), 0);
    n
}

#[test]
fn a_scan_allocates_the_same_for_10_or_1000_idle_watched_keys() {
    let few = scan_allocs(10);
    let many = scan_allocs(1_000);
    assert!(few > 0, "a scan is an RPC; it allocates something");
    assert_eq!(
        few, many,
        "one scan: {few} allocations beside 10 idle keys, {many} beside 1000"
    );
}
