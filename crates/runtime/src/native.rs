//! [`NativeRuntime`]: the executor over a wall clock, for real sockets
//! and OS threads.
//!
//! This is the production side of the runtime split. It is
//! [`music_simnet::executor::Executor`], the same task slab, ready queue,
//! timers, `Sleep` and `JoinHandle` the simulator runs; only the
//! [`Clock`] differs, and with it what the executor does when idle:
//!
//! * the clock is wall time (microseconds since the UNIX epoch, monotonic
//!   after process start), not virtual time;
//! * an idle executor fires every due timer, then *parks* its thread until
//!   the next live deadline or an external wake, instead of advancing the
//!   clock. A dropped timer is disarmed at once, so it never wakes it;
//! * a waker unparks the executor's thread after queueing its task, so
//!   socket reader threads (see [`crate::tcp`]) can wake tasks from outside
//!   the executor thread. On a running executor an unpark only sets a token.
//!
//! Protocol state stays single-threaded (`Rc<RefCell<...>>`) on the
//! executor thread, exactly as under the simulator — IO threads only move
//! bytes and wake tasks.

use std::time::{Duration, Instant, SystemTime};

use music_simnet::executor::{Clock, Executor};
use music_simnet::time::SimTime;

/// The real-time runtime: see the module docs. `NativeRuntime::new()`
/// binds it to the calling thread, which must be the one that drives it
/// (`block_on`, `turn`); like the simulator it is `!Send`.
pub type NativeRuntime = Executor<WallClock>;

/// Longest the idle executor parks before re-checking external conditions
/// (shutdown flags set by IO threads that wake no task).
const MAX_PARK: Duration = Duration::from_millis(50);

/// Wall time in microseconds since the UNIX epoch, read from a monotonic
/// anchor so it never steps backwards.
pub struct WallClock {
    /// Monotonic anchor for `now()`.
    started: Instant,
    /// Wall-clock microseconds at `started` (UNIX epoch offset), so
    /// co-located processes read roughly the same clock.
    epoch_us: u64,
}

impl Default for WallClock {
    fn default() -> Self {
        let epoch_us = SystemTime::now()
            .duration_since(SystemTime::UNIX_EPOCH)
            .map(|d| d.as_micros() as u64)
            .unwrap_or(0);
        WallClock {
            started: Instant::now(),
            epoch_us,
        }
    }
}

impl Clock for WallClock {
    const PARKS: bool = true;

    fn now(&self) -> SimTime {
        SimTime::from_micros(self.epoch_us + self.started.elapsed().as_micros() as u64)
    }

    /// Fires every due timer, then parks until the next live deadline or an
    /// external wake, at most `MAX_PARK` (50 ms) so that callers can
    /// re-check stop conditions. Never quiesces.
    fn idle(rt: &NativeRuntime, _horizon: SimTime) -> bool {
        let now = rt.now();
        let next = loop {
            if let Err(next) = rt.fire_next(now) {
                break next;
            }
        };
        if rt.has_ready() {
            return true;
        }
        let wait = match next {
            Some(d) => {
                let now = rt.now();
                if d <= now {
                    return true;
                }
                Duration::from_micros((d - now).as_micros()).min(MAX_PARK)
            }
            None => MAX_PARK,
        };
        // A wake since `has_ready` left the park token set, so this returns
        // at once; spurious returns are fine, the caller loops.
        std::thread::park_timeout(wait);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use music_simnet::time::SimDuration;
    use std::future::Future;
    use std::pin::Pin;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Arc, Mutex};
    use std::task::{Context, Poll, Waker};

    #[test]
    fn block_on_runs_spawned_tasks() {
        let rt = NativeRuntime::new();
        let rt2 = rt.clone();
        let got = rt.block_on(async move {
            let h = rt2.spawn(async { 40u32 });
            h.await + 2
        });
        assert_eq!(got, 42);
    }

    #[test]
    fn sleep_advances_wall_time() {
        let rt = NativeRuntime::new();
        let rt2 = rt.clone();
        let before = rt.now();
        rt.block_on(async move {
            rt2.sleep(SimDuration::from_millis(20)).await;
        });
        let elapsed = rt.now() - before;
        assert!(
            elapsed >= SimDuration::from_millis(19),
            "slept only {elapsed:?}"
        );
    }

    #[test]
    fn cross_thread_wake_reaches_task() {
        let rt = NativeRuntime::new();
        let flag = Arc::new(AtomicBool::new(false));
        let flag2 = Arc::clone(&flag);
        struct WaitFlag {
            flag: Arc<AtomicBool>,
            registered: Arc<Mutex<Option<Waker>>>,
        }
        impl Future for WaitFlag {
            type Output = ();
            fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
                if self.flag.load(Ordering::Acquire) {
                    Poll::Ready(())
                } else {
                    *self.registered.lock().unwrap() = Some(cx.waker().clone());
                    Poll::Pending
                }
            }
        }
        let slot: Arc<Mutex<Option<Waker>>> = Arc::new(Mutex::new(None));
        let slot2 = Arc::clone(&slot);
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            flag2.store(true, Ordering::Release);
            if let Some(w) = slot2.lock().unwrap().take() {
                w.wake();
            }
        });
        rt.block_on(WaitFlag {
            flag,
            registered: slot,
        });
        t.join().unwrap();
    }

    #[test]
    fn timeout_combinator_works_on_native() {
        use crate::combinators::{never, timeout, Elapsed};
        let rt = NativeRuntime::new();
        let rt2 = rt.clone();
        let out = rt.block_on(async move {
            timeout(&rt2, SimDuration::from_millis(15), never::<u32>()).await
        });
        assert_eq!(out, Err(Elapsed));
    }

    #[test]
    fn quorum_combinator_works_on_native() {
        use crate::combinators::quorum;
        let rt = NativeRuntime::new();
        let rt2 = rt.clone();
        let ids = rt.block_on(async move {
            let mut handles = Vec::new();
            for i in 0..3u64 {
                let rt3 = rt2.clone();
                handles.push(rt2.spawn(async move {
                    rt3.sleep(SimDuration::from_millis(5 * (i + 1))).await;
                    i
                }));
            }
            let res = quorum(handles, 2).await;
            res.into_iter().map(|(i, _)| i).collect::<Vec<_>>()
        });
        assert_eq!(ids, vec![0, 1]);
    }
}
