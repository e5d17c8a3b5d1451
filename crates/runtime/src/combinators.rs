//! Runtime-generic future combinators.
//!
//! These are field-for-field copies of `music_simnet::combinators`
//! parameterized over [`Runtime`]: identical structure and poll order, so a
//! protocol path compiled against `RT = Sim` behaves byte-for-byte like one
//! written against the simulator's own combinators (same wakeups, same
//! completion order, same telemetry), while `RT = NativeRuntime` gets real
//! timers for free.

use std::future::Future;
use std::pin::Pin;
use std::task::{Context, Poll};

use music_simnet::time::SimDuration;

use crate::rt::{RtJoinHandle, Runtime};

pub use music_simnet::combinators::{join_all, never, yield_now, Elapsed};

/// Future returned by [`timeout`]. The `Sleep` is held inline
/// (`Runtime::Sleep: Unpin`), so a timeout costs one allocation: its boxed
/// future.
pub struct Timeout<RT: Runtime, F> {
    future: Pin<Box<F>>,
    sleep: RT::Sleep,
}

impl<RT: Runtime, F: Future> Future for Timeout<RT, F> {
    type Output = Result<F::Output, Elapsed>;
    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        if let Poll::Ready(v) = self.future.as_mut().poll(cx) {
            return Poll::Ready(Ok(v));
        }
        match Pin::new(&mut self.sleep).poll(cx) {
            Poll::Ready(()) => Poll::Ready(Err(Elapsed)),
            Poll::Pending => Poll::Pending,
        }
    }
}

/// Races `future` against a deadline on `rt`'s clock.
///
/// The inner future is dropped if the deadline fires first; pair with
/// detached tasks ([`Runtime::spawn`]) when the underlying effect must
/// survive the timeout (as replica-side writes do).
pub fn timeout<RT: Runtime, F: Future>(rt: &RT, dur: SimDuration, future: F) -> Timeout<RT, F> {
    Timeout {
        future: Box::pin(future),
        sleep: rt.sleep(dur),
    }
}

/// Future returned by [`quorum`].
pub struct Quorum<H, T> {
    handles: Vec<Option<H>>,
    results: Vec<(usize, T)>,
    need: usize,
}

// `Quorum` owns no self-referential data; all fields live behind owned
// containers, so moving it is always sound.
impl<H, T> Unpin for Quorum<H, T> {}

impl<H: RtJoinHandle<T>, T> Future for Quorum<H, T> {
    type Output = Vec<(usize, T)>;
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        for i in 0..this.handles.len() {
            if this.results.len() >= this.need {
                break;
            }
            if let Some(h) = &mut this.handles[i] {
                if let Poll::Ready(v) = Pin::new(h).poll(cx) {
                    this.handles[i] = None;
                    this.results.push((i, v));
                }
            }
        }
        if this.results.len() >= this.need {
            Poll::Ready(std::mem::take(&mut this.results))
        } else {
            Poll::Pending
        }
    }
}

/// Waits for the first `need` completions among spawned sub-operations,
/// returning `(index, output)` pairs in completion order. Remaining handles
/// are dropped — the detached stragglers still run to completion, exactly
/// like the laggard replicas of a real quorum write.
///
/// # Panics
///
/// Panics immediately if `need > handles.len()`.
pub fn quorum<H: RtJoinHandle<T>, T>(handles: Vec<H>, need: usize) -> Quorum<H, T> {
    assert!(
        need <= handles.len(),
        "quorum of {need} impossible with {} replicas",
        handles.len()
    );
    Quorum {
        results: Vec::with_capacity(need),
        handles: handles.into_iter().map(Some).collect(),
        need,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use music_simnet::executor::Sim;
    use music_simnet::time::SimTime;

    #[test]
    fn generic_timeout_matches_sim_semantics() {
        let sim = Sim::new();
        let sim2 = sim.clone();
        let out = sim.block_on(async move {
            timeout(&sim2, SimDuration::from_millis(10), never::<u32>()).await
        });
        assert_eq!(out, Err(Elapsed));
        assert_eq!(sim.now(), SimTime::from_micros(10_000));
    }

    #[test]
    fn generic_quorum_completion_order_matches_sim() {
        let sim = Sim::new();
        let sim2 = sim.clone();
        let (at, ids) = sim.block_on(async move {
            let mut handles = Vec::new();
            for i in 0..3u64 {
                let sim3 = sim2.clone();
                handles.push(Runtime::spawn(&sim2, async move {
                    sim3.sleep(SimDuration::from_millis(10 * (i + 1))).await;
                    i
                }));
            }
            let res = quorum(handles, 2).await;
            (
                sim2.now(),
                res.into_iter().map(|(i, _)| i).collect::<Vec<_>>(),
            )
        });
        assert_eq!(at.as_millis(), 20);
        assert_eq!(ids, vec![0, 1]);
    }
}
