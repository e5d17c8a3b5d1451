//! Small future combinators used by the protocol layers.
//!
//! These are intentionally minimal, single-threaded (`!Send`-friendly)
//! equivalents of the usual async utilities: [`timeout`], [`join_all`],
//! [`never()`], and the workhorse of replicated stores, [`quorum`] — wait
//! for the first *k* of *n* spawned sub-operations.

use std::future::Future;
use std::pin::Pin;
use std::task::{Context, Poll};

use crate::executor::{JoinHandle, Sim, Sleep};
use crate::time::SimDuration;

/// Error returned by [`timeout`] when the deadline fires first.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub struct Elapsed;

impl std::fmt::Display for Elapsed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "operation timed out")
    }
}

impl std::error::Error for Elapsed {}

/// Future returned by [`timeout`]: `future` raced against `sleep`, any
/// `Unpin` timer future (the simulator's [`Sleep`] by default, or another
/// runtime's). The sleep is held inline, so a timeout costs one
/// allocation: its boxed future.
pub struct Timeout<F, S = Sleep> {
    future: Pin<Box<F>>,
    sleep: S,
}

impl<F, S> Timeout<F, S> {
    /// Races `future` against `sleep`; the caller picks the clock.
    pub fn new(sleep: S, future: F) -> Self {
        Timeout {
            future: Box::pin(future),
            sleep,
        }
    }
}

impl<F: Future, S: Future<Output = ()> + Unpin> Future for Timeout<F, S> {
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

/// Races `future` against a virtual-time deadline.
///
/// The inner future is dropped if the deadline fires first; pair with
/// detached tasks ([`Sim::spawn`]) when the underlying effect must survive
/// the timeout (as replica-side writes do).
pub fn timeout<F: Future>(sim: &Sim, dur: SimDuration, future: F) -> Timeout<F> {
    Timeout::new(sim.sleep(dur), future)
}

/// A future that never completes. Models a lost message from the sender's
/// point of view: the only way to detect it is a timeout.
pub async fn never<T>() -> T {
    std::future::pending::<T>().await
}

/// Yields once, letting other runnable tasks proceed at the same instant.
pub fn yield_now() -> YieldNow {
    YieldNow { polled: false }
}

/// Future returned by [`yield_now`].
pub struct YieldNow {
    polled: bool,
}

impl Future for YieldNow {
    type Output = ();
    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.polled {
            Poll::Ready(())
        } else {
            self.polled = true;
            cx.waker().wake_by_ref();
            Poll::Pending
        }
    }
}

/// Waits for every future in `futures`, returning outputs in input order.
pub async fn join_all<F: Future>(futures: Vec<F>) -> Vec<F::Output> {
    let mut pinned: Vec<Pin<Box<F>>> = futures.into_iter().map(Box::pin).collect();
    let mut results: Vec<Option<F::Output>> = (0..pinned.len()).map(|_| None).collect();
    std::future::poll_fn(move |cx| {
        let mut all_done = true;
        for (fut, slot) in pinned.iter_mut().zip(results.iter_mut()) {
            if slot.is_none() {
                match fut.as_mut().poll(cx) {
                    Poll::Ready(v) => *slot = Some(v),
                    Poll::Pending => all_done = false,
                }
            }
        }
        if all_done {
            Poll::Ready(
                results
                    .iter_mut()
                    .map(|s| s.take().expect("done"))
                    .collect(),
            )
        } else {
            Poll::Pending
        }
    })
    .await
}

/// Future returned by [`quorum`], over any `Unpin` join-handle future
/// (the simulator's [`JoinHandle`] by default).
pub struct Quorum<T, H = JoinHandle<T>> {
    handles: Vec<Option<H>>,
    results: Vec<(usize, T)>,
    need: usize,
}

// `Quorum` owns no self-referential data; all fields live behind owned
// containers, so moving it is always sound.
impl<T, H> Unpin for Quorum<T, H> {}

impl<T, H: Future<Output = T> + Unpin> Future for Quorum<T, H> {
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

/// Waits for the first `need` completions among spawned sub-operations.
///
/// Returns `(index, output)` pairs in completion order. Remaining handles
/// are dropped — but because [`JoinHandle`] detaches rather than cancels,
/// the straggler operations still run to completion in the background,
/// exactly like the laggard replicas of a real quorum write.
///
/// If fewer than `need` tasks can ever complete the future never resolves;
/// guard with [`timeout`].
///
/// # Panics
///
/// Panics immediately if `need > handles.len()` (the quorum could never be
/// met even in a failure-free run).
pub fn quorum<T, H: Future<Output = T> + Unpin>(handles: Vec<H>, need: usize) -> Quorum<T, H> {
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
    use crate::time::SimTime;
    use std::cell::Cell;
    use std::rc::Rc;

    #[test]
    fn timeout_returns_ok_when_future_wins() {
        let sim = Sim::new();
        let sim2 = sim.clone();
        let out = sim.block_on(async move {
            let fast = {
                let sim3 = sim2.clone();
                async move {
                    sim3.sleep(SimDuration::from_millis(1)).await;
                    7
                }
            };
            timeout(&sim2, SimDuration::from_millis(10), fast).await
        });
        assert_eq!(out, Ok(7));
    }

    #[test]
    fn timeout_elapses_on_lost_message() {
        let sim = Sim::new();
        let sim2 = sim.clone();
        let out = sim.block_on(async move {
            timeout(&sim2, SimDuration::from_millis(10), never::<u32>()).await
        });
        assert_eq!(out, Err(Elapsed));
        assert_eq!(sim.now(), SimTime::from_micros(10_000));
    }

    #[test]
    fn join_all_preserves_order() {
        let sim = Sim::new();
        let sim2 = sim.clone();
        let out = sim.block_on(async move {
            let futs: Vec<_> = (0..4u64)
                .map(|i| {
                    let sim3 = sim2.clone();
                    async move {
                        // Later indices sleep less: completion order reversed.
                        sim3.sleep(SimDuration::from_millis(10 - i)).await;
                        i
                    }
                })
                .collect();
            join_all(futs).await
        });
        assert_eq!(out, vec![0, 1, 2, 3]);
    }

    #[test]
    fn quorum_completes_at_k_and_stragglers_still_run() {
        let sim = Sim::new();
        let sim2 = sim.clone();
        let straggler_done = Rc::new(Cell::new(false));
        let sd = Rc::clone(&straggler_done);
        let (at, ids) = sim.block_on(async move {
            let mut handles = Vec::new();
            for i in 0..3u64 {
                let sim3 = sim2.clone();
                let sd = Rc::clone(&sd);
                handles.push(sim2.spawn(async move {
                    sim3.sleep(SimDuration::from_millis(10 * (i + 1))).await;
                    if i == 2 {
                        sd.set(true);
                    }
                    i
                }));
            }
            let res = quorum(handles, 2).await;
            (
                sim2.now(),
                res.into_iter().map(|(i, _)| i).collect::<Vec<_>>(),
            )
        });
        // Quorum of 2 reached at the second completion (20ms).
        assert_eq!(at.as_millis(), 20);
        assert_eq!(ids, vec![0, 1]);
        assert!(!straggler_done.get());
        sim.run();
        assert!(straggler_done.get(), "detached straggler still completed");
    }

    #[test]
    fn quorum_with_lost_replies_pends_until_timeout() {
        let sim = Sim::new();
        let sim2 = sim.clone();
        let out = sim.block_on(async move {
            let mut handles = Vec::new();
            // Only 1 of 3 replicas ever answers; quorum of 2 must time out.
            handles.push(sim2.spawn(async move { 1u32 }));
            handles.push(sim2.spawn(never::<u32>()));
            handles.push(sim2.spawn(never::<u32>()));
            timeout(&sim2, SimDuration::from_millis(500), quorum(handles, 2)).await
        });
        assert_eq!(out, Err(Elapsed));
    }

    #[test]
    #[should_panic(expected = "impossible")]
    fn quorum_larger_than_replica_set_panics() {
        let sim = Sim::new();
        let handles = vec![sim.spawn(async { 1 })];
        drop(quorum(handles, 2));
    }

    #[test]
    fn quorum_of_zero_resolves_immediately() {
        let sim = Sim::new();
        let out =
            sim.block_on(
                async move { quorum(Vec::<crate::executor::JoinHandle<u32>>::new(), 0).await },
            );
        assert!(out.is_empty());
    }

    #[test]
    fn join_all_of_nothing_is_empty() {
        let sim = Sim::new();
        let out =
            sim.block_on(async move { join_all(Vec::<std::future::Ready<u32>>::new()).await });
        assert!(out.is_empty());
    }

    #[test]
    fn nested_timeouts_inner_wins() {
        let sim = Sim::new();
        let sim2 = sim.clone();
        let out = sim.block_on(async move {
            let inner = timeout(&sim2, SimDuration::from_millis(10), never::<u32>());
            timeout(&sim2, SimDuration::from_millis(100), inner).await
        });
        // Outer Ok(inner timed out).
        assert_eq!(out, Ok(Err(Elapsed)));
        assert_eq!(sim.now().as_millis(), 10);
    }

    #[test]
    fn yield_now_lets_peers_run() {
        let sim = Sim::new();
        let log = Rc::new(std::cell::RefCell::new(Vec::new()));
        let l1 = Rc::clone(&log);
        let l2 = Rc::clone(&log);
        sim.spawn(async move {
            l1.borrow_mut().push("a1");
            yield_now().await;
            l1.borrow_mut().push("a2");
        });
        sim.spawn(async move {
            l2.borrow_mut().push("b1");
        });
        sim.run();
        assert_eq!(*log.borrow(), vec!["a1", "b1", "a2"]);
    }
}
