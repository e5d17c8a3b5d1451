//! The [`Runtime`] trait: the clock/spawn/telemetry surface the protocol
//! crates are generic over.
//!
//! One implementation, `music-simnet`'s [`Executor`], serves both sides of
//! the split; only its [`Clock`] differs:
//!
//! * [`SimRuntime`] (an alias for [`Sim`], the executor over virtual time)
//!   — deterministic and seedable; every test, nemesis schedule, and BENCH
//!   artifact runs on it.
//! * [`NativeRuntime`](crate::native::NativeRuntime) — the executor over a
//!   wall clock, used by the `music-node` / `music-load` binaries to run the
//!   same state machines on real sockets.
//!
//! Time is expressed in the simulator's [`SimTime`]/[`SimDuration`] units
//! (microseconds) on both runtimes, so protocol code does not branch on the
//! clock source: on the native runtime `now()` is microseconds since the
//! UNIX epoch, which co-located processes agree on closely enough for the
//! demo cluster (leases, which need tighter bounds, are disabled there).

use std::future::Future;

use music_simnet::executor::{Clock, Executor, JoinHandle, Sim, Sleep};
use music_simnet::time::{SimDuration, SimTime};

/// A handle to a spawned task: a future for its output plus non-blocking
/// completion probes. Both runtimes return `music_simnet::executor::JoinHandle`;
/// the trait lets a wrapping runtime name it generically.
///
/// Dropping a handle must *detach* the task (never cancel it): quorum
/// operations rely on straggler sub-operations completing in the background
/// exactly like the laggard replicas of a real quorum write.
pub trait RtJoinHandle<T>: Future<Output = T> + Unpin {
    /// Takes the result if the task has finished.
    fn try_result(&self) -> Option<T>;
    /// Whether the task has finished (result may already be taken).
    fn is_done(&self) -> bool;
}

/// The runtime surface MUSIC's state machines need: a clock, timers, task
/// spawning, and the per-task telemetry trace/span tags.
///
/// Implementations are cheap-to-clone handles (reference-counted cores);
/// everything is single-threaded and `!Send`-friendly by design — protocol
/// state lives behind `Rc<RefCell<...>>` on both runtimes.
pub trait Runtime: Clone + 'static {
    /// Timer future returned by [`sleep`](Runtime::sleep). `Unpin`, so
    /// combinators can hold it inline instead of boxing it.
    type Sleep: Future<Output = ()> + Unpin + 'static;
    /// Handle type returned by [`spawn`](Runtime::spawn).
    type JoinHandle<T: 'static>: RtJoinHandle<T> + 'static;

    /// Current time (virtual on the simulator, wall-clock on native).
    fn now(&self) -> SimTime;

    /// A future that completes after `dur`.
    fn sleep(&self, dur: SimDuration) -> Self::Sleep;

    /// A future that completes when the clock reaches `deadline`.
    fn sleep_until(&self, deadline: SimTime) -> Self::Sleep;

    /// Spawns a task. Dropping the handle detaches it (see [`RtJoinHandle`]).
    fn spawn<F>(&self, future: F) -> Self::JoinHandle<F::Output>
    where
        F: Future + 'static,
        F::Output: 'static;

    /// The telemetry trace tag of the currently running task (0 = none).
    /// Inherited by spawned tasks; purely observational.
    fn trace(&self) -> u64;

    /// Sets the current task's trace tag.
    fn set_trace(&self, tag: u64);

    /// The phase-span tag of the currently running task (0 = none).
    fn span(&self) -> u64;

    /// Sets the current task's span tag.
    fn set_span(&self, tag: u64);
}

/// The deterministic simulator *is* a runtime; the alias names the sim side
/// of the split at call sites (`MusicReplica<SimRuntime>` vs
/// `MusicReplica<NativeRuntime>`).
pub type SimRuntime = Sim;

impl<T> RtJoinHandle<T> for JoinHandle<T> {
    fn try_result(&self) -> Option<T> {
        JoinHandle::try_result(self)
    }
    fn is_done(&self) -> bool {
        JoinHandle::is_done(self)
    }
}

impl<C: Clock> Runtime for Executor<C> {
    type Sleep = Sleep<C>;
    type JoinHandle<T: 'static> = JoinHandle<T>;

    fn now(&self) -> SimTime {
        Executor::now(self)
    }
    fn sleep(&self, dur: SimDuration) -> Sleep<C> {
        Executor::sleep(self, dur)
    }
    fn sleep_until(&self, deadline: SimTime) -> Sleep<C> {
        Executor::sleep_until(self, deadline)
    }
    fn spawn<F>(&self, future: F) -> JoinHandle<F::Output>
    where
        F: Future + 'static,
        F::Output: 'static,
    {
        Executor::spawn(self, future)
    }
    fn trace(&self) -> u64 {
        Executor::trace(self)
    }
    fn set_trace(&self, tag: u64) {
        Executor::set_trace(self, tag)
    }
    fn span(&self) -> u64 {
        Executor::span(self)
    }
    fn set_span(&self, tag: u64) {
        Executor::set_span(self, tag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Exercises the trait surface generically, as protocol code does.
    async fn sleep_then_spawn<RT: Runtime>(rt: RT) -> u32 {
        let before = rt.now();
        rt.sleep(SimDuration::from_millis(5)).await;
        assert_eq!(rt.now() - before, SimDuration::from_millis(5));
        let h = rt.spawn(async { 40u32 });
        h.await + 2
    }

    #[test]
    fn sim_implements_runtime() {
        let sim = Sim::new();
        let sim2 = sim.clone();
        let got = sim.block_on(sleep_then_spawn(sim2));
        assert_eq!(got, 42);
    }

    /// Spawns a task, lets `run` complete it, then takes its output.
    fn take_result_of_a_finished_task<RT: Runtime>(rt: &RT, run: impl FnOnce()) {
        let h = rt.spawn(async { 7u32 });
        run();
        assert_eq!(h.try_result(), Some(7));
        assert!(h.is_done(), "taking the output leaves the handle done");
        assert_eq!(h.try_result(), None);
    }

    #[test]
    fn join_handles_stay_done_after_try_result() {
        let sim = Sim::new();
        take_result_of_a_finished_task(&sim, || sim.run());
        let rt = crate::NativeRuntime::new();
        take_result_of_a_finished_task(&rt, || rt.block_on(async {}));
    }

    #[test]
    fn sim_trace_tags_via_trait() {
        let sim = Sim::new();
        let sim2 = sim.clone();
        sim.block_on(async move {
            Runtime::set_trace(&sim2, 99);
            assert_eq!(Runtime::trace(&sim2), 99);
            Runtime::set_span(&sim2, 7);
            assert_eq!(Runtime::span(&sim2), 7);
        });
    }
}
