//! Runtime-generic future combinators.
//!
//! These are `music_simnet::combinators`, whose `Timeout` and `Quorum`
//! take any `Unpin` sleep or join-handle future, so a protocol path
//! compiled against `RT = Sim` behaves byte-for-byte like one written
//! against the simulator (same wakeups, same completion order, same
//! telemetry), while `RT = NativeRuntime` gets real timers for free. Only
//! [`timeout`] is new: it reads the deadline off a [`Runtime`]'s clock.

use std::future::Future;

use music_simnet::combinators::Timeout;
use music_simnet::time::SimDuration;

use crate::rt::Runtime;

pub use music_simnet::combinators::{join_all, never, quorum, yield_now, Elapsed};

/// Races `future` against a deadline on `rt`'s clock.
///
/// The inner future is dropped if the deadline fires first; pair with
/// detached tasks ([`Runtime::spawn`]) when the underlying effect must
/// survive the timeout (as replica-side writes do).
pub fn timeout<RT: Runtime, F: Future>(
    rt: &RT,
    dur: SimDuration,
    future: F,
) -> Timeout<F, RT::Sleep> {
    Timeout::new(rt.sleep(dur), future)
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
