//! [`Breaker`]: a pure circuit breaker for a peer that stops answering.
//! Each call carries the [`SimTime`] of its event; the machine does no I/O
//! and reads no clock. The client's fail-over (`music::health`) drives it
//! on virtual time, [`TcpTransport`](crate::TcpTransport) on the wall clock.
//!
//! A breaker starts *closed*: requests go out and consecutive failures are
//! counted. At `threshold` of them it *opens* and refuses every request for
//! `cooldown`; a failure reported while it is open restarts the cooldown.
//! The first request after that goes out as the *probe*, and the breaker
//! is *half-open*: it refuses every other request while the probe is out.
//! An answer closes the breaker. A failed probe re-opens it, and so does a
//! probe left unanswered for the probe deadline, where there is one. A
//! probe called off before it reached the peer is no verdict: the breaker
//! is open again with its cooldown spent, so the next request probes.

use music_simnet::time::{SimDuration, SimTime};

/// What to do with a request, as [`Breaker::admit`] decides.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Admit {
    /// Send it: the breaker is closed.
    Send,
    /// Send it as the probe: the breaker has just turned half-open.
    Probe,
    /// Do not send it.
    Refuse,
}

#[derive(Copy, Clone, Debug)]
enum State {
    /// Sending; counts consecutive failures.
    Closed { failures: u32 },
    /// Refusing until `until`. `since` is when the breaker left closed, so
    /// the time to recover spans the whole outage.
    Open { until: SimTime, since: SimTime },
    /// The probe went out at `sent`.
    HalfOpen { since: SimTime, sent: SimTime },
}

/// One peer's breaker; the [module docs](self) give its states.
#[derive(Copy, Clone, Debug)]
pub struct Breaker {
    state: State,
    threshold: u32,
    cooldown: SimDuration,
    /// How long a probe may go unanswered.
    deadline: Option<SimDuration>,
}

impl Breaker {
    /// A closed breaker that opens for `cooldown` after `threshold` failures
    /// in a row (0 acts as 1). Without a probe `deadline`, a probe is out
    /// until its outcome is reported.
    pub const fn new(threshold: u32, cooldown: SimDuration, deadline: Option<SimDuration>) -> Self {
        Breaker {
            state: State::Closed { failures: 0 },
            threshold,
            cooldown,
            deadline,
        }
    }

    /// Whether the breaker is closed.
    pub fn is_closed(&self) -> bool {
        matches!(self.state, State::Closed { .. })
    }

    /// Whether the breaker is open, its cooldown still running, at `now`.
    pub fn is_open(&self, now: SimTime) -> bool {
        matches!(self.state, State::Open { until, .. } if now < until)
    }

    /// A request at `now`.
    pub fn admit(&mut self, now: SimTime) -> Admit {
        match self.state {
            State::Closed { .. } => Admit::Send,
            State::Open { until, since } if now >= until => {
                self.state = State::HalfOpen { since, sent: now };
                Admit::Probe
            }
            State::HalfOpen { sent, .. } if self.deadline.is_some_and(|d| now >= sent + d) => {
                self.on_failure(now);
                Admit::Refuse
            }
            State::Open { .. } | State::HalfOpen { .. } => Admit::Refuse,
        }
    }

    /// The peer answered at `now`. Closes the breaker, and returns how long
    /// it was not closed if it was not.
    pub fn on_success(&mut self, now: SimTime) -> Option<SimDuration> {
        match std::mem::replace(&mut self.state, State::Closed { failures: 0 }) {
            State::Closed { .. } => None,
            State::Open { since, .. } | State::HalfOpen { since, .. } => Some(now - since),
        }
    }

    /// The peer failed at `now`. Returns the failure count if this failure
    /// tripped a closed breaker.
    pub fn on_failure(&mut self, now: SimTime) -> Option<u32> {
        let (since, tripped) = match self.state {
            State::Closed { failures: n } if n + 1 < self.threshold => {
                self.state = State::Closed { failures: n + 1 };
                return None;
            }
            State::Closed { failures } => (now, Some(failures + 1)),
            State::Open { since, .. } | State::HalfOpen { since, .. } => (since, None),
        };
        let until = now + self.cooldown;
        self.state = State::Open { until, since };
        tripped
    }

    /// Calls off a probe that never reached the peer, if one is out.
    pub fn cancel_probe(&mut self) {
        if let State::HalfOpen { since, sent } = self.state {
            self.state = State::Open { until: sent, since };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const WINDOW: SimDuration = SimDuration::from_secs(2);

    fn t(ms: u64) -> SimTime {
        SimTime::from_micros(ms * 1_000)
    }

    /// The socket's breaker, opened by a timeout at 0 ms.
    fn timed_out() -> Breaker {
        let mut b = Breaker::new(1, WINDOW, Some(WINDOW));
        assert_eq!(b.on_failure(t(0)), Some(1));
        b
    }

    #[test]
    fn a_timeout_refuses_the_peer_for_the_whole_window() {
        let mut b = timed_out();
        for ms in [0, 1, 1_000, 1_999] {
            assert!(b.is_open(t(ms)));
            assert_eq!(b.admit(t(ms)), Admit::Refuse, "at {ms} ms");
        }
        assert_eq!(b.admit(t(2_000)), Admit::Probe, "the window has passed");
    }

    #[test]
    fn one_probe_goes_out_and_every_other_request_is_refused_meanwhile() {
        let mut b = timed_out();
        assert_eq!(b.admit(t(2_500)), Admit::Probe);
        for ms in [2_500, 3_000, 4_499] {
            assert_eq!(b.admit(t(ms)), Admit::Refuse, "at {ms} ms");
            assert!(!b.is_open(t(ms)) && !b.is_closed(), "still half-open");
        }
    }

    #[test]
    fn an_unanswered_probe_reopens_for_another_window() {
        let mut b = timed_out();
        assert_eq!(b.admit(t(2_500)), Admit::Probe);
        assert_eq!(b.admit(t(4_500)), Admit::Refuse, "unanswered for 2 s");
        assert!(b.is_open(t(4_500)) && b.is_open(t(6_499)));
        assert_eq!(b.admit(t(6_499)), Admit::Refuse);
        assert_eq!(b.admit(t(6_500)), Admit::Probe, "the next window passed");
        // The outage is timed from the first timeout, not the re-opening.
        assert_eq!(
            b.on_success(t(6_600)),
            Some(SimDuration::from_millis(6_600))
        );
    }

    #[test]
    fn an_answered_probe_closes_the_breaker() {
        let mut b = timed_out();
        assert_eq!(b.admit(t(2_000)), Admit::Probe);
        assert_eq!(
            b.on_success(t(2_100)),
            Some(SimDuration::from_millis(2_100))
        );
        assert!(b.is_closed());
        assert_eq!(b.admit(t(2_100)), Admit::Send);
        assert_eq!(b.on_success(t(2_200)), None, "already closed");
    }

    #[test]
    fn a_failed_probe_reopens_and_a_failure_while_open_restarts_the_cooldown() {
        let mut b = timed_out();
        assert_eq!(b.admit(t(2_000)), Admit::Probe);
        assert_eq!(b.on_failure(t(2_300)), None, "no new trip");
        assert!(b.is_open(t(4_299)) && !b.is_open(t(4_300)));
        assert_eq!(b.on_failure(t(3_000)), None);
        assert!(b.is_open(t(4_999)) && !b.is_open(t(5_000)));
    }

    #[test]
    fn a_called_off_probe_lets_the_next_request_probed_once() {
        let mut b = timed_out();
        assert_eq!(b.admit(t(2_000)), Admit::Probe);
        b.cancel_probe();
        assert!(!b.is_open(t(2_000)));
        assert_eq!(b.admit(t(2_001)), Admit::Probe);
        // Closed or open, there is no probe to call off.
        let mut closed = Breaker::new(1, WINDOW, None);
        closed.cancel_probe();
        assert_eq!(closed.admit(t(0)), Admit::Send);
        let mut open = timed_out();
        open.cancel_probe();
        assert!(open.is_open(t(1_999)));
    }

    #[test]
    fn without_a_deadline_a_probe_waits_for_its_outcome() {
        let mut b = Breaker::new(3, WINDOW, None);
        assert_eq!(b.on_failure(t(0)), None);
        assert_eq!(b.on_failure(t(1)), None);
        assert!(b.is_closed(), "below the threshold");
        assert_eq!(b.on_failure(t(2)), Some(3));
        assert_eq!(b.admit(t(2_002)), Admit::Probe);
        assert_eq!(
            b.admit(t(1_000_000)),
            Admit::Refuse,
            "never re-opens on its own"
        );
        assert!(!b.is_open(t(1_000_000)));
        let mut zero = Breaker::new(0, WINDOW, None);
        assert_eq!(zero.on_failure(t(0)), Some(1), "a threshold of 0 acts as 1");
    }
}
