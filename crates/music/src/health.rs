//! Per-replica health for the client's fail-over.
//!
//! `MusicClient` fails over across replicas in distance order, but a plain
//! rotation keeps steering attempts into replicas it has just seen fail —
//! with a crashed primary, every operation burns part of its retry budget
//! re-discovering the same dead node. [`ReplicaHealth`] gives the client a
//! memory: a [`Breaker`] per replica, shared by the client's clones and fed
//! its virtual `now`, so seeded runs replay byte-identically.

use std::cell::RefCell;

use music_runtime::breaker::{Admit, Breaker};
use music_simnet::time::{SimDuration, SimTime};
use music_telemetry::{EventKind, Recorder, Scope};

/// Shared per-replica circuit breakers for one client (and its clones).
#[derive(Debug)]
pub struct ReplicaHealth {
    /// Replica node ids, in the client's preference order (telemetry
    /// attribution only).
    nodes: Vec<u32>,
    breakers: RefCell<Vec<Breaker>>,
    recorder: Recorder,
}

impl ReplicaHealth {
    /// Closed breakers for `nodes.len()` replicas, whose probes await their outcome.
    pub fn new(nodes: Vec<u32>, threshold: u32, cooldown: SimDuration, recorder: Recorder) -> Self {
        let breakers = vec![Breaker::new(threshold, cooldown, None); nodes.len()];
        ReplicaHealth {
            nodes,
            breakers: RefCell::new(breakers),
            recorder,
        }
    }

    /// Whether replica `idx`'s breaker is still cooling down at `now`.
    #[cfg(test)]
    fn is_open(&self, idx: usize, now: SimTime) -> bool {
        self.breakers.borrow()[idx].is_open(now)
    }

    /// Picks the replica for the next attempt: the first one at or after
    /// `preferred`, in preference order, that its breaker admits. If every
    /// replica is quarantined the preferred one is returned anyway — a
    /// client with no admissible replica must still try *somewhere* rather
    /// than fail without an attempt.
    pub fn pick(&self, preferred: usize, now: SimTime, trace: u64) -> usize {
        let n = self.nodes.len();
        for off in 0..n {
            let idx = (preferred + off) % n;
            let admit = self.breakers.borrow_mut()[idx].admit(now);
            if admit == Admit::Probe {
                let (node, rec) = (self.nodes[idx], &self.recorder);
                rec.count(Scope::Node(node), "breaker_probes", 1);
                let event = || EventKind::BreakerProbe { node };
                rec.record(now.as_micros(), trace, node, event);
            }
            if admit != Admit::Refuse {
                return idx;
            }
        }
        preferred % n
    }

    /// Reports that replica `idx` answered: any protocol-level answer, even
    /// "not yet holder", proves the node alive.
    pub fn on_success(&self, idx: usize, now: SimTime, trace: u64) {
        let closed = self.breakers.borrow_mut()[idx].on_success(now);
        if let Some(open_for) = closed {
            let (node, open_us) = (self.nodes[idx], open_for.as_micros());
            let rec = &self.recorder;
            rec.observe(Scope::Node(node), "replica_recovery_us", open_us);
            rec.count(Scope::Node(node), "breaker_closes", 1);
            let event = || EventKind::BreakerClose { node, open_us };
            rec.record(now.as_micros(), trace, node, event);
        }
    }

    /// Reports that replica `idx` failed to answer.
    pub fn on_failure(&self, idx: usize, now: SimTime, trace: u64) {
        let tripped = self.breakers.borrow_mut()[idx].on_failure(now);
        if let Some(failures) = tripped {
            let (node, rec) = (self.nodes[idx], &self.recorder);
            rec.count(Scope::Node(node), "breaker_trips", 1);
            let event = || EventKind::BreakerTrip { node, failures };
            rec.record(now.as_micros(), trace, node, event);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    fn health() -> ReplicaHealth {
        ReplicaHealth::new(
            vec![10, 11, 12],
            3,
            SimDuration::from_millis(1),
            Recorder::metrics_only(),
        )
    }

    #[test]
    fn trips_after_threshold_and_skips_open_replicas() {
        let h = health();
        assert_eq!(h.pick(0, t(0), 0), 0);
        h.on_failure(0, t(0), 0);
        h.on_failure(0, t(1), 0);
        assert!(!h.is_open(0, t(1)), "below threshold stays closed");
        h.on_failure(0, t(2), 0);
        assert!(h.is_open(0, t(2)));
        assert_eq!(h.pick(0, t(3), 0), 1, "open replica is skipped");
    }

    #[test]
    fn success_resets_the_failure_count() {
        let h = health();
        h.on_failure(0, t(0), 0);
        h.on_failure(0, t(1), 0);
        h.on_success(0, t(2), 0);
        h.on_failure(0, t(3), 0);
        h.on_failure(0, t(4), 0);
        assert!(!h.is_open(0, t(4)), "count restarted after a success");
    }

    #[test]
    fn half_open_probe_closes_on_success_and_reopens_on_failure() {
        let h = health();
        for i in 0..3 {
            h.on_failure(0, t(i), 0);
        }
        // Cooldown not elapsed: skipped. Elapsed: admitted as the probe.
        assert_eq!(h.pick(0, t(500), 0), 1);
        assert_eq!(h.pick(0, t(1_200), 0), 0, "half-open probe admitted");
        // While the probe is in flight the replica is not re-admitted.
        assert_eq!(h.pick(0, t(1_300), 0), 1);
        h.on_failure(0, t(1_400), 0);
        assert!(h.is_open(0, t(1_500)), "failed probe re-opens");
        assert_eq!(h.pick(0, t(2_600), 0), 0, "second probe after cooldown");
        h.on_success(0, t(2_700), 0);
        assert_eq!(h.pick(0, t(2_800), 0), 0, "closed again");
    }

    #[test]
    fn all_quarantined_falls_back_to_preferred() {
        let h = health();
        for idx in 0..3 {
            for i in 0..3 {
                h.on_failure(idx, t(i), 0);
            }
        }
        assert_eq!(h.pick(1, t(10), 0), 1);
    }

    #[test]
    fn recovery_histogram_spans_the_whole_outage() {
        let rec = Recorder::metrics_only();
        let h = ReplicaHealth::new(vec![7], 1, SimDuration::from_millis(1), rec.clone());
        h.on_failure(0, t(100), 0); // opens at 100
        assert_eq!(h.pick(0, t(1_200), 0), 0); // probe
        h.on_failure(0, t(1_250), 0); // probe fails, opened_at stays 100
        assert_eq!(h.pick(0, t(2_400), 0), 0); // probe again
        h.on_success(0, t(2_500), 0);
        let m = rec.metrics();
        let hist = m
            .histogram(Scope::Node(7), "replica_recovery_us")
            .expect("recovery histogram");
        assert_eq!(hist.samples, vec![2_400], "2500 - opened_at(100)");
        assert_eq!(m.get(Scope::Node(7), "breaker_trips"), 1);
        assert_eq!(m.get(Scope::Node(7), "breaker_probes"), 2);
        assert_eq!(m.get(Scope::Node(7), "breaker_closes"), 1);
    }

    /// `ReplicaHealth`'s transitions as they were written before it drove a
    /// `Breaker`, kept as the model the new code must match.
    mod model {
        use super::*;

        #[derive(Copy, Clone)]
        enum State {
            Closed { failures: u32 },
            Open { until: SimTime, opened_at: SimTime },
            HalfOpen { opened_at: SimTime },
        }

        /// What the old code recorded: `(at_us, node, kind)` per event.
        pub struct Model {
            nodes: Vec<u32>,
            states: Vec<State>,
            threshold: u32,
            cooldown: SimDuration,
            pub events: Vec<(u64, u32, EventKind)>,
            pub recovery: Vec<Vec<u64>>,
        }

        impl Model {
            pub fn new(nodes: Vec<u32>, threshold: u32, cooldown: SimDuration) -> Self {
                Model {
                    states: vec![State::Closed { failures: 0 }; nodes.len()],
                    recovery: vec![Vec::new(); nodes.len()],
                    nodes,
                    threshold: threshold.max(1),
                    cooldown,
                    events: Vec::new(),
                }
            }

            pub fn is_open(&self, idx: usize, now: SimTime) -> bool {
                matches!(self.states[idx], State::Open { until, .. } if now < until)
            }

            pub fn pick(&mut self, preferred: usize, now: SimTime) -> usize {
                let n = self.nodes.len();
                for off in 0..n {
                    let idx = (preferred + off) % n;
                    match self.states[idx] {
                        State::Closed { .. } => return idx,
                        State::Open { until, opened_at } if now >= until => {
                            self.states[idx] = State::HalfOpen { opened_at };
                            let node = self.nodes[idx];
                            let kind = EventKind::BreakerProbe { node };
                            self.events.push((now.as_micros(), node, kind));
                            return idx;
                        }
                        State::Open { .. } | State::HalfOpen { .. } => {}
                    }
                }
                preferred % n
            }

            pub fn on_success(&mut self, idx: usize, now: SimTime) {
                let prev = std::mem::replace(&mut self.states[idx], State::Closed { failures: 0 });
                match prev {
                    State::Closed { .. } => {}
                    State::Open { opened_at, .. } | State::HalfOpen { opened_at } => {
                        let (node, open_us) = (self.nodes[idx], (now - opened_at).as_micros());
                        self.recovery[idx].push(open_us);
                        let kind = EventKind::BreakerClose { node, open_us };
                        self.events.push((now.as_micros(), node, kind));
                    }
                }
            }

            pub fn on_failure(&mut self, idx: usize, now: SimTime) {
                let until = now + self.cooldown;
                match self.states[idx] {
                    State::Closed { failures } => {
                        let failures = failures + 1;
                        if failures >= self.threshold {
                            self.states[idx] = State::Open {
                                until,
                                opened_at: now,
                            };
                            let node = self.nodes[idx];
                            let kind = EventKind::BreakerTrip { node, failures };
                            self.events.push((now.as_micros(), node, kind));
                        } else {
                            self.states[idx] = State::Closed { failures };
                        }
                    }
                    State::HalfOpen { opened_at } | State::Open { opened_at, .. } => {
                        self.states[idx] = State::Open { until, opened_at };
                    }
                }
            }
        }
    }

    /// One call: 0 = `pick`, 1 = `on_success`, 2 = `on_failure`; a replica
    /// index (reduced modulo the replica count); and how far `now` moves
    /// first, given the cooldown `c`: 0, 1, `c - 1`, `c`, `c + 1` µs or the
    /// random amount, so that cooldowns end exactly on a call too.
    fn op() -> impl Strategy<Value = (u8, usize, u8, u64)> {
        (0u8..3, 0usize..3, 0u8..6, 0u64..3_000)
    }

    fn step(choice: u8, random: u64, c: u64) -> u64 {
        [0, 1, c - 1, c, c + 1]
            .get(usize::from(choice))
            .copied()
            .unwrap_or(random)
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn transitions_match_the_pre_breaker_code(
            n in 1usize..=3,
            threshold in 1u32..=4,
            cooldown_us in 1u64..2_000,
            ops in proptest::collection::vec(op(), 1..80),
        ) {
            let nodes: Vec<u32> = (0..n as u32).map(|i| 10 + i).collect();
            let cooldown = SimDuration::from_micros(cooldown_us);
            let rec = Recorder::tracing();
            let h = ReplicaHealth::new(nodes.clone(), threshold, cooldown, rec.clone());
            let mut model = model::Model::new(nodes.clone(), threshold, cooldown);
            let mut now = 0;
            for (i, (kind, idx, choice, random)) in ops.into_iter().enumerate() {
                now += step(choice, random, cooldown_us);
                let (at, idx) = (t(now), idx % n);
                match kind {
                    0 => prop_assert_eq!(h.pick(idx, at, 0), model.pick(idx, at), "op {}", i),
                    1 => { h.on_success(idx, at, 0); model.on_success(idx, at); }
                    _ => { h.on_failure(idx, at, 0); model.on_failure(idx, at); }
                }
                for r in 0..n {
                    prop_assert_eq!(h.is_open(r, at), model.is_open(r, at), "op {} replica {}", i, r);
                }
            }
            let events: Vec<_> = rec.events().into_iter().map(|e| (e.at_us, e.node, e.kind)).collect();
            prop_assert_eq!(&events, &model.events);
            let m = rec.metrics();
            for (r, &node) in nodes.iter().enumerate() {
                let count = |kind: &str| model.events.iter().filter(|e| e.1 == node && e.2.name() == kind).count() as u64;
                prop_assert_eq!(m.get(Scope::Node(node), "breaker_trips"), count("breakerTrip"));
                prop_assert_eq!(m.get(Scope::Node(node), "breaker_probes"), count("breakerProbe"));
                prop_assert_eq!(m.get(Scope::Node(node), "breaker_closes"), count("breakerClose"));
                let samples = m.histogram(Scope::Node(node), "replica_recovery_us").map(|h| h.samples.clone());
                prop_assert_eq!(samples.unwrap_or_default(), model.recovery[r].clone());
            }
        }
    }
}
