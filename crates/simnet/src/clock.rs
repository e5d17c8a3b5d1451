//! Per-node skewable clocks: deterministic clock drift for the simulator.
//!
//! Real fleets do not share the simulator's single virtual clock. A node's
//! local clock runs ahead or behind true time by a *skew* that combines a
//! constant offset, a bounded rate drift (so the error grows with uptime),
//! and step jitter (NTP slews and corrections re-rolled once per window).
//! [`DriftSpec`] describes such a skew as a pure function of true time and a
//! seed; [`DriftClock`] evaluates it with a monotonicity clamp, so a node's
//! local clock never runs backwards (CLOCK_MONOTONIC semantics) even when a
//! step correction jumps it backwards.
//!
//! Drift affects only the *timestamps a node reads* (`Sim::now` through a
//! skewed handle — see `Sim::with_drift`). Event delivery, timer firing, and
//! scheduling all stay on true virtual time, so a drifted run replays
//! byte-identically from its seed.

use std::cell::Cell;

use crate::time::{SimDuration, SimTime};

/// SplitMix64: a tiny, high-quality mixer for deriving per-window jitter
/// without dragging an RNG into the clock.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A deterministic clock-skew model: `local(t) = t + skew(t)` where
///
/// `skew(t) = offset_us + t·rate_ppm/10⁶ + step(t / step_window)`
///
/// and `step(w)` is a per-window value in `[-step_us, +step_us]` derived
/// from `(seed, w)`. The same spec always produces the same skew.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DriftSpec {
    /// Constant clock offset in microseconds (positive = clock runs ahead).
    pub offset_us: i64,
    /// Rate drift in parts-per-million of true elapsed time (positive =
    /// clock runs fast, accumulating `rate_ppm` µs of error per second).
    pub rate_ppm: i64,
    /// Maximum magnitude of the per-window step jitter, in microseconds.
    pub step_us: u64,
    /// How often the step jitter re-rolls.
    pub step_window: SimDuration,
    /// Seed for the step jitter.
    pub seed: u64,
}

impl DriftSpec {
    /// The identity spec: no skew at all.
    pub const NONE: DriftSpec = DriftSpec {
        offset_us: 0,
        rate_ppm: 0,
        step_us: 0,
        step_window: SimDuration::from_secs(1),
        seed: 0,
    };

    /// A seeded spec whose total skew provably stays within `max_skew`
    /// (absolute value) for every instant up to `horizon`: the budget is
    /// split half to the constant offset, a quarter to rate drift over the
    /// horizon, and a quarter to step jitter. Signs and magnitudes are
    /// drawn deterministically from `seed`, so distinct nodes seeded
    /// differently drift in different directions at different rates.
    pub fn bounded(seed: u64, max_skew: SimDuration, horizon: SimDuration) -> DriftSpec {
        let max = max_skew.as_micros();
        let offset_budget = max / 2;
        let rate_budget = max / 4;
        let step_budget = max.saturating_sub(offset_budget + rate_budget);
        let r0 = splitmix64(seed ^ 0x4452_4946_5400_0001); // "DRIFT"
        let r1 = splitmix64(seed ^ 0x4452_4946_5400_0002);
        let r2 = splitmix64(seed ^ 0x4452_4946_5400_0003);
        let pick = |r: u64, budget: u64| -> i64 {
            if budget == 0 {
                return 0;
            }
            let mag = (r >> 1) % (budget + 1);
            if r & 1 == 0 {
                mag as i64
            } else {
                -(mag as i64)
            }
        };
        let offset_us = pick(r0, offset_budget);
        // rate_ppm · horizon_secs ≤ rate_budget ⟺ rate_ppm ≤ rate_budget·10⁶/horizon_µs.
        let horizon_us = horizon.as_micros().max(1);
        let max_ppm = (u128::from(rate_budget) * 1_000_000 / u128::from(horizon_us)) as u64;
        let rate_ppm = pick(r1, max_ppm);
        let step_us = if step_budget == 0 {
            0
        } else {
            (r2 >> 1) % (step_budget + 1)
        };
        DriftSpec {
            offset_us,
            rate_ppm,
            step_us,
            step_window: SimDuration::from_millis(200),
            seed: splitmix64(seed),
        }
    }

    /// The signed skew at true time `t`, in microseconds.
    pub fn skew_at(&self, t: SimTime) -> i64 {
        let t_us = t.as_micros();
        let rate = (i128::from(t_us) * i128::from(self.rate_ppm) / 1_000_000) as i64;
        let window = t_us / self.step_window.as_micros().max(1);
        let step = if self.step_us == 0 {
            0
        } else {
            let r = splitmix64(self.seed ^ window.wrapping_mul(0x5157_27FA_11E3_C0DD));
            let mag = ((r >> 1) % (self.step_us + 1)) as i64;
            if r & 1 == 0 {
                mag
            } else {
                -mag
            }
        };
        self.offset_us.saturating_add(rate).saturating_add(step)
    }

    /// An upper bound on `|skew(t)|` for all `t ≤ horizon`.
    pub fn max_abs_skew(&self, horizon: SimDuration) -> SimDuration {
        let rate =
            u128::from(horizon.as_micros()) * self.rate_ppm.unsigned_abs() as u128 / 1_000_000;
        let total = self.offset_us.unsigned_abs() as u128 + rate + u128::from(self.step_us);
        SimDuration::from_micros(u64::try_from(total).unwrap_or(u64::MAX))
    }
}

/// Evaluates a [`DriftSpec`] with a monotonicity clamp: the local reading
/// never decreases even when a step correction would jump it backwards.
#[derive(Debug)]
pub struct DriftClock {
    spec: DriftSpec,
    last: Cell<u64>,
}

impl DriftClock {
    /// A clock following `spec`.
    pub fn new(spec: DriftSpec) -> DriftClock {
        DriftClock {
            spec,
            last: Cell::new(0),
        }
    }

    /// The node-local reading for true time `true_now`, clamped monotone.
    pub fn local(&self, true_now: SimTime) -> SimTime {
        let raw = i128::from(true_now.as_micros()) + i128::from(self.spec.skew_at(true_now));
        let raw = u64::try_from(raw.max(0)).unwrap_or(u64::MAX);
        let clamped = raw.max(self.last.get());
        self.last.set(clamped);
        SimTime::from_micros(clamped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_spec_reads_true_time() {
        let c = DriftClock::new(DriftSpec::NONE);
        for us in [0u64, 1, 999, 1_000_000, u64::MAX / 2] {
            assert_eq!(c.local(SimTime::from_micros(us)).as_micros(), us);
        }
    }

    #[test]
    fn readings_are_deterministic_and_monotone() {
        let spec = DriftSpec::bounded(42, SimDuration::from_millis(5), SimDuration::from_secs(60));
        let a = DriftClock::new(spec);
        let b = DriftClock::new(spec);
        let mut prev = 0u64;
        for i in 0..10_000u64 {
            let t = SimTime::from_micros(i * 7_919); // ~79ms steps crossing windows
            let la = a.local(t);
            assert_eq!(la, b.local(t), "same spec must read identically");
            assert!(la.as_micros() >= prev, "local clock ran backwards at {t:?}");
            prev = la.as_micros();
        }
    }

    #[test]
    fn bounded_spec_respects_its_budget() {
        for seed in 0..64u64 {
            let max = SimDuration::from_millis(3);
            let horizon = SimDuration::from_secs(120);
            let spec = DriftSpec::bounded(seed, max, horizon);
            assert!(
                spec.max_abs_skew(horizon) <= max,
                "seed {seed}: analytic bound exceeded: {:?}",
                spec.max_abs_skew(horizon)
            );
            // And the bound is honest: sampled skews stay within it.
            for i in 0..240u64 {
                let t = SimTime::from_micros(i * 500_000);
                let skew = spec.skew_at(t);
                assert!(
                    skew.unsigned_abs() <= max.as_micros(),
                    "seed {seed}: |skew({t:?})| = {skew} beyond {max:?}"
                );
            }
        }
    }

    #[test]
    fn distinct_seeds_drift_differently() {
        let max = SimDuration::from_millis(5);
        let horizon = SimDuration::from_secs(60);
        let t = SimTime::from_micros(30_000_000);
        let skews: Vec<i64> = (0..8)
            .map(|s| DriftSpec::bounded(s, max, horizon).skew_at(t))
            .collect();
        assert!(
            skews.iter().any(|&s| s != skews[0]),
            "eight seeds all produced identical skew {skews:?}"
        );
    }

    #[test]
    fn backward_step_is_clamped_monotone() {
        // A pure step-jitter spec: windows re-roll signs, so raw skew jumps
        // backwards somewhere; the clock output must still be monotone.
        let spec = DriftSpec {
            offset_us: 0,
            rate_ppm: 0,
            step_us: 10_000,
            step_window: SimDuration::from_millis(1),
            seed: 7,
        };
        let c = DriftClock::new(spec);
        let mut prev = SimTime::ZERO;
        let mut saw_backward_raw = false;
        let mut prev_raw = 0i64;
        for i in 0..1_000u64 {
            let t = SimTime::from_micros(i * 1_000);
            let raw = i64::try_from(t.as_micros()).unwrap() + spec.skew_at(t);
            if raw < prev_raw {
                saw_backward_raw = true;
            }
            prev_raw = raw;
            let l = c.local(t);
            assert!(l >= prev);
            prev = l;
        }
        assert!(
            saw_backward_raw,
            "spec never stepped backwards; test is vacuous"
        );
    }
}
