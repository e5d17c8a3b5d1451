//! Per-key contention-adaptive locking: the controller that lets MUSIC
//! survive a flash crowd without livelock or starvation.
//!
//! The controller is fed by *measured* signals — the grant-wait the client
//! already observes per section, the think time between sections, and the
//! queue depth the lock store reports — and drives three behaviors:
//!
//! 1. **spin-then-queue** — below the contention threshold ([`Mode::Cool`])
//!    the acquire loop runs a bounded budget of tight optimistic head
//!    polls (cheap local peeks) before paying jittered exponential
//!    backoff; above it ([`Mode::Hot`]) the client enqueues immediately
//!    (claiming its FIFO position early) and stretches the poll backoff so
//!    a deep queue is not hammered.
//! 2. **lease-window auto-tuning** — the static `lease_window` knob is
//!    replaced by an EWMA of observed think time, clamped to a safety
//!    floor/ceiling (a mis-sized window is worse than none — Ablation 5).
//! 3. **enqueue combining** — in `Hot` mode, same-key waiter enqueues are
//!    batched into one LWT round (`LockMutation::EnqueueBatch`),
//!    preserving arrival order so the FIFO-with-preemption refinement
//!    stays clean.
//!
//! Two guard rails complete the graceful-degradation floor: a bounded
//! queue-depth **admission guard** that fast-rejects with
//! [`MusicError::Overloaded`](crate::MusicError) instead of livelocking,
//! and an **anti-starvation** rule that suspends the lease fast path for a
//! key when the grant-wait EWMA exceeds the fairness bound or the lease is
//! observed contended (a broken lease at re-enter, or a release that found
//! competitors queued) — so a near client cannot monopolize a hot key via
//! 0-RTT lease re-entries while far sites pay the break path forever.
//! While suspended, an `enter` that finds the queue empty also *yields*
//! (bounded by [`YIELD_PATIENCE`]) for a competitor's
//! enqueue to land before racing its own in: suspension alone is not
//! enough when the monopolist can re-enqueue in microseconds and the far
//! site needs 4 WAN round trips to get a reference into the queue.
//!
//! All state transitions go through **hysteresis** (strictly separated
//! enter/exit thresholds), so no constant input signal can make the
//! controller oscillate; the arithmetic is pure, integer-only, and
//! overflow-free (see the `ewma_update` / `next_mode` / `clamp_window`
//! properties in the tests), which keeps seeded simulations byte-identical.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use music_simnet::time::SimDuration;

/// The per-key locking strategy the controller selects.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub enum Mode {
    /// Low contention: spin (bounded tight head polls) before backing
    /// off; enqueue singly; lease retention allowed.
    #[default]
    Cool,
    /// High contention: enqueue immediately through the combiner, stretch
    /// backoff, and suspend lease retention (anti-starvation).
    Hot,
}

impl Mode {
    /// Stable label for telemetry (`strategySwitch` events).
    pub fn label(self) -> &'static str {
        match self {
            Mode::Cool => "cool",
            Mode::Hot => "hot",
        }
    }
}

// ---------------------------------------------------------------------------
// Controller thresholds. Fixed: the paper leaves lock polling to "standard
// back-off mechanisms" (§III-A), and nothing tunes these per deployment —
// `MusicConfig::adaptive` switches the whole controller on or off.
// ---------------------------------------------------------------------------

/// EWMA smoothing: α = 1 / 2^`EWMA_SHIFT`.
pub const EWMA_SHIFT: u32 = 2;
/// Grant-wait EWMA (µs) at or above which a key switches to [`Mode::Hot`].
/// Also the anti-starvation fairness bound: a key whose grant-wait EWMA
/// reaches it suspends lease retention so every entry goes through the
/// FIFO queue.
pub const HOT_ENTER_US: u64 = 400_000;
/// Grant-wait EWMA (µs) at or below which a hot key cools down. Strictly
/// below [`HOT_ENTER_US`], so the switch has hysteresis and cannot
/// oscillate on a constant signal.
pub const HOT_EXIT_US: u64 = 100_000;
/// Bounded optimistic head polls (spins) the acquire loop runs before
/// exponential backoff, in `Cool` mode. `Hot` mode spins zero times.
pub const SPIN_POLLS: u32 = 8;
/// In `Hot` mode the acquire backoff base is stretched by
/// 2^`HOT_BACKOFF_SHIFT`.
pub const HOT_BACKOFF_SHIFT: u32 = 2;
/// Admission guard: reject `enter` when the observed queue depth reaches
/// this bound — a flash crowd is fast-rejected with a retry hint instead
/// of piling thirty LWT proposers onto one key's ballot.
pub const MAX_QUEUE_DEPTH: usize = 16;
/// Base client back-off suggested by an admission rejection; the
/// suggestion grows linearly with the excess depth (capped at 64×).
pub const RETRY_AFTER_BASE: SimDuration = SimDuration::from_millis(25);
/// Auto-tuned lease-window clamp floor: never mint a lease shorter than
/// this (a too-short lease is pure overhead — it is broken or revoked
/// before the think time elapses).
pub const LEASE_FLOOR: SimDuration = SimDuration::from_millis(5);
/// Auto-tuned lease-window clamp ceiling: never mint a lease longer than
/// this (a too-long lease holds competitors hostage for the whole break
/// path).
pub const LEASE_CEIL: SimDuration = SimDuration::from_secs(8);
/// How many sections lease retention stays suspended after observed
/// lease contention (a broken lease at re-enter, or competitors queued at
/// release).
pub const LEASE_COOLOFF: u32 = 8;
/// Anti-starvation politeness bound: while lease retention is suspended
/// (the key is known-contended), an `enter` that finds the local lock
/// queue *empty* waits up to this long for a competitor's reference to
/// land before enqueueing its own — a near client can re-enqueue in
/// microseconds while a far site pays 4 WAN round trips, so racing into
/// the empty queue re-creates the monopoly the suspension just broke.
/// Observing a competitor refreshes the suspension.
pub const YIELD_PATIENCE: SimDuration = SimDuration::from_secs(1);

const _: () = {
    assert!(
        HOT_EXIT_US < HOT_ENTER_US,
        "hysteresis requires HOT_EXIT_US < HOT_ENTER_US"
    );
    assert!(
        LEASE_FLOOR.as_micros() <= LEASE_CEIL.as_micros(),
        "lease clamp floor must not exceed ceiling"
    );
    assert!(EWMA_SHIFT < 32, "EWMA_SHIFT out of range");
};

// ---------------------------------------------------------------------------
// Pure controller arithmetic (property-tested).
// ---------------------------------------------------------------------------

/// One EWMA step with α = 1 / 2^`shift`: moves `prev` toward `sample` by
/// `max(1, |sample − prev| / 2^shift)`.
///
/// Total (no overflow for any inputs) and **bounded**: the result always
/// lies in `[min(prev, sample), max(prev, sample)]`, so a bounded signal
/// keeps the EWMA bounded, and a constant signal converges to it in
/// finitely many steps (the `max(1,·)` floor prevents the integer
/// division from stalling short of the target).
pub const fn ewma_update(prev: u64, sample: u64, shift: u32) -> u64 {
    if sample >= prev {
        let d = sample - prev;
        if d == 0 {
            prev
        } else {
            let step = d >> shift;
            prev + if step == 0 { 1 } else { step }
        }
    } else {
        let d = prev - sample;
        let step = d >> shift;
        prev - if step == 0 { 1 } else { step }
    }
}

/// The hysteresis step: `Cool → Hot` at or above `enter`, `Hot → Cool` at
/// or below `exit`; anywhere between the thresholds the mode is sticky.
///
/// With `exit < enter` (asserted at compile time for [`HOT_EXIT_US`] and
/// [`HOT_ENTER_US`]) no constant `ewma` can produce more than one switch:
/// after a `Cool → Hot` transition at `ewma ≥ enter > exit`, `Hot → Cool`
/// would need `ewma ≤ exit` — a contradiction, and symmetrically for the
/// other direction.
pub const fn next_mode(mode: Mode, ewma: u64, enter: u64, exit: u64) -> Mode {
    match mode {
        Mode::Cool => {
            if ewma >= enter {
                Mode::Hot
            } else {
                Mode::Cool
            }
        }
        Mode::Hot => {
            if ewma <= exit {
                Mode::Cool
            } else {
                Mode::Hot
            }
        }
    }
}

/// Sizes a lease window from the think-time EWMA: twice the observed
/// think time (so an ordinary re-entry lands comfortably inside the
/// window), clamped to `[floor, ceil]`. Saturating, so no input can
/// overflow or escape the clamp.
pub const fn clamp_window(think_ewma_us: u64, floor_us: u64, ceil_us: u64) -> u64 {
    let want = think_ewma_us.saturating_mul(2);
    let lo = if want < floor_us { floor_us } else { want };
    if lo > ceil_us {
        ceil_us
    } else {
        lo
    }
}

/// The back-off an admission rejection suggests: the base grows linearly
/// with the excess queue depth, capped at 64× (mirroring the jittered
/// exponential backoff's range cap).
pub const fn overload_retry_after_us(depth: usize, bound: usize, base_us: u64) -> u64 {
    let excess = if depth >= bound { depth - bound + 1 } else { 1 };
    let mult = if excess > 64 { 64 } else { excess as u64 };
    base_us.saturating_mul(mult)
}

// ---------------------------------------------------------------------------
// Per-key controller state.
// ---------------------------------------------------------------------------

#[derive(Debug, Default)]
struct KeyState {
    mode: Mode,
    wait_ewma_us: u64,
    think_ewma_us: u64,
    /// Virtual-time instant of the last release (µs), for think-time
    /// measurement.
    last_release_us: Option<u64>,
    /// Sections left before lease retention may resume.
    lease_suspended: u32,
}

/// The per-client contention controller: one `KeyState` per touched
/// key, updated from signals the client measures anyway. Cheap to clone
/// (shared state), deterministic (no wall clock, no RNG).
#[derive(Clone, Debug)]
pub struct ContentionController {
    enabled: bool,
    keys: Rc<RefCell<HashMap<String, KeyState>>>,
}

impl ContentionController {
    /// Builds a controller; `enabled == false` makes every method inert.
    pub fn new(enabled: bool) -> Self {
        ContentionController {
            enabled,
            keys: Rc::new(RefCell::new(HashMap::new())),
        }
    }

    /// Whether any adaptive behavior is active.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Current strategy for `key`.
    pub fn mode(&self, key: &str) -> Mode {
        if !self.enabled {
            return Mode::Cool;
        }
        self.keys.borrow().get(key).map_or(Mode::Cool, |s| s.mode)
    }

    /// Feeds one measured grant wait; returns `Some((new_mode, ewma))`
    /// when the hysteresis switched strategy (for the `strategySwitch`
    /// event).
    pub fn on_grant_wait(&self, key: &str, wait_us: u64) -> Option<(Mode, u64)> {
        if !self.enabled {
            return None;
        }
        let mut keys = self.keys.borrow_mut();
        let s = keys.entry(key.to_string()).or_default();
        s.wait_ewma_us = ewma_update(s.wait_ewma_us, wait_us, EWMA_SHIFT);
        let next = next_mode(s.mode, s.wait_ewma_us, HOT_ENTER_US, HOT_EXIT_US);
        if s.wait_ewma_us >= HOT_ENTER_US {
            // Anti-starvation: a site waiting this long must not feed a
            // lease monopoly; force every entry through the FIFO queue
            // for a cooloff.
            s.lease_suspended = s.lease_suspended.max(LEASE_COOLOFF);
        }
        if next != s.mode {
            s.mode = next;
            return Some((next, s.wait_ewma_us));
        }
        None
    }

    /// Notes an `enter` starting at virtual-time `now_us`: measures the
    /// think time since the previous release and decays the lease
    /// suspension by one section.
    pub fn on_enter(&self, key: &str, now_us: u64) {
        if !self.enabled {
            return;
        }
        let mut keys = self.keys.borrow_mut();
        let s = keys.entry(key.to_string()).or_default();
        if let Some(rel) = s.last_release_us.take() {
            let think = now_us.saturating_sub(rel);
            s.think_ewma_us = ewma_update(s.think_ewma_us, think, EWMA_SHIFT);
        }
        s.lease_suspended = s.lease_suspended.saturating_sub(1);
    }

    /// Notes a release at virtual-time `now_us` (think-time measurement
    /// anchor).
    pub fn on_release(&self, key: &str, now_us: u64) {
        if !self.enabled {
            return;
        }
        let mut keys = self.keys.borrow_mut();
        let s = keys.entry(key.to_string()).or_default();
        s.last_release_us = Some(now_us);
    }

    /// Notes observed lease contention on `key` — the cached lease was
    /// found broken at re-enter, or the release saw competitors queued.
    /// Suspends lease retention for [`LEASE_COOLOFF`] sections.
    pub fn note_lease_contention(&self, key: &str) {
        if !self.enabled {
            return;
        }
        let mut keys = self.keys.borrow_mut();
        let s = keys.entry(key.to_string()).or_default();
        s.lease_suspended = s.lease_suspended.max(LEASE_COOLOFF);
    }

    /// The politeness bound for an `enter` on `key`, when one applies:
    /// `Some(patience)` while lease retention is suspended (or the key is
    /// `Hot`) — the caller should wait up to `patience` for a competitor
    /// to appear in an empty queue before enqueueing. `None` means
    /// enqueue immediately.
    pub fn enqueue_yield(&self, key: &str) -> Option<SimDuration> {
        if !self.enabled || self.lease_retention_allowed(key) {
            None
        } else {
            Some(YIELD_PATIENCE)
        }
    }

    /// Whether the client may retain a lease on `key` at release time.
    /// `false` while the key is `Hot` or inside a lease-contention
    /// cooloff (the anti-starvation rule).
    pub fn lease_retention_allowed(&self, key: &str) -> bool {
        if !self.enabled {
            return true;
        }
        let keys = self.keys.borrow();
        keys.get(key)
            .is_none_or(|s| s.mode == Mode::Cool && s.lease_suspended == 0)
    }

    /// The auto-tuned lease window for `key`: sized from the think-time
    /// EWMA, clamped to the safety floor/ceiling. Falls back to the
    /// static `window` while no think time has been observed yet, still
    /// clamped (the tuner must never mint below the floor).
    pub fn auto_window(&self, key: &str, window: SimDuration) -> SimDuration {
        if !self.enabled {
            return window;
        }
        let floor = LEASE_FLOOR.as_micros();
        let ceil = LEASE_CEIL.as_micros();
        let think = self.keys.borrow().get(key).map_or(0, |s| s.think_ewma_us);
        let us = if think == 0 {
            clamp_window(window.as_micros() / 2, floor, ceil)
        } else {
            clamp_window(think, floor, ceil)
        };
        SimDuration::from_micros(us)
    }

    /// How many tight optimistic head polls the acquire loop may run
    /// before exponential backoff: the spin budget in `Cool`, zero in
    /// `Hot`.
    pub fn spin_budget(&self, key: &str) -> u32 {
        if !self.enabled {
            return 0;
        }
        match self.mode(key) {
            Mode::Cool => SPIN_POLLS,
            Mode::Hot => 0,
        }
    }

    /// Left-shift applied to the acquire backoff base for `key` (stretch
    /// under contention): 0 in `Cool`, [`HOT_BACKOFF_SHIFT`] in `Hot`.
    pub fn backoff_shift(&self, key: &str) -> u32 {
        if !self.enabled {
            return 0;
        }
        match self.mode(key) {
            Mode::Cool => 0,
            Mode::Hot => HOT_BACKOFF_SHIFT,
        }
    }

    /// Whether same-key enqueues should go through the combiner right
    /// now: only when enabled and the key is `Hot` (in `Cool` the extra
    /// round coordination is pure overhead).
    pub fn combine_now(&self, key: &str) -> bool {
        self.mode(key) == Mode::Hot
    }

    /// The admission guard: `Err(retry_after)` when `depth` has reached
    /// [`MAX_QUEUE_DEPTH`] (the graceful-degradation floor). `Ok(())`
    /// when the controller is off or the queue has room.
    pub fn admit(&self, depth: usize) -> Result<(), SimDuration> {
        if !self.enabled || depth < MAX_QUEUE_DEPTH {
            return Ok(());
        }
        Err(SimDuration::from_micros(overload_retry_after_us(
            depth,
            MAX_QUEUE_DEPTH,
            RETRY_AFTER_BASE.as_micros(),
        )))
    }

    /// The grant-wait EWMA for `key` (instrumentation/tests).
    pub fn wait_ewma_us(&self, key: &str) -> u64 {
        self.keys.borrow().get(key).map_or(0, |s| s.wait_ewma_us)
    }

    /// The think-time EWMA for `key` (instrumentation/tests).
    pub fn think_ewma_us(&self, key: &str) -> u64 {
        self.keys.borrow().get(key).map_or(0, |s| s.think_ewma_us)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn ewma_is_bounded_between_prev_and_sample() {
        // Property: for ANY (prev, sample, shift) the update lands in
        // [min, max] — randomized over the full u64 range, overflow-free.
        let mut rng = SmallRng::seed_from_u64(0xC0FFEE);
        for _ in 0..50_000 {
            let prev: u64 = rng.gen();
            let sample: u64 = rng.gen();
            let shift: u32 = rng.gen_range(0..32);
            let next = ewma_update(prev, sample, shift);
            assert!(next >= prev.min(sample) && next <= prev.max(sample));
        }
    }

    #[test]
    fn ewma_converges_to_a_constant_signal() {
        for shift in 0..8 {
            let mut v = 1_000_000u64;
            for _ in 0..10_000 {
                v = ewma_update(v, 250, shift);
            }
            assert_eq!(v, 250, "shift {shift} must converge");
            let mut up = 0u64;
            for _ in 0..10_000 {
                up = ewma_update(up, 777, shift);
            }
            assert_eq!(up, 777);
        }
    }

    #[test]
    fn hysteresis_never_oscillates_on_constant_input() {
        // Property: for any constant signal and any exit < enter, the
        // mode switches at most once over an arbitrarily long run.
        let mut rng = SmallRng::seed_from_u64(7);
        for _ in 0..20_000 {
            let enter = rng.gen_range(1..u64::MAX);
            let exit = rng.gen_range(0..enter);
            let signal: u64 = rng.gen();
            let mut mode = if rng.gen() { Mode::Cool } else { Mode::Hot };
            let mut switches = 0;
            for _ in 0..64 {
                let next = next_mode(mode, signal, enter, exit);
                if next != mode {
                    switches += 1;
                    mode = next;
                }
            }
            assert!(switches <= 1, "constant signal {signal} oscillated");
        }
    }

    #[test]
    fn clamp_window_respects_floor_and_ceiling_for_any_input() {
        let mut rng = SmallRng::seed_from_u64(11);
        for _ in 0..50_000 {
            let floor = rng.gen_range(0..u64::MAX / 2);
            let ceil = rng.gen_range(floor..u64::MAX);
            let think: u64 = rng.gen();
            let w = clamp_window(think, floor, ceil);
            assert!(
                w >= floor && w <= ceil,
                "window {w} escaped [{floor},{ceil}]"
            );
        }
        // Saturation edge: think * 2 overflows, still clamped.
        assert_eq!(clamp_window(u64::MAX, 5, 100), 100);
        // Zero think maps to the floor.
        assert_eq!(clamp_window(0, 5, 100), 5);
    }

    #[test]
    fn overload_retry_grows_with_excess_and_caps() {
        let base = 1_000;
        let r0 = overload_retry_after_us(4, 4, base);
        let r1 = overload_retry_after_us(8, 4, base);
        assert!(r1 > r0);
        assert_eq!(overload_retry_after_us(10_000, 4, base), base * 64);
        // Degenerate inputs stay total.
        assert_eq!(overload_retry_after_us(0, 4, base), base);
        assert!(overload_retry_after_us(usize::MAX, 1, u64::MAX) == u64::MAX);
    }

    #[test]
    fn controller_switches_hot_and_back_with_hysteresis() {
        let c = ContentionController::new(true);
        assert_eq!(c.mode("k"), Mode::Cool);
        // One wait of 2^EWMA_SHIFT × HOT_ENTER_US lifts the EWMA from zero
        // exactly to the enter threshold.
        let sw = c.on_grant_wait("k", HOT_ENTER_US << EWMA_SHIFT);
        assert_eq!(sw, Some((Mode::Hot, HOT_ENTER_US)));
        assert_eq!(c.spin_budget("k"), 0);
        assert_eq!(c.backoff_shift("k"), HOT_BACKOFF_SHIFT);
        assert!(c.combine_now("k"));
        assert!(!c.lease_retention_allowed("k"), "fairness bound suspends");
        // Between the thresholds: sticky, however long the signal holds.
        let mid = (HOT_ENTER_US + HOT_EXIT_US) / 2;
        for _ in 0..64 {
            assert!(c.on_grant_wait("k", mid).is_none());
        }
        assert_eq!(c.mode("k"), Mode::Hot);
        // Zero waits decay the EWMA to the exit threshold: cools down.
        let (mode, ewma) = (0..64)
            .find_map(|_| c.on_grant_wait("k", 0))
            .expect("cools");
        assert_eq!(mode, Mode::Cool);
        assert!(ewma <= HOT_EXIT_US);
        assert_eq!(c.spin_budget("k"), SPIN_POLLS);
        assert_eq!(c.backoff_shift("k"), 0);
        assert!(!c.combine_now("k"));
    }

    #[test]
    fn lease_retention_suspends_under_contention_and_recovers() {
        let c = ContentionController::new(true);
        assert!(c.lease_retention_allowed("k"));
        assert_eq!(c.enqueue_yield("k"), None);
        c.note_lease_contention("k");
        for _ in 0..LEASE_COOLOFF {
            assert!(!c.lease_retention_allowed("k"));
            assert_eq!(c.enqueue_yield("k"), Some(YIELD_PATIENCE));
            c.on_enter("k", 0);
        }
        assert!(c.lease_retention_allowed("k"), "cooloff elapsed");
        assert_eq!(c.enqueue_yield("k"), None);
    }

    #[test]
    fn auto_window_tracks_think_time_within_clamp() {
        let c = ContentionController::new(true);
        // No observation yet: the static window, clamped.
        let w = SimDuration::from_secs(2);
        assert_eq!(c.auto_window("k", w), w);
        assert_eq!(c.auto_window("k", SimDuration::from_secs(60)), LEASE_CEIL);
        assert_eq!(c.auto_window("k", SimDuration::ZERO), LEASE_FLOOR);
        // A 1 s think time moves the EWMA (from zero) to 250 ms: the
        // window is twice that.
        c.on_release("k", 1_000);
        c.on_enter("k", 1_001_000);
        assert_eq!(c.auto_window("k", w), SimDuration::from_millis(500));
        // Long think times cannot push the window past the ceiling...
        for _ in 0..8 {
            c.on_release("k", 0);
            c.on_enter("k", 100_000_000);
        }
        assert_eq!(c.auto_window("k", w), LEASE_CEIL);
        // ...and tiny ones cannot dip it below the floor.
        for _ in 0..64 {
            c.on_release("k", 0);
            c.on_enter("k", 1);
        }
        assert_eq!(c.auto_window("k", w), LEASE_FLOOR);
    }

    #[test]
    fn admission_guard_rejects_at_bound_with_growing_backoff() {
        let c = ContentionController::new(true);
        assert!(c.admit(0).is_ok());
        assert!(c.admit(MAX_QUEUE_DEPTH - 1).is_ok());
        let at_bound = c.admit(MAX_QUEUE_DEPTH).unwrap_err();
        assert_eq!(at_bound, RETRY_AFTER_BASE);
        let deeper = c.admit(MAX_QUEUE_DEPTH + 4).unwrap_err();
        assert!(deeper > at_bound);
    }

    #[test]
    fn disabled_controller_is_inert() {
        let c = ContentionController::new(false);
        assert!(!c.enabled());
        assert!(c.on_grant_wait("k", u64::MAX).is_none());
        assert_eq!(c.mode("k"), Mode::Cool);
        assert_eq!(c.spin_budget("k"), 0);
        assert_eq!(c.backoff_shift("k"), 0);
        assert!(!c.combine_now("k"));
        assert!(c.admit(usize::MAX).is_ok());
        c.note_lease_contention("k");
        assert!(c.lease_retention_allowed("k"));
        assert_eq!(c.enqueue_yield("k"), None);
        let w = SimDuration::from_secs(2);
        assert_eq!(c.auto_window("k", w), w);
    }
}
