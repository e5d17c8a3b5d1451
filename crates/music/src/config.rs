//! MUSIC configuration knobs.

use music_simnet::time::SimDuration;

use crate::contention::ContentionKnobs;

/// How `criticalPut` reaches the data store — the paper's MUSIC-vs-MSCP
/// axis (§VIII-b).
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub enum PutMode {
    /// Quorum write (1 WAN RTT) — MUSIC proper.
    #[default]
    Quorum,
    /// Sequentially consistent LWT write (4 WAN RTTs) — the MSCP baseline,
    /// "a write in a MUSIC critical section using a SC LWT put rather than
    /// a quorum put".
    Lwt,
}

/// How `acquireLock`/critical guards read the lock queue head — an
/// ablation knob for the paper's design choice (§IV-A): the peek is a
/// *local* read precisely because clients poll it many times per critical
/// section.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub enum PeekMode {
    /// Eventual read of the closest lock-store replica (the paper's
    /// design; intra-site round trip).
    #[default]
    Local,
    /// Quorum read (one WAN round trip per poll) — what the design avoids;
    /// used by the `ablation` bench to quantify the saving.
    Quorum,
}

/// How a [`crate::client::CriticalSection`] issues its `criticalPut`s.
///
/// Entry consistency only requires a holder's writes to be visible to the
/// *next* holder, so intra-section writes need not each wait for their
/// quorum ack — they only have to be acknowledged by the time the lock is
/// handed off. [`WriteMode::Pipelined`] exploits that: puts are issued
/// asynchronously with a bounded in-flight window, and `release` /
/// `criticalGet` / multi-key crossings act as flush barriers.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub enum WriteMode {
    /// Every `put` awaits its quorum ack before returning (the paper's
    /// behaviour; one WAN RTT per put).
    #[default]
    Sync,
    /// `put`s return once issued; at most `window` quorum writes are in
    /// flight at a time. A window of 1 degenerates to `Sync` order with
    /// deferred error reporting.
    Pipelined {
        /// Maximum quorum writes in flight per critical section.
        window: usize,
    },
}

impl WriteMode {
    /// The in-flight window this mode allows (1 for [`WriteMode::Sync`]).
    pub fn window(self) -> usize {
        match self {
            WriteMode::Sync => 1,
            WriteMode::Pipelined { window } => window.max(1),
        }
    }

    /// Whether puts are issued asynchronously.
    pub fn is_pipelined(self) -> bool {
        matches!(self, WriteMode::Pipelined { .. })
    }
}

/// Tunables of a MUSIC deployment.
#[derive(Clone, Debug)]
pub struct MusicConfig {
    /// `T`: the maximum duration of one critical section; bounds the time
    /// component of `v2s` and lets replicas reject expired holders (§VI).
    pub t_max: SimDuration,
    /// `δ`: how far above `v2s(lockRef, 0)` a `forcedRelease` stamps the
    /// `synchFlag` (1 µs in the paper's production deployment, §IV-B).
    pub delta: SimDuration,
    /// Client-side polling interval while waiting in `acquireLock`.
    pub acquire_poll: SimDuration,
    /// How many times a client retries a nacked operation (across MUSIC
    /// replicas) before giving up, per the failure semantics of §III-A.
    pub client_retries: u32,
    /// How long a queue head may sit unchanged before a MUSIC replica's
    /// failure detector presumes the holder dead and forcibly releases the
    /// lock. Deliberately imperfect: a slow-but-alive holder will be
    /// preempted (false failure detection, §IV-B).
    pub failure_timeout: SimDuration,
    /// Consecutive failures at one replica before the client's circuit
    /// breaker opens and fail-over skips that replica outright.
    pub breaker_threshold: u32,
    /// How long an open breaker quarantines a replica before admitting a
    /// probationary half-open probe.
    pub breaker_cooldown: SimDuration,
    /// How `criticalPut` writes the data store (MUSIC vs. MSCP).
    pub put_mode: PutMode,
    /// How lock-queue heads are peeked (local vs. quorum; ablation).
    pub peek_mode: PeekMode,
    /// How critical sections issue their puts (sync vs. pipelined).
    pub write_mode: WriteMode,
    /// When set, clean releases retain a *lease* of this duration: the
    /// release LWT pre-mints the next lock reference for the departing
    /// client iff nothing is queued behind it, and a re-entry within the
    /// window skips `createLockRef` + the grant's quorum read entirely
    /// (0 extra WAN RTTs). `None` (the default) disables leasing and
    /// preserves the paper's exact protocol.
    pub lease_window: Option<SimDuration>,
    /// `ε`: the clock-uncertainty bound every time-based lease decision
    /// must absorb. A lease is claimed only while `local_now + ε < expiry`
    /// and revoked only once `local_now − ε > expiry`
    /// ([`crate::timestamp::lease_claimable`] /
    /// [`crate::timestamp::lease_breakable`]), so as long as every node's
    /// clock skew stays within ε the fast path is drift-safe; skew beyond
    /// ε is the documented unsafe region (DESIGN.md §8). `ZERO` (the
    /// default) reproduces the pre-drift strict comparisons exactly.
    pub clock_epsilon: SimDuration,
    /// The contention-adaptive locking controller
    /// ([`crate::contention`]): per-key spin-then-queue strategy
    /// switching, enqueue combining, lease-window auto-tuning, admission
    /// control, and the anti-starvation lease-suspension rule. Disabled
    /// by default — a default config behaves exactly like the
    /// pre-adaptive protocol.
    pub contention: ContentionKnobs,
}

impl Default for MusicConfig {
    fn default() -> Self {
        MusicConfig {
            t_max: SimDuration::from_secs(600),
            delta: SimDuration::from_micros(1),
            acquire_poll: SimDuration::from_millis(2),
            client_retries: 8,
            failure_timeout: SimDuration::from_secs(30),
            breaker_threshold: 3,
            breaker_cooldown: SimDuration::from_secs(1),
            put_mode: PutMode::Quorum,
            peek_mode: PeekMode::Local,
            write_mode: WriteMode::Sync,
            lease_window: None,
            clock_epsilon: SimDuration::ZERO,
            contention: ContentionKnobs::default(),
        }
    }
}

impl MusicConfig {
    /// Starts a [`MusicConfigBuilder`] seeded with the defaults — the one
    /// entry point for assembling a config.
    pub fn builder() -> MusicConfigBuilder {
        MusicConfigBuilder {
            cfg: MusicConfig::default(),
        }
    }
}

/// Fluent builder for [`MusicConfig`], seeded with the defaults by
/// [`MusicConfig::builder`]. Every knob has a setter; unset knobs keep
/// their default.
///
/// ```
/// use music::config::{MusicConfig, PutMode, WriteMode};
/// use music_simnet::time::SimDuration;
///
/// let cfg = MusicConfig::builder()
///     .put_mode(PutMode::Lwt)
///     .write_mode(WriteMode::Pipelined { window: 8 })
///     .lease_window(SimDuration::from_secs(5))
///     .build();
/// assert_eq!(cfg.put_mode, PutMode::Lwt);
/// ```
#[derive(Clone, Debug)]
pub struct MusicConfigBuilder {
    cfg: MusicConfig,
}

impl MusicConfigBuilder {
    /// Sets `T`, the maximum duration of one critical section.
    #[must_use]
    pub fn t_max(mut self, t_max: SimDuration) -> Self {
        self.cfg.t_max = t_max;
        self
    }

    /// Sets `δ`, the `forcedRelease` synch-flag stamp offset.
    #[must_use]
    pub fn delta(mut self, delta: SimDuration) -> Self {
        self.cfg.delta = delta;
        self
    }

    /// Sets the `acquireLock` polling interval.
    #[must_use]
    pub fn acquire_poll(mut self, poll: SimDuration) -> Self {
        self.cfg.acquire_poll = poll;
        self
    }

    /// Sets the cross-replica client retry budget.
    #[must_use]
    pub fn client_retries(mut self, retries: u32) -> Self {
        self.cfg.client_retries = retries;
        self
    }

    /// Sets the failure detector's presumed-dead timeout.
    #[must_use]
    pub fn failure_timeout(mut self, timeout: SimDuration) -> Self {
        self.cfg.failure_timeout = timeout;
        self
    }

    /// Sets the circuit-breaker consecutive-failure threshold.
    #[must_use]
    pub fn breaker_threshold(mut self, threshold: u32) -> Self {
        self.cfg.breaker_threshold = threshold;
        self
    }

    /// Sets the circuit-breaker quarantine cooldown.
    #[must_use]
    pub fn breaker_cooldown(mut self, cooldown: SimDuration) -> Self {
        self.cfg.breaker_cooldown = cooldown;
        self
    }

    /// Sets how `criticalPut` writes the data store (MUSIC vs. MSCP).
    #[must_use]
    pub fn put_mode(mut self, mode: PutMode) -> Self {
        self.cfg.put_mode = mode;
        self
    }

    /// Sets how lock-queue heads are peeked (local vs. quorum).
    #[must_use]
    pub fn peek_mode(mut self, mode: PeekMode) -> Self {
        self.cfg.peek_mode = mode;
        self
    }

    /// Sets how critical sections issue their puts (sync vs. pipelined).
    #[must_use]
    pub fn write_mode(mut self, mode: WriteMode) -> Self {
        self.cfg.write_mode = mode;
        self
    }

    /// Enables lease retention on clean releases with the given window.
    #[must_use]
    pub fn lease_window(mut self, window: SimDuration) -> Self {
        self.cfg.lease_window = Some(window);
        self
    }

    /// Disables lease retention (the default; named for symmetry so a
    /// builder chain can override an earlier [`Self::lease_window`]).
    #[must_use]
    pub fn no_lease(mut self) -> Self {
        self.cfg.lease_window = None;
        self
    }

    /// Sets `ε`, the clock-uncertainty bound for lease claim/break and
    /// watchdog revocation decisions.
    #[must_use]
    pub fn clock_epsilon(mut self, epsilon: SimDuration) -> Self {
        self.cfg.clock_epsilon = epsilon;
        self
    }

    /// Installs the contention-adaptive locking knobs (validated at
    /// [`Self::build`]).
    #[must_use]
    pub fn contention(mut self, knobs: ContentionKnobs) -> Self {
        self.cfg.contention = knobs;
        self
    }

    /// Enables the contention controller with its default thresholds.
    #[must_use]
    pub fn adaptive(mut self) -> Self {
        self.cfg.contention = ContentionKnobs::adaptive();
        self
    }

    /// Finishes the chain.
    ///
    /// # Panics
    ///
    /// Panics when enabled contention knobs are inconsistent (inverted
    /// hysteresis thresholds or an inverted lease clamp).
    pub fn build(self) -> MusicConfig {
        let mut cfg = self.cfg;
        cfg.contention = cfg.contention.validate();
        cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = MusicConfig::default();
        assert!(c.delta < c.t_max);
        assert!(c.acquire_poll < c.failure_timeout);
        assert!(c.breaker_threshold >= 1);
        assert!(c.breaker_cooldown < c.failure_timeout);
        assert_eq!(c.put_mode, PutMode::Quorum);
        let mscp = MusicConfig::builder().put_mode(PutMode::Lwt).build();
        assert_eq!(mscp.put_mode, PutMode::Lwt);
        assert_eq!(c.write_mode, WriteMode::Sync);
        assert_eq!(c.lease_window, None, "leasing is opt-in");
        let leased = MusicConfig::builder()
            .lease_window(SimDuration::from_secs(5))
            .build();
        assert_eq!(leased.lease_window, Some(SimDuration::from_secs(5)));
        assert!(leased.lease_window.unwrap() < leased.failure_timeout);
        assert_eq!(
            c.clock_epsilon,
            SimDuration::ZERO,
            "ε defaults to zero: strict pre-drift comparisons"
        );
        let eps = MusicConfig::builder()
            .clock_epsilon(SimDuration::from_millis(2))
            .build();
        assert_eq!(eps.clock_epsilon, SimDuration::from_millis(2));
        assert!(eps.clock_epsilon < eps.lease_window.unwrap_or(eps.failure_timeout));
        assert!(
            !c.contention.enabled,
            "contention adaptation is opt-in: default config is the pre-adaptive protocol"
        );
        let adaptive = MusicConfig::builder().adaptive().build();
        assert!(adaptive.contention.enabled);
        assert!(adaptive.contention.hot_exit_us < adaptive.contention.hot_enter_us);
    }

    #[test]
    fn write_mode_windows_are_positive() {
        assert_eq!(WriteMode::Sync.window(), 1);
        assert_eq!(WriteMode::Pipelined { window: 16 }.window(), 16);
        assert_eq!(WriteMode::Pipelined { window: 0 }.window(), 1);
        let pipelined = MusicConfig::builder()
            .write_mode(WriteMode::Pipelined { window: 8 })
            .build();
        assert!(pipelined.write_mode.is_pipelined());
        assert!(!WriteMode::Sync.is_pipelined());
    }

    #[test]
    fn no_lease_overrides_an_earlier_lease_window() {
        let chained = MusicConfig::builder()
            .lease_window(SimDuration::from_secs(5))
            .no_lease()
            .build();
        assert_eq!(chained.lease_window, None);
    }
}
