//! MUSIC configuration knobs.

use music_simnet::time::SimDuration;

/// `δ`: how far above `v2s(lockRef, 0)` a `forcedRelease` stamps the
/// `synchFlag` (1 µs in the paper's production deployment, §IV-B).
pub const DELTA: SimDuration = SimDuration::from_micros(1);

/// Client-side polling interval while waiting in `acquireLock`: the base
/// of every jittered exponential back-off (§III-A's "standard back-off
/// mechanisms").
pub const ACQUIRE_POLL: SimDuration = SimDuration::from_millis(2);

/// Consecutive failures after which the client's fail-over skips a replica.
pub const BREAKER_THRESHOLD: u32 = 3;

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

/// Tunables of a MUSIC deployment. Build one as a struct literal over the
/// defaults:
///
/// ```
/// use music::config::{MusicConfig, PutMode, WriteMode};
/// use music_simnet::time::SimDuration;
///
/// let cfg = MusicConfig {
///     put_mode: PutMode::Lwt,
///     write_mode: WriteMode::Pipelined { window: 8 },
///     lease_window: Some(SimDuration::from_secs(5)),
///     ..MusicConfig::default()
/// };
/// assert_eq!(cfg.put_mode, PutMode::Lwt);
/// ```
#[derive(Clone, Debug)]
pub struct MusicConfig {
    /// `T`: the maximum duration of one critical section; bounds the time
    /// component of `v2s` and lets replicas reject expired holders (§VI).
    pub t_max: SimDuration,
    /// How many times a client retries a nacked operation (across MUSIC
    /// replicas) before giving up, per the failure semantics of §III-A.
    pub client_retries: u32,
    /// How long a queue head may sit unchanged before a MUSIC replica's
    /// failure detector presumes the holder dead and forcibly releases the
    /// lock. Deliberately imperfect: a slow-but-alive holder will be
    /// preempted (false failure detection, §IV-B).
    pub failure_timeout: SimDuration,
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
    pub adaptive: bool,
}

impl Default for MusicConfig {
    fn default() -> Self {
        MusicConfig {
            t_max: SimDuration::from_secs(600),
            client_retries: 8,
            failure_timeout: SimDuration::from_secs(30),
            breaker_cooldown: SimDuration::from_secs(1),
            put_mode: PutMode::Quorum,
            peek_mode: PeekMode::Local,
            write_mode: WriteMode::Sync,
            lease_window: None,
            clock_epsilon: SimDuration::ZERO,
            adaptive: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = MusicConfig::default();
        assert!(DELTA < c.t_max);
        assert!(ACQUIRE_POLL < c.failure_timeout);
        assert!(c.breaker_cooldown < c.failure_timeout);
        assert_eq!(c.put_mode, PutMode::Quorum);
        assert_eq!(c.write_mode, WriteMode::Sync);
        assert_eq!(c.lease_window, None, "leasing is opt-in");
        assert_eq!(
            c.clock_epsilon,
            SimDuration::ZERO,
            "ε defaults to zero: strict pre-drift comparisons"
        );
        assert!(
            !c.adaptive,
            "contention adaptation is opt-in: default config is the pre-adaptive protocol"
        );
        let leased = MusicConfig {
            lease_window: Some(SimDuration::from_secs(5)),
            clock_epsilon: SimDuration::from_millis(2),
            ..MusicConfig::default()
        };
        assert!(leased.lease_window.unwrap() < leased.failure_timeout);
        assert!(leased.clock_epsilon < leased.lease_window.unwrap());
    }

    #[test]
    fn write_mode_windows_are_positive() {
        assert_eq!(WriteMode::Sync.window(), 1);
        assert_eq!(WriteMode::Pipelined { window: 16 }.window(), 16);
        assert_eq!(WriteMode::Pipelined { window: 0 }.window(), 1);
        assert!(WriteMode::Pipelined { window: 8 }.is_pipelined());
        assert!(!WriteMode::Sync.is_pipelined());
    }
}
