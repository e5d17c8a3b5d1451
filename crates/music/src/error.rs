//! MUSIC error and outcome types.

use std::fmt;

use music_quorumstore::StoreError;
use music_simnet::time::SimDuration;

/// Outcome of one `acquireLock` poll (§IV-A).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum AcquireOutcome {
    /// The caller's lockRef is first in the queue: the critical section has
    /// been entered (and the data store synchronized if needed).
    Acquired,
    /// The lockRef is not first yet — or the local lock-store replica has
    /// not caught up. Poll again.
    NotYet,
    /// The lockRef is below the queue head: the lock was forcibly released.
    /// "youAreNoLongerLockHolder".
    NoLongerHolder,
}

/// Errors from critical operations (`criticalPut` / `criticalGet`).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum CriticalError {
    /// The lockRef is not (visibly) first in the queue yet; retry shortly.
    /// For an actual lockholder this means the serving replica's local
    /// lock-store view is stale.
    NotYetHolder,
    /// The lock was forcibly released; the caller must abandon this
    /// critical section (§III-A).
    NoLongerHolder,
    /// The critical section exceeded the maximum duration `T`; the
    /// operation is rejected to keep `v2s` sound (§VI).
    Expired,
    /// The back-end store nacked (no quorum). Retry, possibly at a
    /// different MUSIC replica.
    Store(StoreError),
}

impl fmt::Display for CriticalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CriticalError::NotYetHolder => write!(f, "lock reference is not first in the queue"),
            CriticalError::NoLongerHolder => write!(f, "you are no longer the lock holder"),
            CriticalError::Expired => write!(f, "critical section exceeded its maximum duration"),
            CriticalError::Store(e) => write!(f, "back-end store unavailable: {e}"),
        }
    }
}

impl std::error::Error for CriticalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CriticalError::Store(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StoreError> for CriticalError {
    fn from(e: StoreError) -> Self {
        CriticalError::Store(e)
    }
}

/// How many per-attempt causes an [`AttemptTrail`] records verbatim;
/// attempts beyond the cap are still *counted*.
pub const ATTEMPT_TRAIL_CAP: usize = 8;

/// The per-attempt failure causes behind a [`MusicError::Unavailable`].
///
/// Every failed attempt is counted; the first [`ATTEMPT_TRAIL_CAP`]
/// causes are recorded verbatim (`Some(store_error)` for a store-level
/// nack, `None` for an attempt that failed without one — a holder view
/// that never caught up), and the most recent store-level cause is always
/// retained. `Copy`, so the error still fits in the critical section's
/// poison cell.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub struct AttemptTrail {
    causes: [Option<StoreError>; ATTEMPT_TRAIL_CAP],
    recorded: u8,
    attempts: u32,
    last: Option<StoreError>,
}

impl AttemptTrail {
    /// An empty trail (no attempts noted yet).
    pub fn new() -> Self {
        Self::default()
    }

    fn note_cause(&mut self, cause: Option<StoreError>) {
        self.attempts = self.attempts.saturating_add(1);
        if (self.recorded as usize) < ATTEMPT_TRAIL_CAP {
            self.causes[self.recorded as usize] = cause;
            self.recorded += 1;
        }
        if cause.is_some() {
            self.last = cause;
        }
    }

    /// Notes one failed attempt with a store-level cause.
    pub fn note(&mut self, e: StoreError) {
        self.note_cause(Some(e));
    }

    /// Notes one failed attempt without a store-level cause (e.g. a
    /// `NotYetHolder` poll that never converged).
    pub fn note_opaque(&mut self) {
        self.note_cause(None);
    }

    /// Total attempts noted (may exceed the number of recorded causes).
    pub fn attempts(&self) -> u32 {
        self.attempts
    }

    /// The recorded per-attempt causes, in attempt order (at most
    /// [`ATTEMPT_TRAIL_CAP`]).
    pub fn causes(&self) -> &[Option<StoreError>] {
        &self.causes[..self.recorded as usize]
    }

    /// The most recent store-level cause across *all* attempts.
    pub fn last(&self) -> Option<StoreError> {
        self.last
    }

    fn last_ref(&self) -> Option<&StoreError> {
        self.last.as_ref()
    }

    /// Whether no attempts were noted.
    pub fn is_empty(&self) -> bool {
        self.attempts == 0
    }
}

impl fmt::Display for AttemptTrail {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} attempts [", self.attempts)?;
        for (i, c) in self.causes().iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            match c {
                Some(e) => write!(f, "{}", e.code())?,
                None => write!(f, "staleView")?,
            }
        }
        if u32::from(self.recorded) < self.attempts {
            write!(f, ", …")?;
        }
        write!(f, "]")
    }
}

/// Client-level errors after the retry policy of §III-A has been applied.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum MusicError {
    /// Retries across MUSIC replicas exhausted without success; the client
    /// must not attempt further operations on this key in this critical
    /// section. Carries the cause of every failed attempt, so a nemesis
    /// failure is diagnosable from the error alone.
    Unavailable {
        /// Per-attempt causes, in attempt order.
        attempts: AttemptTrail,
    },
    /// The client was told it is no longer the lock holder.
    NoLongerHolder,
    /// The critical section expired (duration bound `T`).
    Expired,
    /// A client was constructed with an empty replica list.
    NoReplicas,
    /// `enter_many` was called with an empty key set.
    EmptyKeySet,
    /// A multi-key operation named a key that is not part of the held
    /// section.
    NotInSection,
    /// The admission guard fast-rejected the entry because the key's
    /// lock queue has reached the depth bound
    /// ([`crate::contention::MAX_QUEUE_DEPTH`]) — the
    /// graceful-degradation floor under a flash crowd. The client should
    /// back off for at least `retry_after` before re-trying; the
    /// suggestion grows with the observed excess depth.
    Overloaded {
        /// Suggested minimum back-off before re-attempting the entry.
        retry_after: SimDuration,
    },
}

impl MusicError {
    /// An [`MusicError::Unavailable`] with an empty attempt trail.
    pub fn unavailable() -> Self {
        MusicError::Unavailable {
            attempts: AttemptTrail::new(),
        }
    }

    /// The most recent underlying store error, if this is
    /// [`MusicError::Unavailable`] with one recorded.
    pub fn store_cause(&self) -> Option<StoreError> {
        match self {
            MusicError::Unavailable { attempts } => attempts.last(),
            _ => None,
        }
    }

    /// The per-attempt failure trail, if this is
    /// [`MusicError::Unavailable`].
    pub fn attempt_trail(&self) -> Option<&AttemptTrail> {
        match self {
            MusicError::Unavailable { attempts } => Some(attempts),
            _ => None,
        }
    }
}

impl fmt::Display for MusicError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MusicError::Unavailable { attempts } if attempts.is_empty() => {
                write!(f, "operation failed after retries at all replicas")
            }
            MusicError::Unavailable { attempts } => match attempts.last() {
                Some(e) => write!(
                    f,
                    "operation failed after retries at all replicas ({attempts}): {e}"
                ),
                None => write!(
                    f,
                    "operation failed after retries at all replicas ({attempts})"
                ),
            },
            MusicError::NoLongerHolder => write!(f, "you are no longer the lock holder"),
            MusicError::Expired => write!(f, "critical section exceeded its maximum duration"),
            MusicError::NoReplicas => write!(f, "a client needs at least one replica"),
            MusicError::EmptyKeySet => write!(f, "a multi-key section needs at least one key"),
            MusicError::NotInSection => write!(f, "key is not part of this critical section"),
            MusicError::Overloaded { retry_after } => write!(
                f,
                "lock queue is at its admission bound; retry after {} µs",
                retry_after.as_micros()
            ),
        }
    }
}

impl std::error::Error for MusicError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MusicError::Unavailable { attempts } => {
                attempts.last_ref().map(|e| e as &dyn std::error::Error)
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn critical_error_wraps_store_error() {
        let e: CriticalError = StoreError::Unavailable.into();
        assert_eq!(e, CriticalError::Store(StoreError::Unavailable));
        assert!(std::error::Error::source(&e).is_some());
    }

    #[test]
    fn displays_are_prose() {
        assert!(AcquireOutcome::Acquired == AcquireOutcome::Acquired);
        assert!(MusicError::NoLongerHolder.to_string().contains("no longer"));
        assert!(CriticalError::Expired
            .to_string()
            .contains("maximum duration"));
        assert!(MusicError::NotInSection.to_string().contains("not part"));
        let overloaded = MusicError::Overloaded {
            retry_after: SimDuration::from_micros(2_500),
        };
        assert!(overloaded.to_string().contains("admission bound"));
        assert!(overloaded.to_string().contains("2500"));
        assert!(MusicError::EmptyKeySet.to_string().contains("one key"));
        assert!(MusicError::NoReplicas.to_string().contains("one replica"));
    }

    #[test]
    fn unavailable_carries_the_last_store_error() {
        let plain = MusicError::unavailable();
        assert_eq!(plain.store_cause(), None);
        assert!(std::error::Error::source(&plain).is_none());
        let mut trail = AttemptTrail::new();
        trail.note(StoreError::Contention);
        let e = MusicError::Unavailable { attempts: trail };
        assert_eq!(e.store_cause(), Some(StoreError::Contention));
        assert!(e.to_string().contains("contention"));
        assert!(std::error::Error::source(&e).is_some());
    }

    #[test]
    fn attempt_trail_records_every_cause_in_order() {
        let mut trail = AttemptTrail::new();
        trail.note(StoreError::Unavailable);
        trail.note_opaque();
        trail.note(StoreError::Contention);
        assert_eq!(trail.attempts(), 3);
        assert_eq!(
            trail.causes(),
            &[
                Some(StoreError::Unavailable),
                None,
                Some(StoreError::Contention)
            ]
        );
        assert_eq!(trail.last(), Some(StoreError::Contention));
        let e = MusicError::Unavailable { attempts: trail };
        let msg = e.to_string();
        assert!(msg.contains("3 attempts"), "{msg}");
        assert!(msg.contains("unavailable, staleView, contention"), "{msg}");
    }

    #[test]
    fn attempt_trail_caps_recording_but_keeps_counting() {
        let mut trail = AttemptTrail::new();
        for _ in 0..ATTEMPT_TRAIL_CAP + 3 {
            trail.note(StoreError::Unavailable);
        }
        trail.note(StoreError::Contention);
        assert_eq!(trail.attempts() as usize, ATTEMPT_TRAIL_CAP + 4);
        assert_eq!(trail.causes().len(), ATTEMPT_TRAIL_CAP);
        assert_eq!(
            trail.last(),
            Some(StoreError::Contention),
            "last cause survives the cap"
        );
        assert!(trail.to_string().contains("…"), "overflow is visible");
    }
}
