//! # music
//!
//! A reproduction of **MUSIC** (MUlti-SIte Critical Sections, ICDCS 2020):
//! a replicated key-value store whose keys can be read and written inside
//! *critical sections* with **entry consistency under failures (ECF)**:
//!
//! * **Exclusivity** — only the lockholder's `criticalPut`/`criticalGet`
//!   operations on a key succeed, even when a preempted former holder is
//!   still alive and writing (false failure detection).
//! * **Latest state** — a lockholder's `criticalGet` returns the *true
//!   value*: the most recent successfully acknowledged `criticalPut`
//!   (refined, when the previous holder died mid-put, to a value the
//!   system committed before granting the next lock).
//!
//! The store is layered exactly as the paper's implementation: a
//! sequentially consistent **lock store** (per-key lock-reference queues
//! updated through Paxos LWTs — `music-lockstore`) plus an eventually
//! consistent **data store** accessed with quorum operations
//! (`music-quorumstore`), glued together by vector timestamps folded into
//! scalar stamps via the order-preserving [`timestamp::V2s`] mapping and a
//! per-key `synchFlag` for post-failure resynchronization.
//!
//! ## Quickstart
//!
//! ```
//! use music::system::MusicSystemBuilder;
//! use music_simnet::prelude::*;
//! use bytes::Bytes;
//!
//! let system = MusicSystemBuilder::new().profile(LatencyProfile::one_us()).build();
//! let client = system.client_at_site(0);
//! let sim = system.sim().clone();
//! sim.block_on(async move {
//!     // Listing 1 of the paper:
//!     let cs = client.enter("counter").await?; // createLockRef + acquireLock
//!     let v1 = cs.get().await?;                // guaranteed true value
//!     let next = v1.map_or(1u64, |b| {
//!         u64::from_be_bytes(b.as_ref().try_into().unwrap()) + 1
//!     });
//!     cs.put(Bytes::copy_from_slice(&next.to_be_bytes())).await?;
//!     cs.release().await?;
//!     Ok::<(), music::MusicError>(())
//! }).unwrap();
//! ```
//!
//! Lower-level access (explicit lock references, per Table I of the paper)
//! is available on [`replica::MusicReplica`]; deployment wiring on
//! [`system::MusicSystemBuilder`]; failure detection on
//! [`watchdog::Watchdog`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backoff;
pub mod client;
pub mod config;
pub mod contention;
pub mod error;
pub mod health;
pub mod nemesis;
pub mod node;
pub mod repair;
pub mod replica;
pub mod stats;
pub mod system;
pub mod timestamp;
pub mod watchdog;

/// One-stop imports for embedding MUSIC: the client-facing surface plus
/// the runtime traits it is generic over.
///
/// ```
/// use music::prelude::*;
/// ```
///
/// Deployment wiring stays out: sim experiments import
/// [`system::MusicSystemBuilder`], socket deployments [`node`].
pub mod prelude {
    pub use crate::client::{CriticalSection, MultiCriticalSection, MusicClient};
    pub use crate::config::{MusicConfig, PeekMode, PutMode, WriteMode};
    pub use crate::contention::{ContentionController, Mode as ContentionMode};
    pub use crate::error::{AcquireOutcome, CriticalError, MusicError};
    pub use crate::replica::MusicReplica;
    pub use crate::stats::{OpKind, OpStats};
    pub use music_runtime::{RtJoinHandle, Runtime, SimRuntime, Transport};
}

pub use client::{CriticalSection, MultiCriticalSection, MusicClient};
pub use config::{MusicConfig, PeekMode, PutMode, WriteMode};
pub use contention::ContentionController;
pub use error::{AcquireOutcome, AttemptTrail, CriticalError, MusicError};
pub use health::ReplicaHealth;
pub use music_lockstore::LockRef;
pub use nemesis::{
    run_drift_unsafe_demo, run_nemesis, DriftDemo, DriftLane, NemesisOptions, NemesisRun, RunMode,
};
pub use repair::RepairDaemon;
pub use replica::{LeaseGrant, MusicReplica, PendingPut, PutIssued, PutReq, PutStamp};
pub use stats::{OpKind, OpStats};
pub use system::{ClockDrift, MusicSystem, MusicSystemBuilder};
pub use timestamp::{lease_breakable, lease_claimable, V2s, VectorTimestamp};
pub use watchdog::Watchdog;
