//! # music-lockstore
//!
//! The MUSIC **lock store**: a sequentially consistent, per-key queue of
//! *lock references*, replicated across sites (§III-B, §VI).
//!
//! Layout mirrors the paper's Cassandra lock table (Fig. 2): each key owns
//! a 64-bit `guard` counter whose increments mint per-key unique, increasing
//! lock references, plus one row per outstanding reference (with its
//! critical-section `startTime`). Every queue update flows through one
//! light-weight transaction (`music-quorumstore`'s 4-phase Paxos LWT), so
//! all replicas agree on the write order; `lsPeek` is an *eventual* read of
//! the closest replica — cheap enough to poll, and safe because MUSIC's
//! algorithms tolerate a stale peek (§IV-A).
//!
//! | Paper function | This crate |
//! |---|---|
//! | `lsGenerateAndEnqueue(key)` | [`LockStore::generate_and_enqueue`] |
//! | `lsPeek(key)` | [`LockStore::peek_local`] |
//! | `lsDequeue(key, lockRef)` | [`LockStore::dequeue`] |
//! | `startTime` column init | [`LockStore::set_start_time`] |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod partition;
pub mod store;

pub use partition::{LockEntry, LockMutation, LockPartition, LockRef};
pub use store::{EnqueueOutcome, EnqueueReq, LeaseRule, LockStore};
