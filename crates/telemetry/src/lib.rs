//! # music-telemetry
//!
//! Structured protocol telemetry for the MUSIC reproduction:
//!
//! * a typed, causally-ordered **event log** ([`Event`], [`EventKind`]):
//!   every record carries the virtual timestamp, a monotone sequence
//!   number (a total order — the simulator is single-threaded, so the
//!   sequence *is* a causal order), the emitting node, and a trace id
//!   that groups the events of one client-visible operation across
//!   layers (MUSIC op → quorum store → Paxos LWT → network messages);
//! * a **metrics registry** ([`MetricsRegistry`]) of per-node / per-site /
//!   per-link counters and gauges, snapshot-able and JSON-exportable;
//! * a hierarchical **span layer** ([`span`]): every critical section
//!   becomes a tree of timed phase spans (enqueue LWT → head-wait →
//!   headship confirm → data ops → flush → release), with a
//!   well-formedness checker and a Chrome-trace-event export;
//! * one **checker** ([`OnlineChecker`]): the paper's Exclusivity and
//!   Latest-State properties (§IV, per-key rules in [`ecf`]) plus a
//!   lock-queue refinement layer ([`online`]), evaluated incrementally in
//!   O(live keys) memory. Attached to a recorder it checks the run *while
//!   it executes*; [`check_online`] replays a stored log through it, and
//!   [`check`] keeps only the ECF core of that replay;
//! * JSON-lines serialization of events and metric snapshots (hand
//!   rolled — no external JSON dependency), byte-stable across runs with
//!   the same seed.
//!
//! The crate sits *below* the simulator: it has no dependencies, so every
//! layer of the stack (including `music-simnet` itself) can emit into it.
//! Recording is **zero-perturbation**: the [`Recorder`] never consumes
//! randomness, spawns tasks, or touches timers — it only appends to an
//! in-memory log — so a seeded simulation produces the identical
//! virtual-time schedule with telemetry on or off.
//!
//! **One recording rule.** Only the [`Recorder`] knows its mode.
//! Instrumented layers call it unconditionally; each call keeps what the
//! mode asks for and drops the rest. [`Recorder::record`] takes the event
//! as a closure and builds it only when a log is captured or a checker is
//! attached, so a recorder that is off or metrics-only never builds an
//! event. A layer checks [`Recorder::is_on`] or [`Recorder::is_tracing`]
//! only to skip work the recorder cannot skip for it, such as setting a
//! task's trace or span tag.
//!
//! ## Quickstart
//!
//! ```
//! use music_telemetry::{EventKind, Recorder, Scope};
//!
//! let rec = Recorder::tracing();
//! let trace = rec.next_trace();
//! rec.record(10, trace, 0, || EventKind::LockGrant { key: "k".into(), lock_ref: 1 });
//! rec.count(Scope::Node(0), "lock_grants", 1);
//!
//! assert_eq!(rec.events().len(), 1);
//! assert_eq!(rec.metrics().get(Scope::Node(0), "lock_grants"), 1);
//! let report = music_telemetry::ecf::check(&rec.events());
//! assert!(report.ok());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ecf;
mod event;
mod json;
mod metrics;
pub mod online;
mod recorder;
pub mod span;

pub use ecf::{check, EcfReport};
pub use event::{to_json_lines, DropReason, Event, EventKind, LwtPhase, TraceId};
pub use metrics::{HistEntry, MetricEntry, MetricsRegistry, MetricsSnapshot, Scope};
pub use online::{check_online, OnlineChecker, OnlineConfig, OnlineReport};
pub use recorder::Recorder;
pub use span::{Span, SpanId, SpanPhase, SpanReport};

/// FNV-1a digest of a byte string — the value fingerprint carried by
/// critical-put/get events so the ECF checker can compare values without
/// storing them.
pub fn digest(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_stable_and_discriminating() {
        assert_eq!(digest(b"abc"), digest(b"abc"));
        assert_ne!(digest(b"abc"), digest(b"abd"));
        assert_ne!(digest(b""), digest(b"\0"));
    }
}
