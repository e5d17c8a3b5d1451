//! # music-simnet
//!
//! Deterministic discrete-event simulation substrate for the MUSIC
//! reproduction: a single-threaded virtual-time async executor
//! ([`executor::Sim`]), a WAN model with the paper's Table II latency
//! profiles ([`topology::LatencyProfile`], [`net::Network`]), failure
//! injection (crashes, partitions, loss), and measurement utilities
//! ([`metrics`]).
//!
//! The paper evaluates MUSIC on physical servers with NetEm-emulated WAN
//! latency; this crate substitutes a simulator whose two first-order
//! effects match that testbed: per-message propagation delay from an RTT
//! matrix, and per-node FIFO service queues that produce realistic
//! saturation/queueing behaviour. All higher layers (quorum store, Paxos,
//! Zab, Raft, MUSIC itself) run unmodified protocol logic on top.
//!
//! ## Quickstart
//!
//! ```
//! use music_simnet::prelude::*;
//!
//! let sim = Sim::new();
//! let net = Network::new(sim.clone(), LatencyProfile::one_us(), NetConfig::default(), 42);
//! let a = net.add_node(SiteId(0));
//! let b = net.add_node(SiteId(1));
//! let rtt = sim.block_on({
//!     let net = net.clone();
//!     async move {
//!         let t0 = net.sim().now();
//!         net.rpc(a, b, 64, || ((), 64)).await;
//!         net.sim().now() - t0
//!     }
//! });
//! // Ohio <-> N. California round trip, plus service costs.
//! assert!(rtt.as_millis() >= 53);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod combinators;
pub mod executor;
pub mod metrics;
pub mod net;
pub mod time;
pub mod topology;

/// Convenient glob import of the types almost every consumer needs.
pub mod prelude {
    pub use crate::clock::{DriftClock, DriftSpec};
    pub use crate::combinators::{join_all, never, quorum, timeout, yield_now, Elapsed};
    pub use crate::executor::{JoinHandle, Sim};
    pub use crate::metrics::Histogram;
    pub use crate::net::{NetConfig, Network, NodeId};
    pub use crate::time::{SimDuration, SimTime};
    pub use crate::topology::{LatencyProfile, SiteId};
}
