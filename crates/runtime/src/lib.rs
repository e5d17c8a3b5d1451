//! # music-runtime — the sim/prod runtime split
//!
//! The MUSIC protocol crates (`music`, `music-quorumstore`,
//! `music-lockstore`) are generic over the [`Runtime`] trait defined here:
//! a clock, timers, task spawning, and per-task telemetry tags. Its one
//! implementation is the `music-simnet` executor, over either of two
//! clocks:
//!
//! * [`SimRuntime`] — `Sim`, the executor over virtual time, on which every
//!   test, nemesis schedule, and BENCH artifact runs byte-for-byte;
//! * [`NativeRuntime`] — the executor over a wall clock, paired with
//!   [`TcpTransport`] for length-prefixed frames over real sockets. (The
//!   workspace builds offline from vendored crates — no tokio.) Tasks,
//!   wakeups, timers and join handles are one code path on both runtimes;
//!   only the clock, and what an idle executor does, differ.
//!
//! [`Transport`] is the messaging sub-trait: typed request/response between
//! named nodes, implemented by [`SimTransport`] (payloads ride the
//! simulated network's latency/partition/loss machinery) and
//! [`TcpTransport`] (real sockets). The [`wire`] module holds the binary
//! codec message types implement to cross a socket. The [`breaker`] module
//! holds the circuit breaker that both the client's replica fail-over and
//! [`TcpTransport`] drive.
//!
//! ## Quickstart (native)
//!
//! ```
//! use music_runtime::prelude::*;
//! use std::collections::HashMap;
//!
//! // A server thread serving `double` at an OS-assigned port…
//! let server = TcpServer::bind("127.0.0.1:0".parse().unwrap()).unwrap();
//! let addr = server.local_addr();
//! let stop = server.shutdown_handle();
//! let t = std::thread::spawn(move || {
//!     let server_rt = NativeRuntime::new();
//!     let done = server.serve(&server_rt, |req| {
//!         let n = u64::from_slice(req).unwrap();
//!         (n * 2).to_vec()
//!     });
//!     server_rt.block_on(done);
//! });
//!
//! // …and a client runtime calling it over loopback.
//! let rt = NativeRuntime::new();
//! let transport = TcpTransport::new(rt.clone(), HashMap::from([(1, addr)]));
//! let t2 = transport.clone();
//! let doubled: u64 = rt
//!     .block_on(async move { call(&t2, NodeId(0), NodeId(1), &21u64).await })
//!     .unwrap();
//! assert_eq!(doubled, 42);
//! stop.shutdown();
//! t.join().unwrap();
//! ```

#![warn(missing_docs)]

pub mod breaker;
pub mod combinators;
pub mod native;
pub mod rt;
pub mod sim_transport;
pub mod tcp;
pub mod transport;
pub mod wire;

pub use combinators::{join_all, never, quorum, timeout, yield_now, Elapsed};
pub use native::NativeRuntime;
pub use rt::{RtJoinHandle, Runtime, SimRuntime};
pub use sim_transport::SimTransport;
pub use tcp::{TcpServer, TcpServerHandle, TcpTransport};
pub use transport::{call, call_reliable, RequestFuture, Transport, TransportError};
pub use wire::{Wire, WireError, WireReader};

/// Everything needed to write runtime-generic protocol code or drive a
/// native deployment.
pub mod prelude {
    pub use crate::combinators::{join_all, never, quorum, timeout, yield_now, Elapsed};
    pub use crate::native::NativeRuntime;
    pub use crate::rt::{RtJoinHandle, Runtime, SimRuntime};
    pub use crate::sim_transport::SimTransport;
    pub use crate::tcp::{TcpServer, TcpServerHandle, TcpTransport};
    pub use crate::transport::{call, call_reliable, Transport, TransportError};
    pub use crate::wire::{Wire, WireError, WireReader};
    pub use music_simnet::net::NodeId;
    pub use music_simnet::time::{SimDuration, SimTime};
}
