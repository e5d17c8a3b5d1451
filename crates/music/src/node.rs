//! Real-socket deployment wiring for the `music-node` / `music-load`
//! binaries.
//!
//! A MUSIC replica is *two* replicated tables — the eventually consistent
//! data store and the sequentially consistent lock store — served by the
//! same set of storage nodes. Over the simulated network each table gets
//! its own `Network` port map; over TCP we instead multiplex both stores
//! onto **one socket per peer** by prefixing every request frame with a
//! single store-tag byte:
//!
//! * [`STORE_DATA`] (`0`) — the frame body is a
//!   `StoreReq<DataRow>` for the data table;
//! * [`STORE_LOCK`] (`1`) — the frame body is a
//!   `StoreReq<LockPartition>` for the lock table.
//!
//! [`TaggedTransport`] adds the byte on the client side;
//! [`serve_node_frame`] strips it on the server side and dispatches to the
//! right [`TableReplica`]. Because [`RemoteTable`]'s runtime *is* its
//! transport (`TableApi::Rt = T`), tagging also solves a type-level
//! problem: both stores' coordinators end up with the same runtime type
//! `TaggedTransport<TcpTransport>`, which is what
//! [`MusicReplica`]`<RT, D, L>` requires
//! (`D::Rt = L::Rt = RT`).
//!
//! The rest of the module is the small amount of plumbing the binaries
//! share: their usage lines ([`NODE_USAGE`], [`LOAD_USAGE`]), which declare
//! the flags [`crate::cli::Args`] reads, a `--peers "id=addr,id=addr"` list parser, and
//! [`remote_replica`] / [`remote_client`] which assemble the full client
//! stack over sockets.

use std::collections::HashMap;
use std::net::SocketAddr;

use music_lockstore::{LockPartition, LockStore};
use music_quorumstore::{serve_frame, DataRow, RemoteTable, TableConfig, TableReplica};
use music_runtime::{NativeRuntime, RequestFuture, Runtime, TcpTransport, Transport};
use music_simnet::net::NodeId;
use music_simnet::time::{SimDuration, SimTime};
use music_telemetry::Recorder;

use crate::cli::Args;
use crate::config::MusicConfig;
use crate::error::MusicError;
use crate::replica::MusicReplica;
use crate::stats::OpStats;
use crate::MusicClient;

/// Store tag for data-table frames.
pub const STORE_DATA: u8 = 0;
/// Store tag for lock-table frames.
pub const STORE_LOCK: u8 = 1;

/// Coordinator node ids handed to load clients start here: well above any
/// plausible storage-node id, and below the `2^20` ballot-proposer ceiling
/// of the quorum store's LWT path.
pub const CLIENT_ID_BASE: u32 = 1_000_000;

/// Highest node id accepted anywhere (exclusive): LWT ballots pack the
/// proposer id into 20 bits.
pub const MAX_NODE_ID: u32 = 1 << 20;

/// A [`Transport`] adapter that prefixes every request payload with a
/// store-tag byte, so two logical stores share one physical connection.
///
/// As a [`Runtime`] it delegates verbatim to the inner transport.
pub struct TaggedTransport<T> {
    inner: T,
    tag: u8,
}

impl<T: Transport> TaggedTransport<T> {
    /// Wraps `inner` for data-table traffic ([`STORE_DATA`]).
    pub fn data(inner: T) -> Self {
        TaggedTransport {
            inner,
            tag: STORE_DATA,
        }
    }

    /// Wraps `inner` for lock-table traffic ([`STORE_LOCK`]).
    pub fn lock(inner: T) -> Self {
        TaggedTransport {
            inner,
            tag: STORE_LOCK,
        }
    }

    /// The wrapped transport.
    pub fn inner(&self) -> &T {
        &self.inner
    }

    /// The tag byte this handle prefixes.
    pub fn tag(&self) -> u8 {
        self.tag
    }
}

impl<T: Clone> Clone for TaggedTransport<T> {
    fn clone(&self) -> Self {
        TaggedTransport {
            inner: self.inner.clone(),
            tag: self.tag,
        }
    }
}

impl<T> std::fmt::Debug for TaggedTransport<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TaggedTransport")
            .field("tag", &self.tag)
            .finish_non_exhaustive()
    }
}

impl<T: Runtime> Runtime for TaggedTransport<T> {
    type Sleep = T::Sleep;
    type JoinHandle<U: 'static> = T::JoinHandle<U>;

    fn now(&self) -> SimTime {
        self.inner.now()
    }
    fn sleep(&self, dur: SimDuration) -> Self::Sleep {
        self.inner.sleep(dur)
    }
    fn sleep_until(&self, deadline: SimTime) -> Self::Sleep {
        self.inner.sleep_until(deadline)
    }
    fn spawn<F>(&self, future: F) -> Self::JoinHandle<F::Output>
    where
        F: std::future::Future + 'static,
        F::Output: 'static,
    {
        self.inner.spawn(future)
    }
    fn trace(&self) -> u64 {
        self.inner.trace()
    }
    fn set_trace(&self, tag: u64) {
        self.inner.set_trace(tag)
    }
    fn span(&self) -> u64 {
        self.inner.span()
    }
    fn set_span(&self, tag: u64) {
        self.inner.set_span(tag)
    }
}

impl<T: Transport> Transport for TaggedTransport<T> {
    fn request(&self, from: NodeId, to: NodeId, payload: Vec<u8>) -> RequestFuture {
        let mut buf = Vec::with_capacity(payload.len() + 1);
        buf.push(self.tag);
        buf.extend_from_slice(&payload);
        self.inner.request(from, to, buf)
    }
}

/// Serves one multiplexed request frame: dispatches on the store-tag byte
/// to the matching table replica.
///
/// Unknown tags (and empty frames) yield an empty response — the same
/// containment [`serve_frame`] uses for undecodable bodies. No store reply
/// is empty (an acknowledgement is a tag byte), so the coordinator's decode
/// rejects it and retransmits.
pub fn serve_node_frame(
    data: &mut TableReplica<DataRow>,
    locks: &mut TableReplica<LockPartition>,
    raw: &[u8],
) -> Vec<u8> {
    match raw.split_first() {
        Some((&STORE_DATA, body)) => serve_frame(data, body),
        Some((&STORE_LOCK, body)) => serve_frame(locks, body),
        _ => Vec::new(),
    }
}

/// The transport a socket-backed MUSIC client stack runs on.
pub type NodeTransport = TaggedTransport<TcpTransport>;
/// Socket-backed data-table coordinator.
pub type RemoteDataTable = RemoteTable<DataRow, NodeTransport>;
/// Socket-backed lock-table coordinator.
pub type RemoteLockTable = RemoteTable<LockPartition, NodeTransport>;
/// A MUSIC replica handle whose stores fan out over real sockets.
pub type RemoteMusicReplica = MusicReplica<NodeTransport, RemoteDataTable, RemoteLockTable>;
/// A MUSIC client over socket-backed replicas.
pub type RemoteMusicClient = MusicClient<NodeTransport, RemoteDataTable, RemoteLockTable>;

/// Builds a socket-backed [`MusicReplica`] coordinating the storage nodes
/// in `peers` (a sorted `(id, addr)` list, e.g. from [`parse_peers`]).
///
/// `coordinator` names this client in RPC envelopes, ballot proposers, and
/// lock tokens — it must be unique per client and below [`MAX_NODE_ID`]
/// (use [`CLIENT_ID_BASE`]` + i`).
///
/// # Panics
///
/// Panics if `coordinator >= MAX_NODE_ID`, if `peers` is empty, or if
/// `rf` is zero or exceeds `peers.len()`.
pub fn remote_replica(
    rt: &NativeRuntime,
    coordinator: u32,
    peers: &[(u32, SocketAddr)],
    rf: usize,
    cfg: MusicConfig,
    recorder: Recorder,
) -> RemoteMusicReplica {
    assert!(
        coordinator < MAX_NODE_ID,
        "coordinator id {coordinator} exceeds the 20-bit ballot-proposer ceiling"
    );
    let addrs: HashMap<u32, SocketAddr> = peers.iter().copied().collect();
    let tcp = TcpTransport::new(rt.clone(), addrs);
    let data_t = TaggedTransport::data(tcp.clone());
    let lock_t = TaggedTransport::lock(tcp);
    let nodes: Vec<NodeId> = peers.iter().map(|&(id, _)| NodeId(id)).collect();
    let tcfg = TableConfig::default();
    let data = RemoteTable::new(
        data_t.clone(),
        nodes.clone(),
        rf,
        tcfg.clone(),
        recorder.clone(),
    );
    let locks = LockStore::from_table(RemoteTable::new(lock_t, nodes, rf, tcfg, recorder.clone()));
    // Site 0: the demo cluster is single-site; locality-based peeks are a
    // sim-experiment concern.
    MusicReplica::with_runtime(
        NodeId(coordinator),
        data_t,
        0,
        recorder,
        locks,
        data,
        cfg,
        OpStats::new(),
    )
}

/// Builds a single-replica [`MusicClient`] over [`remote_replica`].
///
/// # Errors
///
/// Propagates [`MusicError`] from client construction.
pub fn remote_client(
    rt: &NativeRuntime,
    coordinator: u32,
    peers: &[(u32, SocketAddr)],
    rf: usize,
    cfg: MusicConfig,
    recorder: Recorder,
) -> Result<RemoteMusicClient, MusicError> {
    let replica = remote_replica(rt, coordinator, peers, rf, cfg, recorder);
    let transport = replica.runtime().clone();
    MusicClient::new(transport, vec![replica])
}

/// Parses a `--peers` list: comma-separated `id=host:port` entries, e.g.
/// `1=127.0.0.1:7101,2=127.0.0.1:7102,3=127.0.0.1:7103`.
///
/// Entries are returned sorted by id; duplicate or out-of-range ids are
/// rejected.
///
/// # Errors
///
/// Returns a human-readable message naming the offending entry.
pub fn parse_peers(s: &str) -> Result<Vec<(u32, SocketAddr)>, String> {
    let mut peers = Vec::new();
    for entry in s.split(',') {
        let entry = entry.trim();
        if entry.is_empty() {
            continue;
        }
        let (id, addr) = entry
            .split_once('=')
            .ok_or_else(|| format!("peer entry `{entry}` is not `id=host:port`"))?;
        let id: u32 = id
            .trim()
            .parse()
            .map_err(|_| format!("peer id `{id}` is not a u32"))?;
        if id >= MAX_NODE_ID {
            return Err(format!("peer id {id} exceeds the 20-bit node-id ceiling"));
        }
        let addr: SocketAddr = addr
            .trim()
            .parse()
            .map_err(|_| format!("peer address `{addr}` is not host:port"))?;
        if peers.iter().any(|&(other, _)| other == id) {
            return Err(format!("duplicate peer id {id}"));
        }
        peers.push((id, addr));
    }
    if peers.is_empty() {
        return Err("peer list is empty".to_string());
    }
    peers.sort_by_key(|&(id, _)| id);
    Ok(peers)
}

/// `music-node`'s usage line: the flags it reads ([`crate::cli`]).
pub const NODE_USAGE: &str =
    "usage: music-node --id N --peers ID=HOST:PORT,... [--listen HOST:PORT] [--rf N]";

/// Configuration for one `music-node` storage server.
#[derive(Clone, Debug)]
pub struct NodeConfig {
    /// This node's id (must appear in `peers` if `listen` is omitted).
    pub id: u32,
    /// Address to bind the frame server on.
    pub listen: SocketAddr,
    /// The full cluster membership, sorted by id.
    pub peers: Vec<(u32, SocketAddr)>,
    /// Replication factor (defaults to the full peer count).
    pub rf: usize,
}

impl NodeConfig {
    /// Parses `music-node` arguments ([`NODE_USAGE`]). `--id` and
    /// `--peers` are required; `listen` defaults to this node's own entry
    /// in `peers`.
    ///
    /// # Errors
    ///
    /// Returns a usage-style message on undeclared flags, bad values, or
    /// missing required fields.
    pub fn from_args<I: IntoIterator<Item = String>>(args: I) -> Result<Self, String> {
        let args = Args::parse(args, NODE_USAGE, 0)?;
        let id: u32 = args.get("--id")?.ok_or("missing `--id`")?;
        if id >= MAX_NODE_ID {
            return Err(format!("node id {id} exceeds the 20-bit node-id ceiling"));
        }
        let peers = parse_peers(args.value("--peers").ok_or("missing `--peers`")?)?;
        let own = peers.iter().find(|p| p.0 == id).map(|p| p.1);
        let listen = args.get("--listen")?.or(own).ok_or_else(|| {
            format!("node {id} is not in the peer list and no --listen was given")
        })?;
        let rf = rf_in_range(args.get("--rf")?, &peers)?;
        Ok(NodeConfig {
            id,
            listen,
            peers,
            rf,
        })
    }
}

/// The replication factor `rf` (default: every peer), checked against the
/// peer count.
fn rf_in_range(rf: Option<usize>, peers: &[(u32, SocketAddr)]) -> Result<usize, String> {
    let rf = rf.unwrap_or(peers.len());
    if rf == 0 || rf > peers.len() {
        return Err(format!("rf {rf} out of range for {} peers", peers.len()));
    }
    Ok(rf)
}

/// `music-load`'s usage line: the flags it reads ([`crate::cli`]).
pub const LOAD_USAGE: &str = "\
usage: music-load --peers ID=HOST:PORT,... [--sections N] [--clients N]
       [--keys N] [--rf N] [--online-sample N] [--key-prefix P] [--retries K]
       [--peek local|quorum] [--zipf-theta F] [--flash-crowd]";

/// Configuration for the `music-load` driver.
#[derive(Clone, Debug)]
pub struct LoadConfig {
    /// Storage-node membership, sorted by id.
    pub peers: Vec<(u32, SocketAddr)>,
    /// Replication factor (defaults to the full peer count).
    pub rf: usize,
    /// Total critical sections to complete across all clients.
    pub sections: u64,
    /// Number of concurrent client tasks.
    pub clients: u32,
    /// Number of distinct counter keys the sections contend over.
    pub keys: u32,
    /// Streaming-checker key sampling: `0` disables the online checker;
    /// `N >= 1` checks keys whose digest is divisible by `N` (so `1`
    /// checks every key) in O(live keys) memory as the load runs.
    pub online_sample: u64,
    /// Counter-key prefix (`counter` by default). Distinct prefixes give
    /// repeated passes against one cluster fresh, independent counters.
    pub key_prefix: String,
    /// Transient-failure retries per section for the *safe* operations
    /// (enter, get, release). Puts are never retried by the driver: a
    /// timed-out put may have landed, and blindly re-entering to redo it
    /// would double-increment the counter.
    pub retries: u32,
    /// Peek quorum lock-queue heads instead of reading the key's primary
    /// replica (`--peek quorum`). Local peeks pin each key to one store
    /// node; a load that must survive a node crash needs quorum peeks.
    pub peek_quorum: bool,
    /// Zipfian skew for key selection (`--zipf-theta F`). `0` keeps the
    /// default uniform round-robin; higher values concentrate sections on
    /// the low-numbered keys (θ=1.2 is the paper's hotspot setting).
    pub zipf_theta: f64,
    /// Flash-crowd mode (`--flash-crowd`): the middle half of every
    /// client's section quota targets key 0, converging all clients on
    /// one hot key at once. The driver enables the contention-adaptive
    /// controller so the crowd is absorbed (combining, admission guard)
    /// instead of livelocking the enqueue LWTs.
    pub flash_crowd: bool,
}

impl LoadConfig {
    /// Parses `music-load` arguments ([`LOAD_USAGE`]); `--peers` is
    /// required.
    ///
    /// # Errors
    ///
    /// Returns a usage-style message on undeclared flags or bad values.
    pub fn from_args<I: IntoIterator<Item = String>>(args: I) -> Result<Self, String> {
        let args = Args::parse(args, LOAD_USAGE, 0)?;
        let peers = parse_peers(args.value("--peers").ok_or("missing `--peers`")?)?;
        let rf = rf_in_range(args.get("--rf")?, &peers)?;
        let sections = args.get("--sections")?.unwrap_or(100);
        let clients = args.get("--clients")?.unwrap_or(3);
        let keys = args.get("--keys")?.unwrap_or(4);
        if sections == 0 || clients == 0 || keys == 0 {
            return Err("--sections, --clients, and --keys must be positive".to_string());
        }
        let key_prefix = args.value("--key-prefix").unwrap_or("counter").to_string();
        if key_prefix.is_empty() {
            return Err("--key-prefix must be non-empty".to_string());
        }
        let peek_quorum = match args.value("--peek") {
            None | Some("local") => false,
            Some("quorum") => true,
            Some(other) => return Err(format!("`--peek` must be local or quorum, got `{other}`")),
        };
        let zipf_theta: f64 = args.get("--zipf-theta")?.unwrap_or(0.0);
        if !zipf_theta.is_finite() || zipf_theta < 0.0 {
            return Err(format!(
                "--zipf-theta `{zipf_theta}` must be finite and >= 0"
            ));
        }
        Ok(LoadConfig {
            peers,
            rf,
            sections,
            clients,
            keys,
            online_sample: args.get("--online-sample")?.unwrap_or(0),
            key_prefix,
            retries: args.get("--retries")?.unwrap_or(0),
            peek_quorum,
            zipf_theta,
            flash_crowd: args.switch("--flash-crowd"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use music_quorumstore::{Put, StoreReq, StoreResp, WriteStamp};
    use music_runtime::Wire;

    #[test]
    fn peers_parse_sorted_and_validated() {
        let peers = parse_peers("3=127.0.0.1:7103, 1=127.0.0.1:7101,2=127.0.0.1:7102").unwrap();
        assert_eq!(
            peers.iter().map(|&(id, _)| id).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
        assert!(parse_peers("1=127.0.0.1:7101,1=127.0.0.1:7102").is_err());
        assert!(parse_peers("x=127.0.0.1:7101").is_err());
        assert!(parse_peers("1=not-an-addr").is_err());
        assert!(parse_peers("").is_err());
        assert!(parse_peers("1048576=127.0.0.1:7101").is_err());
    }

    #[test]
    fn node_args_flags_override_defaults() {
        let cfg = NodeConfig::from_args(
            [
                "--id",
                "2",
                "--peers",
                "1=127.0.0.1:7101,2=127.0.0.1:7102,3=127.0.0.1:7103",
            ]
            .map(String::from),
        )
        .unwrap();
        assert_eq!(cfg.id, 2);
        assert_eq!(cfg.listen, "127.0.0.1:7102".parse().unwrap());
        assert_eq!(cfg.rf, 3);
        let err = |args: &[&str]| NodeConfig::from_args(args.iter().map(|s| s.to_string()));
        assert_eq!(err(&["--id", "1"]).unwrap_err(), "missing `--peers`");
        // A load flag, the retired `--config`, and a stray operand are each
        // refused by name.
        assert_eq!(
            err(&["--sections", "5"]).unwrap_err(),
            "unknown flag `--sections`"
        );
        assert_eq!(
            err(&["--config", "n.toml"]).unwrap_err(),
            "unknown flag `--config`"
        );
        assert_eq!(err(&["2"]).unwrap_err(), "unexpected operand `2`");
        assert_eq!(
            err(&["--id", "two"]).unwrap_err(),
            "`--id` needs N, got `two`"
        );
        assert!(err(&["--id", "1", "--peers", "1=127.0.0.1:7101", "--rf", "2"]).is_err());
    }

    #[test]
    fn load_args_defaults() {
        let cfg = LoadConfig::from_args(
            ["--peers", "1=127.0.0.1:7101", "--sections", "120"].map(String::from),
        )
        .unwrap();
        assert_eq!(cfg.sections, 120);
        assert_eq!(cfg.clients, 3);
        assert_eq!(cfg.keys, 4);
        assert_eq!(cfg.rf, 1);
        assert_eq!(cfg.online_sample, 0);
        assert_eq!(cfg.key_prefix, "counter");
        assert_eq!(cfg.retries, 0);
        assert!(!cfg.peek_quorum);
        assert_eq!(cfg.zipf_theta, 0.0);
        assert!(!cfg.flash_crowd);
        let err = |args: &[&str]| LoadConfig::from_args(args.iter().map(|s| s.to_string()));
        assert_eq!(err(&["--id", "1"]).unwrap_err(), "unknown flag `--id`");
        assert_eq!(err(&["--sections"]).unwrap_err(), "`--sections` needs N");
        assert_eq!(err(&["--sections", "5"]).unwrap_err(), "missing `--peers`");
        assert!(err(&["--peers", "1=127.0.0.1:7101", "--clients", "0"]).is_err());
    }

    #[test]
    fn load_args_contention_flags() {
        let cfg = LoadConfig::from_args(
            [
                "--peers",
                "1=127.0.0.1:7101",
                "--zipf-theta",
                "1.2",
                "--flash-crowd",
            ]
            .map(String::from),
        )
        .unwrap();
        assert_eq!(cfg.zipf_theta, 1.2);
        assert!(cfg.flash_crowd);
        assert!(LoadConfig::from_args(
            ["--peers", "1=127.0.0.1:7101", "--zipf-theta", "-1"].map(String::from)
        )
        .is_err());
        assert!(LoadConfig::from_args(
            ["--peers", "1=127.0.0.1:7101", "--zipf-theta", "NaN"].map(String::from)
        )
        .is_err());
    }

    #[test]
    fn load_args_online_and_retry_flags() {
        let cfg = LoadConfig::from_args(
            [
                "--peers",
                "1=127.0.0.1:7101",
                "--online-sample",
                "2",
                "--key-prefix",
                "kill9",
                "--retries",
                "5",
                "--peek",
                "quorum",
            ]
            .map(String::from),
        )
        .unwrap();
        assert_eq!(cfg.online_sample, 2);
        assert_eq!(cfg.key_prefix, "kill9");
        assert_eq!(cfg.retries, 5);
        assert!(cfg.peek_quorum);
        assert!(LoadConfig::from_args(
            ["--peers", "1=127.0.0.1:7101", "--peek", "eventual"].map(String::from)
        )
        .is_err());
        assert!(LoadConfig::from_args(
            ["--peers", "1=127.0.0.1:7101", "--key-prefix", ""].map(String::from)
        )
        .is_err());
    }

    #[test]
    fn undecodable_frames_are_never_acked() {
        let mut data = TableReplica::<DataRow>::default();
        let mut locks = TableReplica::<LockPartition>::default();
        let apply = StoreReq::<DataRow>::Apply {
            key: "k".into(),
            mutation: Put::value(Bytes::from_static(b"v")),
            stamp: WriteStamp::new(1),
        }
        .to_vec();
        let tagged = |tag: u8, body: &[u8]| [&[tag], body].concat();
        let bad_frames = [
            Vec::new(),
            // An unknown store tag, even in front of a well-formed body.
            tagged(9, &apply),
            // A known tag with an undecodable body.
            tagged(STORE_DATA, &[0xFF]),
            tagged(STORE_LOCK, &[0xFF]),
            tagged(STORE_DATA, &apply[..apply.len() - 1]),
        ];
        for frame in &bad_frames {
            let reply = serve_node_frame(&mut data, &mut locks, frame);
            assert!(
                StoreResp::<DataRow>::from_slice(&reply).is_err(),
                "frame {frame:?} drew a reply the coordinator would decode"
            );
        }
        assert_eq!(data.snapshot("k").value, None, "nothing was applied");
        // The intact frame is applied and acknowledged.
        let reply = serve_node_frame(&mut data, &mut locks, &tagged(STORE_DATA, &apply));
        assert!(matches!(
            StoreResp::<DataRow>::from_slice(&reply),
            Ok(StoreResp::Ack)
        ));
        assert!(data.snapshot("k").value.is_some());
    }
}
