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
//! [`MusicReplica`](crate::MusicReplica)`<RT, D, L>` requires
//! (`D::Rt = L::Rt = RT`).
//!
//! The rest of the module is the small amount of config plumbing the
//! binaries share: a TOML-subset config-file parser (`key = value` lines),
//! a `--peers "id=addr,id=addr"` list parser, and [`remote_replica`] /
//! [`remote_client`] which assemble the full client stack over sockets.

use std::collections::HashMap;
use std::net::SocketAddr;

use music_lockstore::{LockPartition, LockStore};
use music_quorumstore::{serve_frame, DataRow, RemoteTable, TableConfig, TableReplica};
use music_runtime::{NativeRuntime, RequestFuture, Runtime, TcpTransport, Transport};
use music_simnet::net::NodeId;
use music_simnet::time::{SimDuration, SimTime};
use music_telemetry::Recorder;

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

/// Parses the TOML subset the binaries accept for `--config` files:
/// `key = value` lines, `#` comments, optional double quotes around
/// values. No sections, arrays, or escapes — the config surface is four
/// scalar keys.
///
/// # Errors
///
/// Returns a message naming the first malformed line.
pub fn parse_config_text(text: &str) -> Result<Vec<(String, String)>, String> {
    let mut out = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (key, value) = line
            .split_once('=')
            .ok_or_else(|| format!("config line {}: expected `key = value`", idx + 1))?;
        let key = key.trim().to_string();
        let value = value.trim();
        let value = if let Some(rest) = value.strip_prefix('"') {
            let end = rest
                .find('"')
                .ok_or_else(|| format!("config line {}: unterminated quote", idx + 1))?;
            rest[..end].to_string()
        } else {
            let bare = value.split('#').next().unwrap_or("").trim();
            if bare.is_empty() {
                return Err(format!("config line {}: empty value", idx + 1));
            }
            bare.to_string()
        };
        out.push((key, value));
    }
    Ok(out)
}

/// Configuration for one `music-node` storage server, assembled from an
/// optional `--config` file plus flag overrides (flags win).
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
    /// Parses `music-node` arguments: `--config PATH`, `--id N`,
    /// `--listen HOST:PORT`, `--peers LIST`, `--rf N`. The config file is
    /// applied first, then flags override. `listen` defaults to this
    /// node's own entry in `peers`.
    ///
    /// # Errors
    ///
    /// Returns a usage-style message on unknown flags, unreadable config
    /// files, or missing required fields.
    pub fn from_args<I: IntoIterator<Item = String>>(args: I) -> Result<Self, String> {
        let mut id: Option<u32> = None;
        let mut listen: Option<SocketAddr> = None;
        let mut peers: Option<Vec<(u32, SocketAddr)>> = None;
        let mut rf: Option<usize> = None;

        let args: Vec<String> = args.into_iter().collect();
        // Pass 1: config file (so flags can override it regardless of
        // relative position on the command line).
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            if flag == "--config" {
                let path = it.next().ok_or("--config needs a path")?;
                let text = std::fs::read_to_string(path)
                    .map_err(|e| format!("cannot read config `{path}`: {e}"))?;
                for (key, value) in parse_config_text(&text)? {
                    match key.as_str() {
                        "id" => id = Some(parse_num(&key, &value)?),
                        "listen" => listen = Some(parse_addr(&key, &value)?),
                        "peers" => peers = Some(parse_peers(&value)?),
                        "rf" => rf = Some(parse_num(&key, &value)?),
                        other => return Err(format!("unknown config key `{other}`")),
                    }
                }
            }
        }
        // Pass 2: flag overrides.
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut take = || {
                it.next()
                    .map(String::as_str)
                    .ok_or_else(|| format!("{flag} needs a value"))
            };
            match flag.as_str() {
                "--config" => {
                    take()?;
                }
                "--id" => id = Some(parse_num(flag, take()?)?),
                "--listen" => listen = Some(parse_addr(flag, take()?)?),
                "--peers" => peers = Some(parse_peers(take()?)?),
                "--rf" => rf = Some(parse_num(flag, take()?)?),
                other => return Err(format!("unknown flag `{other}`")),
            }
        }

        let id = id.ok_or("missing `--id` (or `id` in the config file)")?;
        if id >= MAX_NODE_ID {
            return Err(format!("node id {id} exceeds the 20-bit node-id ceiling"));
        }
        let peers = peers.ok_or("missing `--peers` (or `peers` in the config file)")?;
        let listen = match listen {
            Some(a) => a,
            None => peers
                .iter()
                .find(|&&(pid, _)| pid == id)
                .map(|&(_, addr)| addr)
                .ok_or_else(|| {
                    format!("node {id} is not in the peer list and no --listen was given")
                })?,
        };
        let rf = rf.unwrap_or(peers.len());
        if rf == 0 || rf > peers.len() {
            return Err(format!("rf {rf} out of range for {} peers", peers.len()));
        }
        Ok(NodeConfig {
            id,
            listen,
            peers,
            rf,
        })
    }
}

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
    /// Parses `music-load` arguments: `--peers LIST`, `--rf N`,
    /// `--sections N`, `--clients N`, `--keys N`, `--online-sample N`,
    /// `--key-prefix P`, `--retries N`, `--peek local|quorum`,
    /// `--zipf-theta F`, `--flash-crowd`.
    ///
    /// # Errors
    ///
    /// Returns a usage-style message on unknown flags or bad values.
    pub fn from_args<I: IntoIterator<Item = String>>(args: I) -> Result<Self, String> {
        let mut peers: Option<Vec<(u32, SocketAddr)>> = None;
        let mut rf: Option<usize> = None;
        let mut sections: u64 = 100;
        let mut clients: u32 = 3;
        let mut keys: u32 = 4;
        let mut online_sample: u64 = 0;
        let mut key_prefix = String::from("counter");
        let mut retries: u32 = 0;
        let mut peek_quorum = false;
        let mut zipf_theta: f64 = 0.0;
        let mut flash_crowd = false;

        let args: Vec<String> = args.into_iter().collect();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut take = || {
                it.next()
                    .map(String::as_str)
                    .ok_or_else(|| format!("{flag} needs a value"))
            };
            match flag.as_str() {
                "--peers" => peers = Some(parse_peers(take()?)?),
                "--rf" => rf = Some(parse_num(flag, take()?)?),
                "--sections" => sections = parse_num(flag, take()?)?,
                "--clients" => clients = parse_num(flag, take()?)?,
                "--keys" => keys = parse_num(flag, take()?)?,
                "--online-sample" => online_sample = parse_num(flag, take()?)?,
                "--key-prefix" => key_prefix = take()?.to_string(),
                "--retries" => retries = parse_num(flag, take()?)?,
                "--zipf-theta" => zipf_theta = parse_num(flag, take()?)?,
                "--flash-crowd" => flash_crowd = true,
                "--peek" => {
                    peek_quorum = match take()? {
                        "local" => false,
                        "quorum" => true,
                        other => {
                            return Err(format!("`--peek` must be local or quorum, got `{other}`"))
                        }
                    }
                }
                other => return Err(format!("unknown flag `{other}`")),
            }
        }
        let peers = peers.ok_or("missing `--peers`")?;
        let rf = rf.unwrap_or(peers.len());
        if rf == 0 || rf > peers.len() {
            return Err(format!("rf {rf} out of range for {} peers", peers.len()));
        }
        if sections == 0 || clients == 0 || keys == 0 {
            return Err("--sections, --clients, and --keys must be positive".to_string());
        }
        if key_prefix.is_empty() {
            return Err("--key-prefix must be non-empty".to_string());
        }
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
            online_sample,
            key_prefix,
            retries,
            peek_quorum,
            zipf_theta,
            flash_crowd,
        })
    }
}

fn parse_num<N: std::str::FromStr>(what: &str, value: &str) -> Result<N, String> {
    value
        .trim()
        .parse()
        .map_err(|_| format!("`{what}` value `{value}` is not a number"))
}

fn parse_addr(what: &str, value: &str) -> Result<SocketAddr, String> {
    value
        .trim()
        .parse()
        .map_err(|_| format!("`{what}` value `{value}` is not host:port"))
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
    fn config_text_subset() {
        let kv = parse_config_text(
            "# cluster\nid = 2\nlisten = \"127.0.0.1:7102\"  # quoted\nrf = 3 # trailing\n",
        )
        .unwrap();
        assert_eq!(
            kv,
            vec![
                ("id".to_string(), "2".to_string()),
                ("listen".to_string(), "127.0.0.1:7102".to_string()),
                ("rf".to_string(), "3".to_string()),
            ]
        );
        assert!(parse_config_text("id 2").is_err());
        assert!(parse_config_text("id = \"2").is_err());
        assert!(parse_config_text("id = # nothing").is_err());
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
        assert!(NodeConfig::from_args(["--id".to_string(), "1".to_string()]).is_err());
        assert!(NodeConfig::from_args(["--bogus".to_string()]).is_err());
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
