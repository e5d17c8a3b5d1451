//! [`ReplicaLink`]: how one [`StoreReq`] reaches one replica and comes
//! back — the only part of the store the medium decides.
//!
//! The coordinator ([`crate::table::Table`]) is written once against this
//! trait. Two links exist:
//!
//! * [`SimLink`] holds every [`TableReplica`] in-process and reaches it over
//!   the simulated [`Network`]. Requests and replies are passed by move and
//!   never encoded; the network is charged the *modelled* sizes below.
//! * [`WireLink`] encodes each request, sends it over a [`Transport`] (TCP
//!   in `music-node` deployments, the simulated transport in tests), and
//!   decodes the reply; the transport accounts the *real* frame sizes.
//!
//! What the coordinator relies on from any link:
//!
//! * **Re-delivery is allowed.** [`ReplicaLink::call_reliable`] retransmits
//!   ([`RPC_ATTEMPTS`] tries, [`RPC_RETRY_AFTER`] apart), so a replica may
//!   serve one request more than once; every request is idempotent.
//! * **A silent replica parks.** `call_reliable` resolves only with a
//!   reply. A replica that stays unreachable — dropped messages on the
//!   simulator, a dead socket or an undecodable answer on the wire — leaves
//!   the future pending for ever, so quorum accounting sees the same thing
//!   on both media and the coordinator's `op_timeout` decides the outcome.
//! * **Single attempts may fail fast.** [`ReplicaLink::call`] and
//!   [`ReplicaLink::scan`] try once; the coordinator bounds them with
//!   `op_timeout` and reports any failure as `Unavailable`.

use std::cell::RefCell;
use std::marker::PhantomData;
use std::rc::Rc;

use music_runtime::{never, Runtime, Transport, Wire};
use music_simnet::executor::Sim;
use music_simnet::net::{Network, NodeId};
use music_simnet::time::SimDuration;
use music_telemetry::Recorder;

use crate::error::StoreError;
use crate::partition::{Partition, HEADER_BYTES};
use crate::replica::{StoreReq, StoreResp, TableReplica};

/// How many times a fan-out request is sent before the replica is written
/// off.
pub const RPC_ATTEMPTS: u32 = 10;

/// How long one fan-out attempt may take before the next is sent.
pub const RPC_RETRY_AFTER: SimDuration = SimDuration::from_secs(2);

/// Modelled size of one scanned row. A [`SimLink`] scan reply is charged
/// this for every live partition, whether the extractor kept its row or
/// not.
pub const SCAN_ROW_BYTES: usize = 32;

/// One replica as the coordinator names it: its index in the table's node
/// list and its node id.
pub type ReplicaAddr = (usize, NodeId);

/// The medium between a coordinator and its replicas. See the module docs
/// for what an implementation must guarantee.
#[allow(async_fn_in_trait)] // single-threaded runtimes: futures are !Send by design
pub trait ReplicaLink<P: Partition>: Clone + 'static {
    /// The runtime (clock, timers, spawner) requests run on.
    type Rt: Runtime;

    /// The runtime handle.
    fn rt(&self) -> &Self::Rt;

    /// The telemetry recorder coordinator operations report into.
    fn recorder(&self) -> Recorder;

    /// The CL=ONE target among `candidates` (non-empty, in placement
    /// order).
    fn pick_one(&self, coord: NodeId, candidates: &[ReplicaAddr]) -> ReplicaAddr;

    /// One fan-out leg: delivers `req` with retransmission and resolves
    /// with the reply, or never.
    async fn call_reliable(&self, coord: NodeId, to: ReplicaAddr, req: StoreReq<P>)
        -> StoreResp<P>;

    /// One single-attempt request.
    async fn call(
        &self,
        coord: NodeId,
        to: ReplicaAddr,
        req: StoreReq<P>,
    ) -> Result<StoreResp<P>, StoreError>;

    /// Single-attempt range scan: the rows `extract` keeps (`Some`) of
    /// every live partition at `to`, sorted by key.
    async fn scan<R: 'static>(
        &self,
        coord: NodeId,
        to: ReplicaAddr,
        extract: impl Fn(&P) -> Option<R> + 'static,
    ) -> Result<Vec<(String, R)>, StoreError>;
}

/// The simulator link: replicas held in-process, reached over the simulated
/// network.
#[derive(Clone)]
pub struct SimLink<P: Partition> {
    net: Network,
    replicas: Rc<Vec<RefCell<TableReplica<P>>>>,
}

impl<P: Partition> SimLink<P> {
    /// A link to `replicas` fresh, empty replicas on `net`.
    pub(crate) fn new(net: Network, replicas: usize) -> Self {
        SimLink {
            net,
            replicas: Rc::new((0..replicas).map(|_| RefCell::default()).collect()),
        }
    }

    /// The network requests travel over.
    pub fn net(&self) -> &Network {
        &self.net
    }

    /// Direct, network-free access to one replica's state.
    pub(crate) fn replica(&self, idx: usize) -> &RefCell<TableReplica<P>> {
        &self.replicas[idx]
    }

    /// Serves `req` at replica `idx` and sizes the reply for the bandwidth
    /// model — the handler the network runs on delivery.
    fn serve(&self, idx: usize, req: &StoreReq<P>) -> (StoreResp<P>, usize) {
        let resp = self.replicas[idx].borrow_mut().serve(req);
        let bytes = match &resp {
            StoreResp::Snapshot(s) => P::snapshot_bytes(s),
            StoreResp::Ack | StoreResp::Accepted(_) => HEADER_BYTES,
            StoreResp::Promise(reply) => {
                HEADER_BYTES
                    + reply
                        .in_progress
                        .as_ref()
                        .map_or(0, |(_, p)| P::mutation_bytes(&p.mutation))
            }
            StoreResp::Keys(keys) => HEADER_BYTES + keys.iter().map(|k| k.len() + 8).sum::<usize>(),
            StoreResp::Rows(rows) => HEADER_BYTES + rows.len() * SCAN_ROW_BYTES,
        };
        (resp, bytes)
    }
}

/// Modelled size of a request: the envelope, the key, and the mutation if
/// it carries one.
fn request_bytes<P: Partition>(req: &StoreReq<P>) -> usize {
    HEADER_BYTES
        + match req {
            StoreReq::Snapshot { key } | StoreReq::Prepare { key, .. } => key.len(),
            StoreReq::Apply { key, mutation, .. }
            | StoreReq::Accept { key, mutation, .. }
            | StoreReq::Commit { key, mutation, .. } => key.len() + P::mutation_bytes(mutation),
            StoreReq::ListKeys | StoreReq::Scan => 0,
        }
}

impl<P: Partition> ReplicaLink<P> for SimLink<P> {
    type Rt = Sim;

    fn rt(&self) -> &Sim {
        self.net.sim()
    }

    fn recorder(&self) -> Recorder {
        self.net.recorder()
    }

    /// The candidate nearest to `coord` by propagation delay (ties: lowest
    /// index).
    fn pick_one(&self, coord: NodeId, candidates: &[ReplicaAddr]) -> ReplicaAddr {
        *candidates
            .iter()
            .min_by_key(|&&(i, n)| (self.net.propagation(coord, n), i))
            .expect("at least one candidate")
    }

    async fn call_reliable(
        &self,
        coord: NodeId,
        (idx, node): ReplicaAddr,
        req: StoreReq<P>,
    ) -> StoreResp<P> {
        self.net
            .rpc_reliable(
                coord,
                node,
                request_bytes(&req),
                || self.serve(idx, &req),
                RPC_ATTEMPTS,
                RPC_RETRY_AFTER,
            )
            .await
    }

    async fn call(
        &self,
        coord: NodeId,
        (idx, node): ReplicaAddr,
        req: StoreReq<P>,
    ) -> Result<StoreResp<P>, StoreError> {
        let handler = || self.serve(idx, &req);
        Ok(self
            .net
            .rpc(coord, node, request_bytes(&req), handler)
            .await)
    }

    /// The extractor runs at the replica and drops `None` rows there; the
    /// reply is still charged one [`SCAN_ROW_BYTES`] per live partition.
    async fn scan<R: 'static>(
        &self,
        coord: NodeId,
        (idx, node): ReplicaAddr,
        extract: impl Fn(&P) -> Option<R> + 'static,
    ) -> Result<Vec<(String, R)>, StoreError> {
        let handler = || {
            let (rows, live) = self.replicas[idx].borrow().scan(extract);
            (rows, HEADER_BYTES + live * SCAN_ROW_BYTES)
        };
        Ok(self.net.rpc(coord, node, HEADER_BYTES, handler).await)
    }
}

/// The wire link: replicas hosted by other processes and reached through a
/// [`Transport`], every request and reply crossing it in [`Wire`] form.
#[derive(Clone)]
pub struct WireLink<P, T> {
    transport: T,
    recorder: Recorder,
    _partition: PhantomData<P>,
}

impl<P, T> WireLink<P, T> {
    pub(crate) fn new(transport: T, recorder: Recorder) -> Self {
        WireLink {
            transport,
            recorder,
            _partition: PhantomData,
        }
    }
}

impl<P, T> ReplicaLink<P> for WireLink<P, T>
where
    P: Partition + Wire,
    P::Mutation: Wire,
    P::Snapshot: Wire,
    T: Transport,
{
    type Rt = T;

    fn rt(&self) -> &T {
        &self.transport
    }

    fn recorder(&self) -> Recorder {
        self.recorder.clone()
    }

    /// A client has no latency oracle: the first candidate (the key's
    /// primary, or the first store node for scans).
    fn pick_one(&self, _coord: NodeId, candidates: &[ReplicaAddr]) -> ReplicaAddr {
        candidates[0]
    }

    async fn call_reliable(
        &self,
        coord: NodeId,
        (_, node): ReplicaAddr,
        req: StoreReq<P>,
    ) -> StoreResp<P> {
        let sent = music_runtime::call_reliable(
            &self.transport,
            coord,
            node,
            &req,
            RPC_ATTEMPTS,
            RPC_RETRY_AFTER,
        );
        match sent.await {
            Ok(resp) => resp,
            // Out of retries: behave like a silent replica.
            Err(_) => never().await,
        }
    }

    async fn call(
        &self,
        coord: NodeId,
        (_, node): ReplicaAddr,
        req: StoreReq<P>,
    ) -> Result<StoreResp<P>, StoreError> {
        music_runtime::call(&self.transport, coord, node, &req)
            .await
            .map_err(|_| StoreError::Unavailable)
    }

    /// The extractor cannot cross a socket: the replica ships whole
    /// partitions (as a real range query returns rows), and it runs and
    /// drops `None` rows here.
    async fn scan<R: 'static>(
        &self,
        coord: NodeId,
        to: ReplicaAddr,
        extract: impl Fn(&P) -> Option<R> + 'static,
    ) -> Result<Vec<(String, R)>, StoreError> {
        match self.call(coord, to, StoreReq::Scan).await? {
            StoreResp::Rows(rows) => Ok(rows
                .into_iter()
                .filter_map(|(k, p)| extract(&p).map(|r| (k, r)))
                .collect()),
            _ => Err(StoreError::Unavailable),
        }
    }
}
