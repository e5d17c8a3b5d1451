//! [`TableApi`]: the coordinator-facing store interface the MUSIC protocol
//! layers are generic over.
//!
//! The MUSIC replica and the lock store do not care *where* a table's
//! replicas live — they need quorum reads/writes, LWTs, and scans with the
//! paper's semantics. This trait captures exactly that surface. It has one
//! implementation, the [`Table`] coordinator, for every
//! [`ReplicaLink`]: [`ReplicatedTable`](crate::table::ReplicatedTable)
//! reaches in-process replicas over the deterministic simulated network,
//! [`RemoteTable`](crate::remote::RemoteTable) reaches `music-node`
//! processes through a [`Transport`](music_runtime::Transport) (real
//! sockets in production, the simulated transport in tests). Every method
//! is the inherent [`Table`] method of the same name.
//!
//! The associated [`TableApi::Rt`] runtime carries the clock, timers, and
//! spawner the protocol layer above uses for its own timeouts and
//! background tasks, so one type parameter pins both the store flavour and
//! the runtime flavour.

use std::fmt;

use music_runtime::Runtime;
use music_simnet::net::NodeId;
use music_telemetry::Recorder;

use crate::error::StoreError;
use crate::link::ReplicaLink;
use crate::partition::Partition;
use crate::stamp::WriteStamp;
use crate::table::{LwtOutcome, Table};

/// The coordinator-facing surface of a replicated table of `P` partitions.
///
/// Methods mirror [`Table`]'s inherent operations one-for-one; see those
/// for full semantics and failure modes. Implementations are cheap-to-clone
/// handles (like the stores they front).
#[allow(async_fn_in_trait)] // single-threaded runtimes: futures are !Send by design
pub trait TableApi<P: Partition>: Clone + fmt::Debug + 'static {
    /// The runtime this table's coordinator operations run on.
    type Rt: Runtime;

    /// The runtime handle (clock/timers/spawner) protocol layers share.
    fn rt(&self) -> &Self::Rt;

    /// The telemetry recorder operations report into.
    fn recorder(&self) -> Recorder;

    /// Eventual-consistency read (CL=ONE); see [`Table::read_one`].
    async fn read_one(&self, coord: NodeId, key: &str) -> Result<P::Snapshot, StoreError>;

    /// Quorum read (`dsGetQuorum`); see [`Table::read_quorum`].
    async fn read_quorum(&self, coord: NodeId, key: &str) -> Result<P::Snapshot, StoreError>;

    /// Eventual-consistency write (CL=ONE); see [`Table::write_one`].
    async fn write_one(
        &self,
        coord: NodeId,
        key: &str,
        mutation: P::Mutation,
        stamp: WriteStamp,
    ) -> Result<(), StoreError>;

    /// Quorum write (`dsPutQuorum`); see [`Table::write_quorum`].
    async fn write_quorum(
        &self,
        coord: NodeId,
        key: &str,
        mutation: P::Mutation,
        stamp: WriteStamp,
    ) -> Result<(), StoreError>;

    /// Starts a quorum write without awaiting it; see
    /// [`Table::write_quorum_spawned`].
    fn write_quorum_spawned(
        &self,
        coord: NodeId,
        key: &str,
        mutation: P::Mutation,
        stamp: WriteStamp,
    ) -> <Self::Rt as Runtime>::JoinHandle<Result<(), StoreError>>;

    /// Four-phase light-weight transaction; see [`Table::lwt`].
    async fn lwt(
        &self,
        coord: NodeId,
        key: &str,
        decide: impl FnMut(&P::Snapshot, WriteStamp) -> Option<(P::Mutation, WriteStamp)>,
    ) -> Result<LwtOutcome<P>, StoreError>;

    /// Sorted live keys at the nearest replica; see
    /// [`Table::list_keys_local`].
    async fn list_keys_local(&self, coord: NodeId) -> Result<Vec<String>, StoreError>;

    /// Range scan at the nearest replica; see [`Table::scan_local`].
    async fn scan_local<R: 'static>(
        &self,
        coord: NodeId,
        extract: impl Fn(&P) -> Option<R> + 'static,
    ) -> Result<Vec<(String, R)>, StoreError>;
}

impl<P: Partition, L: ReplicaLink<P>> TableApi<P> for Table<P, L> {
    type Rt = L::Rt;

    fn rt(&self) -> &L::Rt {
        self.link().rt()
    }

    fn recorder(&self) -> Recorder {
        self.link().recorder()
    }

    async fn read_one(&self, coord: NodeId, key: &str) -> Result<P::Snapshot, StoreError> {
        Table::read_one(self, coord, key).await
    }

    async fn read_quorum(&self, coord: NodeId, key: &str) -> Result<P::Snapshot, StoreError> {
        Table::read_quorum(self, coord, key).await
    }

    async fn write_one(
        &self,
        coord: NodeId,
        key: &str,
        mutation: P::Mutation,
        stamp: WriteStamp,
    ) -> Result<(), StoreError> {
        Table::write_one(self, coord, key, mutation, stamp).await
    }

    async fn write_quorum(
        &self,
        coord: NodeId,
        key: &str,
        mutation: P::Mutation,
        stamp: WriteStamp,
    ) -> Result<(), StoreError> {
        Table::write_quorum(self, coord, key, mutation, stamp).await
    }

    fn write_quorum_spawned(
        &self,
        coord: NodeId,
        key: &str,
        mutation: P::Mutation,
        stamp: WriteStamp,
    ) -> <L::Rt as Runtime>::JoinHandle<Result<(), StoreError>> {
        Table::write_quorum_spawned(self, coord, key, mutation, stamp)
    }

    async fn lwt(
        &self,
        coord: NodeId,
        key: &str,
        decide: impl FnMut(&P::Snapshot, WriteStamp) -> Option<(P::Mutation, WriteStamp)>,
    ) -> Result<LwtOutcome<P>, StoreError> {
        Table::lwt(self, coord, key, decide).await
    }

    async fn list_keys_local(&self, coord: NodeId) -> Result<Vec<String>, StoreError> {
        Table::list_keys_local(self, coord).await
    }

    async fn scan_local<R: 'static>(
        &self,
        coord: NodeId,
        extract: impl Fn(&P) -> Option<R> + 'static,
    ) -> Result<Vec<(String, R)>, StoreError> {
        Table::scan_local(self, coord, extract).await
    }
}
