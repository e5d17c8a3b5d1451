//! Periodic anti-entropy: a background daemon sweeping both back-end
//! stores and repairing replica divergence (the `nodetool repair` of a
//! production Cassandra deployment).
//!
//! The quorum paths stay correct without it — majorities always intersect —
//! but *local* reads (`lsPeek`, eventual `get`s) read one replica, and a
//! replica that missed propagation during a long partition would otherwise
//! serve a stale view until the next write touches the key. Production
//! deployments run repairs on a schedule; so does this daemon.

use std::cell::Cell;
use std::rc::Rc;

use music_simnet::time::SimDuration;
use music_telemetry::{EventKind, Scope};

use crate::replica::MusicReplica;

/// A periodic full-table repair task bound to one MUSIC replica.
#[derive(Clone, Debug)]
pub struct RepairDaemon {
    replica: MusicReplica,
    interval: SimDuration,
    running: Rc<Cell<bool>>,
    repaired: Rc<Cell<u64>>,
    sweeps: Rc<Cell<u64>>,
}

impl RepairDaemon {
    /// Creates a daemon sweeping every `interval`.
    pub fn new(replica: MusicReplica, interval: SimDuration) -> Self {
        RepairDaemon {
            replica,
            interval,
            running: Rc::new(Cell::new(false)),
            repaired: Rc::new(Cell::new(0)),
            sweeps: Rc::new(Cell::new(0)),
        }
    }

    /// Total keys repaired (data rows + lock partitions) so far.
    pub fn repaired(&self) -> u64 {
        self.repaired.get()
    }

    /// Completed sweeps.
    pub fn sweeps(&self) -> u64 {
        self.sweeps.get()
    }

    /// Stops the loop after its current sweep.
    pub fn stop(&self) {
        self.running.set(false);
    }

    /// One repair sweep over the data store and the lock store (also
    /// callable directly for deterministic tests).
    pub async fn sweep_once(&self) {
        let node = self.replica.node();
        let mut round = 0;
        if let Ok(n) = self.replica.data().repair_all(node).await {
            self.repaired.set(self.repaired.get() + n);
            round += n;
        }
        if let Ok(n) = self.replica.locks().table().repair_all(node).await {
            self.repaired.set(self.repaired.get() + n);
            round += n;
        }
        self.sweeps.set(self.sweeps.get() + 1);
        let (rec, sim) = (self.replica.recorder(), self.replica.data().net().sim());
        rec.count(Scope::Node(node.0), "repair_sweeps", 1);
        rec.count(Scope::Node(node.0), "keys_repaired", round);
        let event = || EventKind::RepairRound { repaired: round };
        rec.record(sim.now().as_micros(), sim.trace(), node.0, event);
    }

    /// Spawns the periodic sweep loop.
    pub fn spawn(&self) {
        if self.running.replace(true) {
            return; // already running
        }
        let this = self.clone();
        let sim = this.replica.data().net().sim().clone();
        let sim2 = sim.clone();
        sim.spawn(async move {
            while this.running.get() {
                this.sweep_once().await;
                sim2.sleep(this.interval).await;
            }
        });
    }
}
