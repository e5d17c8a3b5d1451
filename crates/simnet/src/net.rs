//! The simulated wide-area network: propagation delay, per-node service
//! queues, message loss, partitions, and crash injection.
//!
//! Nodes are registered at a [`SiteId`]; the one-way propagation delay
//! between two nodes is half the site-pair RTT of the active
//! [`LatencyProfile`]. On top of propagation the model charges *service
//! time* — a fixed per-message CPU cost plus a bandwidth-proportional cost —
//! serialized through a FIFO queue at both the sender and the receiver.
//! Service queues are what produce saturation and the consensus-leader
//! queueing effects the paper observes in Fig. 6: a ZooKeeper-style leader
//! funnels every proposal through one node's queue, while quorum writes
//! spread coordination across replicas.
//!
//! Failure injection:
//! * [`Network::set_link`] / [`Network::partition_site`] — drop traffic on
//!   selected node pairs (network partition),
//! * [`Network::set_link_one_way`] / [`Network::partition_direction`] —
//!   *asymmetric* cuts: one direction of a link (or site pair) drops
//!   while the reverse keeps flowing,
//! * [`Network::set_node_up`] — crash / recover a node,
//! * [`NetConfig::loss`] — iid message loss, adjustable at runtime with
//!   [`Network::set_loss`] (loss bursts),
//! * [`Network::set_service_multiplier`] — *gray failure*: a node that is
//!   up and reachable but services every message `k×` slower.
//!
//! A transmission that is lost, partitioned, or addressed to/from a dead
//! node **never completes** — exactly what the sender of a lost packet
//! observes. Callers recover with [`crate::combinators::timeout`].

use std::cell::RefCell;
use std::collections::HashSet;
use std::rc::Rc;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use music_telemetry::{DropReason, EventKind, Recorder, Scope};

use crate::combinators::never;
use crate::executor::Sim;
use crate::time::{SimDuration, SimTime};
use crate::topology::{LatencyProfile, SiteId};

/// Identifier of a simulated node (replica, server, or client endpoint).
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NodeId(pub u32);

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Tunable cost model of the network.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct NetConfig {
    /// Fixed CPU/service cost charged per message at sender and receiver.
    pub service_fixed: SimDuration,
    /// Node NIC/processing bandwidth, bytes per second, for the
    /// size-proportional part of the service cost.
    pub bandwidth_bytes_per_sec: u64,
    /// Independent probability that any message is lost in flight.
    pub loss: f64,
    /// Propagation jitter: each delay is multiplied by a uniform factor in
    /// `[1, 1 + jitter_frac]`.
    pub jitter_frac: f64,
}

impl Default for NetConfig {
    /// Defaults calibrated so a 3-node cluster sustains roughly the eventual
    /// write throughput Datastax reports for Cassandra (≈40 K op/s, §VIII-b):
    /// a 20 µs fixed cost and 1 GB/s of per-node bandwidth.
    fn default() -> Self {
        NetConfig {
            service_fixed: SimDuration::from_micros(20),
            bandwidth_bytes_per_sec: 1_000_000_000,
            loss: 0.0,
            jitter_frac: 0.0,
        }
    }
}

#[derive(Debug)]
struct NodeState {
    site: SiteId,
    up: bool,
    busy_until: SimTime,
    /// Gray-failure dial: every service reservation at this node is
    /// stretched by this factor (1.0 = healthy).
    service_mult: f64,
}

#[derive(Debug, Default)]
struct NetStats {
    messages: u64,
    bytes: u64,
    dropped: u64,
}

struct Inner {
    sim: Sim,
    profile: LatencyProfile,
    cfg: NetConfig,
    /// Live loss probability — starts at `cfg.loss`, adjustable at runtime
    /// for loss bursts.
    loss: std::cell::Cell<f64>,
    nodes: RefCell<Vec<NodeState>>,
    /// Ordered pairs (from, to) whose traffic is dropped.
    cut_links: RefCell<HashSet<(NodeId, NodeId)>>,
    rng: RefCell<SmallRng>,
    stats: RefCell<NetStats>,
    recorder: RefCell<Recorder>,
}

/// Handle to the simulated network. Cheap to clone.
#[derive(Clone)]
pub struct Network {
    inner: Rc<Inner>,
}

impl std::fmt::Debug for Network {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Network")
            .field("profile", &self.inner.profile.name())
            .field("nodes", &self.inner.nodes.borrow().len())
            .finish()
    }
}

impl Network {
    /// Creates a network over `profile` with the given cost model and RNG
    /// seed (loss and jitter are deterministic per seed).
    pub fn new(sim: Sim, profile: LatencyProfile, cfg: NetConfig, seed: u64) -> Self {
        assert!(
            (0.0..=1.0).contains(&cfg.loss),
            "loss must be a probability"
        );
        assert!(cfg.jitter_frac >= 0.0, "jitter must be non-negative");
        assert!(
            cfg.bandwidth_bytes_per_sec > 0,
            "bandwidth must be positive"
        );
        Network {
            inner: Rc::new(Inner {
                sim,
                profile,
                loss: std::cell::Cell::new(cfg.loss),
                cfg,
                nodes: RefCell::new(Vec::new()),
                cut_links: RefCell::new(HashSet::new()),
                rng: RefCell::new(SmallRng::seed_from_u64(seed)),
                stats: RefCell::new(NetStats::default()),
                recorder: RefCell::new(Recorder::off()),
            }),
        }
    }

    /// The simulation this network runs on.
    pub fn sim(&self) -> &Sim {
        &self.inner.sim
    }

    /// The active latency profile.
    pub fn profile(&self) -> &LatencyProfile {
        &self.inner.profile
    }

    /// Registers a node at `site` and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if `site` is outside the latency profile.
    pub fn add_node(&self, site: SiteId) -> NodeId {
        assert!(
            (site.0 as usize) < self.inner.profile.site_count(),
            "site {site} not in profile {}",
            self.inner.profile.name()
        );
        let mut nodes = self.inner.nodes.borrow_mut();
        nodes.push(NodeState {
            site,
            up: true,
            busy_until: SimTime::ZERO,
            service_mult: 1.0,
        });
        NodeId(nodes.len() as u32 - 1)
    }

    /// Number of registered nodes.
    pub fn node_count(&self) -> usize {
        self.inner.nodes.borrow().len()
    }

    /// The site a node lives at.
    pub fn site_of(&self, node: NodeId) -> SiteId {
        self.inner.nodes.borrow()[node.0 as usize].site
    }

    /// Whether the node is currently up.
    pub fn is_up(&self, node: NodeId) -> bool {
        self.inner.nodes.borrow()[node.0 as usize].up
    }

    /// Crashes (`false`) or recovers (`true`) a node. While down, all
    /// traffic to or from the node hangs.
    pub fn set_node_up(&self, node: NodeId, up: bool) {
        self.inner.nodes.borrow_mut()[node.0 as usize].up = up;
    }

    /// Cuts (`connected = false`) or heals the *bidirectional* link between
    /// two nodes.
    pub fn set_link(&self, a: NodeId, b: NodeId, connected: bool) {
        let mut cut = self.inner.cut_links.borrow_mut();
        if connected {
            cut.remove(&(a, b));
            cut.remove(&(b, a));
        } else {
            cut.insert((a, b));
            cut.insert((b, a));
        }
    }

    /// Cuts (`connected = false`) or heals only the `from → to` direction
    /// of a link. The reverse direction is untouched — the asymmetric
    /// (gray) partition in which A still hears B but B no longer hears A.
    pub fn set_link_one_way(&self, from: NodeId, to: NodeId, connected: bool) {
        let mut cut = self.inner.cut_links.borrow_mut();
        if connected {
            cut.remove(&(from, to));
        } else {
            cut.insert((from, to));
        }
    }

    /// Cuts (or heals) every `from-site → to-site` directed link: traffic
    /// from `from` never reaches `to`, while `to → from` keeps flowing.
    /// Intra-site traffic is untouched.
    pub fn partition_direction(&self, from: SiteId, to: SiteId, connected: bool) {
        let nodes = self.inner.nodes.borrow();
        let senders: Vec<NodeId> = (0..nodes.len() as u32)
            .map(NodeId)
            .filter(|n| nodes[n.0 as usize].site == from)
            .collect();
        let receivers: Vec<NodeId> = (0..nodes.len() as u32)
            .map(NodeId)
            .filter(|n| nodes[n.0 as usize].site == to)
            .collect();
        drop(nodes);
        for &s in &senders {
            for &r in &receivers {
                self.set_link_one_way(s, r, connected);
            }
        }
    }

    /// Sets a node's gray-failure service-time multiplier: every message
    /// serviced at `node` (sent or received) takes `mult ×` its healthy
    /// cost. `1.0` restores health; values above 1 model a slow-but-alive
    /// node — degraded disks, CPU steal, GC stalls — that no liveness
    /// check catches.
    ///
    /// # Panics
    ///
    /// Panics if `mult` is not finite and positive.
    pub fn set_service_multiplier(&self, node: NodeId, mult: f64) {
        assert!(
            mult.is_finite() && mult > 0.0,
            "service multiplier must be finite and positive"
        );
        self.inner.nodes.borrow_mut()[node.0 as usize].service_mult = mult;
    }

    /// The node's current gray-failure multiplier (1.0 = healthy).
    pub fn service_multiplier(&self, node: NodeId) -> f64 {
        self.inner.nodes.borrow()[node.0 as usize].service_mult
    }

    /// Changes the iid message-loss probability at runtime (loss bursts).
    ///
    /// # Panics
    ///
    /// Panics if `loss` is not a probability.
    pub fn set_loss(&self, loss: f64) {
        assert!((0.0..=1.0).contains(&loss), "loss must be a probability");
        self.inner.loss.set(loss);
    }

    /// The current iid message-loss probability.
    pub fn loss(&self) -> f64 {
        self.inner.loss.get()
    }

    /// Partitions an entire site from the rest of the network (or heals it
    /// when `isolated = false`). Intra-site traffic keeps flowing.
    pub fn partition_site(&self, site: SiteId, isolated: bool) {
        let nodes = self.inner.nodes.borrow();
        let members: Vec<NodeId> = (0..nodes.len() as u32)
            .map(NodeId)
            .filter(|n| nodes[n.0 as usize].site == site)
            .collect();
        let others: Vec<NodeId> = (0..nodes.len() as u32)
            .map(NodeId)
            .filter(|n| nodes[n.0 as usize].site != site)
            .collect();
        drop(nodes);
        for &m in &members {
            for &o in &others {
                self.set_link(m, o, !isolated);
            }
        }
    }

    /// One-way RTT-derived propagation delay between two nodes (no jitter,
    /// no queueing) — useful for tests and cost analysis.
    pub fn propagation(&self, from: NodeId, to: NodeId) -> SimDuration {
        if from == to {
            return SimDuration::ZERO;
        }
        let nodes = self.inner.nodes.borrow();
        let a = nodes[from.0 as usize].site.0 as usize;
        let b = nodes[to.0 as usize].site.0 as usize;
        self.inner.profile.one_way(a, b)
    }

    /// Total messages sent, bytes carried, and messages dropped so far.
    pub fn stats(&self) -> (u64, u64, u64) {
        let s = self.inner.stats.borrow();
        (s.messages, s.bytes, s.dropped)
    }

    /// Installs a telemetry recorder; all subsequent traffic emits events
    /// and counters into it. The default recorder is off.
    pub fn set_recorder(&self, recorder: Recorder) {
        *self.inner.recorder.borrow_mut() = recorder;
    }

    /// The currently installed telemetry recorder (clone of the handle).
    pub fn recorder(&self) -> Recorder {
        self.inner.recorder.borrow().clone()
    }

    fn service_time(&self, bytes: usize) -> SimDuration {
        let bw = self.inner.cfg.bandwidth_bytes_per_sec;
        let tx_us = (bytes as u64).saturating_mul(1_000_000) / bw;
        self.inner.cfg.service_fixed + SimDuration::from_micros(tx_us)
    }

    /// Reserves service at `node`'s FIFO queue starting no earlier than
    /// `earliest`, returning the completion instant. A gray-failed node
    /// stretches the service time by its multiplier.
    fn reserve(&self, node: NodeId, earliest: SimTime, service: SimDuration) -> SimTime {
        let (start, done) = {
            let mut nodes = self.inner.nodes.borrow_mut();
            let st = &mut nodes[node.0 as usize];
            let service = if st.service_mult != 1.0 {
                service.mul_f64(st.service_mult)
            } else {
                service
            };
            let start = earliest.max(st.busy_until);
            let done = start + service;
            st.busy_until = done;
            (start, done)
        };
        // Service-queue depth, expressed as the backlog this message waited
        // behind (high-water mark per node).
        self.inner.recorder.borrow().gauge_max(
            Scope::Node(node.0),
            "svc_backlog_us_max",
            (start - earliest).as_micros(),
        );
        done
    }

    /// Transmits `bytes` from `from` to `to`, resolving when the message has
    /// been fully serviced at the receiver (i.e. the receiver may now act on
    /// it).
    ///
    /// Never resolves if the message is lost, the link is cut, or either
    /// endpoint is down — use [`crate::combinators::timeout`] on top.
    pub async fn transmit(&self, from: NodeId, to: NodeId, bytes: usize) {
        {
            let mut stats = self.inner.stats.borrow_mut();
            stats.messages += 1;
            stats.bytes += bytes as u64;
        }
        self.telemetry_send(from, to, bytes);
        let lost = {
            let loss = self.inner.loss.get();
            let nodes = self.inner.nodes.borrow();
            let dead = !nodes[from.0 as usize].up || !nodes[to.0 as usize].up;
            let cut = self.inner.cut_links.borrow().contains(&(from, to));
            let unlucky = loss > 0.0 && self.inner.rng.borrow_mut().gen_bool(loss);
            if dead {
                Some(DropReason::EndpointDown)
            } else if cut {
                Some(DropReason::Cut)
            } else if unlucky {
                Some(DropReason::Loss)
            } else {
                None
            }
        };
        if let Some(reason) = lost {
            self.inner.stats.borrow_mut().dropped += 1;
            self.telemetry_drop(from, to, bytes, reason);
            return never().await;
        }

        let svc = self.service_time(bytes);
        // Sender serializes its own transmissions (NIC + syscall cost).
        // Reservations are always made at the *current* instant so that a
        // slow message can never retroactively delay earlier traffic.
        if from != to {
            let tx_done = self.reserve(from, self.inner.sim.now(), svc);
            self.inner.sim.sleep_until(tx_done).await;
        }
        let mut prop = self.propagation(from, to);
        if self.inner.cfg.jitter_frac > 0.0 {
            let f: f64 = self
                .inner
                .rng
                .borrow_mut()
                .gen_range(0.0..=self.inner.cfg.jitter_frac);
            prop = prop.mul_f64(1.0 + f);
        }
        self.inner.sim.sleep(prop).await;
        // Receiver services messages in FIFO arrival order.
        let rx_done = self.reserve(to, self.inner.sim.now(), svc);
        self.inner.sim.sleep_until(rx_done).await;
        // If the receiver crashed while the message was in flight, it never
        // processes it.
        if !self.is_up(to) {
            self.inner.stats.borrow_mut().dropped += 1;
            self.telemetry_drop(from, to, bytes, DropReason::ReceiverCrashed);
            return never().await;
        }
        self.telemetry_deliver(from, to, bytes);
    }

    /// Records `kind` at `node`, stamped with the virtual clock and the
    /// running task's trace tag.
    fn emit(&self, node: u32, kind: impl FnOnce() -> EventKind) {
        let sim = &self.inner.sim;
        let rec = self.inner.recorder.borrow();
        rec.record(sim.now().as_micros(), sim.trace(), node, kind);
    }

    fn telemetry_send(&self, from: NodeId, to: NodeId, bytes: usize) {
        let rec = self.inner.recorder.borrow();
        // Skips the `site_of` lookup, the one cost here the recorder
        // cannot skip itself.
        if !rec.is_on() {
            return;
        }
        rec.count(Scope::Node(from.0), "msgs_sent", 1);
        rec.count(Scope::Node(from.0), "bytes_sent", bytes as u64);
        rec.count(Scope::Site(self.site_of(from).0), "msgs_sent", 1);
        rec.count(Scope::Link(from.0, to.0), "msgs_sent", 1);
        rec.count(Scope::Link(from.0, to.0), "bytes_sent", bytes as u64);
        let (from, to, bytes) = (from.0, to.0, bytes as u64);
        self.emit(from, || EventKind::MsgSend { from, to, bytes });
    }

    fn telemetry_deliver(&self, from: NodeId, to: NodeId, bytes: usize) {
        let rec = self.inner.recorder.borrow();
        // As in `telemetry_send`: skips the `site_of` lookup.
        if !rec.is_on() {
            return;
        }
        rec.count(Scope::Node(to.0), "msgs_delivered", 1);
        rec.count(Scope::Site(self.site_of(to).0), "msgs_delivered", 1);
        rec.count(Scope::Link(from.0, to.0), "msgs_delivered", 1);
        let (from, to, bytes) = (from.0, to.0, bytes as u64);
        self.emit(to, || EventKind::MsgDeliver { from, to, bytes });
    }

    fn telemetry_drop(&self, from: NodeId, to: NodeId, bytes: usize, reason: DropReason) {
        let rec = self.inner.recorder.borrow();
        rec.count(Scope::Node(from.0), "msgs_dropped", 1);
        rec.count(Scope::Link(from.0, to.0), "msgs_dropped", 1);
        let (from, to, bytes) = (from.0, to.0, bytes as u64);
        self.emit(from, || EventKind::MsgDrop {
            from,
            to,
            bytes,
            reason,
        });
    }

    /// Round-trip helper: ship a request, run the (synchronous) server-side
    /// `handler` at the receiver, ship the response back. Resolves with the
    /// handler's output once the response has been serviced at `from`.
    ///
    /// The handler runs at the virtual instant the request is delivered; its
    /// returned tuple is `(response, response_bytes)`.
    pub async fn rpc<R>(
        &self,
        from: NodeId,
        to: NodeId,
        req_bytes: usize,
        handler: impl FnOnce() -> (R, usize),
    ) -> R {
        self.transmit(from, to, req_bytes).await;
        let (resp, resp_bytes) = handler();
        self.transmit(to, from, resp_bytes).await;
        resp
    }

    /// [`Network::rpc`] with bounded retransmission: each attempt is given
    /// `retry_after` to complete; lost attempts are re-sent up to
    /// `attempts` times. Models TCP retransmission plus hinted-handoff
    /// style redelivery, so transient partitions delay (rather than
    /// permanently drop) replica updates.
    ///
    /// The handler may run more than once (a response can be lost after
    /// the request was served), so it must be idempotent — true for all
    /// stamped LWW applications and Paxos message handlers.
    ///
    /// Never resolves if every attempt is lost; pair with a caller-side
    /// timeout when that matters.
    pub async fn rpc_reliable<R>(
        &self,
        from: NodeId,
        to: NodeId,
        req_bytes: usize,
        handler: impl Fn() -> (R, usize),
        attempts: u32,
        retry_after: SimDuration,
    ) -> R {
        for attempt in 0..attempts.max(1) {
            let last = attempt + 1 == attempts.max(1);
            let fut = self.rpc(from, to, req_bytes, &handler);
            if last {
                return fut.await;
            }
            match crate::combinators::timeout(&self.inner.sim, retry_after, fut).await {
                Ok(r) => return r,
                Err(_) => {
                    let (from, to) = (from.0, to.0);
                    let rec = self.inner.recorder.borrow();
                    rec.count(Scope::Node(from), "retransmits", 1);
                    self.emit(from, || EventKind::Retransmit { from, to, attempt });
                    continue;
                }
            }
        }
        unreachable!("loop returns on the last attempt")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::combinators::{timeout, Elapsed};

    fn quiet_cfg() -> NetConfig {
        NetConfig {
            service_fixed: SimDuration::ZERO,
            bandwidth_bytes_per_sec: u64::MAX / 2,
            loss: 0.0,
            jitter_frac: 0.0,
        }
    }

    fn three_site_net(cfg: NetConfig) -> (Sim, Network, Vec<NodeId>) {
        let sim = Sim::new();
        let net = Network::new(sim.clone(), LatencyProfile::one_us(), cfg, 42);
        let nodes = (0..3).map(|s| net.add_node(SiteId(s))).collect();
        (sim, net, nodes)
    }

    #[test]
    fn transmit_takes_one_way_latency() {
        let (sim, net, n) = three_site_net(quiet_cfg());
        let (a, c) = (n[0], n[2]);
        let t = sim.block_on({
            let net = net.clone();
            async move {
                net.transmit(a, c, 10).await;
                net.sim().now()
            }
        });
        // Ohio -> Oregon one-way = 72.14/2 ms.
        assert_eq!(t.as_micros(), 36_070);
    }

    #[test]
    fn rpc_takes_full_rtt() {
        let (sim, net, n) = three_site_net(quiet_cfg());
        let (a, b) = (n[0], n[1]);
        let t = sim.block_on({
            let net = net.clone();
            async move {
                let v = net.rpc(a, b, 10, || (5u32, 10)).await;
                assert_eq!(v, 5);
                net.sim().now()
            }
        });
        assert_eq!(t.as_micros(), 53_790);
    }

    #[test]
    fn self_transmit_is_free_of_propagation() {
        let (sim, net, n) = three_site_net(quiet_cfg());
        let a = n[0];
        let t = sim.block_on({
            let net = net.clone();
            async move {
                net.transmit(a, a, 10).await;
                net.sim().now()
            }
        });
        assert_eq!(t.as_micros(), 0);
    }

    #[test]
    fn service_queue_serializes_receiver() {
        let mut cfg = quiet_cfg();
        cfg.service_fixed = SimDuration::from_micros(100);
        let sim = Sim::new();
        let net = Network::new(sim.clone(), LatencyProfile::one_us(), cfg, 42);
        // Two senders co-located at site 0: their messages arrive at the
        // target simultaneously and must be serviced serially.
        let a = net.add_node(SiteId(0));
        let b = net.add_node(SiteId(0));
        let target = net.add_node(SiteId(2));
        // Two senders hit the same receiver at the same instant; receiver
        // services serially, so completions are 100us apart.
        let h1 = sim.spawn({
            let net = net.clone();
            async move {
                net.transmit(a, target, 0).await;
                net.sim().now()
            }
        });
        let h2 = sim.spawn({
            let net = net.clone();
            async move {
                net.transmit(b, target, 0).await;
                net.sim().now()
            }
        });
        sim.run();
        let t1 = h1.try_result().unwrap();
        let t2 = h2.try_result().unwrap();
        let (first, second) = if t1 < t2 { (t1, t2) } else { (t2, t1) };
        assert_eq!((second - first).as_micros(), 100);
    }

    #[test]
    fn bandwidth_charges_large_payloads() {
        let mut cfg = quiet_cfg();
        cfg.bandwidth_bytes_per_sec = 1_000_000; // 1 MB/s
        let (sim, net, n) = three_site_net(cfg);
        let (a, b) = (n[0], n[1]);
        let t = sim.block_on({
            let net = net.clone();
            async move {
                net.transmit(a, b, 500_000).await; // 0.5s at sender + 0.5s at receiver
                net.sim().now()
            }
        });
        // 0.5s tx + 26.895ms propagation + 0.5s rx
        assert_eq!(t.as_micros(), 500_000 + 26_895 + 500_000);
    }

    #[test]
    fn cut_link_hangs_transmissions() {
        let (sim, net, n) = three_site_net(quiet_cfg());
        let (a, b) = (n[0], n[1]);
        net.set_link(a, b, false);
        let out = sim.block_on({
            let net = net.clone();
            async move {
                let sim = net.sim().clone();
                timeout(&sim, SimDuration::from_millis(500), net.transmit(a, b, 1)).await
            }
        });
        assert_eq!(out, Err(Elapsed));
        // Heal and retry.
        net.set_link(a, b, true);
        let out = sim.block_on({
            let net = net.clone();
            async move {
                let sim = net.sim().clone();
                timeout(&sim, SimDuration::from_millis(500), net.transmit(a, b, 1)).await
            }
        });
        assert_eq!(out, Ok(()));
    }

    #[test]
    fn dead_node_receives_nothing() {
        let (sim, net, n) = three_site_net(quiet_cfg());
        let (a, b) = (n[0], n[1]);
        net.set_node_up(b, false);
        let out = sim.block_on({
            let net = net.clone();
            async move {
                let sim = net.sim().clone();
                timeout(&sim, SimDuration::from_millis(500), net.transmit(a, b, 1)).await
            }
        });
        assert_eq!(out, Err(Elapsed));
    }

    #[test]
    fn partition_site_cuts_wan_not_lan() {
        let sim = Sim::new();
        let net = Network::new(sim.clone(), LatencyProfile::one_us(), quiet_cfg(), 1);
        let a1 = net.add_node(SiteId(0));
        let a2 = net.add_node(SiteId(0));
        let b = net.add_node(SiteId(1));
        net.partition_site(SiteId(0), true);
        let (lan, wan) = sim.block_on({
            let net = net.clone();
            async move {
                let sim = net.sim().clone();
                let lan =
                    timeout(&sim, SimDuration::from_millis(100), net.transmit(a1, a2, 1)).await;
                let wan =
                    timeout(&sim, SimDuration::from_millis(100), net.transmit(a1, b, 1)).await;
                (lan, wan)
            }
        });
        assert_eq!(lan, Ok(()));
        assert_eq!(wan, Err(Elapsed));
    }

    #[test]
    fn loss_is_deterministic_per_seed() {
        let run = |seed: u64| -> u64 {
            let sim = Sim::new();
            let mut cfg = quiet_cfg();
            cfg.loss = 0.5;
            let net = Network::new(sim.clone(), LatencyProfile::one_l(), cfg, seed);
            let a = net.add_node(SiteId(0));
            let b = net.add_node(SiteId(1));
            for _ in 0..100 {
                let net2 = net.clone();
                sim.spawn(async move {
                    net2.transmit(a, b, 1).await;
                });
            }
            sim.run();
            net.stats().2
        };
        assert_eq!(run(7), run(7));
        // At 50% loss the count is binomially concentrated around 50.
        for seed in [7, 8, 9] {
            let dropped = run(seed);
            assert!(
                (20..=80).contains(&dropped),
                "seed {seed}: {dropped}/100 dropped"
            );
        }
    }

    /// The recorder's counters of one directed link: `(msgs_sent,
    /// msgs_delivered, msgs_dropped, bytes_sent)`.
    fn link_counters(
        snap: &music_telemetry::MetricsSnapshot,
        from: NodeId,
        to: NodeId,
    ) -> (u64, u64, u64, u64) {
        let get = |name| snap.get(Scope::Link(from.0, to.0), name);
        let sent = get("msgs_sent");
        (
            sent,
            get("msgs_delivered"),
            get("msgs_dropped"),
            get("bytes_sent"),
        )
    }

    #[test]
    fn link_counters_track_sent_delivered_bytes() {
        let (sim, net, n) = three_site_net(quiet_cfg());
        let (a, b) = (n[0], n[1]);
        let rec = Recorder::metrics_only();
        net.set_recorder(rec.clone());
        sim.block_on({
            let net = net.clone();
            async move {
                net.transmit(a, b, 100).await;
                net.transmit(a, b, 50).await;
                net.transmit(b, a, 10).await;
            }
        });
        let snap = rec.metrics();
        let (sent, delivered, dropped, bytes) = link_counters(&snap, a, b);
        assert_eq!(sent, 2);
        assert_eq!(delivered, 2);
        assert_eq!(dropped, 0);
        assert_eq!(bytes, 150);
        let (sent, delivered, _, bytes) = link_counters(&snap, b, a);
        assert_eq!((sent, delivered, bytes), (1, 1, 10));
        // Unused links report zeros; the snapshot lists only used links.
        assert_eq!(link_counters(&snap, a, n[2]), (0, 0, 0, 0));
        let links: Vec<Scope> = snap
            .entries
            .iter()
            .filter(|e| e.name == "msgs_sent" && matches!(e.scope, Scope::Link(..)))
            .map(|e| e.scope)
            .collect();
        assert_eq!(links.len(), 2);
        assert!(links[0] < links[1], "snapshot sorted by (from, to)");
    }

    #[test]
    fn link_counters_count_drops_per_link() {
        let (sim, net, n) = three_site_net(quiet_cfg());
        let (a, b, c) = (n[0], n[1], n[2]);
        let rec = Recorder::metrics_only();
        net.set_recorder(rec.clone());
        net.set_link(a, b, false);
        sim.block_on({
            let net = net.clone();
            async move {
                let sim = net.sim().clone();
                let _ = timeout(&sim, SimDuration::from_millis(10), net.transmit(a, b, 5)).await;
                let _ = timeout(&sim, SimDuration::from_secs(1), net.transmit(a, c, 5)).await;
            }
        });
        let snap = rec.metrics();
        let (sent, delivered, dropped, _) = link_counters(&snap, a, b);
        assert_eq!((sent, delivered, dropped), (1, 0, 1));
        let (sent, delivered, dropped, _) = link_counters(&snap, a, c);
        assert_eq!((sent, delivered, dropped), (1, 1, 0));
        // The aggregate counters agree with the per-link breakdown.
        let (messages, _, dropped) = net.stats();
        assert_eq!(messages, 2);
        assert_eq!(dropped, 1);
    }

    #[test]
    fn recorder_captures_net_events_and_counters() {
        use music_telemetry::{EventKind, Recorder, Scope};
        let (sim, net, n) = three_site_net(quiet_cfg());
        let (a, b) = (n[0], n[1]);
        let rec = Recorder::tracing();
        net.set_recorder(rec.clone());
        sim.block_on({
            let net = net.clone();
            async move {
                net.transmit(a, b, 64).await;
            }
        });
        let events = rec.events();
        assert_eq!(events.len(), 2);
        assert!(matches!(
            events[0].kind,
            EventKind::MsgSend { bytes: 64, .. }
        ));
        assert!(matches!(events[1].kind, EventKind::MsgDeliver { .. }));
        assert!(events[0].seq < events[1].seq);
        assert_eq!(events[1].at_us, 26_895, "delivery at one-way latency");
        let snap = rec.metrics();
        assert_eq!(snap.get(Scope::Node(a.0), "msgs_sent"), 1);
        assert_eq!(snap.get(Scope::Link(a.0, b.0), "bytes_sent"), 64);
        assert_eq!(snap.get(Scope::Node(b.0), "msgs_delivered"), 1);
    }

    #[test]
    #[should_panic(expected = "not in profile")]
    fn adding_node_at_unknown_site_panics() {
        let sim = Sim::new();
        let net = Network::new(sim, LatencyProfile::one_l(), NetConfig::default(), 0);
        net.add_node(SiteId(9));
    }

    #[test]
    fn net_config_and_times_are_serde_capable() {
        fn assert_serde<T: serde::Serialize + for<'de> serde::Deserialize<'de>>() {}
        assert_serde::<NetConfig>();
        assert_serde::<SimTime>();
        assert_serde::<SimDuration>();
    }

    #[test]
    fn rpc_reliable_retransmits_through_a_transient_cut() {
        let (sim, net, n) = three_site_net(quiet_cfg());
        let (a, b) = (n[0], n[1]);
        net.set_link(a, b, false);
        // Heal the link after 3 seconds (within the retry budget).
        {
            let net2 = net.clone();
            let sim2 = sim.clone();
            sim.spawn(async move {
                sim2.sleep(SimDuration::from_secs(3)).await;
                net2.set_link(a, b, true);
            });
        }
        let calls = Rc::new(std::cell::Cell::new(0u32));
        let calls2 = Rc::clone(&calls);
        let out = sim.block_on({
            let net = net.clone();
            async move {
                net.rpc_reliable(
                    a,
                    b,
                    16,
                    move || {
                        calls2.set(calls2.get() + 1);
                        (7u32, 16)
                    },
                    10,
                    SimDuration::from_secs(2),
                )
                .await
            }
        });
        assert_eq!(out, 7);
        assert_eq!(calls.get(), 1, "handler ran exactly once after healing");
    }

    #[test]
    fn one_way_cut_is_asymmetric() {
        let (sim, net, n) = three_site_net(quiet_cfg());
        let (a, b) = (n[0], n[1]);
        net.set_link_one_way(a, b, false);
        let (fwd, rev) = sim.block_on({
            let net = net.clone();
            async move {
                let sim = net.sim().clone();
                let fwd = timeout(&sim, SimDuration::from_millis(500), net.transmit(a, b, 1)).await;
                let rev = timeout(&sim, SimDuration::from_millis(500), net.transmit(b, a, 1)).await;
                (fwd, rev)
            }
        });
        assert_eq!(fwd, Err(Elapsed), "cut direction drops");
        assert_eq!(rev, Ok(()), "reverse direction still flows");
        // Healing the direction restores it.
        net.set_link_one_way(a, b, true);
        let fwd = sim.block_on({
            let net = net.clone();
            async move {
                let sim = net.sim().clone();
                timeout(&sim, SimDuration::from_millis(500), net.transmit(a, b, 1)).await
            }
        });
        assert_eq!(fwd, Ok(()));
    }

    #[test]
    fn bidirectional_heal_clears_one_way_cuts() {
        let (_sim, net, n) = three_site_net(quiet_cfg());
        let (a, b) = (n[0], n[1]);
        net.set_link_one_way(a, b, false);
        net.set_link(a, b, true); // full heal covers the directed cut
        assert!(!net.inner.cut_links.borrow().contains(&(a, b)));
    }

    #[test]
    fn partition_direction_cuts_site_pair_one_way() {
        let sim = Sim::new();
        let net = Network::new(sim.clone(), LatencyProfile::one_us(), quiet_cfg(), 1);
        let a1 = net.add_node(SiteId(0));
        let a2 = net.add_node(SiteId(0));
        let b = net.add_node(SiteId(1));
        let c = net.add_node(SiteId(2));
        net.partition_direction(SiteId(0), SiteId(1), false);
        let (fwd1, fwd2, rev, other) = sim.block_on({
            let net = net.clone();
            async move {
                let sim = net.sim().clone();
                let t = SimDuration::from_millis(500);
                let fwd1 = timeout(&sim, t, net.transmit(a1, b, 1)).await;
                let fwd2 = timeout(&sim, t, net.transmit(a2, b, 1)).await;
                let rev = timeout(&sim, t, net.transmit(b, a1, 1)).await;
                let other = timeout(&sim, t, net.transmit(a1, c, 1)).await;
                (fwd1, fwd2, rev, other)
            }
        });
        assert_eq!((fwd1, fwd2), (Err(Elapsed), Err(Elapsed)));
        assert_eq!(rev, Ok(()), "reverse site direction flows");
        assert_eq!(other, Ok(()), "unrelated site pair flows");
        net.partition_direction(SiteId(0), SiteId(1), true);
        let fwd = sim.block_on({
            let net = net.clone();
            async move {
                let sim = net.sim().clone();
                timeout(&sim, SimDuration::from_millis(500), net.transmit(a1, b, 1)).await
            }
        });
        assert_eq!(fwd, Ok(()));
    }

    #[test]
    fn gray_failure_stretches_service_time() {
        let mut cfg = quiet_cfg();
        cfg.service_fixed = SimDuration::from_micros(100);
        let sim = Sim::new();
        let net = Network::new(sim.clone(), LatencyProfile::one_us(), cfg, 42);
        let a = net.add_node(SiteId(0));
        let b = net.add_node(SiteId(1));
        assert_eq!(net.service_multiplier(b), 1.0);
        net.set_service_multiplier(b, 10.0);
        let t = sim.block_on({
            let net = net.clone();
            async move {
                net.transmit(a, b, 0).await;
                net.sim().now()
            }
        });
        // 100us tx at the healthy sender + one-way 26.895ms + 10×100us rx
        // at the gray receiver.
        assert_eq!(t.as_micros(), 100 + 26_895 + 1_000);
        // Healing restores the healthy cost.
        net.set_service_multiplier(b, 1.0);
        let t0 = sim.now();
        let t1 = sim.block_on({
            let net = net.clone();
            async move {
                net.transmit(a, b, 0).await;
                net.sim().now()
            }
        });
        assert_eq!((t1 - t0).as_micros(), 100 + 26_895 + 100);
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn zero_service_multiplier_panics() {
        let (_sim, net, n) = three_site_net(quiet_cfg());
        net.set_service_multiplier(n[0], 0.0);
    }

    #[test]
    fn loss_bursts_apply_and_heal() {
        let sim = Sim::new();
        let net = Network::new(sim.clone(), LatencyProfile::one_l(), quiet_cfg(), 7);
        let a = net.add_node(SiteId(0));
        let b = net.add_node(SiteId(1));
        assert_eq!(net.loss(), 0.0);
        net.set_loss(1.0);
        let during = sim.block_on({
            let net = net.clone();
            async move {
                let sim = net.sim().clone();
                timeout(&sim, SimDuration::from_millis(100), net.transmit(a, b, 1)).await
            }
        });
        assert_eq!(during, Err(Elapsed), "burst drops everything");
        net.set_loss(0.0);
        let after = sim.block_on({
            let net = net.clone();
            async move {
                let sim = net.sim().clone();
                timeout(&sim, SimDuration::from_millis(100), net.transmit(a, b, 1)).await
            }
        });
        assert_eq!(after, Ok(()), "healed burst delivers again");
    }

    #[test]
    fn rpc_reliable_gives_up_after_the_attempt_budget() {
        let (sim, net, n) = three_site_net(quiet_cfg());
        let (a, b) = (n[0], n[1]);
        net.set_link(a, b, false); // never healed
        let out = sim.block_on({
            let net = net.clone();
            let sim2 = sim.clone();
            async move {
                timeout(
                    &sim2,
                    SimDuration::from_secs(30),
                    net.rpc_reliable(a, b, 16, || ((), 16), 3, SimDuration::from_secs(2)),
                )
                .await
            }
        });
        // 3 attempts × 2s, then the last attempt hangs: outer timeout fires.
        assert_eq!(out, Err(Elapsed));
    }
}
