//! Lock-store behaviour over the simulated WAN: uniqueness and fairness of
//! lock references, peek staleness, and operation costs.

use music_lockstore::{EnqueueOutcome, EnqueueReq, LeaseRule, LockPartition, LockRef, LockStore};
use music_quorumstore::{Partition, TableConfig, HEADER_BYTES};
use music_simnet::prelude::*;

struct Fixture {
    sim: Sim,
    net: Network,
    locks: LockStore,
    stores: Vec<NodeId>,
    coords: Vec<NodeId>,
}

fn fixture() -> Fixture {
    let sim = Sim::new();
    let cfg = NetConfig {
        service_fixed: SimDuration::ZERO,
        bandwidth_bytes_per_sec: u64::MAX / 2,
        loss: 0.0,
        jitter_frac: 0.0,
    };
    let net = Network::new(sim.clone(), LatencyProfile::one_us(), cfg, 11);
    let stores: Vec<_> = (0..3).map(|s| net.add_node(SiteId(s))).collect();
    let coords: Vec<_> = (0..3).map(|s| net.add_node(SiteId(s))).collect();
    let locks = LockStore::new(net.clone(), stores.clone(), 3, TableConfig::default());
    Fixture {
        sim,
        net,
        locks,
        stores,
        coords,
    }
}

#[test]
fn references_are_unique_increasing_and_dense_per_key() {
    let f = fixture();
    let (locks, me) = (f.locks.clone(), f.coords[0]);
    f.sim.block_on(async move {
        let mut prev = LockRef::NONE;
        for i in 1..=5u64 {
            let r = locks.generate_and_enqueue(me, "k").await.unwrap();
            assert!(r > prev);
            assert_eq!(r.value(), i, "failure-free refs are dense");
            prev = r;
        }
        // Independent key has its own counter.
        let other = locks.generate_and_enqueue(me, "other").await.unwrap();
        assert_eq!(other, LockRef::new(1));
    });
}

#[test]
fn concurrent_enqueues_from_all_sites_stay_unique() {
    let f = fixture();
    let sim = f.sim.clone();
    let results = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
    for i in 0..9 {
        let locks = f.locks.clone();
        let coord = f.coords[i % 3];
        let results = std::rc::Rc::clone(&results);
        sim.spawn(async move {
            loop {
                match locks.generate_and_enqueue(coord, "contested").await {
                    Ok(r) => {
                        results.borrow_mut().push(r);
                        break;
                    }
                    Err(_) => continue, // client retries per §III-A
                }
            }
        });
    }
    sim.run();
    let mut refs = results.borrow().clone();
    assert_eq!(refs.len(), 9);
    refs.sort_unstable();
    refs.dedup();
    assert_eq!(refs.len(), 9, "lock references must be unique");
}

#[test]
fn peek_returns_queue_head_in_fifo_order() {
    let f = fixture();
    let (locks, me) = (f.locks.clone(), f.coords[0]);
    f.sim.block_on(async move {
        let r1 = locks.generate_and_enqueue(me, "k").await.unwrap();
        let r2 = locks.generate_and_enqueue(me, "k").await.unwrap();
        let (head, _) = locks.peek_local(me, "k").await.unwrap().unwrap();
        assert_eq!(head, r1);
        locks.dequeue(me, "k", r1).await.unwrap();
        let (head, _) = locks.peek_local(me, "k").await.unwrap().unwrap();
        assert_eq!(head, r2);
        locks.dequeue(me, "k", r2).await.unwrap();
        assert!(locks.peek_local(me, "k").await.unwrap().is_none());
    });
}

#[test]
fn losing_worker_can_evict_its_own_reference() {
    let f = fixture();
    let (locks, me) = (f.locks.clone(), f.coords[0]);
    f.sim.block_on(async move {
        let r1 = locks.generate_and_enqueue(me, "job").await.unwrap();
        let r2 = locks.generate_and_enqueue(me, "job").await.unwrap();
        // Worker holding r2 gives up (removeLockReference, §VII-a).
        locks.dequeue(me, "job", r2).await.unwrap();
        assert_eq!(locks.queue_local(me, "job").await.unwrap(), vec![r1]);
        // Dequeue of an absent ref is a successful no-op.
        locks.dequeue(me, "job", r2).await.unwrap();
    });
}

#[test]
fn remote_peek_is_eventually_consistent() {
    let f = fixture();
    let locks = f.locks.clone();
    let (ohio, frankfurt) = (f.coords[0], f.coords[2]);
    let locks2 = f.locks.clone();
    let sim = f.sim.clone();
    f.sim.block_on(async move {
        let r = locks.generate_and_enqueue(ohio, "k").await.unwrap();
        // The LWT committed at a quorum (Ohio + N.Cal). The Oregon replica
        // may not have the row yet; its local peek can be stale.
        let early = locks.peek_local(frankfurt, "k").await.unwrap();
        assert!(early.is_none() || early.unwrap().0 == r);
    });
    // After the background commit propagation drains, everyone agrees.
    sim.run();
    let head = sim.block_on(async move { locks2.peek_local(frankfurt, "k").await.unwrap() });
    assert_eq!(head.map(|(r, _)| r), Some(LockRef::new(1)));
}

#[test]
fn start_time_round_trips() {
    let f = fixture();
    let (locks, me, sim) = (f.locks.clone(), f.coords[0], f.sim.clone());
    f.sim.block_on(async move {
        let r = locks.generate_and_enqueue(me, "k").await.unwrap();
        let granted_at = sim.now();
        locks.set_start_time(me, "k", r, granted_at).await.unwrap();
        let (head, entry) = locks.peek_quorum(me, "k").await.unwrap().unwrap();
        assert_eq!(head, r);
        assert_eq!(entry.start_time, Some(granted_at));
    });
}

#[test]
fn scan_heads_sweeps_all_keys_in_one_call() {
    let f = fixture();
    let (locks, me) = (f.locks.clone(), f.coords[0]);
    let locks2 = f.locks.clone();
    f.sim.block_on(async move {
        for key in ["job-b", "job-a", "job-c"] {
            locks.generate_and_enqueue(me, key).await.unwrap();
        }
        // job-c's queue emptied again: must not appear in the sweep.
        let r = locks.peek_quorum(me, "job-c").await.unwrap().unwrap().0;
        locks.dequeue(me, "job-c", r).await.unwrap();
    });
    f.sim.run();
    let heads = f
        .sim
        .block_on(async move { locks2.scan_heads(f.coords[0]).await.unwrap() });
    let keys: Vec<&str> = heads.iter().map(|(k, _, _)| k.as_str()).collect();
    assert_eq!(keys, vec!["job-a", "job-b"]);
    for (_, r, _) in &heads {
        assert_eq!(*r, LockRef::new(1));
    }
}

#[test]
fn enqueue_costs_four_rtts_and_peek_is_local() {
    let f = fixture();
    let (locks, me, sim) = (f.locks.clone(), f.coords[0], f.sim.clone());
    let (enqueue, peek) = f.sim.block_on(async move {
        let t0 = sim.now();
        locks.generate_and_enqueue(me, "k").await.unwrap();
        let enqueue = sim.now() - t0;
        let t0 = sim.now();
        locks.peek_local(me, "k").await.unwrap();
        let peek = sim.now() - t0;
        (enqueue, peek)
    });
    // LWT = 4 × quorum RTT (Ohio–N.Cal 53.79ms) ≈ the paper's 219-230ms
    // for createLockRef on the 1Us profile (Fig. 5(b)).
    assert_eq!(enqueue.as_micros(), 4 * 53_790);
    // Peek = intra-site round trip ≈ the paper's ~0.67ms local peek.
    assert_eq!(peek.as_micros(), 200);
}

/// Messages and bytes on the network per enqueue → quorum peek → dequeue
/// cycle, over `cycles` cycles on one key.
fn cost_per_cycle(cycles: u64) -> (f64, f64) {
    let f = fixture();
    let (locks, me) = (f.locks.clone(), f.coords[0]);
    f.sim.block_on(async move {
        for _ in 0..cycles {
            let r = locks.generate_and_enqueue(me, "k").await.unwrap();
            let (head, _) = locks.peek_quorum(me, "k").await.unwrap().unwrap();
            assert_eq!(head, r);
            locks.dequeue(me, "k", r).await.unwrap();
        }
    });
    f.sim.run();
    let (msgs, bytes, _) = f.net.stats();
    (msgs as f64 / cycles as f64, bytes as f64 / cycles as f64)
}

#[test]
fn cycle_cost_does_not_grow_with_the_keys_age() {
    // Every reference this key has ever collected is one watermark, so
    // the thousandth section ships what the first did.
    let (young_msgs, young_bytes) = cost_per_cycle(100);
    let (old_msgs, old_bytes) = cost_per_cycle(1_000);
    for (what, young, old) in [
        ("messages", young_msgs, old_msgs),
        ("bytes", young_bytes, old_bytes),
    ] {
        assert!(
            (old / young - 1.0).abs() <= 0.05,
            "{what} per cycle: {young:.1} at 100 cycles, {old:.1} at 1 000"
        );
    }
}

/// Rows one replica holds for `key` (its snapshot minus the fixed header).
fn rows_at(locks: &LockStore, replica: usize, key: &str) -> usize {
    let bytes = LockPartition::snapshot_bytes(&locks.table().peek_replica(replica, key));
    (bytes - HEADER_BYTES - 16) / 24
}

/// `cycles` enqueue → dequeue cycles on `key`, coordinated round-robin
/// from `coords`.
async fn cycle(locks: &LockStore, coords: &[NodeId], key: &str, cycles: usize) {
    for i in 0..cycles {
        let me = coords[i % coords.len()];
        let r = locks.generate_and_enqueue(me, key).await.unwrap();
        locks.dequeue(me, key, r).await.unwrap();
    }
}

/// Takes store replica 2 down for the whole life of 100 references (and
/// past the retransmission window), so it misses every enqueue and dequeue
/// of them, brings it back, then runs 100 more cycles coordinated from the
/// sites in `sites`.
fn lagging_replica_after(sites: &[usize]) -> Fixture {
    let f = fixture();
    let (locks, sim, net, lagging) = (f.locks.clone(), f.sim.clone(), f.net.clone(), f.stores[2]);
    let coords: Vec<NodeId> = sites.iter().map(|&s| f.coords[s]).collect();
    let me = f.coords[0];
    f.sim.block_on(async move {
        net.set_node_up(lagging, false);
        cycle(&locks, &[me], "k", 100).await;
        sim.sleep(SimDuration::from_secs(30)).await;
        net.set_node_up(lagging, true);
        assert_eq!(rows_at(&locks, 2, "k"), 0, "the replica saw none of it");
        cycle(&locks, &coords, "k", 100).await;
    });
    f.sim.run();
    f
}

#[test]
fn a_lagging_replica_catches_up_through_lock_lwt_read_repair() {
    // The healed replica's watermark stops at reference 1, which it never
    // saw, so every later collection would stay a tombstone row there. A
    // lock LWT coordinated at its site reads it in the quorum, finds it
    // diverged, and read repair raises its watermark: the snapshot shrinks
    // back to the live queue without an explicit repair sweep.
    let f = lagging_replica_after(&[0, 1, 2]);
    for replica in 0..3 {
        assert_eq!(rows_at(&f.locks, replica, "k"), 0, "replica {replica}");
    }
    assert!(f.locks.table().converged("k"));
}

#[test]
fn a_replica_no_quorum_read_reaches_needs_a_repair_sweep() {
    // With every LWT coordinated at site 0, the lagging replica is never
    // among the first two to answer, so no read repair reaches it: it keeps
    // one tombstone per later collection until a repair sweep (the repair
    // daemon's job) raises its watermark.
    let f = lagging_replica_after(&[0]);
    assert_eq!(rows_at(&f.locks, 2, "k"), 100);
    let (locks, me) = (f.locks.clone(), f.coords[0]);
    f.sim
        .block_on(async move { locks.table().repair_key(me, "k").await.unwrap() });
    f.sim.run();
    assert_eq!(rows_at(&f.locks, 2, "k"), 0, "one sweep restores the bound");
    assert!(f.locks.table().converged("k"));
}

#[test]
fn interleaved_enqueue_dequeue_from_three_sites_stays_monotone() {
    // Three workers (one per site) hammer one key: enqueue, poll the local
    // replica until at the head, dequeue, repeat. Every worker's observed
    // head sequence must be non-decreasing (a queue never goes backwards
    // at any single replica), minted references globally unique, and the
    // whole dance must drain (no deadlock, no lost dequeue).
    let f = fixture();
    let sim = f.sim.clone();
    let minted = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
    let drained = std::rc::Rc::new(std::cell::Cell::new(0u32));
    for w in 0..3usize {
        let locks = f.locks.clone();
        let coord = f.coords[w];
        let minted = std::rc::Rc::clone(&minted);
        let drained = std::rc::Rc::clone(&drained);
        let sim2 = sim.clone();
        sim.spawn(async move {
            let mut last_head = LockRef::NONE;
            for _ in 0..3 {
                let r = loop {
                    match locks.generate_and_enqueue(coord, "hot").await {
                        Ok(r) => break r,
                        Err(_) => continue, // ballot race: client retries
                    }
                };
                minted.borrow_mut().push(r);
                loop {
                    let Ok(Some((head, _))) = locks.peek_local(coord, "hot").await else {
                        sim2.sleep(SimDuration::from_millis(5)).await;
                        continue;
                    };
                    assert!(
                        head >= last_head,
                        "head went backwards at one replica: {last_head} -> {head}"
                    );
                    last_head = head;
                    if head == r {
                        break;
                    }
                    assert!(head < r, "our un-dequeued ref was passed over");
                    sim2.sleep(SimDuration::from_millis(5)).await;
                }
                while locks.dequeue(coord, "hot", r).await.is_err() {
                    sim2.sleep(SimDuration::from_millis(5)).await;
                }
                drained.set(drained.get() + 1);
            }
        });
    }
    sim.run();
    assert_eq!(drained.get(), 9, "every section entered and exited");
    let mut refs = minted.borrow().clone();
    refs.sort_unstable();
    refs.dedup();
    assert_eq!(refs.len(), 9, "lock references must be unique");
}

#[test]
fn one_enqueue_request_mints_singles_and_combined_rounds() {
    let f = fixture();
    let (locks, me) = (f.locks.clone(), f.coords[0]);
    f.sim.block_on(async move {
        let single = EnqueueReq::default();
        assert_eq!(
            locks.enqueue(me, "k", single).await.unwrap(),
            EnqueueOutcome::Minted {
                first: LockRef::new(1),
                count: 1
            }
        );
        // A combining round mints consecutive references in one LWT,
        // exactly where a run of single enqueues would have put them.
        let round = EnqueueReq {
            batch: Some(3),
            ..EnqueueReq::default()
        };
        assert_eq!(
            locks.enqueue(me, "k", round).await.unwrap(),
            EnqueueOutcome::Minted {
                first: LockRef::new(2),
                count: 3
            }
        );
        let r5 = locks.generate_and_enqueue(me, "k").await.unwrap();
        assert_eq!(r5, LockRef::new(5));
        for r in (1..=5).map(LockRef::new) {
            let (head, _) = locks.peek_quorum(me, "k").await.unwrap().unwrap();
            assert_eq!(head, r, "FIFO across singles and the round");
            locks.dequeue(me, "k", r).await.unwrap();
        }
    });
}

#[test]
fn lease_rows_keep_the_queue_monotone_under_contention() {
    // The same lease protocol for a single enqueue and a combining round.
    for (key, batch) in [("hot", None), ("hot-round", Some(2))] {
        lease_protocol(key, batch);
    }
}

fn lease_protocol(key: &'static str, batch: Option<u32>) {
    let f = fixture();
    let (locks, sim) = (f.locks.clone(), f.sim.clone());
    let coords = f.coords.clone();
    f.sim.block_on(async move {
        // The owner runs a clean section and retains a lease: the release
        // LWT tombstones its ref and pre-mints the successor as the head.
        let r1 = locks.generate_and_enqueue(coords[0], key).await.unwrap();
        let until = sim.now() + SimDuration::from_secs(60);
        let (leased, granted_until) = locks
            .release_with_lease(coords[0], key, r1, until)
            .await
            .unwrap()
            .expect("nothing queued: lease retained");
        assert_eq!(leased, LockRef::new(r1.value() + 1), "successor pre-minted");
        assert_eq!(granted_until, until);

        // Lease-oblivious enqueues from the other sites queue up *behind*
        // the standing lease; references stay strictly increasing.
        let r3 = locks.generate_and_enqueue(coords[1], key).await.unwrap();
        let r4 = locks.generate_and_enqueue(coords[2], key).await.unwrap();
        assert!(leased < r3 && r3 < r4, "minted behind the leased head");
        let (head, entry) = locks
            .peek_quorum(coords[1], key)
            .await
            .unwrap()
            .expect("head");
        assert_eq!(head, leased, "the leased row IS the queue head");
        assert!(entry.lease_until.is_some());

        // A lease-aware enqueue must decline while the lease stands
        // unclaimed (the caller still has to force resynchronization),
        // and so must a break authorized for some other reference...
        let stranger = LockRef::new(leased.value() + 100);
        for lease in [LeaseRule::Decline, LeaseRule::Break(stranger)] {
            match locks
                .enqueue(coords[1], key, EnqueueReq { batch, lease })
                .await
                .unwrap()
            {
                EnqueueOutcome::LeaseBlocked(b) => assert_eq!(b, leased),
                minted => panic!("{minted:?} over a standing lease"),
            }
        }
        // ...and break it atomically once authorized: the leased row goes,
        // the breaker's fresh references land in the same LWT.
        let authorized = EnqueueReq {
            batch,
            lease: LeaseRule::Break(leased),
        };
        let broke = match locks.enqueue(coords[1], key, authorized).await.unwrap() {
            EnqueueOutcome::Minted { first, count } => {
                assert_eq!(count, batch.unwrap_or(1));
                first
            }
            EnqueueOutcome::LeaseBlocked(b) => panic!("authorized break declined on {b}"),
        };
        assert!(broke > r4, "the breaker queues at the tail");

        // The queue drains in FIFO order with the lease row gone.
        let minted = (0..u64::from(batch.unwrap_or(1))).map(|i| LockRef::new(broke.value() + i));
        let mut seen = Vec::new();
        for expect in [r3, r4].into_iter().chain(minted) {
            let (head, entry) = locks
                .peek_quorum(coords[2], key)
                .await
                .unwrap()
                .expect("head");
            assert_eq!(head, expect);
            assert!(entry.lease_until.is_none(), "no lease row after the break");
            seen.push(head);
            locks.dequeue(coords[2], key, head).await.unwrap();
        }
        assert!(seen.windows(2).all(|w| w[0] < w[1]), "heads monotone");
        assert!(
            locks.peek_quorum(coords[0], key).await.unwrap().is_none(),
            "queue drained"
        );
    });
}
