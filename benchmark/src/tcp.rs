//! The socket workloads: three storage nodes in this process (one thread
//! each, serving real loopback TCP exactly as `music-node` does) and one
//! load thread running the closed-loop clients.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use music::node::{
    remote_client, serve_node_frame, TaggedTransport, CLIENT_ID_BASE, STORE_DATA, STORE_LOCK,
};
use music::{MusicClient, MusicConfig, MusicReplica, OpStats};
use music_lockstore::{LockPartition, LockStore};
use music_quorumstore::{DataRow, RemoteTable, TableApi, TableConfig, TableReplica};
use music_runtime::{NativeRuntime, Runtime, TcpServer, TcpServerHandle, TcpTransport};
use music_simnet::net::NodeId;
use music_telemetry::{MetricsSnapshot, Recorder};

use crate::drive::{closed_loop, spawn_setup, verify, Load, Stop, Tally, Worker};
use crate::ledger::{fill_pass, protocol_metrics, span_metrics, write_trace};
use crate::report::{run_shape, Length, Pass};
use crate::trace::{ClientTrace, Clock, SpanLog, Traced};
use crate::util::{pctl, ratio, ProcSample};

/// One socket workload. Client count is part of the definition: two
/// closed-loop clients, one per core of the reference box.
#[derive(Copy, Clone, Debug)]
pub struct TcpSpec {
    pub name: &'static str,
    pub load: Load,
    /// Warm-up sections per run, about 5 % of a nominal measured phase.
    pub warmup_sections: u64,
}

const NODES: u32 = 3;

/// What the storage nodes' frame handlers measured (traced runs only).
#[derive(Default)]
struct ServeStats {
    data_ns: Vec<u64>,
    lock_ns: Vec<u64>,
}

/// The in-process storage cluster.
struct Cluster {
    peers: Vec<(u32, SocketAddr)>,
    stops: Vec<TcpServerHandle>,
    threads: Vec<JoinHandle<ServeStats>>,
    /// Handlers record `node.serve` times only while this is set, so the
    /// warm-up's frames stay out of the per-section figures.
    measuring: Arc<AtomicBool>,
}

impl Cluster {
    /// Binds three nodes on OS-assigned loopback ports and starts one
    /// serving thread each — `music-node`'s `main`, minus the arguments.
    fn start(traced: bool) -> std::io::Result<Cluster> {
        let measuring = Arc::new(AtomicBool::new(false));
        let mut cluster = Cluster {
            peers: Vec::new(),
            stops: Vec::new(),
            threads: Vec::new(),
            measuring: Arc::clone(&measuring),
        };
        for id in 1..=NODES {
            let server = TcpServer::bind("127.0.0.1:0".parse().expect("loopback address"))?;
            cluster.peers.push((id, server.local_addr()));
            cluster.stops.push(server.shutdown_handle());
            let measuring = Arc::clone(&measuring);
            let thread = std::thread::Builder::new()
                .name(format!("music-node-{id}"))
                .spawn(move || {
                    let rt = NativeRuntime::new();
                    let mut data = TableReplica::<DataRow>::default();
                    let mut locks = TableReplica::<LockPartition>::default();
                    let stats = Rc::new(RefCell::new(ServeStats::default()));
                    let sink = Rc::clone(&stats);
                    let done = server.serve(&rt, move |raw| {
                        if !traced {
                            return serve_node_frame(&mut data, &mut locks, raw);
                        }
                        let t0 = Instant::now();
                        let reply = serve_node_frame(&mut data, &mut locks, raw);
                        let ns = t0.elapsed().as_nanos() as u64;
                        if measuring.load(Ordering::Relaxed) {
                            let mut s = sink.borrow_mut();
                            match raw.first() {
                                Some(&STORE_DATA) => s.data_ns.push(ns),
                                Some(&STORE_LOCK) => s.lock_ns.push(ns),
                                _ => {}
                            }
                        }
                        reply
                    });
                    rt.block_on(done);
                    let out = std::mem::take(&mut *stats.borrow_mut());
                    out
                })?;
            cluster.threads.push(thread);
        }
        Ok(cluster)
    }

    /// Stops every node and waits for its thread.
    fn stop(self) -> ServeStats {
        for stop in &self.stops {
            stop.shutdown();
        }
        let mut all = ServeStats::default();
        for t in self.threads {
            let s = t.join().expect("storage node thread panicked");
            all.data_ns.extend(s.data_ns);
            all.lock_ns.extend(s.lock_ns);
        }
        all
    }
}

type TracedTransport = Traced<TaggedTransport<TcpTransport>>;
type TracedClient = MusicClient<
    TracedTransport,
    RemoteTable<DataRow, TracedTransport>,
    RemoteTable<LockPartition, TracedTransport>,
>;

/// The traced client stack: `music::node::remote_replica` line for line,
/// with each store's transport wrapped in [`Traced`].
fn traced_client(
    rt: &NativeRuntime,
    coordinator: u32,
    peers: &[(u32, SocketAddr)],
    recorder: Recorder,
    stats: OpStats,
    ctx: Rc<ClientTrace>,
) -> (TracedClient, TcpTransport) {
    let addrs: HashMap<u32, SocketAddr> = peers.iter().copied().collect();
    let tcp = TcpTransport::new(rt.clone(), addrs);
    let data_t = Traced::new(
        TaggedTransport::data(tcp.clone()),
        STORE_DATA,
        Rc::clone(&ctx),
    );
    let lock_t = Traced::new(TaggedTransport::lock(tcp.clone()), STORE_LOCK, ctx);
    let nodes: Vec<NodeId> = peers.iter().map(|&(id, _)| NodeId(id)).collect();
    let rf = peers.len();
    let tcfg = TableConfig::default();
    let data = RemoteTable::new(
        data_t.clone(),
        nodes.clone(),
        rf,
        tcfg.clone(),
        recorder.clone(),
    );
    let locks = LockStore::from_table(RemoteTable::new(lock_t, nodes, rf, tcfg, recorder.clone()));
    let replica = MusicReplica::with_runtime(
        NodeId(coordinator),
        data_t.clone(),
        0,
        recorder,
        locks,
        data,
        MusicConfig::default(),
        stats,
    );
    let client = MusicClient::new(data_t, vec![replica]).expect("one replica");
    (client, tcp)
}

/// Everything a set-up builds, generic over the client stack.
struct World<RT, D, L> {
    workers: Vec<Rc<Worker<RT, D, L>>>,
    verifier: MusicClient<RT, D, L>,
    sockets: Vec<TcpTransport>,
}

/// What the phases of one pass produced.
struct Phases {
    setup_s: f64,
    /// The measured tally and the process samples around it, unless the
    /// pass was set-up only.
    measured: Option<(Tally, ProcSample, ProcSample)>,
    setup_problems: Vec<String>,
}

fn join(rt: &NativeRuntime, handles: Vec<<NativeRuntime as Runtime>::JoinHandle<()>>) {
    rt.block_on(async move {
        for h in handles {
            h.await;
        }
    })
}

/// Runs set-up, the measured phase (if any) and the final check on an
/// already built world. `on_measure_start` runs between set-up and load.
fn run_phases<RT, D, L>(
    rt: &NativeRuntime,
    world: &World<RT, D, L>,
    spec: &TcpSpec,
    clock: &Clock,
    t_setup: Instant,
    measure: Option<Duration>,
    on_measure_start: impl FnOnce(),
) -> Phases
where
    RT: Runtime,
    D: TableApi<DataRow, Rt = RT>,
    L: TableApi<LockPartition, Rt = RT>,
{
    // Set-up: connect (first request per peer), touch every key, warm up.
    let setup = Rc::new(RefCell::new(Tally::default()));
    join(
        rt,
        spawn_setup(rt, &world.workers, clock, spec.warmup_sections, &setup),
    );
    let mut phases = Phases {
        setup_s: t_setup.elapsed().as_secs_f64(),
        measured: None,
        setup_problems: setup.borrow().setup_problems(),
    };
    let Some(measure) = measure else {
        return phases;
    };

    on_measure_start();
    let tally = Rc::new(RefCell::new(Tally::default()));
    let before = ProcSample::take();
    let stop = Stop::Deadline(Instant::now() + measure);
    let handles = world
        .workers
        .iter()
        .map(|w| {
            rt.spawn(closed_loop(
                Rc::clone(w),
                clock.clone(),
                stop.clone(),
                Rc::clone(&tally),
            ))
        })
        .collect();
    join(rt, handles);
    let after = ProcSample::take();

    let problems = rt.block_on(verify(world.verifier.clone(), world.workers.clone()));
    let mut tally = Rc::try_unwrap(tally)
        .ok()
        .expect("load tasks finished")
        .into_inner();
    tally.problems.extend(problems);
    phases.measured = Some((tally, before, after));
    phases
}

/// Closes every client socket, then stops the cluster.
fn teardown<RT, D, L>(world: World<RT, D, L>, cluster: Cluster) -> ServeStats {
    for s in &world.sockets {
        s.disconnect_all();
    }
    drop(world);
    cluster.stop()
}

/// One set-up and, unless `measure` is `None`, one measured pass with
/// `music::node::remote_client` exactly as shipped and every recorder off.
fn plain_pass(spec: &TcpSpec, seed: u64, measure: Option<Duration>) -> Pass {
    let t_setup = Instant::now();
    let cluster = Cluster::start(false).expect("bind loopback storage nodes");
    let rt = NativeRuntime::new();
    let clock = Clock::Wall(Instant::now());
    let mut sockets = Vec::new();
    let mut client = |i: usize| {
        let c = remote_client(
            &rt,
            CLIENT_ID_BASE + i as u32,
            &cluster.peers,
            NODES as usize,
            MusicConfig::default(),
            Recorder::off(),
        )
        .expect("client over a non-empty peer list");
        sockets.push(c.primary().runtime().inner().clone());
        c
    };
    let workers = spec.load.workers(seed, |i| (client(i), None));
    let verifier = client(spec.load.clients);
    let world = World {
        workers,
        verifier,
        sockets,
    };
    let phases = run_phases(&rt, &world, spec, &clock, t_setup, measure, || {});
    let mut pass = Pass {
        setups_s: vec![phases.setup_s],
        problems: phases.setup_problems,
        ..Pass::default()
    };
    if let Some((tally, before, after)) = phases.measured {
        fill_pass(&mut pass, tally, spec.load.clients, &before, &after);
    }
    teardown(world, cluster);
    pass
}

/// One set-up and one measured pass with the same stack assembled over
/// [`Traced`] transports, counters on, and the node handlers timed.
fn traced_pass(
    spec: &TcpSpec,
    seed: u64,
    measure: Duration,
    trace_file: Option<&std::path::Path>,
) -> Pass {
    let t_setup = Instant::now();
    let cluster = Cluster::start(true).expect("bind loopback storage nodes");
    let rt = NativeRuntime::new();
    let clock = Clock::Wall(Instant::now());
    let log = SpanLog::new(clock.clone());
    let next_cs = Rc::new(Cell::new(0));
    let recorder = Recorder::metrics_only();
    let stats = OpStats::new();
    let mut sockets = Vec::new();
    let mut client = |i: usize, log: &Rc<SpanLog>| {
        let ctx = ClientTrace::new(Rc::clone(log), Rc::clone(&next_cs));
        let (c, socket) = traced_client(
            &rt,
            CLIENT_ID_BASE + i as u32,
            &cluster.peers,
            recorder.clone(),
            stats.clone(),
            Rc::clone(&ctx),
        );
        sockets.push(socket);
        (c, Some(ctx))
    };
    let workers = spec.load.workers(seed, |i| client(i, &log));
    // The verifier's frames go to a log of their own: they are not part
    // of any measured section.
    let (verifier, _) = client(spec.load.clients, &SpanLog::new(clock.clone()));
    let world = World {
        workers,
        verifier,
        sockets,
    };
    let counters_at_start = RefCell::new(MetricsSnapshot::default());
    let phases = run_phases(&rt, &world, spec, &clock, t_setup, Some(measure), || {
        log.clear();
        next_cs.set(0);
        stats.reset();
        *counters_at_start.borrow_mut() = recorder.metrics();
        cluster.measuring.store(true, Ordering::Relaxed);
    });
    let mut pass = Pass {
        setups_s: vec![phases.setup_s],
        problems: phases.setup_problems,
        ..Pass::default()
    };
    let (tally, before, after) = phases.measured.expect("a traced pass measures");
    let spans = log.snapshot();
    let cs = tally.latencies_ns.len() as f64;
    fill_pass(&mut pass, tally, spec.load.clients, &before, &after);
    span_metrics(&mut pass, &spans, cs);
    protocol_metrics(
        &mut pass,
        &stats,
        &counters_at_start.borrow(),
        &recorder.metrics(),
        cs,
    );
    let mut serve = teardown(world, cluster);
    let frames = (serve.data_ns.len() + serve.lock_ns.len()) as f64;
    let total_ns: u64 = serve.data_ns.iter().chain(&serve.lock_ns).sum();
    serve.data_ns.sort_unstable();
    serve.lock_ns.sort_unstable();
    pass.set("node.serve_data_p50_ns", pctl(&serve.data_ns, 0.50));
    pass.set("node.serve_lock_p50_ns", pctl(&serve.lock_ns, 0.50));
    pass.set("node.serve_us_per_cs", ratio(total_ns as f64 / 1e3, cs));
    pass.set("node.frames_per_cs", ratio(frames, cs));
    write_trace(&mut pass, trace_file, spec.name, &clock, &spans, &[]);
    pass
}

/// The whole run of a socket workload (see [`run_shape`]).
pub fn run(
    spec: &TcpSpec,
    seed: u64,
    seconds: f64,
    traced: bool,
    setups: usize,
    trace_file: Option<&std::path::Path>,
) -> Pass {
    run_shape(setups, traced, |length, traced| {
        let measure = match length {
            Length::SetupOnly => None,
            Length::Full => Some(Duration::from_secs_f64(seconds)),
            Length::Half => Some(Duration::from_secs_f64(seconds / 2.0)),
        };
        match (traced, measure) {
            (true, Some(measure)) => traced_pass(spec, seed, measure, trace_file),
            _ => plain_pass(spec, seed, measure),
        }
    })
}
