//! Load generators: the closed loop every workload but one uses, the open
//! loop `sim_fault` uses, and the books that make the final counter check
//! exact.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::Instant;

use music::MusicClient;
use music_lockstore::LockPartition;
use music_quorumstore::{DataRow, TableApi};
use music_runtime::Runtime;
use music_simnet::time::{SimDuration, SimTime};
use rand::rngs::SmallRng;
use rand::Rng;

use crate::section::{attempt, read_counter, AttemptError, Shape, Target};
use crate::trace::{ClientTrace, Clock};

/// All clients of a `*_hot` workload work one key at a time, and move to a
/// fresh one after this many sections between them, for two reasons. A lock
/// partition keeps the tombstones of its last 1024 references and ships
/// them with every peek, so a key that stays hot gets slower with every
/// section until it has seen 1024 of them — a run would measure how far
/// into that ramp it got. And over sockets whoever wins a key's first LWT
/// ballot race keeps winning it, so a run on one key measures one of two
/// regimes (a lone winner, or a winner plus a duelling loser) picked at
/// random; short stints draw the regime some hundred times per run instead
/// of once, which took the run-to-run spread of `tcp_hot` from 25-45 % to
/// under 10 %.
const HOT_KEY_SECTIONS: u64 = 32;

/// How many hot keys a `*_hot` run rotates through before it wraps around
/// (a 20 s `tcp_hot` visits each about once).
const HOT_KEYS: usize = 256;

/// The load every workload definition shares. Client counts are part of
/// the definition.
#[derive(Copy, Clone, Debug)]
pub struct Load {
    /// Closed-loop clients (or open-loop generators).
    pub clients: usize,
    /// Private keys per client; `0` puts every client on the hot key.
    pub keys_per_client: usize,
    pub shape: Shape,
}

impl Load {
    /// Each client's keys; names carry the seed so placement on the ring
    /// is an input too.
    fn key_sets(&self, seed: u64) -> Vec<Rc<Vec<String>>> {
        if self.keys_per_client == 0 {
            let hot = Rc::new((0..HOT_KEYS).map(|k| format!("s{seed}-hot{k}")).collect());
            return (0..self.clients).map(|_| Rc::clone(&hot)).collect();
        }
        (0..self.clients)
            .map(|c| {
                Rc::new(
                    (0..self.keys_per_client)
                        .map(|k| format!("s{seed}-c{c}-k{k}"))
                        .collect(),
                )
            })
            .collect()
    }

    /// The run's load clients over the stacks `client` builds (with the
    /// trace context of a traced run).
    pub fn workers<RT, D, L>(
        &self,
        seed: u64,
        mut client: impl FnMut(usize) -> (MusicClient<RT, D, L>, Option<Rc<ClientTrace>>),
    ) -> Vec<Rc<Worker<RT, D, L>>>
    where
        RT: Runtime,
        D: TableApi<DataRow, Rt = RT>,
        L: TableApi<LockPartition, Rt = RT>,
    {
        let keys = self.key_sets(seed);
        let body = Rc::new(crate::util::filler(seed, self.shape.value_len));
        let shared = (self.keys_per_client == 0).then(|| Rc::new(Cell::new(0)));
        (0..self.clients)
            .map(|i| {
                let (stack, trace) = client(i);
                let book = Book {
                    done: vec![0; keys[i].len()],
                    ambiguous: vec![false; keys[i].len()],
                    floor: vec![0; keys[i].len()],
                };
                Rc::new(Worker {
                    id: i,
                    client: stack,
                    keys: Rc::clone(&keys[i]),
                    shared: shared.clone(),
                    shape: self.shape,
                    body: Rc::clone(&body),
                    rng: RefCell::new(crate::util::rng_for(seed, i as u64)),
                    book: RefCell::new(book),
                    trace,
                })
            })
            .collect()
    }
}

/// Set-up load, one task per client on `rt`: touch every key once (one
/// client does it for shared keys), then warm up closed-loop until the
/// clients have started `warmup` sections between them.
pub fn spawn_setup<R, RT, D, L>(
    rt: &R,
    workers: &[Rc<Worker<RT, D, L>>],
    clock: &Clock,
    warmup: u64,
    tally: &Rc<RefCell<Tally>>,
) -> Vec<R::JoinHandle<()>>
where
    R: Runtime,
    RT: Runtime,
    D: TableApi<DataRow, Rt = RT>,
    L: TableApi<LockPartition, Rt = RT>,
{
    let warmup = Stop::quota(warmup);
    workers
        .iter()
        .map(|w| {
            let (w, t, clock, warmup) = (
                Rc::clone(w),
                Rc::clone(tally),
                clock.clone(),
                warmup.clone(),
            );
            rt.spawn(async move {
                if w.shared.is_none() || w.id == 0 {
                    preload(Rc::clone(&w), Rc::clone(&t)).await;
                }
                closed_loop(w, clock, warmup, t).await;
            })
        })
        .collect()
}

/// One load client: its stack, its keys, and its books.
pub struct Worker<RT, D, L> {
    /// Index among the run's load clients.
    pub id: usize,
    pub client: MusicClient<RT, D, L>,
    /// This client's private keys — or the hot keys all clients share.
    pub keys: Rc<Vec<String>>,
    /// Set when the keys are shared: how many sections the run's clients
    /// have started between them, which decides the hot key of the moment.
    pub shared: Option<Rc<Cell<u64>>>,
    pub shape: Shape,
    pub body: Rc<Vec<u8>>,
    pub rng: RefCell<SmallRng>,
    pub book: RefCell<Book>,
    pub trace: Option<Rc<ClientTrace>>,
}

/// What this client has completed on each of its keys (warm-up included),
/// which is what the final counters must equal.
#[derive(Default)]
pub struct Book {
    pub done: Vec<u64>,
    /// A failed attempt's put may have landed on this key.
    pub ambiguous: Vec<bool>,
    /// Last value this client wrote to each shared key.
    pub floor: Vec<u64>,
}

impl<RT, D, L> Worker<RT, D, L>
where
    RT: Runtime,
    D: TableApi<DataRow, Rt = RT>,
    L: TableApi<LockPartition, Rt = RT>,
{
    /// The key of the next section: one of this client's own at random,
    /// or the hot key of the moment.
    fn pick(&self) -> usize {
        match &self.shared {
            None => self.rng.borrow_mut().gen_range(0..self.keys.len()),
            Some(started) => {
                let n = started.get();
                started.set(n + 1);
                (n / HOT_KEY_SECTIONS) as usize % self.keys.len()
            }
        }
    }

    fn target(&self, k: usize) -> Target {
        let book = self.book.borrow();
        if self.shared.is_some() {
            Target::Shared {
                floor: book.floor[k],
            }
        } else {
            Target::Private {
                done: book.done[k],
                ambiguous: book.ambiguous[k],
            }
        }
    }

    /// Runs one attempt on key `k` and books its outcome. `Ok` is the
    /// attempt's completion; `Err(true)` a failure worth retrying,
    /// `Err(false)` a wrong read (already noted in `tally.problems`).
    async fn attempt_on(&self, k: usize, tally: &RefCell<Tally>) -> Result<(), bool> {
        let outcome = attempt(
            &self.client,
            &self.keys[k],
            self.target(k),
            self.shape,
            &self.body,
            self.trace.as_deref(),
        )
        .await;
        let mut book = self.book.borrow_mut();
        match outcome {
            Ok(written) => {
                book.done[k] += 1;
                // A private key's value is idempotent, so a landed put of a
                // failed attempt is absorbed here; a shared counter keeps it.
                book.ambiguous[k] &= self.shared.is_some();
                book.floor[k] = written;
                Ok(())
            }
            Err(AttemptError::Op { err, put_issued }) => {
                book.ambiguous[k] |= put_issued;
                let mut t = tally.borrow_mut();
                t.attempts_failed += 1;
                if t.errors_seen.len() < 5 {
                    t.errors_seen.push(format!("{}: {err}", self.keys[k]));
                }
                Err(true)
            }
            Err(AttemptError::Wrong(msg)) => {
                tally.borrow_mut().problems.push(msg);
                Err(false)
            }
        }
    }
}

/// Set-up: one section on each of the client's keys, in order, so no
/// measured section is the first to touch its key.
async fn preload<RT, D, L>(w: Rc<Worker<RT, D, L>>, tally: Rc<RefCell<Tally>>)
where
    RT: Runtime,
    D: TableApi<DataRow, Rt = RT>,
    L: TableApi<LockPartition, Rt = RT>,
{
    for k in 0..w.keys.len() {
        tally.borrow_mut().attempted += 1;
        if w.attempt_on(k, &tally).await.is_err() {
            tally.borrow_mut().failed += 1;
        }
    }
}

/// What a phase of load produced.
#[derive(Default)]
pub struct Tally {
    pub latencies_ns: Vec<u64>,
    /// Completion instants, for throughput and the longest stall.
    pub ends_ns: Vec<u64>,
    pub first_start_ns: Option<u64>,
    pub attempted: u64,
    pub failed: u64,
    /// Sections completed by each load client.
    pub by_worker: Vec<u64>,
    /// Attempts that failed and were (or could have been) retried.
    pub attempts_failed: u64,
    /// Open loop: how far past its due time each section started.
    pub late_ns: Vec<u64>,
    pub problems: Vec<String>,
    /// The first few operation errors, for the human-readable output.
    pub errors_seen: Vec<String>,
}

impl Tally {
    fn start(&mut self, at_ns: u64) {
        self.attempted += 1;
        self.first_start_ns = Some(self.first_start_ns.map_or(at_ns, |f| f.min(at_ns)));
    }

    fn complete(&mut self, worker: usize, from_ns: u64, now_ns: u64) {
        self.latencies_ns.push(now_ns.saturating_sub(from_ns));
        self.ends_ns.push(now_ns);
        if self.by_worker.len() <= worker {
            self.by_worker.resize(worker + 1, 0);
        }
        self.by_worker[worker] += 1;
    }

    /// What went wrong in a set-up phase, as problems of the run.
    pub fn setup_problems(&self) -> Vec<String> {
        let mut problems = self.problems.clone();
        if self.failed > 0 {
            problems.push(format!(
                "{} set-up sections failed: {:?}",
                self.failed, self.errors_seen
            ));
        }
        problems
    }

    /// First measured start to last completion.
    pub fn span_ns(&self) -> u64 {
        match (self.first_start_ns, self.ends_ns.iter().max()) {
            (Some(first), Some(&last)) => last.saturating_sub(first),
            _ => 0,
        }
    }

    /// The least-served of `clients` load clients' completions over an
    /// equal share: 1 when service is even, 0 when a client is starved.
    pub fn fair_share_min(&self, clients: usize) -> f64 {
        let least = (0..clients)
            .map(|c| self.by_worker.get(c).copied().unwrap_or(0))
            .min()
            .unwrap_or(0);
        crate::util::ratio(
            least as f64 * clients as f64,
            self.latencies_ns.len() as f64,
        )
    }

    /// Longest interval with no section completing anywhere.
    pub fn stall_max_ns(&self) -> u64 {
        let mut ends = self.ends_ns.clone();
        ends.sort_unstable();
        ends.windows(2).map(|w| w[1] - w[0]).max().unwrap_or(0)
    }
}

/// When a closed-loop client stops starting sections.
#[derive(Clone)]
pub enum Stop {
    /// When the clients together have started this many more sections
    /// (simulator, and every warm-up). The quota is shared so that every
    /// client stays in the loop until the phase ends, however unevenly the
    /// system serves them.
    Quota(Rc<Cell<u64>>),
    /// At this wall instant (socket workloads measure for a fixed time).
    Deadline(Instant),
}

impl Stop {
    pub fn quota(sections: u64) -> Stop {
        Stop::Quota(Rc::new(Cell::new(sections)))
    }

    /// Whether another section may start (taking it from the quota).
    fn take(&self) -> bool {
        match self {
            Stop::Quota(left) if left.get() == 0 => false,
            Stop::Quota(left) => {
                left.set(left.get() - 1);
                true
            }
            Stop::Deadline(at) => Instant::now() < *at,
        }
    }
}

/// A closed-loop client: the next section starts when the previous one
/// completes. A failed section is counted and not retried.
pub async fn closed_loop<RT, D, L>(
    w: Rc<Worker<RT, D, L>>,
    clock: Clock,
    stop: Stop,
    tally: Rc<RefCell<Tally>>,
) where
    RT: Runtime,
    D: TableApi<DataRow, Rt = RT>,
    L: TableApi<LockPartition, Rt = RT>,
{
    while stop.take() {
        let k = w.pick();
        let t0 = clock.now_ns();
        tally.borrow_mut().start(t0);
        if let Some(tr) = &w.trace {
            tr.open_cs();
        }
        let outcome = w.attempt_on(k, &tally).await;
        if let Some(tr) = &w.trace {
            tr.close_cs();
        }
        let mut t = tally.borrow_mut();
        match outcome {
            Ok(()) => t.complete(w.id, t0, clock.now_ns()),
            Err(_) => t.failed += 1,
        }
    }
}

/// How often an open-loop section is re-attempted before it counts as
/// failed, and the pause between attempts.
const OPEN_LOOP_ATTEMPTS: u32 = 30;
const OPEN_LOOP_PAUSE: SimDuration = SimDuration::from_millis(200);

/// An open-loop client: section `i` is due at `first_due + i * period`
/// whether or not the system kept up; latency runs from the due time, and
/// the start's lateness is reported. A failed attempt is retried — the
/// section's value is idempotent on private keys — so faults show as
/// latency and retries, not as lost work.
pub async fn open_loop<RT, D, L>(
    w: Rc<Worker<RT, D, L>>,
    rt: RT,
    clock: Clock,
    first_due: SimTime,
    period: SimDuration,
    sections: u64,
    tally: Rc<RefCell<Tally>>,
) where
    RT: Runtime,
    D: TableApi<DataRow, Rt = RT>,
    L: TableApi<LockPartition, Rt = RT>,
{
    assert!(w.shared.is_none(), "open-loop retries need private keys");
    for i in 0..sections {
        let due = first_due + SimDuration::from_micros(period.as_micros() * i);
        if rt.now() < due {
            rt.sleep_until(due).await;
        }
        let due_ns = due.as_micros() * 1_000;
        {
            let mut t = tally.borrow_mut();
            t.start(due_ns);
            t.late_ns.push(clock.now_ns().saturating_sub(due_ns));
        }
        let k = w.pick();
        if let Some(tr) = &w.trace {
            tr.open_cs();
        }
        let mut completed = false;
        for attempt_no in 0..OPEN_LOOP_ATTEMPTS {
            if attempt_no > 0 {
                rt.sleep(OPEN_LOOP_PAUSE).await;
            }
            match w.attempt_on(k, &tally).await {
                Ok(()) => {
                    completed = true;
                    break;
                }
                Err(true) => {}
                Err(false) => break,
            }
        }
        if let Some(tr) = &w.trace {
            tr.close_cs();
        }
        let mut t = tally.borrow_mut();
        if completed {
            t.complete(w.id, due_ns, clock.now_ns());
        } else {
            t.failed += 1;
        }
    }
}

/// The final check: read every key under its lock; per key the counter
/// must equal the sections completed on it. Returns what is wrong.
pub async fn verify<RT, D, L>(
    reader: MusicClient<RT, D, L>,
    workers: Vec<Rc<Worker<RT, D, L>>>,
) -> Vec<String>
where
    RT: Runtime,
    D: TableApi<DataRow, Rt = RT>,
    L: TableApi<LockPartition, Rt = RT>,
{
    let mut problems = Vec::new();
    let mut check = |key: &str, got: Result<u64, String>, want: u64, slack: u64| match got {
        Ok(v) if (want..=want + slack).contains(&v) => {}
        Ok(v) => problems.push(format!("{key}: counter {v}, completed {want}")),
        Err(e) => problems.push(format!("verify read failed: {e}")),
    };
    let shared = workers.first().is_some_and(|w| w.shared.is_some());
    let Some(first) = workers.first() else {
        return problems;
    };
    // Shared keys are checked once against all clients' books together;
    // private keys against their one owner's.
    let group_len = if shared { workers.len() } else { 1 };
    for group in workers.chunks(group_len) {
        for (k, key) in group[0].keys.iter().enumerate() {
            let want: u64 = group.iter().map(|w| w.book.borrow().done[k]).sum();
            let slack = group
                .iter()
                .filter(|w| w.book.borrow().ambiguous[k])
                .count() as u64;
            if shared && want == 0 {
                continue; // a hot key the run never reached
            }
            check(
                key,
                read_counter(&reader, key, first.shape).await,
                want,
                slack,
            );
        }
    }
    problems
}
