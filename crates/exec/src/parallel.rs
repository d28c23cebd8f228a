//! Real multithreaded wavefront execution.
//!
//! [`WavefrontPool`] executes a block schedule with genuine OS threads,
//! under one of two synchronization disciplines selected by
//! [`Scheduler`]:
//!
//! * **Levels** — the §3.4 lowering as written: a sequential loop over
//!   wavefront levels with the level's sub-domain indices split across
//!   the workers and a barrier between consecutive levels. The pool is
//!   *persistent*: workers are spawned once per run and synchronize on a
//!   lightweight [`std::sync::Barrier`], not respawned per level.
//! * **Dataflow** — point-to-point execution of the block dependence
//!   graph ([`BlockGraph`]), coarsened into [`TaskGraph`] tasks and
//!   chained across sweeps into a [`SweepGraph`]: chains
//!   of consecutive small blocks fuse into single scheduled units so the
//!   atomic in-degree traffic and deque locking amortize over real work
//!   (the machine model's [`Machine::dataflow_grain`] picks the fusion
//!   grain). Each worker drains a ready-set of tasks, decrements
//!   successor in-degrees with atomics, and routes newly-ready tasks to
//!   their *owning* worker's deque — ownership is a stable contiguous
//!   shard of the flat index space ([`shard_owner`]), so lexicographic
//!   neighbors stay on one core across levels and sweeps. An idle
//!   worker steals along a NUMA-near-first rotated peer order derived
//!   from the [`Machine`] topology, and backs off (bounded spin, then
//!   exponential sleep) when the whole pool runs dry. The Release half
//!   of the in-degree `fetch_sub` and the Acquire half performed by the
//!   final decrementer form a happens-before chain from every
//!   predecessor's buffer writes to the successor's execution, replacing
//!   the barrier's publication role (see `DESIGN.md` §4f/§4g).
//!
//! The pool runs closures over *linearized sub-domain indices* and has
//! one constructor, [`WavefrontPool::with_opts`], and one drain method,
//! [`WavefrontPool::try_execute`]: it runs `sweeps` back-to-back
//! executions of one `scf.execute_wavefronts` over a
//! [`ScheduleBundle`], sending an eager levels call to the barrier drain
//! (over the bundle's level CSR) and everything else to the graph drain
//! — an eager dataflow call is a sweep batch of one. Each drain has one
//! worker body for every worker count: worker 0 runs on the calling
//! thread, so a one-worker pool spawns nothing and runs the same code as
//! a wide one. Each worker keeps private state (the engines run
//! `scf.execute_wavefronts` bodies with a per-thread environment and
//! statistics frame), and the first error propagates. In debug builds
//! both drains check every buffer store against the write sets of
//! blocks the dependence graph leaves unordered
//! ([`overlap::SweepChecker`]).
//!
//! [`TaskGraph`]: instencil_pattern::dataflow::TaskGraph
//! [`SweepGraph`]: instencil_pattern::dataflow::SweepGraph

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex, OnceLock};
use std::thread;
use std::time::{Duration, Instant};

use instencil_machine::topology::{xeon_6152_dual, Machine};
use instencil_obs::trace::{self, TraceKind};
use instencil_obs::{LevelRecord, Obs, WavefrontRecord, WorkerRecord};
use instencil_pattern::dataflow::{shard_owner, BlockGraph, ScheduleBundle, Scheduler};

use crate::buffer::overlap;

/// Captured panic payload from a worker, re-raised on the calling
/// thread so the original message (e.g. the overlap checker's) survives.
type PanicPayload = Box<dyn std::any::Any + Send + 'static>;

/// Per-level obs samples a worker collects: `(level index, busy ns,
/// blocks executed)`.
type LevelSamples = Vec<(usize, u64, u64)>;

/// Idle scan rounds an empty-handed worker spends yielding before it
/// starts sleeping. Yields are near-free and keep wake-up latency at
/// scheduler-quantum scale while the wavefront pipeline is merely
/// momentarily narrow.
const SPIN_ROUNDS: u32 = 64;

/// Cap on the exponential sleep, microseconds. Bounded low: a parked
/// owner whose deque just received routed work must come back quickly,
/// or the affinity routing would lengthen the critical path.
const MAX_PARK_US: u64 = 64;

/// The machine model every pool schedules against (the paper's
/// evaluation platform): it picks the coarsening grain and the steal
/// order.
fn machine() -> &'static Machine {
    static MODEL: OnceLock<Machine> = OnceLock::new();
    MODEL.get_or_init(xeon_6152_dual)
}

/// The failures a drain's workers caught: the first panic payload, and
/// the error with the lowest `(level, worker)` key (ties keep the first
/// recorded, so a drain passing one key for every error keeps the first
/// one observed).
struct Faults<E> {
    panic: Mutex<Option<PanicPayload>>,
    error: Mutex<Option<((usize, usize), E)>>,
}

impl<E> Faults<E> {
    fn new() -> Self {
        Faults {
            panic: Mutex::new(None),
            error: Mutex::new(None),
        }
    }

    /// Records the caught outcome of one unit of work under `key`;
    /// returns whether it failed.
    fn record(&self, key: (usize, usize), outcome: thread::Result<Result<(), E>>) -> bool {
        if let Ok(Ok(())) = outcome {
            return false;
        }
        self.fail(key, outcome);
        true
    }

    /// The failure half of [`Self::record`] (a successful outcome
    /// records nothing), kept out of the workers' hot loops.
    #[cold]
    #[inline(never)]
    fn fail(&self, key: (usize, usize), outcome: thread::Result<Result<(), E>>) {
        match outcome {
            Ok(Ok(())) => {}
            Ok(Err(e)) => {
                let mut slot = self.error.lock().unwrap();
                if slot.as_ref().is_none_or(|(k, _)| key < *k) {
                    *slot = Some((key, e));
                }
            }
            Err(payload) => {
                self.panic.lock().unwrap().get_or_insert(payload);
            }
        }
    }
}

/// The scaffolding both drains share. Runs `worker` as workers
/// `0..threads` — worker 0 on the calling thread, the rest on scoped
/// threads, so a one-worker pool spawns nothing — and joins them,
/// re-raising any panic that escaped a worker. Then every worker's
/// state goes to `merge` (the partial state of a failed worker too, so
/// additive counters such as [`crate::ExecStats`] stay consistent), the
/// first caught panic is re-raised, the workers' reports go to
/// `publish`, and the first error is returned.
fn run_workers<S, R, E>(
    threads: usize,
    worker: impl Fn(usize) -> (S, R) + Sync,
    faults: &Faults<E>,
    mut merge: impl FnMut(S),
    publish: impl FnOnce(Vec<R>),
) -> Result<(), E>
where
    S: Send,
    R: Send,
{
    let worker = &worker;
    let mut results = Vec::with_capacity(threads);
    thread::scope(|s| {
        let handles: Vec<_> = (1..threads).map(|w| s.spawn(move || worker(w))).collect();
        results.push(worker(0));
        for h in handles {
            // Workers catch their own panics; a join error here means
            // something escaped the protocol — re-raise it directly.
            results.push(h.join().unwrap_or_else(|p| resume_unwind(p)));
        }
    });
    let mut reports = Vec::with_capacity(threads);
    for (state, report) in results {
        merge(state);
        reports.push(report);
    }
    let panic = faults.panic.lock().unwrap().take();
    if let Some(payload) = panic {
        resume_unwind(payload);
    }
    publish(reports);
    let error = faults.error.lock().unwrap().take();
    error.map_or(Ok(()), |(_, e)| Err(e))
}

/// A scoped thread pool executing wavefront schedules.
#[derive(Clone, Debug)]
pub struct WavefrontPool {
    threads: usize,
    obs: Obs,
    scheduler: Scheduler,
}

impl WavefrontPool {
    /// Creates a pool of `threads` workers (minimum 1 — the one clamp
    /// on the worker count below [`crate::Runner`]) under `scheduler`,
    /// recording per-level (and, at [`instencil_obs::ObsLevel::Trace`],
    /// per-worker) timings into `obs`.
    pub fn with_opts(threads: usize, obs: Obs, scheduler: Scheduler) -> Self {
        WavefrontPool {
            threads: threads.max(1),
            obs,
            scheduler,
        }
    }

    /// Number of workers.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The observability collector this pool reports into.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// The barrier drain of [`try_execute`](Self::try_execute): runs
    /// `work(state, 0, block)` over every block of `bundle`'s level
    /// schedule, level by level.
    ///
    /// Each worker gets its own state from `init` once for the whole
    /// run (the pool is persistent — workers are spawned once, and a
    /// [`Barrier`] separates consecutive levels, which is what publishes
    /// one level's buffer stores to the next; see [`crate::buffer`]).
    /// Worker `w` runs the blocks of its contiguous flat-index shard
    /// ([`shard_owner`]) in every level.
    ///
    /// The reported error is the earliest failing level's (lowest
    /// worker index within it). Workers already running when another
    /// worker of the same level fails are not cancelled; no further
    /// level starts after a failure.
    fn drain_levels<S, E, I, W, M>(
        &self,
        bundle: &ScheduleBundle,
        init: I,
        work: W,
        merge: M,
    ) -> Result<(), E>
    where
        S: Send,
        E: Send,
        I: Fn() -> S + Sync,
        W: Fn(&mut S, usize, usize) -> Result<(), E> + Sync,
        M: FnMut(S),
    {
        let schedule = &bundle.csr;
        if schedule.num_blocks() == 0 {
            // Nothing to run: spawn no workers, merge no states.
            self.publish(self.threads, Scheduler::Levels, 1, Vec::new());
            return Ok(());
        }
        let record = self.obs.enabled();
        let detail = self.obs.detail_enabled();
        // Workers beyond the widest level would only ever wait at
        // barriers — clamp to the schedule's actual width.
        let max_width = schedule.levels().map(|l| l.len()).max().unwrap_or(1);
        let threads = self.threads.min(max_width);
        let n_total = schedule.num_blocks();
        // A path a → b in the block graph forces θ(b) > θ(a), so blocks
        // of one level are unordered there: the one-sweep graph checker
        // catches every same-level collision.
        let checker = overlap::SweepChecker::new(&bundle.graph, 1);
        let barrier = Barrier::new(threads);
        // Index of the earliest level where a worker failed or panicked.
        // This must be a level, not a boolean: a fast worker can race
        // into level L+1 and fail there before a slow worker performs
        // its post-barrier check at level L — a boolean would make the
        // slow worker break a level early and desert the L+1 barrier.
        // Any value <= L is published before level L's end barrier, so
        // the `stop_level <= L` decision is uniform across workers.
        let stop_level = AtomicUsize::new(usize::MAX);
        let faults = Faults::new();
        // Per-level wall times, written by worker 0 only.
        let walls: Mutex<Vec<(usize, u64)>> = Mutex::new(Vec::new());

        // The persistent worker body: iterates all levels in lockstep
        // with its peers, executing its static chunk of each level.
        // Returns the worker state plus per-level (index, busy_ns,
        // blocks) samples for the obs records.
        let worker = |w: usize| -> (S, LevelSamples) {
            let _tg = trace::install(self.obs.worker_tracer(w as u32));
            let mut state = init();
            let mut samples = LevelSamples::new();
            for (index, level) in schedule.levels().enumerate() {
                if level.is_empty() {
                    continue;
                }
                let t0 = (record && w == 0).then(Instant::now);
                if record {
                    // Start alignment: no peer enters the level before
                    // worker 0 has read the clock, so the recorded wall
                    // covers every worker's chunk.
                    barrier.wait();
                }
                let w0 = detail.then(Instant::now);
                let ts = trace::begin();
                let mut done = 0u64;
                let outcome = catch_unwind(AssertUnwindSafe(|| -> Result<(), E> {
                    // Stable worker↔tile affinity: worker `w` executes
                    // the blocks of its contiguous flat-index shard in
                    // *every* level and every sweep. The per-level
                    // membership varies, but a given block (and its
                    // cache lines, and its recurrence-stripe neighbors)
                    // always belongs to the same worker — unlike
                    // chunking each level afresh, which reshuffled
                    // blocks across workers between levels and trashed
                    // private caches.
                    for &b in level {
                        if shard_owner(b, n_total, threads) != w {
                            continue;
                        }
                        done += 1;
                        let _wg = checker.guard(0, b);
                        work(&mut state, 0, b)?;
                    }
                    Ok(())
                }));
                if faults.record((index, w), outcome) {
                    stop_level.fetch_min(index, Ordering::AcqRel);
                }
                if done > 0 {
                    trace::end(TraceKind::Task, ts, index as u32, done as u32);
                }
                if detail {
                    samples.push((index, w0.map_or(0, |t| t.elapsed().as_nanos() as u64), done));
                }
                // The end-of-level barrier: publishes this level's
                // stores to the next level and lines every worker up on
                // the same stop decision.
                barrier.wait();
                if let Some(t0) = t0 {
                    walls.lock().unwrap().push((index, t0.elapsed().as_nanos() as u64));
                }
                if stop_level.load(Ordering::Acquire) <= index {
                    break;
                }
            }
            (state, samples)
        };

        run_workers(threads, worker, &faults, merge, |samples| {
            // Per-worker samples exist only at `Trace`.
            let levels = walls
                .lock()
                .unwrap()
                .iter()
                .map(|&(index, wall_ns)| LevelRecord {
                    index,
                    blocks: schedule.level(index).len() as u64,
                    wall_ns,
                    workers: samples
                        .iter()
                        .filter_map(|s| s.iter().find(|&&(i, _, _)| i == index))
                        .filter(|&&(_, _, blocks)| blocks > 0)
                        .map(|&(_, busy_ns, blocks)| WorkerRecord {
                            busy_ns,
                            blocks,
                            ..WorkerRecord::default()
                        })
                        .collect(),
                })
                .collect();
            self.publish(threads, Scheduler::Levels, 1, levels);
        })
    }

    /// The coarsening grain for `graph` under the machine model and this
    /// pool's worker count.
    fn grain_for(&self, graph: &BlockGraph) -> usize {
        let inner = graph.grid().last().copied().unwrap_or(1);
        machine().dataflow_grain(graph.num_blocks(), inner, self.threads)
    }

    /// Executes `sweeps` back-to-back runs of one `scf.execute_wavefronts`
    /// over `bundle`, calling `work(state, sweep, block)` for every
    /// block of every sweep. This is the entry point both engines use.
    ///
    /// An eager call (`sweeps == 1`) under [`Scheduler::Levels`] takes
    /// the barrier drain over `bundle.csr`; everything else — eager dataflow and every
    /// batch — takes the graph drain, where an eager call is simply a
    /// batch of one sweep. A batch never takes the barrier drain: a
    /// level barrier would serialize the sweeps and defeat the batching.
    ///
    /// The graph drain runs the sweep-extended dependence graph
    /// [`instencil_pattern::dataflow::SweepGraph`], coarsened into tasks
    /// at the machine-derived grain and memoized in the bundle: node
    /// `(s, t)` is task `t` of sweep `s`, with the intra-sweep task edges
    /// plus cross-sweep edges from `{t} ∪ pred(t)` of sweep `s` into
    /// `(s+1, ·)` — block `b` of sweep `s+1` may start as soon as its
    /// own lex-forward neighborhood of sweep `s` has retired. Blocks of
    /// a task run in ascending flat order. Results are bit-identical to
    /// running the sweeps back-to-back under levels (see `DESIGN.md`
    /// §4g/§4j).
    ///
    /// Worker `w` owns a deque of ready nodes, sharded by *task index*
    /// ([`shard_owner`]) so every sweep of a stripe stays on one core;
    /// the roots are seeded so that each deque pops them in ascending
    /// task order. Finishing a node decrements each successor's
    /// in-degree (`fetch_sub(1, AcqRel)`), cross-sweep successors before
    /// intra-sweep ones; the worker that takes an in-degree to zero
    /// keeps the first readied node in hand (work-first) and routes the
    /// surplus to the owners' deques, so a lone worker descends the
    /// temporal diagonal `(t, s) → (t', s+1)` while the stripe is
    /// cache-resident. An idle worker drains its own deque from the back
    /// (LIFO), then steals from the front of its peers' deques in the
    /// machine's NUMA-near-first order, then backs off — [`SPIN_ROUNDS`]
    /// yields, then exponential sleep capped at [`MAX_PARK_US`]. The
    /// atomic read-modify-write chain on the in-degree carries the
    /// happens-before edge from every predecessor's buffer writes to the
    /// successor, replacing the level barrier.
    ///
    /// In debug builds both drains check every buffer store against the
    /// write intervals of nodes the dependence graph leaves unordered
    /// ([`overlap::SweepChecker`]); same-level blocks are always
    /// unordered, so the barrier drain's collisions are caught too.
    ///
    /// Each worker gets its own state from `init` once for the whole
    /// run; when the run finishes (or fails), every worker's state —
    /// including the partial state of a failed worker — is handed to
    /// `merge` on the calling thread, so additive counters such as
    /// [`crate::ExecStats`] stay consistent. An empty schedule spawns
    /// no worker and merges no state. The barrier drain reports
    /// the earliest failing level's error and starts no level after a
    /// failure; under concurrency the graph drain's "first error" is the
    /// first one *observed*, which is deterministic only at one thread.
    ///
    /// # Errors
    /// Returns the first observed error produced by `work`; remaining
    /// blocks are abandoned.
    ///
    /// # Panics
    /// Propagates panics from worker closures (the original payload is
    /// re-raised once every worker has stopped).
    pub fn try_execute<S, E, I, W, M>(
        &self,
        bundle: &ScheduleBundle,
        sweeps: usize,
        init: I,
        work: W,
        merge: M,
    ) -> Result<(), E>
    where
        S: Send,
        E: Send,
        I: Fn() -> S + Sync,
        W: Fn(&mut S, usize, usize) -> Result<(), E> + Sync,
        M: FnMut(S),
    {
        if sweeps == 1 && self.scheduler == Scheduler::Levels {
            return self.drain_levels(bundle, init, work, merge);
        }
        self.drain_graph(bundle, sweeps, init, work, merge)
    }

    /// The graph drain of [`try_execute`](Self::try_execute).
    fn drain_graph<S, E, I, W, M>(
        &self,
        bundle: &ScheduleBundle,
        sweeps: usize,
        init: I,
        work: W,
        merge: M,
    ) -> Result<(), E>
    where
        S: Send,
        E: Send,
        I: Fn() -> S + Sync,
        W: Fn(&mut S, usize, usize) -> Result<(), E> + Sync,
        M: FnMut(S),
    {
        let graph = &bundle.graph;
        let n = graph.num_blocks();
        if n == 0 || sweeps == 0 {
            return Ok(());
        }
        let sgraph = bundle.sweep_graph(self.grain_for(graph), sweeps);
        let n_tasks = sgraph.num_tasks();
        let total = sgraph.num_nodes();
        let detail = self.obs.detail_enabled();
        let checker = overlap::SweepChecker::new(graph, sweeps);
        // Trace sweep tag: 0 for an eager call, `s + 1` for sweep `s` of
        // a batch.
        let tag = |sweep: usize| if sweeps == 1 { 0 } else { sweep as u32 + 1 };

        // Sharding is by *task* so every sweep of a stripe lands on the
        // worker whose cache already holds it.
        let threads = self.threads.min(n_tasks);
        let indeg: Vec<AtomicU32> = (0..total)
            .map(|node| {
                let (s, t) = sgraph.split(node);
                AtomicU32::new(sgraph.in_degree(s, t))
            })
            .collect();
        let remaining = AtomicUsize::new(total);
        let deques: Vec<Mutex<std::collections::VecDeque<u32>>> = (0..threads)
            .map(|_| Mutex::new(std::collections::VecDeque::new()))
            .collect();
        // Roots live only in sweep 0; seeded in reverse so each owner's
        // LIFO end pops them in ascending task order.
        for r in sgraph.roots().into_iter().rev() {
            deques[shard_owner(r as usize % n_tasks, n_tasks, threads)]
                .lock()
                .unwrap()
                .push_back(r);
        }
        let steal_orders: Vec<Vec<usize>> = (0..threads)
            .map(|w| machine().steal_order(w, threads))
            .collect();
        let abort = AtomicBool::new(false);
        let faults = Faults::new();

        let worker = |w: usize| -> (S, WorkerRecord) {
            let _tg = trace::install(self.obs.worker_tracer(w as u32));
            let mut state = init();
            let mut my_next: Option<u32> = None;
            let mut st = WorkerRecord::default();
            let mut idle_rounds = 0u32;
            loop {
                if abort.load(Ordering::Acquire) {
                    break;
                }
                let mut node = my_next
                    .take()
                    .or_else(|| deques[w].lock().unwrap().pop_back());
                if node.is_none() {
                    for (dist, &other) in steal_orders[w].iter().enumerate() {
                        if let Some(t) = deques[other].lock().unwrap().pop_front() {
                            st.steals += 1;
                            st.steal_dist += dist as u64 + 1;
                            trace::instant(TraceKind::Steal, other as u32, dist as u32 + 1);
                            node = Some(t);
                            break;
                        }
                    }
                }
                let Some(nd) = node else {
                    if remaining.load(Ordering::Acquire) == 0 {
                        break;
                    }
                    idle_rounds += 1;
                    if idle_rounds <= SPIN_ROUNDS {
                        thread::yield_now();
                    } else {
                        let exp = u64::from(idle_rounds - SPIN_ROUNDS).min(6);
                        let ts = trace::begin();
                        thread::sleep(Duration::from_micros((1 << exp).min(MAX_PARK_US)));
                        trace::end(TraceKind::Park, ts, idle_rounds, 0);
                    }
                    continue;
                };
                idle_rounds = 0;
                let (sweep, task) = sgraph.split(nd as usize);
                let range = sgraph.tasks().blocks_of(task);
                let chain = range.len() as u64;
                let t0 = detail.then(Instant::now);
                let ts = trace::begin();
                let mut ran = 0u64;
                let outcome = catch_unwind(AssertUnwindSafe(|| -> Result<(), E> {
                    for b in range {
                        let _wg = checker.guard(sweep, b);
                        work(&mut state, sweep, b)?;
                        ran += 1;
                    }
                    Ok(())
                }));
                trace::end_sweep(TraceKind::Task, ts, task as u32, ran as u32, tag(sweep));
                st.blocks += ran;
                if faults.record((0, 0), outcome) {
                    abort.store(true, Ordering::Release);
                    break;
                }
                if let Some(t0) = t0 {
                    st.busy_ns += t0.elapsed().as_nanos() as u64;
                }
                st.fused += chain - 1;
                // Cross-sweep successors first: with the in-hand
                // preference this descends the temporal diagonal — (t, s)
                // hands off to (t', s+1) with t' ≤ t while the stripe is
                // still hot — and the self edge (t, s) → (t, s+1) stays
                // on this worker by construction of the task-keyed shard
                // map.
                let mut offer = |x: u32, nd: u32| {
                    if indeg[nd as usize].fetch_sub(1, Ordering::AcqRel) == 1 {
                        if my_next.is_none() {
                            my_next = Some(nd);
                        } else {
                            let owner = shard_owner(x as usize, n_tasks, threads);
                            deques[owner].lock().unwrap().push_back(nd);
                        }
                    }
                };
                if sweep + 1 < sweeps {
                    for &x in sgraph.cross_successors(task) {
                        offer(x, sgraph.node(sweep + 1, x as usize) as u32);
                    }
                }
                for &x in sgraph.intra_successors(task) {
                    offer(x, sgraph.node(sweep, x as usize) as u32);
                }
                remaining.fetch_sub(1, Ordering::Release);
            }
            (state, st)
        };

        let t0 = self.obs.enabled().then(Instant::now);
        run_workers(threads, worker, &faults, merge, |workers| {
            debug_assert!(
                abort.load(Ordering::Acquire)
                    || workers.iter().map(|st| st.blocks).sum::<u64>() == (n * sweeps) as u64
            );
            let Some(t0) = t0 else { return };
            // One all-blocks level: there are no barriers to split the
            // timeline on. `blocks` is per sweep, so report means stay
            // per-sweep across batch depths.
            let level = LevelRecord {
                index: 0,
                blocks: n as u64,
                wall_ns: t0.elapsed().as_nanos() as u64,
                workers: if detail { workers } else { Vec::new() },
            };
            self.publish(threads, Scheduler::Dataflow, sweeps, vec![level]);
        })
    }

    /// Publishes one drain as a [`WavefrontRecord`] (no-op when nothing
    /// is recorded). `threads` is the *effective* worker count after the
    /// drain's width clamp.
    fn publish(
        &self,
        threads: usize,
        scheduler: Scheduler,
        sweeps: usize,
        levels: Vec<LevelRecord>,
    ) {
        if self.obs.enabled() {
            self.obs.record_wavefronts(WavefrontRecord {
                threads,
                scheduler: scheduler.name().to_owned(),
                sweeps,
                levels,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use instencil_pattern::dataflow::schedule_bundle;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    /// A pool under the levels scheduler, so eager
    /// [`WavefrontPool::try_execute`] calls take the barrier drain.
    fn levels_pool(threads: usize) -> WavefrontPool {
        WavefrontPool::with_opts(threads, Obs::off(), Scheduler::Levels)
    }

    /// Runs the infallible, stateless `work` through the barrier drain.
    fn execute(pool: &WavefrontPool, bundle: &ScheduleBundle, work: impl Fn(usize) + Sync) {
        pool.try_execute(
            bundle,
            1,
            || (),
            |(), _, b| {
                work(b);
                Ok::<(), ()>(())
            },
            |()| {},
        )
        .unwrap();
    }

    #[test]
    fn executes_every_block_once() {
        let bundle = schedule_bundle(&[4, 4], &[vec![-1, 0], vec![0, -1]]);
        let count = AtomicUsize::new(0);
        let seen = Mutex::new(vec![false; 16]);
        execute(&levels_pool(4), &bundle, |b| {
            count.fetch_add(1, Ordering::SeqCst);
            let mut seen = seen.lock().unwrap();
            assert!(!seen[b], "block {b} executed twice");
            seen[b] = true;
        });
        assert_eq!(count.load(Ordering::SeqCst), 16);
        assert!(seen.lock().unwrap().iter().all(|&x| x));
    }

    #[test]
    fn levels_are_barriers() {
        // Record a per-block completion stamp; every dependence must
        // complete before its dependent starts.
        let deps = vec![vec![-1, 0], vec![0, -1]];
        let bundle = schedule_bundle(&[5, 5], &deps);
        let clock = AtomicUsize::new(0);
        let stamps: Vec<AtomicUsize> = (0..25).map(|_| AtomicUsize::new(0)).collect();
        execute(&levels_pool(3), &bundle, |b| {
            let t = clock.fetch_add(1, Ordering::SeqCst);
            stamps[b].store(t + 1, Ordering::SeqCst);
        });
        for i in 0..5usize {
            for j in 0..5usize {
                let b = i * 5 + j;
                for d in &deps {
                    let si = i as i64 + d[0];
                    let sj = j as i64 + d[1];
                    if si >= 0 && sj >= 0 {
                        let src = (si * 5 + sj) as usize;
                        assert!(
                            stamps[src].load(Ordering::SeqCst) < stamps[b].load(Ordering::SeqCst),
                            "dep {src} finished after {b}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn single_thread_path() {
        // Rows of a 3×2 grid depending on the row above: levels
        // [0, 1], [2, 3], [4, 5], run level by level in ascending order.
        let bundle = schedule_bundle(&[3, 2], &[vec![-1, 0]]);
        let rows: Vec<&[usize]> = bundle.csr.levels().collect();
        assert_eq!(rows, [[0, 1], [2, 3], [4, 5]]);
        let order = Mutex::new(Vec::new());
        execute(&levels_pool(1), &bundle, |b| order.lock().unwrap().push(b));
        assert_eq!(*order.lock().unwrap(), vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn stateful_merges_every_worker() {
        // 5 levels, 9 blocks, more workers than blocks in some levels.
        let bundle = schedule_bundle(&[3, 3], &[vec![-1, 0], vec![0, -1]]);
        for threads in [1usize, 2, 4, 8] {
            let mut total = 0usize;
            let mut merges = 0usize;
            levels_pool(threads)
                .try_execute(
                    &bundle,
                    1,
                    || 0usize,
                    |count, _, b| {
                        *count += b + 1;
                        Ok::<(), ()>(())
                    },
                    |count| {
                        total += count;
                        merges += 1;
                    },
                )
                .unwrap();
            // Sum of (b+1) over b in 0..9 regardless of thread count.
            assert_eq!(total, 45, "threads={threads}");
            assert!(merges >= 1);
        }
    }

    #[test]
    fn stateful_propagates_first_error_and_partial_state() {
        // Levels [0, 1], [2, 3].
        let bundle = schedule_bundle(&[2, 2], &[vec![-1, 0]]);
        for threads in [1usize, 3] {
            let mut total = 0usize;
            let err = levels_pool(threads)
                .try_execute(
                    &bundle,
                    1,
                    || 0usize,
                    |count, _, b| {
                        if b >= 2 {
                            return Err(format!("block {b} failed"));
                        }
                        *count += 1;
                        Ok(())
                    },
                    |count| total += count,
                )
                .unwrap_err();
            assert!(err.starts_with("block "), "threads={threads}: {err}");
            // Level 0 completed before the failing level was entered.
            assert_eq!(total, 2, "threads={threads}");
        }
    }

    #[test]
    fn stateful_empty_schedule() {
        // A zero extent is the empty schedule.
        let bundle = schedule_bundle(&[0, 4], &[vec![-1, 0]]);
        for threads in [1usize, 4] {
            let mut merges = 0usize;
            levels_pool(threads)
                .try_execute(
                    &bundle,
                    1,
                    || (),
                    |(), _, _| Ok::<(), ()>(()),
                    |()| merges += 1,
                )
                .unwrap();
            // Nothing runs, so no worker is spawned and nothing merged.
            assert_eq!(merges, 0, "threads={threads}");
        }
    }

    #[test]
    fn stateful_propagates_worker_panics_with_payload() {
        // One level of four independent blocks.
        let bundle = schedule_bundle(&[4], &[]);
        for threads in [1usize, 2] {
            let err = std::panic::catch_unwind(AssertUnwindSafe(|| {
                levels_pool(threads)
                    .try_execute(
                        &bundle,
                        1,
                        || (),
                        |(), _, b| {
                            if b == 1 {
                                panic!("block {b} exploded");
                            }
                            Ok::<(), ()>(())
                        },
                        |()| {},
                    )
                    .unwrap();
            }))
            .expect_err("worker panic must propagate");
            let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
            assert_eq!(
                msg, "block 1 exploded",
                "threads={threads}: original payload must survive"
            );
        }
    }

    #[test]
    fn levels_record_every_level_with_worker_detail() {
        // An eager levels call publishes one record per level, with
        // per-worker detail at `Trace`, at every worker count.
        let bundle = schedule_bundle(&[4, 4], &[vec![-1, 0], vec![0, -1]]);
        for threads in [1usize, 2] {
            let obs = Obs::new(instencil_obs::ObsLevel::Trace);
            WavefrontPool::with_opts(threads, obs.clone(), Scheduler::Levels)
                .try_execute(&bundle, 1, || (), |(), _, _| Ok::<(), ()>(()), |()| {})
                .unwrap();
            let rec = obs.snapshot();
            assert_eq!(rec.wavefronts.len(), 1, "threads={threads}");
            let w = &rec.wavefronts[0];
            assert_eq!(w.threads, threads);
            assert_eq!(w.levels.len(), bundle.csr.num_levels(), "threads={threads}");
            for (index, level) in w.levels.iter().enumerate() {
                assert_eq!(level.index, index, "threads={threads}");
                assert_eq!(level.blocks, bundle.csr.level(index).len() as u64);
                let executed: u64 = level.workers.iter().map(|x| x.blocks).sum();
                assert_eq!(executed, level.blocks, "threads={threads} level {index}");
            }
        }
    }

    /// A pool under the dataflow scheduler, so eager
    /// [`WavefrontPool::try_execute`] calls take the graph drain.
    fn dataflow_pool(threads: usize) -> WavefrontPool {
        WavefrontPool::with_opts(threads, Obs::off(), Scheduler::Dataflow)
    }

    #[test]
    fn dataflow_executes_every_block_once_and_respects_deps() {
        let deps = vec![vec![-1i64, 0], vec![0, -1]];
        let bundle = schedule_bundle(&[5, 5], &deps);
        let graph = &bundle.graph;
        for threads in [1usize, 2, 4, 8] {
            let clock = AtomicUsize::new(0);
            let starts: Vec<AtomicUsize> = (0..25).map(|_| AtomicUsize::new(0)).collect();
            let ends: Vec<AtomicUsize> = (0..25).map(|_| AtomicUsize::new(0)).collect();
            let count = AtomicUsize::new(0);
            dataflow_pool(threads)
                .try_execute(
                    &bundle,
                    1,
                    || (),
                    |(), _, b| {
                        starts[b].store(clock.fetch_add(1, Ordering::SeqCst) + 1, Ordering::SeqCst);
                        count.fetch_add(1, Ordering::SeqCst);
                        ends[b].store(clock.fetch_add(1, Ordering::SeqCst) + 1, Ordering::SeqCst);
                        Ok::<(), ()>(())
                    },
                    |()| {},
                )
                .unwrap();
            assert_eq!(count.load(Ordering::SeqCst), 25, "threads={threads}");
            for (b, start) in starts.iter().enumerate() {
                for &p in graph.predecessors(b) {
                    assert!(
                        ends[p as usize].load(Ordering::SeqCst)
                            < start.load(Ordering::SeqCst),
                        "threads={threads}: pred {p} still running when {b} started"
                    );
                }
            }
        }
    }

    #[test]
    fn dataflow_merges_states_and_propagates_errors() {
        let bundle = schedule_bundle(&[4, 2], &[vec![-1i64, 0]]);
        for threads in [1usize, 2, 4] {
            let mut total = 0usize;
            dataflow_pool(threads)
                .try_execute(
                    &bundle,
                    1,
                    || 0usize,
                    |count, _, b| {
                        *count += b + 1;
                        Ok::<(), ()>(())
                    },
                    |count| total += count,
                )
                .unwrap();
            assert_eq!(total, 36, "threads={threads}");

            let err = dataflow_pool(threads)
                .try_execute(
                    &bundle,
                    1,
                    || (),
                    |(), _, b| {
                        if b >= 6 {
                            return Err(format!("block {b} failed"));
                        }
                        Ok(())
                    },
                    |()| {},
                )
                .unwrap_err();
            assert!(err.starts_with("block "), "threads={threads}: {err}");
        }
    }

    #[test]
    fn dataflow_propagates_worker_panics_with_payload() {
        let bundle = schedule_bundle(&[3, 3], &[vec![-1i64, 0], vec![0, -1]]);
        for threads in [1usize, 3] {
            let err = std::panic::catch_unwind(AssertUnwindSafe(|| {
                dataflow_pool(threads)
                    .try_execute(
                        &bundle,
                        1,
                        || (),
                        |(), _, b| {
                            if b == 4 {
                                panic!("block {b} exploded");
                            }
                            Ok::<(), ()>(())
                        },
                        |()| {},
                    )
                    .unwrap();
            }))
            .expect_err("worker panic must propagate");
            let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
            assert_eq!(msg, "block 4 exploded", "threads={threads}");
        }
    }

    #[test]
    fn dataflow_empty_graph_is_a_no_op() {
        // A 1-block graph with no deps degenerates but must still run.
        let bundle = schedule_bundle(&[1], &[]);
        let mut ran = 0usize;
        dataflow_pool(4)
            .try_execute(
                &bundle,
                1,
                || (),
                |(), _, _| Ok::<(), ()>(()),
                |()| ran += 1,
            )
            .unwrap();
        assert!(ran >= 1);
    }

    #[test]
    fn dataflow_fuses_chains_and_counts_blocks_not_tasks() {
        // 6x6 grid at 4 threads under the default machine model:
        // grain = (36 / (4*4)).clamp(1, 6) = 2, row-clipped into 18
        // tasks of 2 blocks each. The `blocks` counters must keep
        // counting *blocks* and the fusion savings must be attributed
        // to `fused`.
        let obs = Obs::new(instencil_obs::ObsLevel::Trace);
        let bundle = schedule_bundle(&[6, 6], &[vec![-1i64, 0], vec![0, -1]]);
        let pool = WavefrontPool::with_opts(4, obs.clone(), Scheduler::Dataflow);
        assert_eq!(pool.grain_for(&bundle.graph), 2);
        let count = AtomicUsize::new(0);
        pool.try_execute(
            &bundle,
            1,
            || (),
            |(), _, _| {
                count.fetch_add(1, Ordering::SeqCst);
                Ok::<(), ()>(())
            },
            |()| {},
        )
        .unwrap();
        assert_eq!(count.load(Ordering::SeqCst), 36);
        let rec = obs.snapshot();
        let w = &rec.wavefronts[0];
        let blocks: u64 = w.levels[0].workers.iter().map(|x| x.blocks).sum();
        let fused: u64 = w.levels[0].workers.iter().map(|x| x.fused).sum();
        let steals: u64 = w.levels[0].workers.iter().map(|x| x.steals).sum();
        let dist: u64 = w.levels[0].workers.iter().map(|x| x.steal_dist).sum();
        assert_eq!(blocks, 36, "counters count blocks, not tasks");
        assert_eq!(fused, 18, "36 blocks over 18 two-block tasks");
        assert!(dist >= steals, "every steal travels distance >= 1");
    }

    #[test]
    fn dataflow_merges_worker_state_and_respects_deps() {
        let deps = vec![vec![-1i64, 0], vec![0, -1]];
        let bundle = schedule_bundle(&[5, 5], &deps);
        for threads in [1usize, 2, 4, 8] {
            let clock = AtomicUsize::new(0);
            let starts: Vec<AtomicUsize> = (0..25).map(|_| AtomicUsize::new(0)).collect();
            let ends: Vec<AtomicUsize> = (0..25).map(|_| AtomicUsize::new(0)).collect();
            let mut total = 0usize;
            dataflow_pool(threads)
                .try_execute(
                    &bundle,
                    1,
                    || 0usize,
                    |count, _, b| {
                        starts[b].store(clock.fetch_add(1, Ordering::SeqCst) + 1, Ordering::SeqCst);
                        *count += b + 1;
                        ends[b].store(clock.fetch_add(1, Ordering::SeqCst) + 1, Ordering::SeqCst);
                        Ok::<(), ()>(())
                    },
                    |count| total += count,
                )
                .unwrap();
            assert_eq!(total, 325, "threads={threads}");
            for (b, start) in starts.iter().enumerate() {
                for &p in bundle.graph.predecessors(b) {
                    assert!(
                        ends[p as usize].load(Ordering::SeqCst) < start.load(Ordering::SeqCst),
                        "threads={threads}: pred {p} still running when {b} started"
                    );
                }
            }
        }
    }

    #[test]
    fn dataflow_records_steals_and_busy_at_trace() {
        let obs = Obs::new(instencil_obs::ObsLevel::Trace);
        let bundle = schedule_bundle(&[6, 6], &[vec![-1i64, 0], vec![0, -1]]);
        WavefrontPool::with_opts(4, obs.clone(), Scheduler::Dataflow)
            .try_execute(
                &bundle,
                1,
                || (),
                |(), _, _| {
                    // Enough work that busy times are nonzero.
                    std::hint::black_box((0..500).sum::<u64>());
                    Ok::<(), ()>(())
                },
                |()| {},
            )
            .unwrap();
        let rec = obs.snapshot();
        assert_eq!(rec.wavefronts.len(), 1);
        let w = &rec.wavefronts[0];
        assert_eq!(w.scheduler, "dataflow");
        assert_eq!(w.levels.len(), 1, "dataflow reports one all-blocks level");
        assert_eq!(w.levels[0].blocks, 36);
        let total: u64 = w.levels[0].workers.iter().map(|x| x.blocks).sum();
        assert_eq!(total, 36, "every block attributed to exactly one worker");
        assert!(w.levels[0].wall_ns > 0);
    }

    #[test]
    fn eager_dataflow_is_a_batch_of_one_sweep() {
        // An eager dataflow call is the graph drain at k = 1: one
        // `sweeps: 1` dataflow record, task events tagged sweep 0 (not
        // batched). The same call under levels takes the barrier drain.
        let bundle = schedule_bundle(&[4, 4], &[vec![-1i64, 0], vec![0, -1]]);
        for threads in [1usize, 2] {
            for (scheduler, name) in [
                (Scheduler::Dataflow, "dataflow"),
                (Scheduler::Levels, "levels"),
            ] {
                let obs = Obs::new(instencil_obs::ObsLevel::Trace);
                WavefrontPool::with_opts(threads, obs.clone(), scheduler)
                    .try_execute(&bundle, 1, || (), |(), _, _| Ok::<(), ()>(()), |()| {})
                    .unwrap();
                let rec = obs.snapshot();
                assert_eq!(rec.wavefronts.len(), 1, "threads={threads} {name}");
                assert_eq!(rec.wavefronts[0].scheduler, name, "threads={threads}");
                assert_eq!(rec.wavefronts[0].sweeps, 1, "threads={threads} {name}");
                let tasks: Vec<_> = rec
                    .rings
                    .iter()
                    .flat_map(|r| &r.events)
                    .filter(|e| e.kind == TraceKind::Task)
                    .collect();
                assert!(!tasks.is_empty(), "threads={threads} {name}");
                assert!(
                    tasks.iter().all(|e| e.sweep == 0),
                    "threads={threads} {name}"
                );
            }
        }
    }
}
