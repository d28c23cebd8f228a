//! Driving compiled kernels: one [`Runner`] per configured run.
//!
//! Kernels compiled by `instencil-core` perform one sweep per call and
//! mutate their argument buffers in place. [`Runner::with_opts`] is the
//! one way to bind a module to an [`Engine`], a wavefront worker count,
//! a [`Scheduler`] and an [`Obs`] collector. A bound runner then makes
//! eager calls ([`Runner::call`]), fused sweep batches
//! ([`Runner::call_sweeps`]), `n` sweeps in batches of
//! [`DEFAULT_SWEEP_BATCH`] ([`Runner::sweeps`]), or a solve to a
//! residual tolerance ([`Runner::until_converged`], which reports a
//! typed [`SolveOutcome`]). The three free functions [`run_sweeps`],
//! [`run_until_converged`] and [`run_jacobi_sweeps`] do the same on a
//! default runner: bytecode, one thread, levels, no collector.
//!
//! # Engine selection
//!
//! [`Engine::Bytecode`] (the default) compiles the module to bytecode
//! once up front and replays the tapes each sweep. Modules outside the
//! lowered subset — reference modules with structured `cfd` ops — make
//! bytecode compilation report [`BcCompileError::Unsupported`], and the
//! runner falls back to the tree-walking [`Interpreter`]; both engines
//! are bit-identical in results and statistics, so the fallback is
//! observable as wall-clock time and — with a collector attached — as
//! an `engine-fallback` event surfaced in the [`RunReport`] together
//! with the compile/execute time split.

use instencil_ir::Module;
use instencil_obs::{Obs, RunReport};
use instencil_pattern::dataflow::Scheduler;

use crate::buffer::BufferView;
use crate::bytecode::BytecodeEngine;
use crate::compile::BcCompileError;
use crate::interp::{ExecError, Interpreter};
use crate::stats::ExecStats;
use crate::value::RtVal;
use crate::BcOptions;

/// Which execution engine runs the lowered module.
///
/// Every engine is bit-identical (results *and* [`ExecStats`] counters
/// — enforced by the `engine_equiv` differential tests), so the choice
/// trades debuggability against speed, never semantics:
///
/// * [`Engine::Bytecode`] (the default) compiles each function once into
///   flat register-machine tapes and is what wall-clock numbers should
///   be measured on;
/// * [`Engine::Interp`] re-walks the IR tree per executed op — the
///   reference semantics, and the only engine able to execute structured
///   `cfd` reference modules ([`Runner`] falls back to it automatically
///   when bytecode compilation reports an unsupported op).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Engine {
    /// Tree-walking reference interpreter.
    Interp,
    /// Compiled bytecode tapes (default), with innermost-loop run
    /// specialization: straight-line stencil bodies execute a whole
    /// contiguous run of points per dispatch.
    #[default]
    Bytecode,
    /// Compiled bytecode tapes with run specialization disabled —
    /// every point pays full opcode dispatch. Exists to measure what
    /// the specialized run path buys (see `benches/engines.rs`) and as
    /// a differential-testing comparator; results and statistics are
    /// bit-identical to the other two engines.
    BytecodeDispatch,
}

/// Stable engine name used in run reports.
fn engine_name(engine: Engine) -> &'static str {
    match engine {
        Engine::Interp => "interp",
        Engine::Bytecode => "bytecode",
        Engine::BytecodeDispatch => "bytecode-dispatch",
    }
}

/// The engine actually bound by a [`Runner`].
#[derive(Debug)]
enum RunnerInner<'m> {
    /// Tree-walking reference interpreter.
    Interp {
        /// The module under execution.
        module: &'m Module,
        /// The interpreter instance (owns accumulated statistics).
        interp: Interpreter,
    },
    /// Compiled bytecode tapes.
    Bytecode(BytecodeEngine),
}

/// A module bound to an execution engine: bytecode when the module is in
/// the lowered subset (or when explicitly requested), the tree-walking
/// interpreter otherwise. Remembers which engine was *requested* and why
/// a fallback fired, so run reports can surface the decision.
#[derive(Debug)]
pub struct Runner<'m> {
    inner: RunnerInner<'m>,
    requested: Engine,
    fallback: Option<String>,
    obs: Obs,
    threads: usize,
}

/// Resolves the `threads` knob: `0` means "auto" — one worker per
/// available hardware thread — and any explicit request is clamped to
/// the host's available parallelism. Oversubscribing wavefront workers
/// is never useful here: the workers are CPU-bound and barrier- or
/// steal-coupled, so extra OS threads on the same cores only add
/// context-switch latency to every level/in-degree handoff (this is
/// exactly the inverse-scaling pathology BENCH_exec.json showed on
/// single-core hosts: 621 -> 1174 ns/point from 1 to 8 "threads").
/// This is the single place the sentinel and the clamp are applied;
/// the engines and [`WavefrontPool`](crate::parallel::WavefrontPool)
/// run whatever count they are given, so tests can still exercise true
/// multi-worker interleavings on any host.
fn resolve_threads(threads: usize) -> usize {
    let host = std::thread::available_parallelism().map_or(1, |n| n.get());
    if threads == 0 {
        host
    } else {
        threads.min(host)
    }
}

impl<'m> Runner<'m> {
    /// Binds `module` to `engine` with `threads` wavefront workers
    /// under `scheduler`, recording into `obs`: bytecode compilation
    /// under an `engine:compile` span, each call under `engine:execute`,
    /// the interpreter fallback as an `engine-fallback` event, and
    /// wavefront timings through the engine's pool. [`Engine::Bytecode`]
    /// falls back to the interpreter when the module contains ops
    /// outside the lowered subset (structured `cfd` reference ops); a
    /// *malformed* module fails on either engine, so that error is
    /// surfaced instead of masked by fallback. `threads == 0` means
    /// "auto": one worker per available hardware thread (resolved here,
    /// nowhere else).
    ///
    /// # Errors
    /// Returns an error only for [`BcCompileError::Malformed`] modules.
    pub fn with_opts(
        module: &'m Module,
        engine: Engine,
        threads: usize,
        scheduler: Scheduler,
        obs: Obs,
    ) -> Result<Self, ExecError> {
        let threads = resolve_threads(threads);
        let mut fallback = None;
        let inner = match engine {
            Engine::Interp => RunnerInner::Interp {
                module,
                interp: Interpreter::with_opts(threads, obs.clone(), scheduler),
            },
            Engine::Bytecode | Engine::BytecodeDispatch => {
                let compiled = {
                    let _span = obs.span("engine:compile");
                    let opts = BcOptions {
                        specialize_runs: engine == Engine::Bytecode,
                    };
                    BytecodeEngine::compile(module, threads, scheduler, obs.clone(), opts)
                };
                match compiled {
                    Ok(engine) => RunnerInner::Bytecode(engine),
                    Err(BcCompileError::Unsupported(what)) => {
                        let reason = format!("unsupported by bytecode: {what}");
                        obs.event("engine-fallback", &reason);
                        fallback = Some(reason);
                        RunnerInner::Interp {
                            module,
                            interp: Interpreter::with_opts(threads, obs.clone(), scheduler),
                        }
                    }
                    Err(e @ BcCompileError::Malformed(_)) => {
                        return Err(ExecError::new(e.to_string()))
                    }
                }
            }
        };
        Ok(Runner {
            inner,
            requested: engine,
            fallback,
            obs,
            threads,
        })
    }

    /// Calls a function of the bound module by name.
    ///
    /// # Errors
    /// Propagates engine failures.
    pub fn call(&mut self, name: &str, args: Vec<RtVal>) -> Result<Vec<RtVal>, ExecError> {
        let _span = self.obs.span("engine:execute");
        match &mut self.inner {
            RunnerInner::Interp { module, interp } => interp.call(module, name, args),
            RunnerInner::Bytecode(engine) => engine.call(name, args),
        }
    }

    /// Calls a function `sweeps` times over the same arguments,
    /// returning the last call's results. On the bytecode engine the
    /// whole batch drains as **one** fused dataflow pass over the
    /// sweep-extended dependence graph (block `b` of sweep `s+1` starts
    /// as soon as its sweep-`s` neighborhood retires); results and
    /// statistics are bit-identical to `sweeps` eager [`Self::call`]s.
    /// The interpreter has no batched path and loops eagerly.
    ///
    /// # Errors
    /// Propagates engine failures; the first failing sweep aborts.
    pub fn call_sweeps(
        &mut self,
        name: &str,
        args: Vec<RtVal>,
        sweeps: usize,
    ) -> Result<Vec<RtVal>, ExecError> {
        let _span = self.obs.span("engine:execute");
        match &mut self.inner {
            RunnerInner::Interp { module, interp } => {
                if sweeps == 0 {
                    return Err(ExecError::new("sweep batch needs at least one sweep"));
                }
                let mut out = Vec::new();
                for _ in 0..sweeps {
                    out = interp.call(module, name, args.clone())?;
                }
                Ok(out)
            }
            RunnerInner::Bytecode(engine) => engine.call_sweeps(name, args, sweeps),
        }
    }

    /// Runs `n` identical in-place sweeps of `func` over `buffers`
    /// (passed as memref arguments), draining them through
    /// [`Self::call_sweeps`] in batches of [`DEFAULT_SWEEP_BATCH`].
    /// Results and statistics are bit-identical to `n` eager
    /// [`Self::call`]s.
    ///
    /// # Errors
    /// Propagates engine failures; the first failing batch aborts.
    pub fn sweeps(
        &mut self,
        func: &str,
        buffers: &[BufferView],
        n: usize,
    ) -> Result<(), ExecError> {
        let args: Vec<RtVal> = buffers.iter().cloned().map(RtVal::Buf).collect();
        let mut done = 0;
        while done < n {
            let k = DEFAULT_SWEEP_BATCH.min(n - done);
            self.call_sweeps(func, args.clone(), k)?;
            done += k;
        }
        Ok(())
    }

    /// Sweeps `func` over `buffers` until the in-place solution stops
    /// changing: after every batch it measures the max-norm delta of
    /// `buffers[watch]` since the previous batch boundary and stops once
    /// that drops below `tol`, or as [`SolveOutcome::NonFinite`] once it
    /// is NaN or infinite. Gives up after `max_sweeps` sweeps.
    ///
    /// On bytecode, batches are [`DEFAULT_SWEEP_BATCH`] deep and the
    /// residual fold ([`BufferView::max_delta_update`]) is one pass over
    /// the watched buffer per batch, so a converged count may overshoot
    /// the true stopping sweep by up to `depth − 1` sweeps (extra
    /// Gauss-Seidel sweeps past the fixed point are harmless: the fixed
    /// point is stationary). The interpreter has no fused batches and
    /// checks after every sweep.
    ///
    /// # Errors
    /// Propagates engine failures.
    pub fn until_converged(
        &mut self,
        func: &str,
        buffers: &[BufferView],
        watch: usize,
        tol: f64,
        max_sweeps: usize,
    ) -> Result<SolveOutcome, ExecError> {
        let depth = match self.inner {
            RunnerInner::Bytecode(_) => DEFAULT_SWEEP_BATCH,
            RunnerInner::Interp { .. } => 1,
        };
        let args: Vec<RtVal> = buffers.iter().cloned().map(RtVal::Buf).collect();
        let mut previous = buffers[watch].to_vec();
        let mut done = 0;
        while done < max_sweeps {
            let k = depth.min(max_sweeps - done);
            self.call_sweeps(func, args.clone(), k)?;
            done += k;
            // Batch boundary: one fused pass computes the max-norm delta
            // against the last boundary and refreshes the snapshot in place.
            let delta = buffers[watch].max_delta_update(&mut previous);
            if !delta.is_finite() {
                return Ok(SolveOutcome::NonFinite { sweeps: done });
            }
            if delta < tol {
                return Ok(SolveOutcome::Converged { sweeps: done });
            }
        }
        Ok(SolveOutcome::MaxSweeps)
    }

    /// Statistics accumulated across calls.
    pub fn stats(&self) -> ExecStats {
        match &self.inner {
            RunnerInner::Interp { interp, .. } => interp.stats,
            RunnerInner::Bytecode(engine) => engine.stats,
        }
    }

    /// Which engine actually executes (after any fallback).
    pub fn engine(&self) -> Engine {
        match &self.inner {
            RunnerInner::Interp { .. } => Engine::Interp,
            // Both bytecode flavors bind the same engine type; the
            // requested variant records which compile options were used.
            RunnerInner::Bytecode(_) => self.requested,
        }
    }

    /// The engine the caller asked for.
    pub fn requested_engine(&self) -> Engine {
        self.requested
    }

    /// The resolved wavefront worker count (`threads == 0` requests
    /// resolve to the available hardware parallelism).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Why the runner fell back to the interpreter, when it did.
    pub fn fallback_reason(&self) -> Option<&str> {
        self.fallback.as_deref()
    }

    /// The attached collector.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Builds the run report from everything the attached collector has
    /// recorded, filling in the engine section (requested/actual engine,
    /// fallback reason) and the [`ExecStats`] counters. With the
    /// collector off this is exactly [`RunReport::default`].
    pub fn report(&self) -> RunReport {
        if !self.obs.enabled() {
            return RunReport::default();
        }
        let mut report = self.obs.report();
        report.engine.requested = engine_name(self.requested).into();
        report.engine.actual = engine_name(self.engine()).into();
        report.engine.fallback_reason = self.fallback.clone();
        report.exec_stats = Some(self.stats().to_json());
        report
    }

    /// Folds everything the attached collector's per-worker event rings
    /// have recorded (plus the pass/engine spans) into Chrome/Perfetto
    /// `trace_event` JSON — load the string in `chrome://tracing` or
    /// <https://ui.perfetto.dev>. Empty-but-valid document unless the
    /// collector is at [`ObsLevel::Trace`](instencil_obs::ObsLevel).
    pub fn chrome_trace(&self) -> String {
        let rec = self.obs.snapshot();
        let rings = instencil_obs::trace::merge_rings(&rec.rings);
        instencil_obs::trace::chrome_trace(&rings, &rec.spans).to_string()
    }
}

/// Batch depth of [`Runner::sweeps`] and [`Runner::until_converged`]:
/// deep enough to amortize the per-call fixed cost (dispatch, register
/// file, prefix tape, schedule lookup) over a batch, shallow enough that
/// convergence checks at batch boundaries overshoot the true stopping
/// sweep by at most 7. The autotuner refines this per problem via
/// [`best_batch_depth`](instencil_machine::best_batch_depth) into
/// [`TunedTiles::batch`](instencil_machine::TunedTiles).
pub const DEFAULT_SWEEP_BATCH: usize = 8;

/// How a [`Runner::until_converged`] solve ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SolveOutcome {
    /// The residual dropped below the tolerance after `sweeps` sweeps.
    Converged {
        /// Sweeps executed, up to the batch boundary that converged.
        sweeps: usize,
    },
    /// `max_sweeps` sweeps ran without reaching the tolerance.
    MaxSweeps,
    /// The residual was NaN or infinite at the batch boundary after
    /// `sweeps` sweeps: the field diverged, and the solve stopped there.
    NonFinite {
        /// Sweeps executed, up to the batch boundary that detected it.
        sweeps: usize,
    },
}

/// The runner behind the free functions: bytecode (falling back to the
/// interpreter), one thread, levels, no collector.
fn default_runner(module: &Module) -> Result<Runner<'_>, ExecError> {
    Runner::with_opts(module, Engine::default(), 1, Scheduler::Levels, Obs::off())
}

/// [`Runner::sweeps`] on a default runner: runs `func` of `module` for
/// `iterations` sweeps over the given buffers. Returns the accumulated
/// execution statistics.
///
/// # Errors
/// Propagates engine failures.
pub fn run_sweeps(
    module: &Module,
    func: &str,
    buffers: &[BufferView],
    iterations: usize,
) -> Result<ExecStats, ExecError> {
    let mut runner = default_runner(module)?;
    runner.sweeps(func, buffers, iterations)?;
    Ok(runner.stats())
}

/// Runs alternating-buffer sweeps for out-of-place kernels (Jacobi) on a
/// default runner: `func(X, B, Y)` with `X`/`Y` swapped every iteration.
/// Returns the buffer holding the final solution.
///
/// # Errors
/// Propagates engine failures.
pub fn run_jacobi_sweeps(
    module: &Module,
    func: &str,
    x: &BufferView,
    b: &BufferView,
    y: &BufferView,
    iterations: usize,
) -> Result<BufferView, ExecError> {
    let mut runner = default_runner(module)?;
    let mut cur = x.clone();
    let mut next = y.clone();
    for _ in 0..iterations {
        runner.call(
            func,
            vec![
                RtVal::Buf(cur.clone()),
                RtVal::Buf(b.clone()),
                RtVal::Buf(next.clone()),
            ],
        )?;
        std::mem::swap(&mut cur, &mut next);
    }
    Ok(cur)
}

/// [`Runner::until_converged`] on a default runner.
///
/// # Errors
/// Propagates engine failures.
pub fn run_until_converged(
    module: &Module,
    func: &str,
    buffers: &[BufferView],
    watch: usize,
    tol: f64,
    max_sweeps: usize,
) -> Result<SolveOutcome, ExecError> {
    default_runner(module)?.until_converged(func, buffers, watch, tol, max_sweeps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use instencil_core::kernels;
    use instencil_core::pipeline::{compile, reference_module, PipelineOptions};

    fn runner(module: &Module, engine: Engine, threads: usize) -> Runner<'_> {
        Runner::with_opts(module, engine, threads, Scheduler::Levels, Obs::off()).unwrap()
    }

    /// `n` eager calls: one `scf.execute_wavefronts` drain per sweep.
    fn eager(runner: &mut Runner<'_>, func: &str, buffers: &[BufferView], n: usize) {
        for _ in 0..n {
            let args: Vec<RtVal> = buffers.iter().cloned().map(RtVal::Buf).collect();
            runner.call(func, args).unwrap();
        }
    }

    /// A 10×10 field with boundary 1 and interior 0: converges to all
    /// ones under Gauss-Seidel.
    fn boundary_one() -> [BufferView; 2] {
        let w = BufferView::alloc(&[1, 10, 10]);
        for i in 0..10i64 {
            for j in 0..10i64 {
                if i == 0 || j == 0 || i == 9 || j == 9 {
                    w.store(&[0, i, j], 1.0);
                }
            }
        }
        [w, BufferView::alloc(&[1, 10, 10])]
    }

    #[test]
    fn run_sweeps_mutates_in_place() {
        let m = reference_module(&kernels::gauss_seidel_5pt_module()).unwrap();
        let w = BufferView::alloc(&[1, 6, 6]);
        w.store(&[0, 3, 3], 5.0); // impulse: not a fixed point of averaging
        let b = BufferView::alloc(&[1, 6, 6]);
        let before = w.to_vec();
        let stats = run_sweeps(&m, "gs5", &[w.clone(), b], 2).unwrap();
        assert_ne!(w.to_vec(), before);
        assert_eq!(stats.reference_ops, 2);
        assert!(stats.loads > 0);
    }

    #[test]
    fn reference_modules_fall_back_to_interp() {
        let m = reference_module(&kernels::gauss_seidel_5pt_module()).unwrap();
        assert_eq!(
            runner(&m, Engine::Bytecode, 1).engine(),
            Engine::Interp,
            "structured cfd ops must fall back to the tree-walker"
        );
    }

    #[test]
    fn lowered_modules_run_on_bytecode() {
        let c = compile(
            &kernels::gauss_seidel_5pt_module(),
            &PipelineOptions::new(vec![4, 4], vec![2, 2]),
        )
        .unwrap();
        assert_eq!(
            runner(&c.module, Engine::Bytecode, 1).engine(),
            Engine::Bytecode
        );
    }

    #[test]
    fn run_until_converged_reaches_fixed_point() {
        let m = reference_module(&kernels::gauss_seidel_5pt_module()).unwrap();
        let [w, b] = boundary_one();
        let outcome = run_until_converged(&m, "gs5", &[w.clone(), b], 0, 1e-9, 5_000).unwrap();
        let SolveOutcome::Converged { sweeps } = outcome else {
            panic!("must converge, got {outcome:?}");
        };
        assert!(sweeps < 5_000);
        assert!((w.load(&[0, 5, 5]) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn sweeps_are_engine_and_thread_invariant() {
        let c = compile(
            &kernels::gauss_seidel_5pt_module(),
            &PipelineOptions::new(vec![4, 4], vec![2, 2]),
        )
        .unwrap();
        let n = 12usize;
        let init = || {
            let w = BufferView::alloc(&[1, n, n]);
            for i in 0..n as i64 {
                for j in 0..n as i64 {
                    w.store(&[0, i, j], ((i * 7 + j * 3) % 11) as f64 * 0.1);
                }
            }
            [w, BufferView::alloc(&[1, n, n])]
        };
        let seq_bufs = init();
        let mut seq = runner(&c.module, Engine::Interp, 1);
        seq.sweeps("gs5", &seq_bufs, 2).unwrap();
        let par_bufs = init();
        let mut par = runner(&c.module, Engine::Bytecode, 3);
        par.sweeps("gs5", &par_bufs, 2).unwrap();
        assert_eq!(
            seq_bufs[0].to_vec(),
            par_bufs[0].to_vec(),
            "bit-identical across engines"
        );
        assert_eq!(
            seq.stats(),
            par.stats(),
            "engine- and thread-invariant stats"
        );
        assert!(par.stats().wavefront_levels > 0);
    }

    #[test]
    fn zero_threads_resolves_to_available_parallelism() {
        let c = compile(
            &kernels::gauss_seidel_5pt_module(),
            &PipelineOptions::new(vec![4, 4], vec![2, 2]).threads(0),
        )
        .unwrap();
        assert_eq!(c.options.threads, 0, "the sentinel survives compilation");
        let auto = std::thread::available_parallelism().map_or(1, |n| n.get());
        let threads = |requested| runner(&c.module, Engine::Bytecode, requested).threads();
        assert_eq!(threads(0), auto, "0 means one worker per hw thread");
        assert!(threads(0) >= 1);
        // Explicit counts are clamped to the host: oversubscribed
        // wavefront workers only trade useful work for context
        // switches (see `resolve_threads`).
        assert_eq!(threads(3), 3.min(auto));
        assert_eq!(threads(auto + 7), auto, "requests beyond the host clamp");
    }

    #[test]
    fn dataflow_matches_levels_bitwise() {
        let c = compile(
            &kernels::gauss_seidel_5pt_module(),
            &PipelineOptions::new(vec![3, 3], vec![2, 2]),
        )
        .unwrap();
        let init = || {
            let w = BufferView::alloc(&[1, 14, 14]);
            for i in 0..14i64 {
                for j in 0..14i64 {
                    w.store(&[0, i, j], ((i * 5 + j * 11) % 13) as f64 * 0.25);
                }
            }
            [w, BufferView::alloc(&[1, 14, 14])]
        };
        let run = |scheduler| {
            let bufs = init();
            let mut r =
                Runner::with_opts(&c.module, Engine::Bytecode, 4, scheduler, Obs::off()).unwrap();
            eager(&mut r, "gs5", &bufs, 3);
            (bufs[0].to_vec(), r.stats())
        };
        let (wl, stats_l) = run(Scheduler::Levels);
        let (wd, stats_d) = run(Scheduler::Dataflow);
        assert_eq!(wl, wd, "bit-identical across schedulers");
        assert_eq!(stats_l, stats_d, "scheduler-invariant statistics");
        assert!(stats_d.wavefront_levels > 0);
    }

    #[test]
    fn batched_sweeps_match_eager_bitwise() {
        let c = compile(
            &kernels::gauss_seidel_5pt_module(),
            &PipelineOptions::new(vec![4, 4], vec![2, 2]),
        )
        .unwrap();
        let init = || {
            let w = BufferView::alloc(&[1, 13, 13]);
            for i in 0..13i64 {
                for j in 0..13i64 {
                    w.store(&[0, i, j], ((i * 3 + j * 7) % 9) as f64 * 0.5);
                }
            }
            [w, BufferView::alloc(&[1, 13, 13])]
        };
        // 11 is not a multiple of DEFAULT_SWEEP_BATCH: `Runner::sweeps`
        // drains one full batch and a remainder of 3.
        for sweeps in [6usize, 11] {
            let eager_bufs = init();
            let mut eager_runner = runner(&c.module, Engine::Bytecode, 2);
            eager(&mut eager_runner, "gs5", &eager_bufs, sweeps);
            let fused_bufs = init();
            let mut fused = runner(&c.module, Engine::Bytecode, 2);
            let args = fused_bufs.iter().cloned().map(RtVal::Buf).collect();
            fused.call_sweeps("gs5", args, sweeps).unwrap();
            let chunked_bufs = init();
            let mut chunked = runner(&c.module, Engine::Bytecode, 2);
            chunked.sweeps("gs5", &chunked_bufs, sweeps).unwrap();
            for (what, bufs, r) in [
                ("call_sweeps", &fused_bufs, &fused),
                ("sweeps", &chunked_bufs, &chunked),
            ] {
                assert_eq!(
                    eager_bufs[0].to_vec(),
                    bufs[0].to_vec(),
                    "{what}({sweeps}): bit-identical to eager sweeps"
                );
                assert_eq!(
                    eager_runner.stats(),
                    r.stats(),
                    "{what}({sweeps}): batching-invariant stats"
                );
            }
        }
    }

    #[test]
    fn run_until_converged_batches_on_bytecode() {
        let c = compile(
            &kernels::gauss_seidel_5pt_module(),
            &PipelineOptions::new(vec![4, 4], vec![2, 2]),
        )
        .unwrap();
        let [w, b] = boundary_one();
        let outcome =
            run_until_converged(&c.module, "gs5", &[w.clone(), b], 0, 1e-9, 5_000).unwrap();
        let SolveOutcome::Converged { sweeps } = outcome else {
            panic!("must converge, got {outcome:?}");
        };
        assert!(sweeps < 5_000);
        // Convergence is checked at batch boundaries, so the count lands
        // on a multiple of the batch depth (unless capped).
        assert_eq!(sweeps % DEFAULT_SWEEP_BATCH, 0);
        assert!((w.load(&[0, 5, 5]) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn until_converged_reports_max_sweeps_on_the_configured_runner() {
        let c = compile(
            &kernels::gauss_seidel_5pt_module(),
            &PipelineOptions::new(vec![4, 4], vec![2, 2]),
        )
        .unwrap();
        // A tolerance of zero is never met: the solve runs out of sweeps
        // on the dataflow runner it was called on, and says so.
        let [w, b] = boundary_one();
        let mut solve = Runner::with_opts(
            &c.module,
            Engine::Bytecode,
            2,
            Scheduler::Dataflow,
            Obs::off(),
        )
        .unwrap();
        let outcome = solve
            .until_converged("gs5", &[w.clone(), b], 0, 0.0, 11)
            .unwrap();
        assert_eq!(outcome, SolveOutcome::MaxSweeps);
        let reference = boundary_one();
        let mut eager_runner = runner(&c.module, Engine::Interp, 1);
        eager(&mut eager_runner, "gs5", &reference, 11);
        assert_eq!(
            w.to_vec(),
            reference[0].to_vec(),
            "exactly max_sweeps sweeps ran"
        );
        assert_eq!(solve.stats(), eager_runner.stats());
    }

    #[test]
    fn jacobi_swaps_buffers() {
        let m = reference_module(&kernels::jacobi_5pt_module()).unwrap();
        let x = BufferView::alloc(&[1, 5, 5]);
        x.fill(1.0);
        let b = BufferView::alloc(&[1, 5, 5]);
        let y = BufferView::alloc(&[1, 5, 5]);
        let out = run_jacobi_sweeps(&m, "jacobi5", &x, &b, &y, 1).unwrap();
        // After one sweep the result lives in `y`.
        assert!(out.aliases(&y));
        // Interior became the 5-point average of ones = 1.0; the borders
        // of y stay zero (only the interior is written).
        assert_eq!(out.load(&[0, 2, 2]), 1.0);
        assert_eq!(out.load(&[0, 0, 0]), 0.0);
    }
}
