//! Interpreter vs bytecode engine on generated kernels.
//!
//! Measures ns/point of one full sweep of two compiled in-place kernels
//! on both execution engines, and writes the numbers to
//! `BENCH_exec.json` so CI can track the speedup:
//!
//! * `gs5` — 5-point 2D Gauss-Seidel (profiling scale of
//!   `generated.rs`), scalar, vf4 and vf8;
//! * `sor-tr2` — SOR (ω = 1.6) through the §4.2 Tr2 preset (fusion, no
//!   vectorization).
//!
//! All measured runs execute with observability **Off** (the dedicated
//! trace-overhead gate below measures Off vs Trace explicitly); the previous
//! `BENCH_exec.json` is parsed first and the fresh bytecode numbers are
//! compared against it, so an accidental Off-path overhead regression
//! in the obs layer fails the bench instead of silently shifting the
//! baseline. A separate gs5 run at `ObsLevel::Trace` renders the run
//! report to `BENCH_exec_report.json` next to it (schema-validated).
//!
//! The engines are bit-identical (enforced by `tests/engine_equiv.rs`);
//! this bench records what that identity costs — or rather, what
//! compiling to tapes buys: the acceptance bar for the bytecode engine
//! is >= 5x on the gs5 case.
//!
//! Each case is measured on three engines: the interpreter, the
//! bytecode engine with run specialization (`bytecode` — one dispatch
//! per contiguous innermost run), and the same tapes with
//! specialization disabled (`bytecode-dispatch` — full per-point
//! dispatch). The dispatch rows quantify what the run path buys.
//!
//! `INSTENCIL_BENCH_FAST=1` shrinks the sampling to a CI smoke run;
//! the >1.5x regression gate and the vectorization gate (every
//! run-specialized `gs5-vf*` row must beat its scalar sibling — the
//! fence for the 2.3x partial-vectorization pessimization) run in both
//! modes (a smoke breach gets one re-measurement before failing, since
//! short smoke samples are noisy); the JSON is written either way.
//! Whenever a gate re-measures a breached point, the accepted (better)
//! value replaces the first measurement in the persisted rows, so
//! `BENCH_exec.json` never stores a number a gate rejected.

use std::time::Instant;

use instencil_bench::cases::paper_cases;
use instencil_core::kernels;
use instencil_core::pipeline::{compile, PipelineOptions};
use instencil_exec::{
    buffer::BufferView, BcOptions, BytecodeEngine, Engine, Interpreter, RtVal, Runner,
};
use instencil_ir::Module;
use instencil_obs::{report::validate_report_json, Json, Obs, ObsLevel};
use instencil_pattern::Scheduler;
use instencil_machine::{best_batch_depth, xeon_6152_dual, RunConfig};
use instencil_solvers::euler::NV;
use instencil_solvers::euler_codegen::{euler_lusgs_module, euler_lusgs_sweep_module};

/// Tolerated slowdown of a fresh bytecode measurement vs the stored
/// baseline before the bench fails (generous: CI machines are noisy,
/// and the guard only needs to catch gross Off-path overhead).
const MAX_REGRESSION: f64 = 1.5;

/// Tolerated slowdown of dataflow@8 vs levels@8 in the scaling section
/// before the bench fails. The dataflow pool exists to *remove* barrier
/// idle, so at the highest thread count it must not lose; the margin
/// absorbs timer noise on oversubscribed CI hosts (a breach gets one
/// re-measurement, like the baseline gate).
const DATAFLOW_TOLERANCE: f64 = 1.10;

/// Tolerated step-to-step increase in the 1 -> 2 -> 4 thread scaling
/// shape before the bench fails. Adding workers must never make a sweep
/// slower — the driver clamps to host parallelism and the pool shards
/// by affinity, so at worst the extra threads are a no-op. The seed bug
/// this gate pins down was a 1.9x inversion (LU-SGS, 621 -> 1174
/// ns/point from 1 to 8 threads); the margin only absorbs timer noise.
const MONOTONE_TOLERANCE: f64 = 1.15;

/// Tolerated slowdown of dataflow@8 vs levels@1 on LU-SGS. The
/// wavefront-poor case is exactly where parallel execution used to
/// *lose* to a plain single-threaded sweep; topology-aware scheduling
/// must at minimum break even with the best sequential baseline.
const INVERSION_TOLERANCE: f64 = 1.05;

/// Tolerated slowdown of a gs5 sweep at `ObsLevel::Trace` (per-worker
/// event rings, per-level Task spans, coalesced plan-cache events) over
/// the same sweep at `ObsLevel::Off`. The rings are fixed-capacity and
/// allocation-free and plan-cache hit streaks coalesce without a clock
/// read, so tracing a profiling-scale sweep must stay within 10%; a
/// breach means per-event cost leaked into the hot path.
const TRACE_RING_OVERHEAD: f64 = 1.10;

struct Row {
    engine: &'static str,
    case: String,
    ns_per_point: f64,
}

/// Minimum time of `samples` runs of one sweep, in ns.
fn measure(samples: usize, mut sweep: impl FnMut()) -> f64 {
    sweep(); // warmup
    let mut best = f64::INFINITY;
    for _ in 0..samples {
        let t0 = Instant::now();
        sweep();
        best = best.min(t0.elapsed().as_nanos() as f64);
    }
    best
}

/// Measures one compiled module on both engines; returns the two rows.
fn bench_case(
    samples: usize,
    label: &str,
    module: &Module,
    opts: &PipelineOptions,
    shape: &[usize],
    n_buffers: usize,
    func: &str,
) -> Vec<Row> {
    let compiled = compile(module, opts).unwrap();
    let points: usize = shape.iter().product();
    let buffers: Vec<BufferView> = (0..n_buffers).map(|_| BufferView::alloc(shape)).collect();
    buffers[0].fill(1.0);
    let args = || -> Vec<RtVal> { buffers.iter().cloned().map(RtVal::Buf).collect() };

    let mut interp = Interpreter::new();
    let t_interp = measure(samples, || {
        interp.call(&compiled.module, func, args()).unwrap();
    });
    let mut engine = BytecodeEngine::compile(
        &compiled.module,
        1,
        Scheduler::Levels,
        Obs::off(),
        BcOptions::default(),
    )
    .unwrap();
    let t_bytecode = measure(samples, || {
        engine.call(func, args()).unwrap();
    });
    let mut dispatch = BytecodeEngine::compile(
        &compiled.module,
        1,
        Scheduler::Levels,
        Obs::off(),
        BcOptions {
            specialize_runs: false,
        },
    )
    .unwrap();
    let t_dispatch = measure(samples, || {
        dispatch.call(func, args()).unwrap();
    });

    let mut rows = Vec::new();
    for (engine_name, t) in [
        ("interp", t_interp),
        ("bytecode", t_bytecode),
        ("bytecode-dispatch", t_dispatch),
    ] {
        let ns = t / points as f64;
        println!("engines/{engine_name}/{label:<12} {ns:>10.1} ns/point");
        rows.push(Row {
            engine: engine_name,
            case: label.to_string(),
            ns_per_point: ns,
        });
    }
    println!(
        "engines/speedup/{label:<13} {:>9.2}x  (run path {:.2}x over dispatch)",
        t_interp / t_bytecode,
        t_dispatch / t_bytecode,
    );
    rows
}

/// One scheduler-scaling measurement: `case@threads` on the bytecode
/// engine under `scheduler`, ns/point of one call.
fn measure_scheduler(
    samples: usize,
    module: &Module,
    func: &str,
    shape: &[usize],
    n_buffers: usize,
    threads: usize,
    scheduler: Scheduler,
) -> f64 {
    let points: usize = shape.iter().product();
    let buffers: Vec<BufferView> = (0..n_buffers).map(|_| BufferView::alloc(shape)).collect();
    buffers[0].fill(1.0);
    let args = || -> Vec<RtVal> { buffers.iter().cloned().map(RtVal::Buf).collect() };
    let mut runner =
        Runner::with_opts(module, Engine::Bytecode, threads, scheduler, Obs::off()).unwrap();
    let t = measure(samples, || {
        runner.call(func, args()).unwrap();
    });
    t / points as f64
}

/// The scheduler-scaling section: levels vs dataflow ns/point on the
/// wavefront-heavy cases (LU-SGS and SOR Tr2) at 1, 2, 4 and 8 threads.
/// Row engines are `levels`/`dataflow` (outside the `bytecode*`
/// namespace, so the cross-run baseline gate ignores them — scheduler
/// rows are judged against each other within one run instead).
fn bench_scaling(samples: usize, rows: &mut Vec<Row>) {
    // The scaling matrix gates on ratios between points, so it needs
    // tighter minima than the engine comparison: sweeps here are tens
    // of microseconds and a single descheduling blip on a shared host
    // is a 25% outlier. Extra samples are cheap at these sizes.
    let samples = samples.max(12);
    let sor = kernels::sor_module(1.6);
    let gs5 = paper_cases().into_iter().find(|c| c.name == "gs5").unwrap();
    let sor_compiled = compile(
        &sor,
        &PipelineOptions::tr2(gs5.profile_subdomain.clone(), gs5.profile_tile.clone()),
    )
    .unwrap();
    let mut sor_shape = vec![1usize];
    sor_shape.extend(&gs5.profile_domain);

    let n = 10usize;
    let lusgs = euler_lusgs_module(0.05);
    let lusgs_compiled =
        compile(&lusgs, &PipelineOptions::new(vec![2, 2, 2], vec![2, 2, 2])).unwrap();
    let lusgs_shape = [NV, n, n, n];

    let cases: [(&str, &Module, &str, &[usize], usize); 2] = [
        ("lusgs", &lusgs_compiled.module, "euler_step", &lusgs_shape, 3),
        ("sor-tr2", &sor_compiled.module, "sor", &sor_shape, 2),
    ];
    const THREADS: [usize; 4] = [1, 2, 4, 8];
    let schedulers = [Scheduler::Levels, Scheduler::Dataflow];
    for (label, module, func, shape, nb) in cases {
        let at = |threads: usize, scheduler: Scheduler| {
            measure_scheduler(samples, module, func, shape, nb, threads, scheduler)
        };
        // Full matrix first, gates after: every gate re-measures the
        // breached points once (min-of-two) before judging, like the
        // baseline gate — short smoke samples on oversubscribed hosts
        // are noisy.
        let mut ns = [[0f64; THREADS.len()]; 2];
        for (si, &s) in schedulers.iter().enumerate() {
            for (ti, &t) in THREADS.iter().enumerate() {
                ns[si][ti] = at(t, s);
            }
        }

        // Gate 1: dataflow@8 must not lose to levels@8.
        if ns[1][3] / ns[0][3] > DATAFLOW_TOLERANCE {
            ns[0][3] = ns[0][3].min(at(8, Scheduler::Levels));
            ns[1][3] = ns[1][3].min(at(8, Scheduler::Dataflow));
        }
        let ratio = ns[1][3] / ns[0][3];
        assert!(
            ratio <= DATAFLOW_TOLERANCE,
            "dataflow@8 lost to levels@8 on {label}: {ratio:.2}x \
             ({:.1} vs {:.1} ns/point)",
            ns[1][3],
            ns[0][3]
        );

        // Gate 2: scaling shape — ns/point monotone non-increasing from
        // 1 to 4 threads under both schedulers. This is the seed
        // inverse-scaling bug's regression fence.
        for (si, &s) in schedulers.iter().enumerate() {
            for ti in 0..2 {
                if ns[si][ti + 1] > ns[si][ti] * MONOTONE_TOLERANCE {
                    ns[si][ti] = ns[si][ti].min(at(THREADS[ti], s));
                    ns[si][ti + 1] = ns[si][ti + 1].min(at(THREADS[ti + 1], s));
                }
                assert!(
                    ns[si][ti + 1] <= ns[si][ti] * MONOTONE_TOLERANCE,
                    "{label}/{} got slower from {} to {} threads: \
                     {:.1} -> {:.1} ns/point",
                    s.name(),
                    THREADS[ti],
                    THREADS[ti + 1],
                    ns[si][ti],
                    ns[si][ti + 1]
                );
            }
        }

        // Gate 3: on the wavefront-poor case, parallel dataflow must at
        // least break even with the best sequential baseline — the seed
        // bug was dataflow@8 *losing* to levels@1.
        if label == "lusgs" {
            if ns[1][3] > ns[0][0] * INVERSION_TOLERANCE {
                ns[0][0] = ns[0][0].min(at(1, Scheduler::Levels));
                ns[1][3] = ns[1][3].min(at(8, Scheduler::Dataflow));
            }
            assert!(
                ns[1][3] <= ns[0][0] * INVERSION_TOLERANCE,
                "dataflow@8 lost to levels@1 on {label}: \
                 {:.1} vs {:.1} ns/point",
                ns[1][3],
                ns[0][0]
            );
        }

        for (si, _) in schedulers.iter().enumerate() {
            let engine = ["levels", "dataflow"][si];
            for (ti, &threads) in THREADS.iter().enumerate() {
                let ns = ns[si][ti];
                println!("engines/scaling/{engine}/{label}@{threads:<2} {ns:>10.1} ns/point");
                rows.push(Row {
                    engine,
                    case: format!("{label}@{threads}"),
                    ns_per_point: ns,
                });
            }
        }
    }
}

/// The Trace-ring overhead gate: one gs5 geometry, same engine and
/// thread count, measured at `ObsLevel::Off` and `ObsLevel::Trace`.
/// The domain is larger than the engine-comparison one so each sweep
/// is long enough that the gate measures per-event cost rather than
/// timer noise (rings fill from ~2k specialized runs per sweep).
fn bench_trace_overhead(samples: usize) {
    let module = kernels::gauss_seidel_5pt_module();
    let opts = PipelineOptions::new(vec![8, 16], vec![4, 8]);
    let compiled = compile(&module, &opts).unwrap();
    let shape = [1usize, 130, 258];
    let points: usize = shape.iter().product();
    let buffers: Vec<BufferView> = (0..2).map(|_| BufferView::alloc(&shape)).collect();
    buffers[0].fill(1.0);
    let args = || -> Vec<RtVal> { buffers.iter().cloned().map(RtVal::Buf).collect() };
    let at = |level: ObsLevel| {
        let mut runner = Runner::with_opts(
            &compiled.module,
            Engine::Bytecode,
            1,
            Scheduler::Levels,
            Obs::new(level),
        )
        .unwrap();
        measure(samples, || {
            runner.call("gs5", args()).unwrap();
        })
    };
    let mut off = at(ObsLevel::Off);
    let mut traced = at(ObsLevel::Trace);
    if traced / off > TRACE_RING_OVERHEAD {
        // One re-measurement before judging, like every other gate.
        off = off.min(at(ObsLevel::Off));
        traced = traced.min(at(ObsLevel::Trace));
    }
    let ratio = traced / off;
    println!(
        "engines/trace-gate/gs5        {:>10.2}x  (off {:.1}, trace {:.1} ns/point)",
        ratio,
        off / points as f64,
        traced / points as f64
    );
    assert!(
        ratio <= TRACE_RING_OVERHEAD,
        "Trace-level event rings cost {ratio:.2}x over Off on gs5 \
         (limit {TRACE_RING_OVERHEAD}x) — per-event tracing cost leaked \
         into the sweep hot path"
    );
}

/// The fraction of the eager per-sweep time the batched drain must
/// reach at the autotuned depth on the coarse multi-sweep LU-SGS case
/// (i.e. batching must buy >= 1.1x there). The win is fixed-cost
/// amortization — register file, scratch pool, prefix tape, schedule
/// lookup and pool entry are paid once per batch instead of once per
/// sweep — so the gate lives on a coarse grid where that fixed cost is
/// a double-digit fraction of the sweep (the regime temporal batching
/// targets: coarse-level smoothing with many sweeps between refreshes).
const TEMPORAL_GATE: f64 = 0.9;

/// One temporal-tiling case: a batchable module driven for many
/// identical in-place sweeps, eagerly or through `call_sweeps`.
struct TemporalCase {
    label: &'static str,
    module: Module,
    func: &'static str,
    shape: Vec<usize>,
    n_buffers: usize,
    /// Sweeps per timed sample (>= 8: the workload the section models).
    sweeps: usize,
}

/// ns/(point x sweep) of `case` driven in chunks of `k` sweeps
/// (`k == 1` is the eager one-call-per-sweep path).
fn measure_temporal(samples: usize, case: &TemporalCase, k: usize) -> f64 {
    let points: usize = case.shape.iter().product();
    let buffers: Vec<BufferView> = (0..case.n_buffers)
        .map(|_| BufferView::alloc(&case.shape))
        .collect();
    buffers[0].fill(1.0);
    let args = || -> Vec<RtVal> { buffers.iter().cloned().map(RtVal::Buf).collect() };
    let mut runner = Runner::with_opts(
        &case.module,
        Engine::Bytecode,
        1,
        Scheduler::Dataflow,
        Obs::off(),
    )
    .unwrap();
    assert_eq!(
        runner.engine(),
        Engine::Bytecode,
        "temporal case {} must bind the bytecode engine",
        case.label
    );
    let t = measure(samples, || {
        let mut done = 0usize;
        while done < case.sweeps {
            let kk = k.min(case.sweeps - done);
            runner.call_sweeps(case.func, args(), kk).unwrap();
            done += kk;
        }
    });
    t / (points * case.sweeps) as f64
}

/// The temporal-tiling section: ns/(point x sweep) for the eager path
/// and fused batches at k in {1, 2, 4, 8} on two multi-sweep cases —
/// the coarse-grid LU-SGS forward-relaxation kernel (`lusgs_sweep`,
/// the batchable single-wavefront variant of the Fig. 14 solver) and
/// coarse SOR Tr2 — so the batch-depth sweet spot is visible in the
/// persisted rows. Row engine is `temporal` (outside the `bytecode*`
/// namespace: the cross-run baseline gate ignores it). Gate: on the
/// LU-SGS case the batch depth the cost model picks must run at
/// <= `TEMPORAL_GATE` x the eager time (re-measured once on breach,
/// min-of-two persisted, like every other gate).
fn bench_temporal(samples: usize, rows: &mut Vec<Row>) {
    // Ratio gates need tight minima, like the scaling section.
    let samples = samples.max(12);
    let coarse = 4usize; // 2x2x2 interior blocks of [2,2,2] tiles
    let lusgs = TemporalCase {
        label: "lusgs-sweep",
        module: compile(
            &euler_lusgs_sweep_module(0.05),
            &PipelineOptions::new(vec![2, 2, 2], vec![2, 2, 2]),
        )
        .unwrap()
        .module,
        func: "lusgs_sweep",
        shape: vec![NV, coarse, coarse, coarse],
        n_buffers: 3,
        sweeps: 64,
    };
    let sor = TemporalCase {
        label: "sor-tr2",
        module: compile(
            &kernels::sor_module(1.6),
            &PipelineOptions::tr2(vec![4, 4], vec![2, 2]),
        )
        .unwrap()
        .module,
        func: "sor",
        shape: vec![1, 16, 16],
        n_buffers: 2,
        sweeps: 64,
    };
    const DEPTHS: [usize; 4] = [1, 2, 4, 8];
    for case in [&lusgs, &sor] {
        let mut eager = measure_temporal(samples, case, 1);
        let mut batched = DEPTHS.map(|k| measure_temporal(samples, case, k));
        for (i, &k) in DEPTHS.iter().enumerate() {
            println!(
                "engines/temporal/{}@k{k:<2} {:>12.1} ns/point.sweep ({:.2}x eager)",
                case.label,
                batched[i],
                batched[i] / eager
            );
        }

        if case.label == "lusgs-sweep" {
            // The depth the cost model would pick for this coarse,
            // L2-resident configuration (same arbitration the autotuner
            // records in `TunedTiles::batch`).
            let mut cfg = RunConfig::new(
                vec![coarse, coarse, coarse],
                vec![2, 2, 2],
                vec![2, 2, 2],
            );
            cfg.threads = 1;
            cfg.nb_var = NV;
            cfg.deps = vec![vec![-1, 0, 0], vec![0, -1, 0], vec![0, 0, -1]];
            let kstar = best_batch_depth(&xeon_6152_dual(), &cfg, 8);
            assert!(
                kstar > 1,
                "cost model must choose to batch the coarse LU-SGS case (got k*={kstar})"
            );
            let ki = DEPTHS.iter().position(|&k| k == kstar).unwrap();
            if batched[ki] / eager > TEMPORAL_GATE {
                // One re-measurement before judging, min-of-two persisted.
                eager = eager.min(measure_temporal(samples, case, 1));
                batched[ki] = batched[ki].min(measure_temporal(samples, case, kstar));
            }
            let ratio = batched[ki] / eager;
            println!(
                "engines/temporal-gate/{}@k{kstar} {:>8.2}x vs eager",
                case.label, ratio
            );
            assert!(
                ratio <= TEMPORAL_GATE,
                "batched@k*={kstar} only reached {ratio:.2}x of eager on {} \
                 (gate {TEMPORAL_GATE}x): cross-sweep batching no longer pays \
                 for its queueing on the coarse multi-sweep case",
                case.label
            );
        }

        rows.push(Row {
            engine: "temporal",
            case: format!("{}@eager", case.label),
            ns_per_point: eager,
        });
        for (i, &k) in DEPTHS.iter().enumerate() {
            rows.push(Row {
                engine: "temporal",
                case: format!("{}@k{k}", case.label),
                ns_per_point: batched[i],
            });
        }
    }
}

/// Re-measures one engine-comparison case and folds the better of
/// (stored, fresh) into `rows` for every engine row of that case: the
/// value a gate accepts after a re-measurement is the value that gets
/// persisted, so the written JSON can never contradict a gate that just
/// passed (the stored file once held lusgs@2 *above* lusgs@1 because a
/// gate's re-measurement was judged but the first, rejected sample was
/// written out).
fn remeasure_into(
    rows: &mut [Row],
    samples: usize,
    label: &str,
    cases: &[(Module, PipelineOptions, usize, String, &'static str)],
    shape: &[usize],
) {
    let Some((m, o, nb, f)) = cases
        .iter()
        .find(|c| c.3 == label)
        .map(|c| (&c.0, &c.1, c.2, c.4))
    else {
        return;
    };
    for fresh in bench_case(samples, label, m, o, shape, nb, f) {
        if let Some(r) = rows
            .iter_mut()
            .find(|r| r.engine == fresh.engine && r.case == fresh.case)
        {
            r.ns_per_point = r.ns_per_point.min(fresh.ns_per_point);
        }
    }
}

/// Reads the bytecode baselines (case -> ns/point) from a previous
/// `BENCH_exec.json`, if one exists and parses.
fn read_baselines(path: &str) -> Vec<(String, String, f64)> {
    let Ok(text) = std::fs::read_to_string(path) else {
        return Vec::new();
    };
    let Ok(doc) = Json::parse(&text) else {
        return Vec::new();
    };
    let Some(rows) = doc.as_arr() else {
        return Vec::new();
    };
    rows.iter()
        .filter_map(|r| {
            let engine = r.get("engine")?.as_str()?;
            if !engine.starts_with("bytecode") {
                return None;
            }
            Some((
                engine.to_string(),
                r.get("case")?.as_str()?.to_string(),
                r.get("ns_per_point")?.as_f64()?,
            ))
        })
        .collect()
}

fn main() {
    let fast = std::env::var_os("INSTENCIL_BENCH_FAST").is_some();
    let samples = if fast { 5 } else { 15 };
    // Cargo runs benches with cwd = the package dir; pin the output to
    // the workspace root (override with INSTENCIL_BENCH_JSON).
    let out = std::env::var("INSTENCIL_BENCH_JSON")
        .unwrap_or_else(|_| concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_exec.json").into());
    let baselines = read_baselines(&out);

    let case = paper_cases()
        .into_iter()
        .find(|c| c.name == "gs5")
        .expect("gs5 case");
    let module = case.module();
    let mut shape = vec![case.nb_var];
    shape.extend(&case.profile_domain);
    // (module, options, n_buffers, label, func) per measured case — kept
    // around so the regression gate can re-measure a breached case.
    let sor = kernels::sor_module(1.6);
    let mut cases: Vec<(Module, PipelineOptions, usize, String, &str)> = Vec::new();
    for (label, vf) in [("scalar", None), ("vf4", Some(4)), ("vf8", Some(8))] {
        let opts = PipelineOptions::new(case.profile_subdomain.clone(), case.profile_tile.clone())
            .vectorize(vf);
        cases.push((
            module.clone(),
            opts,
            case.n_buffers,
            format!("gs5-{label}"),
            case.func,
        ));
    }
    // SOR through the Tr2 preset (fusion), same profiling geometry as
    // gs5 (both are 5-point in-place sweeps over [1, 34, 66]).
    cases.push((
        sor,
        PipelineOptions::tr2(case.profile_subdomain.clone(), case.profile_tile.clone()),
        2,
        "sor-tr2".to_string(),
        "sor",
    ));

    let mut rows: Vec<Row> = Vec::new();
    for (m, opts, nb, label, func) in &cases {
        rows.extend(bench_case(samples, label, m, opts, &shape, *nb, func));
    }

    // Vectorization gate: partial vectorization must never be a
    // pessimization again. Every vectorized gs5 row on the
    // run-specialized engine must beat (or tie) its scalar sibling —
    // the bug this fences was gs5-vf8 at 43.1 ns/point against 16.9
    // scalar, because the specializer declined vector-IR bodies and
    // every vectorized point paid generic dispatch. A breach
    // re-measures both rows once (min-of-two) before judging, and the
    // accepted values are what the JSON persists.
    let ns_of = |rows: &[Row], case: &str| {
        rows.iter()
            .find(|r| r.engine == "bytecode" && r.case == case)
            .map(|r| r.ns_per_point)
    };
    for vf_case in ["gs5-vf4", "gs5-vf8"] {
        if ns_of(&rows, vf_case).unwrap() > ns_of(&rows, "gs5-scalar").unwrap() {
            remeasure_into(&mut rows, samples, vf_case, &cases, &shape);
            remeasure_into(&mut rows, samples, "gs5-scalar", &cases, &shape);
        }
        let v = ns_of(&rows, vf_case).unwrap();
        let s = ns_of(&rows, "gs5-scalar").unwrap();
        println!("engines/vf-gate/{vf_case:<14} {:>8.2}x vs scalar", v / s);
        assert!(
            v <= s,
            "{vf_case} lost to gs5-scalar on the run-specialized engine: \
             {v:.1} vs {s:.1} ns/point — vectorized loops fell off the run path"
        );
    }

    bench_scaling(samples, &mut rows);
    bench_temporal(samples, &mut rows);
    bench_trace_overhead(samples);

    // Regression gate, in smoke mode too: a fresh bytecode measurement
    // more than MAX_REGRESSION over the stored baseline fails the
    // bench — this catches a run-path perf regression (or obs work
    // leaking onto the Off path) in CI. Smoke samples are short and CI
    // machines are noisy, so a breach gets one re-measurement; the
    // better of the two is judged *and* replaces the stored row.
    for (engine_name, case_name, baseline_ns) in &baselines {
        let find = |rows: &[Row]| {
            rows.iter()
                .find(|r| r.engine == *engine_name && r.case == *case_name)
                .map(|r| r.ns_per_point)
        };
        let Some(mut ns) = find(&rows) else {
            continue;
        };
        if ns / baseline_ns > MAX_REGRESSION {
            remeasure_into(&mut rows, samples, case_name, &cases, &shape);
            ns = find(&rows).expect("row existed before re-measurement");
        }
        let ratio = ns / baseline_ns;
        println!(
            "engines/regression/{engine_name}/{:<13} {:>8.2}x vs baseline {:.1} ns/point",
            case_name, ratio, baseline_ns
        );
        assert!(
            ratio <= MAX_REGRESSION,
            "{engine_name} {case_name} regressed {ratio:.2}x vs baseline \
             ({ns:.1} vs {baseline_ns:.1} ns/point)",
        );
    }

    let mut json = String::from("[\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "  {{\"engine\": \"{}\", \"case\": \"{}\", \"ns_per_point\": {:.2}}}{}\n",
            r.engine,
            r.case,
            r.ns_per_point,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("]\n");
    std::fs::write(&out, &json).expect("write BENCH_exec.json");
    println!("wrote {out} ({} rows)", rows.len());

    // Unmeasured observability run: gs5 at Trace, rendered next to the
    // numbers so the perf trajectory ships with its run report. The two
    // sweeps drain as one fused batch, so the report exercises the
    // batched schema too: a wavefront group with `sweeps: 2` and trace
    // events tagged with their sweep lane.
    let opts = PipelineOptions::new(case.profile_subdomain.clone(), case.profile_tile.clone())
        .vectorize(Some(8))
        .obs(ObsLevel::Trace);
    let compiled = compile(&module, &opts).unwrap();
    let buffers: Vec<BufferView> = (0..case.n_buffers)
        .map(|_| BufferView::alloc(&shape))
        .collect();
    buffers[0].fill(1.0);
    let mut runner = Runner::with_opts(
        &compiled.module,
        Engine::Bytecode,
        compiled.options.threads,
        compiled.options.scheduler,
        compiled.obs.clone(),
    )
    .unwrap();
    let args: Vec<RtVal> = buffers.iter().cloned().map(RtVal::Buf).collect();
    runner.call_sweeps(case.func, args, 2).unwrap();
    let report = runner.report();
    let report_json = report.to_json().to_string();
    validate_report_json(&report_json).expect("engines bench report must validate");
    let report_out = out.replace(".json", "_report.json");
    std::fs::write(&report_out, &report_json).expect("write report JSON");
    println!("wrote {report_out} (schema-validated run report)");
}
