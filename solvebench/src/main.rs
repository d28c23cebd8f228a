//! End-to-end solve benchmark for the in-place stencil code generator.
//!
//! ```text
//! cargo run --release --manifest-path solvebench/Cargo.toml -- \
//!     --workload sor-poisson-257 --seed 0 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` times whole solves as a user runs them (closed loop, one
//! solve at a time, one process) interleaved with the `crates/solvers`
//! reference and the flat-slice floor, and prints the end-to-end
//! metrics. `--trace 1` repeats the solve with the collector at
//! `ObsLevel::Trace` and every crate's public call timed from here, and
//! prints the per-layer metrics; its spans are written to
//! `.solvebench_out/` when the run ends. Human-readable lines come
//! first; the last line of standard output is one JSON object.

mod floor;
mod host;
mod workloads;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use instencil::core::pipeline::CompiledModule;
use instencil::machine::cost::PerPointCosts;
use instencil::obs::trace::TraceKind;
use instencil::obs::Json;
use instencil::pattern::blockdeps::block_dependences;
use instencil::pattern::dataflow::{BlockGraph, TaskGraph};
use instencil::prelude::*;

use workloads::{max_err, Layers, Workload, ERR_TOL};

/// Set-ups per run, `setup_s` being their median: at least
/// `SETUP_MIN_REPS`, then more until `SETUP_BUDGET` has been spent.
const SETUP_MIN_REPS: usize = 9;
const SETUP_MAX_REPS: usize = 400;
const SETUP_BUDGET: Duration = Duration::from_millis(600);
/// Solves every run makes, however short `--seconds` is.
const MIN_SOLVES: usize = 3;
/// Trace-ring capacity for the traced run, large enough that one solve's
/// events are never overwritten (the plan-cache counts come from them).
const TRACE_RING: &str = "262144";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::from_name(&value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload `{value}` (expected one of {names:?})")
                })?);
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                });
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// What one run reports on its last line.
struct Outcome {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    fn to_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|&(name, value, unit)| {
                // A metric with no sample (every solve failed) is null.
                let value = if value.is_finite() {
                    Json::num(value)
                } else {
                    Json::Null
                };
                let obj = Json::Obj(vec![
                    ("value".into(), value),
                    ("unit".into(), Json::str(unit)),
                ]);
                (name.to_owned(), obj)
            })
            .collect();
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.correct)),
            ("attempted".into(), Json::num(self.attempted as f64)),
            ("failed".into(), Json::num(self.failed as f64)),
            ("metrics".into(), Json::Obj(metrics)),
        ])
    }
}

fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        0.5 * (v[mid - 1] + v[mid])
    }
}

fn describe(label: &str, values: &[f64], unit: &str) {
    let min = values.iter().copied().fold(f64::INFINITY, f64::min);
    let max = values.iter().copied().fold(0.0, f64::max);
    println!(
        "{label}: median {:.6} {unit}, min {min:.6}, max {max:.6}, n={}",
        median(values),
        values.len()
    );
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

/// The host fingerprint, measured after every timed section so the
/// probes' arrays and threads disturb neither the timings nor
/// `peak_rss_mb`.
struct Fingerprint {
    nproc: usize,
    triad_gbs: f64,
    par_ceiling: f64,
}

fn fingerprint() -> Fingerprint {
    let nproc = host::nproc();
    let fp = Fingerprint {
        nproc,
        triad_gbs: host::triad_gbs(nproc),
        par_ceiling: host::par_ceiling(),
    };
    println!(
        "host: nproc={} triad_gbs={:.3} (3 x 32 MiB arrays on nproc threads) \
         par_ceiling={:.3} rev={}",
        fp.nproc,
        fp.triad_gbs,
        fp.par_ceiling,
        host::source_rev(&repo_root())
    );
    fp
}

/// Module build, compile and buffer initialization; the caller binds
/// the engine (`Workload::runner`), which borrows the compiled module.
fn setup(w: Workload, init: &[Vec<f64>]) -> Result<(CompiledModule, Vec<BufferView>), String> {
    let module = w.build_module();
    let compiled = compile(&module, &w.options()).map_err(|e| e.to_string())?;
    Ok((compiled, w.buffers(init)))
}

/// Tally of solves checked against the reference.
#[derive(Default)]
struct Tally {
    attempted: usize,
    failed: usize,
    max_err: f64,
}

impl Tally {
    /// Counts one solve: it fails when it errored, ran another number of
    /// sweeps than the reference (`expected`), or left a value that is non-finite or further than
    /// [`ERR_TOL`] from the reference.
    fn record(
        &mut self,
        w: Workload,
        out: Result<(usize, Vec<f64>), String>,
        expected: usize,
        reference: &[f64],
    ) {
        self.attempted += 1;
        let ok = match out {
            Ok((sweeps, values)) => {
                let err = max_err(&values, reference);
                self.max_err = self.max_err.max(err);
                w.sweeps_ok(sweeps) && sweeps == expected && err <= ERR_TOL
            }
            Err(e) => {
                eprintln!("solve failed: {e}");
                false
            }
        };
        if !ok {
            self.failed += 1;
        }
    }

    fn print(&self) {
        println!(
            "failed_frac: {} ({} of {} solves) | max_err: {:e} abs (tolerance {ERR_TOL:e})",
            self.failed as f64 / self.attempted.max(1) as f64,
            self.failed,
            self.attempted,
            self.max_err
        );
    }
}

fn timed_run(w: Workload, seed: u64, seconds: u64) -> Result<Outcome, String> {
    let mut correct = true;
    if let Err(e) = floor::self_check(seed) {
        eprintln!("floor self-check failed: {e}");
        correct = false;
    }
    let init = w.initial(seed);

    let mut setup_s = Vec::new();
    let mut kept = None;
    let budget = Instant::now() + SETUP_BUDGET;
    while setup_s.len() < SETUP_MIN_REPS
        || (setup_s.len() < SETUP_MAX_REPS && Instant::now() < budget)
    {
        let t0 = Instant::now();
        let (compiled, bufs) = setup(w, &init)?;
        let runner = w.runner(&compiled, Obs::off()).map_err(|e| e.to_string())?;
        setup_s.push(t0.elapsed().as_secs_f64());
        drop((runner, bufs));
        kept = Some(compiled);
    }
    let compiled = kept.expect("at least one set-up ran");
    // The engine every timed solve reuses, bound like the timed ones.
    let mut runner = w.runner(&compiled, Obs::off()).map_err(|e| e.to_string())?;

    let mut tally = Tally::default();
    let (mut solve_s, mut x_ref, mut x_floor, mut sweeps_seen) = (vec![], vec![], vec![], vec![]);
    let mut peak_rss_mb = 0.0;
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let mut i = 0;
    while i < MIN_SOLVES || Instant::now() < deadline {
        let bufs = w.buffers(&init);
        let mut generated = || {
            let t0 = Instant::now();
            let sweeps = w
                .solve(&mut runner, &bufs, &mut Layers::off())
                .map_err(|e| e.to_string())?;
            let wall = t0.elapsed().as_secs_f64();
            Ok::<_, String>((sweeps, wall, bufs[0].to_vec()))
        };
        // The order alternates so neither side always runs on a warmer
        // cache.
        let gen_first = i % 2 == 0;
        let gen = if gen_first { Some(generated()) } else { None };
        if i == 0 {
            // Set-up and one solve, before the reference and floor copies
            // exist: the program's own footprint.
            peak_rss_mb = host::peak_rss_mb();
        }
        let (reference, sweeps, ref_s) = w.reference(&init);
        let floor = w.floor(&init);
        let gen = gen.unwrap_or_else(generated);
        if let Some((values, floor_sweeps, _)) = &floor {
            if *floor_sweeps != sweeps || max_err(values, &reference) > ERR_TOL {
                eprintln!("floor disagrees with the reference at full size");
                correct = false;
            }
        }
        let floor_s = floor.map_or(ref_s, |(_, _, s)| s);
        if let Ok((s, wall, _)) = &gen {
            solve_s.push(*wall);
            x_ref.push(wall / ref_s);
            x_floor.push(wall / floor_s);
            sweeps_seen.push(*s as f64);
        }
        tally.record(w, gen.map(|(s, _, v)| (s, v)), sweeps, &reference);
        i += 1;
    }

    println!(
        "workload={} seed={seed} seconds={seconds} trace=0",
        w.name()
    );
    describe("setup_s", &setup_s, "s");
    describe("solve_s", &solve_s, "s");
    describe("solve_x_ref", &x_ref, "x");
    describe("solve_x_floor", &x_floor, "x");
    tally.print();
    fingerprint();

    Ok(Outcome {
        correct: correct && tally.failed == 0,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics: vec![
            ("setup_s", median(&setup_s), "s"),
            ("solve_s", median(&solve_s), "s"),
            ("solve_x_ref", median(&x_ref), "x"),
            ("solve_x_floor", median(&x_floor), "x"),
            ("sweeps", median(&sweeps_seen), "count"),
            ("peak_rss_mb", peak_rss_mb, "MiB"),
        ],
    })
}

/// Per-solve metrics of one traced solve, keyed by metric name.
type Sample = BTreeMap<&'static str, f64>;

/// Counters the collector recorded during one traced solve.
fn collector_counters(runner: &Runner<'_>, sample: &mut Sample) {
    let rec = runner.obs().snapshot();
    let (mut busy, mut idle, mut steals) = (0u64, 0u64, 0u64);
    for wf in &rec.wavefronts {
        for level in &wf.levels {
            let level_busy: u64 = level.workers.iter().map(|w| w.busy_ns).sum();
            busy += level_busy;
            idle += (level.wall_ns * level.workers.len() as u64).saturating_sub(level_busy);
            steals += level.workers.iter().map(|w| w.steals).sum::<u64>();
        }
    }
    let (mut hits, mut misses, mut dropped) = (0u64, 0u64, 0u64);
    for ring in &rec.rings {
        dropped += ring.dropped;
        for e in &ring.events {
            match e.kind {
                TraceKind::PlanHit => hits += u64::from(e.b),
                TraceKind::PlanMiss => misses += 1,
                _ => {}
            }
        }
    }
    let count = |name: &str| rec.events.iter().filter(|e| e.name == name).count() as f64;
    sample.insert("exec.worker_busy_s", busy as f64 * 1e-9);
    sample.insert("exec.worker_idle_s", idle as f64 * 1e-9);
    sample.insert("exec.steals", steals as f64);
    sample.insert("exec.plan_hits", hits as f64);
    sample.insert("exec.plan_misses", misses as f64);
    sample.insert("exec.runspec_declines", count("runspec-decline"));
    sample.insert("exec.batch_fallbacks", count("sweep-batch-fallback"));
    sample.insert("obs.trace_dropped", dropped as f64);
}

/// One fully traced solve, from module build to the last sweep.
fn traced_solve(
    w: Workload,
    init: &[Vec<f64>],
    layers: &mut Layers,
) -> Result<(usize, Vec<f64>, Sample), String> {
    let t0 = Instant::now();
    let module = layers.time("ir.build", || w.build_module());
    let opts = w.options().obs(ObsLevel::Trace);
    let compiled = layers
        .time("core.compile", || compile(&module, &opts))
        .map_err(|e| e.to_string())?;
    let mut runner = layers
        .time("exec.engine_build", || {
            w.runner(&compiled, compiled.obs.clone())
        })
        .map_err(|e| e.to_string())?;
    let bufs = layers.time("exec.buffers", || w.buffers(init));
    let t_solve = Instant::now();
    let sweeps = w
        .solve(&mut runner, &bufs, layers)
        .map_err(|e| e.to_string())?;
    let solve_s = t_solve.elapsed().as_secs_f64();
    let wall = t0.elapsed().as_secs_f64();

    let mut sample = Sample::new();
    for (name, metric) in [
        ("ir.build", "ir.build_s"),
        ("core.compile", "core.compile_s"),
        ("exec.engine_build", "exec.engine_build_s"),
        ("exec.buffers", "exec.buffers_s"),
        ("exec.sweep", "exec.sweep_s"),
        ("exec.residual", "exec.residual_s"),
        ("exec.reset", "exec.reset_s"),
    ] {
        sample.insert(metric, layers.total(name));
    }
    sample.insert(
        "layers.coverage",
        layers.totals.values().sum::<f64>() / wall,
    );
    sample.insert("traced_solve_s", solve_s);
    let ops: usize = compiled
        .module
        .funcs()
        .iter()
        .map(|f| f.body.num_ops())
        .sum();
    sample.insert("core.lowered_ops", ops as f64);
    sample.insert("threads", runner.threads() as f64);

    let stats = runner.stats();
    let work = (w.interior_points() * sweeps) as f64;
    sample.insert("exec.loads_pp", stats.loads as f64 / work);
    sample.insert("exec.stores_pp", stats.stores as f64 / work);
    sample.insert("exec.vector_loads_pp", stats.vector_loads as f64 / work);
    sample.insert(
        "exec.flops_pp",
        (stats.scalar_flops + stats.vector_flops) as f64 / work,
    );
    sample.insert("exec.index_ops_pp", stats.index_ops as f64 / work);
    sample.insert("exec.blocks_executed", stats.blocks_executed as f64);
    collector_counters(&runner, &mut sample);
    Ok((sweeps, bufs[0].to_vec(), sample))
}

/// Pattern-layer schedule construction on the workload's sub-domain
/// grid, timed from outside: (seconds, blocks, levels, tasks).
fn pattern_layer(w: Workload, threads: usize) -> Result<(f64, usize, usize, usize), String> {
    let sub = w.subdomain();
    let grid: Vec<usize> = w
        .interior()
        .iter()
        .zip(&sub)
        .map(|(n, s)| n.div_ceil(*s))
        .collect();
    let deps = block_dependences(&w.pattern(), &sub).map_err(|e| e.to_string())?;
    let machine = xeon_6152_dual();
    let mut times = Vec::new();
    let mut shape = (0, 0, 0);
    for _ in 0..5 {
        let t0 = Instant::now();
        let schedule = WavefrontSchedule::compute(&grid, &deps);
        let graph = BlockGraph::build(&grid, &deps);
        let inner = *grid.last().expect("rank >= 1");
        let grain = machine.dataflow_grain(graph.num_blocks(), inner, threads);
        let tasks = TaskGraph::build(&graph, grain);
        times.push(t0.elapsed().as_secs_f64());
        shape = (graph.num_blocks(), schedule.num_levels(), tasks.num_tasks());
    }
    Ok((median(&times), shape.0, shape.1, shape.2))
}

/// Machine-layer cost model at the workload's configuration: the
/// autotuner's wall time, and the relative error of `estimate_sweep`
/// against the measured per-sweep time.
fn machine_layer(
    w: Workload,
    threads: usize,
    sample: &Sample,
    sweeps: usize,
) -> Result<(f64, f64), String> {
    let pattern = w.pattern();
    let mut cfg = RunConfig::new(w.interior(), w.subdomain(), w.tile());
    cfg.threads = threads;
    cfg.nb_var = w.fields();
    cfg.deps = block_dependences(&pattern, &w.subdomain()).map_err(|e| e.to_string())?;
    cfg.costs = PerPointCosts {
        scalar_flops: sample["exec.flops_pp"],
        vector_flops: 0.0,
        mem_ops: sample["exec.loads_pp"] + sample["exec.stores_pp"],
        vector_mem_ops: sample["exec.vector_loads_pp"],
        control_ops: sample["exec.index_ops_pp"],
    };
    let machine = xeon_6152_dual();
    let mut times = Vec::new();
    for _ in 0..3 {
        let t0 = Instant::now();
        autotune(&machine, &pattern, &cfg, threads).map_err(|e| e.to_string())?;
        times.push(t0.elapsed().as_secs_f64());
    }
    let predicted = estimate_sweep(&machine, &cfg).total_s;
    let measured = sample["exec.sweep_s"] / sweeps as f64;
    Ok((
        median(&times),
        100.0 * (predicted - measured).abs() / measured,
    ))
}

fn write_spans(w: Workload, seed: u64, spans: &[workloads::Span], metrics: &[(&str, f64, &str)]) {
    let dir = repo_root().join(".solvebench_out");
    let spans = spans
        .iter()
        .map(|s| {
            Json::Obj(vec![
                ("name".into(), Json::str(s.name)),
                ("solve".into(), Json::num(s.solve as f64)),
                ("start_ns".into(), Json::num(s.start_ns as f64)),
                ("dur_ns".into(), Json::num(s.dur_ns as f64)),
            ])
        })
        .collect();
    let metrics = metrics
        .iter()
        .map(|&(n, v, _)| (n.to_owned(), Json::num(v)))
        .collect();
    let doc = Json::Obj(vec![
        ("workload".into(), Json::str(w.name())),
        ("seed".into(), Json::num(seed as f64)),
        ("metrics".into(), Json::Obj(metrics)),
        ("spans".into(), Json::Arr(spans)),
    ]);
    let path = dir.join(format!("{}-seed{seed}.json", w.name()));
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, doc.to_string())) {
        Ok(()) => println!("spans written to {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

fn traced_run(w: Workload, seed: u64, seconds: u64) -> Result<Outcome, String> {
    let mut correct = true;
    if let Err(e) = floor::self_check(seed) {
        eprintln!("floor self-check failed: {e}");
        correct = false;
    }
    let init = w.initial(seed);
    let epoch = Instant::now();
    let mut tally = Tally::default();
    let (mut plain_s, mut ref_s, mut samples, mut spans) = (vec![], vec![], vec![], vec![]);
    let mut sweeps_run = 0;
    let deadline = epoch + Duration::from_secs(seconds);
    let mut i = 0;
    while i < MIN_SOLVES || Instant::now() < deadline {
        // Untraced and traced solves alternate which goes first.
        let plain = || {
            let (compiled, bufs) = setup(w, &init)?;
            let mut runner = w.runner(&compiled, Obs::off()).map_err(|e| e.to_string())?;
            let t0 = Instant::now();
            let sweeps = w
                .solve(&mut runner, &bufs, &mut Layers::off())
                .map_err(|e| e.to_string())?;
            Ok::<_, String>((sweeps, t0.elapsed().as_secs_f64(), bufs[0].to_vec()))
        };
        let plain_first = i % 2 == 0;
        let early = if plain_first { Some(plain()) } else { None };
        let mut layers = Layers::recording(epoch, i);
        let traced = traced_solve(w, &init, &mut layers);
        let untraced = early.unwrap_or_else(plain);
        spans.append(&mut layers.spans);

        let (reference, expected, r) = w.reference(&init);
        sweeps_run = expected;
        ref_s.push(r);
        if let Ok((_, s, _)) = &untraced {
            plain_s.push(*s);
        }
        tally.record(w, untraced.map(|(s, _, v)| (s, v)), expected, &reference);
        tally.record(
            w,
            traced.map(|(s, v, sample)| {
                samples.push(sample);
                (s, v)
            }),
            expected,
            &reference,
        );
        i += 1;
    }
    if samples.is_empty() {
        return Err("every traced solve failed".into());
    }
    let mut sample = Sample::new();
    for key in samples[0].keys() {
        let values: Vec<f64> = samples.iter().filter_map(|s| s.get(key).copied()).collect();
        sample.insert(key, median(&values));
    }

    let threads = sample["threads"] as usize;
    let (schedule_s, blocks, levels, tasks) = pattern_layer(w, threads)?;
    let (autotune_s, model_err_pct) = machine_layer(w, threads, &sample, sweeps_run)?;
    println!(
        "workload={} seed={seed} seconds={seconds} trace=1 threads={threads}",
        w.name()
    );
    let fp = fingerprint();
    let gbs = w.computed_bytes_per_point() * (w.interior_points() * sweeps_run) as f64
        / sample["exec.sweep_s"]
        / 1e9;
    tally.print();

    let s = |k: &str| sample[k];
    let metrics = vec![
        ("ir.build_s", s("ir.build_s"), "s"),
        ("core.compile_s", s("core.compile_s"), "s"),
        ("core.lowered_ops", s("core.lowered_ops"), "count"),
        ("pattern.schedule_s", schedule_s, "s"),
        ("pattern.blocks", blocks as f64, "count"),
        ("pattern.levels", levels as f64, "count"),
        ("pattern.tasks", tasks as f64, "count"),
        ("exec.engine_build_s", s("exec.engine_build_s"), "s"),
        ("exec.buffers_s", s("exec.buffers_s"), "s"),
        ("exec.sweep_s", s("exec.sweep_s"), "s"),
        ("exec.residual_s", s("exec.residual_s"), "s"),
        ("exec.reset_s", s("exec.reset_s"), "s"),
        ("exec.gbs", gbs, "GB/s"),
        ("exec.gbs_pct_triad", 100.0 * gbs / fp.triad_gbs, "%"),
        ("exec.loads_pp", s("exec.loads_pp"), "count"),
        ("exec.stores_pp", s("exec.stores_pp"), "count"),
        ("exec.vector_loads_pp", s("exec.vector_loads_pp"), "count"),
        ("exec.flops_pp", s("exec.flops_pp"), "count"),
        ("exec.index_ops_pp", s("exec.index_ops_pp"), "count"),
        ("exec.blocks_executed", s("exec.blocks_executed"), "count"),
        ("exec.worker_busy_s", s("exec.worker_busy_s"), "s"),
        ("exec.worker_idle_s", s("exec.worker_idle_s"), "s"),
        ("exec.steals", s("exec.steals"), "count"),
        ("exec.plan_hits", s("exec.plan_hits"), "count"),
        ("exec.plan_misses", s("exec.plan_misses"), "count"),
        ("exec.runspec_declines", s("exec.runspec_declines"), "count"),
        ("exec.batch_fallbacks", s("exec.batch_fallbacks"), "count"),
        ("machine.autotune_s", autotune_s, "s"),
        ("machine.model_err_pct", model_err_pct, "%"),
        ("solvers.ref_s", median(&ref_s), "s"),
        (
            "obs.trace_overhead",
            s("traced_solve_s") / median(&plain_s),
            "x",
        ),
        ("obs.trace_dropped", s("obs.trace_dropped"), "count"),
        ("layers.coverage", s("layers.coverage"), "frac"),
        ("host.nproc", fp.nproc as f64, "count"),
        ("host.triad_gbs", fp.triad_gbs, "GB/s"),
        ("host.par_ceiling", fp.par_ceiling, "x"),
        ("max_err", tally.max_err, "abs"),
        (
            "failed_frac",
            tally.failed as f64 / tally.attempted.max(1) as f64,
            "frac",
        ),
    ];
    for (name, value, unit) in &metrics {
        println!("{name} = {value} {unit}");
    }
    write_spans(w, seed, &spans, &metrics);
    Ok(Outcome {
        correct: correct && tally.failed == 0,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("solvebench: {e}");
            eprintln!("usage: solvebench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let outcome = if args.trace {
        // Read once per process, before the first collector exists.
        std::env::set_var("INSTENCIL_TRACE_RING", TRACE_RING);
        traced_run(args.workload, args.seed, args.seconds)
    } else {
        timed_run(args.workload, args.seed, args.seconds)
    };
    match outcome {
        Ok(outcome) => {
            println!("{}", outcome.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("solvebench: {e}");
            ExitCode::FAILURE
        }
    }
}
