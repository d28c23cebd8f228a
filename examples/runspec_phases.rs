//! Phase timing of the run-specialized engine on gs5, scalar vs
//! vectorized — the measurement harness behind the scalar-vs-vf recipe
//! in EXPERIMENTS.md.
//!
//! For each (geometry × vector factor) the example reports ns/point
//! (min of 40 single-sweep samples) and, per run, where the time goes:
//! probe+resolve (two-iteration probe of the innermost tape plus
//! access-table resolution), plan (macro-op compilation on a
//! plan-cache miss, base patching on a hit) and exec (the fused
//! macro-op loop itself). The split is what localized the 2.3×
//! partial-vectorization pessimization: before the stripe-kernel
//! extension, vectorized bodies never reached this path at all, and
//! afterwards a per-call cache miss (visible here as misses == calls)
//! was the remaining gap. Healthy output shows misses ≈ 1 per engine
//! lifetime and vf8 beating scalar at both geometries.
//!
//! Timing instrumentation is compiled in but env-gated
//! (`INSTENCIL_RUNSPEC_TIMING`); the example enables it for its own
//! process before the first engine runs.

use std::time::Instant;

use instencil_core::kernels;
use instencil_core::pipeline::{compile, PipelineOptions, Scheduler};
use instencil_exec::{buffer::BufferView, BcOptions, BytecodeEngine, RtVal};
use instencil_obs::Obs;

/// ns/point of one gs5 sweep, min of 40 samples after a warmup call.
fn bench(vf: Option<usize>, sub: Vec<usize>, tile: Vec<usize>, shape: &[usize]) -> f64 {
    let m = kernels::gauss_seidel_5pt_module();
    let c = compile(&m, &PipelineOptions::new(sub, tile).vectorize(vf)).unwrap();
    let buffers: Vec<BufferView> = (0..2).map(|_| BufferView::alloc(shape)).collect();
    buffers[0].fill(1.0);
    let args = || -> Vec<RtVal> { buffers.iter().cloned().map(RtVal::Buf).collect() };
    let mut e = BytecodeEngine::compile(
        &c.module,
        1,
        Scheduler::Levels,
        Obs::off(),
        BcOptions::default(),
    )
    .unwrap();
    e.call("gs5", args()).unwrap();
    let points: usize = shape.iter().product();
    let mut best = f64::INFINITY;
    for _ in 0..40 {
        let t0 = Instant::now();
        e.call("gs5", args()).unwrap();
        best = best.min(t0.elapsed().as_nanos() as f64 / points as f64);
    }
    best
}

fn main() {
    // Must happen before the first run: the gate is cached on first use.
    std::env::set_var("INSTENCIL_RUNSPEC_TIMING", "1");
    for (sub, tile, shape) in [
        // The engines-bench profiling geometry (34×66, tile x = 32).
        (vec![16, 32], vec![8, 32], vec![1usize, 34, 66]),
        // A long-row geometry where runs amortize best (tile x = 256).
        (vec![8, 256], vec![8, 256], vec![1usize, 34, 514]),
    ] {
        for vf in [None, Some(4), Some(8)] {
            instencil_exec::phase_timing::drain();
            let ns = bench(vf, sub.clone(), tile.clone(), &shape);
            let (probe, plan, exec, runs, points, misses, miss_ns) =
                instencil_exec::phase_timing::drain();
            if runs > 0 {
                println!(
                    "tile {tile:?} vf {vf:?}: {ns:.1} ns/point \
                     [per run: probe+resolve {:.0} plan {:.0} exec {:.0} ns; \
                     {:.1} pts/run, {} misses/{} runs, {:.0} ns/miss]",
                    probe as f64 / runs as f64,
                    plan as f64 / runs as f64,
                    exec as f64 / runs as f64,
                    points as f64 / runs as f64,
                    misses,
                    runs,
                    if misses > 0 {
                        miss_ns as f64 / misses as f64
                    } else {
                        0.0
                    },
                );
            } else {
                println!("tile {tile:?} vf {vf:?}: {ns:.1} ns/point (no specialized runs)");
            }
        }
    }
}
