//! The numerical motivation of the paper's introduction, measured: on the
//! same Poisson problem, in-place Gauss-Seidel needs half the sweeps of
//! Jacobi (ρ_GS = ρ_J²), optimal SOR is faster still — and the colored
//! (red-black) variant that out-of-place DSLs resort to loses ground on
//! wider stencils (§5).
//!
//! ```text
//! cargo run --release --example convergence
//! ```

use std::time::Instant;

use instencil::prelude::*;
use instencil::solvers::array::Field;
use instencil::solvers::colored::{
    count_sweeps, nine_point_gs_sweep, nine_point_redblack_sweep, poisson_redblack_sweep,
};
use instencil::solvers::gauss_seidel::{poisson_gs_sweep, poisson_sor_sweep, sor_optimal_omega};
use instencil::solvers::jacobi::poisson_jacobi_sweep;

fn boundary_one(n: usize) -> Field {
    Field::from_fn(&[1, n, n], |idx| {
        if idx[1] == 0 || idx[2] == 0 || idx[1] == n - 1 || idx[2] == n - 1 {
            1.0
        } else {
            0.0
        }
    })
}

fn main() {
    let n = 49;
    let tol = 1e-8;
    let cap = 200_000;
    let f = Field::zeros(&[1, n, n]);
    let h2 = 1.0 / ((n - 1) as f64).powi(2);

    println!("Poisson {n}x{n}, Dirichlet boundary = 1, tolerance {tol:.0e}\n");

    // Jacobi (double-buffered).
    let mut a = boundary_one(n);
    let mut scratch = a.clone();
    let mut jacobi = cap;
    for it in 1..=cap {
        let delta = poisson_jacobi_sweep(&a, &f, h2, &mut scratch);
        std::mem::swap(&mut a, &mut scratch);
        if delta < tol {
            jacobi = it;
            break;
        }
    }

    let mut u = boundary_one(n);
    let gs = count_sweeps(|| poisson_gs_sweep(&mut u, &f, h2), tol, cap);

    let mut u = boundary_one(n);
    let rb = count_sweeps(|| poisson_redblack_sweep(&mut u, &f, h2), tol, cap);

    let omega = sor_optimal_omega(n - 2);
    let mut u = boundary_one(n);
    let sor = count_sweeps(|| poisson_sor_sweep(&mut u, &f, h2, omega), tol, cap);

    println!("{:<34} {:>8}  {:>8}", "method", "sweeps", "vs Jacobi");
    for (name, it) in [
        ("Jacobi (out-of-place)", jacobi),
        ("Gauss-Seidel (in-place)", gs),
        ("red-black GS (colored, 5-point)", rb),
        (&format!("SOR, optimal ω = {omega:.3}")[..], sor),
    ] {
        println!(
            "{:<34} {:>8}  {:>7.2}x",
            name,
            it,
            jacobi as f64 / it as f64
        );
    }

    // The §5 claim: coloring the *9-point* window is no longer a true
    // Gauss-Seidel ordering and needs more sweeps.
    let b = Field::zeros(&[1, n, n]);
    let mut w = boundary_one(n);
    let gs9 = count_sweeps(|| nine_point_gs_sweep(&mut w, &b), tol, cap);
    let mut w = boundary_one(n);
    let rb9 = count_sweeps(|| nine_point_redblack_sweep(&mut w, &b), tol, cap);
    println!(
        "\n9-point window: lexicographic GS {gs9} sweeps, 2-colored {rb9} sweeps \
         ({:.0}% more — the \"inferior convergence\" of §5)",
        (rb9 as f64 / gs9 as f64 - 1.0) * 100.0
    );
    assert!(gs * 2 <= jacobi + gs, "GS must be ~2x Jacobi");
    assert!(rb9 > gs9);

    // --- The driver path: the same SOR solve through the generated
    // kernel, eager vs temporally batched (DESIGN.md §4j). "Before"
    // reproduces the pre-batching driver: one engine call per sweep
    // plus a separate full-grid residual pass (compare, then snapshot
    // copy) every sweep. "After" is `run_until_converged`: fused
    // batches of DEFAULT_SWEEP_BATCH sweeps drained over the
    // sweep-extended graph, residual folded into one compare-and-
    // refresh pass at each batch boundary. Convergence may land on a
    // batch multiple — the batched drive trades a few extra sweeps
    // for k-fold fewer dispatches and residual passes.
    let module = kernels::sor_module(omega);
    let compiled = instencil::core::pipeline::compile(
        &module,
        &PipelineOptions::tr2(vec![8, 8], vec![4, 4]),
    )
    .expect("sor compiles");
    let shape = [1usize, n, n];
    let init = || {
        let u = BufferView::from_data(&shape, boundary_one(n).data().to_vec());
        let b = BufferView::alloc(&shape);
        vec![u, b]
    };

    let bufs = init();
    let args: Vec<RtVal> = bufs.iter().cloned().map(RtVal::Buf).collect();
    let mut runner = Runner::with_opts(
        &compiled.module,
        Engine::Bytecode,
        1,
        Scheduler::Levels,
        Obs::off(),
    )
    .unwrap();
    let t0 = Instant::now();
    let mut prev = bufs[0].to_vec();
    let mut eager_sweeps = cap;
    for it in 1..=cap {
        runner.call("sor", args.clone()).unwrap();
        let data = bufs[0].to_vec();
        let delta = data
            .iter()
            .zip(prev.iter())
            .fold(0.0f64, |m, (a, b)| m.max((a - b).abs()));
        prev.copy_from_slice(&data);
        if delta < tol {
            eager_sweeps = it;
            break;
        }
    }
    let eager_ms = t0.elapsed().as_secs_f64() * 1e3;

    let bufs = init();
    let t0 = Instant::now();
    let outcome = run_until_converged(&compiled.module, "sor", &bufs, 0, tol, cap).unwrap();
    let SolveOutcome::Converged {
        sweeps: batched_sweeps,
    } = outcome
    else {
        panic!("the batched solve must converge, got {outcome:?}");
    };
    let batched_ms = t0.elapsed().as_secs_f64() * 1e3;

    println!(
        "\ncompiled SOR driver: eager {eager_sweeps} sweeps in {eager_ms:.2} ms, \
         batched (depth {DEFAULT_SWEEP_BATCH}) {batched_sweeps} sweeps in \
         {batched_ms:.2} ms ({:.2}x)",
        eager_ms / batched_ms
    );
    assert!(eager_sweeps < cap, "the eager solve must converge");
    assert!(
        batched_sweeps >= eager_sweeps,
        "batch-boundary checks cannot converge earlier than per-sweep checks"
    );
}
