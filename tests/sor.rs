//! SOR (Successive Overrelaxation) end-to-end: the generated `sor`
//! kernel must match the hand-written SOR sweep, and overrelaxation must
//! deliver its textbook acceleration through the *generated* code.

use instencil::prelude::*;
use instencil::solvers::array::Field;
use instencil::solvers::gauss_seidel::{poisson_sor_sweep, sor_optimal_omega};

fn boundary_one(n: usize) -> Field {
    Field::from_fn(&[1, n, n], |idx| {
        if idx[1] == 0 || idx[2] == 0 || idx[1] == n - 1 || idx[2] == n - 1 {
            1.0
        } else {
            0.0
        }
    })
}

fn field_to_buffer(f: &Field) -> BufferView {
    BufferView::from_data(f.shape(), f.data().to_vec())
}

#[test]
fn generated_sor_matches_reference_sweep() {
    let n = 23;
    let omega = 1.5;
    let h2 = 1.0 / ((n - 1) as f64).powi(2);
    let module = kernels::sor_module(omega);
    let compiled = compile(
        &module,
        &PipelineOptions::new(vec![8, 8], vec![4, 4]).vectorize(Some(8)),
    )
    .unwrap();

    // f ≡ 3 (constant forcing); the generated kernel takes B = ω·h²·f/4.
    let f = Field::from_fn(&[1, n, n], |_| 3.0);
    let b = Field::from_fn(&[1, n, n], |_| omega * h2 * 3.0 / 4.0);

    let mut u_ref = boundary_one(n);
    let u_gen = field_to_buffer(&u_ref);
    let b_gen = field_to_buffer(&b);
    run_sweeps(&compiled.module, "sor", &[u_gen.clone(), b_gen], 4).unwrap();
    for _ in 0..4 {
        poisson_sor_sweep(&mut u_ref, &f, h2, omega);
    }
    let diff: f64 = u_gen
        .to_vec()
        .iter()
        .zip(u_ref.data())
        .map(|(a, b)| (a - b).abs())
        .fold(0.0, f64::max);
    assert!(diff < 1e-12, "generated SOR diverges by {diff:e}");
}

#[test]
fn omega_one_is_plain_gauss_seidel() {
    let n = 15;
    let m_sor = kernels::sor_module(1.0);
    let c_sor = compile(&m_sor, &PipelineOptions::new(vec![8, 8], vec![4, 4])).unwrap();
    let u1 = field_to_buffer(&boundary_one(n));
    let b = BufferView::alloc(&[1, n, n]);
    run_sweeps(&c_sor.module, "sor", &[u1.clone(), b.clone()], 3).unwrap();

    // Reference GS through the plain solver (B = 0, f = 0).
    let mut u2 = boundary_one(n);
    let f = Field::zeros(&[1, n, n]);
    let h2 = 1.0;
    for _ in 0..3 {
        instencil::solvers::gauss_seidel::poisson_gs_sweep(&mut u2, &f, h2);
    }
    let diff: f64 = u1
        .to_vec()
        .iter()
        .zip(u2.data())
        .map(|(a, b)| (a - b).abs())
        .fold(0.0, f64::max);
    assert!(diff < 1e-12, "ω = 1 must reduce to GS, diff {diff:e}");
}

#[test]
fn overrelaxation_accelerates_generated_convergence() {
    // Laplace with boundary 1: count generated sweeps to reach the
    // constant-1 fixed point at the center, for ω = 1 vs optimal ω.
    let n = 33;
    let sweeps_to_converge = |omega: f64| -> usize {
        let module = kernels::sor_module(omega);
        let compiled = compile(&module, &PipelineOptions::new(vec![8, 8], vec![4, 4])).unwrap();
        let u = field_to_buffer(&boundary_one(n));
        let b = BufferView::alloc(&[1, n, n]);
        for it in 1..=20_000 {
            run_sweeps(&compiled.module, "sor", &[u.clone(), b.clone()], 1).unwrap();
            if (1.0 - u.load(&[0, n as i64 / 2, n as i64 / 2])).abs() < 1e-6 {
                return it;
            }
        }
        20_000
    };
    let gs = sweeps_to_converge(1.0);
    let sor = sweeps_to_converge(sor_optimal_omega(n - 2));
    assert!(
        sor * 3 < gs,
        "optimal SOR must be much faster than GS through generated code: {sor} vs {gs}"
    );
}

#[test]
fn nan_seeded_sor_stops_as_non_finite() {
    // A NaN seeded at the center spreads through the in-place sweeps
    // until only the fixed boundary stays finite. The residual must read
    // NaN (never "no change"), so the solve stops at the first batch
    // boundary and reports the diverged field as such — neither as
    // converged nor by running on to its sweep cap.
    let n = 17;
    let module = kernels::sor_module(1.5);
    let compiled = compile(&module, &PipelineOptions::new(vec![8, 8], vec![4, 4])).unwrap();
    let u = field_to_buffer(&boundary_one(n));
    u.store(&[0, n as i64 / 2, n as i64 / 2], f64::NAN);
    let b = BufferView::alloc(&[1, n, n]);
    let cap = 40;
    let outcome =
        run_until_converged(&compiled.module, "sor", &[u.clone(), b], 0, 1e-8, cap).unwrap();
    assert_eq!(
        outcome,
        SolveOutcome::NonFinite {
            sweeps: DEFAULT_SWEEP_BATCH
        },
        "a NaN field must stop the solve at the first batch boundary"
    );
    assert!(
        u.to_vec().iter().any(|x| x.is_nan()),
        "the NaN must have spread"
    );
}
