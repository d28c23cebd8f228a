//! Flat-slice native floors: the same kernels as the reference solvers,
//! written as plain loops over contiguous `f64` slices with the operand
//! order of the references, so they are what a careful hand-written
//! solver costs on this host. `solve_x_floor` divides by these.
//!
//! [`self_check`] runs before every measurement: a floor that disagrees
//! with the `crates/solvers` reference would inflate `solve_x_floor`, so
//! the benchmark refuses to report one.

use instencil::solvers::array::Field;
use instencil::solvers::gauss_seidel::poisson_sor_sweep;
use instencil::solvers::heat3d::{heat3d_step, LAMBDA};
use instencil_testkit::Rng;

use crate::workloads::max_err;

/// One in-place SOR sweep of the zero-source Poisson problem over the
/// interior of a row-major `n×n` grid.
pub fn sor_sweep(u: &mut [f64], n: usize, omega: f64) {
    assert_eq!(u.len(), n * n, "grid is not n×n");
    for i in 1..n - 1 {
        let row = i * n;
        for c in row + 1..row + n - 1 {
            let gs = 0.25 * (u[c - n] + u[c + n] + u[c - 1] + u[c + 1]);
            let old = u[c];
            u[c] = old + omega * (gs - old);
        }
    }
}

/// One Fig. 9 heat step (RHS, in-place Gauss-Seidel increment, update)
/// on row-major `n³` grids.
pub fn heat3d_step_flat(t: &mut [f64], dt: &mut [f64], rhs: &mut [f64], n: usize) {
    let total = n * n * n;
    assert!(t.len() == total && dt.len() == total && rhs.len() == total);
    let (si, sj) = (n * n, n);
    for i in 1..n - 1 {
        for j in 1..n - 1 {
            let row = i * si + j * sj;
            for c in row + 1..row + n - 1 {
                let m = t[c];
                rhs[c] =
                    t[c + si] - 2.0 * m + t[c - si] + t[c + sj] - 2.0 * m + t[c - sj] + t[c + 1]
                        - 2.0 * m
                        + t[c - 1];
            }
        }
    }
    for i in 1..n - 1 {
        for j in 1..n - 1 {
            let row = i * si + j * sj;
            for c in row + 1..row + n - 1 {
                let s = dt[c - si] + dt[c + si] + dt[c - sj] + dt[c + sj] + dt[c - 1] + dt[c + 1];
                dt[c] = LAMBDA * (rhs[c] + s);
            }
        }
    }
    for i in 1..n - 1 {
        for j in 1..n - 1 {
            let row = i * si + j * sj;
            for c in row + 1..row + n - 1 {
                t[c] += dt[c];
            }
        }
    }
}

/// Agreement bound between a floor and its reference. The floors
/// evaluate the references' expressions in the same order (the SOR floor
/// drops the reference's `+ h²·f` term, which is `+ 0` here), so any
/// difference beyond rounding means a wrong floor.
const FLOOR_TOL: f64 = 1e-12;

/// Runs both floors against the reference solvers on small seeded grids.
///
/// # Errors
/// Names the floor and the observed difference when one disagrees.
pub fn self_check(seed: u64) -> Result<(), String> {
    let mut rng = Rng::seed_from_u64(seed ^ 0x5eed_f100);

    let n = 17;
    let data = rng.f64_vec(n * n, 0.0, 1.0);
    let mut flat = data.clone();
    let mut reference = Field::from_data(&[1, n, n], data);
    let zero = Field::zeros(&[1, n, n]);
    let omega = 1.7;
    for _ in 0..7 {
        sor_sweep(&mut flat, n, omega);
        poisson_sor_sweep(&mut reference, &zero, 1.0, omega);
    }
    let err = max_err(&flat, reference.data());
    if err > FLOOR_TOL {
        return Err(format!(
            "SOR floor differs from poisson_sor_sweep by {err:e}"
        ));
    }

    let n = 10;
    let total = n * n * n;
    let t0 = rng.f64_vec(total, 0.0, 1.0);
    let (mut t, mut dt, mut rhs) = (t0.clone(), vec![0.0; total], vec![0.0; total]);
    let shape = [1, n, n, n];
    let mut t_ref = Field::from_data(&shape, t0);
    let (mut dt_ref, mut rhs_ref) = (Field::zeros(&shape), Field::zeros(&shape));
    for _ in 0..3 {
        heat3d_step_flat(&mut t, &mut dt, &mut rhs, n);
        heat3d_step(&mut t_ref, &mut dt_ref, &mut rhs_ref);
    }
    let err = max_err(&t, t_ref.data());
    if err > FLOOR_TOL {
        return Err(format!("heat3d floor differs from heat3d_step by {err:e}"));
    }
    Ok(())
}
