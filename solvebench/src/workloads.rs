//! The three workloads, each driven through the public API exactly as a
//! user would: build the module, `compile`, construct the `Runner`, then
//! run the sweeps or steps with their convergence checks. Each also
//! knows its `crates/solvers` reference and its flat-slice floor.

use std::collections::BTreeMap;
use std::time::Instant;

use instencil::core::pipeline::CompiledModule;
use instencil::exec::ExecError;
use instencil::pattern::StencilPattern;
use instencil::prelude::*;
use instencil::solvers::array::Field;
use instencil::solvers::euler::NV;
use instencil::solvers::euler_codegen::{euler_lusgs_module, lusgs_pattern};
use instencil::solvers::gauss_seidel::{poisson_sor_sweep, sor_optimal_omega};
use instencil::solvers::heat3d::{gaussian_bump, heat3d_step};
use instencil::solvers::lusgs::{lusgs_step, vortex_initial, FluxKind};
use instencil_testkit::Rng;

use crate::floor;

/// A generated solve must match its reference to this absolute bound.
pub const ERR_TOL: f64 = 1e-10;

const SOR_N: usize = 257;
const SOR_TOL: f64 = 1e-8;
/// A solve that has not converged after this many sweeps has failed.
const SOR_CAP: usize = 20_000;
const EULER_N: usize = 34;
const EULER_DT: f64 = 0.05;
const EULER_STEPS: usize = 2;
const HEAT_N: usize = 98;
const HEAT_STEPS: usize = 4;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Poisson SOR to convergence on 257², one thread.
    Sor,
    /// Fig. 14 Euler LU-SGS on 34³ × 5 fields, one thread.
    Euler,
    /// Heat 3D Gauss-Seidel on 98³, `nproc` threads, dataflow scheduler.
    Heat,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Sor, Workload::Euler, Workload::Heat];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Sor => "sor-poisson-257",
            Workload::Euler => "euler-lusgs-34",
            Workload::Heat => "heat3d-98-mt",
        }
    }

    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    fn func(self) -> &'static str {
        match self {
            Workload::Sor => "sor",
            Workload::Euler => "euler_step",
            Workload::Heat => "heat_step",
        }
    }

    fn n(self) -> usize {
        match self {
            Workload::Sor => SOR_N,
            Workload::Euler => EULER_N,
            Workload::Heat => HEAT_N,
        }
    }

    /// Requested wavefront workers; `0` asks the `Runner` for one per
    /// available hardware thread.
    pub fn threads(self) -> usize {
        match self {
            Workload::Sor | Workload::Euler => 1,
            Workload::Heat => 0,
        }
    }

    pub fn scheduler(self) -> Scheduler {
        match self {
            Workload::Sor | Workload::Euler => Scheduler::default(),
            Workload::Heat => Scheduler::Dataflow,
        }
    }

    pub fn subdomain(self) -> Vec<usize> {
        match self {
            Workload::Sor => vec![64, 64],
            Workload::Euler => vec![8, 8, 32],
            Workload::Heat => vec![8, 16, 98],
        }
    }

    pub fn tile(self) -> Vec<usize> {
        match self {
            Workload::Sor => vec![16, 64],
            Workload::Euler => vec![4, 4, 32],
            Workload::Heat => vec![4, 16, 98],
        }
    }

    pub fn options(self) -> PipelineOptions {
        PipelineOptions::tr2(self.subdomain(), self.tile())
            .threads(self.threads())
            .scheduler(self.scheduler())
    }

    pub fn build_module(self) -> Module {
        match self {
            Workload::Sor => kernels::sor_module(sor_optimal_omega(SOR_N - 2)),
            Workload::Euler => euler_lusgs_module(EULER_DT),
            Workload::Heat => kernels::heat3d_module(),
        }
    }

    /// The in-place stencil pattern the pipeline tiles and schedules.
    pub fn pattern(self) -> StencilPattern {
        match self {
            Workload::Sor => presets::gauss_seidel_5pt(),
            Workload::Euler => lusgs_pattern(),
            Workload::Heat => presets::heat3d_gauss_seidel(),
        }
    }

    /// Interior extents (the updated points, boundary excluded).
    pub fn interior(self) -> Vec<usize> {
        let rank = if self == Workload::Sor { 2 } else { 3 };
        vec![self.n() - 2; rank]
    }

    pub fn interior_points(self) -> usize {
        self.interior().iter().product()
    }

    /// Field components per point.
    pub fn fields(self) -> usize {
        if self == Workload::Euler {
            NV
        } else {
            1
        }
    }

    /// Compulsory bytes per interior point and sweep: every array each
    /// phase streams, counted once per phase from the arrays' sizes
    /// (computed, not measured; cache misses are not in it).
    pub fn computed_bytes_per_point(self) -> f64 {
        let f64s = match self {
            // u read + written, b read.
            Workload::Sor => 3.0,
            // Face fluxes: W read, B read + written; forward sweep: W,
            // B read, dW read + written; backward sweep: W read, dW read
            // + written; update: W read + written, dW read. Five fields.
            Workload::Euler => 5.0 * (3.0 + 4.0 + 3.0 + 3.0),
            // RHS: T read, rhs written; increment: rhs read, dT read +
            // written; update: T read + written, dT read.
            Workload::Heat => 8.0,
        };
        8.0 * f64s
    }

    fn shape(self) -> Vec<usize> {
        let n = self.n();
        match self {
            Workload::Sor => vec![1, n, n],
            Workload::Euler => vec![NV, n, n, n],
            Workload::Heat => vec![1, n, n, n],
        }
    }

    /// Seeded initial state, one vector per kernel argument (the watched
    /// solution first). The seed only perturbs the interior.
    pub fn initial(self, seed: u64) -> Vec<Vec<f64>> {
        let mut rng = Rng::seed_from_u64(seed);
        let shape = self.shape();
        let zeros = vec![0.0; shape.iter().product()];
        let interior = |flat: usize| {
            let mut rem = flat;
            let mut inside = true;
            for &d in shape[1..].iter().rev() {
                let i = rem % d;
                rem /= d;
                inside &= i > 0 && i < d - 1;
            }
            inside
        };
        match self {
            Workload::Sor => {
                let u = (0..zeros.len())
                    .map(|f| {
                        if interior(f) {
                            rng.gen_range_f64(0.0, 0.5)
                        } else {
                            1.0
                        }
                    })
                    .collect();
                vec![u, zeros]
            }
            Workload::Euler => {
                let mut w = vortex_initial(EULER_N).data().to_vec();
                for (f, x) in w.iter_mut().enumerate() {
                    if interior(f) {
                        *x *= 1.0 + rng.gen_range_f64(-1e-3, 1e-3);
                    }
                }
                vec![w, zeros.clone(), zeros]
            }
            Workload::Heat => {
                let mut t = gaussian_bump(HEAT_N).data().to_vec();
                for (f, x) in t.iter_mut().enumerate() {
                    if interior(f) {
                        *x += rng.gen_range_f64(0.0, 1e-3);
                    }
                }
                vec![t, zeros.clone(), zeros]
            }
        }
    }

    pub fn buffers(self, init: &[Vec<f64>]) -> Vec<BufferView> {
        let shape = self.shape();
        init.iter()
            .map(|d| BufferView::from_data(&shape, d.clone()))
            .collect()
    }

    /// The fixed sweep or step count, `None` when the solve runs to
    /// convergence.
    pub fn fixed_sweeps(self) -> Option<usize> {
        match self {
            Workload::Sor => None,
            Workload::Euler => Some(EULER_STEPS),
            Workload::Heat => Some(HEAT_STEPS),
        }
    }

    /// Binds the compiled module to the bytecode engine as configured.
    ///
    /// # Errors
    /// Propagates engine construction failures.
    pub fn runner<'m>(
        self,
        compiled: &'m CompiledModule,
        obs: Obs,
    ) -> Result<Runner<'m>, ExecError> {
        Runner::with_opts(
            &compiled.module,
            Engine::Bytecode,
            self.threads(),
            self.scheduler(),
            obs,
        )
    }

    /// Runs one generated solve on `bufs` with the bound `runner` and
    /// returns the sweeps (or steps) it took. The SOR solve is
    /// `run_until_converged`'s loop spelled out from `Runner::call_sweeps`
    /// and `BufferView::max_delta_update`, so that it reuses the bound
    /// engine and sweeps and residual can be timed apart; traced or not,
    /// it is the same code.
    ///
    /// # Errors
    /// Propagates engine failures.
    pub fn solve(
        self,
        runner: &mut Runner<'_>,
        bufs: &[BufferView],
        layers: &mut Layers,
    ) -> Result<usize, ExecError> {
        let args: Vec<RtVal> = bufs.iter().cloned().map(RtVal::Buf).collect();
        match self {
            Workload::Sor => {
                let mut prev = layers.time("exec.residual", || bufs[0].to_vec());
                let mut done = 0;
                while done < SOR_CAP {
                    let k = DEFAULT_SWEEP_BATCH.min(SOR_CAP - done);
                    layers.time("exec.sweep", || {
                        runner.call_sweeps(self.func(), args.clone(), k)
                    })?;
                    done += k;
                    let delta =
                        layers.time("exec.residual", || bufs[0].max_delta_update(&mut prev));
                    if delta < SOR_TOL {
                        break;
                    }
                }
                Ok(done)
            }
            Workload::Euler => {
                for _ in 0..EULER_STEPS {
                    layers.time("exec.reset", || {
                        bufs[1].fill(0.0);
                        bufs[2].fill(0.0);
                    });
                    layers.time("exec.sweep", || runner.call(self.func(), args.clone()))?;
                }
                Ok(EULER_STEPS)
            }
            Workload::Heat => {
                for _ in 0..HEAT_STEPS {
                    layers.time("exec.sweep", || runner.call(self.func(), args.clone()))?;
                }
                Ok(HEAT_STEPS)
            }
        }
    }

    /// Whether a solve that ran `sweeps` sweeps ended as specified: the
    /// SOR solve must have converged before its cap.
    pub fn sweeps_ok(self, sweeps: usize) -> bool {
        self.fixed_sweeps()
            .map_or(sweeps < SOR_CAP, |s| s == sweeps)
    }

    /// The `crates/solvers` reference doing the same work: its solution,
    /// the sweeps it ran and their wall time. The SOR reference stops by
    /// the generated solve's rule on its own solution, convergence
    /// checks timed with the sweeps, so the sweep count a generated solve
    /// must match comes from the reference, not from the solve itself.
    pub fn reference(self, init: &[Vec<f64>]) -> (Vec<f64>, usize, f64) {
        let shape = self.shape();
        match self {
            Workload::Sor => {
                let mut u = Field::from_data(&shape, init[0].clone());
                let f = Field::zeros(&shape);
                let h2 = 1.0 / ((SOR_N - 1) as f64).powi(2);
                let omega = sor_optimal_omega(SOR_N - 2);
                let t0 = Instant::now();
                let sweeps = sor_until_converged(
                    &mut u,
                    |u| {
                        poisson_sor_sweep(u, &f, h2, omega);
                    },
                    |u| u.data(),
                );
                (u.data().to_vec(), sweeps, t0.elapsed().as_secs_f64())
            }
            Workload::Euler => {
                let mut w = Field::from_data(&shape, init[0].clone());
                let (mut dw, mut rhs) = (Field::zeros(&shape), Field::zeros(&shape));
                let t0 = Instant::now();
                for _ in 0..EULER_STEPS {
                    lusgs_step(&mut w, &mut dw, &mut rhs, EULER_DT, FluxKind::Rusanov);
                }
                (w.data().to_vec(), EULER_STEPS, t0.elapsed().as_secs_f64())
            }
            Workload::Heat => {
                let mut t = Field::from_data(&shape, init[0].clone());
                let mut dt = Field::from_data(&shape, init[1].clone());
                let mut rhs = Field::from_data(&shape, init[2].clone());
                let t0 = Instant::now();
                for _ in 0..HEAT_STEPS {
                    heat3d_step(&mut t, &mut dt, &mut rhs);
                }
                (t.data().to_vec(), HEAT_STEPS, t0.elapsed().as_secs_f64())
            }
        }
    }

    /// The flat-slice floor doing the same work as [`Workload::reference`]
    /// (same return), `None` where the reference solver is the floor
    /// (Euler LU-SGS).
    pub fn floor(self, init: &[Vec<f64>]) -> Option<(Vec<f64>, usize, f64)> {
        let n = self.n();
        match self {
            Workload::Sor => {
                let mut u = init[0].clone();
                let omega = sor_optimal_omega(SOR_N - 2);
                let t0 = Instant::now();
                let sweeps = sor_until_converged(
                    &mut u,
                    |u| floor::sor_sweep(u, n, omega),
                    |u| u.as_slice(),
                );
                Some((u, sweeps, t0.elapsed().as_secs_f64()))
            }
            Workload::Euler => None,
            Workload::Heat => {
                let (mut t, mut dt, mut rhs) = (init[0].clone(), init[1].clone(), init[2].clone());
                let t0 = Instant::now();
                for _ in 0..HEAT_STEPS {
                    floor::heat3d_step_flat(&mut t, &mut dt, &mut rhs, n);
                }
                Some((t, HEAT_STEPS, t0.elapsed().as_secs_f64()))
            }
        }
    }
}

/// The generated SOR solve's stopping rule for the reference and the
/// floor: sweep `state` in batches of [`DEFAULT_SWEEP_BATCH`] until the
/// max-norm change of its solution over one batch falls below
/// [`SOR_TOL`], or [`SOR_CAP`] sweeps have run. A non-finite value counts
/// as an infinite change, so a diverged solve never reads as converged.
/// Returns the sweeps run.
fn sor_until_converged<T>(
    state: &mut T,
    sweep: impl Fn(&mut T),
    solution: impl Fn(&T) -> &[f64],
) -> usize {
    let mut prev = solution(state).to_vec();
    let mut done = 0;
    while done < SOR_CAP {
        let k = DEFAULT_SWEEP_BATCH.min(SOR_CAP - done);
        for _ in 0..k {
            sweep(state);
        }
        done += k;
        let delta = max_err(solution(state), &prev);
        prev.copy_from_slice(solution(state));
        if delta < SOR_TOL {
            break;
        }
    }
    done
}

/// Max |a − b|, or infinity when either side holds a non-finite value
/// (`f64::max` would silently drop a NaN).
pub fn max_err(a: &[f64], b: &[f64]) -> f64 {
    let mut err = 0.0f64;
    for (x, y) in a.iter().zip(b) {
        if !x.is_finite() || !y.is_finite() {
            return f64::INFINITY;
        }
        err = err.max((x - y).abs());
    }
    if a.len() == b.len() {
        err
    } else {
        f64::INFINITY
    }
}

/// One recorded span: a call into one crate's public API, timed from
/// the benchmark. Spans of one solve share `solve`.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub solve: usize,
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// Per-layer wall-time accumulator. Off, it reads no clock and records
/// nothing; on, every [`Layers::time`] call adds a span and its duration
/// to the layer's total.
#[derive(Debug)]
pub struct Layers {
    epoch: Option<Instant>,
    solve: usize,
    pub totals: BTreeMap<&'static str, f64>,
    pub spans: Vec<Span>,
}

impl Layers {
    pub fn off() -> Self {
        Layers {
            epoch: None,
            solve: 0,
            totals: BTreeMap::new(),
            spans: Vec::new(),
        }
    }

    pub fn recording(epoch: Instant, solve: usize) -> Self {
        Layers {
            epoch: Some(epoch),
            solve,
            ..Self::off()
        }
    }

    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let Some(epoch) = self.epoch else {
            return f();
        };
        let t0 = Instant::now();
        let out = f();
        let dur = t0.elapsed();
        *self.totals.entry(name).or_default() += dur.as_secs_f64();
        self.spans.push(Span {
            name,
            solve: self.solve,
            start_ns: (t0 - epoch).as_nanos() as u64,
            dur_ns: dur.as_nanos() as u64,
        });
        out
    }

    pub fn total(&self, name: &str) -> f64 {
        self.totals.get(name).copied().unwrap_or(0.0)
    }
}
