//! Benches of generated-code interpretation: one sweep of each compiled
//! kernel variant on a profiling-scale domain. These are the
//! host-measurable counterparts of Figs. 11/12 — the scalar-vs-vector op
//! mix differences they exhibit feed the machine model that regenerates
//! the figures. Uses the in-tree `instencil_testkit::bench` harness (no
//! criterion; offline build).

use instencil_bench::cases::paper_cases;
use instencil_core::pipeline::{compile, PipelineOptions, Scheduler};
use instencil_exec::{buffer::BufferView, Interpreter, RtVal};
use instencil_obs::Obs;
use instencil_testkit::bench::Group;

fn bench_generated() {
    let mut group = Group::new("generated-sweeps");
    group.sample_size(10);
    for case in paper_cases() {
        let module = case.module();
        for (label, vf) in [("scalar", None), ("vf8", Some(8))] {
            let opts =
                PipelineOptions::new(case.profile_subdomain.clone(), case.profile_tile.clone())
                    .fuse(case.name == "heat3d")
                    .vectorize(vf);
            let compiled = compile(&module, &opts).unwrap();
            let mut shape = vec![case.nb_var];
            shape.extend(&case.profile_domain);
            let buffers: Vec<BufferView> = (0..case.n_buffers)
                .map(|_| BufferView::alloc(&shape))
                .collect();
            buffers[0].fill(1.0);
            group.bench(format!("{label}/{}", case.name), || {
                let mut interp = Interpreter::new();
                let args: Vec<RtVal> = buffers.iter().cloned().map(RtVal::Buf).collect();
                interp.call(&compiled.module, case.func, args).unwrap();
            });
        }
    }
    group.finish();
}

/// Thread sweep of wavefront execution (§3.4): the same compiled module
/// run with 1/2/4 wavefront workers. Results are bit-identical across
/// the sweep; the wall-clock difference is what the `threads` knob buys.
fn bench_threaded() {
    let mut group = Group::new("generated-threads");
    group.sample_size(10);
    let case = paper_cases()
        .into_iter()
        .find(|c| c.name == "gs5")
        .expect("gs5 case");
    let module = case.module();
    for threads in [1usize, 2, 4] {
        let opts = PipelineOptions::new(case.profile_subdomain.clone(), case.profile_tile.clone())
            .threads(threads);
        let compiled = compile(&module, &opts).unwrap();
        let mut shape = vec![case.nb_var];
        shape.extend(&case.profile_domain);
        let buffers: Vec<BufferView> = (0..case.n_buffers)
            .map(|_| BufferView::alloc(&shape))
            .collect();
        buffers[0].fill(1.0);
        group.bench(format!("gs5/threads{threads}"), || {
            let mut interp =
                Interpreter::with_opts(compiled.options.threads, Obs::off(), Scheduler::Levels);
            let args: Vec<RtVal> = buffers.iter().cloned().map(RtVal::Buf).collect();
            interp.call(&compiled.module, case.func, args).unwrap();
        });
    }
    group.finish();
}

fn main() {
    bench_generated();
    bench_threaded();
}
