//! A domain with no interior is a no-op sweep, on every engine.
//!
//! gs5 updates the interior `[1, n-1)` of each spatial dimension. When
//! that range is empty (a 1×1 or 0×5 plane, or a 2×2 plane whose border
//! is all there is), `cfd.get_parallel_blocks` sees a sub-domain grid
//! with a zero extent. That grid has no blocks, so the sweep must run
//! nothing and leave the buffers alone — eagerly and as a fused batch.

use instencil::prelude::*;

const ENGINES: [Engine; 3] = [Engine::Interp, Engine::Bytecode, Engine::BytecodeDispatch];

#[test]
fn empty_interior_sweeps_are_no_ops() {
    let module = kernels::gauss_seidel_5pt_module();
    // (domain, sub-domain, tile)
    let cases: [([usize; 3], [usize; 2], [usize; 2]); 3] = [
        ([1, 1, 1], [16, 16], [8, 8]),
        ([1, 0, 5], [16, 16], [8, 8]),
        ([1, 2, 2], [4, 4], [2, 2]),
    ];
    for (shape, sub, tile) in cases {
        let compiled = compile(&module, &PipelineOptions::new(sub.to_vec(), tile.to_vec()))
            .expect("gs5 compiles");
        let len: usize = shape.iter().product();
        let data: Vec<f64> = (0..len).map(|i| i as f64 + 0.5).collect();
        for engine in ENGINES {
            for scheduler in [Scheduler::Levels, Scheduler::Dataflow] {
                // 0 = eager `call`; k > 1 = one fused batch of k sweeps.
                for k in [0usize, 4] {
                    let what = format!("{shape:?} {engine:?} {scheduler:?} k={k}");
                    let w = BufferView::from_data(&shape, data.clone());
                    let b = BufferView::from_data(&shape, data.clone());
                    let args = vec![RtVal::Buf(w.clone()), RtVal::Buf(b.clone())];
                    let mut runner =
                        Runner::with_opts(&compiled.module, engine, 2, scheduler, Obs::off())
                            .unwrap();
                    let run = if k == 0 {
                        runner.call("gs5", args)
                    } else {
                        runner.call_sweeps("gs5", args, k)
                    };
                    run.unwrap_or_else(|e| panic!("{what}: {e}"));
                    assert_eq!(w.to_vec(), data, "{what}: w must be unchanged");
                    assert_eq!(b.to_vec(), data, "{what}: b must be unchanged");
                    assert_eq!(runner.stats().blocks_executed, 0, "{what}: no blocks");
                }
            }
        }
    }
}
