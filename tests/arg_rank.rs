//! A buffer argument of the wrong rank is a typed error, not a panic.
//!
//! gs5 takes two rank-3 memrefs. Handing it a rank-2 buffer must fail
//! at the call boundary with an `ExecError` on every engine, before any
//! index arithmetic reads a dimension the buffer does not have.

use instencil::prelude::*;

const ENGINES: [Engine; 3] = [Engine::Interp, Engine::Bytecode, Engine::BytecodeDispatch];

#[test]
fn buffer_rank_mismatch_is_a_typed_error() {
    let module = kernels::gauss_seidel_5pt_module();
    let compiled =
        compile(&module, &PipelineOptions::new(vec![4, 4], vec![2, 2])).expect("gs5 compiles");
    for engine in ENGINES {
        let flat = BufferView::alloc(&[6, 6]);
        let good = BufferView::alloc(&[1, 6, 6]);
        let mut runner =
            Runner::with_opts(&compiled.module, engine, 1, Scheduler::Levels, Obs::off()).unwrap();
        for args in [
            vec![RtVal::Buf(flat.clone()), RtVal::Buf(good.clone())],
            vec![RtVal::Buf(good.clone()), RtVal::Buf(flat.clone())],
        ] {
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                runner.call("gs5", args)
            }))
            .unwrap_or_else(|_| panic!("{engine:?}: a rank-2 buffer must not panic"))
            .expect_err("a rank-2 buffer for a rank-3 memref must be rejected");
            assert!(err.to_string().contains("rank"), "{engine:?}: {err}");
        }
    }
}
