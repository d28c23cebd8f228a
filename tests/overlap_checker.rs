//! The debug-mode wavefront overlap checker (§3.4 safety argument).
//!
//! The run-specialized engine writes tiles through raw (non-atomic)
//! `f64` views, which is sound only because Eq. (3) scheduling makes
//! the write sets of blocks that may run concurrently disjoint. Debug
//! builds *verify* that claim at runtime: every store inside a wavefront
//! block is recorded, and when two blocks the dependence graph leaves
//! unordered touch a common flat extent of one allocation the engine
//! panics naming both blocks and the extent. Both wavefront schedulers
//! run the same checker; under levels, blocks of one level are always
//! unordered.
//!
//! These tests drive the checker both ways with a hand-built two-block
//! module whose blocks write *overlapping* one-dimensional extents
//! (block `f` writes elements `f` and `f+1`):
//!
//! * an honest `block_stencil` (block `f` depends on block `f-1`) orders
//!   the blocks and puts them in different levels — the correct Eq. (3)
//!   schedule runs clean, and
//! * an empty `block_stencil` (a deliberate scheduling lie) leaves the
//!   blocks unordered and puts both in level 0 — debug builds must panic
//!   with `wavefront overlap: blocks 0 and 1 … flat extent [1, 1]` at
//!   one and two workers under both schedulers.
//!
//! Release builds compile the checker out, so the panicking halves are
//! `#[cfg(debug_assertions)]`-gated; the clean half runs everywhere.

use instencil::core::ops::build_get_parallel_blocks;
use instencil::exec::BcOptions;
use instencil::ir::{attr::AttrMap, OpCode};
use instencil::prelude::*;

/// A lowered module with one `ExecuteWavefronts` op over two blocks on
/// a 1-D grid. Block `f` stores to elements `f` and `f+1` of the
/// argument buffer, so blocks 0 and 1 overlap at element 1 *iff* they
/// run in the same level. `deps` is the `block_stencil` payload over
/// shape `[3]` (offset −1, 0, +1; `-1` marks a dependence).
fn two_block_module(deps: Vec<i8>) -> Module {
    let mr = Type::memref_dyn(Type::F64, 1);
    let mut fb = FuncBuilder::new("wf", vec![mr], vec![]);
    let buf = fb.arg(0);
    let nb = fb.const_index(2);
    let (rows, cols) = build_get_parallel_blocks(&mut fb, &[nb], vec![3], deps);

    let region = fb.body_mut().add_region();
    let block = fb.body_mut().add_block(region);
    let flat = fb.body_mut().add_block_arg(block, Type::Index);
    let saved = fb.insertion_block();
    fb.set_insertion_block(block);
    let one = fb.const_index(1);
    let next = fb.addi(flat, one);
    let v = fb.index_to_f64(flat);
    fb.mem_store(v, buf, &[flat]);
    fb.mem_store(v, buf, &[next]);
    fb.create(OpCode::Yield, vec![], vec![], AttrMap::new(), vec![]);
    fb.set_insertion_block(saved);
    fb.create(
        OpCode::ExecuteWavefronts,
        vec![rows, cols],
        vec![],
        AttrMap::new(),
        vec![region],
    );
    fb.ret(vec![]);

    let mut m = Module::new("overlap");
    m.push_func(fb.finish());
    m.verify().unwrap_or_else(|e| panic!("{e}\n{}", m.to_text()));
    m
}

/// Block `f` depends on block `f−1`: the honest Eq. (3) schedule,
/// serializing the two blocks into separate levels.
fn honest_deps() -> Vec<i8> {
    vec![-1, 0, 0]
}

/// No dependences at all: the scheduler is told the blocks commute and
/// puts both in level 0, which their write sets contradict.
fn lying_deps() -> Vec<i8> {
    vec![0, 0, 0]
}

/// Runs the module on the interpreter with `threads` workers under
/// `scheduler`.
fn run_interp(m: &Module, threads: usize, scheduler: Scheduler) {
    let b = BufferView::alloc(&[4]);
    Interpreter::with_opts(threads, Obs::off(), scheduler)
        .call(m, "wf", vec![RtVal::Buf(b)])
        .expect("wavefront module runs");
}

/// Runs the module on the bytecode engine with `threads` workers under
/// `scheduler`.
fn run_bytecode(m: &Module, threads: usize, scheduler: Scheduler) {
    let b = BufferView::alloc(&[4]);
    BytecodeEngine::compile(m, threads, scheduler, Obs::off(), BcOptions::default())
        .expect("wavefront module compiles")
        .call("wf", vec![RtVal::Buf(b)])
        .expect("wavefront module runs");
}

#[test]
fn correct_schedule_runs_clean() {
    let m = two_block_module(honest_deps());
    for threads in [1, 2] {
        run_interp(&m, threads, Scheduler::Levels);
        run_bytecode(&m, threads, Scheduler::Levels);
    }
}

#[test]
fn correct_schedule_runs_clean_under_dataflow() {
    // Block 1 depends on block 0, so the graph orders them and the
    // shared element-1 write is sound — the checker must agree.
    let m = two_block_module(honest_deps());
    for threads in [1, 2] {
        run_interp(&m, threads, Scheduler::Dataflow);
        run_bytecode(&m, threads, Scheduler::Dataflow);
    }
}

#[cfg(debug_assertions)]
mod debug_only {
    use super::*;

    /// Runs `f`, catching its panic, and asserts the message names both
    /// blocks and the exact overlapping extent.
    fn expect_overlap_panic(f: impl FnOnce() + std::panic::UnwindSafe) {
        let err = std::panic::catch_unwind(f).expect_err("mis-schedule must panic in debug");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        assert!(
            msg.contains("wavefront overlap: blocks 0 and 1"),
            "panic must name the colliding blocks, got: {msg}"
        );
        assert!(
            msg.contains("flat extent [1, 1]"),
            "panic must name the offending extent, got: {msg}"
        );
    }

    #[test]
    fn mis_schedule_panics_in_interp() {
        let m = two_block_module(lying_deps());
        for threads in [1, 2] {
            expect_overlap_panic(|| run_interp(&m, threads, Scheduler::Levels));
        }
    }

    #[test]
    fn mis_schedule_panics_in_bytecode() {
        let m = two_block_module(lying_deps());
        for threads in [1, 2] {
            expect_overlap_panic(|| run_bytecode(&m, threads, Scheduler::Levels));
        }
    }

    #[test]
    fn mis_schedule_panics_in_interp_dataflow() {
        // With no dependences both blocks are roots of the block graph
        // — unordered — yet both write element 1: the checker must
        // object under the graph drain exactly as under barriers.
        let m = two_block_module(lying_deps());
        for threads in [1, 2] {
            expect_overlap_panic(|| run_interp(&m, threads, Scheduler::Dataflow));
        }
    }

    #[test]
    fn mis_schedule_panics_in_bytecode_dataflow() {
        let m = two_block_module(lying_deps());
        for threads in [1, 2] {
            expect_overlap_panic(|| run_bytecode(&m, threads, Scheduler::Dataflow));
        }
    }
}
