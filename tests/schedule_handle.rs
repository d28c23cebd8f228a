//! The wavefront schedule travels from `cfd.get_parallel_blocks` to
//! `scf.execute_wavefronts` as a typed handle (`RtVal::Schedule`), not
//! as `i64` arrays that the executor has to match back to a cache entry.
//!
//! The test below mints a schedule, then mints more distinct schedules
//! than the process-wide bundle cache holds, which clears the cache, and
//! only then executes over the first schedule. The dataflow run must
//! still drain the dependence graph — no silent fallback to levels — and
//! stay bit- and statistics-identical to a levels run.

use instencil::core::ops::build_get_parallel_blocks;
use instencil::exec::ExecStats;
use instencil::ir::{attr::AttrMap, OpCode};
use instencil::pattern::blockdeps::to_block_stencil;
use instencil::pattern::dataflow::CACHE_CAP;
use instencil::prelude::*;

/// Blocks per side of the executed schedule.
const NB: i64 = 4;

/// `wf(buf)` on a `(NB+1)²` buffer: mint schedule A over an `NB × NB`
/// block grid with Gauss-Seidel dependences, mint `churn` distinct
/// `[i + 1, 1]` schedules in an `scf.for`, then execute over A. Block
/// `(i, j)` writes `buf[i+1][j+1] = buf[i][j+1] + buf[i+1][j] + 1`,
/// reading exactly the cells of its two predecessor blocks.
fn churn_module(churn: usize) -> Module {
    let (shape, data) = to_block_stencil(2, &[vec![-1, 0], vec![0, -1]]);
    let mr = Type::memref_dyn(Type::F64, 2);
    let mut fb = FuncBuilder::new("wf", vec![mr], vec![]);
    let buf = fb.arg(0);
    let nb = fb.const_index(NB);
    let (rows, cols) = build_get_parallel_blocks(&mut fb, &[nb, nb], shape.clone(), data.clone());

    let c0 = fb.const_index(0);
    let cn = fb.const_index(churn as i64);
    let c1 = fb.const_index(1);
    fb.build_for(c0, cn, c1, vec![], |fb, iv, _| {
        let one = fb.const_index(1);
        let rows = fb.addi(iv, one);
        build_get_parallel_blocks(fb, &[rows, one], shape, data);
        vec![]
    });

    let region = fb.body_mut().add_region();
    let block = fb.body_mut().add_block(region);
    let flat = fb.body_mut().add_block_arg(block, Type::Index);
    let saved = fb.insertion_block();
    fb.set_insertion_block(block);
    let side = fb.const_index(NB);
    let one = fb.const_index(1);
    let i = fb.floordiv(flat, side);
    let j = fb.remi(flat, side);
    let i1 = fb.addi(i, one);
    let j1 = fb.addi(j, one);
    let up = fb.mem_load(buf, &[i, j1]);
    let left = fb.mem_load(buf, &[i1, j]);
    let sum = fb.addf(up, left);
    let onef = fb.const_f64(1.0);
    let v = fb.addf(sum, onef);
    fb.mem_store(v, buf, &[i1, j1]);
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

    let mut m = Module::new("churn");
    m.push_func(fb.finish());
    m.verify()
        .unwrap_or_else(|e| panic!("{e}\n{}", m.to_text()));
    m
}

/// Runs `wf` once; returns the buffer bits, the statistics and the
/// scheduler named by the last wavefront record.
fn run(m: &Module, engine: Engine, scheduler: Scheduler) -> (Vec<u64>, ExecStats, String, usize) {
    let side = NB as usize + 1;
    let buf = BufferView::alloc(&[side, side]);
    let obs = Obs::new(ObsLevel::Summary);
    let mut runner = Runner::with_opts(m, engine, 2, scheduler, obs).unwrap();
    runner.call("wf", vec![RtVal::Buf(buf.clone())]).unwrap();
    let rec = runner.obs().snapshot();
    let last = rec.wavefronts.last().expect("the wavefront op is recorded");
    let bits = buf.to_vec().iter().map(|x| x.to_bits()).collect();
    (bits, runner.stats(), last.scheduler.clone(), last.sweeps)
}

#[test]
fn schedule_survives_cache_churn() {
    let m = churn_module(CACHE_CAP + 64);
    for engine in [Engine::Interp, Engine::Bytecode] {
        let (levels_bits, levels_stats, levels_name, _) = run(&m, engine, Scheduler::Levels);
        assert_eq!(levels_name, "levels");
        let (bits, stats, name, sweeps) = run(&m, engine, Scheduler::Dataflow);
        assert_eq!(
            name, "dataflow",
            "{engine:?}: the evicted schedule must still drain its graph"
        );
        assert_eq!(sweeps, 1, "{engine:?}: an eager call is a one-sweep drain");
        assert_eq!(
            bits, levels_bits,
            "{engine:?}: dataflow must be bit-identical to levels"
        );
        assert_eq!(
            stats, levels_stats,
            "{engine:?}: statistics must be scheduler-invariant"
        );
        assert_eq!(stats.schedules_computed, CACHE_CAP as u64 + 65);
    }
}
