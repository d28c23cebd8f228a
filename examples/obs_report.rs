//! One-command observability demo: autotune, compile and run the 5-point
//! Gauss-Seidel under a single `ObsLevel::Trace` collector, then render
//! the full run report — autotune candidate table with the winner
//! marked, per-pass compile times, engine compile/execute split, and
//! per-wavefront-level timelines with per-worker busy/idle at two
//! thread counts — as text and schema-validated JSON
//! (`results/obs_gs5_report.json`).
//!
//! ```text
//! cargo run --release --example obs_report
//! ```

use instencil::core::pipeline::compile_with_obs;
use instencil::machine::cost::PerPointCosts;
use instencil::machine::{autotune_or_fallback_traced, xeon_6152_dual};
use instencil::obs::report::validate_report_json;
use instencil::pattern::presets;
use instencil::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Profiling-scale gs5: big enough for a multi-block wavefront
    // schedule, small enough to interpret in milliseconds.
    let domain = vec![66usize, 130];
    let sweeps = 3usize;
    let thread_counts = [2usize, 4];

    // One collector spans the whole session: autotune, the pipeline
    // passes, and every runtime sweep all record into it.
    let obs = Obs::new(ObsLevel::Trace);

    // --- autotune the tile sizes (§2.1), tracing every candidate -------
    let machine = xeon_6152_dual();
    let pattern = presets::gauss_seidel_5pt();
    let mut proto = RunConfig::new(domain.clone(), vec![1; 2], vec![1; 2]);
    proto.costs = PerPointCosts {
        scalar_flops: 2.0,
        vector_flops: 0.8,
        mem_ops: 2.0,
        vector_mem_ops: 0.8,
        control_ops: 2.0,
    };
    let tuned = autotune_or_fallback_traced(
        &machine,
        &pattern,
        &proto,
        *thread_counts.last().unwrap(),
        &obs,
    );
    println!(
        "autotuned: tile {:?}, sub-domain {:?} ({} candidates scored)",
        tuned.tile, tuned.subdomain, tuned.evaluated
    );

    // --- compile with the tuned sizes, passes spanned ------------------
    let module = kernels::gauss_seidel_5pt_module();
    let opts = PipelineOptions::new(tuned.subdomain.clone(), tuned.tile.clone())
        .fuse(true)
        .vectorize(Some(8))
        .obs(ObsLevel::Trace);
    let compiled = compile_with_obs(&module, &opts, obs.clone())?;

    // --- run the generated kernel at two thread counts -----------------
    let mut shape = vec![1usize];
    shape.extend(&domain);
    let mut stats = instencil::exec::ExecStats::default();
    let mut last_report = None;
    for &threads in &thread_counts {
        let w = BufferView::alloc(&shape);
        w.store(&[0, domain[0] as i64 / 2, domain[1] as i64 / 2], 1.0);
        let b = BufferView::alloc(&shape);
        let mut runner = Runner::with_opts(
            &compiled.module,
            Engine::Bytecode,
            threads,
            Scheduler::Levels,
            obs.clone(),
        )?;
        for _ in 0..sweeps {
            let args = vec![RtVal::Buf(w.clone()), RtVal::Buf(b.clone())];
            runner.call("gs5", args)?;
        }
        stats.merge(&runner.stats());
        last_report = Some(runner.report());
    }

    // --- render -----------------------------------------------------------
    let mut report = last_report.expect("at least one thread count ran");
    // The engine section is shared; the counters should cover *all* runs.
    report.exec_stats = Some(stats.to_json());
    println!("\n{}", report.to_text());

    let json = report.to_json().to_string();
    validate_report_json(&json)?;
    std::fs::create_dir_all("results")?;
    let out = "results/obs_gs5_report.json";
    std::fs::write(out, &json)?;
    println!("wrote {out} ({} bytes, schema-validated)", json.len());
    Ok(())
}
