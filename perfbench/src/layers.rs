//! Per-layer metrics of a traced run, named after the crates they measure.
//!
//! * `workloads.*`, `factorizer.*`, `vsa.*`: after the live loop, traced calls
//!   are solved again through `solve_batch_with` and then replayed layer by
//!   layer (see [`crate::replay`]), back to back, so the solve span and the
//!   layer spans it is compared with see the same stretch of host speed. This
//!   phase takes traced calls in order for at most half the loop's duration.
//! * `serve.*`, `loadgen.*`: call sizes, call times and queueing of the live loop.
//! * `sim.*`, `scheduler.*`: the accelerator model at the workload's shape.
//! * `trace.*`: what tracing costs and how much of a solve the replay explains.
//!
//! The factorizer's iteration and stop counts come from a fixed window, the first
//! [`COUNT_PROBLEMS`] problems of the input stream, and together with the
//! simulated values they form the exact-count block: for a fixed seed and code
//! they repeat exactly.

use crate::drive::Ledger;
use crate::replay::{mix, Replay};
use crate::trace::Tracer;
use crate::{metric, stats, Inputs, Metric, Settings, Workload, CLEANUP_TAG, RESOLVE_TAG};
use cogsys::{AblationVariant, CogSysConfig, CogSysSystem};
use cogsys_factorizer::FactorizationResult;
use cogsys_scheduler::{AdSchScheduler, Scheduler};
use cogsys_vsa::{BitMatrix, CleanupScratch};
use cogsys_workloads::{NeurosymbolicSolver, SolverScratch};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Problems in the exact-count window.
pub const COUNT_PROBLEMS: usize = 512;

/// How long each host-time micro-measurement repeats its call.
const MICRO_BUDGET: Duration = Duration::from_millis(200);

/// Per-layer metrics and the exact-count block.
#[derive(Debug, Clone, Default)]
pub struct Layered {
    /// Every per-layer metric.
    pub metrics: Vec<Metric>,
    /// The metrics that repeat exactly for a fixed seed and code.
    pub exact: Vec<Metric>,
}

/// Computes every per-layer metric of a traced run whose live loop filled
/// `ledger` and recorded `serve.chunk` spans into `tracer`.
///
/// # Errors
/// Describes a failing layer call.
pub fn per_layer(
    settings: &Settings,
    solver: &NeurosymbolicSolver,
    ledger: &Ledger,
    inputs: &Inputs,
    tracer: &mut Tracer,
) -> Result<Layered, String> {
    let w = settings.workload;
    let mut replay = Replay::new(solver).map_err(|e| format!("building the replay: {e}"))?;
    let vocab = solver.config().vocab;

    // Solve and replay traced calls again, each under its call's batch id.
    let mut scratch = SolverScratch::default();
    let mut rng = StdRng::seed_from_u64(mix(&[settings.seed, RESOLVE_TAG]));
    let mut iterations = 0usize;
    let mut rows = Vec::new();
    let mut replayed_calls = 0usize;
    let phase = Instant::now();
    for (k, call) in ledger.calls.iter().enumerate().filter(|(_, c)| c.traced) {
        if replayed_calls > 0 && phase.elapsed().as_secs_f64() >= settings.seconds / 2.0 {
            break;
        }
        let batch = k as u64;
        let problems = &inputs.problems[call.input..call.input + call.len];
        let span = tracer.open("workloads.validate", None, batch);
        for problem in problems {
            let _ = black_box(NeurosymbolicSolver::validate_problem_with(
                vocab,
                black_box(problem),
            ));
        }
        tracer.close(span);
        let span = tracer.open("workloads.plan", None, batch);
        black_box(solver.plan_for_batch(call.len));
        tracer.close(span);
        let span = tracer.open("workloads.solve", None, batch);
        let solved = solver.solve_batch_with(problems, &mut rng, &mut scratch);
        tracer.close(span);
        solved.map_err(|e| format!("solving call {k} again: {e}"))?;
        rows.clear();
        replay
            .run(
                solver,
                problems,
                call.input as u64,
                settings.seed,
                tracer,
                batch,
                &mut rows,
            )
            .map_err(|e| format!("replaying call {k}: {e}"))?;
        iterations += rows.iter().map(|r| r.iterations).sum::<usize>();
        replayed_calls += 1;
    }
    let n = replayed_calls as f64;
    let per_call_ms = |name: &str| tracer.total_ns(name) as f64 / 1e6 / n;
    let solve_ms = per_call_ms("workloads.solve");
    let encode_ms = per_call_ms("workloads.encode");
    let decode_ms = per_call_ms("factorizer.decode");
    let polish_ms = per_call_ms("factorizer.polish");
    let replayed_ms = encode_ms + decode_ms + polish_ms;

    // Problems per second of call time of the live loop's traced or plain calls.
    let rate = |traced: bool| {
        let calls = ledger.calls.iter().filter(|c| c.traced == traced);
        let (problems, seconds) = calls.fold((0, 0.0), |(p, s), c| (p + c.len, s + c.seconds()));
        problems as f64 / seconds
    };

    let mut chunk_ms = tracer.durations_ms("serve.chunk");
    let mut waits_ms: Vec<f64> = ledger
        .calls
        .iter()
        .flat_map(|c| (c.request..c.request + c.len).map(move |r| (c.start, r)))
        .map(|(start, r)| (start - ledger.due[r]) * 1e3)
        .collect();
    let lag_ms = ledger
        .calls
        .iter()
        .filter(|c| c.idle_formed)
        .map(|c| (c.start - ledger.due[c.request]) * 1e3)
        .fold(f64::NAN, f64::max);
    let batch_mean = stats::mean(
        &ledger
            .calls
            .iter()
            .map(|c| c.len as f64)
            .collect::<Vec<_>>(),
    );

    let exact = exact_counts(w, solver, &mut replay, inputs, settings.seed)?;
    let (cleanup_ns_per_row, cleanup_bytes_per_row) = cleanup_kernel(w, solver, settings.seed)?;
    let schedule_us = schedule_host_us(w, solver)?;

    let mut metrics = vec![
        metric("workloads.solve_ms", solve_ms, "ms"),
        metric(
            "workloads.validate_us",
            tracer.total_ns("workloads.validate") as f64 / 1e3 / n,
            "us",
        ),
        metric(
            "workloads.plan_us",
            tracer.total_ns("workloads.plan") as f64 / 1e3 / n,
            "us",
        ),
        metric("workloads.encode_ms", encode_ms, "ms"),
        metric("workloads.other_ms", solve_ms - replayed_ms, "ms"),
        metric("factorizer.decode_ms", decode_ms, "ms"),
        metric(
            "factorizer.us_per_iter",
            tracer.total_ns("factorizer.decode") as f64 / 1e3 / iterations as f64,
            "us",
        ),
    ];
    metrics.extend(
        exact
            .iter()
            .filter(|m| m.name.starts_with("factorizer."))
            .cloned(),
    );
    metrics.extend([
        metric("vsa.cleanup_ms", per_call_ms("vsa.cleanup"), "ms"),
        metric("vsa.cleanup_ns_per_row", cleanup_ns_per_row, "ns"),
        metric("vsa.cleanup_bytes_per_row", cleanup_bytes_per_row, "bytes"),
        metric(
            "serve.chunk_ms_p50",
            stats::quantile(&mut chunk_ms, 0.5),
            "ms",
        ),
        metric(
            "serve.chunk_ms_p99",
            stats::quantile(&mut chunk_ms, 0.99),
            "ms",
        ),
        metric("serve.batch_size_mean", batch_mean, "count"),
        metric(
            "serve.queue_wait_ms_p50",
            stats::quantile(&mut waits_ms, 0.5),
            "ms",
        ),
        metric(
            "serve.queue_wait_ms_p99",
            stats::quantile(&mut waits_ms, 0.99),
            "ms",
        ),
        metric("loadgen.lag_ms_max", lag_ms, "ms"),
    ]);
    metrics.extend(
        exact
            .iter()
            .filter(|m| !m.name.starts_with("factorizer."))
            .cloned(),
    );
    metrics.extend([
        metric("scheduler.schedule_us", schedule_us, "us"),
        metric(
            "trace.overhead_share",
            1.0 - rate(true) / rate(false),
            "share",
        ),
        metric("trace.replay_share", replayed_ms / solve_ms, "share"),
    ]);
    Ok(Layered { metrics, exact })
}

/// The exact-count block: iteration and stop counts of the replayed first
/// [`COUNT_PROBLEMS`] problems (in calls of the workload's batch size), and the
/// simulated accelerator values at the workload's shape.
///
/// # Errors
/// Describes a failing layer or simulator call.
pub fn exact_counts(
    w: Workload,
    solver: &NeurosymbolicSolver,
    replay: &mut Replay,
    inputs: &Inputs,
    seed: u64,
) -> Result<Vec<Metric>, String> {
    let mut tracer = Tracer::new(Instant::now());
    let mut rows: Vec<FactorizationResult> = Vec::new();
    for (i, chunk) in inputs.problems[..COUNT_PROBLEMS]
        .chunks(w.batch())
        .enumerate()
    {
        let first = (i * w.batch()) as u64;
        replay
            .run(solver, chunk, first, seed, &mut tracer, i as u64, &mut rows)
            .map_err(|e| format!("replaying the count window: {e}"))?;
    }
    let budget = replay.max_iterations();
    let mut iters: Vec<f64> = rows.iter().map(|r| r.iterations as f64).collect();
    let total: usize = rows.iter().map(|r| r.iterations).sum();
    let stuck: Vec<&FactorizationResult> = rows.iter().filter(|r| !r.converged).collect();
    let queries = rows.len() as f64;
    let tail: usize = stuck.iter().map(|r| r.iterations).sum();

    let system = CogSysSystem::new(CogSysConfig {
        solver: w.solver_config(),
        batch_tasks: w.batch(),
        ..CogSysConfig::default()
    });
    let accel_us = system.seconds_per_task().map_err(sim_err)? * 1e6;
    let speedup = system
        .ablation_relative_runtime(AblationVariant::WithoutNsPe)
        .map_err(sim_err)?;
    let utilization = system
        .schedule_batch(true)
        .map_err(sim_err)?
        .array_utilization();
    let array = system.compute_array().map_err(sim_err)?;
    let makespan = AdSchScheduler::new(system.config().scheduler)
        .schedule(&array, &solver.plan_for_batch(w.batch()).op_graph(0))
        .map_err(|e| format!("scheduling the plan: {e}"))?
        .makespan_cycles;

    Ok(vec![
        metric("factorizer.iters_mean", total as f64 / queries, "count"),
        metric(
            "factorizer.iters_p50",
            stats::quantile(&mut iters, 0.5),
            "count",
        ),
        metric(
            "factorizer.iters_p99",
            stats::quantile(&mut iters, 0.99),
            "count",
        ),
        metric(
            "factorizer.iters_max",
            stats::quantile(&mut iters, 1.0),
            "count",
        ),
        metric(
            "factorizer.nonconverged_share",
            stuck.len() as f64 / queries,
            "share",
        ),
        metric(
            "factorizer.budget_share",
            rows.iter().filter(|r| r.iterations >= budget).count() as f64 / queries,
            "share",
        ),
        metric(
            "factorizer.tail_iter_share",
            tail as f64 / total.max(1) as f64,
            "share",
        ),
        metric("sim.accel_us_per_task", accel_us, "sim_us"),
        metric("sim.speedup_vs_systolic", speedup, "x"),
        metric("sim.array_utilization", utilization, "share"),
        metric("scheduler.plan_makespan_cycles", makespan as f64, "cycles"),
    ])
}

fn sim_err(e: impl std::fmt::Display) -> String {
    format!("accelerator model: {e}")
}

/// `Codebook::cleanup_batch_bits_into` over every attribute codebook at the
/// workload's query batch (8 context panels per problem): host nanoseconds per
/// query row and codebook, and the computed bytes one such cleanup reads (the
/// codebook's sign planes plus the query row), averaged over codebooks.
fn cleanup_kernel(
    w: Workload,
    solver: &NeurosymbolicSolver,
    seed: u64,
) -> Result<(f64, f64), String> {
    let codebooks = solver.codebooks().codebooks();
    let rows = w.batch() * NeurosymbolicSolver::CONTEXT_PANELS;
    let dim = solver.config().vector_dim;
    let queries = BitMatrix::random_bipolar(
        rows,
        dim,
        &mut StdRng::seed_from_u64(mix(&[seed, CLEANUP_TAG])),
    );
    let backend = solver.backend().as_ref();
    let mut scratch = CleanupScratch::default();
    let mut out = Vec::new();
    let mut cleanups = 0u64;
    let start = Instant::now();
    while start.elapsed() < MICRO_BUDGET {
        for codebook in codebooks {
            codebook
                .cleanup_batch_bits_into(backend, black_box(&queries), &mut scratch, &mut out)
                .map_err(|e| format!("cleanup kernel: {e}"))?;
            black_box(&out);
            cleanups += 1;
        }
    }
    let ns = start.elapsed().as_nanos() as f64 / (cleanups as f64 * rows as f64);
    let row_bytes = (BitMatrix::words_for_dim(dim) * 8) as f64;
    let bytes = codebooks
        .iter()
        .map(|c| (c.len() + 1) as f64 * row_bytes)
        .sum::<f64>()
        / codebooks.len() as f64;
    Ok((ns, bytes))
}

/// Median host time of one adSCH schedule of the workload's compiled plan graph.
fn schedule_host_us(w: Workload, solver: &NeurosymbolicSolver) -> Result<f64, String> {
    let system = CogSysSystem::new(CogSysConfig::default());
    let array = system.compute_array().map_err(sim_err)?;
    let graph = solver.plan_for_batch(w.batch()).op_graph(0);
    let scheduler = AdSchScheduler::new(system.config().scheduler);
    let mut times = Vec::new();
    let start = Instant::now();
    while times.len() < 5 || start.elapsed() < MICRO_BUDGET {
        let t = Instant::now();
        black_box(scheduler.schedule(&array, black_box(&graph)))
            .map_err(|e| format!("scheduling the plan: {e}"))?;
        times.push(t.elapsed().as_secs_f64() * 1e6);
    }
    Ok(stats::median(&mut times))
}
