//! Workload loops: make solve calls, time them and check their outputs.
//!
//! Both loops fill a [`Ledger`]: one [`Call`] per solve call and, per request
//! (one problem), the time it was due and the time it was answered. Times are
//! seconds since the run's origin.

use crate::replay::mix;
use crate::trace::Tracer;
use crate::CHUNK_TAG;
use cogsys_datasets::Problem;
use cogsys_serve::{ChunkEngine, DegradationLevel, SolverEngine};
use cogsys_workloads::{NeurosymbolicSolver, SolveError, SolverReport, SolverScratch};
use rand::rngs::StdRng;
use std::time::Instant;

/// Most requests the open loop puts in one chunk.
pub const MAX_CHUNK: usize = 8;

/// One solve call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Call {
    /// Sequence number of the call's first request.
    pub request: usize,
    /// Position of the call's first problem in the input stream.
    pub input: usize,
    /// Problems in the call.
    pub len: usize,
    /// Call start.
    pub start: f64,
    /// Call end.
    pub end: f64,
    /// Whether the call was formed after the loop sat idle waiting for its
    /// first request — the calls whose formation delay is generator lag.
    pub idle_formed: bool,
    /// Whether the call carries a `serve.chunk` span.
    pub traced: bool,
}

impl Call {
    /// Call duration in seconds.
    pub fn seconds(&self) -> f64 {
        self.end - self.start
    }
}

/// Everything a workload loop measured.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Solve calls in the order they were made.
    pub calls: Vec<Call>,
    /// Per request: when it was due.
    pub due: Vec<f64>,
    /// Per request: when it was answered (`None` when its call failed).
    pub answered: Vec<Option<f64>>,
    /// Merged solver reports of the successful calls.
    pub report: SolverReport,
    /// Requests in failed calls.
    pub failed: u64,
    /// Output-check violations and call failures, described.
    pub violations: Vec<String>,
}

impl Ledger {
    fn settle(
        &mut self,
        call: Call,
        problems: &[Problem],
        result: Result<SolverReport, SolveError>,
        choices: &[usize],
    ) {
        match result {
            Ok(report) => {
                check_call(
                    call.request,
                    problems,
                    &report,
                    choices,
                    &mut self.violations,
                );
                self.report.merge(&report);
                self.answered.extend((0..call.len).map(|_| Some(call.end)));
            }
            Err(e) => {
                self.failed += call.len as u64;
                self.violations
                    .push(format!("call at request {} failed: {e}", call.request));
                self.answered.extend((0..call.len).map(|_| None));
            }
        }
        self.calls.push(call);
    }
}

/// Checks one call's outputs: one valid candidate index per problem, and a
/// report that counts every problem and all eight context panels of each.
pub fn check_call(
    request: usize,
    problems: &[Problem],
    report: &SolverReport,
    choices: &[usize],
    violations: &mut Vec<String>,
) {
    let n = problems.len();
    let panels = NeurosymbolicSolver::CONTEXT_PANELS * n;
    if report.problems != n || report.panels_total != panels {
        violations.push(format!(
            "call at request {request}: report counts {} problems / {} panels, expected {n} / {panels}",
            report.problems, report.panels_total
        ));
    }
    if choices.len() != n {
        violations.push(format!(
            "call at request {request}: {} choices for {n} problems",
            choices.len()
        ));
    }
    for (i, (problem, &choice)) in problems.iter().zip(choices).enumerate() {
        if choice >= problem.candidates.len() {
            violations.push(format!(
                "request {}: choice {choice} outside {} candidates",
                request + i,
                problem.candidates.len()
            ));
        }
    }
}

fn secs(origin: Instant, at: Instant) -> f64 {
    at.saturating_duration_since(origin).as_secs_f64()
}

/// Closed loop with one client: the next `batch` problems of `pool` (cycled) are
/// sent as soon as the previous call returns, until `seconds` have passed and
/// at least `min_calls` calls were made.
/// With a tracer, every second call carries a `serve.chunk` span.
#[allow(clippy::too_many_arguments)]
pub fn closed_loop(
    solver: &NeurosymbolicSolver,
    scratch: &mut SolverScratch,
    rng: &mut StdRng,
    pool: &[Problem],
    batch: usize,
    seconds: f64,
    min_calls: usize,
    origin: Instant,
    mut tracer: Option<&mut Tracer>,
) -> Ledger {
    let mut ledger = Ledger::default();
    loop {
        let sent = Instant::now();
        let k = ledger.calls.len();
        if secs(origin, sent) >= seconds && k >= min_calls {
            return ledger;
        }
        let input = (k * batch) % pool.len();
        let problems = &pool[input..input + batch];
        ledger
            .due
            .extend(std::iter::repeat_n(secs(origin, sent), batch));
        let start = Instant::now();
        let result = solver.solve_batch_with(problems, rng, scratch);
        let end = Instant::now();
        let traced = k % 2 == 1 && tracer.is_some();
        if let Some(t) = tracer.as_deref_mut().filter(|_| traced) {
            t.record("serve.chunk", None, k as u64, start, end);
        }
        let call = Call {
            request: k * batch,
            input,
            len: batch,
            start: secs(origin, start),
            end: secs(origin, end),
            idle_formed: true,
            traced,
        };
        ledger.settle(call, problems, result, scratch.choices());
    }
}

/// Open loop from one thread: request `i` is due at `arrivals[i]` and asks for
/// `problems[i]`. Whenever the engine is idle, every due request (at most
/// [`MAX_CHUNK`]) becomes one `solve_chunk` call at full service, seeded from its
/// first request id. Runs until every request is answered. With a tracer, every
/// second call carries a `serve.chunk` span.
pub fn open_loop(
    engine: &mut SolverEngine,
    problems: &[Problem],
    arrivals: &[f64],
    seed: u64,
    origin: Instant,
    mut tracer: Option<&mut Tracer>,
) -> Ledger {
    let mut ledger = Ledger {
        due: arrivals.to_vec(),
        ..Ledger::default()
    };
    let mut next = 0;
    while next < arrivals.len() {
        let idle_formed = arrivals[next] > secs(origin, Instant::now());
        if idle_formed {
            wait_until(origin, arrivals[next]);
        }
        let pickup = secs(origin, Instant::now());
        let mut end = next + 1;
        while end < arrivals.len() && end - next < MAX_CHUNK && arrivals[end] <= pickup {
            end += 1;
        }
        let chunk = &problems[next..end];
        let k = ledger.calls.len();
        let start = Instant::now();
        let result = engine.solve_chunk(
            chunk,
            mix(&[seed, CHUNK_TAG, next as u64]),
            DegradationLevel::Full,
        );
        let stop = Instant::now();
        let traced = k % 2 == 1 && tracer.is_some();
        if let Some(t) = tracer.as_deref_mut().filter(|_| traced) {
            t.record("serve.chunk", None, k as u64, start, stop);
        }
        let call = Call {
            request: next,
            input: next,
            len: chunk.len(),
            start: secs(origin, start),
            end: secs(origin, stop),
            idle_formed,
            traced,
        };
        match result {
            Ok(out) => ledger.settle(call, chunk, Ok(out.report), &out.choices),
            Err(e) => ledger.settle(call, chunk, Err(e), &[]),
        }
        next = end;
    }
    ledger
}

/// Waits until `at` seconds after `origin` by spinning. Sleeping would let the
/// host deschedule the idle CPU, and waking it again costs up to milliseconds —
/// lateness that would land in every request's latency.
fn wait_until(origin: Instant, at: f64) {
    while secs(origin, Instant::now()) < at {
        std::hint::spin_loop();
    }
}
