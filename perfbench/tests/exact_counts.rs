//! The exact-count block of a traced run — factorizer iteration and stop counts,
//! simulated accelerator values — is a function of the seed and the code alone:
//! two back-to-back short runs, whose live loops differ in timing and (for the
//! open loop) in how requests were chunked, report identical counts.

use cogsys_perfbench::{run, Settings, Workload};

fn short_traced_run(workload: Workload, seed: u64) -> Settings {
    let args = format!(
        "--workload {} --seed {seed} --seconds 0.3 --trace 1 --rate 300 \
         --slo-ms raven_batch64=100,pgm_d1024=200,serve_open=10 --out {}",
        workload.name(),
        env!("CARGO_TARGET_TMPDIR"),
    );
    Settings::parse(args.split_whitespace().map(str::to_string)).expect("valid arguments")
}

#[test]
fn exact_counts_repeat_across_runs() {
    for workload in Workload::ALL {
        let settings = short_traced_run(workload, 17);
        let first = run(&settings).expect("first run");
        let second = run(&settings).expect("second run");
        assert_eq!(first.exact.len(), 11, "{}", workload.name());
        assert!(first.exact.iter().all(|m| m.value.is_finite()));
        assert_eq!(first.exact, second.exact, "{}", workload.name());
    }
}

#[test]
fn exact_counts_follow_the_seed() {
    let a = run(&short_traced_run(Workload::ServeOpen, 17)).expect("seed 17");
    let b = run(&short_traced_run(Workload::ServeOpen, 18)).expect("seed 18");
    let mean = |o: &cogsys_perfbench::Outcome| {
        o.exact
            .iter()
            .find(|m| m.name == "factorizer.iters_mean")
            .map(|m| m.value)
    };
    assert_ne!(mean(&a), mean(&b), "another seed replays other problems");
}
