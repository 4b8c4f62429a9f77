//! Property tests for the Lublin generator: a trace is in submit order,
//! every job fits the modelled cluster, a seed fixes the trace, and the
//! streaming form yields the generated trace job for job.

use proptest::prelude::*;
use rlsched_swf::Job;
use rlsched_workload::{LublinModel, LublinParams};

fn model(second: bool) -> LublinModel {
    LublinModel::new(if second {
        LublinParams::lublin2()
    } else {
        LublinParams::lublin1()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn traces_are_sorted_and_fit_the_cluster(n in 0usize..400, seed in any::<u64>(), second in any::<bool>()) {
        let model = model(second);
        let trace = model.generate(n, seed);
        prop_assert_eq!(trace.len(), n);
        let jobs = trace.jobs();
        prop_assert!(jobs.windows(2).all(|w| w[0].submit_time <= w[1].submit_time));
        let cluster = model.params().cluster_size;
        for j in jobs {
            prop_assert!((1..=cluster).contains(&j.procs()), "job {} asks for {}", j.id, j.procs());
        }
    }

    #[test]
    fn a_seed_fixes_the_trace_and_the_stream(n in 0usize..400, seed in any::<u64>(), second in any::<bool>()) {
        let model = model(second);
        let trace = model.generate(n, seed);
        let again = model.generate(n, seed);
        prop_assert_eq!(again.jobs(), trace.jobs());
        let streamed: Vec<Job> = model.stream(n, seed).collect();
        prop_assert_eq!(streamed.as_slice(), trace.jobs());
    }
}
