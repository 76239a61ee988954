//! Flow fingerprints and input digests are stable across
//! `EDM_NUM_THREADS=1` and `2`, and each traced replay reproduces its
//! flow bit for bit.
//!
//! One test per file keeps the environment edits single-threaded. The
//! flows are full-size, so run this suite with `--release`.

use perfbench::flows::Flow;
use perfbench::trace::Recorder;

#[test]
fn fingerprints_hold_across_thread_counts_and_replays() {
    for flow in Flow::ALL {
        let seed = flow.paper_seed();
        std::env::set_var("EDM_NUM_THREADS", "1");
        let one = flow.run(seed).expect("flow runs on one thread");
        let inputs_one = flow.build_inputs(seed);
        std::env::set_var("EDM_NUM_THREADS", "2");
        let two = flow.run(seed).expect("flow runs on two threads");
        let inputs_two = flow.build_inputs(seed);
        std::env::remove_var("EDM_NUM_THREADS");
        assert_eq!(one, two, "{}: result depends on the thread count", flow.workload());
        assert_eq!(
            inputs_one,
            inputs_two,
            "{}: inputs depend on the thread count",
            flow.workload()
        );
        assert_ne!(
            inputs_one,
            flow.build_inputs(seed + 1),
            "{}: inputs ignore the seed",
            flow.workload()
        );

        let mut rec = Recorder::default();
        let (replayed, root) = flow.replay(seed, &mut rec).expect("replay runs");
        assert_eq!(replayed.fingerprint, one.fingerprint, "{}: replay diverged", flow.workload());
        let coverage = rec.coverage(root);
        assert!(coverage > 0.9, "{}: spans cover only {coverage:.3}", flow.workload());
    }
}
