//! Property tests for the bounded per-thread event ring.
//!
//! The trace level, event capacity, and registry are process-global,
//! so everything lives in a single `#[test]` function: proptest runs
//! its cases sequentially on one thread, which keeps every case's
//! events on one shard and away from concurrent mutation.
//!
//! Properties checked per case:
//! - the retained timeline never exceeds the configured capacity;
//! - `dropped_events` accounts for every evicted event exactly
//!   (`retained + dropped == attempted`);
//! - begin/end nesting stays well-formed: because the ring drops its
//!   **oldest** events, the retained stream is a suffix of a balanced
//!   sequence — depth never goes negative except via dangling `E`
//!   events at depth zero (possible only when drops occurred), and all
//!   spans close by the end.
//!
//! Without the `trace` feature there is no ring to test: probes compile
//! to no-ops and every timeline is empty.

#![cfg(feature = "trace")]

use edm_trace::EventKind;
use proptest::prelude::*;

/// Open `depth` nested spans and let them all close on unwind.
fn nest(depth: usize) {
    if depth == 0 {
        return;
    }
    let _guard = edm_trace::span("props.ring.nest");
    nest(depth - 1);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn ring_bounds_drops_and_nesting(
        cap in 1usize..96,
        flat_spans in 0usize..40,
        nest_depth in 0usize..6,
        counters in 0usize..60,
    ) {
        edm_trace::set_level(edm_trace::Level::Full);
        edm_trace::set_event_capacity(cap);
        edm_trace::reset();

        let mut attempted: u64 = 0;
        for i in 0..flat_spans {
            {
                let _span = edm_trace::span("props.ring.span");
            }
            attempted += 2;
            if i % 3 == 0 {
                nest(nest_depth);
                attempted += 2 * nest_depth as u64;
            }
        }
        for _ in 0..counters {
            edm_trace::counter_add("props.ring.count", 1);
            attempted += 1;
        }

        let report = edm_trace::collect();
        let retained = report.timeline.len() as u64;

        // Bounded: never more events than the configured capacity.
        prop_assert!(retained <= cap as u64, "retained {retained} > cap {cap}");
        // Exact accounting: every attempted event is either retained
        // or counted as dropped — nothing vanishes silently.
        prop_assert_eq!(retained + report.dropped_events, attempted);
        prop_assert_eq!(retained, attempted.min(cap as u64));
        // The synthesized counter mirrors the report field.
        let synth = report
            .counters
            .iter()
            .find(|c| c.name == "trace.ring.dropped")
            .map(|c| c.value);
        if report.dropped_events > 0 {
            prop_assert_eq!(synth, Some(report.dropped_events));
        }

        // Nesting: walk the retained suffix. E at depth zero is a
        // dangling end whose B was evicted — legal only if something
        // was actually dropped. Everything else must balance.
        let mut depth: u64 = 0;
        let mut dangling: u64 = 0;
        for ev in &report.timeline {
            match ev.ph {
                EventKind::B => depth += 1,
                EventKind::E => {
                    if depth == 0 {
                        dangling += 1;
                    } else {
                        depth -= 1;
                    }
                }
                EventKind::C => {}
            }
        }
        prop_assert!(
            dangling == 0 || report.dropped_events > 0,
            "dangling E without any drops"
        );
        prop_assert_eq!(depth, 0, "spans left open in the retained suffix");

        // Timestamps are monotone non-decreasing in ring order.
        for pair in report.timeline.windows(2) {
            prop_assert!(pair[0].ts_ns <= pair[1].ts_ns);
        }

        edm_trace::reset();
        edm_trace::set_event_capacity(edm_trace::EVENT_CAP);
        edm_trace::set_level(edm_trace::Level::Off);
    }
}
