//! Property test: Chrome Trace exports produced from arbitrary
//! span/counter workloads must be consumable by tooling. We hold the
//! exporter to the strictest local standard available — `edm-serve`'s
//! own JSON parser — and to the Trace Event Format contract Perfetto
//! relies on: a `traceEvents` array, a known `ph` vocabulary, metadata
//! naming for every referenced thread, monotone non-decreasing
//! timestamps per tid, and begin/end balance after the exporter's
//! dangling-end sanitizer.
//!
//! Trace state is process-global, so this file holds exactly one test
//! function; proptest runs its cases sequentially on one thread.

use std::collections::{BTreeMap, BTreeSet};

use edm_serve::json::{self, Value};
use proptest::prelude::*;

fn str_field<'v>(ev: &'v Value, key: &str) -> Option<&'v str> {
    ev.get(key).and_then(Value::as_str)
}

fn num_field(ev: &Value, key: &str) -> Option<f64> {
    ev.get(key).and_then(Value::as_f64)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn chrome_trace_is_valid_and_monotone_per_tid(
        cap in 4usize..80,
        spans in 0usize..40,
        counters in 0usize..30,
    ) {
        edm_trace::set_level(edm_trace::Level::Full);
        edm_trace::set_event_capacity(cap);
        edm_trace::reset();
        edm_trace::name_thread("props-main");

        for i in 0..spans {
            let _outer = edm_trace::span("props.chrome.outer");
            if i % 3 == 0 {
                let _inner = edm_trace::span("props.chrome.inner");
            }
        }
        for _ in 0..counters {
            edm_trace::counter_add("props.chrome.count", 1);
        }

        let text = edm_trace::collect().to_chrome_trace();

        // Our own strict JSON parser must accept the export verbatim.
        let doc = json::parse(&text).expect("chrome trace is valid JSON");
        let events =
            doc.get("traceEvents").and_then(Value::as_array).expect("traceEvents array");

        let mut named_tids: BTreeSet<i64> = BTreeSet::new();
        let mut last_ts: BTreeMap<i64, f64> = BTreeMap::new();
        let mut depth: BTreeMap<i64, u64> = BTreeMap::new();
        for ev in events {
            let ph = str_field(ev, "ph").expect("event has ph");
            let tid = num_field(ev, "tid").expect("event has tid") as i64;
            prop_assert_eq!(num_field(ev, "pid"), Some(1.0));
            match ph {
                "M" => {
                    prop_assert_eq!(str_field(ev, "name"), Some("thread_name"));
                    named_tids.insert(tid);
                }
                "B" | "E" | "C" => {
                    prop_assert!(str_field(ev, "name").is_some(), "{ph} event without name");
                    let ts = num_field(ev, "ts").expect("event has ts");
                    if let Some(prev) = last_ts.insert(tid, ts) {
                        prop_assert!(prev <= ts, "ts regressed on tid {tid}: {prev} > {ts}");
                    }
                    let d = depth.entry(tid).or_insert(0u64);
                    if ph == "B" {
                        *d += 1;
                    } else if ph == "E" {
                        // The sanitizer must have removed dangling
                        // ends, so depth never goes negative.
                        prop_assert!(*d > 0, "unbalanced E on tid {tid}");
                        *d -= 1;
                    }
                }
                other => panic!("unknown ph {other:?}"),
            }
        }
        // Every tid that recorded events carries thread_name metadata,
        // and all spans close by end of stream.
        for tid in last_ts.keys() {
            prop_assert!(named_tids.contains(tid), "tid {tid} has no thread_name metadata");
        }
        for (tid, d) in &depth {
            prop_assert_eq!(*d, 0u64, "tid {} ended at depth {}", tid, d);
        }

        edm_trace::reset();
        edm_trace::set_event_capacity(edm_trace::EVENT_CAP);
        edm_trace::set_level(edm_trace::Level::Off);
    }
}
