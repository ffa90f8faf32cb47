//! Property test for worker-buffer splice/merge (DESIGN.md §10).
//!
//! Portfolio workers record into private `MemRecorder`s whose span
//! ids and timestamps are buffer-local; `merge_buffer` splices them
//! into the destination trace. The invariant under test: for *any*
//! shape of worker span trees merged in *any* rank order — including
//! two-level merges (worker → intermediate buffer → main) and prefix
//! renames — the merged trace is canonical: `parse_trace_strict`
//! accepts it (balanced spans, duplicate-free ids), no events are lost,
//! and counters sum exactly.

use proptest::{any, collection, proptest};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use statsym_telemetry::{
    lineage_op, parse_trace_strict, render_trace, Clock, FieldValue, LineageEvent, MemRecorder,
    Recorder, TraceBuffer, TraceEvent,
};

/// Records a random span tree (spans, point events, ticks, counters,
/// lineage states) into `rec`. `budget` bounds total operations; depth
/// is capped so the tree stays readable in failure dumps. `states`
/// tracks the lineage ids introduced into this recorder so transitions
/// and forks only ever name live ancestors — the same discipline the
/// engine's tracker enforces.
fn record_tree(
    rec: &dyn Recorder,
    rng: &mut StdRng,
    depth: usize,
    budget: &mut usize,
    states: &mut Vec<u64>,
) {
    while *budget > 0 && rng.random_bool(0.75) {
        *budget -= 1;
        match rng.random_range(0..5u32) {
            0 => rec.event(
                "w.point",
                &[("v", FieldValue::Uint(rng.random_range(0..100u64)))],
            ),
            1 => {
                rec.tick(rng.random_range(1..40u64));
                rec.counter_add("w.ops", 1);
            }
            2 => rec.observe("w.lat", rng.random_range(0..5000u64)),
            3 => {
                let steps = rng.random_range(0..50u64);
                let state = |op, id, parent| LineageEvent {
                    op,
                    id,
                    parent,
                    loc: "w:b0",
                    hops: 0,
                    depth: depth as u32,
                    steps,
                    snodes: 0,
                    solver_us: 0,
                };
                if states.is_empty() || rng.random_bool(0.2) {
                    let id = rec.alloc_state_id();
                    rec.state(&state(lineage_op::ROOT, id, 0));
                    states.push(id);
                } else if rng.random_bool(0.5) {
                    let parent = states[rng.random_range(0..states.len() as u64) as usize];
                    let id = rec.alloc_state_id();
                    rec.state(&state(lineage_op::FORK, id, parent));
                    states.push(id);
                } else {
                    let id = states[rng.random_range(0..states.len() as u64) as usize];
                    let ops = [
                        lineage_op::SUSPEND_TAU,
                        lineage_op::RESUME,
                        lineage_op::KILL,
                        lineage_op::EXIT,
                        lineage_op::FAULT,
                    ];
                    let op = ops[rng.random_range(0..ops.len() as u64) as usize];
                    rec.state(&state(op, id, 0));
                }
            }
            _ => {
                let id = rec.span_open("w.span");
                if depth < 4 {
                    record_tree(rec, rng, depth + 1, budget, states);
                }
                rec.span_close(id);
            }
        }
    }
}

/// Builds one worker buffer from a seed and returns it with its
/// recorded point-event and counter totals.
fn worker_buffer(seed: u64) -> (TraceBuffer, usize, u64) {
    let rec = MemRecorder::new(Clock::steps());
    let mut rng = StdRng::seed_from_u64(seed);
    let mut budget = rng.random_range(0..40usize);
    record_tree(&rec, &mut rng, 0, &mut budget, &mut Vec::new());
    let buf = rec.into_buffer();
    let points = buf
        .events
        .iter()
        .filter(|e| matches!(e, TraceEvent::Event { name, .. } if name == "w.point"))
        .count();
    let ops = buf
        .counters
        .iter()
        .find(|(n, _)| n == "w.ops")
        .map_or(0, |(_, v)| *v);
    (buf, points, ops)
}

proptest! {
    #[test]
    fn spliced_merges_yield_canonical_traces(
        seeds in collection::vec(any::<u64>(), 1..6),
        order_seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(order_seed);
        let mut buffers: Vec<(TraceBuffer, usize, u64)> =
            seeds.iter().map(|&s| worker_buffer(s)).collect();
        // Merge in a random rank order (the portfolio merges by rank;
        // the invariant must not depend on which order that is).
        for i in (1..buffers.len()).rev() {
            let j = rng.random_range(0..=i as u64) as usize;
            buffers.swap(i, j);
        }
        let expect_points: usize = buffers.iter().map(|(_, p, _)| *p).sum();
        let expect_ops: u64 = buffers.iter().map(|(_, _, o)| *o).sum();

        let main = MemRecorder::new(Clock::steps());
        let root = main.span_open("portfolio");
        for (i, (buf, _, _)) in buffers.iter().enumerate() {
            match i % 3 {
                // Direct merge, as the portfolio does for ranked workers.
                0 => main.merge_buffer(buf, None),
                // Prefix rename, as overshoot merging does.
                1 => main.merge_buffer(buf, Some("overshoot.")),
                // Two-level splice: worker buffer into an intermediate
                // buffer, intermediate into main.
                _ => {
                    let mid = MemRecorder::new(Clock::steps());
                    let wrap = mid.span_open("relay");
                    mid.merge_buffer(buf, None);
                    mid.span_close(wrap);
                    main.merge_buffer(&mid.into_buffer(), None);
                }
            }
            // Main-thread activity interleaved between merges must not
            // collide with spliced ids or timestamps.
            main.tick(1);
            main.event("main.between", &[("i", FieldValue::Uint(i as u64))]);
        }
        main.span_close(root);

        let ops_merged = main
            .metrics()
            .dump_counters()
            .into_iter()
            .filter(|(n, _)| n == "w.ops" || n == "overshoot.w.ops")
            .map(|(_, v)| v)
            .sum::<u64>();
        assert_eq!(ops_merged, expect_ops, "counter totals must merge exactly");

        let events = main.finish();
        let rendered = render_trace(&events);
        let parsed = parse_trace_strict(&rendered)
            .unwrap_or_else(|e| panic!("merged trace rejected: {e:?}\n{rendered}"));
        assert_eq!(parsed.len(), events.len(), "render/parse must be lossless");

        let merged_points = events
            .iter()
            .filter(|e| matches!(
                e,
                TraceEvent::Event { name, .. } if name == "w.point" || name == "overshoot.w.point"
            ))
            .count();
        assert_eq!(merged_points, expect_points, "no worker event may be lost");

        // Timestamps never run backwards in a rank-ordered merge.
        let mut last = 0u64;
        for ev in &events {
            let t = match ev {
                TraceEvent::SpanOpen { t, .. }
                | TraceEvent::SpanClose { t, .. }
                | TraceEvent::Event { t, .. }
                | TraceEvent::State { t, .. } => *t,
                _ => last,
            };
            assert!(t >= last, "timestamp regressed: {t} after {last}\n{rendered}");
            last = t;
        }

        // Lineage events must still form a forest of single-rooted
        // trees after the id remap: every introduction precedes the
        // events that reference it, parents have smaller ids than
        // children, and chasing parent pointers from any state reaches
        // a root (no orphans). No state event may be lost either.
        let expect_states: usize = buffers
            .iter()
            .map(|(b, _, _)| {
                b.events
                    .iter()
                    .filter(|e| matches!(e, TraceEvent::State { .. }))
                    .count()
            })
            .sum();
        let mut parent_of = std::collections::HashMap::new();
        let mut merged_states = 0usize;
        for ev in &events {
            let TraceEvent::State { op, id, par, .. } = ev else {
                continue;
            };
            merged_states += 1;
            match op.as_str() {
                "root" => {
                    assert_eq!(*par, 0, "root with nonzero parent\n{rendered}");
                    assert!(parent_of.insert(*id, 0u64).is_none(), "dup id {id}");
                }
                "fork" => {
                    assert!(
                        parent_of.contains_key(par),
                        "fork {id} orphaned: parent {par} never introduced\n{rendered}"
                    );
                    assert!(*par < *id, "parent id {par} not below child {id}");
                    assert!(parent_of.insert(*id, *par).is_none(), "dup id {id}");
                }
                _ => assert!(
                    parent_of.contains_key(id),
                    "transition on unknown state {id}\n{rendered}"
                ),
            }
        }
        assert_eq!(merged_states, expect_states, "no state event may be lost");
        for &id in parent_of.keys() {
            // Chase to the root; parent < child guarantees termination.
            let mut at = id;
            while at != 0 {
                at = parent_of[&at];
            }
        }
    }
}
