//! The sampled estimator's own output, pinned byte for byte to documents
//! an earlier build wrote (`tests/data/sampled_*.json`). The other sampled
//! tests compare the trace job with `SampledIngest`, which runs the same
//! `ShardsEstimator`, so only fixed bytes notice a change in the estimator
//! itself: its distances, its evictions, its threshold and the order it
//! keeps its tracked addresses in.
//!
//! Both workloads evict about a hundred times per estimator and track
//! addresses on both sides of 2^21.

use symloc_core::serve::ServeState;
use symloc_core::tracesweep::{FusedIngest, TracePlan};
use symloc_trace::stream::{GenSpec, TraceSource};

/// The final checkpoint of `symloc trace mrc gen:zipf:4194304:20000:0.6:11
/// --sample 64 --shards 4 --checkpoint F`: four chunks, and four hash
/// shards of 16 tracked addresses each.
const SAMPLED_TRACE_CHECKPOINT: &str = include_str!("data/sampled_trace_checkpoint.json");

/// `ServeState::to_json` of two tenants at budget 16 after
/// [`churned_tenants`].
const SAMPLED_SERVE_CHECKPOINT: &str = include_str!("data/sampled_serve_checkpoint.json");

fn assert_recorded(got: &str, recorded: &str, what: &str) {
    if let Some((i, (got, want))) = got
        .lines()
        .zip(recorded.lines())
        .enumerate()
        .find(|(_, (got, want))| got != want)
    {
        panic!("{what}: line {i} differs\n got: {got}\nwant: {want}");
    }
    assert_eq!(got, recorded, "{what}");
}

#[test]
fn sampled_trace_job_reproduces_its_recorded_checkpoint() {
    let source = TraceSource::parse("gen:zipf:4194304:20000:0.6:11").unwrap();
    for threads in [1, 2] {
        let mut job = FusedIngest::planned(&source, TracePlan::sampled(4, 4, 16), threads).unwrap();
        job.run_pending(&source, None);
        assert!(job.is_complete());
        assert_recorded(
            &job.to_json(),
            SAMPLED_TRACE_CHECKPOINT,
            &format!("trace job on {threads} threads"),
        );
    }
    let resumed = FusedIngest::from_json(SAMPLED_TRACE_CHECKPOINT, 1).unwrap();
    assert_recorded(&resumed.to_json(), SAMPLED_TRACE_CHECKPOINT, "round trip");
}

/// Two tenants at budget 16, fed alternating blocks of 1000 accesses: one
/// over 2^22 Zipf-distributed addresses, one over 2^20 (all below 2^21).
fn churned_tenants() -> ServeState {
    let stream = |spec: &str| -> Vec<u64> { GenSpec::parse(spec).unwrap().stream().collect() };
    let wide = stream("gen:zipf:4194304:12000:0.6:5");
    let narrow = stream("gen:zipf:1048576:12000:0.8:6");
    let mut state = ServeState::new(16, 4).unwrap();
    for (wide, narrow) in wide.chunks(1000).zip(narrow.chunks(1000)) {
        let index = state.ensure_tenant("wide").unwrap();
        state.record_block(index, wide);
        let index = state.ensure_tenant("narrow").unwrap();
        state.record_block(index, narrow);
    }
    state.note_save();
    state
}

#[test]
fn churned_serve_tenants_reproduce_their_recorded_checkpoint() {
    let state = churned_tenants();
    assert!(state.tenants().all(|t| t.estimator().evictions() > 50));
    assert_recorded(&state.to_json(), SAMPLED_SERVE_CHECKPOINT, "serve tenants");
    let resumed = ServeState::from_json(SAMPLED_SERVE_CHECKPOINT).unwrap();
    assert_recorded(&resumed.to_json(), SAMPLED_SERVE_CHECKPOINT, "round trip");
}
