//! Property tests for the unified `core::job` runner: killing any
//! resumable pipeline at **every unit boundary** and resuming from the
//! serialized checkpoint must reproduce the uninterrupted run's final
//! checkpoint *byte-identically*.
//!
//! This is the load-bearing invariant of the whole job abstraction — unit
//! plans are deterministic, partials are mergeable in unit order, and the
//! checkpoint codec is canonical — pinned here across random plans for
//! [`ShardedSweep`], [`SampledSweep`] and the trace job [`FusedIngest`]
//! with its exact half alone, its sampled half alone, and both.

use proptest::prelude::*;
use symloc_core::engine::SweepSpec;
use symloc_core::job::checkpoint_status;
use symloc_core::model::CacheModel;
use symloc_core::obs::MetricsRegistry;
use symloc_core::serve::ServeState;
use symloc_core::shard::{SampledSweep, ShardedSweep};
use symloc_core::tracesweep::{FusedIngest, TracePlan};
use symloc_perm::statistics::Statistic;
use symloc_trace::stream::{GenSpec, TraceSource};

/// Kills a trace job of `plan` at every chunk boundary, resumes each from
/// its serialized checkpoint with a different thread count, and demands
/// the uninterrupted run's final checkpoint byte for byte.
fn trace_job_kill_resume_at_every_boundary(
    spec: &str,
    plan: TracePlan,
    threads: usize,
) -> Result<(), TestCaseError> {
    let source = TraceSource::Gen(GenSpec::parse(spec).unwrap());
    let mut reference = FusedIngest::planned(&source, plan, threads).unwrap();
    reference.run_pending(&source, None);
    let reference_json = reference.to_json();
    for kill_at in 0..reference.chunk_count() {
        let mut interrupted = FusedIngest::planned(&source, plan, threads).unwrap();
        prop_assert_eq!(interrupted.run_pending(&source, Some(kill_at)), kill_at);
        let checkpoint = interrupted.to_json();
        let mut resumed = FusedIngest::from_json(&checkpoint, threads % 3 + 1).unwrap();
        prop_assert_eq!(resumed.completed_count(), kill_at);
        resumed.run_pending(&source, None);
        prop_assert_eq!(
            &resumed.to_json(),
            &reference_json,
            "{} {:?} kill at chunk {}",
            spec,
            plan,
            kill_at
        );
    }
    Ok(())
}

/// Runs a trace job of `plan` with and without a metrics registry — whole,
/// killed halfway, and resumed — and demands identical checkpoints, with
/// the registry non-vacuously observing every chunk.
fn metered_trace_job_is_byte_identical(
    spec: &str,
    plan: TracePlan,
    threads: usize,
) -> Result<(), TestCaseError> {
    let source = TraceSource::Gen(GenSpec::parse(spec).unwrap());
    let mut reference = FusedIngest::planned(&source, plan, threads).unwrap();
    reference.run_pending(&source, None);
    let reference_json = reference.to_json();
    let total = reference.chunk_count();

    let mut metered = FusedIngest::planned(&source, plan, threads).unwrap();
    let mut registry = MetricsRegistry::new();
    metered
        .run_pending_metered(&source, None, Some(&mut registry))
        .unwrap();
    prop_assert_eq!(&metered.to_json(), &reference_json);
    assert_metering_observed(&registry, total as u64);

    let kill_at = total / 2;
    let mut plain = FusedIngest::planned(&source, plan, threads).unwrap();
    plain.run_pending(&source, Some(kill_at));
    let mut interrupted = FusedIngest::planned(&source, plan, threads).unwrap();
    let mut registry = MetricsRegistry::new();
    interrupted
        .run_pending_metered(&source, Some(kill_at), Some(&mut registry))
        .unwrap();
    let checkpoint = interrupted.to_json();
    prop_assert_eq!(&checkpoint, &plain.to_json());
    let mut resumed = FusedIngest::from_json(&checkpoint, threads % 3 + 1).unwrap();
    resumed
        .run_pending_metered(&source, None, Some(&mut MetricsRegistry::new()))
        .unwrap();
    prop_assert_eq!(&resumed.to_json(), &reference_json);
    Ok(())
}

fn statistic_of(seed: u64) -> Statistic {
    Statistic::ALL[(seed % Statistic::ALL.len() as u64) as usize]
}

/// The registry of a metered run that processed `units` units must have
/// actually observed them — otherwise a "metering is result-invariant"
/// assertion would pass vacuously with metering silently disabled.
fn assert_metering_observed(registry: &MetricsRegistry, units: u64) {
    assert_eq!(registry.counter("job.units"), Some(units));
    let observed = registry.histogram("job.unit_nanos").map(|h| h.count());
    assert_eq!(observed, Some(units));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn sharded_sweep_kill_resume_at_every_boundary(
        m in 4usize..7,
        shards in 1usize..6,
        threads in 1usize..4,
        seed in any::<u64>(),
    ) {
        let spec = SweepSpec {
            m,
            statistic: statistic_of(seed),
            model: CacheModel::LruStack,
        };
        let mut reference = ShardedSweep::new(spec, shards, threads);
        reference.run_pending(None);
        let reference_json = reference.to_json();

        for kill_at in 0..reference.shard_count() {
            let mut interrupted = ShardedSweep::new(spec, shards, threads);
            prop_assert_eq!(interrupted.run_pending(Some(kill_at)), kill_at);
            let checkpoint = interrupted.to_json();
            // Resume with a *different* thread count: results must not
            // depend on it.
            let mut resumed = ShardedSweep::from_json(&checkpoint, threads % 3 + 1).unwrap();
            prop_assert_eq!(resumed.completed_count(), kill_at);
            resumed.run_pending(None);
            prop_assert_eq!(
                &resumed.to_json(),
                &reference_json,
                "kill at shard {}",
                kill_at
            );
        }
    }

    #[test]
    fn sampled_sweep_kill_resume_at_every_boundary(
        m in 4usize..7,
        budget in 20usize..120,
        threads in 1usize..4,
        seed in any::<u64>(),
    ) {
        let spec = SweepSpec {
            m,
            statistic: statistic_of(seed),
            model: CacheModel::LruStack,
        };
        let mut reference = SampledSweep::new(spec, budget, 2, seed, threads);
        reference.run_pending(None);
        let reference_json = reference.to_json();

        for kill_at in 0..reference.level_count() {
            let mut interrupted = SampledSweep::new(spec, budget, 2, seed, threads);
            prop_assert_eq!(interrupted.run_pending(Some(kill_at)), kill_at);
            let checkpoint = interrupted.to_json();
            let mut resumed = SampledSweep::from_json(&checkpoint, threads % 3 + 1).unwrap();
            prop_assert_eq!(resumed.completed_count(), kill_at);
            resumed.run_pending(None);
            prop_assert_eq!(
                &resumed.to_json(),
                &reference_json,
                "kill at level {}",
                kill_at
            );
        }
    }

    #[test]
    fn trace_ingest_kill_resume_at_every_boundary(
        m in 8u64..40,
        epochs in 2u64..6,
        chunks in 1usize..7,
        threads in 1usize..4,
        seed in any::<u64>(),
    ) {
        let spec = match seed % 3 {
            0 => format!("gen:cyclic:{m}:{epochs}"),
            1 => format!("gen:sawtooth:{m}:{epochs}"),
            _ => format!("gen:zipf:{m}:{len}:0.8:{s}", len = m * epochs, s = seed % 1000),
        };
        trace_job_kill_resume_at_every_boundary(&spec, TracePlan::exact(chunks), threads)?;
    }

    #[test]
    fn sampled_ingest_kill_resume_at_every_boundary(
        m in 50u64..300,
        chunks in 1usize..7,
        shard_count in 1usize..6,
        budget in 8usize..64,
        threads in 1usize..4,
        seed in any::<u64>(),
    ) {
        let spec = format!("gen:zipf:{m}:{len}:0.9:{s}", len = m * 10, s = seed % 1000);
        let plan = TracePlan::sampled(chunks, shard_count, budget);
        trace_job_kill_resume_at_every_boundary(&spec, plan, threads)?;
    }

    #[test]
    fn fused_ingest_kill_resume_at_every_boundary(
        m in 30u64..120,
        chunks in 1usize..7,
        shard_count in 1usize..5,
        budget in 8usize..48,
        threads in 1usize..4,
        seed in any::<u64>(),
    ) {
        // The checkpoint carries the exact merge state *and* every
        // mid-stream estimator (threshold, counters, tracked timeline), so
        // a kill at any chunk boundary must still resume — with a
        // different thread count — to the byte-identical final document.
        let spec = format!("gen:zipf:{m}:{len}:0.8:{s}", len = m * 8, s = seed % 1000);
        let plan = TracePlan::both(chunks, shard_count, budget);
        trace_job_kill_resume_at_every_boundary(&spec, plan, threads)?;
    }
}

// Metering invariance: running any pipeline (every trace-job mode) with a
// `MetricsRegistry` attached must not change a single checkpoint byte —
// not in the final document, not in any mid-run checkpoint, and not
// through a metered kill/resume cycle. The registry is asserted non-empty
// so the equality cannot pass with metering accidentally disabled.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn metered_sharded_sweep_is_byte_identical(
        m in 4usize..7,
        shards in 1usize..6,
        threads in 1usize..4,
        seed in any::<u64>(),
    ) {
        let spec = SweepSpec {
            m,
            statistic: statistic_of(seed),
            model: CacheModel::LruStack,
        };
        let mut reference = ShardedSweep::new(spec, shards, threads);
        reference.run_pending(None);
        let reference_json = reference.to_json();

        let mut metered = ShardedSweep::new(spec, shards, threads);
        let mut registry = MetricsRegistry::new();
        metered.run_pending_metered(None, Some(&mut registry)).unwrap();
        prop_assert_eq!(&metered.to_json(), &reference_json);
        assert_metering_observed(&registry, reference.shard_count() as u64);

        for kill_at in 0..reference.shard_count() {
            let mut plain = ShardedSweep::new(spec, shards, threads);
            plain.run_pending(Some(kill_at));
            let mut interrupted = ShardedSweep::new(spec, shards, threads);
            let mut registry = MetricsRegistry::new();
            interrupted.run_pending_metered(Some(kill_at), Some(&mut registry)).unwrap();
            let checkpoint = interrupted.to_json();
            prop_assert_eq!(&checkpoint, &plain.to_json(), "kill at shard {}", kill_at);
            let mut resumed = ShardedSweep::from_json(&checkpoint, threads % 3 + 1).unwrap();
            let mut resume_registry = MetricsRegistry::new();
            resumed.run_pending_metered(None, Some(&mut resume_registry)).unwrap();
            prop_assert_eq!(&resumed.to_json(), &reference_json, "kill at shard {}", kill_at);
            assert_metering_observed(
                &resume_registry,
                (reference.shard_count() - kill_at) as u64,
            );
        }
    }

    #[test]
    fn metered_sampled_sweep_is_byte_identical(
        m in 4usize..7,
        budget in 20usize..120,
        threads in 1usize..4,
        seed in any::<u64>(),
    ) {
        let spec = SweepSpec {
            m,
            statistic: statistic_of(seed),
            model: CacheModel::LruStack,
        };
        let mut reference = SampledSweep::new(spec, budget, 2, seed, threads);
        reference.run_pending(None);
        let reference_json = reference.to_json();
        let levels = reference.level_count();

        let mut metered = SampledSweep::new(spec, budget, 2, seed, threads);
        let mut registry = MetricsRegistry::new();
        metered.run_pending_metered(None, Some(&mut registry)).unwrap();
        prop_assert_eq!(&metered.to_json(), &reference_json);
        assert_metering_observed(&registry, levels as u64);

        let kill_at = levels / 2;
        let mut plain = SampledSweep::new(spec, budget, 2, seed, threads);
        plain.run_pending(Some(kill_at));
        let mut interrupted = SampledSweep::new(spec, budget, 2, seed, threads);
        let mut registry = MetricsRegistry::new();
        interrupted.run_pending_metered(Some(kill_at), Some(&mut registry)).unwrap();
        let checkpoint = interrupted.to_json();
        prop_assert_eq!(&checkpoint, &plain.to_json());
        let mut resumed = SampledSweep::from_json(&checkpoint, threads % 3 + 1).unwrap();
        resumed.run_pending_metered(None, Some(&mut MetricsRegistry::new())).unwrap();
        prop_assert_eq!(&resumed.to_json(), &reference_json);
    }

    #[test]
    fn metered_trace_ingest_is_byte_identical(
        m in 8u64..40,
        epochs in 2u64..6,
        chunks in 1usize..7,
        threads in 1usize..4,
        seed in any::<u64>(),
    ) {
        let spec = format!("gen:zipf:{m}:{len}:0.8:{s}", len = m * epochs, s = seed % 1000);
        metered_trace_job_is_byte_identical(&spec, TracePlan::exact(chunks), threads)?;
    }

    #[test]
    fn metered_sampled_ingest_is_byte_identical(
        m in 50u64..300,
        chunks in 1usize..7,
        shard_count in 1usize..6,
        budget in 8usize..64,
        threads in 1usize..4,
        seed in any::<u64>(),
    ) {
        let spec = format!("gen:zipf:{m}:{len}:0.9:{s}", len = m * 10, s = seed % 1000);
        let plan = TracePlan::sampled(chunks, shard_count, budget);
        metered_trace_job_is_byte_identical(&spec, plan, threads)?;
    }

    #[test]
    fn metered_fused_ingest_is_byte_identical(
        m in 30u64..120,
        chunks in 1usize..7,
        shard_count in 1usize..5,
        budget in 8usize..48,
        threads in 1usize..4,
        seed in any::<u64>(),
    ) {
        let spec = format!("gen:zipf:{m}:{len}:0.8:{s}", len = m * 8, s = seed % 1000);
        let plan = TracePlan::both(chunks, shard_count, budget);
        metered_trace_job_is_byte_identical(&spec, plan, threads)?;
    }
}

/// One small in-progress checkpoint of every live kind, the trace job in
/// each of its modes, with the decoder of its kind.
#[allow(clippy::type_complexity)]
fn in_progress_documents() -> Vec<(String, fn(&str) -> Result<(), String>)> {
    let spec = SweepSpec {
        m: 5,
        statistic: Statistic::Inversions,
        model: CacheModel::LruStack,
    };
    let mut sharded = ShardedSweep::new(spec, 4, 1);
    sharded.run_pending(Some(1));
    let mut sampled_sweep = SampledSweep::new(spec, 60, 2, 1, 1);
    sampled_sweep.run_pending(Some(3));
    let source = TraceSource::Gen(GenSpec::parse("gen:zipf:60:400:0.9:1").unwrap());
    let trace_job = |plan: TracePlan| {
        let mut job = FusedIngest::planned(&source, plan, 1).unwrap();
        job.run_pending(&source, Some(1));
        job.to_json()
    };
    let mut serve = ServeState::new(8, 4).unwrap();
    let tenant = serve.ensure_tenant("alpha").unwrap();
    serve.record_block(tenant, &[1, 2, 3, 1, 2, 9, 4, 1]);
    let sweep_decoder: fn(&str) -> Result<(), String> =
        |text| ShardedSweep::from_json(text, 1).map(drop);
    let sampled_decoder: fn(&str) -> Result<(), String> =
        |text| SampledSweep::from_json(text, 1).map(drop);
    let trace_decoder: fn(&str) -> Result<(), String> =
        |text| FusedIngest::from_json(text, 1).map(drop);
    let serve_decoder: fn(&str) -> Result<(), String> =
        |text| ServeState::from_json(text).map(drop);
    vec![
        (sharded.to_json(), sweep_decoder),
        (sampled_sweep.to_json(), sampled_decoder),
        (trace_job(TracePlan::exact(3)), trace_decoder),
        (trace_job(TracePlan::sampled(3, 2, 8)), trace_decoder),
        (trace_job(TracePlan::both(3, 2, 8)), trace_decoder),
        (serve.to_json(), serve_decoder),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Hostile bytes: a single-byte mutation or a truncation of a valid
    /// in-progress checkpoint of any live kind makes `checkpoint_status`
    /// and the kind's own decoder return — `Ok` or `Err` — never panic.
    /// Half the replacement bytes are JSON punctuation and digits, the
    /// mutations most likely to keep the document parseable.
    #[test]
    fn mutated_or_truncated_checkpoints_never_panic(
        position in any::<u64>(),
        pick in any::<u16>(),
    ) {
        const STRUCTURAL: &[u8] = b"0123456789[]{},:\"-.e tfn";
        let byte = if pick.is_multiple_of(2) {
            STRUCTURAL[usize::from(pick / 2) % STRUCTURAL.len()]
        } else {
            (pick >> 8) as u8
        };
        for (doc, decode) in in_progress_documents() {
            let at = (position % doc.len() as u64) as usize;
            let mut mutated = doc.clone().into_bytes();
            mutated[at] = byte;
            for text in [
                String::from_utf8_lossy(&mutated).into_owned(),
                doc[..doc.floor_char_boundary(at)].to_string(),
            ] {
                let _ = checkpoint_status(&text);
                let _ = decode(&text);
            }
        }
    }
}
