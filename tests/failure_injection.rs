//! Failure-injection tests: every user-facing error path across the
//! workspace returns a typed, descriptive error (or a documented panic)
//! instead of silently producing wrong results.

use symmetric_locality::core::CoreError;
use symmetric_locality::perm::PermError;
use symmetric_locality::prelude::*;
use symmetric_locality::trace::io::{read_trace, read_trace_from_str, TraceIoError};

#[test]
fn malformed_permutations_are_rejected_with_context() {
    let out_of_range = Permutation::from_images(vec![0, 1, 5]).unwrap_err();
    assert!(matches!(
        out_of_range,
        PermError::ImageOutOfRange { value: 5, .. }
    ));
    assert!(out_of_range.to_string().contains("5"));

    let duplicate = Permutation::from_images(vec![0, 1, 1]).unwrap_err();
    assert!(matches!(
        duplicate,
        PermError::DuplicateImage { value: 1, .. }
    ));

    let one_based_zero = Permutation::from_one_based(vec![0, 1, 2]).unwrap_err();
    assert!(matches!(one_based_zero, PermError::ImageOutOfRange { .. }));

    let mismatch = Permutation::identity(3)
        .try_compose(&Permutation::identity(4))
        .unwrap_err();
    assert!(matches!(
        mismatch,
        PermError::DegreeMismatch { left: 3, right: 4 }
    ));

    let bad_generator = Permutation::identity(3).mul_adjacent_right(2).unwrap_err();
    assert!(matches!(
        bad_generator,
        PermError::GeneratorOutOfRange {
            index: 2,
            degree: 3
        }
    ));
}

#[test]
fn ranking_and_sampling_bounds_are_enforced() {
    assert!(matches!(
        unrank(3, 6),
        Err(PermError::RankOutOfRange { rank: 6, degree: 3 })
    ));
    assert!(matches!(
        factorial(99),
        Err(PermError::DegreeTooLarge { degree: 99, .. })
    ));
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let mut rng = StdRng::seed_from_u64(1);
    assert!(matches!(
        random_with_inversions(4, 100, &mut rng),
        Err(PermError::InversionTargetOutOfRange {
            target: 100,
            max: 6
        })
    ));
    assert!(matches!(
        from_lehmer_code(&[9, 0, 0]),
        Err(PermError::InvalidCycle { .. })
    ));
    assert!(word_to_permutation(3, &[0, 7, 1]).is_err());
}

#[test]
fn trace_files_with_garbage_are_reported_by_line() {
    let err = read_trace_from_str("0\n1\nforty-two\n").unwrap_err();
    match &err {
        TraceIoError::Parse { line, text } => {
            assert_eq!(*line, 3);
            assert_eq!(text, "forty-two");
        }
        other => panic!("unexpected error {other:?}"),
    }
    assert!(read_trace("/path/that/does/not/exist.trace").is_err());
    // Negative addresses and floats are rejected too.
    assert!(read_trace_from_str("-1\n").is_err());
    assert!(read_trace_from_str("1.5\n").is_err());
}

#[test]
fn non_retraversal_traces_are_rejected_not_misparsed() {
    for (trace, needle) in [
        (Trace::from_usizes(&[0, 1, 2]), "odd"),
        (Trace::from_usizes(&[0, 0, 1, 1]), "first traversal"),
        (Trace::from_usizes(&[0, 1, 2, 9]), "not seen"),
        (Trace::from_usizes(&[0, 1, 0, 0]), "repeats or skips"),
    ] {
        let err = ReTraversal::from_trace(&trace).unwrap_err();
        assert!(matches!(err, CoreError::NotARetraversal { .. }));
        assert!(
            err.to_string().contains(needle),
            "error {err} should mention {needle:?}"
        );
    }
}

#[test]
fn inconsistent_feasibility_constraints_are_rejected_and_rolled_back() {
    let mut dag = PrecedenceDag::unconstrained(4);
    assert!(matches!(
        dag.require_before(1, 9),
        Err(CoreError::ConstraintOutOfRange {
            element: 9,
            degree: 4
        })
    ));
    dag.require_before(0, 1).unwrap();
    dag.require_before(1, 2).unwrap();
    let cycle = dag.require_before(2, 0).unwrap_err();
    assert!(matches!(cycle, CoreError::InfeasibleConstraints { .. }));
    // The failed edge was rolled back, so the DAG is still usable and the
    // optimizer still works on it.
    assert_eq!(dag.constraint_count(), 2);
    let (result, _) = optimize_from_identity(&dag, ChainFindConfig::default()).unwrap();
    assert!(dag.is_feasible(&result.sigma));

    // An infeasible starting point is reported, not silently "fixed".
    let err =
        improve_greedy(&Permutation::reverse(4), &dag, ChainFindConfig::default()).unwrap_err();
    assert!(matches!(err, CoreError::NoFeasibleChoice { .. }));
}

#[test]
fn labeling_degree_mismatch_is_detected() {
    let labeling = RankedMissRatioLabeling::prioritize_second_largest(5);
    assert!(labeling.check_degree(5).is_ok());
    let err = labeling.check_degree(7).unwrap_err();
    assert!(matches!(
        err,
        CoreError::LabelingDegreeMismatch {
            labeling: 5,
            group: 7
        }
    ));
}

#[test]
fn truncated_and_corrupt_sltr_files_are_errors_not_panics() {
    use symmetric_locality::trace::binio::{
        read_sltr_from_reader, write_sltr_to_vec, SltrError, SltrReader, SLTR_MAGIC, SLTR_VERSION,
    };
    use symmetric_locality::trace::generators::cyclic_trace;

    // Bad magic and unsupported versions are rejected at open time.
    assert!(matches!(
        SltrReader::new(b"XXXX\x01".as_slice()).unwrap_err(),
        SltrError::BadMagic { .. }
    ));
    let mut wrong_version = SLTR_MAGIC.to_vec();
    wrong_version.push(77);
    assert!(matches!(
        SltrReader::new(wrong_version.as_slice()).unwrap_err(),
        SltrError::BadVersion { found: 77 }
    ));
    // A header alone is a valid empty trace; a header cut short is not.
    assert!(read_sltr_from_reader(&SLTR_MAGIC[..3]).is_err());

    // Truncating a payload mid-varint is reported with the access index
    // (the cyclic trace ends at address 299, a two-byte varint).
    let bytes = write_sltr_to_vec(&cyclic_trace(300, 2)).unwrap();
    let truncated = &bytes[..bytes.len() - 1];
    let err = read_sltr_from_reader(truncated).unwrap_err();
    assert!(matches!(err, SltrError::TruncatedVarint { .. }), "{err}");

    // A run of continuation bytes overflows the 64-bit address space.
    let mut overflowing = SLTR_MAGIC.to_vec();
    overflowing.push(SLTR_VERSION);
    overflowing.extend_from_slice(&[0xff; 12]);
    assert!(matches!(
        read_sltr_from_reader(overflowing.as_slice()).unwrap_err(),
        SltrError::Overflow { .. } | SltrError::TruncatedVarint { .. }
    ));
}

#[test]
fn bogus_sltr_indexes_are_errors_not_panics() {
    use symmetric_locality::trace::binio::{
        sltr_index_path, write_sltr, write_sltr_indexed, SltrError, SltrIndex,
    };
    use symmetric_locality::trace::generators::cyclic_trace;
    use symmetric_locality::trace::stream::TraceSource;

    let dir = std::env::temp_dir();
    let path = dir.join(format!("symloc_failinj_{}.sltr", std::process::id()));
    let sidecar = sltr_index_path(&path);
    let t = cyclic_trace(64, 10);
    let index = write_sltr_indexed(&t, &path, 100).unwrap();

    // Structurally broken sidecars: bad magic, truncation, offsets past
    // the payload, non-monotone offsets, trailing bytes.
    let good = index.to_bytes();
    assert!(SltrIndex::from_bytes(b"JUNKJUNK").is_err());
    assert!(SltrIndex::from_bytes(&good[..good.len() - 1]).is_err());
    let mut trailing = good.clone();
    trailing.push(1);
    assert!(SltrIndex::from_bytes(&trailing).is_err());

    // A corrupt sidecar on disk fails source validation loudly…
    std::fs::write(&sidecar, b"JUNKJUNK").unwrap();
    let source = TraceSource::Binary(path.clone());
    assert!(source.total_accesses().is_err());
    // …and a stale one (trace replaced after indexing) does too.
    write_sltr(&cyclic_trace(64, 3), &path).unwrap();
    index.write(&sidecar).unwrap();
    let err = source.total_accesses().unwrap_err();
    assert!(err.to_string().contains("stale"), "{err}");
    assert!(matches!(
        index.check_matches(999, 1),
        Err(SltrError::IndexStale { .. })
    ));
    // Streaming never trusts a mismatched index: it falls back to
    // decode-skip and still yields the true content.
    let mut blocks = source.stream_blocks_range(64, 70).unwrap();
    let mut got = Vec::new();
    assert_eq!(blocks.try_next_block(&mut got).unwrap(), 6);
    assert_eq!(got, vec![0, 1, 2, 3, 4, 5]);
    assert_eq!(blocks.try_next_block(&mut got).unwrap(), 0);

    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&sidecar).ok();
}

#[test]
fn block_decoder_reports_truncation_without_losing_decoded_accesses() {
    use symmetric_locality::trace::binio::{
        write_sltr_to_vec, SltrError, SltrReader, SLTR_MAGIC, SLTR_VERSION,
    };
    use symmetric_locality::trace::generators::cyclic_trace;

    // Truncating a payload mid-varint: the block decoder must hand back
    // every access decoded before the cut, then report the truncation with
    // its access index on the next call — never both lose data and error,
    // never decode garbage past the cut.
    let bytes = write_sltr_to_vec(&cyclic_trace(300, 2)).unwrap();
    let truncated = &bytes[..bytes.len() - 1];
    let mut reader = SltrReader::new(truncated).unwrap();
    let mut block = Vec::new();
    let mut decoded = Vec::new();
    let err = loop {
        match reader.decode_block(&mut block, 128) {
            Ok(0) => panic!("truncated payload must error, not end cleanly"),
            Ok(_) => decoded.extend_from_slice(&block),
            Err(e) => break e,
        }
    };
    // 600 accesses total; the last one (address 299, a two-byte varint)
    // was cut, so exactly 599 decode and the error names access 599.
    assert_eq!(decoded.len(), 599);
    assert_eq!(decoded[0], 0);
    assert_eq!(decoded[598], 298);
    assert!(
        matches!(err, SltrError::TruncatedVarint { access: 599 }),
        "{err}"
    );
    // Errors are terminal.
    assert_eq!(reader.decode_block(&mut block, 128).unwrap(), 0);

    // An over-long varint is a loud overflow mid-block, same contract.
    let mut overflowing = SLTR_MAGIC.to_vec();
    overflowing.push(SLTR_VERSION);
    overflowing.push(7);
    overflowing.extend_from_slice(&[0xff; 10]);
    overflowing.push(0x03);
    let mut reader = SltrReader::new(overflowing.as_slice()).unwrap();
    assert_eq!(reader.decode_block(&mut block, 128).unwrap(), 1);
    assert_eq!(block, vec![7]);
    assert!(matches!(
        reader.decode_block(&mut block, 128).unwrap_err(),
        SltrError::Overflow { access: 1 }
    ));
}

#[test]
#[should_panic(expected = "address interner exhausted")]
fn interner_id_exhaustion_panics_instead_of_wrapping() {
    use symmetric_locality::core::tracesweep::AddrInterner;

    // The real limit is u32::MAX distinct addresses — unreachable in a
    // test, so the limit is injected. Past it, ids would wrap and silently
    // alias distinct addresses; the interner must abort loudly instead.
    let mut interner = AddrInterner::with_capacity_limit(2);
    assert_eq!(interner.intern(1 << 40), 0);
    assert_eq!(interner.intern(2 << 40), 1);
    assert_eq!(interner.intern(1 << 40), 0); // re-interning is fine
    interner.intern(3 << 40); // third distinct address must panic
}

#[test]
fn stale_sidecar_in_parallel_ingest_falls_back_byte_identical() {
    use symmetric_locality::core::tracesweep::{FusedIngest, TracePlan};
    use symmetric_locality::trace::binio::{sltr_index_path, write_sltr_indexed};
    use symmetric_locality::trace::generators::{cyclic_trace, zipfian_trace};
    use symmetric_locality::trace::stream::TraceSource;

    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let mut rng = StdRng::seed_from_u64(23);
    let t = zipfian_trace(5_000, 4_000, 0.8, &mut rng);
    let dir = std::env::temp_dir();
    let pid = std::process::id();
    let path = dir.join(format!("symloc_failinj_stale_par_{pid}.sltr"));
    let other = dir.join(format!("symloc_failinj_stale_par_other_{pid}.sltr"));
    let sidecar = sltr_index_path(&path);
    let healthy_index = write_sltr_indexed(&t, &path, 64).unwrap();
    let source = TraceSource::Binary(path.clone());

    // Reference: the parallel job with a healthy sidecar.
    let plan = TracePlan::both(8, 2, 64);
    let mut healthy = FusedIngest::planned(&source, plan, 2).unwrap();
    healthy.run_pending(&source, None);
    let expected = healthy.to_json();

    // The sidecar goes stale *after* job validation (trace replaced by a
    // mismatched index — here, one describing a different payload). The
    // parallel decode path must silently fall back to sequential
    // decode-skip per chunk and finish byte-identical, not mis-seek.
    let mut ingest = FusedIngest::planned(&source, plan, 2).unwrap();
    let stale = write_sltr_indexed(&cyclic_trace(10, 3), &other, 16).unwrap();
    stale.write(&sidecar).unwrap();
    ingest.run_pending(&source, None);
    assert_eq!(ingest.to_json(), expected);

    // Sidecar vanishing entirely mid-job is the same fallback.
    healthy_index.write(&sidecar).unwrap();
    let mut ingest = FusedIngest::planned(&source, plan, 2).unwrap();
    std::fs::remove_file(&sidecar).unwrap();
    ingest.run_pending(&source, None);
    assert_eq!(ingest.to_json(), expected);

    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&other).ok();
    std::fs::remove_file(sltr_index_path(&other)).ok();
}

#[test]
fn mangled_checkpoint_documents_are_rejected_with_context() {
    use symmetric_locality::core::engine::SweepSpec;
    use symmetric_locality::core::shard::SampledSweep;
    use symmetric_locality::core::tracesweep::{FusedIngest, TracePlan};
    use symmetric_locality::trace::stream::{GenSpec, TraceSource};

    // A sampled-sweep checkpoint with flipped bits in every load-bearing
    // field must fail to parse, never panic or silently resume.
    let mut sweep = SampledSweep::new(SweepSpec::figure1(6), 100, 2, 1, 1);
    sweep.run_pending(Some(2));
    let good = sweep.to_json();
    for mangled in [
        good.replace("symloc_sampled_sweep_checkpoint", "who_knows"),
        good.replace("\"version\": 1", "\"version\": 99"),
        good.replace("\"m\": 6", "\"m\": 99"),
        good.replace("inversions", "frobnications"),
        good.replace("\"done\": true", "\"done\": maybe"),
        good.replace("hit_sums", "hit_summs"),
        good[..good.len() / 2].to_string(),
    ] {
        assert!(SampledSweep::from_json(&mangled, 1).is_err(), "{mangled}");
    }

    // Same for the trace job with its sampled half alone…
    let source = TraceSource::Gen(GenSpec::parse("gen:zipf:50:500:0.9:1").unwrap());
    let mut sampled = FusedIngest::planned(&source, TracePlan::sampled(3, 2, 16), 1).unwrap();
    sampled.run_pending(&source, Some(1));
    let good = sampled.to_json();
    for mangled in [
        good.replace("symloc_fused_trace_checkpoint", "nope"),
        good.replace("\"threshold\": 16777216", "\"threshold\": 0"),
        good.replace("\"cold\": ", "\"cold\": -"),
        good.replace("histogram", "histogrum"),
        good.replace("\"exact\": false", "\"exakt\": false"),
        "{}".to_string(),
        "not json at all".to_string(),
    ] {
        assert!(FusedIngest::from_json(&mangled, 1).is_err(), "{mangled}");
    }

    // …with its exact half alone: a mangled timeline, a duplicated
    // timeline address, or a cold count that differs from the timeline
    // length must fail rather than resume to a wrong curve…
    let mut exact = FusedIngest::planned(&source, TracePlan::exact(3), 1).unwrap();
    exact.run_pending(&source, Some(1));
    let good = exact.to_json();
    let timeline = good.find("\"timeline\": [").unwrap() + "\"timeline\": [".len();
    let first: String = good[timeline..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    let cold_line = good.lines().find(|l| l.contains("\"cold\": ")).unwrap();
    let cold: u64 = cold_line
        .trim()
        .trim_start_matches("\"cold\": ")
        .trim_end_matches(',')
        .parse()
        .unwrap();
    for mangled in [
        good.replace("timeline", "timeleap"),
        good.replace("[", "{"),
        good.replace("\"timeline\": [", &format!("\"timeline\": [{first}, ")),
        good.replace(cold_line, &format!("  \"cold\": {},", cold + 1)),
    ] {
        assert!(FusedIngest::from_json(&mangled, 1).is_err(), "{mangled}");
    }

    // …and with both halves, whose checkpoint carries both sides: mangling
    // either the exact state or any per-shard sampled state is rejected.
    let mut fused = FusedIngest::new(&source, 3, 2, 16, 1).unwrap();
    fused.run_pending(&source, Some(1));
    let good = fused.to_json();
    for mangled in [
        good.replace("symloc_fused_trace_checkpoint", "nope"),
        good.replace("\"shard_count\": 2", "\"shard_count\": 3"),
        good.replace("\"budget_per_shard\": 16", "\"budget_per_shard\": 0"),
        good.replace("\"threshold\": 16777216", "\"threshold\": 0"),
        good.replace("timeline", "timeleap"),
        good.replace("tracked", "trackd"),
        good.replace("\"cold\": ", "\"cold\": -"),
        good[..good.len() / 2].to_string(),
        "{}".to_string(),
    ] {
        assert!(FusedIngest::from_json(&mangled, 1).is_err(), "{mangled}");
    }

    // …and the serve tenant table, whose document carries one estimator
    // per tenant in the same shard-entry shape.
    use symmetric_locality::core::serve::ServeState;
    let mut serve = ServeState::new(16, 4).unwrap();
    let t = serve.ensure_tenant("alpha").unwrap();
    serve.record_block(t, &[1, 2, 3, 1, 2]);
    let t = serve.ensure_tenant("beta").unwrap();
    serve.record_block(t, &[7, 8, 7]);
    let good = serve.to_json();
    for mangled in [
        good.replace("symloc_serve_checkpoint", "nope"),
        good.replace("\"budget\": 16", "\"budget\": 0"),
        good.replace("\"max_tenants\": 4", "\"max_tenants\": 1"),
        good.replace("\"alpha\"", "\"zz\""),
        good.replace("\"alpha\"", "\"has space\""),
        good.replace("tracked", "trackd"),
        good.replace("\"cold\": ", "\"cold\": -"),
        good[..good.len() / 2].to_string(),
        "{}".to_string(),
    ] {
        assert!(ServeState::from_json(&mangled).is_err(), "{mangled}");
    }
}

#[test]
fn cross_kind_checkpoint_resume_fails_loudly_for_every_pair() {
    use symmetric_locality::core::engine::SweepSpec;
    use symmetric_locality::core::job::JobKind;
    use symmetric_locality::core::serve::ServeState;
    use symmetric_locality::core::shard::{SampledSweep, ShardedSweep};
    use symmetric_locality::core::tracesweep::{FusedIngest, TracePlan};
    use symmetric_locality::trace::stream::{GenSpec, TraceSource};

    // One small in-progress checkpoint per job kind.
    let source = TraceSource::Gen(GenSpec::parse("gen:zipf:50:500:0.9:1").unwrap());
    let mut sharded = ShardedSweep::new(SweepSpec::figure1(5), 4, 1);
    sharded.run_pending(Some(1));
    let mut sampled_sweep = SampledSweep::new(SweepSpec::figure1(5), 60, 2, 1, 1);
    sampled_sweep.run_pending(Some(2));
    let mut fused_ingest = FusedIngest::new(&source, 3, 2, 16, 1).unwrap();
    fused_ingest.run_pending(&source, Some(1));
    let mut serve_state = ServeState::new(16, 4).unwrap();
    let tenant = serve_state.ensure_tenant("alpha").unwrap();
    serve_state.record_block(tenant, &[1, 2, 3, 1, 2]);
    let documents = [
        (JobKind::ShardedSweep, sharded.to_json()),
        (JobKind::SampledSweep, sampled_sweep.to_json()),
        (JobKind::FusedIngest, fused_ingest.to_json()),
        (JobKind::ServeState, serve_state.to_json()),
    ];

    // Every cross-kind decode must fail with an error naming both the
    // found and the expected kind — never misparse, never a bare "bad
    // JSON" shrug.
    let decode_err = |expected: JobKind, text: &str| -> String {
        match expected {
            JobKind::ShardedSweep => ShardedSweep::from_json(text, 1).unwrap_err(),
            JobKind::SampledSweep => SampledSweep::from_json(text, 1).unwrap_err(),
            JobKind::FusedIngest => FusedIngest::from_json(text, 1).unwrap_err(),
            JobKind::ServeState => ServeState::from_json(text).unwrap_err(),
        }
    };
    for (found, text) in &documents {
        for expected in JobKind::ALL {
            if expected == *found {
                continue;
            }
            let err = decode_err(expected, text);
            assert!(
                err.contains(found.kind_str()) && err.contains(expected.kind_str()),
                "{found:?} -> {expected:?}: {err}"
            );
            assert!(err.contains("symloc job resume"), "{err}");
        }
    }

    // And every cross-kind resume_or_new is a loud error, not a silent
    // fresh start that would overwrite the foreign checkpoint.
    let dir = std::env::temp_dir();
    let path = dir.join(format!(
        "symloc_failinj_crosskind_{}.json",
        std::process::id()
    ));
    for (found, text) in &documents {
        std::fs::write(&path, text).unwrap();
        let spec = SweepSpec::figure1(5);
        let results: Vec<(JobKind, Result<usize, String>)> = vec![
            (
                JobKind::ShardedSweep,
                ShardedSweep::resume_or_new(spec, 4, 1, &path).map(|(s, _)| s.completed_count()),
            ),
            (
                JobKind::SampledSweep,
                SampledSweep::resume_or_new(spec, 60, 2, 1, 1, &path)
                    .map(|(s, _)| s.completed_count()),
            ),
            (
                JobKind::FusedIngest,
                FusedIngest::resume_or_new(&source, TracePlan::both(3, 2, 16), 1, &path)
                    .map(|(s, _)| s.completed_count()),
            ),
            (
                JobKind::ServeState,
                ServeState::resume_or_new(&path, 16, 4).map(|(s, _)| s.tenant_count()),
            ),
        ];
        for (expected, result) in results {
            if expected == *found {
                assert!(result.is_ok(), "{expected:?} resuming its own checkpoint");
            } else {
                let err = result.expect_err("cross-kind resume must fail");
                assert!(
                    err.contains(found.describe()) && err.contains(expected.describe()),
                    "{found:?} -> {expected:?}: {err}"
                );
            }
        }
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn corrupt_truncated_or_stale_heartbeats_degrade_status_but_never_fail() {
    use symmetric_locality::cli;
    use symmetric_locality::core::job::Heartbeat;
    use symmetric_locality::core::obs::MetricsRegistry;
    use symmetric_locality::core::tracesweep::{FusedIngest, TracePlan};
    use symmetric_locality::trace::stream::{GenSpec, TraceSource};

    let dir = std::env::temp_dir();
    let ck = dir.join(format!("symloc_failinj_hb_{}.json", std::process::id()));
    let ck_str = ck.to_str().unwrap().to_string();
    let sidecar = Heartbeat::sidecar_path(&ck);
    let run = |args: &[&str]| {
        cli::run(
            &args
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<String>>(),
        )
    };

    // An interrupted checkpointed ingest leaves a live heartbeat sidecar.
    let source = TraceSource::Gen(GenSpec::parse("gen:zipf:60:2000:0.8:3").unwrap());
    let mut ingest = FusedIngest::planned(&source, TracePlan::exact(6), 1).unwrap();
    ingest
        .run_with_checkpoint(&source, &ck, Some(1), |_, _| {})
        .unwrap();
    assert!(sidecar.exists(), "interrupted run must leave a heartbeat");
    let live_hb = std::fs::read_to_string(&sidecar).unwrap();
    let status = run(&["job", "status", &ck_str]).unwrap();
    assert!(status.contains("heartbeat   : live"), "{status}");

    // A corrupt sidecar degrades the status to "unreadable" — `job status`
    // itself must still succeed, in both human and JSON form.
    std::fs::write(&sidecar, "garbage").unwrap();
    let status = run(&["job", "status", &ck_str]).unwrap();
    assert!(status.contains("unreadable sidecar"), "{status}");
    let json = run(&["job", "status", &ck_str, "--json"]).unwrap();
    assert!(
        json.contains("\"heartbeat_status\": \"unreadable\""),
        "{json}"
    );
    assert!(!json.contains("\"heartbeat\": {"), "{json}");

    // A truncated sidecar is the same degradation, not a different path.
    std::fs::write(&sidecar, &live_hb[..live_hb.len() / 2]).unwrap();
    let status = run(&["job", "status", &ck_str]).unwrap();
    assert!(status.contains("unreadable sidecar"), "{status}");

    // A well-formed sidecar whose progress no longer matches the
    // checkpoint (a stale leftover of an earlier run) is reported stale
    // and its numbers are not presented as live progress.
    let mut stale = Heartbeat::from_json(&live_hb).unwrap();
    stale.completed += 1;
    std::fs::write(&sidecar, stale.to_json()).unwrap();
    let status = run(&["job", "status", &ck_str]).unwrap();
    assert!(status.contains("stale sidecar"), "{status}");
    let json = run(&["job", "status", &ck_str, "--json"]).unwrap();
    assert!(json.contains("\"heartbeat_status\": \"stale\""), "{json}");

    // Resuming straight through a corrupt sidecar must work — the
    // heartbeat is advisory, never load-bearing — and completion removes
    // the sidecar.
    std::fs::write(&sidecar, "garbage").unwrap();
    let resumed = run(&["job", "resume", &ck_str]).unwrap();
    assert!(resumed.contains("6 of 6 complete"), "{resumed}");
    assert!(
        !sidecar.exists(),
        "completed resume must remove the heartbeat sidecar"
    );

    // Mangled heartbeat and metrics documents are parse errors with
    // context, never panics.
    for text in ["not json", "{}", "{\"kind\": \"something_else\"}"] {
        assert!(Heartbeat::from_json(text).is_err(), "{text}");
        assert!(MetricsRegistry::from_json(text).is_err(), "{text}");
    }

    std::fs::remove_file(&ck).ok();
    std::fs::remove_file(&sidecar).ok();
}

#[test]
fn job_status_rejects_foreign_and_mangled_documents() {
    use symmetric_locality::core::job::checkpoint_status;
    assert!(checkpoint_status("not json").is_err());
    assert!(checkpoint_status("{}").is_err());
    assert!(checkpoint_status("{\"kind\": \"unregistered_kind\"}")
        .unwrap_err()
        .contains("unregistered_kind"));
    // A registered kind with a mangled body still fails through the kind's
    // own decoder, with its message.
    let err =
        checkpoint_status("{\"kind\": \"symloc_sweep_checkpoint\", \"version\": 1}").unwrap_err();
    assert!(err.contains("missing"), "{err}");
}

#[test]
fn corrupt_metrics_snapshots_are_overwritten_cleanly() {
    use symmetric_locality::cli;
    use symmetric_locality::core::obs::MetricsRegistry;

    let dir = std::env::temp_dir().join(format!("symloc_failinj_metrics_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let metrics = dir.join("metrics.json");
    let metrics_str = metrics.to_str().unwrap().to_string();

    // A pre-existing corrupt snapshot (e.g. a truncated write from a
    // killed run under the old non-atomic path) must not poison the next
    // run: the snapshot is replaced atomically with a parseable document.
    std::fs::write(&metrics, "{\"kind\": \"symloc_metr").unwrap();
    let out = cli::run(
        &[
            "trace",
            "mrc",
            "gen:zipf:50:500:0.9:1",
            "--sample",
            "32",
            "--metrics",
            &metrics_str,
        ]
        .iter()
        .map(ToString::to_string)
        .collect::<Vec<String>>(),
    )
    .unwrap();
    assert!(out.contains("sampled"), "{out}");
    let snapshot = std::fs::read_to_string(&metrics).unwrap();
    let registry = MetricsRegistry::from_json(&snapshot).expect("snapshot must parse");
    assert!(!registry.is_empty());
    // The atomic write leaves no temp file behind.
    let names: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|entry| entry.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    assert_eq!(names, ["metrics.json"]);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn job_resume_on_a_serve_checkpoint_points_at_the_daemon() {
    use symmetric_locality::cli;
    use symmetric_locality::core::serve::ServeState;

    let dir = std::env::temp_dir();
    let ck = dir.join(format!("symloc_failinj_serve_{}.json", std::process::id()));
    let ck_str = ck.to_str().unwrap().to_string();
    let mut state = ServeState::new(16, 4).unwrap();
    let tenant = state.ensure_tenant("alpha").unwrap();
    state.record_block(tenant, &[1, 2, 1]);
    state.save(&ck).unwrap();

    // `job status` understands the new kind…
    let status = cli::run(&["job".to_string(), "status".to_string(), ck_str.clone()]).unwrap();
    assert!(status.contains("multi-tenant serve state"), "{status}");
    assert!(status.contains("max tenants"), "{status}");

    // …while `job resume` explains that a daemon snapshot has no batch
    // work and names the command that does resume it.
    let err = cli::run(&["job".to_string(), "resume".to_string(), ck_str.clone()]).unwrap_err();
    assert!(err.0.contains("symloc serve --checkpoint"), "{err}");
    std::fs::remove_file(&ck).ok();
}

#[test]
fn partition_failure_rows_are_loud_named_errors_never_panics() {
    use symmetric_locality::cli;
    use symmetric_locality::core::partition::{solve, Bounds, TenantCurve, MAX_PARTITION_BUDGET};
    use symmetric_locality::core::serve::ServeState;
    use symmetric_locality::core::tracesweep::MrcPoint;

    // PARTITION on an empty tenant table: the daemon-facing path.
    let empty = ServeState::new(16, 4).unwrap();
    let err = empty.partition(64).unwrap_err();
    assert!(err.contains("no tenants to partition"), "{err}");

    // Zero and absurd budgets, through the solver the wire command calls.
    let mut state = ServeState::new(16, 4).unwrap();
    let t = state.ensure_tenant("alpha").unwrap();
    state.record_block(t, &[1, 2, 3, 1, 2]);
    let err = state.partition(0).unwrap_err();
    assert!(err.contains("partition budget must be positive"), "{err}");
    let err = state.partition(MAX_PARTITION_BUDGET + 1).unwrap_err();
    assert!(err.contains("exceeds the supported maximum"), "{err}");

    // Infeasible bounds and malformed curves name their problem.
    let curve = TenantCurve::from_points(
        "t",
        4.0,
        &[MrcPoint {
            cache_size: 2,
            miss_ratio: 0.5,
        }],
    )
    .unwrap();
    let err = solve(
        std::slice::from_ref(&curve),
        4,
        &[Bounds { floor: 9, cap: 9 }],
    )
    .unwrap_err();
    assert!(err.contains("more than the budget"), "{err}");
    let err = TenantCurve::from_points(
        "t",
        f64::INFINITY,
        &[MrcPoint {
            cache_size: 1,
            miss_ratio: 0.5,
        }],
    )
    .unwrap_err();
    assert!(err.contains("finite non-negative"), "{err}");

    // A serve checkpoint with a mangled tenant entry fed to the offline
    // `symloc partition` CLI: the error names the file and the field.
    let dir = std::env::temp_dir();
    let ck = dir.join(format!(
        "symloc_failinj_partition_{}.json",
        std::process::id()
    ));
    let mangled = state.to_json().replace("tracked", "trackd");
    std::fs::write(&ck, mangled).unwrap();
    let args: Vec<String> = ["partition", "64", "--checkpoint", ck.to_str().unwrap()]
        .iter()
        .map(ToString::to_string)
        .collect();
    let err = cli::run(&args).unwrap_err();
    assert!(err.0.contains("bad serve checkpoint"), "{err}");
    assert!(err.0.contains("tracked"), "{err}");
    std::fs::remove_file(&ck).ok();
}

/// `partition --verify` replays the trace each report records; a trace
/// that changed since its report was written fails naming it, and never
/// panics.
#[test]
fn partition_verify_over_traces_damaged_after_their_reports_fails_loudly() {
    use symmetric_locality::cli;

    let dir = std::env::temp_dir().join(format!("symloc_failinj_verify_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let (text, binary) = (dir.join("a.txt"), dir.join("b.sltr"));
    let mut reports = Vec::new();
    for (spec, trace) in [
        ("gen:zipf:200:3000:0.8:1", &text),
        ("gen:zipf:300:3000:0.5:2", &binary),
    ] {
        let convert = format!("trace convert {spec} {{}} --index 0");
        let (ok, stderr) = run_symloc(&symloc_args(&convert, &[trace]));
        assert!(ok, "{stderr}");
        let report = trace.with_extension("json");
        let json = cli::run(&symloc_args("trace mrc {} --json", &[trace])).unwrap();
        std::fs::write(&report, json).unwrap();
        reports.push(report);
    }
    let verify = symloc_args("partition 100 {} {} --verify", &[&reports[0], &reports[1]]);
    let (ok, stderr) = run_symloc(&verify);
    assert!(ok, "{stderr}");

    let good_text = std::fs::read_to_string(&text).unwrap();
    let mut lines: Vec<&str> = good_text.lines().collect();
    lines[99] = "notanaddress";
    std::fs::write(&text, lines.join("\n") + "\n").unwrap();
    assert_fails_loudly(&verify, &["cannot replay text:", "a.txt", "notanaddress"]);

    std::fs::write(&text, &good_text).unwrap();
    let good_binary = std::fs::read(&binary).unwrap();
    std::fs::write(&binary, &good_binary[..good_binary.len() - 3]).unwrap();
    assert_fails_loudly(&verify, &["cannot replay sltr:", "b.sltr"]);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cli_surfaces_errors_instead_of_panicking() {
    use symmetric_locality::cli;
    assert!(cli::run(&["analyze".to_string(), "/definitely/missing".to_string()]).is_err());
    assert!(cli::run(&[
        "generate".to_string(),
        "triangle".to_string(),
        "4".to_string(),
        "2".to_string()
    ])
    .is_err());
    assert!(cli::run(&["optimize".to_string(), "5".to_string(), "2<2".to_string()]).is_err());
    assert!(cli::run(&["optimize".to_string(), "5".to_string(), "4<1".to_string()]).is_ok());
    let err = cli::run(&[
        "optimize".to_string(),
        "5".to_string(),
        "1<0".to_string(),
        "0<1".to_string(),
    ]);
    assert!(err.is_err(), "cyclic constraints must be rejected");
}

#[test]
fn retired_trace_checkpoints_fail_loudly_and_stay_untouched() {
    use symmetric_locality::cli;

    // The exact-only and sampled-only trace jobs once wrote checkpoints of
    // their own kinds. Those tags are retired: every command that could
    // resume one refuses it, names the retired kind, says to re-run, and
    // leaves the file byte for byte as it was.
    let dir = std::env::temp_dir();
    let ck = dir.join(format!(
        "symloc_failinj_retired_{}.json",
        std::process::id()
    ));
    let ck_str = ck.to_str().unwrap().to_string();
    let run = |args: &[&str]| {
        cli::run(
            &args
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<String>>(),
        )
    };
    for (tag, body) in [
        (
            "symloc_trace_ingest_checkpoint",
            "  \"total_accesses\": 500,\n  \"chunk_count\": 3,\n  \"next_chunk\": 1,\n  \
             \"cold\": 0,\n  \"histogram\": [],\n  \"timeline\": []\n",
        ),
        (
            "symloc_sampled_trace_checkpoint",
            "  \"total_accesses\": 500,\n  \"shard_count\": 2,\n  \"budget_per_shard\": 16,\n  \
             \"threshold\": 16777216,\n  \"next_shard\": 0,\n  \"shards\": [\n  ]\n",
        ),
    ] {
        let doc = format!(
            "{{\n  \"kind\": \"{tag}\",\n  \"version\": 1,\n  \"fingerprint\": \
             \"gen:zipf:50:500:0.9:1\",\n{body}}}\n"
        );
        std::fs::write(&ck, &doc).unwrap();
        for args in [
            vec!["job", "status", &ck_str],
            vec!["job", "resume", &ck_str],
            vec![
                "trace",
                "mrc",
                "gen:zipf:50:500:0.9:1",
                "--shards",
                "3",
                "--checkpoint",
                &ck_str,
            ],
            vec![
                "trace",
                "mrc",
                "gen:zipf:50:500:0.9:1",
                "--sample",
                "32",
                "--shards",
                "2",
                "--checkpoint",
                &ck_str,
            ],
        ] {
            let err = run(&args).expect_err("a retired checkpoint must not resume");
            assert!(err.0.contains(tag), "{args:?}: {err}");
            assert!(err.0.contains("retired"), "{args:?}: {err}");
            assert!(err.0.contains("re-run"), "{args:?}: {err}");
            assert_eq!(std::fs::read_to_string(&ck).unwrap(), doc, "{args:?}");
        }
    }
    std::fs::remove_file(&ck).ok();
}

#[test]
fn hostile_histogram_distances_fail_loudly_and_leave_the_checkpoint_untouched() {
    use symmetric_locality::cli;

    // A trace checkpoint whose histogram claims a reuse distance of 10^12
    // over a footprint of a few dozen addresses: no trace produces that,
    // and a dense histogram grown to hold it would be 8 TB. Resuming it,
    // through `trace mrc --checkpoint` or `job resume`, must fail naming
    // the bin, allocate nothing for it, and leave the file byte for byte
    // as it was rather than overwrite it with a fresh job.
    let ck = std::env::temp_dir().join(format!(
        "symloc_failinj_hostile_bin_{}.json",
        std::process::id()
    ));
    let ck_str = ck.to_str().unwrap().to_string();
    std::fs::remove_file(&ck).ok();
    let run = |args: &[&str]| {
        cli::run(
            &args
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<String>>(),
        )
    };
    let trace_mrc = [
        "trace",
        "mrc",
        "gen:zipf:50:500:0.9:1",
        "--exact",
        "--shards",
        "3",
        "--threads",
        "2",
        "--checkpoint",
        &ck_str,
    ];
    let mut partial = trace_mrc.to_vec();
    partial.extend(["--max-chunks", "1"]);
    run(&partial).expect("one chunk checkpoints");
    let good = std::fs::read_to_string(&ck).unwrap();
    let histogram = good
        .lines()
        .find(|l| l.starts_with("  \"histogram\": "))
        .expect("the exact half writes its histogram");
    let hostile = good.replace(histogram, "  \"histogram\": [[1000000000000, 1]],");
    assert_ne!(hostile, good);
    std::fs::write(&ck, &hostile).unwrap();
    for args in [trace_mrc.to_vec(), vec!["job", "resume", &ck_str]] {
        let err = run(&args).expect_err("a hostile checkpoint must not resume");
        assert!(
            err.0
                .contains("histogram distance 1000000000000 exceeds the cold count"),
            "{args:?}: {err}"
        );
        assert_eq!(std::fs::read_to_string(&ck).unwrap(), hostile, "{args:?}");
    }
    std::fs::remove_file(&ck).ok();
    std::fs::remove_file(format!("{ck_str}.hb")).ok();
}

/// A trace checkpoint whose `cold` count claims 10^12 addresses over a
/// 3-entry timeline: the count comes before the timeline and sizes the
/// restore, so a reader that believed it would ask for terabytes (and
/// abort). Every command that reads the file fails at once with exit 1,
/// naming the mismatch, and leaves the file as it was.
#[test]
fn an_overclaimed_cold_count_fails_at_once_without_allocating_by_it() {
    let dir = std::env::temp_dir().join(format!("symloc_failinj_cold_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let checkpoint = dir.join("ck.json");
    let trace = "trace mrc gen:cyclic:3:4 --exact --shards 2 --threads 1 --checkpoint {}";
    let (ok, stderr) = run_symloc(&symloc_args(
        &format!("{trace} --max-chunks 1"),
        &[&checkpoint],
    ));
    assert!(ok, "{stderr}");
    let good = std::fs::read_to_string(&checkpoint).unwrap();
    assert!(good.contains("\"timeline\": [0, 1, 2]"), "{good}");
    let hostile = good.replace("\"cold\": 3,", "\"cold\": 1000000000000,");
    assert_ne!(hostile, good);
    std::fs::write(&checkpoint, &hostile).unwrap();
    for command in [trace, "job status {}", "job resume {}"] {
        let args = symloc_args(command, &[&checkpoint]);
        let started = std::time::Instant::now();
        let (code, stderr) = symloc_exit(&args);
        assert_eq!(code, Some(1), "`symloc {}`: {stderr}", args.join(" "));
        assert!(
            stderr.contains("cold count 1000000000000 differs from the 3 timeline addresses"),
            "{stderr}"
        );
        assert!(started.elapsed() < std::time::Duration::from_secs(20));
        assert_eq!(std::fs::read_to_string(&checkpoint).unwrap(), hostile);
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn impossible_trace_counts_fail_loudly_and_leave_the_checkpoint_untouched() {
    use symmetric_locality::cli;

    // A both-halves trace checkpoint after 2 of 4 chunks (10 000 of 20 000
    // accesses). Each mangled copy carries counts no run produces: the
    // first one used to resume silently to "20 777 streamed" and a miss
    // ratio of 0.787 at size 1, where the trace's is 0.984. Resuming any of
    // them, through `trace mrc --checkpoint` or `job resume`, must fail
    // naming the count and leave the file byte for byte as it was.
    let ck = std::env::temp_dir().join(format!(
        "symloc_failinj_trace_counts_{}.json",
        std::process::id()
    ));
    let ck_str = ck.to_str().unwrap().to_string();
    std::fs::remove_file(&ck).ok();
    let run = |args: &[&str]| {
        cli::run(
            &args
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<String>>(),
        )
    };
    let trace_mrc = [
        "trace",
        "mrc",
        "gen:zipf:1000:20000:0.9:3",
        "--exact",
        "--sample",
        "64",
        "--shards",
        "4",
        "--threads",
        "2",
        "--checkpoint",
        &ck_str,
    ];
    let mut partial = trace_mrc.to_vec();
    partial.extend(["--max-chunks", "2"]);
    run(&partial).expect("two chunks checkpoint");
    let good = std::fs::read_to_string(&ck).unwrap();
    assert!(good.contains("\"streamed\": 10000,"), "{good}");
    let first_bin = |doc: &str| -> (u64, u64) {
        let start = doc.find("\"histogram\": [[").unwrap() + "\"histogram\": [[".len();
        let (d, rest) = doc[start..].split_once(", ").unwrap();
        let count = rest.split(']').next().unwrap();
        (d.parse().unwrap(), count.parse().unwrap())
    };
    let (d, count) = first_bin(&good);
    let more_reuses = good.replacen(
        &format!("[[{d}, {count}]"),
        &format!("[[{d}, {}]", count + 5000),
        1,
    );
    // The first shard's counters, `"raw": R, "sampled": S,`.
    let number_after = |key: &str| -> u64 {
        let at = good.find(key).unwrap() + key.len();
        good[at..].split(',').next().unwrap().parse().unwrap()
    };
    let (raw, sampled) = (number_after("\"raw\": "), number_after("\"sampled\": "));
    let counters = format!("\"raw\": {raw}, \"sampled\": {sampled},");
    assert!(good.contains(&counters), "{good}");
    for (hostile, why) in [
        (
            more_reuses.replace("\"streamed\": 10000,", "\"streamed\": 10777,"),
            "streamed 10777 differs from the 10000 accesses of the first 2 chunks",
        ),
        (
            more_reuses,
            "cold plus histogram counts add up to 15000 accesses, not the 10000 streamed",
        ),
        (
            good.replacen(
                &counters,
                &format!("\"raw\": {}, \"sampled\": {sampled},", raw + 1),
                1,
            ),
            "the shards' raw counts add up to 10001 accesses, not the 10000 streamed",
        ),
        (
            good.replacen(
                &counters,
                &format!("\"raw\": {raw}, \"sampled\": {},", raw + 1),
                1,
            ),
            &*format!(
                "estimator sampled count {} exceeds its raw count {raw}",
                raw + 1
            ),
        ),
    ] {
        assert_ne!(hostile, good);
        std::fs::write(&ck, &hostile).unwrap();
        for args in [trace_mrc.to_vec(), vec!["job", "resume", &ck_str]] {
            let err = run(&args).expect_err("impossible counts must not resume");
            assert!(err.0.contains(why), "{args:?}: {err}");
            assert_eq!(std::fs::read_to_string(&ck).unwrap(), hostile, "{args:?}");
        }
    }
    std::fs::remove_file(&ck).ok();
    std::fs::remove_file(format!("{ck_str}.hb")).ok();
}

#[test]
fn impossible_sweep_partials_fail_loudly_and_leave_the_checkpoint_untouched() {
    use symmetric_locality::cli;

    // A complete `sweep 3 --shards 2` checkpoint with one level count per
    // shard set to u64::MAX. Merged as they stand, the counts wrap to a
    // total of 3 permutations. Resuming it, through `sweep --checkpoint`
    // or `job resume`, must fail naming the shard and leave the file byte
    // for byte as it was.
    let ck = std::env::temp_dir().join(format!(
        "symloc_failinj_sweep_partials_{}.json",
        std::process::id()
    ));
    let ck_str = ck.to_str().unwrap().to_string();
    std::fs::remove_file(&ck).ok();
    let run = |args: &[&str]| {
        cli::run(
            &args
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<String>>(),
        )
    };
    let sweep = ["sweep", "3", "--shards", "2", "--checkpoint", &ck_str];
    run(&sweep).expect("a fresh sweep checkpoints");
    let good = std::fs::read_to_string(&ck).unwrap();
    // Shard 0 (ranks 0..3) holds two permutations at level 1, shard 1
    // (ranks 3..6) two at level 2.
    let hostile = good
        .replace(
            "{\"level\": 1, \"count\": 2,",
            "{\"level\": 1, \"count\": 18446744073709551615,",
        )
        .replace(
            "{\"level\": 2, \"count\": 2,",
            "{\"level\": 2, \"count\": 18446744073709551615,",
        );
    assert_eq!(hostile.matches("18446744073709551615").count(), 2);
    std::fs::write(&ck, &hostile).unwrap();
    for args in [sweep.to_vec(), vec!["job", "resume", &ck_str]] {
        let err = run(&args).expect_err("impossible partials must not resume");
        assert!(
            err.0
                .contains("shard 0 aggregates 18446744073709551616 permutations"),
            "{args:?}: {err}"
        );
        assert!(err.0.contains("ranks 0..3 hold 3"), "{args:?}: {err}");
        assert_eq!(std::fs::read_to_string(&ck).unwrap(), hostile, "{args:?}");
    }
    std::fs::remove_file(&ck).ok();
}

#[test]
fn concurrent_atomic_saves_to_one_path_never_tear() {
    use std::sync::{Arc, Barrier};
    use symmetric_locality::core::jsonio::{parse, save_atomic};

    let dir = std::env::temp_dir().join(format!("symloc_failinj_writers_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = Arc::new(dir.join("shared.json"));
    // Documents of different lengths, so a torn or interleaved write
    // could not pass for either.
    let docs = Arc::new([
        format!("{{\"writer\": 0, \"pad\": \"{}\"}}", "a".repeat(48 * 1024)),
        format!("{{\"writer\": 1, \"pad\": \"{}\"}}", "b".repeat(80 * 1024)),
    ]);
    let barrier = Arc::new(Barrier::new(2));
    let writers: Vec<_> = (0..2)
        .map(|writer| {
            let (path, docs, barrier) =
                (Arc::clone(&path), Arc::clone(&docs), Arc::clone(&barrier));
            std::thread::spawn(move || {
                barrier.wait();
                for _ in 0..200 {
                    save_atomic(&path, &docs[writer]).expect("atomic save");
                    let text = std::fs::read_to_string(&*path).expect("read back");
                    assert!(parse(&text).is_ok(), "the checkpoint stopped parsing");
                    assert!(
                        text == docs[0] || text == docs[1],
                        "the checkpoint is neither document ({} bytes)",
                        text.len()
                    );
                }
            })
        })
        .collect();
    for writer in writers {
        writer.join().expect("writer thread");
    }
    // Each writer used its own temp file, and none is left behind.
    let names: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|entry| entry.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    assert_eq!(names, ["shared.json"]);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn resuming_a_checkpoint_removes_what_interrupted_saves_left() {
    use symmetric_locality::cli;

    let dir = std::env::temp_dir().join(format!("symloc_failinj_stale_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let ck = dir.join("sweep.json");
    let ck_str = ck.to_str().unwrap().to_string();
    let sweep = |max_shards: &str| {
        cli::run(
            &[
                "sweep",
                "6",
                "--shards",
                "4",
                "--max-shards",
                max_shards,
                "--checkpoint",
                &ck_str,
            ]
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<String>>(),
        )
        .unwrap()
    };
    sweep("1");
    // Two saves killed mid-write, by this process and another one.
    let stale = [
        dir.join(format!("sweep.json.{}.99.tmp", std::process::id())),
        dir.join("sweep.json.1.0.tmp"),
    ];
    for temp in &stale {
        std::fs::write(temp, "{\"kind\": \"symloc_sw").unwrap();
    }
    let unrelated = dir.join("notes.tmp");
    std::fs::write(&unrelated, "keep").unwrap();
    let out = sweep("4");
    assert!(out.contains("permutations aggregated : 720"), "{out}");
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|entry| entry.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    assert_eq!(names, ["notes.tmp", "sweep.json"]);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
#[cfg(unix)]
fn a_failed_background_checkpoint_write_is_reported_by_save_and_fails_shutdown() {
    use std::io::{BufRead, BufReader, Write};
    use std::process::{Command, Stdio};

    let dir = std::env::temp_dir().join(format!("symloc_failinj_saver_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    // The checkpoint's parent is a regular file, so no write can succeed.
    let blocker = dir.join("not-a-directory");
    std::fs::write(&blocker, "keep").unwrap();
    let mut child = Command::new(env!("CARGO_BIN_EXE_symloc"))
        .args([
            "serve",
            "--port",
            "0",
            "--save-every",
            "4096",
            "--checkpoint",
        ])
        .arg(blocker.join("serve.ckpt.json"))
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn symloc serve");
    let mut banner = String::new();
    BufReader::new(child.stdout.as_mut().unwrap())
        .read_line(&mut banner)
        .expect("read listen banner");
    let addr = banner
        .trim()
        .strip_prefix("listening on ")
        .unwrap()
        .to_string();

    // One full block for `a`: its flush queues a cadence save, which
    // fails on the saver thread. (The unit tests in src/cli/serve.rs
    // order that failure before the next requests; here it may land
    // before or after them.)
    let stream = std::net::TcpStream::connect(&addr).expect("connect to daemon");
    let mut writer = stream.try_clone().unwrap();
    let mut script = String::from("HELLO a\n");
    for addr in 0..4096 {
        script.push_str(&format!("{addr}\n"));
    }
    script.push_str("PING\n");
    writer.write_all(script.as_bytes()).unwrap();
    let mut reader = BufReader::new(stream);
    let mut replies = String::new();
    for _ in 0..2 {
        reader.read_line(&mut replies).unwrap();
    }
    assert_eq!(replies, "OK tenant a\nOK pong\n");

    // The failure replaces no request: the HELLO still binds `b`, whose
    // accesses land there, and the next SAVE reports it.
    writer
        .write_all(b"HELLO b\n1\n2\n3\nWSS b\nSAVE\nPING\n")
        .unwrap();
    let mut replies = Vec::new();
    for _ in 0..4 {
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        replies.push(reply.trim_end().to_string());
    }
    assert_eq!(replies[..2], ["OK tenant b", "OK wss b 3"], "{replies:?}");
    assert!(
        replies[2].starts_with("ERR cannot write checkpoint "),
        "{replies:?}"
    );
    assert_eq!(replies[3], "OK pong");

    // Shutdown cannot save either, and says so with a non-zero exit.
    let kill = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .unwrap();
    assert!(kill.success());
    let output = child.wait_with_output().expect("daemon exits");
    assert!(!output.status.success(), "a failed final save exited 0");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("cannot write checkpoint"), "{stderr}");
    assert_eq!(std::fs::read_to_string(&blocker).unwrap(), "keep");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn an_unwritable_trace_checkpoint_fails_the_job_instead_of_hanging() {
    use std::process::{Command, Stdio};
    use std::time::{Duration, Instant};

    let dir = std::env::temp_dir().join(format!("symloc_failinj_trace_ck_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    // The checkpoint's parent is a regular file, so the first save fails
    // while the workers still hold chunks of the window.
    let blocker = dir.join("not-a-directory");
    std::fs::write(&blocker, "keep").unwrap();
    let mut child = Command::new(env!("CARGO_BIN_EXE_symloc"))
        .args([
            "trace",
            "mrc",
            "gen:zipf:5000:200000:0.8:9",
            "--shards",
            "6",
            "--threads",
            "2",
            "--checkpoint",
        ])
        .arg(blocker.join("ck.json"))
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn symloc trace mrc");
    let deadline = Instant::now() + Duration::from_secs(120);
    while child.try_wait().expect("poll symloc").is_none() {
        if Instant::now() > deadline {
            child.kill().ok();
            panic!("trace mrc with an unwritable checkpoint hung");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let output = child.wait_with_output().expect("trace mrc exits");
    assert!(
        !output.status.success(),
        "a failed checkpoint write exited 0"
    );
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("cannot write checkpoint"), "{stderr}");
    assert_eq!(std::fs::read_to_string(&blocker).unwrap(), "keep");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn an_oversized_sweep_shard_count_is_rejected_before_planning() {
    use std::process::{Command, Stdio};
    use std::time::{Duration, Instant};

    // Four billion shards of S_12 would plan ~26 GB of rank ranges and
    // partial slots before the first shard ran; the flag is capped where
    // it is parsed, so the command fails at once and writes nothing.
    let dir = std::env::temp_dir().join(format!("symloc_failinj_shards_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let checkpoint = dir.join("s12.json");
    let mut child = Command::new(env!("CARGO_BIN_EXE_symloc"))
        .args(["sweep", "12", "--shards", "4000000000", "--max-shards", "1"])
        .arg("--checkpoint")
        .arg(&checkpoint)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn symloc sweep");
    let deadline = Instant::now() + Duration::from_secs(10);
    while child.try_wait().expect("poll symloc").is_none() {
        if Instant::now() > deadline {
            child.kill().ok();
            child.wait().ok();
            panic!("sweep --shards 4000000000 was still running after 10 s");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let output = child.wait_with_output().expect("sweep exits");
    assert!(!output.status.success(), "an oversized --shards exited 0");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("limit of 4096"), "{stderr}");
    assert!(!checkpoint.exists(), "a rejected sweep wrote a checkpoint");
    std::fs::remove_dir_all(&dir).ok();
}

/// Runs the `symloc` binary on `args`, with an empty stdin, and returns
/// its exit code (`None` when a signal ended it) and its stderr.
fn symloc_exit(args: &[String]) -> (Option<i32>, String) {
    let output = std::process::Command::new(env!("CARGO_BIN_EXE_symloc"))
        .args(args)
        .stdin(std::process::Stdio::null())
        .output()
        .expect("spawn symloc");
    (
        output.status.code(),
        String::from_utf8_lossy(&output.stderr).into_owned(),
    )
}

/// Runs the `symloc` binary on `args` and returns whether it exited 0 and
/// its stderr.
fn run_symloc(args: &[String]) -> (bool, String) {
    let (code, stderr) = symloc_exit(args);
    (code == Some(0), stderr)
}

/// Asserts that `symloc args` fails with every one of `needles` in its
/// stderr and without a panic.
fn assert_fails_loudly(args: &[String], needles: &[&str]) {
    let (ok, stderr) = run_symloc(args);
    assert!(!ok, "`symloc {}` exited 0", args.join(" "));
    assert!(!stderr.contains("panicked"), "{stderr}");
    for needle in needles {
        assert!(stderr.contains(needle), "{needle:?} not in: {stderr}");
    }
}

/// The argument list of `symloc <command>` with `paths` appended in turn
/// after the words of `command`'s `{}` placeholders.
fn symloc_args(command: &str, paths: &[&std::path::Path]) -> Vec<String> {
    let mut paths = paths.iter();
    command
        .split_whitespace()
        .map(|word| match word {
            "{}" => paths.next().expect("a path per {}").display().to_string(),
            word => word.to_string(),
        })
        .collect()
}

/// The offsets of a sidecar chunk index, entry by entry.
fn index_offsets(index: &symmetric_locality::trace::binio::SltrIndex) -> Vec<u64> {
    (1..=index.entry_count() as u64)
        .map(|k| index.offset_of(k * index.interval()).unwrap())
        .collect()
}

#[test]
fn a_shifted_sidecar_offset_fails_the_job_the_stream_and_the_resume() {
    use symmetric_locality::trace::binio::{sltr_index_path, SltrIndex};

    let dir = std::env::temp_dir().join(format!("symloc_failinj_shift_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("t.sltr");
    let sidecar = sltr_index_path(&trace);
    let (ok, stderr) = run_symloc(&symloc_args(
        "trace convert gen:zipf:5000:200000:0.8:3 {} --index 1000",
        &[&trace],
    ));
    assert!(ok, "{stderr}");
    let good = std::fs::read(&sidecar).unwrap();
    // Entry 49 (access 50 000) one byte late, entry 50 where it was: the
    // total, the payload length and every other offset are unchanged.
    let index = SltrIndex::read(&sidecar).unwrap();
    let mut offsets = index_offsets(&index);
    offsets[49] += 1;
    let shifted = SltrIndex::from_parts(
        index.interval(),
        index.total_accesses(),
        index.payload_len(),
        offsets,
    )
    .to_bytes();
    assert_eq!(shifted.len(), good.len());
    std::fs::write(&sidecar, &shifted).unwrap();

    let named = ["t.sltr.idx", "access 50000", "cannot read sltr:"];
    let fresh = dir.join("fresh.json");
    assert_fails_loudly(
        &symloc_args(
            "trace mrc {} --exact --shards 4 --threads 2 --checkpoint {}",
            &[&trace, &fresh],
        ),
        &named,
    );
    assert!(
        !fresh.exists(),
        "the first chunk fails, so nothing is saved"
    );
    assert_fails_loudly(
        &symloc_args("trace mrc {} --exact --threads 1", &[&trace]),
        &named,
    );

    // A checkpoint written with the good sidecar: the resumed run's first
    // chunk checks the offset it seeks by.
    std::fs::write(&sidecar, &good).unwrap();
    let checkpoint = dir.join("ck.json");
    let (ok, stderr) = run_symloc(&symloc_args(
        "trace mrc {} --exact --shards 4 --threads 2 --max-chunks 1 --checkpoint {}",
        &[&trace, &checkpoint],
    ));
    assert!(ok, "{stderr}");
    let saved = std::fs::read(&checkpoint).unwrap();
    std::fs::write(&sidecar, &shifted).unwrap();
    assert_fails_loudly(
        &symloc_args(
            "trace mrc {} --exact --shards 4 --threads 2 --checkpoint {}",
            &[&trace, &checkpoint],
        ),
        &named,
    );
    assert_fails_loudly(&symloc_args("job resume {}", &[&checkpoint]), &named);
    assert_eq!(std::fs::read(&checkpoint).unwrap(), saved);
    std::fs::remove_dir_all(&dir).ok();
}

/// A run that replaces a checkpoint of another plan warns on stderr before
/// any chunk runs, so the warning is still there when the run then fails.
#[test]
fn a_failed_run_over_a_mismatched_checkpoint_keeps_its_overwrite_warning() {
    let dir = std::env::temp_dir().join(format!("symloc_failinj_overwrite_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let (trace, checkpoint) = (dir.join("t.txt"), dir.join("ck.json"));
    for command in [
        "trace convert gen:zipf:5000:40000:0.8:3 {}",
        "trace mrc {} --exact --shards 4 --threads 1 --checkpoint {}",
    ] {
        let (ok, stderr) = run_symloc(&symloc_args(command, &[&trace, &checkpoint]));
        assert!(ok, "{stderr}");
    }
    // The line before access 36 864 one digit shorter and the line after
    // it one digit longer: the sidecar's length and count still match,
    // but its offset of access 36 864 is a byte late.
    let good = std::fs::read_to_string(&trace).unwrap();
    let mut lines: Vec<String> = good.lines().map(str::to_string).collect();
    assert!(lines[36863].len() > 1);
    lines[36863].pop();
    lines[36865].push('0');
    std::fs::write(&trace, lines.join("\n") + "\n").unwrap();
    assert_eq!(std::fs::metadata(&trace).unwrap().len(), good.len() as u64);
    assert_fails_loudly(
        &symloc_args(
            "trace mrc {} --exact --shards 3 --threads 1 --checkpoint {}",
            &[&trace, &checkpoint],
        ),
        &[
            "warning: existing checkpoint",
            "starting fresh and overwriting it",
            "cannot read text:",
            "access 36864",
        ],
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cut_overlong_and_overcounted_payloads_fail_every_trace_read_path() {
    use symmetric_locality::trace::binio::{sltr_index_path, SltrIndex};

    let dir = std::env::temp_dir().join(format!("symloc_failinj_payload_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("t.sltr");
    let sidecar = sltr_index_path(&trace);
    // 20 500 accesses, so a total one higher keeps the entry count.
    let (ok, stderr) = run_symloc(&symloc_args(
        "trace convert gen:zipf:5000:20500:0.8:5 {} --index 1000",
        &[&trace],
    ));
    assert!(ok, "{stderr}");
    let (good_trace, good_sidecar) = (
        std::fs::read(&trace).unwrap(),
        std::fs::read(&sidecar).unwrap(),
    );
    let index = SltrIndex::read(&sidecar).unwrap();
    let rewritten = |total: u64, payload_len: u64| {
        SltrIndex::from_parts(index.interval(), total, payload_len, index_offsets(&index))
            .to_bytes()
    };
    // A checkpoint with three of the four chunks done, so a resume runs
    // only the last chunk, which every damage below reaches.
    let checkpoint = dir.join("ck.json");
    let (ok, stderr) = run_symloc(&symloc_args(
        "trace mrc {} --exact --shards 4 --threads 2 --max-chunks 3 --checkpoint {}",
        &[&trace, &checkpoint],
    ));
    assert!(ok, "{stderr}");
    let saved = std::fs::read(&checkpoint).unwrap();

    let mut overlong = good_trace.clone();
    let at = overlong.len() - 40;
    overlong[at..at + 11].copy_from_slice(&[0xff; 11]);
    let cut = good_trace.len() - 7;
    for (case, payload, index_bytes) in [
        (
            "cut short",
            good_trace[..cut].to_vec(),
            rewritten(index.total_accesses(), (cut - 5) as u64),
        ),
        ("overlong varint", overlong, good_sidecar.clone()),
        (
            "total one too high",
            good_trace.clone(),
            rewritten(index.total_accesses() + 1, index.payload_len()),
        ),
    ] {
        std::fs::write(&trace, &payload).unwrap();
        std::fs::write(&sidecar, &index_bytes).unwrap();
        let named = ["cannot read sltr:", "t.sltr"];
        let fresh = dir.join("fresh.json");
        std::fs::remove_file(&fresh).ok();
        let job = "trace mrc {} --exact --shards 4 --threads 2 --checkpoint {}";
        for args in [
            symloc_args(job, &[&trace, &fresh]),
            symloc_args(job, &[&trace, &checkpoint]),
            symloc_args("trace mrc {} --exact --threads 1", &[&trace]),
        ] {
            let (ok, stderr) = run_symloc(&args);
            assert!(!ok, "{case}: `symloc {}` exited 0", args.join(" "));
            assert!(!stderr.contains("panicked"), "{case}: {stderr}");
            for needle in named {
                assert!(
                    stderr.contains(needle),
                    "{case}: {needle:?} not in {stderr}"
                );
            }
        }
        let (ok, stderr) = run_symloc(&symloc_args("job resume {}", &[&checkpoint]));
        assert!(!ok, "{case}: job resume exited 0");
        assert!(!stderr.contains("panicked"), "{case}: {stderr}");
        assert!(stderr.contains("t.sltr"), "{case}: {stderr}");
        assert_eq!(std::fs::read(&checkpoint).unwrap(), saved, "{case}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The three ways a checkpoint is damaged on disk that keep its header: cut
/// in half, one digit in its second half changed to `x`, and one byte in
/// its second half made a stray UTF-8 continuation byte.
fn damaged_copies(good: &[u8]) -> Vec<(&'static str, Vec<u8>)> {
    let middle = good.len() / 2;
    let digit = middle
        + good[middle..]
            .iter()
            .position(u8::is_ascii_digit)
            .expect("a digit in the second half");
    let mut letter = good.to_vec();
    letter[digit] = b'x';
    let mut not_utf8 = good.to_vec();
    not_utf8[middle] = 0xB1;
    vec![
        ("cut in half", good[..middle].to_vec()),
        ("a digit changed", letter),
        ("a non-UTF-8 byte", not_utf8),
    ]
}

/// A checkpoint that no longer parses still opens with its kind. Every
/// command that would resume it — the kind's own command, `job resume` —
/// fails with exit 1 saying it does not decode, and `job status` fails
/// too; none overwrites it with a fresh job: the file stays byte for byte
/// as it was. A file that did not parse used to count as no checkpoint,
/// so a damaged trace checkpoint was replaced by a fresh job and a
/// damaged serve checkpoint by an empty tenant table.
#[test]
fn damaged_checkpoints_fail_loudly_and_stay_untouched() {
    let dir = std::env::temp_dir().join(format!("symloc_failinj_damaged_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let checkpoint = dir.join("ck.json");
    // Runs `command` over a fresh checkpoint and returns what it saved.
    let written = |command: &str| {
        std::fs::remove_file(&checkpoint).ok();
        let (ok, stderr) = run_symloc(&symloc_args(command, &[&checkpoint]));
        assert!(ok, "{command}: {stderr}");
        std::fs::read(&checkpoint).unwrap()
    };
    let trace = "trace mrc gen:zipf:1000:20000:0.9:3 --exact --sample 64 --shards 4 \
                 --threads 2 --checkpoint {}";
    let sweep = "sweep 6 --shards 4 --checkpoint {}";
    let serve = "serve --stdin --budget 32 --checkpoint {}";
    let mut state = symmetric_locality::core::serve::ServeState::new(32, 64).unwrap();
    let tenant = state.ensure_tenant("alpha").unwrap();
    state.record_block(tenant, &(0..500).map(|i| i % 70).collect::<Vec<u64>>());
    for (good, resumes) in [
        (
            written(&format!("{trace} --max-chunks 2")),
            [(trace, "does not decode"), ("job resume {}", "checkpoint")],
        ),
        (
            written(&format!("{sweep} --max-shards 2")),
            [(sweep, "does not decode"), ("job resume {}", "checkpoint")],
        ),
        (
            state.to_json().into_bytes(),
            [(serve, "does not decode"), ("job status {}", "checkpoint")],
        ),
    ] {
        for (case, damaged) in damaged_copies(&good) {
            std::fs::write(&checkpoint, &damaged).unwrap();
            for (command, needle) in resumes {
                let args = symloc_args(command, &[&checkpoint]);
                let (code, stderr) = symloc_exit(&args);
                assert_eq!(
                    code,
                    Some(1),
                    "{case}: `symloc {}`: {stderr}",
                    args.join(" ")
                );
                assert!(!stderr.contains("panicked"), "{case}: {stderr}");
                assert!(
                    stderr.contains(needle),
                    "{case}: {needle:?} not in {stderr}"
                );
                assert!(
                    std::fs::read(&checkpoint).unwrap() == damaged,
                    "{case}: `symloc {}` changed the checkpoint",
                    args.join(" ")
                );
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// 200 KB of `[` used to recurse the JSON parser off the end of its stack
/// (exit 134). Nesting is bounded now: `job status` on such a file and a
/// serve checkpoint whose body nests that deep fail with exit 1, the
/// checkpoint left as it was; a heartbeat sidecar that deep is an
/// unreadable sidecar, which `job status` reports and goes on (exit 0),
/// since the sidecar is advisory.
#[test]
fn deeply_nested_documents_are_errors_not_stack_overflows() {
    let dir = std::env::temp_dir().join(format!("symloc_failinj_deep_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let deep = "[".repeat(200_000);
    let no_overflow = |args: &[String], want: i32| {
        let (code, stderr) = symloc_exit(args);
        assert!(!stderr.contains("overflowed its stack"), "{stderr}");
        assert_eq!(code, Some(want), "`symloc {}`: {stderr}", args.join(" "));
        stderr
    };

    let brackets = dir.join("brackets.json");
    std::fs::write(&brackets, &deep).unwrap();
    let stderr = no_overflow(&symloc_args("job status {}", &[&brackets]), 1);
    assert!(stderr.contains("nest deeper than"), "{stderr}");

    let serve = dir.join("serve.json");
    let document = format!(
        "{{\n  \"kind\": \"symloc_serve_checkpoint\",\n  \"version\": 1,\n  \
         \"fingerprint\": \"serve;budget=32;max_tenants=64\",\n  \"tenants\": {deep}"
    );
    std::fs::write(&serve, &document).unwrap();
    for command in ["serve --stdin --budget 32 --checkpoint {}", "job status {}"] {
        let stderr = no_overflow(&symloc_args(command, &[&serve]), 1);
        assert!(stderr.contains("nest deeper than"), "{stderr}");
        assert_eq!(std::fs::read_to_string(&serve).unwrap(), document);
    }

    let checkpoint = dir.join("sweep.json");
    let (ok, stderr) = run_symloc(&symloc_args(
        "sweep 5 --shards 4 --max-shards 2 --checkpoint {}",
        &[&checkpoint],
    ));
    assert!(ok, "{stderr}");
    std::fs::write(dir.join("sweep.json.hb"), &deep).unwrap();
    let output = std::process::Command::new(env!("CARGO_BIN_EXE_symloc"))
        .args(symloc_args("job status {}", &[&checkpoint]))
        .output()
        .unwrap();
    let report = String::from_utf8_lossy(&output.stdout);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(!stderr.contains("overflowed its stack"), "{stderr}");
    assert!(output.status.success(), "{stderr}");
    assert!(report.contains("unreadable sidecar"), "{report}");
    assert!(report.contains("nest deeper than"), "{report}");
    std::fs::remove_dir_all(&dir).ok();
}
