//! End-to-end CLI pipeline test: `symloc trace convert` producing an
//! indexed `.sltr`, then a hash-sharded sampled `mrc` over it with a
//! checkpoint that is killed mid-run and resumed — asserting the resumed
//! run's final checkpoint is byte-identical to an uninterrupted one, and
//! that the report output stays machine-parseable throughout.

use symmetric_locality::cli;
use symmetric_locality::trace::binio::sltr_index_path;

fn run(spec: &str) -> String {
    let args: Vec<String> = spec.split_whitespace().map(ToString::to_string).collect();
    cli::run(&args).unwrap_or_else(|e| panic!("`symloc {spec}` failed: {e}"))
}

/// Parses the MRC table at the end of a `trace mrc` report into
/// `(cache_size, miss_ratio)` rows, panicking on anything malformed.
fn parse_mrc_table(report: &str) -> Vec<(usize, f64)> {
    let mut rows = Vec::new();
    let mut in_table = false;
    for line in report.lines() {
        let fields: Vec<&str> = line.split_whitespace().collect();
        if fields == ["cache", "size", "miss", "ratio"] {
            in_table = true;
            continue;
        }
        if in_table {
            assert_eq!(fields.len(), 2, "malformed MRC row {line:?}");
            let size: usize = fields[0].parse().expect("cache size parses");
            let ratio: f64 = fields[1].parse().expect("miss ratio parses");
            assert!(
                (0.0..=1.0).contains(&ratio),
                "miss ratio {ratio} out of range"
            );
            rows.push((size, ratio));
        }
    }
    assert!(in_table, "report has no MRC table:\n{report}");
    rows
}

#[test]
fn convert_then_sampled_sharded_mrc_with_kill_and_resume() {
    let dir = std::env::temp_dir().join(format!("symloc_e2e_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let sltr = dir.join("workload.sltr");
    let sltr_str = sltr.to_string_lossy().to_string();

    // 1. Convert a generated workload to an indexed .sltr file.
    let report = run(&format!(
        "trace convert gen:zipf:300:6000:0.8:21 {sltr_str}"
    ));
    assert!(
        report.contains("6000 accesses, sltr format, chunk index every 4096"),
        "{report}"
    );
    assert!(sltr_index_path(&sltr).exists(), "sidecar index must exist");

    // 2. An uninterrupted reference run of the hash-sharded sampled MRC.
    let reference_ckpt = dir.join("reference.ckpt.json");
    let mrc_args = format!("trace mrc {sltr_str} --sample 96 --shards 3 --threads 2 --points 8");
    let reference_report = run(&format!(
        "{mrc_args} --checkpoint {}",
        reference_ckpt.to_string_lossy()
    ));
    assert!(
        reference_report.contains("3 of 3 complete"),
        "{reference_report}"
    );
    assert!(
        reference_report
            .contains("trace job (3 chunks, 2 threads): sampled (3 hash shards x 32 budget"),
        "{reference_report}"
    );
    let reference_rows = parse_mrc_table(&reference_report);
    assert!(!reference_rows.is_empty());
    let reference_bytes = std::fs::read(&reference_ckpt).unwrap();

    // 3. The same analysis, killed after one chunk…
    let killed_ckpt = dir.join("killed.ckpt.json");
    let killed_ckpt_str = killed_ckpt.to_string_lossy().to_string();
    let first = run(&format!(
        "{mrc_args} --checkpoint {killed_ckpt_str} --max-chunks 1"
    ));
    assert!(first.contains("1 of 3 complete"), "{first}");
    assert!(first.contains("ingest incomplete"), "{first}");
    assert!(killed_ckpt.exists());
    assert_ne!(
        std::fs::read(&killed_ckpt).unwrap(),
        reference_bytes,
        "the interrupted checkpoint must be a strict prefix of the work"
    );

    // 4. …then resumed to completion in a fresh invocation.
    let resumed_report = run(&format!("{mrc_args} --checkpoint {killed_ckpt_str}"));
    assert!(resumed_report.contains("resumed from"), "{resumed_report}");
    assert!(
        resumed_report.contains("3 of 3 complete"),
        "{resumed_report}"
    );

    // 5. The resumed final checkpoint is byte-identical to the
    //    uninterrupted one, and the reports agree row for row.
    assert_eq!(
        std::fs::read(&killed_ckpt).unwrap(),
        reference_bytes,
        "killed + resumed checkpoint must equal the uninterrupted one"
    );
    assert_eq!(parse_mrc_table(&resumed_report), reference_rows);

    // 6. The exact half alone over the same indexed file also kills and
    //    resumes to the uninterrupted result.
    let exact_ckpt = dir.join("exact.ckpt.json");
    let exact_ckpt_str = exact_ckpt.to_string_lossy().to_string();
    let exact_args = format!("trace mrc {sltr_str} --shards 4 --threads 2 --points 8");
    let exact_reference = run(&format!("{exact_args} --checkpoint {exact_ckpt_str}"));
    assert!(
        exact_reference.contains("4 of 4 complete"),
        "{exact_reference}"
    );
    let exact_bytes = std::fs::read(&exact_ckpt).unwrap();
    std::fs::remove_file(&exact_ckpt).unwrap();
    let partial = run(&format!(
        "{exact_args} --checkpoint {exact_ckpt_str} --max-chunks 2"
    ));
    assert!(partial.contains("ingest incomplete"), "{partial}");
    let finished = run(&format!("{exact_args} --checkpoint {exact_ckpt_str}"));
    assert!(finished.contains("resumed from"), "{finished}");
    assert_eq!(std::fs::read(&exact_ckpt).unwrap(), exact_bytes);

    // 7. The sampled estimate tracks the exact curve on the shared sizes
    //    (coarsely — 96 tracked addresses over a 300-address footprint).
    let exact_rows = parse_mrc_table(&exact_reference);
    for (size, ratio) in &reference_rows {
        if let Some((_, exact_ratio)) = exact_rows.iter().find(|(s, _)| s == size) {
            assert!(
                (ratio - exact_ratio).abs() < 0.2,
                "sampled mr {ratio} vs exact {exact_ratio} at c={size}"
            );
        }
    }

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sampled_sweep_checkpoint_survives_kill_and_resume_via_cli() {
    let dir = std::env::temp_dir().join(format!("symloc_e2e_sweep_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let ckpt = dir.join("sweep.ckpt.json");
    let ckpt_str = ckpt.to_string_lossy().to_string();

    // Reference: uninterrupted checkpointed sampled sweep (displacement
    // statistic — exercising the newest sampler end to end).
    let args = "sweep 8 --stat displacement --samples 300 --seed 11 --threads 2".to_string();
    let reference = run(&format!("{args} --checkpoint {ckpt_str}"));
    assert!(reference.contains("33 of 33 complete"), "{reference}");
    assert!(reference.contains("footrule weights"), "{reference}");
    let reference_bytes = std::fs::read(&ckpt).unwrap();
    std::fs::remove_file(&ckpt).unwrap();

    // Kill after a few levels, resume, compare bytes.
    let first = run(&format!("{args} --checkpoint {ckpt_str} --max-shards 5"));
    assert!(first.contains("sweep incomplete"), "{first}");
    let second = run(&format!("{args} --checkpoint {ckpt_str}"));
    assert!(second.contains("resumed from"), "{second}");
    assert_eq!(std::fs::read(&ckpt).unwrap(), reference_bytes);

    // And the checkpointed result equals the direct (uncheckpointed) run.
    let direct = run(&args);
    let tail = |s: &str| {
        s.lines()
            .skip_while(|l| !l.starts_with("sweep of"))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(tail(&second), tail(&direct));

    std::fs::remove_dir_all(&dir).ok();
}
