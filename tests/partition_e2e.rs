//! End-to-end acceptance tests for the MRC-driven partitioner, driving
//! the public CLI exactly like the CI smoke flow does:
//!
//! 1. On a two-tenant skewed-vs-uniform `gen:` workload, the solver's
//!    allocation must achieve a **strictly lower simulated** aggregate
//!    miss ratio than an equal split (measured by exact replay, not by
//!    the solver's own prediction).
//! 2. The daemon's `PARTITION` answer must be byte-identical across a
//!    kill/restart, and the offline `symloc partition --checkpoint` path
//!    must reproduce it byte-for-byte.

use symmetric_locality::cli;
use symmetric_locality::core::jsonio::{self, JsonValue};
use symmetric_locality::core::serve::ServeState;
use symmetric_locality::trace::stream::GenSpec;

fn run(args: &[&str]) -> Result<String, String> {
    cli::run(
        &args
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<String>>(),
    )
    .map_err(|e| e.0)
}

/// The acceptance pair: zipf concentrates traffic on a few addresses
/// (steep curve, small working set), random spreads it uniformly
/// (shallow curve, large working set).
const SKEWED: &str = "gen:zipf:512:6000:1.2:7";
const UNIFORM: &str = "gen:random:512:6000:7";

#[test]
fn solver_beats_equal_split_on_skewed_vs_uniform_workloads() {
    let dir = std::env::temp_dir().join(format!("symloc-partition-e2e-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    // Per-tenant curves the way an operator would produce them.
    let mut reports = Vec::new();
    for (name, spec) in [("skewed", SKEWED), ("uniform", UNIFORM)] {
        let report = run(&["trace", "mrc", spec, "--exact", "--json"]).unwrap();
        let path = dir.join(format!("{name}.json"));
        std::fs::write(&path, report).unwrap();
        reports.push(path.to_string_lossy().to_string());
    }

    let out = run(&[
        "partition",
        "160",
        &reports[0],
        &reports[1],
        "--verify",
        "--json",
    ])
    .unwrap();
    let doc = jsonio::parse(&out).unwrap();
    let verify = doc.get("verify").expect("verify section");
    let solver = verify
        .get("simulated_aggregate_miss_ratio")
        .and_then(JsonValue::as_f64)
        .unwrap();
    let equal = verify
        .get("equal_split_simulated_aggregate_miss_ratio")
        .and_then(JsonValue::as_f64)
        .unwrap();
    assert!(
        solver < equal,
        "solver's simulated aggregate {solver} must strictly beat the equal split {equal}"
    );
    // The prediction must be in the same regime as the simulation (the
    // curves are exact here, so hull interpolation is the only slack).
    let predicted = doc
        .get("predicted_aggregate_miss_ratio")
        .and_then(JsonValue::as_f64)
        .unwrap();
    assert!(
        (predicted - solver).abs() < 0.1,
        "predicted {predicted} vs simulated {solver}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn partition_answers_survive_restart_and_match_the_offline_cli() {
    let dir = std::env::temp_dir().join(format!(
        "symloc-partition-e2e-restart-{}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let ck = dir.join("serve.ckpt.json");

    // A daemon table with the acceptance workloads streamed in.
    let mut state = ServeState::new(256, 8).unwrap();
    for (name, spec) in [("skewed", SKEWED), ("uniform", UNIFORM)] {
        let block: Vec<u64> = GenSpec::parse(spec).unwrap().stream().collect();
        let index = state.ensure_tenant(name).unwrap();
        state.record_block(index, &block);
    }
    let first = state.partition(160).unwrap().render_compact();
    state.note_partition(
        160,
        state.partition(160).unwrap().predicted_aggregate_miss_ratio,
    );
    state.save(&ck).unwrap();

    // Kill/restart: the resumed table answers byte-identically.
    let (resumed, was_resumed) = ServeState::resume_or_new(&ck, 256, 8).unwrap();
    assert!(was_resumed);
    assert_eq!(resumed.partition(160).unwrap().render_compact(), first);

    // The offline CLI reads the same checkpoint and prints the same
    // answer line the daemon would send (minus the wire's `OK ` prefix).
    let out = run(&[
        "partition",
        "160",
        "--checkpoint",
        ck.to_str().unwrap(),
        "--json",
    ])
    .unwrap();
    let doc = jsonio::parse(&out).unwrap();
    assert_eq!(
        doc.get("answer").and_then(JsonValue::as_str),
        Some(first.as_str())
    );
    std::fs::remove_dir_all(&dir).ok();
}
