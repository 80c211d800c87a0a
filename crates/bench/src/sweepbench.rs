//! The sweep-throughput measurement suite behind `BENCH_sweep.json`.
//!
//! Shared by two binaries: `run_all_experiments` (which refreshes the
//! committed baseline at the workspace root) and `bench_gate` (the CI
//! regression gate, which re-measures and compares against that baseline
//! with a tolerance). Factoring the suite here guarantees both sides
//! measure exactly the same configurations under the same names.
//!
//! Every measurement records the *actual* hardware thread count observed
//! when it ran (not a file-global value), so a baseline produced on a
//! 1-core container is distinguishable from a regression on a 4-core
//! runner.

use std::path::PathBuf;

use crate::json_escape;
use symloc_cache::setassoc::ReplacementPolicy;
use symloc_core::engine::{weighted_sample_counts, SweepEngine};
use symloc_core::jsonio::{self, JsonValue};
use symloc_core::model::CacheModel;
use symloc_core::obs::{MetricsRegistry, Span};
use symloc_core::sweep::exhaustive_levels_reference;
use symloc_par::default_threads;
use symloc_perm::statistics::Statistic;

/// One measured sweep configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepMeasurement {
    /// Stable configuration name (the gate matches on `(name, m)`).
    pub name: String,
    /// Degree swept.
    pub m: usize,
    /// Worker threads the sweep was configured with.
    pub threads: usize,
    /// Hardware threads available when this measurement ran.
    pub hardware_threads: usize,
    /// Permutations processed per iteration.
    pub perms: u64,
    /// Median throughput over the timed runs.
    pub perms_per_sec: f64,
}

/// The run-to-run spread of the `bench.run_nanos` histogram a measurement
/// accumulates: `(max − min) / min`, as a percentage. Both bench suites
/// print it next to the median so a noisy host is visible in the log
/// without re-running.
#[must_use]
pub fn run_spread_percent(registry: &MetricsRegistry) -> f64 {
    registry.histogram("bench.run_nanos").map_or(0.0, |h| {
        let min = h.min();
        if min == 0 {
            0.0
        } else {
            #[allow(clippy::cast_precision_loss)]
            {
                (h.max() - min) as f64 * 100.0 / min as f64
            }
        }
    })
}

/// Median-of-`runs` throughput of `sweep`, which processes `perms`
/// permutations per call. One warmup call precedes the timed runs; each
/// timed run is a [`Span`] recorded into a per-configuration registry
/// histogram, whose min/max give the printed run-to-run spread.
pub fn measure(
    name: &str,
    m: usize,
    threads: usize,
    perms: u64,
    runs: usize,
    mut sweep: impl FnMut(),
) -> SweepMeasurement {
    sweep();
    let mut registry = MetricsRegistry::new();
    let mut nanos: Vec<u64> = (0..runs.max(1))
        .map(|_| {
            let span = Span::start();
            sweep();
            span.record(&mut registry, "bench.run_nanos")
        })
        .collect();
    nanos.sort_unstable();
    let median_nanos = nanos[nanos.len() / 2].max(1);
    #[allow(clippy::cast_precision_loss)]
    let perms_per_sec = perms as f64 * 1e9 / median_nanos as f64;
    let spread = run_spread_percent(&registry);
    println!(
        "{name:<44} m={m:<3} threads={threads:<3} {perms_per_sec:>14.0} perms/sec \
         (spread {spread:.1}%)"
    );
    SweepMeasurement {
        name: name.to_string(),
        m,
        threads,
        hardware_threads: default_threads(),
        perms,
        perms_per_sec,
    }
}

fn exact_factorial(m: usize) -> u64 {
    (1..=m as u64).product()
}

/// Runs the whole measurement suite: the engine vs the allocating
/// reference (single-threaded; the engine's Figure-1 sweep sums
/// lexicographic blocks, so its rows count permutations it never walks),
/// the all-thread exhaustive and stratified sweeps, and the
/// per-permutation engine under a non-default statistic and a
/// set-associative model.
///
/// `runs` is the number of timed repetitions per configuration (the
/// committed baseline uses 5 for the small ones; the CI gate uses fewer).
#[must_use]
pub fn measure_suite(runs: usize) -> Vec<SweepMeasurement> {
    let threads = default_threads();
    let mut measurements = Vec::new();
    for m in [8usize, 9] {
        let perms = exact_factorial(m);
        measurements.push(measure(
            "exhaustive_engine_single_thread",
            m,
            1,
            perms,
            runs,
            || {
                let _ = SweepEngine::with_threads(m, 1).exhaustive_levels();
            },
        ));
        measurements.push(measure(
            "exhaustive_reference_single_thread",
            m,
            1,
            perms,
            runs,
            || {
                let _ = exhaustive_levels_reference(m, 1);
            },
        ));
    }
    {
        let m = 10usize;
        measurements.push(measure(
            "exhaustive_engine_all_threads",
            m,
            threads,
            exact_factorial(m),
            runs.min(3),
            || {
                let _ = SweepEngine::new(m).exhaustive_levels();
            },
        ));
    }
    {
        // Generalized engine, statistic ≠ inversions, still the LRU path.
        let m = 8usize;
        measurements.push(measure(
            "multistat_engine_single_thread",
            m,
            1,
            exact_factorial(m),
            runs,
            || {
                let _ = SweepEngine::with_threads(m, 1)
                    .sweep_levels(Statistic::MajorIndex, CacheModel::LruStack);
            },
        ));
    }
    {
        // Generalized engine under the set-associative simulator bridge.
        let m = 7usize;
        let model = CacheModel::SetAssoc {
            ways: 4,
            policy: ReplacementPolicy::Fifo,
        };
        measurements.push(measure(
            "setassoc_engine_single_thread",
            m,
            1,
            exact_factorial(m),
            runs.min(3),
            || {
                let _ = SweepEngine::with_threads(m, 1).sweep_levels(Statistic::Inversions, model);
            },
        ));
    }
    {
        let (m, per_level) = (24usize, 400usize);
        let levels = (m * (m - 1) / 2 + 1) as u64;
        measurements.push(measure(
            "sampled_engine_all_threads",
            m,
            threads,
            levels * per_level as u64,
            runs.min(3),
            || {
                let _ = SweepEngine::new(m).sampled_levels(per_level, 7);
            },
        ));
        let budget = (levels as usize) * 400;
        let planned: usize = weighted_sample_counts(m, budget, 2).iter().sum();
        measurements.push(measure(
            "weighted_sampled_all_threads",
            m,
            threads,
            planned as u64,
            runs.min(3),
            || {
                let _ = SweepEngine::new(m).sampled_levels_weighted(
                    Statistic::Inversions,
                    CacheModel::LruStack,
                    budget,
                    2,
                    7,
                );
            },
        ));
    }
    measurements
}

/// The speedup of the batched engine over the allocating reference at
/// degree `m`, if both measurements are present.
#[must_use]
pub fn speedup_at(measurements: &[SweepMeasurement], m: usize) -> Option<f64> {
    let rate = |name: &str| {
        measurements
            .iter()
            .find(|s| s.m == m && s.name == name)
            .map(|s| s.perms_per_sec)
    };
    Some(rate("exhaustive_engine_single_thread")? / rate("exhaustive_reference_single_thread")?)
}

/// Renders the suite — the sweep measurements plus the trace-ingestion
/// measurements of [`crate::tracebench`] — as the `BENCH_sweep.json`
/// document.
#[must_use]
pub fn suite_json(
    measurements: &[SweepMeasurement],
    trace_measurements: &[crate::tracebench::TraceMeasurement],
) -> String {
    let mut json = String::from("{\n  \"benchmark\": \"fig1_sweep_throughput\",\n");
    json.push_str("  \"unit\": \"perms_per_sec\",\n");
    json.push_str(&format!("  \"hardware_threads\": {},\n", default_threads()));
    json.push_str("  \"measurements\": [\n");
    for (i, s) in measurements.iter().enumerate() {
        let sep = if i + 1 < measurements.len() { "," } else { "" };
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"m\": {}, \"threads\": {}, \"hardware_threads\": {}, \"perms_per_iteration\": {}, \"perms_per_sec\": {:.0}}}{sep}\n",
            json_escape(&s.name),
            s.m,
            s.threads,
            s.hardware_threads,
            s.perms,
            s.perms_per_sec,
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&crate::tracebench::trace_measurements_json(
        trace_measurements,
    ));
    let fmt = |s: Option<f64>| s.map_or_else(|| "null".to_string(), |v| format!("{v:.2}"));
    let s8 = fmt(speedup_at(measurements, 8));
    let s9 = fmt(speedup_at(measurements, 9));
    json.push_str(&format!(
        "  \"engine_speedup_over_reference\": {{\"m8\": {s8}, \"m9\": {s9}}}\n}}\n"
    ));
    json
}

/// Location of the committed baseline: `BENCH_sweep.json` at the
/// workspace root.
#[must_use]
pub fn baseline_path() -> PathBuf {
    crate::results_dir()
        .parent()
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("."))
        .join("BENCH_sweep.json")
}

/// One measurement parsed back from a `BENCH_sweep.json` document.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineEntry {
    /// Configuration name.
    pub name: String,
    /// Degree.
    pub m: usize,
    /// Committed throughput.
    pub perms_per_sec: f64,
}

/// The file-level `hardware_threads` a baseline document was produced
/// with, if recorded. The gate uses this to warn when the machine it
/// runs on differs from the machine that produced the baseline —
/// absolute `perms_per_sec` comparisons across different hardware need
/// the tolerance headroom (or a baseline refresh on the new machine).
#[must_use]
pub fn baseline_hardware_threads(text: &str) -> Option<u64> {
    jsonio::parse(text)
        .ok()?
        .get("hardware_threads")
        .and_then(JsonValue::as_u64)
}

/// Parses the measurements out of a `BENCH_sweep.json` document
/// (tolerates baselines written before per-measurement thread counts).
///
/// # Errors
///
/// Returns a description of the first structural problem.
pub fn parse_baseline(text: &str) -> Result<Vec<BaselineEntry>, String> {
    let doc = jsonio::parse(text)?;
    let measurements = doc
        .get("measurements")
        .and_then(JsonValue::as_array)
        .ok_or("missing measurements array")?;
    let mut entries = Vec::with_capacity(measurements.len());
    for entry in measurements {
        let name = entry
            .get("name")
            .and_then(JsonValue::as_str)
            .ok_or("measurement missing name")?
            .to_string();
        let m = entry
            .get("m")
            .and_then(JsonValue::as_usize)
            .ok_or("measurement missing m")?;
        let perms_per_sec = entry
            .get("perms_per_sec")
            .and_then(JsonValue::as_f64)
            .ok_or("measurement missing perms_per_sec")?;
        entries.push(BaselineEntry {
            name,
            m,
            perms_per_sec,
        });
    }
    Ok(entries)
}

/// Verdict of the gate for one baseline measurement.
#[derive(Debug, Clone, PartialEq)]
pub enum GateVerdict {
    /// Fresh throughput is within tolerance of (or better than) baseline.
    Ok {
        /// fresh / baseline.
        ratio: f64,
    },
    /// Fresh throughput regressed beyond the tolerance.
    Regressed {
        /// fresh / baseline.
        ratio: f64,
    },
    /// The comparison regressed, but on a host where it is not meaningful
    /// as a hard gate (a speedup ratio measured with a different hardware
    /// thread count than the baseline's, or with only one): reported as a
    /// warning, never a failure.
    Info {
        /// fresh / baseline.
        ratio: f64,
    },
    /// The fresh suite no longer measures this configuration.
    Missing,
}

/// The gate's comparison for one configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct GateResult {
    /// Configuration name.
    pub name: String,
    /// Degree.
    pub m: usize,
    /// Committed throughput.
    pub baseline: f64,
    /// Freshly measured throughput, if the configuration still exists.
    pub fresh: Option<f64>,
    /// Verdict under the tolerance.
    pub verdict: GateVerdict,
}

/// Compares fresh measurements against the committed baseline: a
/// configuration regresses when its fresh throughput drops below
/// `baseline · (1 − tolerance)`. Configurations present only in the fresh
/// suite (newly added) are ignored; configurations present only in the
/// baseline are reported as [`GateVerdict::Missing`] (which the gate
/// treats as a failure — deleting a measurement should be an explicit
/// baseline refresh, not an accident).
#[must_use]
pub fn compare_to_baseline(
    baseline: &[BaselineEntry],
    fresh: &[SweepMeasurement],
    tolerance: f64,
) -> Vec<GateResult> {
    baseline
        .iter()
        .map(|base| {
            let found = fresh
                .iter()
                .find(|f| f.name == base.name && f.m == base.m)
                .map(|f| f.perms_per_sec);
            let verdict = match found {
                None => GateVerdict::Missing,
                Some(rate) => {
                    let ratio = if base.perms_per_sec > 0.0 {
                        rate / base.perms_per_sec
                    } else {
                        f64::INFINITY
                    };
                    if ratio < 1.0 - tolerance {
                        GateVerdict::Regressed { ratio }
                    } else {
                        GateVerdict::Ok { ratio }
                    }
                }
            };
            GateResult {
                name: base.name.clone(),
                m: base.m,
                baseline: base.perms_per_sec,
                fresh: found,
                verdict,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fresh(name: &str, m: usize, rate: f64) -> SweepMeasurement {
        SweepMeasurement {
            name: name.to_string(),
            m,
            threads: 1,
            hardware_threads: 1,
            perms: 100,
            perms_per_sec: rate,
        }
    }

    #[test]
    fn suite_json_round_trips_through_parse_baseline() {
        let measurements = vec![fresh("a", 8, 1000.0), fresh("b", 9, 2000.0)];
        let traces = vec![crate::tracebench::TraceMeasurement {
            name: "t".into(),
            accesses: 10,
            threads: 1,
            hardware_threads: 1,
            accesses_per_sec: 5.0,
        }];
        let json = suite_json(&measurements, &traces);
        assert!(json.contains("\"hardware_threads\": 1,"));
        let parsed = parse_baseline(&json).unwrap();
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].name, "a");
        assert_eq!(parsed[1].m, 9);
        assert!((parsed[1].perms_per_sec - 2000.0).abs() < 1e-9);
        let trace_parsed = crate::tracebench::parse_trace_baseline(&json).unwrap();
        assert_eq!(trace_parsed.len(), 1);
        assert_eq!(trace_parsed[0].name, "t");
    }

    #[test]
    fn parse_baseline_accepts_the_committed_format() {
        // The pre-gate baseline format had no per-measurement
        // hardware_threads; the parser must still read it.
        let legacy = r#"{
          "benchmark": "fig1_sweep_throughput",
          "unit": "perms_per_sec",
          "hardware_threads": 1,
          "measurements": [
            {"name": "exhaustive_engine_single_thread", "m": 8, "threads": 1, "perms_per_iteration": 40320, "perms_per_sec": 9149550}
          ],
          "engine_speedup_over_reference": {"m8": 2.41, "m9": 2.74}
        }"#;
        let parsed = parse_baseline(legacy).unwrap();
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].m, 8);
        assert!(parse_baseline("{}").is_err());
        assert!(parse_baseline("not json").is_err());
    }

    #[test]
    fn gate_verdicts_cover_ok_regressed_and_missing() {
        let baseline = vec![
            BaselineEntry {
                name: "a".into(),
                m: 8,
                perms_per_sec: 1000.0,
            },
            BaselineEntry {
                name: "b".into(),
                m: 9,
                perms_per_sec: 1000.0,
            },
            BaselineEntry {
                name: "gone".into(),
                m: 5,
                perms_per_sec: 10.0,
            },
        ];
        let fresh = vec![
            fresh("a", 8, 800.0), // -20%: inside a 25% tolerance
            fresh("b", 9, 700.0), // -30%: regression
            fresh("new", 4, 1.0), // baseline-less: ignored
        ];
        let results = compare_to_baseline(&baseline, &fresh, 0.25);
        assert_eq!(results.len(), 3);
        assert!(matches!(results[0].verdict, GateVerdict::Ok { .. }));
        assert!(matches!(results[1].verdict, GateVerdict::Regressed { .. }));
        assert_eq!(results[2].verdict, GateVerdict::Missing);
        // A tighter tolerance flips the first one too.
        let tight = compare_to_baseline(&baseline, &fresh, 0.1);
        assert!(matches!(tight[0].verdict, GateVerdict::Regressed { .. }));
    }

    #[test]
    fn speedup_uses_matching_degrees() {
        let ms = vec![
            fresh("exhaustive_engine_single_thread", 8, 300.0),
            fresh("exhaustive_reference_single_thread", 8, 100.0),
        ];
        assert!((speedup_at(&ms, 8).unwrap() - 3.0).abs() < 1e-12);
        assert_eq!(speedup_at(&ms, 9), None);
    }

    #[test]
    fn baseline_path_is_at_workspace_root() {
        let path = baseline_path();
        assert!(path.ends_with("BENCH_sweep.json"));
        assert!(!path.to_string_lossy().contains("crates"));
    }
}
