//! Seeded mutation test of the two observability decoders:
//! [`Heartbeat::from_json`] (the `<checkpoint>.hb` sidecar `symloc job
//! status` reads) and [`MetricsRegistry::from_json`] (the `--metrics`
//! snapshot).
//!
//! Valid documents get a single-byte change, a truncation, or one of their
//! numbers replaced by a boundary value (0, `u64::MAX` and one past it, a
//! negative number, `1e999`, which reads as infinity, ...). Each damaged
//! document must decode to `Err` or to a value that re-encodes to a
//! document decoding back to the same value — never panic (the test runs
//! with overflow checks in a debug build), and never accept a value its
//! own encoder cannot write. A decoded metrics histogram's buckets must
//! add up to its count exactly.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::panic::{catch_unwind, AssertUnwindSafe};
use symloc_core::job::{Heartbeat, JobKind};
use symloc_core::obs::MetricsRegistry;

/// Seeded cases per kind of damage and document.
const CASES: usize = 3000;

/// Bytes a single-byte change writes half the time: the ones most likely
/// to keep a document parseable.
const STRUCTURAL: &[u8] = b"0123456789[]{},:\"-+.eE tfn";

/// What a number in a document may be replaced with.
const BOUNDARY_NUMBERS: &[&str] = &[
    "0",
    "1",
    "-1",
    "-0",
    "-0.0",
    "0.5",
    "1e999",
    "-1e999",
    "18446744073709551615",
    "18446744073709551616",
    "340282366920938463463374607431768211456",
    "9223372036854775808",
];

#[derive(Debug, Clone, Copy)]
enum Damage {
    Byte,
    Truncation,
    Number,
}

/// Two heartbeats: one mid-run with a progress counter and an ETA, one
/// with neither.
fn heartbeats() -> Vec<String> {
    let live = Heartbeat {
        job_kind: JobKind::FusedIngest,
        fingerprint: "sltr:/data/w.sltr".to_string(),
        completed: 3,
        total: 8,
        batches: 3,
        items: Some(("accesses".to_string(), 1_500_000)),
        elapsed_secs: 1.234_567_8,
        units_per_sec: 2.430_000_1,
        instant_units_per_sec: 12.5,
        eta_secs: Some(0.4),
    };
    let bare = Heartbeat {
        job_kind: JobKind::ShardedSweep,
        fingerprint: "m=9;stat=inversions;model=lru_stack".to_string(),
        completed: 0,
        total: 4,
        batches: 0,
        items: None,
        elapsed_secs: 0.0,
        units_per_sec: 0.0,
        instant_units_per_sec: 0.0,
        eta_secs: None,
    };
    vec![live.to_json(), bare.to_json()]
}

/// A snapshot with counters, gauges and two histograms over several
/// buckets, like a trace job's `--metrics` file.
fn metrics_snapshot() -> String {
    let mut registry = MetricsRegistry::new();
    registry.add("job.units", 4);
    registry.add("job.batches", 2);
    registry.set_gauge("job.elapsed_secs", 0.731_25);
    registry.set_gauge("estimator.sampling_rate", 0.062_5);
    for nanos in [0, 1, 900, 70_000, 70_001, 3_000_000, 123_456_789] {
        registry.observe("job.unit_nanos", nanos);
    }
    registry.observe("job.save_nanos", 400_000);
    registry.to_json()
}

/// The byte ranges of the numbers in `doc`.
fn numbers(doc: &[u8]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut at = 0;
    while at < doc.len() {
        if doc[at].is_ascii_digit() {
            let len = doc[at..]
                .iter()
                .take_while(|b| b.is_ascii_digit() || b"+-.eE".contains(b))
                .count();
            out.push((at, at + len));
            at += len;
        } else {
            at += 1;
        }
    }
    out
}

/// `doc` with `damage` done to it, as the text a reader would get
/// (invalid UTF-8 replaced, as reading it lossily would).
fn damaged(doc: &str, damage: Damage, rng: &mut StdRng) -> String {
    let mut bytes = doc.as_bytes().to_vec();
    match damage {
        Damage::Byte => {
            let at = rng.gen_range(0..bytes.len());
            bytes[at] = if rng.gen_range(0..2u32) == 0 {
                STRUCTURAL[rng.gen_range(0..STRUCTURAL.len())]
            } else {
                rng.gen_range(0..=255u8)
            };
        }
        Damage::Truncation => bytes.truncate(rng.gen_range(0..bytes.len())),
        Damage::Number => {
            let spans = numbers(&bytes);
            let (start, end) = spans[rng.gen_range(0..spans.len())];
            let with = BOUNDARY_NUMBERS[rng.gen_range(0..BOUNDARY_NUMBERS.len())];
            bytes.splice(start..end, with.bytes());
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// A decoder's check of one document; it panics when the check fails.
type Check = fn(&str);

/// Decodes `text` as a heartbeat; an accepted one must survive its own
/// encoder.
fn check_heartbeat(text: &str) {
    if let Ok(heartbeat) = Heartbeat::from_json(text) {
        let again = Heartbeat::from_json(&heartbeat.to_json());
        assert_eq!(again.as_ref(), Ok(&heartbeat), "accepted {text:?}");
    }
}

/// Decodes `text` as a metrics snapshot; an accepted one must survive its
/// own encoder, and its histograms' buckets must add up to their counts.
fn check_metrics(text: &str) {
    if let Ok(registry) = MetricsRegistry::from_json(text) {
        let again = MetricsRegistry::from_json(&registry.to_json());
        assert_eq!(again.as_ref(), Ok(&registry), "accepted {text:?}");
        for (name, _) in registry.iter() {
            if let Some(h) = registry.histogram(name) {
                let buckets: u128 = h.nonzero_buckets().map(|(_, n)| u128::from(n)).sum();
                assert_eq!(buckets, u128::from(h.count()), "{name} in {text:?}");
            }
        }
    }
}

#[test]
fn damaged_heartbeats_and_metrics_snapshots_decode_right_or_fail() {
    let mut rng = StdRng::seed_from_u64(0x4b_6d);
    let mut documents: Vec<(String, Check)> = heartbeats()
        .into_iter()
        .map(|doc| (doc, check_heartbeat as Check))
        .collect();
    documents.push((metrics_snapshot(), check_metrics));
    for (doc, check) in &documents {
        check(doc);
        for damage in [Damage::Byte, Damage::Truncation, Damage::Number] {
            for _ in 0..CASES {
                let text = damaged(doc, damage, &mut rng);
                let outcome = catch_unwind(AssertUnwindSafe(|| check(&text)));
                assert!(outcome.is_ok(), "{damage:?} panicked on {text:?}");
            }
        }
    }
}

/// Bucket counts that overflow a `u64` when added: in a release build the
/// sum used to wrap around to the recorded count and be accepted, and in
/// a debug build it panicked.
#[test]
fn metrics_buckets_that_overflow_are_rejected() {
    for (count, buckets) in [
        (0, "[[0, 18446744073709551615], [1, 1]]"),
        (1, "[[0, 18446744073709551615], [1, 2]]"),
        (
            5,
            "[[3, 18446744073709551615], [7, 18446744073709551615], [9, 7]]",
        ),
    ] {
        let text = format!(
            "{{\"kind\": \"symloc_metrics\", \"version\": 1, \"histograms\": {{\"h\": \
             {{\"count\": {count}, \"sum\": 0, \"min\": 0, \"max\": 0, \"buckets\": {buckets}}}}}}}"
        );
        let outcome = catch_unwind(|| MetricsRegistry::from_json(&text));
        let err = outcome.expect("no panic").unwrap_err();
        assert!(err.contains("structurally invalid"), "{err}");
    }
}

/// `doc` with the value of its member `field` replaced by `value`.
fn with_value(doc: &str, field: &str, value: &str) -> String {
    let key = format!("\"{field}\": ");
    let start = doc.find(&key).expect("the field is written") + key.len();
    let end = start + doc[start..].find([',', '\n']).unwrap();
    format!("{}{value}{}", &doc[..start], &doc[end..])
}

/// Times and rates a heartbeat writer never produces — infinite ones
/// would render as `inf`, which is not JSON — are errors.
#[test]
fn heartbeats_with_infinite_or_negative_times_are_rejected() {
    let good = heartbeats().remove(0);
    for field in [
        "elapsed_secs",
        "units_per_sec",
        "instant_units_per_sec",
        "eta_secs",
    ] {
        assert!(Heartbeat::from_json(&with_value(&good, field, "7.5")).is_ok());
        for bad in ["1e999", "-1e999", "-2.5"] {
            let err = Heartbeat::from_json(&with_value(&good, field, bad)).unwrap_err();
            assert!(err.contains(field), "{field} = {bad}: {err}");
        }
    }
}
