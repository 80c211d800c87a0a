//! Seeded mutation test of the trace readers: a sidecar chunk index may
//! speed a read up or make it fail, but it may never change what is read.
//!
//! Small indexed `.sltr` and text traces get a single-byte change, a
//! truncation or a run of random bytes, in the payload or in the sidecar,
//! and are then read the two ways `symloc trace mrc` reads a file: a
//! three-chunk trace job planned at [`TraceSource::planned_accesses`], and
//! the one streaming read under [`ReadPlan::whole`]. Each read either
//! fails, or returns exactly what a plain decode of the same bytes without
//! the sidecar yields. The count scan [`TraceSource::total_accesses`] (what
//! `symloc trace convert` and a job over a file without a sidecar count
//! with) runs on each too, with the sidecar in place and with it removed,
//! and either fails or returns the plain decode's length. None panics, and
//! none allocates by a count the input claims: the largest single
//! allocation of the test process stays far below what any claimed total
//! would ask for.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use symloc_core::tracesweep::{FusedIngest, TracePlan};
use symloc_trace::binio::{sltr_index_path, write_sltr_indexed, SltrReader};
use symloc_trace::io::write_trace;
use symloc_trace::stream::{build_text_index, ReadPlan, TraceSource};
use symloc_trace::{Addr, Trace};

/// The system allocator, recording the largest single request.
struct LargestRequest;

static LARGEST: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call forwards to `System` unchanged.
unsafe impl GlobalAlloc for LargestRequest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.fetch_max(new_size, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: LargestRequest = LargestRequest;

/// Seeded cases per kind of damage.
const CASES: u64 = 2000;
/// Accesses between sidecar entries: small, so a short trace has many.
const INTERVAL: u64 = 16;
/// No single allocation of a read may reach this; the interner's direct
/// array, the largest the readers make, stays at 8 MiB.
const ALLOCATION_BOUND: usize = 32 << 20;

#[derive(Debug, Clone, Copy)]
enum Damage {
    Byte,
    Truncation,
    RandomBytes,
}

/// One trace in one format: the file and sidecar bytes to damage.
struct Original {
    name: &'static str,
    text: bool,
    trace: Vec<u8>,
    sidecar: Vec<u8>,
}

/// About 300 Zipf-like accesses over addresses of one to five varint
/// bytes, so varints straddle the sidecar's offsets. None falls between
/// 2^14 and 2^21, where the interner would size its direct array by the
/// address.
fn accesses() -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(0x51_1c);
    (0..300)
        .map(|_| {
            let rank = (rng.gen::<f64>().powi(3) * 90.0) as u64;
            match rng.gen_range(0..4u32) {
                0 => rank,
                1 => rank * 131,
                2 => (1 << 21) + rank * 70_001,
                _ => (1 << 32) + rank * 3_000_000_019,
            }
        })
        .collect()
}

/// The indexed `.sltr` and text files of [`accesses`], read back as bytes.
fn originals(dir: &Path) -> Vec<Original> {
    let trace: Trace = accesses()
        .into_iter()
        .map(|a| Addr(usize::try_from(a).unwrap()))
        .collect();
    let sltr = dir.join("original.sltr");
    write_sltr_indexed(&trace, &sltr, INTERVAL).unwrap();
    let text = dir.join("original.trace");
    write_trace(&trace, &text).unwrap();
    std::fs::write(
        sltr_index_path(&text),
        build_text_index(&text, INTERVAL).unwrap().to_bytes(),
    )
    .unwrap();
    [("sltr", false, sltr), ("text", true, text)]
        .into_iter()
        .map(|(name, text, path)| Original {
            name,
            text,
            trace: std::fs::read(&path).unwrap(),
            sidecar: std::fs::read(sltr_index_path(&path)).unwrap(),
        })
        .collect()
}

/// `bytes` with `damage` done to them.
fn damaged(bytes: &[u8], damage: Damage, rng: &mut StdRng) -> Vec<u8> {
    let mut out = bytes.to_vec();
    match damage {
        Damage::Byte => {
            let at = rng.gen_range(0..out.len());
            out[at] ^= rng.gen_range(1..=255u8);
        }
        Damage::Truncation => out.truncate(rng.gen_range(0..bytes.len())),
        Damage::RandomBytes => {
            if rng.gen_range(0..8u32) == 0 {
                let len = rng.gen_range(0..2 * bytes.len());
                out = (0..len).map(|_| rng.gen_range(0..=255u8)).collect();
            } else {
                let at = rng.gen_range(0..out.len());
                let len = rng.gen_range(1..=16usize).min(out.len() - at);
                for byte in &mut out[at..at + len] {
                    *byte = rng.gen_range(0..=255u8);
                }
            }
        }
    }
    out
}

/// What a plain decode of trace file bytes yields, ignoring any sidecar:
/// the accesses, or `None` when the bytes do not decode.
fn plain_decode(bytes: &[u8], text: bool) -> Option<Vec<u64>> {
    if text {
        let text = std::str::from_utf8(bytes).ok()?;
        text.split('\n')
            .map(str::trim)
            .filter(|line| !line.is_empty() && !line.starts_with('#'))
            .map(|line| line.parse().ok())
            .collect()
    } else {
        SltrReader::new(bytes).ok()?.collect::<Result<_, _>>().ok()
    }
}

/// A checkpoint document without its source fingerprint line.
fn without_fingerprint(document: &str) -> String {
    document
        .lines()
        .filter(|line| !line.contains("\"fingerprint\""))
        .collect::<Vec<_>>()
        .join("\n")
}

/// The three-chunk trace job over `source`, planned and run as `symloc
/// trace mrc` runs it: its checkpoint document, or why it failed.
fn job_read(source: &TraceSource) -> Result<String, String> {
    let mut job = FusedIngest::planned(source, TracePlan::exact(3), 2)?;
    job.run_pending_metered(source, None, None)
        .map_err(|e| e.to_string())?;
    assert!(job.is_complete());
    Ok(job.to_json())
}

/// The streaming read of `source`, as `symloc trace mrc --threads 1` reads
/// it: its accesses, or why it failed.
fn stream_read(source: &TraceSource) -> Result<Vec<u64>, String> {
    let plan = ReadPlan::whole(source).map_err(|e| e.to_string())?;
    let mut blocks = source
        .read_blocks(&plan, 0, u64::MAX)
        .map_err(|e| e.to_string())?;
    let (mut all, mut buf) = (Vec::new(), Vec::new());
    while blocks.try_next_block(&mut buf).map_err(|e| e.to_string())? > 0 {
        all.extend_from_slice(&buf);
    }
    Ok(all)
}

/// The count scan of `source`, whose file is at `path`: with its sidecar in
/// place, then with the sidecar removed. Each count is checked against the
/// plain decode; returns how many of the two succeeded.
fn count_reads(source: &TraceSource, path: &Path, plain: Option<&Vec<u64>>) -> usize {
    let mut succeeded = 0;
    for sidecar in ["with", "without"] {
        if sidecar == "without" {
            std::fs::remove_file(sltr_index_path(path)).unwrap();
        }
        if let Ok(count) = source.total_accesses() {
            assert_eq!(
                Some(count),
                plain.map(|plain| plain.len() as u64),
                "the count {sidecar} the sidecar differs from a plain decode"
            );
            succeeded += 1;
        }
    }
    succeeded
}

/// Reads the damaged files the two ways `trace mrc` does and checks each
/// read against the plain decode, then counts them both ways; returns how
/// many of the two reads, and of the two counts, succeeded.
fn check(path: &Path, text: bool, trace: &[u8], sidecar: &[u8]) -> (usize, usize) {
    std::fs::write(path, trace).unwrap();
    std::fs::write(sltr_index_path(path), sidecar).unwrap();
    let source = if text {
        TraceSource::Text(path.to_path_buf())
    } else {
        TraceSource::Binary(path.to_path_buf())
    };
    let plain = plain_decode(trace, text);
    let mut succeeded = 0;
    if let Ok(document) = job_read(&source) {
        let plain = plain
            .as_ref()
            .expect("the job read bytes a plain decode rejects");
        let memory = TraceSource::Memory(
            plain
                .iter()
                .map(|&a| Addr(usize::try_from(a).unwrap()))
                .collect(),
        );
        let expected = job_read(&memory).unwrap();
        assert_eq!(
            without_fingerprint(&document),
            without_fingerprint(&expected),
            "the job read other accesses than a plain decode"
        );
        succeeded += 1;
    }
    if let Ok(accesses) = stream_read(&source) {
        assert_eq!(
            Some(&accesses),
            plain.as_ref(),
            "the streaming read differs from a plain decode"
        );
        succeeded += 1;
    }
    (succeeded, count_reads(&source, path, plain.as_ref()))
}

#[test]
fn damaged_traces_and_sidecars_are_read_right_or_rejected() {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("symloc_reader_mutations_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let originals = originals(&dir);
    // The undamaged files read right both ways, and count right.
    for original in &originals {
        let path = dir.join(format!("case.{}", original.name));
        assert_eq!(
            check(&path, original.text, &original.trace, &original.sidecar),
            (2, 2),
            "{}",
            original.name
        );
    }
    let mut outcomes = Vec::new();
    for (salt, damage) in [Damage::Byte, Damage::Truncation, Damage::RandomBytes]
        .into_iter()
        .enumerate()
    {
        let (mut read, mut counted) = ([0usize; 3], [0usize; 3]);
        for seed in 0..CASES {
            let mut rng = StdRng::seed_from_u64(seed ^ ((salt as u64 + 1) << 32));
            let original = &originals[(seed % 2) as usize];
            let in_sidecar = seed / 2 % 2 == 1;
            let (trace, sidecar) = if in_sidecar {
                (
                    original.trace.clone(),
                    damaged(&original.sidecar, damage, &mut rng),
                )
            } else {
                (
                    damaged(&original.trace, damage, &mut rng),
                    original.sidecar.clone(),
                )
            };
            let path = dir.join(format!("case.{}", original.name));
            let case = format!(
                "{damage:?} of the {} {} (seed {seed})",
                original.name,
                if in_sidecar { "sidecar" } else { "trace" }
            );
            let (succeeded, counts) = catch_unwind(AssertUnwindSafe(|| {
                check(&path, original.text, &trace, &sidecar)
            }))
            .unwrap_or_else(|panic| {
                let message = panic
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| panic.downcast_ref::<&str>().map(ToString::to_string))
                    .unwrap_or_default();
                panic!("{case}: {message}")
            });
            read[succeeded] += 1;
            counted[counts] += 1;
        }
        outcomes.push((damage, read, counted));
    }
    std::fs::remove_dir_all(&dir).ok();
    // Every kind of damage is caught, and some damage is harmless (a
    // changed digit or comment byte), so both outcomes are exercised; the
    // count scan rejects some damaged files even without their sidecar.
    for (damage, read, counted) in &outcomes {
        assert!(read[0] > 0, "{damage:?}: {read:?}");
        assert!(counted[0] > 0, "{damage:?}: {counted:?}");
    }
    assert!(
        outcomes.iter().any(|(_, read, _)| read[2] > 0),
        "{outcomes:?}"
    );
    assert!(
        outcomes.iter().any(|(_, _, counted)| counted[2] > 0),
        "{outcomes:?}"
    );
    let largest = LARGEST.load(Ordering::Relaxed);
    assert!(
        largest < ALLOCATION_BOUND,
        "a single allocation of {largest} bytes"
    );
}
