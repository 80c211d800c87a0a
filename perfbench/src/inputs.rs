//! Seeded input generation. Every input is generated from `--seed` before
//! any timing starts; the binary only ever sees the generated files and
//! bytes.

use std::io::Write as _;
use std::path::{Path, PathBuf};

use symloc_core::serve::ServeState;
use symloc_trace::binio::write_sltr_indexed;
use symloc_trace::stream::GenSpec;
use symloc_trace::wire::WIRE_BLOCK_LEN;
use symloc_trace::Trace;

/// `symloc serve`'s default `--budget` and `--max-tenants`: the resume
/// checkpoint must carry the same plan for the daemon to resume it.
const SERVE_BUDGET: usize = 1024;
const SERVE_MAX_TENANTS: usize = 64;
const SERVE_TENANTS: usize = 8;

/// Input and run sizes. `full` is what the benchmark measures; `smoke`
/// is the self-test's quick variant of the same shapes.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Address space of the Zipf trace (distinct 64-bit addresses).
    pub trace_distinct: u64,
    /// Accesses in the trace.
    pub trace_len: u64,
    /// `WIRE_BLOCK_LEN`-access tenant segments in one serve ingest round.
    pub serve_segments: usize,
    /// Accesses per tenant already in the serve resume checkpoint.
    pub serve_warm: u64,
    /// Degree of the exhaustive sweep.
    pub sweep_m: usize,
    /// Fewest set-up repetitions per run; `setup_s` is their median.
    pub setup_reps: usize,
    /// Open-loop query rate against the daemon, per second.
    pub query_rate: f64,
    /// Ingest rate beside the queries, in accesses per second.
    pub ingest_pace: f64,
}

impl Sizes {
    pub const fn full() -> Sizes {
        Sizes {
            trace_distinct: 1 << 20,
            trace_len: 4_000_000,
            serve_segments: 256,
            serve_warm: 1 << 16,
            sweep_m: 11,
            setup_reps: 11,
            query_rate: 40.0,
            ingest_pace: 400_000.0,
        }
    }

    pub const fn smoke() -> Sizes {
        Sizes {
            trace_distinct: 1 << 14,
            trace_len: 100_000,
            serve_segments: 16,
            serve_warm: 4096,
            sweep_m: 7,
            setup_reps: 3,
            query_rate: 100.0,
            ingest_pace: 400_000.0,
        }
    }
}

/// SplitMix64 step: the seed expander for every generator here.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Maps a dense id to a scattered 64-bit address. A bijection for every
/// `salt` (xor, odd multiply and xor-shift are each invertible), so
/// distinct ids stay distinct addresses, spread over the whole 64-bit
/// space. Like real traces, they miss the interner's dense-array fast
/// path (ids below 2^21) and take its hash-table path.
pub fn scatter(id: u64, salt: u64) -> u64 {
    let mut x = id ^ salt;
    x = x.wrapping_mul(0xD6E8_FEB8_6659_FD93);
    x ^= x >> 32;
    x = x.wrapping_mul(0xD6E8_FEB8_6659_FD93);
    x ^ (x >> 29)
}

/// `len` Zipf(`s`) accesses over `m` ids, scattered with `salt`.
fn zipf_addresses(m: u64, len: u64, s: f64, seed: u64, salt: u64) -> Vec<u64> {
    GenSpec::Zipf { m, len, s, seed }
        .stream()
        .map(|id| scatter(id, salt))
        .collect()
}

/// The `trace-fused` input: an indexed `.sltr` (SLIX sidecar beside it)
/// of a Zipf(0.8) trace over scattered addresses. Returns the path and
/// the accesses, which the output checks and the traced run replay.
pub fn build_trace(dir: &Path, sizes: &Sizes, seed: u64) -> Result<(PathBuf, Vec<u64>), String> {
    let accesses = zipf_addresses(
        sizes.trace_distinct,
        sizes.trace_len,
        0.8,
        seed,
        mix(seed ^ 0x7472_6163),
    );
    let trace: Trace = accesses
        .iter()
        .map(|&a| usize::try_from(a).expect("64-bit target"))
        .collect();
    let path = dir.join("trace.sltr");
    write_sltr_indexed(&trace, &path, 4096).map_err(|e| format!("cannot write trace: {e}"))?;
    Ok((path, accesses))
}

/// The `serve-loopback` inputs.
pub struct ServeInputs {
    /// The 8-tenant checkpoint the daemon resumes from.
    pub checkpoint: PathBuf,
    pub tenants: Vec<String>,
    /// One ingest round: `(tenant index, WIRE_BLOCK_LEN accesses)` in
    /// send order.
    pub segments: Vec<(usize, Vec<u64>)>,
    /// The round as wire bytes: a `HELLO` before every segment, one
    /// decimal address per line, and a final `PING`.
    pub wire: Vec<u8>,
    /// Where each segment's bytes end in `wire` (the `PING` follows the
    /// last).
    pub segment_ends: Vec<usize>,
}

impl ServeInputs {
    pub fn round_accesses(&self) -> u64 {
        (self.segments.len() * WIRE_BLOCK_LEN) as u64
    }
}

/// Builds the serve inputs: even tenants are hot (Zipf 1.0 over 16 Ki
/// addresses) and get three times the traffic of odd, cold ones (Zipf 0.5
/// over 1 Mi addresses). Each tenant's first `serve_warm` accesses go
/// into the resume checkpoint through `ServeState`; the rest form the
/// round.
pub fn build_serve(dir: &Path, sizes: &Sizes, seed: u64) -> Result<ServeInputs, String> {
    let tenants: Vec<String> = (0..SERVE_TENANTS).map(|i| format!("t{i}")).collect();
    let mut state = mix(seed ^ 0x7365_7276);
    let order: Vec<usize> = (0..sizes.serve_segments)
        .map(|_| {
            state = mix(state);
            // Weights 3:1 hot:cold over four hot and four cold tenants.
            let pick = (state % 16) as usize;
            if pick < 12 {
                (pick % 4) * 2
            } else {
                (pick % 4) * 2 + 1
            }
        })
        .collect();
    let mut streams: Vec<std::vec::IntoIter<u64>> = (0..SERVE_TENANTS)
        .map(|t| {
            let segments = order.iter().filter(|&&o| o == t).count() as u64;
            let len = sizes.serve_warm + segments * WIRE_BLOCK_LEN as u64;
            let (m, s) = if t % 2 == 0 {
                (1 << 14, 1.0)
            } else {
                (1 << 20, 0.5)
            };
            let tseed = mix(seed.wrapping_add(t as u64 + 1));
            zipf_addresses(m, len, s, tseed, mix(tseed)).into_iter()
        })
        .collect();

    let mut serve = ServeState::new(SERVE_BUDGET, SERVE_MAX_TENANTS)?;
    for (t, name) in tenants.iter().enumerate() {
        let index = serve.ensure_tenant(name)?;
        let warm: Vec<u64> = streams[t]
            .by_ref()
            .take(sizes.serve_warm as usize)
            .collect();
        for block in warm.chunks(WIRE_BLOCK_LEN) {
            serve.record_block(index, block);
        }
    }
    let checkpoint = dir.join("serve-resume.json");
    serve
        .save(&checkpoint)
        .map_err(|e| format!("cannot write serve checkpoint: {e}"))?;

    let mut wire = Vec::new();
    let mut segment_ends = Vec::new();
    let segments: Vec<(usize, Vec<u64>)> = order
        .iter()
        .map(|&t| {
            let block: Vec<u64> = streams[t].by_ref().take(WIRE_BLOCK_LEN).collect();
            let _ = writeln!(wire, "HELLO {}", tenants[t]);
            for addr in &block {
                let _ = writeln!(wire, "{addr}");
            }
            segment_ends.push(wire.len());
            (t, block)
        })
        .collect();
    wire.extend_from_slice(b"PING\n");
    Ok(ServeInputs {
        checkpoint,
        tenants,
        segments,
        wire,
        segment_ends,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scatter_is_injective_and_leaves_the_dense_range() {
        let mut seen: Vec<u64> = (0..100_000).map(|i| scatter(i, 42)).collect();
        // Only the id equal to the salt maps to 0; nothing else is dense.
        assert_eq!(seen.iter().filter(|&&a| a < 1 << 21).count(), 1);
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 100_000);
    }
}
