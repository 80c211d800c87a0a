//! `symloc partition` — the offline MRC-driven shared-cache partitioner.
//!
//! Feeds [`symloc_core::partition`] from either of the two places tenant
//! curves already live:
//!
//! * **MRC reports** (`symloc trace mrc --json` output, one file per
//!   tenant, tenant named by file stem): the curve comes from the
//!   report's `mrc` array (or the `exact`/`sampled` sub-document of a
//!   fused report), the traffic weight from its `accesses` count.
//! * **A serve checkpoint** (`--checkpoint`): the daemon's persisted
//!   tenant table, evaluated over the exact grid the live `PARTITION`
//!   wire command uses — the offline answer line is byte-identical to
//!   the daemon's, which the CI smoke test diffs.
//!
//! With `--verify` (report mode), the command closes the loop: it
//! replays each report's recorded trace source through the exact reuse
//! engine, simulates every tenant at its allocated size, and reports
//! predicted vs simulated aggregate miss ratio — plus the same
//! simulation under an equal split, so the solver's advantage is
//! measured, not asserted.

use std::fmt::Write as _;
use std::path::Path;

use symloc_core::jsonio::{self, JsonValue};
use symloc_core::partition::{solve, Bounds, PartitionSolution, TenantCurve};
use symloc_core::serve::{ServeState, PARTITION_MRC_POINTS};
use symloc_core::tracesweep::{MrcPoint, OnlineReuseEngine};
use symloc_trace::stream::{ReadPlan, TraceSource};

use super::flags::{CommandSpec, FlagSpec, CHECKPOINT, JSON};
use super::CliError;

/// `--points K`: checkpoint-mode curve grid density.
const POINTS: FlagSpec = FlagSpec::value(
    "--points",
    "K",
    "curve points per tenant in --checkpoint mode (default 32, the PARTITION wire grid)",
);

/// `--floor N`: per-tenant minimum allocation.
const FLOOR: FlagSpec = FlagSpec::value(
    "--floor",
    "N",
    "minimum cache blocks every tenant must receive (default 0)",
);

/// `--cap N`: per-tenant maximum allocation.
const CAP: FlagSpec = FlagSpec::value(
    "--cap",
    "N",
    "maximum cache blocks any tenant may receive (default unlimited)",
);

/// `--verify`: replay the workloads under the chosen allocation.
const VERIFY: FlagSpec = FlagSpec::switch(
    "--verify",
    "replay each report's trace source exactly and compare predicted vs simulated \
     aggregate miss ratio (report mode only)",
);

/// The declarative table for `symloc partition`.
pub(crate) const PARTITION: CommandSpec = CommandSpec {
    name: "partition",
    summary: "split a shared cache budget across tenants to minimize aggregate miss ratio",
    usage: "symloc partition <budget> [report.json ...] [--checkpoint FILE]\n  \
            [--points K] [--floor N] [--cap N] [--verify] [--json]",
    positionals: &[
        ("budget", "total cache blocks to split"),
        (
            "report.json",
            "one or more `symloc trace mrc --json` reports, one tenant per file",
        ),
    ],
    variadic: true,
    flags: &[CHECKPOINT, POINTS, FLOOR, CAP, VERIFY, JSON],
};

/// One tenant's curve plus the trace source it was measured over (when
/// the report recorded a reconstructible one).
struct ReportTenant {
    curve: TenantCurve,
    source: Option<String>,
}

/// Extracts `[[size, ratio], ...]` into [`MrcPoint`]s.
fn points_from_array(path: &str, array: &[JsonValue]) -> Result<Vec<MrcPoint>, CliError> {
    let mut points = Vec::with_capacity(array.len());
    for pair in array {
        let pair = pair
            .as_array()
            .ok_or_else(|| CliError(format!("{path}: mrc entry is not a [size, ratio] pair")))?;
        let (size, ratio) = match pair {
            [size, ratio] => (
                size.as_usize()
                    .ok_or_else(|| CliError(format!("{path}: bad mrc cache size")))?,
                ratio
                    .as_f64()
                    .ok_or_else(|| CliError(format!("{path}: bad mrc miss ratio")))?,
            ),
            _ => {
                return Err(CliError(format!(
                    "{path}: mrc entry is not a [size, ratio] pair"
                )))
            }
        };
        points.push(MrcPoint {
            cache_size: size,
            miss_ratio: ratio,
        });
    }
    Ok(points)
}

/// Loads one tenant from a `symloc trace mrc --json` report. Accepts the
/// plain shape (top-level `mrc`) and the fused shape (`exact`/`sampled`
/// sub-documents; exact preferred).
fn load_report(path: &str) -> Result<ReportTenant, CliError> {
    let name = Path::new(path)
        .file_stem()
        .and_then(|s| s.to_str())
        .ok_or_else(|| CliError(format!("cannot derive a tenant name from {path:?}")))?
        .to_string();
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError(format!("cannot read MRC report {path}: {e}")))?;
    let doc = jsonio::parse(&text)
        .map_err(|e| CliError(format!("{path} is not a JSON MRC report: {e}")))?;
    let accesses = doc
        .get("accesses")
        .and_then(JsonValue::as_u64)
        .ok_or_else(|| CliError(format!("{path}: report has no \"accesses\" count")))?;
    let mrc = doc
        .get("mrc")
        .or_else(|| doc.get("exact").and_then(|e| e.get("mrc")))
        .or_else(|| doc.get("sampled").and_then(|s| s.get("mrc")))
        .and_then(JsonValue::as_array)
        .ok_or_else(|| {
            CliError(format!(
                "{path}: report has no \"mrc\" array (nor a fused exact/sampled one)"
            ))
        })?;
    let points = points_from_array(path, mrc)?;
    #[allow(clippy::cast_precision_loss)]
    let curve = TenantCurve::from_points(&name, accesses as f64, &points)
        .map_err(|e| CliError(format!("{path}: {e}")))?;
    Ok(ReportTenant {
        curve,
        source: doc
            .get("source")
            .and_then(JsonValue::as_str)
            .map(ToString::to_string),
    })
}

/// One tenant's what-if simulation: exact miss ratios at the solver's
/// allocation and at the equal split.
struct SimulatedTenant {
    name: String,
    accesses: u64,
    solver_miss_ratio: f64,
    equal_miss_ratio: f64,
}

/// Replays every tenant's trace source through the exact engine and
/// simulates both the solver's allocation and the equal split. A source
/// that cannot be read or decoded is an error naming it.
fn simulate(
    tenants: &[ReportTenant],
    solution: &PartitionSolution,
    equal_share: u64,
) -> Result<Vec<SimulatedTenant>, CliError> {
    let mut rows = Vec::with_capacity(tenants.len());
    for (tenant, allocation) in tenants.iter().zip(&solution.allocations) {
        let fingerprint = tenant.source.as_deref().ok_or_else(|| {
            CliError(format!(
                "tenant {:?}: report records no trace source to replay (--verify needs one)",
                tenant.curve.name()
            ))
        })?;
        let source = TraceSource::from_fingerprint(fingerprint)
            .map_err(|e| CliError(format!("tenant {:?}: {e}", tenant.curve.name())))?;
        let cannot_replay = |e| CliError(format!("cannot replay {fingerprint}: {e}"));
        let plan = ReadPlan::whole(&source).map_err(cannot_replay)?;
        let mut blocks = source
            .read_blocks(&plan, 0, u64::MAX)
            .map_err(cannot_replay)?;
        let mut engine = OnlineReuseEngine::new();
        let mut block = Vec::new();
        while blocks.try_next_block(&mut block).map_err(cannot_replay)? > 0 {
            engine.record_block(&block);
        }
        let histogram = engine.histogram();
        let at = |size: u64| histogram.miss_ratio(usize::try_from(size).unwrap_or(usize::MAX));
        rows.push(SimulatedTenant {
            name: allocation.name.clone(),
            accesses: histogram.accesses(),
            solver_miss_ratio: at(allocation.size),
            equal_miss_ratio: at(equal_share),
        });
    }
    Ok(rows)
}

/// Traffic-weighted aggregate of per-tenant simulated miss ratios.
fn aggregate(rows: &[SimulatedTenant], pick: impl Fn(&SimulatedTenant) -> f64) -> f64 {
    let total: u64 = rows.iter().map(|r| r.accesses).sum();
    if total == 0 {
        return 0.0;
    }
    #[allow(clippy::cast_precision_loss)]
    let weighted: f64 = rows.iter().map(|r| r.accesses as f64 * pick(r)).sum();
    #[allow(clippy::cast_precision_loss)]
    let ratio = weighted / total as f64;
    ratio
}

/// Renders the machine-readable report. The `answer` field is the exact
/// compact line the daemon's `PARTITION` command returns (minus the `OK `
/// prefix), so scripts diff the two directly.
fn json_report(
    solution: &PartitionSolution,
    verify: Option<&(Vec<SimulatedTenant>, u64)>,
) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"budget\": {},", solution.budget);
    let _ = writeln!(out, "  \"allocated\": {},", solution.allocated);
    let _ = writeln!(
        out,
        "  \"predicted_aggregate_miss_ratio\": {},",
        solution.predicted_aggregate_miss_ratio
    );
    let _ = writeln!(
        out,
        "  \"answer\": \"{}\",",
        jsonio::escape(&solution.render_compact())
    );
    out.push_str("  \"allocations\": [\n");
    for (i, a) in solution.allocations.iter().enumerate() {
        let sep = if i + 1 < solution.allocations.len() {
            ","
        } else {
            ""
        };
        let _ = writeln!(
            out,
            "    {{\"tenant\": \"{}\", \"size\": {}, \"weight\": {}, \
             \"predicted_miss_ratio\": {}}}{sep}",
            jsonio::escape(&a.name),
            a.size,
            a.weight,
            a.predicted_miss_ratio
        );
    }
    out.push_str("  ]");
    if let Some((rows, equal_share)) = verify {
        out.push_str(",\n  \"verify\": {\n");
        let _ = writeln!(
            out,
            "    \"simulated_aggregate_miss_ratio\": {},",
            aggregate(rows, |r| r.solver_miss_ratio)
        );
        let _ = writeln!(out, "    \"equal_split_share\": {equal_share},");
        let _ = writeln!(
            out,
            "    \"equal_split_simulated_aggregate_miss_ratio\": {},",
            aggregate(rows, |r| r.equal_miss_ratio)
        );
        out.push_str("    \"tenants\": [\n");
        for (i, r) in rows.iter().enumerate() {
            let sep = if i + 1 < rows.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "      {{\"tenant\": \"{}\", \"accesses\": {}, \"simulated_miss_ratio\": {}, \
                 \"equal_split_miss_ratio\": {}}}{sep}",
                jsonio::escape(&r.name),
                r.accesses,
                r.solver_miss_ratio,
                r.equal_miss_ratio
            );
        }
        out.push_str("    ]\n  }");
    }
    out.push_str("\n}\n");
    out
}

/// Renders the human report.
fn text_report(
    solution: &PartitionSolution,
    verify: Option<&(Vec<SimulatedTenant>, u64)>,
) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "partition: {} block(s) across {} tenant(s), {} allocated",
        solution.budget,
        solution.allocations.len(),
        solution.allocated
    );
    for a in &solution.allocations {
        let _ = writeln!(
            out,
            "  {:24} {:>12} block(s)  predicted miss ratio {:.4}",
            a.name, a.size, a.predicted_miss_ratio
        );
    }
    let _ = writeln!(
        out,
        "predicted aggregate miss ratio: {:.4}",
        solution.predicted_aggregate_miss_ratio
    );
    let _ = writeln!(out, "answer: {}", solution.render_compact());
    if let Some((rows, equal_share)) = verify {
        let solver = aggregate(rows, |r| r.solver_miss_ratio);
        let equal = aggregate(rows, |r| r.equal_miss_ratio);
        let _ = writeln!(out, "what-if verification (exact replay):");
        for r in rows {
            let _ = writeln!(
                out,
                "  {:24} simulated miss ratio {:.4} (equal split {:.4})",
                r.name, r.solver_miss_ratio, r.equal_miss_ratio
            );
        }
        let _ = writeln!(
            out,
            "simulated aggregate miss ratio: {solver:.4} under the solver's allocation, \
             {equal:.4} under an equal split of {equal_share} block(s) per tenant"
        );
    }
    out
}

/// Entry point for `symloc partition`.
///
/// # Errors
///
/// Returns a [`CliError`] for invalid flags, unreadable or malformed
/// curve sources, or a solver rejection (empty tenant set, degenerate
/// budget, infeasible bounds).
pub fn partition(args: &[String]) -> Result<String, CliError> {
    let Some(parsed) = PARTITION.parse(args)? else {
        return Ok(PARTITION.help());
    };
    let budget: u64 = parsed
        .positional(0, "partition", "a budget in cache blocks")?
        .parse()
        .map_err(|_| CliError("budget must be a number of cache blocks".into()))?;
    let reports = &parsed.positionals[1..];
    let checkpoint = parsed.value(CHECKPOINT.name);
    let points = parsed.usize(POINTS.name)?.unwrap_or(PARTITION_MRC_POINTS);
    let floor = parsed.u64(FLOOR.name)?.unwrap_or(0);
    let cap = parsed.u64(CAP.name)?.unwrap_or(u64::MAX);
    let verify = parsed.switch(VERIFY.name);
    let json = parsed.switch(JSON.name);

    let report_tenants: Vec<ReportTenant> = match (reports.is_empty(), checkpoint) {
        (false, Some(_)) => {
            return Err(CliError(
                "give either MRC report files or --checkpoint, not both".into(),
            ))
        }
        (true, None) => {
            return Err(CliError(
                "partition needs tenant curves: MRC report files or --checkpoint FILE".into(),
            ))
        }
        (false, None) => reports
            .iter()
            .map(|path| load_report(path))
            .collect::<Result<_, _>>()?,
        (true, Some(path)) => {
            if verify {
                return Err(CliError(
                    "--verify replays recorded trace sources, which only MRC reports carry \
                     (a serve checkpoint records curves, not traces)"
                        .into(),
                ));
            }
            let text = std::fs::read_to_string(path)
                .map_err(|e| CliError(format!("cannot read serve checkpoint {path}: {e}")))?;
            let state = ServeState::from_json(&text)
                .map_err(|e| CliError(format!("bad serve checkpoint {path}: {e}")))?;
            let curves = if points == PARTITION_MRC_POINTS {
                state.tenant_curves().map_err(CliError)?
            } else {
                state
                    .tenants()
                    .map(|t| {
                        let mrc = state.mrc(t.name(), points)?;
                        #[allow(clippy::cast_precision_loss)]
                        TenantCurve::from_points(t.name(), t.accesses() as f64, &mrc)
                    })
                    .collect::<Result<_, _>>()
                    .map_err(CliError)?
            };
            curves
                .into_iter()
                .map(|curve| ReportTenant {
                    curve,
                    source: None,
                })
                .collect()
        }
    };

    let curves: Vec<TenantCurve> = report_tenants.iter().map(|t| t.curve.clone()).collect();
    let bounds = vec![Bounds { floor, cap }; curves.len()];
    let solution = solve(&curves, budget, &bounds).map_err(CliError)?;

    let verification = if verify {
        let equal_share = budget / curves.len() as u64;
        Some((
            simulate(&report_tenants, &solution, equal_share)?,
            equal_share,
        ))
    } else {
        None
    };

    Ok(if json {
        json_report(&solution, verification.as_ref())
    } else {
        text_report(&solution, verification.as_ref())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cli::sargs;

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("symloc-partition-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Generates an MRC report the way `symloc trace mrc --json` does.
    fn write_report(dir: &Path, name: &str, spec: &str) -> String {
        let report = crate::cli::trace(&sargs(&format!("mrc {spec} --exact --json"))).unwrap();
        let path = dir.join(format!("{name}.json"));
        std::fs::write(&path, report).unwrap();
        path.to_string_lossy().to_string()
    }

    #[test]
    fn partitions_reports_and_verifies_against_equal_split() {
        let dir = tmp_dir("reports");
        // Skewed vs uniform: zipf concentrates on few addresses, random
        // spreads across many — the acceptance-criteria pair.
        let skewed = write_report(&dir, "skewed", "gen:zipf:512:6000:1.2:7");
        let uniform = write_report(&dir, "uniform", "gen:random:512:6000:7");
        let out = partition(&sargs(&format!("160 {skewed} {uniform} --verify"))).unwrap();
        assert!(
            out.contains("partition: 160 block(s) across 2 tenant(s)"),
            "{out}"
        );
        assert!(out.contains("skewed"), "{out}");
        assert!(out.contains("what-if verification"), "{out}");
        // The solver's simulated aggregate beats the equal split strictly.
        let line = out
            .lines()
            .find(|l| l.starts_with("simulated aggregate miss ratio:"))
            .unwrap();
        let mut ratios = line
            .split(|c: char| !c.is_ascii_digit() && c != '.')
            .filter(|w| w.contains('.'))
            .map(|w| w.parse::<f64>().unwrap());
        let solver = ratios.next().unwrap();
        let equal = ratios.next().unwrap();
        assert!(
            solver < equal,
            "solver {solver} should strictly beat equal split {equal}: {out}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn json_answer_matches_the_compact_line() {
        let dir = tmp_dir("json");
        let a = write_report(&dir, "a", "gen:cyclic:32:8");
        let out = partition(&sargs(&format!("64 {a} --json"))).unwrap();
        let doc = jsonio::parse(&out).unwrap();
        let answer = doc.get("answer").and_then(JsonValue::as_str).unwrap();
        assert!(answer.starts_with("partition 64 "), "{answer}");
        assert_eq!(doc.get("budget").and_then(JsonValue::as_u64), Some(64));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_mode_matches_the_daemon_answer() {
        let dir = tmp_dir("ckpt");
        let path = dir.join("serve.ckpt.json");
        let mut state = ServeState::new(64, 8).unwrap();
        let hot = state.ensure_tenant("hot").unwrap();
        let block: Vec<u64> = (0..300).map(|i| i % 5).collect();
        state.record_block(hot, &block);
        let cold = state.ensure_tenant("cold").unwrap();
        let block: Vec<u64> = (0..300).collect();
        state.record_block(cold, &block);
        state.save(&path).unwrap();
        let daemon_answer = state.partition(32).unwrap().render_compact();
        let out = partition(&sargs(&format!(
            "32 --checkpoint {} --json",
            path.display()
        )))
        .unwrap();
        let doc = jsonio::parse(&out).unwrap();
        assert_eq!(
            doc.get("answer").and_then(JsonValue::as_str),
            Some(daemon_answer.as_str())
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bad_inputs_are_loud_named_errors() {
        let dir = tmp_dir("bad");
        // Mangled checkpoint: valid JSON, broken tenant entry.
        let path = dir.join("serve.ckpt.json");
        let mut state = ServeState::new(64, 8).unwrap();
        let t = state.ensure_tenant("t").unwrap();
        state.record_block(t, &[1, 2, 3, 1]);
        let mangled = state
            .to_json()
            .replace("\"threshold\": ", "\"threshold\": 0, \"x\": ");
        std::fs::write(&path, mangled).unwrap();
        let err = partition(&sargs(&format!("32 --checkpoint {}", path.display()))).unwrap_err();
        assert!(err.0.contains("bad serve checkpoint"), "{err}");
        assert!(err.0.contains("threshold"), "{err}");
        // No curves at all / both sources at once.
        let err = partition(&sargs("32")).unwrap_err();
        assert!(err.0.contains("needs tenant curves"), "{err}");
        let err = partition(&sargs(&format!(
            "32 r.json --checkpoint {}",
            path.display()
        )))
        .unwrap_err();
        assert!(err.0.contains("not both"), "{err}");
        // A report that is not JSON.
        let bogus = dir.join("bogus.json");
        std::fs::write(&bogus, "not json").unwrap();
        let err = partition(&sargs(&format!("8 {}", bogus.display()))).unwrap_err();
        assert!(err.0.contains("not a JSON MRC report"), "{err}");
        // Verify needs sources, which checkpoints don't carry.
        let good = dir.join("good.ckpt.json");
        state.save(&good).unwrap();
        let err = partition(&sargs(&format!(
            "8 --checkpoint {} --verify",
            good.display()
        )))
        .unwrap_err();
        assert!(err.0.contains("--verify"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
