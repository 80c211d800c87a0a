//! The persisted tenant table of the `symloc serve` daemon.
//!
//! A [`ServeState`] is a bounded, name-sorted table of tenants, each
//! owning one unsharded [`ShardsEstimator`] fed by that tenant's live
//! access stream. The table is a first-class [`JobKind::ServeState`]
//! checkpoint document: it round-trips through the same
//! `write_checkpoint_header` / `read_checkpoint_fields` codec as the batch
//! pipelines, saves atomically via [`jsonio::save_atomic`], and resumes
//! through [`job::resume_or_new_with`] — so killing the daemon mid-stream
//! and restarting it restores every tenant byte-identically (the same
//! guarantee the five batch kinds pin with proptests).
//!
//! Unlike a batch checkpoint there is no planned end: a serve checkpoint
//! is a snapshot of a daemon, and `symloc job status` reports every
//! persisted tenant as complete.
//!
//! Tenant capacity is a hard cap with *loud* rejection: once
//! `max_tenants` keyspaces exist, a `HELLO` for a new name errors (and
//! bumps the `serve.rejected` counter) instead of silently evicting or
//! aliasing — SHARDS makes each tenant O(budget), so the operator picks
//! the fleet size explicitly.

use std::borrow::Cow;
use std::fmt::Write as _;
use std::path::Path;

use crate::job::{self, JobKind};
use crate::jsonio::{self, Reader};
use crate::obs::MetricsRegistry;
use crate::partition::{self, Bounds, PartitionSolution, TenantCurve};
use crate::tracesweep::{
    log_spaced_sizes, EstimatorFields, MrcPoint, ShardsEstimator, SHARDS_MODULUS,
};

/// Point count of the MRC grid the `PARTITION` command evaluates every
/// tenant's curve over. One shared constant so the daemon and the offline
/// `symloc partition --checkpoint` path answer from identical curves —
/// the CI smoke test diffs the two for byte equality.
pub const PARTITION_MRC_POINTS: usize = 32;

/// Longest accepted tenant name, in bytes. Names travel in line-framed
/// protocol messages and checkpoint JSON; the bound keeps both readable.
pub const MAX_TENANT_NAME: usize = 64;

/// One tenant: a client-declared keyspace with its own estimator.
#[derive(Debug, Clone)]
pub struct TenantState {
    name: String,
    accesses: u64,
    estimator: ShardsEstimator,
}

impl TenantState {
    /// The tenant's client-declared keyspace name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Accesses streamed into this tenant (raw, before SHARDS sampling).
    #[must_use]
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// The tenant's estimator, for read-only queries.
    #[must_use]
    pub fn estimator(&self) -> &ShardsEstimator {
        &self.estimator
    }

    /// The tenant's metrics registry: the `serve.accesses` counter plus
    /// the estimator's `estimator.*` gauges.
    #[must_use]
    pub fn metrics(&self) -> MetricsRegistry {
        let mut registry = MetricsRegistry::new();
        registry.add("serve.accesses", self.accesses);
        self.estimator.record_gauges(&mut registry);
        registry
    }
}

/// Validates a client-declared tenant name: nonempty, at most
/// [`MAX_TENANT_NAME`] bytes, ASCII graphic characters only (no spaces or
/// control bytes — names must survive line-framed messages unquoted).
///
/// # Errors
///
/// Returns a description of the first violated rule.
pub fn validate_tenant_name(name: &str) -> Result<(), String> {
    if name.is_empty() {
        return Err("tenant name must be nonempty".to_string());
    }
    if name.len() > MAX_TENANT_NAME {
        return Err(format!(
            "tenant name exceeds {MAX_TENANT_NAME} bytes ({} given)",
            name.len()
        ));
    }
    match name.chars().find(|c| !c.is_ascii_graphic()) {
        Some(c) => Err(format!(
            "tenant name may only use printable ASCII without spaces (found {c:?})"
        )),
        None => Ok(()),
    }
}

/// The daemon's full persisted state: the tenant table plus the counters
/// that describe its lifetime (rejections, checkpoint saves).
#[derive(Debug, Clone)]
pub struct ServeState {
    budget: usize,
    max_tenants: usize,
    rejected: u64,
    saves: u64,
    partitions: u64,
    /// `(budget, predicted aggregate miss ratio)` of the most recent
    /// `PARTITION` answer, surfaced as `partition.last_*` gauges.
    last_partition: Option<(u64, f64)>,
    /// Name-sorted so lookup is a binary search and serialization is
    /// canonical (tenant order never depends on arrival order).
    tenants: Vec<TenantState>,
}

impl ServeState {
    /// An empty tenant table. `budget` is the per-tenant SHARDS `s_max`;
    /// `max_tenants` caps the table. Both must be positive.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid parameter.
    pub fn new(budget: usize, max_tenants: usize) -> Result<ServeState, String> {
        if budget == 0 {
            return Err("budget must be positive".to_string());
        }
        if max_tenants == 0 {
            return Err("max_tenants must be positive".to_string());
        }
        Ok(ServeState {
            budget,
            max_tenants,
            rejected: 0,
            saves: 0,
            partitions: 0,
            last_partition: None,
            tenants: Vec::new(),
        })
    }

    /// The plan fingerprint: the knobs a checkpoint must match to resume.
    #[must_use]
    pub fn fingerprint(&self) -> String {
        format!(
            "serve;budget={};max_tenants={}",
            self.budget, self.max_tenants
        )
    }

    /// Per-tenant SHARDS budget (`s_max`).
    #[must_use]
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Hard cap on the tenant table.
    #[must_use]
    pub fn max_tenants(&self) -> usize {
        self.max_tenants
    }

    /// `HELLO`s rejected because the table was full.
    #[must_use]
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// Checkpoint saves recorded via [`ServeState::note_save`].
    #[must_use]
    pub fn saves(&self) -> u64 {
        self.saves
    }

    /// Number of live tenants.
    #[must_use]
    pub fn tenant_count(&self) -> usize {
        self.tenants.len()
    }

    /// The tenants, name-sorted.
    pub fn tenants(&self) -> impl Iterator<Item = &TenantState> {
        self.tenants.iter()
    }

    /// Total accesses streamed across all tenants.
    #[must_use]
    pub fn total_accesses(&self) -> u64 {
        self.tenants.iter().map(|t| t.accesses).sum()
    }

    fn position(&self, name: &str) -> Result<usize, usize> {
        self.tenants.binary_search_by(|t| t.name.as_str().cmp(name))
    }

    /// The tenant named `name`, if it exists.
    #[must_use]
    pub fn tenant(&self, name: &str) -> Option<&TenantState> {
        self.position(name).ok().map(|i| &self.tenants[i])
    }

    fn require(&self, name: &str) -> Result<&TenantState, String> {
        self.tenant(name)
            .ok_or_else(|| format!("unknown tenant {name:?} (declare it with HELLO first)"))
    }

    /// Finds or creates the tenant `name`, returning its index for
    /// subsequent [`ServeState::record_block`] calls. Creation past the
    /// `max_tenants` cap is the loud-rejection path: the request errs, the
    /// `serve.rejected` counter bumps, and existing tenants are untouched.
    ///
    /// # Errors
    ///
    /// Returns the validation or capacity error.
    pub fn ensure_tenant(&mut self, name: &str) -> Result<usize, String> {
        validate_tenant_name(name)?;
        match self.position(name) {
            Ok(i) => Ok(i),
            Err(i) => {
                if self.tenants.len() >= self.max_tenants {
                    self.rejected += 1;
                    return Err(format!(
                        "tenant table full ({} of {} keyspaces in use); raise --max-tenants \
                         or retire a tenant",
                        self.tenants.len(),
                        self.max_tenants
                    ));
                }
                self.tenants.insert(
                    i,
                    TenantState {
                        name: name.to_string(),
                        accesses: 0,
                        estimator: ShardsEstimator::new(self.budget),
                    },
                );
                Ok(i)
            }
        }
    }

    /// Streams a block of accesses into the tenant at `index` (as returned
    /// by [`ServeState::ensure_tenant`]; tenant insertion invalidates
    /// earlier indices, so re-resolve after any `HELLO`).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn record_block(&mut self, index: usize, block: &[u64]) {
        let tenant = &mut self.tenants[index];
        tenant.accesses += block.len() as u64;
        tenant.estimator.record_all(block.iter().copied());
    }

    /// Marks one checkpoint save (mirrored as the `serve.saves` counter).
    pub fn note_save(&mut self) {
        self.saves += 1;
    }

    /// `PARTITION` answers recorded via [`ServeState::note_partition`].
    #[must_use]
    pub fn partitions(&self) -> u64 {
        self.partitions
    }

    /// `(budget, predicted aggregate miss ratio)` of the most recent
    /// recorded `PARTITION` answer.
    #[must_use]
    pub fn last_partition(&self) -> Option<(u64, f64)> {
        self.last_partition
    }

    /// Records one answered `PARTITION` request: bumps the persisted
    /// `partition.requests` counter and pins the `partition.last_*`
    /// gauges.
    pub fn note_partition(&mut self, budget: u64, aggregate_miss_ratio: f64) {
        self.partitions += 1;
        self.last_partition = Some((budget, aggregate_miss_ratio));
    }

    /// The live tenant table as partitioner inputs: one [`TenantCurve`]
    /// per tenant (name order), weighted by raw accesses, each curve
    /// evaluated over its [`PARTITION_MRC_POINTS`]-point grid. Derived
    /// purely from persisted state, so a restarted daemon produces the
    /// identical curve set.
    ///
    /// # Errors
    ///
    /// Returns the curve-validation error (estimator curves satisfy the
    /// invariants by construction, so an error here means corruption).
    pub fn tenant_curves(&self) -> Result<Vec<TenantCurve>, String> {
        self.tenants
            .iter()
            .map(|tenant| {
                let points = self.mrc(&tenant.name, PARTITION_MRC_POINTS)?;
                #[allow(clippy::cast_precision_loss)]
                TenantCurve::from_points(&tenant.name, tenant.accesses as f64, &points)
            })
            .collect()
    }

    /// Answers `PARTITION <budget>` from the live tenant table: splits
    /// `budget` cache blocks across every tenant to minimize the
    /// traffic-weighted aggregate miss ratio (each tenant evaluated on
    /// the convex minorant of its estimated curve, no floors or caps).
    ///
    /// Read-only: callers record the answer with
    /// [`ServeState::note_partition`] so query handling stays borrow-
    /// friendly.
    ///
    /// # Errors
    ///
    /// Returns the solver's named error for an empty tenant table or a
    /// degenerate budget.
    pub fn partition(&self, budget: u64) -> Result<PartitionSolution, String> {
        let curves = self.tenant_curves()?;
        let bounds = vec![Bounds::default(); curves.len()];
        partition::solve(&curves, budget, &bounds)
    }

    /// The tenant's curve as a one-line JSON document for the `MRCJ`
    /// wire answer: `{"tenant": ..., "accesses": N, "wss": W, "mrc":
    /// [[size, ratio], ...]}`. Floats use shortest round-trip
    /// formatting and the grid is derived from persisted state, so a
    /// restarted daemon answers byte-identically.
    ///
    /// # Errors
    ///
    /// Returns an unknown-tenant error.
    pub fn mrcj_line(&self, name: &str, count: usize) -> Result<String, String> {
        let tenant = self.require(name)?;
        let points = self.mrc(name, count)?;
        let mut out = format!(
            "{{\"tenant\": \"{}\", \"accesses\": {}, \"wss\": {}, \"mrc\": [",
            jsonio::escape(name),
            tenant.accesses,
            tenant.estimator.estimated_footprint(),
        );
        for (i, p) in points.iter().enumerate() {
            let comma = if i == 0 { "" } else { ", " };
            let _ = write!(out, "{comma}[{}, {}]", p.cache_size, p.miss_ratio);
        }
        out.push_str("]}");
        Ok(out)
    }

    /// The evaluation grid for a tenant's MRC: `count` log-spaced cache
    /// sizes covering the largest reuse distance the tenant has seen.
    /// Derived purely from persisted state, so a restarted daemon answers
    /// over the identical grid.
    ///
    /// # Errors
    ///
    /// Returns an unknown-tenant error.
    pub fn mrc_sizes(&self, name: &str, count: usize) -> Result<Vec<usize>, String> {
        let tenant = self.require(name)?;
        let max = tenant.estimator.histogram().max_distance().unwrap_or(1);
        Ok(log_spaced_sizes(max, count))
    }

    /// The tenant's estimated miss-ratio curve over [`ServeState::mrc_sizes`].
    ///
    /// # Errors
    ///
    /// Returns an unknown-tenant error.
    pub fn mrc(&self, name: &str, count: usize) -> Result<Vec<MrcPoint>, String> {
        let sizes = self.mrc_sizes(name, count)?;
        Ok(self.require(name)?.estimator.mrc_points(&sizes))
    }

    /// The tenant's estimated working-set size (distinct addresses,
    /// rescaled from the SHARDS sample).
    ///
    /// # Errors
    ///
    /// Returns an unknown-tenant error.
    pub fn wss(&self, name: &str) -> Result<f64, String> {
        Ok(self.require(name)?.estimator.estimated_footprint())
    }

    /// The metrics registry for one tenant.
    ///
    /// # Errors
    ///
    /// Returns an unknown-tenant error.
    pub fn tenant_metrics(&self, name: &str) -> Result<MetricsRegistry, String> {
        Ok(self.require(name)?.metrics())
    }

    /// The fleet-level rollup: every tenant registry [`MetricsRegistry::merge`]d
    /// (counters add; `estimator.*` gauges are last-write-wins in tenant
    /// name order), plus the daemon-wide `serve.tenants` gauge and the
    /// `serve.rejected` / `serve.saves` counters.
    #[must_use]
    pub fn fleet_metrics(&self) -> MetricsRegistry {
        let mut fleet = MetricsRegistry::new();
        for tenant in &self.tenants {
            fleet.merge(&tenant.metrics());
        }
        #[allow(clippy::cast_precision_loss)]
        fleet.set_gauge("serve.tenants", self.tenants.len() as f64);
        fleet.add("serve.rejected", self.rejected);
        fleet.add("serve.saves", self.saves);
        fleet.add("partition.requests", self.partitions);
        if let Some((budget, aggregate)) = self.last_partition {
            #[allow(clippy::cast_precision_loss)]
            fleet.set_gauge("partition.last_budget", budget as f64);
            fleet.set_gauge("partition.last_aggregate_miss_ratio", aggregate);
        }
        fleet
    }

    /// Serializes the full tenant table as a [`JobKind::ServeState`]
    /// checkpoint document. Deterministic: tenants are name-sorted and
    /// floats use Rust's shortest round-trip formatting, so
    /// `from_json(to_json()).to_json()` is byte-identical.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = job::write_checkpoint_header(&mut out, JobKind::ServeState, &self.fingerprint());
        let _ = writeln!(out, "  \"budget\": {},", self.budget);
        let _ = writeln!(out, "  \"max_tenants\": {},", self.max_tenants);
        let _ = writeln!(out, "  \"rejected\": {},", self.rejected);
        let _ = writeln!(out, "  \"saves\": {},", self.saves);
        let _ = writeln!(out, "  \"partitions\": {},", self.partitions);
        if let Some((budget, aggregate)) = self.last_partition {
            let _ = writeln!(out, "  \"last_partition\": [{budget}, {aggregate}],");
        }
        out.push_str("  \"tenants\": [\n");
        for (i, tenant) in self.tenants.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"name\": \"{}\", \"accesses\": {}, ",
                jsonio::escape(&tenant.name),
                tenant.accesses,
            );
            let _ = tenant.estimator.write_state(&mut out);
            let sep = if i + 1 < self.tenants.len() { "," } else { "" };
            let _ = writeln!(out, "}}{sep}");
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Rebuilds a tenant table from a checkpoint document, read straight
    /// from its text; its keys, and each tenant's, may come in any order.
    ///
    /// # Errors
    ///
    /// Returns a description of the first syntax or structural problem.
    pub fn from_json(text: &str) -> Result<ServeState, String> {
        jsonio::read_document(text, Self::read)
    }

    /// Reads and builds a tenant table from the checkpoint document at
    /// `reader`.
    fn read(reader: &mut Reader<'_>) -> Result<ServeState, String> {
        let (mut budget, mut max_tenants, mut rejected, mut saves, mut partitions) =
            (None, None, None, None, None);
        let mut last_partition = None;
        let mut entries: Option<Vec<TenantFields>> = None;
        job::read_checkpoint_fields(reader, JobKind::ServeState, |reader, key| match key {
            "budget" => reader.first(&mut budget, Reader::usize),
            "max_tenants" => reader.first(&mut max_tenants, Reader::usize),
            "rejected" => reader.first(&mut rejected, Reader::u64),
            "saves" => reader.first(&mut saves, Reader::u64),
            "partitions" => reader.first(&mut partitions, Reader::u64),
            "last_partition" => reader.first(&mut last_partition, read_last_partition),
            "tenants" => reader.first(&mut entries, |reader| {
                let mut entries = Vec::new();
                reader.array(|reader| {
                    entries.push(TenantFields::read(reader)?);
                    Ok(())
                })?;
                Ok(entries)
            }),
            _ => reader.skip(),
        })?;
        let budget = budget.flatten().ok_or("missing budget")?;
        let max_tenants = max_tenants.flatten().ok_or("missing max_tenants")?;
        let mut state = ServeState::new(budget, max_tenants)?;
        state.rejected = rejected.flatten().ok_or("missing rejected")?;
        state.saves = saves.flatten().ok_or("missing saves")?;
        // Both partition fields are absent from pre-partitioner
        // checkpoints; resuming one is fine (zero answers recorded).
        state.partitions = partitions.flatten().unwrap_or(0);
        state.last_partition = last_partition;
        let entries = entries.ok_or("missing tenants")?;
        if entries.len() > max_tenants {
            return Err(format!(
                "{} tenants exceed max_tenants {max_tenants}",
                entries.len()
            ));
        }
        for entry in entries {
            let name = entry.name.flatten().ok_or("tenant missing name")?;
            validate_tenant_name(&name)?;
            if let Some(last) = state.tenants.last() {
                if last.name >= name {
                    return Err(format!(
                        "tenant {name:?} out of order after {:?} (table must be \
                         strictly name-sorted)",
                        last.name
                    ));
                }
            }
            let accesses = entry.accesses.flatten().ok_or("tenant missing accesses")?;
            let estimator = entry
                .estimator
                .build(budget, SHARDS_MODULUS, 0, 1)
                .map_err(|e| format!("tenant {name:?}: {e}"))?;
            // The tenant's one estimator sees every access it streams.
            if accesses != estimator.raw_accesses() {
                return Err(format!(
                    "tenant {name:?}: accesses {accesses} differ from its estimator's raw \
                     count {}",
                    estimator.raw_accesses()
                ));
            }
            state.tenants.push(TenantState {
                name,
                accesses,
                estimator,
            });
        }
        Ok(state)
    }

    /// Writes the checkpoint to `path` atomically (temp file + rename).
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        jsonio::save_atomic(path, &self.to_json())
    }

    /// Loads a checkpoint from `path`, or starts an empty table when the
    /// file does not exist or records different knobs. The returned flag
    /// says whether tenants were actually resumed.
    ///
    /// # Errors
    ///
    /// Returns the loud cross-kind error for a checkpoint of another
    /// registered kind, or the parameter-validation error.
    pub fn resume_or_new(
        path: &Path,
        budget: usize,
        max_tenants: usize,
    ) -> Result<(ServeState, bool), String> {
        let fresh = ServeState::new(budget, max_tenants)?;
        let fingerprint = fresh.fingerprint();
        job::resume_or_new_with(
            path,
            JobKind::ServeState,
            ServeState::read,
            |state| state.fingerprint() == fingerprint,
            ServeState::tenant_count,
            || fresh,
        )
    }
}

/// One tenant entry of a serve checkpoint as a [`Reader`] meets it.
struct TenantFields {
    name: Option<Option<String>>,
    accesses: Option<Option<u64>>,
    estimator: EstimatorFields,
}

impl TenantFields {
    /// Reads the tenant entry at `reader`; the first of duplicate keys
    /// wins.
    fn read(reader: &mut Reader<'_>) -> Result<Self, String> {
        let mut entry = TenantFields {
            name: None,
            accesses: None,
            estimator: EstimatorFields::default(),
        };
        reader.object(|reader, key| match key {
            "name" => reader.first(&mut entry.name, |reader| {
                Ok(reader.str()?.map(Cow::into_owned))
            }),
            "accesses" => reader.first(&mut entry.accesses, Reader::u64),
            _ => {
                if !entry.estimator.read(reader, key)? {
                    reader.skip()?;
                }
                Ok(())
            }
        })?;
        Ok(entry)
    }
}

/// Reads a `[budget, miss_ratio]` pair with a miss ratio in `0..=1`.
fn read_last_partition(reader: &mut Reader<'_>) -> Result<(u64, f64), String> {
    let (budget, aggregate) = reader.pair(
        "last_partition is not a [budget, miss_ratio] pair",
        Reader::u64,
        Reader::f64,
    )?;
    Ok((
        budget.ok_or("bad last_partition budget")?,
        aggregate
            .filter(|m| m.is_finite() && (0.0..=1.0).contains(m))
            .ok_or("bad last_partition miss ratio")?,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled(budget: usize) -> ServeState {
        let mut state = ServeState::new(budget, 8).unwrap();
        let a = state.ensure_tenant("alpha").unwrap();
        state.record_block(a, &[1, 2, 3, 1, 2, 3, 7, 7]);
        let b = state.ensure_tenant("beta").unwrap();
        state.record_block(b, &[10, 20, 10, 30, 10]);
        state
    }

    #[test]
    fn tenants_stay_name_sorted_regardless_of_arrival() {
        let mut state = ServeState::new(64, 8).unwrap();
        for name in ["zeta", "alpha", "mid"] {
            state.ensure_tenant(name).unwrap();
        }
        let names: Vec<&str> = state.tenants().map(TenantState::name).collect();
        assert_eq!(names, ["alpha", "mid", "zeta"]);
    }

    #[test]
    fn capacity_rejection_is_loud_and_counted() {
        let mut state = ServeState::new(64, 2).unwrap();
        state.ensure_tenant("a").unwrap();
        state.ensure_tenant("b").unwrap();
        let err = state.ensure_tenant("c").unwrap_err();
        assert!(err.contains("tenant table full"), "{err}");
        assert_eq!(state.rejected(), 1);
        // Existing tenants still resolve after a rejection.
        state.ensure_tenant("a").unwrap();
        assert_eq!(state.tenant_count(), 2);
    }

    #[test]
    fn tenant_names_are_validated() {
        let mut state = ServeState::new(64, 8).unwrap();
        assert!(state.ensure_tenant("").is_err());
        assert!(state.ensure_tenant("has space").is_err());
        assert!(state.ensure_tenant("tab\there").is_err());
        assert!(state
            .ensure_tenant(&"x".repeat(MAX_TENANT_NAME + 1))
            .is_err());
        assert_eq!(state.tenant_count(), 0);
        // Rejections for invalid names are validation errors, not capacity
        // rejections.
        assert_eq!(state.rejected(), 0);
    }

    #[test]
    fn json_round_trip_is_byte_identical() {
        let state = filled(4);
        let text = state.to_json();
        let back = ServeState::from_json(&text).unwrap();
        assert_eq!(back.to_json(), text);
    }

    #[test]
    fn round_trip_preserves_queries() {
        let state = filled(4);
        let back = ServeState::from_json(&state.to_json()).unwrap();
        assert_eq!(
            back.mrc("alpha", 6).unwrap(),
            state.mrc("alpha", 6).unwrap()
        );
        assert_eq!(back.wss("beta").unwrap(), state.wss("beta").unwrap());
        assert_eq!(
            back.fleet_metrics().to_json(),
            state.fleet_metrics().to_json()
        );
    }

    #[test]
    fn queries_reject_unknown_tenants() {
        let state = filled(4);
        for err in [
            state.mrc("ghost", 4).unwrap_err(),
            state.wss("ghost").unwrap_err(),
            state.tenant_metrics("ghost").unwrap_err(),
        ] {
            assert!(err.contains("unknown tenant"), "{err}");
        }
    }

    #[test]
    fn fleet_metrics_roll_up_counters() {
        let mut state = filled(4);
        state.note_save();
        let fleet = state.fleet_metrics();
        assert_eq!(fleet.counter("serve.accesses"), Some(13));
        assert_eq!(fleet.counter("serve.saves"), Some(1));
        assert_eq!(fleet.counter("serve.rejected"), Some(0));
        assert_eq!(fleet.gauge("serve.tenants"), Some(2.0));
    }

    #[test]
    fn from_json_rejects_structural_damage() {
        let state = filled(4);
        let good = state.to_json();
        let unsorted = good.replace("\"alpha\"", "\"zz\"");
        assert!(ServeState::from_json(&unsorted)
            .unwrap_err()
            .contains("name-sorted"));
        let overfull = good.replace("\"max_tenants\": 8", "\"max_tenants\": 1");
        assert!(ServeState::from_json(&overfull)
            .unwrap_err()
            .contains("exceed max_tenants"));
        let idx = good.find("\"threshold\": ").unwrap();
        let end = idx + good[idx..].find(',').unwrap();
        let bad_threshold = format!("{}\"threshold\": 0{}", &good[..idx], &good[end..]);
        assert!(ServeState::from_json(&bad_threshold)
            .unwrap_err()
            .contains("threshold"));
        // Counts no run produces: a tenant's accesses off its estimator's
        // raw count, and more sampled accesses than raw ones.
        let alpha = "\"name\": \"alpha\", \"accesses\": 8, \"threshold\": 16777216, \"raw\": 8, \"sampled\": 8,";
        assert!(good.contains(alpha), "{good}");
        for (bad, why) in [
            (
                "\"accesses\": 8,",
                "accesses 9 differ from its estimator's raw count 8",
            ),
            (
                "\"raw\": 8,",
                "accesses 8 differ from its estimator's raw count 9",
            ),
            ("\"sampled\": 8,", "sampled count 9 exceeds its raw count 8"),
        ] {
            let mangled = good.replace(alpha, &alpha.replace(bad, &bad.replace('8', "9")));
            let err = ServeState::from_json(&mangled).unwrap_err();
            assert!(err.contains("tenant \"alpha\""), "{err}");
            assert!(err.contains(why), "{err}");
        }
    }

    #[test]
    fn partition_answers_from_the_live_table() {
        let mut state = ServeState::new(64, 8).unwrap();
        // "hot" re-touches a tiny set constantly; "cold" scans.
        let hot = state.ensure_tenant("hot").unwrap();
        let hot_block: Vec<u64> = (0..400).map(|i| i % 4).collect();
        state.record_block(hot, &hot_block);
        let cold = state.ensure_tenant("cold").unwrap();
        let cold_block: Vec<u64> = (0..400).collect();
        state.record_block(cold, &cold_block);

        let solution = state.partition(8).unwrap();
        assert_eq!(solution.allocations.len(), 2);
        // Name order: cold then hot. The hot tenant's working set fits
        // in the budget and its curve is steep, so it gets cache.
        assert_eq!(solution.allocations[1].name, "hot");
        assert!(solution.allocations[1].size >= 4);
        assert!(solution.allocated <= 8);
        assert!(solution.predicted_aggregate_miss_ratio < 1.0);

        // Recording the answer shows up in the fleet rollup and persists.
        state.note_partition(8, solution.predicted_aggregate_miss_ratio);
        let fleet = state.fleet_metrics();
        assert_eq!(fleet.counter("partition.requests"), Some(1));
        assert_eq!(fleet.gauge("partition.last_budget"), Some(8.0));
        assert_eq!(
            fleet.gauge("partition.last_aggregate_miss_ratio"),
            Some(solution.predicted_aggregate_miss_ratio)
        );
        let back = ServeState::from_json(&state.to_json()).unwrap();
        assert_eq!(back.partitions(), 1);
        assert_eq!(
            back.last_partition(),
            Some((8, solution.predicted_aggregate_miss_ratio))
        );
        assert_eq!(back.to_json(), state.to_json());
        // And the restored table answers byte-identically.
        assert_eq!(
            back.partition(8).unwrap().render_compact(),
            solution.render_compact()
        );
    }

    #[test]
    fn partition_rejects_empty_table_and_bad_budgets() {
        let empty = ServeState::new(64, 8).unwrap();
        let err = empty.partition(128).unwrap_err();
        assert!(err.contains("no tenants"), "{err}");
        let state = filled(4);
        let zero = state.partition(0).unwrap_err();
        assert!(zero.contains("must be positive"), "{zero}");
        let absurd = state.partition(u64::MAX).unwrap_err();
        assert!(absurd.contains("exceeds the supported maximum"), "{absurd}");
    }

    #[test]
    fn mrcj_line_is_one_json_line_and_restart_stable() {
        let state = filled(4);
        let line = state.mrcj_line("alpha", 6).unwrap();
        assert!(!line.contains('\n'));
        assert!(line.starts_with("{\"tenant\": \"alpha\", \"accesses\": 8, "));
        assert!(line.contains("\"mrc\": [["), "{line}");
        let doc = jsonio::parse(&line).unwrap();
        assert_eq!(
            doc.get("accesses").and_then(jsonio::JsonValue::as_u64),
            Some(state.tenant("alpha").unwrap().accesses())
        );
        assert!(doc
            .get("mrc")
            .and_then(jsonio::JsonValue::as_array)
            .is_some());
        let back = ServeState::from_json(&state.to_json()).unwrap();
        assert_eq!(back.mrcj_line("alpha", 6).unwrap(), line);
        let ghost = state.mrcj_line("ghost", 6).unwrap_err();
        assert!(ghost.contains("unknown tenant"), "{ghost}");
    }

    #[test]
    fn pre_partitioner_checkpoints_still_resume() {
        let state = filled(4);
        // Simulate a checkpoint written before the partitioner existed.
        let old = state.to_json().replace("  \"partitions\": 0,\n", "");
        let back = ServeState::from_json(&old).unwrap();
        assert_eq!(back.partitions(), 0);
        assert_eq!(back.last_partition(), None);
        assert_eq!(back.to_json(), state.to_json());
    }

    #[test]
    fn resume_or_new_restores_matching_checkpoints() {
        let dir = std::env::temp_dir().join(format!(
            "symloc-serve-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("serve.ckpt.json");
        let state = filled(4);
        state.save(&path).unwrap();
        let (resumed, was_resumed) = ServeState::resume_or_new(&path, 4, 8).unwrap();
        assert!(was_resumed);
        assert_eq!(resumed.to_json(), state.to_json());
        // Different knobs: fresh table, stale file left on disk.
        let (fresh, was_resumed) = ServeState::resume_or_new(&path, 4, 16).unwrap();
        assert!(!was_resumed);
        assert_eq!(fresh.tenant_count(), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
