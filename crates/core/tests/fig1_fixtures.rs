//! The Figure-1 sweeps of `S_11` and `S_12`, pinned byte for byte to the
//! `"levels"` lines that `symloc sweep 11 --json` and `symloc sweep 12
//! --json` printed when every permutation was still walked one by one
//! (`tests/data/fig1_s{11,12}_levels.json`). The block path must
//! reproduce them exactly, directly and through a sharded checkpointed
//! sweep whose shard edges cut blocks.

use symloc_core::engine::{SweepEngine, SweepLevel, SweepSpec};
use symloc_core::model::CacheModel;
use symloc_core::shard::ShardedSweep;
use symloc_perm::statistics::Statistic;

const RECORDED: [(usize, &str); 2] = [
    (11, include_str!("data/fig1_s11_levels.json")),
    (12, include_str!("data/fig1_s12_levels.json")),
];

/// The level lines exactly as `symloc sweep --json` writes them.
fn render(levels: &[SweepLevel]) -> String {
    let join = |values: &[u64]| {
        values
            .iter()
            .map(u64::to_string)
            .collect::<Vec<_>>()
            .join(", ")
    };
    let mut out = String::new();
    for (i, level) in levels.iter().enumerate() {
        let sep = if i + 1 < levels.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"level\": {}, \"count\": {}, \"hit_sums\": [{}], \"hit_sq_sums\": [{}]}}{sep}\n",
            level.level,
            level.count,
            join(&level.hit_sums),
            join(&level.hit_sq_sums),
        ));
    }
    out
}

fn assert_recorded(m: usize, levels: &[SweepLevel], recorded: &str, how: &str) {
    let rendered = render(levels);
    if let Some((i, (got, want))) = rendered
        .lines()
        .zip(recorded.lines())
        .enumerate()
        .find(|(_, (got, want))| got != want)
    {
        panic!("S_{m} {how}: line {i} differs\n got: {got}\nwant: {want}");
    }
    assert_eq!(rendered, recorded, "S_{m} {how}");
}

#[test]
fn figure1_sweeps_of_s11_and_s12_match_the_recorded_levels() {
    for (m, recorded) in RECORDED {
        let direct = SweepEngine::with_threads(m, 2)
            .sweep_levels(Statistic::Inversions, CacheModel::LruStack);
        assert_recorded(m, &direct, recorded, "direct");
        let total: u64 = direct.iter().map(|l| l.count).sum();
        assert_eq!(u128::from(total), symloc_perm::rank::factorial(m).unwrap());

        // The shard edges k·m!/7 are not multiples of (m−1)!, so each one
        // cuts a top-level block.
        let mut sharded = ShardedSweep::new(SweepSpec::figure1(m), 7, 2);
        sharded.run_pending(None);
        let merged = sharded.merged_levels().expect("every shard ran");
        assert_recorded(m, &merged, recorded, "7 shards");
    }
}
