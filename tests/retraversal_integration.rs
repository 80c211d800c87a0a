//! Cross-crate integration tests: permutations → re-traversals → traces →
//! cache simulation must tell one consistent story.

use rand::rngs::StdRng;
use rand::SeedableRng;
use symmetric_locality::prelude::*;

#[test]
fn algorithm1_lru_stack_and_set_assoc_cache_agree() {
    // For every permutation of S_6 the specialized Algorithm 1, the Olken
    // reuse-distance profile of the materialized trace, and a fully
    // associative LRU hardware model must report identical hit counts.
    for sigma in LexIter::new(6) {
        let hv = hit_vector(&sigma);
        let trace = ReTraversal::new(sigma.clone()).to_trace();
        let profile = reuse_profile(&trace);
        for c in 1..=6usize {
            assert_eq!(hv.hits(c), profile.hits(c), "σ={sigma} c={c}");
            let config = CacheConfig::fully_associative(c, ReplacementPolicy::Lru);
            let mut cache = SetAssocCache::new(config);
            let stats = cache.run(&trace);
            assert_eq!(stats.hits, hv.hits(c), "σ={sigma} c={c}");
        }
    }
}

#[test]
fn theorem2_holds_for_random_large_retraversals_through_the_full_stack() {
    let mut rng = StdRng::seed_from_u64(7);
    for m in [64usize, 128, 300] {
        let sigma = random_permutation(m, &mut rng);
        // Via Algorithm 1.
        assert!(theorem2_holds(&sigma));
        // Via the trace + generic simulator: Σ_{c=1}^{m-1} hits_c = ℓ(σ).
        let trace = retraversal_trace(&sigma);
        let profile = reuse_profile(&trace);
        let truncated: usize = (1..m).map(|c| profile.hits(c)).sum();
        assert_eq!(truncated, inversions(&sigma), "m={m}");
    }
}

#[test]
fn trace_io_round_trips_retraversals() {
    let sigma = Permutation::from_one_based(vec![3, 1, 4, 2, 6, 5]).unwrap();
    let trace = ReTraversal::new(sigma.clone()).to_trace();
    let text = write_trace_to_string(&trace).unwrap();
    let parsed_trace = read_trace_from_str(&text).unwrap();
    let parsed = ReTraversal::from_trace(&parsed_trace).unwrap();
    assert_eq!(parsed.sigma(), &sigma);
}

#[test]
fn relabeling_argument_holds_for_arbitrary_addresses() {
    // A re-traversal over arbitrary (sparse) addresses has the same locality
    // as its dense relabeling — the paper's Section II-B relabeling argument.
    let addrs = [1000usize, 5, 777, 42, 90_000, 13];
    let sigma = Permutation::from_one_based(vec![4, 6, 2, 1, 3, 5]).unwrap();
    let mut trace = Trace::new();
    for &a in &addrs {
        trace.push(Addr(a));
    }
    for i in 0..6 {
        trace.push(Addr(addrs[sigma.apply(i)]));
    }
    let sparse_profile = reuse_profile(&trace);
    let dense_profile = reuse_profile(&ReTraversal::new(sigma.clone()).to_trace());
    for c in 1..=6usize {
        assert_eq!(sparse_profile.hits(c), dense_profile.hits(c), "c={c}");
    }
    // And ReTraversal::from_trace recovers σ through the relabeling.
    let recovered = ReTraversal::from_trace(&trace).unwrap();
    assert_eq!(recovered.sigma(), &sigma);
}

#[test]
fn bruhat_chain_improves_mrc_area_monotonically_in_aggregate() {
    // Along any ChainFind chain the truncated hit sum rises by exactly one
    // per step, so the normalized truncated integral falls linearly.
    let m = 7;
    let chain = chain_find(
        &Permutation::identity(m),
        &MissRatioLabeling,
        ChainFindConfig::default(),
    );
    let mut previous = f64::INFINITY;
    for (i, perm) in chain.permutations().iter().enumerate() {
        let integral = normalized_truncated_integral(perm);
        assert!(integral < previous, "step {i}");
        assert!(
            (integral - predicted_truncated_integral(m, i)).abs() < 1e-12,
            "step {i}"
        );
        previous = integral;
    }
}

#[test]
fn hierarchy_simulation_prefers_better_symmetric_locality() {
    // Re-traversals with more inversions push fewer accesses to memory in a
    // two-level hierarchy whose L1 is smaller than the footprint.
    let m = 24;
    let orders = [
        Permutation::identity(m),
        {
            // A middling permutation: reverse only the first half.
            let mut images: Vec<usize> = (0..m).collect();
            images[..m / 2].reverse();
            Permutation::from_images(images).unwrap()
        },
        Permutation::reverse(m),
    ];
    let mut memory_traffic = Vec::new();
    for sigma in &orders {
        let trace = ReTraversal::new(sigma.clone()).to_trace();
        let mut hierarchy = CacheHierarchy::new(&[
            LevelConfig {
                level: 1,
                cache: CacheConfig::fully_associative(m / 4, ReplacementPolicy::Lru),
            },
            LevelConfig {
                level: 2,
                cache: CacheConfig::fully_associative(m / 2, ReplacementPolicy::Lru),
            },
        ]);
        hierarchy.run(&trace);
        memory_traffic.push(hierarchy.stats().memory_accesses);
    }
    // Better symmetric locality never increases memory traffic, and the
    // sawtooth strictly beats the cyclic order.
    assert!(memory_traffic[2] <= memory_traffic[1]);
    assert!(memory_traffic[1] <= memory_traffic[0]);
    assert!(memory_traffic[2] < memory_traffic[0]);
}

#[test]
fn parallel_sweep_matches_sequential_sweep() {
    let sequential = SweepEngine::with_threads(6, 1).exhaustive_levels();
    let parallel = SweepEngine::with_threads(6, symloc_par::default_threads()).exhaustive_levels();
    assert_eq!(sequential, parallel);
    let curves = average_mrc_by_inversion(6, 4);
    assert_eq!(curves.len(), max_inversions(6) + 1);
    assert!(levels_are_monotone(&sequential));
}
