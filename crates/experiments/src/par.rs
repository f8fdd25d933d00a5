//! Per-item seeding and the default worker count.
//!
//! Every parallel sweep in this crate runs on
//! [`qsample::grid::ShardedGrid`], which shards whole configurations
//! across a work-stealing pool and draws each shard's randomness from a
//! counter-based stream keyed by the configuration, so results never
//! depend on the thread count. This module keeps the two small helpers
//! around it: a decorrelated seed per work item, and the worker count a
//! sweep uses when none is given.

/// Default worker count: available parallelism, capped at 16
/// (re-exported from [`qsample::grid`], where the sharding engine lives
/// so the service layer below this crate can use it too).
pub use qsample::grid::default_threads;

/// Derives a decorrelated 64-bit seed for item `i` from a base seed
/// (splitmix64 step — avoids adjacent-seed correlations in the
/// experiment RNGs).
pub fn item_seed(base: u64, i: u64) -> u64 {
    let mut z = base.wrapping_add(0x9E3779B97F4A7C15u64.wrapping_mul(i.wrapping_add(1)));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn item_seeds_are_distinct() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..10_000u64 {
            assert!(seen.insert(item_seed(7, i)), "seed collision at {i}");
        }
    }

    #[test]
    fn threads_default_positive() {
        assert!(default_threads() >= 1);
    }
}
