//! Memoization cache for geometric-mean-distance kernels.
//!
//! The numeric GMD in [`crate::gmd::rect_gmd`] integrates 6⁴ sample
//! pairs per segment pair — by far the most expensive scalar kernel in
//! the extraction hot loop. Real layouts are extremely repetitive
//! (buses and grids repeat the same cross-section pair at the same
//! pitch thousands of times), so a cache keyed on the *pair geometry*
//! turns the O(n²) assembly into mostly O(n²) hash lookups plus a few
//! hundred distinct kernel evaluations.
//!
//! ## Key quantization and determinism
//!
//! Keys are the six kernel arguments quantized to [`QUANTUM_M`]
//! (10⁻¹² m = 1 pm). Segment geometry in this toolkit lives on an
//! integer-nanometer grid, so nm-grid geometries differ by ≥ 1 nm =
//! 1000 quanta in at least one argument and get distinct keys. But the
//! cache can also be fed *off-grid* arguments (derived quantities such
//! as averaged GMD distances, or geometry from external netlists), and
//! two distinct such inputs lying within half a quantum of the same
//! bucket boundary **do** alias to one key. To stay exact under
//! aliasing, every entry stores the precise six arguments it was
//! computed from; a lookup whose arguments do not match the stored ones
//! bitwise is treated as a collision and recomputed directly (counted
//! by [`GmdCache::collisions`]), never served the aliased value. A
//! cached value is therefore always exactly the value `rect_gmd` would
//! return, which is what makes cached, uncached, serial and parallel
//! extraction agree **bit-for-bit** — the property the differential
//! tests assert. The first occupant keeps the bucket, so results do not
//! depend on thread interleaving.
//!
//! The cache is sharded and thread-safe; insertion order between
//! threads is irrelevant because every insert for a given key carries
//! the same value. When full it stops inserting (no eviction), keeping
//! behavior deterministic.

use crate::gmd::rect_gmd;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Quantization grid of the cache key, meters: 1 picometer. Three
/// orders of magnitude below the 1 nm geometry grid, eleven below
/// typical wire dimensions.
pub const QUANTUM_M: f64 = 1e-12;

/// Number of independently locked shards (power of two).
const SHARDS: usize = 32;

/// Quantized pair-geometry key: `(dx, dz, w1, t1, w2, t2)` in units of
/// [`QUANTUM_M`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct GmdKey([i64; 6]);

impl GmdKey {
    /// Quantizes raw kernel arguments (meters) to a key.
    pub fn quantize(dx: f64, dz: f64, w1: f64, t1: f64, w2: f64, t2: f64) -> Self {
        let q = |x: f64| (x / QUANTUM_M).round() as i64;
        Self([q(dx), q(dz), q(w1), q(t1), q(w2), q(t2)])
    }

    fn shard(&self) -> usize {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.hash(&mut h);
        (h.finish() as usize) & (SHARDS - 1)
    }
}

/// A cache entry: the exact (unquantized) kernel arguments it was
/// computed from, plus the kernel value. The stored arguments guard
/// against quantization aliasing of off-grid inputs.
type GmdEntry = ([f64; 6], f64);

/// Sharded, thread-safe memoization cache for [`rect_gmd`] values.
#[derive(Debug)]
pub struct GmdCache {
    shards: Vec<Mutex<HashMap<GmdKey, GmdEntry>>>,
    capacity_per_shard: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    collisions: AtomicU64,
}

impl GmdCache {
    /// Creates a cache holding at most `capacity` entries in total.
    /// A capacity of 0 disables caching (every call computes).
    pub fn new(capacity: usize) -> Self {
        Self {
            shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            capacity_per_shard: capacity.div_ceil(SHARDS),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            collisions: AtomicU64::new(0),
        }
    }

    /// The GMD for the given pair geometry — served from the cache when
    /// present, computed via [`rect_gmd`] (and inserted) otherwise.
    ///
    /// # Panics
    ///
    /// Panics on the same invalid inputs as [`rect_gmd`].
    pub fn gmd(&self, dx: f64, dz: f64, w1: f64, t1: f64, w2: f64, t2: f64) -> f64 {
        if self.capacity_per_shard == 0 {
            // ind101: allow(atomics-ordering, statistics counter; no data is published under it)
            self.misses.fetch_add(1, Ordering::Relaxed);
            return rect_gmd(dx, dz, w1, t1, w2, t2);
        }
        let args = [dx, dz, w1, t1, w2, t2];
        let key = GmdKey::quantize(dx, dz, w1, t1, w2, t2);
        let shard = &self.shards[key.shard()];
        if let Some(&(stored, v)) =
            shard.lock().unwrap_or_else(std::sync::PoisonError::into_inner).get(&key)
        {
            if stored == args {
                // ind101: allow(atomics-ordering, statistics counter; no data is published under it)
                self.hits.fetch_add(1, Ordering::Relaxed);
                return v;
            }
            // Quantization collision: a *different* geometry landed in
            // this bucket (inputs straddling a bucket boundary within
            // half a quantum). Serving `v` would be wrong — compute
            // directly and leave the first occupant in place so the
            // outcome is independent of insertion order.
            // ind101: allow(atomics-ordering, statistics counter; no data is published under it)
            self.collisions.fetch_add(1, Ordering::Relaxed);
            return rect_gmd(dx, dz, w1, t1, w2, t2);
        }
        // Compute outside the lock: the kernel is the expensive part,
        // and a duplicate concurrent compute of the same key writes the
        // identical value, so dropping the lock is harmless. If another
        // thread won the race with *different* aliasing args, keep its
        // entry (first occupant wins) — this lookup already has its own
        // directly computed value.
        let v = rect_gmd(dx, dz, w1, t1, w2, t2);
        // ind101: allow(atomics-ordering, statistics counter; no data is published under it)
        self.misses.fetch_add(1, Ordering::Relaxed);
        let mut map = shard.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        if map.len() < self.capacity_per_shard {
            map.entry(key).or_insert((args, v));
        }
        v
    }

    /// Number of lookups served from the cache.
    pub fn hits(&self) -> u64 {
        // ind101: allow(atomics-ordering, monotonic counter read for reporting only)
        self.hits.load(Ordering::Relaxed)
    }

    /// Number of lookups that had to compute the kernel.
    pub fn misses(&self) -> u64 {
        // ind101: allow(atomics-ordering, monotonic counter read for reporting only)
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of lookups that found an aliased bucket (same quantized
    /// key, different exact arguments) and recomputed directly.
    pub fn collisions(&self) -> u64 {
        // ind101: allow(atomics-ordering, monotonic counter read for reporting only)
        self.collisions.load(Ordering::Relaxed)
    }

    /// Number of distinct entries currently stored.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap_or_else(std::sync::PoisonError::into_inner).len())
            .sum()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Consistent snapshot of the counters for reporting (the job
    /// server prints one per batch). Counters are monotonic, so the
    /// snapshot is exact for a quiesced cache and a lower bound while
    /// lookups are in flight.
    pub fn stats(&self) -> GmdCacheStats {
        GmdCacheStats {
            hits: self.hits(),
            misses: self.misses(),
            collisions: self.collisions(),
            entries: self.len(),
        }
    }
}

/// Counter snapshot from [`GmdCache::stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GmdCacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that computed the kernel.
    pub misses: u64,
    /// Aliased-bucket lookups (recomputed directly).
    pub collisions: u64,
    /// Distinct entries stored.
    pub entries: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_and_miss_counting() {
        let c = GmdCache::new(1024);
        let g1 = c.gmd(3e-6, 0.0, 1e-6, 0.5e-6, 1e-6, 0.5e-6);
        assert_eq!((c.hits(), c.misses()), (0, 1));
        let g2 = c.gmd(3e-6, 0.0, 1e-6, 0.5e-6, 1e-6, 0.5e-6);
        assert_eq!((c.hits(), c.misses()), (1, 1));
        assert_eq!(g1.to_bits(), g2.to_bits(), "cache must return the exact value");
        // A different geometry is a miss.
        let _ = c.gmd(4e-6, 0.0, 1e-6, 0.5e-6, 1e-6, 0.5e-6);
        assert_eq!((c.hits(), c.misses()), (1, 2));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn cached_equals_uncached_bitwise() {
        let c = GmdCache::new(1024);
        for k in 1..40 {
            let dx = k as f64 * 0.5e-6;
            let direct = rect_gmd(dx, 0.3e-6, 1e-6, 0.4e-6, 2e-6, 0.4e-6);
            let cached = c.gmd(dx, 0.3e-6, 1e-6, 0.4e-6, 2e-6, 0.4e-6);
            let again = c.gmd(dx, 0.3e-6, 1e-6, 0.4e-6, 2e-6, 0.4e-6);
            assert_eq!(direct.to_bits(), cached.to_bits());
            assert_eq!(direct.to_bits(), again.to_bits());
        }
    }

    #[test]
    fn quantization_does_not_alias_distinct_geometries() {
        // Geometries on the 1 nm grid differ by ≥ 1000 quanta: every
        // pair of distinct nm-grid geometries must produce distinct
        // keys. Sweep one nm at a time across each argument.
        let base = [2000e-9, 100e-9, 1000e-9, 500e-9, 900e-9, 450e-9];
        let key_of = |a: &[f64; 6]| GmdKey::quantize(a[0], a[1], a[2], a[3], a[4], a[5]);
        let k0 = key_of(&base);
        for arg in 0..6 {
            let mut g = base;
            g[arg] += 1e-9; // one nanometer
            assert_ne!(key_of(&g), k0, "arg {arg} must change the key");
        }
        // Sub-quantum noise *does* merge (that is the point):
        let mut g = base;
        g[0] += QUANTUM_M * 0.4;
        assert_eq!(key_of(&g), k0);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let c = GmdCache::new(0);
        let _ = c.gmd(3e-6, 0.0, 1e-6, 1e-6, 1e-6, 1e-6);
        let _ = c.gmd(3e-6, 0.0, 1e-6, 1e-6, 1e-6, 1e-6);
        assert_eq!(c.hits(), 0);
        assert_eq!(c.misses(), 2);
        assert!(c.is_empty());
    }

    #[test]
    fn capacity_caps_insertions_but_stays_correct() {
        let c = GmdCache::new(SHARDS); // one entry per shard
        for k in 1..200 {
            let dx = k as f64 * 1e-6;
            let got = c.gmd(dx, 0.0, 1e-6, 1e-6, 1e-6, 1e-6);
            let want = rect_gmd(dx, 0.0, 1e-6, 1e-6, 1e-6, 1e-6);
            assert_eq!(got.to_bits(), want.to_bits());
        }
        assert!(c.len() <= SHARDS);
    }

    #[test]
    fn concurrent_use_is_consistent() {
        let c = GmdCache::new(4096);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for k in 1..100 {
                        let dx = (k % 10 + 1) as f64 * 1e-6;
                        let got = c.gmd(dx, 0.0, 1e-6, 1e-6, 1e-6, 1e-6);
                        let want = rect_gmd(dx, 0.0, 1e-6, 1e-6, 1e-6, 1e-6);
                        assert_eq!(got.to_bits(), want.to_bits());
                    }
                });
            }
        });
        assert_eq!(c.hits() + c.misses(), 4 * 99);
        assert_eq!(c.len(), 10);
    }
}
