//! The content-hash LRU circuit cache.
//!
//! SymPhase front-loads all the expensive work into symbolic
//! initialization; after that, sampling is a cheap F₂ product. The cache
//! exploits that asymmetry: a circuit is parsed and each engine's sampler
//! is built **once**, keyed by the canonical content hash
//! ([`crate::hash::circuit_hash`]), and every later request for the same
//! (circuit, engine) pair reuses the initialized `Arc<dyn Sampler>` —
//! workers sample from it concurrently without re-initialization.
//!
//! Eviction is LRU at circuit granularity: one entry holds the parsed
//! circuit plus up to one sampler per engine, and the least recently
//! *used* entry (any engine) is evicted when the capacity is exceeded.
//! Hit/miss counters are exposed for the stats frame and are pinned by
//! the warm-cache e2e tests.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use symphase_backend::{EngineKind, Sampler};
use symphase_circuit::Circuit;

use crate::hash::CircuitHash;

/// Why [`CircuitCache::get_or_build`] failed.
#[derive(Debug)]
pub enum CacheError<E> {
    /// A by-hash request named a circuit that is not (or no longer) cached.
    UnknownHash,
    /// The caller's build closure failed (parse passed, construction
    /// didn't) — carries the caller's error.
    Build(E),
}

struct Entry {
    circuit: Circuit,
    /// One slot per [`EngineKind::ALL`] position; built on first use.
    samplers: [Option<Arc<dyn Sampler>>; EngineKind::ALL.len()],
    /// LRU clock value of the last touch.
    last_used: u64,
}

struct Inner {
    map: HashMap<CircuitHash, Entry>,
    clock: u64,
}

/// A bounded, thread-safe circuit → sampler cache (see module docs).
pub struct CircuitCache {
    inner: Mutex<Inner>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl CircuitCache {
    /// A cache holding at most `capacity` circuits (min 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                clock: 0,
            }),
            capacity: capacity.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Requests that found their (circuit, engine) sampler already built.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Requests that had to build (and cache) a sampler.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Circuits currently cached.
    pub fn entries(&self) -> u64 {
        self.lock().map.len() as u64
    }

    /// The cache state, recovering it if a panicking build poisoned the
    /// lock. That is sound because a build runs after only the LRU clock
    /// and the touched entry's `last_used` have moved — both still a valid
    /// LRU order — and the map changes only once the build has returned.
    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The sampler for `(hash, engine)`, building and caching it on miss.
    ///
    /// * `circuit` supplies the parsed circuit when the caller has one (a
    ///   by-text request); `None` means the caller only knows the hash,
    ///   and a missing entry is [`CacheError::UnknownHash`].
    /// * `build` runs at most once, under the cache lock — concurrent
    ///   requests for the same circuit therefore initialize it exactly
    ///   once and every other worker waits for the warm sampler instead
    ///   of duplicating the work.
    ///
    /// Returns the sampler and whether it was a cache **hit** (sampler
    /// already initialized).
    pub fn get_or_build<E>(
        &self,
        hash: CircuitHash,
        circuit: Option<Circuit>,
        engine: EngineKind,
        build: impl FnOnce(&Circuit) -> Result<Box<dyn Sampler>, E>,
    ) -> Result<(Arc<dyn Sampler>, bool), CacheError<E>> {
        let slot = EngineKind::ALL
            .iter()
            .position(|k| *k == engine)
            .expect("EngineKind::ALL is complete");
        let mut inner = self.lock();
        inner.clock += 1;
        let clock = inner.clock;
        if let Some(entry) = inner.map.get_mut(&hash) {
            entry.last_used = clock;
            if let Some(sampler) = &entry.samplers[slot] {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Ok((Arc::clone(sampler), true));
            }
            let sampler: Arc<dyn Sampler> =
                Arc::from(build(&entry.circuit).map_err(CacheError::Build)?);
            entry.samplers[slot] = Some(Arc::clone(&sampler));
            self.misses.fetch_add(1, Ordering::Relaxed);
            return Ok((sampler, false));
        }
        let circuit = circuit.ok_or(CacheError::UnknownHash)?;
        let sampler: Arc<dyn Sampler> = Arc::from(build(&circuit).map_err(CacheError::Build)?);
        let mut entry = Entry {
            circuit,
            samplers: Default::default(),
            last_used: clock,
        };
        entry.samplers[slot] = Some(Arc::clone(&sampler));
        inner.map.insert(hash, entry);
        self.misses.fetch_add(1, Ordering::Relaxed);
        if inner.map.len() > self.capacity {
            let victim = inner
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(h, _)| *h)
                .expect("cache over capacity implies nonempty");
            inner.map.remove(&victim);
        }
        Ok((sampler, false))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::circuit_hash;
    use symphase_backend::SampleBatch;

    struct NullSampler;
    impl Sampler for NullSampler {
        fn name(&self) -> &'static str {
            "null"
        }
        fn num_measurements(&self) -> usize {
            0
        }
        fn num_detectors(&self) -> usize {
            0
        }
        fn num_observables(&self) -> usize {
            0
        }
        fn sample_into(&self, _batch: &mut SampleBatch, _rng: &mut dyn rand::RngCore) {}
    }

    fn circ(text: &str) -> (CircuitHash, Circuit) {
        let c = Circuit::parse(text).expect("parse");
        (circuit_hash(&c), c)
    }

    fn build_ok(_c: &Circuit) -> Result<Box<dyn Sampler>, String> {
        Ok(Box::new(NullSampler))
    }

    #[test]
    fn second_request_hits_and_counters_track() {
        let cache = CircuitCache::new(4);
        let (h, c) = circ("H 0\nM 0\n");
        let (_, hit) = cache
            .get_or_build(h, Some(c.clone()), EngineKind::Frame, build_ok)
            .expect("build");
        assert!(!hit);
        // Same engine: hit. Different engine on the same circuit: a miss
        // that builds into the existing entry — by hash only, no text.
        let (_, hit) = cache
            .get_or_build::<String>(h, None, EngineKind::Frame, |_| {
                panic!("must not rebuild on hit")
            })
            .expect("hit");
        assert!(hit);
        let (_, hit) = cache
            .get_or_build(h, None, EngineKind::Tableau, build_ok)
            .expect("build");
        assert!(!hit);
        assert_eq!((cache.hits(), cache.misses(), cache.entries()), (1, 2, 1));
    }

    #[test]
    fn unknown_hash_is_typed_and_counts_nothing() {
        let cache = CircuitCache::new(4);
        let (h, _) = circ("H 0\nM 0\n");
        match cache.get_or_build(h, None, EngineKind::Frame, build_ok) {
            Err(CacheError::UnknownHash) => {}
            other => panic!("want UnknownHash, got {:?}", other.map(|(_, hit)| hit)),
        }
        assert_eq!((cache.hits(), cache.misses()), (0, 0));
    }

    #[test]
    fn build_failure_is_not_cached() {
        let cache = CircuitCache::new(4);
        let (h, c) = circ("H 0\nM 0\n");
        let r = cache.get_or_build(h, Some(c.clone()), EngineKind::Frame, |_| {
            Err::<Box<dyn Sampler>, _>("too big".to_string())
        });
        assert!(matches!(r, Err(CacheError::Build(ref m)) if m == "too big"));
        assert_eq!(cache.entries(), 0);
        // A later good build still works.
        let (_, hit) = cache
            .get_or_build(h, Some(c), EngineKind::Frame, build_ok)
            .expect("build");
        assert!(!hit);
    }

    #[test]
    fn a_panicking_build_leaves_the_cache_usable() {
        let cache = CircuitCache::new(4);
        let (h, c) = circ("H 0\nM 0\n");
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = cache.get_or_build::<String>(h, Some(c.clone()), EngineKind::Frame, |_| {
                panic!("build blew up")
            });
        }));
        assert!(panicked.is_err());
        assert_eq!(cache.entries(), 0, "nothing was inserted");
        let (_, hit) = cache
            .get_or_build(h, Some(c), EngineKind::Frame, build_ok)
            .expect("the poisoned lock is recovered");
        assert!(!hit);
        assert_eq!((cache.hits(), cache.misses(), cache.entries()), (0, 1, 1));
    }

    #[test]
    fn lru_evicts_the_least_recently_used_circuit() {
        let cache = CircuitCache::new(2);
        let (ha, ca) = circ("H 0\nM 0\n");
        let (hb, cb) = circ("H 1\nM 1\n");
        let (hc, cc) = circ("H 2\nM 2\n");
        cache
            .get_or_build(ha, Some(ca), EngineKind::Frame, build_ok)
            .expect("a");
        cache
            .get_or_build(hb, Some(cb), EngineKind::Frame, build_ok)
            .expect("b");
        // Touch A so B becomes the LRU victim when C arrives.
        cache
            .get_or_build(ha, None, EngineKind::Frame, build_ok)
            .expect("a again");
        cache
            .get_or_build(hc, Some(cc), EngineKind::Frame, build_ok)
            .expect("c");
        assert_eq!(cache.entries(), 2);
        assert!(matches!(
            cache.get_or_build(hb, None, EngineKind::Frame, build_ok),
            Err(CacheError::UnknownHash)
        ));
        let (_, hit) = cache
            .get_or_build(ha, None, EngineKind::Frame, build_ok)
            .expect("a cached");
        assert!(hit, "A must have survived eviction");
    }
}
