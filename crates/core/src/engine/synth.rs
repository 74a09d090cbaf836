//! The tensor-synthesis cache behind [`crate::GraphExecutor::prepare`].

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use wino_tensor::{kaiming_normal, normal, Tensor};

/// A shape-keyed, byte-bounded cache of synthesized tensors.
///
/// The graph executor runs on synthesized activations and weights; graphs
/// repeat the same shapes over and over (ResNet-34 alone has six identical
/// 56×56/64-channel convs), and every re-prepared graph would otherwise
/// re-run the RNG. The cache keys on (distribution, dims, seed) and hands
/// out cheap [`Arc`] clones to [`crate::GraphExecutor::prepare`].
///
/// Insertion evicts the oldest entries once the byte budget (default
/// [`SynthCache::DEFAULT_BUDGET`]) is exceeded, so a long-lived executor
/// sweeping many graphs or seeds cannot grow without bound; eviction only
/// drops the cache's own reference — tensors held by live prepared graphs
/// stay alive through their `Arc`s.
#[derive(Debug)]
pub struct SynthCache {
    inner: Mutex<SynthInner>,
    hits: AtomicUsize,
    misses: AtomicUsize,
}

/// Cache key: (is-Kaiming, dims, seed).
type SynthKey = (bool, Vec<usize>, u64);

/// Point-in-time counters of a [`SynthCache`].
///
/// A public snapshot so the serving stats and the benches can report cache
/// effectiveness without reaching into executor internals.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SynthStats {
    /// Requests served from the cache.
    pub hits: usize,
    /// Requests that ran the synthesizer.
    pub misses: usize,
    /// Tensors currently cached.
    pub entries: usize,
    /// Bytes of tensor data currently cached.
    pub bytes: usize,
}

impl SynthStats {
    /// Hits as a fraction of all requests (0 when nothing was requested).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[derive(Debug, Default)]
struct SynthInner {
    map: HashMap<SynthKey, Arc<Tensor<f32>>>,
    order: VecDeque<SynthKey>,
    bytes: usize,
    budget: usize,
}

impl Default for SynthCache {
    fn default() -> Self {
        Self::with_budget(Self::DEFAULT_BUDGET)
    }
}

impl SynthCache {
    /// Default byte budget: enough for a couple of full-scale benchmark
    /// graphs' weights plus their inputs.
    pub const DEFAULT_BUDGET: usize = 512 << 20;

    /// An empty cache with the default byte budget.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty cache holding at most `budget` bytes of tensor data.
    pub fn with_budget(budget: usize) -> Self {
        Self {
            inner: Mutex::new(SynthInner {
                budget,
                ..SynthInner::default()
            }),
            hits: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
        }
    }

    /// A standard-normal activation tensor of `dims` for `seed`.
    pub fn normal(&self, dims: &[usize], seed: u64) -> Arc<Tensor<f32>> {
        self.get_or_insert(false, dims, seed, || normal(dims, 0.0, 1.0, seed))
    }

    /// A Kaiming-normal weight tensor of `dims` for `seed`.
    pub fn kaiming(&self, dims: &[usize], seed: u64) -> Arc<Tensor<f32>> {
        self.get_or_insert(true, dims, seed, || kaiming_normal(dims, seed))
    }

    fn get_or_insert(
        &self,
        kaiming: bool,
        dims: &[usize],
        seed: u64,
        make: impl FnOnce() -> Tensor<f32>,
    ) -> Arc<Tensor<f32>> {
        let key = (kaiming, dims.to_vec(), seed);
        let mut inner = self.inner.lock().expect("synth cache poisoned");
        if let Some(t) = inner.map.get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(t);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let t = Arc::new(make());
        inner.bytes += t.len() * std::mem::size_of::<f32>();
        inner.map.insert(key.clone(), Arc::clone(&t));
        inner.order.push_back(key);
        // Evict oldest-first down to the budget (the new entry is kept even
        // if it alone exceeds it — the caller needs the tensor either way).
        while inner.bytes > inner.budget && inner.order.len() > 1 {
            let victim = inner.order.pop_front().expect("non-empty order");
            if let Some(old) = inner.map.remove(&victim) {
                inner.bytes -= old.len() * std::mem::size_of::<f32>();
            }
        }
        t
    }

    /// A point-in-time snapshot of the cache counters.
    pub fn stats(&self) -> SynthStats {
        let inner = self.inner.lock().expect("synth cache poisoned");
        SynthStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: inner.map.len(),
            bytes: inner.bytes,
        }
    }

    /// Cache hits so far.
    pub fn hits(&self) -> usize {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cache misses (synthesis runs) so far.
    pub fn misses(&self) -> usize {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of cached tensors.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("synth cache poisoned").map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes of tensor data currently cached.
    pub fn bytes(&self) -> usize {
        self.inner.lock().expect("synth cache poisoned").bytes
    }

    /// Drops every cached tensor (the counters are kept).
    pub fn clear(&self) {
        let mut inner = self.inner.lock().expect("synth cache poisoned");
        inner.map.clear();
        inner.order.clear();
        inner.bytes = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synth_cache_evicts_oldest_beyond_its_budget() {
        // Budget fits two 4-element tensors (16 bytes each) but not three.
        let cache = SynthCache::with_budget(32);
        let a = cache.normal(&[4], 1);
        let _b = cache.normal(&[4], 2);
        let _c = cache.normal(&[4], 3);
        assert_eq!(cache.len(), 2, "oldest entry must be evicted");
        assert!(cache.bytes() <= 32);
        // The evicted tensor is regenerated identically on re-request.
        let a2 = cache.normal(&[4], 1);
        assert_eq!(*a, *a2);
    }
}
