//! Thread-local buffer arena for the solver's hot loops.
//!
//! Under `run_threaded` every simulated rank is one OS thread, so a
//! thread-local pool gives each rank its own allocation-free scratch space
//! without any locking. Buffers are recycled by capacity class (the
//! smallest power of two holding the request), so one Newton iteration's
//! worth of takes warms the pool for every following iteration — the
//! steady state performs zero heap allocations through the arena.
//!
//! Every `take`, from any pool, counts a hit (a recycled buffer) or a miss
//! (a fresh heap allocation) in two plain per-thread counters, read with
//! [`arena_counts`]. The zero-allocation regression test pins the miss
//! count flat across warm iterations.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::ops::{Deref, DerefMut};
use std::thread::LocalKey;

/// Buffers kept per capacity class; bounds worst-case retention without
/// affecting steady-state behavior (one iteration never holds this many
/// live buffers of one class).
const MAX_PER_CLASS: usize = 64;

/// A pool of reusable `Vec<T>` buffers, bucketed by power-of-two capacity.
///
/// Not thread-safe by itself — intended to live inside a `thread_local!`
/// (see [`F64_ARENA`]) and be accessed through [`take_pooled`].
#[derive(Debug)]
pub struct BufferPool<T> {
    buckets: RefCell<BTreeMap<usize, Vec<Vec<T>>>>,
}

/// How this thread's pool takes were served since the thread started.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArenaCounts {
    /// Takes that recycled a pooled buffer.
    pub hits: u64,
    /// Takes that made a fresh heap allocation.
    pub misses: u64,
}

impl<T> Default for BufferPool<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> BufferPool<T> {
    /// An empty pool.
    pub const fn new() -> Self {
        Self { buckets: RefCell::new(BTreeMap::new()) }
    }

    /// Capacity class of a request: smallest power of two `>= len`.
    fn class_of(len: usize) -> usize {
        len.next_power_of_two().max(1)
    }
}

impl<T: Clone + Default> BufferPool<T> {
    /// Takes a buffer of exactly `len` default-initialized elements,
    /// recycling a pooled allocation when one of the right class exists.
    pub fn take(&self, len: usize) -> Vec<T> {
        let class = Self::class_of(len);
        let recycled = self.buckets.borrow_mut().get_mut(&class).and_then(Vec::pop);
        COUNTS.with(|c| {
            let mut n = c.get();
            if recycled.is_some() {
                n.hits += 1;
            } else {
                n.misses += 1;
            }
            c.set(n);
        });
        let mut v = recycled.unwrap_or_else(|| Vec::with_capacity(class));
        v.clear();
        v.resize(len, T::default());
        v
    }

    /// Returns a buffer to the pool for reuse.
    pub fn put(&self, mut v: Vec<T>) {
        if v.capacity() == 0 {
            return;
        }
        // Largest power of two that the capacity is guaranteed to hold, so
        // any `take(len)` hitting this bucket fits without reallocating.
        let class = 1usize << (usize::BITS - 1 - v.capacity().leading_zeros());
        v.clear();
        let mut buckets = self.buckets.borrow_mut();
        let bucket = buckets.entry(class).or_default();
        if bucket.len() < MAX_PER_CLASS {
            bucket.push(v);
        }
    }
}

/// A pooled buffer that returns itself to its thread-local pool on drop.
/// Dereferences to `Vec<T>` (and transitively `[T]`).
#[derive(Debug)]
pub struct PooledVec<T: Clone + Default + 'static> {
    vec: Vec<T>,
    pool: &'static LocalKey<BufferPool<T>>,
}

impl<T: Clone + Default + 'static> PooledVec<T> {
    /// Consumes the guard, keeping the buffer out of the pool.
    pub fn into_vec(mut self) -> Vec<T> {
        std::mem::take(&mut self.vec)
    }
}

impl<T: Clone + Default + 'static> Deref for PooledVec<T> {
    type Target = Vec<T>;
    fn deref(&self) -> &Vec<T> {
        &self.vec
    }
}

impl<T: Clone + Default + 'static> DerefMut for PooledVec<T> {
    fn deref_mut(&mut self) -> &mut Vec<T> {
        &mut self.vec
    }
}

impl<T: Clone + Default + 'static> Clone for PooledVec<T> {
    fn clone(&self) -> Self {
        let mut v = take_pooled(self.pool, self.vec.len());
        v.vec.clone_from_slice(&self.vec);
        v
    }
}

/// Takes a default-initialized pooled buffer of `len` elements from a
/// thread-local pool.
pub fn take_pooled<T: Clone + Default + 'static>(
    pool: &'static LocalKey<BufferPool<T>>,
    len: usize,
) -> PooledVec<T> {
    PooledVec { vec: pool.with(|p| p.take(len)), pool }
}

impl<T: Clone + Default + 'static> Drop for PooledVec<T> {
    fn drop(&mut self) {
        let vec = std::mem::take(&mut self.vec);
        self.pool.with(|p| p.put(vec));
    }
}

thread_local! {
    /// The shared `f64` scratch arena for this thread (= this simulated
    /// rank).
    pub static F64_ARENA: BufferPool<f64> = const { BufferPool::new() };
    static COUNTS: Cell<ArenaCounts> = const { Cell::new(ArenaCounts { hits: 0, misses: 0 }) };
}

/// Takes a zero-initialized `f64` buffer of `len` elements from this
/// thread's arena.
pub fn arena_f64(len: usize) -> PooledVec<f64> {
    take_pooled(&F64_ARENA, len)
}

/// How this thread's pools (every [`BufferPool`], not only [`F64_ARENA`])
/// served their takes so far.
pub fn arena_counts() -> ArenaCounts {
    COUNTS.with(Cell::get)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_returns_zeroed_exact_length() {
        let a = arena_f64(100);
        assert_eq!(a.len(), 100);
        assert!(a.iter().all(|&v| v == 0.0));
        assert!(a.capacity() >= 100);
    }

    #[test]
    fn buffers_are_recycled_across_takes() {
        let ptr = {
            let mut a = arena_f64(1000);
            a[0] = 42.0;
            a.as_ptr() as usize
        };
        // Same thread, same class: the very next take must reuse the
        // allocation and must come back zeroed.
        let b = arena_f64(900);
        assert_eq!(b.as_ptr() as usize, ptr, "allocation was not recycled");
        assert!(b.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn takes_count_one_hit_or_one_miss() {
        let before = arena_counts();
        drop(arena_f64(3000));
        drop(arena_f64(3000));
        let after = arena_counts();
        assert_eq!(after.hits + after.misses, before.hits + before.misses + 2);
        assert!(after.hits > before.hits, "the second take recycles the first buffer");
    }

    #[test]
    fn into_vec_detaches_from_pool() {
        let v = arena_f64(64).into_vec();
        assert_eq!(v.len(), 64);
    }

    #[test]
    fn pool_classes_do_not_mix() {
        let small_ptr = {
            let a = arena_f64(8);
            a.as_ptr() as usize
        };
        let big = arena_f64(4096);
        assert_ne!(big.as_ptr() as usize, small_ptr);
    }
}
