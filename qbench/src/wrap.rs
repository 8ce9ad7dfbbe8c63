//! Pass-through wrappers that record a span around every call crossing
//! into a layer. They are built only for the traced run; the untraced run
//! uses the plain types, so they cost it nothing.

use crate::trace::{self, Op};
use durable_queues::{DurableQueue, QueueConfig, RecoverableQueue};
use pmem::{FenceHint, MapRef, PmemPool, PoolBackend, StatsSnapshot};
use std::sync::{Arc, Mutex};
use store::FilePool;

/// A queue whose `enqueue`/`dequeue` calls are timed as `core` spans (the
/// algorithm, when placed under a `ShardedQueue`) or `shard` spans (when
/// placed around one).
pub struct Traced<Q> {
    inner: Q,
    enqueue: Op,
    dequeue: Op,
    shard: u8,
}

impl<Q> Traced<Q> {
    /// Times a whole sharded queue: its calls are `shard` spans.
    pub fn shard_layer(inner: Q) -> Self {
        Traced {
            inner,
            enqueue: Op::ShardEnqueue,
            dequeue: Op::ShardDequeue,
            shard: 0,
        }
    }

    /// The wrapped queue.
    pub fn inner(&self) -> &Q {
        &self.inner
    }

    fn core(inner: Q, pool: &Arc<PmemPool>) -> Self {
        Traced {
            inner,
            enqueue: Op::CoreEnqueue,
            dequeue: Op::CoreDequeue,
            shard: shard_of(pool),
        }
    }
}

impl<Q: DurableQueue> DurableQueue for Traced<Q> {
    #[inline]
    fn enqueue(&self, tid: usize, item: u64) {
        let t = trace::enter(self.enqueue, self.shard, item);
        self.inner.enqueue(tid, item);
        trace::exit(t, None);
    }

    #[inline]
    fn dequeue(&self, tid: usize) -> Option<u64> {
        let t = trace::enter(self.dequeue, self.shard, 0);
        let v = self.inner.dequeue(tid);
        trace::exit(t, Some(v.unwrap_or(0)));
        v
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn pool(&self) -> &Arc<PmemPool> {
        self.inner.pool()
    }

    fn config(&self) -> QueueConfig {
        self.inner.config()
    }

    fn stats(&self) -> StatsSnapshot {
        self.inner.stats()
    }

    fn reset_stats(&self) {
        self.inner.reset_stats()
    }
}

impl<Q: RecoverableQueue> RecoverableQueue for Traced<Q> {
    fn create(pool: Arc<PmemPool>, config: QueueConfig) -> Self {
        let q = Q::create(Arc::clone(&pool), config);
        Traced::core(q, &pool)
    }

    fn recover(pool: Arc<PmemPool>, config: QueueConfig) -> Self {
        let q = Q::recover(Arc::clone(&pool), config);
        Traced::core(q, &pool)
    }
}

/// Pool → shard index, so a `core` span can name the shard it ran on
/// (`ShardedQueue` builds its inner queues from the pools alone).
static SHARD_OF: Mutex<Vec<(usize, u8)>> = Mutex::new(Vec::new());

/// Records that `pool` backs shard `shard`.
pub fn register_shard(pool: &Arc<PmemPool>, shard: usize) {
    let key = Arc::as_ptr(pool) as usize;
    let mut map = SHARD_OF.lock().expect("shard registry poisoned");
    map.retain(|&(k, _)| k != key);
    map.push((key, shard as u8));
}

fn shard_of(pool: &Arc<PmemPool>) -> u8 {
    let key = Arc::as_ptr(pool) as usize;
    let map = SHARD_OF.lock().expect("shard registry poisoned");
    map.iter().find(|&&(k, _)| k == key).map_or(0, |&(_, s)| s)
}

/// A [`FilePool`] whose persistence calls — `sfence`, `flush`,
/// `persist_now` and `try_grow` — are timed as `store` spans. Every other
/// call is forwarded untouched.
pub struct TracedBackend(pub FilePool);

impl TracedBackend {
    /// Wraps `file` into a pool, as [`FilePool::into_pool`] would.
    pub fn into_pool(file: FilePool) -> Arc<PmemPool> {
        Arc::new(PmemPool::from_backend(Box::new(TracedBackend(file))))
    }
}

impl PoolBackend for TracedBackend {
    fn kind(&self) -> &'static str {
        self.0.kind()
    }
    fn len(&self) -> usize {
        PoolBackend::len(&self.0)
    }
    fn load_u64(&self, off: u32) -> u64 {
        self.0.load_u64(off)
    }
    fn store_u64(&self, off: u32, val: u64) {
        self.0.store_u64(off, val)
    }
    fn cas_u64(&self, off: u32, current: u64, new: u64) -> Result<u64, u64> {
        self.0.cas_u64(off, current, new)
    }
    fn fetch_add_u64(&self, off: u32, val: u64) -> u64 {
        self.0.fetch_add_u64(off, val)
    }
    fn swap_u64(&self, off: u32, val: u64) -> u64 {
        self.0.swap_u64(off, val)
    }
    fn flush(&self, tid: usize, off: u32) {
        trace::span(Op::StoreFlush, 0, || self.0.flush(tid, off))
    }
    fn sfence(&self, tid: usize) {
        trace::span(Op::StoreSfence, 0, || self.0.sfence(tid))
    }
    fn nt_store_u64(&self, tid: usize, off: u32, val: u64) {
        self.0.nt_store_u64(tid, off, val)
    }
    fn persist_now(&self, off: u32) {
        trace::span(Op::StorePersist, 0, || self.0.persist_now(off))
    }
    fn mark_line_cached(&self, off: u32) {
        self.0.mark_line_cached(off)
    }
    fn zero_range(&self, off: u32, len: u32) {
        self.0.zero_range(off, len)
    }
    fn watermark(&self) -> u32 {
        self.0.watermark()
    }
    fn cas_watermark(&self, current: u32, new: u32) -> Result<u32, u32> {
        self.0.cas_watermark(current, new)
    }
    fn try_grow(&self, min_len: usize) -> bool {
        let t = trace::enter(Op::StoreGrow, 0, 0);
        let grown = self.0.try_grow(min_len);
        trace::exit(t, Some(grown as u64));
        grown
    }
    fn growth_epoch(&self) -> u32 {
        PoolBackend::growth_epoch(&self.0)
    }
    fn fence_hint(&self) -> FenceHint {
        self.0.fence_hint()
    }
    fn map_ref(&self) -> Option<MapRef<'_>> {
        PoolBackend::map_ref(&self.0)
    }
    fn root_u64(&self, slot: usize) -> u64 {
        self.0.root_u64(slot)
    }
    fn set_root_u64(&self, slot: usize, val: u64) {
        self.0.set_root_u64(slot, val)
    }
    fn persistent_u64_at(&self, off: u32) -> u64 {
        self.0.persistent_u64_at(off)
    }
    fn sync(&self) {
        self.0.sync()
    }
    fn mark_clean(&self, clean: bool) {
        self.0.mark_clean(clean)
    }
}
