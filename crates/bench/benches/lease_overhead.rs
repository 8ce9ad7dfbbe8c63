//! What peek-lock consumption costs over destructive dequeues: the same
//! enqueue/consume pair through each consume path on one base algorithm
//! (`OptUnlinkedQueue`, the paper's best second-amendment queue):
//!
//! * `destructive` — the bare queue: `dequeue` removes the item, a
//!   consumer crash after it loses the message (the baseline every other
//!   row pays its overhead against),
//! * `peek-lock-process-crash` — `lease::LeasedQueue`, the lease engine
//!   with one consumer group: every grant and ack copies one CRC'd record
//!   into the group's mapped ack-log segment, page-cache durability
//!   (survives `kill -9`),
//! * `peek-lock-power-fail` — the same with an `msync` of the record's
//!   page per append (survives power loss; the sync dominates),
//! * `exactly-once` — `ack_exactly_once`: the ack rides a `ptm` redo-log
//!   transaction together with one consumer-side word write, so the
//!   commit point settles both atomically,
//! * `grouped-2` — `lease::GroupedQueue` with two consumer groups: the
//!   consuming group pops the item and pays only its GRANT (no PEND) and
//!   ACK appends, and the other group pays one PEND append, so the row
//!   minus `peek-lock-process-crash` (the same engine with one group) is
//!   the fan-out cost (not competition).
//!
//! ```bash
//! cargo bench --bench lease_overhead           # full run
//! cargo bench --bench lease_overhead -- --test # CI smoke mode
//! ```

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use durable_queues::{DurableQueue, OptUnlinkedQueue, QueueConfig, RecoverableQueue};
use harness::ptm::FlushPolicy;
use lease::{ExactlyOnce, GroupedQueue, LeaseConfig, LeasedQueue};
use pmem::{PmemPool, PoolConfig};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;
use store::SyncPolicy;

const PREFILL: u64 = 1024;

fn base_queue() -> OptUnlinkedQueue {
    let pool = Arc::new(PmemPool::new(PoolConfig::test_with_size(64 << 20)));
    let queue = OptUnlinkedQueue::create(
        pool,
        QueueConfig {
            max_threads: 1,
            area_size: 4 << 20,
        },
    );
    for i in 0..PREFILL {
        queue.enqueue(0, i);
    }
    queue
}

fn log_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bench-lease-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create bench lease dir");
    dir
}

fn leased_queue(tag: &str, sync: SyncPolicy) -> (LeasedQueue<OptUnlinkedQueue>, PathBuf) {
    let dir = log_dir(tag);
    let queue = LeasedQueue::create(base_queue(), None, LeaseConfig::new(&dir).with_sync(sync))
        .expect("create leased queue");
    (queue, dir)
}

/// One enqueue + one consume through each path. The peek-lock rows pay
/// two ack-log appends per pair (GRANT + ACK) and amortised segment
/// rotation/retirement; the exactly-once row pays a redo-log transaction
/// instead of the ACK.
fn consume_pair(c: &mut Criterion) {
    let mut group = c.benchmark_group("lease/consume_pair");
    group
        .sample_size(20)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(600));

    {
        let queue = base_queue();
        group.bench_function(BenchmarkId::new("mode", "destructive"), |b| {
            b.iter(|| {
                queue.enqueue(0, 7);
                std::hint::black_box(queue.dequeue(0));
            })
        });
    }

    for (tag, sync) in [
        ("peek-lock-process-crash", SyncPolicy::ProcessCrash),
        ("peek-lock-power-fail", SyncPolicy::PowerFail),
    ] {
        let (queue, dir) = leased_queue(tag, sync);
        group.bench_function(BenchmarkId::new("mode", tag), |b| {
            b.iter(|| {
                queue.enqueue(0, 7);
                let lease = queue.dequeue(0).expect("prefilled queue grants");
                queue.ack(&lease).expect("ack");
            })
        });
        drop(queue);
        let _ = std::fs::remove_dir_all(&dir);
    }

    // The grouped row: every consume-pair grants the popped item straight
    // into g0 (GRANT + ACK) and PENDs it into g1, whose copies just
    // accumulate in its pending set. Rotation is left at its default
    // cadence so the measured cost includes the amortised rotate/retire
    // path.
    {
        let tag = "grouped-2";
        let dir = log_dir(tag);
        let queue = Arc::new(
            GroupedQueue::create(
                base_queue(),
                vec![None, None],
                LeaseConfig::new(&dir),
                ["g0", "g1"],
            )
            .expect("create grouped queue"),
        );
        let consumer = queue.group("g0").expect("g0 handle");
        // Drain the prefill through g0 so the timed pair is enqueue → pop
        // → grant → ack.
        while let Some(l) = consumer.dequeue(0) {
            consumer.ack(&l).expect("prefill ack");
        }
        group.bench_function(BenchmarkId::new("mode", tag), |b| {
            b.iter(|| {
                queue.enqueue(0, 7);
                let lease = consumer.dequeue(0).expect("dispatched item grants");
                consumer.ack(&lease).expect("grouped ack");
            })
        });
        drop(consumer);
        drop(queue);
        let _ = std::fs::remove_dir_all(&dir);
    }

    {
        let (queue, dir) = leased_queue("exactly-once", SyncPolicy::ProcessCrash);
        let tx_pool = Arc::new(PmemPool::new(PoolConfig::test_with_size(16 << 20)));
        let consumer_state = tx_pool.alloc_raw(64, 64);
        let eo = ExactlyOnce::create(Arc::clone(&tx_pool), FlushPolicy::BatchedCommit);
        let mut v = 0u64;
        group.bench_function(BenchmarkId::new("mode", "exactly-once"), |b| {
            b.iter(|| {
                queue.enqueue(0, 7);
                let lease = queue.dequeue(0).expect("prefilled queue grants");
                v = v.wrapping_add(1);
                queue
                    .ack_exactly_once(0, &lease, &eo, |tx| tx.write(consumer_state, v))
                    .expect("exactly-once ack");
            })
        });
        drop(queue);
        let _ = std::fs::remove_dir_all(&dir);
    }

    group.finish();
}

criterion_group!(benches, consume_pair);
criterion_main!(benches);
