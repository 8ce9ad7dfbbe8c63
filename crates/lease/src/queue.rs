//! Peek-lock consumption over any [`DurableQueue`].
//!
//! [`LeasedQueue`] wraps a base queue so that `dequeue` no longer destroys:
//! it returns a [`Lease`] while the item stays durably owned in the
//! [ack log](crate::log). Consumers [`ack`](LeasedQueue::ack) to retire,
//! [`nack`](LeasedQueue::nack) (or let the deadline pass) to redeliver with
//! an incremented delivery count, and items that exhaust their delivery
//! budget overflow to a dead-letter queue.
//!
//! A `LeasedQueue` is the [lease engine](crate::group) with exactly one
//! consumer group, whose segment chain (`GROUP.meta`, `segment-NNNN.log`)
//! lives directly in [`LeaseConfig::dir`]. A fresh item costs one `GRANT`
//! and one `ACK` record. See the crate docs for the state machine and the
//! crash-consistency argument.

use crate::group::{ConsumerGroup, GroupedQueue, Slots};
use durable_queues::{DurableQueue, KeyedQueue};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};
use store::SyncPolicy;

/// Name of a [`LeasedQueue`]'s one consumer group (nowhere on disk: the
/// group's log lives in the deployment directory itself; recovery reports
/// carry it).
pub(crate) const GROUP_NAME: &str = "default";

/// The one group of a single-consumer deployment, with its chain in `dir`.
pub(crate) fn leased_slots(dir: &Path) -> Slots {
    vec![(GROUP_NAME.to_owned(), dir.to_path_buf())]
}

/// Lease-layer options of a [`LeasedQueue`] or a
/// [`GroupedQueue`](crate::GroupedQueue), whose every group shares them.
#[derive(Clone, Debug)]
pub struct LeaseConfig {
    /// Directory holding the ack log (`GROUP.meta` and its
    /// `segment-NNNN.log` files) — for file-backed deployments, the same
    /// directory as the pool files. A grouped queue keeps each group's log
    /// in `dir/groups/<name>/` instead.
    pub dir: PathBuf,
    /// How long a consumer may hold a lease before it expires and the item
    /// becomes redeliverable.
    pub lease_timeout: Duration,
    /// Maximum times an item may be delivered before it is dead-lettered
    /// (`0` = unlimited; requires a dead-letter queue when non-zero).
    pub max_deliveries: u32,
    /// Durability tier of the ack log (mirrors the pool files' policy).
    pub sync: SyncPolicy,
    /// Records per ack-log segment before it rotates; settled segments
    /// are then retired (`0` = never rotate).
    pub compact_after: u64,
}

impl LeaseConfig {
    /// A configuration with the given log directory and the defaults:
    /// 30 s lease timeout, unlimited deliveries, process-crash durability,
    /// segment rotation every 4096 records.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        LeaseConfig {
            dir: dir.into(),
            lease_timeout: Duration::from_secs(30),
            max_deliveries: 0,
            sync: SyncPolicy::default(),
            compact_after: crate::segments::DEFAULT_ROTATE_RECORDS,
        }
    }

    /// Overrides the lease timeout.
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.lease_timeout = timeout;
        self
    }

    /// Overrides the delivery budget (`0` = unlimited).
    pub fn with_max_deliveries(mut self, max: u32) -> Self {
        self.max_deliveries = max;
        self
    }

    /// Overrides the durability tier.
    pub fn with_sync(mut self, sync: SyncPolicy) -> Self {
        self.sync = sync;
        self
    }

    /// Overrides the segment rotation threshold (`0` = never rotate).
    pub fn with_compact_after(mut self, records: u64) -> Self {
        self.compact_after = records;
        self
    }
}

/// A granted lease: the peek-locked item plus everything a consumer needs
/// to ack, nack, or reason about redelivery.
#[derive(Clone, Copy, Debug)]
pub struct Lease {
    /// Unique, monotonically increasing lease id, starting at 1 (0 is
    /// reserved: the "no previous lease" sentinel in grant records and the
    /// "nothing acked" sentinel in the exactly-once cursor).
    pub id: u64,
    /// The item under lease.
    pub item: u64,
    /// Which delivery attempt this is (first delivery = 1).
    pub delivery_count: u32,
    /// When the lease expires and the item becomes redeliverable.
    pub deadline: Instant,
}

/// Why an ack/nack was refused.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LeaseError {
    /// The lease is not in flight: it was already acked or nacked, or it
    /// expired and the item has been (or is queued to be) redelivered.
    NotInFlight,
    /// The caller's thread id does not fit the exactly-once cursor
    /// (`tid >= MAX_THREADS`). Validated before the settlement transaction
    /// starts, so no consumer-side work runs and nothing is marked
    /// settling.
    ThreadOutOfRange {
        /// The offending thread id.
        tid: usize,
        /// The exclusive bound ([`pmem::MAX_THREADS`]).
        max: usize,
    },
    /// The consumer-group index does not fit the exactly-once cursor: the
    /// engine was created with fewer stripes than this deployment has
    /// groups (see
    /// [`ExactlyOnce::create_for_groups`](crate::tx::ExactlyOnce::create_for_groups)).
    GroupOutOfRange {
        /// The offending group index.
        group: usize,
        /// Stripes the engine actually has.
        groups: usize,
    },
}

impl std::fmt::Display for LeaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LeaseError::NotInFlight => {
                write!(f, "lease is not in flight (already settled or expired)")
            }
            LeaseError::ThreadOutOfRange { tid, max } => {
                write!(
                    f,
                    "thread id {tid} does not fit the exactly-once cursor \
                     (MAX_THREADS = {max})"
                )
            }
            LeaseError::GroupOutOfRange { group, groups } => {
                write!(
                    f,
                    "consumer group {group} does not fit the exactly-once cursor \
                     (engine was created for {groups} group(s))"
                )
            }
        }
    }
}

impl std::error::Error for LeaseError {}

/// Where a nacked (or expired) item went.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Redelivery {
    /// The item awaits redelivery; the next lease will carry this count.
    Requeued {
        /// Delivery count the next grant will carry.
        next_delivery_count: u32,
    },
    /// The item exhausted its delivery budget and was durably moved to the
    /// dead-letter queue.
    DeadLettered,
}

/// Volatile counters since creation/recovery (not persisted; the ack log
/// is the durable record), one set per consumer group.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LeaseStats {
    /// Items popped from the base queue for this group: granted straight
    /// away or queued for their first delivery.
    pub dispatched: u64,
    /// Leases granted (fresh + redeliveries).
    pub granted: u64,
    /// Grants that were redeliveries (`delivery_count > 1`).
    pub redelivered: u64,
    /// Leases acked.
    pub acked: u64,
    /// Leases explicitly nacked.
    pub nacked: u64,
    /// Leases reaped after their deadline passed.
    pub expired: u64,
    /// Items moved to the dead-letter queue.
    pub dead_lettered: u64,
    /// Exactly-once acks that committed after their lease had already been
    /// reaped *and* regranted — the documented window in which the handoff
    /// degrades to at-least-once.
    pub late_acks: u64,
    /// Ack-log segment rotations.
    pub rotations: u64,
    /// Ack-log segments retired (unlinked): the log's compaction.
    pub compactions: u64,
    /// Ack-log records replayed at open plus records appended since
    /// (retiring a segment does not subtract).
    pub log_records: u64,
    /// Ack-log segment files currently on disk.
    pub segments: u32,
}

impl std::ops::AddAssign for LeaseStats {
    /// Adds every counter of `rhs`, e.g. to total a deployment's groups.
    fn add_assign(&mut self, rhs: LeaseStats) {
        let LeaseStats {
            dispatched,
            granted,
            redelivered,
            acked,
            nacked,
            expired,
            dead_lettered,
            late_acks,
            rotations,
            compactions,
            log_records,
            segments,
        } = rhs;
        self.dispatched += dispatched;
        self.granted += granted;
        self.redelivered += redelivered;
        self.acked += acked;
        self.nacked += nacked;
        self.expired += expired;
        self.dead_lettered += dead_lettered;
        self.late_acks += late_acks;
        self.rotations += rotations;
        self.compactions += compactions;
        self.log_records += log_records;
        self.segments += segments;
    }
}

/// What recovery reconstructed from one group's ack log (the same type
/// the directory open path reports through
/// [`RecoveryReport::groups`](shard::RecoveryReport::groups)).
pub use shard::GroupRecovery as RecoveredLeases;

/// A peek-lock wrapper around any durable queue: the lease engine with one
/// consumer group. See the [module docs](self) and the crate docs.
///
/// All lease state transitions are serialised by one internal lock; the
/// base queue's own lock-free paths still run concurrently for enqueues
/// and for the destructive pop feeding fresh grants.
///
/// # Panics
///
/// Consume-path methods panic if an ack-log append fails at the I/O level:
/// a write of unknown durability would make every subsequent lease
/// transition unsound, so (like a message store losing its WAL device) the
/// process must restart and replay. Constructors return `io::Result`
/// instead, since nothing is in flight yet.
pub struct LeasedQueue<Q: DurableQueue> {
    group: ConsumerGroup<Q>,
}

impl<Q: DurableQueue> LeasedQueue<Q> {
    /// Wraps `base` with a fresh ack log in `config.dir` (deleting any
    /// previous one, including an older build's `LEASES.log` — use
    /// [`recover`](Self::recover) to resume one).
    ///
    /// Fails with `InvalidInput` if `config.max_deliveries > 0` but no
    /// dead-letter queue was supplied: a finite budget with nowhere to
    /// overflow would silently drop items.
    pub fn create(
        base: Q,
        dlq: Option<Arc<dyn DurableQueue>>,
        config: LeaseConfig,
    ) -> io::Result<Self> {
        let engine = GroupedQueue::create_in(base, vec![dlq], &config, leased_slots(&config.dir))?;
        Ok(Self::wrap(engine))
    }

    /// Wraps `base` around the ack log already in `config.dir`, replaying
    /// it so every lease without a terminal record becomes redeliverable:
    /// leases granted at the crash are requeued with `delivery_count + 1`,
    /// nacked-but-not-regranted items keep their recorded next count, and
    /// items whose next delivery would exceed the budget go straight to the
    /// dead-letter queue. A directory without an ack log opens as a fresh
    /// one.
    ///
    /// `cursor` is the deployment's exactly-once ack engine, when it has
    /// one: leases whose ack transaction is known to have committed
    /// ([`ExactlyOnce::acked_ids_in`](crate::tx::ExactlyOnce::acked_ids_in),
    /// queried with the replayed log's generation so entries stamped by an
    /// older or recreated log are ignored) are retired here with repair ack
    /// records instead of being redelivered. Pass `None` for plain
    /// at-least-once deployments.
    ///
    /// Fails with `InvalidData` — leaving the file untouched — if the
    /// directory holds the single-file `LEASES.log` of an older build: its
    /// granted-but-unacked items were already popped from the base queue,
    /// so opening without it would lose them.
    pub fn recover(
        base: Q,
        dlq: Option<Arc<dyn DurableQueue>>,
        config: LeaseConfig,
        cursor: Option<&crate::tx::ExactlyOnce>,
    ) -> io::Result<(Self, RecoveredLeases)> {
        let (engine, mut reports) =
            GroupedQueue::recover_in(base, vec![dlq], &config, leased_slots(&config.dir), cursor)?;
        let report = reports.pop().expect("one report per group");
        Ok((Self::wrap(engine), report))
    }

    /// The single-consumer view of a one-group engine.
    pub(crate) fn wrap(engine: GroupedQueue<Q>) -> Self {
        let group = Arc::new(engine).handles().pop().expect("one group");
        LeasedQueue { group }
    }

    // ------------------------------------------------------------------
    // Produce side (passthrough)
    // ------------------------------------------------------------------

    /// Appends `item` on the base queue.
    pub fn enqueue(&self, tid: usize, item: u64) {
        self.base().enqueue(tid, item);
    }

    // ------------------------------------------------------------------
    // Consume side
    // ------------------------------------------------------------------

    /// Grants a lease on the next item: redeliveries first (in lease-id
    /// order), then a fresh pop from the base queue. Returns `None` when
    /// neither has an item. See [`ConsumerGroup::dequeue`].
    pub fn dequeue(&self, tid: usize) -> Option<Lease> {
        self.group.dequeue(tid)
    }

    /// Durably retires `lease`: the item is consumed and will never be
    /// redelivered. Fails with [`LeaseError::NotInFlight`] if the lease
    /// already settled or expired.
    pub fn ack(&self, lease: &Lease) -> Result<(), LeaseError> {
        self.group.ack(lease)
    }

    /// Returns `lease` unprocessed: the item is requeued for redelivery
    /// with `delivery_count + 1`, or dead-lettered if that would exceed
    /// the budget. `tid` is the caller's thread id on the dead-letter
    /// queue.
    pub fn nack(&self, tid: usize, lease: &Lease) -> Result<Redelivery, LeaseError> {
        self.group.nack(tid, lease)
    }

    /// Reaps every lease whose deadline has passed (see
    /// [`ConsumerGroup::reap_expired`]). Returns the number reaped.
    pub fn reap_expired(&self, tid: usize) -> usize {
        self.group.reap_expired(tid)
    }

    /// Acks `lease` and applies the consumer's own writes in one redo-log
    /// transaction on cursor stripe 0 — the exactly-once handoff (see
    /// [`ConsumerGroup::ack_exactly_once`]).
    pub fn ack_exactly_once<R>(
        &self,
        tid: usize,
        lease: &Lease,
        eo: &crate::tx::ExactlyOnce,
        body: impl FnOnce(&mut ptm::Tx<'_>) -> R,
    ) -> Result<R, LeaseError> {
        self.group.ack_exactly_once(tid, lease, eo, body)
    }

    // ------------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------------

    /// The wrapped base queue.
    pub fn base(&self) -> &Q {
        self.group.queue().base()
    }

    /// The dead-letter queue, if one is attached.
    pub fn dlq(&self) -> Option<&Arc<dyn DurableQueue>> {
        self.group.dlq()
    }

    /// Volatile counters since creation/recovery.
    pub fn stats(&self) -> LeaseStats {
        self.group.stats()
    }

    /// Leases currently in a consumer's hands.
    pub fn in_flight(&self) -> usize {
        self.group.in_flight()
    }

    /// Items awaiting redelivery (nacked/expired/recovered, not yet
    /// regranted).
    pub fn pending_redelivery(&self) -> usize {
        self.group.pending_redelivery()
    }

    /// Ack-log records replayed at open plus records appended since
    /// (see [`LeaseStats::log_records`]).
    pub fn log_records(&self) -> u64 {
        self.stats().log_records
    }

    /// The configured lease timeout.
    pub fn lease_timeout(&self) -> Duration {
        self.group.queue().lease_timeout()
    }

    /// The configured delivery budget (`0` = unlimited).
    pub fn max_deliveries(&self) -> u32 {
        self.group.queue().max_deliveries()
    }
}

impl<Q: KeyedQueue> LeasedQueue<Q> {
    /// Key-routed enqueue on the base queue (per-key FIFO when the base is
    /// a key-hash sharded queue).
    pub fn enqueue_keyed(&self, tid: usize, key: u64, item: u64) {
        self.base().enqueue_keyed(tid, key, item);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group::tests::deadline_ids;
    use crate::log::tests::zero_last_record;
    use crate::log::{Record, RecordKind, HEADER_LEN, LEASE_LOG_FILE, RECORD_LEN};
    use crate::segments::GROUP_META_FILE;
    use crate::tx::ExactlyOnce;
    use durable_queues::{OptUnlinkedQueue, QueueConfig, RecoverableQueue};
    use pmem::{PmemPool, PoolConfig};
    use ptm::FlushPolicy;
    use std::path::Path;

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("lease-queue-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn fresh_base() -> OptUnlinkedQueue {
        let pool = Arc::new(PmemPool::new(PoolConfig::test_with_size(4 << 20)));
        OptUnlinkedQueue::create(pool, QueueConfig::small_test())
    }

    fn fresh_dlq() -> Arc<dyn DurableQueue> {
        Arc::new(fresh_base())
    }

    fn drain(q: &dyn DurableQueue) -> Vec<u64> {
        std::iter::from_fn(|| q.dequeue(0)).collect()
    }

    /// A configuration whose ack log rotates every few records, so a short
    /// test crosses segment boundaries and retires segments.
    fn small_segments(dir: &Path) -> LeaseConfig {
        LeaseConfig::new(dir).with_compact_after(3)
    }

    /// Every valid record of `dir`'s first segment, in append order.
    fn segment_zero_records(dir: &Path) -> Vec<Record> {
        let bytes = std::fs::read(dir.join("segment-0000.log")).unwrap();
        bytes[HEADER_LEN..]
            .chunks_exact(RECORD_LEN)
            .map_while(Record::decode)
            .collect()
    }

    #[test]
    fn lease_stats_add_assign_adds_every_field() {
        let a = LeaseStats {
            dispatched: 1,
            granted: 2,
            redelivered: 3,
            acked: 4,
            nacked: 5,
            expired: 6,
            dead_lettered: 7,
            late_acks: 8,
            rotations: 9,
            compactions: 10,
            log_records: 11,
            segments: 12,
        };
        let b = LeaseStats {
            dispatched: 100,
            granted: 200,
            redelivered: 300,
            acked: 400,
            nacked: 500,
            expired: 600,
            dead_lettered: 700,
            late_acks: 800,
            rotations: 900,
            compactions: 1000,
            log_records: 1100,
            segments: 1200,
        };
        let mut sum = a;
        sum += b;
        assert_eq!(
            sum,
            LeaseStats {
                dispatched: 101,
                granted: 202,
                redelivered: 303,
                acked: 404,
                nacked: 505,
                expired: 606,
                dead_lettered: 707,
                late_acks: 808,
                rotations: 909,
                compactions: 1010,
                log_records: 1111,
                segments: 1212,
            }
        );
    }

    #[test]
    fn ack_retires_nack_redelivers_with_bumped_count() {
        let dir = tmp("lifecycle");
        let q = LeasedQueue::create(fresh_base(), None, LeaseConfig::new(&dir)).unwrap();
        q.enqueue(0, 7);
        q.enqueue(0, 8);

        let a = q.dequeue(1).unwrap();
        assert_eq!((a.item, a.delivery_count), (7, 1));
        let b = q.dequeue(1).unwrap();
        assert_eq!((b.item, b.delivery_count), (8, 1));
        assert_eq!(q.in_flight(), 2);

        q.ack(&a).unwrap();
        assert_eq!(q.ack(&a), Err(LeaseError::NotInFlight));
        assert_eq!(
            q.nack(1, &b).unwrap(),
            Redelivery::Requeued {
                next_delivery_count: 2
            }
        );
        assert_eq!(q.pending_redelivery(), 1);

        let b2 = q.dequeue(1).unwrap();
        assert_eq!((b2.item, b2.delivery_count), (8, 2));
        assert!(b2.id > b.id);
        q.ack(&b2).unwrap();
        assert!(q.dequeue(1).is_none());
        let s = q.stats();
        assert_eq!((s.granted, s.redelivered, s.acked, s.nacked), (3, 1, 2, 1));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn expiry_redelivers_and_budget_overflows_to_dlq() {
        let dir = tmp("expiry");
        let dlq = fresh_dlq();
        let q = LeasedQueue::create(
            fresh_base(),
            Some(Arc::clone(&dlq)),
            LeaseConfig::new(&dir)
                .with_timeout(Duration::from_millis(0))
                .with_max_deliveries(2),
        )
        .unwrap();
        q.enqueue(0, 42);

        // Timeout 0: the lease expires immediately, so the next dequeue
        // reaps and redelivers it.
        let l1 = q.dequeue(1).unwrap();
        assert_eq!(l1.delivery_count, 1);
        let l2 = q.dequeue(1).unwrap();
        assert_eq!((l2.item, l2.delivery_count), (42, 2));
        assert_eq!(q.ack(&l1), Err(LeaseError::NotInFlight));

        // Second expiry exceeds max_deliveries = 2 → dead-lettered.
        assert_eq!(q.reap_expired(1), 1);
        assert!(q.dequeue(1).is_none());
        assert_eq!(drain(dlq.as_ref()), vec![42]);
        let s = q.stats();
        assert_eq!((s.expired, s.dead_lettered), (2, 1));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn nack_past_budget_dead_letters() {
        let dir = tmp("nack-budget");
        let dlq = fresh_dlq();
        let q = LeasedQueue::create(
            fresh_base(),
            Some(Arc::clone(&dlq)),
            LeaseConfig::new(&dir).with_max_deliveries(1),
        )
        .unwrap();
        q.enqueue(0, 5);
        let l = q.dequeue(0).unwrap();
        assert_eq!(q.nack(0, &l).unwrap(), Redelivery::DeadLettered);
        assert!(q.dequeue(0).is_none());
        assert_eq!(drain(dlq.as_ref()), vec![5]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn finite_budget_without_dlq_is_refused() {
        let dir = tmp("no-dlq");
        let err = LeasedQueue::create(
            fresh_base(),
            None,
            LeaseConfig::new(&dir).with_max_deliveries(3),
        )
        .map(|_| ())
        .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovery_redelivers_unacked_and_skips_acked() {
        let dir = tmp("recover");
        let cfg = LeaseConfig::new(&dir);
        {
            let q = LeasedQueue::create(fresh_base(), None, cfg.clone()).unwrap();
            for i in 1..=4u64 {
                q.enqueue(0, i * 10);
            }
            let l1 = q.dequeue(1).unwrap();
            let _l2 = q.dequeue(1).unwrap(); // unacked at "crash"
            let l3 = q.dequeue(1).unwrap();
            q.ack(&l1).unwrap();
            q.nack(1, &l3).unwrap(); // pending at "crash"
                                     // Drop without acking l2: simulates the consumer dying. The
                                     // base queue state is volatile here (sim pool), so recovery
                                     // rebuilds only from the log — exactly the lease layer's job.
        }
        let (q, rec) = LeasedQueue::recover(fresh_base(), None, cfg.clone(), None).unwrap();
        assert_eq!(rec.unacked, 1);
        assert_eq!(rec.redelivered, 2); // l2 (granted) + l3 (pending)
        assert_eq!(rec.dead_lettered, 0);
        assert_eq!(q.pending_redelivery(), 2);

        // Redelivery order is lease-id order; counts are bumped for the
        // crashed-in-flight lease and preserved for the pending one.
        let r1 = q.dequeue(0).unwrap();
        assert_eq!((r1.item, r1.delivery_count), (20, 2));
        let r2 = q.dequeue(0).unwrap();
        assert_eq!((r2.item, r2.delivery_count), (30, 2));
        assert!(q.dequeue(0).is_none(), "acked item must not resurrect");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recovery_dead_letters_items_past_budget() {
        let dir = tmp("recover-dlq");
        let cfg = LeaseConfig::new(&dir).with_max_deliveries(1);
        {
            let q = LeasedQueue::create(fresh_base(), Some(fresh_dlq()), cfg.clone()).unwrap();
            q.enqueue(0, 99);
            let _l = q.dequeue(0).unwrap(); // dc = 1 = budget, crash while leased
        }
        let dlq = fresh_dlq();
        let (q, rec) =
            LeasedQueue::recover(fresh_base(), Some(Arc::clone(&dlq)), cfg, None).unwrap();
        assert_eq!(rec.dead_lettered, 1);
        assert_eq!(rec.redelivered, 0);
        assert!(q.dequeue(0).is_none());
        assert_eq!(drain(dlq.as_ref()), vec![99]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn deadline_heap_stays_bounded_by_the_in_flight_set() {
        // Acked leases leave lazily deleted heap entries behind until their
        // timeout; with an hour-long timeout nothing ever expires, so only
        // the rebuild keeps the heap from growing with every grant.
        let dir = tmp("deadline-bound");
        let cfg = LeaseConfig::new(&dir).with_timeout(Duration::from_secs(3600));
        let q = LeasedQueue::create(fresh_base(), None, cfg).unwrap();
        q.enqueue(0, 1);
        let held = q.dequeue(0).unwrap(); // one lease stays in flight
        for i in 0..10_000u64 {
            q.enqueue(0, i);
            let l = q.dequeue(0).unwrap();
            q.ack(&l).unwrap();
            // The bound is checked at each grant, when this cycle's lease
            // was in flight too.
            let bound = 2 * (q.in_flight() + 1) + 64;
            let heap = deadline_ids(&q.group).len();
            assert!(
                heap <= bound,
                "after {i} cycles: {heap} heap entries for {} in flight",
                q.in_flight()
            );
        }
        // The rebuilt heap still expires what is really in flight.
        assert_eq!(q.in_flight(), 1);
        assert!(deadline_ids(&q.group).contains(&held.id));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn first_ever_lease_nacked_and_regranted_does_not_resurrect() {
        // Regression: if lease ids started at 0, the regrant's
        // `prev_lease_id = 0` would read as "fresh grant" and the first
        // lease's PEND record would stay live forever, resurrecting the
        // item on every recovery.
        let dir = tmp("id-zero");
        let cfg = small_segments(&dir);
        {
            let q = LeasedQueue::create(fresh_base(), None, cfg.clone()).unwrap();
            q.enqueue(0, 55);
            let first = q.dequeue(0).unwrap();
            assert!(first.id >= 1, "lease id 0 must never be granted");
            q.nack(0, &first).unwrap();
            let again = q.dequeue(0).unwrap();
            q.ack(&again).unwrap();
        }
        let (q, rec) = LeasedQueue::recover(fresh_base(), None, cfg, None).unwrap();
        assert_eq!(rec.redelivered, 0, "settled item resurrected");
        assert!(q.dequeue(0).is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn lease_ids_survive_compaction_that_retires_the_highest_ids() {
        // Regression family: retirement unlinks settled segments, so when
        // the highest-numbered leases are all settled the surviving
        // records may not witness the id high-water mark; recovery then
        // reused ids, which a stale exactly-once cursor could silently
        // repair-ack. The mark rides every rotated segment's header.
        let dir = tmp("compact-ids");
        let cfg = LeaseConfig::new(&dir).with_compact_after(2);
        let max_id = {
            let q = LeasedQueue::create(fresh_base(), None, cfg.clone()).unwrap();
            let mut max_id = 0;
            for i in 1..=200u64 {
                q.enqueue(0, i);
                let l = q.dequeue(0).unwrap();
                max_id = l.id;
                q.ack(&l).unwrap();
                if q.stats().compactions >= 3 {
                    break;
                }
            }
            assert!(q.stats().compactions >= 3, "segments never retired");
            max_id
        };
        assert!(max_id > 1);
        let (q, rec) = LeasedQueue::recover(fresh_base(), None, cfg, None).unwrap();
        assert_eq!(rec.redelivered, 0);
        q.enqueue(0, 777);
        let l = q.dequeue(0).unwrap();
        assert!(
            l.id > max_id,
            "recovered grant reused lease id {} (high-water mark was {max_id})",
            l.id
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn settlement_is_exclusive_while_an_exactly_once_tx_runs() {
        // Regression: the liveness check and the transaction ran in
        // separate lock scopes, so a racing settlement could slip between
        // them and settle (or double-run side effects for) the same lease.
        // The settling mark now makes any concurrent settlement attempt
        // fail with NotInFlight before its body runs.
        let dir = tmp("settling");
        let q = LeasedQueue::create(fresh_base(), None, small_segments(&dir)).unwrap();
        let pool = Arc::new(PmemPool::new(PoolConfig::test_with_size(4 << 20)));
        let eo = ExactlyOnce::create(Arc::clone(&pool), FlushPolicy::BatchedCommit);
        q.enqueue(0, 11);
        let l = q.dequeue(0).unwrap();
        let word = pool.alloc_raw(8, 8);
        q.ack_exactly_once(0, &l, &eo, |tx| {
            // Mid-transaction, this call owns the lease's settlement.
            assert_eq!(q.ack(&l), Err(LeaseError::NotInFlight));
            assert_eq!(q.nack(0, &l), Err(LeaseError::NotInFlight));
            tx.write(word, 1);
        })
        .unwrap();
        let s = q.stats();
        assert_eq!((s.acked, s.nacked, s.late_acks), (1, 0, 0));
        assert!(q.dequeue(0).is_none(), "acked item redelivered");
        assert_eq!(
            q.ack_exactly_once(0, &l, &eo, |_| ()).unwrap_err(),
            LeaseError::NotInFlight
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn out_of_range_tid_is_a_descriptive_error_not_a_mid_tx_panic() {
        // Regression: the tid bound used to be an assert inside the
        // transaction (tx.rs), firing only after the caller's body had
        // already run — here the error comes back before anything does,
        // and the lease stays settleable.
        let dir = tmp("bad-tid");
        let q = LeasedQueue::create(fresh_base(), None, small_segments(&dir)).unwrap();
        let pool = Arc::new(PmemPool::new(PoolConfig::test_with_size(4 << 20)));
        let eo = ExactlyOnce::create(Arc::clone(&pool), FlushPolicy::BatchedCommit);
        q.enqueue(0, 3);
        let l = q.dequeue(0).unwrap();
        let mut body_ran = false;
        let err = q
            .ack_exactly_once(pmem::MAX_THREADS, &l, &eo, |_| body_ran = true)
            .unwrap_err();
        assert_eq!(
            err,
            LeaseError::ThreadOutOfRange {
                tid: pmem::MAX_THREADS,
                max: pmem::MAX_THREADS
            }
        );
        assert!(!body_ran, "consumer body ran despite the invalid tid");
        assert!(err.to_string().contains("MAX_THREADS"), "{err}");
        // The lease was never marked settling: a valid ack still works.
        q.ack(&l).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn committed_tx_ack_with_lost_sidecar_record_is_repaired() {
        let dir = tmp("tx-repair");
        let cfg = LeaseConfig::new(&dir).with_compact_after(4);
        let pool = Arc::new(PmemPool::new(PoolConfig::test_with_size(4 << 20)));
        let eo = ExactlyOnce::create(Arc::clone(&pool), FlushPolicy::BatchedCommit);
        let consumer_state = pool.alloc_raw(8, 8);
        let id = {
            let q = LeasedQueue::create(fresh_base(), None, cfg.clone()).unwrap();
            // Three plain cycles fill segment 0 and start segment 1, so
            // the transactional GRANT/ACK pair lands in a rotated segment.
            for i in 1..=3u64 {
                q.enqueue(0, i);
                let l = q.dequeue(0).unwrap();
                q.ack(&l).unwrap();
            }
            q.enqueue(0, 9);
            let l = q.dequeue(0).unwrap();
            q.ack_exactly_once(0, &l, &eo, |tx| tx.write(consumer_state, 99))
                .unwrap();
            assert!(q.stats().rotations >= 1);
            l.id
        };
        // Simulate the documented crash window: the transaction committed
        // (cursor + consumer state durable) but the ACK append was lost —
        // zero its slot in the active segment, leaving only the GRANT.
        let lost = zero_last_record(&dir);
        assert_eq!((lost.kind, lost.lease_id), (RecordKind::Ack, id));

        let (q, rec) = LeasedQueue::recover(fresh_base(), None, cfg, Some(&eo)).unwrap();
        assert_eq!(rec.tx_acked, 1, "committed ack not repaired");
        assert_eq!(rec.redelivered, 0, "item redelivered despite committed ack");
        assert!(q.dequeue(0).is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stale_cursor_from_a_recreated_log_repairs_nothing() {
        // Regression: cursor entries carried no log identity, so pairing
        // an old consumer pool with a recreated ack log let a stale lease
        // id repair-ack an unrelated in-flight lease of the new log.
        let dir = tmp("stale-cursor");
        let cfg = small_segments(&dir);
        let pool = Arc::new(PmemPool::new(PoolConfig::test_with_size(4 << 20)));
        let eo = ExactlyOnce::create(Arc::clone(&pool), FlushPolicy::BatchedCommit);
        {
            let q = LeasedQueue::create(fresh_base(), None, cfg.clone()).unwrap();
            q.enqueue(0, 1);
            let l = q.dequeue(0).unwrap();
            assert_eq!(l.id, 1);
            q.ack_exactly_once(0, &l, &eo, |_| ()).unwrap();
        }
        // A recreated log: same directory, new generation, fresh id space.
        // The cursor still holds lease id 1 from the old generation.
        {
            let q = LeasedQueue::create(fresh_base(), None, cfg.clone()).unwrap();
            q.enqueue(0, 42);
            let l = q.dequeue(0).unwrap();
            assert_eq!(l.id, 1, "a fresh log restarts the id space");
            // Crash while leased: drop without acking.
        }
        let (q, rec) = LeasedQueue::recover(fresh_base(), None, cfg, Some(&eo)).unwrap();
        assert_eq!(rec.tx_acked, 0, "stale cursor repair-acked a foreign lease");
        assert_eq!(rec.redelivered, 1);
        let l = q.dequeue(0).unwrap();
        assert_eq!((l.item, l.delivery_count), (42, 2));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn lease_ids_are_unique_and_monotonic_across_recovery() {
        let dir = tmp("ids");
        let cfg = small_segments(&dir);
        let max_id = {
            let q = LeasedQueue::create(fresh_base(), None, cfg.clone()).unwrap();
            q.enqueue(0, 1);
            q.enqueue(0, 2);
            let a = q.dequeue(0).unwrap();
            let b = q.dequeue(0).unwrap();
            assert!(b.id > a.id);
            b.id
        };
        let (q, _) = LeasedQueue::recover(fresh_base(), None, cfg, None).unwrap();
        let r = q.dequeue(0).unwrap();
        assert!(r.id > max_id, "recovered grant reused a lease id");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_one_group_consume_writes_a_fresh_grant_and_an_ack_and_no_pend() {
        // The direct pop→GRANT path: a fresh item costs exactly the
        // GRANT(prev 0) + ACK pair, with no PEND hop in between.
        let dir = tmp("record-mix");
        let q = LeasedQueue::create(fresh_base(), None, LeaseConfig::new(&dir)).unwrap();
        q.enqueue(0, 21);
        let l = q.dequeue(0).unwrap();
        q.ack(&l).unwrap();
        let grant = Record {
            kind: RecordKind::Grant,
            delivery_count: 1,
            lease_id: l.id,
            item: 21,
            prev_lease_id: 0,
        };
        let ack = Record::terminal(RecordKind::Ack, l.id);
        assert_eq!(segment_zero_records(&dir), vec![grant, ack]);
        assert_eq!(q.stats().dispatched, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_leases_log_from_an_older_build_is_refused_and_left_intact() {
        // A version 3 single-file log, byte for byte as the older build
        // wrote it: header (magic, version, id high-water mark,
        // generation, CRC), one GRANT whose item exists nowhere else, and
        // the zeroed preallocated tail.
        let dir = tmp("legacy");
        std::fs::create_dir_all(&dir).unwrap();
        let mut bytes = vec![0u8; 4096];
        bytes[0..8].copy_from_slice(b"DQLEASE1");
        bytes[8..12].copy_from_slice(&3u32.to_le_bytes());
        bytes[12..20].copy_from_slice(&2u64.to_le_bytes());
        bytes[20..28].copy_from_slice(&0xABCD_0000u64.to_le_bytes());
        let crc = store::crc32(&bytes[0..28]);
        bytes[28..32].copy_from_slice(&crc.to_le_bytes());
        let grant = Record {
            kind: RecordKind::Grant,
            delivery_count: 1,
            lease_id: 1,
            item: 42,
            prev_lease_id: 0,
        };
        bytes[32..32 + RECORD_LEN].copy_from_slice(&grant.encode());
        let path = dir.join(LEASE_LOG_FILE);
        std::fs::write(&path, &bytes).unwrap();

        let err = LeasedQueue::recover(fresh_base(), None, LeaseConfig::new(&dir), None)
            .map(|_| ())
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let msg = err.to_string();
        assert!(msg.contains(LEASE_LOG_FILE), "{msg}");
        assert!(msg.contains("older build"), "{msg}");
        assert_eq!(std::fs::read(&path).unwrap(), bytes, "legacy log modified");
        assert!(
            !dir.join(GROUP_META_FILE).exists(),
            "a refused directory gained a fresh log"
        );

        // A fresh deployment in the same directory discards the old log,
        // so it does not block the fresh one's recovery.
        drop(LeasedQueue::create(fresh_base(), None, LeaseConfig::new(&dir)).unwrap());
        assert!(!path.exists(), "create kept the legacy log");
        LeasedQueue::recover(fresh_base(), None, LeaseConfig::new(&dir), None).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
