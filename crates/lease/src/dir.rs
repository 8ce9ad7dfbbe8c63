//! One-directory lease deployments: sharded base queue, dead-letter
//! queue(s), and ack log(s) side by side, created and reopened as a unit.
//!
//! A leased (single-consumer) deployment is the one-group case of a
//! grouped one. The two differ only in the list of group names and in
//! where the one group's files live — at the top level, or under
//! `groups/<name>/` — so one private create body and one private open
//! body serve both, each over a list of per-group slots (group name, log
//! directory; the group's dead-letter pool file sits in that directory).
//! Everything the deployment owns lives in one place, so backup/restore
//! is a directory copy:
//!
//! ```text
//! deployment/
//!   SHARDS.manifest     # shard count + routing policy (shard crate)
//!   shard-00.pool …     # one pool file per shard
//!   dead-letter.pool    # the one group's DLQ pool     (leased)
//!   GROUP.meta          # retirement watermark + generation (leased)
//!   segment-NNNN.log    # rotating ack-log segments     (leased)
//!   groups/             # (grouped)
//!     <name>/
//!       GROUP.meta      # the same files, one set per group
//!       segment-NNNN.log
//!       dead-letter.pool
//! ```
//!
//! A `LEASES.log` in a group's log directory is the single-file ack log of
//! an older build, and opening refuses it (see [`LeasedQueue::recover`]).
//!
//! Opening recovers in dependency order — shards in parallel via
//! [`RecoveryOrchestrator`], then each group's DLQ pool and segment-chain
//! replay, timed together as the `lease-repair` phase — and reports one
//! entry per group through [`RecoveryReport::groups`], so one report
//! covers the whole restart. [`open_grouped_dir`] first checks that
//! `groups/` holds exactly the configured groups.

use crate::group::{check_group_set, check_names, grouped_slots, GroupedQueue, Slots};
use crate::queue::{leased_slots, LeaseConfig, LeasedQueue};
use crate::segments::DEFAULT_ROTATE_RECORDS;
use durable_queues::{DurableQueue, QueueConfig, RecoverableQueue};
use shard::{RecoveryOrchestrator, RecoveryReport, ShardConfig, ShardManifest, ShardedQueue};
use std::io;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;
use store::{FileConfig, FilePool, SyncPolicy};

/// File name of a group's dead-letter pool inside its log directory.
pub const DLQ_POOL_FILE: &str = "dead-letter.pool";

/// Lease-layer options of a deployment directory, shared by every group
/// (the shard layer keeps its own [`ShardConfig`]/[`FileConfig`]).
#[derive(Clone, Debug)]
pub struct LeaseDirConfig {
    /// How long a consumer may hold a lease.
    pub lease_timeout: Duration,
    /// Delivery budget before dead-lettering, per group (`0` = unlimited;
    /// the DLQ files are created either way).
    pub max_deliveries: u32,
    /// Durability tier applied uniformly to the shard pools (on reopen),
    /// the DLQ pools, and the ack logs.
    pub sync: SyncPolicy,
    /// Ack-log segment rotation threshold (see
    /// [`LeaseConfig::compact_after`]).
    pub compact_after: u64,
    /// Size of each dead-letter queue's pool file in bytes.
    pub dlq_bytes: usize,
}

impl Default for LeaseDirConfig {
    fn default() -> Self {
        LeaseDirConfig {
            lease_timeout: Duration::from_secs(30),
            max_deliveries: 8,
            sync: SyncPolicy::default(),
            compact_after: DEFAULT_ROTATE_RECORDS,
            dlq_bytes: 8 << 20,
        }
    }
}

impl LeaseDirConfig {
    fn lease_config(&self, dir: &Path) -> LeaseConfig {
        LeaseConfig::new(dir)
            .with_timeout(self.lease_timeout)
            .with_max_deliveries(self.max_deliveries)
            .with_sync(self.sync)
            .with_compact_after(self.compact_after)
    }
}

type Deployment<Q> = GroupedQueue<ShardedQueue<Q>>;

/// Creates the sharded base queue, then per slot a dead-letter queue of
/// the same algorithm on its own pool file ([`DLQ_POOL_FILE`] in the
/// slot's directory, which must exist) and a fresh segment chain.
fn create<Q: RecoverableQueue + 'static>(
    orch: &RecoveryOrchestrator,
    dir: &Path,
    shard: ShardConfig,
    file: FileConfig,
    lease: &LeaseDirConfig,
    slots: Slots,
) -> io::Result<Deployment<Q>> {
    let queue_config = shard.queue;
    let base = orch.create_dir::<Q>(dir, shard, file)?;
    let dlq_file = FileConfig::with_size(lease.dlq_bytes).with_sync(lease.sync);
    let mut dlqs = Vec::with_capacity(slots.len());
    for (_, log_dir) in &slots {
        let pool = FilePool::create(log_dir.join(DLQ_POOL_FILE), dlq_file)?.into_pool();
        let dlq: Arc<dyn DurableQueue> = Arc::new(Q::create(pool, queue_config));
        dlqs.push(Some(dlq));
    }
    GroupedQueue::create_in(base, dlqs, &lease.lease_config(dir), slots)
}

/// Reopens the shards in parallel (the manifest is the authority on count
/// and policy), then — timed as the `lease-repair` phase, on the same
/// clock as the report's manifest-resolution and shard-replay spans —
/// every slot's DLQ pool and segment-chain replay, with the per-group
/// counts landing in [`RecoveryReport::groups`].
fn open<Q: RecoverableQueue + 'static>(
    orch: &RecoveryOrchestrator,
    dir: &Path,
    queue: QueueConfig,
    lease: &LeaseDirConfig,
    slots: Slots,
    cursor: Option<&crate::tx::ExactlyOnce>,
) -> io::Result<(Deployment<Q>, RecoveryReport, ShardManifest)> {
    let (base, mut report, manifest) = orch.open_dir_with_sync::<Q>(dir, queue, lease.sync)?;
    let (repaired, repair_phase) = shard::PhaseSpan::time("lease-repair", 3, || {
        let mut dlqs = Vec::with_capacity(slots.len());
        for (_, log_dir) in &slots {
            let pool = FilePool::open_with_sync(log_dir.join(DLQ_POOL_FILE), lease.sync)?;
            let dlq: Arc<dyn DurableQueue> = Arc::new(Q::recover(pool.into_pool(), queue));
            dlqs.push(Some(dlq));
        }
        GroupedQueue::recover_in(base, dlqs, &lease.lease_config(dir), slots, cursor)
    });
    let (deployment, groups) = repaired?;
    report.phases.push(repair_phase);
    report.groups = groups;
    Ok((deployment, report, manifest))
}

/// Creates a fresh leased deployment in `dir`: the sharded base queue
/// (via [`RecoveryOrchestrator::create_dir`]), a dead-letter queue of the
/// same algorithm on its own pool file, and a fresh ack-log segment chain.
pub fn create_leased_dir<Q: RecoverableQueue + 'static>(
    orch: &RecoveryOrchestrator,
    dir: &Path,
    shard: ShardConfig,
    file: FileConfig,
    lease: &LeaseDirConfig,
) -> io::Result<LeasedQueue<ShardedQueue<Q>>> {
    create::<Q>(orch, dir, shard, file, lease, leased_slots(dir)).map(LeasedQueue::wrap)
}

/// Reopens a leased deployment after a restart: shards in parallel, then
/// the DLQ pool, then the ack-log replay — in-flight leases become
/// redeliverable with bumped delivery counts, and the counts land in the
/// one entry of [`RecoveryReport::groups`].
///
/// `cursor` is the deployment's exactly-once ack engine
/// ([`ExactlyOnce`](crate::tx::ExactlyOnce), recovered from the consumer's
/// pool *before* this call), when it has one: leases whose ack transaction
/// committed but whose sidecar ack record was lost to the crash are
/// repaired instead of redelivered, keeping the exactly-once guarantee
/// through the packaged directory API. Pass `None` for plain
/// at-least-once deployments.
///
/// Fails with `InvalidData` if `dir` holds an older build's `LEASES.log`.
pub fn open_leased_dir<Q: RecoverableQueue + 'static>(
    orch: &RecoveryOrchestrator,
    dir: &Path,
    queue: QueueConfig,
    lease: &LeaseDirConfig,
    cursor: Option<&crate::tx::ExactlyOnce>,
) -> io::Result<(LeasedQueue<ShardedQueue<Q>>, RecoveryReport, ShardManifest)> {
    let (deployment, report, manifest) =
        open::<Q>(orch, dir, queue, lease, leased_slots(dir), cursor)?;
    Ok((LeasedQueue::wrap(deployment), report, manifest))
}

/// Creates a fresh grouped deployment in `dir`: the sharded base queue,
/// plus — per consumer group, named in stripe order (non-empty, unique,
/// path-safe `[A-Za-z0-9._-]+`) — a segment chain and a dead-letter queue
/// of the same algorithm under `groups/<name>/`. Bad names fail with
/// `InvalidInput` before anything is created.
pub fn create_grouped_dir<Q: RecoverableQueue + 'static>(
    orch: &RecoveryOrchestrator,
    dir: &Path,
    shard: ShardConfig,
    file: FileConfig,
    lease: &LeaseDirConfig,
    groups: impl IntoIterator<Item = impl Into<String>>,
) -> io::Result<Arc<Deployment<Q>>> {
    let slots = grouped_slots(dir, groups);
    // Checked here, not only by the engine, so a bad name creates nothing.
    check_names(&slots)?;
    for (_, log_dir) in &slots {
        std::fs::create_dir_all(log_dir)?;
    }
    create::<Q>(orch, dir, shard, file, lease, slots).map(Arc::new)
}

/// Everything [`open_grouped_dir`] hands back: the recovered grouped
/// queue, the combined recovery report, and the shard manifest.
pub type OpenedGroupedDir<Q> = (Arc<GroupedQueue<Q>>, RecoveryReport, ShardManifest);

/// Reopens a grouped deployment after a restart: shards in parallel, then
/// every group's DLQ pool and segment-chain replay — each group's
/// in-flight leases become redeliverable with bumped delivery counts,
/// independently of the other groups — with per-group counts landing in
/// [`RecoveryReport::groups`].
///
/// `groups` must name exactly the groups the deployment was created with:
/// a missing, extra or unknown name fails with `InvalidInput`, before
/// anything in `dir` is created or modified (the order of the names is
/// not checked; see `docs/FORMATS.md`).
///
/// `cursor` is the deployment's exactly-once ack engine, recovered from
/// the consumer's pool *before* this call and created with at least as
/// many stripes as there are groups ([`ExactlyOnce::create_for_groups`](
/// crate::tx::ExactlyOnce::create_for_groups)); pass `None` for plain
/// at-least-once deployments.
pub fn open_grouped_dir<Q: RecoverableQueue + 'static>(
    orch: &RecoveryOrchestrator,
    dir: &Path,
    queue: QueueConfig,
    lease: &LeaseDirConfig,
    groups: impl IntoIterator<Item = impl Into<String>>,
    cursor: Option<&crate::tx::ExactlyOnce>,
) -> io::Result<OpenedGroupedDir<ShardedQueue<Q>>> {
    let slots = grouped_slots(dir, groups);
    check_group_set(dir, &slots)?;
    let (deployment, report, manifest) = open::<Q>(orch, dir, queue, lease, slots, cursor)?;
    Ok((Arc::new(deployment), report, manifest))
}

#[cfg(test)]
mod tests {
    use super::*;
    use durable_queues::DurableMsQueue;
    use pmem::PoolConfig;
    use shard::RoutePolicy;
    use std::collections::BTreeMap;
    use std::path::PathBuf;

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("lease-dir-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn shard_config(shards: usize) -> ShardConfig {
        ShardConfig {
            shards,
            queue: QueueConfig::small_test(),
            pool: PoolConfig::test_with_size(8 << 20),
            policy: RoutePolicy::RoundRobin,
        }
    }

    #[test]
    fn leased_dir_roundtrips_through_a_restart() {
        let dir = tmp("roundtrip");
        let orch = RecoveryOrchestrator::new(2);
        let lease_cfg = LeaseDirConfig {
            max_deliveries: 3,
            ..LeaseDirConfig::default()
        };
        {
            let q = create_leased_dir::<DurableMsQueue>(
                &orch,
                &dir,
                shard_config(2),
                FileConfig::with_size(8 << 20),
                &lease_cfg,
            )
            .unwrap();
            for i in 1..=10u64 {
                q.enqueue(0, i);
            }
            let a = q.dequeue(1).unwrap();
            q.ack(&a).unwrap();
            let _b = q.dequeue(1).unwrap(); // in flight at "crash"
                                            // Orderly drop; a SIGKILL recovers identically (see
                                            // tests/consumer_kill.rs for the real thing).
        }

        let (q, report, manifest) = open_leased_dir::<DurableMsQueue>(
            &orch,
            &dir,
            QueueConfig::small_test(),
            &lease_cfg,
            None,
        )
        .unwrap();
        assert_eq!(manifest.shards(), 2);
        let [lease] = &report.groups[..] else {
            panic!("a leased dir reports one group: {:?}", report.groups);
        };
        assert_eq!(lease.name, crate::queue::GROUP_NAME);
        assert_eq!(lease.unacked, 1);
        assert_eq!(lease.redelivered, 1);
        assert_eq!(lease.dead_lettered, 0);
        assert!(
            report.summary().contains("1 unacked"),
            "{}",
            report.summary()
        );

        // The unacked item comes back first, with a bumped count; the
        // acked one never does. 10 items entered, 1 was acked → 9 remain.
        let mut seen = Vec::new();
        let mut redelivered_first = None;
        while let Some(l) = q.dequeue(0) {
            if redelivered_first.is_none() {
                redelivered_first = Some(l.delivery_count);
            }
            seen.push(l.item);
            q.ack(&l).unwrap();
        }
        assert_eq!(redelivered_first, Some(2));
        assert_eq!(seen.len(), 9);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn grouped_dir_roundtrips_with_per_group_reports() {
        let dir = tmp("grouped-roundtrip");
        let orch = RecoveryOrchestrator::new(2);
        let cfg = LeaseDirConfig::default();
        let groups = ["alpha", "beta"];
        {
            let q = create_grouped_dir::<DurableMsQueue>(
                &orch,
                &dir,
                shard_config(2),
                FileConfig::with_size(8 << 20),
                &cfg,
                groups,
            )
            .unwrap();
            for i in 1..=6u64 {
                q.enqueue(0, i);
            }
            let alpha = q.group("alpha").unwrap();
            let beta = q.group("beta").unwrap();
            // alpha acks two and holds one; beta drains everything.
            for _ in 0..2 {
                let l = alpha.dequeue(0).unwrap();
                alpha.ack(&l).unwrap();
            }
            let _held = alpha.dequeue(0).unwrap();
            while let Some(l) = beta.dequeue(1) {
                beta.ack(&l).unwrap();
            }
        }

        let (q, report, manifest) = open_grouped_dir::<DurableMsQueue>(
            &orch,
            &dir,
            QueueConfig::small_test(),
            &cfg,
            groups,
            None,
        )
        .unwrap();
        assert_eq!(manifest.shards(), 2);
        assert_eq!(report.groups.len(), 2);
        assert_eq!(report.groups[0].name, "alpha");
        assert_eq!(report.groups[0].unacked, 1);
        assert_eq!(report.groups[1].name, "beta");
        assert_eq!(report.groups[1].redelivered, 0);
        assert!(
            report.summary().contains("2 group(s)"),
            "{}",
            report.summary()
        );

        // alpha's held item comes back bumped, then the items beta's
        // pre-crash dispatches fanned into alpha's pending set; beta
        // settled everything, so it sees nothing.
        let alpha = q.group("alpha").unwrap();
        let r = alpha.dequeue(0).unwrap();
        assert_eq!((r.item, r.delivery_count), (3, 2));
        alpha.ack(&r).unwrap();
        let mut rest = Vec::new();
        while let Some(l) = alpha.dequeue(0) {
            rest.push(l.item);
            alpha.ack(&l).unwrap();
        }
        assert_eq!(rest, vec![4, 5, 6]);
        let beta = q.group("beta").unwrap();
        assert!(beta.dequeue(1).is_none(), "beta resurrected settled items");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Every path under `dir` with its bytes (empty for directories).
    fn snapshot(dir: &Path) -> BTreeMap<PathBuf, Vec<u8>> {
        let mut out = BTreeMap::new();
        let mut todo = vec![dir.to_path_buf()];
        while let Some(d) = todo.pop() {
            for entry in std::fs::read_dir(&d).unwrap() {
                let path = entry.unwrap().path();
                if path.is_dir() {
                    todo.push(path.clone());
                    out.insert(path, Vec::new());
                } else {
                    let bytes = std::fs::read(&path).unwrap();
                    out.insert(path, bytes);
                }
            }
        }
        out
    }

    #[test]
    fn a_path_unsafe_group_name_creates_nothing() {
        let dir = tmp("unsafe-name");
        let orch = RecoveryOrchestrator::new(1);
        let err = create_grouped_dir::<DurableMsQueue>(
            &orch,
            &dir,
            shard_config(1),
            FileConfig::with_size(8 << 20),
            &LeaseDirConfig::default(),
            ["../evil"],
        )
        .map(|_| ())
        .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(!dir.exists(), "a refused create left {:?}", snapshot(&dir));
    }

    #[test]
    fn reopening_with_a_different_group_set_is_refused_and_changes_nothing() {
        let dir = tmp("group-set");
        let orch = RecoveryOrchestrator::new(2);
        let cfg = LeaseDirConfig {
            dlq_bytes: 1 << 20,
            ..LeaseDirConfig::default()
        };
        let open = |groups: &[&str]| {
            open_grouped_dir::<DurableMsQueue>(
                &orch,
                &dir,
                QueueConfig::small_test(),
                &cfg,
                groups.iter().copied(),
                None,
            )
        };
        {
            let q = create_grouped_dir::<DurableMsQueue>(
                &orch,
                &dir,
                shard_config(2),
                FileConfig::with_size(8 << 20),
                &cfg,
                ["alpha", "beta"],
            )
            .unwrap();
            for i in 1..=4u64 {
                q.enqueue(0, i);
            }
        }
        let before = snapshot(&dir);

        // A group missing from the configuration: opening would pop items
        // and fan them out to alpha alone, so beta would never see them.
        // An unknown name would open as a fresh, empty group.
        for (groups, named) in [
            (&["alpha"][..], &["beta"][..]),
            (&["alpha", "beta", "gamma"][..], &["gamma"][..]),
            (&["gamma"][..], &["alpha", "beta", "gamma"][..]),
        ] {
            let err = open(groups).map(|_| ()).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{groups:?}: {err}");
            let msg = err.to_string();
            for name in named {
                assert!(
                    msg.contains(name),
                    "{groups:?}: {msg:?} does not name {name}"
                );
            }
            assert!(
                snapshot(&dir) == before,
                "{groups:?}: the refused open changed the directory"
            );
        }

        // The deployment is intact: both groups still see all four items.
        let (q, _, _) = open(&["alpha", "beta"]).unwrap();
        for name in ["alpha", "beta"] {
            let g = q.group(name).unwrap();
            let mut seen = Vec::new();
            while let Some(l) = g.dequeue(0) {
                seen.push(l.item);
                g.ack(&l).unwrap();
            }
            assert_eq!(seen, vec![1, 2, 3, 4], "group {name}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
