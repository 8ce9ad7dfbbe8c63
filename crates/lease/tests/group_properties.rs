//! Property tests of the consumer-group state machine: arbitrary
//! interleavings of enqueue / per-group dequeue / ack / nack / expiry-reap
//! / **full-system crash** must preserve the grouped delivery contract at
//! 1, 2 and 8 shards × 1–3 groups:
//!
//! - **per-group partition**: for every group, drained residue ∪ that
//!   group's dead-letter queue is exactly the group's outstanding set
//!   (everything enqueued minus what the group acked) — nothing lost,
//!   nothing invented, nothing retired early;
//! - **group isolation**: no group ever observes another group's
//!   settlements — an item acked (or dead-lettered) in one group still
//!   reaches every other group exactly once;
//! - **budget honesty**: only items a group actually leased can land in
//!   that group's dead-letter queue.
//!
//! Segments rotate every few records (`compact_after = 16`), so every
//! interleaving long enough to matter also exercises rotation and
//! retirement, and every crash recovers a multi-segment directory.
//! Crashes snapshot all shard pools and every group's DLQ pool (simulated
//! full-system crash), drop the in-memory queue, and recover everything —
//! shards via the orchestrator, groups via per-directory segment replay.
//! Every lease held across the crash is invalidated and must be
//! redelivered within its group.

use durable_queues::{DurableQueue, OptUnlinkedQueue, QueueConfig, RecoverableQueue};
use lease::{ConsumerGroup, GroupedQueue, Lease, LeaseConfig, LeaseError, Redelivery};
use pmem::PoolConfig;
use proptest::prelude::*;
use shard::{RecoveryOrchestrator, RoutePolicy, ShardConfig, ShardedQueue};
use std::collections::{HashMap, HashSet};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

const KEYS: [u64; 4] = [1, 2, 7, 40];
const MAX_DELIVERIES: u32 = 4;
const GROUP_NAMES: [&str; 3] = ["g0", "g1", "g2"];

fn encode(key: u64, seq: u64) -> u64 {
    (key << 32) | seq
}

fn shard_config(shards: usize) -> ShardConfig {
    ShardConfig {
        shards,
        queue: QueueConfig::small_test(),
        pool: PoolConfig::test_with_size(8 << 20),
        policy: RoutePolicy::KeyHash,
    }
}

fn group_config(dir: &PathBuf, timeout_ms: u64) -> LeaseConfig {
    LeaseConfig::new(dir)
        .with_timeout(Duration::from_millis(timeout_ms))
        .with_max_deliveries(MAX_DELIVERIES)
        .with_compact_after(16) // tiny segments: every run rotates + retires
}

fn fresh_dlqs(groups: usize) -> Vec<Option<Arc<dyn DurableQueue>>> {
    (0..groups)
        .map(|_| {
            let pool = Arc::new(pmem::PmemPool::new(PoolConfig::test_with_size(4 << 20)));
            let dlq: Arc<dyn DurableQueue> =
                Arc::new(OptUnlinkedQueue::create(pool, QueueConfig::small_test()));
            Some(dlq)
        })
        .collect()
}

type Grouped = GroupedQueue<ShardedQueue<OptUnlinkedQueue>>;

/// Crash-recovers the whole deployment: shard pools and every group's DLQ
/// pool snapshot to their persistent images, then everything is rebuilt
/// from those images plus the segment directories on disk.
fn crash_and_recover(
    queue: Arc<Grouped>,
    config: ShardConfig,
    group_cfg: &LeaseConfig,
) -> Arc<Grouped> {
    let orch = RecoveryOrchestrator::new(2);
    let base_pools = orch.crash(queue.base());
    let names: Vec<String> = queue.group_names().into_iter().map(String::from).collect();
    let dlqs: Vec<Option<Arc<dyn DurableQueue>>> = names
        .iter()
        .map(|name| {
            let pool = queue
                .dlq(name)
                .expect("property deployments always have DLQs")
                .pool()
                .simulate_crash();
            let dlq: Arc<dyn DurableQueue> = Arc::new(OptUnlinkedQueue::recover(
                Arc::new(pool),
                QueueConfig::small_test(),
            ));
            Some(dlq)
        })
        .collect();
    drop(queue);
    let (base, _) = orch.recover::<OptUnlinkedQueue>(base_pools, config);
    let (queue, _) = GroupedQueue::recover(base, dlqs, group_cfg.clone(), names, None)
        .expect("recover grouped queue");
    Arc::new(queue)
}

/// Per-group model state.
struct GroupModel {
    /// Items whose ack this group confirmed — must never be seen here again.
    acked: HashSet<u64>,
    /// Items this group ever held under lease (budget exhaustion is only
    /// possible for these).
    ever_leased: HashSet<u64>,
}

struct Model {
    next_seq: HashMap<u64, u64>,
    /// Everything ever enqueued: every group owes each of these exactly one
    /// terminal outcome.
    enqueued: HashSet<u64>,
    groups: Vec<GroupModel>,
}

impl Model {
    fn new(groups: usize) -> Self {
        Model {
            next_seq: KEYS.iter().map(|&k| (k, 1)).collect(),
            enqueued: HashSet::new(),
            groups: (0..groups)
                .map(|_| GroupModel {
                    acked: HashSet::new(),
                    ever_leased: HashSet::new(),
                })
                .collect(),
        }
    }

    fn on_granted(&mut self, g: usize, l: &Lease) -> Result<(), TestCaseError> {
        prop_assert!(
            self.enqueued.contains(&l.item),
            "group {g} granted item {:#x} that was never enqueued",
            l.item
        );
        prop_assert!(
            !self.groups[g].acked.contains(&l.item),
            "item {:#x} acked in group {g} resurrected there",
            l.item
        );
        self.groups[g].ever_leased.insert(l.item);
        Ok(())
    }
}

/// One seeded interleaving: `ops` random operations (with up to `crashes`
/// full-system crashes sprinkled in), then a full per-group drain and the
/// partition + isolation checks.
fn run_interleaving(
    shards: usize,
    groups: usize,
    seed: u64,
    ops: usize,
    timeout_ms: u64,
    crashes: u32,
) -> Result<(), TestCaseError> {
    let dir: PathBuf = std::env::temp_dir().join(format!(
        "lease-group-prop-{shards}-{groups}-{seed}-{timeout_ms}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let config = shard_config(shards);
    let group_cfg = group_config(&dir, timeout_ms);
    let base = ShardedQueue::<OptUnlinkedQueue>::create(config);
    let mut queue = Arc::new(
        GroupedQueue::create(
            base,
            fresh_dlqs(groups),
            group_cfg.clone(),
            GROUP_NAMES[..groups].iter().copied(),
        )
        .expect("create grouped queue"),
    );

    let mut model = Model::new(groups);
    let mut held: Vec<Vec<Lease>> = vec![Vec::new(); groups];
    let mut crashes_left = crashes;
    let mut state = seed | 1;
    let mut rng = move || {
        state = state
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(0xD1B5_4A32_D192_ED03);
        state >> 16
    };

    for _ in 0..ops {
        let g = (rng() % groups as u64) as usize;
        let handle = queue.handles().swap_remove(g);
        match rng() % 100 {
            // Enqueue the next item of a random key: every group sees it.
            0..=39 => {
                let key = KEYS[(rng() % KEYS.len() as u64) as usize];
                let seq = model.next_seq[&key];
                let item = encode(key, seq);
                queue.enqueue_keyed(0, key, item);
                model.next_seq.insert(key, seq + 1);
                model.enqueued.insert(item);
            }
            // Dequeue a lease in a random group and hold it.
            40..=69 => {
                if let Some(l) = handle.dequeue(0) {
                    model.on_granted(g, &l)?;
                    held[g].push(l);
                }
            }
            // Ack a random held lease of that group (possibly stale).
            70..=84 => {
                if !held[g].is_empty() {
                    let idx = (rng() % held[g].len() as u64) as usize;
                    let l = held[g].swap_remove(idx);
                    match handle.ack(&l) {
                        Ok(()) => {
                            model.groups[g].acked.insert(l.item);
                        }
                        Err(LeaseError::NotInFlight) => {} // expired/settled
                        Err(e) => panic!("unexpected ack error: {e}"),
                    }
                }
            }
            // Nack a random held lease of that group (possibly stale).
            85..=92 => {
                if !held[g].is_empty() {
                    let idx = (rng() % held[g].len() as u64) as usize;
                    let l = held[g].swap_remove(idx);
                    match handle.nack(0, &l) {
                        Ok(Redelivery::Requeued { .. }) | Err(LeaseError::NotInFlight) => {}
                        Ok(Redelivery::DeadLettered) => {
                            // Stays owed; the final partition check finds it
                            // in this group's DLQ bucket.
                        }
                        Err(e) => panic!("unexpected nack error: {e}"),
                    }
                }
            }
            // Reap that group's expired leases explicitly.
            93..=96 => {
                handle.reap_expired(0);
            }
            // Full-system crash + recovery.
            _ => {
                if crashes_left > 0 {
                    crashes_left -= 1;
                    for h in &mut held {
                        h.clear(); // every in-memory lease dies with the process
                    }
                    queue = crash_and_recover(queue, config, &group_cfg);
                }
            }
        }
    }

    // Settle every lease still held (long-timeout runs would never expire
    // them); nacking routes through redelivery or the budget.
    for (g, leases) in held.iter_mut().enumerate() {
        let handle = queue.handles().swap_remove(g);
        for l in leases.drain(..) {
            let _ = handle.nack(0, &l);
        }
    }

    // Final drain, group by group. The first group's drain also empties the
    // base queue (fanning the residue out to every group), so later groups
    // see theirs from pending alone.
    let handles: Vec<ConsumerGroup<ShardedQueue<OptUnlinkedQueue>>> = queue.handles();
    for (g, handle) in handles.iter().enumerate() {
        let mut drained_set: HashSet<u64> = HashSet::new();
        while let Some(l) = handle.dequeue(0) {
            model.on_granted(g, &l)?;
            prop_assert!(
                drained_set.insert(l.item),
                "item {:#x} delivered twice in group {g}'s final drain",
                l.item
            );
            if handle.ack(&l).is_err() {
                // Zero-timeout runs can expire the lease between grant and
                // ack bookkeeping; the item will come around again and the
                // budget guarantees termination.
                drained_set.remove(&l.item);
                continue;
            }
        }
        let dlq = Arc::clone(queue.dlq(handle.name()).unwrap());
        let dead: HashSet<u64> = std::iter::from_fn(|| dlq.dequeue(0)).collect();

        // Per-group partition: what the group was owed (everything enqueued
        // minus its confirmed acks) is exactly its drained residue plus its
        // own DLQ, disjointly. Settlements of *other* groups are invisible
        // here by construction of the owed set.
        for item in &drained_set {
            prop_assert!(
                !dead.contains(item),
                "item {item:#x} both drained and dead in group {g}"
            );
        }
        let owed: HashSet<u64> = model
            .enqueued
            .difference(&model.groups[g].acked)
            .copied()
            .collect();
        let mut got: HashSet<u64> = drained_set.clone();
        got.extend(dead.iter().copied());
        prop_assert_eq!(
            &got,
            &owed,
            "group {}: drained ∪ DLQ must equal the group's outstanding set",
            g
        );
        for item in &dead {
            prop_assert!(
                model.groups[g].ever_leased.contains(item),
                "never-leased item {item:#x} cannot have exhausted group {g}'s budget"
            );
        }
    }

    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Single shard: every key shares one FIFO under the fan-out.
    #[test]
    fn grouped_interleavings_hold_the_contract_at_1_shard(
        seed in 0u64..1_000_000,
        groups in 1usize..=3,
        timeout_idx in 0usize..2,
        crashes in 1u32..3,
    ) {
        let timeout = [0u64, 3_600_000][timeout_idx];
        run_interleaving(1, groups, seed, 140, timeout, crashes)?;
    }

    /// Two shards: keys split across pools, one segment directory per group.
    #[test]
    fn grouped_interleavings_hold_the_contract_at_2_shards(
        seed in 0u64..1_000_000,
        groups in 1usize..=3,
        timeout_idx in 0usize..2,
        crashes in 1u32..3,
    ) {
        let timeout = [0u64, 3_600_000][timeout_idx];
        run_interleaving(2, groups, seed, 140, timeout, crashes)?;
    }

    /// Eight shards: more pools than keys, some shards stay empty.
    #[test]
    fn grouped_interleavings_hold_the_contract_at_8_shards(
        seed in 0u64..1_000_000,
        groups in 1usize..=3,
        timeout_idx in 0usize..2,
        crashes in 1u32..3,
    ) {
        let timeout = [0u64, 3_600_000][timeout_idx];
        run_interleaving(8, groups, seed, 140, timeout, crashes)?;
    }
}
