//! The acceptance test of the consumer-group layer: a process running
//! **competing consumers in two groups** is SIGKILLed mid-consumption over
//! a file-backed 2-shard deployment, and the parent reopens the directory
//! from nothing, checking the grouped delivery contract under both
//! durability tiers:
//!
//! - within the killed group, every lease that was unacked at the kill is
//!   redelivered **exactly once** across the surviving competing
//!   consumers, with its delivery count incremented;
//! - no item whose ack a consumer confirmed is ever redelivered *to that
//!   group* — and each group's settlements are invisible to the other;
//! - the item one group nacked past its budget sits in **that group's**
//!   dead-letter queue and nowhere else;
//! - per group, confirmed enqueues all surface (acked before the kill or
//!   drained after), minus at most one in-transit item per group — the
//!   fan-out window the `group` module documents.
//!
//! Child-side confirmation protocol (same text-log pattern as
//! `consumer_kill.rs`): `E <seq>` after each enqueue returns, `A <item>`
//! after each ack returns (one log per consumer per group), `H <item>`
//! after deciding to hold a lease forever.

use durable_queues::testkit::subprocess::{
    kill_and_reap, read_unique_acks, scratch_dir, wait_for_lines, AckLog as TextLog, ChildProc,
};
use durable_queues::{DurableMsQueue, QueueConfig};
use lease::{create_grouped_dir, open_grouped_dir, LeaseDirConfig, Redelivery};
use pmem::PoolConfig;
use shard::{RecoveryOrchestrator, RoutePolicy, ShardConfig};
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::sync::Mutex;
use std::time::Duration;
use store::{FileConfig, SyncPolicy};

const ENV_DIR: &str = "LEASE_GROUP_KILL_CHILD_DIR";
const ENV_SYNC: &str = "LEASE_GROUP_KILL_CHILD_SYNC";
const SHARDS: usize = 2;
/// Competing consumers in the alpha group (the kill strands all of them).
const ALPHA_CONSUMERS: usize = 3;
/// The item alpha nacks past its budget (outside the producer's 1.. range).
const POISON: u64 = u64::MAX - 1;
const GROUPS: [&str; 2] = ["alpha", "beta"];

fn shard_config() -> ShardConfig {
    ShardConfig {
        shards: SHARDS,
        queue: QueueConfig::small_test(),
        pool: PoolConfig::test_with_size(16 << 20),
        policy: RoutePolicy::RoundRobin,
    }
}

fn group_config(sync: SyncPolicy) -> LeaseDirConfig {
    LeaseDirConfig {
        // Long enough that nothing expires during the test: redelivery
        // must come from the crash, not from timeouts.
        lease_timeout: Duration::from_secs(300),
        max_deliveries: 3,
        sync,
        // Small segments so the kill lands with rotations (and usually
        // retirements) behind it — the crash matrix covers the rotating
        // log, not just segment 0.
        compact_after: 512,
        ..LeaseDirConfig::default()
    }
}

fn parse_sync(key: &str) -> SyncPolicy {
    match key {
        "powerfail" => SyncPolicy::PowerFail,
        _ => SyncPolicy::ProcessCrash,
    }
}

// ---------------------------------------------------------------------
// Child side
// ---------------------------------------------------------------------

/// Hidden child entry point (no-op unless re-executed with the env vars).
#[test]
fn lease_group_kill_child_entry() {
    let Ok(dir) = std::env::var(ENV_DIR) else {
        return;
    };
    let sync = parse_sync(&std::env::var(ENV_SYNC).unwrap_or_default());
    run_child(Path::new(&dir), sync);
}

fn run_child(dir: &Path, sync: SyncPolicy) {
    let orch = RecoveryOrchestrator::new(SHARDS);
    let queue = create_grouped_dir::<DurableMsQueue>(
        &orch,
        dir,
        shard_config(),
        FileConfig::with_size(16 << 20),
        &group_config(sync),
        GROUPS,
    )
    .expect("child: create grouped dir");
    let alpha = queue.group("alpha").expect("child: alpha handle");
    let beta = queue.group("beta").expect("child: beta handle");

    // Poison dance, before any other traffic: alpha nacks one item past
    // its budget so the kill always finds it in *alpha's* dead-letter
    // queue; beta acks its own copy of the same item.
    queue.enqueue(0, POISON);
    loop {
        let l = alpha.dequeue(1).expect("child: poison visible in alpha");
        assert_eq!(l.item, POISON);
        match alpha.nack(1, &l).expect("child: nack poison") {
            Redelivery::Requeued { .. } => continue,
            Redelivery::DeadLettered => break,
        }
    }
    let lb = beta.dequeue(1).expect("child: poison visible in beta");
    assert_eq!(lb.item, POISON);
    beta.ack(&lb).expect("child: beta acks poison");

    let mut enq_log = TextLog::create(dir.join("enq.log"));
    std::thread::scope(|scope| {
        let q = &queue;
        scope.spawn(move || {
            // Bounded so the 16 MiB shard pools can never exhaust while the
            // (fsync-throttled) consumers lag; the consumer threads still
            // run forever, so the kill always lands mid-consumption.
            for seq in 1..=20_000u64 {
                q.enqueue(0, seq);
                enq_log.record("E", seq);
            }
        });
        // Alpha: competing consumers that hold some leases forever and
        // nack others once, so the kill strands live leases and the log
        // carries redelivery traffic.
        for c in 0..ALPHA_CONSUMERS {
            let alpha = alpha.clone();
            let mut ack_log = TextLog::create(dir.join(format!("acks-alpha-{c}.log")));
            let mut held_log = TextLog::create(dir.join(format!("held-alpha-{c}.log")));
            scope.spawn(move || loop {
                let Some(l) = alpha.dequeue(1 + c) else {
                    continue;
                };
                if l.item % 7 == 0 && l.delivery_count == 1 {
                    held_log.record("H", l.item);
                } else if l.item % 11 == 3 && l.delivery_count == 1 {
                    alpha.nack(1 + c, &l).expect("child: alpha nack");
                } else {
                    alpha.ack(&l).expect("child: alpha ack");
                    ack_log.record("A", l.item);
                }
            });
        }
        // Beta: a plain consumer acking everything — the control group the
        // kill must not disturb.
        let beta = beta.clone();
        let mut ack_log = TextLog::create(dir.join("acks-beta.log"));
        scope.spawn(move || loop {
            let Some(l) = beta.dequeue(0) else { continue };
            beta.ack(&l).expect("child: beta ack");
            ack_log.record("A", l.item);
        });
    });
}

// ---------------------------------------------------------------------
// Parent side
// ---------------------------------------------------------------------

/// Drains a group with `consumers` competing threads, asserting no item is
/// delivered twice within the group; returns `item -> delivery_count`.
fn competing_drain(
    handle: &lease::ConsumerGroup<shard::ShardedQueue<DurableMsQueue>>,
    consumers: usize,
) -> BTreeMap<u64, u32> {
    let seen = Mutex::new(BTreeMap::new());
    std::thread::scope(|scope| {
        for c in 0..consumers {
            let handle = handle.clone();
            let seen = &seen;
            scope.spawn(move || {
                while let Some(l) = handle.dequeue(c) {
                    let prior = seen.lock().unwrap().insert(l.item, l.delivery_count);
                    assert!(
                        prior.is_none(),
                        "item {} delivered twice within {} after recovery",
                        l.item,
                        handle.name()
                    );
                    handle.ack(&l).unwrap();
                }
            });
        }
    });
    seen.into_inner().unwrap()
}

fn kill_round(sync_key: &str, min_acks: usize) {
    let sync = parse_sync(sync_key);
    let dir = scratch_dir(&format!("lease-group-kill-{sync_key}"));

    let mut child = ChildProc::new("lease_group_kill_child_entry")
        .env(ENV_DIR, &dir)
        .env(ENV_SYNC, sync_key)
        .spawn();
    // Both groups must have real confirmed traffic before the kill. The
    // alpha minimum is summed across its competing consumers, polled on
    // consumer 0's log (the scheduler spreads grants, so one log reaching
    // its share means the group is moving).
    wait_for_lines(
        &mut child,
        &dir.join("acks-alpha-0.log"),
        min_acks / ALPHA_CONSUMERS,
        Duration::from_secs(120),
    );
    wait_for_lines(
        &mut child,
        &dir.join("acks-beta.log"),
        min_acks,
        Duration::from_secs(120),
    );
    kill_and_reap(&mut child);

    // A fresh "process": reopen the deployment from the directory alone.
    let orch = RecoveryOrchestrator::new(SHARDS);
    let (queue, report, manifest) = open_grouped_dir::<DurableMsQueue>(
        &orch,
        &dir,
        QueueConfig::small_test(),
        &group_config(sync),
        GROUPS,
        None,
    )
    .expect("recover grouped dir");
    assert_eq!(manifest.shards(), SHARDS);
    assert_eq!(report.groups.len(), 2);
    let alpha_rec = &report.groups[0];
    let beta_rec = &report.groups[1];
    assert_eq!(alpha_rec.name, "alpha");
    assert_eq!(beta_rec.name, "beta");

    let enq = read_unique_acks(&dir.join("enq.log"), "E");
    let mut alpha_acked = BTreeSet::new();
    let mut held = BTreeSet::new();
    for c in 0..ALPHA_CONSUMERS {
        alpha_acked.extend(read_unique_acks(
            &dir.join(format!("acks-alpha-{c}.log")),
            "A",
        ));
        held.extend(read_unique_acks(
            &dir.join(format!("held-alpha-{c}.log")),
            "H",
        ));
    }
    let beta_acked = read_unique_acks(&dir.join("acks-beta.log"), "A");
    assert!(
        alpha_acked.len() + beta_acked.len() >= min_acks,
        "kill landed before real traffic"
    );
    assert!(!held.is_empty(), "kill stranded no live leases in alpha");

    // Surviving competing consumers drain alpha; every deliberately-held
    // lease comes back exactly once, second attempt.
    let alpha = queue.group("alpha").expect("alpha handle");
    let alpha_seen = competing_drain(&alpha, 2);
    for &h in &held {
        assert_eq!(
            alpha_seen.get(&h),
            Some(&2),
            "held item {h} not redelivered to alpha with delivery_count 2"
        );
    }
    // No ack alpha confirmed is ever redelivered to alpha.
    let resurrected: Vec<u64> = alpha_acked
        .iter()
        .filter(|v| alpha_seen.contains_key(v))
        .copied()
        .collect();
    assert!(
        resurrected.is_empty(),
        "alpha resurrected acks: {resurrected:?}"
    );

    // The second group is unaffected: its confirmed acks stay settled, and
    // alpha's kill damage (held leases, nacks, poison) never leaks in.
    let beta = queue.group("beta").expect("beta handle");
    let beta_seen = competing_drain(&beta, 2);
    let resurrected: Vec<u64> = beta_acked
        .iter()
        .filter(|v| beta_seen.contains_key(v))
        .copied()
        .collect();
    assert!(
        resurrected.is_empty(),
        "beta resurrected acks: {resurrected:?}"
    );
    assert!(
        !beta_seen.contains_key(&POISON),
        "alpha's dead-lettered poison resurfaced in beta"
    );

    // Per group: every confirmed enqueue surfaces (acked before the kill
    // or drained after), minus a bounded slack — one in-transit fan-out
    // item, plus one item *per consumer* whose durable ack landed but
    // whose confirmation line the kill swallowed (those are settled, so
    // they appear in neither set). Nothing materialises out of thin air
    // (≤ 1 enqueue whose confirmation line the kill swallowed).
    for (name, consumers, acked, seen) in [
        ("alpha", ALPHA_CONSUMERS, &alpha_acked, &alpha_seen),
        ("beta", 1, &beta_acked, &beta_seen),
    ] {
        let missing: Vec<u64> = enq
            .iter()
            .filter(|v| !acked.contains(v) && !seen.contains_key(v))
            .copied()
            .collect();
        assert!(
            missing.len() <= consumers + 1,
            "{name}: confirmed items lost: {missing:?}"
        );
        let extras: Vec<u64> = seen
            .keys()
            .filter(|v| **v != POISON && !enq.contains(v))
            .copied()
            .collect();
        assert!(extras.len() <= 1, "{name}: unconfirmed extras: {extras:?}");
    }

    // The poison item (and only it) sits in alpha's dead-letter queue;
    // beta's is empty. Recovery itself dead-lettered nothing (no lease was
    // past budget at the kill).
    assert_eq!(
        alpha_rec.dead_lettered, 0,
        "recovery dead-lettered in alpha"
    );
    assert_eq!(beta_rec.dead_lettered, 0, "recovery dead-lettered in beta");
    let dead: Vec<u64> =
        std::iter::from_fn(|| queue.dlq("alpha").expect("alpha DLQ").dequeue(0)).collect();
    assert_eq!(dead, vec![POISON], "alpha dead-letter queue contents");
    assert!(
        queue.dlq("beta").expect("beta DLQ").dequeue(0).is_none(),
        "beta's dead-letter queue is not empty"
    );

    eprintln!(
        "[{sync_key}] confirmed: {} enqueued, {}+{} acked, {} held; alpha recovered {} \
         redelivered over {} segment(s); beta {} redelivered ({})",
        enq.len(),
        alpha_acked.len(),
        beta_acked.len(),
        held.len(),
        alpha_rec.redelivered,
        alpha_rec.segments,
        beta_rec.redelivered,
        report.summary(),
    );

    // The recovered deployment serves fresh grouped traffic to both groups.
    queue.enqueue(2, u64::MAX);
    for handle in [&alpha, &beta] {
        let l = handle.dequeue(2).expect("post-recovery grant");
        assert_eq!((l.item, l.delivery_count), (u64::MAX, 1));
        handle.ack(&l).unwrap();
    }

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn killed_group_consumers_redeliver_exactly_once_process_crash_tier() {
    kill_round("processcrash", 300);
}

#[test]
fn killed_group_consumers_redeliver_exactly_once_power_fail_tier() {
    kill_round("powerfail", 150);
}
