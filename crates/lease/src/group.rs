//! The lease engine: peek-lock consumer groups over one base queue.
//!
//! A [`GroupedQueue`] wraps a base queue so that *every* group sees every
//! item (publish/subscribe between groups) while consumers *within* a
//! group compete for items (work-sharing within a group) — the two
//! consumption shapes Gray's "Queues Are Databases" composes and every
//! production broker ships. A plain [`LeasedQueue`](crate::LeasedQueue) is
//! this engine with exactly one group. Both are configured by one
//! [`LeaseConfig`] (timeout, delivery budget, sync tier, rotation
//! threshold), which every group shares; a grouped queue takes the group
//! names beside it. Each group owns:
//!
//! * a **[`SegmentedLog`]** in `groups/<name>/` (a `LeasedQueue`'s one
//!   group keeps it in [`LeaseConfig::dir`] itself) — 40-byte CRC'd
//!   records in rotating segments (see the [`segments`](crate::segments)
//!   docs),
//! * its **own in-memory lease state behind its own lock** — competing
//!   consumers of group A never contend with group B's,
//! * its own dead-letter queue and delivery accounting.
//!
//! # Dispatch: the pop→GRANT commit discipline
//!
//! The base queue consumes destructively, so an item popped for one group
//! would be lost to the rest on a crash. When a consumer finds its group's
//! pending set dry, it pops the base item itself and, before any consumer
//! sees the item, appends one durable record to **each** group's log, in
//! stripe order: a `GRANT` (`prev` = 0) straight into its own group's log,
//! and a `PEND` — "this item awaits its first delivery" — into every other
//! group's. Replay treats `PEND` as an upsert that may precede any grant,
//! so the per-group delivery cursor is implicit in the per-group log and
//! recovery needs no extra machinery. With one group, a fresh item
//! therefore costs exactly one `GRANT` and one `ACK`.
//!
//! The one unprotected window is inherent to a destructive base queue: a
//! crash between the base pop and a group's record loses that single
//! in-transit item for the groups whose record had not landed — never an
//! item any consumer has seen. Closing it would need a non-destructive
//! base (peek support), which none of the paper's algorithms have.
//!
//! With more than one group the pop and the fan-out run under a dedicated
//! dispatch lock, so every group receives items in pop order; a single
//! group pops without it. Grants of pending items (redeliveries, and
//! items other groups' consumers dispatched) come from the group's pending
//! set (`GRANT` with `prev` = the pending lease's id) under that group's
//! lock only, so grant/ack throughput scales with groups instead of
//! flatlining on one mutex.
//!
//! Lease ids are **per group** (each group's log is its own id space with
//! its own generation); the exactly-once cursor addresses stripes by
//! `(group, tid)` so the same consumer thread can ack in several groups
//! without clobbering its repair window.

use crate::log::{IdMap, IdSet, Record, RecordKind};
use crate::queue::{Lease, LeaseConfig, LeaseError, LeaseStats, RecoveredLeases, Redelivery};
use crate::segments::SegmentedLog;
use durable_queues::{DurableQueue, KeyedQueue};
use obs::flight::EventKind;
use obs::LazyCounter;
use parking_lot::Mutex;
use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap, HashSet, VecDeque};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

// Settlement instruments, mirroring the volatile `LeaseStats` (which reset
// on recovery) with process-global monotonic counters the exporters read.
static DISPATCHES: LazyCounter = LazyCounter::new("lease.dispatch");
static GRANTS: LazyCounter = LazyCounter::new("lease.grant");
static ACKS: LazyCounter = LazyCounter::new("lease.ack");
static NACKS: LazyCounter = LazyCounter::new("lease.nack");
static EXPIRIES: LazyCounter = LazyCounter::new("lease.expire");
static DEAD: LazyCounter = LazyCounter::new("lease.dead");

/// Directory (inside a grouped deployment) holding one subdirectory per
/// consumer group.
pub const GROUPS_DIR: &str = "groups";

/// Every group's name paired with the directory of its segment chain, in
/// stripe order.
pub(crate) type Slots = Vec<(String, PathBuf)>;

/// One slot per named group, with its chain in `dir/groups/<name>/`.
pub(crate) fn grouped_slots(
    dir: &Path,
    groups: impl IntoIterator<Item = impl Into<String>>,
) -> Slots {
    groups
        .into_iter()
        .map(|name| {
            let name = name.into();
            let log_dir = dir.join(GROUPS_DIR).join(&name);
            (name, log_dir)
        })
        .collect()
}

fn invalid_input(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidInput, msg.into())
}

/// Fails with `InvalidInput` — before anything in `dir` is created or
/// modified — unless `dir/groups/` holds exactly one subdirectory per
/// slot. Reopening with a group missing would pop items and fan them out
/// only to the configured groups, so the missing group's consumers would
/// never see them; a name with no directory would open as a fresh, empty
/// group.
pub(crate) fn check_group_set(dir: &Path, slots: &Slots) -> io::Result<()> {
    let groups = dir.join(GROUPS_DIR);
    let mut on_disk = BTreeSet::new();
    match std::fs::read_dir(&groups) {
        Ok(entries) => {
            for entry in entries {
                let entry = entry?;
                if entry.file_type()?.is_dir() {
                    on_disk.insert(entry.file_name().to_string_lossy().into_owned());
                }
            }
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => {}
        Err(e) => return Err(e),
    }
    let configured: BTreeSet<String> = slots.iter().map(|(name, _)| name.clone()).collect();
    let missing: Vec<&String> = configured.difference(&on_disk).collect();
    let extra: Vec<&String> = on_disk.difference(&configured).collect();
    if missing.is_empty() && extra.is_empty() {
        return Ok(());
    }
    Err(invalid_input(format!(
        "{}: the configured consumer groups differ from the deployment's: \
         configured but not on disk {missing:?}, on disk but not configured {extra:?}; \
         reopen with the groups it was created with",
        groups.display()
    )))
}

/// Refuses group names that cannot each own a directory under `groups/`:
/// no names at all, duplicates, or names that are not path-safe.
pub(crate) fn check_names(slots: &Slots) -> io::Result<()> {
    if slots.is_empty() {
        return Err(invalid_input(
            "a grouped queue needs at least one consumer group",
        ));
    }
    let unique: HashSet<&str> = slots.iter().map(|(name, _)| name.as_str()).collect();
    if unique.len() != slots.len() {
        return Err(invalid_input("consumer group names must be unique"));
    }
    for (name, _) in slots {
        if name.is_empty()
            || name == "."
            || name == ".."
            || !name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_' || b == b'.')
        {
            return Err(invalid_input(format!(
                "consumer group name {name:?} is not path-safe (use [A-Za-z0-9._-]+, \
                 not . or ..)"
            )));
        }
    }
    Ok(())
}

/// Refuses a group set the engine cannot run: bad names (see
/// [`check_names`]), a dead-letter slot count that does not match, or a
/// finite delivery budget without a dead-letter queue for every group.
fn validate(
    config: &LeaseConfig,
    slots: &Slots,
    dlqs: &[Option<Arc<dyn DurableQueue>>],
) -> io::Result<()> {
    check_names(slots)?;
    if dlqs.len() != slots.len() {
        return Err(invalid_input(format!(
            "expected one dead-letter slot per group ({} groups, {} slots)",
            slots.len(),
            dlqs.len()
        )));
    }
    if config.max_deliveries > 0 && dlqs.iter().any(Option::is_none) {
        return Err(invalid_input(
            "max_deliveries > 0 requires a dead-letter queue for every group \
             (overflow would otherwise drop items)",
        ));
    }
    Ok(())
}

/// Lease expiry order, earliest first, with lazy deletion: an entry is
/// live iff the lease is still in flight with exactly this deadline.
type DeadlineHeap = BinaryHeap<Reverse<(Instant, u64)>>;

struct InFlight {
    item: u64,
    delivery_count: u32,
    deadline: Instant,
}

struct PendingItem {
    /// The lease this delivery supersedes (the `GRANT.prev` linkage; for a
    /// dispatched item, the `PEND` record's own id; `0` for a fresh pop
    /// granted directly).
    prev: u64,
    item: u64,
    /// Count the next grant will carry.
    delivery_count: u32,
}

struct GroupState {
    log: SegmentedLog,
    inflight: IdMap<InFlight>,
    /// Expiry order (see [`DeadlineHeap`]).
    deadlines: DeadlineHeap,
    pending: VecDeque<PendingItem>,
    /// Leases whose exactly-once settlement transaction is running outside
    /// the lock: any other settlement attempt (ack, nack, or a second
    /// exactly-once ack) must see `NotInFlight` instead of racing it.
    /// Expiry reaping deliberately still applies — the documented late-ack
    /// window — so a wedged consumer transaction cannot strand the item.
    settling: IdSet,
    next_id: u64,
    stats: LeaseStats,
}

impl GroupState {
    fn fresh(log: SegmentedLog) -> Self {
        GroupState {
            log,
            inflight: IdMap::default(),
            deadlines: DeadlineHeap::new(),
            pending: VecDeque::new(),
            settling: IdSet::default(),
            // Lease id 0 is reserved: it is the "no previous lease"
            // sentinel in GRANT records and the "nothing acked" sentinel
            // in the exactly-once cursor.
            next_id: 1,
            stats: LeaseStats::default(),
        }
    }

    /// Replays the group's log in `dir` and rebuilds its state: leases
    /// granted at the crash are requeued with `delivery_count + 1`,
    /// pending items keep their recorded next count, leases the cursor
    /// stripe `tx_acked` proves acked get their lost `ACK` repaired, and
    /// items whose next delivery would exceed the budget go to `dlq`.
    fn recover(
        name: &str,
        dir: &Path,
        config: &LeaseConfig,
        dlq: Option<&Arc<dyn DurableQueue>>,
        tx_acked: impl FnOnce(u64) -> Vec<u64>,
    ) -> io::Result<(Self, RecoveredLeases)> {
        let (log, gr) = SegmentedLog::replay(dir, config.sync, config.compact_after)?;
        let mut st = GroupState::fresh(log);
        st.next_id = gr.replay.next_lease_id.max(1);
        let mut report = RecoveredLeases {
            name: name.to_owned(),
            log_records: gr.replay.records,
            segments: gr.segments,
            retired_leftovers: gr.retired_leftovers,
            ..RecoveredLeases::default()
        };
        let mut live = gr.replay.live;
        for id in tx_acked(gr.replay.generation) {
            if live.remove(&id).is_some() {
                // The consumer's transaction committed; only the ack
                // record was lost to the crash. Repair it.
                st.log
                    .append(&Record::terminal(RecordKind::Ack, id), st.next_id)?;
                report.tx_acked += 1;
            }
        }
        // BTreeMap iteration = lease-id order = grant order, so recovered
        // redelivery preserves the original delivery order.
        for (id, lease) in live {
            let next = if lease.granted {
                report.unacked += 1;
                lease.delivery_count + 1
            } else {
                lease.delivery_count
            };
            if config.max_deliveries > 0 && next > config.max_deliveries {
                dlq.expect("checked by validate").enqueue(0, lease.item);
                st.log
                    .append(&Record::terminal(RecordKind::Dead, id), st.next_id)?;
                report.dead_lettered += 1;
            } else {
                st.pending.push_back(PendingItem {
                    prev: id,
                    item: lease.item,
                    delivery_count: next,
                });
                report.redelivered += 1;
            }
        }
        Ok((st, report))
    }

    /// Appends `rec` to the group's log.
    ///
    /// # Panics
    /// If the append fails at the I/O level (see [`GroupedQueue`]).
    fn append(&mut self, rec: &Record) {
        if let Err(e) = self.log.append(rec, self.next_id) {
            panic!(
                "ack log append failed ({}): {e}; the log's durability is now \
                 unknowable, restart and replay",
                self.log.dir().display()
            );
        }
    }

    /// Allocates a lease id for `item` awaiting its first delivery here
    /// and durably queues it (`PEND`) behind the pending set.
    fn pend_fresh(&mut self, item: u64) {
        let id = self.next_id;
        self.next_id += 1;
        self.append(&Record {
            kind: RecordKind::Pend,
            delivery_count: 1,
            lease_id: id,
            item,
            prev_lease_id: 0,
        });
        self.pending.push_back(PendingItem {
            prev: id,
            item,
            delivery_count: 1,
        });
    }

    /// Pushes lease `id`'s `deadline` (the lease must already be in
    /// flight) and keeps the heap bounded. Settled leases leave their
    /// entries behind until the deadline passes, so with a long timeout
    /// the heap would grow with every grant; once it holds more than
    /// `2 × in_flight + 64` entries it is rebuilt from the in-flight set.
    /// A rebuild costs O(in_flight) and the next one is at least
    /// `in_flight + 64` pushes away, so pushes stay amortized O(1).
    fn push_deadline(&mut self, deadline: Instant, id: u64) {
        self.deadlines.push(Reverse((deadline, id)));
        if self.deadlines.len() > 2 * self.inflight.len() + 64 {
            self.deadlines = self
                .inflight
                .iter()
                .map(|(&id, f)| Reverse((f.deadline, id)))
                .collect();
        }
    }
}

struct GroupSlot {
    name: String,
    dlq: Option<Arc<dyn DurableQueue>>,
    state: Mutex<GroupState>,
}

/// A queue with consumer groups. See the [module docs](self).
///
/// # Panics
///
/// Consume-path methods panic if an ack-log append fails at the I/O
/// level: a write of unknown durability would make every subsequent lease
/// transition unsound, so (like a message store losing its WAL device) the
/// process must restart and replay. Constructors return `io::Result`
/// instead, since nothing is in flight yet.
pub struct GroupedQueue<Q: DurableQueue> {
    base: Q,
    /// Serialises destructive base pops when there are several groups, so
    /// each popped item reaches every group exactly once and in pop order.
    /// Settlement paths never take it; dispatch takes group locks under
    /// it, one at a time, in stripe order.
    dispatch: Mutex<()>,
    lease_timeout: Duration,
    max_deliveries: u32,
    groups: Vec<GroupSlot>,
}

impl<Q: DurableQueue> GroupedQueue<Q> {
    /// Wraps `base` with a fresh segmented ack log per group in
    /// `config.dir/groups/<name>/` (truncating any previous ones — use
    /// [`recover`](Self::recover) to resume). `groups` names the groups in
    /// stripe order: non-empty, unique, and path-safe (`[A-Za-z0-9._-]+`).
    /// `dlqs` holds one dead-letter queue slot per group, in group order;
    /// every slot must be `Some` when `config.max_deliveries > 0`.
    pub fn create(
        base: Q,
        dlqs: Vec<Option<Arc<dyn DurableQueue>>>,
        config: LeaseConfig,
        groups: impl IntoIterator<Item = impl Into<String>>,
    ) -> io::Result<Self> {
        let slots = grouped_slots(&config.dir, groups);
        Self::create_in(base, dlqs, &config, slots)
    }

    /// [`create`](Self::create) with each group's chain in its slot's
    /// directory.
    pub(crate) fn create_in(
        base: Q,
        dlqs: Vec<Option<Arc<dyn DurableQueue>>>,
        config: &LeaseConfig,
        slots: Slots,
    ) -> io::Result<Self> {
        validate(config, &slots, &dlqs)?;
        let mut states = Vec::with_capacity(slots.len());
        for (_, dir) in &slots {
            let log = SegmentedLog::create(dir, config.sync, config.compact_after)?;
            states.push(GroupState::fresh(log));
        }
        Ok(Self::assemble(base, dlqs, config, slots, states))
    }

    /// Reopens a grouped queue after a restart, replaying every group's
    /// segment directory independently: leases granted at the crash are
    /// requeued with `delivery_count + 1`, pending items keep their
    /// recorded next count, and items whose next delivery would exceed the
    /// budget go to the group's dead-letter queue. Returns one report per
    /// group, in stripe order.
    ///
    /// `cursor` is the deployment's exactly-once engine, when it has one
    /// (created with at least as many stripes as there are groups): each
    /// group's stripe is queried with *that group's* log generation, so
    /// committed-but-unrecorded acks are repaired per group and stale
    /// stripes repair nothing.
    ///
    /// Fails with `InvalidInput`, changing nothing, unless
    /// `config.dir/groups/` holds exactly the named groups.
    pub fn recover(
        base: Q,
        dlqs: Vec<Option<Arc<dyn DurableQueue>>>,
        config: LeaseConfig,
        groups: impl IntoIterator<Item = impl Into<String>>,
        cursor: Option<&crate::tx::ExactlyOnce>,
    ) -> io::Result<(Self, Vec<RecoveredLeases>)> {
        let slots = grouped_slots(&config.dir, groups);
        check_group_set(&config.dir, &slots)?;
        Self::recover_in(base, dlqs, &config, slots, cursor)
    }

    /// [`recover`](Self::recover) with each group's chain in its slot's
    /// directory, and no check of the group set.
    pub(crate) fn recover_in(
        base: Q,
        dlqs: Vec<Option<Arc<dyn DurableQueue>>>,
        config: &LeaseConfig,
        slots: Slots,
        cursor: Option<&crate::tx::ExactlyOnce>,
    ) -> io::Result<(Self, Vec<RecoveredLeases>)> {
        validate(config, &slots, &dlqs)?;
        if let Some(eo) = cursor {
            if eo.groups() < slots.len() {
                return Err(invalid_input(format!(
                    "exactly-once cursor has {} stripe(s) but the deployment has {} group(s)",
                    eo.groups(),
                    slots.len()
                )));
            }
        }
        let mut states = Vec::with_capacity(slots.len());
        let mut reports = Vec::with_capacity(slots.len());
        for (gi, ((name, dir), dlq)) in slots.iter().zip(&dlqs).enumerate() {
            let tx_acked = |generation| {
                cursor
                    .map(|eo| eo.acked_ids_in(gi, generation))
                    .unwrap_or_default()
            };
            let (state, report) = GroupState::recover(name, dir, config, dlq.as_ref(), tx_acked)?;
            states.push(state);
            reports.push(report);
        }
        Ok((Self::assemble(base, dlqs, config, slots, states), reports))
    }

    fn assemble(
        base: Q,
        dlqs: Vec<Option<Arc<dyn DurableQueue>>>,
        config: &LeaseConfig,
        slots: Slots,
        states: Vec<GroupState>,
    ) -> Self {
        let groups = slots
            .into_iter()
            .zip(dlqs)
            .zip(states)
            .map(|(((name, _), dlq), state)| GroupSlot {
                name,
                dlq,
                state: Mutex::new(state),
            })
            .collect();
        GroupedQueue {
            base,
            dispatch: Mutex::new(()),
            lease_timeout: config.lease_timeout,
            max_deliveries: config.max_deliveries,
            groups,
        }
    }

    // ------------------------------------------------------------------
    // Produce side (passthrough)
    // ------------------------------------------------------------------

    /// Appends `item` on the base queue. Every group will see it.
    pub fn enqueue(&self, tid: usize, item: u64) {
        self.base.enqueue(tid, item);
    }

    // ------------------------------------------------------------------
    // Handles and introspection
    // ------------------------------------------------------------------

    /// A competing-consumer handle on the named group, or `None` if no
    /// such group exists. Handles are cheap to clone and share.
    pub fn group(self: &Arc<Self>, name: &str) -> Option<ConsumerGroup<Q>> {
        let group = self.groups.iter().position(|g| g.name == name)?;
        Some(ConsumerGroup {
            shared: Arc::clone(self),
            group,
        })
    }

    /// Handles on every group, in stripe order.
    pub fn handles(self: &Arc<Self>) -> Vec<ConsumerGroup<Q>> {
        (0..self.groups.len())
            .map(|group| ConsumerGroup {
                shared: Arc::clone(self),
                group,
            })
            .collect()
    }

    /// Group names, in stripe order.
    pub fn group_names(&self) -> Vec<&str> {
        self.groups.iter().map(|g| g.name.as_str()).collect()
    }

    /// The wrapped base queue.
    pub fn base(&self) -> &Q {
        &self.base
    }

    /// The named group's dead-letter queue, if one is attached.
    pub fn dlq(&self, name: &str) -> Option<&Arc<dyn DurableQueue>> {
        self.groups.iter().find(|g| g.name == name)?.dlq.as_ref()
    }

    /// The configured lease timeout.
    pub fn lease_timeout(&self) -> Duration {
        self.lease_timeout
    }

    /// The configured delivery budget (`0` = unlimited).
    pub fn max_deliveries(&self) -> u32 {
        self.max_deliveries
    }

    // ------------------------------------------------------------------
    // Consume side (via ConsumerGroup)
    // ------------------------------------------------------------------

    fn dequeue_in(&self, group: usize, tid: usize) -> Option<Lease> {
        let now = Instant::now();
        {
            let mut st = self.groups[group].state.lock();
            self.reap_locked(group, &mut st, tid, now);
            if let Some(p) = st.pending.pop_front() {
                return Some(self.grant_locked(&mut st, now, p));
            }
        }
        // Pending is dry: pop a fresh item and hand it to every group (see
        // the module docs).
        let dispatch = (self.groups.len() > 1).then(|| self.dispatch.lock());
        let Some(item) = self.base.dequeue(tid) else {
            drop(dispatch);
            // The base is empty, but a racing dispatcher or settlement may
            // have refilled our pending set between the two lock scopes.
            let mut st = self.groups[group].state.lock();
            let p = st.pending.pop_front()?;
            return Some(self.grant_locked(&mut st, now, p));
        };
        let mut lease = None;
        for (gi, slot) in self.groups.iter().enumerate() {
            let mut st = slot.state.lock();
            st.stats.dispatched += 1;
            let own = gi == group;
            // Our own group's pending set may have refilled meanwhile: its
            // items go first, and the fresh one queues behind them.
            if !own || !st.pending.is_empty() {
                st.pend_fresh(item);
            }
            if own {
                let p = st.pending.pop_front().unwrap_or(PendingItem {
                    prev: 0,
                    item,
                    delivery_count: 1,
                });
                lease = Some(self.grant_locked(&mut st, now, p));
            }
        }
        DISPATCHES.incr();
        obs::flight::record(EventKind::LeaseDispatch, item, self.groups.len() as u64);
        lease
    }

    fn grant_locked(&self, st: &mut GroupState, now: Instant, p: PendingItem) -> Lease {
        let id = st.next_id;
        st.next_id += 1;
        st.append(&Record {
            kind: RecordKind::Grant,
            delivery_count: p.delivery_count,
            lease_id: id,
            item: p.item,
            prev_lease_id: p.prev,
        });
        let deadline = now + self.lease_timeout;
        st.inflight.insert(
            id,
            InFlight {
                item: p.item,
                delivery_count: p.delivery_count,
                deadline,
            },
        );
        st.push_deadline(deadline, id);
        st.stats.granted += 1;
        GRANTS.incr();
        obs::flight::record(EventKind::LeaseGrant, id, p.item);
        if p.delivery_count > 1 {
            st.stats.redelivered += 1;
        }
        Lease {
            id,
            item: p.item,
            delivery_count: p.delivery_count,
            deadline,
        }
    }

    fn ack_in(&self, group: usize, lease: &Lease) -> Result<(), LeaseError> {
        let mut st = self.groups[group].state.lock();
        if st.settling.contains(&lease.id) || st.inflight.remove(&lease.id).is_none() {
            // Settling: an exactly-once transaction owns this lease's
            // settlement; racing it would double-settle.
            return Err(LeaseError::NotInFlight);
        }
        st.append(&Record::terminal(RecordKind::Ack, lease.id));
        st.stats.acked += 1;
        ACKS.incr();
        obs::flight::record(EventKind::LeaseAck, lease.id, 0);
        Ok(())
    }

    fn nack_in(&self, group: usize, tid: usize, lease: &Lease) -> Result<Redelivery, LeaseError> {
        let mut st = self.groups[group].state.lock();
        if st.settling.contains(&lease.id) {
            return Err(LeaseError::NotInFlight);
        }
        let Some(f) = st.inflight.remove(&lease.id) else {
            return Err(LeaseError::NotInFlight);
        };
        st.stats.nacked += 1;
        NACKS.incr();
        let outcome = self.settle_returned(group, &mut st, tid, lease.id, f.item, f.delivery_count);
        if let Redelivery::Requeued {
            next_delivery_count,
        } = outcome
        {
            obs::flight::record(EventKind::LeaseNack, lease.id, next_delivery_count as u64);
        }
        Ok(outcome)
    }

    fn reap_in(&self, group: usize, tid: usize) -> usize {
        let mut st = self.groups[group].state.lock();
        self.reap_locked(group, &mut st, tid, Instant::now())
    }

    fn reap_locked(&self, group: usize, st: &mut GroupState, tid: usize, now: Instant) -> usize {
        let mut reaped = 0;
        while let Some(&Reverse((deadline, id))) = st.deadlines.peek() {
            if deadline > now {
                break;
            }
            st.deadlines.pop();
            match st.inflight.get(&id) {
                Some(f) if f.deadline == deadline => {}
                _ => continue, // lazy deletion: stale heap entry
            }
            let f = st.inflight.remove(&id).unwrap();
            st.stats.expired += 1;
            EXPIRIES.incr();
            let outcome = self.settle_returned(group, st, tid, id, f.item, f.delivery_count);
            if let Redelivery::Requeued {
                next_delivery_count,
            } = outcome
            {
                obs::flight::record(EventKind::LeaseExpire, id, next_delivery_count as u64);
            }
            reaped += 1;
        }
        reaped
    }

    /// An item came back (nack or expiry): requeue it for redelivery, or
    /// dead-letter it if the next delivery would exceed the budget.
    fn settle_returned(
        &self,
        group: usize,
        st: &mut GroupState,
        tid: usize,
        id: u64,
        item: u64,
        delivery_count: u32,
    ) -> Redelivery {
        if self.max_deliveries > 0 && delivery_count >= self.max_deliveries {
            // DLQ enqueue first, DEAD record second: a crash between the
            // two duplicates into the DLQ (at-least-once) instead of
            // losing the item.
            let dlq = self.groups[group]
                .dlq
                .as_ref()
                .expect("checked by validate");
            dlq.enqueue(tid, item);
            st.append(&Record::terminal(RecordKind::Dead, id));
            st.stats.dead_lettered += 1;
            DEAD.incr();
            obs::flight::record(EventKind::LeaseDead, id, item);
            Redelivery::DeadLettered
        } else {
            let next = delivery_count + 1;
            st.append(&Record {
                kind: RecordKind::Pend,
                delivery_count: next,
                lease_id: id,
                item,
                prev_lease_id: 0,
            });
            st.pending.push_back(PendingItem {
                prev: id,
                item,
                delivery_count: next,
            });
            Redelivery::Requeued {
                next_delivery_count: next,
            }
        }
    }

    fn stats_in(&self, group: usize) -> LeaseStats {
        let st = self.groups[group].state.lock();
        LeaseStats {
            rotations: st.log.rotations(),
            compactions: st.log.retired(),
            log_records: st.log.records(),
            segments: st.log.segments(),
            ..st.stats
        }
    }

    fn ack_exactly_once_in<R>(
        &self,
        group: usize,
        tid: usize,
        lease: &Lease,
        eo: &crate::tx::ExactlyOnce,
        body: impl FnOnce(&mut ptm::Tx<'_>) -> R,
    ) -> Result<R, LeaseError> {
        // Validate the cursor address before taking any lock or marking
        // anything settling, so an invalid address surfaces here instead
        // of as an assert inside the transaction after `body` ran.
        if tid >= pmem::MAX_THREADS {
            return Err(LeaseError::ThreadOutOfRange {
                tid,
                max: pmem::MAX_THREADS,
            });
        }
        if group >= eo.groups() {
            return Err(LeaseError::GroupOutOfRange {
                group,
                groups: eo.groups(),
            });
        }
        let state = &self.groups[group].state;
        let generation = {
            let mut st = state.lock();
            let in_pending = st.pending.iter().any(|p| p.prev == lease.id);
            if st.settling.contains(&lease.id)
                || (!st.inflight.contains_key(&lease.id) && !in_pending)
            {
                return Err(LeaseError::NotInFlight);
            }
            st.settling.insert(lease.id);
            st.log.generation()
        };
        // The mark must come off even if `body` unwinds, or the lease could
        // never be settled again; on the normal path it is removed under
        // the same lock that settles, so no second settlement can slip in
        // between transaction commit and settlement.
        let mut mark = SettlingMark {
            state,
            id: lease.id,
            armed: true,
        };
        let out = eo.run(group, tid, lease.id, generation, body);
        let mut st = state.lock();
        st.settling.remove(&lease.id);
        mark.armed = false;
        if st.inflight.remove(&lease.id).is_some() {
            st.stats.acked += 1;
        } else if let Some(pos) = st.pending.iter().position(|p| p.prev == lease.id) {
            // Expired mid-transaction but not yet regranted: the committed
            // ack wins, cancel the redelivery.
            st.pending.remove(pos);
            st.stats.acked += 1;
        } else {
            // Regranted to another consumer before our commit: that grant
            // retired this lease id, so there is nothing left to ack — the
            // item will be delivered again despite the committed work.
            st.stats.late_acks += 1;
            return Ok(out);
        }
        ACKS.incr();
        obs::flight::record(EventKind::LeaseAck, lease.id, 0);
        st.append(&Record::terminal(RecordKind::Ack, lease.id));
        Ok(out)
    }
}

impl<Q: KeyedQueue> GroupedQueue<Q> {
    /// Key-routed enqueue on the base queue (per-key FIFO when the base is
    /// a key-hash sharded queue).
    pub fn enqueue_keyed(&self, tid: usize, key: u64, item: u64) {
        self.base.enqueue_keyed(tid, key, item);
    }
}

/// Removes a lease's *settling* mark on unwind; disarmed on the normal
/// path, where `ack_exactly_once_in` removes the mark itself under the
/// settlement lock.
struct SettlingMark<'a> {
    state: &'a Mutex<GroupState>,
    id: u64,
    armed: bool,
}

impl Drop for SettlingMark<'_> {
    fn drop(&mut self) {
        if self.armed {
            self.state.lock().settling.remove(&self.id);
        }
    }
}

/// A competing-consumer handle on one group of a [`GroupedQueue`]. Clones
/// share the group; pass one clone per consumer thread.
pub struct ConsumerGroup<Q: DurableQueue> {
    shared: Arc<GroupedQueue<Q>>,
    group: usize,
}

impl<Q: DurableQueue> Clone for ConsumerGroup<Q> {
    fn clone(&self) -> Self {
        ConsumerGroup {
            shared: Arc::clone(&self.shared),
            group: self.group,
        }
    }
}

impl<Q: DurableQueue> ConsumerGroup<Q> {
    /// The group's name.
    pub fn name(&self) -> &str {
        &self.shared.groups[self.group].name
    }

    /// The group's stripe index (its exactly-once cursor stripe).
    pub fn index(&self) -> usize {
        self.group
    }

    /// The owning grouped queue.
    pub fn queue(&self) -> &Arc<GroupedQueue<Q>> {
        &self.shared
    }

    /// Grants a lease on this group's next item: pending items first
    /// (redeliveries and other groups' dispatches, in lease-id order),
    /// then a fresh pop from the base queue. Returns `None` when both the
    /// group's pending set and the base queue are empty. Expired leases
    /// are reaped first, so a single consumer loop observes its own
    /// timeouts. Competing consumers of the same group each see a disjoint
    /// subset of items; other groups' cursors are unaffected.
    ///
    /// The grant record is durable (`msync`'d under the power-fail tier)
    /// before the lease is returned, so no item a consumer *observed* can
    /// be lost to a crash; the in-transit window of a fresh pop is in the
    /// [module docs](self).
    pub fn dequeue(&self, tid: usize) -> Option<Lease> {
        self.shared.dequeue_in(self.group, tid)
    }

    /// Durably retires `lease` within this group: the item is consumed
    /// here and will never be redelivered to this group; other groups'
    /// copies are untouched. Fails with [`LeaseError::NotInFlight`] if the
    /// lease already settled or expired.
    pub fn ack(&self, lease: &Lease) -> Result<(), LeaseError> {
        self.shared.ack_in(self.group, lease)
    }

    /// Returns `lease` unprocessed: the item is requeued for redelivery
    /// within this group with `delivery_count + 1`, or dead-lettered if
    /// that would exceed the budget. `tid` is the caller's thread id on
    /// the dead-letter queue.
    pub fn nack(&self, tid: usize, lease: &Lease) -> Result<Redelivery, LeaseError> {
        self.shared.nack_in(self.group, tid, lease)
    }

    /// Reaps every lease of this group whose deadline has passed,
    /// requeueing (or dead-lettering) the items exactly as
    /// [`nack`](Self::nack) would. Runs implicitly at the start of every
    /// [`dequeue`](Self::dequeue); call it directly to observe timeouts
    /// without consuming. Returns the number of leases reaped.
    pub fn reap_expired(&self, tid: usize) -> usize {
        self.shared.reap_in(self.group, tid)
    }

    /// Acks `lease` and applies the consumer's own writes in **one**
    /// redo-log transaction — the exactly-once handoff. `body` runs inside
    /// the transaction (use [`Tx::write`](ptm::Tx::write) for the
    /// consumer's state); the transaction additionally records `lease.id`
    /// in this group's `(group, tid)` exactly-once cursor entry, so its
    /// commit point settles the ack and the consumer's state atomically.
    /// After commit the ack record is appended; if a crash swallows that
    /// append, recovery reads the cursor and repairs it — the item is
    /// **not** redelivered.
    ///
    /// Fails with [`LeaseError::ThreadOutOfRange`] /
    /// [`LeaseError::GroupOutOfRange`] — before anything runs, marks, or
    /// commits — if the `(group, tid)` pair does not address a stripe of
    /// `eo`.
    ///
    /// Fails with [`LeaseError::NotInFlight`] *before* running `body` if
    /// the lease already settled — including when another settlement
    /// (`ack`, `nack`, or a concurrent `ack_exactly_once`) already owns it:
    /// the lease is marked *settling* under the lock before the transaction
    /// starts, so at most one settlement body ever runs per lease and a
    /// racing caller's side effects are never applied twice. If the lease
    /// expires while the transaction runs, the committed work stands; when
    /// the item has not been regranted yet the ack still wins (the pending
    /// redelivery is cancelled), otherwise the handoff degrades to
    /// at-least-once for this item (counted in [`LeaseStats::late_acks`]).
    pub fn ack_exactly_once<R>(
        &self,
        tid: usize,
        lease: &Lease,
        eo: &crate::tx::ExactlyOnce,
        body: impl FnOnce(&mut ptm::Tx<'_>) -> R,
    ) -> Result<R, LeaseError> {
        self.shared
            .ack_exactly_once_in(self.group, tid, lease, eo, body)
    }

    /// Volatile counters since creation/recovery, segment accounting
    /// included.
    pub fn stats(&self) -> LeaseStats {
        self.shared.stats_in(self.group)
    }

    /// Leases currently in this group's consumers' hands.
    pub fn in_flight(&self) -> usize {
        self.shared.groups[self.group].state.lock().inflight.len()
    }

    /// Items awaiting (re)delivery in this group.
    pub fn pending_redelivery(&self) -> usize {
        self.shared.groups[self.group].state.lock().pending.len()
    }

    /// This group's dead-letter queue, if one is attached.
    pub fn dlq(&self) -> Option<&Arc<dyn DurableQueue>> {
        self.shared.groups[self.group].dlq.as_ref()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::tx::ExactlyOnce;
    use durable_queues::{OptUnlinkedQueue, QueueConfig, RecoverableQueue};
    use pmem::{PmemPool, PoolConfig};
    use ptm::FlushPolicy;

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("lease-group-{tag}-{}", std::process::id()));
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

    fn no_dlqs(n: usize) -> Vec<Option<Arc<dyn DurableQueue>>> {
        (0..n).map(|_| None).collect()
    }

    /// The lease ids in `group`'s deadline heap, stale entries included.
    pub(crate) fn deadline_ids<Q: DurableQueue>(group: &ConsumerGroup<Q>) -> Vec<u64> {
        let st = group.shared.groups[group.group].state.lock();
        st.deadlines.iter().map(|Reverse((_, id))| *id).collect()
    }

    #[test]
    fn deadline_heap_stays_bounded_by_the_in_flight_set() {
        // Acked leases leave lazily deleted heap entries behind until their
        // timeout; 10k grant→ack cycles under an hour-long timeout never
        // expire anything, so only the rebuild keeps the heap from growing
        // with every grant.
        let dir = tmp("deadline-bound");
        let cfg = LeaseConfig::new(&dir).with_timeout(Duration::from_secs(3600));
        let q = Arc::new(GroupedQueue::create(fresh_base(), no_dlqs(1), cfg, ["a"]).unwrap());
        let a = q.group("a").unwrap();
        q.enqueue(0, 1);
        let held = a.dequeue(0).unwrap();
        for i in 0..10_000u64 {
            q.enqueue(0, i);
            let l = a.dequeue(0).unwrap();
            a.ack(&l).unwrap();
            // Checked at each grant, when this cycle's lease was in flight.
            let bound = 2 * (a.in_flight() + 1) + 64;
            let heap = deadline_ids(&a).len();
            assert!(
                heap <= bound,
                "after {i} cycles: {heap} heap entries for {} in flight",
                a.in_flight()
            );
        }
        assert_eq!(a.in_flight(), 1);
        // The rebuilt heap still expires what is really in flight.
        assert!(deadline_ids(&a).contains(&held.id));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn every_group_sees_every_item_once() {
        let dir = tmp("fanout");
        let q = Arc::new(
            GroupedQueue::create(
                fresh_base(),
                no_dlqs(2),
                LeaseConfig::new(&dir),
                ["alpha", "beta"],
            )
            .unwrap(),
        );
        for i in 1..=5u64 {
            q.enqueue(0, i);
        }
        let alpha = q.group("alpha").unwrap();
        let beta = q.group("beta").unwrap();
        assert!(q.group("gamma").is_none());

        let mut seen_a = Vec::new();
        while let Some(l) = alpha.dequeue(0) {
            seen_a.push(l.item);
            alpha.ack(&l).unwrap();
        }
        let mut seen_b = Vec::new();
        while let Some(l) = beta.dequeue(1) {
            seen_b.push(l.item);
            beta.ack(&l).unwrap();
        }
        assert_eq!(seen_a, vec![1, 2, 3, 4, 5]);
        assert_eq!(seen_b, vec![1, 2, 3, 4, 5]);
        assert_eq!(alpha.stats().dispatched, 5);
        assert_eq!(beta.stats().acked, 5);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn consumers_within_a_group_compete_for_disjoint_items() {
        let dir = tmp("compete");
        let q = Arc::new(
            GroupedQueue::create(fresh_base(), no_dlqs(1), LeaseConfig::new(&dir), ["only"])
                .unwrap(),
        );
        for i in 1..=200u64 {
            q.enqueue(0, i);
        }
        let g = q.group("only").unwrap();
        let collected: Vec<Vec<u64>> = std::thread::scope(|s| {
            (0..4usize)
                .map(|c| {
                    let g = g.clone();
                    s.spawn(move || {
                        let mut mine = Vec::new();
                        while let Some(l) = g.dequeue(c) {
                            mine.push(l.item);
                            g.ack(&l).unwrap();
                        }
                        mine
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        let mut all: Vec<u64> = collected.into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(all, (1..=200).collect::<Vec<_>>(), "lost or doubled items");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn groups_settle_independently_nack_and_dlq() {
        let dir = tmp("dlq");
        let dlq_a = fresh_dlq();
        let dlq_b = fresh_dlq();
        let q = Arc::new(
            GroupedQueue::create(
                fresh_base(),
                vec![Some(Arc::clone(&dlq_a)), Some(Arc::clone(&dlq_b))],
                LeaseConfig::new(&dir).with_max_deliveries(2),
                ["a", "b"],
            )
            .unwrap(),
        );
        q.enqueue(0, 42);
        let a = q.group("a").unwrap();
        let b = q.group("b").unwrap();

        // Group a poisons the item past its budget; group b just acks it.
        let l1 = a.dequeue(0).unwrap();
        assert_eq!(
            a.nack(0, &l1).unwrap(),
            Redelivery::Requeued {
                next_delivery_count: 2
            }
        );
        let l2 = a.dequeue(0).unwrap();
        assert_eq!(l2.delivery_count, 2);
        assert_eq!(a.nack(0, &l2).unwrap(), Redelivery::DeadLettered);
        assert!(a.dequeue(0).is_none());

        let lb = b.dequeue(1).unwrap();
        assert_eq!((lb.item, lb.delivery_count), (42, 1));
        b.ack(&lb).unwrap();

        assert_eq!(drain(dlq_a.as_ref()), vec![42]);
        assert!(drain(dlq_b.as_ref()).is_empty(), "b's DLQ saw a's poison");
        assert_eq!(a.stats().dead_lettered, 1);
        assert_eq!(b.stats().acked, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recovery_is_per_group_and_isolated() {
        let dir = tmp("recover");
        let cfg = LeaseConfig::new(&dir);
        {
            let q = Arc::new(
                GroupedQueue::create(fresh_base(), no_dlqs(2), cfg.clone(), ["a", "b"]).unwrap(),
            );
            for i in 1..=3u64 {
                q.enqueue(0, i * 10);
            }
            let a = q.group("a").unwrap();
            let b = q.group("b").unwrap();
            // a acks 10, holds 20 and 30; b acks everything.
            let l = a.dequeue(0).unwrap();
            a.ack(&l).unwrap();
            let _h1 = a.dequeue(0).unwrap();
            let _h2 = a.dequeue(0).unwrap();
            while let Some(l) = b.dequeue(1) {
                b.ack(&l).unwrap();
            }
            // Crash: drop without settling a's two in-flight leases.
        }
        let (q, reports) =
            GroupedQueue::recover(fresh_base(), no_dlqs(2), cfg, ["a", "b"], None).unwrap();
        let q = Arc::new(q);
        assert_eq!(reports.len(), 2);
        assert_eq!(
            (reports[0].name.as_str(), reports[1].name.as_str()),
            ("a", "b")
        );
        assert_eq!(q.group_names(), ["a", "b"]);
        assert_eq!(reports[0].unacked, 2);
        assert_eq!(reports[0].redelivered, 2);
        assert_eq!(reports[1].unacked, 0);
        assert_eq!(reports[1].redelivered, 0, "b's settled items resurrected");

        let a = q.group("a").unwrap();
        let b = q.group("b").unwrap();
        let r1 = a.dequeue(0).unwrap();
        assert_eq!((r1.item, r1.delivery_count), (20, 2));
        let r2 = a.dequeue(0).unwrap();
        assert_eq!((r2.item, r2.delivery_count), (30, 2));
        assert!(a.dequeue(0).is_none(), "a's acked item resurrected");
        assert!(b.dequeue(1).is_none(), "b saw items after acking all");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rotation_under_traffic_survives_recovery() {
        let dir = tmp("rotation");
        let cfg = LeaseConfig::new(&dir).with_compact_after(8);
        let mut held_item = 0;
        {
            let q = Arc::new(
                GroupedQueue::create(fresh_base(), no_dlqs(1), cfg.clone(), ["g"]).unwrap(),
            );
            let g = q.group("g").unwrap();
            for i in 1..=50u64 {
                q.enqueue(0, i);
                let l = g.dequeue(0).unwrap();
                if i == 50 {
                    held_item = l.item;
                    break;
                }
                g.ack(&l).unwrap();
            }
            let s = g.stats();
            assert!(s.rotations >= 2, "rotation never triggered: {s:?}");
            assert!(s.compactions >= 1, "retirement never triggered: {s:?}");
            assert!(s.segments <= 3, "settled segments piled up: {s:?}");
        }
        let (q, reports) =
            GroupedQueue::recover(fresh_base(), no_dlqs(1), cfg, ["g"], None).unwrap();
        let q = Arc::new(q);
        assert_eq!(reports[0].redelivered, 1);
        let g = q.group("g").unwrap();
        let r = g.dequeue(0).unwrap();
        assert_eq!((r.item, r.delivery_count), (held_item, 2));
        assert!(g.dequeue(0).is_none(), "settled item resurrected");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn exactly_once_repairs_on_the_groups_own_stripe() {
        let dir = tmp("eo");
        let cfg = LeaseConfig::new(&dir);
        let pool = Arc::new(PmemPool::new(PoolConfig::test_with_size(4 << 20)));
        let eo = ExactlyOnce::create_for_groups(Arc::clone(&pool), FlushPolicy::BatchedCommit, 2);
        let word = pool.alloc_raw(8, 8);
        {
            let q = Arc::new(
                GroupedQueue::create(fresh_base(), no_dlqs(2), cfg.clone(), ["a", "b"]).unwrap(),
            );
            q.enqueue(0, 7);
            let a = q.group("a").unwrap();
            let b = q.group("b").unwrap();
            let la = a.dequeue(0).unwrap();
            a.ack_exactly_once(0, &la, &eo, |tx| tx.write(word, 1))
                .unwrap();
            let _lb = b.dequeue(0).unwrap(); // b crashes mid-flight
        }
        // Zero a's sidecar ACK to simulate the documented crash window:
        // the transaction committed, the segment append was lost.
        let lost = crate::log::tests::zero_last_record(&dir.join(GROUPS_DIR).join("a"));
        assert_eq!(lost.kind, RecordKind::Ack);

        let (q, reports) =
            GroupedQueue::recover(fresh_base(), no_dlqs(2), cfg, ["a", "b"], Some(&eo)).unwrap();
        let q = Arc::new(q);
        assert_eq!(reports[0].tx_acked, 1, "a's committed ack not repaired");
        assert_eq!(reports[0].redelivered, 0);
        assert_eq!(reports[1].tx_acked, 0, "a's stripe repaired b's lease");
        assert_eq!(reports[1].redelivered, 1, "b's in-flight lease lost");
        let b = q.group("b").unwrap();
        let r = b.dequeue(0).unwrap();
        assert_eq!((r.item, r.delivery_count), (7, 2));
        assert!(q.group("a").unwrap().dequeue(0).is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn cursor_bounds_are_validated_before_the_body_runs() {
        let dir = tmp("bounds");
        let q = Arc::new(
            GroupedQueue::create(fresh_base(), no_dlqs(2), LeaseConfig::new(&dir), ["a", "b"])
                .unwrap(),
        );
        // A one-stripe engine paired with a two-group deployment: group
        // b's handle must fail loudly instead of clobbering stripe 0.
        let pool = Arc::new(PmemPool::new(PoolConfig::test_with_size(4 << 20)));
        let eo = ExactlyOnce::create(Arc::clone(&pool), FlushPolicy::BatchedCommit);
        q.enqueue(0, 1);
        let b = q.group("b").unwrap();
        let l = b.dequeue(0).unwrap();
        let mut ran = false;
        let err = b.ack_exactly_once(0, &l, &eo, |_| ran = true).unwrap_err();
        assert_eq!(
            err,
            LeaseError::GroupOutOfRange {
                group: 1,
                groups: 1
            }
        );
        let err = b
            .ack_exactly_once(pmem::MAX_THREADS + 3, &l, &eo, |_| ran = true)
            .unwrap_err();
        assert_eq!(
            err,
            LeaseError::ThreadOutOfRange {
                tid: pmem::MAX_THREADS + 3,
                max: pmem::MAX_THREADS
            }
        );
        assert!(!ran, "consumer body ran despite invalid cursor address");
        b.ack(&l).unwrap();
        // Recovery refuses the undersized engine up front, too.
        let err = GroupedQueue::recover(
            fresh_base(),
            no_dlqs(2),
            LeaseConfig::new(&dir),
            ["a", "b"],
            Some(&eo),
        )
        .map(|_| ())
        .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bad_configs_are_refused() {
        let dir = tmp("bad-config");
        let err = GroupedQueue::create(
            fresh_base(),
            no_dlqs(0),
            LeaseConfig::new(&dir),
            Vec::<String>::new(),
        )
        .map(|_| ())
        .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        let err =
            GroupedQueue::create(fresh_base(), no_dlqs(2), LeaseConfig::new(&dir), ["x", "x"])
                .map(|_| ())
                .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        for name in ["../evil", ".."] {
            let err =
                GroupedQueue::create(fresh_base(), no_dlqs(1), LeaseConfig::new(&dir), [name])
                    .map(|_| ())
                    .unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{name}");
        }
        let err = GroupedQueue::create(
            fresh_base(),
            no_dlqs(1),
            LeaseConfig::new(&dir).with_max_deliveries(2),
            ["a"],
        )
        .map(|_| ())
        .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
