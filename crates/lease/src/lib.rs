//! Durable peek-lock consumption over any durable queue.
//!
//! The queues in `crates/core` consume destructively: `dequeue` removes
//! the item, and a consumer that crashes *after* the dequeue but *before*
//! finishing its work silently loses the message. Message brokers solve
//! this with **peek-lock** (leases): a dequeue hands the consumer a
//! time-limited lease while the broker keeps durable ownership of the item
//! until it is acknowledged. This crate layers that protocol on top of any
//! [`DurableQueue`](durable_queues::DurableQueue) — the ten paper
//! algorithms, the `shard` crate's partitioned composition, or anything
//! else implementing the trait.
//!
//! # State machine
//!
//! ```text
//!            enqueue                    dequeue (GRANT)
//!   producer ───────▶ ready (base queue) ───────▶ leased ──ack (ACK)──▶ consumed
//!                        ▲                          │
//!                        │ regrant (GRANT w/ prev)  │ nack / deadline expiry
//!                        │                          ▼
//!                        └──────── pending (PEND) ◀─┘
//!                                     │
//!                                     │ delivery_count would exceed budget
//!                                     ▼
//!                          dead-letter queue (DEAD)
//! ```
//!
//! Every transition is one CRC'd record appended to the consumer group's
//! ack log ([`log`] module): a chain of rotating segment files
//! ([`segments`] module), each a mapped, preallocated
//! [`store::RecordLog`], so an append is a copy into the page cache with
//! no syscall — plus an `msync` of the record's page under the power-fail
//! tier. Once the active segment fills, the log rotates to a fresh one,
//! and sealed segments that no longer hold a live lease are retired
//! (unlinked) — the log's compaction, with no stop-the-world rewrite. A
//! restart replays the surviving segments and every lease without a
//! terminal record becomes redeliverable with an incremented delivery
//! count: **at-least-once** delivery. Items that exhaust their delivery
//! budget overflow to a dead-letter queue, itself a durable queue in the
//! same directory.
//!
//! The [`tx`] module upgrades the ack side to **exactly-once handoff**:
//! [`LeasedQueue::ack_exactly_once`] runs the consumer's own state
//! transition and the ack in a single `crates/ptm` redo-log transaction,
//! whose commit point settles both atomically; recovery repairs acks whose
//! record was lost to the crash instead of redelivering.
//!
//! One engine runs all of it: the [`group`] module's [`GroupedQueue`]
//! fans every item out to N **consumer groups** — each with an
//! independent delivery cursor, so each group sees every item — while
//! consumers *within* a group compete for disjoint subsets, and each
//! group's transitions land in its own segment chain behind its own lock.
//! A [`LeasedQueue`] is that engine with one group, whose chain lives in
//! the deployment directory itself. The exactly-once cursor stripes by
//! `(group, tid)` so the same consumer thread can settle in several
//! groups.
//!
//! One [`LeaseConfig`] (timeout, delivery budget, sync tier, rotation
//! threshold) configures either shape; a grouped queue takes it plus the
//! group names. [`dir`] packages the whole thing as one directory —
//! sharded base queue, dead-letter pool(s), the ack log's segment
//! chain(s) — created and reopened as a unit from one [`LeaseDirConfig`],
//! with one lease-recovery entry per group reported through
//! [`shard::RecoveryReport::groups`].

#![warn(missing_docs)]

pub mod dir;
pub mod group;
pub mod log;
pub mod queue;
pub mod segments;
pub mod tx;

pub use dir::{
    create_grouped_dir, create_leased_dir, open_grouped_dir, open_leased_dir, LeaseDirConfig,
    OpenedGroupedDir, DLQ_POOL_FILE,
};
pub use group::{ConsumerGroup, GroupedQueue, GROUPS_DIR};
pub use log::{Record, RecordKind, Replay, LEASE_LOG_FILE};
pub use queue::{
    Lease, LeaseConfig, LeaseError, LeaseStats, LeasedQueue, RecoveredLeases, Redelivery,
};
pub use segments::{
    GroupReplay, SegmentedLog, DEFAULT_ROTATE_RECORDS, GROUP_META_FILE, SEGMENT_HEADER_LEN,
};
pub use tx::{ExactlyOnce, CURSOR_ROOT_SLOT};
