//! The ack-log record format behind peek-lock consumption.
//!
//! Every lease-state transition is one fixed-size, CRC-protected
//! [`Record`] appended to the consumer group's ack log — a chain of
//! rotating segment files (see [`segments`](crate::segments)) next to the
//! queue's pool file(s), the same enq/ack-pair discipline message stores
//! like LavinMQ use. The log is the durable authority on which dequeued
//! items are still owned by a consumer: on restart it is replayed
//! sequentially ([`Replay`]) and every lease without a terminal record
//! ([`ACK`](RecordKind::Ack) or [`DEAD`](RecordKind::Dead)) becomes
//! redeliverable.
//!
//! # Record linkage
//!
//! Item *values* are not unique (a queue may carry the same `u64` twice),
//! so redelivery cannot retire the superseded lease by item. Instead every
//! [`GRANT`](RecordKind::Grant) carries `prev_lease_id` — the lease it
//! re-delivers (`0` for a fresh pop from the base queue) — and replay
//! retires `prev` before registering the new lease. The chain
//! `GRANT(id=5) → PEND(5, next) → GRANT(9, prev=5) → ACK(9)` therefore
//! nets out to nothing, while a crash after the `PEND` leaves exactly one
//! redeliverable entry.
//!
//! # Generation
//!
//! Each log has a non-zero **generation**, chosen once when it is created
//! and never changed: the log's identity. The exactly-once cursor stamps
//! each acked lease id with the generation it was acked under, and
//! recovery ignores cursor entries from other generations — a stale
//! cursor paired with a recreated log can therefore never repair-ack an
//! unrelated lease.
//!
//! # The single-file log of older builds
//!
//! Builds before the segmented log kept a single-consumer deployment's
//! records in one file, [`LEASE_LOG_FILE`]. This build does not read it:
//! reopening a directory that holds one is refused (see
//! [`LeasedQueue::recover`](crate::LeasedQueue::recover)), because its
//! granted-but-unacked items were already popped from the base queue and
//! would otherwise be lost without a word.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::fs::File;
use std::hash::{BuildHasherDefault, Hasher};
use std::io;
use std::path::Path;
use store::crc32;

/// File name of the single-file ack log older builds wrote; its presence
/// makes recovery refuse the directory.
pub const LEASE_LOG_FILE: &str = "LEASES.log";

/// Size of an ack-log file header in bytes. Every ack-log file is a
/// segment, whose header is one record's worth.
pub const HEADER_LEN: usize = crate::segments::SEGMENT_HEADER_LEN;

/// Size of every record in bytes.
pub const RECORD_LEN: usize = 40;

/// The four lease-state transitions a record can encode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u32)]
pub enum RecordKind {
    /// An item left the base queue (or the redelivery set) and is now owned
    /// by lease `lease_id`; `prev_lease_id` is the superseded lease this
    /// grant re-delivers (`0` = fresh from the base queue).
    Grant = 1,
    /// Lease `lease_id` was acknowledged: the item is consumed and will
    /// never be redelivered.
    Ack = 2,
    /// Lease `lease_id` was nacked or expired: the item awaits redelivery
    /// with `delivery_count` as its *next* attempt number. Also written by
    /// dispatch for a fresh item awaiting its first delivery in a group
    /// other than the popping consumer's, so replay treats it as an upsert
    /// (it may appear without a preceding grant).
    Pend = 3,
    /// Lease `lease_id` exceeded its delivery budget; the item was durably
    /// moved to the dead-letter queue (the DLQ enqueue happens *before*
    /// this record, so a crash between the two duplicates into the DLQ
    /// rather than losing the item).
    Dead = 4,
}

impl RecordKind {
    pub(crate) fn from_u32(v: u32) -> Option<Self> {
        match v {
            1 => Some(RecordKind::Grant),
            2 => Some(RecordKind::Ack),
            3 => Some(RecordKind::Pend),
            4 => Some(RecordKind::Dead),
            _ => None,
        }
    }
}

/// One fixed-size log record. See [`RecordKind`] for the semantics of each
/// field per kind; byte layout is documented in `docs/FORMATS.md`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Record {
    /// The transition this record encodes.
    pub kind: RecordKind,
    /// Attempt number: for [`Grant`](RecordKind::Grant) the count of *this*
    /// delivery (first delivery = 1); for [`Pend`](RecordKind::Pend) the
    /// count the *next* delivery will carry; `0` for terminal records.
    pub delivery_count: u32,
    /// The lease this record is about.
    pub lease_id: u64,
    /// The item value (meaningful for `Grant`/`Pend`; `0` for terminals).
    pub item: u64,
    /// For `Grant`: the lease this grant supersedes (`0` = none).
    pub prev_lease_id: u64,
}

impl Record {
    /// A terminal ([`Ack`](RecordKind::Ack) / [`Dead`](RecordKind::Dead))
    /// record for lease `lease_id`.
    pub(crate) fn terminal(kind: RecordKind, lease_id: u64) -> Record {
        Record {
            kind,
            delivery_count: 0,
            lease_id,
            item: 0,
            prev_lease_id: 0,
        }
    }

    pub(crate) fn encode(&self) -> [u8; RECORD_LEN] {
        let mut buf = [0u8; RECORD_LEN];
        buf[0..4].copy_from_slice(&(self.kind as u32).to_le_bytes());
        buf[4..8].copy_from_slice(&self.delivery_count.to_le_bytes());
        buf[8..16].copy_from_slice(&self.lease_id.to_le_bytes());
        buf[16..24].copy_from_slice(&self.item.to_le_bytes());
        buf[24..32].copy_from_slice(&self.prev_lease_id.to_le_bytes());
        let crc = crc32(&buf[0..32]);
        buf[32..36].copy_from_slice(&crc.to_le_bytes());
        // buf[36..40] stays zero (pad).
        buf
    }

    /// Decodes one record, or `None` if the CRC or kind is invalid (a torn
    /// or never-written tail).
    pub(crate) fn decode(buf: &[u8]) -> Option<Record> {
        debug_assert_eq!(buf.len(), RECORD_LEN);
        let stored = u32::from_le_bytes(buf[32..36].try_into().unwrap());
        if crc32(&buf[0..32]) != stored {
            return None;
        }
        let kind = RecordKind::from_u32(u32::from_le_bytes(buf[0..4].try_into().unwrap()))?;
        Some(Record {
            kind,
            delivery_count: u32::from_le_bytes(buf[4..8].try_into().unwrap()),
            lease_id: u64::from_le_bytes(buf[8..16].try_into().unwrap()),
            item: u64::from_le_bytes(buf[16..24].try_into().unwrap()),
            prev_lease_id: u64::from_le_bytes(buf[24..32].try_into().unwrap()),
        })
    }
}

/// A lease that was live (no terminal record) when the log ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LiveLease {
    /// The item the lease owns.
    pub item: u64,
    /// For a granted lease: the delivery count it was granted with. For a
    /// pending lease: the count its next delivery must carry.
    pub delivery_count: u32,
    /// Whether the lease was granted (in a consumer's hands at the crash)
    /// or pending redelivery (nacked/expired, not yet regranted).
    pub granted: bool,
}

/// What replaying the log reconstructed.
#[derive(Clone, Debug, Default)]
pub struct Replay {
    /// Every lease without a terminal record, keyed (and therefore ordered)
    /// by lease id — grant order, since ids are monotonic.
    pub live: BTreeMap<u64, LiveLease>,
    /// The first id the next life may grant: the segment headers'
    /// persisted high-water marks maxed with `lease id + 1` over the
    /// replayed records, so ids stay monotonic even when retirement
    /// discarded every record that witnessed the previous maximum.
    pub next_lease_id: u64,
    /// The log's generation (see the [module docs](self)); exactly-once
    /// cursor entries stamped with a different generation belong to another
    /// log and must be ignored.
    pub generation: u64,
    /// Valid records replayed.
    pub records: u64,
    /// Terminal `ACK` records seen.
    pub acked: u64,
    /// Terminal `DEAD` records seen.
    pub dead: u64,
    /// Bytes dropped at the tail as a torn final append (0 or a partial /
    /// corrupt record's worth).
    pub torn_bytes: u64,
}

impl Replay {
    /// Folds one valid record into the reconstruction.
    pub(crate) fn apply(&mut self, rec: &Record) {
        self.records += 1;
        self.next_lease_id = self.next_lease_id.max(rec.lease_id + 1);
        match rec.kind {
            RecordKind::Grant => {
                if rec.prev_lease_id != 0 {
                    self.live.remove(&rec.prev_lease_id);
                }
                self.live.insert(
                    rec.lease_id,
                    LiveLease {
                        item: rec.item,
                        delivery_count: rec.delivery_count,
                        granted: true,
                    },
                );
            }
            RecordKind::Ack => {
                self.live.remove(&rec.lease_id);
                self.acked += 1;
            }
            RecordKind::Pend => {
                self.live.insert(
                    rec.lease_id,
                    LiveLease {
                        item: rec.item,
                        delivery_count: rec.delivery_count,
                        granted: false,
                    },
                );
            }
            RecordKind::Dead => {
                self.live.remove(&rec.lease_id);
                self.dead += 1;
            }
        }
    }
}

/// Hashes lease ids with one multiply (Fibonacci hashing) instead of
/// SipHash. Lease ids are dense counters the engine allocates itself,
/// never input from outside the program, so there are no crafted
/// collisions to defend against, and on sequential ids the product's low
/// bits (the bucket) are a permutation and its high bits well mixed.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct LeaseIdHasher(u64);

impl Hasher for LeaseIdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(self.0.rotate_left(8) ^ b as u64);
        }
    }

    fn write_u64(&mut self, id: u64) {
        self.0 = id.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A map keyed by lease id (see [`LeaseIdHasher`]).
pub(crate) type IdMap<V> = HashMap<u64, V, BuildHasherDefault<LeaseIdHasher>>;

/// A set of lease ids (see [`LeaseIdHasher`]).
pub(crate) type IdSet = HashSet<u64, BuildHasherDefault<LeaseIdHasher>>;

/// A fresh, non-zero log generation: wall-clock nanoseconds mixed with the
/// process id, with a process-wide sequence in the low 16 bits so two
/// creates inside one clock tick still differ. Zero is reserved as the
/// cursor's "no generation" value, and collisions across recreations of
/// one deployment's log are what matter — within a process the sequence
/// rules them out, across processes the pid/nanosecond mix makes them
/// vanishingly unlikely.
pub(crate) fn fresh_generation() -> u64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed) & 0xFFFF;
    (((nanos ^ ((std::process::id() as u64) << 32)) & !0xFFFF) | seq).max(1)
}

pub(crate) fn bad_data(path: &Path, msg: String) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("{}: {msg}", path.display()),
    )
}

/// `fsync`s `path`'s parent directory, making a create or rename durable.
pub(crate) fn sync_parent(path: &Path) -> io::Result<()> {
    match path.parent() {
        Some(dir) => File::open(dir)?.sync_data(),
        None => Ok(()),
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::segments::{SegmentedLog, GROUP_META_FILE};
    use crate::{LeaseConfig, LeasedQueue};
    use durable_queues::{OptUnlinkedQueue, QueueConfig, RecoverableQueue};
    use pmem::{PmemPool, PoolConfig};
    use std::sync::Arc;
    use store::SyncPolicy;

    /// Zeroes the last record of the active (newest) segment in the log
    /// directory `dir` and returns it: the crash that loses an append, written
    /// in place the way a mapped log loses it.
    pub(crate) fn zero_last_record(dir: &Path) -> Record {
        use crate::segments::{list_dir, segment_path};
        let newest = *list_dir(dir).unwrap().seqs.last().expect("no segment");
        let path = segment_path(dir, newest);
        let mut bytes = std::fs::read(&path).unwrap();
        let used = bytes[HEADER_LEN..]
            .chunks_exact(RECORD_LEN)
            .take_while(|slot| Record::decode(slot).is_some())
            .count();
        assert!(used > 0, "{}: no record to zero", path.display());
        let at = HEADER_LEN + (used - 1) * RECORD_LEN;
        let rec = Record::decode(&bytes[at..at + RECORD_LEN]).unwrap();
        bytes[at..at + RECORD_LEN].fill(0);
        std::fs::write(&path, &bytes).unwrap();
        rec
    }

    fn tmp(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("lease-log-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn grant(id: u64, item: u64, dc: u32, prev: u64) -> Record {
        Record {
            kind: RecordKind::Grant,
            delivery_count: dc,
            lease_id: id,
            item,
            prev_lease_id: prev,
        }
    }

    /// A fresh one-segment log in `dir` holding `records`.
    fn log_with(dir: &Path, sync: SyncPolicy, records: &[Record]) -> SegmentedLog {
        let mut log = SegmentedLog::create(dir, sync, 0).unwrap();
        for rec in records {
            log.append(rec, rec.lease_id + 1).unwrap();
        }
        log
    }

    fn replay(dir: &Path) -> io::Result<Replay> {
        SegmentedLog::replay(dir, SyncPolicy::default(), 0).map(|(_, gr)| gr.replay)
    }

    fn fresh_base() -> OptUnlinkedQueue {
        let pool = Arc::new(PmemPool::new(PoolConfig::test_with_size(4 << 20)));
        OptUnlinkedQueue::create(pool, QueueConfig::small_test())
    }

    #[test]
    fn roundtrip_reconstructs_live_leases() {
        let dir = tmp("roundtrip");
        let log = log_with(
            &dir,
            SyncPolicy::PowerFail,
            &[
                grant(1, 100, 1, 0),
                grant(2, 200, 1, 0),
                Record::terminal(RecordKind::Ack, 1),
                // Lease 2 nacked, regranted as 3, then dead-lettered.
                Record {
                    kind: RecordKind::Pend,
                    delivery_count: 2,
                    lease_id: 2,
                    item: 200,
                    prev_lease_id: 0,
                },
                grant(3, 200, 2, 2),
                Record::terminal(RecordKind::Dead, 3),
                grant(4, 400, 1, 0),
            ],
        );
        assert_eq!(log.records(), 7);
        drop(log);

        let replay = replay(&dir).unwrap();
        assert_eq!(replay.records, 7);
        assert_eq!(replay.acked, 1);
        assert_eq!(replay.dead, 1);
        assert_eq!(replay.next_lease_id, 5);
        assert_eq!(replay.torn_bytes, 0);
        assert_eq!(replay.live.len(), 1);
        assert_eq!(
            replay.live[&4],
            LiveLease {
                item: 400,
                delivery_count: 1,
                granted: true
            }
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_dropped_and_chopped() {
        let dir = tmp("torn");
        drop(log_with(
            &dir,
            SyncPolicy::default(),
            &[grant(1, 10, 1, 0), grant(2, 20, 1, 0)],
        ));
        // Simulate an append torn mid-record: the third slot holds part of
        // a record, the preallocated tail after it stays zero.
        let path = dir.join("segment-0000.log");
        let mut bytes = std::fs::read(&path).unwrap();
        let slot = HEADER_LEN + 2 * RECORD_LEN;
        bytes[slot..slot + RECORD_LEN - 7].fill(0xAB);
        std::fs::write(&path, &bytes).unwrap();

        let (mut log, gr) = SegmentedLog::replay(&dir, SyncPolicy::default(), 0).unwrap();
        assert_eq!(gr.replay.records, 2);
        assert_eq!(gr.replay.torn_bytes, (RECORD_LEN - 7) as u64);
        assert_eq!(gr.replay.live.len(), 2);
        // The torn slot was zeroed: a fresh append lands on a record
        // boundary and replays cleanly.
        log.append(&Record::terminal(RecordKind::Ack, 1), 3)
            .unwrap();
        drop(log);
        let replay = replay(&dir).unwrap();
        assert_eq!(replay.records, 3);
        assert_eq!(replay.torn_bytes, 0);
        assert_eq!(replay.live.len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_non_zero_byte_after_the_torn_slot_is_refused_with_the_file_name() {
        // A torn slot followed by zeros is a crash tail; one stray byte
        // further into the preallocated tail means the "tail" may hide
        // acknowledged records, so recovery must refuse rather than drop
        // it — here through the one-group engine.
        let dir = tmp("stray");
        let cfg = LeaseConfig::new(&dir).with_compact_after(3);
        {
            let q = LeasedQueue::create(fresh_base(), None, cfg.clone()).unwrap();
            q.enqueue(0, 10);
            q.dequeue(0).unwrap();
        }
        let path = dir.join("segment-0000.log");
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[HEADER_LEN + RECORD_LEN + 3] = 0x11; // torn second slot
        bytes[HEADER_LEN + 50 * RECORD_LEN] = 0x22; // far into the tail
        std::fs::write(&path, &bytes).unwrap();

        let err = LeasedQueue::recover(fresh_base(), None, cfg, None)
            .map(|_| ())
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let msg = err.to_string();
        assert!(msg.contains("segment-0000.log"), "{msg}");
        assert!(msg.contains("corrupt record"), "{msg}");
        assert_eq!(
            std::fs::read(&path).unwrap(),
            bytes,
            "a refused log must be left as found"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn interior_corruption_is_refused_with_the_file_name() {
        let dir = tmp("interior");
        let records: Vec<Record> = (1..=3).map(|i| grant(i, i * 10, 1, 0)).collect();
        drop(log_with(&dir, SyncPolicy::default(), &records));
        let path = dir.join("segment-0000.log");
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[HEADER_LEN + 5] ^= 0xFF; // first record, not the tail
        std::fs::write(&path, &bytes).unwrap();

        let err = replay(&dir).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let msg = err.to_string();
        assert!(msg.contains("segment-0000.log"), "{msg}");
        assert!(msg.contains("corrupt record"), "{msg}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn header_damage_is_refused() {
        // The lone segment of a never-rotated log has no predecessor to
        // roll back to, so any damage to its header is refused.
        let dir = tmp("header");
        drop(log_with(&dir, SyncPolicy::default(), &[grant(1, 10, 1, 0)]));
        let path = dir.join("segment-0000.log");
        let good = std::fs::read(&path).unwrap();

        let truncated = good[..HEADER_LEN - 3].to_vec();
        let mut bad_magic = good.clone();
        bad_magic[0] = b'X';
        let mut bad_crc = good.clone();
        bad_crc[9] ^= 0xFF; // version byte → header CRC mismatch
        for bad in [truncated, bad_magic, bad_crc] {
            std::fs::write(&path, &bad).unwrap();
            let err = replay(&dir).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            let msg = err.to_string();
            assert!(msg.contains("segment-0000.log"), "{msg}");
            assert!(msg.contains("corrupt segment header"), "{msg}");
            assert_eq!(
                std::fs::read(&path).unwrap(),
                bad,
                "damaged header rewritten"
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_file_opens_as_a_fresh_log() {
        // A directory that never leased recovers as an empty deployment.
        let dir = tmp("missing");
        let (q, rec) =
            LeasedQueue::recover(fresh_base(), None, LeaseConfig::new(&dir), None).unwrap();
        assert_eq!(rec.log_records, 0);
        assert_eq!(rec.redelivered, 0);
        assert_eq!(q.log_records(), 0);
        assert!(dir.join(GROUP_META_FILE).exists());
        q.enqueue(0, 5);
        assert_eq!(q.dequeue(0).unwrap().id, 1, "a fresh log starts ids at 1");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
