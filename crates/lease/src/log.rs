//! The durable ack log behind peek-lock consumption.
//!
//! Every lease-state transition is one fixed-size, CRC-protected record
//! appended to a sidecar file (`LEASES.log`) next to the queue's pool
//! file(s) — the same enq/ack-pair discipline message stores like LavinMQ
//! use, collapsed into a single append-only file. The log is the durable
//! authority on which dequeued items are still owned by a consumer: on
//! restart it is replayed sequentially and every lease without a terminal
//! record ([`ACK`](RecordKind::Ack) or [`DEAD`](RecordKind::Dead)) becomes
//! redeliverable.
//!
//! # Record linkage
//!
//! Item *values* are not unique (a queue may carry the same `u64` twice),
//! so redelivery cannot retire the superseded lease by item. Instead every
//! [`GRANT`](RecordKind::Grant) carries `prev_lease_id` — the lease it
//! re-delivers (`0` for a fresh dequeue from the base queue) — and replay
//! retires `prev` before registering the new lease. The chain
//! `GRANT(id=5) → PEND(5, next) → GRANT(9, prev=5) → ACK(9)` therefore
//! nets out to nothing, while a crash after the `PEND` leaves exactly one
//! redeliverable entry.
//!
//! # Header: id high-water mark and generation
//!
//! The header carries two u64s besides the magic/version:
//!
//! * **`next_lease_id`** — the id high-water mark at the last
//!   create/compaction. Compaction snapshots only *live* leases, so when
//!   the highest-numbered leases are all settled their GRANT records — the
//!   only other witnesses of the high-water mark — vanish with the retired
//!   prefix. Persisting the mark in the header (rewritten by every
//!   compaction) keeps lease ids monotonic across restarts; replay seeds
//!   from the header and maxes in the surviving records.
//! * **`generation`** — a non-zero value chosen once at
//!   [`AckLog::create`] and carried unchanged through every compaction: the
//!   log's identity. The exactly-once cursor stamps each acked lease id
//!   with the generation it was acked under, and recovery ignores cursor
//!   entries from other generations — a stale cursor paired with a
//!   recreated log can therefore never repair-ack an unrelated lease.
//!
//! # Durability
//!
//! The log is a [`store::RecordLog`]: a file preallocated in chunks and
//! mapped shared read-write, so an append is a copy of the 40-byte record
//! into the mapping — no syscall. Under the default process-crash tier
//! that is enough: the store is in the page cache the moment it retires
//! and survives the process, the same contract as the pool files. Under
//! [`SyncPolicy::PowerFail`] each append additionally `msync`s the
//! record's page before the operation returns.
//!
//! Replay scans the mapping in place. The log ends at the first invalid
//! record, provided every byte after it is zero (the preallocated tail); a
//! record torn by the crash in that slot is dropped and zeroed, never
//! trusted. A corrupt header, or a non-zero byte anywhere after the first
//! invalid record, is real damage rather than a mid-append crash and is
//! refused with an error naming the file.
//!
//! Version 2 files, which end at their last record instead of a zeroed
//! tail, replay under the same rule and are rewritten as version 3 by a
//! compaction before the first append.

use std::collections::BTreeMap;
use std::fs::File;
use std::io;
use std::path::Path;
use store::{crc32, RecordLog, SyncPolicy};

/// File name of the ack log inside a leased-queue directory.
pub const LEASE_LOG_FILE: &str = "LEASES.log";

/// Magic bytes opening the log file.
pub const LOG_MAGIC: [u8; 8] = *b"DQLEASE1";

/// Current format version. Version 2 (no preallocated tail) is still read.
pub const LOG_VERSION: u32 = 3;

/// The oldest format version replay accepts.
const OLDEST_LOG_VERSION: u32 = 2;

/// Size of the file header in bytes (magic + version + next lease id +
/// generation + header CRC).
pub const HEADER_LEN: usize = 32;

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
    /// compaction as the snapshot form of a pending entry, so replay treats
    /// it as an upsert (it may appear without a preceding grant).
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
    /// The first id the next life may grant: the header's persisted
    /// high-water mark maxed with `lease id + 1` over the replayed records,
    /// so ids stay monotonic even when compaction retired every record that
    /// witnessed the previous maximum.
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

    /// The live set as compaction records: a GRANT per granted lease, a
    /// PEND per pending one. Replaying them rebuilds `live` exactly.
    fn snapshot(&self) -> Vec<Record> {
        self.live
            .iter()
            .map(|(&id, l)| Record {
                kind: if l.granted {
                    RecordKind::Grant
                } else {
                    RecordKind::Pend
                },
                delivery_count: l.delivery_count,
                lease_id: id,
                item: l.item,
                prev_lease_id: 0,
            })
            .collect()
    }
}

fn header_bytes(next_lease_id: u64, generation: u64) -> [u8; HEADER_LEN] {
    let mut h = [0u8; HEADER_LEN];
    h[0..8].copy_from_slice(&LOG_MAGIC);
    h[8..12].copy_from_slice(&LOG_VERSION.to_le_bytes());
    h[12..20].copy_from_slice(&next_lease_id.to_le_bytes());
    h[20..28].copy_from_slice(&generation.to_le_bytes());
    let crc = crc32(&h[0..28]);
    h[28..32].copy_from_slice(&crc.to_le_bytes());
    h
}

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

/// Zeroes the last record in the log file at `path` (records start at
/// `header_len`) and returns it: the crash that loses an append, written
/// in place the way a mapped log loses it.
#[cfg(test)]
pub(crate) fn zero_last_record(path: &Path, header_len: usize) -> Record {
    let mut bytes = std::fs::read(path).unwrap();
    let used = bytes[header_len..]
        .chunks_exact(RECORD_LEN)
        .take_while(|slot| Record::decode(slot).is_some())
        .count();
    assert!(used > 0, "{}: no record to zero", path.display());
    let at = header_len + (used - 1) * RECORD_LEN;
    let rec = Record::decode(&bytes[at..at + RECORD_LEN]).unwrap();
    bytes[at..at + RECORD_LEN].fill(0);
    std::fs::write(path, &bytes).unwrap();
    rec
}

pub(crate) fn bad_data(path: &Path, msg: String) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("{}: {msg}", path.display()),
    )
}

/// The append-only ack log. All mutation goes through the owning
/// `LeasedQueue`'s lock, so the log itself is single-writer.
#[derive(Debug)]
pub struct AckLog {
    log: RecordLog,
    sync: SyncPolicy,
    /// The log's identity, fixed at create time and preserved by
    /// compaction (see the [module docs](self)).
    generation: u64,
}

/// `fsync`s `path`'s parent directory, making a create or rename durable.
pub(crate) fn sync_parent(path: &Path) -> io::Result<()> {
    match path.parent() {
        Some(dir) => File::open(dir)?.sync_data(),
        None => Ok(()),
    }
}

impl AckLog {
    /// Creates a fresh, empty log at `dir/`[`LEASE_LOG_FILE`], truncating
    /// any previous one. Under [`SyncPolicy::PowerFail`] the header and the
    /// directory entry are fsync'd before returning.
    pub fn create(dir: &Path, sync: SyncPolicy) -> io::Result<AckLog> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(LEASE_LOG_FILE);
        let generation = fresh_generation();
        // Ids start at 1 (0 is the "no previous lease" sentinel), so a
        // fresh log's high-water mark is 1.
        let log = RecordLog::create(&path, sync, &header_bytes(1, generation), RECORD_LEN, &[])?;
        if sync == SyncPolicy::PowerFail {
            sync_parent(&path)?;
        }
        Ok(AckLog {
            log,
            sync,
            generation,
        })
    }

    /// Opens and replays the log at `dir/`[`LEASE_LOG_FILE`], returning the
    /// reconstructed lease state alongside the log (positioned for further
    /// appends). A missing file is not an error — it becomes a fresh log
    /// with an empty replay, so a directory that never leased opens
    /// cleanly. A torn final record is dropped; a corrupt header or
    /// interior damage is refused with an error naming the file. A
    /// version 2 log is rewritten as the current version (an ordinary
    /// compaction of the replayed live set) before this returns.
    pub fn replay(dir: &Path, sync: SyncPolicy) -> io::Result<(AckLog, Replay)> {
        let path = dir.join(LEASE_LOG_FILE);
        let mut log = match RecordLog::open(&path, sync, HEADER_LEN, RECORD_LEN) {
            Ok(log) => log,
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                let log = AckLog::create(dir, sync)?;
                let replay = Replay {
                    next_lease_id: 1,
                    generation: log.generation,
                    ..Replay::default()
                };
                return Ok((log, replay));
            }
            Err(e) => return Err(e),
        };
        let h = log.header();
        if h[0..8] != LOG_MAGIC {
            return Err(bad_data(&path, format!("bad magic {:?}", &h[0..8])));
        }
        let version = u32::from_le_bytes(h[8..12].try_into().unwrap());
        let header_next_id = u64::from_le_bytes(h[12..20].try_into().unwrap());
        let generation = u64::from_le_bytes(h[20..28].try_into().unwrap());
        let stored = u32::from_le_bytes(h[28..32].try_into().unwrap());
        if crc32(&h[0..28]) != stored {
            return Err(bad_data(
                &path,
                format!(
                    "header CRC mismatch (expected {:08x}, found {stored:08x})",
                    crc32(&h[0..28])
                ),
            ));
        }
        if !(OLDEST_LOG_VERSION..=LOG_VERSION).contains(&version) {
            return Err(bad_data(
                &path,
                format!(
                    "unsupported version {version} (this build reads \
                     {OLDEST_LOG_VERSION}..={LOG_VERSION})"
                ),
            ));
        }

        let mut replay = Replay {
            next_lease_id: header_next_id,
            generation,
            ..Replay::default()
        };
        replay.torn_bytes = log.scan(|slot| match Record::decode(slot) {
            Some(rec) => {
                replay.apply(&rec);
                true
            }
            None => false,
        })?;
        log.drop_torn()?;
        let mut log = AckLog {
            log,
            sync,
            generation,
        };
        if version < LOG_VERSION {
            log.compact(replay.next_lease_id, replay.snapshot())?;
        }
        Ok((log, replay))
    }

    /// Appends one record: a copy into the mapped tail, plus an `msync` of
    /// its page under [`SyncPolicy::PowerFail`].
    pub fn append(&mut self, rec: &Record) -> io::Result<()> {
        self.log.append(&rec.encode())
    }

    /// Atomically rewrites the log to contain exactly `live` (the snapshot
    /// form of the current lease state), discarding the retired prefix:
    /// tmp file → fsync → rename → directory fsync, the same discipline as
    /// the shard manifest, so a crash at any point leaves either the old or
    /// the new log.
    ///
    /// `next_lease_id` is the caller's id high-water mark, persisted in the
    /// rewritten header: the snapshot holds only *live* leases, so without
    /// it a snapshot taken after the highest ids settled would lose the
    /// mark and a later replay would hand out already-used ids. The
    /// generation is carried through unchanged — compaction does not change
    /// which log this is.
    pub fn compact(
        &mut self,
        next_lease_id: u64,
        live: impl IntoIterator<Item = Record>,
    ) -> io::Result<()> {
        let path = self.log.path().to_path_buf();
        let tmp = path.with_extension("log.tmp");
        let records: Vec<u8> = live.into_iter().flat_map(|rec| rec.encode()).collect();
        let header = header_bytes(next_lease_id, self.generation);
        let mut log = RecordLog::create(&tmp, self.sync, &header, RECORD_LEN, &records)?;
        log.sync_data()?;
        log.rename(&path)?;
        sync_parent(&path)?;
        self.log = log;
        Ok(())
    }

    /// Records in the file since the last create/compaction.
    pub fn records(&self) -> u64 {
        self.log.records()
    }

    /// The log's generation: its identity, fixed at create time and
    /// preserved by compaction (see the [module docs](self)).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The log file's path.
    pub fn path(&self) -> &Path {
        self.log.path()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    fn terminal(kind: RecordKind, id: u64) -> Record {
        Record {
            kind,
            delivery_count: 0,
            lease_id: id,
            item: 0,
            prev_lease_id: 0,
        }
    }

    #[test]
    fn roundtrip_reconstructs_live_leases() {
        let dir = tmp("roundtrip");
        let mut log = AckLog::create(&dir, SyncPolicy::PowerFail).unwrap();
        log.append(&grant(1, 100, 1, 0)).unwrap();
        log.append(&grant(2, 200, 1, 0)).unwrap();
        log.append(&terminal(RecordKind::Ack, 1)).unwrap();
        // Lease 2 nacked, regranted as 3, then dead-lettered.
        log.append(&Record {
            kind: RecordKind::Pend,
            delivery_count: 2,
            lease_id: 2,
            item: 200,
            prev_lease_id: 0,
        })
        .unwrap();
        log.append(&grant(3, 200, 2, 2)).unwrap();
        log.append(&terminal(RecordKind::Dead, 3)).unwrap();
        log.append(&grant(4, 400, 1, 0)).unwrap();
        drop(log);

        let (log, replay) = AckLog::replay(&dir, SyncPolicy::PowerFail).unwrap();
        assert_eq!(log.records(), 7);
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
        let mut log = AckLog::create(&dir, SyncPolicy::default()).unwrap();
        log.append(&grant(1, 10, 1, 0)).unwrap();
        log.append(&grant(2, 20, 1, 0)).unwrap();
        drop(log);
        // Simulate an append torn mid-record: the third slot holds part of
        // a record, the preallocated tail after it stays zero.
        let path = dir.join(LEASE_LOG_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        let slot = HEADER_LEN + 2 * RECORD_LEN;
        bytes[slot..slot + RECORD_LEN - 7].fill(0xAB);
        std::fs::write(&path, &bytes).unwrap();

        let (mut log, replay) = AckLog::replay(&dir, SyncPolicy::default()).unwrap();
        assert_eq!(replay.records, 2);
        assert_eq!(replay.torn_bytes, (RECORD_LEN - 7) as u64);
        assert_eq!(replay.live.len(), 2);
        // The torn slot was zeroed: a fresh append lands on a record
        // boundary and replays cleanly.
        log.append(&terminal(RecordKind::Ack, 1)).unwrap();
        drop(log);
        let (_, replay) = AckLog::replay(&dir, SyncPolicy::default()).unwrap();
        assert_eq!(replay.records, 3);
        assert_eq!(replay.torn_bytes, 0);
        assert_eq!(replay.live.len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_non_zero_byte_after_the_torn_slot_is_refused_with_the_file_name() {
        // A torn slot followed by zeros is a crash tail; one stray byte
        // further into the preallocated tail means the "tail" may hide
        // acknowledged records, so replay must refuse rather than drop it.
        let dir = tmp("stray");
        let mut log = AckLog::create(&dir, SyncPolicy::default()).unwrap();
        log.append(&grant(1, 10, 1, 0)).unwrap();
        drop(log);
        let path = dir.join(LEASE_LOG_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[HEADER_LEN + RECORD_LEN + 3] = 0x11; // torn second slot
        bytes[HEADER_LEN + 50 * RECORD_LEN] = 0x22; // far into the tail
        std::fs::write(&path, &bytes).unwrap();

        let err = AckLog::replay(&dir, SyncPolicy::default()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let msg = err.to_string();
        assert!(msg.contains(LEASE_LOG_FILE), "{msg}");
        assert!(msg.contains("corrupt record"), "{msg}");
        assert_eq!(
            std::fs::read(&path).unwrap(),
            bytes,
            "a refused log must be left as found"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A version 2 file, byte for byte: the same header and records, but
    /// no preallocated tail — the file ends at its last (here: torn)
    /// record.
    fn v2_log(dir: &Path, next_lease_id: u64, generation: u64, records: &[Record]) {
        let mut h = header_bytes(next_lease_id, generation);
        h[8..12].copy_from_slice(&2u32.to_le_bytes());
        let crc = crc32(&h[0..28]);
        h[28..32].copy_from_slice(&crc.to_le_bytes());
        let mut bytes = h.to_vec();
        for rec in records {
            bytes.extend_from_slice(&rec.encode());
        }
        bytes.extend_from_slice(&[0xEE; RECORD_LEN - 9]);
        std::fs::create_dir_all(dir).unwrap();
        std::fs::write(dir.join(LEASE_LOG_FILE), bytes).unwrap();
    }

    #[test]
    fn a_version_2_log_replays_the_same_live_set_and_takes_appends() {
        let records = [
            grant(1, 100, 1, 0),
            grant(2, 200, 1, 0),
            terminal(RecordKind::Ack, 1),
            Record {
                kind: RecordKind::Pend,
                delivery_count: 2,
                lease_id: 2,
                item: 200,
                prev_lease_id: 0,
            },
            grant(3, 300, 1, 0),
        ];
        // The same records through the current format, for comparison.
        let cur = tmp("v3-reference");
        let mut log = AckLog::create(&cur, SyncPolicy::default()).unwrap();
        for rec in &records {
            log.append(rec).unwrap();
        }
        drop(log);
        let (_, want) = AckLog::replay(&cur, SyncPolicy::default()).unwrap();

        let dir = tmp("v2");
        v2_log(&dir, 7, 0xABCD_0000, &records);
        let (mut log, got) = AckLog::replay(&dir, SyncPolicy::default()).unwrap();
        assert_eq!(got.live, want.live);
        assert_eq!(got.records, 5);
        assert_eq!((got.acked, got.dead), (1, 0));
        assert_eq!(got.torn_bytes, (RECORD_LEN - 9) as u64);
        assert_eq!(got.next_lease_id, 7, "header mark lost");
        assert_eq!(got.generation, 0xABCD_0000);
        // Rewritten as the current version before the first append.
        let bytes = std::fs::read(dir.join(LEASE_LOG_FILE)).unwrap();
        assert_eq!(
            u32::from_le_bytes(bytes[8..12].try_into().unwrap()),
            LOG_VERSION
        );
        assert_eq!(
            log.records(),
            2,
            "compaction keeps one record per live lease"
        );
        assert_eq!(log.generation(), 0xABCD_0000);

        log.append(&terminal(RecordKind::Ack, 3)).unwrap();
        drop(log);
        let (_, again) = AckLog::replay(&dir, SyncPolicy::default()).unwrap();
        assert_eq!(again.live.keys().copied().collect::<Vec<_>>(), vec![2]);
        assert_eq!(again.live[&2], want.live[&2]);
        assert_eq!(again.next_lease_id, 7);
        assert_eq!(again.generation, 0xABCD_0000);
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::remove_dir_all(&cur).unwrap();
    }

    #[test]
    fn interior_corruption_is_refused_with_the_file_name() {
        let dir = tmp("interior");
        let mut log = AckLog::create(&dir, SyncPolicy::default()).unwrap();
        for i in 1..=3 {
            log.append(&grant(i, i * 10, 1, 0)).unwrap();
        }
        drop(log);
        let path = dir.join(LEASE_LOG_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[HEADER_LEN + 5] ^= 0xFF; // first record, not the tail
        std::fs::write(&path, &bytes).unwrap();

        let err = AckLog::replay(&dir, SyncPolicy::default()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let msg = err.to_string();
        assert!(msg.contains(LEASE_LOG_FILE), "{msg}");
        assert!(msg.contains("corrupt record"), "{msg}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn header_damage_is_refused() {
        let dir = tmp("header");
        drop(AckLog::create(&dir, SyncPolicy::default()).unwrap());
        let path = dir.join(LEASE_LOG_FILE);

        let good = std::fs::read(&path).unwrap();
        std::fs::write(&path, &good[..HEADER_LEN - 3]).unwrap();
        let err = AckLog::replay(&dir, SyncPolicy::default()).unwrap_err();
        assert!(err.to_string().contains("truncated header"), "{err}");

        let mut bad = good.clone();
        bad[0] = b'X';
        std::fs::write(&path, &bad).unwrap();
        let err = AckLog::replay(&dir, SyncPolicy::default()).unwrap_err();
        assert!(err.to_string().contains("bad magic"), "{err}");

        let mut bad = good.clone();
        bad[9] ^= 0xFF; // version byte → header CRC mismatch
        std::fs::write(&path, &bad).unwrap();
        let err = AckLog::replay(&dir, SyncPolicy::default()).unwrap_err();
        assert!(err.to_string().contains("header CRC mismatch"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_file_opens_as_a_fresh_log() {
        let dir = tmp("missing");
        let (log, replay) = AckLog::replay(&dir, SyncPolicy::default()).unwrap();
        assert_eq!(log.records(), 0);
        assert!(replay.live.is_empty());
        assert_eq!(replay.next_lease_id, 1);
        assert_eq!(replay.generation, log.generation());
        assert_ne!(replay.generation, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compaction_discards_the_retired_prefix_and_survives_replay() {
        let dir = tmp("compact");
        let mut log = AckLog::create(&dir, SyncPolicy::PowerFail).unwrap();
        for i in 1..=100u64 {
            log.append(&grant(i, i, 1, 0)).unwrap();
            if i <= 98 {
                log.append(&terminal(RecordKind::Ack, i)).unwrap();
            }
        }
        assert_eq!(log.records(), 198);
        log.compact(101, [grant(99, 99, 1, 0), grant(100, 100, 1, 0)])
            .unwrap();
        assert_eq!(log.records(), 2);
        // The compacted log still appends and replays.
        log.append(&terminal(RecordKind::Ack, 99)).unwrap();
        drop(log);
        let (_, replay) = AckLog::replay(&dir, SyncPolicy::PowerFail).unwrap();
        assert_eq!(replay.records, 3);
        assert_eq!(replay.live.len(), 1);
        assert_eq!(replay.live[&100].item, 100);
        assert_eq!(replay.next_lease_id, 101);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_compaction_keeps_the_id_high_water_mark_and_generation() {
        // Regression: when the highest-numbered leases are all settled, the
        // snapshot holds no record witnessing the id maximum — only the
        // header's persisted mark keeps replay from reusing lease ids.
        let dir = tmp("empty-compact");
        let mut log = AckLog::create(&dir, SyncPolicy::default()).unwrap();
        let generation = log.generation();
        for i in 1..=50u64 {
            log.append(&grant(i, i, 1, 0)).unwrap();
            log.append(&terminal(RecordKind::Ack, i)).unwrap();
        }
        log.compact(51, []).unwrap();
        assert_eq!(log.records(), 0);
        assert_eq!(log.generation(), generation);
        drop(log);

        let (log, replay) = AckLog::replay(&dir, SyncPolicy::default()).unwrap();
        assert!(replay.live.is_empty());
        assert_eq!(replay.next_lease_id, 51, "high-water mark lost");
        assert_eq!(replay.generation, generation, "generation changed");
        assert_eq!(log.generation(), generation);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
