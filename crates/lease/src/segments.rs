//! Rotating ack-log segments: every consumer group's ack log.
//!
//! A [`SegmentedLog`] stores the 40-byte CRC'd [`Record`]s of one group in
//! a directory of numbered segment files instead of one file that must
//! periodically be rewritten in full:
//!
//! ```text
//! <log dir>/            # groups/<name>/, or a LeasedQueue's own directory
//!   GROUP.meta          # generation + retirement watermark (atomic rewrite)
//!   segment-0000.log    # sealed (may already be retired/unlinked)
//!   segment-0001.log    # sealed
//!   segment-0002.log    # active (appends go here)
//! ```
//!
//! Rewriting a whole log stops the world: every live lease is
//! re-serialised while the state lock is held. Here the settled prefix
//! simply *ages out*: once the active segment holds `compact_after`
//! records, a fresh segment is created (**rotation**) and appends move
//! there; once a sealed segment no longer holds the latest live record of
//! any lease, it is unlinked (**retirement**). Both are O(1)-ish in the
//! live set — no stall, no full rewrite. Retirement is prefix-only, so a
//! lease held for a long time keeps every later segment on disk until it
//! settles, expires or is nacked (which moves it to the active segment).
//!
//! # Commit points
//!
//! * **Rotation** commits when the new segment's header is durable (written
//!   and, under [`SyncPolicy::PowerFail`], fsync'd along with the
//!   directory). A crash before that leaves the old segment active; a crash
//!   after replays both. A torn header is only ever possible in the
//!   highest-numbered segment and is rolled back (the file is deleted) on
//!   replay.
//! * **Retirement** writes the meta file's `retired_below` watermark
//!   (tmp + rename, like the shard manifest) *before* unlinking the
//!   segment. A crash between the two leaves a segment below the watermark
//!   on disk; replay refuses to read it and completes the unlink instead —
//!   a retired segment can never resurrect settled leases, even if a
//!   backup restores the file.
//!
//! # High-water mark and generation
//!
//! Every segment header snapshots the lease-id high-water mark at its
//! creation, so retiring the segments that witnessed the highest settled
//! ids never loses the mark. The group's **generation** (see
//! [`log`](crate::log)) lives in `GROUP.meta`, is fixed at create time,
//! and every segment header must carry it — a segment from another group
//! (or another life of this group) is refused.
//!
//! # Appends and torn tails
//!
//! Each segment is a [`store::RecordLog`], a mapped record file
//! preallocated in chunks: an append copies the record into the active
//! segment's mapping (no syscall; an `msync` of its page under
//! [`SyncPolicy::PowerFail`]), and replay scans each segment in place.
//! Only the *active* (highest-numbered) segment may end in a torn record,
//! which is zeroed; a torn or corrupt record in a sealed segment, or a
//! non-zero byte after any segment's last record, is real damage and is
//! refused with an error naming the file.
//!
//! Version 1 segments end at their last record instead of a zeroed tail.
//! They replay under the same rules; a version 1 *active* segment is
//! sealed on open by rotating to a fresh current-version segment, so no
//! file ever mixes the two layouts.

use crate::log::{
    bad_data, fresh_generation, sync_parent, IdMap, Record, RecordKind, Replay, LEASE_LOG_FILE,
    RECORD_LEN,
};
use obs::flight::EventKind;
use obs::LazyCounter;
use std::collections::VecDeque;
use std::fs::File;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use store::{crc32, RecordLog, SyncPolicy};

static ROTATIONS: LazyCounter = LazyCounter::new("lease.rotation");
static RETIREMENTS: LazyCounter = LazyCounter::new("lease.retire");

/// File name of the per-group meta file.
pub const GROUP_META_FILE: &str = "GROUP.meta";

/// Magic bytes opening every segment file.
pub const SEGMENT_MAGIC: [u8; 8] = *b"DQSEGMT1";

/// Magic bytes opening the group meta file.
pub const GROUP_META_MAGIC: [u8; 8] = *b"DQGMETA1";

/// Current segment format version. Version 1 (no preallocated tail) is
/// still read.
pub const SEGMENT_VERSION: u32 = 2;

/// The oldest segment format version replay accepts.
const OLDEST_SEGMENT_VERSION: u32 = 1;

/// Current `GROUP.meta` format version.
pub const GROUP_META_VERSION: u32 = 1;

/// Size of a segment file header in bytes (magic + version + seq +
/// id high-water mark + generation + CRC + pad). One record's worth, so
/// every record in the file sits at `HEADER + n × RECORD_LEN`.
pub const SEGMENT_HEADER_LEN: usize = 40;

/// Size of the group meta file in bytes.
pub const GROUP_META_LEN: usize = 32;

/// Default rotation threshold (records per segment).
pub const DEFAULT_ROTATE_RECORDS: u64 = 4096;

pub(crate) fn segment_path(dir: &Path, seq: u32) -> PathBuf {
    dir.join(format!("segment-{seq:04}.log"))
}

/// Parses `segment-NNNN.log` back to `NNNN` (any decimal width ≥ 1, so
/// sequences past 9999 keep working).
fn segment_seq(name: &str) -> Option<u32> {
    let digits = name.strip_prefix("segment-")?.strip_suffix(".log")?;
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// What a log directory holds.
#[derive(Default)]
pub(crate) struct Listing {
    /// Sequence numbers of its segment files, ascending.
    pub(crate) seqs: Vec<u32>,
    /// Whether it also holds an older build's single-file ack log,
    /// [`LEASE_LOG_FILE`].
    pub(crate) legacy: bool,
}

/// Lists `dir` (empty for a missing directory).
pub(crate) fn list_dir(dir: &Path) -> io::Result<Listing> {
    let entries = match std::fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Listing::default()),
        Err(e) => return Err(e),
    };
    let mut listing = Listing::default();
    for entry in entries {
        let name = entry?.file_name();
        let name = name.to_string_lossy();
        if let Some(seq) = segment_seq(&name) {
            listing.seqs.push(seq);
        }
        listing.legacy |= name == LEASE_LOG_FILE;
    }
    listing.seqs.sort_unstable();
    Ok(listing)
}

fn segment_header(seq: u32, next_lease_id: u64, generation: u64) -> [u8; SEGMENT_HEADER_LEN] {
    let mut h = [0u8; SEGMENT_HEADER_LEN];
    h[0..8].copy_from_slice(&SEGMENT_MAGIC);
    h[8..12].copy_from_slice(&SEGMENT_VERSION.to_le_bytes());
    h[12..16].copy_from_slice(&seq.to_le_bytes());
    h[16..24].copy_from_slice(&next_lease_id.to_le_bytes());
    h[24..32].copy_from_slice(&generation.to_le_bytes());
    let crc = crc32(&h[0..32]);
    h[32..36].copy_from_slice(&crc.to_le_bytes());
    // h[36..40] stays zero (pad).
    h
}

fn meta_bytes(retired_below: u32, generation: u64) -> [u8; GROUP_META_LEN] {
    let mut m = [0u8; GROUP_META_LEN];
    m[0..8].copy_from_slice(&GROUP_META_MAGIC);
    m[8..12].copy_from_slice(&GROUP_META_VERSION.to_le_bytes());
    m[12..16].copy_from_slice(&retired_below.to_le_bytes());
    m[16..24].copy_from_slice(&generation.to_le_bytes());
    let crc = crc32(&m[0..24]);
    m[24..28].copy_from_slice(&crc.to_le_bytes());
    // m[28..32] stays zero (pad).
    m
}

/// Atomically (re)writes `GROUP.meta`: tmp → fsync → rename → dir fsync
/// under the power-fail tier, plain rename under process-crash (the page
/// cache survives the process either way).
fn write_meta(dir: &Path, retired_below: u32, generation: u64, sync: SyncPolicy) -> io::Result<()> {
    let tmp = dir.join("GROUP.meta.tmp");
    let mut f = File::create(&tmp)?;
    f.write_all(&meta_bytes(retired_below, generation))?;
    if sync == SyncPolicy::PowerFail {
        f.sync_data()?;
    }
    std::fs::rename(&tmp, dir.join(GROUP_META_FILE))?;
    if sync == SyncPolicy::PowerFail {
        File::open(dir)?.sync_data()?;
    }
    Ok(())
}

struct Meta {
    retired_below: u32,
    generation: u64,
}

fn read_meta(dir: &Path) -> io::Result<Option<Meta>> {
    let path = dir.join(GROUP_META_FILE);
    let bytes = match std::fs::read(&path) {
        Ok(b) => b,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    if bytes.len() < GROUP_META_LEN - 4 {
        // The trailing pad may legitimately be missing from a hand-rolled
        // file, but anything shorter than magic..crc is damage.
        return Err(bad_data(
            &path,
            format!("truncated meta ({} of {GROUP_META_LEN} bytes)", bytes.len()),
        ));
    }
    if bytes[0..8] != GROUP_META_MAGIC {
        return Err(bad_data(&path, format!("bad magic {:?}", &bytes[0..8])));
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    if version != GROUP_META_VERSION {
        return Err(bad_data(
            &path,
            format!("unsupported version {version} (this build reads {GROUP_META_VERSION})"),
        ));
    }
    let stored = u32::from_le_bytes(bytes[24..28].try_into().unwrap());
    if crc32(&bytes[0..24]) != stored {
        return Err(bad_data(
            &path,
            format!(
                "meta CRC mismatch (expected {:08x}, found {stored:08x})",
                crc32(&bytes[0..24])
            ),
        ));
    }
    Ok(Some(Meta {
        retired_below: u32::from_le_bytes(bytes[12..16].try_into().unwrap()),
        generation: u64::from_le_bytes(bytes[16..24].try_into().unwrap()),
    }))
}

/// Which segment holds each live lease's latest live record, and how many
/// live leases each surviving segment holds: a sealed segment holding none
/// can retire. Appends and replay track records through the same rules.
#[derive(Debug)]
struct Residency {
    /// Live lease → seq of the segment holding its latest live record.
    resident: IdMap<u32>,
    /// Seq of the oldest surviving segment, whose count is `live[0]`.
    first_seq: u32,
    /// Live leases per surviving segment, oldest first: one entry per
    /// segment file.
    live: VecDeque<u64>,
}

impl Residency {
    fn new(first_seq: u32) -> Self {
        Residency {
            resident: IdMap::default(),
            first_seq,
            live: VecDeque::new(),
        }
    }

    /// Starts counting the next segment (seq `first_seq + live.len()`).
    fn open_segment(&mut self) {
        self.live.push_back(0);
    }

    /// Folds in `rec`, just written to segment `seq`.
    fn track(&mut self, rec: &Record, seq: u32) {
        match rec.kind {
            RecordKind::Grant => {
                if rec.prev_lease_id != 0 {
                    self.settle(rec.prev_lease_id);
                }
                self.place(rec.lease_id, seq);
            }
            RecordKind::Pend => self.place(rec.lease_id, seq),
            RecordKind::Ack | RecordKind::Dead => self.settle(rec.lease_id),
        }
    }

    fn place(&mut self, lease_id: u64, seq: u32) {
        if let Some(old) = self.resident.insert(lease_id, seq) {
            self.live[(old - self.first_seq) as usize] -= 1;
        }
        self.live[(seq - self.first_seq) as usize] += 1;
    }

    fn settle(&mut self, lease_id: u64) {
        if let Some(seq) = self.resident.remove(&lease_id) {
            self.live[(seq - self.first_seq) as usize] -= 1;
        }
    }
}

/// What replaying a segment directory reconstructed: the lease-state
/// [`Replay`] plus segment accounting.
#[derive(Clone, Debug, Default)]
pub struct GroupReplay {
    /// The lease-state reconstruction.
    pub replay: Replay,
    /// Segment files present after replay (retirement roll-forward
    /// included).
    pub segments: u32,
    /// Files found below the retirement watermark and deleted on open —
    /// the roll-forward of an interrupted retirement, or the refusal of a
    /// restored already-retired segment.
    pub retired_leftovers: u32,
}

/// An append-only ack log spread over rotating segment files. Single-writer:
/// all mutation goes through the owning group's lock.
#[derive(Debug)]
pub struct SegmentedLog {
    dir: PathBuf,
    sync: SyncPolicy,
    /// Rotate once the active segment holds this many records (`0` =
    /// never rotate; the log degenerates to a single ever-growing segment).
    compact_after: u64,
    generation: u64,
    retired_below: u32,
    active_seq: u32,
    active: RecordLog,
    /// Valid records replayed at open plus records appended since
    /// (retirement does not subtract).
    records: u64,
    residency: Residency,
    /// Rotations performed since open.
    rotations: u64,
    /// Segments retired (unlinked) since open.
    retired: u64,
    /// Test knob: when `false`, retirement never runs on the append path,
    /// leaving the crash window between rotation and retirement on disk.
    auto_retire: bool,
}

impl SegmentedLog {
    /// Creates a fresh segmented log in `dir`: a new generation in
    /// `GROUP.meta` and an empty `segment-0000.log`. Segment files of a
    /// previous log in `dir`, and an older build's [`LEASE_LOG_FILE`], are
    /// deleted first.
    pub fn create(dir: &Path, sync: SyncPolicy, compact_after: u64) -> io::Result<SegmentedLog> {
        std::fs::create_dir_all(dir)?;
        let old = list_dir(dir)?;
        for seq in old.seqs {
            std::fs::remove_file(segment_path(dir, seq))?;
        }
        if old.legacy {
            std::fs::remove_file(dir.join(LEASE_LOG_FILE))?;
        }
        let generation = fresh_generation();
        write_meta(dir, 0, generation, sync)?;
        Self::fresh(dir, sync, compact_after, generation)
    }

    /// An empty log of `generation` whose only segment is a new
    /// `segment-0000.log`.
    fn fresh(
        dir: &Path,
        sync: SyncPolicy,
        compact_after: u64,
        generation: u64,
    ) -> io::Result<SegmentedLog> {
        let active = Self::new_segment(dir, 0, 1, generation, sync)?;
        let mut residency = Residency::new(0);
        residency.open_segment();
        Ok(SegmentedLog {
            dir: dir.to_path_buf(),
            sync,
            compact_after,
            generation,
            retired_below: 0,
            active_seq: 0,
            active,
            records: 0,
            residency,
            rotations: 0,
            retired: 0,
            auto_retire: true,
        })
    }

    fn new_segment(
        dir: &Path,
        seq: u32,
        next_lease_id: u64,
        generation: u64,
        sync: SyncPolicy,
    ) -> io::Result<RecordLog> {
        let path = segment_path(dir, seq);
        let header = segment_header(seq, next_lease_id, generation);
        // Under the power-fail tier `create` fdatasyncs the header: with
        // the directory entry below, that durable header *is* the
        // rotation commit point.
        let log = RecordLog::create(&path, sync, &header, RECORD_LEN, &[])?;
        if sync == SyncPolicy::PowerFail {
            sync_parent(&path)?;
        }
        Ok(log)
    }

    /// Opens and replays the segment directory. A missing directory (or a
    /// directory with neither meta nor segments) becomes a fresh log.
    /// Files below the meta's retirement watermark are deleted (see the
    /// [module docs](self)); a torn header or torn tail in the
    /// highest-numbered segment is rolled back or chopped; any damage in a
    /// sealed segment is refused with an error naming the file.
    ///
    /// A directory holding an older build's single-file
    /// [`LEASE_LOG_FILE`] is refused with `InvalidData`, before anything
    /// in it changes: that file is the only record of its unacked leases,
    /// whose items were already popped from the base queue.
    pub fn replay(
        dir: &Path,
        sync: SyncPolicy,
        compact_after: u64,
    ) -> io::Result<(SegmentedLog, GroupReplay)> {
        let meta = read_meta(dir)?;
        let Listing { mut seqs, legacy } = list_dir(dir)?;
        if legacy {
            return Err(bad_data(
                &dir.join(LEASE_LOG_FILE),
                "single-file ack log written by an older build, which this build does not \
                 read; drain the deployment with that build (its unacked leases exist only \
                 in this file) before opening it here"
                    .into(),
            ));
        }
        let Some(meta) = meta else {
            if seqs.is_empty() {
                let log = SegmentedLog::create(dir, sync, compact_after)?;
                let replay = GroupReplay {
                    replay: Replay {
                        next_lease_id: 1,
                        generation: log.generation,
                        ..Replay::default()
                    },
                    segments: 1,
                    retired_leftovers: 0,
                };
                return Ok((log, replay));
            }
            return Err(bad_data(
                &dir.join(GROUP_META_FILE),
                "segment files without GROUP.meta (the generation authority is gone)".into(),
            ));
        };

        // Roll forward interrupted retirements and refuse restored retired
        // segments: anything below the watermark was durably declared
        // settled and must not be replayed.
        let below = seqs.partition_point(|&seq| seq < meta.retired_below);
        for seq in seqs.drain(..below) {
            std::fs::remove_file(segment_path(dir, seq))?;
        }
        let retired_leftovers = below as u32;

        if seqs.is_empty() {
            if meta.retired_below != 0 {
                // Retirement never touches the active segment, so a log
                // that ever retired must still have one.
                return Err(bad_data(
                    dir,
                    format!(
                        "no segments at or above the retirement watermark {}",
                        meta.retired_below
                    ),
                ));
            }
            // Crash between meta creation and segment-0 creation: finish
            // the create with the durable generation.
            let log = Self::fresh(dir, sync, compact_after, meta.generation)?;
            let replay = GroupReplay {
                replay: Replay {
                    next_lease_id: 1,
                    generation: meta.generation,
                    ..Replay::default()
                },
                segments: 1,
                retired_leftovers,
            };
            return Ok((log, replay));
        }

        // Prefix retirement + unit-increment rotation ⇒ surviving seqs are
        // contiguous; a gap means a sealed segment vanished.
        for pair in seqs.windows(2) {
            if pair[1] != pair[0] + 1 {
                return Err(bad_data(
                    dir,
                    format!(
                        "segment sequence gap: segment-{:04}.log is followed by \
                         segment-{:04}.log",
                        pair[0], pair[1]
                    ),
                ));
            }
        }

        let mut replay = Replay {
            next_lease_id: 1,
            generation: meta.generation,
            ..Replay::default()
        };
        let mut residency = Residency::new(seqs[0]);
        let last_seq = *seqs.last().unwrap();
        // The newest segment that opened with a valid header, and its
        // format version: the active segment once the loop ends.
        let mut newest: Option<(u32, RecordLog, u32)> = None;
        for &seq in &seqs {
            let path = segment_path(dir, seq);
            let seg = match RecordLog::open(&path, sync, SEGMENT_HEADER_LEN, RECORD_LEN) {
                Ok(seg) => Some(seg),
                // Shorter than a header.
                Err(e) if e.kind() == io::ErrorKind::InvalidData => None,
                Err(e) => return Err(e),
            };
            let header_ok = seg.as_ref().is_some_and(|seg| {
                let h = seg.header();
                let stored = u32::from_le_bytes(h[32..36].try_into().unwrap());
                h[0..8] == SEGMENT_MAGIC && crc32(&h[0..32]) == stored
            });
            let Some(mut seg) = seg.filter(|_| header_ok) else {
                if seq == last_seq && seq != meta.retired_below {
                    // A torn header can only be the newest segment's — an
                    // incomplete rotation, which by the commit-point rule
                    // never happened. Roll it back; the previous segment
                    // is still the active one. (The lone segment of a
                    // never-rotated log has no predecessor to fall back
                    // to, so damage there is refused like any sealed
                    // segment.)
                    std::fs::remove_file(&path)?;
                    break;
                }
                return Err(bad_data(
                    &path,
                    "corrupt segment header (not the newest segment; refusing)".into(),
                ));
            };
            let h = seg.header();
            let version = u32::from_le_bytes(h[8..12].try_into().unwrap());
            if !(OLDEST_SEGMENT_VERSION..=SEGMENT_VERSION).contains(&version) {
                return Err(bad_data(
                    &path,
                    format!(
                        "unsupported version {version} (this build reads \
                         {OLDEST_SEGMENT_VERSION}..={SEGMENT_VERSION})"
                    ),
                ));
            }
            let header_seq = u32::from_le_bytes(h[12..16].try_into().unwrap());
            if header_seq != seq {
                return Err(bad_data(
                    &path,
                    format!("header seq {header_seq} does not match the file name"),
                ));
            }
            let header_next_id = u64::from_le_bytes(h[16..24].try_into().unwrap());
            let header_generation = u64::from_le_bytes(h[24..32].try_into().unwrap());
            if header_generation != meta.generation {
                return Err(bad_data(
                    &path,
                    format!(
                        "generation {header_generation:#x} does not match GROUP.meta \
                         ({:#x}); this segment belongs to another log",
                        meta.generation
                    ),
                ));
            }
            replay.next_lease_id = replay.next_lease_id.max(header_next_id);

            residency.open_segment();
            let torn = seg.scan(|slot| {
                let Some(rec) = Record::decode(slot) else {
                    return false;
                };
                replay.apply(&rec);
                residency.track(&rec, seq);
                true
            })?;
            if torn > 0 {
                if seq != last_seq {
                    return Err(bad_data(
                        &path,
                        format!("torn record of {torn} bytes inside a sealed segment"),
                    ));
                }
                replay.torn_bytes += torn;
                seg.drop_torn()?;
            }
            newest = Some((seq, seg, version));
        }

        let Some((active_seq, active, active_version)) = newest else {
            // The lone surviving segment had a torn header.
            return Err(bad_data(
                dir,
                format!(
                    "no segment with a valid header at or above the retirement watermark {}",
                    meta.retired_below
                ),
            ));
        };
        let records = replay.records;
        let log_next_id = replay.next_lease_id;
        let mut log = SegmentedLog {
            dir: dir.to_path_buf(),
            sync,
            compact_after,
            generation: meta.generation,
            retired_below: meta.retired_below,
            active_seq,
            active,
            records,
            residency,
            rotations: 0,
            retired: 0,
            auto_retire: true,
        };
        if active_version < SEGMENT_VERSION {
            // Seal an older-layout active segment: appends only ever land
            // in current-version files.
            log.rotate(log_next_id)?;
        }
        // A crash between rotation and retirement leaves fully-settled
        // sealed segments behind; finish their retirement now.
        log.retire_prefix()?;
        let segments = log.segments();
        Ok((
            log,
            GroupReplay {
                replay,
                segments,
                retired_leftovers,
            },
        ))
    }

    /// Appends one record and runs the rotation/retirement maintenance.
    /// `next_lease_id` is the caller's current id high-water mark — a
    /// rotation triggered by this append snapshots it into the fresh
    /// segment's header.
    ///
    /// Rotation is lazy: a full active segment is sealed when the *next*
    /// record arrives, not when the last one lands, so an idle log never
    /// carries an empty trailing segment.
    pub fn append(&mut self, rec: &Record, next_lease_id: u64) -> io::Result<()> {
        if self.compact_after > 0 && self.active.records() >= self.compact_after {
            self.rotate(next_lease_id)?;
        }
        self.active.append(&rec.encode())?;
        self.records += 1;
        self.residency.track(rec, self.active_seq);
        if self.auto_retire {
            self.retire_prefix()?;
        }
        Ok(())
    }

    /// Seals the active segment and opens the next one. The new header
    /// carries the caller's id high-water mark, so the mark survives even
    /// if every record witnessing it retires with the old segments.
    fn rotate(&mut self, next_lease_id: u64) -> io::Result<()> {
        let new_seq = self.active_seq + 1;
        self.active = Self::new_segment(
            &self.dir,
            new_seq,
            next_lease_id,
            self.generation,
            self.sync,
        )?;
        self.active_seq = new_seq;
        let sealed_live = self.residency.live.iter().sum();
        self.residency.open_segment();
        self.rotations += 1;
        ROTATIONS.incr();
        obs::flight::record(EventKind::LeaseSegmentRotate, new_seq as u64, sealed_live);
        Ok(())
    }

    /// Unlinks every leading sealed segment with no resident live leases:
    /// watermark first (durable), file second, so a crash in between is
    /// rolled forward by the next replay rather than resurrecting settled
    /// leases.
    fn retire_prefix(&mut self) -> io::Result<()> {
        while self.residency.first_seq < self.active_seq && self.residency.live[0] == 0 {
            let seq = self.residency.first_seq;
            write_meta(&self.dir, seq + 1, self.generation, self.sync)?;
            self.retired_below = seq + 1;
            std::fs::remove_file(segment_path(&self.dir, seq))?;
            self.residency.live.pop_front();
            self.residency.first_seq += 1;
            self.retired += 1;
            RETIREMENTS.incr();
            obs::flight::record(EventKind::LeaseSegmentRetire, seq as u64, 0);
        }
        Ok(())
    }

    /// The log's generation (fixed at create, carried by every segment).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Valid records replayed at open plus records appended since
    /// (retirement does not subtract).
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Segment files currently on disk.
    pub fn segments(&self) -> u32 {
        self.residency.live.len() as u32
    }

    /// The active (append-target) segment's sequence number.
    pub fn active_seq(&self) -> u32 {
        self.active_seq
    }

    /// All segments below this sequence number are durably retired.
    pub fn retired_below(&self) -> u32 {
        self.retired_below
    }

    /// Rotations performed since open.
    pub fn rotations(&self) -> u64 {
        self.rotations
    }

    /// Segments retired (unlinked) since open.
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// The segment directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    #[cfg(test)]
    fn disable_auto_retire(&mut self) {
        self.auto_retire = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("lease-seg-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
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

    fn ack(id: u64) -> Record {
        Record {
            kind: RecordKind::Ack,
            delivery_count: 0,
            lease_id: id,
            item: 0,
            prev_lease_id: 0,
        }
    }

    #[test]
    fn roundtrip_across_rotation_reconstructs_live_leases() {
        let dir = tmp("roundtrip");
        let mut log = SegmentedLog::create(&dir, SyncPolicy::PowerFail, 4).unwrap();
        let mut next = 1u64;
        for i in 1..=6u64 {
            log.append(&grant(i, i * 10, 1, 0), next).unwrap();
            next = i + 1;
        }
        // 6 grants at compact_after = 4 → at least one rotation.
        assert!(log.rotations() >= 1);
        log.append(&ack(1), next).unwrap();
        log.append(&ack(3), next).unwrap();
        drop(log);

        let (log, gr) = SegmentedLog::replay(&dir, SyncPolicy::PowerFail, 4).unwrap();
        assert_eq!(gr.replay.records, 8);
        assert_eq!(gr.replay.acked, 2);
        assert_eq!(gr.replay.next_lease_id, 7);
        assert_eq!(gr.replay.torn_bytes, 0);
        let live: Vec<u64> = gr.replay.live.keys().copied().collect();
        assert_eq!(live, vec![2, 4, 5, 6]);
        assert!(log.segments() >= 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fully_settled_segments_retire_and_never_resurrect() {
        let dir = tmp("retire");
        let mut log = SegmentedLog::create(&dir, SyncPolicy::default(), 4).unwrap();
        let mut next = 1u64;
        for i in 1..=20u64 {
            log.append(&grant(i, i, 1, 0), next).unwrap();
            next = i + 1;
            log.append(&ack(i), next).unwrap();
        }
        assert!(log.retired() >= 1, "no segment ever retired");
        assert!(log.segments() <= 2, "settled segments piled up");
        assert!(log.retired_below() >= 1);
        drop(log);

        let (_, gr) = SegmentedLog::replay(&dir, SyncPolicy::default(), 4).unwrap();
        assert!(gr.replay.live.is_empty(), "settled lease resurrected");
        assert_eq!(gr.replay.next_lease_id, 21, "high-water mark lost");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn hwm_survives_retirement_of_every_witnessing_record() {
        // The high-water-mark regression family, segment edition: settle
        // the highest-numbered leases, let every segment that witnessed
        // them retire, and require replay not to reuse their ids. The mark
        // rides each rotation's fresh header.
        let dir = tmp("hwm");
        let mut log = SegmentedLog::create(&dir, SyncPolicy::default(), 2).unwrap();
        let mut next = 1u64;
        for i in 1..=9u64 {
            log.append(&grant(i, i, 1, 0), next).unwrap();
            next = i + 1;
            log.append(&ack(i), next).unwrap();
        }
        assert!(log.retired() >= 3);
        drop(log);
        let (_, gr) = SegmentedLog::replay(&dir, SyncPolicy::default(), 2).unwrap();
        assert_eq!(gr.replay.next_lease_id, 10, "retirement lost the id mark");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn generation_is_continuous_across_rotation_and_replay() {
        let dir = tmp("generation");
        let mut log = SegmentedLog::create(&dir, SyncPolicy::default(), 2).unwrap();
        let generation = log.generation();
        assert_ne!(generation, 0);
        let mut next = 1u64;
        for i in 1..=7u64 {
            log.append(&grant(i, i, 1, 0), next).unwrap();
            next = i + 1;
        }
        assert!(log.rotations() >= 3);
        assert_eq!(
            log.generation(),
            generation,
            "rotation changed the generation"
        );
        drop(log);
        let (log, gr) = SegmentedLog::replay(&dir, SyncPolicy::default(), 2).unwrap();
        assert_eq!(gr.replay.generation, generation);
        assert_eq!(log.generation(), generation);
        // Every surviving segment header carries it.
        for seq in log.retired_below()..=log.active_seq() {
            let bytes = std::fs::read(segment_path(&dir, seq)).unwrap();
            let g = u64::from_le_bytes(bytes[24..32].try_into().unwrap());
            assert_eq!(g, generation, "segment {seq} carries a foreign generation");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn foreign_generation_segment_is_refused() {
        let dir = tmp("foreign");
        let mut log = SegmentedLog::create(&dir, SyncPolicy::default(), 4).unwrap();
        log.append(&grant(1, 1, 1, 0), 2).unwrap();
        let generation = log.generation();
        drop(log);
        // Rewrite segment 0's header with a different generation (CRC
        // fixed up, so only the generation check can catch it).
        let path = segment_path(&dir, 0);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[..SEGMENT_HEADER_LEN].copy_from_slice(&segment_header(0, 1, generation + 1));
        std::fs::write(&path, &bytes).unwrap();
        let err = SegmentedLog::replay(&dir, SyncPolicy::default(), 4).unwrap_err();
        assert!(err.to_string().contains("another log"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_in_the_active_segment_is_chopped_after_a_boundary() {
        // "Torn final record at a segment boundary": rotation just sealed
        // segment N; the very first append into segment N+1 tears. Replay
        // must chop the torn record, keep both segments, and leave the log
        // appendable.
        let dir = tmp("torn-active");
        let mut log = SegmentedLog::create(&dir, SyncPolicy::default(), 2).unwrap();
        log.append(&grant(1, 10, 1, 0), 2).unwrap();
        log.append(&grant(2, 20, 1, 0), 3).unwrap(); // segment 0 now full
        log.append(&grant(3, 30, 1, 0), 4).unwrap(); // lazy rotation → segment 1
        assert_eq!(log.active_seq(), 1);
        let active = segment_path(&dir, 1);
        drop(log);
        // Segment 1 holds one record; tear the slot after it in place.
        let mut bytes = std::fs::read(&active).unwrap();
        let slot = SEGMENT_HEADER_LEN + RECORD_LEN;
        bytes[slot..slot + RECORD_LEN - 5].fill(0xAB);
        std::fs::write(&active, &bytes).unwrap();

        let (mut log, gr) = SegmentedLog::replay(&dir, SyncPolicy::default(), 2).unwrap();
        assert_eq!(gr.replay.records, 3);
        assert_eq!(gr.replay.torn_bytes, (RECORD_LEN - 5) as u64);
        assert_eq!(gr.replay.live.len(), 3);
        // Zeroing the torn slot leaves the next append on a record
        // boundary.
        log.append(&ack(1), 4).unwrap();
        drop(log);
        let (_, gr) = SegmentedLog::replay(&dir, SyncPolicy::default(), 2).unwrap();
        assert_eq!(gr.replay.records, 4);
        assert_eq!(gr.replay.torn_bytes, 0);
        assert_eq!(gr.replay.live.len(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_in_a_sealed_segment_is_refused() {
        // A sealed segment was fsync-complete when its successor's header
        // committed; a short record there is damage, not a mid-append
        // crash, and silently chopping it could drop a settled ack.
        let dir = tmp("torn-sealed");
        let mut log = SegmentedLog::create(&dir, SyncPolicy::default(), 2).unwrap();
        log.append(&grant(1, 10, 1, 0), 2).unwrap();
        log.append(&grant(2, 20, 1, 0), 3).unwrap(); // rotation → segment 1
        log.append(&grant(3, 30, 1, 0), 4).unwrap();
        assert_eq!(log.active_seq(), 1);
        drop(log);
        // Tear segment 0's last record in place: its final 7 bytes are
        // lost, the way a crash mid-append would leave the tail slot.
        let sealed = segment_path(&dir, 0);
        let mut bytes = std::fs::read(&sealed).unwrap();
        let end = SEGMENT_HEADER_LEN + 2 * RECORD_LEN;
        bytes[end - 7..end].fill(0);
        std::fs::write(&sealed, &bytes).unwrap();
        let err = SegmentedLog::replay(&dir, SyncPolicy::default(), 2).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let msg = err.to_string();
        assert!(msg.contains("segment-0000.log"), "{msg}");
        assert!(msg.contains("sealed"), "{msg}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crash_between_rotation_and_retirement_rolls_forward_on_replay() {
        // Settle everything in segment 0 *after* rotating away from it,
        // with auto-retirement disabled to freeze the crash window: the
        // sealed segment is fully settled but still on disk, and the
        // watermark still reads 0. Replay must finish the retirement.
        let dir = tmp("rot-retire-window");
        let mut log = SegmentedLog::create(&dir, SyncPolicy::default(), 2).unwrap();
        log.disable_auto_retire();
        log.append(&grant(1, 10, 1, 0), 2).unwrap();
        log.append(&grant(2, 20, 1, 0), 3).unwrap(); // segment 0 now full
        log.append(&ack(1), 3).unwrap(); // lazy rotation → segment 1
        log.append(&ack(2), 3).unwrap();
        assert_eq!(log.active_seq(), 1);
        assert_eq!(log.retired(), 0, "auto-retire knob failed");
        assert!(segment_path(&dir, 0).exists());
        drop(log); // the "crash"

        let (log, gr) = SegmentedLog::replay(&dir, SyncPolicy::default(), 2).unwrap();
        assert!(gr.replay.live.is_empty());
        assert!(
            !segment_path(&dir, 0).exists(),
            "fully-settled sealed segment survived replay"
        );
        assert_eq!(log.retired_below(), 1);
        assert_eq!(gr.segments, 1);
        assert_eq!(gr.replay.next_lease_id, 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crash_between_watermark_and_unlink_deletes_the_leftover() {
        // The other half of the retirement window: the meta write landed
        // but the unlink did not. The file sits below the watermark;
        // replay must delete it without reading a single record from it.
        let dir = tmp("watermark-window");
        let mut log = SegmentedLog::create(&dir, SyncPolicy::default(), 1).unwrap();
        log.append(&grant(1, 10, 1, 0), 2).unwrap();
        log.append(&grant(2, 20, 1, 0), 3).unwrap(); // rotation → segment 1
        let seg0 = std::fs::read(segment_path(&dir, 0)).unwrap();
        log.append(&ack(1), 3).unwrap(); // segment 0 now settled → retired
        assert_eq!(log.retired_below(), 1);
        drop(log);
        // Resurrect the retired file, as a crash-between (or a careless
        // backup restore) would.
        std::fs::write(segment_path(&dir, 0), &seg0).unwrap();

        let (_, gr) = SegmentedLog::replay(&dir, SyncPolicy::default(), 1).unwrap();
        assert_eq!(gr.retired_leftovers, 1);
        assert!(
            !segment_path(&dir, 0).exists(),
            "retired segment not deleted"
        );
        // Lease 1's ack retired with segment 0 — the leftover must not
        // have resurrected the lease.
        assert_eq!(
            gr.replay.live.keys().copied().collect::<Vec<_>>(),
            vec![2],
            "retired segment was replayed"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_rotation_header_rolls_back_to_the_previous_segment() {
        let dir = tmp("torn-header");
        let mut log = SegmentedLog::create(&dir, SyncPolicy::default(), 0).unwrap();
        log.append(&grant(1, 10, 1, 0), 2).unwrap();
        drop(log);
        // A rotation that died mid-header-write: a short garbage file at
        // the next seq.
        std::fs::write(segment_path(&dir, 1), [0xCD; 11]).unwrap();

        let (mut log, gr) = SegmentedLog::replay(&dir, SyncPolicy::default(), 0).unwrap();
        assert_eq!(
            log.active_seq(),
            0,
            "rolled-back rotation left seq 1 active"
        );
        assert!(!segment_path(&dir, 1).exists());
        assert_eq!(gr.replay.live.len(), 1);
        log.append(&ack(1), 2).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sequence_gap_is_refused() {
        let dir = tmp("gap");
        let mut log = SegmentedLog::create(&dir, SyncPolicy::default(), 1).unwrap();
        log.disable_auto_retire();
        for i in 1..=4u64 {
            log.append(&grant(i, i, 1, 0), i + 1).unwrap();
        }
        assert!(log.active_seq() >= 3);
        drop(log);
        std::fs::remove_file(segment_path(&dir, 1)).unwrap();
        let err = SegmentedLog::replay(&dir, SyncPolicy::default(), 1).unwrap_err();
        assert!(err.to_string().contains("sequence gap"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_directory_opens_fresh_and_meta_damage_is_refused() {
        let dir = tmp("fresh");
        let (log, gr) = SegmentedLog::replay(&dir, SyncPolicy::default(), 8).unwrap();
        assert_eq!(gr.replay.next_lease_id, 1);
        assert_eq!(gr.segments, 1);
        assert_ne!(log.generation(), 0);
        drop(log);

        let meta = dir.join(GROUP_META_FILE);
        let good = std::fs::read(&meta).unwrap();
        let mut bad = good.clone();
        bad[13] ^= 0xFF; // retired_below byte → CRC mismatch
        std::fs::write(&meta, &bad).unwrap();
        let err = SegmentedLog::replay(&dir, SyncPolicy::default(), 8).unwrap_err();
        assert!(err.to_string().contains("meta CRC mismatch"), "{err}");

        std::fs::remove_file(&meta).unwrap();
        let err = SegmentedLog::replay(&dir, SyncPolicy::default(), 8).unwrap_err();
        assert!(err.to_string().contains("without GROUP.meta"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A version 1 segment, byte for byte: header and records with no
    /// preallocated tail.
    fn v1_segment(dir: &Path, seq: u32, next_lease_id: u64, generation: u64, records: &[Record]) {
        let mut bytes = segment_header(seq, next_lease_id, generation).to_vec();
        bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
        let crc = crc32(&bytes[0..32]);
        bytes[32..36].copy_from_slice(&crc.to_le_bytes());
        for rec in records {
            bytes.extend_from_slice(&rec.encode());
        }
        std::fs::write(segment_path(dir, seq), bytes).unwrap();
    }

    #[test]
    fn a_version_1_directory_replays_the_same_live_set_and_takes_appends() {
        let sealed = [grant(1, 10, 1, 0), grant(2, 20, 1, 0), ack(1)];
        let active = [
            grant(3, 30, 1, 0),
            Record {
                kind: RecordKind::Pend,
                delivery_count: 2,
                lease_id: 2,
                item: 20,
                prev_lease_id: 0,
            },
        ];
        // The same records through the current format, for comparison.
        let cur = tmp("v2-reference");
        let mut log = SegmentedLog::create(&cur, SyncPolicy::default(), 3).unwrap();
        for (i, rec) in sealed.iter().chain(&active).enumerate() {
            log.append(rec, i as u64 + 2).unwrap();
        }
        drop(log);
        let (_, want) = SegmentedLog::replay(&cur, SyncPolicy::default(), 3).unwrap();

        let dir = tmp("v1");
        std::fs::create_dir_all(&dir).unwrap();
        let generation = 0x5EED_0000;
        std::fs::write(dir.join(GROUP_META_FILE), meta_bytes(0, generation)).unwrap();
        v1_segment(&dir, 0, 1, generation, &sealed);
        v1_segment(&dir, 1, 3, generation, &active);
        // A torn final record in the active segment, as version 1 left it.
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(segment_path(&dir, 1))
            .unwrap();
        f.write_all(&[0xAB; RECORD_LEN - 5]).unwrap();
        drop(f);

        let (mut log, gr) = SegmentedLog::replay(&dir, SyncPolicy::default(), 3).unwrap();
        assert_eq!(gr.replay.live, want.replay.live);
        assert_eq!(gr.replay.records, 5);
        assert_eq!(gr.replay.acked, 1);
        assert_eq!(gr.replay.torn_bytes, (RECORD_LEN - 5) as u64);
        assert_eq!(gr.replay.next_lease_id, 4);
        assert_eq!(gr.replay.generation, generation);
        // The version 1 active segment was sealed by a rotation, and the
        // fully settled segment 0 retired.
        assert_eq!(log.active_seq(), 2);
        let fresh = std::fs::read(segment_path(&dir, 2)).unwrap();
        assert_eq!(
            u32::from_le_bytes(fresh[8..12].try_into().unwrap()),
            SEGMENT_VERSION
        );
        assert!(!segment_path(&dir, 0).exists(), "settled segment kept");

        log.append(&ack(3), 4).unwrap();
        drop(log);
        let (_, gr) = SegmentedLog::replay(&dir, SyncPolicy::default(), 3).unwrap();
        assert_eq!(gr.replay.live.keys().copied().collect::<Vec<_>>(), vec![2]);
        assert_eq!(gr.replay.live[&2], want.replay.live[&2]);
        assert_eq!(gr.replay.torn_bytes, 0);
        assert_eq!(gr.replay.next_lease_id, 4);
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::remove_dir_all(&cur).unwrap();
    }
}
