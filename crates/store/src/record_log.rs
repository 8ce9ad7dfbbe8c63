//! An append-only log of fixed-size records in a shared file mapping.
//!
//! A [`RecordLog`] is a file holding a fixed-size header followed by
//! fixed-size records, preallocated in [`CHUNK`]-byte steps and mapped
//! shared read-write. An append copies the record to the tail of the
//! mapping: under [`SyncPolicy::ProcessCrash`] that is the whole cost — the
//! store lands in the OS page cache the moment it retires, so it survives
//! the process, with no syscall. Under [`SyncPolicy::PowerFail`] the
//! record's pages are additionally `msync(MS_SYNC)`'d before the append
//! returns. The only other syscalls on the append path are growth's
//! `set_len` and remap, once per chunk (`fdatasync`'d under the power-fail
//! tier before a record lands in the new space).
//!
//! Preallocated space reads as zeros (the chunks are sparse until
//! written), which is what makes in-place replay sound. [`RecordLog::scan`]
//! walks the mapping slot by slot and asks the caller whether each record
//! is valid. The first invalid slot ends the log only if every byte
//! *after* it is zero — the untouched preallocated tail. The invalid slot
//! itself may hold a record torn by the crash (its bytes are reported and
//! [`drop_torn`](RecordLog::drop_torn) zeroes them). A non-zero byte
//! anywhere after it would mean acknowledged records are being thrown
//! away, so it is refused as interior corruption naming the file.
//!
//! Files written by older formats that end at their last record (no
//! zeroed tail) scan the same way: their trailing partial record, if any,
//! is the torn slot, and the first append grows the file.
//!
//! The log is single-writer: callers serialise appends under their own
//! lock.

use crate::mmap::MmapRegion;
use crate::SyncPolicy;
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// Growth granularity of a record log's file, in bytes. A log is created
/// with the smallest multiple of this that holds its header and initial
/// records, and each growth extends it to the next multiple.
pub const CHUNK: usize = 256 << 10;

/// A mapped, preallocated file of one header and fixed-size records. See
/// the [module docs](self).
pub struct RecordLog {
    path: PathBuf,
    file: File,
    map: MmapRegion,
    header_len: usize,
    record_len: usize,
    /// Byte offset of the next append.
    tail: usize,
    /// Torn bytes found by the last scan at `tail`, not yet zeroed.
    torn: usize,
    sync: SyncPolicy,
}

impl std::fmt::Debug for RecordLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RecordLog")
            .field("path", &self.path)
            .field("len", &self.map.len())
            .field("tail", &self.tail)
            .field("sync", &self.sync)
            .finish()
    }
}

/// Offset of the first non-zero byte, checking a page at a time (an
/// OR-fold the compiler vectorizes) so a clean preallocated tail scans at
/// memory speed.
fn first_non_zero(bytes: &[u8]) -> Option<usize> {
    bytes.chunks(4096).enumerate().find_map(|(i, page)| {
        if page.iter().fold(0, |acc, &b| acc | b) == 0 {
            return None;
        }
        page.iter().position(|&b| b != 0).map(|at| i * 4096 + at)
    })
}

fn bad_data(path: &Path, msg: String) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("{}: {msg}", path.display()),
    )
}

impl RecordLog {
    /// Creates (truncating) the log at `path` holding `header` followed by
    /// `records` — zero or more records of `record_len` bytes each,
    /// concatenated. Under [`SyncPolicy::PowerFail`] the file's contents
    /// and size are `fdatasync`'d before returning; the caller owns the
    /// directory entry's durability.
    pub fn create(
        path: &Path,
        sync: SyncPolicy,
        header: &[u8],
        record_len: usize,
        records: &[u8],
    ) -> io::Result<RecordLog> {
        assert!(record_len > 0, "records must not be empty");
        assert_eq!(records.len() % record_len, 0, "partial record");
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        // The initial contents go in with `write`, which is cheaper than
        // faulting fresh pages of the mapping one by one.
        file.write_all(&[header, records].concat())?;
        let tail = header.len() + records.len();
        let len = tail.div_ceil(CHUNK).max(1) * CHUNK;
        file.set_len(len as u64)?;
        if sync == SyncPolicy::PowerFail {
            file.sync_data()?;
        }
        let map = MmapRegion::map(&file, len)?;
        Ok(RecordLog {
            path: path.to_path_buf(),
            file,
            map,
            header_len: header.len(),
            record_len,
            tail,
            torn: 0,
            sync,
        })
    }

    /// Maps an existing log for [`scan`](Self::scan). The header is
    /// [`header`](Self::header) for the caller to validate; a file shorter
    /// than `header_len` is refused as `InvalidData` naming the file.
    pub fn open(
        path: &Path,
        sync: SyncPolicy,
        header_len: usize,
        record_len: usize,
    ) -> io::Result<RecordLog> {
        assert!(record_len > 0, "records must not be empty");
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        let len = file.metadata()?.len();
        if len < header_len as u64 || len == 0 {
            return Err(bad_data(
                path,
                format!("truncated header ({len} of {header_len} bytes)"),
            ));
        }
        let len = usize::try_from(len)
            .map_err(|_| bad_data(path, format!("file of {len} bytes cannot be mapped")))?;
        let map = MmapRegion::map(&file, len)?;
        Ok(RecordLog {
            path: path.to_path_buf(),
            file,
            map,
            header_len,
            record_len,
            tail: header_len,
            torn: 0,
            sync,
        })
    }

    fn bytes(&self) -> &[u8] {
        // SAFETY: the mapping is valid for its length while `self` lives,
        // and the log is its only writer (mutation needs `&mut self`).
        unsafe { std::slice::from_raw_parts(self.map.as_ptr(), self.map.len()) }
    }

    fn bytes_mut(&mut self) -> &mut [u8] {
        // SAFETY: as in `bytes`, with exclusive access through `&mut self`.
        unsafe { std::slice::from_raw_parts_mut(self.map.as_ptr(), self.map.len()) }
    }

    /// The mapped header bytes.
    pub fn header(&self) -> &[u8] {
        &self.bytes()[..self.header_len]
    }

    /// Walks the records in place, calling `valid` on each full slot until
    /// it returns `false` or the mapping ends, and positions the tail at
    /// the first invalid slot. Everything after that slot must be zero;
    /// otherwise the log is refused as `InvalidData` naming the file and
    /// both offsets. Returns the bytes of a torn record left in that
    /// slot — the slot up to its last non-zero byte, `0` when the log
    /// ended cleanly — which are not yet touched: see
    /// [`drop_torn`](Self::drop_torn).
    pub fn scan(&mut self, mut valid: impl FnMut(&[u8]) -> bool) -> io::Result<u64> {
        let bytes = self.bytes();
        let rl = self.record_len;
        let mut at = self.header_len;
        while at + rl <= bytes.len() && valid(&bytes[at..at + rl]) {
            at += rl;
        }
        let slot_end = (at + rl).min(bytes.len());
        if let Some(nz) = first_non_zero(&bytes[slot_end..]) {
            return Err(bad_data(
                &self.path,
                format!(
                    "corrupt record at byte {at} (not at the tail: non-zero byte at {} \
                     after it; refusing to drop {} trailing bytes)",
                    slot_end + nz,
                    bytes.len() - at
                ),
            ));
        }
        let torn = bytes[at..slot_end]
            .iter()
            .rposition(|&b| b != 0)
            .map_or(0, |i| i + 1);
        self.tail = at;
        self.torn = torn;
        Ok(torn as u64)
    }

    /// Zeroes the torn record the last [`scan`](Self::scan) found at the
    /// tail (`msync`'d under [`SyncPolicy::PowerFail`]), so the next append
    /// starts on a clean slot. A no-op when the log ended cleanly.
    pub fn drop_torn(&mut self) -> io::Result<()> {
        if self.torn == 0 {
            return Ok(());
        }
        let (at, n) = (self.tail, self.torn);
        self.bytes_mut()[at..at + n].fill(0);
        self.torn = 0;
        self.persist(at, n)
    }

    /// Appends one record of exactly `record_len` bytes at the tail. No
    /// syscall unless the file must grow (or, under
    /// [`SyncPolicy::PowerFail`], to `msync` the record's pages). Must not
    /// be called while a scanned torn record is still in place.
    pub fn append(&mut self, record: &[u8]) -> io::Result<()> {
        assert_eq!(record.len(), self.record_len, "record size mismatch");
        debug_assert_eq!(self.torn, 0, "append over an undropped torn record");
        let at = self.tail;
        if at + record.len() > self.map.len() {
            self.grow(at + record.len())?;
        }
        self.bytes_mut()[at..at + record.len()].copy_from_slice(record);
        self.persist(at, record.len())?;
        self.tail = at + record.len();
        Ok(())
    }

    /// Writes `[at, at + len)` through to the file where the tier asks for
    /// it: always on the heap-buffer fallback (which has no page cache
    /// behind it), under [`SyncPolicy::PowerFail`] on Unix.
    fn persist(&self, at: usize, len: usize) -> io::Result<()> {
        if self.sync == SyncPolicy::PowerFail || cfg!(not(unix)) {
            self.map.msync(at, len)?;
        }
        Ok(())
    }

    /// Extends the file to the chunk multiple covering `need` bytes and
    /// maps the new length. The new space is a sparse, zero-reading tail;
    /// under [`SyncPolicy::PowerFail`] the new size is `fdatasync`'d before
    /// any record lands in it. The old mapping stays in place until the
    /// new one exists, so a failure leaves the log as it was.
    fn grow(&mut self, need: usize) -> io::Result<()> {
        let len = need.div_ceil(CHUNK) * CHUNK;
        #[cfg(not(unix))]
        self.map.msync(0, self.map.len())?;
        self.file.set_len(len as u64)?;
        if self.sync == SyncPolicy::PowerFail {
            self.file.sync_data()?;
        }
        self.map = MmapRegion::map(&self.file, len)?;
        Ok(())
    }

    /// `fdatasync`s the file: every record and the file size.
    pub fn sync_data(&self) -> io::Result<()> {
        #[cfg(not(unix))]
        self.map.msync(0, self.map.len())?;
        self.file.sync_data()
    }

    /// Renames the file to `to`, keeping the mapping (the caller owns the
    /// directory entry's durability).
    pub fn rename(&mut self, to: &Path) -> io::Result<()> {
        std::fs::rename(&self.path, to)?;
        self.path = to.to_path_buf();
        Ok(())
    }

    /// Records between the header and the tail.
    pub fn records(&self) -> u64 {
        ((self.tail - self.header_len) / self.record_len) as u64
    }

    /// The file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const H: usize = 8;
    const R: usize = 16;

    fn tmp(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("store-reclog-{tag}-{}", std::process::id()))
    }

    fn file_len(path: &Path) -> u64 {
        std::fs::metadata(path).unwrap().len()
    }

    fn rec(i: u8) -> [u8; R] {
        [i; R]
    }

    /// Non-zero first byte = a valid record, as the lease logs' CRCs say.
    fn valid(slot: &[u8]) -> bool {
        slot[0] != 0 && slot.iter().all(|&b| b == slot[0])
    }

    /// Reopens and scans: the log, its record count and its torn bytes.
    fn reopen(path: &Path) -> (RecordLog, u64, u64) {
        let mut log = RecordLog::open(path, SyncPolicy::default(), H, R).unwrap();
        let torn = log.scan(valid).unwrap();
        let records = log.records();
        (log, records, torn)
    }

    #[test]
    fn appends_land_in_the_preallocated_tail_and_replay_in_place() {
        let path = tmp("roundtrip");
        let mut log =
            RecordLog::create(&path, SyncPolicy::PowerFail, b"HEADER!!", R, &rec(1)).unwrap();
        assert_eq!(file_len(&path), CHUNK as u64);
        for i in 2..=5 {
            log.append(&rec(i)).unwrap();
        }
        assert_eq!(log.records(), 5);
        drop(log);
        assert_eq!(file_len(&path), CHUNK as u64);

        let (log, records, torn) = reopen(&path);
        assert_eq!(log.header(), b"HEADER!!");
        assert_eq!((records, torn), (5, 0));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn growth_extends_by_whole_chunks_and_keeps_every_record() {
        let path = tmp("grow");
        let mut log = RecordLog::create(&path, SyncPolicy::default(), &[7; H], R, &[]).unwrap();
        let n = (CHUNK - H) / R + 3; // spills into a second chunk
        for i in 0..n {
            log.append(&rec((i % 250) as u8 + 1)).unwrap();
        }
        assert_eq!(file_len(&path), 2 * CHUNK as u64);
        drop(log);
        let (_, records, _) = reopen(&path);
        assert_eq!(records, n as u64);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_torn_tail_slot_is_reported_then_zeroed() {
        let path = tmp("torn");
        let mut log = RecordLog::create(&path, SyncPolicy::default(), &[7; H], R, &[]).unwrap();
        log.append(&rec(1)).unwrap();
        log.append(&rec(2)).unwrap();
        drop(log);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[H + 2 * R..H + 3 * R - 5].fill(0xAB); // torn inside the slot
        std::fs::write(&path, &bytes).unwrap();

        let (mut log, records, torn) = reopen(&path);
        assert_eq!((records, torn), (2, (R - 5) as u64));
        log.drop_torn().unwrap();
        log.append(&rec(3)).unwrap();
        drop(log);
        let (_, records, torn) = reopen(&path);
        assert_eq!((records, torn), (3, 0));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_non_zero_byte_after_the_first_invalid_slot_is_refused() {
        let path = tmp("interior");
        let mut log = RecordLog::create(&path, SyncPolicy::default(), &[7; H], R, &[]).unwrap();
        for i in 1..=3 {
            log.append(&rec(i)).unwrap();
        }
        drop(log);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[H + 3] ^= 0xFF; // the first record
        std::fs::write(&path, &bytes).unwrap();
        let mut log = RecordLog::open(&path, SyncPolicy::default(), H, R).unwrap();
        let err = log.scan(valid).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let msg = err.to_string();
        assert!(msg.contains(&*path.to_string_lossy()), "{msg}");
        assert!(msg.contains("corrupt record at byte 8"), "{msg}");

        // A stray byte deep in the preallocated tail is refused too.
        bytes[H + 3] ^= 0xFF;
        bytes[CHUNK - 1] = 1;
        std::fs::write(&path, &bytes).unwrap();
        let mut log = RecordLog::open(&path, SyncPolicy::default(), H, R).unwrap();
        let err = log.scan(valid).unwrap_err();
        assert!(err.to_string().contains(&format!("{}", CHUNK - 1)), "{err}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_file_ending_at_its_last_record_scans_and_grows() {
        // The older layout: no preallocated tail, possibly a partial record.
        let path = tmp("legacy");
        let mut bytes = vec![7u8; H];
        bytes.extend_from_slice(&rec(1));
        bytes.extend_from_slice(&rec(2));
        bytes.extend_from_slice(&[0xCD; R - 3]);
        std::fs::write(&path, &bytes).unwrap();

        let (mut log, records, torn) = reopen(&path);
        assert_eq!((records, torn), (2, (R - 3) as u64));
        log.drop_torn().unwrap();
        log.append(&rec(3)).unwrap();
        assert_eq!(file_len(&path), CHUNK as u64);
        drop(log);
        let (_, records, _) = reopen(&path);
        assert_eq!(records, 3);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_short_header_is_refused_with_the_file_name() {
        let path = tmp("short");
        std::fs::write(&path, [1u8; H - 3]).unwrap();
        let err = RecordLog::open(&path, SyncPolicy::default(), H, R).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(
            err.to_string().contains("truncated header (5 of 8 bytes)"),
            "{err}"
        );
        std::fs::remove_file(&path).unwrap();
    }
}
