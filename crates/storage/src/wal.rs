//! The CRC32-framed write-ahead edit log.
//!
//! Edits become durable *before* they touch in-memory state: the engine
//! appends an encoded edit to the WAL, syncs, and only then mutates the
//! document. After a crash, replaying the log over the last persisted
//! document reproduces every acknowledged edit.
//!
//! ## On-media format
//!
//! ```text
//! header  := magic "VHWAL" · version 0x01 · 2 zero pad bytes   (8 bytes)
//! frame   := marker 0xA5 · seq u64-LE · len u32-LE · crc u32-LE · payload
//! crc     := crc32(seq-bytes · len-bytes · payload)
//! ```
//!
//! Sequence numbers start at 1 and increase by exactly 1 per frame, so
//! replay is idempotent: a consumer that has already applied edits up to
//! `n` skips every frame with `seq <= n`.
//!
//! ## Recovery discipline
//!
//! [`replay`] walks frames left to right and stops at the **first**
//! malformed one — a wrong marker, a truncated frame, a CRC mismatch, or
//! a sequence discontinuity. Everything before it is returned as good
//! records; everything from it on is *quarantined* (counted, reported,
//! never applied, never trusted). A torn final frame — the expected
//! signature of a crash mid-append — is therefore handled identically to
//! bit rot in the middle: the valid prefix survives, the report says
//! exactly what was dropped, and nothing panics. Only a bad *header*
//! escalates to [`StorageError`]: with no trustworthy prefix at all, the
//! caller must decide, not silently continue.

use crate::crc::crc32;
use crate::error::StorageError;
use crate::io::PageIo;
use crate::retry::RetryPolicy;

/// Log file magic: `VHWAL` + format version 1 + padding.
pub const WAL_MAGIC: [u8; 8] = *b"VHWAL\x01\0\0";

/// Start-of-frame marker byte.
pub const FRAME_MARKER: u8 = 0xA5;

/// Bytes of a frame before the payload: marker + seq + len + crc.
pub const FRAME_HEADER_LEN: usize = 1 + 8 + 4 + 4;

/// One acknowledged edit recovered from the log.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WalRecord {
    /// Edit sequence number (1-based, dense).
    pub seq: u64,
    /// The encoded edit, exactly as appended.
    pub payload: Vec<u8>,
}

/// What [`replay`] found: the valid prefix, plus an account of any
/// quarantined tail. `quarantined_bytes == 0` means a clean log.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Number of intact records recovered.
    pub records: usize,
    /// Highest sequence number recovered (0 when the log is empty).
    pub last_seq: u64,
    /// Bytes from the first malformed frame to the end of the log —
    /// dropped, never applied.
    pub quarantined_bytes: usize,
    /// Byte offset of the first malformed frame, if any.
    pub first_bad_offset: Option<usize>,
    /// Why the tail was quarantined (`"torn frame"`, `"crc mismatch"`, …).
    pub reason: Option<String>,
}

impl RecoveryReport {
    /// True when the whole log replayed intact.
    pub fn is_clean(&self) -> bool {
        self.quarantined_bytes == 0
    }
}

/// An append-only edit log over an in-memory byte image, modelling the
/// durability boundary explicitly: [`EditWal::append`] only *stages*
/// bytes, [`EditWal::sync`] makes them durable, and [`EditWal::crash`]
/// throws away everything after the last sync (plus, optionally, part of
/// the final synced write — a torn append).
#[derive(Clone, Debug)]
pub struct EditWal {
    bytes: Vec<u8>,
    /// Length the simulated medium is guaranteed to retain.
    synced_len: usize,
    next_seq: u64,
}

impl EditWal {
    /// A fresh, empty log (header only, already durable).
    pub fn new() -> Self {
        EditWal {
            bytes: WAL_MAGIC.to_vec(),
            synced_len: WAL_MAGIC.len(),
            next_seq: 1,
        }
    }

    /// Adopts an existing log image (e.g. read back from a file). The
    /// image is validated by [`replay`]; this constructor just positions
    /// the append cursor after the last *valid* frame, truncating any
    /// quarantined tail so new appends never interleave with garbage.
    pub fn from_bytes(bytes: Vec<u8>) -> Result<(Self, RecoveryReport), StorageError> {
        let (records, report) = replay(&bytes)?;
        let keep = report.first_bad_offset.unwrap_or(bytes.len());
        let mut bytes = bytes;
        bytes.truncate(keep);
        let next_seq = records.last().map_or(1, |r| r.seq + 1);
        Ok((
            EditWal {
                bytes,
                synced_len: keep,
                next_seq,
            },
            report,
        ))
    }

    /// Appends one encoded edit, returning its sequence number. The frame
    /// is **staged only** — it becomes durable at the next [`sync`].
    ///
    /// [`sync`]: EditWal::sync
    pub fn append(&mut self, payload: &[u8]) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        let mut body = Vec::with_capacity(12 + payload.len());
        body.extend_from_slice(&seq.to_le_bytes());
        body.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        body.extend_from_slice(payload);
        self.bytes.push(FRAME_MARKER);
        self.bytes.extend_from_slice(&body[..12]);
        self.bytes.extend_from_slice(&crc32(&body).to_le_bytes());
        self.bytes.extend_from_slice(payload);
        seq
    }

    /// Makes every staged byte durable (fsync).
    pub fn sync(&mut self) {
        self.synced_len = self.bytes.len();
    }

    /// Simulates a crash: unsynced bytes are lost, except that `torn`
    /// bytes of the unsynced tail survive (a partial write that reached
    /// the medium before power loss — exactly the torn-tail case replay
    /// must quarantine).
    pub fn crash(&mut self, torn: usize) {
        let keep = (self.synced_len + torn).min(self.bytes.len());
        self.bytes.truncate(keep);
        self.synced_len = self.synced_len.min(keep);
        // The next append after recovery restarts from the replayed seq;
        // leave `next_seq` to `from_bytes`.
    }

    /// The full log image (durable + staged).
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Bytes guaranteed durable.
    pub fn synced_len(&self) -> usize {
        self.synced_len
    }

    /// The sequence number the next append will get.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Total log size in bytes (header + frames), for space accounting.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// True when the log holds no frames.
    pub fn is_empty(&self) -> bool {
        self.bytes.len() <= WAL_MAGIC.len()
    }
}

impl Default for EditWal {
    fn default() -> Self {
        EditWal::new()
    }
}

/// Replays a log image: returns every intact record plus a report on any
/// quarantined tail. Never panics on hostile bytes; the only error is an
/// unrecognizable header (nothing in the image can be trusted).
pub fn replay(bytes: &[u8]) -> Result<(Vec<WalRecord>, RecoveryReport), StorageError> {
    if bytes.len() < WAL_MAGIC.len() || bytes[..WAL_MAGIC.len()] != WAL_MAGIC {
        return Err(StorageError::BadColumn {
            column: "wal",
            reason: "bad or truncated WAL header".into(),
        });
    }
    let mut records = Vec::new();
    let mut report = RecoveryReport::default();
    let mut at = WAL_MAGIC.len();
    let mut expected_seq = 1u64;
    let quarantine = |report: &mut RecoveryReport, at: usize, total: usize, why: &str| {
        report.quarantined_bytes = total - at;
        report.first_bad_offset = Some(at);
        report.reason = Some(why.to_string());
    };
    while at < bytes.len() {
        if bytes[at] != FRAME_MARKER {
            quarantine(&mut report, at, bytes.len(), "bad frame marker");
            break;
        }
        if bytes.len() - at < FRAME_HEADER_LEN {
            quarantine(&mut report, at, bytes.len(), "torn frame header");
            break;
        }
        // Infallible: the length check above guarantees both windows.
        let seq = u64::from_le_bytes(match bytes[at + 1..at + 9].try_into() {
            Ok(b) => b,
            Err(_) => unreachable!("8-byte window bounds-checked above"),
        });
        let len = u32::from_le_bytes(match bytes[at + 9..at + 13].try_into() {
            Ok(b) => b,
            Err(_) => unreachable!("4-byte window bounds-checked above"),
        }) as usize;
        let crc = u32::from_le_bytes(match bytes[at + 13..at + 17].try_into() {
            Ok(b) => b,
            Err(_) => unreachable!("4-byte window bounds-checked above"),
        });
        let payload_at = at + FRAME_HEADER_LEN;
        if bytes.len() - payload_at < len {
            quarantine(&mut report, at, bytes.len(), "torn frame payload");
            break;
        }
        let payload = &bytes[payload_at..payload_at + len];
        let mut body = Vec::with_capacity(12 + len);
        body.extend_from_slice(&bytes[at + 1..at + 13]);
        body.extend_from_slice(payload);
        if crc32(&body) != crc {
            quarantine(&mut report, at, bytes.len(), "crc mismatch");
            break;
        }
        if seq != expected_seq {
            quarantine(&mut report, at, bytes.len(), "sequence discontinuity");
            break;
        }
        records.push(WalRecord {
            seq,
            payload: payload.to_vec(),
        });
        report.records += 1;
        report.last_seq = seq;
        expected_seq += 1;
        at = payload_at + len;
    }
    Ok((records, report))
}

/// Reads a WAL image through a [`PageIo`] device — the same boundary the
/// rest of the store uses, so [`crate::FaultyPageIo`] can tear pages and
/// flip bits on the way in — then replays it. Transient faults are
/// retried under `policy`; a page that never delivers is treated as the
/// start of the quarantined tail (every byte from that page on is
/// untrusted).
pub fn replay_from_device(
    io: &impl PageIo,
    policy: &RetryPolicy,
) -> Result<(Vec<WalRecord>, RecoveryReport), StorageError> {
    let mut image = Vec::new();
    let mut buf = Vec::new();
    let mut lost_from: Option<usize> = None;
    'pages: for page in 0..io.page_count() {
        let mut attempts = 0;
        loop {
            attempts += 1;
            match io.read_page(page, &mut buf) {
                Ok(()) => {
                    image.extend_from_slice(&buf);
                    break;
                }
                Err(crate::error::PageFault::Transient) if attempts < policy.max_attempts => {
                    policy.wait_after(attempts);
                    continue;
                }
                Err(_) => {
                    lost_from = Some(image.len());
                    break 'pages;
                }
            }
        }
    }
    let (records, mut report) = replay(&image)?;
    if let Some(off) = lost_from {
        // Pages past the undeliverable one were never read; account for
        // them as quarantined even if the readable prefix was clean.
        let total = io.page_count() * io.page_size();
        let extra = total.saturating_sub(off.max(report.first_bad_offset.unwrap_or(off)));
        if report.first_bad_offset.is_none() {
            report.first_bad_offset = Some(off);
            report.reason = Some("undeliverable page".into());
        }
        report.quarantined_bytes = report.quarantined_bytes.max(extra);
    }
    Ok((records, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{FaultConfig, FaultyPageIo};
    use crate::io::MemPageIo;
    use crate::testutil::Must;

    fn logged(edits: &[&[u8]]) -> EditWal {
        let mut wal = EditWal::new();
        for e in edits {
            wal.append(e);
            wal.sync();
        }
        wal
    }

    #[test]
    fn round_trip_replays_every_record() {
        let wal = logged(&[b"one", b"two", b"three"]);
        let (records, report) = replay(wal.as_bytes()).must();
        assert_eq!(records.len(), 3);
        assert!(report.is_clean());
        assert_eq!(report.last_seq, 3);
        assert_eq!(
            records[1],
            WalRecord {
                seq: 2,
                payload: b"two".to_vec()
            }
        );
        assert_eq!(wal.next_seq(), 4);
    }

    #[test]
    fn empty_log_is_clean() {
        let (records, report) = replay(EditWal::new().as_bytes()).must();
        assert!(records.is_empty());
        assert!(report.is_clean());
        assert_eq!(report.last_seq, 0);
    }

    #[test]
    fn unsynced_appends_vanish_on_crash() {
        let mut wal = logged(&[b"durable"]);
        wal.append(b"staged-only");
        wal.crash(0);
        let (records, report) = replay(wal.as_bytes()).must();
        assert_eq!(records.len(), 1);
        assert!(report.is_clean(), "losing unsynced bytes is not corruption");
    }

    #[test]
    fn torn_tail_is_quarantined_not_fatal() {
        let mut wal = logged(&[b"durable"]);
        wal.append(b"torn-in-half");
        for torn in 1..(FRAME_HEADER_LEN + 12) {
            let mut crashed = wal.clone();
            crashed.crash(torn);
            let (records, report) = replay(crashed.as_bytes()).must();
            assert_eq!(records.len(), 1, "torn={torn}");
            assert_eq!(report.quarantined_bytes, torn, "torn={torn}");
            assert!(report.reason.is_some());
        }
    }

    #[test]
    fn bit_flips_anywhere_never_panic_and_never_fake_a_record() {
        let wal = logged(&[b"alpha", b"beta"]);
        let image = wal.as_bytes();
        for byte in WAL_MAGIC.len()..image.len() {
            for bit in 0..8 {
                let mut flipped = image.to_vec();
                flipped[byte] ^= 1 << bit;
                let (records, report) = replay(&flipped).must();
                // Whatever survives must be a strict prefix of the truth.
                assert!(records.len() <= 2);
                for (i, r) in records.iter().enumerate() {
                    assert_eq!(r.seq, i as u64 + 1);
                    assert_eq!(
                        r.payload,
                        [b"alpha".as_slice(), b"beta"][i],
                        "byte {byte} bit {bit} forged a record"
                    );
                }
                if records.len() < 2 {
                    assert!(!report.is_clean());
                }
            }
        }
    }

    #[test]
    fn header_corruption_is_an_error_not_a_guess() {
        let wal = logged(&[b"x"]);
        let mut image = wal.as_bytes().to_vec();
        image[0] ^= 0xFF;
        let err = replay(&image).unwrap_err();
        assert_eq!(err.code(), "STORAGE_BAD_COLUMN");
        assert!(replay(&[]).is_err(), "empty image has no header");
    }

    #[test]
    fn adopting_an_image_truncates_the_quarantined_tail() {
        let mut wal = logged(&[b"keep-me"]);
        wal.append(b"torn");
        wal.crash(3);
        let (adopted, report) = EditWal::from_bytes(wal.as_bytes().to_vec()).must();
        assert_eq!(report.records, 1);
        assert!(!report.is_clean());
        assert_eq!(adopted.next_seq(), 2, "seq resumes after the valid prefix");
        // The adopted log replays clean: garbage was cut, not buried.
        let (_, clean) = replay(adopted.as_bytes()).must();
        assert!(clean.is_clean());
    }

    #[test]
    fn sequence_discontinuities_stop_replay() {
        let a = logged(&[b"one"]);
        let mut b = EditWal::new();
        b.append(b"offbeat");
        b.append(b"offbeat2");
        // Graft log B's *second* frame (seq 2) after log A's seq-1 frame —
        // replay must refuse seq 3-follows-1... actually seq 2 follows 1
        // fine; graft its own seq-2 frame twice to force 2-follows-2.
        let frame2 = &b.as_bytes()[b.as_bytes().len() - (FRAME_HEADER_LEN + 8)..];
        let mut image = a.as_bytes().to_vec();
        image.extend_from_slice(frame2); // seq 2: fine
        image.extend_from_slice(frame2); // seq 2 again: discontinuity
        let (records, report) = replay(&image).must();
        assert_eq!(records.len(), 2);
        assert_eq!(report.reason.as_deref(), Some("sequence discontinuity"));
    }

    #[test]
    fn replay_rides_the_faulty_page_device() {
        let wal = logged(&[b"page-one-edit", b"page-two-edit", b"page-three"]);
        let image = wal.as_bytes().to_vec();
        // Clean device: identical to direct replay.
        let io = MemPageIo::new(image.clone(), 16);
        let (records, report) = replay_from_device(&io, &RetryPolicy::default()).must();
        assert_eq!(records.len(), 3);
        assert!(report.is_clean());
        // Torn final page: valid prefix survives, tail quarantined.
        let pages = image.len().div_ceil(16);
        let torn = FaultyPageIo::new(
            MemPageIo::new(image.clone(), 16),
            FaultConfig::with_seed(5).torn_page(pages - 1),
        );
        let (records, report) = replay_from_device(&torn, &RetryPolicy::default()).must();
        assert!(records.len() < 3);
        assert!(!report.is_clean());
        // Transient faults heal under retry.
        let flaky = FaultyPageIo::new(
            MemPageIo::new(image, 16),
            FaultConfig::with_seed(11).transient_read_rate(0.3),
        );
        let (records, _) = replay_from_device(&flaky, &RetryPolicy::default()).must();
        assert_eq!(records.len(), 3);
    }
}
