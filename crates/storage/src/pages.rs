//! Block-addressed storage of the document string, with read accounting,
//! per-page CRC32 checksums, fault-tolerant reads and retry.
//!
//! The paper (§6): character positions in the value index "are usually some
//! combination of a disk block number and offset within the block to
//! facilitate fast retrieval from disk". The string is held in memory but
//! addressed through fixed-size pages served by an injectable [`PageIo`]
//! device. Every page delivered by the device is verified against a CRC32
//! captured at build time; transient faults are retried with exponential
//! backoff ([`RetryPolicy`]), and pages that never verify surface as
//! [`StorageError::Corrupt`] — a query sees an error, never silently wrong
//! bytes. All of it is counted: pages/bytes read (the unit the experiments
//! report as simulated I/O) plus retries, transient faults and checksum
//! failures.

use crate::buffer::BufferPool;
use crate::crc::crc32;
use crate::error::{PageFault, StorageError};
use crate::faults::{FaultConfig, FaultyPageIo};
use crate::io::{MemPageIo, PageIo};
use crate::retry::RetryPolicy;
use std::sync::atomic::{AtomicU64, Ordering};

/// Default page size (a common DBMS block size).
pub const DEFAULT_PAGE_SIZE: usize = 4096;

/// The paged document string.
#[derive(Debug)]
pub struct PageStore {
    /// Pristine logical content, captured at build time. This is the
    /// ground truth the checksums were computed from; the device serves
    /// (possibly faulty) copies of it.
    data: String,
    io: Box<dyn PageIo>,
    checksums: Vec<u32>,
    page_size: usize,
    retry: RetryPolicy,
    // Relaxed atomics: concurrent readers of one engine share the
    // store, and the counters order nothing.
    pages_read: AtomicU64,
    bytes_read: AtomicU64,
    read_retries: AtomicU64,
    transient_faults: AtomicU64,
    checksum_failures: AtomicU64,
}

impl PageStore {
    /// Wraps a serialized document string with the default page size.
    pub fn new(data: String) -> Self {
        Self::with_page_size(data, DEFAULT_PAGE_SIZE)
    }

    /// Wraps a string with an explicit page size, served by the in-memory
    /// reference device (no faults).
    ///
    /// # Panics
    /// Panics if `page_size` is zero.
    pub fn with_page_size(data: String, page_size: usize) -> Self {
        let io = MemPageIo::new(data.clone().into_bytes(), page_size);
        Self::with_io(data, page_size, Box::new(io))
    }

    /// Wraps a string served by a deterministic fault-injecting device
    /// (see [`FaultConfig`]). Checksums still come from the pristine data,
    /// so injected corruption is detected on read.
    pub fn with_fault_injection(data: String, page_size: usize, faults: FaultConfig) -> Self {
        let inner = MemPageIo::new(data.clone().into_bytes(), page_size);
        let io = FaultyPageIo::new(inner, faults);
        Self::with_io(data, page_size, Box::new(io))
    }

    /// Wraps a string served by an arbitrary [`PageIo`] device.
    ///
    /// # Panics
    /// Panics if `page_size` is zero or the device disagrees about the
    /// page size (construction-time invariants).
    pub fn with_io(data: String, page_size: usize, io: Box<dyn PageIo>) -> Self {
        assert!(page_size > 0, "page size must be positive");
        assert_eq!(io.page_size(), page_size, "device page size mismatch");
        let checksums = data.as_bytes().chunks(page_size).map(crc32).collect();
        PageStore {
            data,
            io,
            checksums,
            page_size,
            retry: RetryPolicy::default(),
            pages_read: AtomicU64::new(0),
            bytes_read: AtomicU64::new(0),
            read_retries: AtomicU64::new(0),
            transient_faults: AtomicU64::new(0),
            checksum_failures: AtomicU64::new(0),
        }
    }

    /// Replaces the retry policy (builder style).
    pub fn with_retry_policy(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Replaces the retry policy in place.
    pub fn set_retry_policy(&mut self, retry: RetryPolicy) {
        self.retry = retry;
    }

    /// The active retry policy.
    pub fn retry_policy(&self) -> RetryPolicy {
        self.retry
    }

    /// Total size of the stored string in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True for an empty store.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Number of pages occupied.
    pub fn page_count(&self) -> usize {
        self.data.len().div_ceil(self.page_size)
    }

    /// The page size.
    #[inline]
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// The CRC32 checksum recorded for `page` at build time, if it exists.
    pub fn checksum_of(&self, page: usize) -> Option<u32> {
        self.checksums.get(page).copied()
    }

    /// Reads the byte range `[start, end)` through the device, charging
    /// the pages it spans. Each page is CRC-verified; transient faults are
    /// retried per the [`RetryPolicy`].
    pub fn read_range(&self, start: usize, end: usize) -> Result<String, StorageError> {
        self.read_range_with_pool(start, end, None)
    }

    /// [`PageStore::read_range`] with an optional buffer pool: resident
    /// frames are served from memory (verified — a frame failing its
    /// checksum is quarantined and refetched from the device), missing
    /// pages are fetched, verified and cached.
    pub fn read_range_with_pool(
        &self,
        start: usize,
        end: usize,
        pool: Option<&BufferPool>,
    ) -> Result<String, StorageError> {
        if start > end || end > self.data.len() {
            return Err(StorageError::OutOfBounds {
                start,
                end,
                len: self.data.len(),
            });
        }
        if start == end {
            return Ok(String::new());
        }
        let first = start / self.page_size;
        let last = (end - 1) / self.page_size;
        let mut out: Vec<u8> = Vec::with_capacity(end - start);
        for page in first..=last {
            let bytes = self.page_via_pool(page, pool)?;
            let page_base = page * self.page_size;
            let lo = start.saturating_sub(page_base);
            let hi = (end - page_base).min(bytes.len());
            out.extend_from_slice(&bytes[lo..hi]);
        }
        self.bytes_read
            .fetch_add((end - start) as u64, Ordering::Relaxed);
        // Every page was CRC-verified against the pristine string, so the
        // assembled bytes are valid UTF-8; treat a mismatch as corruption
        // rather than panicking.
        String::from_utf8(out).map_err(|_| StorageError::Corrupt { page: first })
    }

    /// One verified page, via the pool when present.
    fn page_via_pool(
        &self,
        page: usize,
        pool: Option<&BufferPool>,
    ) -> Result<Vec<u8>, StorageError> {
        let Some(pool) = pool else {
            return self.fetch_page(page);
        };
        if let Some(frame) = pool.lookup(page) {
            if self
                .checksum_of(page)
                .is_some_and(|sum| crc32(&frame) == sum)
            {
                return Ok(frame);
            }
            // Resident frame no longer verifies: quarantine it and go back
            // to the device for a clean copy.
            self.checksum_failures.fetch_add(1, Ordering::Relaxed);
            pool.quarantine(page);
        }
        let bytes = self.fetch_page(page)?;
        pool.insert(page, bytes.clone());
        Ok(bytes)
    }

    /// Fetches one page from the device, verifying its checksum, retrying
    /// transient faults and checksum failures per the [`RetryPolicy`].
    fn fetch_page(&self, page: usize) -> Result<Vec<u8>, StorageError> {
        let expected = self.checksum_of(page).ok_or(StorageError::OutOfBounds {
            start: page * self.page_size,
            end: (page + 1) * self.page_size,
            len: self.data.len(),
        })?;
        let mut buf = Vec::new();
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            // Every arm either returns or reports what kind of failure this
            // attempt was, so the exhaustion error below names the right
            // final cause.
            let last_failure_was_checksum = match self.io.read_page(page, &mut buf) {
                Ok(()) => {
                    self.pages_read.fetch_add(1, Ordering::Relaxed);
                    if crc32(&buf) == expected {
                        return Ok(std::mem::take(&mut buf));
                    }
                    self.checksum_failures.fetch_add(1, Ordering::Relaxed);
                    true
                }
                Err(PageFault::Transient) => {
                    self.transient_faults.fetch_add(1, Ordering::Relaxed);
                    false
                }
                Err(PageFault::OutOfBounds) => {
                    return Err(StorageError::OutOfBounds {
                        start: page * self.page_size,
                        end: (page + 1) * self.page_size,
                        len: self.data.len(),
                    });
                }
            };
            if attempt >= self.retry.max_attempts.max(1) {
                return Err(if last_failure_was_checksum {
                    StorageError::Corrupt { page }
                } else {
                    StorageError::Transient {
                        page,
                        attempts: attempt,
                    }
                });
            }
            self.read_retries.fetch_add(1, Ordering::Relaxed);
            self.retry.wait_after(attempt);
        }
    }

    /// Direct access to the pristine string without accounting or fault
    /// simulation (used when building indexes, which the experiments
    /// charge separately, and as the oracle in fault-injection tests).
    #[inline]
    pub fn raw(&self) -> &str {
        &self.data
    }

    /// Pages fetched from the device so far (includes re-reads forced by
    /// retries and quarantines; excludes buffer-pool hits).
    #[inline]
    pub fn pages_read(&self) -> u64 {
        self.pages_read.load(Ordering::Relaxed)
    }

    /// Logical bytes served to callers so far (pool hits included).
    #[inline]
    pub fn bytes_read(&self) -> u64 {
        self.bytes_read.load(Ordering::Relaxed)
    }

    /// Retry attempts performed after a failed page read.
    #[inline]
    pub fn read_retries(&self) -> u64 {
        self.read_retries.load(Ordering::Relaxed)
    }

    /// Transient device faults observed (whether or not a retry healed them).
    #[inline]
    pub fn transient_faults(&self) -> u64 {
        self.transient_faults.load(Ordering::Relaxed)
    }

    /// Pages delivered whose CRC32 did not match the build-time checksum.
    #[inline]
    pub fn checksum_failures(&self) -> u64 {
        self.checksum_failures.load(Ordering::Relaxed)
    }

    /// Resets the access and fault counters.
    pub fn reset_counters(&self) {
        self.pages_read.store(0, Ordering::Relaxed);
        self.bytes_read.store(0, Ordering::Relaxed);
        self.read_retries.store(0, Ordering::Relaxed);
        self.transient_faults.store(0, Ordering::Relaxed);
        self.checksum_failures.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::Must;

    type R = Result<(), StorageError>;

    #[test]
    fn read_range_returns_the_slice() -> R {
        let s = PageStore::with_page_size("hello world".into(), 4);
        assert_eq!(s.read_range(0, 5)?, "hello");
        assert_eq!(s.read_range(6, 11)?, "world");
        assert_eq!(s.read_range(3, 3)?, "");
        Ok(())
    }

    #[test]
    fn page_accounting_counts_spanned_pages() -> R {
        let s = PageStore::with_page_size("0123456789abcdef".into(), 4);
        s.read_range(0, 4)?; // page 0 only
        assert_eq!(s.pages_read(), 1);
        s.read_range(3, 5)?; // pages 0-1
        assert_eq!(s.pages_read(), 3);
        s.read_range(0, 16)?; // all 4 pages
        assert_eq!(s.pages_read(), 7);
        assert_eq!(s.bytes_read(), 4 + 2 + 16);
        s.reset_counters();
        assert_eq!(s.pages_read(), 0);
        assert_eq!(s.bytes_read(), 0);
        Ok(())
    }

    #[test]
    fn empty_reads_are_free() -> R {
        let s = PageStore::with_page_size("abc".into(), 4);
        s.read_range(1, 1)?;
        assert_eq!(s.pages_read(), 0);
        Ok(())
    }

    #[test]
    fn page_count_rounds_up() {
        assert_eq!(PageStore::with_page_size("12345".into(), 4).page_count(), 2);
        assert_eq!(PageStore::with_page_size("1234".into(), 4).page_count(), 1);
        assert_eq!(PageStore::with_page_size(String::new(), 4).page_count(), 0);
    }

    #[test]
    fn out_of_bounds_read_is_an_error() {
        let s = PageStore::new("abc".into());
        assert_eq!(
            s.read_range(0, 4),
            Err(StorageError::OutOfBounds {
                start: 0,
                end: 4,
                len: 3
            })
        );
        assert_eq!(
            s.read_range(2, 1),
            Err(StorageError::OutOfBounds {
                start: 2,
                end: 1,
                len: 3
            })
        );
    }

    #[test]
    fn transient_faults_are_retried_to_success() -> R {
        let s = PageStore::with_fault_injection(
            "0123456789abcdef".into(),
            4,
            FaultConfig::with_seed(42).transient_read_rate(0.5),
        )
        .with_retry_policy(RetryPolicy {
            max_attempts: 32,
            ..RetryPolicy::default()
        });
        for _ in 0..16 {
            assert_eq!(s.read_range(0, 16)?, "0123456789abcdef");
        }
        assert!(s.transient_faults() > 0, "seed produced no faults");
        assert_eq!(s.read_retries(), s.transient_faults());
        Ok(())
    }

    #[test]
    fn exhausted_retries_surface_transient_error() {
        let s = PageStore::with_fault_injection(
            "data".into(),
            4,
            FaultConfig::with_seed(1).transient_read_rate(1.0),
        )
        .with_retry_policy(RetryPolicy {
            max_attempts: 3,
            ..RetryPolicy::default()
        });
        assert_eq!(
            s.read_range(0, 4),
            Err(StorageError::Transient {
                page: 0,
                attempts: 3
            })
        );
        assert_eq!(s.transient_faults(), 3);
        assert_eq!(s.read_retries(), 2);
    }

    #[test]
    fn torn_page_is_detected_as_corrupt() {
        let s = PageStore::with_fault_injection(
            "0123456789abcdef".into(),
            4,
            FaultConfig::with_seed(5).torn_page(2),
        );
        assert_eq!(s.read_range(0, 8).must(), "01234567");
        assert_eq!(s.read_range(8, 16), Err(StorageError::Corrupt { page: 2 }));
        assert!(s.checksum_failures() > 0);
    }

    #[test]
    fn bit_flips_are_healed_by_refetch() -> R {
        // Flip a bit on roughly every third delivery: verification must
        // reject those deliveries and the retry must converge on clean
        // data — the caller never observes corrupted bytes.
        let s = PageStore::with_fault_injection(
            "0123456789abcdef".into(),
            4,
            FaultConfig::with_seed(11).bit_flip_rate(0.3),
        )
        .with_retry_policy(RetryPolicy {
            max_attempts: 64,
            ..RetryPolicy::default()
        });
        for _ in 0..32 {
            assert_eq!(s.read_range(0, 16)?, "0123456789abcdef");
        }
        assert!(s.checksum_failures() > 0, "seed produced no flips");
        Ok(())
    }

    #[test]
    fn checksums_are_exposed_per_page() {
        let s = PageStore::with_page_size("0123456789".into(), 4);
        assert_eq!(s.checksum_of(0), Some(crc32(b"0123")));
        assert_eq!(s.checksum_of(2), Some(crc32(b"89")));
        assert_eq!(s.checksum_of(3), None);
    }
}
