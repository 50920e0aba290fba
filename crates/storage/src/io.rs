//! The page-device abstraction behind the store.
//!
//! [`PageIo`] is the injectable boundary between the logical store and its
//! "disk": the production device is [`MemPageIo`] (an in-memory page
//! array), and tests wrap it in [`crate::faults::FaultyPageIo`] to inject
//! deterministic faults. The store never trusts what a device returns —
//! every page is CRC-verified against checksums captured at build time.

use crate::error::PageFault;

/// A device serving fixed-size pages.
///
/// `Send + Sync` are supertraits so stores (and the engines holding
/// them) can move between threads and serve concurrent readers — a
/// served tenant runs its queries under a shared `RwLock` read guard.
pub trait PageIo: std::fmt::Debug + Send + Sync {
    /// The device's page size in bytes.
    fn page_size(&self) -> usize;

    /// Number of pages on the device.
    fn page_count(&self) -> usize;

    /// Reads page `page` into `buf` (replacing its contents). The final
    /// page may be short. A [`PageFault::Transient`] failure may succeed
    /// on retry; [`PageFault::OutOfBounds`] never will.
    fn read_page(&self, page: usize, buf: &mut Vec<u8>) -> Result<(), PageFault>;
}

/// The in-memory reference device: a byte string split into pages.
#[derive(Clone, Debug)]
pub struct MemPageIo {
    data: Vec<u8>,
    page_size: usize,
}

impl MemPageIo {
    /// Splits `data` into pages of `page_size` bytes.
    ///
    /// # Panics
    /// Panics if `page_size` is zero (construction-time invariant; all
    /// store constructors validate the page size first).
    pub fn new(data: Vec<u8>, page_size: usize) -> Self {
        assert!(page_size > 0, "page size must be positive");
        MemPageIo { data, page_size }
    }
}

impl PageIo for MemPageIo {
    fn page_size(&self) -> usize {
        self.page_size
    }

    fn page_count(&self) -> usize {
        self.data.len().div_ceil(self.page_size)
    }

    fn read_page(&self, page: usize, buf: &mut Vec<u8>) -> Result<(), PageFault> {
        if page >= self.page_count() {
            return Err(PageFault::OutOfBounds);
        }
        // `page < page_count` bounds `start` below `data.len()`.
        let start = page * self.page_size;
        let end = (start + self.page_size).min(self.data.len());
        buf.clear();
        buf.extend_from_slice(&self.data[start..end]);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::Must;

    #[test]
    fn pages_split_with_short_tail() {
        let io = MemPageIo::new(b"0123456789".to_vec(), 4);
        assert_eq!(io.page_count(), 3);
        let mut buf = Vec::new();
        io.read_page(0, &mut buf).must();
        assert_eq!(buf, b"0123");
        io.read_page(2, &mut buf).must();
        assert_eq!(buf, b"89");
        assert_eq!(io.read_page(3, &mut buf), Err(PageFault::OutOfBounds));
    }

    #[test]
    fn empty_device_has_no_pages() {
        let io = MemPageIo::new(Vec::new(), 4);
        assert_eq!(io.page_count(), 0);
        let mut buf = Vec::new();
        assert_eq!(io.read_page(0, &mut buf), Err(PageFault::OutOfBounds));
    }
}
