//! Aggregated storage statistics for the experiments.

/// A snapshot of storage sizes and access counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StorageStats {
    /// Bytes of the serialized document string.
    pub document_bytes: usize,
    /// Pages the document string occupies.
    pub document_pages: usize,
    /// Bytes of the value index.
    pub value_index_bytes: usize,
    /// Bytes of the node header table (kind + type id + encoded PBN).
    pub header_bytes: usize,
    /// Bytes of the persisted PBN key-arena column image.
    pub pbn_column_bytes: usize,
    /// Pages read since the last counter reset.
    pub pages_read: u64,
    /// Bytes read since the last counter reset.
    pub bytes_read: u64,
    /// Retry attempts performed after failed page reads.
    pub read_retries: u64,
    /// Transient device faults observed (healed or not).
    pub transient_faults: u64,
    /// Pages delivered with a CRC32 mismatch.
    pub checksum_failures: u64,
    /// Buffer-pool frames quarantined after failing verification.
    pub quarantines: u64,
}

impl StorageStats {
    /// Folds another snapshot into this one field-by-field — how an
    /// engine aggregates one `EngineSnapshot.storage` over every store
    /// it has attached.
    pub fn merge(&mut self, other: &StorageStats) {
        self.document_bytes += other.document_bytes;
        self.document_pages += other.document_pages;
        self.value_index_bytes += other.value_index_bytes;
        self.header_bytes += other.header_bytes;
        self.pbn_column_bytes += other.pbn_column_bytes;
        self.pages_read += other.pages_read;
        self.bytes_read += other.bytes_read;
        self.read_retries += other.read_retries;
        self.transient_faults += other.transient_faults;
        self.checksum_failures += other.checksum_failures;
        self.quarantines += other.quarantines;
    }

    /// Total resident bytes (string, value index, headers and the PBN
    /// column).
    pub fn total_bytes(&self) -> usize {
        self.document_bytes + self.value_index_bytes + self.header_bytes + self.pbn_column_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_add_up() {
        let s = StorageStats {
            document_bytes: 100,
            value_index_bytes: 10,
            header_bytes: 15,
            pbn_column_bytes: 50,
            ..StorageStats::default()
        };
        assert_eq!(s.total_bytes(), 175);
    }

    #[test]
    fn merge_sums_every_field() {
        let a = StorageStats {
            document_bytes: 1,
            document_pages: 2,
            value_index_bytes: 3,
            header_bytes: 6,
            pbn_column_bytes: 7,
            pages_read: 8,
            bytes_read: 9,
            read_retries: 10,
            transient_faults: 11,
            checksum_failures: 12,
            quarantines: 13,
        };
        let mut m = a;
        m.merge(&a);
        assert_eq!(m.document_bytes, 2);
        assert_eq!(m.document_pages, 4);
        assert_eq!(m.value_index_bytes, 6);
        assert_eq!(m.header_bytes, 12);
        assert_eq!(m.pbn_column_bytes, 14);
        assert_eq!(m.pages_read, 16);
        assert_eq!(m.bytes_read, 18);
        assert_eq!(m.read_retries, 20);
        assert_eq!(m.transient_faults, 22);
        assert_eq!(m.checksum_failures, 24);
        assert_eq!(m.quarantines, 26);
        assert_eq!(m.total_bytes(), 2 * a.total_bytes());
    }
}
