#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # vh-storage — a simulated PBN-based XML store
//!
//! §6 of the paper describes the storage architecture vPBN assumes: "an XML
//! DBMS stores the source XML data as a long string", each node's *value*
//! is a substring of it, a **value index** maps a node's PBN number to the
//! character range of its value, positions are "some combination of a disk
//! block number and offset within the block", and per-node **header
//! information** carries the PBN number and a Type ID. §4.3's **type
//! index** ("find all the `<title>` elements", keyed by PBN numbers) is
//! the analyzed document's own (`vh_dataguide::TypedDocument::nodes_of_type`),
//! maintained by every edit, so this crate keeps no copy of it.
//!
//! This crate is that DBMS back end, built from scratch:
//! * [`pages`] — a block-addressed byte store with read accounting (the
//!   stand-in for disk I/O; experiments report pages touched), per-page
//!   CRC32 verification ([`crc`]) and bounded retry ([`retry`]).
//! * [`io`] — the injectable [`io::PageIo`] device boundary; [`faults`]
//!   wraps any device with deterministic, seedable fault injection
//!   (transient errors, bit flips, torn pages).
//! * [`error`] — [`StorageError`]: the crate's fault taxonomy. Reads never
//!   panic on bad pages and never return silently wrong bytes.
//! * [`buffer`] — an LRU buffer pool refining the I/O model with
//!   hit/miss/eviction accounting (cold vs warm experiments) plus
//!   quarantine/refetch of frames that fail verification.
//! * [`value_index`] — PBN → byte-range lookup.
//! * [`header`] — per-node header records (kind, Type ID, encoded PBN) and
//!   their space accounting.
//! * [`wal`] — the CRC32-framed write-ahead edit log behind
//!   `Engine::apply`: fsync-ordered appends, torn-tail detection, and
//!   idempotent, quarantine-on-corruption replay.
//! * [`pbn_column`] — the persisted columnar key arena: the document's
//!   encoded PBN keys, offset table and node column written verbatim with
//!   a CRC trailer, so reopening a store rebuilds the numbering without
//!   renumbering the document.
//! * [`store`] — [`StoredDocument`]: everything wired together; implements
//!   [`vh_core::value::RawValueSource`] so virtual values stitch directly
//!   from stored ranges; [`stats`] aggregates access counters.
//!
//! The store is deliberately *not* persistent — the experiments measure
//! algorithmic behaviour (ranges read, pages touched, index rebuild work),
//! not disk hardware.

pub mod buffer;
pub mod crc;
pub mod error;
pub mod faults;
pub mod header;
pub mod io;
pub mod pages;
pub mod pbn_column;
pub mod retry;
pub mod stats;
pub mod store;
pub mod value_index;
pub mod wal;

pub use buffer::{BufferPool, BufferStats};
pub use error::{PageFault, StorageError};
pub use faults::{FaultConfig, FaultyPageIo};
pub use io::{MemPageIo, PageIo};
pub use pages::PageStore;
pub use pbn_column::{decode_arena_column, encode_arena_column};
pub use retry::RetryPolicy;
pub use stats::StorageStats;
pub use store::StoredDocument;
pub use value_index::ValueIndex;
pub use wal::{replay, replay_from_device, EditWal, RecoveryReport, WalRecord};

#[cfg(test)]
pub(crate) mod testutil {
    //! Shared helpers for unit tests.

    /// Unwraps test fixtures that are valid by construction, printing the
    /// `Debug` payload when the assumption is violated.
    pub trait Must<T> {
        /// Returns the success value or fails the test.
        fn must(self) -> T;
    }

    impl<T, E: std::fmt::Debug> Must<T> for Result<T, E> {
        fn must(self) -> T {
            self.unwrap_or_else(|e| unreachable!("test fixture failed: {e:?}"))
        }
    }

    impl<T> Must<T> for Option<T> {
        fn must(self) -> T {
            self.unwrap_or_else(|| unreachable!("test fixture was None"))
        }
    }
}
