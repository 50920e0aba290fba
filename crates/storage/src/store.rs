//! [`StoredDocument`]: the assembled store.
//!
//! Serializes the document once into a [`PageStore`], recording each node's
//! byte range into the [`ValueIndex`] during the same walk, and builds the
//! header table. The type index is the document's own
//! ([`TypedDocument::nodes_of_type`]), kept current by every edit. Implements
//! [`vh_core::value::RawValueSource`] so `vh-core`'s §6 value stitcher
//! reads stored ranges (with page accounting) instead of re-serializing.

use crate::buffer::BufferPool;
use crate::error::StorageError;
use crate::faults::FaultConfig;
use crate::header::HeaderTable;
use crate::pages::{PageStore, DEFAULT_PAGE_SIZE};
use crate::pbn_column::{decode_arena_column, encode_arena_column};
use crate::retry::RetryPolicy;
use crate::stats::StorageStats;
use crate::value_index::ValueIndex;
use vh_core::value::{RawValueSource, ValueError};
use vh_dataguide::TypedDocument;
use vh_pbn::{Pbn, PbnAssignment};
use vh_xml::{serialize, NodeId, NodeKind};

/// A typed document together with its simulated on-disk representation.
#[derive(Debug)]
pub struct StoredDocument {
    td: TypedDocument,
    pages: PageStore,
    values: ValueIndex,
    headers: HeaderTable,
    pbn_column: Vec<u8>,
    pool: Option<BufferPool>,
}

impl StoredDocument {
    /// Builds the store with the default page size.
    pub fn build(td: TypedDocument) -> Self {
        Self::build_with_page_size(td, DEFAULT_PAGE_SIZE)
    }

    /// Builds the store with an explicit page size.
    pub fn build_with_page_size(td: TypedDocument, page_size: usize) -> Self {
        Self::build_inner(td, page_size, None)
    }

    /// Builds the store on a deterministic fault-injecting device (see
    /// [`FaultConfig`]): reads go through checksum verification and retry,
    /// so injected faults either heal or surface as [`StorageError`]s.
    pub fn build_with_faults(td: TypedDocument, page_size: usize, faults: FaultConfig) -> Self {
        Self::build_inner(td, page_size, Some(faults))
    }

    fn build_inner(td: TypedDocument, page_size: usize, faults: Option<FaultConfig>) -> Self {
        let (data, values) = serialize_with_ranges(&td);
        let pages = match faults {
            Some(cfg) => PageStore::with_fault_injection(data, page_size, cfg),
            None => PageStore::with_page_size(data, page_size),
        };
        let headers = HeaderTable::build(&td);
        let pbn_column = encode_arena_column(td.pbn());
        StoredDocument {
            td,
            pages,
            values,
            headers,
            pbn_column,
            pool: None,
        }
    }

    /// Replaces the page-read retry policy (builder style).
    pub fn with_retry_policy(mut self, retry: RetryPolicy) -> Self {
        self.pages.set_retry_policy(retry);
        self
    }

    /// Attaches an LRU buffer pool of `frames` pages; subsequent reads
    /// through [`StoredDocument::value_of`] are classified as hits or
    /// misses (see [`StoredDocument::buffer_stats`]).
    pub fn with_buffer_pool(mut self, frames: usize) -> Self {
        self.pool = Some(BufferPool::new(frames));
        self
    }

    /// Buffer-pool counters, if a pool is attached.
    pub fn buffer_stats(&self) -> Option<crate::buffer::BufferStats> {
        self.pool.as_ref().map(BufferPool::stats)
    }

    /// The attached buffer pool, if any.
    pub fn buffer_pool(&self) -> Option<&BufferPool> {
        self.pool.as_ref()
    }

    /// The typed document.
    #[inline]
    pub fn typed(&self) -> &TypedDocument {
        &self.td
    }

    /// The paged document string.
    #[inline]
    pub fn pages(&self) -> &PageStore {
        &self.pages
    }

    /// The value index.
    #[inline]
    pub fn values(&self) -> &ValueIndex {
        &self.values
    }

    /// The node header table.
    #[inline]
    pub fn headers(&self) -> &HeaderTable {
        &self.headers
    }

    /// The persisted PBN key-arena column image (see
    /// [`crate::pbn_column`]).
    #[inline]
    pub fn pbn_column(&self) -> &[u8] {
        &self.pbn_column
    }

    /// Reconstructs the document's PBN assignment from the persisted
    /// column image, as reopening the store from disk would — the columns
    /// are validated and wrapped, never renumbered. The result is
    /// byte-identical to `self.typed().pbn()`.
    pub fn reopen_pbn(&self) -> Result<PbnAssignment, StorageError> {
        decode_arena_column(&self.pbn_column)
    }

    /// The stored value of a node, read through the page layer (charged;
    /// served and verified via the buffer pool when one is attached).
    /// Transient faults are retried; persistent corruption surfaces as
    /// [`StorageError::Corrupt`] — never as wrong bytes.
    pub fn value_of(&self, id: NodeId) -> Result<String, StorageError> {
        let r = self.values.get(id);
        self.pages
            .read_range_with_pool(r.start as usize, r.end as usize, self.pool.as_ref())
    }

    /// The stored value looked up by PBN number, as §6 describes.
    /// `Ok(None)` means the number names no node; `Err` is a storage fault.
    pub fn value_of_pbn(&self, pbn: &Pbn) -> Result<Option<String>, StorageError> {
        self.td
            .pbn()
            .node_of(pbn)
            .map(|id| self.value_of(id))
            .transpose()
    }

    /// Current sizes and access counters.
    pub fn stats(&self) -> StorageStats {
        StorageStats {
            document_bytes: self.pages.len(),
            document_pages: self.pages.page_count(),
            value_index_bytes: self.values.heap_bytes(),
            header_bytes: self.headers.total_bytes(),
            pbn_column_bytes: self.pbn_column.len(),
            pages_read: self.pages.pages_read(),
            bytes_read: self.pages.bytes_read(),
            read_retries: self.pages.read_retries(),
            transient_faults: self.pages.transient_faults(),
            checksum_failures: self.pages.checksum_failures(),
            quarantines: self.pool.as_ref().map_or(0, |p| p.stats().quarantines),
        }
    }

    /// Resets the I/O counters (between experiment runs).
    pub fn reset_counters(&self) {
        self.pages.reset_counters();
    }
}

impl RawValueSource for StoredDocument {
    fn append_raw_value(&self, node: NodeId, out: &mut String) -> Result<(), ValueError> {
        out.push_str(&self.value_of(node).map_err(ValueError::new)?);
        Ok(())
    }
}

/// Serializes compactly while recording every node's byte range.
///
/// The ranges follow §6's definition: an element's value runs from its
/// start tag through its end tag; a text node's value is its escaped text.
fn serialize_with_ranges(td: &TypedDocument) -> (String, ValueIndex) {
    let doc = td.doc();
    let mut out = String::new();
    let mut values = ValueIndex::with_capacity(doc.len());
    // Explicit stack of (node, phase): phase 0 = open, 1 = close.
    enum Step {
        Open(NodeId),
        Close(NodeId),
    }
    let mut stack: Vec<Step> = doc.root().map(Step::Open).into_iter().collect();
    let mut starts: Vec<usize> = vec![0; doc.len()];
    while let Some(step) = stack.pop() {
        match step {
            Step::Open(id) => {
                starts[id.index()] = out.len();
                match doc.kind(id) {
                    NodeKind::Element { .. } => {
                        let closed = serialize::write_start_tag(doc, id, &mut out);
                        if closed {
                            values.set(id, starts[id.index()], out.len());
                        } else {
                            stack.push(Step::Close(id));
                            for &c in doc.children(id).iter().rev() {
                                stack.push(Step::Open(c));
                            }
                        }
                    }
                    NodeKind::Text(t) => {
                        vh_xml::escape::escape_text_into(&mut out, t);
                        values.set(id, starts[id.index()], out.len());
                    }
                    NodeKind::Comment(c) => {
                        out.push_str("<!--");
                        out.push_str(c);
                        out.push_str("-->");
                        values.set(id, starts[id.index()], out.len());
                    }
                    NodeKind::ProcessingInstruction { target, data } => {
                        out.push_str("<?");
                        out.push_str(target);
                        if !data.is_empty() {
                            out.push(' ');
                            out.push_str(data);
                        }
                        out.push_str("?>");
                        values.set(id, starts[id.index()], out.len());
                    }
                }
            }
            Step::Close(id) => {
                serialize::write_end_tag(doc, id, &mut out);
                values.set(id, starts[id.index()], out.len());
            }
        }
    }
    (out, values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vh_pbn::pbn;
    use vh_xml::builder::paper_figure2;
    use vh_xml::SerializeOptions;

    type R = Result<(), Box<dyn std::error::Error>>;

    fn store() -> StoredDocument {
        StoredDocument::build(TypedDocument::analyze(paper_figure2()))
    }

    #[test]
    fn stored_string_equals_compact_serialization() {
        let s = store();
        assert_eq!(
            s.pages().raw(),
            serialize::serialize(s.typed().doc(), SerializeOptions::compact())
        );
    }

    #[test]
    fn value_ranges_are_the_node_serializations() -> R {
        let s = store();
        let doc = s.typed().doc();
        for id in doc.preorder() {
            let expected = serialize::serialize_node(doc, id, SerializeOptions::compact());
            assert_eq!(s.value_of(id)?, expected, "node {:?}", doc.kind(id));
        }
        Ok(())
    }

    #[test]
    fn pbn_keyed_value_lookup_matches_section_6() -> R {
        // §6's example: the value of the first <author> (1.1.2) is
        // "<author><name>C</name></author>".
        let s = store();
        assert_eq!(
            s.value_of_pbn(&pbn![1, 1, 2])?.as_deref(),
            Some("<author><name>C</name></author>")
        );
        assert_eq!(s.value_of_pbn(&pbn![9, 9])?, None);
        Ok(())
    }

    #[test]
    fn reads_are_charged_and_resettable() -> R {
        let s = store();
        s.reset_counters();
        let _ = s.value_of_pbn(&pbn![1])?;
        let st = s.stats();
        assert!(st.pages_read >= 1);
        assert_eq!(st.bytes_read as usize, s.pages().len());
        s.reset_counters();
        assert_eq!(s.stats().pages_read, 0);
        Ok(())
    }

    #[test]
    fn raw_value_source_stitches_virtual_values_from_store() -> R {
        use vh_core::value::virtual_value;
        use vh_core::VirtualDocument;
        let s = store();
        let vd = VirtualDocument::open(s.typed(), "title { author { name } }")?;
        let title1 = vd.roots()[0];
        s.reset_counters();
        let (v, stats) = virtual_value(&vd, &s, title1)?;
        assert_eq!(v, "<title>X<author><name>C</name></author></title>");
        assert_eq!(stats.raw_copies, 2);
        // The raw copies came from the page store.
        assert!(s.stats().pages_read >= 1);
        assert!(s.stats().bytes_read > 0);
        Ok(())
    }

    #[test]
    fn buffer_pool_classifies_repeated_reads() -> R {
        let s = StoredDocument::build_with_page_size(
            TypedDocument::analyze(paper_figure2()),
            32, // tiny pages so values span several
        )
        .with_buffer_pool(4);
        let root = s.typed().doc().root().ok_or("empty document")?;
        let book1 = s.typed().doc().children(root)[0];
        let _ = s.value_of(book1)?;
        let cold = s.buffer_stats().ok_or("pool attached")?;
        assert!(cold.misses > 0);
        assert_eq!(cold.hits, 0);
        let _ = s.value_of(book1)?;
        let warm = s.buffer_stats().ok_or("pool attached")?;
        assert!(warm.hits > 0, "second read hits the pool: {warm:?}");
        // A store without a pool reports no buffer stats.
        let plain = StoredDocument::build(TypedDocument::analyze(paper_figure2()));
        assert!(plain.buffer_stats().is_none());
        Ok(())
    }

    #[test]
    fn reopened_pbn_assignment_is_byte_identical() -> R {
        let s = store();
        let reopened = s.reopen_pbn()?;
        let original = s.typed().pbn();
        assert_eq!(reopened.arena(), original.arena());
        assert_eq!(reopened.in_document_order(), original.in_document_order());
        for id in s.typed().doc().preorder() {
            assert_eq!(reopened.key_of(id), original.key_of(id));
        }
        Ok(())
    }

    #[test]
    fn stats_cover_all_components() {
        let s = store();
        let st = s.stats();
        assert!(st.document_bytes > 0);
        assert!(st.value_index_bytes > 0);
        assert!(st.header_bytes > 0);
        assert!(st.pbn_column_bytes > 0);
        assert_eq!(st.document_pages, 1, "small document fits one page");
        assert!(st.total_bytes() > st.document_bytes);
    }
}
