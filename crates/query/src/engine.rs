//! The [`Engine`]: a document registry with one-call query evaluation.
//!
//! This is the component a user of the paper's system would interact with:
//! register documents once (they are analyzed — PBN numbers, DataGuide,
//! type map), then run FLWR queries whose sources name them through
//! `doc("uri")` or `virtualDoc("uri", "vDataGuide")`. `virtualDoc` views
//! are compiled on first use and served from the sharded
//! [`ExecCache`], which keeps each `(uri, specification)` view as one
//! entry — its vDataGuide expansion, Algorithm-1 level map and scan-range
//! prefix tables, stamped with the document generation — so Algorithm 1
//! runs once per view, not once per query, and a warm open does no
//! per-node work: a view's nodes are the document's type index. An edit
//! bumps the document's generation; the next open of a view catches it
//! up or recompiles it.
//! The engine is `Sync`: reads ([`Engine::run`]) can run from many
//! threads against one registry.
//!
//! # The request API
//!
//! [`Engine::run`] is the single entry point: it takes a [`QueryRequest`]
//! (FLWR text, a pre-parsed query, or an XPath over a physical or virtual
//! view, plus per-request limits/exec/trace overrides) and returns a
//! [`QueryOutcome`] carrying the result document, per-query
//! [`QueryStats`], and — when tracing was requested — a [`QueryTrace`]
//! span tree with per-stage timings, per-view cache provenance, axis
//! range selections (type-index and arena slot brackets) and operator
//! counts. [`Engine::explain`] forces tracing on and wraps the result in
//! an [`Explain`] with text/JSON renderings; [`Engine::snapshot`] and
//! [`Engine::metrics_text`] expose the cumulative counters. The API is
//! [`QueryRequest`] in, [`QueryOutcome`] out.

use crate::doc::{PhysicalDoc, QueryDoc, VirtualDoc};
use crate::edit::{Edit, EditReceipt, EditRecovery, ReplayFailure};
use crate::error::Limits;
use crate::flwr::ast::{Clause, FlwrQuery, Origin};
use crate::flwr::eval::{copy_node, eval_flwr_multi_limited, DocSet, FlwrError, RESULTS_ROOT};
use crate::flwr::parse::parse_flwr;
use crate::xpath::ast::XPath;
use crate::xpath::eval::eval_xpath_limited;
use crate::xpath::parse::parse_xpath;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;
use vh_core::cache::{CacheStats, CatchUp, ViewKey};
use vh_core::{CompiledView, ExecCache, ExecOptions, VirtualDocument};
use vh_dataguide::{resolve_path, TypedDocument};
use vh_obs::{
    AxisCounters, CacheOutcome, PromWriter, QueryCounterCells, QueryCounters, QueryStats,
    QueryTrace, Span, TraceBuilder, ViewProvenance,
};
use vh_storage::buffer::BufferStats;
use vh_storage::stats::StorageStats;
use vh_storage::store::StoredDocument;
use vh_storage::{replay, EditWal, StorageError};
use vh_xml::{Document, NodeId};

// --------------------------------------------------------- request API ---

/// What a [`QueryRequest`] asks the engine to evaluate — the typed query
/// classes of the frozen v1 API. One of these (not four optional fields)
/// is the request's payload, so in-process callers and the `vh-serve`
/// wire protocol share one request shape: each wire query verb maps onto
/// exactly one `QueryKind` constructor.
#[derive(Clone, Debug, PartialEq)]
pub enum QueryKind {
    /// FLWR query text, parsed by the engine.
    Flwr(String),
    /// An already-parsed FLWR query (skips the parse stage).
    Parsed(FlwrQuery),
    /// An XPath over one registered document — physical when `spec` is
    /// `None`, over the virtual view compiled from `spec` otherwise.
    Path {
        /// The registered document's URI.
        uri: String,
        /// The vDataGuide transform spec of the virtual view, or `None`
        /// to navigate the physical document.
        spec: Option<String>,
        /// The XPath to evaluate.
        path: String,
    },
}

impl QueryKind {
    /// The stable label stamped on traces and metrics for this class.
    pub fn label(&self) -> &'static str {
        match self {
            QueryKind::Flwr(_) => "flwr",
            QueryKind::Parsed(_) => "flwr-parsed",
            QueryKind::Path { spec: None, .. } => "path",
            QueryKind::Path { spec: Some(_), .. } => "virtual-path",
        }
    }
}

/// One query for [`Engine::run`]: what to evaluate plus per-request
/// overrides of the engine's limits and execution options, and whether
/// to collect a [`QueryTrace`].
///
/// Built with [`QueryRequest::flwr`] / [`QueryRequest::parsed`] /
/// [`QueryRequest::path`] / [`QueryRequest::virtual_path`] and the
/// `with_*` methods.
#[derive(Clone, Debug, PartialEq)]
pub struct QueryRequest {
    kind: QueryKind,
    limits: Option<Limits>,
    exec: Option<ExecOptions>,
    trace: bool,
}

impl QueryRequest {
    /// A request evaluating `kind` with the engine's default limits,
    /// execution options and tracing off.
    pub fn new(kind: QueryKind) -> Self {
        QueryRequest {
            kind,
            limits: None,
            exec: None,
            trace: false,
        }
    }

    /// A FLWR query from source text.
    pub fn flwr(query: impl Into<String>) -> Self {
        Self::new(QueryKind::Flwr(query.into()))
    }

    /// An already-parsed FLWR query (the parse stage is skipped).
    pub fn parsed(query: FlwrQuery) -> Self {
        Self::new(QueryKind::Parsed(query))
    }

    /// An XPath over the physical document registered at `uri`.
    pub fn path(uri: impl Into<String>, path: impl Into<String>) -> Self {
        Self::new(QueryKind::Path {
            uri: uri.into(),
            spec: None,
            path: path.into(),
        })
    }

    /// An XPath over the virtual view `spec` of the document at `uri`.
    pub fn virtual_path(
        uri: impl Into<String>,
        spec: impl Into<String>,
        path: impl Into<String>,
    ) -> Self {
        Self::new(QueryKind::Path {
            uri: uri.into(),
            spec: Some(spec.into()),
            path: path.into(),
        })
    }

    /// The typed query class this request evaluates.
    pub fn kind(&self) -> &QueryKind {
        &self.kind
    }

    /// Overrides the engine's resource limits for this request.
    pub fn with_limits(mut self, limits: Limits) -> Self {
        self.limits = Some(limits);
        self
    }

    /// Overrides the engine's execution options for this request.
    pub fn with_exec(mut self, exec: ExecOptions) -> Self {
        self.exec = Some(exec);
        self
    }

    /// Turns span/counter collection on or off (off by default).
    pub fn with_trace(mut self, trace: bool) -> Self {
        self.trace = trace;
        self
    }

    /// Whether this request collects a trace.
    pub fn trace_enabled(&self) -> bool {
        self.trace
    }
}

/// What [`Engine::run`] returns: the result document, per-query
/// statistics, and the span tree when tracing was requested.
#[derive(Clone, Debug)]
pub struct QueryOutcome {
    /// The result document — rooted at `<results>` for FLWR queries, and
    /// holding copies of the selected nodes for path requests.
    pub document: Document,
    /// For path requests, the selected node ids in the *source* document
    /// (`None` for FLWR queries, whose results are constructed nodes).
    pub nodes: Option<Vec<NodeId>>,
    /// Stage timings, result size, cache provenance and operator counts.
    pub stats: QueryStats,
    /// The span tree; `Some` exactly when the request enabled tracing.
    pub trace: Option<QueryTrace>,
}

impl QueryOutcome {
    /// The result document serialized compactly.
    pub fn to_string_compact(&self) -> String {
        vh_xml::serialize(&self.document, vh_xml::SerializeOptions::compact())
    }
}

/// The rendered plan of one traced query: [`Engine::explain`] output.
#[derive(Clone, Debug)]
pub struct Explain {
    /// The statistics of the explaining run.
    pub stats: QueryStats,
    /// The full span tree of the explaining run.
    pub trace: QueryTrace,
}

impl Explain {
    /// Human-readable span tree (the CLI's `--explain` output).
    pub fn text(&self) -> String {
        self.trace.render_text()
    }

    /// The trace as JSON (round-trips through
    /// [`QueryTrace::from_json`]).
    pub fn json(&self) -> String {
        self.trace.to_json()
    }
}

/// One engine-wide statistics snapshot: compiled-view cache counters,
/// storage and buffer-pool counters aggregated over the attached stores,
/// and cumulative query counters. Returned by [`Engine::snapshot`].
#[derive(Clone, Debug, Default)]
pub struct EngineSnapshot {
    /// Hit/miss/eviction counters of the compiled-view cache.
    pub cache: CacheStats,
    /// Storage sizes and access counters, merged over attached stores.
    pub storage: StorageStats,
    /// Buffer-pool counters, merged over attached stores with pools.
    pub buffers: BufferStats,
    /// Cumulative query counters since the engine was created.
    pub queries: QueryCounters,
}

// --------------------------------------------------------------- engine ---

/// Default number of delta-segment entries a document may accumulate
/// during an [`Engine::apply_all`] batch or WAL replay before it is
/// compacted mid-stream.
pub const DEFAULT_COMPACT_THRESHOLD: usize = 1024;

/// A registry of analyzed documents plus the query entry points.
pub struct Engine {
    docs: HashMap<String, TypedDocument>,
    /// Compiled views shared across queries (and threads).
    cache: Arc<ExecCache>,
    /// Execution options stamped onto every view this engine opens.
    exec: ExecOptions,
    /// Resource limits applied to every query this engine evaluates.
    limits: Limits,
    /// Cumulative query counters (a few relaxed adds per query).
    counters: QueryCounterCells,
    /// Page stores attached for storage-stats reporting (see
    /// [`Engine::attach_store`]); queries never read through them.
    stores: HashMap<String, StoredDocument>,
    /// The engine-wide write-ahead edit log. An edit is acknowledged only
    /// after its frame is appended *and synced* here, so the synced
    /// prefix always reproduces the acknowledged document state.
    wal: EditWal,
    /// Highest WAL sequence number already applied to the registry —
    /// [`Engine::recover`] skips records at or below it (idempotent
    /// replay).
    applied_seq: u64,
    /// Delta-segment entries a document may accumulate mid-batch before
    /// being compacted (see [`Engine::set_compact_threshold`]).
    compact_threshold: usize,
    /// Per-URI document generation, bumped whenever a structural edit
    /// batch commits or a URI is re-registered. Cached entries carry
    /// the generation they reflect ([`Stamped`]); a lookup whose entry is
    /// older catches it up or recomputes it, so no entry is served at a
    /// generation it missed.
    doc_gen: HashMap<String, u64>,
}

// Concurrent readers share one engine (vh-serve runs a tenant's queries
// under a shared `RwLock` read guard), so a field that is not `Sync`
// must fail the build here rather than force a mutex back on callers.
const _: () = {
    const fn send_sync<T: Send + Sync>() {}
    send_sync::<Engine>();
};

impl Default for Engine {
    fn default() -> Self {
        Engine {
            docs: HashMap::new(),
            cache: Arc::default(),
            exec: ExecOptions::default(),
            limits: Limits::default(),
            counters: QueryCounterCells::new(),
            stores: HashMap::new(),
            wal: EditWal::new(),
            applied_seq: 0,
            compact_threshold: DEFAULT_COMPACT_THRESHOLD,
            doc_gen: HashMap::new(),
        }
    }
}

impl Engine {
    /// Creates an empty engine with [`Limits::default`] guards.
    pub fn new() -> Self {
        Engine::default()
    }

    /// Creates an empty engine with explicit resource limits.
    pub fn with_limits(limits: Limits) -> Self {
        Engine {
            limits,
            ..Engine::default()
        }
    }

    /// Replaces the resource limits applied to subsequent queries.
    pub fn set_limits(&mut self, limits: Limits) {
        self.limits = limits;
    }

    /// The resource limits currently in force.
    pub fn limits(&self) -> Limits {
        self.limits
    }

    /// Replaces the execution options (threads, caching) applied to every
    /// view opened by subsequent queries.
    pub fn set_exec_options(&mut self, exec: ExecOptions) {
        self.exec = exec;
    }

    /// The execution options currently in force.
    pub fn exec_options(&self) -> ExecOptions {
        self.exec
    }

    /// Parses and registers an XML string under its URI.
    pub fn register_xml(&mut self, uri: &str, xml: &str) -> Result<(), vh_xml::ParseError> {
        let td = TypedDocument::parse(uri, xml)?;
        self.install(uri.to_owned(), td);
        Ok(())
    }

    /// Registers an already-built document under its URI, invalidating any
    /// cached views of a previous document at that URI.
    pub fn register(&mut self, doc: Document) {
        let uri = doc.uri().to_owned();
        let td = TypedDocument::analyze(doc);
        self.install(uri, td);
    }

    /// Stores an analyzed document, evicting all cached views of the URI.
    /// Re-registration is not an edit — the new document's guide is not
    /// a growth of the old one — so the generation is bumped and the
    /// cache hard-evicted.
    fn install(&mut self, uri: String, td: TypedDocument) {
        self.cache.invalidate_uri(&uri);
        self.stores.remove(&uri);
        *self.doc_gen.entry(uri.clone()).or_insert(0) += 1;
        self.docs.insert(uri, td);
    }

    /// The analyzed document registered under `uri`.
    pub fn document(&self, uri: &str) -> Option<&TypedDocument> {
        self.docs.get(uri)
    }

    /// Builds (or returns the existing) page store for the document at
    /// `uri`, so [`Engine::snapshot`] can report storage sizes and access
    /// counters for it. Queries evaluate against the in-memory analyzed
    /// document either way.
    pub fn attach_store(&mut self, uri: &str) -> Result<&StoredDocument, FlwrError> {
        let td = self
            .docs
            .get(uri)
            .ok_or_else(|| FlwrError::UnknownDocument(uri.to_owned()))?;
        Ok(self
            .stores
            .entry(uri.to_owned())
            .or_insert_with(|| StoredDocument::build(td.clone())))
    }

    // ----------------------------------------------------------- edits ---

    /// Applies one [`Edit`] to its registered document.
    ///
    /// The mutation runs in memory first (validation and application are
    /// one step — the document layer rejects bad paths, positions and
    /// cyclic moves before changing anything), then the edit's frame is
    /// appended **and synced** to the write-ahead log, and only then is
    /// the receipt produced. A crash at any point loses at most the one
    /// unacknowledged edit: [`Engine::recover`] rebuilds exactly the
    /// acknowledged state from the base documents plus the synced log.
    ///
    /// Sibling numbers are minted *between* their neighbours
    /// ([`vh_pbn::KeyGen`]), so no existing node is ever renumbered. The
    /// edit's dirtied nodes are spliced into the byte arena before this
    /// returns ([`vh_pbn::PbnAssignment::compact`]: a block copy of the
    /// surviving keys plus encodes of the touched ones), so readers
    /// ([`Engine::run`] takes `&self`) always see a fresh arena.
    pub fn apply(&mut self, edit: Edit) -> Result<EditReceipt, FlwrError> {
        self.apply_traced(edit, false).map(|(receipt, _)| receipt)
    }

    /// [`Engine::apply`] with an optional `apply` span tree (metadata:
    /// edit kind and URI; children: the `compact` span when the delta
    /// segment is drained).
    pub fn apply_traced(
        &mut self,
        edit: Edit,
        traced: bool,
    ) -> Result<(EditReceipt, Option<QueryTrace>), FlwrError> {
        let mut trace = if traced {
            TraceBuilder::enabled("apply")
        } else {
            TraceBuilder::disabled()
        };
        trace.meta("kind", edit.kind());
        trace.meta("uri", edit.uri());
        let nodes_touched = match self.apply_inner(&edit, &mut trace) {
            Ok(n) => n,
            Err(e) => {
                self.counters.record_edit_failure();
                return Err(e);
            }
        };
        let seq = self.log_edit(&edit);
        trace.count("wal.seq", seq);
        let compacted = self.drain_delta(edit.uri(), &mut trace);
        self.commit_batch(edit.uri());
        Ok((
            EditReceipt {
                seq,
                uri: edit.uri().to_owned(),
                kind: edit.kind(),
                nodes_touched,
                compacted,
            },
            trace.finish(),
        ))
    }

    /// Applies a batch of edits in order. Unlike repeated
    /// [`Engine::apply`] calls, the delta segment of each document is
    /// allowed to accumulate up to the compaction threshold between
    /// edits and is drained once per document at the end of the batch —
    /// the receipts' `compacted` fields report only mid-batch threshold
    /// compactions. Stops at the first rejected edit; everything before
    /// it is applied and durable.
    pub fn apply_all(&mut self, edits: Vec<Edit>) -> Result<Vec<EditReceipt>, FlwrError> {
        let mut trace = TraceBuilder::disabled();
        let mut receipts = Vec::with_capacity(edits.len());
        // One entry per touched document: the whole batch commits one
        // generation at the end (or on the error path), never one per
        // edit.
        let mut touched: Vec<String> = Vec::new();
        for edit in edits {
            let nodes_touched = match self.apply_inner(&edit, &mut trace) {
                Ok(n) => n,
                Err(e) => {
                    self.counters.record_edit_failure();
                    self.drain_touched(&touched, &mut trace);
                    return Err(e);
                }
            };
            let seq = self.log_edit(&edit);
            if !touched.iter().any(|u| u == edit.uri()) {
                touched.push(edit.uri().to_owned());
            }
            let compacted = if self.delta_of(edit.uri()) >= self.compact_threshold {
                self.drain_delta(edit.uri(), &mut trace)
            } else {
                0
            };
            receipts.push(EditReceipt {
                seq,
                uri: edit.uri().to_owned(),
                kind: edit.kind(),
                nodes_touched,
                compacted,
            });
        }
        self.drain_touched(&touched, &mut trace);
        Ok(receipts)
    }

    /// Rebuilds the acknowledged document state from a write-ahead log.
    ///
    /// `bytes` is the persisted log (torn tails and corrupt frames are
    /// quarantined by [`vh_storage::replay`], never applied). Records
    /// whose sequence number was already applied in this engine are
    /// skipped, so replay is idempotent; the remainder are re-applied in
    /// order against the registered base documents. Replay stops at the
    /// first record that fails to decode or re-apply — the failure is
    /// reported, never papered over — and the engine adopts the readable
    /// log prefix as its own, so subsequent edits append after it.
    ///
    /// Only log-level corruption of the header is an `Err`; everything
    /// else is reported in the returned [`EditRecovery`].
    pub fn recover(&mut self, bytes: &[u8]) -> Result<EditRecovery, StorageError> {
        self.recover_traced(bytes, false)
    }

    /// [`Engine::recover`] with an optional `recover` span tree.
    pub fn recover_traced(
        &mut self,
        bytes: &[u8],
        traced: bool,
    ) -> Result<EditRecovery, StorageError> {
        let mut trace = if traced {
            TraceBuilder::enabled("recover")
        } else {
            TraceBuilder::disabled()
        };
        let (wal, report) = EditWal::from_bytes(bytes.to_vec())?;
        // The adopted log is the validated clean prefix, so this second
        // pass cannot fail or quarantine further.
        let (records, _) = replay(wal.as_bytes())?;
        let mut rec = EditRecovery {
            wal: report,
            ..EditRecovery::default()
        };
        let mut touched: Vec<String> = Vec::new();
        for r in &records {
            if r.seq <= self.applied_seq {
                rec.skipped += 1;
                continue;
            }
            let edit = match Edit::decode(&r.payload) {
                Ok(e) => e,
                Err(e) => {
                    rec.failed.push(ReplayFailure {
                        seq: r.seq,
                        reason: e.to_string(),
                    });
                    break;
                }
            };
            match self.apply_inner(&edit, &mut trace) {
                Ok(_) => {
                    self.applied_seq = r.seq;
                    rec.replayed += 1;
                    self.counters.record_edit(true);
                    if !touched.iter().any(|u| u == edit.uri()) {
                        touched.push(edit.uri().to_owned());
                    }
                    // Bound the delta segment during long replays.
                    if self.delta_of(edit.uri()) >= self.compact_threshold {
                        rec.compacted += self.drain_delta(edit.uri(), &mut trace);
                    }
                }
                Err(e) => {
                    rec.failed.push(ReplayFailure {
                        seq: r.seq,
                        reason: e.to_string(),
                    });
                    break;
                }
            }
        }
        for uri in &touched {
            rec.compacted += self.drain_delta(uri, &mut trace);
            self.commit_batch(uri);
        }
        self.wal = wal;
        trace.count("recover.replayed", rec.replayed);
        trace.count("recover.skipped", rec.skipped);
        rec.trace = trace.finish();
        Ok(rec)
    }

    /// Replaces the mid-batch compaction threshold (clamped to ≥ 1).
    pub fn set_compact_threshold(&mut self, threshold: usize) {
        self.compact_threshold = threshold.max(1);
    }

    /// The mid-batch compaction threshold currently in force.
    pub fn compact_threshold(&self) -> usize {
        self.compact_threshold
    }

    /// The engine's write-ahead edit log as bytes — what `vpbn edit`
    /// persists after a batch. Includes only synced frames plus any
    /// staged-but-unsynced tail (none, between [`Engine::apply`] calls).
    pub fn wal_bytes(&self) -> &[u8] {
        self.wal.as_bytes()
    }

    /// Highest WAL sequence number applied to this registry.
    pub fn applied_seq(&self) -> u64 {
        self.applied_seq
    }

    /// Validates and applies one edit to its document. Cached views are
    /// **not** evicted here: the batch bumps the document's generation
    /// once it commits ([`Engine::commit_batch`]). Returns the number of
    /// nodes touched.
    /// Does **not** log or compact.
    #[deny(
        clippy::wildcard_enum_match_arm,
        clippy::match_wildcard_for_single_variants
    )]
    fn apply_inner(&mut self, edit: &Edit, trace: &mut TraceBuilder) -> Result<u64, FlwrError> {
        let uri = edit.uri();
        let td = self
            .docs
            .get_mut(uri)
            .ok_or_else(|| FlwrError::UnknownDocument(uri.to_owned()))?;
        let nodes_touched = match edit {
            Edit::InsertSubtree {
                parent, pos, xml, ..
            } => {
                let parent = resolve_path(td.doc(), parent)?;
                let root = td.insert_fragment(parent, *pos, xml)?;
                td.doc().descendants_or_self(root).count() as u64
            }
            Edit::DeleteSubtree { target, .. } => {
                let target = resolve_path(td.doc(), target)?;
                td.delete_subtree(target)? as u64
            }
            Edit::MoveSubtree {
                target,
                parent,
                pos,
                ..
            } => {
                let t = resolve_path(td.doc(), target)?;
                let p = resolve_path(td.doc(), parent)?;
                td.move_subtree(t, p, *pos)?;
                td.doc().descendants_or_self(t).count() as u64
            }
            Edit::SetValue { target, value, .. } => {
                let t = resolve_path(td.doc(), target)?;
                td.set_value(t, value)?;
                1
            }
        };
        trace.count("edit.nodes_touched", nodes_touched);
        self.stores.remove(uri);
        Ok(nodes_touched)
    }

    /// Makes an applied edit durable: encodes, appends and syncs its WAL
    /// frame, advances the applied sequence and counts it. Returns the
    /// edit's sequence number.
    fn log_edit(&mut self, edit: &Edit) -> u64 {
        let payload = edit.encode();
        let seq = self.wal.append(&payload);
        self.wal.sync();
        self.applied_seq = seq;
        self.counters.record_edit(false);
        seq
    }

    /// Merges `uri`'s delta segment into its byte arena under a `compact`
    /// span. Returns the number of entries merged (0 when already
    /// compact). No cached artifact addresses arena slots directly, so a
    /// drain does not evict; the batch commits through
    /// [`Engine::commit_batch`] afterwards.
    fn drain_delta(&mut self, uri: &str, trace: &mut TraceBuilder) -> usize {
        let Some(td) = self.docs.get_mut(uri) else {
            return 0;
        };
        if td.delta_len() == 0 {
            return 0;
        }
        trace.begin("compact");
        trace.meta("uri", uri);
        let merged = td.compact();
        trace.count("compact.merged", merged as u64);
        trace.end();
        self.counters.record_compaction();
        merged
    }

    /// Drains and commits every URI in `touched` (end-of-batch cleanup,
    /// also taken on the error path so the partially applied prefix is
    /// consistent with the cache).
    fn drain_touched(&mut self, touched: &[String], trace: &mut TraceBuilder) {
        for uri in touched {
            self.drain_delta(uri, trace);
            self.commit_batch(uri);
        }
    }

    /// Outstanding delta-segment length of `uri` (0 for unknown URIs).
    fn delta_of(&self, uri: &str) -> usize {
        self.docs.get(uri).map_or(0, TypedDocument::delta_len)
    }

    /// The current document generation of `uri`.
    fn gen_of(&self, uri: &str) -> u64 {
        self.doc_gen.get(uri).copied().unwrap_or(0)
    }

    /// Commits a batch of `uri`: if it numbered or retired a node, the
    /// document generation is bumped. No view is touched: each catches up
    /// on its next open ([`vh_core::cache::ExecCache::catch_up`]), so an
    /// edit's cache work does not grow with the number of cached views.
    /// Value-only batches keep the generation — no cached artifact
    /// depends on text content.
    fn commit_batch(&mut self, uri: &str) {
        if self
            .docs
            .get_mut(uri)
            .is_some_and(TypedDocument::take_reshaped)
        {
            *self.doc_gen.entry(uri.to_owned()).or_insert(0) += 1;
        }
    }

    // ------------------------------------------------------------- run ---

    /// Evaluates one [`QueryRequest`] end to end. This is the single
    /// query entry point.
    pub fn run(&self, req: &QueryRequest) -> Result<QueryOutcome, FlwrError> {
        let mut trace = if req.trace {
            TraceBuilder::enabled("query")
        } else {
            TraceBuilder::disabled()
        };
        match self.run_inner(req, &mut trace) {
            Ok((document, nodes, stats)) => {
                self.counters.record_query(&stats, req.trace);
                Ok(QueryOutcome {
                    document,
                    nodes,
                    stats,
                    trace: trace.finish(),
                })
            }
            Err(e) => {
                self.counters.record_failure();
                Err(e)
            }
        }
    }

    /// Runs a request with tracing forced on and returns the rendered
    /// plan: stage spans, per-view cache provenance, chosen axis ranges
    /// (type-index and arena slot brackets) and operator counts.
    pub fn explain(&self, req: &QueryRequest) -> Result<Explain, FlwrError> {
        let traced = req.clone().with_trace(true);
        let out = self.run(&traced)?;
        // Invariant: tracing was forced on, so the outcome carries a
        // trace; the fallback is unreachable.
        let trace = out.trace.unwrap_or_default();
        Ok(Explain {
            stats: out.stats,
            trace,
        })
    }

    /// The stages shared by every request kind: parse → plan (resolve and
    /// open every source view, recording cache provenance) → exec.
    fn run_inner(
        &self,
        req: &QueryRequest,
        trace: &mut TraceBuilder,
    ) -> Result<(Document, Option<Vec<NodeId>>, QueryStats), FlwrError> {
        let t0 = Instant::now();
        let limits = req.limits.unwrap_or(self.limits);
        let exec = req.exec.unwrap_or(self.exec);
        let mut stats = QueryStats::default();
        trace.meta("kind", req.kind.label());

        // ----- parse -----
        trace.begin("parse");
        let tp = Instant::now();
        let mut flwr: Option<&FlwrQuery> = None;
        let parsed_flwr;
        let mut xpath: Option<XPath> = None;
        match &req.kind {
            QueryKind::Flwr(text) => {
                parsed_flwr = Some(parse_flwr(text)?);
                flwr = parsed_flwr.as_ref();
            }
            QueryKind::Parsed(q) => {
                trace.meta("cached", "pre-parsed");
                flwr = Some(q);
            }
            QueryKind::Path { path, .. } => {
                xpath = Some(parse_xpath(path)?);
            }
        }
        stats.parse_ns = elapsed_ns(tp);
        trace.end();

        // ----- plan: resolve origins, open views -----
        trace.begin("plan");
        let tplan = Instant::now();
        let origins: Vec<(String, Option<String>)> = match (&req.kind, flwr) {
            (QueryKind::Path { uri, spec, .. }, _) => vec![(uri.clone(), spec.clone())],
            (_, Some(q)) => flwr_origins(q)?,
            // Invariant: non-path kinds always parsed a FLWR query above.
            (_, None) => unreachable!("path requests carry an xpath"),
        };
        let axis = if trace.is_enabled() {
            Some(Arc::new(AxisCounters::new()))
        } else {
            None
        };
        let mut vdocs: Vec<Option<VirtualDocument<'_>>> = Vec::with_capacity(origins.len());
        let mut phys: Vec<Option<PhysicalDoc<'_>>> = Vec::with_capacity(origins.len());
        for (uri, spec) in &origins {
            match spec {
                Some(s) => {
                    let mut vd = self.open_view(uri, s, exec, trace, &mut stats.views)?;
                    if let Some(ax) = &axis {
                        vd.set_obs(Arc::clone(ax));
                    }
                    vdocs.push(Some(vd));
                    phys.push(None);
                }
                None => {
                    let td = self
                        .docs
                        .get(uri)
                        .ok_or_else(|| FlwrError::UnknownDocument(uri.clone()))?;
                    if trace.is_enabled() {
                        let mut s = Span::named("document");
                        s.meta.push(("uri".to_owned(), uri.clone()));
                        trace.child(s);
                    }
                    vdocs.push(None);
                    phys.push(Some(PhysicalDoc::new(td)));
                }
            }
        }
        stats.plan_ns = elapsed_ns(tplan);
        trace.end();

        // ----- exec -----
        trace.begin("exec");
        let te = Instant::now();
        let virt: Vec<Option<VirtualDoc<'_>>> = vdocs
            .iter()
            .map(|o| o.as_ref().map(VirtualDoc::new))
            .collect();
        let (document, nodes) = if let Some(p) = &xpath {
            // Invariant: path requests planned exactly one origin above.
            let doc: &dyn QueryDoc = match (&virt[0], &phys[0]) {
                (Some(v), _) => v,
                (None, Some(p)) => p,
                (None, None) => unreachable!("the single origin was opened"),
            };
            let ids = eval_xpath_limited(doc, p, limits)?;
            let mut out = Document::new("results");
            let root = out.create_root(RESULTS_ROOT);
            for &n in &ids {
                copy_node(doc, n, &mut out, root);
            }
            (out, Some(ids))
        } else {
            let mut entries: Vec<(String, Option<String>, &dyn QueryDoc)> =
                Vec::with_capacity(origins.len());
            for (i, (uri, spec)) in origins.iter().enumerate() {
                // Invariant: the plan loop pushed exactly one of
                // virt/phys per origin.
                let doc: &dyn QueryDoc = match (&virt[i], &phys[i]) {
                    (Some(v), _) => v,
                    (None, Some(p)) => p,
                    (None, None) => unreachable!("every origin is virtual or physical"),
                };
                entries.push((uri.clone(), spec.clone(), doc));
            }
            // Invariant: non-path kinds always carry a FLWR query.
            let q = match flwr {
                Some(q) => q,
                None => unreachable!("checked above"),
            };
            let out = eval_flwr_multi_limited(q, &DocSet::new(entries), limits)?;
            (out, None)
        };
        stats.exec_ns = elapsed_ns(te);
        stats.result_nodes = match &nodes {
            Some(ids) => ids.len() as u64,
            None => document
                .root()
                .map_or(0, |r| document.children(r).len() as u64),
        };
        if let Some(ax) = &axis {
            stats.axis = ax.snapshot();
        }
        if trace.is_enabled() {
            // Operator counters are always named, even at zero, so
            // EXPLAIN output has a stable vocabulary.
            trace.count("axis.range_scans", stats.axis.range_scans);
            trace.count("axis.slots_scanned", stats.axis.slots_scanned);
            trace.count("axis.exact_regions", stats.axis.exact_regions);
            trace.count("axis.filter_checks", stats.axis.filter_checks);
            trace.count("result.nodes", stats.result_nodes);
            for r in &stats.axis.ranges {
                let mut s = Span::named("arena-range-selection");
                s.meta.push(("context".to_owned(), r.context.clone()));
                s.meta.push(("target".to_owned(), r.target.clone()));
                s.meta.push(("pinned".to_owned(), r.pinned.to_string()));
                s.meta.push(("exact".to_owned(), r.exact.to_string()));
                s.meta.push((
                    "index".to_owned(),
                    format!("[{},{})", r.index_start, r.index_end),
                ));
                s.meta.push((
                    "arena".to_owned(),
                    format!("[{},{})", r.arena_start, r.arena_end),
                ));
                trace.child(s);
            }
        }
        trace.end();
        stats.total_ns = elapsed_ns(t0);
        Ok((document, nodes, stats))
    }

    /// Opens the virtual view `spec` of `uri`, going through the
    /// compiled-view cache when `exec` allows, and records its cache
    /// provenance. A view compiled by this open (computed or bypassed)
    /// carries one child span per build stage.
    fn open_view<'a>(
        &'a self,
        uri: &str,
        spec: &str,
        exec: ExecOptions,
        trace: &mut TraceBuilder,
        views: &mut Vec<ViewProvenance>,
    ) -> Result<VirtualDocument<'a>, FlwrError> {
        let td = self
            .docs
            .get(uri)
            .ok_or_else(|| FlwrError::UnknownDocument(uri.to_owned()))?;
        trace.begin("view");
        trace.meta("uri", uri);
        trace.meta("spec", spec);
        let (view, cache) = if exec.cache {
            let gen = self.gen_of(uri);
            let key = ViewKey::new(uri, spec);
            let caught = self.cache.catch_up(&key, gen, td);
            if caught != CatchUp::default() {
                trace.count("cache.maintained", caught.maintained);
                trace.count("cache.recomputed", caught.recomputed);
            }
            self.cache
                .get_or_compile(&key, gen, || CompiledView::compile(td, spec, trace))?
        } else {
            let view = CompiledView::compile(td, spec, trace)?;
            (view, CacheOutcome::Bypassed)
        };
        trace.meta("cache", cache.label());
        views.push(ViewProvenance {
            uri: uri.to_owned(),
            spec: spec.to_owned(),
            cache,
        });
        trace.end(); // view
        let mut vd = VirtualDocument::new(td, view);
        vd.set_exec(exec);
        Ok(vd)
    }

    /// Opens a virtual document for direct navigation, using (and filling)
    /// the compiled-view cache unless caching is disabled in the
    /// execution options. The returned view carries the engine's
    /// [`ExecOptions`].
    pub fn virtual_doc<'a>(
        &'a self,
        uri: &str,
        spec: &str,
    ) -> Result<VirtualDocument<'a>, FlwrError> {
        let mut trace = TraceBuilder::disabled();
        let mut views = Vec::new();
        self.open_view(uri, spec, self.exec, &mut trace, &mut views)
    }

    // --------------------------------------------------- statistics -----

    /// One consolidated statistics snapshot: compiled-view cache
    /// counters, storage/buffer counters merged over the attached
    /// stores, and cumulative query counters.
    ///
    /// The whole composite is read under a stable cache maintenance
    /// epoch: if a concurrent open catches a view up while the snapshot
    /// is being assembled, the read
    /// retries, so the returned stats can never mix cache state from
    /// before the catch-up with counters from after it.
    pub fn snapshot(&self) -> EngineSnapshot {
        loop {
            let epoch = self.cache.epoch();
            if epoch % 2 == 1 {
                std::hint::spin_loop();
                continue;
            }
            let mut storage = StorageStats::default();
            let mut buffers = BufferStats::default();
            for store in self.stores.values() {
                storage.merge(&store.stats());
                if let Some(b) = store.buffer_stats() {
                    buffers.merge(&b);
                }
            }
            let snap = EngineSnapshot {
                cache: self.cache.stats(),
                storage,
                buffers,
                queries: self.counters.snapshot(),
            };
            if self.cache.epoch() == epoch {
                return snap;
            }
        }
    }

    /// The cumulative engine counters as a Prometheus text exposition.
    pub fn metrics_text(&self) -> String {
        let snap = self.snapshot();
        let mut w = PromWriter::new();
        w.counter("vpbn_queries_total", "Queries attempted.");
        w.sample("vpbn_queries_total", &[], snap.queries.queries);
        w.counter(
            "vpbn_query_failures_total",
            "Queries that returned an error.",
        );
        w.sample("vpbn_query_failures_total", &[], snap.queries.failures);
        w.counter("vpbn_queries_traced_total", "Queries run with tracing on.");
        w.sample("vpbn_queries_traced_total", &[], snap.queries.traced);
        w.counter(
            "vpbn_query_stage_ns_total",
            "Cumulative nanoseconds per query stage.",
        );
        w.sample(
            "vpbn_query_stage_ns_total",
            &[("stage", "parse")],
            snap.queries.parse_ns,
        );
        w.sample(
            "vpbn_query_stage_ns_total",
            &[("stage", "plan")],
            snap.queries.plan_ns,
        );
        w.sample(
            "vpbn_query_stage_ns_total",
            &[("stage", "exec")],
            snap.queries.exec_ns,
        );
        w.sample(
            "vpbn_query_stage_ns_total",
            &[("stage", "total")],
            snap.queries.total_ns,
        );
        w.counter(
            "vpbn_query_result_nodes_total",
            "Result nodes produced across all queries.",
        );
        w.sample(
            "vpbn_query_result_nodes_total",
            &[],
            snap.queries.result_nodes,
        );
        w.counter("vpbn_edits_total", "Edits applied successfully.");
        w.sample("vpbn_edits_total", &[], snap.queries.edits);
        w.counter("vpbn_edit_failures_total", "Edits rejected with an error.");
        w.sample("vpbn_edit_failures_total", &[], snap.queries.edit_failures);
        w.counter(
            "vpbn_replayed_edits_total",
            "Edits re-applied from the write-ahead log by recovery.",
        );
        w.sample(
            "vpbn_replayed_edits_total",
            &[],
            snap.queries.replayed_edits,
        );
        w.counter(
            "vpbn_compactions_total",
            "Delta-segment compactions (automatic and explicit).",
        );
        w.sample("vpbn_compactions_total", &[], snap.queries.compactions);
        w.counter("vpbn_cache_hits_total", "Compiled-view cache hits.");
        w.sample("vpbn_cache_hits_total", &[], snap.cache.views.hits);
        w.counter("vpbn_cache_misses_total", "Compiled-view cache misses.");
        w.sample("vpbn_cache_misses_total", &[], snap.cache.views.misses);
        w.gauge("vpbn_cache_entries", "Live compiled-view cache entries.");
        w.sample("vpbn_cache_entries", &[], snap.cache.views.entries as u64);
        w.counter(
            "vh_cache_maintained_total",
            "Cached views a catch-up kept alive across edit batches.",
        );
        w.sample("vh_cache_maintained_total", &[], snap.cache.maintained);
        w.counter(
            "vh_cache_recomputed_total",
            "Cached views a grown guide invalidated for recompute.",
        );
        w.sample("vh_cache_recomputed_total", &[], snap.cache.recomputed);
        w.gauge(
            "vpbn_storage_resident_bytes",
            "Resident bytes across attached stores.",
        );
        w.sample(
            "vpbn_storage_resident_bytes",
            &[],
            snap.storage.total_bytes() as u64,
        );
        w.counter("vpbn_storage_pages_read_total", "Pages read.");
        w.sample(
            "vpbn_storage_pages_read_total",
            &[],
            snap.storage.pages_read,
        );
        w.counter("vpbn_storage_read_retries_total", "Page read retries.");
        w.sample(
            "vpbn_storage_read_retries_total",
            &[],
            snap.storage.read_retries,
        );
        w.counter(
            "vpbn_storage_checksum_failures_total",
            "Pages delivered with a CRC mismatch.",
        );
        w.sample(
            "vpbn_storage_checksum_failures_total",
            &[],
            snap.storage.checksum_failures,
        );
        w.counter("vpbn_buffer_hits_total", "Buffer-pool hits.");
        w.sample("vpbn_buffer_hits_total", &[], snap.buffers.hits);
        w.counter("vpbn_buffer_misses_total", "Buffer-pool misses.");
        w.sample("vpbn_buffer_misses_total", &[], snap.buffers.misses);
        w.finish()
    }
}

/// Distinct `doc()`/`virtualDoc()` origins of a FLWR query, in clause
/// order.
fn flwr_origins(q: &FlwrQuery) -> Result<Vec<(String, Option<String>)>, FlwrError> {
    let mut origins: Vec<(String, Option<String>)> = Vec::new();
    for c in &q.clauses {
        let origin = match c {
            Clause::For(_, s) | Clause::Let(_, s) => &s.origin,
            Clause::Where(_) | Clause::OrderBy(_) => continue,
        };
        let key = match origin {
            Origin::Doc(uri) => (uri.clone(), None),
            Origin::VirtualDoc(uri, spec) => (uri.clone(), Some(spec.clone())),
            Origin::Var(_) => continue,
        };
        if !origins.contains(&key) {
            origins.push(key);
        }
    }
    if origins.is_empty() {
        return Err(FlwrError::Unsupported(
            "query has no doc()/virtualDoc() source".into(),
        ));
    }
    Ok(origins)
}

/// Nanoseconds since `t`, saturating into `u64`.
fn elapsed_ns(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Runs a query through a transient engine holding a single document —
/// a convenience used by examples and tests.
pub fn query_document(doc: Document, query: &str) -> Result<Document, FlwrError> {
    let mut e = Engine::new();
    e.register(doc);
    Ok(e.run(&QueryRequest::flwr(query))?.document)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::Must;
    use vh_xml::builder::paper_figure2;

    fn engine() -> Engine {
        let mut e = Engine::new();
        e.register(paper_figure2());
        e
    }

    /// Shorthand for the `QueryRequest` spellings the tests use most.
    trait RunExt {
        fn eval(&self, query: &str) -> Result<Document, FlwrError>;
        fn eval_to_string(&self, query: &str) -> Result<String, FlwrError>;
        fn eval_path(&self, uri: &str, path: &str) -> Result<Vec<NodeId>, FlwrError>;
        fn eval_virtual_path(
            &self,
            uri: &str,
            spec: &str,
            path: &str,
        ) -> Result<Vec<NodeId>, FlwrError>;
        fn cached_views(&self) -> usize;
    }

    impl RunExt for Engine {
        fn eval(&self, query: &str) -> Result<Document, FlwrError> {
            Ok(self.run(&QueryRequest::flwr(query))?.document)
        }
        fn eval_to_string(&self, query: &str) -> Result<String, FlwrError> {
            Ok(self.run(&QueryRequest::flwr(query))?.to_string_compact())
        }
        fn eval_path(&self, uri: &str, path: &str) -> Result<Vec<NodeId>, FlwrError> {
            Ok(self
                .run(&QueryRequest::path(uri, path))?
                .nodes
                .unwrap_or_default())
        }
        fn eval_virtual_path(
            &self,
            uri: &str,
            spec: &str,
            path: &str,
        ) -> Result<Vec<NodeId>, FlwrError> {
            Ok(self
                .run(&QueryRequest::virtual_path(uri, spec, path))?
                .nodes
                .unwrap_or_default())
        }
        fn cached_views(&self) -> usize {
            self.snapshot().cache.views.entries
        }
    }

    const RHONDA: &str = r#"for $t in virtualDoc("book.xml", "title { author { name } }")//title
           return <result><title>{$t/text()}</title>
                          <count>{count($t/author)}</count></result>"#;

    #[test]
    fn rhondas_figure6_query_end_to_end() {
        // The headline query of the paper: Rhonda's count over Sam's
        // virtual transformation, via virtualDoc.
        let e = engine();
        let got = e.eval_to_string(RHONDA).must();
        assert_eq!(
            got,
            "<results>\
             <result><title>X</title><count>1</count></result>\
             <result><title>Y</title><count>1</count></result>\
             </results>"
        );
    }

    #[test]
    fn rhondas_nested_pipeline_matches_virtualdoc() {
        // Figure 4's alternative: materialize Sam's output, re-register it,
        // run Rhonda's query on the materialized document. Both roads must
        // agree.
        let mut e = engine();
        // Sam's query (Figure 1).
        let sam = e
            .eval(
                r#"for $t in doc("book.xml")//book/title
                   let $a := $t/../author
                   return <title>{$t/text()}{$a}</title>"#,
            )
            .must();
        e.register(sam); // registered under uri "results"
        let nested = e
            .eval_to_string(
                r#"for $t in doc("results")//title
                   return <result><title>{$t/text()}</title>
                                  <count>{count($t/author)}</count></result>"#,
            )
            .must();
        let virtual_ = e.eval_to_string(RHONDA).must();
        assert_eq!(nested, virtual_);
    }

    #[test]
    fn physical_and_virtual_path_evaluation() {
        let e = engine();
        assert_eq!(e.eval_path("book.xml", "//book").must().len(), 2);
        assert_eq!(
            e.eval_virtual_path("book.xml", "title { author { name } }", "//title/author")
                .must()
                .len(),
            2
        );
    }

    #[test]
    fn unknown_documents_are_reported() {
        let e = engine();
        assert!(matches!(
            e.eval(r#"for $t in doc("nope.xml")//x return <y/>"#),
            Err(FlwrError::UnknownDocument(_))
        ));
        assert!(e.eval_path("nope", "//x").is_err());
    }

    #[test]
    fn cross_document_joins_work() {
        let mut e = engine();
        e.register_xml(
            "prices.xml",
            "<prices><p t='X'>10</p><p t='Y'>25</p></prices>",
        )
        .must();
        // Join books with their prices by title: a genuine two-document
        // pipeline. Each expression stays within one document.
        let got = e
            .eval_to_string(
                r#"for $b in doc("book.xml")//book
                   for $p in doc("prices.xml")//p
                   where $b/title = $p/@t
                   return <row><t>{$b/title/text()}</t><c>{$p/text()}</c></row>"#,
            )
            .must();
        assert_eq!(
            got,
            "<results><row><t>X</t><c>10</c></row><row><t>Y</t><c>25</c></row></results>"
        );
    }

    #[test]
    fn physical_and_virtual_views_mix_in_one_query() {
        let e = engine();
        // $t ranges over the virtual view, $b over the physical document;
        // the join key crosses the two.
        let got = e
            .eval_to_string(
                r#"for $t in virtualDoc("book.xml", "title { author { name } }")//title
                   for $b in doc("book.xml")//book
                   where $b/title = $t/text()
                   return <m><v>{count($t/author)}</v><p>{count($b/author)}</p></m>"#,
            )
            .must();
        assert_eq!(
            got,
            "<results><m><v>1</v><p>1</p></m><m><v>1</v><p>1</p></m></results>"
        );
    }

    #[test]
    fn cross_document_value_functions_decompose() {
        let mut e = engine();
        e.register_xml("other.xml", "<o><x>1</x></o>").must();
        // concat() across documents works via value-level decomposition.
        let got = e
            .eval_to_string(
                r#"for $a in doc("book.xml")//book
                   for $b in doc("other.xml")//o
                   return <x>{concat($a/title, $b/x)}</x>"#,
            )
            .must();
        assert_eq!(got, "<results><x>X1</x><x>Y1</x></results>");
        // A node-set function over a cross-document union cannot be
        // decomposed: clean error, not a panic.
        let err = e.eval(
            r#"for $a in doc("book.xml")//book
               for $b in doc("other.xml")//o
               return <x>{count($a/title | $b/x)}</x>"#,
        );
        assert!(matches!(err, Err(FlwrError::Unsupported(_))), "{err:?}");
    }

    #[test]
    fn compiled_views_are_cached_and_invalidated() {
        let mut e = engine();
        assert_eq!(e.cached_views(), 0);
        let q = r#"for $t in virtualDoc("book.xml", "title { author { name } }")//title
                   return <t>{$t/text()}</t>"#;
        let first = e.eval_to_string(q).must();
        assert_eq!(e.cached_views(), 1);
        let second = e.eval_to_string(q).must();
        assert_eq!(first, second);
        assert_eq!(e.cached_views(), 1, "second run hits the cache");
        // Another spec adds an entry.
        e.eval_virtual_path("book.xml", "data { ** }", "//book")
            .must();
        assert_eq!(e.cached_views(), 2);
        // Re-registering the document invalidates its views.
        e.register(paper_figure2());
        assert_eq!(e.cached_views(), 0);
    }

    #[test]
    fn engine_limits_bound_queries() {
        let mut e = engine();
        e.set_limits(Limits {
            max_result: 1,
            ..Limits::default()
        });
        let q = r#"for $b in doc("book.xml")//book return <t>x</t>"#;
        let err = e.eval(q);
        assert!(
            matches!(err, Err(FlwrError::ResourceExhausted { .. })),
            "{err:?}"
        );
        e.set_limits(Limits::default());
        assert!(e.eval(q).is_ok());
    }

    #[test]
    fn query_document_convenience() {
        let out = query_document(
            paper_figure2(),
            r#"for $b in doc("book.xml")//book return <t>{$b/title/text()}</t>"#,
        )
        .must();
        assert_eq!(
            vh_xml::serialize(&out, vh_xml::SerializeOptions::compact()),
            "<results><t>X</t><t>Y</t></results>"
        );
    }

    // ---------------------------------------------- request API tests ---

    #[test]
    fn run_without_trace_returns_stats_but_no_trace() {
        let e = engine();
        let out = e.run(&QueryRequest::flwr(RHONDA)).must();
        assert!(out.trace.is_none());
        assert_eq!(out.stats.result_nodes, 2);
        assert!(out.stats.stage_ns() <= out.stats.total_ns);
        assert_eq!(out.stats.views.len(), 1);
        assert_eq!(out.stats.views[0].uri, "book.xml");
        // Untraced queries do not pay for axis counters.
        assert_eq!(out.stats.axis.range_scans, 0);
    }

    #[test]
    fn traced_run_collects_spans_and_counters() {
        let e = engine();
        let out = e.run(&QueryRequest::flwr(RHONDA).with_trace(true)).must();
        let trace = out.trace.must();
        assert_eq!(trace.root.name, "query");
        for stage in ["parse", "plan", "exec", "view", "guide-expansion"] {
            assert!(trace.root.find(stage).is_some(), "missing span {stage}");
        }
        let exec = trace.root.find("exec").must();
        assert!(exec.counter("axis.range_scans").must() > 0);
        assert!(exec.find("arena-range-selection").is_some());
        assert!(out.stats.axis.range_scans > 0);
        assert!(!out.stats.axis.ranges.is_empty());
        let r = &out.stats.axis.ranges[0];
        assert!(r.index_end >= r.index_start);
        assert!(r.arena_end >= r.arena_start);
    }

    #[test]
    fn provenance_goes_computed_then_hit() {
        let e = engine();
        let cold = e.run(&QueryRequest::flwr(RHONDA).with_trace(true)).must();
        assert_eq!(cold.stats.views[0].cache, CacheOutcome::Computed);
        let warm = e.run(&QueryRequest::flwr(RHONDA).with_trace(true)).must();
        assert_eq!(warm.stats.views[0].cache, CacheOutcome::Hit);
    }

    #[test]
    fn cache_bypass_reports_bypassed_provenance() {
        let e = engine();
        let req = QueryRequest::flwr(RHONDA)
            .with_trace(true)
            .with_exec(ExecOptions {
                cache: false,
                ..ExecOptions::default()
            });
        let out = e.run(&req).must();
        assert_eq!(out.stats.views[0].cache, CacheOutcome::Bypassed);
        assert_eq!(e.cached_views(), 0, "bypass must not fill the cache");
    }

    #[test]
    fn path_requests_fill_nodes_and_document() {
        let e = engine();
        let out = e.run(&QueryRequest::path("book.xml", "//book")).must();
        assert_eq!(out.nodes.as_ref().must().len(), 2);
        assert_eq!(out.stats.result_nodes, 2);
        let s = out.to_string_compact();
        assert!(s.starts_with("<results><book>"), "{s}");
        let out = e
            .run(&QueryRequest::virtual_path(
                "book.xml",
                "title { author { name } }",
                "//title/author",
            ))
            .must();
        assert_eq!(out.nodes.as_ref().must().len(), 2);
        assert!(out.to_string_compact().contains("<author>"));
    }

    #[test]
    fn per_request_limits_override_engine_limits() {
        let e = engine();
        let req = QueryRequest::flwr(r#"for $b in doc("book.xml")//book return <t>x</t>"#)
            .with_limits(Limits {
                max_result: 1,
                ..Limits::default()
            });
        assert!(matches!(
            e.run(&req),
            Err(FlwrError::ResourceExhausted { .. })
        ));
        // The engine's own limits were not touched.
        assert!(e
            .eval(r#"for $b in doc("book.xml")//book return <t>x</t>"#)
            .is_ok());
    }

    #[test]
    fn parsed_requests_skip_the_parser() {
        let e = engine();
        let q = crate::flwr::parse::parse_flwr(RHONDA).must();
        let out = e.run(&QueryRequest::parsed(q).with_trace(true)).must();
        let trace = out.trace.must();
        assert_eq!(
            trace.root.find("parse").must().meta_value("cached"),
            Some("pre-parsed")
        );
    }

    #[test]
    fn explain_renders_text_and_json() {
        let e = engine();
        let ex = e.explain(&QueryRequest::flwr(RHONDA)).must();
        let text = ex.text();
        for needle in [
            "parse",
            "guide-expansion",
            "arena-range-selection",
            "arena=[",
            "axis.range_scans",
            "cache=",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
        // The JSON exporter round-trips the same trace.
        let back = QueryTrace::from_json(&ex.json()).must();
        assert_eq!(back, ex.trace);
    }

    #[test]
    fn snapshot_and_metrics_cover_all_sections() {
        let mut e = engine();
        e.run(&QueryRequest::flwr(RHONDA)).must();
        let _ = e.run(&QueryRequest::flwr("not a query"));
        e.attach_store("book.xml").must();
        let snap = e.snapshot();
        assert_eq!(snap.queries.queries, 2);
        assert_eq!(snap.queries.failures, 1);
        assert!(snap.queries.total_ns > 0);
        assert!(snap.cache.views.entries > 0);
        assert!(snap.storage.total_bytes() > 0);
        let text = e.metrics_text();
        for needle in [
            "vpbn_queries_total 2",
            "vpbn_query_failures_total 1",
            "vpbn_query_stage_ns_total{stage=\"exec\"}",
            "vpbn_cache_misses_total 1",
            "vh_cache_maintained_total 0",
            "vh_cache_recomputed_total 0",
            "vpbn_storage_resident_bytes",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
        assert!(e.attach_store("nope.xml").is_err());
    }

    #[test]
    fn failed_requests_leave_no_partial_outcome() {
        let e = engine();
        assert!(e
            .run(&QueryRequest::flwr("for $x in").with_trace(true))
            .is_err());
        assert!(e.run(&QueryRequest::path("book.xml", "//[")).is_err());
        let snap = e.snapshot();
        assert_eq!(snap.queries.failures, 2);
    }

    // ----------------------------------------------------------- edits ---

    /// The registered document at `uri`, serialized compactly — the
    /// equality oracle for edit and recovery tests.
    fn doc_text(e: &Engine, uri: &str) -> String {
        vh_xml::serialize(
            e.document(uri).must().doc(),
            vh_xml::SerializeOptions::compact(),
        )
    }

    fn insert_book(title: &str, pos: usize) -> Edit {
        Edit::InsertSubtree {
            uri: "book.xml".into(),
            parent: "1".into(),
            pos,
            xml: format!("<book><title>{title}</title><author><name>Q</name></author></book>"),
        }
    }

    #[test]
    fn applied_edits_are_queryable_and_acknowledged_in_order() {
        let mut e = engine();
        let r1 = e.apply(insert_book("Z", 2)).must();
        assert_eq!(r1.seq, 1);
        assert_eq!(r1.kind, "insert-subtree");
        assert_eq!(r1.nodes_touched, 6); // book+title+text+author+name+text
        assert!(r1.compacted > 0, "single applies drain the delta eagerly");
        let r2 = e
            .apply(Edit::SetValue {
                uri: "book.xml".into(),
                target: "1.3.1".into(),
                value: "Z2".into(),
            })
            .must();
        assert_eq!(r2.seq, 2);
        assert_eq!(e.applied_seq(), 2);
        // Physical, virtual and twig paths all see the new state.
        assert_eq!(e.eval_path("book.xml", "//book").must().len(), 3);
        let got = e.eval_to_string(RHONDA).must();
        assert!(got.contains("<title>Z2</title>"), "{got}");
        let snap = e.snapshot();
        assert_eq!(snap.queries.edits, 2);
        assert_eq!(snap.queries.edit_failures, 0);
        // The insert drained its delta; the in-place text rewrite touched
        // no numbering, so it had nothing to compact.
        assert_eq!(snap.queries.compactions, 1);
        assert_eq!(r2.compacted, 0);
    }

    #[test]
    fn edits_invalidate_cached_views() {
        let mut e = engine();
        // Warm the view, then edit, then re-run: the cached view was
        // built pre-edit and must not serve the second run as it was.
        let before = e.eval_to_string(RHONDA).must();
        assert_eq!(before.matches("<result>").count(), 2);
        e.apply(insert_book("W", 0)).must();
        let after = e.eval_to_string(RHONDA).must();
        assert_eq!(after.matches("<result>").count(), 3);
        assert!(after.contains("<title>W</title>"), "{after}");
    }

    /// Sam's view, the one `RHONDA` queries.
    const SAM: &str = "title { author { name } }";

    /// Opens Sam's view through the engine cache, as a query would.
    fn open_sam(e: &Engine) -> VirtualDocument<'_> {
        e.open_view(
            "book.xml",
            SAM,
            ExecOptions::default(),
            &mut TraceBuilder::disabled(),
            &mut Vec::new(),
        )
        .must()
    }

    /// The address of the expansion Sam's view opens with.
    fn sam_vdg_addr(e: &Engine) -> *const vh_core::VDataGuide {
        open_sam(e).vdg()
    }

    /// Maintained and recomputed totals of the engine's cache.
    fn maintenance(e: &Engine) -> (u64, u64) {
        let c = e.snapshot().cache;
        (c.maintained, c.recomputed)
    }

    #[test]
    fn edits_keep_cached_views_whose_guide_tail_is_harmless() {
        let mut e = engine();
        // Warm the view, then insert a book whose types are all already
        // interned: the whole view survives the catch-up.
        e.eval_to_string(RHONDA).must();
        let warm_vdg = sam_vdg_addr(&e);
        open_sam(&e).order_column();
        e.apply(insert_book("W", 0)).must();
        assert_eq!(maintenance(&e), (0, 0), "the edit itself maintains nothing");
        let warm = e.run(&QueryRequest::flwr(RHONDA).with_trace(true)).must();
        assert_eq!(warm.stats.views[0].cache, CacheOutcome::Maintained);
        assert_eq!(sam_vdg_addr(&e), warm_vdg, "the expansion was kept");
        assert_eq!(maintenance(&e), (1, 0), "the whole view kept");
        assert_eq!(
            warm.to_string_compact().matches("<result>").count(),
            3,
            "the kept view must serve the inserted book"
        );
        let view = warm.trace.must().root.find("view").must().clone();
        assert_eq!(view.counter("cache.maintained"), Some(1));
        // The catch-up emptied the order cell; the next join refills it.
        let vd = open_sam(&e);
        assert!(!vd.compiled().order_checked(), "the column was dropped");
        let fresh = VirtualDocument::open(vd.typed(), SAM).must();
        assert_eq!(vd.order_column(), fresh.order_column());
    }

    #[test]
    fn each_view_catches_up_on_its_own_open() {
        let mut e = engine();
        let specs = [SAM, "title { name { author } }", "data { ** }"];
        for spec in specs {
            e.virtual_doc("book.xml", spec).must();
        }
        for k in 0..5 {
            e.apply(insert_book(&format!("J{k}"), k)).must();
        }
        // No view was touched by the edits.
        assert_eq!(maintenance(&e), (0, 0));
        // The first open catches its view up, once for all five batches.
        e.virtual_doc("book.xml", SAM).must();
        assert_eq!(maintenance(&e), (1, 0));
        // A second open of a caught-up view does nothing.
        e.virtual_doc("book.xml", SAM).must();
        assert_eq!(maintenance(&e), (1, 0));
        for spec in &specs[1..] {
            let vd = e.virtual_doc("book.xml", spec).must();
            let fresh = VirtualDocument::open(vd.typed(), spec).must();
            assert_eq!(vd.preorder(), fresh.preorder(), "{spec}");
        }
        assert_eq!(maintenance(&e), (3, 0));
    }

    #[test]
    fn new_type_edits_recompute_affected_views() {
        let mut e = engine();
        e.eval_to_string(RHONDA).must();
        // A fresh type under the *visible* title: conservative recompute,
        // found by the catch-up although the batch changed the guide.
        e.apply(Edit::InsertSubtree {
            uri: "book.xml".into(),
            parent: "1.1.1".into(),
            pos: 0,
            xml: "<subtitle>s</subtitle>".into(),
        })
        .must();
        let warm = e.run(&QueryRequest::flwr(RHONDA).with_trace(true)).must();
        assert_eq!(maintenance(&e), (0, 1));
        assert_eq!(warm.stats.views[0].cache, CacheOutcome::Computed);
        assert_eq!(warm.to_string_compact().matches("<result>").count(), 2);
    }

    #[test]
    fn value_only_edits_leave_the_cache_untouched() {
        let mut e = engine();
        e.eval_to_string(RHONDA).must();
        e.apply(Edit::SetValue {
            uri: "book.xml".into(),
            target: "1.1.1".into(),
            value: "X2".into(),
        })
        .must();
        assert_eq!(e.gen_of("book.xml"), 1, "no new generation");
        // No part of a view depends on text, so the entry is a plain hit —
        // not even restamped as maintained.
        let warm = e.run(&QueryRequest::flwr(RHONDA).with_trace(true)).must();
        assert_eq!(warm.stats.views[0].cache, CacheOutcome::Hit);
        assert_eq!(maintenance(&e), (0, 0));
        assert!(warm.to_string_compact().contains("<title>X2</title>"));
    }

    #[test]
    fn apply_all_commits_one_generation_per_uri() {
        let mut e = engine();
        e.eval_to_string(RHONDA).must();
        // Three edits, one batch: one new generation, and the catch-up
        // keeps the view once.
        let gen = e.gen_of("book.xml");
        e.apply_all(vec![
            insert_book("A", 0),
            insert_book("B", 1),
            insert_book("C", 2),
        ])
        .must();
        assert_eq!(e.gen_of("book.xml"), gen + 1);
        let after = e.eval_to_string(RHONDA).must();
        assert_eq!(after.matches("<result>").count(), 5);
        assert_eq!(maintenance(&e), (1, 0));
    }

    #[test]
    fn views_survive_batches_that_replace_every_node() {
        let mut e = engine();
        e.eval_to_string(RHONDA).must();
        // Replacing both books by one new book retires more nodes than
        // the document keeps; the guide does not grow, so the view is
        // kept and answers like a cold engine.
        let delete = |target: &str| Edit::DeleteSubtree {
            uri: "book.xml".into(),
            target: target.into(),
        };
        e.apply_all(vec![delete("1.2"), delete("1.1"), insert_book("N", 0)])
            .must();
        let warm = e.run(&QueryRequest::flwr(RHONDA).with_trace(true)).must();
        assert_eq!(warm.stats.views[0].cache, CacheOutcome::Maintained);
        assert_eq!(maintenance(&e), (1, 0));
        assert_eq!(warm.to_string_compact().matches("<result>").count(), 1);
        let mut cold = Engine::new();
        cold.register(Document::parse("book.xml", &doc_text(&e, "book.xml")).must());
        assert_eq!(
            warm.to_string_compact(),
            cold.eval_to_string(RHONDA).must(),
            "the kept view answers like a cold engine"
        );
    }

    #[test]
    fn rejected_edits_change_nothing_and_log_nothing() {
        let mut e = engine();
        let before = doc_text(&e, "book.xml");
        let wal_len = e.wal_bytes().len();
        let bad = Edit::DeleteSubtree {
            uri: "book.xml".into(),
            target: "1.9.9".into(),
        };
        let err = e.apply(bad).unwrap_err();
        assert_eq!(err.code(), "QUERY_EDIT");
        assert!(matches!(
            e.apply(Edit::SetValue {
                uri: "nope.xml".into(),
                target: "1".into(),
                value: "x".into(),
            }),
            Err(FlwrError::UnknownDocument(_))
        ));
        assert_eq!(doc_text(&e, "book.xml"), before);
        assert_eq!(e.wal_bytes().len(), wal_len, "rejected edits never log");
        assert_eq!(e.snapshot().queries.edit_failures, 2);
    }

    #[test]
    fn recovery_replays_the_log_onto_a_fresh_base() {
        let mut live = engine();
        live.apply(insert_book("Z", 2)).must();
        live.apply(Edit::MoveSubtree {
            uri: "book.xml".into(),
            target: "1.3".into(),
            parent: "1".into(),
            pos: 0,
        })
        .must();
        live.apply(Edit::DeleteSubtree {
            uri: "book.xml".into(),
            target: "1.2".into(),
        })
        .must();
        let wal: Vec<u8> = live.wal_bytes().to_vec();

        let mut restarted = engine();
        let rec = restarted.recover(&wal).must();
        assert!(rec.is_clean(), "{}", rec.to_json());
        assert_eq!(rec.replayed, 3);
        assert_eq!(rec.skipped, 0);
        assert_eq!(
            doc_text(&restarted, "book.xml"),
            doc_text(&live, "book.xml")
        );
        assert_eq!(restarted.applied_seq(), 3);
        // Replay is idempotent: recovering the same log again is a no-op.
        let again = restarted.recover(&wal).must();
        assert_eq!(again.replayed, 0);
        assert_eq!(again.skipped, 3);
        assert_eq!(
            doc_text(&restarted, "book.xml"),
            doc_text(&live, "book.xml")
        );
        // The restarted engine continues the sequence where the log ended.
        let r = restarted.apply(insert_book("post", 0)).must();
        assert_eq!(r.seq, 4);
    }

    #[test]
    fn recovery_reports_undecodable_records_without_applying_them() {
        let mut live = engine();
        live.apply(insert_book("Z", 2)).must();
        let wal = live.wal_bytes().to_vec();
        // Graft a frame whose payload passes the CRC but is not an edit.
        let mut sneaky = EditWal::from_bytes(wal).must().0;
        sneaky.append(&[0xEE, 0xFF]);
        sneaky.sync();
        let mut restarted = engine();
        let rec = restarted.recover(sneaky.as_bytes()).must();
        assert!(rec.wal.is_clean(), "frames themselves are intact");
        assert!(!rec.is_clean());
        assert_eq!(rec.replayed, 1);
        assert_eq!(rec.failed.len(), 1);
        assert_eq!(rec.failed[0].seq, 2);
        assert!(rec.failed[0].reason.contains("EDIT_PAYLOAD"));
        // The valid prefix was still applied.
        assert_eq!(restarted.eval_path("book.xml", "//book").must().len(), 3);
    }

    #[test]
    fn recovery_quarantines_torn_tails() {
        let mut live = engine();
        live.apply(insert_book("Z", 2)).must();
        live.apply(insert_book("Z2", 3)).must();
        let wal = live.wal_bytes().to_vec();
        // Tear the last frame mid-payload, as a crash during a write would.
        let torn = &wal[..wal.len() - 3];
        let mut restarted = engine();
        let rec = restarted.recover(torn).must();
        assert!(!rec.wal.is_clean());
        assert_eq!(rec.replayed, 1, "the intact prefix is applied");
        assert!(rec.failed.is_empty());
        assert_eq!(restarted.eval_path("book.xml", "//book").must().len(), 3);
        // New edits append after the quarantined tail was truncated.
        let r = restarted.apply(insert_book("fresh", 0)).must();
        assert_eq!(r.seq, 2);
    }

    #[test]
    fn apply_all_batches_share_one_final_compaction() {
        let mut e = engine();
        let edits: Vec<Edit> = (0..8).map(|i| insert_book(&format!("b{i}"), 2)).collect();
        let receipts = e.apply_all(edits).must();
        assert_eq!(receipts.len(), 8);
        assert!(
            receipts.iter().all(|r| r.compacted == 0),
            "below the threshold nothing compacts mid-batch"
        );
        assert_eq!(
            e.document("book.xml").must().delta_len(),
            0,
            "the batch drained its delta at the end"
        );
        assert_eq!(e.eval_path("book.xml", "//book").must().len(), 10);
        // A tiny threshold forces mid-batch compactions.
        let mut tight = engine();
        tight.set_compact_threshold(1);
        let receipts = tight
            .apply_all((0..3).map(|i| insert_book(&format!("t{i}"), 2)).collect())
            .must();
        assert!(receipts.iter().all(|r| r.compacted > 0));
    }

    #[test]
    fn traced_applies_emit_the_edit_span_vocabulary() {
        let mut e = engine();
        let (_, trace) = e.apply_traced(insert_book("Z", 2), true).must();
        let trace = trace.must();
        assert_eq!(trace.root.name, "apply");
        assert_eq!(trace.root.meta_value("kind"), Some("insert-subtree"));
        assert_eq!(trace.root.meta_value("uri"), Some("book.xml"));
        assert!(trace.root.find("compact").is_some());
        let text = e.metrics_text();
        for needle in [
            "vpbn_edits_total 1",
            "vpbn_edit_failures_total 0",
            "vpbn_compactions_total 1",
            "vpbn_replayed_edits_total 0",
            "vh_cache_maintained_total",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }
}
