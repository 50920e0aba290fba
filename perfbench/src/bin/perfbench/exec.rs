//! Executing one op: directly on an engine, over a client connection, or
//! replayed in-process through the serve layer's public functions in the
//! server's order. Traced runs record spans and per-layer samples into a
//! [`Tracer`]; untraced runs pass a disabled one, which records nothing.

use std::collections::BTreeMap;
use std::time::Instant;

use vh_core::ExecOptions;
use vh_query::api::{eval_xpath, parse_xpath, PhysicalDoc, VirtualDoc};
use vh_query::sjoin::{physical_structural_join, virtual_structural_join_counted};
use vh_query::twig::{twig_join, twig_join_counted, TwigPattern, VirtualTwigSource};
use vh_query::{Edit, Engine, QueryOutcome, QueryRequest};
use vh_serve::wire::{frame, parse_header, verify_payload, HEADER_LEN};
use vh_serve::{Address, Client, Registry, Request, RequestBody, Response};
use vh_storage::EditWal;

use crate::gen::{Op, SAM, URI};

/// Per-run constants every executor needs.
pub struct Ctx {
    pub flwr: String,
    pub pattern: TwigPattern,
    pub tenant: &'static str,
}

impl Ctx {
    pub fn new() -> Ctx {
        Ctx {
            flwr: vh_workload::queries::rhonda_flwr(URI, SAM),
            pattern: TwigPattern::parse("title(author(name))").expect("pattern parses"),
            tenant: "bench",
        }
    }
}

/// Named per-layer samples (nanoseconds or counts).
pub type Ledger = BTreeMap<&'static str, Vec<f64>>;

/// One recorded span.
pub struct Rec {
    pub op: u64,
    pub parent: u32,
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
}

const NO_PARENT: u32 = u32::MAX;

/// In-memory span and sample recorder of one thread.
pub struct Tracer {
    pub on: bool,
    origin: Instant,
    pub recs: Vec<Rec>,
    stack: Vec<u32>,
    pub op: u64,
    pub ledger: Ledger,
    /// Engine-lock acquisition times in ns, kept even when tracing is
    /// off: the replay measures the server's lock wait without spans.
    pub lock_waits: Vec<u64>,
    wal: EditWal,
}

impl Tracer {
    pub fn new(on: bool, origin: Instant) -> Tracer {
        Tracer {
            on,
            origin,
            recs: Vec::new(),
            stack: Vec::new(),
            op: 0,
            ledger: Ledger::new(),
            lock_waits: Vec::new(),
            wal: EditWal::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        let now = self.now();
        self.stack.push(self.recs.len() as u32);
        self.recs.push(Rec {
            op: self.op,
            parent,
            name,
            start: now,
            end: now,
        });
    }

    pub fn end(&mut self) {
        if !self.on {
            return;
        }
        if let Some(i) = self.stack.pop() {
            let now = self.now();
            self.recs[i as usize].end = now;
        }
    }

    pub fn note(&mut self, key: &'static str, v: f64) {
        if self.on {
            self.ledger.entry(key).or_default().push(v);
        }
    }

    /// Records an engine span tree under the open span, shifted to start
    /// at `base`.
    fn graft(&mut self, span: &vh_obs::Span, base: u64) {
        let name = vh_obs::STABLE_SPAN_NAMES
            .iter()
            .copied()
            .find(|n| *n == span.name)
            .unwrap_or("engine-other");
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        let start = base + span.start_ns;
        self.stack.push(self.recs.len() as u32);
        self.recs.push(Rec {
            op: self.op,
            parent,
            name,
            start,
            end: start + span.duration_ns,
        });
        for child in &span.children {
            self.graft(child, base);
        }
        self.stack.pop();
    }

    fn query(&mut self, op: &Op, out: &QueryOutcome, base: u64) {
        if !self.on {
            return;
        }
        let s = &out.stats;
        if let Some(t) = &out.trace {
            self.graft(&t.root, base);
        }
        self.note("parse_ns", s.parse_ns as f64);
        self.note("plan_ns", s.plan_ns as f64);
        self.note("exec_ns", s.exec_ns as f64);
        self.note("result_nodes", s.result_nodes as f64);
        match op {
            Op::Flwr => self.note("flwr_exec_ns", s.exec_ns as f64),
            Op::Cold { .. } => self.note("view_compile_ns", s.plan_ns as f64),
            Op::Virtual { .. } => {
                self.note("axis_slots", s.axis.slots_scanned as f64);
                self.note("axis_results", s.result_nodes as f64);
                self.note("axis_filters", s.axis.filter_checks as f64);
                self.note("axis_scans", s.axis.range_scans as f64);
            }
            _ => {}
        }
    }
}

/// What an engine call answered: the count the oracle checks, and the
/// response text a FLWR request puts on the wire.
pub struct Reply {
    pub count: u64,
    pub text: Option<String>,
}

fn count_reply(out: &QueryOutcome) -> Reply {
    Reply {
        count: out.nodes.as_ref().map_or(0, |n| n.len() as u64),
        text: None,
    }
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Runs one op on the engine. `wire` serializes FLWR results as the
/// server does before answering.
pub fn engine_op(
    engine: &mut Engine,
    ctx: &Ctx,
    op: &Op,
    wire: bool,
    tr: &mut Tracer,
) -> Result<Reply, String> {
    let base = if tr.on { tr.now() } else { 0 };
    match op {
        Op::Point { path } => {
            let out = engine
                .run(&QueryRequest::path(URI, *path).with_trace(tr.on))
                .map_err(err)?;
            tr.query(op, &out, base);
            Ok(count_reply(&out))
        }
        Op::Virtual { spec, path } => {
            let out = engine
                .run(&QueryRequest::virtual_path(URI, *spec, *path).with_trace(tr.on))
                .map_err(err)?;
            tr.query(op, &out, base);
            Ok(count_reply(&out))
        }
        Op::Cold { spec, path } => {
            let exec = ExecOptions {
                cache: false,
                ..engine.exec_options()
            };
            let req = QueryRequest::virtual_path(URI, *spec, *path)
                .with_exec(exec)
                .with_trace(tr.on);
            let out = engine.run(&req).map_err(err)?;
            tr.query(op, &out, base);
            Ok(count_reply(&out))
        }
        Op::Flwr => {
            let out = engine
                .run(&QueryRequest::flwr(ctx.flwr.as_str()).with_trace(tr.on))
                .map_err(err)?;
            tr.query(op, &out, base);
            if wire {
                tr.begin("xml.serialize");
                let t = Instant::now();
                let text = out.to_string_compact();
                tr.note("serialize_ns", t.elapsed().as_nanos() as f64);
                tr.end();
                Ok(Reply {
                    count: text.matches("<result>").count() as u64,
                    text: Some(text),
                })
            } else {
                Ok(Reply {
                    count: out.stats.result_nodes,
                    text: None,
                })
            }
        }
        Op::Sjoin => {
            tr.begin("view-open");
            let vd = engine.virtual_doc(URI, SAM).map_err(err)?;
            tr.end();
            let (titles, names) = sam_types(&vd)?;
            tr.begin("sjoin");
            let t = Instant::now();
            let pairs = vh_query::api::virtual_structural_join(&vd, titles, names).len();
            tr.note("sjoin_ns", t.elapsed().as_nanos() as f64);
            tr.end();
            Ok(Reply {
                count: pairs as u64,
                text: None,
            })
        }
        Op::TwigJoin => {
            tr.begin("view-open");
            let vd = engine.virtual_doc(URI, SAM).map_err(err)?;
            tr.end();
            tr.begin("twig");
            let t = Instant::now();
            let matches = twig_join(&VirtualTwigSource::new(&vd), &ctx.pattern).len();
            tr.note("twig_ns", t.elapsed().as_nanos() as f64);
            tr.end();
            Ok(Reply {
                count: matches as u64,
                text: None,
            })
        }
        Op::Edit(edit) => {
            let (receipt, trace) = engine.apply_traced(edit.clone(), tr.on).map_err(err)?;
            if let Some(t) = trace {
                tr.graft(&t.root, base);
                let compact = t.root.find("compact");
                let compact_ns = compact.map_or(0, |c| c.duration_ns);
                let apply = t.root.duration_ns;
                tr.note("apply_ns", apply as f64);
                tr.note("apply_other_ns", apply.saturating_sub(compact_ns) as f64);
                tr.note("compact_ns", compact_ns as f64);
                let merged = compact.and_then(|c| c.counter("compact.merged"));
                tr.note("compact_merged", merged.unwrap_or(0) as f64);
                for (key, counter) in [
                    ("maintained", "cache.maintained"),
                    ("recomputed", "cache.recomputed"),
                    ("fallback", "cache.fallback_evictions"),
                ] {
                    tr.note(key, t.root.counter(counter).unwrap_or(0) as f64);
                }
                tr.note("nodes_touched", receipt.nodes_touched as f64);
            }
            Ok(Reply {
                count: receipt.seq,
                text: None,
            })
        }
    }
}

/// Titles and names of Sam's view: the join inputs.
fn sam_types<'v>(
    vd: &'v vh_core::VirtualDocument<'_>,
) -> Result<(&'v [vh_xml::NodeId], &'v [vh_xml::NodeId]), String> {
    let g = vd.vdg().guide();
    let title = g.lookup_path(&["title"]).ok_or("Sam's view has no title")?;
    let name = g
        .lookup_path(&["title", "author", "name"])
        .ok_or("Sam's view has no title/author/name")?;
    Ok((vd.nodes_of_vtype(title), vd.nodes_of_vtype(name)))
}

/// Per-layer calls a traced op is followed by, outside its op span: the
/// evaluator alone, the physical join twin and the counted operators, and
/// a WAL append of the edit's payload into a scratch log.
pub fn layer_calls(engine: &Engine, ctx: &Ctx, op: &Op, tr: &mut Tracer) -> Result<(), String> {
    if !tr.on {
        return Ok(());
    }
    match op {
        Op::Point { path } => {
            let x = parse_xpath(path).map_err(err)?;
            let td = engine.document(URI).ok_or("corpus not registered")?;
            let doc = PhysicalDoc::new(td);
            let t = Instant::now();
            eval_xpath(&doc, &x).map_err(err)?;
            note_eval(tr, t);
        }
        Op::Virtual { spec, path } => {
            let x = parse_xpath(path).map_err(err)?;
            let vd = engine.virtual_doc(URI, spec).map_err(err)?;
            let doc = VirtualDoc::new(&vd);
            let t = Instant::now();
            eval_xpath(&doc, &x).map_err(err)?;
            note_eval(tr, t);
        }
        Op::Sjoin => {
            let td = engine.document(URI).ok_or("corpus not registered")?;
            let g = td.guide();
            let book = g.lookup_path(&["data", "book"]).ok_or("no book type")?;
            let name = g
                .lookup_path(&["data", "book", "author", "name"])
                .ok_or("no name type")?;
            let (books, names) = (td.nodes_of_type(book), td.nodes_of_type(name));
            let t = Instant::now();
            let phys = physical_structural_join(td, &books, &names).len();
            tr.note("sjoin_phys_ns", t.elapsed().as_nanos() as f64);
            let vd = engine.virtual_doc(URI, SAM).map_err(err)?;
            let (titles, vnames) = sam_types(&vd)?;
            let counters = vh_obs::SjoinCounters::new();
            let virt = virtual_structural_join_counted(&vd, titles, vnames, &counters).len();
            if virt != phys {
                return Err(format!("virtual join {virt} pairs, physical {phys}"));
            }
            let c = counters.snapshot();
            tr.note(
                "sjoin_cmp_per_pair",
                c.comparisons as f64 / c.pairs.max(1) as f64,
            );
        }
        Op::TwigJoin => {
            let vd = engine.virtual_doc(URI, SAM).map_err(err)?;
            let counters = vh_obs::TwigCounters::new();
            let src = VirtualTwigSource::new(&vd);
            twig_join_counted(&src, &ctx.pattern, &vd.exec(), &counters);
            let c = counters.snapshot();
            tr.note(
                "twig_seeks_per_match",
                c.seeks as f64 / c.matches.max(1) as f64,
            );
        }
        Op::Edit(edit) => {
            let payload = edit.encode();
            let t = Instant::now();
            tr.wal.append(&payload);
            tr.wal.sync();
            tr.note("wal_ns", t.elapsed().as_nanos() as f64);
        }
        Op::Cold { .. } | Op::Flwr => {}
    }
    Ok(())
}

fn note_eval(tr: &mut Tracer, t: Instant) {
    let eval = t.elapsed().as_nanos() as f64;
    tr.note("eval_ns", eval);
    if let Some(exec) = tr.ledger.get("exec_ns").and_then(|v| v.last()).copied() {
        tr.note("materialize_ns", exec - eval);
    }
}

/// The wire body of an op, or `None` for ops no wire verb expresses
/// (cold opens and joins).
pub fn wire_body(op: &Op, ctx: &Ctx) -> Option<RequestBody> {
    Some(match op {
        Op::Point { path } => RequestBody::Point {
            path: (*path).to_owned(),
        },
        Op::Virtual { spec, path } => RequestBody::Twig {
            spec: (*spec).to_owned(),
            path: (*path).to_owned(),
        },
        Op::Flwr => RequestBody::Flwr {
            query: ctx.flwr.clone(),
        },
        Op::Edit(e) => RequestBody::Edit {
            payload: e.encode(),
        },
        Op::Cold { .. } | Op::Sjoin | Op::TwigJoin => return None,
    })
}

/// Runs one op over a client connection.
pub fn client_op(client: &mut Client, ctx: &Ctx, op: &Op) -> Result<u64, String> {
    match op {
        Op::Point { path } => client.point(URI, path).map_err(err),
        Op::Virtual { spec, path } => client.twig(URI, spec, path).map_err(err),
        Op::Flwr => client
            .flwr(URI, &ctx.flwr)
            .map(|t| t.matches("<result>").count() as u64)
            .map_err(err),
        Op::Edit(e) => client.edit(e).map_err(err),
        Op::Cold { .. } | Op::Sjoin | Op::TwigJoin => Err(format!("{op:?} has no wire verb")),
    }
}

/// Replays one op in-process through the serve layer's public functions,
/// in the server's order: client encode, frame checks, route, request
/// decode, admission, engine lock, engine, response encode and the
/// client's response decode. Ops without a wire verb take the lock and
/// the engine only.
pub fn replay_op(reg: &Registry, ctx: &Ctx, op: &Op, tr: &mut Tracer) -> Result<u64, String> {
    let Some(body) = wire_body(op, ctx) else {
        let tenant = reg.tenant(ctx.tenant).ok_or("tenant missing")?;
        tr.begin("lock");
        let t = Instant::now();
        let mut engine = tenant.engine();
        tr.lock_waits.push(t.elapsed().as_nanos() as u64);
        tr.end();
        tr.begin("engine");
        let reply = engine_op(&mut engine, ctx, op, true, tr);
        tr.end();
        return reply.map(|r| r.count);
    };
    let class = match body {
        RequestBody::Edit { .. } => "edit",
        _ => "query",
    };
    tr.begin("wire.encode");
    let request = Request {
        address: Address::new(ctx.tenant, URI, class),
        body,
    };
    let framed = frame(&request.encode().map_err(|r| r.message)?);
    tr.end();

    tr.begin("wire.decode");
    let mut header = [0u8; HEADER_LEN];
    header.copy_from_slice(&framed[..HEADER_LEN]);
    let (len, crc) = parse_header(&header).map_err(err)?;
    let payload = &framed[HEADER_LEN..HEADER_LEN + len];
    verify_payload(crc, payload).map_err(err)?;
    tr.end();
    tr.begin("route");
    let tenant = reg.route(payload).ok_or("no tenant routes the request")?;
    tr.end();
    tr.begin("wire.decode");
    let decoded = Request::decode(payload).map_err(|r| r.message)?;
    if let RequestBody::Edit { payload } = &decoded.body {
        Edit::decode(payload).map_err(err)?;
    }
    tr.end();
    tr.begin("admit");
    let guard = tenant
        .admission()
        .try_admit(&decoded.address.class)
        .map_err(|r| format!("shed: {}", r.label()))?;
    tr.end();
    tr.begin("lock");
    let t = Instant::now();
    let mut engine = tenant.engine();
    tr.lock_waits.push(t.elapsed().as_nanos() as u64);
    tr.end();
    tr.begin("engine");
    let reply = engine_op(&mut engine, ctx, op, true, tr);
    tr.end();
    drop(engine);
    drop(guard);
    let reply = reply?;

    tr.begin("respond");
    let response = match (op, reply.text) {
        (Op::Edit(_), _) => Response::Seq(reply.count),
        (_, Some(text)) => Response::Text(text),
        (_, None) => Response::Count(reply.count),
    };
    let out = frame(&response.encode());
    let mut header = [0u8; HEADER_LEN];
    header.copy_from_slice(&out[..HEADER_LEN]);
    let (len, crc) = parse_header(&header).map_err(err)?;
    let payload = &out[HEADER_LEN..HEADER_LEN + len];
    verify_payload(crc, payload).map_err(err)?;
    let answer = match Response::decode(payload).map_err(|r| r.message)? {
        Response::Count(n) | Response::Seq(n) => n,
        Response::Text(t) => t.matches("<result>").count() as u64,
        Response::Error { message, .. } => return Err(message),
    };
    tr.end();
    tr.note("frame_bytes", (framed.len() + out.len()) as f64);
    Ok(answer)
}
