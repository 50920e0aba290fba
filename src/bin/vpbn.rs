//! `vpbn` — command-line front end for the virtual-hierarchy query suite.
//!
//! ```text
//! vpbn load <uri> <file.xml>... query <flwr>        # run a FLWR query
//! vpbn load <uri> <file.xml>    xpath <path>        # physical XPath
//! vpbn load <uri> <file.xml>    vpath <spec> <path> # virtual XPath
//! vpbn load <uri> <file.xml>    explain <spec>      # show the compiled view
//! vpbn load <uri> <file.xml>    stats               # storage + engine stats
//! vpbn --wal <log> load <uri> <file.xml> edit <op>  # apply a logged edit
//! vpbn --wal <log> load <uri> <file.xml> recover    # replay the edit log
//! vpbn load <uri> <file.xml> serve <addr> <tenant>  # VHRPC query server
//! vpbn client <addr> <tenant> <verb> ...            # VHRPC client call
//! vpbn demo                                         # the paper's Figure 2/6
//! ```
//!
//! Commands are positional and composable: one or more `load` clauses
//! followed by exactly one action. Example:
//!
//! ```text
//! vpbn load books.xml data/books.xml \
//!      vpath "title { author { name } }" "//title/author/name"
//! ```
//!
//! Global flags (accepted anywhere before the action): `--threads N`
//! parallelizes node scans, axis filters and sorts over N worker threads
//! (`0` = all hardware threads; results are byte-identical to `--threads
//! 1`), `--cache on|off` controls the compiled-view artifact cache, and
//! the observability trio — `--trace` prints the query's span tree to
//! stderr alongside the results, while `--explain` / `--explain-json`
//! replace the results with the evaluated plan (text tree or JSON; see
//! `DESIGN.md` § "Observability").
//!
//! Mutations go through `edit` / `recover` with a `--wal <file>` log:
//! `edit` replays any existing log onto the loaded base document, applies
//! one new operation, and writes the extended log back atomically with the
//! acknowledgement; `recover` just replays, reporting (and quarantining)
//! torn or corrupt tails instead of applying them. `--dump` turns the
//! recover report into one line of JSON on stdout.
//!
//! `serve` exposes every loaded document over the VHRPC wire protocol
//! as one tenant (repeat `--tenant`-less `load` clauses share the
//! engine); `--quota burst,per_sec,max_concurrent` bounds its admission.
//! `client` speaks the same protocol back: `point`/`twig`/`flwr` query
//! verbs, plus `snapshot` and `metrics` admin verbs (see `DESIGN.md`
//! § "The query server").
//!
//! Failures print the full error cause chain to stderr and exit with a
//! class-specific code: usage=2, I/O=3, XML=4, vDataGuide=5, query=6,
//! storage=7, resource limits=8, edit rejected=9, serve=10 (see
//! `vpbn_suite::error`).

#![allow(clippy::expect_used)]

use std::process::ExitCode;
use vpbn_suite::dataguide::TypedDocument;
use vpbn_suite::query::api::{
    Edit, EditRecovery, Engine, ExecOptions, QueryError, QueryOutcome, QueryRequest,
    VirtualDocument,
};
use vpbn_suite::serve::{Client, ClientError, Registry, Server, ServerConfig, TenantQuota};
use vpbn_suite::xml::{serialize, SerializeOptions};
use vpbn_suite::VhError;

fn main() -> ExitCode {
    // args() panics on non-UTF-8 argv; go through args_os so garbage
    // arguments surface as a usage error instead.
    let args: Result<Vec<String>, VhError> = std::env::args_os()
        .skip(1)
        .map(|a| {
            a.into_string()
                .map_err(|bad| VhError::usage(format!("argument is not valid UTF-8: {bad:?}")))
        })
        .collect();
    match args.and_then(|args| run(&args)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("vpbn: {}", e.render_chain());
            if matches!(e, VhError::Usage(_)) {
                eprintln!();
                eprintln!("{USAGE}");
            }
            ExitCode::from(e.exit_code())
        }
    }
}

const USAGE: &str = "usage:
  vpbn [flags] load <uri> <file.xml> [load <uri> <file.xml> ...] <action>
  vpbn client <addr> <tenant> <verb> [operands...]
  vpbn demo

flags (anywhere before the action):
  --threads <n>                parallel workers for scans/filters/sorts
                               (default 1 = sequential, 0 = all cores;
                               results are identical at any thread count)
  --cache <on|off>             compiled-view artifact cache (default on)
  --trace                      print the query's span tree to stderr
  --explain                    print the evaluated plan instead of results
  --explain-json               like --explain, as one line of JSON
  --wal <file>                 write-ahead log for edit/recover actions
  --dump                       recover: print the recovery report as JSON
  --quota <b>,<r>,<c>          serve: admission quota — token-bucket
                               burst, refill tokens/s, max concurrent
                               (default: effectively unlimited)

actions:
  query   <flwr-text>          evaluate a FLWR query (doc()/virtualDoc())
  xpath   <path>               evaluate an XPath over the last-loaded doc
  vpath   <vdataguide> <path>  evaluate an XPath over a virtual view
  value   <vdataguide> <path>  print the virtual VALUE of each result
  explain <vdataguide>         show the compiled view (types, level arrays)
  stats                        storage, cache and query-counter statistics
  edit    <operation>          apply one edit to the last-loaded doc and
                               append it to the --wal log; operations:
                                 insert <parent-path> <pos> <fragment-xml>
                                 delete <target-path>
                                 move   <target-path> <parent-path> <pos>
                                 set    <target-path> <value>
                               (paths are dotted child indexes, e.g. 1.2.1)
  recover                      replay the --wal log onto the loaded doc,
                               quarantining torn/corrupt tails
  serve   <addr> <tenant>      serve every loaded document over VHRPC on
                               <addr> (e.g. 127.0.0.1:7001) as <tenant>;
                               runs until interrupted

client verbs (vpbn client <addr> <tenant> ...):
  point    <uri> <path>        count nodes matching a physical XPath
  twig     <uri> <spec> <path> count nodes through a virtual view
  flwr     <uri> <flwr-text>   evaluate a FLWR query, print the result
  snapshot <uri>               the tenant engine's counters as JSON
  metrics                      the server's Prometheus metrics text

exit codes:
  2 usage   3 I/O   4 XML parse   5 vDataGuide   6 query
  7 storage   8 resource limit exceeded   9 edit rejected   10 serve";

/// Global flags stripped off the argument list before the positional
/// commands are interpreted.
#[derive(Default)]
struct Flags {
    exec: ExecOptions,
    trace: bool,
    explain: bool,
    explain_json: bool,
    wal: Option<String>,
    dump: bool,
    quota: Option<TenantQuota>,
}

fn run(args: &[String]) -> Result<(), VhError> {
    let (flags, args) = parse_global_flags(args)?;
    let args = &args[..];
    let mut engine = Engine::new();
    engine.set_exec_options(flags.exec);
    let mut last_uri: Option<String> = None;
    let mut i = 0;

    if args.first().map(String::as_str) == Some("demo") {
        return demo();
    }
    if args.first().map(String::as_str) == Some("client") {
        return client(&args[1..]);
    }

    while i < args.len() {
        match args[i].as_str() {
            "load" => {
                let uri = args
                    .get(i + 1)
                    .ok_or_else(|| VhError::usage("load: missing <uri>"))?;
                let file = args
                    .get(i + 2)
                    .ok_or_else(|| VhError::usage("load: missing <file.xml>"))?;
                let xml = std::fs::read_to_string(file).map_err(|e| VhError::io(file, e))?;
                engine.register_xml(uri, &xml)?;
                let td = engine.document(uri).expect("just registered");
                eprintln!(
                    "loaded {uri}: {} nodes, {} types",
                    td.doc().len(),
                    td.guide().len()
                );
                last_uri = Some(uri.clone());
                i += 3;
            }
            "query" => {
                let q = args
                    .get(i + 1)
                    .ok_or_else(|| VhError::usage("query: missing FLWR text"))?;
                expect_end(args, i + 2)?;
                if let Some(out) = execute(&engine, &flags, QueryRequest::flwr(q.as_str()))? {
                    println!("{}", serialize(&out.document, SerializeOptions::pretty(2)));
                }
                return Ok(());
            }
            "xpath" => {
                let uri = last_uri
                    .as_deref()
                    .ok_or_else(|| VhError::usage("xpath: load a document first"))?;
                let p = args
                    .get(i + 1)
                    .ok_or_else(|| VhError::usage("xpath: missing <path>"))?;
                expect_end(args, i + 2)?;
                if let Some(out) = execute(&engine, &flags, QueryRequest::path(uri, p.as_str()))? {
                    let nodes = out.nodes.unwrap_or_default();
                    print_nodes(engine.document(uri).expect("loaded"), &nodes);
                }
                return Ok(());
            }
            "vpath" | "value" => {
                let action = args[i].clone();
                let uri = last_uri
                    .as_deref()
                    .ok_or_else(|| VhError::usage("vpath: load a document first"))?;
                let spec = args
                    .get(i + 1)
                    .ok_or_else(|| VhError::usage("vpath: missing <vdataguide>"))?;
                let p = args
                    .get(i + 2)
                    .ok_or_else(|| VhError::usage("vpath: missing <path>"))?;
                expect_end(args, i + 3)?;
                let req = QueryRequest::virtual_path(uri, spec.as_str(), p.as_str());
                if let Some(out) = execute(&engine, &flags, req)? {
                    let nodes = out.nodes.unwrap_or_default();
                    let td = engine.document(uri).expect("loaded");
                    if action == "vpath" {
                        print_nodes(td, &nodes);
                    } else {
                        let vd = engine.virtual_doc(uri, spec)?;
                        for &n in &nodes {
                            let (v, _) = vpbn_suite::core::value::virtual_value(&vd, td, n)?;
                            println!("{v}");
                        }
                        eprintln!("{} value(s)", nodes.len());
                    }
                }
                return Ok(());
            }
            "explain" => {
                let uri = last_uri
                    .as_deref()
                    .ok_or_else(|| VhError::usage("explain: load a document first"))?;
                let spec = args
                    .get(i + 1)
                    .ok_or_else(|| VhError::usage("explain: missing <vdataguide>"))?;
                expect_end(args, i + 2)?;
                let td = engine.document(uri).expect("loaded");
                let vd = VirtualDocument::open(td, spec)?;
                println!("view over {uri}: {spec}");
                println!(
                    "{} virtual types; {} of {} nodes visible",
                    vd.vdg().len(),
                    vd.visible_nodes(),
                    td.doc().len()
                );
                println!(
                    "{:<32} {:<28} {:>9}  notes",
                    "virtual path", "level array", "instances"
                );
                for vt in vd.vdg().guide().type_ids() {
                    println!(
                        "{:<32} {:<28} {:>9}  {}",
                        vd.vdg().guide().path_string(vt),
                        vd.array(vt).to_string(),
                        vd.nodes_of_vtype(vt).len(),
                        if vd.vdg().is_identity_below(vt) {
                            "identity region"
                        } else {
                            ""
                        }
                    );
                }
                return Ok(());
            }
            "stats" => {
                let uri = last_uri
                    .as_deref()
                    .ok_or_else(|| VhError::usage("stats: load a document first"))?;
                expect_end(args, i + 1)?;
                let s = engine.attach_store(uri)?.stats();
                println!("storage statistics for {uri}:");
                println!(
                    "  document string : {:>10} B over {} pages",
                    s.document_bytes, s.document_pages
                );
                println!("  value index     : {:>10} B", s.value_index_bytes);
                println!("  node headers    : {:>10} B", s.header_bytes);
                println!("  total           : {:>10} B", s.total_bytes());
                let snap = engine.snapshot();
                let c = snap.cache.views;
                println!(
                    "compiled-view cache: {} views, {} hits / {} misses, {} evicted, {} invalidated",
                    c.entries, c.hits, c.misses, c.evictions, c.invalidations
                );
                println!(
                    "buffer pool: {} hits / {} misses, {} evicted, {} quarantined",
                    snap.buffers.hits,
                    snap.buffers.misses,
                    snap.buffers.evictions,
                    snap.buffers.quarantines
                );
                println!(
                    "queries: {} run ({} traced), {} failed, {} result node(s)",
                    snap.queries.queries,
                    snap.queries.traced,
                    snap.queries.failures,
                    snap.queries.result_nodes
                );
                println!();
                print!("{}", engine.metrics_text());
                return Ok(());
            }
            "edit" => {
                let uri = last_uri
                    .clone()
                    .ok_or_else(|| VhError::usage("edit: load a document first"))?;
                let wal_path = flags
                    .wal
                    .clone()
                    .ok_or_else(|| VhError::usage("edit: --wal <file> is required"))?;
                // An existing log is the durable history for this document:
                // replay it onto the freshly loaded base before appending.
                if let Some(rec) = replay_wal_file(&mut engine, &wal_path)? {
                    report_recovery(&wal_path, &rec);
                    if let Some(f) = rec.failed.first() {
                        return Err(VhError::Query(QueryError::Unsupported(format!(
                            "replay of '{wal_path}' stopped at seq {}: {}; \
                             the loaded document does not match the log, \
                             refusing to append",
                            f.seq, f.reason
                        ))));
                    }
                }
                let (edit, next) = parse_edit_op(args, i + 1, &uri)?;
                expect_end(args, next)?;
                let (receipt, trace) = engine.apply_traced(edit, flags.trace)?;
                if let Some(trace) = &trace {
                    eprint!("{}", trace.render_text());
                }
                std::fs::write(&wal_path, engine.wal_bytes())
                    .map_err(|e| VhError::io(&wal_path, e))?;
                eprintln!(
                    "edit {} acknowledged as seq {}: {} node(s) touched, \
                     {} slot(s) compacted",
                    receipt.kind, receipt.seq, receipt.nodes_touched, receipt.compacted
                );
                let td = engine.document(&uri).expect("loaded");
                println!("{}", serialize(td.doc(), SerializeOptions::pretty(2)));
                return Ok(());
            }
            "recover" => {
                let uri = last_uri
                    .as_deref()
                    .ok_or_else(|| VhError::usage("recover: load a document first"))?;
                let wal_path = flags
                    .wal
                    .clone()
                    .ok_or_else(|| VhError::usage("recover: --wal <file> is required"))?;
                expect_end(args, i + 1)?;
                let bytes = std::fs::read(&wal_path).map_err(|e| VhError::io(&wal_path, e))?;
                let rec = engine.recover_traced(&bytes, flags.trace)?;
                if let Some(trace) = &rec.trace {
                    eprint!("{}", trace.render_text());
                }
                report_recovery(&wal_path, &rec);
                if flags.dump {
                    println!("{}", rec.to_json());
                } else {
                    let td = engine.document(uri).expect("loaded");
                    println!("{}", serialize(td.doc(), SerializeOptions::pretty(2)));
                }
                return Ok(());
            }
            "serve" => {
                if last_uri.is_none() {
                    return Err(VhError::usage("serve: load a document first"));
                }
                let addr = args
                    .get(i + 1)
                    .ok_or_else(|| VhError::usage("serve: missing <addr> (host:port)"))?;
                let tenant = args
                    .get(i + 2)
                    .ok_or_else(|| VhError::usage("serve: missing <tenant>"))?;
                expect_end(args, i + 3)?;
                return serve(engine, addr, tenant, flags.quota.unwrap_or_default());
            }
            other => return Err(VhError::usage(format!("unknown command '{other}'"))),
        }
    }
    Err(VhError::usage("no action given"))
}

/// Starts a VHRPC server exposing `engine` as the single tenant
/// `tenant` on `addr`, then blocks until the process is interrupted.
fn serve(engine: Engine, addr: &str, tenant: &str, quota: TenantQuota) -> Result<(), VhError> {
    let mut registry = Registry::new();
    registry
        .add_tenant(tenant, engine, quota)
        .map_err(|r| VhError::Serve(ClientError::Protocol(r.message)))?;
    let server = Server::bind(addr, registry, ServerConfig::default())
        .map_err(|e| VhError::Serve(ClientError::Io(e)))?;
    let local = server.local_addr();
    let _handle = server
        .start()
        .map_err(|e| VhError::Serve(ClientError::Io(e)))?;
    eprintln!(
        "serving tenant '{tenant}' on {local} \
         (VHRPC; plain HTTP GET scrapes /metrics); interrupt to stop"
    );
    loop {
        std::thread::park();
    }
}

/// One VHRPC client call: `client <addr> <tenant> <verb> [operands...]`.
fn client(args: &[String]) -> Result<(), VhError> {
    let addr = args
        .first()
        .ok_or_else(|| VhError::usage("client: missing <addr> (host:port)"))?;
    let tenant = args
        .get(1)
        .ok_or_else(|| VhError::usage("client: missing <tenant>"))?;
    let verb = args
        .get(2)
        .ok_or_else(|| VhError::usage("client: missing <verb>"))?;
    let operand = |off: usize, what: &str| -> Result<&String, VhError> {
        args.get(2 + off)
            .ok_or_else(|| VhError::usage(format!("client {verb}: missing <{what}>")))
    };
    let mut c = Client::connect(addr.as_str(), tenant.as_str())
        .map_err(|e| VhError::Serve(ClientError::Io(e)))?;
    match verb.as_str() {
        "point" => {
            let (uri, path) = (operand(1, "uri")?, operand(2, "path")?);
            expect_end(args, 5)?;
            println!("{}", c.point(uri, path).map_err(VhError::from)?);
        }
        "twig" => {
            let (uri, spec) = (operand(1, "uri")?, operand(2, "spec")?);
            let path = operand(3, "path")?;
            expect_end(args, 6)?;
            println!("{}", c.twig(uri, spec, path).map_err(VhError::from)?);
        }
        "flwr" => {
            let (uri, q) = (operand(1, "uri")?, operand(2, "flwr-text")?);
            expect_end(args, 5)?;
            println!("{}", c.flwr(uri, q).map_err(VhError::from)?);
        }
        "snapshot" => {
            let uri = operand(1, "uri")?;
            expect_end(args, 4)?;
            println!("{}", c.snapshot(uri).map_err(VhError::from)?);
        }
        "metrics" => {
            expect_end(args, 3)?;
            print!("{}", c.metrics().map_err(VhError::from)?);
        }
        other => {
            return Err(VhError::usage(format!(
                "client: unknown verb '{other}' \
                 (point|twig|flwr|snapshot|metrics)"
            )))
        }
    }
    Ok(())
}

/// Runs one request under the global observability flags: `--explain`
/// prints the evaluated plan instead of results and returns `None`;
/// `--trace` prints the span tree to stderr and hands the outcome back.
fn execute(
    engine: &Engine,
    flags: &Flags,
    req: QueryRequest,
) -> Result<Option<QueryOutcome>, VhError> {
    if flags.explain {
        let ex = engine.explain(&req)?;
        if flags.explain_json {
            println!("{}", ex.json());
        } else {
            print!("{}", ex.text());
        }
        return Ok(None);
    }
    let out = engine.run(&req.with_trace(flags.trace))?;
    if let Some(trace) = &out.trace {
        eprint!("{}", trace.render_text());
    }
    Ok(Some(out))
}

/// Strips the global flags (`--threads N`, `--cache on|off`, `--trace`,
/// `--explain`, `--explain-json`) from anywhere in the argument list and
/// returns them plus the remaining positional arguments.
fn parse_global_flags(args: &[String]) -> Result<(Flags, Vec<String>), VhError> {
    let mut flags = Flags::default();
    let mut rest = Vec::with_capacity(args.len());
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--threads" => {
                let v = it
                    .next()
                    .ok_or_else(|| VhError::usage("--threads: missing worker count"))?;
                flags.exec.threads = v.parse().map_err(|_| {
                    VhError::usage(format!("--threads: '{v}' is not a thread count"))
                })?;
            }
            "--cache" => {
                let v = it
                    .next()
                    .ok_or_else(|| VhError::usage("--cache: missing on|off"))?;
                flags.exec.cache = match v.as_str() {
                    "on" => true,
                    "off" => false,
                    other => {
                        return Err(VhError::usage(format!(
                            "--cache: expected on|off, got '{other}'"
                        )))
                    }
                };
            }
            "--trace" => flags.trace = true,
            "--wal" => {
                let v = it
                    .next()
                    .ok_or_else(|| VhError::usage("--wal: missing <file>"))?;
                flags.wal = Some(v.clone());
            }
            "--dump" => flags.dump = true,
            "--quota" => {
                let v = it.next().ok_or_else(|| {
                    VhError::usage("--quota: missing <burst>,<per_sec>,<max_concurrent>")
                })?;
                let parts: Vec<&str> = v.split(',').collect();
                let [burst, per_sec, max_concurrent] = parts.as_slice() else {
                    return Err(VhError::usage(format!(
                        "--quota: expected <burst>,<per_sec>,<max_concurrent>, got '{v}'"
                    )));
                };
                let bad = |what: &str| VhError::usage(format!("--quota: bad {what} in '{v}'"));
                flags.quota = Some(TenantQuota {
                    burst: burst.parse().map_err(|_| bad("burst"))?,
                    per_sec: per_sec.parse().map_err(|_| bad("per_sec"))?,
                    max_concurrent: max_concurrent.parse().map_err(|_| bad("max_concurrent"))?,
                    ..TenantQuota::default()
                });
            }
            "--explain" => flags.explain = true,
            "--explain-json" => {
                flags.explain = true;
                flags.explain_json = true;
            }
            _ => rest.push(a.clone()),
        }
    }
    Ok((flags, rest))
}

/// Parses one `edit` operation starting at `args[at]`, returning the
/// [`Edit`] and the index of the first argument after it.
fn parse_edit_op(args: &[String], at: usize, uri: &str) -> Result<(Edit, usize), VhError> {
    let op = args
        .get(at)
        .ok_or_else(|| VhError::usage("edit: missing operation (insert|delete|move|set)"))?;
    let operand = |off: usize, what: &str| -> Result<String, VhError> {
        args.get(at + off)
            .cloned()
            .ok_or_else(|| VhError::usage(format!("edit {op}: missing <{what}>")))
    };
    let pos = |off: usize| -> Result<usize, VhError> {
        let v = operand(off, "pos")?;
        v.parse()
            .map_err(|_| VhError::usage(format!("edit {op}: '{v}' is not a sibling position")))
    };
    let uri = uri.to_owned();
    match op.as_str() {
        "insert" => Ok((
            Edit::InsertSubtree {
                uri,
                parent: operand(1, "parent-path")?,
                pos: pos(2)?,
                xml: operand(3, "fragment-xml")?,
            },
            at + 4,
        )),
        "delete" => Ok((
            Edit::DeleteSubtree {
                uri,
                target: operand(1, "target-path")?,
            },
            at + 2,
        )),
        "move" => Ok((
            Edit::MoveSubtree {
                uri,
                target: operand(1, "target-path")?,
                parent: operand(2, "parent-path")?,
                pos: pos(3)?,
            },
            at + 4,
        )),
        "set" => Ok((
            Edit::SetValue {
                uri,
                target: operand(1, "target-path")?,
                value: operand(2, "value")?,
            },
            at + 3,
        )),
        other => Err(VhError::usage(format!(
            "edit: unknown operation '{other}' (expected insert|delete|move|set)"
        ))),
    }
}

/// Replays an existing WAL file into the engine. A missing file is an
/// empty log (`Ok(None)`), not an error, so the first `edit` against a
/// fresh `--wal` path just starts the log.
fn replay_wal_file(engine: &mut Engine, path: &str) -> Result<Option<EditRecovery>, VhError> {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(VhError::io(path, e)),
    };
    Ok(Some(engine.recover(&bytes)?))
}

/// Prints the recovery summary to stderr — loudly, so a quarantined tail
/// or a mid-log replay failure is never silent.
fn report_recovery(path: &str, rec: &EditRecovery) {
    eprintln!(
        "recovered {path}: {} edit(s) replayed, {} skipped, {} slot(s) compacted",
        rec.replayed, rec.skipped, rec.compacted
    );
    if rec.wal.quarantined_bytes > 0 {
        eprintln!(
            "warning: quarantined {} byte(s) of torn/corrupt log tail at offset {} ({})",
            rec.wal.quarantined_bytes,
            rec.wal.first_bad_offset.unwrap_or(0),
            rec.wal.reason.as_deref().unwrap_or("unknown reason")
        );
    }
    for f in &rec.failed {
        eprintln!("warning: replay stopped at seq {}: {}", f.seq, f.reason);
    }
}

fn expect_end(args: &[String], from: usize) -> Result<(), VhError> {
    if from < args.len() {
        Err(VhError::usage(format!(
            "unexpected trailing arguments: {:?}",
            &args[from..]
        )))
    } else {
        Ok(())
    }
}

fn print_nodes(td: &TypedDocument, nodes: &[vpbn_suite::xml::NodeId]) {
    for &n in nodes {
        println!(
            "{:<14} {}",
            td.pbn().pbn_of(n).to_string(),
            serialize::serialize_node(td.doc(), n, SerializeOptions::compact())
        );
    }
    eprintln!("{} node(s)", nodes.len());
}

/// The paper's running example, self-contained.
fn demo() -> Result<(), VhError> {
    let mut engine = Engine::new();
    engine.register(vpbn_suite::xml::builder::paper_figure2());
    println!("Figure 2 instance registered as book.xml\n");
    println!("Rhonda's query (Figure 6):\n");
    let q = r#"for $t in virtualDoc("book.xml", "title { author { name } }")//title
               return <result><title>{$t/text()}</title>
                              <count>{count($t/author)}</count></result>"#;
    println!("{q}\n");
    let out = engine.run(&QueryRequest::flwr(q))?.document;
    println!("{}", serialize(&out, SerializeOptions::pretty(2)));
    Ok(())
}
