//! Set-up, the timed phases, the checks and the metrics of each workload.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use vh_core::ExecOptions;
use vh_query::Engine;
use vh_serve::{Client, Registry, Server, ServerConfig, ServerHandle, TenantQuota};
use vh_workload::{generate_books, BooksConfig};
use vh_xml::{serialize, SerializeOptions};

use crate::exec::{
    client_op, engine_op, layer_calls, replay_op, wire_body, Ctx, Ledger, Rec, Tracer,
};
use crate::gen::{
    books_of, physical_twin, view_queries, Class, Counts, EditStream, Op, ServedMix, Step,
    ViewQuery, Q_RARE, SAM, SERVED_PATHS, URI,
};
use crate::{Args, Metric, Outcome, Workload};

/// `served-mix` corpus: ~1.2K nodes, well inside L2.
const SERVED_BOOKS: usize = 100;
/// `view-query` and `edit-stream` corpus: ~24K nodes, several MB.
const LARGE_BOOKS: usize = 2000;
/// Closed-loop callers of `served-mix` (one per core of a 2-core box).
const CLIENTS: usize = 2;

/// A run is measured in blocks of a fixed op count. The first block is a
/// warm-up and is not timed.
///
/// `served-mix` block: ops per client. Each block starts from a fresh
/// corpus (and server): edits grow the engine's node-id space and mint
/// longer keys, so a run's cost would otherwise depend on how many edits
/// it managed, and the restarts spread the timed set-ups over the run
/// ([`setup_seconds`]).
const SERVED_BLOCK_OPS: usize = 1500;

/// `edit-stream` block (an episode on a fresh corpus).
const EDIT_BLOCK_OPS: usize = 400;

/// `view-query` block: five decks of its op mix.
const VIEW_BLOCK_OPS: usize = 100;

/// The warm-up block's timing window: it ends by op count.
const UNTIMED: Duration = Duration::from_secs(3600);

fn books_config(w: Workload, seed: u64) -> BooksConfig {
    BooksConfig {
        books: match w {
            Workload::ServedMix => SERVED_BOOKS,
            Workload::ViewQuery | Workload::EditStream => LARGE_BOOKS,
        },
        seed,
        ..BooksConfig::default()
    }
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

// ------------------------------------------------------------- samples ---

/// Latencies by class plus the op tally of one phase.
#[derive(Default)]
pub struct Samples {
    by: BTreeMap<Class, Vec<u64>>,
    /// Latencies by class and [`Op::key`]: a cold open and a warm query of
    /// one path are two keys.
    by_key: BTreeMap<(Class, String), Vec<u64>>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    measured: u64,
    elapsed: f64,
    /// Whether the phase ran its full op budget (not cut by the clock).
    complete: bool,
}

impl Samples {
    fn record(&mut self, op: &Op, ns: u64, res: Result<(), String>, timed: bool) {
        self.attempted += 1;
        match res {
            Ok(()) if timed => {
                self.measured += 1;
                self.by.entry(op.class()).or_default().push(ns);
                self.by_key
                    .entry((op.class(), op.key()))
                    .or_default()
                    .push(ns);
            }
            Ok(()) => {}
            Err(e) => {
                self.failed += 1;
                if self.failures.len() < 5 {
                    self.failures.push(e);
                }
            }
        }
    }

    fn merge(&mut self, o: Samples) {
        for (c, v) in o.by {
            self.by.entry(c).or_default().extend(v);
        }
        for (k, v) in o.by_key {
            self.by_key.entry(k).or_default().extend(v);
        }
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.failures.extend(o.failures);
        self.measured += o.measured;
        self.elapsed = self.elapsed.max(o.elapsed);
    }

    /// Appends a later phase: its time adds to this one's.
    fn then(&mut self, o: Samples) {
        let elapsed = self.elapsed + o.elapsed;
        self.merge(o);
        self.elapsed = elapsed;
    }

    fn pool(&self, keep: impl Fn(Class) -> bool) -> Vec<u64> {
        let mut v: Vec<u64> = self
            .by
            .iter()
            .filter(|(c, _)| keep(**c))
            .flat_map(|(_, v)| v.iter().copied())
            .collect();
        v.sort_unstable();
        v
    }

    fn ops_per_s(&self) -> f64 {
        self.measured as f64 / self.elapsed.max(1e-9)
    }
}

/// The percentile of each op key's timed latencies that stands for the
/// key in the end-to-end metrics ([`fast_stream`]).
const FAST_PCT: f64 = 0.1;

/// The timed op stream of the classes `keep` picks, each op at its key's
/// [`FAST_PCT`] latency over the run, sorted, in ns.
///
/// The shared host runs the same code at two speeds about 1.6x apart.
/// They alternate every few seconds, and the runs differ in how much of
/// their time they spend slow; it also stalls single ops in bursts of
/// steal. A key's low percentile reads its latency at the faster speed,
/// which a run reaches for a while unless the host stays slow throughout,
/// so a run's figures do not depend on how long it was kept slow. A
/// program change that slows every op of a key moves the key's low
/// percentile with it.
fn fast_stream(s: &Samples, keep: impl Fn(Class) -> bool) -> Vec<u64> {
    let mut v: Vec<u64> = Vec::new();
    for ((class, _), ns) in &s.by_key {
        if !keep(*class) {
            continue;
        }
        let mut ns = ns.clone();
        ns.sort_unstable();
        v.extend(std::iter::repeat_n(ns[rank(ns.len(), FAST_PCT)], ns.len()));
    }
    v.sort_unstable();
    v
}

/// The median of sorted samples, smoothed: the mean of their 40th to
/// 60th percentiles, in microseconds. An op stream mixes keys whose
/// latencies lie far apart, and a plain median jumps from one key to the
/// next when the seed's corpus shifts them a little.
fn p50_us(sorted: &[u64]) -> Option<f64> {
    let lo = sorted.len() * 2 / 5;
    let band = sorted.get(lo..(sorted.len() * 3 / 5).max(lo + 1))?;
    mean(&band.iter().map(|&ns| ns as f64 / 1e3).collect::<Vec<_>>())
}

/// The closed-loop rate of `callers` callers over an op stream (Little's
/// law): callers × ops / the stream's total latency.
fn ops_per_s(stream: &[u64], callers: usize) -> Option<f64> {
    let ns: u64 = stream.iter().sum();
    (ns > 0).then(|| callers as f64 * stream.len() as f64 * 1e9 / ns as f64)
}

/// The index of the nearest-rank `p` percentile among `len` sorted
/// samples (`len` > 0).
fn rank(len: usize, p: f64) -> usize {
    ((p * len as f64).ceil() as usize).clamp(1, len) - 1
}

/// Nearest-rank percentile of sorted samples, in microseconds.
fn pct_us(sorted: &[u64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(sorted.len(), p)] as f64 / 1e3)
}

fn median(v: &[f64]) -> Option<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    (!s.is_empty()).then(|| s[(s.len() - 1) / 2])
}

fn mean(v: &[f64]) -> Option<f64> {
    (!v.is_empty()).then(|| v.iter().sum::<f64>() / v.len() as f64)
}

// ------------------------------------------------------------- running ---

enum Gen {
    Served(ServedMix),
    View(ViewQuery),
    Edits(EditStream),
}

impl Gen {
    fn next_step(&mut self) -> Step {
        match self {
            Gen::Served(g) => g.next_step(),
            Gen::View(g) => g.next_step(),
            Gen::Edits(g) => g.next_step(),
        }
    }
}

trait Runner {
    fn step(&mut self) -> Step;
    fn run(&mut self, op: &Op) -> Result<u64, String>;
    fn after(&mut self, _op: &Op) -> Result<(), String> {
        Ok(())
    }
}

/// Closed loop: each op is sent only after the previous one answered,
/// until `length` has passed or `max_ops` ops ran. Ops in the warm-up are
/// run and checked but not timed.
fn drive(r: &mut dyn Runner, warm: Duration, length: Duration, max_ops: usize) -> Samples {
    let start = Instant::now();
    let (from, until) = (start + warm, start + warm + length);
    let mut s = Samples::default();
    while Instant::now() < until && (s.attempted as usize) < max_ops {
        let step = r.step();
        let t0 = Instant::now();
        let res = r.run(&step.op);
        let ns = t0.elapsed().as_nanos() as u64;
        let res = match res {
            Ok(n) if step.accept.is_empty() || step.accept.contains(&n) => r.after(&step.op),
            Ok(n) => Err(format!(
                "{:?} answered {n}, accepted {:?}",
                step.op, step.accept
            )),
            Err(e) => Err(format!("{:?}: {e}", step.op)),
        };
        s.record(&step.op, ns, res, t0 >= from);
    }
    s.elapsed = Instant::now().saturating_duration_since(from).as_secs_f64();
    s.complete = s.attempted as usize >= max_ops;
    s
}

struct Direct<'a> {
    engine: &'a mut Engine,
    gen: &'a mut Gen,
    ctx: &'a Ctx,
    off: Tracer,
}

impl Runner for Direct<'_> {
    fn step(&mut self) -> Step {
        self.gen.next_step()
    }
    fn run(&mut self, op: &Op) -> Result<u64, String> {
        engine_op(self.engine, self.ctx, op, false, &mut self.off).map(|r| r.count)
    }
}

struct Socket<'a> {
    client: &'a mut Client,
    gen: &'a mut Gen,
    ctx: &'a Ctx,
}

impl Runner for Socket<'_> {
    fn step(&mut self) -> Step {
        loop {
            let s = self.gen.next_step();
            if wire_body(&s.op, self.ctx).is_some() {
                return s;
            }
        }
    }
    fn run(&mut self, op: &Op) -> Result<u64, String> {
        client_op(self.client, self.ctx, op)
    }
}

struct Replay<'a> {
    reg: &'a Registry,
    gen: &'a mut Gen,
    ctx: &'a Ctx,
    tr: &'a mut Tracer,
}

impl Runner for Replay<'_> {
    fn step(&mut self) -> Step {
        self.gen.next_step()
    }
    fn run(&mut self, op: &Op) -> Result<u64, String> {
        self.tr.op += 1;
        self.tr.begin("op");
        let r = replay_op(self.reg, self.ctx, op, self.tr);
        self.tr.end();
        r
    }
    fn after(&mut self, op: &Op) -> Result<(), String> {
        if !self.tr.on {
            return Ok(());
        }
        let tenant = self.reg.tenant(self.ctx.tenant).ok_or("tenant missing")?;
        let engine = tenant.engine();
        layer_calls(&engine, self.ctx, op, self.tr)
    }
}

fn socket_phase(
    clients: &mut [Client],
    gens: &mut [Gen],
    ctx: &Ctx,
    warm: Duration,
    len: Duration,
    max_ops: usize,
) -> Samples {
    let mut total = Samples::default();
    let mut complete = true;
    std::thread::scope(|s| {
        let hs: Vec<_> = clients
            .iter_mut()
            .zip(gens.iter_mut())
            .map(|(client, gen)| {
                s.spawn(move || drive(&mut Socket { client, gen, ctx }, warm, len, max_ops))
            })
            .collect();
        for h in hs {
            let part = h.join().expect("client thread panicked");
            complete &= part.complete;
            total.merge(part);
        }
    });
    total.complete = complete;
    total
}

fn replay_phase(
    reg: &Registry,
    gens: &mut [Gen],
    ctx: &Ctx,
    on: bool,
    origin: Instant,
    len: Duration,
) -> (Samples, Vec<Tracer>) {
    let mut total = Samples::default();
    let mut tracers = Vec::new();
    std::thread::scope(|s| {
        let hs: Vec<_> = gens
            .iter_mut()
            .enumerate()
            .map(|(i, gen)| {
                s.spawn(move || {
                    let mut tr = Tracer::new(on, origin);
                    tr.op = (i as u64 + 1) << 40;
                    let samples = drive(
                        &mut Replay {
                            reg,
                            gen,
                            ctx,
                            tr: &mut tr,
                        },
                        Duration::ZERO,
                        len,
                        usize::MAX,
                    );
                    (samples, tr)
                })
            })
            .collect();
        for h in hs {
            let (samples, tr) = h.join().expect("replay thread panicked");
            total.merge(samples);
            tracers.push(tr);
        }
    });
    (total, tracers)
}

// --------------------------------------------------------------- set-up ---

struct Built {
    engine: Engine,
    register_ns: u64,
}

/// Corpus generation, registration and view warm-up.
fn build(w: Workload, seed: u64, ctx: &Ctx) -> Result<Built, String> {
    let doc = generate_books(URI, &books_config(w, seed));
    let mut engine = Engine::new();
    let t = Instant::now();
    engine.register(doc);
    let register_ns = t.elapsed().as_nanos() as u64;
    let warm: Vec<Op> = match w {
        Workload::ServedMix => SERVED_PATHS
            .iter()
            .map(|&(path, _)| Op::Virtual { spec: SAM, path })
            .chain([Op::Flwr])
            .collect(),
        Workload::ViewQuery | Workload::EditStream => view_queries()
            .into_iter()
            .map(|(spec, path, _)| Op::Virtual { spec, path })
            .collect(),
    };
    let mut off = Tracer::new(false, Instant::now());
    for op in &warm {
        engine_op(&mut engine, ctx, op, false, &mut off)?;
    }
    Ok(Built {
        engine,
        register_ns,
    })
}

fn serve(engine: Engine, clients: usize, ctx: &Ctx) -> Result<(ServerHandle, Vec<Client>), String> {
    let mut reg = Registry::new();
    reg.add_tenant(ctx.tenant, engine, TenantQuota::default())
        .map_err(|r| r.message)?;
    let config = ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", reg, config).map_err(err)?;
    let addr = server.local_addr();
    let handle = server.start().map_err(err)?;
    let clients = (0..clients)
        .map(|_| Client::connect(addr, ctx.tenant))
        .collect::<Result<Vec<_>, _>>();
    match clients {
        Ok(c) => Ok((handle, c)),
        Err(e) => {
            handle.shutdown();
            Err(err(e))
        }
    }
}

/// Set-ups at the start of a run. Most of a run's timed set-ups are the
/// block restarts, spread over the run: set-up time, too, switches
/// between the host's two speeds in streaks of tens of milliseconds, and
/// a run's [`setup_seconds`] read off many back-to-back set-ups would
/// depend on the streak the run started in.
const SETUPS: usize = 5;

/// Runs `make` `reps` times and returns the last result with the seconds
/// each set-up took. Each earlier result is discarded before the next one
/// is made, so the peak RSS covers one set-up.
fn timed_setup<T>(
    reps: usize,
    mut make: impl FnMut() -> Result<T, String>,
    mut discard: impl FnMut(T),
) -> Result<(T, Vec<f64>), String> {
    let mut times = Vec::new();
    let mut kept = None;
    for _ in 0..reps {
        if let Some(old) = kept.take() {
            discard(old);
        }
        let t = Instant::now();
        kept = Some(make()?);
        times.push(t.elapsed().as_secs_f64());
    }
    let kept = kept.ok_or("no set-up ran")?;
    Ok((kept, times))
}

/// `setup_s`: the [`FAST_PCT`] percentile of a run's set-up times, read
/// like an op key's ([`fast_stream`]). The set-ups that restart each block
/// count too, so the set-ups spread over the run.
fn setup_seconds(times: &[f64]) -> f64 {
    let mut t = times.to_vec();
    t.sort_by(f64::total_cmp);
    t.get(rank(t.len(), FAST_PCT)).copied().unwrap_or(0.0)
}

/// The queries every workload's oracle answers and the durability check
/// compares between the live and the recovered engine.
fn check_ops() -> Vec<Op> {
    SERVED_PATHS
        .iter()
        .flat_map(|&(v, p)| [Op::Virtual { spec: SAM, path: v }, Op::Point { path: p }])
        .chain([
            Op::Flwr,
            Op::Virtual {
                spec: SAM,
                path: Q_RARE,
            },
        ])
        .collect()
}

/// Answers on the starting document, from a fresh engine whose compiled
/// view cache is off. `view-query` also checks that the virtual and the
/// physical structural joins pair the same number of nodes.
fn oracle(w: Workload, seed: u64, ctx: &Ctx) -> Result<Counts, String> {
    let mut e = Engine::new();
    e.set_exec_options(ExecOptions {
        cache: false,
        ..ExecOptions::default()
    });
    e.register(generate_books(URI, &books_config(w, seed)));
    let mut ops = check_ops();
    if w == Workload::ViewQuery {
        for (spec, path, twin) in view_queries() {
            ops.push(Op::Virtual { spec, path });
            ops.push(Op::Point { path: twin });
        }
        ops.extend([Op::Sjoin, Op::TwigJoin]);
        let mut on = Tracer::new(true, Instant::now());
        layer_calls(&e, ctx, &Op::Sjoin, &mut on)?;
    }
    let mut off = Tracer::new(false, Instant::now());
    let mut counts = Counts::new();
    for op in ops {
        let n = engine_op(&mut e, ctx, &op, false, &mut off)?.count;
        counts.insert(op.key(), n);
    }
    Ok(counts)
}

/// Durability: a fresh engine over the base corpus recovers the live
/// engine's acknowledged log and must match it byte for byte and answer
/// every check query the same.
fn durability(live: &mut Engine, w: Workload, seed: u64, ctx: &Ctx) -> Result<(), String> {
    let mut fresh = Engine::new();
    fresh.register(generate_books(URI, &books_config(w, seed)));
    let rec = fresh.recover(live.wal_bytes()).map_err(err)?;
    if !rec.is_clean() || rec.replayed != live.applied_seq() {
        return Err(format!(
            "recovery replayed {} of {} acknowledged edits: {}",
            rec.replayed,
            live.applied_seq(),
            rec.to_json()
        ));
    }
    let text = |e: &Engine| {
        e.document(URI)
            .map(|t| serialize(t.doc(), SerializeOptions::compact()))
    };
    if text(live) != text(&fresh) {
        return Err("recovered document differs from the live one".to_owned());
    }
    let mut off = Tracer::new(false, Instant::now());
    for op in check_ops() {
        let a = engine_op(live, ctx, &op, false, &mut off)?.count;
        let b = engine_op(&mut fresh, ctx, &op, false, &mut off)?.count;
        if a != b {
            return Err(format!("{op:?}: live {a}, recovered {b}"));
        }
    }
    Ok(())
}

fn arena_bytes_per_node(e: &Engine) -> Result<f64, String> {
    let arena = e
        .document(URI)
        .ok_or("corpus not registered")?
        .pbn()
        .arena();
    Ok(arena.heap_bytes() as f64 / arena.len().max(1) as f64)
}

fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(err)?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

fn wal_bytes_per_edit(e: &Engine) -> Option<f64> {
    (e.applied_seq() > 0).then(|| e.wal_bytes().len() as f64 / e.applied_seq() as f64)
}

// ------------------------------------------------------------ workloads ---

/// Everything a finished run hands to the metric assembly.
struct Run {
    setup_s: f64,
    register_ms: f64,
    main: Samples,
    /// Complete timed blocks of a `--trace 0` run.
    blocks: usize,
    end: End,
    layers: Option<Layers>,
}

/// What the end of a run reads off the live engine.
struct End {
    checks: Vec<String>,
    peak_rss_mb: f64,
    arena_bytes_per_node: f64,
    wal_bytes_per_edit: Option<f64>,
}

/// Reads the peak RSS, the arena and the WAL size of the live engine,
/// then runs the durability check on the edit workloads. The peak is read
/// first because the check builds a second engine.
fn finish(engine: &mut Engine, a: &Args, ctx: &Ctx) -> Result<End, String> {
    let mut end = End {
        checks: Vec::new(),
        peak_rss_mb: peak_rss_mb()?,
        arena_bytes_per_node: arena_bytes_per_node(engine)?,
        wal_bytes_per_edit: wal_bytes_per_edit(engine),
    };
    if a.workload != Workload::ViewQuery {
        end.checks
            .extend(durability(engine, a.workload, a.seed, ctx).err());
    }
    Ok(end)
}

/// What the blocks of a `--trace 0` run measured.
struct Measured {
    main: Samples,
    /// `arena_bytes_per_node` at the end of each complete block.
    arenas: Vec<f64>,
}

/// Runs a workload in blocks (see [`SERVED_BLOCK_OPS`]) until `seconds`
/// of timed blocks have passed. `block` runs one block on `state` with a
/// warm-up and a time budget, `arena` reads the arena after a complete
/// block, and `restart` readies `state` for the given next block.
fn run_blocks<S>(
    state: &mut S,
    seconds: f64,
    mut block: impl FnMut(&mut S, Duration, Duration) -> Result<Samples, String>,
    mut arena: impl FnMut(&mut S) -> Result<f64, String>,
    mut restart: impl FnMut(&mut S, u64) -> Result<(), String>,
) -> Result<Measured, String> {
    let mut m = Measured {
        main: Samples::default(),
        arenas: Vec::new(),
    };
    for n in 0u64.. {
        let (warm, left) = match n {
            0 => (UNTIMED, Duration::ZERO),
            _ => (Duration::ZERO, secs((seconds - m.main.elapsed).max(0.0))),
        };
        let s = block(state, warm, left)?;
        if s.complete && n > 0 {
            m.arenas.push(arena(state)?);
        }
        m.main.then(s);
        if m.main.elapsed >= seconds {
            break;
        }
        restart(state, n + 1)?;
    }
    Ok(m)
}

/// A `--trace 0` run; its arena is the median over complete blocks when
/// it had any.
fn blocks_run(setup_s: f64, register_ms: f64, m: Measured, mut end: End) -> Run {
    if let Some(arena) = median(&m.arenas) {
        end.arena_bytes_per_node = arena;
    }
    Run {
        setup_s,
        register_ms,
        main: m.main,
        blocks: m.arenas.len(),
        end,
        layers: None,
    }
}

/// What the traced phases collect.
struct Layers {
    /// Untraced ops timed by the workload's own executor (class latencies).
    classes: Samples,
    socket: Samples,
    replay: Samples,
    /// Engine-lock acquisition times of the untraced replay, in ns.
    replay_waits: Vec<u64>,
    traced: Samples,
    tracers: Vec<Tracer>,
    probe: Samples,
    probe_ledger: Ledger,
    cache_hits: u64,
    cache_misses: u64,
    shed: u64,
    dropped: u64,
}

fn warmup(seconds: f64) -> Duration {
    Duration::from_secs_f64((seconds * 0.05).min(1.0))
}

fn secs(s: f64) -> Duration {
    Duration::from_secs_f64(s)
}

/// `(steal, total)` CPU ticks of the machine from `/proc/stat`: steal is
/// time the hypervisor gave this guest's CPUs to others.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// The share of CPU time stolen between two [`cpu_ticks`] readings; 0
/// where the machine does not report steal.
fn steal_share(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> f64 {
    match (before, after) {
        (Some((s0, t0)), Some((s1, t1))) => {
            s1.saturating_sub(s0) as f64 / t1.saturating_sub(t0).max(1) as f64
        }
        _ => 0.0,
    }
}

pub fn run(a: &Args) -> Result<Outcome, String> {
    let ctx = Ctx::new();
    let counts = oracle(a.workload, a.seed, &ctx)?;
    let before = cpu_ticks();
    let r = match a.workload {
        Workload::ServedMix => served_mix(a, &ctx, &counts)?,
        Workload::ViewQuery | Workload::EditStream => in_process(a, &ctx, &counts)?,
    };
    println!(
        "host CPU steal during the run: {:.1}%",
        steal_share(before, cpu_ticks()) * 100.0
    );
    report(a, r)
}

/// A running `served-mix` server with its clients and their op streams.
struct Served {
    handle: ServerHandle,
    clients: Vec<Client>,
    gens: Vec<Gen>,
}

impl Served {
    fn stop(self) {
        drop(self.clients);
        self.handle.shutdown();
    }
}

fn running(st: &mut Option<Served>) -> Result<&mut Served, String> {
    st.as_mut().ok_or_else(|| "server not running".to_owned())
}

/// Runs `f` on the tenant's engine behind `handle`.
fn with_engine<T>(
    handle: &ServerHandle,
    ctx: &Ctx,
    f: impl FnOnce(&mut Engine) -> Result<T, String>,
) -> Result<T, String> {
    let tenant = handle
        .registry()
        .tenant(ctx.tenant)
        .ok_or("tenant missing")?;
    let mut engine = tenant.engine();
    f(&mut engine)
}

fn served_mix(a: &Args, ctx: &Ctx, counts: &Counts) -> Result<Run, String> {
    let start = |episode: u64| -> Result<(Served, f64), String> {
        let b = build(a.workload, a.seed, ctx)?;
        let (handle, clients) = serve(b.engine, CLIENTS, ctx)?;
        let gens = (0..CLIENTS)
            .map(|c| {
                Gen::Served(ServedMix::new(
                    episode_seed(a.seed, episode),
                    c,
                    CLIENTS,
                    counts,
                ))
            })
            .collect();
        let served = Served {
            handle,
            clients,
            gens,
        };
        Ok((served, b.register_ns as f64 / 1e6))
    };
    let mut register = Vec::new();
    let (served, mut setups) = timed_setup(
        SETUPS,
        || {
            let (s, ms) = start(0)?;
            register.push(ms);
            Ok(s)
        },
        Served::stop,
    )?;
    let register_ms = median(&register).unwrap_or(0.0);
    if a.trace {
        let Served {
            handle,
            mut clients,
            mut gens,
        } = served;
        let socket = socket_phase(
            &mut clients,
            &mut gens,
            ctx,
            warmup(a.seconds),
            secs(a.seconds * 0.3),
            usize::MAX,
        );
        drop(clients);
        let layers = replay_layers(
            &handle,
            &mut gens,
            ctx,
            a,
            copy_samples(&socket),
            socket,
            0.2,
            0.5,
        )?;
        let end = with_engine(&handle, ctx, |e| finish(e, a, ctx))?;
        handle.shutdown();
        return Ok(Run {
            setup_s: setup_seconds(&setups),
            register_ms,
            main: layers_tally(&layers),
            blocks: 0,
            end,
            layers: Some(layers),
        });
    }
    // Each block gets a fresh server; the old one stops before the next
    // is built, so the peak RSS covers one.
    let mut state = Some(served);
    let m = run_blocks(
        &mut state,
        a.seconds,
        |st, warm, left| {
            let s = running(st)?;
            let ops = SERVED_BLOCK_OPS;
            Ok(socket_phase(
                &mut s.clients,
                &mut s.gens,
                ctx,
                warm,
                left,
                ops,
            ))
        },
        |st| with_engine(&running(st)?.handle, ctx, |e| arena_bytes_per_node(e)),
        |st, n| {
            if let Some(old) = st.take() {
                old.stop();
            }
            let t = Instant::now();
            *st = Some(start(n)?.0);
            setups.push(t.elapsed().as_secs_f64());
            Ok(())
        },
    )?;
    let served = state.ok_or("server not running")?;
    let end = with_engine(&served.handle, ctx, |e| finish(e, a, ctx))?;
    served.stop();
    Ok(blocks_run(setup_seconds(&setups), register_ms, m, end))
}

fn copy_samples(s: &Samples) -> Samples {
    Samples {
        by: s.by.clone(),
        by_key: s.by_key.clone(),
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
        measured: s.measured,
        elapsed: s.elapsed,
        complete: s.complete,
    }
}

/// The op tally of every traced phase, for `attempted` and `failed`.
fn layers_tally(l: &Layers) -> Samples {
    let mut t = Samples::default();
    for s in [&l.classes, &l.socket, &l.replay, &l.traced, &l.probe] {
        t.attempted += s.attempted;
        t.failed += s.failed;
        t.failures.extend(s.failures.iter().cloned());
    }
    t
}

/// The op-stream seed of one episode.
fn episode_seed(seed: u64, episode: u64) -> u64 {
    seed.wrapping_add(episode.wrapping_mul(1_000_003))
}

/// The stream of `view-query` or of one `edit-stream` episode. The edit
/// stream mirrors the fresh corpus, whose probe answer must agree with the
/// oracle.
fn in_process_gen(a: &Args, episode: u64, engine: &Engine, counts: &Counts) -> Result<Gen, String> {
    let seed = episode_seed(a.seed, episode);
    if a.workload != Workload::EditStream {
        return Ok(Gen::View(ViewQuery::new(seed, counts)));
    }
    let books = books_of(engine.document(URI).ok_or("corpus not registered")?.doc());
    let g = EditStream::new(seed, books);
    let probe = Op::Virtual {
        spec: SAM,
        path: Q_RARE,
    };
    if counts.get(&probe.key()) != Some(&g.rare_authors()) {
        return Err("the stream's probe answer disagrees with the oracle".to_owned());
    }
    Ok(Gen::Edits(g))
}

fn cache_counts(reg: &Registry, ctx: &Ctx) -> Result<(u64, u64), String> {
    let tenant = reg.tenant(ctx.tenant).ok_or("tenant missing")?;
    let c = tenant.engine().snapshot().cache;
    Ok((c.total_hits(), c.total_misses()))
}

fn in_process(a: &Args, ctx: &Ctx, counts: &Counts) -> Result<Run, String> {
    let mut register = Vec::new();
    let (mut engine, mut setups) = timed_setup(
        SETUPS,
        || {
            let b = build(a.workload, a.seed, ctx)?;
            register.push(b.register_ns as f64 / 1e6);
            Ok(b.engine)
        },
        drop,
    )?;
    let register_ms = median(&register).unwrap_or(0.0);
    let mut gen = in_process_gen(a, 0, &engine, counts)?;
    if !a.trace {
        let block_ops = if a.workload == Workload::EditStream {
            EDIT_BLOCK_OPS
        } else {
            VIEW_BLOCK_OPS
        };
        let mut state = (engine, gen);
        let m = run_blocks(
            &mut state,
            a.seconds,
            |(engine, gen), warm, left| {
                let off = Tracer::new(false, Instant::now());
                let mut d = Direct {
                    engine,
                    gen,
                    ctx,
                    off,
                };
                Ok(drive(&mut d, warm, left, block_ops))
            },
            |(engine, _)| arena_bytes_per_node(engine),
            |(engine, gen), n| {
                // Each block gets a fresh corpus, built after the old one
                // is freed so the peak RSS covers one.
                drop(std::mem::take(engine));
                let t = Instant::now();
                *engine = build(a.workload, a.seed, ctx)?.engine;
                setups.push(t.elapsed().as_secs_f64());
                *gen = in_process_gen(a, n, engine, counts)?;
                Ok(())
            },
        )?;
        let end = finish(&mut state.0, a, ctx)?;
        return Ok(blocks_run(setup_seconds(&setups), register_ms, m, end));
    }
    let t = a.seconds;
    let classes = {
        let mut d = Direct {
            engine: &mut engine,
            gen: &mut gen,
            ctx,
            off: Tracer::new(false, Instant::now()),
        };
        drive(&mut d, warmup(t), secs(t * 0.2), usize::MAX)
    };
    let (handle, mut clients) = serve(engine, 1, ctx)?;
    let mut gens = [gen];
    let socket = socket_phase(
        &mut clients,
        &mut gens,
        ctx,
        Duration::ZERO,
        secs(t * 0.15),
        usize::MAX,
    );
    drop(clients);
    let layers = replay_layers(&handle, &mut gens, ctx, a, classes, socket, 0.2, 0.45)?;
    let end = with_engine(&handle, ctx, |e| finish(e, a, ctx))?;
    handle.shutdown();
    Ok(Run {
        setup_s: setup_seconds(&setups),
        register_ms,
        main: layers_tally(&layers),
        blocks: 0,
        end,
        layers: Some(layers),
    })
}

/// The replay phases, the probe suite and the server counters of a traced
/// run; `replay` and `traced` are the untraced and traced replay phases'
/// shares of the run's seconds.
#[allow(clippy::too_many_arguments)]
fn replay_layers(
    handle: &ServerHandle,
    gens: &mut [Gen],
    ctx: &Ctx,
    a: &Args,
    classes: Samples,
    socket: Samples,
    replay: f64,
    traced: f64,
) -> Result<Layers, String> {
    let reg = handle.registry();
    let origin = Instant::now();
    let (replay, plain) = replay_phase(reg, gens, ctx, false, origin, secs(a.seconds * replay));
    let before = cache_counts(reg, ctx)?;
    let (traced, tracers) = replay_phase(reg, gens, ctx, true, origin, secs(a.seconds * traced));
    let after = cache_counts(reg, ctx)?;
    let (probe, probe_ledger) = probe_suite(reg, ctx, a.workload == Workload::ViewQuery)?;
    let m = handle.metrics();
    Ok(Layers {
        classes,
        socket,
        replay,
        replay_waits: plain
            .iter()
            .flat_map(|t| t.lock_waits.iter().copied())
            .collect(),
        traced,
        tracers,
        probe,
        probe_ledger,
        cache_hits: after.0 - before.0,
        cache_misses: after.1 - before.1,
        shed: m.shed_total(),
        dropped: m
            .dropped_connections_total
            .load(std::sync::atomic::Ordering::Relaxed),
    })
}

/// Per-layer calls for op classes the workload's stream lacks, run on the
/// workload's own engine after its traced phase. `edits` adds fresh-book
/// insert/delete pairs (for read-only workloads).
fn probe_suite(reg: &Registry, ctx: &Ctx, edits: bool) -> Result<(Samples, Ledger), String> {
    const EACH: usize = 15;
    let tenant = reg.tenant(ctx.tenant).ok_or("tenant missing")?;
    let mut engine = tenant.engine();
    let mut tr = Tracer::new(true, Instant::now());
    let mut ops = vec![
        Op::Flwr,
        Op::Sjoin,
        Op::TwigJoin,
        Op::Cold {
            spec: SAM,
            path: "//title",
        },
        Op::Virtual {
            spec: SAM,
            path: Q_RARE,
        },
        Op::Point {
            path: physical_twin("q_rare"),
        },
    ];
    if edits {
        ops.push(Op::Edit(vh_query::Edit::InsertSubtree {
            uri: URI.to_owned(),
            parent: "1".to_owned(),
            pos: 0,
            xml: "<book><title>Probe</title><author><name>P</name></author>\
                  <publisher><location>Oslo</location></publisher></book>"
                .to_owned(),
        }));
        ops.push(Op::Edit(vh_query::Edit::DeleteSubtree {
            uri: URI.to_owned(),
            target: "1.1".to_owned(),
        }));
    }
    let mut s = Samples::default();
    for _ in 0..EACH {
        for op in &ops {
            let t0 = Instant::now();
            let res = engine_op(&mut engine, ctx, op, true, &mut tr).map(|_| ());
            let ns = t0.elapsed().as_nanos() as u64;
            let res = res.and_then(|()| layer_calls(&engine, ctx, op, &mut tr));
            s.record(op, ns, res, true);
        }
    }
    Ok((s, tr.ledger))
}

// -------------------------------------------------------------- metrics ---

/// Per-op sums of span durations by name, and the op roots' totals.
struct SpanStats {
    per_op: BTreeMap<&'static str, Vec<f64>>,
    self_ns: BTreeMap<&'static str, f64>,
    root_ns: f64,
    root_self_ns: f64,
}

/// Each span's self time: its duration minus its children's.
fn self_times(recs: &[Rec]) -> Vec<u64> {
    let mut child = vec![0u64; recs.len()];
    for r in recs {
        if let Some(c) = child.get_mut(r.parent as usize) {
            *c += r.end - r.start;
        }
    }
    recs.iter()
        .zip(child)
        .map(|(r, c)| (r.end - r.start).saturating_sub(c))
        .collect()
}

fn span_stats(tracers: &[Tracer]) -> SpanStats {
    let mut st = SpanStats {
        per_op: BTreeMap::new(),
        self_ns: BTreeMap::new(),
        root_ns: 0.0,
        root_self_ns: 0.0,
    };
    for tr in tracers {
        let recs = &tr.recs;
        let own_ns = self_times(recs);
        let mut i = 0;
        while i < recs.len() {
            let op = recs[i].op;
            let mut sums: BTreeMap<&'static str, f64> = BTreeMap::new();
            while i < recs.len() && recs[i].op == op {
                let r = &recs[i];
                let dur = (r.end - r.start) as f64;
                let own = own_ns[i] as f64;
                *sums.entry(r.name).or_default() += dur;
                *st.self_ns.entry(r.name).or_default() += own;
                if r.name == "op" {
                    st.root_ns += dur;
                    st.root_self_ns += own;
                }
                i += 1;
            }
            for (name, v) in sums {
                st.per_op.entry(name).or_default().push(v);
            }
        }
    }
    st
}

/// Traced ops per caller whose spans are written out; the in-memory
/// statistics use every op.
const DUMP_OPS: u64 = 1000;

fn dump_spans(a: &Args, tracers: &[Tracer]) -> Result<String, String> {
    let dir = std::path::PathBuf::from(
        std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "perfbench/target".to_owned()),
    )
    .join("perfbench-spans");
    std::fs::create_dir_all(&dir).map_err(err)?;
    let path = dir.join(format!("{}-seed{}.jsonl", a.workload.name(), a.seed));
    let mut out = String::new();
    let mut id_base = 0usize;
    for tr in tracers {
        let own_ns = self_times(&tr.recs);
        for (i, r) in tr.recs.iter().enumerate() {
            let Rec {
                op,
                parent,
                name,
                start,
                end,
            } = r;
            if op & ((1 << 40) - 1) > DUMP_OPS {
                break;
            }
            let parent = if *parent == u32::MAX {
                "null".to_owned()
            } else {
                (id_base + *parent as usize).to_string()
            };
            out.push_str(&format!(
                "{{\"op\":{op},\"id\":{},\"parent\":{parent},\"name\":\"{name}\",\"start_ns\":{start},\"end_ns\":{end},\"self_ns\":{}}}\n",
                id_base + i,
                own_ns[i]
            ));
        }
        id_base += tr.recs.len();
    }
    std::fs::write(&path, out).map_err(err)?;
    Ok(path.display().to_string())
}

fn report(a: &Args, r: Run) -> Result<Outcome, String> {
    for c in &r.end.checks {
        println!("CHECK FAILED: {c}");
    }
    for f in &r.main.failures {
        println!("OP FAILED: {f}");
    }
    let metrics = match &r.layers {
        None => end_to_end(&r, callers(a.workload))?,
        Some(l) => per_layer(a, &r, l)?,
    };
    Ok(Outcome {
        correct: r.end.checks.is_empty(),
        attempted: r.main.attempted.max(1),
        failed: r.main.failed,
        metrics,
    })
}

fn class_line(s: &Samples) {
    for (c, v) in &s.by {
        let mut v = v.clone();
        v.sort_unstable();
        println!(
            "  {c:?}: n={} p50={:.1}us p99={:.1}us",
            v.len(),
            pct_us(&v, 0.5).unwrap_or(0.0),
            pct_us(&v, 0.99).unwrap_or(0.0)
        );
    }
}

/// Socket op time minus in-process replay time of the same op keys,
/// weighted by how often each key crossed the socket.
fn transport_us(socket: &Samples, replay: &Samples) -> Option<f64> {
    let (mut sum, mut n) = (0.0, 0usize);
    for (key, s) in &socket.by_key {
        let Some(r) = replay.by_key.get(key) else {
            continue;
        };
        let p50 = |v: &Vec<u64>| {
            let mut v = v.clone();
            v.sort_unstable();
            pct_us(&v, 0.5)
        };
        if let (Some(a), Some(b)) = (p50(s), p50(r)) {
            sum += (a - b) * s.len() as f64;
            n += s.len();
        }
    }
    (n > 0).then(|| sum / n as f64)
}

fn need(v: Option<f64>, what: &str) -> Result<f64, String> {
    v.ok_or_else(|| format!("no samples for {what}"))
}

/// Closed-loop callers of a `--trace 0` run.
fn callers(w: Workload) -> usize {
    match w {
        Workload::ServedMix => CLIENTS,
        Workload::ViewQuery | Workload::EditStream => 1,
    }
}

fn end_to_end(r: &Run, callers: usize) -> Result<Vec<Metric>, String> {
    println!(
        "ops: {} timed of {} attempted, {} failed, in {:.2}s",
        r.main.measured, r.main.attempted, r.main.failed, r.main.elapsed
    );
    class_line(&r.main);
    if let Some(w) = r.end.wal_bytes_per_edit {
        println!("wal_bytes_per_edit: {w:.1}");
    }
    println!(
        "{} complete blocks; ops per second of wall time {:.1}",
        r.blocks,
        r.main.ops_per_s()
    );
    let ops = fast_stream(&r.main, |_| true);
    let queries = fast_stream(&r.main, Class::is_query);
    let m = |name, value, unit| Metric { name, value, unit };
    Ok(vec![
        m("setup_s", r.setup_s, "s"),
        m("ops_per_s", need(ops_per_s(&ops, callers), "ops")?, "1/s"),
        m("op_p50_us", need(p50_us(&ops), "ops")?, "us"),
        m("query_p50_us", need(p50_us(&queries), "queries")?, "us"),
        m("arena_bytes_per_node", r.end.arena_bytes_per_node, "B"),
        m("peak_rss_mb", r.end.peak_rss_mb, "MB"),
    ])
}

fn per_layer(a: &Args, r: &Run, l: &Layers) -> Result<Vec<Metric>, String> {
    let spans = span_stats(&l.tracers);
    let mut ledger = Ledger::new();
    for tr in &l.tracers {
        for (k, v) in &tr.ledger {
            ledger.entry(k).or_default().extend(v);
        }
    }
    let path = dump_spans(a, &l.tracers)?;
    let ns_p = |v: Option<&Vec<f64>>, p: f64| -> Option<f64> {
        let mut s: Vec<u64> = v?.iter().map(|x| *x as u64).collect();
        s.sort_unstable();
        pct_us(&s, p)
    };
    let signed_p50 = |led: &Ledger, k: &str| median(led.get(k)?).map(|x| x / 1e3);
    let from = |k: &str| signed_p50(&ledger, k).or_else(|| signed_p50(&l.probe_ledger, k));
    let avg = |k: &str| {
        ledger
            .get(k)
            .and_then(|v| mean(v))
            .or_else(|| l.probe_ledger.get(k).and_then(|v| mean(v)))
    };
    let ratio_of_sums = |num: &str, den: &str| {
        let sum = |led: &Ledger, k: &str| led.get(k).map(|v| v.iter().sum::<f64>());
        match (sum(&ledger, num), sum(&ledger, den)) {
            (Some(n), Some(d)) if d > 0.0 => Some(n / d),
            _ => match (sum(&l.probe_ledger, num), sum(&l.probe_ledger, den)) {
                (Some(n), Some(d)) if d > 0.0 => Some(n / d),
                _ => None,
            },
        }
    };
    let span = |name: &str| ns_p(spans.per_op.get(name), 0.5);
    let class = |c: Class, p: f64| {
        pct_us(&l.classes.pool(|x| x == c), p).or_else(|| pct_us(&l.probe.pool(|x| x == c), p))
    };
    let virt_phys = |s: &Samples| {
        Some(
            pct_us(&s.pool(|c| c == Class::Virtual), 0.5)?
                / pct_us(&s.pool(|c| c == Class::Point), 0.5)?,
        )
    };
    let plain = need(pct_us(&l.replay.pool(|_| true), 0.5), "untraced replay ops")?;
    let traced = need(pct_us(&l.traced.pool(|_| true), 0.5), "traced replay ops")?;
    let mut waits: Vec<u64> = l.replay_waits.clone();
    waits.sort_unstable();
    let unattributed = spans.root_self_ns / spans.root_ns.max(1.0);
    let sjoin = from("sjoin_ns");
    let sjoin_phys = from("sjoin_phys_ns");

    println!(
        "traced run of {}: spans written to {path}",
        a.workload.name()
    );
    println!("self time by span, as a share of traced op time:");
    for (name, ns) in &spans.self_ns {
        println!("  {name:<22} {:.4}", ns / spans.root_ns.max(1.0));
    }
    println!("  (op self time = unattributed: {unattributed:.4})");
    if unattributed > 0.10 {
        println!(
            "FINDING: {:.1}% of traced op time on {} is covered by no span",
            unattributed * 100.0,
            a.workload.name()
        );
    }
    println!("class latencies (untraced, the workload's own executor):");
    class_line(&l.classes);

    let m = |name: &'static str, value: Option<f64>, unit: &'static str| {
        if value.is_none() {
            println!("FINDING: per-layer metric {name} has no samples");
        }
        Metric {
            name,
            value: value.unwrap_or(0.0),
            unit,
        }
    };
    let metrics = vec![
        m("serve.wire_encode_us", span("wire.encode"), "us"),
        m("serve.wire_decode_us", span("wire.decode"), "us"),
        m("serve.route_us", span("route"), "us"),
        m("serve.admit_us", span("admit"), "us"),
        m("serve.respond_us", span("respond"), "us"),
        m("serve.lock_wait_us.p50", pct_us(&waits, 0.5), "us"),
        m("serve.lock_wait_us.p99", pct_us(&waits, 0.99), "us"),
        m(
            "serve.transport_us",
            transport_us(&l.socket, &l.replay),
            "us",
        ),
        m("serve.frame_bytes_per_op", avg("frame_bytes"), "B"),
        m("serve.shed_total", Some(l.shed as f64), "count"),
        m("serve.dropped_total", Some(l.dropped as f64), "count"),
        m("query.parse_us", from("parse_ns"), "us"),
        m("query.plan_us", from("plan_ns"), "us"),
        m("query.exec_us", from("exec_ns"), "us"),
        m("query.eval_us", from("eval_ns"), "us"),
        m("query.materialize_us", from("materialize_ns"), "us"),
        m("query.flwr_exec_us", from("flwr_exec_ns"), "us"),
        m("query.result_nodes_per_op", avg("result_nodes"), "count"),
        m(
            "query.virt_phys_x",
            virt_phys(&l.replay).or_else(|| virt_phys(&l.probe)),
            "x",
        ),
        m("query.sjoin_us", sjoin, "us"),
        m("query.sjoin_phys_us", sjoin_phys, "us"),
        m(
            "query.sjoin_virt_phys_x",
            sjoin.zip(sjoin_phys).map(|(v, p)| v / p),
            "x",
        ),
        m(
            "query.sjoin_comparisons_per_pair",
            avg("sjoin_cmp_per_pair"),
            "count",
        ),
        m("query.twig_us", from("twig_ns"), "us"),
        m(
            "query.twig_seeks_per_match",
            avg("twig_seeks_per_match"),
            "count",
        ),
        m("query.apply_us", from("apply_ns"), "us"),
        m("query.apply_other_us", from("apply_other_ns"), "us"),
        m("core.view_compile_us", from("view_compile_ns"), "us"),
        m(
            "core.cache_hit_ratio",
            Some(l.cache_hits as f64 / (l.cache_hits + l.cache_misses).max(1) as f64),
            "ratio",
        ),
        m("core.cache_hits", Some(l.cache_hits as f64), "count"),
        m("core.cache_misses", Some(l.cache_misses as f64), "count"),
        m(
            "core.axis_slots_per_result",
            ratio_of_sums("axis_slots", "axis_results"),
            "count",
        ),
        m(
            "core.axis_filter_checks_per_scan",
            ratio_of_sums("axis_filters", "axis_scans").or(Some(0.0)),
            "count",
        ),
        m("core.cache_maintained_per_edit", avg("maintained"), "count"),
        m("core.cache_recomputed_per_edit", avg("recomputed"), "count"),
        m("core.cache_fallback_per_edit", avg("fallback"), "count"),
        m("pbn.compact_us", from("compact_ns"), "us"),
        m(
            "pbn.compact_entries_per_edit",
            avg("compact_merged"),
            "count",
        ),
        m("dataguide.register_ms", Some(r.register_ms), "ms"),
        m(
            "dataguide.nodes_touched_per_edit",
            avg("nodes_touched"),
            "count",
        ),
        m("storage.wal_append_us", from("wal_ns"), "us"),
        m("xml.serialize_us", from("serialize_ns"), "us"),
        m("obs.trace_overhead_x", Some(traced / plain), "x"),
        m("unattributed_share", Some(unattributed), "ratio"),
        m("op_p90_us", pct_us(&l.classes.pool(|_| true), 0.9), "us"),
        m("op_p99_us", pct_us(&l.classes.pool(|_| true), 0.99), "us"),
        m(
            "query_p90_us",
            pct_us(&l.classes.pool(Class::is_query), 0.9),
            "us",
        ),
        m(
            "query_p99_us",
            pct_us(&l.classes.pool(Class::is_query), 0.99),
            "us",
        ),
        m("edit_p50_us", class(Class::Edit, 0.5), "us"),
        m("edit_p99_us", class(Class::Edit, 0.99), "us"),
        m("cold_view_p50_us", class(Class::Cold, 0.5), "us"),
        m("join_p50_us", class(Class::Join, 0.5), "us"),
        m("wal_bytes_per_edit", r.end.wal_bytes_per_edit, "B"),
    ];
    Ok(metrics)
}
