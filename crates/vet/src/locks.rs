//! The lock-acquisition model: which lock class every `.lock()` /
//! `.read()` / `.write()` site takes, how long the returned guard
//! lives, and which operations block.
//!
//! A *lock class* is named by the receiver field of the acquisition
//! (`self.engine.lock()` → `engine`, `self.ranges.lock()` → `ranges`);
//! a fn whose return type names a `*Guard` re-exports an acquisition to
//! its callers (`Tenant::engine()` hands back class `engine`, and a
//! custom RAII guard such as `AdmitGuard` names its own class). Guard
//! lifetimes follow Rust's drop rules approximately: a `let`-bound
//! guard lives to the end of its enclosing block (or an explicit
//! `drop(name)`), an expression-embedded guard to the end of its
//! statement. The walk is linear over the token stream — loops are not
//! unrolled and early returns are not path-split (DESIGN.md §16).

use std::collections::BTreeSet;

use crate::callgraph::{CallGraph, CallSite};
use crate::lints::Code;
use crate::model::{FnDef, Model, STD_GUARDS};
use crate::scan::Tok;

/// Method/fn names treated as blocking: socket and file I/O, WAL
/// appends, engine entry points, channels and sleeps. `read`/`write`
/// only count when called *with* arguments (the empty-argument forms
/// are `RwLock` acquisitions).
const BLOCKING: &[&str] = &[
    "read",
    "write",
    "read_exact",
    "read_to_end",
    "read_to_string",
    "write_all",
    "flush",
    "accept",
    "connect",
    "recv",
    "send",
    "sleep",
    "append",
    "run",
    "apply",
    "apply_all",
    "recover",
    "replay",
    "sync_all",
    "sync_data",
];

/// One direct lock acquisition inside a fn body.
pub struct Acquire {
    /// The lock class (receiver field name).
    pub class: String,
    /// 1-based source line.
    pub line: u32,
}

/// One acquired-while-held edge: `acquired` was taken while a guard of
/// class `held` was live.
pub struct Edge {
    /// The class already held.
    pub held: String,
    /// The class being acquired.
    pub acquired: String,
    /// File index of the acquisition site.
    pub file: usize,
    /// 1-based line of the acquisition site.
    pub line: u32,
    /// Taken by a literal `.lock()`/`.read()`/`.write()` (or a
    /// guard-returning call) rather than propagated through a callee's
    /// transitive acquisition set.
    pub direct: bool,
}

/// A guard held across a blocking operation.
pub struct HoldSite {
    /// Classes of every guard live at the site.
    pub held: Vec<String>,
    /// File index.
    pub file: usize,
    /// 1-based line of the blocking operation.
    pub line: u32,
    /// What blocks: the op name, plus the callee chain when indirect.
    pub what: String,
}

/// Lock facts for the whole workspace, indexed like `Model::fns`.
pub struct LockFacts {
    /// Per fn: the lock class its returned guard represents, when the
    /// fn hands a guard back to its caller.
    pub returned_class: Vec<Option<String>>,
    /// Per fn: every class it may acquire, directly or transitively.
    pub trans_acquires: Vec<BTreeSet<String>>,
    /// Per fn: the root blocking op reachable from it, when any.
    pub blocks: Vec<Option<String>>,
    /// Every acquired-while-held edge found by the guard walk.
    pub edges: Vec<Edge>,
    /// Every guard-across-blocking site found by the guard walk.
    pub holds: Vec<HoldSite>,
}

impl LockFacts {
    /// Runs the lock model over every fn in the model.
    pub fn build(model: &Model<'_>, graph: &CallGraph) -> LockFacts {
        let n = model.fns.len();
        let mut direct: Vec<Vec<Acquire>> = Vec::with_capacity(n);
        for (id, f) in model.fns.iter().enumerate() {
            direct.push(direct_acquires(model, graph, id, f));
        }
        let returned_class: Vec<Option<String>> = model
            .fns
            .iter()
            .enumerate()
            .map(|(id, f)| returned_class(f, &direct[id]))
            .collect();

        // Transitive acquisition sets, to a fixpoint.
        let mut trans: Vec<BTreeSet<String>> = direct
            .iter()
            .enumerate()
            .map(|(id, d)| {
                let mut s: BTreeSet<String> = d.iter().map(|a| a.class.clone()).collect();
                if let Some(c) = &returned_class[id] {
                    s.insert(c.clone());
                }
                s
            })
            .collect();
        loop {
            let mut changed = false;
            for id in 0..n {
                for cands in &graph.resolved[id] {
                    for &c in cands {
                        if c == id {
                            continue;
                        }
                        let add: Vec<String> = trans[c]
                            .iter()
                            .filter(|cl| !trans[id].contains(*cl))
                            .cloned()
                            .collect();
                        if !add.is_empty() {
                            trans[id].extend(add);
                            changed = true;
                        }
                    }
                }
            }
            if !changed {
                break;
            }
        }

        // Blocking reachability, to a fixpoint.
        let mut blocks: Vec<Option<String>> = model
            .fns
            .iter()
            .enumerate()
            .map(|(id, _)| {
                graph.sites[id]
                    .iter()
                    .find(|s| is_blocking_site(s))
                    .map(|s| s.callee.clone())
            })
            .collect();
        loop {
            let mut changed = false;
            for id in 0..n {
                if blocks[id].is_some() {
                    continue;
                }
                'sites: for cands in &graph.resolved[id] {
                    for &c in cands {
                        if c != id {
                            if let Some(op) = blocks[c].clone() {
                                blocks[id] = Some(op);
                                changed = true;
                                break 'sites;
                            }
                        }
                    }
                }
            }
            if !changed {
                break;
            }
        }

        let mut edges = Vec::new();
        let mut holds = Vec::new();
        for (id, f) in model.fns.iter().enumerate() {
            // Test code is exempt from the concurrency contracts, like
            // it is from no-panic: tests serialise on purpose.
            if f.in_test {
                continue;
            }
            walk_guards(
                model,
                graph,
                id,
                f,
                &returned_class,
                &trans,
                &blocks,
                &mut edges,
                &mut holds,
            );
        }
        edges.sort_by(|a, b| {
            (a.file, a.line, &a.held, &a.acquired).cmp(&(b.file, b.line, &b.held, &b.acquired))
        });
        edges.dedup_by(|a, b| {
            a.file == b.file && a.line == b.line && a.held == b.held && a.acquired == b.acquired
        });
        holds.sort_by_key(|h| (h.file, h.line));
        holds.dedup_by(|a, b| a.file == b.file && a.line == b.line && a.what == b.what);

        LockFacts {
            returned_class,
            trans_acquires: trans,
            blocks,
            edges,
            holds,
        }
    }
}

/// Is this call site a direct lock acquisition (`.lock()` or the
/// empty-argument `RwLock` `.read()`/`.write()`)?
fn is_acquire_site(site: &CallSite) -> bool {
    site.method && site.empty_args && matches!(site.callee.as_str(), "lock" | "read" | "write")
}

/// Is this call site blocking *by name*? (Resolution-independent; a
/// resolved callee that blocks internally is handled by the fixpoint.)
fn is_blocking_site(site: &CallSite) -> bool {
    if is_acquire_site(site) {
        return false;
    }
    match site.callee.as_str() {
        "read" | "write" => !site.empty_args,
        name => BLOCKING.contains(&name),
    }
}

/// Every direct acquisition in `f`'s body, with its receiver class.
fn direct_acquires(model: &Model<'_>, graph: &CallGraph, id: usize, f: &FnDef) -> Vec<Acquire> {
    let code = model.code_of(f);
    graph.sites[id]
        .iter()
        .filter(|s| is_acquire_site(s))
        .map(|s| Acquire {
            class: receiver_class(code, s.pos),
            line: s.line,
        })
        .collect()
}

/// The lock class a guard-returning fn hands to its callers: for a std
/// guard, the class of the last direct acquisition in its body (the one
/// that escapes); for a custom RAII guard, the guard type's own name.
fn returned_class(f: &FnDef, direct: &[Acquire]) -> Option<String> {
    let guard = f.ret_guard.as_deref()?;
    if STD_GUARDS.contains(&guard) {
        direct
            .last()
            .map(|a| a.class.clone())
            .or_else(|| Some(f.name.clone()))
    } else {
        Some(guard.to_string())
    }
}

/// Names the receiver of the method call at code-position `pos`: the
/// ident to the left of the dot, skipping index (`[…]`) and call
/// (`(…)`) groups — `self.shards[i].lock()` → `shards`.
fn receiver_class(code: &Code<'_>, pos: usize) -> String {
    let mut k = pos.wrapping_sub(2); // token before the `.`
    loop {
        match code.kind(k) {
            Some(Tok::Punct(']')) => match matching_open(code, k, '[', ']') {
                Some(open) => k = open.wrapping_sub(1),
                None => return "anon".into(),
            },
            Some(Tok::Punct(')')) => match matching_open(code, k, '(', ')') {
                Some(open) => match code.kind(open.wrapping_sub(1)) {
                    Some(Tok::Ident(s)) => return s.clone(),
                    _ => k = open.wrapping_sub(1),
                },
                None => return "anon".into(),
            },
            Some(Tok::Ident(s)) => return s.clone(),
            _ => return "anon".into(),
        }
    }
}

/// Backward brace matching: position of the `open` matching the `close`
/// at `at`.
fn matching_open(code: &Code<'_>, at: usize, open: char, close: char) -> Option<usize> {
    let mut depth = 0usize;
    let mut k = at;
    loop {
        if code.is_punct(k, close) {
            depth += 1;
        } else if code.is_punct(k, open) {
            depth -= 1;
            if depth == 0 {
                return Some(k);
            }
        }
        k = k.checked_sub(1)?;
    }
}

/// One live guard during the body walk.
struct Live {
    class: String,
    binding: Option<String>,
    /// Brace depth the guard's scope belongs to.
    depth: usize,
    /// Expression-embedded (dies at the end of the statement).
    stmt: bool,
}

/// Walks `f`'s body in token order, tracking live guards and emitting
/// acquired-while-held edges and guard-across-blocking sites.
#[allow(clippy::too_many_arguments)]
fn walk_guards(
    model: &Model<'_>,
    graph: &CallGraph,
    id: usize,
    f: &FnDef,
    returned: &[Option<String>],
    trans: &[BTreeSet<String>],
    blocks: &[Option<String>],
    edges: &mut Vec<Edge>,
    holds: &mut Vec<HoldSite>,
) {
    let Some((start, end)) = f.body else {
        return;
    };
    let code = model.code_of(f);
    let nested = model.nested_bodies(id);
    let sites = &graph.sites[id];
    let resolved = &graph.resolved[id];
    let site_at = |pos: usize| sites.iter().position(|s| s.pos == pos);

    let mut live: Vec<Live> = Vec::new();
    let mut brace = 0usize;
    let mut paren = 0usize;
    let mut pending_let: Option<String> = None;
    let mut i = start;
    while i <= end {
        if let Some(&(_, ne)) = nested.iter().find(|&&(ns, _)| ns == i) {
            i = ne + 1;
            continue;
        }
        match code.kind(i) {
            Some(Tok::Punct('{')) => brace += 1,
            Some(Tok::Punct('}')) => {
                brace = brace.saturating_sub(1);
                live.retain(|g| g.depth <= brace);
            }
            Some(Tok::Punct('(' | '[')) => paren += 1,
            Some(Tok::Punct(')' | ']')) => paren = paren.saturating_sub(1),
            Some(Tok::Punct(';' | ',')) if paren == 0 => {
                live.retain(|g| !g.stmt);
                pending_let = None;
            }
            Some(Tok::Ident(s)) if s == "let" => {
                pending_let = let_binding(code, i + 1);
            }
            Some(Tok::Ident(s))
                if s == "drop" && code.is_punct(i + 1, '(') && code.is_punct(i + 3, ')') =>
            {
                if let Some(Tok::Ident(victim)) = code.kind(i + 2) {
                    let victim = victim.clone();
                    live.retain(|g| g.binding.as_deref() != Some(victim.as_str()));
                }
            }
            _ => {}
        }
        if let Some(si) = site_at(i) {
            let site = &sites[si];
            let cands = &resolved[si];
            let acquired = if is_acquire_site(site) {
                Some(receiver_class(code, site.pos))
            } else {
                cands
                    .iter()
                    .find_map(|&c| model.fns[c].ret_guard.as_ref().and(returned[c].clone()))
            };
            // Edges: direct/guard-returning acquisition, then classes
            // propagated through the callee's transitive set.
            for g in &live {
                if let Some(a) = &acquired {
                    edges.push(Edge {
                        held: g.class.clone(),
                        acquired: a.clone(),
                        file: f.file,
                        line: site.line,
                        direct: true,
                    });
                }
                for &c in cands {
                    if c == id {
                        continue;
                    }
                    for cl in &trans[c] {
                        if *cl == g.class || Some(cl) == acquired.as_ref() {
                            continue;
                        }
                        edges.push(Edge {
                            held: g.class.clone(),
                            acquired: cl.clone(),
                            file: f.file,
                            line: site.line,
                            direct: false,
                        });
                    }
                }
            }
            // Blocking: by name, or through a resolved callee.
            let blocking = if is_blocking_site(site) {
                Some(site.callee.clone())
            } else {
                cands.iter().filter(|&&c| c != id).find_map(|&c| {
                    blocks[c]
                        .as_ref()
                        .map(|op| format!("{} \u{2192} {op}", model.fns[c].qual_name()))
                })
            };
            if let Some(what) = blocking {
                if !live.is_empty() {
                    let mut held: Vec<String> = live.iter().map(|g| g.class.clone()).collect();
                    held.sort();
                    held.dedup();
                    holds.push(HoldSite {
                        held,
                        file: f.file,
                        line: site.line,
                        what,
                    });
                }
            }
            if let Some(class) = acquired {
                // A guard born inside an argument list or closure is a
                // temporary: the outer `let` does not bind it.
                let binding = if paren == 0 { pending_let.take() } else { None };
                let stmt = binding.is_none();
                live.push(Live {
                    class,
                    binding,
                    depth: brace,
                    stmt,
                });
            }
        }
        i += 1;
    }
}

/// The ident a `let` binds, scanning right from just past the keyword:
/// skips `mut`, pattern constructors and grouping punctuation.
fn let_binding(code: &Code<'_>, from: usize) -> Option<String> {
    for p in from..from + 8 {
        match code.kind(p) {
            Some(Tok::Ident(s)) if matches!(s.as_str(), "mut" | "Ok" | "Some" | "Err") => {}
            Some(Tok::Ident(s)) => return Some(s.clone()),
            Some(Tok::Punct('(' | '&')) => {}
            _ => return None,
        }
    }
    None
}
