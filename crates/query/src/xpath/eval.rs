//! The XPath evaluator, generic over [`QueryDoc`].
//!
//! Semantics follow XPath 1.0 with the usual simplifications of an embedded
//! engine: predicates see positions in axis order (reverse axes count from
//! the nearest node), comparisons are existential over node sets, `=`/`!=`
//! compare strings unless a number is involved, and the relational
//! operators compare numbers.
//!
//! Internally every context is a `Ctx`: either a real node or the
//! conceptual **document node** (`Ctx::Super`) above the root(s). Virtual
//! hierarchies are forests, so `//title` must reach root-level titles —
//! exactly what the standard expansion
//! `/descendant-or-self::node()/child::title` does when the document node
//! is the starting context.

use crate::doc::QueryDoc;
use crate::error::{Limits, ResourceKind};
use crate::xpath::ast::{ArithOp, Axis, CmpOp, Expr, NodeTest, Step, XPath};
use crate::xpath::parse::XPathError;
use std::cell::Cell;
use std::time::{Duration, Instant};
use vh_xml::{NodeId, NodeKind};

/// The value of an XPath expression.
#[derive(Clone, Debug, PartialEq)]
pub enum XValue {
    /// A node set in document order (or axis order inside predicates).
    Nodes(Vec<NodeId>),
    /// Attribute values selected by an attribute step.
    Attrs(Vec<String>),
    /// A string.
    Str(String),
    /// A number.
    Num(f64),
    /// A boolean.
    Bool(bool),
}

impl XValue {
    /// XPath truth: non-empty node set / attribute set, non-empty string,
    /// non-zero non-NaN number.
    pub fn truthy(&self) -> bool {
        match self {
            XValue::Nodes(ns) => !ns.is_empty(),
            XValue::Attrs(a) => !a.is_empty(),
            XValue::Str(s) => !s.is_empty(),
            XValue::Num(n) => *n != 0.0 && !n.is_nan(),
            XValue::Bool(b) => *b,
        }
    }

    /// The node set, if this value is one.
    pub fn into_nodes(self) -> Vec<NodeId> {
        match self {
            XValue::Nodes(ns) => ns,
            _ => Vec::new(),
        }
    }
}

/// Compares two node-free values with XPath semantics (`Attrs` lists are
/// existential; `=`/`!=` compare strings unless a number is involved;
/// relational operators compare numbers). Used by the FLWR engine when the
/// two sides of a comparison come from *different* documents and node sets
/// have already been lifted to their string values.
pub fn compare_values(l: &XValue, op: CmpOp, r: &XValue) -> bool {
    debug_assert!(!matches!(l, XValue::Nodes(_)) && !matches!(r, XValue::Nodes(_)));
    if let XValue::Attrs(a) = l {
        return a
            .iter()
            .any(|v| compare_values(&XValue::Str(v.clone()), op, r));
    }
    if let XValue::Attrs(a) = r {
        return a
            .iter()
            .any(|v| compare_values(l, op, &XValue::Str(v.clone())));
    }
    let numeric = matches!(l, XValue::Num(_))
        || matches!(r, XValue::Num(_))
        || matches!(op, CmpOp::Lt | CmpOp::Le | CmpOp::Gt | CmpOp::Ge);
    if numeric {
        let (a, b) = (value_to_number(l), value_to_number(r));
        match op {
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
        }
    } else {
        let (a, b) = (value_to_string(l), value_to_string(r));
        match op {
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
            _ => unreachable!("relational handled numerically"),
        }
    }
}

/// XPath string conversion of a node-free value (first item of a list).
pub fn value_to_string(v: &XValue) -> String {
    match v {
        XValue::Nodes(_) => String::new(),
        XValue::Attrs(a) => a.first().cloned().unwrap_or_default(),
        XValue::Str(s) => s.clone(),
        XValue::Num(n) => {
            if n.fract() == 0.0 && n.is_finite() {
                format!("{}", *n as i64)
            } else {
                format!("{n}")
            }
        }
        XValue::Bool(b) => b.to_string(),
    }
}

/// XPath number conversion of a node-free value.
pub fn value_to_number(v: &XValue) -> f64 {
    match v {
        XValue::Num(n) => *n,
        XValue::Bool(b) => {
            if *b {
                1.0
            } else {
                0.0
            }
        }
        other => value_to_string(other).trim().parse().unwrap_or(f64::NAN),
    }
}

/// A context: the conceptual document node, or a real node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Ctx {
    /// The document node above the root(s).
    Super,
    /// A real node.
    Node(NodeId),
}

/// Resolver for `$var` bindings: returns the nodes bound to a variable.
pub type VarResolver<'a> = &'a dyn Fn(&str) -> Option<Vec<NodeId>>;

/// Evaluates an absolute path against the document.
pub fn eval_xpath(doc: &dyn QueryDoc, path: &XPath) -> Result<Vec<NodeId>, XPathError> {
    eval_xpath_limited(doc, path, Limits::default())
}

/// [`eval_xpath`] with explicit resource limits.
pub fn eval_xpath_limited(
    doc: &dyn QueryDoc,
    path: &XPath,
    limits: Limits,
) -> Result<Vec<NodeId>, XPathError> {
    match Evaluator::new(doc, None, limits).eval_path(path, Ctx::Super)? {
        XValue::Nodes(ns) => Ok(ns),
        other => Err(XPathError::msg(format!(
            "path evaluated to a non-node value: {other:?}"
        ))),
    }
}

/// Evaluates a (typically relative) path from a context node.
pub fn eval_xpath_from(
    doc: &dyn QueryDoc,
    path: &XPath,
    ctx: NodeId,
) -> Result<Vec<NodeId>, XPathError> {
    match Evaluator::new(doc, None, Limits::default()).eval_path(path, Ctx::Node(ctx))? {
        XValue::Nodes(ns) => Ok(ns),
        other => Err(XPathError::msg(format!(
            "path evaluated to a non-node value: {other:?}"
        ))),
    }
}

/// Evaluates a path that may end in an attribute step. `ctx = None` starts
/// from the document node.
pub fn eval_xpath_value(
    doc: &dyn QueryDoc,
    path: &XPath,
    ctx: Option<NodeId>,
) -> Result<XValue, XPathError> {
    Evaluator::new(doc, None, Limits::default()).eval_path(path, ctx.map_or(Ctx::Super, Ctx::Node))
}

/// Evaluates a path with `$var` support (FLWR engine entry point).
pub fn eval_xpath_with_vars(
    doc: &dyn QueryDoc,
    path: &XPath,
    ctx: Option<NodeId>,
    vars: VarResolver<'_>,
) -> Result<XValue, XPathError> {
    eval_xpath_with_vars_limited(doc, path, ctx, vars, Limits::default())
}

/// [`eval_xpath_with_vars`] with explicit resource limits.
pub fn eval_xpath_with_vars_limited(
    doc: &dyn QueryDoc,
    path: &XPath,
    ctx: Option<NodeId>,
    vars: VarResolver<'_>,
    limits: Limits,
) -> Result<XValue, XPathError> {
    Evaluator::new(doc, Some(vars), limits).eval_path(path, ctx.map_or(Ctx::Super, Ctx::Node))
}

/// Evaluates an expression with `$var` support (FLWR `where` clauses and
/// constructor embeds).
pub fn eval_expr_with_vars(
    doc: &dyn QueryDoc,
    expr: &Expr,
    vars: VarResolver<'_>,
) -> Result<XValue, XPathError> {
    eval_expr_with_vars_limited(doc, expr, vars, Limits::default())
}

/// [`eval_expr_with_vars`] with explicit resource limits.
pub fn eval_expr_with_vars_limited(
    doc: &dyn QueryDoc,
    expr: &Expr,
    vars: VarResolver<'_>,
    limits: Limits,
) -> Result<XValue, XPathError> {
    Evaluator::new(doc, Some(vars), limits).eval_expr(expr, Ctx::Super, 1, 1)
}

/// Evaluates a free-standing expression from a context node (FLWR `where`).
pub fn eval_expr_from(doc: &dyn QueryDoc, expr: &Expr, ctx: NodeId) -> Result<XValue, XPathError> {
    Evaluator::new(doc, None, Limits::default()).eval_expr(expr, Ctx::Node(ctx), 1, 1)
}

/// True when a predicate's value cannot depend on the context position —
/// the condition under which the `//name` index fast path and the batched
/// child step may reorder position bookkeeping. A predicate that yields a
/// number is a position test (`[2]`, `[1+0]`, `[count(name)]`), so only
/// predicates that cannot yield one qualify; any `position()`/`last()`
/// call (also inside nested path predicates) makes the predicate
/// positional.
fn predicate_is_position_free(e: &Expr) -> bool {
    let numeric = match e {
        Expr::Number(_) | Expr::Arith(..) | Expr::Neg(_) => true,
        Expr::Call(name, _) => !matches!(
            name.as_str(),
            "not"
                | "true"
                | "false"
                | "contains"
                | "starts-with"
                | "string"
                | "name"
                | "concat"
                | "normalize-space"
                | "substring"
        ),
        _ => false,
    };
    if numeric {
        return false;
    }
    fn scan(e: &Expr) -> bool {
        match e {
            Expr::Call(name, args) => name != "position" && name != "last" && args.iter().all(scan),
            Expr::Compare(l, _, r) | Expr::And(l, r) | Expr::Or(l, r) | Expr::Arith(l, _, r) => {
                scan(l) && scan(r)
            }
            Expr::Neg(e) => scan(e),
            Expr::Path(p) => p
                .steps
                .iter()
                .all(|s| s.predicates.iter().all(predicate_is_position_free)),
            Expr::Union(paths) => paths.iter().all(|p| {
                p.steps
                    .iter()
                    .all(|s| s.predicates.iter().all(predicate_is_position_free))
            }),
            Expr::Literal(_) | Expr::Number(_) => true,
        }
    }
    scan(e)
}

struct Evaluator<'d> {
    doc: &'d dyn QueryDoc,
    vars: Option<VarResolver<'d>>,
    limits: Limits,
    depth: Cell<usize>,
    steps: Cell<u64>,
    deadline: Option<Instant>,
}

impl<'d> Evaluator<'d> {
    fn new(doc: &'d dyn QueryDoc, vars: Option<VarResolver<'d>>, limits: Limits) -> Self {
        Evaluator {
            doc,
            vars,
            limits,
            depth: Cell::new(0),
            steps: Cell::new(0),
            deadline: limits
                .time_budget_ms
                .map(|ms| Instant::now() + Duration::from_millis(ms)),
        }
    }

    fn exhausted(resource: ResourceKind, limit: u64) -> XPathError {
        XPathError::ResourceExhausted { resource, limit }
    }

    /// Depth guard around the two mutually recursive entry points
    /// (`eval_path` ↔ `eval_expr` via predicates). Nested predicates and
    /// parenthesized expressions each add a level.
    fn enter(&self) -> Result<(), XPathError> {
        let d = self.depth.get() + 1;
        if d > self.limits.max_depth {
            return Err(Self::exhausted(
                ResourceKind::Depth,
                self.limits.max_depth as u64,
            ));
        }
        self.depth.set(d);
        Ok(())
    }

    fn leave(&self) {
        self.depth.set(self.depth.get() - 1);
    }

    /// Charges `n` evaluation steps (context-node × path-step applications)
    /// against the step budget, and checks the wall-clock deadline if one
    /// was configured.
    fn charge(&self, n: u64) -> Result<(), XPathError> {
        let s = self.steps.get().saturating_add(n);
        self.steps.set(s);
        if s > self.limits.max_steps {
            return Err(Self::exhausted(ResourceKind::Steps, self.limits.max_steps));
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() > deadline {
                return Err(Self::exhausted(
                    ResourceKind::Time,
                    self.limits.time_budget_ms.unwrap_or(0),
                ));
            }
        }
        Ok(())
    }

    /// Caps the cardinality of any intermediate or final context set.
    fn check_cardinality(&self, len: usize) -> Result<(), XPathError> {
        if len > self.limits.max_result {
            return Err(Self::exhausted(
                ResourceKind::Cardinality,
                self.limits.max_result as u64,
            ));
        }
        Ok(())
    }

    fn eval_path(&self, path: &XPath, ctx: Ctx) -> Result<XValue, XPathError> {
        self.enter()?;
        let out = self.eval_path_inner(path, ctx);
        self.leave();
        out
    }

    fn eval_path_inner(&self, path: &XPath, ctx: Ctx) -> Result<XValue, XPathError> {
        let mut current: Vec<Ctx> = if let Some(var) = &path.root_var {
            let resolver = self.vars.ok_or_else(|| {
                XPathError::msg(format!("variable ${var} used outside a FLWR context"))
            })?;
            let nodes =
                resolver(var).ok_or_else(|| XPathError::msg(format!("unbound variable ${var}")))?;
            nodes.into_iter().map(Ctx::Node).collect()
        } else if path.absolute {
            vec![Ctx::Super]
        } else {
            vec![ctx]
        };
        let steps = path.steps.as_slice();
        let mut i = 0;
        while i < steps.len() {
            let step = &steps[i];
            // One unit per context node this step is applied to.
            self.charge(current.len() as u64)?;
            if step.axis == Axis::Attribute {
                if i + 1 != steps.len() {
                    return Err(XPathError::msg(
                        "attribute steps are only supported at the end of a path",
                    ));
                }
                return Ok(XValue::Attrs(self.attribute_step(&current, step)));
            }
            // Index fast path: `//name` (descendant-or-self::node()/
            // child::name) answered from the type/name index when the
            // document provides one and the predicates are position-free.
            if step.axis == Axis::DescendantOrSelf
                && step.test == NodeTest::AnyNode
                && step.predicates.is_empty()
            {
                if let Some(next) = steps.get(i + 1) {
                    if next.axis == Axis::Child {
                        if let NodeTest::Name(name) = &next.test {
                            if next.predicates.iter().all(predicate_is_position_free) {
                                if let Some(found) = self.indexed_descendants(&current, name) {
                                    self.check_cardinality(found.len())?;
                                    current = self.apply_predicates(found, &next.predicates)?;
                                    i += 2;
                                    continue;
                                }
                            }
                        }
                    }
                }
            }
            current = match self.batched_children(&current, step) {
                Some(found) => self.apply_predicates(found, &step.predicates)?,
                None => self.apply_step(&current, step)?,
            };
            self.check_cardinality(current.len())?;
            i += 1;
        }
        // The document node never appears in results.
        Ok(XValue::Nodes(
            current
                .into_iter()
                .filter_map(|c| match c {
                    Ctx::Node(n) => Some(n),
                    Ctx::Super => None,
                })
                .collect(),
        ))
    }

    /// Indexed `//name` lookup across a context set; `None` when the
    /// document cannot answer from an index (fall back to the tree walk).
    fn indexed_descendants(&self, input: &[Ctx], name: &str) -> Option<Vec<Ctx>> {
        let scope = |ctx| match ctx {
            Ctx::Super => None,
            Ctx::Node(n) => Some(n),
        };
        if let &[ctx] = input {
            // One answer is already in document order without duplicates
            // (the `descendants_named` contract): nothing to merge.
            let found = self.doc.descendants_named(scope(ctx), name)?;
            return Some(found.into_iter().map(Ctx::Node).collect());
        }
        let mut merged: Vec<Ctx> = Vec::new();
        for &ctx in input {
            let found = self.doc.descendants_named(scope(ctx), name)?;
            merged.extend(found.into_iter().map(Ctx::Node));
        }
        self.sort_dedup(&mut merged);
        Some(merged)
    }

    /// Set-at-a-time child step: a `child::name` or `child::text()` step
    /// with position-free predicates, answered by one batched scan over
    /// the whole context set when the document provides one. The
    /// predicates then run once per distinct child, which equals running
    /// them per context because they cannot see the position. `None`
    /// when the step does not qualify, the set holds the document node,
    /// or the document has no batched scan.
    // oracle: apply_step
    fn batched_children(&self, input: &[Ctx], step: &Step) -> Option<Vec<Ctx>> {
        if step.axis != Axis::Child
            || !matches!(step.test, NodeTest::Name(_) | NodeTest::Text)
            || !step.predicates.iter().all(predicate_is_position_free)
        {
            return None;
        }
        let nodes = input
            .iter()
            .map(|&c| match c {
                Ctx::Node(n) => Some(n),
                Ctx::Super => None,
            })
            .collect::<Option<Vec<NodeId>>>()?;
        let found = self.doc.children_matching(&nodes, &step.test)?;
        Some(found.into_iter().map(Ctx::Node).collect())
    }

    /// Applies one step to a context set: per context, walk the axis,
    /// filter by test, apply predicates positionally, then merge in
    /// document order.
    fn apply_step(&self, input: &[Ctx], step: &Step) -> Result<Vec<Ctx>, XPathError> {
        let mut merged = Vec::new();
        for &ctx in input {
            let axis_nodes = self.axis_nodes(ctx, step.axis);
            let tested = self.filter_test(axis_nodes, &step.test);
            let selected = self.apply_predicates(tested, &step.predicates)?;
            merged.extend(selected);
        }
        self.sort_dedup(&mut merged);
        Ok(merged)
    }

    fn attribute_step(&self, input: &[Ctx], step: &Step) -> Vec<String> {
        let mut out = Vec::new();
        for &ctx in input {
            let Ctx::Node(n) = ctx else { continue };
            if let NodeTest::Name(name) = &step.test {
                if let Some(v) = self.doc.attribute(n, name) {
                    out.push(v);
                }
            }
            // `@*` is not enumerable through the trait: skipped silently.
        }
        out
    }

    /// Contexts on an axis, in axis order (reverse axes nearest-first).
    fn axis_nodes(&self, ctx: Ctx, axis: Axis) -> Vec<Ctx> {
        let node = |n: NodeId| Ctx::Node(n);
        match (ctx, axis) {
            (Ctx::Super, Axis::Child) => self.doc.roots().into_iter().map(node).collect(),
            (Ctx::Super, Axis::Descendant) => {
                let mut out = Vec::new();
                for r in self.doc.roots() {
                    out.push(node(r));
                    out.extend(self.doc.descendants(r).into_iter().map(node));
                }
                out
            }
            (Ctx::Super, Axis::DescendantOrSelf) => {
                let mut out = vec![Ctx::Super];
                out.extend(self.axis_nodes(Ctx::Super, Axis::Descendant));
                out
            }
            (Ctx::Super, Axis::SelfAxis) => vec![Ctx::Super],
            (Ctx::Super, _) => Vec::new(),
            (Ctx::Node(n), axis) => match axis {
                Axis::Child => self.doc.children(n).into_iter().map(node).collect(),
                Axis::Descendant => self.doc.descendants(n).into_iter().map(node).collect(),
                Axis::DescendantOrSelf => {
                    let mut v = vec![node(n)];
                    v.extend(self.doc.descendants(n).into_iter().map(node));
                    v
                }
                Axis::SelfAxis => vec![node(n)],
                Axis::Parent => vec![self.doc.parent(n).map_or(Ctx::Super, node)],
                Axis::Ancestor => {
                    let mut v: Vec<Ctx> = self.doc.ancestors(n).into_iter().map(node).collect();
                    v.push(Ctx::Super);
                    v
                }
                Axis::AncestorOrSelf => {
                    let mut v = vec![node(n)];
                    v.extend(self.doc.ancestors(n).into_iter().map(node));
                    v.push(Ctx::Super);
                    v
                }
                Axis::FollowingSibling => self
                    .doc
                    .following_siblings(n)
                    .into_iter()
                    .map(node)
                    .collect(),
                Axis::PrecedingSibling => {
                    let mut v = self.doc.preceding_siblings(n);
                    v.reverse(); // nearest first
                    v.into_iter().map(node).collect()
                }
                Axis::Following => {
                    // Descendants of following siblings of self and ancestors.
                    let mut out = Vec::new();
                    let mut cur = Some(n);
                    while let Some(c) = cur {
                        for s in self.doc.following_siblings(c) {
                            out.push(s);
                            out.extend(self.doc.descendants(s));
                        }
                        cur = self.doc.parent(c);
                    }
                    out.sort_by(|&a, &b| self.doc.cmp_order(a, b));
                    out.dedup();
                    out.into_iter().map(node).collect()
                }
                Axis::Preceding => {
                    let mut out = Vec::new();
                    let mut cur = Some(n);
                    while let Some(c) = cur {
                        for s in self.doc.preceding_siblings(c) {
                            out.push(s);
                            out.extend(self.doc.descendants(s));
                        }
                        cur = self.doc.parent(c);
                    }
                    // Nearest first = reverse document order.
                    out.sort_by(|&a, &b| self.doc.cmp_order(b, a));
                    out.dedup();
                    out.into_iter().map(node).collect()
                }
                Axis::Attribute => Vec::new(),
            },
        }
    }

    fn filter_test(&self, nodes: Vec<Ctx>, test: &NodeTest) -> Vec<Ctx> {
        nodes
            .into_iter()
            .filter(|&c| match c {
                // The document node matches only node().
                Ctx::Super => matches!(test, NodeTest::AnyNode),
                Ctx::Node(n) => match test {
                    NodeTest::Name(name) => self.doc.name(n) == Some(name.as_str()),
                    NodeTest::AnyElement => self.doc.kind(n).is_element(),
                    NodeTest::Text => self.doc.kind(n).is_text(),
                    NodeTest::AnyNode => true,
                    NodeTest::Comment => matches!(self.doc.kind(n), NodeKind::Comment(_)),
                },
            })
            .collect()
    }

    fn apply_predicates(
        &self,
        mut nodes: Vec<Ctx>,
        predicates: &[Expr],
    ) -> Result<Vec<Ctx>, XPathError> {
        for p in predicates {
            let size = nodes.len();
            let mut kept = Vec::with_capacity(size);
            for (i, &n) in nodes.iter().enumerate() {
                if self.predicate_holds(p, n, i + 1, size)? {
                    kept.push(n);
                }
            }
            nodes = kept;
        }
        Ok(nodes)
    }

    fn predicate_holds(
        &self,
        p: &Expr,
        ctx: Ctx,
        pos: usize,
        size: usize,
    ) -> Result<bool, XPathError> {
        match self.eval_expr(p, ctx, pos, size)? {
            // A bare number predicate is a position test.
            XValue::Num(n) => Ok((n - pos as f64).abs() < f64::EPSILON),
            v => Ok(v.truthy()),
        }
    }

    fn eval_expr(&self, e: &Expr, ctx: Ctx, pos: usize, size: usize) -> Result<XValue, XPathError> {
        self.enter()?;
        let out = self.eval_expr_inner(e, ctx, pos, size);
        self.leave();
        out
    }

    fn eval_expr_inner(
        &self,
        e: &Expr,
        ctx: Ctx,
        pos: usize,
        size: usize,
    ) -> Result<XValue, XPathError> {
        match e {
            Expr::Path(p) => self.eval_path(p, ctx),
            Expr::Literal(s) => Ok(XValue::Str(s.clone())),
            Expr::Number(n) => Ok(XValue::Num(*n)),
            Expr::And(l, r) => Ok(XValue::Bool(
                self.eval_expr(l, ctx, pos, size)?.truthy()
                    && self.eval_expr(r, ctx, pos, size)?.truthy(),
            )),
            Expr::Or(l, r) => Ok(XValue::Bool(
                self.eval_expr(l, ctx, pos, size)?.truthy()
                    || self.eval_expr(r, ctx, pos, size)?.truthy(),
            )),
            Expr::Compare(l, op, r) => {
                let lv = self.eval_expr(l, ctx, pos, size)?;
                let rv = self.eval_expr(r, ctx, pos, size)?;
                Ok(XValue::Bool(self.compare(&lv, *op, &rv)))
            }
            Expr::Arith(l, op, r) => {
                let a = self.to_number(&self.eval_expr(l, ctx, pos, size)?);
                let b = self.to_number(&self.eval_expr(r, ctx, pos, size)?);
                Ok(XValue::Num(match op {
                    ArithOp::Add => a + b,
                    ArithOp::Sub => a - b,
                    ArithOp::Mul => a * b,
                    ArithOp::Div => a / b,
                    ArithOp::Mod => a % b,
                }))
            }
            Expr::Neg(e) => {
                let v = self.to_number(&self.eval_expr(e, ctx, pos, size)?);
                Ok(XValue::Num(-v))
            }
            Expr::Union(paths) => {
                let mut all: Vec<Ctx> = Vec::new();
                for p in paths {
                    match self.eval_path(p, ctx)? {
                        XValue::Nodes(ns) => all.extend(ns.into_iter().map(Ctx::Node)),
                        other => {
                            return Err(XPathError::msg(format!(
                                "union operand evaluated to a non-node value: {other:?}"
                            )))
                        }
                    }
                }
                self.sort_dedup(&mut all);
                Ok(XValue::Nodes(
                    all.into_iter()
                        .filter_map(|c| match c {
                            Ctx::Node(n) => Some(n),
                            Ctx::Super => None,
                        })
                        .collect(),
                ))
            }
            Expr::Call(name, args) => self.eval_call(name, args, ctx, pos, size),
        }
    }

    fn eval_call(
        &self,
        name: &str,
        args: &[Expr],
        ctx: Ctx,
        pos: usize,
        size: usize,
    ) -> Result<XValue, XPathError> {
        let arity = |n: usize| -> Result<(), XPathError> {
            if args.len() == n {
                Ok(())
            } else {
                Err(XPathError::msg(format!(
                    "{name}() expects {n} argument(s), got {}",
                    args.len()
                )))
            }
        };
        match name {
            "count" => {
                arity(1)?;
                match self.eval_expr(&args[0], ctx, pos, size)? {
                    XValue::Nodes(ns) => Ok(XValue::Num(ns.len() as f64)),
                    XValue::Attrs(a) => Ok(XValue::Num(a.len() as f64)),
                    other => Err(XPathError::msg(format!(
                        "count() of a non-node-set: {other:?}"
                    ))),
                }
            }
            "not" => {
                arity(1)?;
                Ok(XValue::Bool(
                    !self.eval_expr(&args[0], ctx, pos, size)?.truthy(),
                ))
            }
            "true" => {
                arity(0)?;
                Ok(XValue::Bool(true))
            }
            "false" => {
                arity(0)?;
                Ok(XValue::Bool(false))
            }
            "position" => {
                arity(0)?;
                Ok(XValue::Num(pos as f64))
            }
            "last" => {
                arity(0)?;
                Ok(XValue::Num(size as f64))
            }
            "contains" => {
                arity(2)?;
                let hay = self.to_string_value(&self.eval_expr(&args[0], ctx, pos, size)?);
                let needle = self.to_string_value(&self.eval_expr(&args[1], ctx, pos, size)?);
                Ok(XValue::Bool(hay.contains(&needle)))
            }
            "starts-with" => {
                arity(2)?;
                let hay = self.to_string_value(&self.eval_expr(&args[0], ctx, pos, size)?);
                let prefix = self.to_string_value(&self.eval_expr(&args[1], ctx, pos, size)?);
                Ok(XValue::Bool(hay.starts_with(&prefix)))
            }
            "string" => {
                arity(1)?;
                let v = self.eval_expr(&args[0], ctx, pos, size)?;
                Ok(XValue::Str(self.to_string_value(&v)))
            }
            "string-length" => {
                arity(1)?;
                let v = self.eval_expr(&args[0], ctx, pos, size)?;
                Ok(XValue::Num(self.to_string_value(&v).chars().count() as f64))
            }
            "number" => {
                arity(1)?;
                let v = self.eval_expr(&args[0], ctx, pos, size)?;
                Ok(XValue::Num(self.to_number(&v)))
            }
            "name" => {
                arity(0)?;
                let n = match ctx {
                    Ctx::Node(n) => self.doc.name(n).unwrap_or_default().to_owned(),
                    Ctx::Super => String::new(),
                };
                Ok(XValue::Str(n))
            }
            "sum" | "avg" | "min" | "max" => {
                arity(1)?;
                let values = self.numeric_values(&self.eval_expr(&args[0], ctx, pos, size)?)?;
                let v = match name {
                    "sum" => values.iter().sum(),
                    "avg" => {
                        if values.is_empty() {
                            f64::NAN
                        } else {
                            values.iter().sum::<f64>() / values.len() as f64
                        }
                    }
                    "min" => values.iter().copied().fold(f64::INFINITY, f64::min),
                    _ => values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
                };
                Ok(XValue::Num(v))
            }
            "floor" | "ceiling" | "round" => {
                arity(1)?;
                let v = self.to_number(&self.eval_expr(&args[0], ctx, pos, size)?);
                Ok(XValue::Num(match name {
                    "floor" => v.floor(),
                    "ceiling" => v.ceil(),
                    _ => (v + 0.5).floor(), // XPath round() half-up
                }))
            }
            "concat" => {
                if args.len() < 2 {
                    return Err(XPathError::msg("concat() needs at least 2 arguments"));
                }
                let mut out = String::new();
                for a in args {
                    out.push_str(&self.to_string_value(&self.eval_expr(a, ctx, pos, size)?));
                }
                Ok(XValue::Str(out))
            }
            "normalize-space" => {
                arity(1)?;
                let v = self.to_string_value(&self.eval_expr(&args[0], ctx, pos, size)?);
                Ok(XValue::Str(
                    v.split_whitespace().collect::<Vec<_>>().join(" "),
                ))
            }
            "substring" => {
                if args.len() != 2 && args.len() != 3 {
                    return Err(XPathError::msg("substring() takes 2 or 3 arguments"));
                }
                let s = self.to_string_value(&self.eval_expr(&args[0], ctx, pos, size)?);
                // XPath positions are 1-based over characters, rounded.
                let start =
                    (self.to_number(&self.eval_expr(&args[1], ctx, pos, size)?) + 0.5).floor();
                let len = if args.len() == 3 {
                    (self.to_number(&self.eval_expr(&args[2], ctx, pos, size)?) + 0.5).floor()
                } else {
                    f64::INFINITY
                };
                let chars: Vec<char> = s.chars().collect();
                let mut out = String::new();
                for (i, c) in chars.iter().enumerate() {
                    let p = (i + 1) as f64;
                    if p >= start && p < start + len {
                        out.push(*c);
                    }
                }
                Ok(XValue::Str(out))
            }
            other => Err(XPathError::msg(format!("unknown function '{other}'"))),
        }
    }

    fn compare(&self, l: &XValue, op: CmpOp, r: &XValue) -> bool {
        // Existential node-set semantics.
        if let XValue::Nodes(ns) = l {
            return ns.iter().any(|&n| {
                let s = XValue::Str(self.doc.string_value(n));
                self.compare(&s, op, r)
            });
        }
        if let XValue::Nodes(ns) = r {
            return ns.iter().any(|&n| {
                let s = XValue::Str(self.doc.string_value(n));
                self.compare(l, op, &s)
            });
        }
        if let XValue::Attrs(a) = l {
            return a
                .iter()
                .any(|v| self.compare(&XValue::Str(v.clone()), op, r));
        }
        if let XValue::Attrs(a) = r {
            return a
                .iter()
                .any(|v| self.compare(l, op, &XValue::Str(v.clone())));
        }
        let numeric = matches!(l, XValue::Num(_))
            || matches!(r, XValue::Num(_))
            || matches!(op, CmpOp::Lt | CmpOp::Le | CmpOp::Gt | CmpOp::Ge);
        if numeric {
            let (a, b) = (self.to_number(l), self.to_number(r));
            match op {
                CmpOp::Eq => a == b,
                CmpOp::Ne => a != b,
                CmpOp::Lt => a < b,
                CmpOp::Le => a <= b,
                CmpOp::Gt => a > b,
                CmpOp::Ge => a >= b,
            }
        } else {
            let (a, b) = (self.to_string_value(l), self.to_string_value(r));
            match op {
                CmpOp::Eq => a == b,
                CmpOp::Ne => a != b,
                _ => unreachable!("relational handled numerically"),
            }
        }
    }

    fn to_string_value(&self, v: &XValue) -> String {
        match v {
            XValue::Nodes(ns) => ns
                .first()
                .map(|&n| self.doc.string_value(n))
                .unwrap_or_default(),
            XValue::Attrs(a) => a.first().cloned().unwrap_or_default(),
            XValue::Str(s) => s.clone(),
            XValue::Num(n) => {
                if n.fract() == 0.0 && n.is_finite() {
                    format!("{}", *n as i64)
                } else {
                    format!("{n}")
                }
            }
            XValue::Bool(b) => b.to_string(),
        }
    }

    /// Per-node numeric values of a node set (or the single value of a
    /// scalar) — the input to the aggregate functions.
    fn numeric_values(&self, v: &XValue) -> Result<Vec<f64>, XPathError> {
        Ok(match v {
            XValue::Nodes(ns) => ns
                .iter()
                .map(|&n| self.doc.string_value(n).trim().parse().unwrap_or(f64::NAN))
                .collect(),
            XValue::Attrs(a) => a
                .iter()
                .map(|s| s.trim().parse().unwrap_or(f64::NAN))
                .collect(),
            other => vec![self.to_number(other)],
        })
    }

    fn to_number(&self, v: &XValue) -> f64 {
        match v {
            XValue::Num(n) => *n,
            XValue::Bool(b) => {
                if *b {
                    1.0
                } else {
                    0.0
                }
            }
            other => self
                .to_string_value(other)
                .trim()
                .parse()
                .unwrap_or(f64::NAN),
        }
    }

    fn sort_dedup(&self, ctxs: &mut Vec<Ctx>) {
        // The document node sorts before everything.
        ctxs.sort_by(|&a, &b| match (a, b) {
            (Ctx::Super, Ctx::Super) => std::cmp::Ordering::Equal,
            (Ctx::Super, _) => std::cmp::Ordering::Less,
            (_, Ctx::Super) => std::cmp::Ordering::Greater,
            (Ctx::Node(x), Ctx::Node(y)) => self.doc.cmp_order(x, y),
        });
        ctxs.dedup();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::doc::PhysicalDoc;
    use crate::testutil::Must;
    use crate::xpath::parse_xpath;
    use vh_dataguide::TypedDocument;
    use vh_xml::builder::paper_figure2;

    fn eval(doc: &dyn QueryDoc, path: &str) -> Vec<NodeId> {
        eval_xpath(doc, &parse_xpath(path).must()).must()
    }

    fn values(doc: &dyn QueryDoc, nodes: &[NodeId]) -> Vec<String> {
        nodes.iter().map(|&n| doc.string_value(n)).collect()
    }

    #[test]
    fn basic_paths_on_figure2() {
        let td = TypedDocument::analyze(paper_figure2());
        let d = PhysicalDoc::new(&td);
        assert_eq!(eval(&d, "/data").len(), 1);
        assert_eq!(eval(&d, "/data/book").len(), 2);
        assert_eq!(values(&d, &eval(&d, "//title")), vec!["X", "Y"]);
        assert_eq!(values(&d, &eval(&d, "//book/title/text()")), vec!["X", "Y"]);
        assert_eq!(eval(&d, "//nosuch").len(), 0);
        assert_eq!(eval(&d, "/nosuch").len(), 0);
        // The root element is reachable by //data too.
        assert_eq!(eval(&d, "//data").len(), 1);
    }

    #[test]
    fn sams_title_to_author_navigation() {
        // $t/../author with $t bound to each title.
        let td = TypedDocument::analyze(paper_figure2());
        let d = PhysicalDoc::new(&td);
        let titles = eval(&d, "//book/title");
        let rel = parse_xpath("../author").must();
        let authors: Vec<NodeId> = titles
            .iter()
            .flat_map(|&t| eval_xpath_from(&d, &rel, t).must())
            .collect();
        assert_eq!(values(&d, &authors), vec!["C", "D"]);
    }

    #[test]
    fn parent_of_root_is_the_document_node() {
        let td = TypedDocument::analyze(paper_figure2());
        let d = PhysicalDoc::new(&td);
        let root = eval(&d, "/data");
        // ../data from the root: up to the document node, down again.
        let rel = parse_xpath("../data").must();
        let back = eval_xpath_from(&d, &rel, root[0]).must();
        assert_eq!(back, root);
    }

    #[test]
    fn predicates_filter_by_value() {
        let td = TypedDocument::analyze(paper_figure2());
        let d = PhysicalDoc::new(&td);
        let books = eval(&d, "//book[title = 'Y']");
        assert_eq!(books.len(), 1);
        assert_eq!(d.string_value(books[0]), "YDM");
        assert_eq!(eval(&d, "//book[title = 'Z']").len(), 0);
        assert_eq!(eval(&d, "//book[count(author) = 1]").len(), 2);
        assert_eq!(eval(&d, "//book[count(author) > 1]").len(), 0);
        assert_eq!(eval(&d, "//book[not(publisher)]").len(), 0);
    }

    #[test]
    fn positional_predicates() {
        let td = TypedDocument::analyze(paper_figure2());
        let d = PhysicalDoc::new(&td);
        let first = eval(&d, "/data/book[1]/title");
        assert_eq!(values(&d, &first), vec!["X"]);
        let last = eval(&d, "/data/book[last()]/title");
        assert_eq!(values(&d, &last), vec!["Y"]);
        let second = eval(&d, "/data/book[position() = 2]/title");
        assert_eq!(values(&d, &second), vec!["Y"]);
    }

    #[test]
    fn reverse_axes_count_from_nearest() {
        let td = TypedDocument::analyze(paper_figure2());
        let d = PhysicalDoc::new(&td);
        let names = eval(&d, "//name");
        let anc = parse_xpath("ancestor::*[1]").must();
        let nearest = eval_xpath_from(&d, &anc, names[0]).must();
        assert_eq!(d.name(nearest[0]), Some("author"));
        let anc2 = parse_xpath("ancestor::*[2]").must();
        let second = eval_xpath_from(&d, &anc2, names[0]).must();
        assert_eq!(d.name(second[0]), Some("book"));
    }

    #[test]
    fn sibling_and_horizontal_axes() {
        let td = TypedDocument::analyze(paper_figure2());
        let d = PhysicalDoc::new(&td);
        let titles = eval(&d, "//title");
        let fs = parse_xpath("following-sibling::*").must();
        let after_title1 = eval_xpath_from(&d, &fs, titles[0]).must();
        let names: Vec<_> = after_title1.iter().map(|&n| d.name(n).must()).collect();
        assert_eq!(names, vec!["author", "publisher"]);
        let fol = parse_xpath("following::title").must();
        let following_titles = eval_xpath_from(&d, &fol, titles[0]).must();
        assert_eq!(values(&d, &following_titles), vec!["Y"]);
        let prec = parse_xpath("preceding::title").must();
        let preceding_titles = eval_xpath_from(&d, &prec, titles[1]).must();
        assert_eq!(values(&d, &preceding_titles), vec!["X"]);
    }

    #[test]
    fn wildcard_and_node_tests() {
        let td = TypedDocument::analyze(paper_figure2());
        let d = PhysicalDoc::new(&td);
        assert_eq!(eval(&d, "/data/*").len(), 2);
        assert_eq!(eval(&d, "//book/*").len(), 6);
        // All text nodes.
        assert_eq!(eval(&d, "//text()").len(), 6);
        // node() matches elements and text alike.
        assert_eq!(eval(&d, "/data//node()").len(), td.doc().len() - 1);
        // //node() excludes only the document node itself.
        assert_eq!(eval(&d, "//node()").len(), td.doc().len());
    }

    #[test]
    fn attribute_access() {
        let td = TypedDocument::parse(
            "u",
            r#"<lib><b id="1"><t>A</t></b><b id="2"><t>B</t></b></lib>"#,
        )
        .must();
        let d = PhysicalDoc::new(&td);
        let b2 = eval(&d, "//b[@id = '2']");
        assert_eq!(values(&d, &b2), vec!["B"]);
        let path = parse_xpath("//b/@id").must();
        match eval_xpath_value(&d, &path, None).must() {
            XValue::Attrs(a) => assert_eq!(a, vec!["1", "2"]),
            other => panic!("expected attrs, got {other:?}"),
        }
        // Numeric comparison on attributes.
        let b_ge = eval(&d, "//b[@id >= 2]");
        assert_eq!(b_ge.len(), 1);
    }

    #[test]
    fn contains_and_string_functions() {
        let td = TypedDocument::analyze(paper_figure2());
        let d = PhysicalDoc::new(&td);
        assert_eq!(eval(&d, "//book[contains(title, 'X')]").len(), 1);
        assert_eq!(eval(&d, "//book[starts-with(title, 'Y')]").len(), 1);
        assert_eq!(eval(&d, "//book[string-length(title) = 1]").len(), 2);
    }

    #[test]
    fn same_query_physical_vs_identity_virtual() {
        use crate::doc::VirtualDoc;
        use vh_core::VirtualDocument;
        let td = TypedDocument::analyze(paper_figure2());
        let vd = VirtualDocument::open(&td, "data { ** }").must();
        let p = PhysicalDoc::new(&td);
        let v = VirtualDoc::new(&vd);
        for q in [
            "//book/title",
            "//author/name/text()",
            "/data/book[2]/publisher/location",
            "//book[title = 'X']//name",
        ] {
            assert_eq!(eval(&p, q), eval(&v, q), "query {q}");
        }
    }

    #[test]
    fn rhondas_query_over_the_virtual_document() {
        // Figure 6: virtualDoc(..., "title { author { name } }")//title,
        // then count($t/author).
        use crate::doc::VirtualDoc;
        use vh_core::VirtualDocument;
        let td = TypedDocument::analyze(paper_figure2());
        let vd = VirtualDocument::open(&td, "title { author { name } }").must();
        let v = VirtualDoc::new(&vd);
        let titles = eval(&v, "//title");
        assert_eq!(titles.len(), 2);
        let count_authors = parse_xpath("author").must();
        for &t in &titles {
            // In the virtual hierarchy each title has exactly one author
            // child — physically authors are the title's siblings.
            assert_eq!(eval_xpath_from(&v, &count_authors, t).must().len(), 1);
        }
        // And the virtual hierarchy answers //title/author/name.
        let names = eval(&v, "//title/author/name");
        assert_eq!(values(&v, &names), vec!["C", "D"]);
    }

    #[test]
    fn number_valued_predicates_stay_position_tests_over_virtual_steps() {
        // A predicate that yields a number is a position test among each
        // context's own children, also on the `//name` and batched child
        // fast paths.
        use crate::doc::VirtualDoc;
        use vh_core::VirtualDocument;
        let td = TypedDocument::parse(
            "u",
            "<data><book><title>X</title><author><name>A</name></author>\
             <author><name>B</name></author></book>\
             <book><title>Y</title><author><name>C</name></author>\
             <author><name>D</name></author></book></data>",
        )
        .must();
        let vd = VirtualDocument::open(&td, "data { ** }").must();
        let v = VirtualDoc::new(&vd);
        let firsts = eval(&v, "//book/author[1]");
        assert_eq!(values(&v, &firsts), vec!["A", "C"]);
        for q in [
            "//book/author[1+0]",
            "//book/author[-(-1)]",
            "//book/author[count(name)]",
            "//book/author[string-length(name)]",
            "/data/book/author[floor(1.5)]",
        ] {
            assert_eq!(eval(&v, q), firsts, "query {q}");
        }
        assert_eq!(values(&v, &eval(&v, "//author[1+0]")), vec!["A", "C"]);
    }

    #[test]
    fn arithmetic_in_predicates() {
        let td = TypedDocument::parse(
            "u",
            "<s><i><p>10</p></i><i><p>25</p></i><i><p>40</p></i></s>",
        )
        .must();
        let d = PhysicalDoc::new(&td);
        assert_eq!(eval(&d, "//i[p > 10 + 5]").len(), 2);
        assert_eq!(eval(&d, "//i[p = 5 * 5]").len(), 1);
        assert_eq!(eval(&d, "//i[p div 2 = 20]").len(), 1);
        assert_eq!(eval(&d, "//i[p mod 2 = 1]").len(), 1);
        assert_eq!(eval(&d, "//i[p > -5]").len(), 3);
        // Precedence: multiplication binds tighter than addition.
        assert_eq!(eval(&d, "//i[p = 5 + 5 * 7]").len(), 1);
    }

    #[test]
    fn aggregate_functions() {
        let td = TypedDocument::parse(
            "u",
            "<s><i><p>10</p></i><i><p>25</p></i><i><p>40</p></i></s>",
        )
        .must();
        let d = PhysicalDoc::new(&td);
        assert_eq!(eval(&d, "/s[sum(i/p) = 75]").len(), 1);
        assert_eq!(eval(&d, "/s[avg(i/p) = 25]").len(), 1);
        assert_eq!(eval(&d, "/s[min(i/p) = 10 and max(i/p) = 40]").len(), 1);
        assert_eq!(eval(&d, "/s[floor(avg(i/p)) = 25]").len(), 1);
        assert_eq!(
            eval(&d, "/s[round(25.5) = 26 and ceiling(25.1) = 26]").len(),
            1
        );
    }

    #[test]
    fn string_function_library() {
        let td = TypedDocument::analyze(paper_figure2());
        let d = PhysicalDoc::new(&td);
        assert_eq!(
            eval(&d, "//book[concat(title, '-', publisher/location) = 'X-W']").len(),
            1
        );
        assert_eq!(eval(&d, "//book[substring(title, 1, 1) = 'Y']").len(), 1);
        assert_eq!(
            eval(
                &d,
                "//book[normalize-space(concat(' ', title, '  ')) = 'X']"
            )
            .len(),
            1
        );
    }

    #[test]
    fn union_merges_in_document_order() {
        let td = TypedDocument::analyze(paper_figure2());
        let d = PhysicalDoc::new(&td);
        let p = parse_xpath("//book[1]").must();
        let books = eval_xpath(&d, &p).must();
        let u = crate::xpath::parse::parse_expr("title | publisher/location | title").must();
        match super::eval_expr_from(&d, &u, books[0]).must() {
            XValue::Nodes(ns) => {
                let names: Vec<_> = ns.iter().map(|&n| d.name(n).must()).collect();
                // Deduplicated, in document order.
                assert_eq!(names, vec!["title", "location"]);
            }
            other => panic!("expected nodes, got {other:?}"),
        }
    }

    #[test]
    fn unknown_function_is_an_eval_error() {
        let td = TypedDocument::analyze(paper_figure2());
        let d = PhysicalDoc::new(&td);
        let p = parse_xpath("//book[frobnicate()]").must();
        assert!(eval_xpath(&d, &p).is_err());
    }

    #[test]
    fn resource_limits_abort_evaluation() {
        let td = TypedDocument::analyze(paper_figure2());
        let d = PhysicalDoc::new(&td);
        let p = parse_xpath("//book/title").must();
        let exhausted_with = |limits: Limits| match eval_xpath_limited(&d, &p, limits) {
            Err(XPathError::ResourceExhausted { resource, .. }) => Some(resource),
            _ => None,
        };
        assert_eq!(
            exhausted_with(Limits {
                max_steps: 2,
                ..Limits::default()
            }),
            Some(ResourceKind::Steps)
        );
        assert_eq!(
            exhausted_with(Limits {
                max_result: 1,
                ..Limits::default()
            }),
            Some(ResourceKind::Cardinality)
        );
        assert_eq!(
            exhausted_with(Limits {
                time_budget_ms: Some(0),
                ..Limits::default()
            }),
            Some(ResourceKind::Time)
        );
        // Depth: the predicate expression pushes past a depth-1 allowance.
        let pred = parse_xpath("//book[title = 'X']").must();
        let e = eval_xpath_limited(
            &d,
            &pred,
            Limits {
                max_depth: 1,
                ..Limits::default()
            },
        )
        .unwrap_err();
        assert!(
            matches!(
                e,
                XPathError::ResourceExhausted {
                    resource: ResourceKind::Depth,
                    ..
                }
            ),
            "{e}"
        );
        // Default limits are far above what the query needs.
        assert_eq!(
            eval_xpath_limited(&d, &p, Limits::default()).must().len(),
            2
        );
        // Unlimited switches every guard off.
        assert_eq!(
            eval_xpath_limited(&d, &p, Limits::unlimited()).must().len(),
            2
        );
    }
}
