//! Prepared statements: text canonicalization, the bounded plan cache, and
//! the unified prepare/bind/execute API surface.
//!
//! The layer has three parts:
//!
//! 1. [`canonicalize`] lifts literals out of cacheable SELECT text and
//!    replaces them with `?` placeholders, producing a canonical key plus the
//!    lifted values ("slots"). Repeat statements that differ only in literal
//!    values share one key — and therefore one compiled plan.
//! 2. [`PlanCache`] maps canonical text to an engine-defined payload (the
//!    parameterized plan plus whatever the engine compiles from it) under a
//!    bounded LRU with epoch-based invalidation on DDL / ANALYZE.
//! 3. [`QueryApi`] is the statement surface of both engines:
//!    `prepare` → [`Prepared`] → `execute(params)`, with `execute_opts`
//!    collapsing the old retry/idempotency method family into
//!    [`ExecOptions`]. It is implemented once, for every
//!    [`Facade`](crate::session::Facade).

use crate::ast::{Expr, SelectStmt, Statement, TableRef};
use crate::db::{CardinalityHints, QueryResult};
use crate::dml::BoundDml;
use crate::expr::SExpr;
use crate::lexer::{Lexer, RawToken, Sym};
use crate::plan::{PlanNode, PlanOp};
use crate::planner::PlanningInfo;
use hdm_common::{DataType, Datum, HdmError, Result};
use std::cell::Cell;
use std::collections::HashMap;
use std::fmt::Write as _;

/// Default number of cached plans per engine.
pub const PLAN_CACHE_CAP: usize = 256;

/// Scalar/aggregate calls that may appear in cacheable statements. Any other
/// `ident(` sequence is a table function whose arguments are evaluated at
/// *plan* time — lifting them to parameters would break planning, so such
/// statements bypass the cache entirely.
const CALL_WHITELIST: [&str; 9] = [
    "count", "sum", "avg", "min", "max", "abs", "length", "upper", "lower",
];

/// The canonical form of a cacheable statement: literal-free text plus the
/// lifted literal values. `None` slots are user-written `?` placeholders
/// that must be bound at execution time; `Some` slots carry the literal the
/// canonicalizer lifted.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CanonicalSql {
    pub text: String,
    pub slots: Vec<Option<Datum>>,
}

impl CanonicalSql {
    /// Number of open (user-supplied) parameters.
    pub fn open_params(&self) -> usize {
        self.slots.iter().filter(|s| s.is_none()).count()
    }
}

/// Canonicalize `sql` for plan caching, or `Ok(None)` when the statement is
/// not cacheable (non-SELECT, CTEs, GROUP BY, `sys.*` views, table
/// functions). Literal lifting stops at the first `ORDER`/`LIMIT` keyword:
/// `LIMIT` takes a syntactic integer and sort shapes rarely repeat with
/// varying constants, so those literals stay in the key. Statements where a
/// literal sits in a constant-foldable position — adjacent to an arithmetic
/// operator (`10 + 10`, `-5`) or compared against another literal
/// (`1 = 1`) — bypass the cache entirely: the rewriter normalizes those
/// spellings into the same plan-store keys as their folded forms, and a
/// lifted `?` would freeze the fold.
pub fn canonicalize(sql: &str) -> Result<Option<CanonicalSql>> {
    // Room for the text plus the spaces the key puts between tokens.
    let mut c = CanonicalSql {
        text: String::with_capacity(sql.len() * 3 / 2),
        slots: Vec::new(),
    };
    Ok(canonicalize_into(sql, &mut c)?.then_some(c))
}

/// How a token can make a literal constant-foldable.
#[derive(Clone, Copy, PartialEq)]
enum Fold {
    Lit,
    Arith,
    Cmp,
    Other,
}

/// [`canonicalize`] into `out`, whose buffers are reused: one scan of the
/// text writes the key token by token, so a statement that lifts only
/// numbers allocates nothing once `out` has grown to its size. Returns
/// `false` (leaving `out` unspecified) when the statement is not cacheable;
/// the scan stops at the first token that decides it, and a lexing error
/// past that point surfaces when the statement is parsed.
pub fn canonicalize_into(sql: &str, out: &mut CanonicalSql) -> Result<bool> {
    out.text.clear();
    out.slots.clear();
    let mut lexer = Lexer::new(sql);
    match lexer.next_token()? {
        Some(RawToken::Ident(s)) if s.eq_ignore_ascii_case("select") => {
            out.text.push_str("select");
        }
        _ => return Ok(false),
    }
    let text = &mut out.text;
    // The two tokens before this one, and whether the one before is a call
    // name outside the whitelist.
    let (mut before, mut prev, mut prev_call) = (Fold::Other, Fold::Other, false);
    let mut lifting = true;
    while let Some(tok) = lexer.next_token()? {
        let fold = match &tok {
            RawToken::Int(_) | RawToken::Float(_) | RawToken::Str(_) => Fold::Lit,
            RawToken::Symbol(Sym::Plus | Sym::Minus | Sym::Star | Sym::Slash | Sym::Percent) => {
                Fold::Arith
            }
            RawToken::Symbol(Sym::Eq | Sym::Ne | Sym::Lt | Sym::Le | Sym::Gt | Sym::Ge) => {
                Fold::Cmp
            }
            _ => Fold::Other,
        };
        if (prev == Fold::Lit && fold == Fold::Arith)
            || (prev == Fold::Arith && fold == Fold::Lit)
            || (before == Fold::Lit && prev == Fold::Cmp && fold == Fold::Lit)
            || (prev_call && tok == RawToken::Symbol(Sym::LParen))
        {
            return Ok(false);
        }
        (before, prev, prev_call) = (prev, fold, false);
        text.push(' ');
        match tok {
            RawToken::Ident(s) => {
                let start = text.len();
                text.push_str(s);
                text[start..].make_ascii_lowercase();
                let word = &text[start..];
                match word {
                    // GROUP BY / HAVING plans carry aggregate rewrites the
                    // rehint walk does not model; `sys.*` views are frozen
                    // per statement and must never be served from a cache.
                    "group" | "having" | "sys" => return Ok(false),
                    "order" | "limit" => lifting = false,
                    _ => {}
                }
                prev_call = !CALL_WHITELIST.contains(&word);
            }
            RawToken::Int(v) if lifting => lift(text, &mut out.slots, Datum::Int(v)),
            RawToken::Int(v) => {
                let _ = write!(text, "{v}");
            }
            RawToken::Float(v) if lifting => lift(text, &mut out.slots, Datum::Float(v)),
            RawToken::Float(v) => {
                let start = text.len();
                let _ = write!(text, "{v}");
                if !text[start..].contains('.') {
                    // Keep the re-rendered literal lexing as a float.
                    text.push_str(".0");
                }
            }
            RawToken::Str(s) if lifting => lift(text, &mut out.slots, Datum::Text(s)),
            RawToken::Str(s) => {
                text.push('\'');
                text.push_str(&s.replace('\'', "''"));
                text.push('\'');
            }
            RawToken::Symbol(sym) => {
                if sym == Sym::Question {
                    out.slots.push(None);
                }
                text.push_str(sym_text(sym));
            }
        }
    }
    Ok(true)
}

/// Write a lifted literal's `?` and keep its value.
fn lift(text: &mut String, slots: &mut Vec<Option<Datum>>, v: Datum) {
    text.push('?');
    slots.push(Some(v));
}

fn sym_text(s: Sym) -> &'static str {
    match s {
        Sym::LParen => "(",
        Sym::RParen => ")",
        Sym::Comma => ",",
        Sym::Dot => ".",
        Sym::Semicolon => ";",
        Sym::Star => "*",
        Sym::Plus => "+",
        Sym::Minus => "-",
        Sym::Slash => "/",
        Sym::Percent => "%",
        Sym::Eq => "=",
        Sym::Ne => "<>",
        Sym::Lt => "<",
        Sym::Le => "<=",
        Sym::Gt => ">",
        Sym::Ge => ">=",
        Sym::Question => "?",
    }
}

/// One plan-cache entry with its usage accounting (surfaced by
/// `sys.prepared`).
#[derive(Debug, Clone)]
pub struct CacheEntry<T> {
    pub payload: T,
    pub hits: u64,
    pub last_used: u64,
}

/// A bounded LRU of `(canonical text → cached payload)`: both engines cache
/// a parameterized plan (the distributed one before annotation) plus the
/// optional flat program `program::lower` makes of it. `bump_epoch` (DDL, ANALYZE) drops every
/// entry — stale plans are replanned transparently from their canonical
/// text on next use.
#[derive(Debug)]
pub struct PlanCache<T> {
    entries: HashMap<String, CacheEntry<T>>,
    cap: usize,
    tick: u64,
    epoch: u64,
    hits: u64,
    misses: u64,
}

impl<T: Clone> PlanCache<T> {
    pub fn new(cap: usize) -> Self {
        Self {
            entries: HashMap::new(),
            cap: cap.max(1),
            tick: 0,
            epoch: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Look up `key`, bumping its hit count and recency on success.
    pub fn get(&mut self, key: &str) -> Option<T> {
        self.tick += 1;
        let tick = self.tick;
        let Some(e) = self.entries.get_mut(key) else {
            self.misses += 1;
            return None;
        };
        e.hits += 1;
        e.last_used = tick;
        self.hits += 1;
        Some(e.payload.clone())
    }

    /// Cumulative `(hits, misses)` across the cache's lifetime (survives
    /// eviction and epoch bumps) — the workload-history hit-rate source.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Insert `key`, evicting the least-recently-used entry at capacity.
    /// Every `get` and `insert` stamps a fresh tick, so no two entries
    /// share a `last_used` and the victim is unique.
    pub fn insert(&mut self, key: String, payload: T) {
        self.tick += 1;
        if !self.entries.contains_key(&key) && self.entries.len() >= self.cap {
            if let Some(victim) = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            {
                self.entries.remove(&victim);
            }
        }
        let tick = self.tick;
        self.entries.insert(
            key,
            CacheEntry {
                payload,
                hits: 0,
                last_used: tick,
            },
        );
    }

    /// Invalidate everything (schema or statistics changed).
    pub fn bump_epoch(&mut self) {
        self.epoch += 1;
        self.entries.clear();
    }

    /// Drop one cached plan (re-plan-on-drift: captured actuals diverged
    /// from the cached plan's estimates, so only that statement is stale).
    pub fn remove(&mut self, key: &str) -> bool {
        self.entries.remove(key).is_some()
    }

    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Entries sorted by canonical text (the `sys.prepared` row source).
    pub fn snapshot(&self) -> Vec<(&str, &CacheEntry<T>)> {
        let mut v: Vec<(&str, &CacheEntry<T>)> =
            self.entries.iter().map(|(k, e)| (k.as_str(), e)).collect();
        v.sort_by_key(|(k, _)| *k);
        v
    }
}

/// A prepared statement handle, engine-independent. Cacheable statements
/// keep only their canonical text (surviving cache eviction and DDL
/// invalidation via transparent replan); INSERT, UPDATE and DELETE keep
/// their bound form; everything else keeps the parsed AST and substitutes
/// parameters at the AST level.
#[derive(Debug, Clone)]
pub enum StmtHandle {
    Cached {
        canonical: String,
        slots: Vec<Option<Datum>>,
        n_open: usize,
    },
    Dml(Box<BoundDml>),
    Ast {
        stmt: Box<Statement>,
        n_params: usize,
        sql: String,
    },
}

impl StmtHandle {
    /// Number of user-suppliable parameters.
    pub fn param_count(&self) -> usize {
        match self {
            StmtHandle::Cached { n_open, .. } => *n_open,
            StmtHandle::Dml(dml) => dml.n_params,
            StmtHandle::Ast { n_params, .. } => *n_params,
        }
    }
}

/// Merge lifted literals and user parameters into the full positional
/// parameter vector `out` (cleared first, so a caller can reuse one buffer
/// across statements), checking arity and (where the plan constrained a
/// parameter's type) value types. `types` is indexed by full slot
/// position; the mismatch message numbers open parameters 1-based as the
/// user wrote them.
pub fn bind_slots(
    slots: &[Option<Datum>],
    types: &[Option<DataType>],
    params: &[Datum],
    out: &mut Vec<Datum>,
) -> Result<()> {
    out.clear();
    let n_open = slots.iter().filter(|s| s.is_none()).count();
    if params.len() != n_open {
        return Err(HdmError::Execution(format!(
            "statement has {n_open} parameters; got {}",
            params.len()
        )));
    }
    let mut next = 0usize;
    for (i, slot) in slots.iter().enumerate() {
        match slot {
            Some(d) => out.push(d.clone()),
            None => {
                let v = &params[next];
                next += 1;
                if let (Some(expected), Some(got)) =
                    (types.get(i).copied().flatten(), v.data_type())
                {
                    if !types_compatible(expected, got) {
                        return Err(HdmError::Execution(format!(
                            "parameter ?{next} type mismatch: expected {expected}, got {got}"
                        )));
                    }
                }
                out.push(v.clone());
            }
        }
    }
    Ok(())
}

/// Int, Float and Timestamp are mutually coercible (SQL numeric comparison
/// semantics); everything else must match exactly. NULL always binds.
fn types_compatible(expected: DataType, got: DataType) -> bool {
    let numeric = |t: DataType| matches!(t, DataType::Int | DataType::Float | DataType::Timestamp);
    expected == got || (numeric(expected) && numeric(got))
}

/// Infer expected parameter types from a parameterized plan: any comparison
/// `col <op> ?` (either operand order) pins the parameter to the column's
/// type. Unconstrained parameters stay `None` and accept any value.
pub fn collect_param_types(plan: &PlanNode, n: usize) -> Vec<Option<DataType>> {
    let mut types = vec![None; n];
    walk_plan_types(plan, &mut types);
    types
}

fn walk_plan_types(node: &PlanNode, types: &mut Vec<Option<DataType>>) {
    let mut visit = |e: &SExpr, schema: &crate::expr::BoundSchema| {
        scan_expr_types(e, schema, types);
    };
    match &node.op {
        PlanOp::SeqScan { predicate, .. } | PlanOp::Exchange { predicate, .. } => {
            if let Some(p) = predicate {
                visit(p, &node.schema);
            }
        }
        PlanOp::IndexScan {
            key_exprs,
            residual,
            ..
        } => {
            for k in key_exprs {
                visit(k, &node.schema);
            }
            if let Some(r) = residual {
                visit(r, &node.schema);
            }
        }
        PlanOp::IndexRange {
            bound_exprs,
            residual,
            ..
        } => {
            for b in bound_exprs {
                visit(b, &node.schema);
            }
            if let Some(r) = residual {
                visit(r, &node.schema);
            }
        }
        PlanOp::Filter { predicate } => visit(predicate, &node.children[0].schema),
        PlanOp::NestedLoopJoin { on } => {
            if let Some(o) = on {
                visit(o, &node.schema);
            }
        }
        PlanOp::HashJoin { residual, .. } => {
            if let Some(r) = residual {
                visit(r, &node.schema);
            }
        }
        PlanOp::Project { exprs } => {
            for e in exprs {
                visit(e, &node.children[0].schema);
            }
        }
        PlanOp::HashAgg { group, aggs } => {
            for g in group {
                visit(g, &node.children[0].schema);
            }
            for a in aggs {
                if let Some(e) = &a.arg {
                    visit(e, &node.children[0].schema);
                }
            }
        }
        PlanOp::Sort { keys } => {
            for (k, _) in keys {
                visit(k, &node.children[0].schema);
            }
        }
        PlanOp::Values { .. } | PlanOp::Limit { .. } | PlanOp::SetOp { .. } | PlanOp::Distinct => {}
    }
    for c in &node.children {
        walk_plan_types(c, types);
    }
}

fn scan_expr_types(
    e: &SExpr,
    schema: &crate::expr::BoundSchema,
    types: &mut Vec<Option<DataType>>,
) {
    use crate::ast::BinOp;
    if let SExpr::Binary(op, l, r) = e {
        if matches!(
            op,
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
        ) {
            match (&**l, &**r) {
                (SExpr::Col(c), SExpr::Param(i)) | (SExpr::Param(i), SExpr::Col(c)) => {
                    if let Some(slot) = types.get_mut(*i as usize) {
                        *slot = Some(schema.cols[*c].ty);
                    }
                }
                _ => {}
            }
        }
    }
    match e {
        SExpr::Binary(_, l, r) => {
            scan_expr_types(l, schema, types);
            scan_expr_types(r, schema, types);
        }
        SExpr::Unary(_, x) => scan_expr_types(x, schema, types),
        SExpr::Func(_, args) => {
            for a in args {
                scan_expr_types(a, schema, types);
            }
        }
        SExpr::Col(_) | SExpr::Lit(_) | SExpr::Param(_) => {}
    }
}

/// Number of positional parameters a parsed statement expects (highest
/// `?` index + 1).
pub fn count_params(stmt: &Statement) -> usize {
    let mut max: Option<u16> = None;
    for_each_expr(stmt, &mut |e| max_param(e, &mut max));
    max.map(|m| m as usize + 1).unwrap_or(0)
}

fn max_param(e: &Expr, max: &mut Option<u16>) {
    match e {
        Expr::Param(i) => *max = Some(max.map_or(*i, |m| m.max(*i))),
        Expr::Column(..) | Expr::Literal(_) => {}
        Expr::Binary { left, right, .. } => {
            max_param(left, max);
            max_param(right, max);
        }
        Expr::Unary { expr, .. } => max_param(expr, max),
        Expr::Func { args, .. } => {
            for a in args {
                max_param(a, max);
            }
        }
    }
}

fn for_each_expr(stmt: &Statement, f: &mut impl FnMut(&Expr)) {
    match stmt {
        Statement::CreateTable { .. }
        | Statement::CreateIndex { .. }
        | Statement::Analyze { .. } => {}
        Statement::Insert { rows, .. } => {
            for r in rows {
                for e in r {
                    f(e);
                }
            }
        }
        Statement::Update {
            sets, where_clause, ..
        } => {
            for (_, e) in sets {
                f(e);
            }
            if let Some(w) = where_clause {
                f(w);
            }
        }
        Statement::Delete { where_clause, .. } => {
            if let Some(w) = where_clause {
                f(w);
            }
        }
        Statement::Select(s) => for_each_select_expr(s, f),
        Statement::Explain { stmt, .. } => for_each_expr(stmt, f),
    }
}

fn for_each_select_expr(s: &SelectStmt, f: &mut impl FnMut(&Expr)) {
    for (_, sub) in &s.with {
        for_each_select_expr(sub, f);
    }
    for item in &s.projections {
        if let crate::ast::SelectItem::Expr { expr, .. } = item {
            f(expr);
        }
    }
    for t in &s.from {
        for_each_tableref_expr(t, f);
    }
    if let Some(w) = &s.where_clause {
        f(w);
    }
    for g in &s.group_by {
        f(g);
    }
    if let Some(h) = &s.having {
        f(h);
    }
    for (e, _) in &s.order_by {
        f(e);
    }
    if let Some((_, _, rhs)) = &s.set_op {
        for_each_select_expr(rhs, f);
    }
}

fn for_each_tableref_expr(t: &TableRef, f: &mut impl FnMut(&Expr)) {
    match t {
        TableRef::Named { .. } => {}
        TableRef::Function { args, .. } => {
            for a in args {
                f(a);
            }
        }
        TableRef::Subquery { query, .. } => for_each_select_expr(query, f),
        TableRef::Join { left, right, on } => {
            for_each_tableref_expr(left, f);
            for_each_tableref_expr(right, f);
            f(on);
        }
    }
}

/// Replace every `Expr::Param(i)` in a statement with the literal form of
/// `params[i]` — the execution path for prepared SELECTs the plan cache
/// cannot hold (GROUP BY, CTEs, `sys.*`, table functions). DDL takes no
/// parameters and is returned as it is; DML is bound, never substituted
/// (see [`crate::dml`]).
pub fn substitute_statement_params(stmt: &Statement, params: &[Datum]) -> Result<Statement> {
    Ok(match stmt {
        Statement::Select(s) => Statement::Select(subst_select(s, params)?),
        Statement::Explain { analyze, stmt } => Statement::Explain {
            analyze: *analyze,
            stmt: Box::new(substitute_statement_params(stmt, params)?),
        },
        other => {
            debug_assert!(!other.is_dml(), "DML is bound, not substituted");
            other.clone()
        }
    })
}

fn subst_opt(e: &Option<Expr>, params: &[Datum]) -> Result<Option<Expr>> {
    e.as_ref().map(|x| subst_expr(x, params)).transpose()
}

fn subst_select(s: &SelectStmt, params: &[Datum]) -> Result<SelectStmt> {
    Ok(SelectStmt {
        with: s
            .with
            .iter()
            .map(|(n, sub)| Ok((n.clone(), subst_select(sub, params)?)))
            .collect::<Result<_>>()?,
        distinct: s.distinct,
        projections: s
            .projections
            .iter()
            .map(|item| match item {
                crate::ast::SelectItem::Star => Ok(crate::ast::SelectItem::Star),
                crate::ast::SelectItem::Expr { expr, alias } => Ok(crate::ast::SelectItem::Expr {
                    expr: subst_expr(expr, params)?,
                    alias: alias.clone(),
                }),
            })
            .collect::<Result<_>>()?,
        from: s
            .from
            .iter()
            .map(|t| subst_tableref(t, params))
            .collect::<Result<_>>()?,
        where_clause: subst_opt(&s.where_clause, params)?,
        group_by: s
            .group_by
            .iter()
            .map(|g| subst_expr(g, params))
            .collect::<Result<_>>()?,
        having: subst_opt(&s.having, params)?,
        order_by: s
            .order_by
            .iter()
            .map(|(e, d)| Ok((subst_expr(e, params)?, *d)))
            .collect::<Result<_>>()?,
        limit: s.limit,
        set_op: match &s.set_op {
            None => None,
            Some((k, all, rhs)) => Some((*k, *all, Box::new(subst_select(rhs, params)?))),
        },
    })
}

fn subst_tableref(t: &TableRef, params: &[Datum]) -> Result<TableRef> {
    Ok(match t {
        TableRef::Named { .. } => t.clone(),
        TableRef::Function { name, args, alias } => TableRef::Function {
            name: name.clone(),
            args: args
                .iter()
                .map(|a| subst_expr(a, params))
                .collect::<Result<_>>()?,
            alias: alias.clone(),
        },
        TableRef::Subquery { query, alias } => TableRef::Subquery {
            query: Box::new(subst_select(query, params)?),
            alias: alias.clone(),
        },
        TableRef::Join { left, right, on } => TableRef::Join {
            left: Box::new(subst_tableref(left, params)?),
            right: Box::new(subst_tableref(right, params)?),
            on: subst_expr(on, params)?,
        },
    })
}

fn subst_expr(e: &Expr, params: &[Datum]) -> Result<Expr> {
    Ok(match e {
        Expr::Param(i) => {
            let d = params.get(*i as usize).ok_or_else(|| {
                HdmError::Execution(format!("unbound parameter ?{}", *i as usize + 1))
            })?;
            let lit = crate::rewrite::datum_to_literal(d).ok_or_else(|| {
                HdmError::Execution(format!(
                    "parameter ?{} value has no literal form",
                    *i as usize + 1
                ))
            })?;
            Expr::Literal(lit)
        }
        Expr::Column(..) | Expr::Literal(_) => e.clone(),
        Expr::Binary { op, left, right } => Expr::Binary {
            op: *op,
            left: Box::new(subst_expr(left, params)?),
            right: Box::new(subst_expr(right, params)?),
        },
        Expr::Unary { op, expr } => Expr::Unary {
            op: *op,
            expr: Box::new(subst_expr(expr, params)?),
        },
        Expr::Func { name, args, star } => Expr::Func {
            name: name.clone(),
            args: args
                .iter()
                .map(|a| subst_expr(a, params))
                .collect::<Result<_>>()?,
            star: *star,
        },
    })
}

/// Re-apply plan-store hints to a cached plan before execution — the
/// cached-path counterpart of the planner's per-node hint lookup, so
/// [`PlanningInfo`] hit/miss counts match what fresh planning would report.
/// Walks children first (post-order), matching the planner's visit order.
pub fn rehint_plan(plan: &mut PlanNode, hints: &dyn CardinalityHints, info: &mut PlanningInfo) {
    for c in &mut plan.children {
        rehint_plan(c, hints, info);
    }
    if let Some(text) = plan.canonical() {
        match hints.lookup(&text) {
            Some(v) => {
                info.hint_hits += 1;
                plan.set_est_rows(v as f64);
            }
            None => info.hint_misses += 1,
        }
    }
}

/// Re-plan-on-drift gate, precompute half: walk a freshly planned tree
/// (whose `cost.rows` carry planning-time estimates) and collect one probe
/// per canonical node — (candidate store keys, estimate). Computed once at
/// plan-cache insert so the per-execution check in [`max_drift`] costs a
/// few hash lookups instead of re-rendering canonical texts.
pub fn drift_probes(plan: &PlanNode) -> Vec<(Vec<String>, f64)> {
    let mut out = Vec::new();
    let mut stack = vec![plan];
    while let Some(node) = stack.pop() {
        stack.extend(node.children.iter());
        if let Some(text) = node.canonical() {
            out.push((vec![text], node.est_rows()));
        }
    }
    out
}

/// Worst symmetric est/actual ratio over precomputed drift probes. Each
/// probe may carry several candidate plan-store keys tried in order (the
/// distributed engine bridges the planner's `SCAN(...)` keys to its
/// per-shard `EXCHANGE(...)` observation keys); a probe with no captured
/// actual contributes nothing. Both sides clamp to >= 1 row so empty
/// results cannot divide to infinity.
pub fn max_drift(probes: &[(Vec<String>, f64)], hints: &dyn CardinalityHints) -> f64 {
    let mut worst: f64 = 1.0;
    for (keys, est) in probes {
        let Some(actual) = keys.iter().find_map(|k| hints.lookup(k)) else {
            continue;
        };
        let est = est.max(1.0);
        let act = (actual as f64).max(1.0);
        worst = worst.max(est.max(act) / est.min(act));
    }
    worst
}

/// Generation-gated drift check shared by both engines' plan-cache hot
/// paths. The keyed [`max_drift`] lookups hash every candidate store key,
/// so re-running them per execution is measurable; when the hints store
/// reports a mutation counter ([`CardinalityHints::generation`]), the
/// verdict is recomputed only after the store's actuals actually changed
/// and the cached `(generation, verdict)` pair is reused otherwise.
pub fn drift_exceeds(
    probes: &[(Vec<String>, f64)],
    state: &Cell<Option<(u64, bool)>>,
    hints: &dyn CardinalityHints,
    ratio: f64,
) -> bool {
    match hints.generation() {
        Some(generation) => {
            if let Some((seen, verdict)) = state.get() {
                if seen == generation {
                    return verdict;
                }
            }
            let verdict = max_drift(probes, hints) >= ratio;
            state.set(Some((generation, verdict)));
            verdict
        }
        None => max_drift(probes, hints) >= ratio,
    }
}

/// Execution options for [`QueryApi::execute_opts`]: plain, retrying, or
/// retrying under an at-most-once statement id.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecOptions {
    /// Retry transient replication/placement errors before giving up.
    pub retry: bool,
    /// The statement may be safely re-applied (enables retry across
    /// ambiguous failures).
    pub idempotent: bool,
    /// Idempotency key: at-most-once application under retries.
    pub stmt_id: Option<u64>,
}

impl ExecOptions {
    /// Retrying + idempotent, with an auto-assigned statement id.
    pub fn retrying() -> Self {
        Self {
            retry: true,
            idempotent: true,
            stmt_id: None,
        }
    }

    /// Retrying with a caller-chosen idempotency key.
    pub fn idempotent(stmt_id: u64) -> Self {
        Self {
            retry: true,
            idempotent: true,
            stmt_id: Some(stmt_id),
        }
    }
}

/// The unified statement API of both engines, implemented once for every
/// [`Facade`](crate::session::Facade).
pub trait QueryApi {
    /// Parse, canonicalize and validate `sql`, returning a reusable handle.
    /// For cacheable statements this also warms the plan cache.
    fn prepare_handle(&mut self, sql: &str) -> Result<StmtHandle>;

    /// Execute a prepared handle with positional parameter values.
    fn execute_prepared(&mut self, handle: &StmtHandle, params: &[Datum]) -> Result<QueryResult>;

    /// Execute one statement under explicit execution options.
    fn execute_opts(&mut self, sql: &str, opts: ExecOptions) -> Result<QueryResult>;

    /// Prepare `sql`, borrowing the engine for repeated executions.
    fn prepare(&mut self, sql: &str) -> Result<Prepared<'_, Self>>
    where
        Self: Sized,
    {
        let handle = self.prepare_handle(sql)?;
        Ok(Prepared {
            engine: self,
            handle,
        })
    }
}

/// A prepared statement bound to its engine.
pub struct Prepared<'a, E: QueryApi> {
    engine: &'a mut E,
    handle: StmtHandle,
}

impl<E: QueryApi> Prepared<'_, E> {
    /// Execute with positional parameter values for the open `?` slots.
    pub fn execute(&mut self, params: &[Datum]) -> Result<QueryResult> {
        self.engine.execute_prepared(&self.handle, params)
    }

    pub fn handle(&self) -> &StmtHandle {
        &self.handle
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn canon(sql: &str) -> CanonicalSql {
        canonicalize(sql).unwrap().expect("cacheable")
    }

    #[test]
    fn lifts_literals_and_unifies_spelling() {
        let a = canon("select * from olap.t1 where a1 = 42");
        assert_eq!(a.text, "select * from olap . t1 where a1 = ?");
        assert_eq!(a.slots, vec![Some(Datum::Int(42))]);
        let b = canon("SELECT  *  FROM OLAP.T1  WHERE  A1=7");
        assert_eq!(a.text, b.text);
        assert_eq!(b.slots, vec![Some(Datum::Int(7))]);
    }

    #[test]
    fn user_placeholders_are_open_slots() {
        let c = canon("select * from t where a = ? and b = 7 and s = 'x'");
        assert_eq!(
            c.slots,
            vec![None, Some(Datum::Int(7)), Some(Datum::Text("x".into()))]
        );
        assert_eq!(c.open_params(), 1);
    }

    #[test]
    fn order_and_limit_literals_stay_in_the_key() {
        let c = canon("select a1 from olap.t1 where b1 = 5 order by a1 limit 3");
        assert!(c.text.ends_with("order by a1 limit 3"), "{}", c.text);
        assert_eq!(c.slots, vec![Some(Datum::Int(5))]);
    }

    #[test]
    fn foldable_literals_bypass_the_cache() {
        // The rewriter folds these spellings into the same plan-store keys
        // as their constant forms; lifting would freeze the fold, so the
        // statements are simply not cacheable.
        for sql in [
            "select * from t where a = -5",
            "select * from t where a = 10 + 10",
            "select * from t where a = 20 and 1 = 1",
            "select * from t where a = 2 * b",
        ] {
            assert!(canonicalize(sql).unwrap().is_none(), "{sql}");
        }
    }

    #[test]
    fn uncacheable_statements_bail() {
        assert!(canonicalize("insert into t values (1)").unwrap().is_none());
        assert!(canonicalize("with x as (select 1) select * from x")
            .unwrap()
            .is_none());
        assert!(canonicalize("select b1, count(*) from t group by b1")
            .unwrap()
            .is_none());
        assert!(canonicalize("select * from sys.metrics").unwrap().is_none());
        assert!(canonicalize("select v from doubler(3) d")
            .unwrap()
            .is_none());
        // Whitelisted scalar/aggregate calls stay cacheable.
        assert!(canonicalize("select count(*) from t where length(s) > 2")
            .unwrap()
            .is_some());
    }

    /// The token-list form the one-pass scan replaced: lex everything, bail
    /// on a foldable window or an uncacheable word, join the pieces.
    fn token_list_form(sql: &str) -> Result<Option<CanonicalSql>> {
        use crate::lexer::{lex, Token};
        let tokens = lex(sql)?;
        if !matches!(tokens.first(), Some(Token::Ident(s)) if s == "select") {
            return Ok(None);
        }
        let lit = |t: &Token| matches!(t, Token::Int(_) | Token::Float(_) | Token::Str(_));
        let arith = |t: &Token| {
            matches!(
                t,
                Token::Symbol(Sym::Plus | Sym::Minus | Sym::Star | Sym::Slash | Sym::Percent)
            )
        };
        let cmp = |t: &Token| {
            matches!(
                t,
                Token::Symbol(Sym::Eq | Sym::Ne | Sym::Lt | Sym::Le | Sym::Gt | Sym::Ge)
            )
        };
        for w in tokens.windows(3) {
            if (lit(&w[0]) && arith(&w[1]))
                || (arith(&w[1]) && lit(&w[2]))
                || (lit(&w[0]) && cmp(&w[1]) && lit(&w[2]))
            {
                return Ok(None);
            }
        }
        let (mut out, mut slots, mut lifting) = (Vec::new(), Vec::new(), true);
        for (i, tok) in tokens.iter().enumerate() {
            match tok {
                Token::Eof => break,
                Token::Ident(s) => {
                    match s.as_str() {
                        "group" | "having" | "sys" => return Ok(None),
                        "order" | "limit" => lifting = false,
                        _ => {}
                    }
                    if matches!(tokens.get(i + 1), Some(Token::Symbol(Sym::LParen)))
                        && !CALL_WHITELIST.contains(&s.as_str())
                    {
                        return Ok(None);
                    }
                    out.push(s.clone());
                }
                Token::Int(v) if lifting => {
                    out.push("?".into());
                    slots.push(Some(Datum::Int(*v)));
                }
                Token::Int(v) => out.push(v.to_string()),
                Token::Float(v) if lifting => {
                    out.push("?".into());
                    slots.push(Some(Datum::Float(*v)));
                }
                Token::Float(v) => {
                    let s = format!("{v}");
                    out.push(if s.contains('.') { s } else { s + ".0" });
                }
                Token::Str(s) if lifting => {
                    out.push("?".into());
                    slots.push(Some(Datum::Text(s.clone())));
                }
                Token::Str(s) => out.push(format!("'{}'", s.replace('\'', "''"))),
                Token::Symbol(sym) => {
                    if *sym == Sym::Question {
                        slots.push(None);
                    }
                    out.push(sym_text(*sym).to_string());
                }
            }
        }
        Ok(Some(CanonicalSql {
            text: out.join(" "),
            slots,
        }))
    }

    #[test]
    fn one_pass_scan_matches_the_token_list_form() {
        let corpus = [
            "select * from events where id = 42",
            "SELECT  *  FROM OLAP.T1  WHERE  A1=7 -- trailing comment",
            "select a, b from t where a = ? and b >= 2.5 and s <> 'it''s'",
            "select a from t where b = 1 order by a limit 3",
            "select a from t where s = 'x' order by (a) limit 2",
            "select x from t order by x limit 1.0",
            "select x from t where y = 2 order by upper(s), 'k''q'",
            "select count(*), sum(a) from t where length(s) > 2",
            "select v from doubler(3) d",
            "select * from t limit(5)",
            "select * from t where a = -5",
            "select * from t where a = 1 + b",
            "select * from t where a = b * 2",
            "select * from t where 1 = 1",
            "select * from t where a = 1 and 2 < 3",
            "select * from t where a in (1, 2, 3)",
            "select a from t group by a",
            "select a from t having a > 1",
            "select * from sys.metrics",
            "insert into t values (1)",
            "with x as (select 1) select * from x",
            "select 1",
            "select",
            "select a, t.b from t, u where t.a = u.a and u.c != 9;",
            "select * from t where s = 'unterminated",
            "select * from t where a = @",
            "",
        ];
        let mut reused = CanonicalSql::default();
        for sql in corpus {
            let want = token_list_form(sql);
            let got = canonicalize(sql);
            match (&want, &got) {
                (Ok(w), Ok(g)) => assert_eq!(w, g, "{sql}"),
                (Err(w), Err(g)) => assert_eq!(w.to_string(), g.to_string(), "{sql}"),
                // A lexing error past the token that ruled the statement
                // out surfaces when the statement is parsed instead.
                (Err(_), Ok(None)) => assert!(crate::parser::parse(sql).is_err(), "{sql}"),
                _ => panic!("{sql}: {want:?} vs {got:?}"),
            }
            // The reused buffers give the same answer as fresh ones.
            if let Ok(Some(g)) = got {
                assert!(canonicalize_into(sql, &mut reused).unwrap(), "{sql}");
                assert_eq!(reused, g, "{sql}");
            }
        }
    }

    #[test]
    fn string_escapes_round_trip() {
        let c = canon("select * from t where s = 'it''s'");
        assert_eq!(c.slots, vec![Some(Datum::Text("it's".into()))]);
        let c = canon("select * from t where s = 'a' order by s limit 1");
        assert!(c.text.contains("limit 1"));
    }

    #[test]
    fn plan_cache_lru_and_epoch() {
        let mut cache: PlanCache<u32> = PlanCache::new(2);
        cache.insert("a".into(), 1);
        cache.insert("b".into(), 2);
        assert_eq!(cache.get("a"), Some(1));
        assert_eq!(cache.get("a"), Some(1));
        cache.insert("c".into(), 3); // evicts b (least recently used)
        assert_eq!(cache.get("b"), None);
        assert_eq!(cache.get("a"), Some(1));
        let snap = cache.snapshot();
        assert_eq!(snap[0].0, "a");
        assert_eq!(snap[0].1.hits, 3);
        cache.bump_epoch();
        assert!(cache.is_empty());
        assert_eq!(cache.epoch(), 1);
    }

    #[test]
    fn bind_slots_checks_arity_and_types() {
        let bind = |slots: &[Option<Datum>], types: &[Option<DataType>], params: &[Datum]| {
            let mut out = vec![Datum::Int(99)];
            bind_slots(slots, types, params, &mut out).map(|()| out)
        };
        let slots = vec![None, Some(Datum::Int(7)), None];
        let err = bind(&slots, &[], &[Datum::Int(1)]).unwrap_err();
        assert!(
            err.to_string()
                .contains("statement has 2 parameters; got 1"),
            "{err}"
        );
        let types = vec![Some(DataType::Int), None, Some(DataType::Text)];
        let err = bind(&slots, &types, &[Datum::Int(1), Datum::Int(2)]).unwrap_err();
        assert!(
            err.to_string()
                .contains("parameter ?2 type mismatch: expected TEXT, got INT"),
            "{err}"
        );
        // The buffer's previous contents are replaced, not appended to.
        let full = bind(&slots, &types, &[Datum::Int(1), Datum::Text("x".into())]).unwrap();
        assert_eq!(
            full,
            vec![Datum::Int(1), Datum::Int(7), Datum::Text("x".into())]
        );
        // Numeric family interchangeable; NULL always binds.
        assert!(bind(&[None], &[Some(DataType::Int)], &[Datum::Float(1.5)]).is_ok());
        assert!(bind(&[None], &[Some(DataType::Int)], &[Datum::Null]).is_ok());
    }

    #[test]
    fn counts_params_across_statement_shapes() {
        let stmt = crate::parser::parse("select * from t where a = ? and b = ?").unwrap();
        assert_eq!(count_params(&stmt), 2);
        let stmt = crate::parser::parse("update t set a = ? where b = ?").unwrap();
        assert_eq!(count_params(&stmt), 2);
        let stmt = crate::parser::parse("select 1 from t").unwrap();
        assert_eq!(count_params(&stmt), 0);
    }

    #[test]
    fn ast_substitution_inlines_literals() {
        let stmt =
            crate::parser::parse("select a, count(*) from t where b = ? group by a").unwrap();
        let bound = substitute_statement_params(&stmt, &[Datum::Int(9)]).unwrap();
        let Statement::Select(s) = bound else {
            panic!("select expected")
        };
        assert_eq!(count_params(&Statement::Select(s)), 0);
        // Too few values error mentions the missing ordinal.
        let err = substitute_statement_params(&stmt, &[]).unwrap_err();
        assert!(err.to_string().contains("unbound parameter ?1"), "{err}");
    }
}
