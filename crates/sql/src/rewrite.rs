//! The query rewrite engine.
//!
//! §II-C: "Query rewrite is another major ongoing enhancement to our
//! optimizer, including establishing a query rewrite engine and adding
//! additional rewrites which are critical to complex OLAP queries."
//!
//! Rewrites run on the AST before planning:
//!
//! * **constant folding** — literal arithmetic and comparisons evaluate at
//!   plan time (`b1 > 5 + 5` → `b1 > 10`);
//! * **boolean simplification** — `x AND true → x`, `x OR true → true`,
//!   `NOT NOT x → x`, `NOT (a < b) → a >= b`;
//! * **trivial-predicate elimination** — `WHERE true` disappears.
//!
//! Beyond speed, rewriting *normalizes* queries: two spellings of the same
//! predicate produce the same canonical step text, so the learning plan
//! store's exact-match lookup (§II-C) hits across spellings.

use crate::ast::{BinOp, Expr, Literal, SelectItem, SelectStmt, Statement, TableRef, UnOp};
use crate::expr::{bind, BoundSchema};
use crate::plan::PlanNode;

/// Compare alternative physical plans for the same logical step on their
/// weighted [`crate::plan::CostEstimate::total`] and keep the cheapest.
/// Ties keep the earliest candidate, so callers list the safe default
/// (sequential scan) first and an index path must be *strictly* cheaper to
/// win.
pub fn pick_cheapest(candidates: Vec<PlanNode>) -> PlanNode {
    candidates
        .into_iter()
        .reduce(|best, cand| {
            if cand.cost.total() < best.cost.total() {
                cand
            } else {
                best
            }
        })
        .expect("at least one candidate plan")
}

/// Rewrite a whole statement in place.
pub fn rewrite_statement(stmt: &mut Statement) {
    match stmt {
        Statement::Select(s) => rewrite_select(s),
        Statement::Update {
            sets, where_clause, ..
        } => {
            for (_, e) in sets.iter_mut() {
                *e = fold(std::mem::replace(e, Expr::int(0)));
            }
            rewrite_where(where_clause);
        }
        Statement::Delete { where_clause, .. } => rewrite_where(where_clause),
        Statement::Explain { stmt, .. } => rewrite_statement(stmt),
        _ => {}
    }
}

/// Rewrite a SELECT (recursing into CTEs, subqueries and set-op arms).
pub fn rewrite_select(s: &mut SelectStmt) {
    for (_, sub) in &mut s.with {
        rewrite_select(sub);
    }
    for item in &mut s.projections {
        if let SelectItem::Expr { expr, .. } = item {
            *expr = fold(std::mem::replace(expr, Expr::int(0)));
        }
    }
    for t in &mut s.from {
        rewrite_table_ref(t);
    }
    rewrite_where(&mut s.where_clause);
    for g in &mut s.group_by {
        *g = fold(std::mem::replace(g, Expr::int(0)));
    }
    if let Some(h) = &mut s.having {
        *h = fold(std::mem::replace(h, Expr::int(0)));
    }
    for (e, _) in &mut s.order_by {
        *e = fold(std::mem::replace(e, Expr::int(0)));
    }
    if let Some((_, _, rhs)) = &mut s.set_op {
        rewrite_select(rhs);
    }
}

fn rewrite_table_ref(t: &mut TableRef) {
    match t {
        TableRef::Join { left, right, on } => {
            rewrite_table_ref(left);
            rewrite_table_ref(right);
            *on = fold(std::mem::replace(on, Expr::int(0)));
        }
        TableRef::Subquery { query, .. } => rewrite_select(query),
        TableRef::Function { args, .. } => {
            for a in args {
                *a = fold(std::mem::replace(a, Expr::int(0)));
            }
        }
        TableRef::Named { .. } => {}
    }
}

fn rewrite_where(w: &mut Option<Expr>) {
    if let Some(e) = w.take() {
        match fold(e) {
            // WHERE true disappears entirely.
            Expr::Literal(Literal::Bool(true)) => {}
            other => *w = Some(other),
        }
    }
}

/// Is this a pure literal expression (no columns, no functions)?
fn is_const(e: &Expr) -> bool {
    match e {
        Expr::Literal(_) => true,
        Expr::Binary { left, right, .. } => is_const(left) && is_const(right),
        Expr::Unary { expr, .. } => is_const(expr),
        _ => false,
    }
}

/// One bottom-up folding pass.
pub fn fold(e: Expr) -> Expr {
    let e = match e {
        Expr::Binary { op, left, right } => Expr::Binary {
            op,
            left: Box::new(fold(*left)),
            right: Box::new(fold(*right)),
        },
        Expr::Unary { op, expr } => Expr::Unary {
            op,
            expr: Box::new(fold(*expr)),
        },
        Expr::Func { name, args, star } => Expr::Func {
            name,
            args: args.into_iter().map(fold).collect(),
            star,
        },
        other => other,
    };

    // Evaluate closed literal subtrees (guarding against runtime errors:
    // division by zero stays unfolded and fails at execution, as it should).
    if is_const(&e) && !matches!(e, Expr::Literal(_)) {
        if let Ok(bound) = bind(&e, &BoundSchema::default()) {
            if let Ok(v) = bound.eval(&[]) {
                if let Some(lit) = datum_to_literal(&v) {
                    return Expr::Literal(lit);
                }
            }
        }
        return e;
    }

    // Boolean algebra.
    match e {
        Expr::Binary {
            op: BinOp::And,
            left,
            right,
        } => match (*left, *right) {
            (Expr::Literal(Literal::Bool(true)), x) | (x, Expr::Literal(Literal::Bool(true))) => x,
            (f @ Expr::Literal(Literal::Bool(false)), _)
            | (_, f @ Expr::Literal(Literal::Bool(false))) => f,
            (l, r) => Expr::bin(BinOp::And, l, r),
        },
        Expr::Binary {
            op: BinOp::Or,
            left,
            right,
        } => match (*left, *right) {
            (t @ Expr::Literal(Literal::Bool(true)), _)
            | (_, t @ Expr::Literal(Literal::Bool(true))) => t,
            (Expr::Literal(Literal::Bool(false)), x) | (x, Expr::Literal(Literal::Bool(false))) => {
                x
            }
            (l, r) => Expr::bin(BinOp::Or, l, r),
        },
        Expr::Unary {
            op: UnOp::Not,
            expr,
        } => match *expr {
            // Double negation.
            Expr::Unary {
                op: UnOp::Not,
                expr: inner,
            } => *inner,
            Expr::Literal(Literal::Bool(b)) => Expr::Literal(Literal::Bool(!b)),
            // De-negate comparisons: NOT (a < b) → a >= b.
            Expr::Binary { op, left, right } if negatable(op) => Expr::Binary {
                op: negate(op),
                left,
                right,
            },
            other => Expr::Unary {
                op: UnOp::Not,
                expr: Box::new(other),
            },
        },
        other => other,
    }
}

fn negatable(op: BinOp) -> bool {
    matches!(
        op,
        BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
    )
}

fn negate(op: BinOp) -> BinOp {
    match op {
        BinOp::Eq => BinOp::Ne,
        BinOp::Ne => BinOp::Eq,
        BinOp::Lt => BinOp::Ge,
        BinOp::Le => BinOp::Gt,
        BinOp::Gt => BinOp::Le,
        BinOp::Ge => BinOp::Lt,
        other => other,
    }
}

pub(crate) fn datum_to_literal(d: &hdm_common::Datum) -> Option<Literal> {
    use hdm_common::Datum;
    Some(match d {
        Datum::Null => Literal::Null,
        Datum::Int(v) => Literal::Int(*v),
        Datum::Float(v) => Literal::Float(*v),
        Datum::Text(s) => Literal::Str(s.clone()),
        Datum::Bool(b) => Literal::Bool(*b),
        Datum::Timestamp(v) => Literal::Int(*v),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser_test_expr;

    fn folded(text: &str) -> Expr {
        fold(parser_test_expr(text))
    }

    #[test]
    fn literal_arithmetic_folds() {
        assert_eq!(folded("5 + 5"), Expr::int(10));
        assert_eq!(folded("2 * 3 + 4"), Expr::int(10));
        assert_eq!(folded("10 > 3"), Expr::Literal(Literal::Bool(true)));
        assert_eq!(folded("'a' = 'b'"), Expr::Literal(Literal::Bool(false)));
    }

    #[test]
    fn folding_reaches_inside_predicates() {
        // b1 > 5 + 5  →  b1 > 10
        let e = folded("b1 > 5 + 5");
        assert_eq!(e, parser_test_expr("b1 > 10"));
    }

    #[test]
    fn division_by_zero_stays_unfolded() {
        let e = folded("1 / 0");
        assert!(matches!(e, Expr::Binary { op: BinOp::Div, .. }));
    }

    #[test]
    fn boolean_identities() {
        assert_eq!(folded("a > 1 and 1 = 1"), parser_test_expr("a > 1"));
        assert_eq!(
            folded("a > 1 and 1 = 2"),
            Expr::Literal(Literal::Bool(false))
        );
        assert_eq!(folded("a > 1 or 1 = 1"), Expr::Literal(Literal::Bool(true)));
        assert_eq!(folded("a > 1 or false"), parser_test_expr("a > 1"));
    }

    #[test]
    fn negation_rewrites() {
        assert_eq!(folded("not not a > 1"), parser_test_expr("a > 1"));
        assert_eq!(folded("not a < 5"), parser_test_expr("a >= 5"));
        assert_eq!(folded("not a = 5"), parser_test_expr("a <> 5"));
        assert_eq!(folded("not true"), Expr::Literal(Literal::Bool(false)));
    }

    #[test]
    fn where_true_is_eliminated() {
        let mut w = Some(parser_test_expr("1 = 1"));
        rewrite_where(&mut w);
        assert!(w.is_none());
        let mut w = Some(parser_test_expr("a > 1 and true"));
        rewrite_where(&mut w);
        assert_eq!(w, Some(parser_test_expr("a > 1")));
    }

    #[test]
    fn select_rewrites_every_clause() {
        let crate::ast::Statement::Select(mut s) = crate::parser::parse(
            "select a + 0 * 2 from t where b > 2 + 3 group by a having count(*) > 1 + 1 \
             order by a",
        )
        .unwrap() else {
            panic!()
        };
        rewrite_select(&mut s);
        assert_eq!(s.where_clause, Some(parser_test_expr("b > 5")));
        assert_eq!(s.having, Some(parser_test_expr("count(*) > 2")));
    }
}
