//! Name resolution and bound (executable) expressions.

use crate::ast::{BinOp, Expr, Literal, UnOp};
use hdm_common::{DataType, Datum, HdmError, Result};
use std::borrow::Cow;

/// One output column of a bound relation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BoundColumn {
    /// Qualifier used for *resolution* (table alias if given).
    pub refq: String,
    /// Qualifier used for *canonical step text* (the real table name, so the
    /// same query matches the plan store regardless of aliasing).
    pub canonq: String,
    pub name: String,
    pub ty: DataType,
}

impl BoundColumn {
    /// `CANONQ.NAME` in upper case — the paper's step-text column notation.
    pub fn canonical(&self) -> String {
        if self.canonq.is_empty() {
            self.name.to_ascii_uppercase()
        } else {
            format!(
                "{}.{}",
                self.canonq.to_ascii_uppercase(),
                self.name.to_ascii_uppercase()
            )
        }
    }
}

/// The bound output schema of a relation or plan node.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BoundSchema {
    pub cols: Vec<BoundColumn>,
}

impl BoundSchema {
    /// Bind a base table's schema under `canon_name` (real name) and
    /// `refq` (alias, or the real name when unaliased).
    pub fn from_table(canon_name: &str, refq: &str, schema: &hdm_common::Schema) -> Self {
        Self {
            cols: schema
                .columns()
                .iter()
                .map(|c| BoundColumn {
                    refq: refq.to_string(),
                    canonq: canon_name.to_string(),
                    name: c.name.clone(),
                    ty: c.data_type,
                })
                .collect(),
        }
    }

    pub fn len(&self) -> usize {
        self.cols.len()
    }

    pub fn is_empty(&self) -> bool {
        self.cols.is_empty()
    }

    /// Concatenate (join output).
    pub fn join(&self, other: &BoundSchema) -> BoundSchema {
        let mut cols = self.cols.clone();
        cols.extend(other.cols.iter().cloned());
        BoundSchema { cols }
    }

    /// Convert to a storage-layer schema.
    pub fn to_schema(&self) -> hdm_common::Schema {
        hdm_common::Schema::new(
            self.cols
                .iter()
                .map(|c| hdm_common::Column::new(c.name.clone(), c.ty))
                .collect(),
        )
    }
}

/// Where [`bind`] resolves a column reference to its row offset.
pub trait Resolve {
    fn resolve(&self, qualifier: Option<&str>, name: &str) -> Result<usize>;
}

impl Resolve for BoundSchema {
    /// Errors on unknown or ambiguous references.
    fn resolve(&self, qualifier: Option<&str>, name: &str) -> Result<usize> {
        let hits = self.cols.iter().enumerate().filter(|(_, c)| {
            c.name.eq_ignore_ascii_case(name)
                && qualifier.is_none_or(|q| {
                    c.refq.eq_ignore_ascii_case(q) || c.canonq.eq_ignore_ascii_case(q)
                })
        });
        unique_column(hits.map(|(i, _)| i), qualifier, name)
    }
}

/// The one offset in `hits` that `qualifier.name` resolves to; an error
/// when there is none or more than one.
pub(crate) fn unique_column(
    mut hits: impl Iterator<Item = usize>,
    qualifier: Option<&str>,
    name: &str,
) -> Result<usize> {
    match (hits.next(), hits.next()) {
        (Some(i), None) => Ok(i),
        (None, _) => Err(HdmError::Plan(format!(
            "unknown column {}{name}",
            qualifier.map(|q| format!("{q}.")).unwrap_or_default()
        ))),
        (Some(_), Some(_)) => Err(HdmError::Plan(format!("ambiguous column {name}"))),
    }
}

/// A bound scalar expression over row offsets.
#[derive(Debug, Clone, PartialEq)]
pub enum SExpr {
    Col(usize),
    Lit(Datum),
    Binary(BinOp, Box<SExpr>, Box<SExpr>),
    Unary(UnOp, Box<SExpr>),
    /// Scalar built-ins: abs, length, upper, lower.
    Func(String, Vec<SExpr>),
    /// Unbound positional statement parameter (0-based). Produced when a
    /// prepared statement is planned before its values are known; replaced
    /// with `Lit` by [`SExpr::substitute_params`] at bind time.
    Param(u16),
}

impl SExpr {
    /// Evaluate against a row (SQL three-valued logic: NULL propagates).
    pub fn eval(&self, row: &[Datum]) -> Result<Datum> {
        match self {
            SExpr::Col(i) => column(row, *i).cloned(),
            SExpr::Lit(d) => Ok(d.clone()),
            SExpr::Unary(op, e) => {
                let v = e.eval(row)?;
                match op {
                    UnOp::Not => Ok(match v.as_bool() {
                        Some(b) => Datum::Bool(!b),
                        None => Datum::Null,
                    }),
                    UnOp::Neg => Ok(match v {
                        Datum::Int(x) => Datum::Int(-x),
                        Datum::Float(x) => Datum::Float(-x),
                        _ => Datum::Null,
                    }),
                }
            }
            SExpr::Binary(op, l, r) => {
                let datum = |t: Option<bool>| t.map_or(Datum::Null, Datum::Bool);
                // Short-circuit AND/OR with three-valued logic.
                match op {
                    BinOp::And => {
                        let lt = l.eval(row)?.as_bool();
                        if lt == Some(false) {
                            return Ok(Datum::Bool(false));
                        }
                        return Ok(datum(and3(lt, r.eval(row)?.as_bool())));
                    }
                    BinOp::Or => {
                        let lt = l.eval(row)?.as_bool();
                        if lt == Some(true) {
                            return Ok(Datum::Bool(true));
                        }
                        return Ok(datum(or3(lt, r.eval(row)?.as_bool())));
                    }
                    _ => {}
                }
                // Column and literal operands are borrowed, not cloned.
                let lv = l.eval_ref(row)?;
                let rv = r.eval_ref(row)?;
                match op {
                    BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                        Ok(datum(compare(*op, &lv, &rv)))
                    }
                    BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Mod => {
                        if lv.is_null() || rv.is_null() {
                            return Ok(Datum::Null);
                        }
                        arith(*op, &lv, &rv)
                    }
                    BinOp::And | BinOp::Or => unreachable!("handled above"),
                }
            }
            SExpr::Func(name, args) => {
                let vals: Vec<Datum> = args.iter().map(|a| a.eval(row)).collect::<Result<_>>()?;
                scalar_func(name, &vals)
            }
            SExpr::Param(i) => Err(HdmError::Execution(format!("unbound parameter ?{}", i + 1))),
        }
    }

    /// Evaluate, borrowing instead of cloning when the expression is a bare
    /// column or literal.
    pub(crate) fn eval_ref<'a>(&'a self, row: &'a [Datum]) -> Result<Cow<'a, Datum>> {
        match self {
            SExpr::Col(i) => column(row, *i).map(Cow::Borrowed),
            SExpr::Lit(d) => Ok(Cow::Borrowed(d)),
            _ => self.eval(row).map(Cow::Owned),
        }
    }

    /// Evaluate as a filter predicate: only TRUE keeps the row.
    pub fn eval_filter(&self, row: &[Datum]) -> Result<bool> {
        Ok(self.eval(row)?.as_bool() == Some(true))
    }

    /// Canonical rendering for step text: commutative operands are ordered
    /// lexicographically so `a=b` and `b=a` hash identically, and literal
    /// and parameter values are both masked to `?` so every binding of the
    /// same statement shape shares one plan-store cardinality entry.
    pub fn canonical(&self, schema: &BoundSchema) -> String {
        match self {
            SExpr::Col(i) => schema.cols[*i].canonical(),
            SExpr::Lit(_) | SExpr::Param(_) => "?".to_string(),
            SExpr::Unary(op, e) => match op {
                UnOp::Not => format!("NOT({})", e.canonical(schema)),
                UnOp::Neg => format!("-({})", e.canonical(schema)),
            },
            SExpr::Binary(op, l, r) => {
                let mut a = l.canonical(schema);
                let mut b = r.canonical(schema);
                if op.is_commutative() && a > b {
                    std::mem::swap(&mut a, &mut b);
                }
                match op {
                    BinOp::And | BinOp::Or => format!("({a} {} {b})", op.symbol()),
                    _ => format!("{a}{}{b}", op.symbol()),
                }
            }
            SExpr::Func(name, args) => {
                let inner: Vec<String> = args.iter().map(|a| a.canonical(schema)).collect();
                format!("{}({})", name.to_ascii_uppercase(), inner.join(","))
            }
        }
    }

    /// Human-facing rendering for EXPLAIN: like [`SExpr::canonical`] but
    /// literal values are shown, not masked (parameters still print `?`).
    pub fn display(&self, schema: &BoundSchema) -> String {
        match self {
            SExpr::Col(i) => schema.cols[*i].canonical(),
            SExpr::Lit(d) => format!("{d}"),
            SExpr::Param(_) => "?".to_string(),
            SExpr::Unary(op, e) => match op {
                UnOp::Not => format!("NOT({})", e.display(schema)),
                UnOp::Neg => format!("-({})", e.display(schema)),
            },
            SExpr::Binary(op, l, r) => {
                let mut a = l.display(schema);
                let mut b = r.display(schema);
                if op.is_commutative() && a > b {
                    std::mem::swap(&mut a, &mut b);
                }
                match op {
                    BinOp::And | BinOp::Or => format!("({a} {} {b})", op.symbol()),
                    _ => format!("{a}{}{b}", op.symbol()),
                }
            }
            SExpr::Func(name, args) => {
                let inner: Vec<String> = args.iter().map(|a| a.display(schema)).collect();
                format!("{}({})", name.to_ascii_uppercase(), inner.join(","))
            }
        }
    }

    /// Does this expression reference an unbound parameter?
    pub fn has_params(&self) -> bool {
        match self {
            SExpr::Param(_) => true,
            SExpr::Col(_) | SExpr::Lit(_) => false,
            SExpr::Unary(_, e) => e.has_params(),
            SExpr::Binary(_, l, r) => l.has_params() || r.has_params(),
            SExpr::Func(_, args) => args.iter().any(|a| a.has_params()),
        }
    }

    /// This expression with `params` bound: borrowed when it has none,
    /// else a copy with their values substituted.
    pub fn bound(&self, params: &[Datum]) -> Result<Cow<'_, SExpr>> {
        Ok(match self.has_params() {
            true => Cow::Owned(self.substitute_params(params)?),
            false => Cow::Borrowed(self),
        })
    }

    /// Replace every `Param(i)` with `Lit(params[i])`. Errors if a parameter
    /// index is out of range (arity is checked up front by the prepared
    /// layer, so this is a defensive backstop).
    pub fn substitute_params(&self, params: &[Datum]) -> Result<SExpr> {
        Ok(match self {
            SExpr::Param(i) => {
                let d = params.get(*i as usize).ok_or_else(|| {
                    HdmError::Execution(format!("unbound parameter ?{}", *i as usize + 1))
                })?;
                SExpr::Lit(d.clone())
            }
            SExpr::Col(_) | SExpr::Lit(_) => self.clone(),
            SExpr::Unary(op, e) => SExpr::Unary(*op, Box::new(e.substitute_params(params)?)),
            SExpr::Binary(op, l, r) => SExpr::Binary(
                *op,
                Box::new(l.substitute_params(params)?),
                Box::new(r.substitute_params(params)?),
            ),
            SExpr::Func(name, args) => SExpr::Func(
                name.clone(),
                args.iter()
                    .map(|a| a.substitute_params(params))
                    .collect::<Result<_>>()?,
            ),
        })
    }
}

fn column(row: &[Datum], i: usize) -> Result<&Datum> {
    row.get(i)
        .ok_or_else(|| HdmError::Execution(format!("row too short for column {i}")))
}

/// Three-valued AND of two truth values (`None` is UNKNOWN).
fn and3(l: Option<bool>, r: Option<bool>) -> Option<bool> {
    match (l, r) {
        (Some(true), Some(true)) => Some(true),
        (Some(false), _) | (_, Some(false)) => Some(false),
        _ => None,
    }
}

/// Three-valued OR of two truth values (`None` is UNKNOWN).
fn or3(l: Option<bool>, r: Option<bool>) -> Option<bool> {
    match (l, r) {
        (Some(false), Some(false)) => Some(false),
        (Some(true), _) | (_, Some(true)) => Some(true),
        _ => None,
    }
}

/// A comparison operator applied under SQL semantics: UNKNOWN (`None`)
/// when either side is NULL or the types are incomparable.
fn compare(op: BinOp, l: &Datum, r: &Datum) -> Option<bool> {
    let ord = l.sql_cmp(r)?;
    Some(match op {
        BinOp::Eq => ord.is_eq(),
        BinOp::Ne => !ord.is_eq(),
        BinOp::Lt => ord.is_lt(),
        BinOp::Le => ord.is_le(),
        BinOp::Gt => ord.is_gt(),
        BinOp::Ge => ord.is_ge(),
        _ => unreachable!("{} is not a comparison", op.symbol()),
    })
}

fn arith(op: BinOp, l: &Datum, r: &Datum) -> Result<Datum> {
    // Integer arithmetic when both sides are integral, else float.
    if let (Some(a), Some(b)) = (l.as_int(), r.as_int()) {
        let v = match op {
            BinOp::Add => a.checked_add(b),
            BinOp::Sub => a.checked_sub(b),
            BinOp::Mul => a.checked_mul(b),
            BinOp::Div => {
                if b == 0 {
                    return Err(HdmError::Execution("division by zero".into()));
                }
                a.checked_div(b)
            }
            BinOp::Mod => {
                if b == 0 {
                    return Err(HdmError::Execution("division by zero".into()));
                }
                a.checked_rem(b)
            }
            _ => unreachable!(),
        };
        return v
            .map(Datum::Int)
            .ok_or_else(|| HdmError::Execution("integer overflow".into()));
    }
    let (a, b) = match (l.as_float(), r.as_float()) {
        (Some(a), Some(b)) => (a, b),
        _ => {
            return Err(HdmError::Execution(format!(
                "cannot apply {} to {l} and {r}",
                op.symbol()
            )))
        }
    };
    let v = match op {
        BinOp::Add => a + b,
        BinOp::Sub => a - b,
        BinOp::Mul => a * b,
        BinOp::Div => {
            if b == 0.0 {
                return Err(HdmError::Execution("division by zero".into()));
            }
            a / b
        }
        BinOp::Mod => a % b,
        _ => unreachable!(),
    };
    Ok(Datum::Float(v))
}

fn scalar_func(name: &str, args: &[Datum]) -> Result<Datum> {
    match (name, args) {
        ("abs", [Datum::Int(v)]) => Ok(Datum::Int(v.abs())),
        ("abs", [Datum::Float(v)]) => Ok(Datum::Float(v.abs())),
        ("abs", [Datum::Null]) => Ok(Datum::Null),
        ("length", [Datum::Text(s)]) => Ok(Datum::Int(s.len() as i64)),
        ("length", [Datum::Null]) => Ok(Datum::Null),
        ("upper", [Datum::Text(s)]) => Ok(Datum::Text(s.to_ascii_uppercase())),
        ("lower", [Datum::Text(s)]) => Ok(Datum::Text(s.to_ascii_lowercase())),
        _ => Err(HdmError::Unsupported(format!(
            "scalar function {name}/{}",
            args.len()
        ))),
    }
}

/// Bind an AST expression, resolving its columns in `schema` (aggregates
/// are NOT allowed here; the planner splits them out first).
pub fn bind(e: &Expr, schema: &dyn Resolve) -> Result<SExpr> {
    match e {
        Expr::Column(q, n) => Ok(SExpr::Col(schema.resolve(q.as_deref(), n)?)),
        Expr::Literal(l) => Ok(SExpr::Lit(lit_to_datum(l))),
        Expr::Binary { op, left, right } => Ok(SExpr::Binary(
            *op,
            Box::new(bind(left, schema)?),
            Box::new(bind(right, schema)?),
        )),
        Expr::Unary { op, expr } => Ok(SExpr::Unary(*op, Box::new(bind(expr, schema)?))),
        Expr::Func { name, args, star } => {
            if *star || e.has_aggregate() {
                return Err(HdmError::Plan(format!(
                    "aggregate {name} not allowed in this context"
                )));
            }
            Ok(SExpr::Func(
                name.clone(),
                args.iter()
                    .map(|a| bind(a, schema))
                    .collect::<Result<_>>()?,
            ))
        }
        Expr::Param(i) => Ok(SExpr::Param(*i)),
    }
}

/// Convert an AST literal to a datum.
pub fn lit_to_datum(l: &Literal) -> Datum {
    match l {
        Literal::Int(v) => Datum::Int(*v),
        Literal::Float(v) => Datum::Float(*v),
        Literal::Str(s) => Datum::Text(s.clone()),
        Literal::Bool(b) => Datum::Bool(*b),
        Literal::Null => Datum::Null,
    }
}

/// Infer the output type of a bound expression (best effort; NULL-typed
/// expressions report Int).
pub fn infer_type(e: &SExpr, schema: &BoundSchema) -> DataType {
    match e {
        SExpr::Col(i) => schema.cols[*i].ty,
        SExpr::Lit(d) => d.data_type().unwrap_or(DataType::Int),
        SExpr::Unary(UnOp::Not, _) => DataType::Bool,
        SExpr::Unary(UnOp::Neg, x) => infer_type(x, schema),
        SExpr::Binary(op, l, r) => match op {
            BinOp::Eq
            | BinOp::Ne
            | BinOp::Lt
            | BinOp::Le
            | BinOp::Gt
            | BinOp::Ge
            | BinOp::And
            | BinOp::Or => DataType::Bool,
            _ => {
                if infer_type(l, schema) == DataType::Float
                    || infer_type(r, schema) == DataType::Float
                {
                    DataType::Float
                } else {
                    DataType::Int
                }
            }
        },
        SExpr::Func(name, _) => match name.as_str() {
            "length" => DataType::Int,
            "upper" | "lower" => DataType::Text,
            _ => DataType::Int,
        },
        SExpr::Param(_) => DataType::Int,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdm_common::Schema;

    fn schema() -> BoundSchema {
        BoundSchema::from_table(
            "olap.t1",
            "t1",
            &Schema::from_pairs(&[("a1", DataType::Int), ("b1", DataType::Int)]),
        )
    }

    #[test]
    fn resolve_by_alias_real_name_or_bare() {
        let s = schema();
        assert_eq!(s.resolve(Some("t1"), "a1").unwrap(), 0);
        assert_eq!(s.resolve(Some("olap.t1"), "b1").unwrap(), 1);
        assert_eq!(s.resolve(None, "b1").unwrap(), 1);
        assert!(s.resolve(Some("t2"), "a1").is_err());
        assert!(s.resolve(None, "zz").is_err());
    }

    #[test]
    fn ambiguity_detected_after_join() {
        let s = schema().join(&BoundSchema::from_table(
            "olap.t2",
            "t2",
            &Schema::from_pairs(&[("a1", DataType::Int)]),
        ));
        assert!(s.resolve(None, "a1").is_err(), "a1 exists on both sides");
        assert_eq!(s.resolve(Some("t2"), "a1").unwrap(), 2);
    }

    #[test]
    fn eval_arithmetic_and_comparison() {
        let s = schema();
        let e = bind(&crate::parser_test_expr("a1 + 2 * b1 > 10"), &s).unwrap();
        let row = [Datum::Int(4), Datum::Int(3)];
        assert_eq!(e.eval(&row).unwrap(), Datum::Bool(false));
        let row = [Datum::Int(5), Datum::Int(3)];
        assert_eq!(e.eval(&row).unwrap(), Datum::Bool(true));
    }

    #[test]
    fn null_propagates_and_filters_reject_unknown() {
        let s = schema();
        let e = bind(&crate::parser_test_expr("a1 > 10"), &s).unwrap();
        let row = [Datum::Null, Datum::Int(0)];
        assert_eq!(e.eval(&row).unwrap(), Datum::Null);
        assert!(!e.eval_filter(&row).unwrap());
    }

    #[test]
    fn three_valued_and_or() {
        let s = schema();
        let e = bind(&crate::parser_test_expr("a1 > 0 or b1 > 0"), &s).unwrap();
        // NULL OR TRUE = TRUE
        assert_eq!(
            e.eval(&[Datum::Null, Datum::Int(5)]).unwrap(),
            Datum::Bool(true)
        );
        let e = bind(&crate::parser_test_expr("a1 > 0 and b1 > 0"), &s).unwrap();
        // NULL AND FALSE = FALSE
        assert_eq!(
            e.eval(&[Datum::Null, Datum::Int(-5)]).unwrap(),
            Datum::Bool(false)
        );
        // NULL AND TRUE = NULL
        assert_eq!(e.eval(&[Datum::Null, Datum::Int(5)]).unwrap(), Datum::Null);
    }

    /// `eval_filter` against the generic evaluator as oracle: over generated
    /// rows and predicates (every comparison over `Col`/`Lit` operands of
    /// every type, AND/OR/NOT nested to depth 3, an operand that errors),
    /// both must keep the same rows and raise the same errors. It holds by
    /// construction while `eval_filter` wraps `eval`, and guards any filter
    /// fast path added later.
    #[test]
    fn eval_filter_agrees_with_eval_on_a_generated_grid() {
        use hdm_common::SplitMix64;
        let values = [
            Datum::Null,
            Datum::Int(0),
            Datum::Int(1),
            Datum::Int(-7),
            Datum::Float(0.5),
            Datum::Float(1.0),
            Datum::Text("a".into()),
            Datum::Text("b".into()),
            Datum::Bool(true),
            Datum::Bool(false),
            Datum::Timestamp(0),
            Datum::Timestamp(1),
        ];
        let cmps = [
            BinOp::Eq,
            BinOp::Ne,
            BinOp::Lt,
            BinOp::Le,
            BinOp::Gt,
            BinOp::Ge,
        ];
        const COLS: usize = 3;
        fn operand(rng: &mut SplitMix64, values: &[Datum]) -> SExpr {
            if rng.chance(0.5) {
                SExpr::Col(rng.next_below(COLS as u64) as usize)
            } else {
                SExpr::Lit(rng.pick(values).clone())
            }
        }
        fn gen(rng: &mut SplitMix64, depth: u32, values: &[Datum], cmps: &[BinOp]) -> SExpr {
            let bin = |op, l, r| SExpr::Binary(op, Box::new(l), Box::new(r));
            if depth == 0 || rng.chance(0.3) {
                return match rng.next_below(10) {
                    // `v / 0 = 1`: errors unless `v` is NULL.
                    0 => bin(
                        BinOp::Eq,
                        bin(BinOp::Div, operand(rng, values), SExpr::Lit(Datum::Int(0))),
                        SExpr::Lit(Datum::Int(1)),
                    ),
                    // A bare operand as a predicate (only booleans pass).
                    1 => operand(rng, values),
                    _ => bin(*rng.pick(cmps), operand(rng, values), operand(rng, values)),
                };
            }
            match rng.next_below(3) {
                0 => bin(
                    BinOp::And,
                    gen(rng, depth - 1, values, cmps),
                    gen(rng, depth - 1, values, cmps),
                ),
                1 => bin(
                    BinOp::Or,
                    gen(rng, depth - 1, values, cmps),
                    gen(rng, depth - 1, values, cmps),
                ),
                _ => SExpr::Unary(UnOp::Not, Box::new(gen(rng, depth - 1, values, cmps))),
            }
        }
        let outcome = |r: Result<bool>| r.map_err(|e| e.to_string());
        let mut rng = SplitMix64::new(0xf117e5);
        let (mut kept, mut errors) = (0, 0);
        for _ in 0..20_000 {
            let row: Vec<Datum> = (0..COLS).map(|_| rng.pick(&values).clone()).collect();
            let e = gen(&mut rng, 3, &values, &cmps);
            let want = outcome(e.eval(&row).map(|d| d.as_bool() == Some(true)));
            assert_eq!(outcome(e.eval_filter(&row)), want, "{e:?} over {row:?}");
            match want {
                Ok(k) => kept += k as usize,
                Err(_) => errors += 1,
            }
        }
        assert!(
            kept > 1_000 && errors > 1_000,
            "grid too narrow: {kept} kept, {errors} errors"
        );

        // The generic path evaluates AND's right side when the left is
        // NULL, so the right side's error surfaces; so must the filter's.
        let e = bind(&crate::parser_test_expr("null and a1 / 0 = 1"), &schema()).unwrap();
        let err = e.eval_filter(&[Datum::Int(5), Datum::Int(0)]).unwrap_err();
        assert!(err.to_string().contains("division by zero"), "{err}");
    }

    #[test]
    fn division_by_zero_is_an_error() {
        let s = schema();
        let e = bind(&crate::parser_test_expr("a1 / b1"), &s).unwrap();
        assert!(e.eval(&[Datum::Int(1), Datum::Int(0)]).is_err());
    }

    #[test]
    fn canonical_orders_commutative_operands() {
        let s = schema().join(&BoundSchema::from_table(
            "olap.t2",
            "t2",
            &Schema::from_pairs(&[("a2", DataType::Int)]),
        ));
        let e1 = bind(&crate::parser_test_expr("t1.a1 = t2.a2"), &s).unwrap();
        let e2 = bind(&crate::parser_test_expr("t2.a2 = t1.a1"), &s).unwrap();
        assert_eq!(e1.canonical(&s), e2.canonical(&s));
        assert_eq!(e1.canonical(&s), "OLAP.T1.A1=OLAP.T2.A2");
    }

    #[test]
    fn canonical_keeps_noncommutative_order() {
        let s = schema();
        let e = bind(&crate::parser_test_expr("b1 > 10"), &s).unwrap();
        assert_eq!(e.canonical(&s), "OLAP.T1.B1>?");
        assert_eq!(e.display(&s), "OLAP.T1.B1>10");
    }

    #[test]
    fn canonical_unifies_literals_and_params() {
        let s = schema();
        let lit = bind(&crate::parser_test_expr("b1 > 10"), &s).unwrap();
        let param = bind(&crate::parser_test_expr("b1 > ?"), &s).unwrap();
        assert_eq!(lit.canonical(&s), param.canonical(&s));
        // Reversed commutative forms unify too: `3 = b1` and `b1 = 3`.
        let a = bind(&crate::parser_test_expr("3 = b1"), &s).unwrap();
        let b = bind(&crate::parser_test_expr("b1 = 3"), &s).unwrap();
        assert_eq!(a.canonical(&s), b.canonical(&s));
    }

    #[test]
    fn params_substitute_and_error_when_unbound() {
        let s = schema();
        let e = bind(&crate::parser_test_expr("b1 > ?"), &s).unwrap();
        assert!(e.has_params());
        assert!(e.eval(&[Datum::Int(1), Datum::Int(2)]).is_err());
        let bound = e.substitute_params(&[Datum::Int(1)]).unwrap();
        assert!(!bound.has_params());
        assert_eq!(
            bound.eval(&[Datum::Int(0), Datum::Int(2)]).unwrap(),
            Datum::Bool(true)
        );
        assert!(e.substitute_params(&[]).is_err());
    }

    #[test]
    fn scalar_funcs() {
        let s = BoundSchema::from_table("t", "t", &Schema::from_pairs(&[("x", DataType::Text)]));
        let e = bind(&crate::parser_test_expr("upper(x)"), &s).unwrap();
        assert_eq!(
            e.eval(&[Datum::Text("ab".into())]).unwrap(),
            Datum::Text("AB".into())
        );
        let e = bind(&crate::parser_test_expr("length(x)"), &s).unwrap();
        assert_eq!(e.eval(&[Datum::Text("abc".into())]).unwrap(), Datum::Int(3));
    }
}
