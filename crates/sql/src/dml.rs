//! DML bound once (paper §II-A: FI-MPPDB serves short single-shard OLTP
//! writes, so the fixed cost of each call is the cost that counts).
//!
//! [`bind`] resolves an INSERT, UPDATE or DELETE against the catalog into a
//! [`BoundDml`]: the table's canonical name, the column its rows are placed
//! by, the VALUES rows as full-width expression lists, the SET list and the
//! predicate as [`SExpr`] with `Param` slots, and the value that routes the
//! statement when the predicate fixes the placement column by equality.
//!
//! A prepared statement is bound once, when it is prepared; each execution
//! evaluates the bound form against its parameters, with no AST copy and
//! no catalog lookup. Raw text is parsed and bound into the same form once per
//! statement, so both run one executor,
//! [`Facade::run_dml`](crate::session::Facade::run_dml).

use crate::ast::{BinOp, Expr, Statement};
use crate::catalog::Catalog;
use crate::expr::{bind as bind_expr, unique_column, BoundSchema, Resolve, SExpr};
use crate::prepared::count_params;
use crate::sys;
use hdm_common::{Datum, HdmError, Result, Row, Schema};
use std::borrow::Cow;

/// UPDATE's SET list bound to (column position, expression) pairs.
pub type BoundSets = Vec<(usize, SExpr)>;

/// What a bound statement writes.
#[derive(Debug, Clone, PartialEq)]
pub enum DmlOp {
    Insert(Values),
    Update(BoundSets),
    Delete,
}

/// INSERT's VALUES as full-width rows of expressions, held row after row
/// in one list; a column the statement's column list leaves out holds a
/// NULL literal.
#[derive(Debug, Clone, PartialEq)]
pub struct Values {
    width: usize,
    exprs: Vec<SExpr>,
}

impl Values {
    /// Each row's expressions, one per column. (A table has at least one
    /// column, so a row is never empty.)
    pub fn rows(&self) -> std::slice::Chunks<'_, SExpr> {
        self.exprs.chunks(self.width.max(1))
    }
}

/// The value an equality conjunct fixes a key column to: a parameter
/// slot or a literal.
#[derive(Debug, Clone, PartialEq)]
pub enum KeyArg {
    Param(u16),
    Lit(Datum),
}

impl KeyArg {
    /// The value under `params`.
    pub fn value<'a>(&'a self, params: &'a [Datum]) -> Result<&'a Datum> {
        match self {
            KeyArg::Param(i) => params.get(*i as usize).ok_or_else(|| unbound(*i)),
            KeyArg::Lit(d) => Ok(d),
        }
    }
}

fn unbound(i: u16) -> HdmError {
    HdmError::Execution(format!("unbound parameter ?{}", i as usize + 1))
}

/// An INSERT, UPDATE or DELETE bound against the catalog.
#[derive(Debug, Clone, PartialEq)]
pub struct BoundDml {
    /// The table's canonical (lower-case) name.
    pub table: String,
    /// The column the table's rows are placed by, on an engine that places
    /// rows by column.
    pub placement: Option<usize>,
    pub op: DmlOp,
    /// UPDATE's and DELETE's WHERE predicate.
    pub pred: Option<SExpr>,
    /// The first top-level AND conjunct of `pred` that fixes the placement
    /// column by equality to a parameter or an INT literal (only an INT
    /// routes): the value that routes the statement.
    pub key: Option<KeyArg>,
    /// `pred` is that conjunct alone, so a leg that finds its rows by the
    /// key needs no other filter.
    pub key_only: bool,
    /// Positional parameters the statement takes.
    pub n_params: usize,
}

impl BoundDml {
    /// Check `params` against the statement's parameter count, with the
    /// plan cache's error text.
    pub fn check_params(&self, params: &[Datum]) -> Result<()> {
        if params.len() != self.n_params {
            return Err(HdmError::Execution(format!(
                "statement has {} parameters; got {}",
                self.n_params,
                params.len()
            )));
        }
        Ok(())
    }

    /// The predicate with `params` bound: borrowed when it has none, else
    /// a copy with their values substituted, made once per execution.
    pub fn predicate(&self, params: &[Datum]) -> Result<Option<Cow<'_, SExpr>>> {
        self.pred.as_ref().map(|p| bound(p, params)).transpose()
    }

    /// The INT value `params` give the routing key, if the predicate has
    /// one. NULL and other types never route: the statement scatters and
    /// its predicate decides.
    pub fn key_value<'a>(&'a self, params: &'a [Datum]) -> Option<&'a Datum> {
        let v = self.key.as_ref()?.value(params).ok()?;
        matches!(v, Datum::Int(_)).then_some(v)
    }
}

/// `e` with `params` bound: borrowed when it has none.
fn bound<'a>(e: &'a SExpr, params: &[Datum]) -> Result<Cow<'a, SExpr>> {
    Ok(match e.has_params() {
        true => Cow::Owned(e.substitute_params(params)?),
        false => Cow::Borrowed(e),
    })
}

/// Evaluate `e` over `row` with `params` bound. A bare parameter, the
/// usual prepared VALUES entry or SET value, is read as it is.
fn eval_bound(e: &SExpr, row: &[Datum], params: &[Datum]) -> Result<Datum> {
    match e {
        SExpr::Param(i) => params.get(*i as usize).cloned().ok_or_else(|| unbound(*i)),
        _ => e.bound(params)?.eval(row),
    }
}

/// Evaluate one bound VALUES row under `params`.
pub fn values_row(exprs: &[SExpr], params: &[Datum]) -> Result<Row> {
    exprs
        .iter()
        .map(|e| eval_bound(e, &[], params))
        .collect::<Result<_>>()
        .map(Row::new)
}

/// The row an UPDATE's `sets` make of `old` under `params`. Every
/// right-hand side is evaluated against the old row, so `set a = b, b = a`
/// swaps.
pub fn updated_row(sets: &[(usize, SExpr)], old: &Row, params: &[Datum]) -> Result<Row> {
    let mut vals = old.values().to_vec();
    for (idx, e) in sets {
        vals[*idx] = eval_bound(e, old.values(), params)?;
    }
    Ok(Row::new(vals))
}

/// Bind an INSERT, UPDATE or DELETE against `catalog`. `placement`
/// resolves a table the engine lets DML write to the column its rows are
/// placed by, or to the error that makes it unwritable.
pub fn bind(
    stmt: &Statement,
    catalog: &Catalog,
    placement: impl FnOnce(&str) -> Result<Option<usize>>,
) -> Result<BoundDml> {
    let (table, op, pred) = match stmt {
        Statement::Insert {
            table,
            columns,
            rows,
        } => {
            let schema = writable_schema(catalog, table)?;
            let rows = insert_rows(table, schema, columns.as_deref(), rows)?;
            (table, DmlOp::Insert(rows), None)
        }
        Statement::Update {
            table,
            sets,
            where_clause,
        } => {
            let schema = writable_schema(catalog, table)?;
            let scope = TableScope { table, schema };
            let pred = where_clause
                .as_ref()
                .map(|w| bind_expr(w, &scope))
                .transpose()?;
            let mut bound: BoundSets = Vec::with_capacity(sets.len());
            for (c, e) in sets {
                let idx = column_position(table, schema, c)?;
                if bound.iter().any(|(i, _)| *i == idx) {
                    return Err(assigned_twice(c, table));
                }
                bound.push((idx, bind_expr(e, &scope)?));
            }
            (table, DmlOp::Update(bound), pred)
        }
        Statement::Delete {
            table,
            where_clause,
        } => {
            let scope = TableScope {
                table,
                schema: writable_schema(catalog, table)?,
            };
            let pred = where_clause
                .as_ref()
                .map(|w| bind_expr(w, &scope))
                .transpose()?;
            (table, DmlOp::Delete, pred)
        }
        _ => {
            return Err(HdmError::Plan(
                "only INSERT, UPDATE and DELETE bind as DML".into(),
            ))
        }
    };
    let placement = placement(table)?;
    if let (DmlOp::Update(sets), Some(col)) = (&op, placement) {
        if sets.iter().any(|(idx, _)| *idx == col) {
            return Err(HdmError::Unsupported(format!(
                "updating the distribution column of {table} would move rows between shards"
            )));
        }
    }
    let key = placement
        .zip(pred.as_ref())
        .and_then(|(c, p)| key_conjunct(p, c));
    let key_only = key.is_some() && !matches!(pred, Some(SExpr::Binary(BinOp::And, ..)));
    Ok(BoundDml {
        table: table.to_ascii_lowercase(),
        placement,
        op,
        pred,
        key,
        key_only,
        n_params: count_params(stmt),
    })
}

/// The schema DML and CREATE INDEX bind against; `sys.*` views are
/// read-only.
pub(crate) fn writable_schema<'a>(catalog: &'a Catalog, table: &str) -> Result<&'a Schema> {
    sys::check_read_only(table)?;
    Ok(catalog.get(table)?.schema())
}

/// Resolve column names to positions in `table`'s schema (CREATE INDEX
/// keys, INSERT column lists).
pub(crate) fn column_positions(
    table: &str,
    schema: &Schema,
    columns: &[String],
) -> Result<Vec<usize>> {
    columns
        .iter()
        .map(|c| column_position(table, schema, c))
        .collect()
}

fn column_position(table: &str, schema: &Schema, column: &str) -> Result<usize> {
    schema
        .index_of(column)
        .ok_or_else(|| HdmError::Catalog(format!("no column {column} in {table}")))
}

/// A statement that names one target column twice is rejected when it is
/// bound, INSERT column list and SET list alike.
fn assigned_twice(column: &str, table: &str) -> HdmError {
    HdmError::Plan(format!(
        "column {column} of {table} is assigned more than once"
    ))
}

/// The scope UPDATE's and DELETE's expressions resolve columns in: the
/// table's own schema, qualified by its name, read in place.
struct TableScope<'a> {
    table: &'a str,
    schema: &'a Schema,
}

impl Resolve for TableScope<'_> {
    fn resolve(&self, qualifier: Option<&str>, name: &str) -> Result<usize> {
        let qualified = qualifier.is_none_or(|q| q.eq_ignore_ascii_case(self.table));
        let hits = self.schema.columns().iter().enumerate();
        let hits = hits.filter(|(_, c)| qualified && c.name.eq_ignore_ascii_case(name));
        unique_column(hits.map(|(i, _)| i), qualifier, name)
    }
}

/// Bind INSERT's VALUES into full-width rows (columns the column list
/// leaves out are NULL).
fn insert_rows(
    table: &str,
    schema: &Schema,
    columns: Option<&[String]>,
    rows: &[Vec<Expr>],
) -> Result<Values> {
    let width = schema.len();
    let col_map = match columns {
        None => (0..width).collect(),
        Some(cols) => {
            let map = column_positions(table, schema, cols)?;
            if let Some(i) = (1..map.len()).find(|&i| map[..i].contains(&map[i])) {
                return Err(assigned_twice(&cols[i], table));
            }
            map
        }
    };
    let empty = BoundSchema::default();
    let mut exprs = vec![SExpr::Lit(Datum::Null); width * rows.len()];
    for (r, row) in rows.iter().zip(exprs.chunks_mut(width.max(1))) {
        if r.len() != col_map.len() {
            return Err(HdmError::Execution(format!(
                "INSERT row has {} values, expected {}",
                r.len(),
                col_map.len()
            )));
        }
        for (expr, &slot) in r.iter().zip(&col_map) {
            row[slot] = bind_expr(expr, &empty)?;
        }
    }
    Ok(Values { width, exprs })
}

/// The first top-level AND conjunct of `pred` of shape `col = ?` or
/// `col = INT literal` (either operand order), as the value it fixes `col`
/// to.
fn key_conjunct(pred: &SExpr, col: usize) -> Option<KeyArg> {
    let SExpr::Binary(op, l, r) = pred else {
        return None;
    };
    match op {
        BinOp::And => key_conjunct(l, col).or_else(|| key_conjunct(r, col)),
        BinOp::Eq => match (l.as_ref(), r.as_ref()) {
            (SExpr::Col(c), v) | (v, SExpr::Col(c)) if *c == col => match v {
                SExpr::Param(i) => Some(KeyArg::Param(*i)),
                SExpr::Lit(d @ Datum::Int(_)) => Some(KeyArg::Lit(d.clone())),
                _ => None,
            },
            _ => None,
        },
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdm_common::DataType;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.create_table(
            "t",
            Schema::from_pairs(&[
                ("k", DataType::Int),
                ("a", DataType::Int),
                ("b", DataType::Int),
            ]),
        )
        .unwrap();
        c
    }

    fn bound(sql: &str, placement: Option<usize>) -> Result<BoundDml> {
        let stmt = crate::parser::parse(sql).unwrap();
        bind(&stmt, &catalog(), |_| Ok(placement))
    }

    #[test]
    fn insert_binds_full_width_rows() {
        let d = bound("insert into T (b, k) values (?, 7)", Some(0)).unwrap();
        assert_eq!(d.table, "t");
        assert_eq!(d.n_params, 1);
        let DmlOp::Insert(values) = &d.op else {
            panic!("insert expected")
        };
        assert_eq!(values.rows().len(), 1);
        let row = values_row(values.rows().next().unwrap(), &[Datum::Int(3)]).unwrap();
        assert_eq!(row.values(), [Datum::Int(7), Datum::Null, Datum::Int(3)]);
    }

    #[test]
    fn the_placement_key_routes_by_parameter_or_int_literal() {
        let d = bound("update t set a = ? where k = ?", Some(0)).unwrap();
        assert_eq!((d.key.clone(), d.key_only), (Some(KeyArg::Param(1)), true));
        assert_eq!(
            d.key_value(&[Datum::Int(1), Datum::Int(9)]),
            Some(&Datum::Int(9))
        );
        assert_eq!(d.key_value(&[Datum::Int(1), Datum::Null]), None);
        let d = bound("delete from t where a > 1 and 5 = k", Some(0)).unwrap();
        assert_eq!(
            (d.key.clone(), d.key_only),
            (Some(KeyArg::Lit(Datum::Int(5))), false)
        );
        // OR defeats routing; so does an engine that does not place rows.
        assert_eq!(
            bound("delete from t where k = 1 or k = 2", Some(0))
                .unwrap()
                .key,
            None
        );
        assert_eq!(bound("delete from t where k = 1", None).unwrap().key, None);
    }

    #[test]
    fn set_list_reads_the_old_row() {
        let d = bound("update t set a = b, b = a", None).unwrap();
        let DmlOp::Update(sets) = &d.op else {
            panic!("update expected")
        };
        let old = Row::new(vec![Datum::Int(1), Datum::Int(10), Datum::Int(20)]);
        let new = updated_row(sets, &old, &[]).unwrap();
        assert_eq!(
            new.values(),
            [Datum::Int(1), Datum::Int(20), Datum::Int(10)]
        );
    }

    #[test]
    fn a_column_named_twice_or_the_placement_column_is_rejected() {
        let want = "column a of t is assigned more than once";
        for sql in [
            "insert into t (k, a, a) values (1, 2, 3)",
            "update t set a = 1, a = 2",
        ] {
            let err = bound(sql, None).unwrap_err().to_string();
            assert!(err.contains(want), "{sql}: {err}");
        }
        let err = bound("update t set k = 1", Some(0))
            .unwrap_err()
            .to_string();
        assert!(err.contains("distribution column"), "{err}");
        assert!(bound("update t set k = 1", None).is_ok());
    }
}
