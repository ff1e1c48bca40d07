//! Abstract syntax for the SQL subset.

use hdm_common::DataType;

/// A literal value in SQL text.
#[derive(Debug, Clone, PartialEq)]
pub enum Literal {
    Int(i64),
    Float(f64),
    Str(String),
    Bool(bool),
    Null,
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    And,
    Or,
    Add,
    Sub,
    Mul,
    Div,
    Mod,
}

impl BinOp {
    /// Token used in canonical step text.
    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Eq => "=",
            BinOp::Ne => "<>",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::And => "AND",
            BinOp::Or => "OR",
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Mod => "%",
        }
    }

    /// Operand order does not affect the result.
    pub fn is_commutative(self) -> bool {
        matches!(
            self,
            BinOp::Eq | BinOp::Ne | BinOp::And | BinOp::Or | BinOp::Add | BinOp::Mul
        )
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnOp {
    Not,
    Neg,
}

/// An unresolved scalar expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// `qualifier.name` or bare `name`.
    Column(Option<String>, String),
    Literal(Literal),
    Binary {
        op: BinOp,
        left: Box<Expr>,
        right: Box<Expr>,
    },
    Unary {
        op: UnOp,
        expr: Box<Expr>,
    },
    /// Function call; `star` marks `COUNT(*)`.
    Func {
        name: String,
        args: Vec<Expr>,
        star: bool,
    },
    /// `?` — the n-th positional statement parameter (0-based), bound to a
    /// concrete value at execution time by the prepared-statement layer.
    Param(u16),
}

impl Expr {
    pub fn col(name: &str) -> Expr {
        Expr::Column(None, name.to_string())
    }

    pub fn qcol(q: &str, name: &str) -> Expr {
        Expr::Column(Some(q.to_string()), name.to_string())
    }

    pub fn int(v: i64) -> Expr {
        Expr::Literal(Literal::Int(v))
    }

    pub fn bin(op: BinOp, l: Expr, r: Expr) -> Expr {
        Expr::Binary {
            op,
            left: Box::new(l),
            right: Box::new(r),
        }
    }

    /// Split a conjunction into its conjuncts.
    pub fn conjuncts(self) -> Vec<Expr> {
        match self {
            Expr::Binary {
                op: BinOp::And,
                left,
                right,
            } => {
                let mut v = left.conjuncts();
                v.extend(right.conjuncts());
                v
            }
            e => vec![e],
        }
    }

    /// All column references in the expression.
    pub fn columns(&self) -> Vec<(&Option<String>, &str)> {
        let mut out = Vec::new();
        self.collect_columns(&mut out);
        out
    }

    fn collect_columns<'a>(&'a self, out: &mut Vec<(&'a Option<String>, &'a str)>) {
        match self {
            Expr::Column(q, n) => out.push((q, n)),
            Expr::Literal(_) | Expr::Param(_) => {}
            Expr::Binary { left, right, .. } => {
                left.collect_columns(out);
                right.collect_columns(out);
            }
            Expr::Unary { expr, .. } => expr.collect_columns(out),
            Expr::Func { args, .. } => {
                for a in args {
                    a.collect_columns(out);
                }
            }
        }
    }

    /// Does this expression contain an aggregate function call?
    pub fn has_aggregate(&self) -> bool {
        match self {
            Expr::Func { name, .. } => {
                matches!(name.as_str(), "count" | "sum" | "avg" | "min" | "max")
            }
            Expr::Binary { left, right, .. } => left.has_aggregate() || right.has_aggregate(),
            Expr::Unary { expr, .. } => expr.has_aggregate(),
            _ => false,
        }
    }
}

/// One SELECT-list item.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    Star,
    Expr { expr: Expr, alias: Option<String> },
}

/// A relation in FROM.
#[derive(Debug, Clone, PartialEq)]
pub enum TableRef {
    Named {
        name: String,
        alias: Option<String>,
    },
    /// A table-valued function call, e.g. `gtimeseries('cars', 30)`.
    Function {
        name: String,
        args: Vec<Expr>,
        alias: Option<String>,
    },
    /// Parenthesized subquery with mandatory alias.
    Subquery {
        query: Box<SelectStmt>,
        alias: String,
    },
    /// `left JOIN right ON cond` (inner joins only).
    Join {
        left: Box<TableRef>,
        right: Box<TableRef>,
        on: Expr,
    },
}

/// Set-operation kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SetOpKind {
    Union,
    Intersect,
    Except,
}

impl SetOpKind {
    pub fn name(self) -> &'static str {
        match self {
            SetOpKind::Union => "UNION",
            SetOpKind::Intersect => "INTERSECT",
            SetOpKind::Except => "EXCEPT",
        }
    }
}

/// A SELECT statement (possibly the head of a set-operation chain).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SelectStmt {
    /// `WITH name AS (select), ...` — non-recursive CTEs.
    pub with: Vec<(String, SelectStmt)>,
    /// `SELECT DISTINCT`.
    pub distinct: bool,
    pub projections: Vec<SelectItem>,
    pub from: Vec<TableRef>,
    pub where_clause: Option<Expr>,
    pub group_by: Vec<Expr>,
    /// `HAVING` predicate over the aggregated output.
    pub having: Option<Expr>,
    pub order_by: Vec<(Expr, bool)>,
    pub limit: Option<u64>,
    /// `self <set-op> rhs`.
    pub set_op: Option<(SetOpKind, bool, Box<SelectStmt>)>,
}

/// A column definition in CREATE TABLE.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnDef {
    pub name: String,
    pub data_type: DataType,
    pub not_null: bool,
}

/// A top-level statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    CreateTable {
        name: String,
        columns: Vec<ColumnDef>,
    },
    CreateIndex {
        table: String,
        columns: Vec<String>,
    },
    Insert {
        table: String,
        columns: Option<Vec<String>>,
        rows: Vec<Vec<Expr>>,
    },
    Update {
        table: String,
        sets: Vec<(String, Expr)>,
        where_clause: Option<Expr>,
    },
    Delete {
        table: String,
        where_clause: Option<Expr>,
    },
    Select(SelectStmt),
    Explain {
        /// `EXPLAIN ANALYZE`: execute the statement and annotate the plan
        /// with actual per-operator rows and timings.
        analyze: bool,
        stmt: Box<Statement>,
    },
    Analyze {
        table: Option<String>,
    },
}

impl Statement {
    /// INSERT, UPDATE or DELETE: a statement bound by [`crate::dml`].
    pub fn is_dml(&self) -> bool {
        matches!(
            self,
            Statement::Insert { .. } | Statement::Update { .. } | Statement::Delete { .. }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conjuncts_flatten_nested_ands() {
        let e = Expr::bin(
            BinOp::And,
            Expr::bin(BinOp::And, Expr::col("a"), Expr::col("b")),
            Expr::col("c"),
        );
        assert_eq!(e.conjuncts().len(), 3);
    }

    #[test]
    fn or_is_a_single_conjunct() {
        let e = Expr::bin(BinOp::Or, Expr::col("a"), Expr::col("b"));
        assert_eq!(e.conjuncts().len(), 1);
    }

    #[test]
    fn columns_are_collected_depth_first() {
        let e = Expr::bin(
            BinOp::Eq,
            Expr::qcol("t1", "a"),
            Expr::bin(BinOp::Add, Expr::col("b"), Expr::int(1)),
        );
        let cols = e.columns();
        assert_eq!(cols.len(), 2);
        assert_eq!(cols[0].1, "a");
        assert_eq!(cols[1].1, "b");
    }

    #[test]
    fn aggregate_detection() {
        let agg = Expr::Func {
            name: "count".into(),
            args: vec![],
            star: true,
        };
        assert!(agg.has_aggregate());
        assert!(Expr::bin(BinOp::Add, agg, Expr::int(1)).has_aggregate());
        assert!(!Expr::col("x").has_aggregate());
    }

    #[test]
    fn commutativity_table() {
        assert!(BinOp::Eq.is_commutative());
        assert!(BinOp::Add.is_commutative());
        assert!(!BinOp::Lt.is_commutative());
        assert!(!BinOp::Sub.is_commutative());
    }
}
