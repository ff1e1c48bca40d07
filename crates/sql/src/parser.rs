//! Recursive-descent parser for the SQL subset.

use crate::ast::*;
use crate::lexer::{lex, Sym, Token};
use hdm_common::{DataType, HdmError, Result};

/// Words that terminate an implicit alias position.
const RESERVED: &[&str] = &[
    "where",
    "group",
    "order",
    "limit",
    "union",
    "intersect",
    "except",
    "join",
    "inner",
    "on",
    "as",
    "and",
    "or",
    "not",
    "values",
    "set",
    "from",
    "by",
    "asc",
    "desc",
    "all",
    "having",
    "distinct",
];

/// Parse one statement (a trailing semicolon is allowed).
pub fn parse(input: &str) -> Result<Statement> {
    let tokens = lex(input)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        next_param: 0,
    };
    let stmt = p.statement()?;
    p.eat_sym(Sym::Semicolon);
    p.expect_eof()?;
    Ok(stmt)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Next positional-parameter index; `?` placeholders number left to right.
    next_param: u16,
}

impl Parser {
    fn peek(&self) -> &Token {
        &self.tokens[self.pos]
    }

    fn next(&mut self) -> Token {
        let t = self.tokens[self.pos].clone();
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        t
    }

    fn error<T>(&self, msg: &str) -> Result<T> {
        Err(HdmError::Parse(format!(
            "{msg} near token {:?} (position {})",
            self.peek(),
            self.pos
        )))
    }

    /// Consume a specific keyword; error otherwise.
    fn expect_kw(&mut self, kw: &str) -> Result<()> {
        match self.peek() {
            Token::Ident(s) if s == kw => {
                self.next();
                Ok(())
            }
            _ => self.error(&format!("expected {kw:?}")),
        }
    }

    /// Consume a keyword if present.
    fn eat_kw(&mut self, kw: &str) -> bool {
        if matches!(self.peek(), Token::Ident(s) if s == kw) {
            self.next();
            true
        } else {
            false
        }
    }

    fn expect_sym(&mut self, s: Sym) -> Result<()> {
        match self.peek() {
            Token::Symbol(x) if *x == s => {
                self.next();
                Ok(())
            }
            _ => self.error(&format!("expected {s:?}")),
        }
    }

    fn eat_sym(&mut self, s: Sym) -> bool {
        if matches!(self.peek(), Token::Symbol(x) if *x == s) {
            self.next();
            true
        } else {
            false
        }
    }

    fn expect_eof(&mut self) -> Result<()> {
        match self.peek() {
            Token::Eof => Ok(()),
            _ => self.error("trailing input"),
        }
    }

    fn ident(&mut self) -> Result<String> {
        match self.next() {
            Token::Ident(s) => Ok(s),
            t => Err(HdmError::Parse(format!("expected identifier, got {t:?}"))),
        }
    }

    /// `a` or `a.b` or `a.b.c` joined by dots.
    fn qualified_name(&mut self) -> Result<String> {
        let mut parts = vec![self.ident()?];
        while self.eat_sym(Sym::Dot) {
            parts.push(self.ident()?);
        }
        Ok(parts.join("."))
    }

    fn statement(&mut self) -> Result<Statement> {
        match self.peek() {
            Token::Ident(s) => match s.as_str() {
                "create" => self.create(),
                "insert" => self.insert(),
                "update" => self.update(),
                "delete" => self.delete(),
                "select" | "with" => Ok(Statement::Select(self.select_stmt()?)),
                "explain" => {
                    self.next();
                    // `analyze` doubles as a statement keyword (ANALYZE t);
                    // after EXPLAIN it is always the profiling flag.
                    let analyze = self.eat_kw("analyze");
                    Ok(Statement::Explain {
                        analyze,
                        stmt: Box::new(self.statement()?),
                    })
                }
                "analyze" => {
                    self.next();
                    let table = if matches!(self.peek(), Token::Ident(_)) {
                        Some(self.qualified_name()?)
                    } else {
                        None
                    };
                    Ok(Statement::Analyze { table })
                }
                other => self.error(&format!("unknown statement {other:?}")),
            },
            _ => self.error("expected a statement"),
        }
    }

    fn create(&mut self) -> Result<Statement> {
        self.expect_kw("create")?;
        if self.eat_kw("table") {
            let name = self.qualified_name()?;
            self.expect_sym(Sym::LParen)?;
            let mut columns = Vec::new();
            loop {
                let cname = self.ident()?;
                let data_type = self.data_type()?;
                let mut not_null = false;
                if self.eat_kw("not") {
                    self.expect_kw("null")?;
                    not_null = true;
                }
                columns.push(ColumnDef {
                    name: cname,
                    data_type,
                    not_null,
                });
                if !self.eat_sym(Sym::Comma) {
                    break;
                }
            }
            self.expect_sym(Sym::RParen)?;
            Ok(Statement::CreateTable { name, columns })
        } else if self.eat_kw("index") {
            self.expect_kw("on")?;
            let table = self.qualified_name()?;
            self.expect_sym(Sym::LParen)?;
            let mut columns = vec![self.ident()?];
            while self.eat_sym(Sym::Comma) {
                columns.push(self.ident()?);
            }
            self.expect_sym(Sym::RParen)?;
            Ok(Statement::CreateIndex { table, columns })
        } else {
            self.error("expected TABLE or INDEX after CREATE")
        }
    }

    fn data_type(&mut self) -> Result<DataType> {
        let t = self.ident()?;
        let dt = match t.as_str() {
            "int" | "integer" | "bigint" => DataType::Int,
            "float" | "double" | "real" => DataType::Float,
            "text" | "string" | "varchar" | "char" => {
                // Optional length: varchar(32).
                if self.eat_sym(Sym::LParen) {
                    self.next();
                    self.expect_sym(Sym::RParen)?;
                }
                DataType::Text
            }
            "bool" | "boolean" => DataType::Bool,
            "timestamp" => DataType::Timestamp,
            other => return self.error(&format!("unknown type {other:?}")),
        };
        Ok(dt)
    }

    fn insert(&mut self) -> Result<Statement> {
        self.expect_kw("insert")?;
        self.expect_kw("into")?;
        let table = self.qualified_name()?;
        let columns = if self.eat_sym(Sym::LParen) {
            let mut cols = vec![self.ident()?];
            while self.eat_sym(Sym::Comma) {
                cols.push(self.ident()?);
            }
            self.expect_sym(Sym::RParen)?;
            Some(cols)
        } else {
            None
        };
        self.expect_kw("values")?;
        let mut rows = Vec::new();
        loop {
            self.expect_sym(Sym::LParen)?;
            let mut row = vec![self.expr()?];
            while self.eat_sym(Sym::Comma) {
                row.push(self.expr()?);
            }
            self.expect_sym(Sym::RParen)?;
            rows.push(row);
            if !self.eat_sym(Sym::Comma) {
                break;
            }
        }
        Ok(Statement::Insert {
            table,
            columns,
            rows,
        })
    }

    fn update(&mut self) -> Result<Statement> {
        self.expect_kw("update")?;
        let table = self.qualified_name()?;
        self.expect_kw("set")?;
        let mut sets = Vec::new();
        loop {
            let col = self.ident()?;
            self.expect_sym(Sym::Eq)?;
            sets.push((col, self.expr()?));
            if !self.eat_sym(Sym::Comma) {
                break;
            }
        }
        let where_clause = if self.eat_kw("where") {
            Some(self.expr()?)
        } else {
            None
        };
        Ok(Statement::Update {
            table,
            sets,
            where_clause,
        })
    }

    fn delete(&mut self) -> Result<Statement> {
        self.expect_kw("delete")?;
        self.expect_kw("from")?;
        let table = self.qualified_name()?;
        let where_clause = if self.eat_kw("where") {
            Some(self.expr()?)
        } else {
            None
        };
        Ok(Statement::Delete {
            table,
            where_clause,
        })
    }

    fn select_stmt(&mut self) -> Result<SelectStmt> {
        let mut with = Vec::new();
        if self.eat_kw("with") {
            loop {
                let name = self.ident()?;
                // Optional column list is accepted and ignored (names come
                // from the subquery's projection).
                if self.eat_sym(Sym::LParen) {
                    while !self.eat_sym(Sym::RParen) {
                        self.next();
                    }
                }
                self.expect_kw("as")?;
                self.expect_sym(Sym::LParen)?;
                let q = self.select_stmt()?;
                self.expect_sym(Sym::RParen)?;
                with.push((name, q));
                if !self.eat_sym(Sym::Comma) {
                    break;
                }
            }
        }
        let mut stmt = self.select_core()?;
        stmt.with = with;

        // Set-operation chain, appended at the tail. The planner folds the
        // chain left-to-right, giving standard left associativity.
        loop {
            let kind = if self.eat_kw("union") {
                SetOpKind::Union
            } else if self.eat_kw("intersect") {
                SetOpKind::Intersect
            } else if self.eat_kw("except") {
                SetOpKind::Except
            } else {
                break;
            };
            let all = self.eat_kw("all");
            let rhs = self.select_core()?;
            let mut cursor = &mut stmt;
            while cursor.set_op.is_some() {
                cursor = cursor.set_op.as_mut().unwrap().2.as_mut();
            }
            cursor.set_op = Some((kind, all, Box::new(rhs)));
        }

        // ORDER BY / LIMIT may follow the whole chain.
        if self.eat_kw("order") {
            self.expect_kw("by")?;
            loop {
                let e = self.expr()?;
                let desc = if self.eat_kw("desc") {
                    true
                } else {
                    self.eat_kw("asc");
                    false
                };
                stmt.order_by.push((e, desc));
                if !self.eat_sym(Sym::Comma) {
                    break;
                }
            }
        }
        if self.eat_kw("limit") {
            match self.next() {
                Token::Int(n) if n >= 0 => stmt.limit = Some(n as u64),
                t => return Err(HdmError::Parse(format!("expected LIMIT count, got {t:?}"))),
            }
        }
        Ok(stmt)
    }

    fn select_core(&mut self) -> Result<SelectStmt> {
        self.expect_kw("select")?;
        let distinct = self.eat_kw("distinct");
        let mut projections = Vec::new();
        loop {
            if self.eat_sym(Sym::Star) {
                projections.push(SelectItem::Star);
            } else {
                let expr = self.expr()?;
                let alias = if self.eat_kw("as") {
                    Some(self.ident()?)
                } else if let Token::Ident(s) = self.peek() {
                    if !RESERVED.contains(&s.as_str()) {
                        Some(self.ident()?)
                    } else {
                        None
                    }
                } else {
                    None
                };
                projections.push(SelectItem::Expr { expr, alias });
            }
            if !self.eat_sym(Sym::Comma) {
                break;
            }
        }

        let mut from = Vec::new();
        if self.eat_kw("from") {
            loop {
                from.push(self.table_ref()?);
                if !self.eat_sym(Sym::Comma) {
                    break;
                }
            }
        }

        let where_clause = if self.eat_kw("where") {
            Some(self.expr()?)
        } else {
            None
        };

        let mut group_by = Vec::new();
        if self.eat_kw("group") {
            self.expect_kw("by")?;
            loop {
                group_by.push(self.expr()?);
                if !self.eat_sym(Sym::Comma) {
                    break;
                }
            }
        }
        let having = if self.eat_kw("having") {
            Some(self.expr()?)
        } else {
            None
        };

        Ok(SelectStmt {
            with: vec![],
            distinct,
            projections,
            from,
            where_clause,
            group_by,
            having,
            order_by: vec![],
            limit: None,
            set_op: None,
        })
    }

    fn table_ref(&mut self) -> Result<TableRef> {
        let mut t = self.table_primary()?;
        // Chains of `[inner] join X on cond`.
        loop {
            let save = self.pos;
            let inner = self.eat_kw("inner");
            if self.eat_kw("join") {
                let right = self.table_primary()?;
                self.expect_kw("on")?;
                let on = self.expr()?;
                t = TableRef::Join {
                    left: Box::new(t),
                    right: Box::new(right),
                    on,
                };
            } else {
                if inner {
                    self.pos = save;
                }
                break;
            }
        }
        Ok(t)
    }

    fn table_primary(&mut self) -> Result<TableRef> {
        if self.eat_sym(Sym::LParen) {
            let q = self.select_stmt()?;
            self.expect_sym(Sym::RParen)?;
            self.eat_kw("as");
            let alias = self.ident()?;
            return Ok(TableRef::Subquery {
                query: Box::new(q),
                alias,
            });
        }
        let name = self.qualified_name()?;
        if self.eat_sym(Sym::LParen) {
            // Table function.
            let mut args = Vec::new();
            if !self.eat_sym(Sym::RParen) {
                loop {
                    args.push(self.expr()?);
                    if !self.eat_sym(Sym::Comma) {
                        break;
                    }
                }
                self.expect_sym(Sym::RParen)?;
            }
            let alias = self.maybe_alias();
            return Ok(TableRef::Function { name, args, alias });
        }
        let alias = self.maybe_alias();
        Ok(TableRef::Named { name, alias })
    }

    fn maybe_alias(&mut self) -> Option<String> {
        if self.eat_kw("as") {
            return self.ident().ok();
        }
        if let Token::Ident(s) = self.peek() {
            if !RESERVED.contains(&s.as_str()) {
                return self.ident().ok();
            }
        }
        None
    }

    // --- expressions, precedence climbing ---

    fn expr(&mut self) -> Result<Expr> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<Expr> {
        let mut e = self.and_expr()?;
        while self.eat_kw("or") {
            let r = self.and_expr()?;
            e = Expr::bin(BinOp::Or, e, r);
        }
        Ok(e)
    }

    fn and_expr(&mut self) -> Result<Expr> {
        let mut e = self.not_expr()?;
        while self.eat_kw("and") {
            let r = self.not_expr()?;
            e = Expr::bin(BinOp::And, e, r);
        }
        Ok(e)
    }

    fn not_expr(&mut self) -> Result<Expr> {
        if self.eat_kw("not") {
            let e = self.not_expr()?;
            return Ok(Expr::Unary {
                op: UnOp::Not,
                expr: Box::new(e),
            });
        }
        self.cmp_expr()
    }

    fn cmp_expr(&mut self) -> Result<Expr> {
        let e = self.add_expr()?;
        let op = match self.peek() {
            Token::Symbol(Sym::Eq) => Some(BinOp::Eq),
            Token::Symbol(Sym::Ne) => Some(BinOp::Ne),
            Token::Symbol(Sym::Lt) => Some(BinOp::Lt),
            Token::Symbol(Sym::Le) => Some(BinOp::Le),
            Token::Symbol(Sym::Gt) => Some(BinOp::Gt),
            Token::Symbol(Sym::Ge) => Some(BinOp::Ge),
            _ => None,
        };
        if let Some(op) = op {
            self.next();
            let r = self.add_expr()?;
            return Ok(Expr::bin(op, e, r));
        }
        Ok(e)
    }

    fn add_expr(&mut self) -> Result<Expr> {
        let mut e = self.mul_expr()?;
        loop {
            let op = match self.peek() {
                Token::Symbol(Sym::Plus) => BinOp::Add,
                Token::Symbol(Sym::Minus) => BinOp::Sub,
                _ => break,
            };
            self.next();
            let r = self.mul_expr()?;
            e = Expr::bin(op, e, r);
        }
        Ok(e)
    }

    fn mul_expr(&mut self) -> Result<Expr> {
        let mut e = self.unary_expr()?;
        loop {
            let op = match self.peek() {
                Token::Symbol(Sym::Star) => BinOp::Mul,
                Token::Symbol(Sym::Slash) => BinOp::Div,
                Token::Symbol(Sym::Percent) => BinOp::Mod,
                _ => break,
            };
            self.next();
            let r = self.unary_expr()?;
            e = Expr::bin(op, e, r);
        }
        Ok(e)
    }

    fn unary_expr(&mut self) -> Result<Expr> {
        if self.eat_sym(Sym::Minus) {
            let e = self.unary_expr()?;
            return Ok(Expr::Unary {
                op: UnOp::Neg,
                expr: Box::new(e),
            });
        }
        self.primary_expr()
    }

    fn primary_expr(&mut self) -> Result<Expr> {
        match self.next() {
            Token::Int(v) => Ok(Expr::Literal(Literal::Int(v))),
            Token::Float(v) => Ok(Expr::Literal(Literal::Float(v))),
            Token::Str(s) => Ok(Expr::Literal(Literal::Str(s))),
            Token::Symbol(Sym::Question) => {
                let i = self.next_param;
                self.next_param += 1;
                Ok(Expr::Param(i))
            }
            Token::Symbol(Sym::LParen) => {
                let e = self.expr()?;
                self.expect_sym(Sym::RParen)?;
                Ok(e)
            }
            Token::Ident(first) => match first.as_str() {
                "true" => Ok(Expr::Literal(Literal::Bool(true))),
                "false" => Ok(Expr::Literal(Literal::Bool(false))),
                "null" => Ok(Expr::Literal(Literal::Null)),
                _ => {
                    // Function call?
                    if matches!(self.peek(), Token::Symbol(Sym::LParen)) {
                        self.next();
                        if self.eat_sym(Sym::Star) {
                            self.expect_sym(Sym::RParen)?;
                            return Ok(Expr::Func {
                                name: first,
                                args: vec![],
                                star: true,
                            });
                        }
                        let mut args = Vec::new();
                        if !self.eat_sym(Sym::RParen) {
                            loop {
                                args.push(self.expr()?);
                                if !self.eat_sym(Sym::Comma) {
                                    break;
                                }
                            }
                            self.expect_sym(Sym::RParen)?;
                        }
                        return Ok(Expr::Func {
                            name: first,
                            args,
                            star: false,
                        });
                    }
                    // Qualified column: a.b.c → qualifier a.b, column c.
                    let mut parts = vec![first];
                    while self.eat_sym(Sym::Dot) {
                        parts.push(self.ident()?);
                    }
                    let name = parts.pop().expect("at least one part");
                    let qualifier = if parts.is_empty() {
                        None
                    } else {
                        Some(parts.join("."))
                    };
                    Ok(Expr::Column(qualifier, name))
                }
            },
            t => Err(HdmError::Parse(format!("unexpected token {t:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_table1_query() {
        let stmt = parse(
            "select * from OLAP.t1, OLAP.t2 \
             where OLAP.t1.a1=OLAP.t2.a2 and OLAP.t1.b1 > 10",
        )
        .unwrap();
        let Statement::Select(s) = stmt else {
            panic!("not a select")
        };
        assert_eq!(s.from.len(), 2);
        assert!(matches!(
            &s.from[0],
            TableRef::Named { name, .. } if name == "olap.t1"
        ));
        let conjuncts = s.where_clause.unwrap().conjuncts();
        assert_eq!(conjuncts.len(), 2);
        // Qualified column split: qualifier "olap.t1", column "a1".
        assert!(matches!(
            &conjuncts[0],
            Expr::Binary { left, .. }
                if matches!(&**left, Expr::Column(Some(q), n) if q == "olap.t1" && n == "a1")
        ));
    }

    #[test]
    fn parses_create_insert_update_delete() {
        assert!(matches!(
            parse("create table t (a int not null, b text, c float)").unwrap(),
            Statement::CreateTable { columns, .. } if columns.len() == 3 && columns[0].not_null
        ));
        assert!(matches!(
            parse("insert into t (a, b) values (1, 'x'), (2, 'y')").unwrap(),
            Statement::Insert { rows, .. } if rows.len() == 2
        ));
        assert!(matches!(
            parse("update t set a = a + 1 where b = 'x'").unwrap(),
            Statement::Update { sets, .. } if sets.len() == 1
        ));
        assert!(matches!(
            parse("delete from t where a < 0").unwrap(),
            Statement::Delete { .. }
        ));
    }

    #[test]
    fn parses_group_by_aggregates_order_limit() {
        let Statement::Select(s) = parse(
            "select region, count(*), sum(amount) from sales \
             where amount > 0 group by region order by region desc limit 10",
        )
        .unwrap() else {
            panic!()
        };
        assert_eq!(s.projections.len(), 3);
        assert_eq!(s.group_by.len(), 1);
        assert_eq!(s.order_by.len(), 1);
        assert!(s.order_by[0].1, "desc");
        assert_eq!(s.limit, Some(10));
    }

    #[test]
    fn parses_explicit_join() {
        let Statement::Select(s) =
            parse("select * from a join b on a.x = b.y join c on b.z = c.w").unwrap()
        else {
            panic!()
        };
        assert_eq!(s.from.len(), 1);
        assert!(matches!(&s.from[0], TableRef::Join { .. }));
    }

    #[test]
    fn parses_with_cte_and_table_function() {
        let Statement::Select(s) = parse(
            "with cars as (select carid from gtimeseries('high_speed', 30) g) \
             select c.carid from cars c where c.carid > 0",
        )
        .unwrap() else {
            panic!()
        };
        assert_eq!(s.with.len(), 1);
        let (name, sub) = &s.with[0];
        assert_eq!(name, "cars");
        assert!(matches!(
            &sub.from[0],
            TableRef::Function { name, args, .. } if name == "gtimeseries" && args.len() == 2
        ));
    }

    #[test]
    fn parses_union_chain_left_associative() {
        let Statement::Select(s) =
            parse("select a from t union all select a from u union select a from v").unwrap()
        else {
            panic!()
        };
        let (k1, all1, rhs1) = s.set_op.as_ref().unwrap();
        assert_eq!(*k1, SetOpKind::Union);
        assert!(*all1);
        let (k2, all2, _) = rhs1.set_op.as_ref().unwrap();
        assert_eq!(*k2, SetOpKind::Union);
        assert!(!*all2);
    }

    #[test]
    fn parses_subquery_in_from() {
        let Statement::Select(s) =
            parse("select * from (select a from t where a > 1) sub where sub.a < 5").unwrap()
        else {
            panic!()
        };
        assert!(matches!(&s.from[0], TableRef::Subquery { alias, .. } if alias == "sub"));
    }

    #[test]
    fn parses_explain_and_analyze() {
        assert!(matches!(
            parse("explain select * from t").unwrap(),
            Statement::Explain { analyze: false, .. }
        ));
        assert!(matches!(
            parse("explain analyze select * from t").unwrap(),
            Statement::Explain { analyze: true, stmt } if matches!(*stmt, Statement::Select(_))
        ));
        assert!(matches!(
            parse("analyze olap.t1").unwrap(),
            Statement::Analyze { table: Some(t) } if t == "olap.t1"
        ));
        assert!(matches!(
            parse("analyze").unwrap(),
            Statement::Analyze { table: None }
        ));
    }

    #[test]
    fn arithmetic_precedence() {
        let Statement::Select(s) = parse("select 1 + 2 * 3").unwrap() else {
            panic!()
        };
        let SelectItem::Expr { expr, .. } = &s.projections[0] else {
            panic!()
        };
        // 1 + (2 * 3)
        assert!(matches!(
            expr,
            Expr::Binary { op: BinOp::Add, right, .. }
                if matches!(&**right, Expr::Binary { op: BinOp::Mul, .. })
        ));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("selec * from t").is_err());
        assert!(parse("select * from").is_err());
        assert!(parse("select * from t where").is_err());
        assert!(parse("insert into t values").is_err());
    }
}
