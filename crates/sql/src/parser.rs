//! Recursive-descent parser for the SQL subset.

use hana_types::{Date, HanaError, Result, Value};

use crate::ast::*;
use crate::lexer::{tokenize_with_offsets, Symbol, Token};

/// Parse a single SQL statement (a trailing semicolon is allowed).
///
/// Every [`HanaError::Parse`] names the byte of `sql` it arose at and
/// quotes the token there: `expected keyword FROM at byte 9: 'FORM'`.
pub fn parse_statement(sql: &str) -> Result<Statement> {
    let mut p = Parser::new(sql)?;
    let stmt = p.statement()?;
    p.eat_symbol(Symbol::Semicolon);
    p.expect_end()?;
    Ok(stmt)
}

/// Parse a script of `;`-separated statements.
pub fn parse_script(sql: &str) -> Result<Vec<Statement>> {
    let mut p = Parser::new(sql)?;
    let mut out = Vec::new();
    loop {
        while p.eat_symbol(Symbol::Semicolon) {}
        if p.at_end() {
            break;
        }
        out.push(p.statement()?);
    }
    Ok(out)
}

struct Parser<'a> {
    src: &'a str,
    tokens: Vec<Token>,
    /// Byte offset in `src` of each token.
    offsets: Vec<u32>,
    pos: usize,
    /// Number of `?` placeholders seen so far; assigns each its
    /// 0-based positional index in text order.
    params: usize,
}

impl<'a> Parser<'a> {
    fn new(src: &'a str) -> Result<Parser<'a>> {
        let (tokens, offsets) = tokenize_with_offsets(src)?;
        Ok(Parser {
            src,
            tokens,
            offsets,
            pos: 0,
            params: 0,
        })
    }

    fn at_end(&self) -> bool {
        self.pos >= self.tokens.len()
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn peek_at(&self, offset: usize) -> Option<&Token> {
        self.tokens.get(self.pos + offset)
    }

    /// A parse error at the current token.
    fn err<T>(&self, msg: &str) -> Result<T> {
        self.err_at(self.pos, msg)
    }

    /// A parse error at token `pos`: the byte it starts at and its
    /// text, or the end of the input.
    fn err_at<T>(&self, pos: usize, msg: &str) -> Result<T> {
        let Some(&start) = self.offsets.get(pos) else {
            return Err(HanaError::Parse(format!(
                "{msg} at byte {}: end of input",
                self.src.len()
            )));
        };
        let end = self
            .offsets
            .get(pos + 1)
            .map_or(self.src.len(), |&o| o as usize);
        let token = self.src[start as usize..end].trim_end();
        Err(HanaError::Parse(format!(
            "{msg} at byte {start}: '{token}'"
        )))
    }

    fn expect_end(&self) -> Result<()> {
        if self.at_end() {
            Ok(())
        } else {
            self.err("trailing input after statement")
        }
    }

    fn peek_kw(&self, kw: &str) -> bool {
        self.peek().is_some_and(|t| t.is_kw(kw))
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.peek_kw(kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            self.err(&format!("expected keyword {kw}"))
        }
    }

    fn eat_symbol(&mut self, s: Symbol) -> bool {
        if self.peek() == Some(&Token::Symbol(s)) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_symbol(&mut self, s: Symbol) -> Result<()> {
        if self.eat_symbol(s) {
            Ok(())
        } else {
            self.err(&format!("expected {s:?}"))
        }
    }

    /// An identifier (bare or quoted), lower-cased.
    fn identifier(&mut self) -> Result<String> {
        match self.peek() {
            Some(Token::Ident(s) | Token::QuotedIdent(s)) => {
                let name = s.to_ascii_lowercase();
                self.pos += 1;
                Ok(name)
            }
            _ => self.err("expected identifier"),
        }
    }

    /// A dotted name like `db.schema.table`, lower-cased and re-joined.
    fn dotted_name(&mut self) -> Result<String> {
        let mut parts = vec![self.identifier()?];
        while self.eat_symbol(Symbol::Dot) {
            parts.push(self.identifier()?);
        }
        Ok(parts.join("."))
    }

    fn string_lit(&mut self) -> Result<String> {
        match self.peek() {
            Some(Token::StringLit(s)) => {
                let s = s.clone();
                self.pos += 1;
                Ok(s)
            }
            _ => self.err("expected string literal"),
        }
    }

    // ---- statements ----

    fn statement(&mut self) -> Result<Statement> {
        if self.peek_kw("create") {
            return self.create();
        }
        if self.eat_kw("drop") {
            if self.eat_kw("index") {
                let name = self.identifier()?;
                let table = if self.eat_kw("on") {
                    Some(self.dotted_name()?)
                } else {
                    None
                };
                return Ok(Statement::DropIndex { name, table });
            }
            if self.eat_kw("stream") {
                self.expect_kw("sink")?;
                let name = self.identifier()?;
                return Ok(Statement::DropStreamSink { name });
            }
            self.expect_kw("table")?;
            let name = self.dotted_name()?;
            return Ok(Statement::DropTable { name });
        }
        if self.eat_kw("insert") {
            return self.insert();
        }
        if self.eat_kw("update") {
            return self.update();
        }
        if self.eat_kw("delete") {
            self.expect_kw("from")?;
            let table = self.dotted_name()?;
            let filter = if self.eat_kw("where") {
                Some(self.expr()?)
            } else {
                None
            };
            return Ok(Statement::Delete { table, filter });
        }
        if self.peek_kw("select") {
            return Ok(Statement::Query(self.query()?));
        }
        if self.eat_kw("explain") {
            return Ok(Statement::Explain(self.query()?));
        }
        if self.eat_kw("begin") {
            return Ok(Statement::Begin);
        }
        if self.eat_kw("commit") {
            return Ok(Statement::Commit);
        }
        if self.eat_kw("rollback") {
            return Ok(Statement::Rollback);
        }
        if self.eat_kw("merge") {
            self.expect_kw("delta")?;
            self.expect_kw("of")?;
            let table = self.dotted_name()?;
            return Ok(Statement::MergeDelta { table });
        }
        self.err("unrecognized statement")
    }

    fn create(&mut self) -> Result<Statement> {
        self.expect_kw("create")?;
        if self.eat_kw("remote") {
            self.expect_kw("source")?;
            return self.create_remote_source();
        }
        if self.eat_kw("virtual") {
            if self.eat_kw("table") {
                return self.create_virtual_table();
            }
            self.expect_kw("function")?;
            return self.create_virtual_function();
        }
        if self.eat_kw("index") {
            return self.create_index();
        }
        if self.eat_kw("stream") {
            self.expect_kw("sink")?;
            let name = self.identifier()?;
            self.expect_kw("on")?;
            let source = self.dotted_name()?;
            self.expect_kw("into")?;
            let table = self.dotted_name()?;
            return Ok(Statement::CreateStreamSink {
                name,
                source,
                table,
            });
        }
        let kind = if self.eat_kw("column") {
            TableKind::Column
        } else if self.eat_kw("row") {
            TableKind::Row
        } else {
            TableKind::Column
        };
        self.expect_kw("table")?;
        self.create_table(kind)
    }

    fn create_index(&mut self) -> Result<Statement> {
        let name = self.identifier()?;
        self.expect_kw("on")?;
        let table = self.dotted_name()?;
        self.expect_symbol(Symbol::LParen)?;
        let mut columns = vec![self.identifier()?];
        while self.eat_symbol(Symbol::Comma) {
            columns.push(self.identifier()?);
        }
        self.expect_symbol(Symbol::RParen)?;
        Ok(Statement::CreateIndex {
            name,
            table,
            columns,
        })
    }

    fn create_table(&mut self, kind: TableKind) -> Result<Statement> {
        let name = self.dotted_name()?;
        self.expect_symbol(Symbol::LParen)?;
        let mut columns = Vec::new();
        loop {
            let col_name = self.identifier()?;
            let type_name = self.type_name()?;
            let mut not_null = false;
            let mut primary_key = false;
            loop {
                if self.eat_kw("not") {
                    self.expect_kw("null")?;
                    not_null = true;
                } else if self.eat_kw("primary") {
                    self.expect_kw("key")?;
                    primary_key = true;
                } else {
                    break;
                }
            }
            columns.push(ColumnSpec {
                name: col_name,
                type_name,
                not_null,
                primary_key,
            });
            if !self.eat_symbol(Symbol::Comma) {
                break;
            }
        }
        self.expect_symbol(Symbol::RParen)?;
        let extended = if self.eat_kw("using") {
            let hybrid = self.eat_kw("hybrid");
            self.expect_kw("extended")?;
            self.expect_kw("storage")?;
            let aging_column = if self.eat_kw("aging") {
                self.expect_kw("on")?;
                Some(self.identifier()?)
            } else {
                None
            };
            Some(ExtendedSpec {
                hybrid,
                aging_column,
            })
        } else {
            None
        };
        let clause_at = self.pos;
        let partition = self.partition_clause()?;
        if let Some(p) = &partition {
            if !columns.iter().any(|c| c.name == p.column()) {
                return self.err_at(
                    clause_at,
                    &format!("unknown partitioning column '{}'", p.column()),
                );
            }
        }
        Ok(Statement::CreateTable(CreateTable {
            name,
            kind,
            columns,
            extended,
            partition,
        }))
    }

    /// `PARTITION BY HASH(col) PARTITIONS n` or
    /// `PARTITION BY RANGE(col) SPLIT AT (v1, v2, …)`.
    fn partition_clause(&mut self) -> Result<Option<PartitionBy>> {
        if !self.eat_kw("partition") {
            return Ok(None);
        }
        self.expect_kw("by")?;
        if self.eat_kw("hash") {
            self.expect_symbol(Symbol::LParen)?;
            let column = self.identifier()?;
            self.expect_symbol(Symbol::RParen)?;
            self.expect_kw("partitions")?;
            let partitions = self.usize_lit()?;
            if partitions == 0 {
                return self.err_at(self.pos - 1, "PARTITIONS must be at least 1");
            }
            return Ok(Some(PartitionBy::Hash { column, partitions }));
        }
        if self.eat_kw("range") {
            self.expect_symbol(Symbol::LParen)?;
            let column = self.identifier()?;
            self.expect_symbol(Symbol::RParen)?;
            self.expect_kw("split")?;
            self.expect_kw("at")?;
            let list_at = self.pos;
            self.expect_symbol(Symbol::LParen)?;
            let mut split_points = Vec::new();
            loop {
                split_points.push(self.literal_value()?);
                if !self.eat_symbol(Symbol::Comma) {
                    break;
                }
            }
            self.expect_symbol(Symbol::RParen)?;
            if split_points.windows(2).any(|w| w[0] >= w[1]) {
                return self.err_at(list_at, "RANGE split points must be strictly ascending");
            }
            return Ok(Some(PartitionBy::Range {
                column,
                split_points,
            }));
        }
        self.err("expected HASH or RANGE after PARTITION BY")
    }

    /// A bare literal (numeric, string or DATE '…') for DDL positions
    /// such as RANGE split points.
    fn literal_value(&mut self) -> Result<Value> {
        let at = self.pos;
        match self.primary()? {
            Expr::Literal(v) => Ok(v),
            _ => self.err_at(at, "expected literal value"),
        }
    }

    /// A type name, absorbing a parenthesized length like `VARCHAR(30)`
    /// or `DECIMAL(15,2)`.
    fn type_name(&mut self) -> Result<String> {
        let mut name = self.identifier()?;
        if self.eat_symbol(Symbol::LParen) {
            name.push('(');
            loop {
                match self.peek() {
                    Some(Token::Number(n)) => name.push_str(n),
                    Some(Token::Symbol(Symbol::Comma)) => name.push(','),
                    Some(Token::Symbol(Symbol::RParen)) => {
                        name.push(')');
                        self.pos += 1;
                        break;
                    }
                    _ => return self.err("malformed type length"),
                }
                self.pos += 1;
            }
        }
        Ok(name)
    }

    fn create_remote_source(&mut self) -> Result<Statement> {
        let name = self.identifier()?;
        self.expect_kw("adapter")?;
        let adapter = match self.peek() {
            Some(Token::QuotedIdent(s)) | Some(Token::StringLit(s)) => s.clone(),
            Some(Token::Ident(s)) => s.to_ascii_lowercase(),
            _ => return self.err("expected adapter name"),
        };
        self.pos += 1;
        self.expect_kw("configuration")?;
        let configuration = self.string_lit()?;
        let (mut credential_type, mut credentials) = (None, None);
        if self.eat_kw("with") {
            self.expect_kw("credential")?;
            self.expect_kw("type")?;
            credential_type = Some(self.string_lit()?);
            self.expect_kw("using")?;
            credentials = Some(self.string_lit()?);
        }
        Ok(Statement::CreateRemoteSource {
            name,
            adapter,
            configuration,
            credential_type,
            credentials,
        })
    }

    fn create_virtual_table(&mut self) -> Result<Statement> {
        let name = self.dotted_name()?;
        self.expect_kw("at")?;
        let mut remote_path = vec![self.identifier()?];
        while self.eat_symbol(Symbol::Dot) {
            remote_path.push(self.identifier()?);
        }
        Ok(Statement::CreateVirtualTable { name, remote_path })
    }

    fn create_virtual_function(&mut self) -> Result<Statement> {
        let name = self.identifier()?;
        self.expect_symbol(Symbol::LParen)?;
        self.expect_symbol(Symbol::RParen)?;
        self.expect_kw("returns")?;
        self.expect_kw("table")?;
        self.expect_symbol(Symbol::LParen)?;
        let mut returns = Vec::new();
        loop {
            let col = self.identifier()?;
            let ty = self.type_name()?;
            returns.push((col, ty));
            if !self.eat_symbol(Symbol::Comma) {
                break;
            }
        }
        self.expect_symbol(Symbol::RParen)?;
        self.expect_kw("configuration")?;
        let configuration = self.string_lit()?;
        self.expect_kw("at")?;
        let source = self.identifier()?;
        Ok(Statement::CreateVirtualFunction {
            name,
            returns,
            configuration,
            source,
        })
    }

    fn insert(&mut self) -> Result<Statement> {
        self.expect_kw("into")?;
        let table = self.dotted_name()?;
        let columns = if self.peek() == Some(&Token::Symbol(Symbol::LParen)) {
            self.expect_symbol(Symbol::LParen)?;
            let mut cols = vec![self.identifier()?];
            while self.eat_symbol(Symbol::Comma) {
                cols.push(self.identifier()?);
            }
            self.expect_symbol(Symbol::RParen)?;
            Some(cols)
        } else {
            None
        };
        self.expect_kw("values")?;
        let mut rows = Vec::new();
        loop {
            self.expect_symbol(Symbol::LParen)?;
            let mut vals = vec![self.expr()?];
            while self.eat_symbol(Symbol::Comma) {
                vals.push(self.expr()?);
            }
            self.expect_symbol(Symbol::RParen)?;
            rows.push(vals);
            if !self.eat_symbol(Symbol::Comma) {
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
        let table = self.dotted_name()?;
        self.expect_kw("set")?;
        let mut assignments = Vec::new();
        loop {
            let col = self.identifier()?;
            self.expect_symbol(Symbol::Eq)?;
            assignments.push((col, self.expr()?));
            if !self.eat_symbol(Symbol::Comma) {
                break;
            }
        }
        let filter = if self.eat_kw("where") {
            Some(self.expr()?)
        } else {
            None
        };
        Ok(Statement::Update {
            table,
            assignments,
            filter,
        })
    }

    // ---- queries ----

    fn query(&mut self) -> Result<Query> {
        self.expect_kw("select")?;
        let mut q = Query {
            distinct: self.eat_kw("distinct"),
            ..Query::default()
        };
        if self.eat_kw("top") {
            q.limit = Some(self.usize_lit()?);
        }
        // Select list.
        if self.eat_symbol(Symbol::Star) {
            q.select = Vec::new(); // empty = *
        } else {
            loop {
                let expr = self.expr()?;
                let alias = if self.eat_kw("as")
                    || matches!(self.peek(), Some(Token::Ident(s)) if !is_reserved(s))
                {
                    Some(self.identifier()?)
                } else {
                    None
                };
                q.select.push(SelectItem { expr, alias });
                if !self.eat_symbol(Symbol::Comma) {
                    break;
                }
            }
        }
        if self.eat_kw("from") {
            q.from = Some(self.table_ref()?);
            loop {
                if self.eat_symbol(Symbol::Comma) {
                    // Comma join: cross join, conditions live in WHERE.
                    let table = self.table_ref()?;
                    q.joins.push(JoinClause {
                        kind: JoinKind::Inner,
                        table,
                        on: Expr::lit(true),
                    });
                    continue;
                }
                let kind = if self.eat_kw("inner") {
                    self.expect_kw("join")?;
                    JoinKind::Inner
                } else if self.eat_kw("left") {
                    self.eat_kw("outer");
                    self.expect_kw("join")?;
                    JoinKind::LeftOuter
                } else if self.eat_kw("join") {
                    JoinKind::Inner
                } else {
                    break;
                };
                let table = self.table_ref()?;
                self.expect_kw("on")?;
                let on = self.expr()?;
                q.joins.push(JoinClause { kind, table, on });
            }
        }
        if self.eat_kw("where") {
            q.filter = Some(self.expr()?);
        }
        if self.eat_kw("group") {
            self.expect_kw("by")?;
            q.group_by.push(self.expr()?);
            while self.eat_symbol(Symbol::Comma) {
                q.group_by.push(self.expr()?);
            }
        }
        if self.eat_kw("having") {
            q.having = Some(self.expr()?);
        }
        if self.eat_kw("order") {
            self.expect_kw("by")?;
            loop {
                let e = self.expr()?;
                let asc = if self.eat_kw("desc") {
                    false
                } else {
                    self.eat_kw("asc");
                    true
                };
                q.order_by.push((e, asc));
                if !self.eat_symbol(Symbol::Comma) {
                    break;
                }
            }
        }
        if self.eat_kw("limit") {
            q.limit = Some(self.usize_lit()?);
        }
        if self.eat_kw("with") {
            self.expect_kw("hint")?;
            self.expect_symbol(Symbol::LParen)?;
            loop {
                q.hints.push(self.identifier()?.to_ascii_uppercase());
                if !self.eat_symbol(Symbol::Comma) {
                    break;
                }
            }
            self.expect_symbol(Symbol::RParen)?;
        }
        Ok(q)
    }

    fn usize_lit(&mut self) -> Result<usize> {
        match self.peek() {
            Some(Token::Number(n)) => match n.parse() {
                Ok(count) => {
                    self.pos += 1;
                    Ok(count)
                }
                Err(_) => self.err("bad row count"),
            },
            _ => self.err("expected row count"),
        }
    }

    fn table_ref(&mut self) -> Result<TableRef> {
        if self.eat_symbol(Symbol::LParen) {
            let query = self.query()?;
            self.expect_symbol(Symbol::RParen)?;
            self.eat_kw("as");
            let alias = self.identifier()?;
            return Ok(TableRef::Subquery {
                query: Box::new(query),
                alias,
            });
        }
        let name = self.dotted_name()?;
        // Table function?
        if self.eat_symbol(Symbol::LParen) {
            let mut args = Vec::new();
            if self.peek() != Some(&Token::Symbol(Symbol::RParen)) {
                args.push(self.expr()?);
                while self.eat_symbol(Symbol::Comma) {
                    args.push(self.expr()?);
                }
            }
            self.expect_symbol(Symbol::RParen)?;
            let alias = self.optional_alias()?;
            return Ok(TableRef::Function { name, args, alias });
        }
        let alias = self.optional_alias()?;
        Ok(TableRef::Named { name, alias })
    }

    fn optional_alias(&mut self) -> Result<Option<String>> {
        if self.eat_kw("as") {
            return Ok(Some(self.identifier()?));
        }
        match self.peek() {
            Some(Token::Ident(s)) if !is_reserved(s) => Ok(Some(self.identifier()?)),
            Some(Token::QuotedIdent(_)) => Ok(Some(self.identifier()?)),
            _ => Ok(None),
        }
    }

    // ---- expressions (precedence climbing) ----

    fn expr(&mut self) -> Result<Expr> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<Expr> {
        let mut left = self.and_expr()?;
        while self.eat_kw("or") {
            let right = self.and_expr()?;
            left = Expr::Binary {
                left: Box::new(left),
                op: BinOp::Or,
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn and_expr(&mut self) -> Result<Expr> {
        let mut left = self.not_expr()?;
        while self.eat_kw("and") {
            let right = self.not_expr()?;
            left = Expr::Binary {
                left: Box::new(left),
                op: BinOp::And,
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn not_expr(&mut self) -> Result<Expr> {
        if self.eat_kw("not") {
            let inner = self.not_expr()?;
            return Ok(Expr::Unary {
                op: UnaryOp::Not,
                expr: Box::new(inner),
            });
        }
        self.comparison()
    }

    fn comparison(&mut self) -> Result<Expr> {
        let left = self.additive()?;
        // IS [NOT] NULL
        if self.eat_kw("is") {
            let negated = self.eat_kw("not");
            self.expect_kw("null")?;
            return Ok(Expr::IsNull {
                expr: Box::new(left),
                negated,
            });
        }
        // [NOT] IN / BETWEEN / LIKE
        let negated = self.eat_kw("not");
        if self.eat_kw("in") {
            self.expect_symbol(Symbol::LParen)?;
            let mut list = vec![self.expr()?];
            while self.eat_symbol(Symbol::Comma) {
                list.push(self.expr()?);
            }
            self.expect_symbol(Symbol::RParen)?;
            return Ok(Expr::InList {
                expr: Box::new(left),
                list,
                negated,
            });
        }
        if self.eat_kw("between") {
            let lo = self.additive()?;
            self.expect_kw("and")?;
            let hi = self.additive()?;
            return Ok(Expr::Between {
                expr: Box::new(left),
                lo: Box::new(lo),
                hi: Box::new(hi),
                negated,
            });
        }
        if self.eat_kw("like") {
            let pattern = self.string_lit()?;
            return Ok(Expr::Like {
                expr: Box::new(left),
                pattern,
                negated,
            });
        }
        if negated {
            return self.err("expected IN, BETWEEN or LIKE after NOT");
        }
        let op = match self.peek() {
            Some(Token::Symbol(Symbol::Eq)) => Some(BinOp::Eq),
            Some(Token::Symbol(Symbol::Ne)) => Some(BinOp::Ne),
            Some(Token::Symbol(Symbol::Lt)) => Some(BinOp::Lt),
            Some(Token::Symbol(Symbol::Le)) => Some(BinOp::Le),
            Some(Token::Symbol(Symbol::Gt)) => Some(BinOp::Gt),
            Some(Token::Symbol(Symbol::Ge)) => Some(BinOp::Ge),
            _ => None,
        };
        if let Some(op) = op {
            self.pos += 1;
            let right = self.additive()?;
            return Ok(Expr::Binary {
                left: Box::new(left),
                op,
                right: Box::new(right),
            });
        }
        Ok(left)
    }

    fn additive(&mut self) -> Result<Expr> {
        let mut left = self.multiplicative()?;
        loop {
            let op = if self.eat_symbol(Symbol::Plus) {
                BinOp::Add
            } else if self.eat_symbol(Symbol::Minus) {
                BinOp::Sub
            } else {
                break;
            };
            let right = self.multiplicative()?;
            left = Expr::Binary {
                left: Box::new(left),
                op,
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn multiplicative(&mut self) -> Result<Expr> {
        let mut left = self.unary()?;
        loop {
            let op = if self.eat_symbol(Symbol::Star) {
                BinOp::Mul
            } else if self.eat_symbol(Symbol::Slash) {
                BinOp::Div
            } else {
                break;
            };
            let right = self.unary()?;
            left = Expr::Binary {
                left: Box::new(left),
                op,
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn unary(&mut self) -> Result<Expr> {
        if self.eat_symbol(Symbol::Minus) {
            // A negated numeric literal is a literal: `-5` compares,
            // pushes down, lifts and renders as the one value it is.
            return Ok(match self.unary()? {
                Expr::Literal(Value::Int(i)) => Expr::Literal(Value::Int(i.wrapping_neg())),
                Expr::Literal(Value::Double(d)) => Expr::Literal(Value::Double(-d)),
                inner => Expr::Unary {
                    op: UnaryOp::Neg,
                    expr: Box::new(inner),
                },
            });
        }
        self.primary()
    }

    fn primary(&mut self) -> Result<Expr> {
        // Parenthesized expression.
        if self.eat_symbol(Symbol::LParen) {
            let e = self.expr()?;
            self.expect_symbol(Symbol::RParen)?;
            return Ok(e);
        }
        match self.peek().cloned() {
            Some(Token::Number(n)) => {
                let v = if n.contains('.') {
                    n.parse().map(Value::Double).ok()
                } else {
                    n.parse().map(Value::Int).ok()
                };
                let Some(v) = v else {
                    return self.err("bad numeric literal");
                };
                self.pos += 1;
                Ok(Expr::Literal(v))
            }
            Some(Token::StringLit(s)) => {
                self.pos += 1;
                Ok(Expr::Literal(Value::Varchar(s)))
            }
            Some(Token::Symbol(Symbol::Star)) => {
                self.pos += 1;
                Ok(Expr::Wildcard)
            }
            Some(Token::Symbol(Symbol::Question)) => {
                self.pos += 1;
                let idx = self.params;
                self.params += 1;
                Ok(Expr::Parameter(idx))
            }
            Some(Token::Ident(word)) if word.eq_ignore_ascii_case("date") => {
                // DATE 'YYYY-MM-DD'
                if let Some(Token::StringLit(s)) = self.peek_at(1) {
                    let Ok(date) = Date::parse(s) else {
                        return self
                            .err_at(self.pos + 1, "invalid date literal, expected YYYY-MM-DD");
                    };
                    self.pos += 2;
                    return Ok(Expr::Literal(Value::Date(date)));
                }
                self.ident_expr()
            }
            Some(Token::Ident(word)) if word.eq_ignore_ascii_case("null") => {
                self.pos += 1;
                Ok(Expr::Literal(Value::Null))
            }
            Some(Token::Ident(word)) if word.eq_ignore_ascii_case("true") => {
                self.pos += 1;
                Ok(Expr::Literal(Value::Bool(true)))
            }
            Some(Token::Ident(word)) if word.eq_ignore_ascii_case("false") => {
                self.pos += 1;
                Ok(Expr::Literal(Value::Bool(false)))
            }
            Some(Token::Ident(word)) if word.eq_ignore_ascii_case("case") => self.case_expr(),
            Some(Token::Ident(word)) if is_reserved(&word) => {
                self.err("reserved word in expression position")
            }
            Some(Token::Ident(_)) | Some(Token::QuotedIdent(_)) => self.ident_expr(),
            _ => self.err("expected expression"),
        }
    }

    fn case_expr(&mut self) -> Result<Expr> {
        self.expect_kw("case")?;
        let mut whens = Vec::new();
        while self.eat_kw("when") {
            let cond = self.expr()?;
            self.expect_kw("then")?;
            let val = self.expr()?;
            whens.push((cond, val));
        }
        if whens.is_empty() {
            return self.err("CASE requires at least one WHEN arm");
        }
        let else_expr = if self.eat_kw("else") {
            Some(Box::new(self.expr()?))
        } else {
            None
        };
        self.expect_kw("end")?;
        Ok(Expr::Case { whens, else_expr })
    }

    /// Column reference (possibly qualified) or function call.
    fn ident_expr(&mut self) -> Result<Expr> {
        let first = self.identifier()?;
        // Function call?
        if self.peek() == Some(&Token::Symbol(Symbol::LParen)) {
            self.pos += 1;
            let mut args = Vec::new();
            if self.eat_symbol(Symbol::Star) {
                args.push(Expr::Wildcard);
            } else if self.peek() != Some(&Token::Symbol(Symbol::RParen)) {
                self.eat_kw("distinct"); // tolerated, treated as plain
                args.push(self.expr()?);
                while self.eat_symbol(Symbol::Comma) {
                    args.push(self.expr()?);
                }
            }
            self.expect_symbol(Symbol::RParen)?;
            return Ok(Expr::Func {
                name: first.to_ascii_uppercase(),
                args,
            });
        }
        // Qualified column?
        if self.eat_symbol(Symbol::Dot) {
            let name = self.identifier()?;
            return Ok(Expr::Column {
                qualifier: Some(first),
                name,
            });
        }
        Ok(Expr::Column {
            qualifier: None,
            name: first,
        })
    }
}

/// Words that terminate an implicit alias position.
fn is_reserved(word: &str) -> bool {
    const RESERVED: &[&str] = &[
        "select", "from", "where", "group", "having", "order", "limit", "with", "join", "inner",
        "left", "right", "outer", "on", "as", "and", "or", "not", "in", "between", "like", "is",
        "null", "asc", "desc", "union", "case", "when", "then", "else", "end", "values", "set",
        "top", "distinct", "using",
    ];
    RESERVED.iter().any(|r| word.eq_ignore_ascii_case(r))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_create_extended_table() {
        let s = parse_statement(
            "CREATE TABLE sales (id INTEGER NOT NULL PRIMARY KEY, amount DECIMAL(15,2)) \
             USING HYBRID EXTENDED STORAGE AGING ON is_cold",
        )
        .unwrap();
        let Statement::CreateTable(ct) = s else {
            panic!("wrong statement kind");
        };
        assert_eq!(ct.name, "sales");
        assert_eq!(ct.kind, TableKind::Column);
        assert_eq!(ct.columns.len(), 2);
        assert!(ct.columns[0].not_null && ct.columns[0].primary_key);
        assert_eq!(ct.columns[1].type_name, "decimal(15,2)");
        let ext = ct.extended.unwrap();
        assert!(ext.hybrid);
        assert_eq!(ext.aging_column.as_deref(), Some("is_cold"));
    }

    #[test]
    fn parse_create_and_drop_stream_sink() {
        let s =
            parse_statement("CREATE STREAM SINK feed ON cell_health INTO Health_Table").unwrap();
        assert_eq!(
            s,
            Statement::CreateStreamSink {
                name: "feed".into(),
                source: "cell_health".into(),
                table: "health_table".into(),
            }
        );
        let s = parse_statement("DROP STREAM SINK Feed").unwrap();
        assert_eq!(
            s,
            Statement::DropStreamSink {
                name: "feed".into()
            }
        );
        assert!(parse_statement("CREATE STREAM SINK f ON w").is_err());
        assert!(parse_statement("DROP STREAM f").is_err());
    }

    #[test]
    fn parse_create_row_table_plain() {
        let s = parse_statement("CREATE ROW TABLE t (a INT)").unwrap();
        let Statement::CreateTable(ct) = s else {
            panic!()
        };
        assert_eq!(ct.kind, TableKind::Row);
        assert!(ct.extended.is_none());
    }

    #[test]
    fn parse_create_and_drop_index() {
        let s = parse_statement("CREATE INDEX ix_k ON Sales (Region, K)").unwrap();
        assert_eq!(
            s,
            Statement::CreateIndex {
                name: "ix_k".into(),
                table: "sales".into(),
                columns: vec!["region".into(), "k".into()],
            }
        );
        let s = parse_statement("DROP INDEX ix_k ON sales").unwrap();
        assert_eq!(
            s,
            Statement::DropIndex {
                name: "ix_k".into(),
                table: Some("sales".into()),
            }
        );
        let s = parse_statement("DROP INDEX ix_k").unwrap();
        assert_eq!(
            s,
            Statement::DropIndex {
                name: "ix_k".into(),
                table: None,
            }
        );
        // Empty column lists and missing ON clauses are syntax errors.
        assert!(parse_statement("CREATE INDEX ix ON t ()").is_err());
        assert!(parse_statement("CREATE INDEX ix (a)").is_err());
    }

    #[test]
    fn parse_partition_by_hash() {
        let s = parse_statement(
            "CREATE COLUMN TABLE orders (o_id INTEGER, o_ckey INTEGER) \
             PARTITION BY HASH(o_ckey) PARTITIONS 4",
        )
        .unwrap();
        let Statement::CreateTable(ct) = s else {
            panic!("wrong statement kind");
        };
        assert_eq!(
            ct.partition,
            Some(PartitionBy::Hash {
                column: "o_ckey".into(),
                partitions: 4,
            })
        );
    }

    #[test]
    fn parse_partition_by_range() {
        let s = parse_statement(
            "CREATE TABLE events (ts INTEGER, payload VARCHAR(64)) \
             PARTITION BY RANGE(ts) SPLIT AT (100, 200, 300)",
        )
        .unwrap();
        let Statement::CreateTable(ct) = s else {
            panic!("wrong statement kind");
        };
        let part = ct.partition.unwrap();
        assert_eq!(part.column(), "ts");
        assert_eq!(part.partitions(), 4);
        assert_eq!(
            part,
            PartitionBy::Range {
                column: "ts".into(),
                split_points: vec![Value::Int(100), Value::Int(200), Value::Int(300)],
            }
        );
    }

    #[test]
    fn partition_clause_errors() {
        // Zero partitions.
        assert!(
            parse_statement("CREATE TABLE t (a INT) PARTITION BY HASH(a) PARTITIONS 0").is_err()
        );
        // Partitioning column not among the declared columns.
        assert!(
            parse_statement("CREATE TABLE t (a INT) PARTITION BY HASH(missing) PARTITIONS 2")
                .is_err()
        );
        assert!(
            parse_statement("CREATE TABLE t (a INT) PARTITION BY RANGE(nope) SPLIT AT (10)")
                .is_err()
        );
        // Unknown scheme.
        assert!(
            parse_statement("CREATE TABLE t (a INT) PARTITION BY ROUND_ROBIN(a) PARTITIONS 2")
                .is_err()
        );
        // Split points must ascend strictly.
        assert!(parse_statement(
            "CREATE TABLE t (a INT) PARTITION BY RANGE(a) SPLIT AT (10, 10, 20)"
        )
        .is_err());
    }

    #[test]
    fn parse_remote_source_like_paper() {
        // Verbatim (modulo whitespace) from §4.2 of the paper.
        let s = parse_statement(
            "CREATE REMOTE SOURCE HIVE1 ADAPTER \"hiveodbc\" CONFIGURATION 'DSN=hive1' \
             WITH CREDENTIAL TYPE 'PASSWORD' USING 'user=dfuser;password=dfpass'",
        )
        .unwrap();
        assert_eq!(
            s,
            Statement::CreateRemoteSource {
                name: "hive1".into(),
                adapter: "hiveodbc".into(),
                configuration: "DSN=hive1".into(),
                credential_type: Some("PASSWORD".into()),
                credentials: Some("user=dfuser;password=dfpass".into()),
            }
        );
    }

    #[test]
    fn parse_virtual_table_and_query() {
        let stmts = parse_script(
            "CREATE VIRTUAL TABLE \"VIRTUAL_PRODUCT\" AT \"HIVE1\".\"dflo\".\"dflo\".\"product\";\n\
             SELECT product_name, brand_name FROM \"VIRTUAL_PRODUCT\";",
        )
        .unwrap();
        assert_eq!(stmts.len(), 2);
        assert_eq!(
            stmts[0],
            Statement::CreateVirtualTable {
                name: "virtual_product".into(),
                remote_path: vec![
                    "hive1".into(),
                    "dflo".into(),
                    "dflo".into(),
                    "product".into()
                ],
            }
        );
    }

    #[test]
    fn parse_virtual_function_like_paper() {
        let s = parse_statement(
            "CREATE VIRTUAL FUNCTION PLANT100_SENSOR_RECORDS() \
             RETURNS TABLE (EQUIP_ID VARCHAR(30), PRESSURE DOUBLE) \
             CONFIGURATION 'hana.mapred.driver.class=com.customer.hadoop.SensorMRDriver' \
             AT MRSERVER",
        )
        .unwrap();
        let Statement::CreateVirtualFunction {
            name,
            returns,
            source,
            ..
        } = s
        else {
            panic!()
        };
        assert_eq!(name, "plant100_sensor_records");
        assert_eq!(returns.len(), 2);
        assert_eq!(
            returns[0],
            ("equip_id".to_string(), "varchar(30)".to_string())
        );
        assert_eq!(source, "mrserver");
    }

    #[test]
    fn parse_paper_join_query_with_hint() {
        let s = parse_statement(
            "SELECT c_custkey, c_name, o_orderkey, o_orderstatus \
             FROM customer JOIN orders ON c_custkey = o_custkey \
             WHERE c_mktsegment = 'HOUSEHOLD' WITH HINT (USE_REMOTE_CACHE)",
        )
        .unwrap();
        let Statement::Query(q) = s else { panic!() };
        assert_eq!(q.select.len(), 4);
        assert_eq!(q.joins.len(), 1);
        assert_eq!(q.hints, vec!["USE_REMOTE_CACHE".to_string()]);
        assert!(q.filter.is_some());
    }

    #[test]
    fn parse_table_function_in_from() {
        let s = parse_statement(
            "SELECT A.EQUIP_ID, B.PRESSURE FROM EQUIPMENTS A \
             JOIN PLANT100_SENSOR_RECORDS() B ON A.EQUIP_ID = B.EQUIP_ID \
             WHERE B.PRESSURE > 90",
        )
        .unwrap();
        let Statement::Query(q) = s else { panic!() };
        assert!(matches!(
            &q.joins[0].table,
            TableRef::Function { name, alias, .. }
                if name == "plant100_sensor_records" && alias.as_deref() == Some("b")
        ));
    }

    #[test]
    fn parse_aggregates_group_order() {
        let s = parse_statement(
            "SELECT l_returnflag, l_linestatus, SUM(l_quantity) AS sum_qty, \
             AVG(l_extendedprice), COUNT(*) \
             FROM lineitem WHERE l_shipdate <= DATE '1998-09-02' \
             GROUP BY l_returnflag, l_linestatus \
             HAVING COUNT(*) > 10 \
             ORDER BY l_returnflag, l_linestatus DESC LIMIT 5",
        )
        .unwrap();
        let Statement::Query(q) = s else { panic!() };
        assert_eq!(q.group_by.len(), 2);
        assert!(q.having.is_some());
        assert_eq!(q.order_by.len(), 2);
        assert!(!q.order_by[1].1, "second key is DESC");
        assert_eq!(q.limit, Some(5));
        assert_eq!(q.select[2].alias.as_deref(), Some("sum_qty"));
        assert!(q.select[2].expr.contains_aggregate());
    }

    #[test]
    fn parse_case_and_arithmetic_precedence() {
        let s = parse_statement(
            "SELECT SUM(CASE WHEN p_type LIKE 'PROMO%' THEN l_extendedprice * (1 - l_discount) \
             ELSE 0 END) FROM lineitem",
        )
        .unwrap();
        let Statement::Query(q) = s else { panic!() };
        assert_eq!(q.select.len(), 1);
        // 1 + 2 * 3 parses as 1 + (2 * 3)
        let s2 = parse_statement("SELECT 1 + 2 * 3").unwrap();
        let Statement::Query(q2) = s2 else { panic!() };
        let Expr::Binary { op, right, .. } = &q2.select[0].expr else {
            panic!()
        };
        assert_eq!(*op, BinOp::Add);
        assert!(matches!(**right, Expr::Binary { op: BinOp::Mul, .. }));
    }

    #[test]
    fn parse_in_between_not() {
        let s = parse_statement(
            "SELECT * FROM t WHERE a IN (1, 2, 3) AND b NOT BETWEEN 1 AND 5 \
             AND c IS NOT NULL AND NOT d LIKE 'x%'",
        )
        .unwrap();
        let Statement::Query(q) = s else { panic!() };
        let conj = q.filter.as_ref().unwrap().conjuncts().len();
        assert_eq!(conj, 4);
    }

    #[test]
    fn parse_dml() {
        let s = parse_statement("INSERT INTO t (a, b) VALUES (1, 'x'), (2, NULL)").unwrap();
        let Statement::Insert { rows, columns, .. } = s else {
            panic!()
        };
        assert_eq!(rows.len(), 2);
        assert_eq!(columns.unwrap(), vec!["a".to_string(), "b".to_string()]);

        let s = parse_statement("UPDATE t SET a = a + 1 WHERE b = 2").unwrap();
        assert!(matches!(s, Statement::Update { .. }));

        let s = parse_statement("DELETE FROM t WHERE a < 0").unwrap();
        assert!(matches!(s, Statement::Delete { .. }));
    }

    #[test]
    fn parse_subquery_in_from() {
        let s = parse_statement(
            "SELECT x.total FROM (SELECT SUM(a) AS total FROM t GROUP BY b) x WHERE x.total > 5",
        )
        .unwrap();
        let Statement::Query(q) = s else { panic!() };
        assert!(matches!(
            q.from,
            Some(TableRef::Subquery { ref alias, .. }) if alias == "x"
        ));
    }

    #[test]
    fn parse_txn_and_admin() {
        assert_eq!(parse_statement("BEGIN").unwrap(), Statement::Begin);
        assert_eq!(parse_statement("COMMIT;").unwrap(), Statement::Commit);
        assert_eq!(parse_statement("ROLLBACK").unwrap(), Statement::Rollback);
        assert_eq!(
            parse_statement("MERGE DELTA OF sales").unwrap(),
            Statement::MergeDelta {
                table: "sales".into()
            }
        );
        assert!(matches!(
            parse_statement("EXPLAIN SELECT * FROM t").unwrap(),
            Statement::Explain(_)
        ));
    }

    #[test]
    fn parse_errors_are_reported() {
        assert!(parse_statement("SELEC 1").is_err());
        assert!(parse_statement("SELECT FROM t").is_err());
        assert!(parse_statement("SELECT 1 garbage garbage garbage FROM").is_err());
        assert!(parse_statement("CREATE TABLE t ()").is_err());
        assert!(parse_statement("SELECT CASE END FROM t").is_err());
        assert!(parse_statement("SELECT * FROM t WHERE a NOT 5").is_err());
    }

    #[test]
    fn comma_joins_become_cross_joins() {
        let s = parse_statement("SELECT * FROM a, b, c WHERE a.x = b.x AND b.y = c.y").unwrap();
        let Statement::Query(q) = s else { panic!() };
        assert_eq!(q.joins.len(), 2);
        assert_eq!(q.joins[0].on, Expr::lit(true));
    }

    /// The message of the parse error `sql` raises.
    fn parse_error(sql: &str) -> String {
        match parse_statement(sql) {
            Err(HanaError::Parse(m)) => m,
            other => panic!("{sql}: expected a parse error, got {other:?}"),
        }
    }

    /// Every parse error says `at byte N` and quotes the input there:
    /// one case per family of `self.err` call sites.
    #[test]
    fn parse_errors_point_at_a_byte() {
        for (sql, at, token, msg) in [
            // expect_kw / expect_symbol / expect_end
            ("DELETE FORM t", 7, "FORM", "expected keyword from"),
            ("SELECT v FROM t WHERE k IN 5", 27, "5", "expected LParen"),
            ("MERGE DELTA t", 12, "t", "expected keyword of"),
            ("SELECT 1 FROM t; garbage", 17, "garbage", "trailing input"),
            // identifier / string_lit / usize_lit
            ("DROP TABLE 5", 11, "5", "expected identifier"),
            (
                "CREATE REMOTE SOURCE s ADAPTER \"a\" CONFIGURATION 5",
                49,
                "5",
                "expected string literal",
            ),
            ("SELECT v FROM t LIMIT x", 22, "x", "expected row count"),
            (
                "SELECT v FROM t LIMIT 99999999999999999999",
                22,
                "99999999999999999999",
                "bad row count",
            ),
            // statement / create / partition clause
            ("SELEC 1", 0, "SELEC", "unrecognized statement"),
            (
                "CREATE REMOTE SOURCE s ADAPTER 5",
                31,
                "5",
                "expected adapter name",
            ),
            (
                "CREATE TABLE t (a DECIMAL(x))",
                26,
                "x",
                "malformed type length",
            ),
            (
                "CREATE TABLE t (a INT) PARTITION BY HASH(a) PARTITIONS 0",
                55,
                "0",
                "PARTITIONS must be at least 1",
            ),
            (
                "CREATE TABLE t (a INT) PARTITION BY ROUND_ROBIN(a)",
                36,
                "ROUND_ROBIN",
                "expected HASH or RANGE",
            ),
            (
                "CREATE TABLE t (a INT) PARTITION BY RANGE(a) SPLIT AT (10, 10)",
                54,
                "(",
                "strictly ascending",
            ),
            (
                "CREATE TABLE t (a INT) PARTITION BY RANGE(a) SPLIT AT (a)",
                55,
                "a",
                "expected literal value",
            ),
            (
                "CREATE TABLE t (a INT) PARTITION BY HASH(b) PARTITIONS 2",
                23,
                "PARTITION",
                "unknown partitioning column 'b'",
            ),
            // expressions
            (
                "SELECT * FROM t WHERE a NOT 5",
                28,
                "5",
                "expected IN, BETWEEN or LIKE",
            ),
            (
                "SELECT v FROM t WHERE k = FROM",
                26,
                "FROM",
                "reserved word",
            ),
            (
                "SELECT v FROM t WHERE k = )",
                26,
                ")",
                "expected expression",
            ),
            ("SELECT CASE END FROM t", 12, "END", "at least one WHEN"),
            (
                "SELECT v FROM t WHERE d < DATE '1995-13-45'",
                31,
                "'1995-13-45'",
                "invalid date literal",
            ),
            // the two numeric-literal sites
            (
                "SELECT v FROM t WHERE k = 99999999999999999999",
                26,
                "99999999999999999999",
                "bad numeric literal",
            ),
            (
                "SELECT v FROM t WHERE k = 1.5.5",
                26,
                "1.5.5",
                "bad numeric literal",
            ),
        ] {
            let m = parse_error(sql);
            assert!(m.contains(msg), "{sql}: {m}");
            assert!(
                m.ends_with(&format!("at byte {at}: '{token}'")),
                "{sql}: {m}"
            );
        }
        // Past the last token there is nothing to quote.
        let m = parse_error("SELECT v FROM");
        assert!(
            m.ends_with("expected identifier at byte 13: end of input"),
            "{m}"
        );
    }

    /// A `?` where no value can go — a LIKE pattern, a row budget — is a
    /// positioned parse error when the statement is prepared, not an
    /// unbound parameter when it runs.
    #[test]
    fn placeholders_where_no_value_can_go_are_parse_errors() {
        let m = parse_error("SELECT v FROM t WHERE s LIKE ?");
        assert!(
            m.ends_with("expected string literal at byte 29: '?'"),
            "{m}"
        );
        let m = parse_error("SELECT v FROM t LIMIT ?");
        assert!(m.ends_with("expected row count at byte 22: '?'"), "{m}");
        let m = parse_error("SELECT TOP ? v FROM t");
        assert!(m.ends_with("expected row count at byte 11: '?'"), "{m}");
    }

    #[test]
    fn a_negated_numeric_literal_is_a_literal() {
        let Statement::Query(q) =
            parse_statement("SELECT * FROM t WHERE a > -5 AND b < - 2.5 AND c = -d").unwrap()
        else {
            panic!()
        };
        let parts = q.filter.as_ref().unwrap().conjuncts();
        assert!(matches!(parts[0], Expr::Binary { right, .. } if **right == Expr::lit(-5)));
        assert!(matches!(parts[1], Expr::Binary { right, .. } if **right == Expr::lit(-2.5)));
        assert!(matches!(
            parts[2],
            Expr::Binary { right, .. } if matches!(**right, Expr::Unary { op: UnaryOp::Neg, .. })
        ));
        // Render and re-parse is a fixpoint.
        let Statement::Query(again) = parse_statement(&q.to_string()).unwrap() else {
            panic!()
        };
        assert_eq!(q, again);
    }
}
