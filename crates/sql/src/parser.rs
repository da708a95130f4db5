//! Recursive-descent parser for the Tabula SQL dialect.

use crate::ast::{DropKind, LossRef, ShowKind, Statement, WhereTerm};
use crate::lexer::{tokenize, Token};
use crate::{Result, SqlError};
use tabula_core::loss::expr::{AggFn, Expr, Side};
use tabula_storage::{CmpOp, Value};

/// Parse one statement (a trailing semicolon is allowed).
pub fn parse(sql: &str) -> Result<Statement> {
    let tokens = tokenize(sql)?;
    let mut p = Parser { tokens, pos: 0 };
    let stmt = p.statement()?;
    p.accept_semicolons();
    p.expect_eof()?;
    Ok(stmt)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
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

    fn accept_kw(&mut self, word: &str) -> bool {
        if self.peek().is_kw(word) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, word: &str) -> Result<()> {
        if self.accept_kw(word) {
            Ok(())
        } else {
            Err(SqlError::Parse(format!("expected keyword {word}, found {:?}", self.peek())))
        }
    }

    fn expect_token(&mut self, token: Token) -> Result<()> {
        if *self.peek() == token {
            self.pos += 1;
            Ok(())
        } else {
            Err(SqlError::Parse(format!("expected {token:?}, found {:?}", self.peek())))
        }
    }

    fn ident(&mut self) -> Result<String> {
        match self.next() {
            Token::Ident(s) => Ok(s),
            other => Err(SqlError::Parse(format!("expected identifier, found {other:?}"))),
        }
    }

    /// A number where only its value matters (θ, a loss constant).
    fn number(&mut self) -> Result<f64> {
        match self.next() {
            Token::Int(n) => Ok(n as f64),
            Token::Float(x) => Ok(x),
            other => Err(SqlError::Parse(format!("expected number, found {other:?}"))),
        }
    }

    fn accept_semicolons(&mut self) {
        while *self.peek() == Token::Semicolon {
            self.pos += 1;
        }
    }

    fn expect_eof(&mut self) -> Result<()> {
        if *self.peek() == Token::Eof {
            Ok(())
        } else {
            Err(SqlError::Parse(format!("trailing input: {:?}", self.peek())))
        }
    }

    fn statement(&mut self) -> Result<Statement> {
        if self.accept_kw("CREATE") {
            if self.accept_kw("TABLE") {
                return self.create_cube();
            }
            if self.accept_kw("AGGREGATE") {
                return self.create_aggregate();
            }
            return Err(SqlError::Parse("expected TABLE or AGGREGATE after CREATE".into()));
        }
        if self.accept_kw("SELECT") {
            return self.select();
        }
        if self.accept_kw("DROP") {
            let kind = if self.accept_kw("CUBE") {
                DropKind::Cube
            } else if self.accept_kw("AGGREGATE") {
                DropKind::Aggregate
            } else {
                return Err(SqlError::Parse("expected CUBE or AGGREGATE after DROP".into()));
            };
            let name = self.ident()?;
            return Ok(Statement::Drop { kind, name });
        }
        if self.accept_kw("SHOW") {
            let kind = if self.accept_kw("CUBES") {
                ShowKind::Cubes
            } else if self.accept_kw("TABLES") {
                ShowKind::Tables
            } else if self.accept_kw("AGGREGATES") {
                ShowKind::Aggregates
            } else {
                return Err(SqlError::Parse(
                    "expected CUBES, TABLES or AGGREGATES after SHOW".into(),
                ));
            };
            return Ok(Statement::Show(kind));
        }
        if self.accept_kw("EXPLAIN") {
            if self.accept_kw("ANALYZE") {
                let inner = self.statement()?;
                if !matches!(inner, Statement::SelectSample { .. } | Statement::SelectRaw { .. }) {
                    return Err(SqlError::Parse("EXPLAIN ANALYZE takes a SELECT statement".into()));
                }
                return Ok(Statement::ExplainAnalyze(Box::new(inner)));
            }
            self.expect_kw("CUBE")?;
            let name = self.ident()?;
            return Ok(Statement::ExplainCube(name));
        }
        Err(SqlError::Parse(format!(
            "expected CREATE, SELECT, DROP, SHOW or EXPLAIN, found {:?}",
            self.peek()
        )))
    }

    /// `CREATE TABLE name AS SELECT a, b, SAMPLING(*, θ) AS sample FROM src
    /// GROUPBY CUBE(a, b) HAVING loss(attr[, attr], Sam_global) > θ`
    fn create_cube(&mut self) -> Result<Statement> {
        let name = self.ident()?;
        self.expect_kw("AS")?;
        self.expect_kw("SELECT")?;

        let mut cubed_attrs = Vec::new();
        // Attribute list until SAMPLING.
        loop {
            if self.peek().is_kw("SAMPLING") {
                break;
            }
            cubed_attrs.push(self.ident()?);
            self.expect_token(Token::Comma)?;
        }
        self.expect_kw("SAMPLING")?;
        self.expect_token(Token::LParen)?;
        self.expect_token(Token::Star)?;
        self.expect_token(Token::Comma)?;
        let theta_sampling = self.number()?;
        self.expect_token(Token::RParen)?;
        self.expect_kw("AS")?;
        self.expect_kw("sample")?;
        self.expect_kw("FROM")?;
        let source = self.ident()?;

        // Accept both the paper's `GROUPBY` and standard `GROUP BY`.
        if self.accept_kw("GROUPBY") {
        } else {
            self.expect_kw("GROUP")?;
            self.expect_kw("BY")?;
        }
        self.expect_kw("CUBE")?;
        self.expect_token(Token::LParen)?;
        let mut cube_attrs = Vec::new();
        loop {
            cube_attrs.push(self.ident()?);
            if !matches!(self.peek(), Token::Comma) {
                break;
            }
            self.pos += 1;
        }
        self.expect_token(Token::RParen)?;
        if cube_attrs != cubed_attrs {
            return Err(SqlError::Parse(format!(
                "CUBE attribute list {cube_attrs:?} must match the SELECT list {cubed_attrs:?}"
            )));
        }

        self.expect_kw("HAVING")?;
        let loss_name = self.ident()?;
        self.expect_token(Token::LParen)?;
        let mut target_attrs = vec![self.ident()?];
        while matches!(self.peek(), Token::Comma) {
            self.pos += 1;
            let ident = self.ident()?;
            if ident.eq_ignore_ascii_case("Sam_global") {
                // End of target attributes.
                self.expect_token(Token::RParen)?;
                self.expect_token(Token::Gt)?;
                let theta_having = self.number()?;
                if theta_having != theta_sampling {
                    return Err(SqlError::Parse(format!(
                        "SAMPLING threshold {theta_sampling} and HAVING threshold \
                         {theta_having} must agree"
                    )));
                }
                return Ok(Statement::CreateCube {
                    name,
                    source,
                    cubed_attrs,
                    theta: theta_sampling,
                    loss: LossRef { name: loss_name, target_attrs },
                });
            }
            target_attrs.push(ident);
        }
        Err(SqlError::Parse(
            "HAVING loss(...) must end with Sam_global as its last argument".into(),
        ))
    }

    /// `CREATE AGGREGATE name(Raw, Sam) RETURN decimal_value AS BEGIN expr END`
    fn create_aggregate(&mut self) -> Result<Statement> {
        let name = self.ident()?;
        self.expect_token(Token::LParen)?;
        self.expect_kw("Raw")?;
        self.expect_token(Token::Comma)?;
        self.expect_kw("Sam")?;
        self.expect_token(Token::RParen)?;
        self.expect_kw("RETURN")?;
        self.expect_kw("decimal_value")?;
        self.expect_kw("AS")?;
        self.expect_kw("BEGIN")?;
        let body = self.scalar_expr()?;
        self.expect_kw("END")?;
        Ok(Statement::CreateAggregate { name, body })
    }

    /// `SELECT sample FROM cube WHERE ...` or `SELECT * FROM table WHERE ...`
    fn select(&mut self) -> Result<Statement> {
        if self.accept_kw("sample") {
            self.expect_kw("FROM")?;
            let cube = self.ident()?;
            let conditions = self.where_clause()?;
            return Ok(Statement::SelectSample { cube, conditions });
        }
        self.expect_token(Token::Star)?;
        self.expect_kw("FROM")?;
        let table = self.ident()?;
        let conditions = self.where_clause()?;
        Ok(Statement::SelectRaw { table, conditions })
    }

    fn where_clause(&mut self) -> Result<Vec<WhereTerm>> {
        let mut terms = Vec::new();
        if !self.accept_kw("WHERE") {
            return Ok(terms);
        }
        loop {
            let column = self.ident()?;
            let op = match self.next() {
                Token::Eq => CmpOp::Eq,
                Token::Ne => CmpOp::Ne,
                Token::Lt => CmpOp::Lt,
                Token::Le => CmpOp::Le,
                Token::Gt => CmpOp::Gt,
                Token::Ge => CmpOp::Ge,
                other => {
                    return Err(SqlError::Parse(format!(
                        "expected comparison operator, found {other:?}"
                    )))
                }
            };
            // A string, or a number typed as the lexer typed it, after an
            // optional `-` that negates either kind.
            let negate = *self.peek() == Token::Minus;
            self.pos += usize::from(negate);
            let value = match self.next() {
                Token::Int(n) => Value::Int64(if negate { -n } else { n }),
                Token::Float(x) => Value::Float64(if negate { -x } else { x }),
                Token::Str(s) if !negate => Value::Str(s),
                other => return Err(SqlError::Parse(format!("expected literal, found {other:?}"))),
            };
            terms.push(WhereTerm { column, op, value });
            if !self.accept_kw("AND") {
                break;
            }
        }
        Ok(terms)
    }

    // --- scalar expression grammar for CREATE AGGREGATE bodies ---
    // expr   := term (('+' | '-') term)*
    // term   := factor (('*' | '/') factor)*
    // factor := NUMBER | '-' factor | ABS '(' expr ')'
    //         | AGGFN '(' (Raw | Sam) ')' | '(' expr ')'

    fn scalar_expr(&mut self) -> Result<Expr> {
        let mut lhs = self.scalar_term()?;
        loop {
            match self.peek() {
                Token::Plus => {
                    self.pos += 1;
                    let rhs = self.scalar_term()?;
                    lhs = Expr::Add(Box::new(lhs), Box::new(rhs));
                }
                Token::Minus => {
                    self.pos += 1;
                    let rhs = self.scalar_term()?;
                    lhs = Expr::Sub(Box::new(lhs), Box::new(rhs));
                }
                _ => return Ok(lhs),
            }
        }
    }

    fn scalar_term(&mut self) -> Result<Expr> {
        let mut lhs = self.scalar_factor()?;
        loop {
            match self.peek() {
                Token::Star => {
                    self.pos += 1;
                    let rhs = self.scalar_factor()?;
                    lhs = Expr::Mul(Box::new(lhs), Box::new(rhs));
                }
                Token::Slash => {
                    self.pos += 1;
                    let rhs = self.scalar_factor()?;
                    lhs = Expr::Div(Box::new(lhs), Box::new(rhs));
                }
                _ => return Ok(lhs),
            }
        }
    }

    fn scalar_factor(&mut self) -> Result<Expr> {
        match self.next() {
            Token::Int(n) => Ok(Expr::Const(n as f64)),
            Token::Float(x) => Ok(Expr::Const(x)),
            Token::Minus => Ok(Expr::Neg(Box::new(self.scalar_factor()?))),
            Token::LParen => {
                let e = self.scalar_expr()?;
                self.expect_token(Token::RParen)?;
                Ok(e)
            }
            Token::Ident(name) => {
                if name.eq_ignore_ascii_case("ABS") {
                    self.expect_token(Token::LParen)?;
                    let e = self.scalar_expr()?;
                    self.expect_token(Token::RParen)?;
                    return Ok(Expr::Abs(Box::new(e)));
                }
                let agg = match name.to_ascii_uppercase().as_str() {
                    "AVG" => AggFn::Avg,
                    "SUM" => AggFn::Sum,
                    "COUNT" => AggFn::Count,
                    "MIN" => AggFn::Min,
                    "MAX" => AggFn::Max,
                    "STDDEV" | "STD_DEV" => AggFn::StdDev,
                    other => {
                        return Err(SqlError::Parse(format!(
                            "unknown function {other} in loss expression"
                        )))
                    }
                };
                self.expect_token(Token::LParen)?;
                let side_name = self.ident()?;
                let side = if side_name.eq_ignore_ascii_case("Raw") {
                    Side::Raw
                } else if side_name.eq_ignore_ascii_case("Sam") {
                    Side::Sam
                } else {
                    return Err(SqlError::Parse(format!(
                        "aggregate argument must be Raw or Sam, found {side_name}"
                    )));
                };
                self.expect_token(Token::RParen)?;
                Ok(Expr::Agg(agg, side))
            }
            other => {
                Err(SqlError::Parse(format!("unexpected token in loss expression: {other:?}")))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_paper_query_1() {
        let stmt = parse(
            "CREATE TABLE SamplingCube AS \
             SELECT D, C, M, SAMPLING(*, 0.1) AS sample \
             FROM nyctaxi GROUPBY CUBE(D, C, M) \
             HAVING heatmap_loss(pickup, Sam_global) > 0.1;",
        )
        .unwrap();
        assert_eq!(
            stmt,
            Statement::CreateCube {
                name: "SamplingCube".into(),
                source: "nyctaxi".into(),
                cubed_attrs: vec!["D".into(), "C".into(), "M".into()],
                theta: 0.1,
                loss: LossRef { name: "heatmap_loss".into(), target_attrs: vec!["pickup".into()] },
            }
        );
    }

    #[test]
    fn parses_group_by_spelling_and_multi_attr_loss() {
        let stmt = parse(
            "CREATE TABLE c AS SELECT a, SAMPLING(*, 2.5) AS sample FROM t \
             GROUP BY CUBE(a) HAVING regression_loss(fare, tip, Sam_global) > 2.5",
        )
        .unwrap();
        match stmt {
            Statement::CreateCube { loss, theta, .. } => {
                assert_eq!(loss.target_attrs, vec!["fare".to_owned(), "tip".to_owned()]);
                assert_eq!(theta, 2.5);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn mismatched_thresholds_and_lists_are_rejected() {
        let err = parse(
            "CREATE TABLE c AS SELECT a, SAMPLING(*, 0.1) AS sample FROM t \
             GROUPBY CUBE(a) HAVING loss(x, Sam_global) > 0.2",
        )
        .unwrap_err();
        assert!(matches!(err, SqlError::Parse(_)));
        let err = parse(
            "CREATE TABLE c AS SELECT a, b, SAMPLING(*, 0.1) AS sample FROM t \
             GROUPBY CUBE(a) HAVING loss(x, Sam_global) > 0.1",
        )
        .unwrap_err();
        assert!(matches!(err, SqlError::Parse(_)));
    }

    #[test]
    fn parses_paper_query_2() {
        let stmt = parse("SELECT sample FROM SamplingCube WHERE D = '[0,5)' AND C = 1").unwrap();
        match stmt {
            Statement::SelectSample { cube, conditions } => {
                assert_eq!(cube, "SamplingCube");
                assert_eq!(conditions.len(), 2);
                assert_eq!(conditions[0].value, Value::Str("[0,5)".into()));
                assert_eq!(conditions[1].value, Value::Int64(1));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_create_aggregate_function_1() {
        let stmt = parse(
            "CREATE AGGREGATE my_loss(Raw, Sam) RETURN decimal_value AS \
             BEGIN ABS((AVG(Raw) - AVG(Sam)) / AVG(Raw)) END",
        )
        .unwrap();
        match stmt {
            Statement::CreateAggregate { name, body } => {
                assert_eq!(name, "my_loss");
                assert_eq!(body, Expr::mean_relative_error());
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_arithmetic_precedence() {
        let stmt = parse(
            "CREATE AGGREGATE l(Raw, Sam) RETURN decimal_value AS \
             BEGIN AVG(Raw) + 2 * MAX(Sam) - MIN(Raw) / 4 END",
        )
        .unwrap();
        let Statement::CreateAggregate { body, .. } = stmt else { panic!() };
        // ((AVG(Raw) + (2 * MAX(Sam))) - (MIN(Raw) / 4))
        use tabula_core::loss::expr::{AggFn::*, Expr::*, Side::*};
        assert_eq!(
            body,
            Sub(
                Box::new(Add(
                    Box::new(Agg(Avg, Raw)),
                    Box::new(Mul(Box::new(Const(2.0)), Box::new(Agg(Max, Sam)))),
                )),
                Box::new(Div(Box::new(Agg(Min, Raw)), Box::new(Const(4.0)))),
            )
        );
    }

    #[test]
    fn parses_raw_select() {
        let stmt =
            parse("SELECT * FROM nyctaxi WHERE payment_type = 'cash' AND fare_amount >= 10.5")
                .unwrap();
        match stmt {
            Statement::SelectRaw { table, conditions } => {
                assert_eq!(table, "nyctaxi");
                assert_eq!(conditions[1].op, CmpOp::Ge);
                assert_eq!(conditions[1].value, Value::Float64(10.5));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn where_literals_keep_the_lexers_type_under_a_minus() {
        let stmt = parse(
            "SELECT * FROM t WHERE x < -2.5 AND x > -1 AND x <> 2.0 AND x = 9007199254740993 \
             AND x <> -9223372036854775807 AND x <> -0.0",
        )
        .unwrap();
        let Statement::SelectRaw { conditions, .. } = stmt else { panic!() };
        let values: Vec<Value> = conditions.into_iter().map(|t| t.value).collect();
        assert_eq!(
            values,
            vec![
                Value::Float64(-2.5),
                Value::Int64(-1),
                Value::Float64(2.0),
                Value::Int64(9_007_199_254_740_993),
                Value::Int64(-i64::MAX),
                Value::Float64(-0.0),
            ]
        );
        assert!(matches!(&values[5], Value::Float64(z) if z.is_sign_negative()));
        // A minus negates numbers only.
        assert!(matches!(parse("SELECT * FROM t WHERE s = -'a'"), Err(SqlError::Parse(_))));
    }

    #[test]
    fn thresholds_agree_by_value_whatever_their_spelling() {
        let create = |a: &str, b: &str| {
            parse(&format!(
                "CREATE TABLE c AS SELECT a, SAMPLING(*, {a}) AS sample FROM t \
                 GROUPBY CUBE(a) HAVING loss(x, Sam_global) > {b}"
            ))
        };
        assert!(create("1", "1.0").is_ok());
        assert!(create("0.1", "1e-1").is_ok());
        assert!(matches!(create("0.1", "0.1000000000000001"), Err(SqlError::Parse(_))));
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        assert!(matches!(
            parse("SELECT sample FROM c WHERE a = 1 garbage"),
            Err(SqlError::Parse(_))
        ));
        assert!(matches!(parse("DROP TABLE x"), Err(SqlError::Parse(_))));
        assert!(matches!(parse("SHOW SAMPLES"), Err(SqlError::Parse(_))));
    }

    #[test]
    fn management_statements_parse() {
        assert_eq!(
            parse("DROP CUBE c").unwrap(),
            Statement::Drop { kind: DropKind::Cube, name: "c".into() }
        );
        assert_eq!(
            parse("DROP AGGREGATE my_loss;").unwrap(),
            Statement::Drop { kind: DropKind::Aggregate, name: "my_loss".into() }
        );
        assert_eq!(parse("SHOW CUBES").unwrap(), Statement::Show(ShowKind::Cubes));
        assert_eq!(parse("SHOW TABLES").unwrap(), Statement::Show(ShowKind::Tables));
        assert_eq!(parse("SHOW AGGREGATES").unwrap(), Statement::Show(ShowKind::Aggregates));
        assert_eq!(
            parse("EXPLAIN CUBE SamplingCube").unwrap(),
            Statement::ExplainCube("SamplingCube".into())
        );
    }

    #[test]
    fn where_clause_is_optional() {
        let stmt = parse("SELECT * FROM t").unwrap();
        let Statement::SelectRaw { conditions, .. } = stmt else { panic!() };
        assert!(conditions.is_empty());
    }

    #[test]
    fn explain_analyze_wraps_selects_only() {
        let stmt = parse("EXPLAIN ANALYZE SELECT sample FROM c WHERE M = 'cash'").unwrap();
        let Statement::ExplainAnalyze(inner) = stmt else { panic!("{stmt:?}") };
        assert!(matches!(*inner, Statement::SelectSample { .. }));
        let stmt = parse("explain analyze select * from t").unwrap();
        let Statement::ExplainAnalyze(inner) = stmt else { panic!("{stmt:?}") };
        assert!(matches!(*inner, Statement::SelectRaw { .. }));
        // Non-SELECT inner statements are rejected at parse time.
        assert!(matches!(parse("EXPLAIN ANALYZE SHOW CUBES"), Err(SqlError::Parse(_))));
        assert!(matches!(parse("EXPLAIN ANALYZE DROP CUBE c"), Err(SqlError::Parse(_))));
        // EXPLAIN ANALYZE of EXPLAIN ANALYZE is not a select either.
        assert!(matches!(
            parse("EXPLAIN ANALYZE EXPLAIN ANALYZE SELECT * FROM t"),
            Err(SqlError::Parse(_))
        ));
    }
}
