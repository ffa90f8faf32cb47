//! Recursive-descent parser for MiniC.

use crate::ast::*;
use crate::lexer::lex;
use crate::token::{Token, TokenKind};
use crate::{Error, Result, Span};

/// Parses a full MiniC program and type-checks it.
///
/// # Errors
///
/// Returns the first lexical, syntactic, or type error encountered.
///
/// # Example
///
/// ```
/// let p = minic::parse_program("fn main() -> int { return 0; }")?;
/// assert_eq!(p.functions[0].name, "main");
/// # Ok::<(), minic::Error>(())
/// ```
pub fn parse_program(src: &str) -> Result<Program> {
    let program = parse_program_unchecked(src)?;
    crate::check::check_program(&program)?;
    Ok(program)
}

/// Parses a program without running the type checker.
///
/// Useful for tooling that wants to inspect syntactically valid fragments
/// (e.g. a program with no `main`).
///
/// # Errors
///
/// Returns the first lexical or syntactic error.
pub fn parse_program_unchecked(src: &str) -> Result<Program> {
    let tokens = lex(src)?;
    let mut parser = Parser {
        tokens,
        pos: 0,
        depth: 0,
    };
    let mut program = parser.program()?;
    program.source = src.to_owned();
    Ok(program)
}

/// Deepest nesting of statements and expressions the parser accepts.
/// Parsing is recursive descent, so deeper input is refused with an
/// error before it can exhaust the stack.
const MAX_NESTING: usize = 128;

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Statements and expressions currently open around `pos`.
    depth: usize,
}

impl Parser {
    /// Runs `parse` one nesting level deeper, refusing to go past
    /// [`MAX_NESTING`].
    fn nested<T>(&mut self, parse: impl FnOnce(&mut Self) -> Result<T>) -> Result<T> {
        if self.depth == MAX_NESTING {
            return Err(Error::new(
                self.span(),
                format!("nesting deeper than {MAX_NESTING} levels"),
            ));
        }
        self.depth += 1;
        let parsed = parse(self);
        self.depth -= 1;
        parsed
    }

    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos].kind
    }

    fn span(&self) -> Span {
        self.tokens[self.pos].span
    }

    fn bump(&mut self) -> TokenKind {
        let t = self.tokens[self.pos].kind.clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, kind: &TokenKind) -> bool {
        if self.peek() == kind {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: &TokenKind) -> Result<()> {
        if self.eat(kind) {
            Ok(())
        } else {
            Err(Error::new(
                self.span(),
                format!("expected `{kind}`, found `{}`", self.peek()),
            ))
        }
    }

    fn ident(&mut self) -> Result<String> {
        match self.peek().clone() {
            TokenKind::Ident(name) => {
                self.bump();
                Ok(name)
            }
            other => Err(Error::new(
                self.span(),
                format!("expected identifier, found `{other}`"),
            )),
        }
    }

    fn program(&mut self) -> Result<Program> {
        let mut globals = Vec::new();
        let mut functions = Vec::new();
        loop {
            match self.peek() {
                TokenKind::Eof => break,
                TokenKind::KwGlobal => globals.push(self.global()?),
                TokenKind::KwFn => functions.push(self.function()?),
                other => {
                    return Err(Error::new(
                        self.span(),
                        format!("expected `global` or `fn` at top level, found `{other}`"),
                    ))
                }
            }
        }
        Ok(Program {
            globals,
            functions,
            source: String::new(),
        })
    }

    fn global(&mut self) -> Result<Global> {
        let span = self.span();
        self.expect(&TokenKind::KwGlobal)?;
        let name = self.ident()?;
        self.expect(&TokenKind::Colon)?;
        let ty = self.ty()?;
        let init = if self.eat(&TokenKind::Assign) {
            Some(self.expr()?)
        } else {
            None
        };
        self.expect(&TokenKind::Semi)?;
        Ok(Global {
            name,
            ty,
            init,
            span,
        })
    }

    fn function(&mut self) -> Result<Function> {
        let span = self.span();
        self.expect(&TokenKind::KwFn)?;
        let name = self.ident()?;
        self.expect(&TokenKind::LParen)?;
        let mut params = Vec::new();
        if !self.eat(&TokenKind::RParen) {
            loop {
                let pspan = self.span();
                let pname = self.ident()?;
                self.expect(&TokenKind::Colon)?;
                let ty = self.ty()?;
                params.push(Param {
                    name: pname,
                    ty,
                    span: pspan,
                });
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
            self.expect(&TokenKind::RParen)?;
        }
        let ret = if self.eat(&TokenKind::Arrow) {
            Some(self.ty()?)
        } else {
            None
        };
        let body = self.block()?;
        Ok(Function {
            name,
            params,
            ret,
            body,
            span,
        })
    }

    fn ty(&mut self) -> Result<Type> {
        let span = self.span();
        match self.bump() {
            TokenKind::KwInt => Ok(Type::Int),
            TokenKind::KwBool => Ok(Type::Bool),
            TokenKind::KwStr => Ok(Type::Str),
            TokenKind::KwBuf => {
                if self.eat(&TokenKind::LBracket) {
                    let n = match self.bump() {
                        TokenKind::Int(n) if (1..=u32::MAX as i64).contains(&n) => n as u32,
                        _ => {
                            return Err(Error::new(span, "buffer capacity must be a positive int"))
                        }
                    };
                    self.expect(&TokenKind::RBracket)?;
                    Ok(Type::Buf(Some(n)))
                } else {
                    Ok(Type::Buf(None))
                }
            }
            other => Err(Error::new(span, format!("expected type, found `{other}`"))),
        }
    }

    fn block(&mut self) -> Result<Block> {
        self.expect(&TokenKind::LBrace)?;
        let mut stmts = Vec::new();
        while !self.eat(&TokenKind::RBrace) {
            stmts.push(self.nested(Self::stmt)?);
        }
        Ok(Block { stmts })
    }

    fn stmt(&mut self) -> Result<Stmt> {
        let span = self.span();
        let kind = match self.peek() {
            TokenKind::KwLet => {
                self.bump();
                let name = self.ident()?;
                self.expect(&TokenKind::Colon)?;
                let ty = self.ty()?;
                let init = if self.eat(&TokenKind::Assign) {
                    Some(self.expr()?)
                } else {
                    None
                };
                self.expect(&TokenKind::Semi)?;
                StmtKind::Let { name, ty, init }
            }
            TokenKind::KwIf => return self.if_stmt(),
            TokenKind::KwWhile => {
                self.bump();
                self.expect(&TokenKind::LParen)?;
                let cond = self.expr()?;
                self.expect(&TokenKind::RParen)?;
                let body = self.block()?;
                StmtKind::While { cond, body }
            }
            TokenKind::KwReturn => {
                self.bump();
                let value = if self.peek() == &TokenKind::Semi {
                    None
                } else {
                    Some(self.expr()?)
                };
                self.expect(&TokenKind::Semi)?;
                StmtKind::Return(value)
            }
            TokenKind::KwAssert => {
                self.bump();
                self.expect(&TokenKind::LParen)?;
                let cond = self.expr()?;
                self.expect(&TokenKind::RParen)?;
                self.expect(&TokenKind::Semi)?;
                StmtKind::Assert(cond)
            }
            TokenKind::KwBreak => {
                self.bump();
                self.expect(&TokenKind::Semi)?;
                StmtKind::Break
            }
            TokenKind::KwContinue => {
                self.bump();
                self.expect(&TokenKind::Semi)?;
                StmtKind::Continue
            }
            TokenKind::Ident(_) => {
                // Either `x = e;` or an expression statement (a call).
                if matches!(
                    self.tokens.get(self.pos + 1).map(|t| &t.kind),
                    Some(TokenKind::Assign)
                ) {
                    let name = self.ident()?;
                    self.bump(); // `=`
                    let value = self.expr()?;
                    self.expect(&TokenKind::Semi)?;
                    StmtKind::Assign { name, value }
                } else {
                    let e = self.expr()?;
                    self.expect(&TokenKind::Semi)?;
                    StmtKind::Expr(e)
                }
            }
            other => {
                return Err(Error::new(
                    span,
                    format!("expected statement, found `{other}`"),
                ))
            }
        };
        Ok(Stmt { kind, span })
    }

    fn if_stmt(&mut self) -> Result<Stmt> {
        let span = self.span();
        self.expect(&TokenKind::KwIf)?;
        self.expect(&TokenKind::LParen)?;
        let cond = self.expr()?;
        self.expect(&TokenKind::RParen)?;
        let then_blk = self.block()?;
        let else_blk = if self.eat(&TokenKind::KwElse) {
            if self.peek() == &TokenKind::KwIf {
                // `else if` sugar: wrap the nested if in a one-statement block.
                let nested = self.nested(Self::if_stmt)?;
                Some(Block {
                    stmts: vec![nested],
                })
            } else {
                Some(self.block()?)
            }
        } else {
            None
        };
        Ok(Stmt {
            kind: StmtKind::If {
                cond,
                then_blk,
                else_blk,
            },
            span,
        })
    }

    fn expr(&mut self) -> Result<Expr> {
        self.nested(Self::or_expr)
    }

    fn or_expr(&mut self) -> Result<Expr> {
        let mut lhs = self.and_expr()?;
        while self.peek() == &TokenKind::OrOr {
            let span = self.span();
            self.bump();
            let rhs = self.and_expr()?;
            lhs = bin(BinOp::Or, lhs, rhs, span);
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> Result<Expr> {
        let mut lhs = self.cmp_expr()?;
        while self.peek() == &TokenKind::AndAnd {
            let span = self.span();
            self.bump();
            let rhs = self.cmp_expr()?;
            lhs = bin(BinOp::And, lhs, rhs, span);
        }
        Ok(lhs)
    }

    fn cmp_expr(&mut self) -> Result<Expr> {
        let lhs = self.add_expr()?;
        let op = match self.peek() {
            TokenKind::EqEq => BinOp::Eq,
            TokenKind::NotEq => BinOp::Ne,
            TokenKind::Lt => BinOp::Lt,
            TokenKind::Le => BinOp::Le,
            TokenKind::Gt => BinOp::Gt,
            TokenKind::Ge => BinOp::Ge,
            _ => return Ok(lhs),
        };
        let span = self.span();
        self.bump();
        let rhs = self.add_expr()?;
        Ok(bin(op, lhs, rhs, span))
    }

    fn add_expr(&mut self) -> Result<Expr> {
        let mut lhs = self.mul_expr()?;
        loop {
            let op = match self.peek() {
                TokenKind::Plus => BinOp::Add,
                TokenKind::Minus => BinOp::Sub,
                _ => return Ok(lhs),
            };
            let span = self.span();
            self.bump();
            let rhs = self.mul_expr()?;
            lhs = bin(op, lhs, rhs, span);
        }
    }

    fn mul_expr(&mut self) -> Result<Expr> {
        let mut lhs = self.unary_expr()?;
        loop {
            let op = match self.peek() {
                TokenKind::Star => BinOp::Mul,
                TokenKind::Slash => BinOp::Div,
                TokenKind::Percent => BinOp::Rem,
                _ => return Ok(lhs),
            };
            let span = self.span();
            self.bump();
            let rhs = self.unary_expr()?;
            lhs = bin(op, lhs, rhs, span);
        }
    }

    fn unary_expr(&mut self) -> Result<Expr> {
        let span = self.span();
        match self.peek() {
            TokenKind::Minus => {
                self.bump();
                let operand = self.nested(Self::unary_expr)?;
                Ok(Expr {
                    kind: ExprKind::Un {
                        op: UnOp::Neg,
                        operand: Box::new(operand),
                    },
                    span,
                })
            }
            TokenKind::Bang => {
                self.bump();
                let operand = self.nested(Self::unary_expr)?;
                Ok(Expr {
                    kind: ExprKind::Un {
                        op: UnOp::Not,
                        operand: Box::new(operand),
                    },
                    span,
                })
            }
            _ => self.primary_expr(),
        }
    }

    fn primary_expr(&mut self) -> Result<Expr> {
        let span = self.span();
        let kind = match self.bump() {
            TokenKind::Int(v) => ExprKind::Int(v),
            TokenKind::Char(c) => ExprKind::Int(c as i64),
            TokenKind::Str(s) => ExprKind::Str(s),
            TokenKind::KwTrue => ExprKind::Bool(true),
            TokenKind::KwFalse => ExprKind::Bool(false),
            TokenKind::LParen => {
                let inner = self.expr()?;
                self.expect(&TokenKind::RParen)?;
                return Ok(inner);
            }
            TokenKind::Ident(name) => {
                if self.eat(&TokenKind::LParen) {
                    let mut args = Vec::new();
                    if !self.eat(&TokenKind::RParen) {
                        loop {
                            args.push(self.expr()?);
                            if !self.eat(&TokenKind::Comma) {
                                break;
                            }
                        }
                        self.expect(&TokenKind::RParen)?;
                    }
                    ExprKind::Call { callee: name, args }
                } else {
                    ExprKind::Var(name)
                }
            }
            other => {
                return Err(Error::new(
                    span,
                    format!("expected expression, found `{other}`"),
                ))
            }
        };
        Ok(Expr { kind, span })
    }
}

fn bin(op: BinOp, lhs: Expr, rhs: Expr, span: Span) -> Expr {
    Expr {
        kind: ExprKind::Bin {
            op,
            lhs: Box::new(lhs),
            rhs: Box::new(rhs),
        },
        span,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_minimal_main() {
        let p = parse_program("fn main() -> int { return 0; }").unwrap();
        assert_eq!(p.functions.len(), 1);
        assert_eq!(p.functions[0].name, "main");
    }

    #[test]
    fn parses_globals_with_initializers() {
        let p =
            parse_program("global track: int = 3; global name: str = \"x\"; fn main() { return; }")
                .unwrap();
        assert_eq!(p.globals.len(), 2);
        assert_eq!(p.globals[0].ty, Type::Int);
    }

    #[test]
    fn precedence_mul_binds_tighter_than_add() {
        let p = parse_program("fn main() -> int { return 1 + 2 * 3; }").unwrap();
        let StmtKind::Return(Some(e)) = &p.functions[0].body.stmts[0].kind else {
            panic!("expected return");
        };
        let ExprKind::Bin { op, rhs, .. } = &e.kind else {
            panic!("expected binary expr");
        };
        assert_eq!(*op, BinOp::Add);
        assert!(matches!(rhs.kind, ExprKind::Bin { op: BinOp::Mul, .. }));
    }

    #[test]
    fn parses_else_if_chain() {
        let p = parse_program_unchecked(
            "fn f(x: int) -> int { if (x < 0) { return 0; } else if (x < 10) { return 1; } else { return 2; } }",
        )
        .unwrap();
        let StmtKind::If { else_blk, .. } = &p.functions[0].body.stmts[0].kind else {
            panic!()
        };
        let nested = &else_blk.as_ref().unwrap().stmts[0];
        assert!(matches!(nested.kind, StmtKind::If { .. }));
    }

    #[test]
    fn parses_buffers_and_builtin_calls() {
        let p = parse_program(
            "fn main() { let b: buf[16]; buf_set(b, 0, 'a'); let v: int = buf_get(b, 0); print(v); }",
        )
        .unwrap();
        assert_eq!(p.functions[0].body.stmts.len(), 4);
    }

    #[test]
    fn parses_while_with_logical_ops() {
        parse_program_unchecked(
            "fn f(x: int) { let i: int = 0; while (i < x && x >= 0 || false) { i = i + 1; } }",
        )
        .unwrap();
    }

    #[test]
    fn rejects_missing_semicolon() {
        assert!(parse_program("fn main() { let x: int = 1 }").is_err());
    }

    #[test]
    fn rejects_top_level_statement() {
        assert!(parse_program("let x: int = 1;").is_err());
    }

    /// A `main` whose `let` initializer is `1` inside 100 000 `open`
    /// prefixes and `close` suffixes: far past the nesting limit.
    fn deeply_nested(open: &str, close: &str) -> String {
        let n = 100_000;
        format!(
            "fn main() {{ let x: int = {}1{}; }}",
            open.repeat(n),
            close.repeat(n)
        )
    }

    fn assert_too_deep(src: &str) {
        let err = parse_program(src).unwrap_err();
        assert!(err.message.contains("nesting deeper than"), "{err}");
    }

    #[test]
    fn deep_parentheses_are_a_parse_error() {
        assert_too_deep(&deeply_nested("(", ")"));
        // Nesting up to the limit still parses (the `let` statement and
        // its initializer take two of the levels).
        let n = MAX_NESTING - 2;
        let src = format!(
            "fn main() {{ let x: int = {}1{}; }}",
            "(".repeat(n),
            ")".repeat(n)
        );
        parse_program(&src).unwrap();
    }

    #[test]
    fn deep_unary_chains_are_a_parse_error() {
        assert_too_deep(&deeply_nested("-", ""));
        assert_too_deep(&deeply_nested("!", ""));
    }

    #[test]
    fn deep_blocks_are_a_parse_error() {
        let n = 100_000;
        assert_too_deep(&format!(
            "fn main() {{ {}return;{} }}",
            "if (true) { ".repeat(n),
            " }".repeat(n)
        ));
    }

    #[test]
    fn comparison_is_non_associative() {
        // `a < b < c` parses as `(a < b) < c` is rejected by the grammar
        // because cmp is non-chaining; the second `<` terminates the expr.
        assert!(parse_program("fn f(a: int) -> bool { return a < 1 < 2; }").is_err());
    }
}
