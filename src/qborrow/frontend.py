"""Lexer, recursive-descent parser and printer for the QBorrow language.

The accepted syntax is exactly the grammar in QBorrow.g4 (kept next to this
module as the normative reference): `let` bindings, register declarations
(`borrow`, `borrow@`, `alloc`), `release`, the gates X/CNOT/CCNOT, and `for`
loops over compile-time arithmetic.  Comments are `//` to end of line and
non-nesting `/* ... */`.
"""

import re
from dataclasses import dataclass, field

from .errors import SourceError

GATE_ARITY = {"X": 1, "CNOT": 2, "CCNOT": 3}  # gate keyword -> operand count

KEYWORDS = frozenset(["let", "borrow", "borrow@", "alloc", "release", "for", "to", *GATE_ARITY])

INT64_MAX = 2**63 - 1

# deepest statement accepted: the `for` bodies around it plus the operators
# and parentheses in it.  This bounds the depth of the AST, and so the
# recursion of the parser, the printer and the elaborator.  CPython's own
# parser stops at 200 levels of parentheses.
MAX_NESTING = 200

Loc = tuple[int, int]  # (line, column), both 1-based


class LexError(SourceError):
    pass


class UnterminatedComment(LexError):
    pass


class ParseError(SourceError):
    def __init__(self, line: int, column: int, expected: tuple[str, ...], found: str):
        self.expected = expected
        self.found = found
        what = " or ".join(expected)
        super().__init__(line, column, f"expected {what}, found {found}")


@dataclass(frozen=True)
class Token:
    kind: str  # keyword | identifier | number | operator | punctuation
    lexeme: str
    line: int
    column: int

    @property
    def loc(self) -> Loc:
        return (self.line, self.column)


# One alternative per token class, tried in order at each offset.  Identifiers
# and numbers use the ASCII classes of QBorrow.g4; 'borrow@' is one keyword
# token, so its '@' must be adjacent.  Anything else is matched by `bad`.
_TOKEN_RE = re.compile(
    r"""(?P<skip>[ \t\r\n]+|//[^\r\n]*|/\*.*?\*/)
      | (?P<open>/\*)
      | (?P<word>borrow@|[A-Za-z_][A-Za-z0-9_]*)
      | (?P<number>[0-9]+)
      | (?P<operator>[-+*=])
      | (?P<punctuation>[;,\[\](){}])
      | (?P<bad>.)""",
    re.VERBOSE | re.DOTALL,
)


def tokenize(source: str) -> list[Token]:
    """Split source text into tokens, dropping whitespace and comments."""
    tokens = []
    line = 1
    line_start = 0  # offset of the first character of `line`
    for m in _TOKEN_RE.finditer(source):
        kind = m.lastgroup
        text = m.group()
        start = m.start()
        col = start - line_start + 1
        if kind == "skip":
            newlines = text.count("\n")
            if newlines:
                line += newlines
                line_start = start + text.rindex("\n") + 1
            continue
        if kind == "word":
            kind = "keyword" if text in KEYWORDS else "identifier"
        elif kind == "number":
            if len(text) > 18:  # int() refuses over 4300 digits: count them first
                digits = text.lstrip("0")  # leading zeros are legal
                if len(digits) > 19 or (len(digits) == 19 and int(digits) > INT64_MAX):
                    raise LexError(line, col, f"integer literal {text} exceeds 64-bit range")
        elif kind == "open":
            raise UnterminatedComment(line, col, "unterminated '/*' comment")
        elif kind == "bad":
            raise LexError(line, col, f"unexpected character {text!r}")
        tokens.append(Token(kind, text, line, col))
    return tokens


# --------------------------------------------------------------------------
# AST
# --------------------------------------------------------------------------
# Locations are carried for diagnostics but excluded from equality so that
# re-parsing a pretty-printed program compares structurally equal.


@dataclass(frozen=True)
class Num:
    value: int
    loc: Loc = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class Name:
    ident: str
    loc: Loc = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class Neg:
    operand: "Expr"
    loc: Loc = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class BinOp:
    op: str  # '+', '-' or '*'
    left: "Expr"
    right: "Expr"
    loc: Loc = field(default=(0, 0), compare=False)


Expr = Num | Name | Neg | BinOp


@dataclass(frozen=True)
class RegRef:
    """Register reference: `name[index]`, or bare `name` (index is None)."""

    name: str
    index: Expr | None
    loc: Loc = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class Let:
    name: str
    value: Expr
    loc: Loc = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class Declare:
    """`borrow`, `borrow@` (borrowed, verification skipped) or `alloc`."""

    keyword: str
    reg: RegRef
    loc: Loc = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class Release:
    name: str
    loc: Loc = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class GateStmt:
    """`X[t]`, `CNOT[c, t]` or `CCNOT[c1, c2, t]`: controls first, target last."""

    name: str
    operands: tuple[RegRef, ...]
    loc: Loc = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class For:
    var: str
    start: Expr
    stop: Expr
    body: tuple["Stmt", ...]
    loc: Loc = field(default=(0, 0), compare=False)


Stmt = Let | Declare | Release | GateStmt | For


@dataclass(frozen=True)
class ProgramAst:
    statements: tuple[Stmt, ...]


# --------------------------------------------------------------------------
# Parser
# --------------------------------------------------------------------------


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.fors = 0  # `for` bodies open around the current statement
        self.depth = 0  # self.fors plus the operators and parentheses read since

    def nest(self, tok: Token) -> None:
        """Count one level of nesting at `tok`; see MAX_NESTING."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            expected = (f"at most {MAX_NESTING} levels of nesting",)
            raise ParseError(tok.line, tok.column, expected, repr(tok.lexeme))

    def peek(self) -> Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def error(self, expected: tuple[str, ...]) -> ParseError:
        tok = self.peek()
        if tok is None:
            last = self.tokens[-1] if self.tokens else None
            line = last.line if last else 1
            col = last.column + len(last.lexeme) if last else 1
            return ParseError(line, col, expected, "end of input")
        return ParseError(tok.line, tok.column, expected, repr(tok.lexeme))

    def take(self, kind: str, lexeme: str | None = None) -> Token:
        tok = self.peek()
        if tok is None or tok.kind != kind or (lexeme is not None and tok.lexeme != lexeme):
            expected = (repr(lexeme),) if lexeme is not None else (kind,)
            raise self.error(expected)
        self.pos += 1
        return tok

    def at(self, kind: str, lexeme: str | None = None) -> bool:
        tok = self.peek()
        return (
            tok is not None
            and tok.kind == kind
            and (lexeme is None or tok.lexeme == lexeme)
        )

    def program(self) -> ProgramAst:
        statements = [self.statement()]
        while self.peek() is not None:
            statements.append(self.statement())
        return ProgramAst(tuple(statements))

    def statement(self) -> Stmt:
        tok = self.peek()
        if tok is None or tok.kind != "keyword":
            raise self.error(("statement",))
        loc = tok.loc
        self.depth = self.fors
        if tok.lexeme == "let":
            self.pos += 1
            name = self.take("identifier").lexeme
            self.take("operator", "=")
            value = self.expr()
            self.take("punctuation", ";")
            return Let(name, value, loc)
        if tok.lexeme in ("borrow", "borrow@", "alloc"):
            self.pos += 1
            reg = self.reg()
            self.take("punctuation", ";")
            return Declare(tok.lexeme, reg, loc)
        if tok.lexeme == "release":
            self.pos += 1
            name = self.take("identifier").lexeme
            self.take("punctuation", ";")
            return Release(name, loc)
        if tok.lexeme in GATE_ARITY:
            self.pos += 1
            self.take("punctuation", "[")
            operands = [self.reg()]
            for _ in range(GATE_ARITY[tok.lexeme] - 1):
                self.take("punctuation", ",")
                operands.append(self.reg())
            self.take("punctuation", "]")
            self.take("punctuation", ";")
            return GateStmt(tok.lexeme, tuple(operands), loc)
        if tok.lexeme == "for":
            self.pos += 1
            self.nest(tok)
            var = self.take("identifier").lexeme
            self.take("operator", "=")
            start = self.expr()
            self.take("keyword", "to")
            stop = self.expr()
            self.take("punctuation", "{")
            self.fors += 1
            body = []
            while not self.at("punctuation", "}"):
                body.append(self.statement())
            self.take("punctuation", "}")
            self.fors -= 1
            return For(var, start, stop, tuple(body), loc)
        raise self.error(("statement",))

    def reg(self) -> RegRef:
        name_tok = self.take("identifier")
        index = None
        if self.at("punctuation", "["):
            self.pos += 1
            index = self.expr()
            self.take("punctuation", "]")
        return RegRef(name_tok.lexeme, index, name_tok.loc)

    def expr(self) -> Expr:
        # optional leading sign applies to the first term only
        tok = self.peek()
        if tok is not None and tok.kind == "operator" and tok.lexeme in "+-":
            self.pos += 1
            self.nest(tok)
            operand = self.term()
            left: Expr = Neg(operand, tok.loc) if tok.lexeme == "-" else operand
        else:
            left = self.term()
        while self.at("operator", "+") or self.at("operator", "-"):
            op_tok = self.take("operator")
            self.nest(op_tok)
            right = self.term()
            left = BinOp(op_tok.lexeme, left, right, op_tok.loc)
        return left

    def term(self) -> Expr:
        left = self.factor()
        while self.at("operator", "*"):
            op_tok = self.take("operator")
            self.nest(op_tok)
            right = self.factor()
            left = BinOp("*", left, right, op_tok.loc)
        return left

    def factor(self) -> Expr:
        tok = self.peek()
        if tok is None:
            raise self.error(("number", "identifier", "'('"))
        if tok.kind == "number":
            self.pos += 1
            try:
                value = int(tok.lexeme)
            except ValueError:  # over 4300 digits, at most 19 of them not leading zeros
                value = int(tok.lexeme.lstrip("0") or "0")
            return Num(value, tok.loc)
        if tok.kind == "identifier":
            self.pos += 1
            return Name(tok.lexeme, tok.loc)
        if tok.kind == "punctuation" and tok.lexeme == "(":
            self.pos += 1
            self.nest(tok)
            inner = self.expr()
            self.take("punctuation", ")")
            return inner
        raise self.error(("number", "identifier", "'('"))


def parse(tokens: list[Token]) -> ProgramAst:
    """Parse a token list into a program AST; raises ParseError on violation."""
    return _Parser(tokens).program()


def parse_source(source: str) -> ProgramAst:
    return parse(tokenize(source))


# --------------------------------------------------------------------------
# Printer
# --------------------------------------------------------------------------


def format_expr(e: Expr, prec: int = 0, head: bool = True) -> str:
    """Render an expression with minimal parentheses.

    `head` is true when a leading unary sign would be legal at this position
    (the grammar only allows it at the start of an expression).
    """
    if isinstance(e, Num):
        return str(e.value)
    if isinstance(e, Name):
        return e.ident
    if isinstance(e, Neg):
        s = "-" + format_expr(e.operand, 2, False)
        return s if head and prec < 2 else "(" + s + ")"
    if isinstance(e, BinOp):
        if e.op == "*":
            s = f"{format_expr(e.left, 2, False)} * {format_expr(e.right, 3, False)}"
            return s if prec < 3 else "(" + s + ")"
        s = f"{format_expr(e.left, 1, head)} {e.op} {format_expr(e.right, 2, False)}"
        return s if prec < 2 else "(" + s + ")"
    raise TypeError(f"not an expression: {e!r}")


def format_reg(r: RegRef) -> str:
    if r.index is None:
        return r.name
    return f"{r.name}[{format_expr(r.index)}]"


def _format_stmt(s: Stmt, indent: str, out: list[str]) -> None:
    if isinstance(s, Let):
        out.append(f"{indent}let {s.name} = {format_expr(s.value)};")
    elif isinstance(s, Declare):
        out.append(f"{indent}{s.keyword} {format_reg(s.reg)};")
    elif isinstance(s, Release):
        out.append(f"{indent}release {s.name};")
    elif isinstance(s, GateStmt):
        out.append(f"{indent}{s.name}[{', '.join(map(format_reg, s.operands))}];")
    elif isinstance(s, For):
        out.append(
            f"{indent}for {s.var} = {format_expr(s.start)} to {format_expr(s.stop)} {{"
        )
        for inner in s.body:
            _format_stmt(inner, indent + "    ", out)
        out.append(f"{indent}}}")
    else:
        raise TypeError(f"not a statement: {s!r}")


def print_program(ast: ProgramAst) -> str:
    """Pretty-print an AST; the output re-parses to an equal AST."""
    out: list[str] = []
    for s in ast.statements:
        _format_stmt(s, "", out)
    return "\n".join(out) + "\n"
