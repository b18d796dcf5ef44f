import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qborrow.frontend import (
    GATE_ARITY,
    INT64_MAX,
    MAX_NESTING,
    BinOp,
    Declare,
    For,
    GateStmt,
    LexError,
    Let,
    Name,
    Neg,
    Num,
    ParseError,
    ProgramAst,
    RegRef,
    Release,
    UnterminatedComment,
    format_expr,
    parse_source,
    print_program,
    tokenize,
)
from qborrow.elaborator import elaborate_source


# --------------------------------------------------------------------------
# lexer


def kinds(source):
    return [(t.kind, t.lexeme) for t in tokenize(source)]


def test_let_statement_tokens():
    assert kinds("let n = 50;") == [
        ("keyword", "let"),
        ("identifier", "n"),
        ("operator", "="),
        ("number", "50"),
        ("punctuation", ";"),
    ]


def test_borrow_at_is_one_keyword():
    assert kinds("borrow@ q;")[0] == ("keyword", "borrow@")


def test_borrow_at_needs_adjacency():
    # '@' on its own is not a token
    with pytest.raises(LexError, match="unexpected character '@'"):
        tokenize("borrow @ q;")


def test_keywords_vs_identifiers():
    toks = kinds("for to borrow release alloc X CNOT CCNOT fore X2")
    assert toks[:8] == [
        ("keyword", "for"),
        ("keyword", "to"),
        ("keyword", "borrow"),
        ("keyword", "release"),
        ("keyword", "alloc"),
        ("keyword", "X"),
        ("keyword", "CNOT"),
        ("keyword", "CCNOT"),
    ]
    assert toks[8:] == [("identifier", "fore"), ("identifier", "X2")]


def test_token_positions():
    toks = tokenize("let a = 1;\n  X[b];")
    assert (toks[0].line, toks[0].column) == (1, 1)
    x = [t for t in toks if t.lexeme == "X"][0]
    assert (x.line, x.column) == (2, 3)


def test_line_comment_elided():
    assert kinds("let a = 1; // let b = 2;\nlet c = 3;") == kinds("let a = 1;\nlet c = 3;")


def test_block_comment_elided_and_not_nested():
    assert kinds("a /* x /* y */ b") == [("identifier", "a"), ("identifier", "b")]


def test_block_comment_spans_lines():
    toks = tokenize("a /* 1\n2\n3 */ b")
    assert toks[1].line == 3


def test_column_after_block_comment_spanning_lines():
    b = tokenize("a /* 1\n2 */ b")[1]
    assert (b.lexeme, b.line, b.column) == ("b", 2, 6)


def test_crlf_line_endings():
    # '\r' is whitespace that takes a column; '\n' starts the next line
    toks = tokenize("let a = 1;\r\nX[a];\r\n")
    assert [(t.lexeme, t.line, t.column) for t in toks[4:6]] == [(";", 1, 10), ("X", 2, 1)]


def test_line_comment_ends_at_lone_cr():
    # QBorrow.g4's LINE_COMMENT stops at '\r' as well as at '\n'
    ast = parse_source("borrow a;// c\rX[a];")
    assert ast.statements[-1] == GateStmt("X", (RegRef("a", None),))


def test_crlf_positions_after_line_comment():
    toks = tokenize("let a = 1; // c\r\nX[a];\r\n")
    assert [(t.lexeme, t.line, t.column) for t in toks[4:6]] == [(";", 1, 10), ("X", 2, 1)]


def test_unterminated_block_comment():
    with pytest.raises(UnterminatedComment):
        tokenize("let a = 1; /* oops")


def test_unterminated_block_comment_location():
    with pytest.raises(UnterminatedComment, match=r"^2:7: unterminated '/\*' comment"):
        tokenize("let a = 1;\nX[a]; /* open\nstill open")


@pytest.mark.parametrize(
    "source, column, char",
    [("borrow a[\u00b2];", 10, "\u00b2"), ("borrow \u00e9;", 8, "\u00e9"), ("let n = \u0663;", 9, "\u0663")],
)
def test_non_ascii_letters_and_digits_rejected(source, column, char):
    # QBorrow.g4 defines ID and NUMBER over ASCII classes only
    with pytest.raises(LexError, match=f"^1:{column}: unexpected character {char!r}"):
        tokenize(source)


def test_int64_literal_limit():
    tokenize("let a = 9223372036854775807;")  # max is fine
    with pytest.raises(LexError, match="64-bit"):
        tokenize("let a = 9223372036854775808;")


@pytest.mark.parametrize(
    "digits",
    ["1" + "0" * 19, "9" * 5000, "0" * 4990 + "9223372036854775808"],
    ids=["20-digits", "5000-digits", "leading-zeros"],
)
def test_long_literals_fail_with_a_located_lex_error(digits):
    # int() refuses strings of over 4300 digits, so the length goes first
    with pytest.raises(LexError, match=r"^1:9: integer literal \d+ exceeds 64-bit range$"):
        tokenize(f"let a = {digits};")


def test_leading_zeros_do_not_count_towards_the_literal_limit():
    for digits in ("0" * 5000 + "9223372036854775807", "0" * 5000, "007"):
        program = parse_source(f"let a = {digits};")
        assert program == parse_source(f"let a = {int(digits.lstrip('0') or '0')};")


def test_unexpected_character():
    with pytest.raises(LexError, match=r"1:7.*'\$'"):
        tokenize("let a $ 1;")


# --------------------------------------------------------------------------
# parser


def test_reg_forms():
    prog = parse_source("borrow q; borrow r[n + 1];")
    a, b = prog.statements
    assert a == Declare("borrow", RegRef("q", None))
    assert b == Declare("borrow", RegRef("r", BinOp("+", Name("n"), Num(1))))


def test_precedence_mul_binds_tighter():
    prog = parse_source("let a = 1 + 2 * 3;")
    assert prog.statements[0] == Let("a", BinOp("+", Num(1), BinOp("*", Num(2), Num(3))))


def test_left_associativity():
    prog = parse_source("let a = 1 - 2 - 3;")
    assert prog.statements[0] == Let("a", BinOp("-", BinOp("-", Num(1), Num(2)), Num(3)))


def test_leading_sign_applies_to_first_term():
    # the grammar derives -3*4 as (-(3*4)), not (-3)*4
    prog = parse_source("let a = -3 * 4;")
    assert prog.statements[0] == Let("a", Neg(BinOp("*", Num(3), Num(4))))


def test_leading_plus():
    prog = parse_source("let a = +5;")
    assert prog.statements[0] == Let("a", Num(5))


def test_parenthesized_expr():
    prog = parse_source("let a = (1 + 2) * 3;")
    assert prog.statements[0] == Let("a", BinOp("*", BinOp("+", Num(1), Num(2)), Num(3)))


def test_gates_and_for():
    prog = parse_source("for i = 1 to n { X[q[i]]; CNOT[a, b]; CCNOT[a, b, c]; }")
    (loop,) = prog.statements
    assert isinstance(loop, For)
    assert loop.var == "i" and loop.start == Num(1) and loop.stop == Name("n")
    x, cnot, ccnot = loop.body
    assert x == GateStmt("X", (RegRef("q", Name("i")),))
    assert cnot == GateStmt("CNOT", (RegRef("a", None), RegRef("b", None)))
    assert ccnot == GateStmt("CCNOT", (RegRef("a", None), RegRef("b", None), RegRef("c", None)))


def test_release_and_skip():
    prog = parse_source("borrow@ t; release t;")
    assert prog.statements == (Declare("borrow@", RegRef("t", None)), Release("t"))


def test_empty_program_rejected():
    with pytest.raises(ParseError):
        parse_source("")
    with pytest.raises(ParseError):
        parse_source("/* nothing */")


def test_missing_semicolon():
    with pytest.raises(ParseError, match=r"expected ';'"):
        parse_source("X[q]")


def test_missing_expression():
    with pytest.raises(ParseError, match="1:9") as exc:
        parse_source("let x = ;")
    assert "expected" in str(exc.value)


def test_error_location_on_later_line():
    with pytest.raises(ParseError, match="3:1"):
        parse_source("let a = 1;\nlet b = 2;\n= 3;")


def test_sequence_of_statements():
    prog = parse_source("let a = 1; let b = 2; borrow q;")
    assert len(prog.statements) == 3


def nested_parens(depth):
    return "borrow a;\nX[a[" + "(" * depth + "1" + ")" * depth + "]];\n"


def operator_chain(depth):
    return "borrow a;\nX[a[" + "*".join(["1"] * (depth + 1)) + "]];\n"


def nested_fors(depth):
    loops = "".join(f"for i{k} = 1 to 1 {{\n" for k in range(depth))
    return "borrow a;\n" + loops + "X[a];\n" + "}\n" * depth


@pytest.mark.parametrize(
    "program, at",
    [
        (nested_parens, "2:" + str(5 + MAX_NESTING)),
        (operator_chain, "2:" + str(6 + 2 * MAX_NESTING)),
        (nested_fors, str(2 + MAX_NESTING) + ":1"),
    ],
)
def test_nesting_is_capped(program, at):
    # MAX_NESTING levels parse, elaborate and print; one more is a located error
    source = program(MAX_NESTING)
    ast = parse_source(source)
    assert parse_source(print_program(ast)) == ast
    assert len(elaborate_source(source).gates) == 1
    with pytest.raises(ParseError, match=f"^{at}: expected at most {MAX_NESTING} levels"):
        parse_source(program(MAX_NESTING + 1))


# --------------------------------------------------------------------------
# printer


def test_format_expr_minimal_parens():
    e = BinOp("*", BinOp("+", Num(1), Num(2)), Num(3))
    assert format_expr(e) == "(1 + 2) * 3"
    e = BinOp("+", Num(1), BinOp("*", Num(2), Num(3)))
    assert format_expr(e) == "1 + 2 * 3"
    e = BinOp("-", Num(1), BinOp("-", Num(2), Num(3)))
    assert format_expr(e) == "1 - (2 - 3)"


@pytest.mark.parametrize(
    "src",
    [
        "let n = 8;\nborrow q[n];\nX[q[1]];\n",
        "borrow a[2 * (3 + 4)];\nCNOT[a[1], a[2]];\nrelease a;\n",
        "let n = 4;\nfor i = 1 to n {\n    X[q[i]];\n    for j = i to 2 {\n        CNOT[q[i], q[j]];\n    }\n}\n",
        "let a = -(1 + 2);\nlet b = -3 * 4;\nlet c = 1 - 2 - 3;\nborrow q;\n",
        "alloc c[3];\nborrow@ t;\nCCNOT[c[1], c[2], t];\n",
    ],
)
def test_print_parse_round_trip(src):
    # printing then reparsing must reproduce the AST exactly
    prog = parse_source(src)
    printed = print_program(prog)
    assert parse_source(printed) == prog
    # and printing is a fixpoint
    assert print_program(parse_source(printed)) == printed


# identifiers, some of them a keyword plus a suffix
names = st.sampled_from(["a", "n", "q_1", "_", "X2", "fore", "borrowed", "CNOTs"])
exprs = st.recursive(
    st.integers(0, INT64_MAX).map(Num) | names.map(Name),
    lambda sub: sub.map(Neg)
    | st.builds(BinOp, st.sampled_from("+-*"), sub, sub),
    max_leaves=6,
)
regs = st.builds(RegRef, names, st.none() | exprs)
simple_stmts = st.one_of(
    st.builds(Let, names, exprs),
    st.builds(Declare, st.sampled_from(["borrow", "borrow@", "alloc"]), regs),
    st.builds(Release, names),
    *(st.builds(GateStmt, st.just(g), st.tuples(*[regs] * n)) for g, n in GATE_ARITY.items()),
)
stmts = st.recursive(
    simple_stmts,
    lambda sub: st.builds(For, names, exprs, exprs, st.lists(sub, max_size=3).map(tuple)),
    max_leaves=8,
)


@settings(max_examples=100, deadline=None)
@given(st.lists(stmts, min_size=1, max_size=5).map(tuple))
def test_print_parse_round_trip_generated(statements):
    ast = ProgramAst(statements)
    assert parse_source(print_program(ast)) == ast
