#!/usr/bin/env python3
"""Minimal SMT-LIB2 solver shim: reads a script of (declare-const X Bool) /
(define-fun X () Bool E) / (assert E) / (check-sat) forms and prints `sat`
or `unsat`.  Like a conforming solver it rejects a declaration or definition
of a Core builtin such as `true` or `false`, and of a name already in use.

Used by the test suite as a stand-in external solver when no real SMT tool
is installed. Decisions are delegated to sympy's DPLL, which shares no code
with the package's internal solver, so agreement is meaningful.

Usage: smt_shim.py FILE.smt2
"""

import sys

import sympy
from sympy.logic.inference import satisfiable


def tokenize(text):
    out = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch in "()":
            out.append(ch)
            i += 1
        elif ch.isspace():
            i += 1
        elif ch == ";":  # comment to end of line
            while i < n and text[i] != "\n":
                i += 1
        else:
            j = i
            while j < n and not text[j].isspace() and text[j] not in "();":
                j += 1
            out.append(text[i:j])
            i = j
    return out


def read_form(tokens, pos):
    tok = tokens[pos]
    if tok == "(":
        form = []
        pos += 1
        while tokens[pos] != ")":
            sub, pos = read_form(tokens, pos)
            form.append(sub)
        return form, pos + 1
    if tok == ")":
        raise ValueError("unbalanced ')'")
    return tok, pos + 1


class Encoder:
    """Definitional CNF over parsed forms.

    sympy's satisfiable() would otherwise run a distributive CNF conversion,
    which explodes on wide xors; introducing one fresh symbol per distinct
    subterm keeps the clause set linear in the script size. Equisatisfiable,
    which is all the sat/unsat answer needs.
    """

    def __init__(self, symbols):
        self.symbols = symbols
        self.clauses = []
        self.cache = {}
        self.n_aux = 0
        self.contradiction = False

    def fresh(self):
        self.n_aux += 1
        return sympy.Symbol(f"aux!{self.n_aux}")

    def assert_form(self, form):
        lit = self.lit(freeze(form))
        if lit is sympy.false:
            self.contradiction = True
        elif lit is not sympy.true:
            self.clauses.append(lit)

    def lit(self, form):
        if isinstance(form, str):
            if form == "true":
                return sympy.true
            if form == "false":
                return sympy.false
            if form not in self.symbols:
                raise ValueError(f"undeclared symbol {form!r}")
            return self.symbols[form]
        cached = self.cache.get(form)
        if cached is not None:
            return cached
        head = form[0]
        args = [self.lit(a) for a in form[1:]]
        if head == "not":
            (arg,) = args
            out = negate(arg)
        elif head == "and":
            out = self.gate_and([a for a in args if a is not sympy.true])
        elif head == "or":
            out = negate(self.gate_and([negate(a) for a in args if a is not sympy.false]))
        elif head == "xor":
            out = self.gate_xor(args)
        else:
            raise ValueError(f"unsupported operator {head!r}")
        self.cache[form] = out
        return out

    def gate_and(self, args):
        if any(a is sympy.false for a in args):
            return sympy.false
        if not args:
            return sympy.true
        if len(args) == 1:
            return args[0]
        d = self.fresh()
        for a in args:
            self.clauses.append(sympy.Or(sympy.Not(d), a))
        self.clauses.append(sympy.Or(d, *[negate(a) for a in args]))
        return d

    def gate_xor(self, args):
        flip = sum(a is sympy.true for a in args) % 2 == 1
        rest = [a for a in args if a not in (sympy.true, sympy.false)]
        acc = sympy.false
        for a in rest:
            acc = a if acc is sympy.false else self.xor2(acc, a)
        return negate(acc) if flip else acc

    def xor2(self, a, b):
        d = self.fresh()
        na, nb, nd = negate(a), negate(b), sympy.Not(d)
        self.clauses.append(sympy.Or(nd, a, b))
        self.clauses.append(sympy.Or(nd, na, nb))
        self.clauses.append(sympy.Or(d, na, b))
        self.clauses.append(sympy.Or(d, a, nb))
        return d


def negate(lit):
    if lit is sympy.true:
        return sympy.false
    if lit is sympy.false:
        return sympy.true
    return sympy.Not(lit)


def freeze(form):
    return tuple(freeze(x) for x in form) if isinstance(form, list) else form


CORE_SYMBOLS = frozenset(["true", "false", "not", "and", "or", "xor", "=>", "=", "ite", "distinct"])


def bind(enc, name, value):
    if name in CORE_SYMBOLS or name in enc.symbols:
        raise ValueError(f"cannot bind {name!r}: builtin or already bound")
    enc.symbols[name] = value


def main(path):
    with open(path) as f:
        tokens = tokenize(f.read())
    enc = Encoder({})
    pos = 0
    while pos < len(tokens):
        form, pos = read_form(tokens, pos)
        if not isinstance(form, list) or not form:
            raise ValueError(f"bad top-level form: {form!r}")
        if form[0] == "declare-const":
            name, sort = form[1], form[2]
            if sort != "Bool":
                raise ValueError(f"unsupported sort {sort!r}")
            bind(enc, name, sympy.Symbol(name))
        elif form[0] == "define-fun":
            name, params, sort, body = form[1:]
            if params != [] or sort != "Bool":
                raise ValueError(f"unsupported definition of {name!r}")
            bind(enc, name, enc.lit(freeze(body)))
        elif form[0] == "assert":
            enc.assert_form(form[1])
        elif form[0] == "check-sat":
            if enc.contradiction:
                print("unsat")
            elif not enc.clauses:
                print("sat")
            else:
                print("sat" if satisfiable(sympy.And(*enc.clauses)) else "unsat")
        elif form[0] in ("set-logic", "set-info", "set-option", "exit"):
            pass
        else:
            raise ValueError(f"unsupported command {form[0]!r}")


if __name__ == "__main__":
    main(sys.argv[1])
