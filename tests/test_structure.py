"""Structural rules of the package.  Each keeps one construction of the
paper in one place (ROADMAP aim 2), and each is a row of ``RULES``.  One
scan, ``scan``, reads every module of the package once and applies every
row to it.  A row either flags the lines that match its pattern outside
the scopes where a match is allowed, or flags what its ``ast`` check
finds.  Each row has a planted violation that it must flag, line by line,
and most have an allowed copy of the same text that it must not flag.

A scope is a (module, qualified name) pair, read from the ``ast`` line
range of a ``class`` or ``def``; a line nested in an allowed scope is
allowed too.  ``def_lines`` allow the ``def`` line of a function alone,
not its body."""

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "padic_fourier"


def spelled_by_one_method(module, tree):
    """Module-level functions that are, past their docstring, one return of
    a public method of their first parameter or of a binary operator on two
    of their parameters: each operation has one spelling, the method."""
    for fn in tree.body:
        if not isinstance(fn, ast.FunctionDef) or not fn.args.args:
            continue
        body = fn.body[ast.get_docstring(fn) is not None:]
        params = [a.arg for a in fn.args.args]
        if len(body) != 1 or not isinstance(body[0], ast.Return):
            continue
        v = body[0].value
        method = (isinstance(v, ast.Call) and isinstance(v.func, ast.Attribute)
                  and not v.func.attr.startswith("_")
                  and isinstance(v.func.value, ast.Name) and v.func.value.id == params[0])
        binop = isinstance(v, ast.BinOp) and all(
            isinstance(x, ast.Name) and x.id in params for x in (v.left, v.right))
        if method or binop:
            yield fn.lineno, fn.name


DERIVED = {"__neg__", "__sub__", "__rsub__", "__radd__", "__rmul__"}
DERIVED_ALLOWED = {("padic", "Ring", name) for name in DERIVED} | {("padic", "PadicScalar", "__neg__")}


def derived_operators(module, tree):
    """Classes that define or assign an operator that follows from the
    type's own + and *: those are written once, in padic.Ring, but for the
    primitive negation of PadicScalar."""
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for item in cls.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names = [item.name]
            elif isinstance(item, (ast.Assign, ast.AnnAssign)):
                targets = item.targets if isinstance(item, ast.Assign) else [item.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            for name in sorted(DERIVED.intersection(names)):
                if (module, cls.name, name) not in DERIVED_ALLOWED:
                    yield item.lineno, f"{cls.name}.{name}"


def oracle_docstrings(module, tree):
    """Functions whose docstring calls them an oracle.  A slow reference
    computation serves the tests, in ``tests/oracles.py``; the package keeps
    none on a job path."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if re.search(r"\boracle", ast.get_docstring(node) or "", re.IGNORECASE):
                yield node.lineno, node.name


@dataclass(frozen=True)
class Rule:
    name: str
    # a text row flags each line that matches ``pattern``; an ast row
    # flags each (line, text) that ``check(module, tree)`` yields
    pattern: Optional[str] = None
    check: Optional[Callable] = None
    skip: frozenset = frozenset()       # modules the row does not read
    excuse: Optional[str] = None        # a line matching it is never flagged
    scopes: frozenset = frozenset()     # (module, qualname): a match is allowed inside
    def_lines: frozenset = frozenset()  # (module, qualname): its def line may match
    count: Optional[int] = None         # lines that must match in the whole package
    # ({file: text}, [(file, line), ...]): files planted under tmp_path and
    # the lines the row must flag in them
    planted: tuple = ({}, [])
    # {file: text}: the same kind of text where the row allows it
    allowed: Optional[dict] = None


RULES = [
    # the packed slot layout is known to _series alone: no other module
    # may use one of its private names
    Rule(
        "series-private-names",
        pattern=r"_series\._",
        skip=frozenset({"_series"}),
        planted=({"iwasawa.py": "from . import _series\n\nx = _series._pack([1, 2], 8)\n"},
                 [("iwasawa.py", 3)]),
        allowed={"_series.py": "def f():\n    return _series._pack([1, 2], 8)\n"},
    ),
    # a value type sets its slots through Immutable._set: no other code in
    # the package writes past the refusal of assignment
    Rule(
        "object-setattr",
        pattern=r"object\.__setattr__",
        scopes=frozenset({("padic", "Immutable")}),
        planted=({"padic.py": "class Immutable:\n    pass\n\n\nclass Other(Immutable):\n"
                              "    def _set(self, v):\n        object.__setattr__(self, 'v', v)\n"},
                 [("padic.py", 7)]),
        allowed={"padic.py": "class Immutable:\n    __slots__ = ()\n\n    def _set(self, **slots):\n"
                             "        for name, value in slots.items():\n"
                             "            object.__setattr__(self, name, value)\n"},
    ),
    # a valuation marker is built by the scalar valuation and by the one
    # series rule, _series.w_valuation: no series type keeps a rule of its own
    Rule(
        "lower-bound",
        pattern=r"LowerBound\(",
        skip=frozenset({"padic", "_series"}),
        planted=({"ainf.py": "def wval(self):\n    return LowerBound(3)\n"}, [("ainf.py", 2)]),
        allowed={"_series.py": "def w_valuation(terms):\n    return LowerBound(3)\n",
                 "padic.py": "def valuation(x):\n    return LowerBound(3)\n"},
    ),
    # a count is read by padic._count and a Q_p degree bound by
    # padic._degree: outside padic no code writes an int test or a degree
    # reader of its own, but the coefficient test of the JSON reader
    # IwasawaElt.from_json, which must raise ParseError
    Rule(
        "counts-and-degrees",
        pattern=r"is not int|Fraction\(degree",
        skip=frozenset({"padic"}),
        excuse=r"any\(type\(c\) is not int for c in coeffs\)",
        planted=({"cli.py": "def f(n, degree):\n    if type(n) is not int:\n        raise ValueError\n"
                            "    return Fraction(degree)\n"},
                 [("cli.py", 2), ("cli.py", 4)]),
        allowed={"iwasawa.py": "def from_json(coeffs):\n"
                               "    if any(type(c) is not int for c in coeffs):\n        raise ParseError\n",
                 "padic.py": "def _count(n):\n    if type(n) is not int:\n        raise ValueError\n"},
    ),
    # (x choose q) has one level rule, padic._gen_binomials: outside padic
    # no code evaluates a binomial by its own level or walk
    Rule(
        "generalized-binomials",
        pattern=r"gen_binomial\(|comb_tracked\(",
        skip=frozenset({"padic"}),
        planted=({"fourier.py": "def f(x, q, n):\n    return gen_binomial(x, q, n), comb_tracked(2, 5, 4, 3, 6)\n"
                                "\n\ndef g(x):\n    return _gen_binomials(x)\n"},
                 [("fourier.py", 2)]),
        allowed={"padic.py": "def gen_binomial(x, q, n):\n    return comb_tracked(2, 5, 4, 3, 6)\n"},
    ),
    # the powers of p below a cut are counted by one rule, padic.log_floor:
    # outside padic no degree cut, floor or level count searches for a power
    # of p by a loop of its own
    Rule(
        "powers-of-p",
        pattern=r"while .*\*\*|if p ?\*\* ?\(",
        skip=frozenset({"padic"}),
        planted=({"ainf.py": "def cut(p, d):\n    k = 0\n    while p ** k < d:\n        k += 1\n"
                             "    if p**(k - 1) >= d:\n        k -= 1\n    if p ** (k) > d:\n        pass\n"},
                 [("ainf.py", 3), ("ainf.py", 5), ("ainf.py", 7)]),
        allowed={"padic.py": "def log_floor(p, d):\n    k = 0\n    while p ** k < d:\n        k += 1\n"},
    ),
    # ball values are folded in one place, IwasawaElt._ball_values, which
    # cuts the fold at T^(prec·p^h) and keeps one fold per radius: no other
    # code calls the fold of _series, _series.ball_residues, whose one block
    # and halving levels have no entry of their own: inside _series only its
    # def line names it
    Rule(
        "ball-fold",
        pattern=r"ball_residues\(",
        scopes=frozenset({("iwasawa", "IwasawaElt._ball_values")}),
        def_lines=frozenset({("_series", "ball_residues")}),
        planted=({"iwasawa.py": "class IwasawaElt:\n    def ball_measure(self, h):\n"
                                "        return _series.ball_residues(self.coeffs, h, 8)\n",
                  "_series.py": "def ball_residues(coeffs, r, mod):\n"
                                "    return ball_residues(coeffs[:r], r, mod)\n"},
                 [("_series.py", 2), ("iwasawa.py", 3)]),
        allowed={"iwasawa.py": "class IwasawaElt:\n    def _ball_values(self, h):\n"
                               "        def fold(r):\n"
                               "            return _series.ball_residues(self.coeffs, r, 8)\n"
                               "        return fold(h)\n",
                 "_series.py": "def ball_residues(coeffs, r, mod):\n    return coeffs\n"},
    ),
    # the job budget reads PADIC_FOURIER_MAX_BOX in one place, cli._budget:
    # a command may not grow a cap reader of its own, and _budget reads it
    # on exactly one line
    Rule(
        "environment-reader",
        pattern=r"environ|getenv",
        scopes=frozenset({("cli", "_budget")}),
        count=1,
        planted=({"cli.py": "import os\n\nCAP = os.environ.get('PADIC_FOURIER_MAX_BOX')\n"},
                 [("cli.py", 3)]),
        allowed={"cli.py": "import os\n\n\ndef _budget(argv):\n"
                           "    return os.environ.get('PADIC_FOURIER_MAX_BOX', '1000000')\n"},
    ),
    # records carry their shape from where they are built (cli._Rows): the
    # JSON writer infers none
    Rule(
        "record-shapes",
        pattern=r"_shape\(|_leaves\(",
        planted=({"cli.py": "def _dump(record):\n    return _shape(record), list(_leaves(record))\n"},
                 [("cli.py", 2)]),
    ),
    # equality has one skeleton, padic.Immutable.__eq__, and operands one
    # rule, padic._same: no other module writes an __eq__, answers
    # NotImplemented or raises its own PrimeMismatch
    Rule(
        "equality-skeleton",
        pattern=r"def __eq__|NotImplemented|raise PrimeMismatch",
        skip=frozenset({"padic", "cli"}),
        planted=({"witt.py": "class WittElt:\n    def __eq__(self, other):\n"
                             "        if type(other) is not WittElt:\n            return NotImplemented\n"
                             "        if other.p != self.p:\n            raise PrimeMismatch(self.p, other.p)\n"},
                 [("witt.py", 2), ("witt.py", 4), ("witt.py", 6)]),
        allowed={"padic.py": "class Immutable:\n    def __eq__(self, other):\n        return NotImplemented\n"},
    ),
    # each operation has one spelling, the method
    Rule(
        "one-spelling",
        check=spelled_by_one_method,
        planted=({"ainf.py": "def pairing(f, mu):\n    \"\"\"The pairing.\"\"\"\n    return f.pair(mu)\n\n\n"
                             "def add(x, y):\n    return x + y\n\n\n"
                             "def shift(x, n):\n    return x._shift(n)\n\n\n"
                             "def twice(x):\n    y = x + x\n    return y\n"},
                 [("ainf.py", 1), ("ainf.py", 6)]),
    ),
    # the operators that follow from a type's own + and * are written once,
    # in padic.Ring
    Rule(
        "derived-operators",
        check=derived_operators,
        planted=({"padic.py": "class Ring:\n    def __sub__(self, other):\n        return self + -other\n\n\n"
                              "class PadicScalar(Ring):\n    def __neg__(self):\n        return self\n"
                              "    def __sub__(self, other):\n        return self\n\n\n"
                              "class Other(Ring):\n    __rmul__ = __mul__ = None\n"},
                 [("padic.py", 9), ("padic.py", 14)]),
    ),
    # C(x, n) along a row is read in one place, the Z_p Dirac mass
    # iwasawa.dirac: every other row, a Mahler evaluation included, is a
    # pairing with it; inside padic only the def line names the row
    Rule(
        "binomial-row",
        pattern=r"binomial_row_tracked\(",
        scopes=frozenset({("iwasawa", "dirac")}),
        def_lines=frozenset({("padic", "binomial_row_tracked")}),
        planted=({"iwasawa.py": "class MahlerFn:\n    def eval(self, x):\n"
                                "        return binomial_row_tracked(2, x, 4, 8, 6)\n",
                  "padic.py": "def binomial_row_tracked(p, X, M, n_max, work):\n    pass\n\n\n"
                              "def gen_binomial(x):\n    return binomial_row_tracked(2, x, 4, 8, 6)\n"},
                 [("iwasawa.py", 3), ("padic.py", 6)]),
        allowed={"iwasawa.py": "def dirac(a, degree, prec):\n"
                               "    cs = binomial_row_tracked(2, a, 4, degree - 1, prec)\n    return cs\n",
                 "padic.py": "def binomial_row_tracked(p, X, M, n_max, work):\n    pass\n"},
    ),
    # a slow reference computation is a test oracle, not package code
    Rule(
        "oracle-docstrings",
        check=oracle_docstrings,
        planted=({"mod.py": "class A:\n    def slow(self):\n"
                            '        """Independent oracle: the schoolbook product."""\n\n\n'
                            'def fast():\n    """The packed product."""\n'},
                 [("mod.py", 2)]),
    ),
]


def _spans(tree, prefix=""):
    """(qualified name, first line, last line) of each class and def."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            name = prefix + node.name
            yield name, node.lineno, node.end_lineno
            yield from _spans(node, name + ".")
        else:
            yield from _spans(node, prefix)


def scan(root, rules=RULES):
    """{row name: [(file, line, text), ...]} of what each row flags in the
    modules under ``root``, read once each."""
    flagged = {rule.name: [] for rule in rules}
    matched = {rule.name: [] for rule in rules}
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        module = rel[:-len(".py")].replace("/", ".")
        text = path.read_text(encoding="utf-8")
        tree = ast.parse(text, rel)
        spans = list(_spans(tree))
        for rule in rules:
            if path.stem in rule.skip:
                continue
            if rule.check is not None:
                flagged[rule.name] += [(rel, n, t) for n, t in rule.check(module, tree)]
                continue
            for n, line in enumerate(text.split("\n"), 1):
                if not re.search(rule.pattern, line) or (rule.excuse and re.search(rule.excuse, line)):
                    continue
                matched[rule.name].append((rel, n, line))
                if not any(lo <= n <= hi and (module, q) in rule.scopes
                           or n == lo and (module, q) in rule.def_lines for q, lo, hi in spans):
                    flagged[rule.name].append((rel, n, line))
    for rule in rules:
        found = matched[rule.name]
        if rule.count is not None and len(found) != rule.count:
            flagged[rule.name] = found + [("", 0, f"{len(found)} lines match, not {rule.count}")]
    return flagged


def _plant(root, files):
    for name, text in files.items():
        (root / name).write_text(text, encoding="utf-8")


@pytest.fixture(scope="module")
def package_scan():
    return scan(SRC)


@pytest.mark.parametrize("rule", RULES, ids=lambda rule: rule.name)
def test_rule_holds_in_the_package(rule, package_scan):
    assert package_scan[rule.name] == []


@pytest.mark.parametrize("rule", RULES, ids=lambda rule: rule.name)
def test_rule_flags_its_planted_violation(rule, tmp_path):
    files, lines = rule.planted
    _plant(tmp_path, files)
    assert [(f, n) for f, n, _ in scan(tmp_path, [rule])[rule.name]] == lines


@pytest.mark.parametrize("rule", [rule for rule in RULES if rule.allowed], ids=lambda rule: rule.name)
def test_rule_leaves_its_allowed_copy(rule, tmp_path):
    _plant(tmp_path, rule.allowed)
    assert scan(tmp_path, [rule])[rule.name] == []


def test_environment_reader_reads_on_exactly_one_line(tmp_path):
    (rule,) = [rule for rule in RULES if rule.name == "environment-reader"]
    _plant(tmp_path, {"cli.py": "import os\n\n\ndef _budget():\n    a = os.environ.get('A')\n"
                                "    return a, os.getenv('B')\n"})
    assert [(f, n) for f, n, _ in scan(tmp_path, [rule])[rule.name]] == [("cli.py", 5), ("cli.py", 6), ("", 0)]
    (tmp_path / "cli.py").write_text("def _budget():\n    return 1000000\n")
    assert [(f, n) for f, n, _ in scan(tmp_path, [rule])[rule.name]] == [("", 0)]
