"""Problem-definition files: a line-oriented sectioned format.

Sections begin with ``[name]``, bindings are ``key = expression``, comments
start with ``#``.  Example::

    [chart]
    n = 2
    m = 1
    kind = connection

    [connection]
    v1 = x2
    v2 = x1

    [task]
    name = check-flat

Charts come in three kinds: ``connection`` (coordinates x_i, v^a),
``fc`` (adds the special coordinates v[a;I;A]), and ``evolution``
(coordinates x1, x2 aliased by ``names``, jets u[k], u2[k], ...).  Fiber
coordinates y1, y2, ... become legal inside [flatrep], [covering],
[cochain], [symmetry] values and [ansatz] symbol lists once a ``fibers``
count is declared.  Index forms: u[k] is the k-th spatial derivative,
v[a;I;A] carries comma-separated multi-indices, e.g. v[1;2,2;1].
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .expr import Expr, Symbol, const, fc, jet, param, render, v, x, y
from .jets import Evolution
from . import fce
from .flatrep import FlatRepSpec, covering_to_flatrep
from .reports import Report, emit_report  # re-exported: reports belong to this layer

__all__ = [
    "ProblemFile", "ParseError", "parse_problem", "render_problem",
    "Report", "emit_report", "TASKS",
]

# Tasks consuming problem files, with their required sections.
TASKS: Dict[str, Tuple[str, ...]] = {
    "check-flat": ("connection",),
    "dfc": ("symmetry",),
    "symmetry-from-f": ("symmetry",),
    "recover-f": ("symmetry",),
    "bracket": ("symmetry",),
    "check-flatrep": (),      # flatrep or covering, checked separately
    "pullback": (),
    "deformation": (),
    "exactness": ("cochain",),
    "lift": ("symmetry",),
}
_FLATREP_TASKS = ("check-flatrep", "pullback", "deformation", "exactness", "lift")


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int = 0):
        super().__init__("line %d:%d: %s" % (line, col, message))
        self.line = line
        self.col = col


# ---------------------------------------------------------------------------
# expression tokenizer / parser
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+)|(?P<name>[A-Za-z_]\w*)|(?P<op>[\[\];,()+\-*/^=]))"
)


def _tokenize(text: str, line: int):
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            rest = text[pos:].strip()
            if rest:
                raise ParseError("unexpected character %r" % rest[0], line, pos + 1)
            break
        kind = m.lastgroup
        out.append((kind, m.group(kind), m.start(kind) + 1))
        pos = m.end()
    return out


class _Env:
    """Symbol resolution for one chart (plus optional covering fibers)."""

    def __init__(self, n, m, kind, names=(), params=(), fibers=0):
        self.n = n
        self.m = m
        self.kind = kind
        self.fibers = fibers
        self.aliases = {name: x(i + 1) for i, name in enumerate(names)}
        self.params = {p: param(p) for p in params}

    def with_fibers(self, fibers: int) -> "_Env":
        return _Env(self.n, self.m, self.kind,
                    tuple(self.aliases), tuple(self.params), fibers)

    def resolve(self, name: str, groups, line: int, col: int) -> Symbol:
        if groups is None:
            if name in self.params:
                return self.params[name]
            if name in self.aliases:
                return self.aliases[name]
            m = re.fullmatch(r"x(\d+)", name)
            if m:
                i = int(m.group(1))
                nmax = 2 if self.kind == "evolution" else self.n
                if not 1 <= i <= nmax:
                    raise ParseError("independent %s out of range" % name, line, col)
                return x(i)
            m = re.fullmatch(r"v(\d+)", name)
            if m and self.kind in ("connection", "fc"):
                a = int(m.group(1))
                if not 1 <= a <= self.m:
                    raise ParseError("fiber coordinate %s out of range" % name, line, col)
                return v(a)
            m = re.fullmatch(r"y(\d+)", name)
            if m and self.fibers:
                b = int(m.group(1))
                if not 1 <= b <= self.fibers:
                    raise ParseError("covering fiber %s out of range" % name, line, col)
                return y(b)
            raise ParseError("undeclared variable %r" % name, line, col)
        # bracketed forms
        if self.kind == "evolution":
            m = re.fullmatch(r"u(\d*)", name)
            if m:
                alpha = int(m.group(1)) if m.group(1) else 1
                if not 1 <= alpha <= self.m:
                    raise ParseError("dependent %s out of range" % name, line, col)
                if len(groups) != 1 or len(groups[0]) != 1:
                    raise ParseError("jet form is u[k] with one order index", line, col)
                return jet(alpha, (1,) * groups[0][0])
        if self.kind == "fc" and name == "v":
            if len(groups) != 3 or len(groups[0]) != 1:
                raise ParseError("fc form is v[a;I;A]", line, col)
            alpha, ii, aa = groups[0][0], groups[1], groups[2]
            if not 1 <= alpha <= self.m or any(i > self.n for i in ii) or any(
                a > self.m for a in aa
            ):
                raise ParseError("fc coordinate indices out of range", line, col)
            if not ii:
                if aa:
                    raise ParseError("fc coordinate needs |I| >= 1 when A is nonempty",
                                     line, col)
                return v(alpha)
            return fc(alpha, ii, aa)
        raise ParseError("unknown indexed symbol %r" % name, line, col)


class _ExprParser:
    def __init__(self, tokens, env: _Env, line: int):
        self.tokens = tokens
        self.env = env
        self.line = line
        self.k = 0

    def peek(self):
        return self.tokens[self.k] if self.k < len(self.tokens) else (None, None, 0)

    def take(self, op=None):
        kind, text, col = self.peek()
        if kind is None:
            raise ParseError("unexpected end of expression", self.line, col)
        if op is not None and (kind != "op" or text != op):
            raise ParseError("expected %r, found %r" % (op, text), self.line, col)
        self.k += 1
        return kind, text, col

    def parse(self) -> Expr:
        e = self.expr()
        kind, text, col = self.peek()
        if kind is not None:
            raise ParseError("trailing input %r" % text, self.line, col)
        return e

    def expr(self) -> Expr:
        kind, text, _ = self.peek()
        negate = False
        if kind == "op" and text in "+-":
            self.take()
            negate = text == "-"
        e = self.term()
        if negate:
            e = -e
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.take()
                rhs = self.term()
                e = e + rhs if text == "+" else e - rhs
            else:
                return e

    def term(self) -> Expr:
        e = self.power()
        while True:
            kind, text, col = self.peek()
            if kind == "op" and text in "*/":
                self.take()
                rhs = self.power()
                if text == "*":
                    e = e * rhs
                else:
                    try:
                        e = e / rhs
                    except (ValueError, ZeroDivisionError) as exc:
                        raise ParseError(str(exc), self.line, col)
            else:
                return e

    def power(self) -> Expr:
        e = self.atom()
        kind, text, col = self.peek()
        if kind == "op" and text == "^":
            self.take()
            nk, ntext, ncol = self.peek()
            if nk != "num":
                raise ParseError("exponent must be a nonnegative integer", self.line, ncol)
            self.take()
            return e ** int(ntext)
        return e

    def atom(self) -> Expr:
        kind, text, col = self.take()
        if kind == "num":
            return const(int(text))
        if kind == "op" and text == "(":
            e = self.expr()
            self.take(")")
            return e
        if kind == "op" and text == "-":
            return -self.atom()
        if kind == "name":
            groups = None
            nk, ntext, _ = self.peek()
            if nk == "op" and ntext == "[":
                groups = self.index_groups()
            return Expr.wrap(self.env.resolve(text, groups, self.line, col))
        raise ParseError("unexpected token %r" % text, self.line, col)

    def index_groups(self):
        self.take("[")
        groups: List[List[int]] = [[]]
        while True:
            kind, text, col = self.take()
            if kind == "num":
                groups[-1].append(int(text))
            elif kind == "op" and text == ",":
                continue
            elif kind == "op" and text == ";":
                groups.append([])
            elif kind == "op" and text == "]":
                return groups
            else:
                raise ParseError("bad index list near %r" % text, self.line, col)


def _parse_expr(text: str, env: _Env, line: int) -> Expr:
    return _ExprParser(_tokenize(text, line), env, line).parse()


# ---------------------------------------------------------------------------
# file structure
# ---------------------------------------------------------------------------

@dataclass
class ProblemFile:
    n: int
    m: int
    kind: str
    names: Tuple[str, ...] = ()
    params: Tuple[str, ...] = ()
    connection: Optional[Dict[Tuple[int, int], Expr]] = None
    equation: Optional[List[Expr]] = None
    flatrep_fibers: int = 0
    flatrep_coeffs: Optional[Dict[Tuple[int, int], Expr]] = None
    covering_fibers: int = 0
    covering_fields: Optional[Dict[Tuple[int, int], Expr]] = None
    symmetry: Dict[str, Dict[Tuple[int, ...], Expr]] = field(default_factory=dict)
    cochain: Optional[Dict[Tuple[int, int], Expr]] = None
    ansatz_degree: Optional[int] = None
    ansatz_order: Optional[int] = None
    ansatz_symbols: Optional[Tuple[Symbol, ...]] = None
    task: Optional[str] = None
    task_options: Dict[str, str] = field(default_factory=dict)

    # ---- builders -----------------------------------------------------------
    def fc_chart(self) -> fce.FcChart:
        return fce.FcChart(self.n, self.m)

    def connection_spec(self) -> fce.ConnectionSpec:
        if self.connection is None:
            raise ValueError("problem has no [connection] section")
        return fce.ConnectionSpec(self.n, self.m, self.connection)

    def evolution(self) -> Evolution:
        if self.kind != "evolution" or self.equation is None:
            raise ValueError("problem has no evolution [equation] section")
        return Evolution(self.m, self.equation)

    def flat_representation(self) -> FlatRepSpec:
        scheme = self.evolution()
        coeffs = self.flatrep_coeffs if self.flatrep_coeffs is not None else self.covering_fields
        if coeffs is None:
            raise ValueError("problem has neither [flatrep] nor [covering]")
        fields = {}
        for (i, b), e in coeffs.items():
            fields.setdefault(i, {})[b] = e
        return covering_to_flatrep(scheme, fields, self.nfibers())

    def nfibers(self) -> int:
        return self.flatrep_fibers or self.covering_fibers


_KEYED = re.compile(r"^([A-Za-z]+)(\d+)(?:_(\d+))?$")


def _split_key(key: str, line: int):
    m = _KEYED.fullmatch(key)
    if not m:
        raise ParseError("malformed binding key %r" % key, line)
    return m.group(1), int(m.group(2)), (int(m.group(3)) if m.group(3) else None)


def parse_problem(text: str) -> ProblemFile:
    """Parse and fully validate a problem file; every expression is canonical."""
    sections: Dict[str, List[Tuple[int, str, str]]] = {}
    order: List[str] = []
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = re.fullmatch(r"\[(\w+)\]", line)
        if m:
            current = m.group(1)
            if current in sections:
                raise ParseError("duplicate section [%s]" % current, lineno)
            sections[current] = []
            order.append(current)
            continue
        if current is None:
            raise ParseError("binding outside any section", lineno)
        if "=" not in line:
            raise ParseError("expected 'key = value'", lineno)
        key, value = line.split("=", 1)
        sections[current].append((lineno, key.strip(), value.strip()))
    unknown = set(sections) - {
        "chart", "connection", "equation", "flatrep", "covering",
        "symmetry", "cochain", "ansatz", "task",
    }
    if unknown:
        raise ParseError("unknown section [%s]" % sorted(unknown)[0], 0)
    if "chart" not in sections:
        raise ParseError("missing [chart] section", 0)

    meta = {k: (ln, val) for ln, k, val in sections["chart"]}

    def chart_int(key):
        if key not in meta:
            raise ParseError("[chart] is missing %r" % key, 0)
        ln, val = meta[key]
        if not val.isdigit() or int(val) < 1:
            raise ParseError("%s must be a positive integer" % key, ln)
        return int(val)

    n = chart_int("n")
    m = chart_int("m")
    if "kind" not in meta:
        raise ParseError("[chart] is missing 'kind'", 0)
    kind_ln, kind = meta["kind"]
    if kind not in ("connection", "fc", "evolution"):
        raise ParseError("unknown chart kind %r" % kind, kind_ln)
    if kind == "evolution" and n != 2:
        raise ParseError("evolution charts have n = 2 (x and t)", meta["n"][0])
    names = tuple(s.strip() for s in meta.get("names", (0, ""))[1].split(",") if s.strip())
    params = tuple(s.strip() for s in meta.get("params", (0, ""))[1].split(",") if s.strip())
    if len(names) > n:
        raise ParseError("more names than independents", meta["names"][0])
    for p in params:
        if not p.isidentifier():
            raise ParseError("bad parameter name %r" % p, meta["params"][0])

    pf = ProblemFile(n=n, m=m, kind=kind, names=names, params=params)
    env = _Env(n, m, kind, names, params)

    def fiber_count(sec):
        rows = {k: (ln, val) for ln, k, val in sections[sec]}
        if "fibers" not in rows:
            raise ParseError("[%s] needs a fibers count" % sec, 0)
        ln, val = rows["fibers"]
        if not val.isdigit() or int(val) < 1:
            raise ParseError("fibers must be a positive integer", ln)
        return int(val)

    if "connection" in sections:
        if kind not in ("connection", "fc"):
            raise ParseError("[connection] needs a connection or fc chart", 0)
        coeffs = {}
        cenv = _Env(n, m, "connection", names, params)
        for ln, key, val in sections["connection"]:
            fam, i, a = _split_key(key, ln)
            if fam != "v" or (a is None and m != 1):
                raise ParseError("connection keys are v<i> or v<i>_<a>", ln)
            a = a or 1
            if not (1 <= i <= n and 1 <= a <= m):
                raise ParseError("index out of range in %r" % key, ln)
            coeffs[(i, a)] = _parse_expr(val, cenv, ln)
        pf.connection = coeffs

    if "equation" in sections:
        if kind != "evolution":
            raise ParseError("[equation] needs an evolution chart", 0)
        rhs: Dict[int, Expr] = {}
        for ln, key, val in sections["equation"]:
            fam, a, extra = _split_key(key, ln)
            if fam != "f" or extra is not None or not 1 <= a <= m:
                raise ParseError("equation keys are f1..f%d" % m, ln)
            rhs[a] = _parse_expr(val, env, ln)
        if set(rhs) != set(range(1, m + 1)):
            raise ParseError("equation must bind every dependent", 0)
        pf.equation = [rhs[a] for a in range(1, m + 1)]

    if "flatrep" in sections and "covering" in sections:
        raise ParseError("[flatrep] and [covering] are exclusive; declare one of them", 0)
    for sec, attr_fibers, attr_map, prefix in (
        ("flatrep", "flatrep_fibers", "flatrep_coeffs", "a"),
        ("covering", "covering_fibers", "covering_fields", "X"),
    ):
        if sec not in sections:
            continue
        if kind != "evolution":
            raise ParseError("[%s] needs an evolution chart" % sec, 0)
        nf = fiber_count(sec)
        setattr(pf, attr_fibers, nf)
        fenv = env.with_fibers(nf)
        out = {}
        for ln, key, val in sections[sec]:
            if key == "fibers":
                continue
            fam, i, b = _split_key(key, ln)
            if fam != prefix or (b is None and nf != 1):
                raise ParseError("%s keys are %s<i> or %s<i>_<b>" % (sec, prefix, prefix), ln)
            b = b or 1
            if not (1 <= i <= 2 and 1 <= b <= nf):
                raise ParseError("index out of range in %r" % key, ln)
            out[(i, b)] = _parse_expr(val, fenv, ln)
        setattr(pf, attr_map, out)

    if "cochain" in sections:
        nf = pf.nfibers()
        if not nf:
            raise ParseError("[cochain] needs a [flatrep] or [covering] first", 0)
        fenv = env.with_fibers(nf)
        out = {}
        for ln, key, val in sections["cochain"]:
            fam, i, b = _split_key(key, ln)
            if fam != "c" or (b is None and nf != 1):
                raise ParseError("cochain keys are c<i> or c<i>_<b>", ln)
            b = b or 1
            if not (1 <= i <= 2 and 1 <= b <= nf):
                raise ParseError("index out of range in %r" % key, ln)
            out[(i, b)] = _parse_expr(val, fenv, ln)
        pf.cochain = out

    if "symmetry" in sections:
        fenv = env.with_fibers(pf.nfibers())
        for ln, key, val in sections["symmetry"]:
            fam, i, a = _split_key(key, ln)
            if fam not in ("f", "g", "phi"):
                raise ParseError("symmetry keys start with f, g or phi", ln)
            bucket = pf.symmetry.setdefault(fam, {})
            if fam == "phi" and kind == "fc":
                a = a if a is not None else (1 if m == 1 else None)
                if a is None or not (1 <= i <= n and 1 <= a <= m):
                    raise ParseError("fc cochain keys are phi<i>_<a>", ln)
                bucket[(i, a)] = _parse_expr(val, fenv, ln)
            else:
                if a is not None or not 1 <= i <= m:
                    raise ParseError("component keys are %s1..%s%d" % (fam, fam, m), ln)
                bucket[(i,)] = _parse_expr(val, fenv, ln)

    if "ansatz" in sections:
        fenv = env.with_fibers(pf.nfibers())
        for ln, key, val in sections["ansatz"]:
            if key == "degree" or key == "order":
                if key == "order" and kind != "evolution":
                    raise ParseError("order bounds jet orders, and a %s chart has none"
                                     % kind, ln)
                if not val.isdigit():
                    raise ParseError("%s must be a nonnegative integer" % key, ln)
                setattr(pf, "ansatz_" + key, int(val))
            elif key == "symbols":
                syms = []
                for tok in val.split(","):
                    tok = tok.strip()
                    if not tok:
                        continue
                    e = _parse_expr(tok, fenv, ln)
                    terms = list(e.terms.items())
                    if len(terms) != 1 or len(terms[0][0]) != 1 or terms[0][0][0][1] != 1:
                        raise ParseError("%r is not a single symbol" % tok, ln)
                    syms.append(terms[0][0][0][0])
                pf.ansatz_symbols = tuple(syms)
            else:
                raise ParseError("unknown ansatz key %r" % key, ln)

    if "task" in sections:
        for ln, key, val in sections["task"]:
            if key == "name":
                if val not in TASKS:
                    raise ParseError("unknown task %r" % val, ln)
                pf.task = val
            else:
                pf.task_options[key] = val
        if pf.task is None:
            raise ParseError("[task] is missing 'name'", 0)
        _check_sections(pf)
    return pf


def _check_sections(pf: ProblemFile) -> None:
    need = TASKS[pf.task]
    have = {
        "connection": pf.connection is not None,
        "symmetry": bool(pf.symmetry),
        "cochain": pf.cochain is not None,
    }
    for sec in need:
        if not have.get(sec, False):
            raise ParseError("task %s requires a [%s] section" % (pf.task, sec), 0)
    if pf.task == "check-flat" and pf.kind not in ("connection", "fc"):
        raise ParseError("task check-flat needs a connection chart", 0)
    if pf.task in ("dfc", "symmetry-from-f", "recover-f", "bracket") and pf.kind != "fc":
        raise ParseError("task %s needs an fc chart" % pf.task, 0)
    if pf.task in _FLATREP_TASKS:
        if pf.kind != "evolution" or pf.equation is None:
            raise ParseError("task %s needs an evolution chart with [equation]" % pf.task, 0)
        if pf.flatrep_coeffs is None and pf.covering_fields is None:
            raise ParseError("task %s needs [flatrep] or [covering]" % pf.task, 0)


# ---------------------------------------------------------------------------
# canonical re-emission (round-trip stability)
# ---------------------------------------------------------------------------

def render_problem(pf: ProblemFile) -> str:
    """Canonical text whose parse equals ``pf`` (bit-exact expressions)."""
    out = ["[chart]", "n = %d" % pf.n, "m = %d" % pf.m, "kind = %s" % pf.kind]
    if pf.names:
        out.append("names = %s" % ", ".join(pf.names))
    if pf.params:
        out.append("params = %s" % ", ".join(pf.params))

    def emit(section, rows):
        out.append("")
        out.append("[%s]" % section)
        out.extend(rows)

    if pf.connection is not None:
        emit("connection", [
            "v%d_%d = %s" % (i, a, render(e)) if pf.m > 1 else "v%d = %s" % (i, render(e))
            for (i, a), e in sorted(pf.connection.items())
        ])
    if pf.equation is not None:
        emit("equation", ["f%d = %s" % (a, render(e)) for a, e in enumerate(pf.equation, 1)])
    for sec, nf, data, prefix in (
        ("flatrep", pf.flatrep_fibers, pf.flatrep_coeffs, "a"),
        ("covering", pf.covering_fibers, pf.covering_fields, "X"),
    ):
        if data is not None:
            rows = ["fibers = %d" % nf]
            for (i, b), e in sorted(data.items()):
                key = "%s%d" % (prefix, i) if nf == 1 else "%s%d_%d" % (prefix, i, b)
                rows.append("%s = %s" % (key, render(e)))
            emit(sec, rows)
    if pf.cochain is not None:
        nf = pf.nfibers()
        rows = []
        for (i, b), e in sorted(pf.cochain.items()):
            key = "c%d" % i if nf == 1 else "c%d_%d" % (i, b)
            rows.append("%s = %s" % (key, render(e)))
        emit("cochain", rows)
    if pf.symmetry:
        rows = []
        for fam in sorted(pf.symmetry):
            for key, e in sorted(pf.symmetry[fam].items()):
                if len(key) == 1:
                    rows.append("%s%d = %s" % (fam, key[0], render(e)))
                else:
                    rows.append("%s%d_%d = %s" % (fam, key[0], key[1], render(e)))
        emit("symmetry", rows)
    if pf.ansatz_degree is not None or pf.ansatz_order is not None or pf.ansatz_symbols:
        rows = []
        if pf.ansatz_degree is not None:
            rows.append("degree = %d" % pf.ansatz_degree)
        if pf.ansatz_order is not None:
            rows.append("order = %d" % pf.ansatz_order)
        if pf.ansatz_symbols:
            rows.append("symbols = %s" % ", ".join(render(s) for s in pf.ansatz_symbols))
        emit("ansatz", rows)
    if pf.task is not None:
        rows = ["name = %s" % pf.task]
        rows.extend("%s = %s" % (k, pf.task_options[k]) for k in sorted(pf.task_options))
        emit("task", rows)
    return "\n".join(out) + "\n"
