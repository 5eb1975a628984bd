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
(coordinates x1, x2 aliased by ``names``, jets u[k], u2[k], ...).  Index
forms: u[k] is the k-th spatial derivative, v[a;I;A] carries
comma-separated multi-indices, e.g. v[1;2,2;1].

This module owns the file schema.  ``TASKS`` holds, for each file task, the
chart kinds it accepts, the sections it requires and the ``[task]`` options
it reads; ``parse_problem`` validates a file against it once, for the task
the file declares or the one it is invoked as.  Every ``key = value`` line
goes through one reader, which refuses a key bound twice in a section.

Symbols are judged by the chart the file declares; ``_Env`` only spells
them.  An fc file is judged by the ``fce.FcChart`` its tasks compute on, a
connection file and a [connection] section by the chart of
``flatrep.connection``, an evolution file by an ``Evolution`` scheme, whose
covering fibers y1, y2, ... join it once a [flatrep] or [covering] reads its
``fibers`` count, and the pullback's ``expr`` by the fc chart of the
pullback.  A refusal, the chart's or the symbol constructor's, reads the
symbol's line and column.
"""

from __future__ import annotations

import re
from collections import namedtuple
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .expr import ZERO, Expr, Symbol, const, fc, jet, param, render, v, x, y
from .jets import Chart, Evolution
from . import fce
from .flatrep import FlatRepSpec, connection, covering_to_flatrep

__all__ = ["ProblemFile", "ParseError", "parse_problem", "render_problem", "TASKS"]


# A file task: the chart kinds it accepts, the sections it requires and the
# [task] options it reads.
FileTask = namedtuple("FileTask", "kinds sections options", defaults=((),))
# A [flatrep] or [covering] section, two spellings of one with the key prefixes
# below: the header the file used, its fiber count and its fields {(i, b): Expr}.
FlatRepSection = namedtuple("FlatRepSection", "header fibers fields")
_FLATREP_PREFIX = {"flatrep": "a", "covering": "X"}
TASKS: Dict[str, FileTask] = {
    "check-flat": FileTask(("connection", "fc"), ("connection",)),
    "dfc": FileTask(("fc",), ("symmetry",)),
    "symmetry-from-f": FileTask(("fc",), ("symmetry",)),
    "recover-f": FileTask(("fc",), ("symmetry",)),
    "bracket": FileTask(("fc",), ("symmetry",)),
    "check-flatrep": FileTask(("evolution",), ("equation", "flatrep")),
    "pullback": FileTask(("evolution",), ("equation", "flatrep"), ("expr",)),
    "deformation": FileTask(("evolution",), ("equation", "flatrep"), ("param", "at")),
    "exactness": FileTask(("evolution",), ("equation", "flatrep", "cochain")),
    "lift": FileTask(("evolution",), ("equation", "flatrep", "symmetry")),
}
# How a refusal words the chart a task needs, by its first kind, and the
# sections it needs that are not worded "requires a [<section>] section".
_CHART_NEED = {"connection": "a connection chart", "fc": "an fc chart",
               "evolution": "an evolution chart with [equation]"}
_SECTION_NEED = {"equation": "needs " + _CHART_NEED["evolution"],
                 "flatrep": "needs [flatrep] or [covering]"}


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
    """Spells the symbols of one chart, which judges each one."""

    def __init__(self, chart: Chart, names=(), params=()):
        self.chart = chart
        self.aliases = {name: x(i + 1) for i, name in enumerate(names)}
        self.params = {p: param(p) for p in params}

    def resolve(self, name: str, groups, line: int, col: int) -> Symbol:
        """The symbol ``name`` spells with its index ``groups`` (None without
        brackets), once the chart accepts it; any refusal reads line:col."""
        try:
            s = self._spell(name, groups)
            self.chart.check_symbol(s)
        except ValueError as exc:
            raise ParseError(str(exc), line, col) from None
        return s

    def _spell(self, name: str, groups) -> Symbol:
        if groups is None:
            if name in self.params:
                return self.params[name]
            if name in self.aliases:
                return self.aliases[name]
            m = _COORDINATE.fullmatch(name)
            if m:
                return _COORDINATES[m.group(1)](int(m.group(2)))
            raise ValueError("undeclared variable %r" % name)
        m = re.fullmatch(r"u(\d*)", name)
        if m:
            if len(groups) != 1 or len(groups[0]) != 1:
                raise ValueError("jet form is u[k] with one order index")
            return jet(int(m.group(1) or 1), (1,) * groups[0][0])
        if name == "v":
            if len(groups) != 3 or len(groups[0]) != 1:
                raise ValueError("fc form is v[a;I;A]")
            return fc(groups[0][0], groups[1], groups[2])
        raise ValueError("unknown indexed symbol %r" % name)


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

    # expr  = ["+"] term {("+" | "-") term}
    # term  = unary {("*" | "/") unary}
    # unary = "-" unary | power          (so -x^2 is -(x^2), and 2*-x^2 too)
    # power = atom ["^" num]
    def expr(self) -> Expr:
        kind, text, _ = self.peek()
        if kind == "op" and text == "+":
            self.take()
        e = self.term()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.take()
                rhs = self.term()
                e = e + rhs if text == "+" else e - rhs
            else:
                return e

    def term(self) -> Expr:
        e = self.unary()
        while True:
            kind, text, col = self.peek()
            if kind == "op" and text in "*/":
                self.take()
                rhs = self.unary()
                if text == "*":
                    e = e * rhs
                else:
                    try:
                        e = e / rhs
                    except (ValueError, ZeroDivisionError) as exc:
                        raise ParseError(str(exc), self.line, col)
            else:
                return e

    def unary(self) -> Expr:
        kind, text, _ = self.peek()
        if kind == "op" and text == "-":
            self.take()
            return -self.unary()
        return self.power()

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

class ProblemFile:
    """A parsed problem file: the chart, then what the parser fills in from
    the other sections (mutable by design); a field the file does not set is
    None and a map empty; ``flatrep`` is the :data:`FlatRepSection` of a
    [flatrep] or [covering] section.  ``pullback_expr`` (on the fc chart
    of the pullback), ``deformation_param`` and ``deformation_at`` are the
    [task] keys expr, param (else the one parameter) and at."""

    __slots__ = ("n", "m", "kind", "names", "params", "connection", "equation", "flatrep",
                 "symmetry", "cochain", "ansatz_degree", "ansatz_order", "ansatz_symbols",
                 "task", "task_options", "pullback_expr", "deformation_param", "deformation_at",
                 "_chart")

    def __init__(self, n: int, m: int, kind: str, names: Tuple[str, ...] = (),
                 params: Tuple[str, ...] = ()):
        self.n, self.m, self.kind, self.names, self.params = n, m, kind, names, params
        for name in self.__slots__[5:]:
            setattr(self, name, None)
        self.symmetry: Dict[str, Dict[Tuple[int, ...], Expr]] = {}
        self.task_options: Dict[str, str] = {}

    # ---- builders -----------------------------------------------------------
    def fc_chart(self) -> fce.FcChart:
        """The chart that judged the symbols of an fc file, one per file."""
        if self.kind != "fc":
            raise ValueError("problem has no fc chart")
        return self._chart

    def connection_spec(self) -> FlatRepSpec:
        if self.connection is None:
            raise ValueError("problem has no [connection] section")
        return connection(self.n, self.m, self.connection)

    def evolution(self) -> Evolution:
        if self.kind != "evolution" or self.equation is None:
            raise ValueError("problem has no evolution [equation] section")
        return Evolution(self.m, self.equation)

    def flat_representation(self) -> FlatRepSpec:
        scheme = self.evolution()
        if self.flatrep is None:
            raise ValueError("problem has neither [flatrep] nor [covering]")
        return covering_to_flatrep(scheme, self.flatrep.fields, self.flatrep.fibers)


_SECTIONS = ("chart", "connection", "equation", "flatrep", "covering",
             "symmetry", "cochain", "ansatz", "task")
_CHART_KEYS = ("n", "m", "kind", "names", "params")
_KEYED = re.compile(r"([A-Za-z]+)(0|[1-9]\d*)(?:_(0|[1-9]\d*))?")
_COORDINATE = re.compile(r"([xvy])(\d+)")
_COORDINATES = {"x": x, "v": v, "y": y}
# The chart that judges a file of each kind (and a [connection]), from n and m.
_JUDGES = {"connection": lambda n, m: connection(n, m, {}).scheme,
           "fc": fce.FcChart,
           "evolution": lambda n, m: Evolution(m, [ZERO] * m)}


def _read_sections(text: str) -> Tuple[Dict[str, Dict[str, Tuple[int, str]]], Dict[str, int]]:
    """{section: {key: (line, value)}} in file order, and {section: line of
    its header}; a key bound twice in one section is refused."""
    sections: Dict[str, Dict[str, Tuple[int, str]]] = {}
    headers: Dict[str, int] = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = re.fullmatch(r"\[(\w+)\]", line)
        if m:
            current = m.group(1)
            if current not in _SECTIONS:
                raise ParseError("unknown section [%s]" % current, lineno)
            if current in sections:
                raise ParseError("duplicate section [%s]" % current, lineno)
            sections[current] = {}
            headers[current] = lineno
            continue
        if current is None:
            raise ParseError("binding outside any section", lineno)
        if "=" not in line:
            raise ParseError("expected 'key = value'", lineno)
        key, value = (s.strip() for s in line.split("=", 1))
        rows = sections[current]
        if key in rows:
            raise ParseError("%r is bound twice in [%s], first on line %d"
                             % (key, current, rows[key][0]), lineno)
        rows[key] = (lineno, value)
    return sections, headers


def _split_key(key: str, line: int):
    m = _KEYED.fullmatch(key)
    if not m:
        raise ParseError("malformed binding key %r" % key, line)
    return m.group(1), int(m.group(2)), (int(m.group(3)) if m.group(3) else None)


def _indexed(rows: Dict[str, Tuple[int, str]], prefix: str, n: int, m: int, env: _Env,
             message: str) -> Dict[Tuple[int, int], Expr]:
    """The ``<prefix><i>_<j>`` bindings of a section as {(i, j): Expr}, with
    1 <= i <= n and 1 <= j <= m; ``_<j>`` may be left out when m is 1, but
    an entry is bound by one spelling only.  ``message`` refuses other keys."""
    out: Dict[Tuple[int, int], Expr] = {}
    for key, (ln, val) in rows.items():
        fam, i, j = _split_key(key, ln)
        if fam != prefix or (j is None and m != 1):
            raise ParseError(message, ln)
        j = 1 if j is None else j
        if not (1 <= i <= n and 1 <= j <= m):
            raise ParseError("index out of range in %r" % key, ln)
        if (i, j) in out:
            raise ParseError("%r binds an entry bound on an earlier line" % key, ln)
        out[(i, j)] = _parse_expr(val, env, ln)
    return out


def _positive(rows: Dict[str, Tuple[int, str]], key: str, missing: str, header: int) -> int:
    if key not in rows:
        raise ParseError(missing, header)
    ln, val = rows[key]
    if not val.isdecimal() or int(val) < 1:
        raise ParseError("%s must be a positive integer" % key, ln)
    return int(val)


def _name_list(rows: Dict[str, Tuple[int, str]], key: str) -> Tuple[int, Tuple[str, ...]]:
    ln, val = rows.get(key, (0, ""))
    return ln, tuple(s.strip() for s in val.split(",") if s.strip())


def parse_problem(text: str, task: Optional[str] = None) -> ProblemFile:
    """Parse and fully validate a problem file; every expression is canonical.

    The file is checked against ``TASKS`` for the task it declares, or for
    ``task``, the task it is invoked as; a file that declares another task
    is refused.  A refusal of a whole section reads the line of its header;
    one of the file for its task, that of the [task] header, else of the
    [chart] header."""
    sections, headers = _read_sections(text)
    if "chart" not in sections:
        raise ParseError("missing [chart] section", 0)
    chart = sections["chart"]
    for key, (ln, _) in chart.items():
        if key not in _CHART_KEYS:
            raise ParseError("unknown [chart] key %r" % key, ln)

    n = _positive(chart, "n", "[chart] is missing 'n'", headers["chart"])
    m = _positive(chart, "m", "[chart] is missing 'm'", headers["chart"])
    if "kind" not in chart:
        raise ParseError("[chart] is missing 'kind'", headers["chart"])
    kind_ln, kind = chart["kind"]
    if kind not in ("connection", "fc", "evolution"):
        raise ParseError("unknown chart kind %r" % kind, kind_ln)
    if kind == "evolution" and n != 2:
        raise ParseError("evolution charts have n = 2 (x and t)", chart["n"][0])
    names_ln, names = _name_list(chart, "names")
    params_ln, params = _name_list(chart, "params")
    if len(names) > n:
        raise ParseError("more names than independents", names_ln)
    for p in params:
        if not p.isidentifier() or _COORDINATE.fullmatch(p):
            raise ParseError("bad parameter name %r" % p, params_ln)
        if params.count(p) > 1:
            raise ParseError("parameter %r is given twice" % p, params_ln)
    for s in names:
        if not s.isidentifier() or _COORDINATE.fullmatch(s) or s in params or names.count(s) > 1:
            raise ParseError("bad name %r: a name is an identifier, given once, and neither a "
                             "parameter nor a coordinate x<k>, v<k>, y<k>" % s, names_ln)

    pf = ProblemFile(n=n, m=m, kind=kind, names=names, params=params)
    pf._chart = _JUDGES[kind](n, m)
    env = _Env(pf._chart, names, params)

    if "connection" in sections:
        if kind not in ("connection", "fc"):
            raise ParseError("[connection] needs a connection or fc chart",
                             headers["connection"])
        pf.connection = _indexed(sections["connection"], "v", n, m,
                                 _Env(_JUDGES["connection"](n, m), names, params),
                                 "connection keys are v<i> or v<i>_<a>")

    if "equation" in sections:
        if kind != "evolution":
            raise ParseError("[equation] needs an evolution chart", headers["equation"])
        rhs: Dict[int, Expr] = {}
        for key, (ln, val) in sections["equation"].items():
            fam, a, extra = _split_key(key, ln)
            if fam != "f" or extra is not None or not 1 <= a <= m:
                raise ParseError("equation keys are f1..f%d" % m, ln)
            rhs[a] = _parse_expr(val, env, ln)
        if set(rhs) != set(range(1, m + 1)):
            raise ParseError("equation must bind every dependent", headers["equation"])
        pf.equation = [rhs[a] for a in range(1, m + 1)]

    if "flatrep" in sections and "covering" in sections:
        raise ParseError("[flatrep] and [covering] are exclusive; declare one of them",
                         max(headers["flatrep"], headers["covering"]))
    nf, fenv = 0, env  # the later sections may use the fiber coordinates
    for sec, prefix in _FLATREP_PREFIX.items():
        if sec not in sections:
            continue
        if kind != "evolution":
            raise ParseError("[%s] needs an evolution chart" % sec, headers[sec])
        rows = dict(sections[sec])
        nf = _positive(rows, "fibers", "[%s] needs a fibers count" % sec, headers[sec])
        del rows["fibers"]
        fenv = _Env(covering_to_flatrep(pf._chart, {}, nf).scheme, names, params)
        pf.flatrep = FlatRepSection(sec, nf, _indexed(
            rows, prefix, 2, nf, fenv, "%s keys are %s<i> or %s<i>_<b>" % (sec, prefix, prefix)))

    if "cochain" in sections:
        if not nf:
            raise ParseError("[cochain] needs a [flatrep] or [covering] first",
                             headers["cochain"])
        pf.cochain = _indexed(sections["cochain"], "c", 2, nf, fenv,
                              "cochain keys are c<i> or c<i>_<b>")

    if "symmetry" in sections:
        fc_phi = {}
        for key, (ln, val) in sections["symmetry"].items():
            fam, i, a = _split_key(key, ln)
            if fam not in ("f", "g", "phi"):
                raise ParseError("symmetry keys start with f, g or phi", ln)
            if fam == "phi" and kind == "fc":
                fc_phi[key] = (ln, val)
            elif a is not None or not 1 <= i <= m:
                raise ParseError("component keys are %s1..%s%d" % (fam, fam, m), ln)
            else:
                pf.symmetry.setdefault(fam, {})[(i,)] = _parse_expr(val, fenv, ln)
        if fc_phi:
            pf.symmetry["phi"] = _indexed(fc_phi, "phi", n, m, fenv,
                                          "fc cochain keys are phi<i>_<a>")

    if "ansatz" in sections:
        for key, (ln, val) in sections["ansatz"].items():
            if key == "degree" or key == "order":
                if key == "order" and kind != "evolution":
                    raise ParseError("order bounds jet orders, and a %s chart has none"
                                     % kind, ln)
                if not val.isdecimal():
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
                    if (len(terms) != 1 or terms[0][1] != 1 or len(terms[0][0]) != 1
                            or terms[0][0][0][1] != 1):
                        raise ParseError("%r is not a single symbol" % tok, ln)
                    syms.append(terms[0][0][0][0])
                pf.ansatz_symbols = tuple(syms)
            else:
                raise ParseError("unknown ansatz key %r" % key, ln)

    options = dict(sections.get("task", {}))
    if "task" in sections:
        if "name" not in options:
            raise ParseError("[task] is missing 'name'", headers["task"])
        ln, declared = options.pop("name")
        if declared not in TASKS:
            raise ParseError("unknown task %r" % declared, ln)
        if task is not None and task != declared:
            raise ParseError("problem file declares task %r, invoked as %r"
                             % (declared, task), ln)
        task = declared
    pf.task = task
    file_ln = headers.get("task", headers["chart"])
    if task is not None:
        _check_task(pf, task, file_ln)
    for key, (ln, val) in options.items():
        if key not in TASKS[task].options:
            raise ParseError("task %s reads no option %r" % (task, key), ln)
        pf.task_options[key] = val
    if "expr" in options:
        ln, val = options["expr"]
        pf.pullback_expr = _parse_expr(val, _Env(fce.FcChart(2, nf), (), params), ln)
    elif task == "pullback":
        raise ParseError("pullback needs an 'expr' option in [task]", file_ln)
    if task == "deformation":
        if "param" in options:
            ln, name = options["param"]
            if name not in params:
                raise ParseError("parameter %r is not declared in the chart" % name, ln)
        elif len(params) == 1:
            name = params[0]
        else:
            raise ParseError("deformation needs a 'param' option or exactly one parameter",
                             file_ln)
        pf.deformation_param = name
    if "at" in options:
        ln, val = options["at"]
        try:
            pf.deformation_at = Fraction(val)
        except (ValueError, ZeroDivisionError):
            raise ParseError("at must be a rational number, got %r" % val, ln)
    return pf


def _check_task(pf: ProblemFile, task: str, line: int) -> None:
    need = TASKS[task]
    if pf.kind not in need.kinds:
        raise ParseError("task %s needs %s" % (task, _CHART_NEED[need.kinds[0]]), line)
    have = {"connection": pf.connection is not None, "equation": pf.equation is not None,
            "flatrep": pf.flatrep is not None, "symmetry": bool(pf.symmetry),
            "cochain": pf.cochain is not None}
    for sec in need.sections:
        if not have[sec]:
            what = _SECTION_NEED.get(sec, "requires a [%s] section" % sec)
            raise ParseError("task %s %s" % (task, what), line)


# ---------------------------------------------------------------------------
# canonical re-emission (round-trip stability)
# ---------------------------------------------------------------------------

def _indexed_rows(prefix: str, data: Dict[Tuple[int, ...], Expr], short: bool) -> List[str]:
    """The ``<prefix><i>_<j>`` lines of ``data``, which ``_indexed`` reads
    back; ``short`` leaves out the second index, which is then 1."""
    return ["%s%s = %s" % (prefix, "_".join(str(i) for i in (key[:1] if short else key)),
                           render(e)) for key, e in sorted(data.items())]


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
        emit("connection", _indexed_rows("v", pf.connection, pf.m == 1))
    if pf.equation is not None:
        emit("equation", ["f%d = %s" % (a, render(e)) for a, e in enumerate(pf.equation, 1)])
    if pf.flatrep is not None:
        sec, nf, data = pf.flatrep
        emit(sec, ["fibers = %d" % nf] + _indexed_rows(_FLATREP_PREFIX[sec], data, nf == 1))
    if pf.cochain is not None:
        emit("cochain", _indexed_rows("c", pf.cochain, pf.flatrep.fibers == 1))
    if pf.symmetry:
        emit("symmetry", [row for fam in sorted(pf.symmetry)
                          for row in _indexed_rows(fam, pf.symmetry[fam], False)])
    rows = ["%s = %d" % (key, bound) for key, bound in
            (("degree", pf.ansatz_degree), ("order", pf.ansatz_order)) if bound is not None]
    if pf.ansatz_symbols is not None:
        rows.append(("symbols = " + ", ".join(render(s) for s in pf.ansatz_symbols)).rstrip())
    if rows:
        emit("ansatz", rows)
    if pf.task is not None:
        rows = ["name = %s" % pf.task]
        rows.extend("%s = %s" % (k, pf.task_options[k]) for k in sorted(pf.task_options))
        emit("task", rows)
    return "\n".join(out) + "\n"
