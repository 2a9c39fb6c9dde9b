"""Structure checks on the abplab sources: every top-level import of a
module is used by it, every private top-level name is used somewhere in the
package, only geometry decides the model kind and weight, only geometry
turns an inner product into a distance and it sums them without einsum,
the Jacobi integrator takes no Python-level loop per time step, every
dataclass field is read somewhere in the package or the benchmark, the
Newton refinement and its jets scale no batch over the trailing point axis,
every abplab name the benchmark binds, read from its sources, still exists,
every top-level name and method of the package is reached from the CLI's
main or from what the benchmark binds, no public function or dataclass takes
a model beside a field or grid that carries it or a ledger beside the params
it is built from, every flag a CLI subcommand declares is read by its run,
and importing the CLI leaves numpy.polynomial unloaded."""

import ast
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

from abplab.fields import ScalarField

SRC = Path(__file__).resolve().parent.parent / "src" / "abplab"
MODULES = sorted(SRC.glob("*.py"))
PERFBENCH = SRC.parent.parent / "perfbench"


def unused_imports(source: str) -> list:
    """Names bound by top-level imports that the module never references
    and does not list in __all__."""
    tree = ast.parse(source)
    imported = {}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used and name not in exported)


def test_modules_found():
    assert {p.name for p in MODULES} >= {"__init__.py", "contact.py", "cli.py"}


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_detector_flags_and_accepts():
    src = ("from __future__ import annotations\n"
           "import math\nimport os.path\nfrom typing import Optional, Sequence\n"
           "from .x import exported\n"
           "__all__ = ['exported']\n"
           "def f(v: Optional[int]):\n    return math.pi\n")
    assert unused_imports(src) == ["Sequence (line 4)", "os (line 3)"]


def dead_helpers(sources: dict) -> list:
    """Private top-level functions, classes and constants (module: name) that
    no module of sources references: by name, as an attribute or in an import."""
    defined, used = set(), set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                names = []
            defined |= {(module, n) for n in names if n.startswith("_") and not n.startswith("__")}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used |= {alias.name for alias in node.names}
    return sorted(f"{module}: {name}" for module, name in defined if name not in used)


def test_no_dead_private_helpers():
    assert dead_helpers({p.name: p.read_text() for p in MODULES}) == []


def test_dead_helper_detector_flags_and_accepts():
    sources = {
        "a.py": ("__all__ = ['f']\n_USED = 1\n_DEAD = 2\n_ATTR = 3\n_IMPORTED = 4\n"
                 "def _helper():\n    return _USED\n"
                 "def _orphan():\n    return 0\n"
                 "class _Unused:\n    pass\n"
                 "def f():\n    return _helper()\n"),
        "b.py": ("from .a import _IMPORTED\nimport a\n"
                 "_local: int = 0\n"
                 "def g():\n    _DEAD_LOCAL = 1\n    return a._ATTR\n"),
    }
    assert dead_helpers(sources) == ["a.py: _DEAD", "a.py: _Unused", "a.py: _orphan",
                                     "b.py: _local"]


def _dataclass_fields(cls) -> list:
    """The field names of a class decorated with dataclass, [] for another class."""
    decorators = [d.func if isinstance(d, ast.Call) else d for d in cls.decorator_list]
    if not any(isinstance(d, ast.Name) and d.id == "dataclass" for d in decorators):
        return []
    return [s.target.id for s in cls.body
            if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)]


def dead_fields(sources: dict, readers) -> list:
    """"module: Class.field" for each field of a dataclass of sources that no
    text of readers reads by name, as x.field or getattr(x, "field"), unless
    its class emits all its fields through dataclasses.fields, as
    ConstantsLedger.to_dict does."""
    read = set()
    for n in (n for text in readers for n in ast.walk(ast.parse(text))):
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            read.add(n.attr)
        elif (isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == "getattr"
              and len(n.args) > 1 and isinstance(n.args[1], ast.Constant)):
            read.add(n.args[1].value)
    dead = []
    for module, source in sources.items():
        for cls in ast.parse(source).body:
            if not isinstance(cls, ast.ClassDef) or any(
                    isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
                    and n.func.id == "fields" for n in ast.walk(cls)):
                continue
            dead += [f"{module}: {cls.name}.{f}" for f in _dataclass_fields(cls) if f not in read]
    return sorted(dead)


def test_every_dataclass_field_is_read():
    # a field that neither the package nor the benchmark reads is stored for
    # nothing: it costs a write per state and a positional slot per caller
    sources = {p.name: p.read_text() for p in MODULES}
    readers = [*sources.values(), *(p.read_text() for p in sorted(PERFBENCH.glob("*.py")))]
    assert dead_fields(sources, readers) == []


def test_dead_field_detector_flags_and_accepts():
    sources = {
        "a.py": ("from dataclasses import dataclass, fields\n"
                 "@dataclass\nclass State:\n    J: int\n    Jdot: int\n    w: int = 0\n"
                 "@dataclass(frozen=True)\nclass Ledger:\n    mu: int\n"
                 "    def to_dict(self):\n        return {f.name: 1 for f in fields(self)}\n"
                 "class Plain:\n    unread: int = 0\n"
                 "def f(st):\n    st.w = 1\n    return st.J\n"),
        "b.py": "@dataclass\nclass Report:\n    lhs: float\n    rhs: float\n    n: int\n",
    }
    readers = [*sources.values(), "def g(rep):\n    return rep.rhs, getattr(rep, 'lhs')\n"]
    assert dead_fields(sources, readers) == ["a.py: State.Jdot", "a.py: State.w", "b.py: Report.n"]


MODEL_KINDS = {"euclidean", "sphere", "hyperbolic", "gaussian_plane"}


def model_decisions(source: str) -> list:
    """Lines that compare a `.kind` attribute with a model's name or read a
    `.lam` attribute: the kind and the weight are geometry.ModelSpace's alone."""
    def names(node):
        if isinstance(node, ast.Constant):
            return {node.value}
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            return {e.value for e in node.elts if isinstance(e, ast.Constant)}
        return set()

    def decides(node):
        if isinstance(node, ast.Attribute):
            return node.attr == "lam" and isinstance(node.ctx, ast.Load)
        operands = (node.left, *node.comparators) if isinstance(node, ast.Compare) else ()
        return (any(isinstance(o, ast.Attribute) and o.attr == "kind" for o in operands)
                and any(names(o) & MODEL_KINDS for o in operands))

    return sorted({node.lineno for node in ast.walk(ast.parse(source)) if decides(node)})


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "geometry.py"],
                         ids=[p.name for p in MODULES if p.name != "geometry.py"])
def test_curvature_sign_stays_in_geometry(path):
    assert model_decisions(path.read_text()) == []


def test_curvature_detector_flags_and_accepts():
    src = ('if m.kind == "sphere":\n    pass\n'
           'ok = rep.kind == "eq" or kind == "gaussian_plane"\n'
           'bad = "hyperbolic" != g.model.kind\n'
           'name = kind == "sphere"\n'
           'also = m.kind in ("euclidean", "sphere")\n'
           'flat = m.kind == "gaussian_plane"\n'
           'w = 0.5 * spec.model.lam * r\n'
           'm = ModelSpace("gaussian_plane", lam=getattr(args, "lam"))\n'
           'self.lam = 1.0\n')
    assert model_decisions(src) == [1, 4, 6, 7, 8]


def matrix_einsums(source: str) -> list:
    """Lines of einsum subscripts whose output keeps two or more explicit
    indices, such as the outer product "...i,...j->...ij": each builds a
    matrix per point.  ScalarField.hess, which returns the embedding matrix,
    is exempt."""
    tree = ast.parse(source)
    exempt = set()
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef) and cls.name == "ScalarField":
            for fn in cls.body:
                if isinstance(fn, ast.FunctionDef) and fn.name == "hess":
                    exempt |= {id(n) for n in ast.walk(fn)}
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and id(node) not in exempt and node.value.count("->") == 1
                  and len(node.value.split("->")[1].replace(".", "").strip()) >= 2)


FRAME_MODULES = ("fields.py", "contact.py", "barrier.py")


@pytest.mark.parametrize("name", FRAME_MODULES)
def test_hessians_stay_in_frame_components(name):
    assert matrix_einsums((SRC / name).read_text()) == []


def test_matrix_einsum_detector_flags_and_accepts():
    src = ('class ScalarField:\n'
           '    def hess(self, E, h):\n'
           '        return np.einsum("...ai,...ab,...bj->...ij", E, h, E)\n'
           'def f(a, b, H):\n'
           '    s = np.einsum("...i,...i->...", a, b)\n'
           '    t = np.einsum("...i,...ij,...j->...", a, H, b)\n'
           '    return np.einsum("...i,...j->...ij", a, b)\n'
           'OUTER = "...i,...j->...ij"\n'
           'def hess(e):\n'
           '    return np.einsum("...i,...j->...ij", e, e)\n')
    assert matrix_einsums(src) == [7, 8, 10]


INVERSE_TRIG = {"arccos", "arccosh", "arcsin", "arcsinh", "arctan2",
                "acos", "acosh", "asin", "asinh", "atan2"}


def inverse_trig_uses(source: str) -> list:
    """Lines that name an inverse circular or hyperbolic function (numpy's
    arccos ... arctan2, math's acos ... atan2), called or passed on: the
    distance is ModelSpace's chord decomposition alone."""
    return sorted({node.lineno for node in ast.walk(ast.parse(source))
                   if (isinstance(node, ast.Attribute) and node.attr in INVERSE_TRIG)
                   or (isinstance(node, ast.Name) and node.id in INVERSE_TRIG)})


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "geometry.py"],
                         ids=[p.name for p in MODULES if p.name != "geometry.py"])
def test_distances_stay_in_geometry(path):
    assert inverse_trig_uses(path.read_text()) == []


def test_inverse_trig_detector_flags_and_accepts():
    src = ("import math\nimport numpy as np\nfrom numpy import arcsinh\n"
           "rho = np.arccos(np.clip(c, -1.0, 1.0))\n"
           "t = math.atan2(y, x)\n"
           "f = np.arccosh\n"
           "g = arcsinh(x) + np.cos(x) + np.sinh(x)\n"
           "arccos_table = {'name': 'arcsin'}\n"
           "h = np.arctan(x) + math.acosh(2.0)\n")
    assert inverse_trig_uses(src) == [4, 5, 6, 7, 9]


def per_step_loops(source: str) -> list:
    """Lines of loops that may run once per time step: a `for` over anything
    but range() of literals or of a bit_length() (so range(n_steps),
    range(len(times) - 1), a time array or enumerate(times) are flagged), and
    a `while` whose test reads n_steps, a len() or a .shape.  The propagator
    runs its ceil(log2(n_steps + 1)) doubling blocks as
    range(int(n_steps).bit_length())."""
    def reads_a_count(expr):
        if (isinstance(expr, ast.Call) and isinstance(expr.func, ast.Attribute)
                and expr.func.attr == "bit_length"):
            return False
        return isinstance(expr, ast.Name) or any(map(reads_a_count, ast.iter_child_nodes(expr)))

    def per_step(node):
        if isinstance(node, ast.For):
            it = node.iter
            return not (isinstance(it, ast.Call) and isinstance(it.func, ast.Name)
                        and it.func.id == "range" and not any(map(reads_a_count, it.args)))
        if isinstance(node, ast.While):
            return any((isinstance(n, ast.Name) and n.id in ("n_steps", "len"))
                       or (isinstance(n, ast.Attribute) and n.attr == "shape")
                       for n in ast.walk(node.test))
        return False

    return sorted(node.lineno for node in ast.walk(ast.parse(source)) if per_step(node))


def test_jacobi_has_no_per_step_loop():
    assert per_step_loops((SRC / "jacobi.py").read_text()) == []


def test_per_step_loop_detector_flags_and_accepts():
    src = ("for i in range(n_steps):\n    Z[i + 1] = P @ Z[i]\n"
           "for k in range(1, 5):\n    term = term @ hA / k\n"
           "for j in range(int(n_steps).bit_length()):\n    P = P @ P\n"
           "for i in range(len(times) - 1):\n    pass\n"
           "for z in Z:\n    pass\n"
           "for i, t in enumerate(times):\n    pass\n"
           "while i < n_steps:\n    i += 1\n"
           "while tested < n_random:\n    tested += 1\n"
           "while k <= Z.shape[0]:\n    k *= 2\n"
           "for j in range(2 ** 3 + 1):\n    pass\n")
    assert per_step_loops(src) == [1, 7, 9, 11, 13, 17]


def einsum_calls(source: str) -> list:
    """Lines that call or name einsum."""
    return sorted({node.lineno for node in ast.walk(ast.parse(source))
                   if (isinstance(node, ast.Attribute) and node.attr == "einsum")
                   or (isinstance(node, ast.Name) and node.id == "einsum")})


def test_geometry_sums_inner_products_per_component():
    # every inner product is (t0 + t1) + t2 over component products: an
    # einsum may sum a batch in another order than one pair
    assert einsum_calls((SRC / "geometry.py").read_text()) == []


def test_einsum_detector_flags_and_accepts():
    src = ("import numpy as np\nfrom numpy import einsum\n"
           "s = np.einsum('...i,...i->...', a, b)\n"
           "f = einsum\n"
           "t = a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1]\n"
           "einsum_note = 'np.einsum'\n")
    assert einsum_calls(src) == [3, 4]


# the functions of the Newton refinement and its jets, which form every
# per-point scaling component by component
COMPONENT_FORMED = {"_polar", "log", "exp", "tangent_frame", "_project_tangent",
                    "_radial_derivatives", "refine_contact_points", "_newton", "_step"}


def _point_axis_subscript(node) -> bool:
    """x[..., None] or x[:, None]: a batch of scalars turned to broadcast over
    the trailing point axis."""
    if not (isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Tuple)):
        return False
    first, *_, last = node.slice.elts
    leading = ((isinstance(first, ast.Constant) and first.value is Ellipsis)
               or (isinstance(first, ast.Slice) and first.lower is first.upper is first.step is None))
    return (len(node.slice.elts) == 2 and leading
            and isinstance(last, ast.Constant) and last.value is None)


def trailing_scale_broadcasts(source: str, functions=COMPONENT_FORMED) -> list:
    """Lines, inside the named functions, that scale by a batch broadcast over
    the trailing axis: x[..., None] * v, v / x[:, None], v *= x[:, None]."""
    scale = (ast.Mult, ast.Div)
    lines = set()
    for fn in ast.walk(ast.parse(source)):
        if not (isinstance(fn, ast.FunctionDef) and fn.name in functions):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.BinOp) and isinstance(node.op, scale):
                operands = (node.left, node.right)
            elif isinstance(node, ast.AugAssign) and isinstance(node.op, scale):
                operands = (node.value,)
            else:
                continue
            if any(_point_axis_subscript(o) for o in operands):
                lines.add(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("module", ["geometry.py", "fields.py", "contact.py"])
def test_refinement_scales_points_per_component(module):
    # numpy 2.4 broadcasts a batch of scalars over a trailing axis of length
    # 2 or 3 several times slower than it runs the three components
    assert trailing_scale_broadcasts((SRC / module).read_text()) == []


def test_trailing_scale_detector_flags_and_accepts():
    src = ("def exp(p, v, s, t):\n"
           "    a = s[..., None] * p\n"
           "    b = v / t[:, None]\n"
           "    v *= s[:, None]\n"
           "    c = np.where(s[..., None], p, v)\n"
           "    d = s[:, None, None] * p\n"
           "    e = p[..., 0] * s + v[:, 1]\n"
           "    f = s[..., None] + p\n"
           "def other(p, s):\n"
           "    return s[..., None] * p\n")
    assert trailing_scale_broadcasts(src) == [2, 3, 4]


def _assigned(tree, name):
    """The value of the top-level assignment to name."""
    return next(node.value for node in tree.body if isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == name for t in node.targets))


def counter_arguments(source: str) -> dict:
    """{"module.function": keys} over the COUNTERS table: the args["..."]
    keys that each counter function (tracer, args, result) reads."""
    tree = ast.parse(source)
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    table = _assigned(tree, "COUNTERS")
    out = {}
    for key, value in zip(table.keys, table.values):
        fn = functions[value.id]
        args = fn.args.args[1].arg
        out[key.value] = sorted({n.slice.value for n in ast.walk(fn)
                                 if isinstance(n, ast.Subscript) and isinstance(n.value, ast.Name)
                                 and n.value.id == args and isinstance(n.slice, ast.Constant)})
    return out


def abplab_attributes(source: str) -> list:
    """(module, attr) of each attribute read from a module bound by
    `from abplab import ...`."""
    tree = ast.parse(source)
    bound = {alias.asname or alias.name: alias.name for node in tree.body
             if isinstance(node, ast.ImportFrom) and node.module == "abplab"
             for alias in node.names}
    return sorted({(bound[n.value.id], n.attr) for n in ast.walk(tree)
                   if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
                   and isinstance(n.value, ast.Name) and n.value.id in bound})


def _abplab(module, name):
    return getattr(importlib.import_module(f"abplab.{module}"), name, None)


def test_benchmark_field_methods_exist():
    tracing = ast.parse((PERFBENCH / "tracing.py").read_text())
    names = ast.literal_eval(_assigned(tracing, "FIELD_METHODS"))
    assert [n for n in names if not hasattr(ScalarField, n)] == []


def test_benchmark_counters_read_parameters():
    missing = []
    for target, keys in counter_arguments((PERFBENCH / "tracing.py").read_text()).items():
        fn = _abplab(*target.split("."))
        params = inspect.signature(fn).parameters if fn is not None else {}
        missing += [f"{target}: {k}" for k in keys if k not in params]
    assert missing == []


@pytest.mark.parametrize("path", sorted(PERFBENCH.glob("*.py")),
                         ids=[p.name for p in sorted(PERFBENCH.glob("*.py"))])
def test_benchmark_reads_existing_names(path):
    assert [f"{m}.{a}" for m, a in abplab_attributes(path.read_text())
            if _abplab(m, a) is None] == []


def test_benchmark_binding_detectors_flag_and_accept():
    src = ("from abplab import contact, fields as f\nimport abplab.pde\n"
           "def _count(tr, args, out):\n"
           "    tr.counts['n'] += args['chunk'] + len(args['E']) + out['x']\n"
           "def _other(tr, a, out):\n    return a['Omega']\n"
           "COUNTERS = {'contact.compute_contact_set': _count, 'pde.solve_poisson': _other}\n"
           "x = contact.compute_contact_set(f.hess_form, abplab.pde.solve)\n"
           "contact.stored = f\n")
    assert counter_arguments(src) == {"contact.compute_contact_set": ["E", "chunk"],
                                      "pde.solve_poisson": ["Omega"]}
    assert abplab_attributes(src) == [("contact", "compute_contact_set"),
                                      ("fields", "hess_form")]


def _definitions(sources: dict) -> dict:
    """{"module.name": node} for each top-level function, class and constant
    of sources, and {"module.Class.method": node} for each method; dunders
    are left out."""
    defs = {}
    for module, source in sources.items():
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[f"{module}.{node.name}"] = node
                if isinstance(node, ast.ClassDef):
                    defs.update((f"{module}.{node.name}.{f.name}", f) for f in node.body
                                if isinstance(f, ast.FunctionDef) and not f.name.startswith("__"))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defs.update((f"{module}.{t.id}", node) for t in targets
                            if isinstance(t, ast.Name) and not t.id.startswith("__"))
    return defs


def _names_read(node) -> set:
    """Names, attributes and imported names that a definition reads.  A class
    reads its decorators, bases, fields and dunder methods, not its other
    methods, which are definitions of their own."""
    parts = [node]
    if isinstance(node, ast.ClassDef):
        parts = node.decorator_list + node.bases + [
            s for s in node.body if not isinstance(s, ast.FunctionDef) or s.name.startswith("__")]
    names = set()
    for n in (n for part in parts for n in ast.walk(part)):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            names.add(n.id)
        elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            names.add(n.attr)
        elif isinstance(n, ast.ImportFrom):
            names |= {alias.name for alias in n.names}
    return names


def unreached(sources: dict, roots) -> list:
    """"module.name" of each definition of sources (see _definitions) that no
    walk from roots reaches.  The walk goes by name: a reached definition
    reaches every definition, in any module, named like a name it reads."""
    defs = _definitions(sources)
    by_name = {}
    for key in defs:
        by_name.setdefault(key.rsplit(".", 1)[1], []).append(key)
    seen, todo = set(), [r for r in roots if r in defs]
    while todo:
        key = todo.pop()
        if key not in seen:
            seen.add(key)
            for name in _names_read(defs[key]):
                todo += by_name.get(name, [])
    return sorted(set(defs) - seen)


def run_roots(perfbench: Path) -> set:
    """Where a run starts: the CLI's main, every abplab name the benchmark
    reads, the ScalarField methods its tracer wraps and its counter targets."""
    roots = {"cli.main"}
    for path in perfbench.glob("*.py"):
        roots |= {f"{m}.{a}" for m, a in abplab_attributes(path.read_text())}
    tracing = (perfbench / "tracing.py").read_text()
    roots |= {f"fields.ScalarField.{n}"
              for n in ast.literal_eval(_assigned(ast.parse(tracing), "FIELD_METHODS"))}
    return roots | set(counter_arguments(tracing))


def test_every_public_name_is_reached():
    # the package holds what a run reaches; a check that only tests run
    # lives in the tests (tests/conftest.py)
    sources = {p.stem: p.read_text() for p in MODULES}
    assert unreached(sources, run_roots(PERFBENCH)) == []


def test_reachability_detector_flags_and_accepts():
    sources = {
        "cli": ("from .a import used\n"
                "def main(argv):\n    return used(argv).report()\n"),
        "a": ("_LIMIT = 3\n_SPARE = 4\n"
              "class Box:\n    size: int = _LIMIT\n"
              "    def __post_init__(self):\n        self.size = _clip(self.size)\n"
              "    def report(self):\n        return self.size\n"
              "    def unused(self):\n        return 0\n"
              "def _clip(x):\n    return x\n"
              "def used(x):\n    return Box()\n"
              "def planted(x):\n    return _helper(x)\n"
              "def _helper(x):\n    return _SPARE\n"
              "def bench_only(x):\n    return x\n"),
    }
    assert unreached(sources, {"cli.main", "a.bench_only"}) == [
        "a.Box.unused", "a._SPARE", "a._helper", "a.planted"]


MODEL_PARAMS = {"m", "model"}
FIELD_PARAMS = {"u", "f", "grid"}
# perfbench builds AbpInstance positionally and its refinement counter reads
# refine_contact_points's m; each refuses a model other than u's
BENCHMARK_BOUND = ["abp.py: AbpInstance", "contact.py: refine_contact_points"]


def _parameters(fn) -> set:
    a = fn.args
    return {p.arg for p in a.posonlyargs + a.args + a.kwonlyargs}


def public_signatures(source: str) -> list:
    """(name, parameter names) of each public function, public method and
    dataclass (its fields) at the top level of a module."""
    tree = ast.parse(source)
    takes = []
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        if isinstance(node, ast.FunctionDef):
            takes.append((node.name, _parameters(node)))
            continue
        if _dataclass_fields(node):
            takes.append((node.name, set(_dataclass_fields(node))))
        takes += [(f"{node.name}.{f.name}", _parameters(f)) for f in node.body
                  if isinstance(f, ast.FunctionDef) and not f.name.startswith("_")]
    return takes


def model_beside_field(source: str) -> list:
    """Public functions, public methods and dataclasses that take a model
    (m, model) beside a field or grid (u, f, grid), which carries its own."""
    return sorted(name for name, params in public_signatures(source)
                  if params & MODEL_PARAMS and params & FIELD_PARAMS)


def test_verdicts_read_the_model_from_their_field():
    found = [f"{p.name}: {name}" for p in MODULES for name in model_beside_field(p.read_text())]
    assert found == BENCHMARK_BOUND


def test_model_beside_field_detector_flags_and_accepts():
    src = ("from dataclasses import dataclass\n"
           "def f(m, u):\n    pass\n"
           "def g(u):\n    pass\n"
           "def _h(model, grid):\n    pass\n"
           "@dataclass(frozen=True)\nclass A:\n    model: int\n    f: int\n"
           "@dataclass\nclass B:\n    grid: int\n    k: int = 0\n"
           "class C:\n    def check(self, *, model, grid):\n        pass\n"
           "    def _inner(self, m, u):\n        pass\n")
    assert model_beside_field(src) == ["A", "C.check", "f"]


def ledger_beside_params(source: str) -> list:
    """Public functions, public methods and dataclasses that take a ledger
    beside the curvature params it is built from: build_ledger(params) is
    the one source of the constants."""
    return sorted(name for name, params in public_signatures(source)
                  if {"ledger", "params"} <= params)


def test_checks_build_the_constants_they_read():
    found = [f"{p.name}: {name}" for p in MODULES for name in ledger_beside_params(p.read_text())]
    assert found == []


def test_ledger_beside_params_detector_flags_and_accepts():
    src = ("from dataclasses import dataclass\n"
           "def f(params, ledger):\n    pass\n"
           "def g(params, u):\n    ledger = build_ledger(params)\n"
           "def verify(ledger):\n    pass\n"
           "def _h(params, ledger):\n    pass\n"
           "@dataclass\nclass A:\n    params: int\n    ledger: int\n"
           "class C:\n    def check(self, ledger, *, params):\n        pass\n")
    assert ledger_beside_params(src) == ["A", "C.check", "f"]


def unread_flags(source: str) -> list:
    """"subcommand: --flag" for each flag of the CLI's _SUBCOMMANDS table, the
    _COMMON ones included, that no function reached from the row's handler or
    from main reads as args.<dest> or getattr(args, "<dest>").  A function
    reaches every module-level function it names; _FLAGS gives each dest."""
    tree = ast.parse(source)
    functions = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    flags = _assigned(tree, "_FLAGS")
    dest = {k.value: next((kw.value.value for kw in v.keywords if kw.arg == "dest"), k.value)
            for k, v in zip(flags.keys, flags.values)}
    common = ast.literal_eval(_assigned(tree, "_COMMON")).split()

    def reads(name):
        seen, todo, out = set(), [name], set()
        while todo:
            fn = todo.pop()
            if fn in seen:
                continue
            seen.add(fn)
            for n in ast.walk(functions[fn]):
                if isinstance(n, ast.Name) and n.id in functions:
                    todo.append(n.id)
                elif (isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
                      and isinstance(n.value, ast.Name) and n.value.id == "args"):
                    out.add(n.attr)
                elif (isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
                      and n.func.id == "getattr" and isinstance(n.args[0], ast.Name)
                      and n.args[0].id == "args"):
                    out.add(n.args[1].value)
        return out

    table = _assigned(tree, "_SUBCOMMANDS")
    by_main = reads("main")
    unread = []
    for sub, (handler, names) in zip(table.keys, (row.elts for row in table.values)):
        read = reads(handler.id) | by_main
        unread += [f"{sub.value}: --{f}" for f in names.value.split() + common
                   if dest[f] not in read]
    return sorted(unread)


def test_every_cli_flag_is_read():
    assert unread_flags((SRC / "cli.py").read_text()) == []


def test_unread_flag_detector_flags_and_accepts():
    src = ('_FLAGS = {"k": dict(type=float), "lambda": dict(dest="lam", type=float),\n'
           '          "n": dict(type=int), "seed": dict(type=int), "out": dict()}\n'
           '_COMMON = "seed out"\n'
           'def _model(args):\n    return getattr(args, "lam") * args.k\n'
           'def cmd_a(args):\n    return _model(args), args.seed\n'
           'def cmd_b(args):\n    args.n = 3\n    return args.k, {"lam": 1}\n'
           'def cmd_c(args):\n    return [f(args) for f in (cmd_a,)]\n'
           'def main(argv):\n    args = parse(argv)\n    return args.out\n'
           '_SUBCOMMANDS = {"a": (cmd_a, "k lambda"), "b": (cmd_b, "k lambda n"),\n'
           '                "c": (cmd_c, "k lambda n")}\n')
    assert unread_flags(src) == ["b: --lambda", "b: --n", "b: --seed", "c: --n"]


def test_cli_import_leaves_numpy_polynomial_unloaded():
    # every run pays its import; numpy.polynomial costs ~4 ms and only the
    # off-origin weighted ball measure needs it, on first use
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    code = ("import sys, abplab.cli\n"
            "print(sorted(m for m in sys.modules if m.startswith('numpy.polynomial')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"
