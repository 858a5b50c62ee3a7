"""Spans around calls into the library's public functions, from outside.

The tracer replaces each target function by a wrapper at every module
attribute that refers to it (including tuples such as ``verify.ALL_CHECKS``),
and each target method on its class.  Nothing under ``src/`` knows about it.
A target missing after a later refactor is reported as absent.
"""

from __future__ import annotations

import functools
import itertools
import sys
import time
from dataclasses import dataclass

# layer boundaries: module-relative names of the public functions wrapped
TARGETS = (
    "forms.parse_form",
    "forms.TernaryForm.lex_normalized",
    "forms.TernaryForm.substitute_linear",
    "linalg.PolyMatrix.determinant",
    "linalg.rank",
    "linalg.sylvester_resultant",
    "linalg.solve_linear",
    "linalg.conic_det3",
    "linalg.conic_kernel_point",
    "linalg.invert",
    "poncelet.poncelet_matrix",
    "poncelet.poncelet_curve",
    "poncelet.is_jumping_line",
    "poncelet.singular_jump_criterion",
    "nodal.verify_node",
    "nodal.normalize_at_node",
    "nodal.associated_conic",
    "nodal.koszul_solve",
    "nodal.classify",
    "nodal.tangent_map",
    "verify.run_checks",
)

# the worked-identity checks at this commit; each gets a verify.<check>.ms metric
VERIFY_CHECKS = (
    "check_eps_family_determinant",
    "check_92_determinant",
    "check_92_analysis",
    "check_93_analysis",
    "check_91_classification",
    "check_91_tangent_map",
    "check_cross_construction",
    "check_polygon_property",
    "check_singular_jump_at_node",
    "check_residual_identity",
    "check_discriminant_bridge",
)


@dataclass(frozen=True)
class Span:
    id: int
    parent: int | None
    name: str
    op: int | None  # index of the benchmark op the span ran under
    start: float
    dur: float
    self_time: float


class Tracer:
    """Records a span per wrapped call; ``op_begin``/``op_end`` label ops."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op_kinds: list[str] = []  # op index -> kind
        self.absent: list[str] = []
        self._stack: list[list] = []  # [span id, child time]
        self._op: int | None = None
        self._undo: list = []
        self._ids = itertools.count()

    # -- op labels ---------------------------------------------------------
    def op_begin(self, kind: str):
        self._op = len(self.op_kinds)
        self.op_kinds.append(kind)

    def op_end(self):
        self._op = None

    # -- wrapping ----------------------------------------------------------
    def _wrap(self, name: str, fn):
        spans, stack, ids, perf = self.spans, self._stack, self._ids, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [next(ids), 0.0]
            stack.append(frame)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf() - start
                stack.pop()
                if parent is not None:
                    parent[1] += dur
                spans.append(Span(frame[0], parent[0] if parent else None, name,
                                  self._op, start, dur, dur - frame[1]))
        return wrapper

    def install(self, package: str = "luroth", checks: tuple[str, ...] = VERIFY_CHECKS):
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == package or key.startswith(package + "."))]
        names = list(TARGETS) + [f"verify.{c}" for c in checks]
        for target in names:
            mod_name, *path = target.split(".")
            obj = sys.modules.get(f"{package}.{mod_name}")
            owner = None
            for attr in path:
                owner, obj = obj, getattr(obj, attr, None)
            if obj is None or not callable(obj):
                self.absent.append(target)
                continue
            wrapper = self._wrap(target, obj)
            if isinstance(owner, type):
                self._undo.append((owner, path[-1], owner.__dict__[path[-1]]))
                setattr(owner, path[-1], wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is obj:
                        new = wrapper
                    elif isinstance(value, tuple) and any(v is obj for v in value):
                        new = tuple(wrapper if v is obj else v for v in value)
                    else:
                        continue
                    self._undo.append((module, key, value))
                    setattr(module, key, new)

    def uninstall(self):
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        self._undo.clear()

    # -- aggregation -------------------------------------------------------
    def per_op(self, kind: str, name: str, field: str = "self_time") -> list[float]:
        """Per op of ``kind``: summed ``field`` seconds of spans named ``name``."""
        ops = [i for i, k in enumerate(self.op_kinds) if k == kind]
        totals = dict.fromkeys(ops, 0.0)
        for s in self.spans:
            if s.name == name and s.op in totals:
                totals[s.op] += getattr(s, field)
        return list(totals.values())

    def calls_per_op(self, kind: str, name: str) -> float:
        ops = {i for i, k in enumerate(self.op_kinds) if k == kind}
        calls = sum(1 for s in self.spans if s.name == name and s.op in ops)
        return calls / len(ops) if ops else 0.0
