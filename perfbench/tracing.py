"""In-memory span tracer that wraps kstruve's public functions from outside.

A span is (span id, parent span id, op id, name, start, end).  Wrappers are
installed in every module namespace that binds a traced function by name
(``kinetics`` binds ``k_struve``, ``cli`` binds ``adjudicate`` and the
``*_info`` twins, the package re-exports everything), so a call is traced
whichever name it goes through.  A function and its ``_info`` twin share one
span name, and a call nested directly inside a span of the same name (the
public function delegating to its twin) is not recorded twice.

Spans live in flat ``array`` columns while the run is going and are written
out once at the end.
"""

from __future__ import annotations

import gzip
import inspect
import time
from array import array

# Public functions per layer, as (defining module, attribute, span name).
# ``*_info`` twins map onto the span of their public function.
TRACED = (
    ("specfun", "struve_h", "specfun.struve_h"),
    ("specfun", "struve_h_info", "specfun.struve_h"),
    ("specfun", "k_struve", "specfun.k_struve"),
    ("specfun", "k_struve_info", "specfun.k_struve"),
    ("specfun", "mittag_leffler", "specfun.mittag_leffler"),
    ("specfun", "mittag_leffler_info", "specfun.mittag_leffler"),
    ("specfun", "fox_wright", "specfun.fox_wright"),
    ("specfun", "fox_wright_info", "specfun.fox_wright"),
    ("specfun", "k_gamma", "specfun.k_gamma"),
    ("transforms", "sumudu_numeric", "transforms.sumudu_numeric"),
    ("transforms", "sumudu_kstruve_closed", "transforms.sumudu_kstruve_closed"),
    ("transforms", "inverse_sumudu_kstruve", "transforms.inverse_sumudu_kstruve"),
    ("transforms", "rl_fractional_integral", "transforms.rl_fractional_integral"),
    ("transforms", "sumudu_power_rule", "transforms.sumudu_power_rule"),
    ("transforms", "sumudu_rl_rule", "transforms.sumudu_rl_rule"),
    ("kinetics", "adjudicate", "kinetics.adjudicate"),
    ("kinetics", "volterra_oracle", "kinetics.volterra_oracle"),
    ("kinetics", "solve_closed_form", "kinetics.solve_closed_form"),
    ("kinetics", "solve_corollary_k1", "kinetics.solve_corollary_k1"),
    ("kinetics", "classical_decay", "kinetics.classical_decay"),
    ("svgplot", "render_line_chart", "svgplot.render_line_chart"),
    ("cli", "main", "cli.main"),
)
# The oracle's per-node forcing is a method, wrapped on its class.
FORCING_SPAN = "kinetics.forcing_value"

NAMESPACES = ("kstruve", "kstruve.specfun", "kstruve.transforms", "kstruve.kinetics",
              "kstruve.svgplot", "kstruve.cli")

ROOT = "op"  # the harness's own span around one operation


class Tracer:
    """Records spans and per-span attributes; one instance per traced run."""

    def __init__(self):
        self.names: list[str] = [ROOT]
        self._name_ids = {ROOT: 0}
        # one entry per span; a span's id is its index
        self.parent = array("q")
        self.op = array("q")
        self.name = array("q")
        self.start = array("d")
        self.end = array("d")
        # attributes: (terms_used, budget_stop) of *_info results and
        # (mean terms, truncated share, nodes) of closed-form solutions
        self.terms: list[tuple[int, bool]] = []
        self.closed_forms: list[tuple[float, float, int]] = []
        self._stack: list[tuple[int, int]] = []  # (span id, name id)
        self._op_id = -1
        self._saved: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, nid: int) -> int | None:
        stack = self._stack
        if not stack and nid != 0:
            return None  # outside any operation (the harness's own checks)
        if stack and stack[-1][1] == nid:
            return None  # twin delegation: already inside this span
        sid = len(self.parent)
        self.parent.append(stack[-1][0] if stack else -1)
        self.op.append(self._op_id)
        self.name.append(nid)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        stack.append((sid, nid))
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self._stack.pop()

    def run_op(self, op_id: int, call):
        """Run ``call`` as operation ``op_id`` under a root span."""
        self._op_id = op_id
        sid = self._open(0)
        try:
            return call()
        finally:
            self._close(sid)

    def wrap(self, fn, span: str, attr_hook=None):
        nid = self.name_id(span)
        opened, closed, stack = self._open, self._close, self._stack

        def traced(*args, **kwargs):
            sid = opened(nid)
            if sid is None:
                out = fn(*args, **kwargs)
            else:
                try:
                    out = fn(*args, **kwargs)
                finally:
                    closed(sid)
            if attr_hook is not None and stack:
                attr_hook(args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", span)
        return traced

    def _info_hook(self, fn):
        """Record (terms_used, stopped on the term budget) of an *_info call."""
        sig = inspect.signature(fn)
        names = list(sig.parameters)
        pos = names.index("pol")
        default = sig.parameters["pol"].default
        terms = self.terms

        def hook(args, kwargs, out):
            pol = kwargs.get("pol", args[pos] if len(args) > pos else default)
            used = int(out[1])
            terms.append((used, used >= pol.max_terms))

        return hook

    def _closed_form_hook(self, args, kwargs, sol):
        self.closed_forms.append(
            (float(sol.terms_used.mean()), float(sol.truncation_flag.mean()), sol.grid.n_points)
        )

    def install(self, modules: dict) -> None:
        """Replace each traced function in every namespace that binds it."""
        originals = {}
        for mod_name, attr, span in TRACED:
            fn = getattr(modules["kstruve." + mod_name], attr)
            hook = None
            if attr.endswith("_info"):
                hook = self._info_hook(fn)
            elif attr == "solve_closed_form":
                hook = self._closed_form_hook
            originals[id(fn)] = self.wrap(fn, span, hook)
        for ns_name in NAMESPACES:
            ns = modules[ns_name]
            for key, value in list(vars(ns).items()):
                wrapper = originals.get(id(value))
                if wrapper is not None:
                    self._saved.append((ns, key, value))
                    setattr(ns, key, wrapper)
        cls = modules["kstruve.kinetics"].KineticProblem
        method = cls.forcing_value
        self._saved.append((cls, "forcing_value", method))
        cls.forcing_value = self.wrap(method, FORCING_SPAN)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._saved):
            setattr(owner, key, value)
        self._saved.clear()

    # ----- analysis -------------------------------------------------------

    def __len__(self) -> int:
        return len(self.parent)

    def self_times(self) -> list[float]:
        """Span duration minus the durations of its direct children.

        Spans nest strictly (one thread, synchronous calls), so the children
        of a span cover disjoint parts of its interval.
        """
        dur = [e - s for s, e in zip(self.start, self.end)]
        own = list(dur)
        for sid, parent in enumerate(self.parent):
            if parent >= 0:
                own[parent] -= dur[sid]
        return own

    def write(self, path: str) -> None:
        """Write every span as CSV (gzip): id,parent,op,name,start_s,end_s."""
        with gzip.open(path, "wt", encoding="utf-8", newline="\n") as fh:
            fh.write("span,parent,op,name,start_s,end_s\n")
            names = self.names
            for sid, row in enumerate(zip(self.parent, self.op, self.name, self.start, self.end)):
                fh.write(f"{sid},{row[0]},{row[1]},{names[row[2]]},{row[3]:.9f},{row[4]:.9f}\n")
