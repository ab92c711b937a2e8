"""Spans around the calls each ``wroncrit`` module makes into another layer.

The tracer replaces module attributes with wrappers, from outside the
package: ``from .polyring import gcd_monic`` binds a name in the importing
module, so each binding is wrapped where it is looked up, for example
``wroncrit.reproduction.gcd_monic``.  A span records its name, start, end,
parent span and operation id; spans stay in memory until ``save``.  Self time
is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import time
from array import array

import numpy as np

# (module, attribute, span name); class attributes are given as "Class.attr"
WRAPPED = (
    ("cli", "run_verify", "cli.run_verify"),
    ("cli", "load_problem", "cli.load_problem"),
    ("cli", "solve_critical", "bethe.solve_critical"),
    ("cli", "certify_divisibility", "bethe.certify_divisibility"),
    ("cli", "intersection_number", "schubert.intersection_number"),
    ("bethe", "intersection_number", "schubert.intersection_number"),
    ("bethe", "induced_space", "bethe.induced_space"),
    ("bethe", "component_multiplicity", "bethe.component_multiplicity"),
    ("bethe", "local_multiplicity", "multiplicity.local_multiplicity"),
    ("bethe", "clear_denominators", "multiplicity.clear_denominators"),
    ("bethe", "div_rem", "polyring.div_rem"),
    ("bethe", "wronskian_pair", "polyring.wronskian_pair"),
    ("reproduction", "build_space", "reproduction.build_space"),
    ("reproduction", "theta", "reproduction.theta"),
    ("reproduction", "mutate", "reproduction.mutate"),
    ("reproduction", "is_fertile", "reproduction.is_fertile"),
    ("reproduction", "solve", "wronskian_eq.solve"),
    ("reproduction", "generic_candidate", "wronskian_eq.generic_candidate"),
    ("reproduction", "exponents_at", "ramification.exponents_at"),
    ("reproduction", "exponents_at_infinity", "ramification.exponents_at_infinity"),
    ("reproduction", "gcd_monic", "polyring.gcd_monic"),
    ("reproduction", "divides", "polyring.divides"),
    ("reproduction", "exact_div", "polyring.exact_div"),
    ("reproduction", "wronskian", "polyring.wronskian"),
    ("reproduction", "wronskian_pair", "polyring.wronskian_pair"),
    ("wronskian_eq", "gcd_monic", "polyring.gcd_monic"),
    ("wronskian_eq", "xgcd", "polyring.xgcd"),
    ("wronskian_eq", "div_rem", "polyring.div_rem"),
    ("wronskian_eq", "wronskian_pair", "polyring.wronskian_pair"),
    ("ramification", "exact_div", "polyring.exact_div"),
    ("ramification", "wronskian", "polyring.wronskian"),
    ("ramification", "exponents_at_infinity", "ramification.exponents_at_infinity"),
    ("polyring", "xgcd", "polyring.xgcd"),
    ("polyring", "div_rem", "polyring.div_rem"),
    ("field", "NumberField.inv", "field.NumberField.inv"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name in WRAPPED))

# counts recorded at the same boundaries
COUNTS = (
    "bethe.start_yield",
    "bethe.orbit_yield",
    "multiplicity.local_multiplicity.not_isolated",
    "multiplicity.local_multiplicity.not_a_solution",
    "multiplicity.cleared_terms",
    "wronskian_eq.ladder_tries",
)


def _ladder_tries(c: int) -> int:
    # generic_candidate walks c = 0, 1, -1, 2, -2, ...
    return 1 if c == 0 else (2 * c if c > 0 else 2 * -c + 1)


class Tracer:
    def __init__(self, package):
        self.pkg = package
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name_id = array("q")
        self.op_id = array("q")
        self.stack: list[int] = []
        self.op = -1
        self.counts = dict.fromkeys(
            ("hits", "starts", "not_isolated", "not_a_solution", "cleared_terms",
             "ladder_tries"), 0)
        self._saved: list[tuple] = []

    # -- installing wrappers --------------------------------------------------

    def install(self) -> None:
        after = {
            "bethe.solve_critical": self._after_solve,
            "multiplicity.clear_denominators": self._after_clear,
            "wronskian_eq.generic_candidate": self._after_candidate,
        }
        for mod_name, attr, name in WRAPPED:
            owner = getattr(self.pkg, mod_name)
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name, after.get(name)))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def _wrap(self, fn, name: str, after):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        clock = time.perf_counter
        start, end, parent, name_id, op_id, stack = (
            self.start, self.end, self.parent, self.name_id, self.op_id, self.stack)
        errors = self.pkg.errors
        counts = self.counts
        local_mult = name == "multiplicity.local_multiplicity"

        def wrapper(*args, **kwargs):
            sid = len(start)
            parent.append(stack[-1] if stack else -1)
            name_id.append(nid)
            op_id.append(self.op)
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            except errors.NotIsolated:
                if local_mult:
                    counts["not_isolated"] += 1
                raise
            except errors.NotASolution:
                if local_mult:
                    counts["not_a_solution"] += 1
                raise
            finally:
                end[sid] = clock()
                stack.pop()
            if after is not None:
                after(out, args, kwargs)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _after_solve(self, orbits, args, kwargs):
        self.counts["hits"] += sum(o.hits for o in orbits)
        self.counts["starts"] += kwargs.get("starts", args[1] if len(args) > 1 else 200)

    def _after_clear(self, system, args, kwargs):
        self.counts["cleared_terms"] += sum(len(f.terms) for f in system.polys)

    def _after_candidate(self, out, args, kwargs):
        self.counts["ladder_tries"] += _ladder_tries(out[1])

    # -- results ---------------------------------------------------------------

    def self_times(self, lo: int, hi: int) -> dict[str, tuple[int, float]]:
        """(calls, self seconds) per span name, over the spans lo..hi-1."""
        start = np.frombuffer(self.start, dtype=float)
        end = np.frombuffer(self.end, dtype=float)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        nid = np.frombuffer(self.name_id, dtype=np.int64)
        dur = end - start
        child = np.zeros(len(dur))
        has = parent >= 0
        np.add.at(child, parent[has], dur[has])
        own = (dur - child)[lo:hi]
        nid = nid[lo:hi]
        return {name: (int((nid == k).sum()), float(own[nid == k].sum()))
                for k, name in enumerate(self.names)}

    def save(self, path: str) -> None:
        np.savez(path, names=np.array(self.names), start=np.frombuffer(self.start, dtype=float),
                 end=np.frombuffer(self.end, dtype=float),
                 parent=np.frombuffer(self.parent, dtype=np.int64),
                 name_id=np.frombuffer(self.name_id, dtype=np.int64),
                 op_id=np.frombuffer(self.op_id, dtype=np.int64))
