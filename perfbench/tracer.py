"""Span tracer that wraps cohbreak's public functions from outside the package.

Every public function defined in one of the package's modules is replaced,
in every module namespace that holds it (and inside module-level dicts such
as the classifier's pattern-predicate table), by a wrapper that records one
span: name, start, end, parent span and job id. Nested calls are therefore
attributed to the function that made them, wherever it was imported.

Spans are kept in flat typed arrays while the traced passes run and are
analysed (and written out) only afterwards. A span's self time is its
duration minus the time its direct child spans cover; code is
single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

import numpy as np

MODULES = (
    "linalg",
    "states",
    "channels",
    "coherence",
    "classifiers",
    "dynamics",
    "concentration",
    "cli",
)
JOB_SPAN = "bench.job"
_KETS = "states.haar_random_kets"


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = [JOB_SPAN]
        self.name_id = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.start = array("d")
        self.end = array("d")
        self.kets = 0
        self._stack = [-1]
        self._job_id = -1
        self._restore: list[tuple[dict, str, object]] = []

    # --- installation -----------------------------------------------------

    def install(self, package) -> None:
        wrappers: dict[int, object] = {}
        modules = [sys.modules[f"{package.__name__}.{short}"] for short in MODULES]
        for short, mod in zip(MODULES, modules):
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_")):
                    wrappers[id(obj)] = self._wrap(obj, f"{short}.{name}")
        for namespace in [vars(package)] + [vars(mod) for mod in modules]:
            for key, value in list(namespace.items()):
                if inspect.isfunction(value) and id(value) in wrappers:
                    self._swap(namespace, key, wrappers[id(value)])
                elif isinstance(value, dict):
                    for inner, fn in list(value.items()):
                        if inspect.isfunction(fn) and id(fn) in wrappers:
                            self._swap(value, inner, wrappers[id(fn)])

    def uninstall(self) -> None:
        for namespace, key, original in reversed(self._restore):
            namespace[key] = original
        self._restore.clear()

    def _swap(self, namespace: dict, key: str, replacement) -> None:
        self._restore.append((namespace, key, namespace[key]))
        namespace[key] = replacement

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.job.append(self._job_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, label: str):
        nid = len(self.names)
        self.names.append(label)
        counts_kets = label == _KETS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if counts_kets:
                self.kets += len(result)
            return result

        return traced

    def begin_job(self, job_id: int) -> int:
        self._job_id = job_id
        return self._open(0)

    def end_job(self, idx: int) -> None:
        self._close(idx)
        self._job_id = -1

    # --- analysis -----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "job": np.frombuffer(self.job, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path, job_labels: list[str]) -> None:
        np.savez(path, names=np.array(self.names), job_labels=np.array(job_labels),
                 **self.arrays())

    def summary(self) -> dict:
        """Per-function calls and self seconds, plus counts read off the spans."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = np.zeros_like(dur)
        nested = a["parent"] >= 0
        np.add.at(child, a["parent"][nested], dur[nested])
        self_time = dur - child
        n_names = len(self.names)
        calls = np.bincount(a["name_id"], minlength=n_names)
        self_s = np.bincount(a["name_id"], weights=self_time, minlength=n_names)
        functions = {
            name: {"calls": int(calls[i]), "self_s": float(self_s[i])}
            for i, name in enumerate(self.names)
        }

        parent_name = np.full(len(dur), -1)
        parent_name[nested] = a["name_id"][a["parent"][nested]]
        choi = self.names.index("channels.choi_to_kraus")
        compose = self.names.index("channels.compose")
        reextractions = int(((a["name_id"] == choi) & (parent_name == compose)).sum())

        conc = np.array([name.startswith("concentration.") for name in self.names])
        outermost = conc[a["name_id"]] & ~(nested & conc[np.maximum(parent_name, 0)])
        return {
            "functions": functions,
            "compose_reextractions": reextractions,
            "concentration_inclusive_s": float(dur[outermost].sum()),
            "kets": self.kets,
        }
