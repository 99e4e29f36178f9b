"""In-memory span tracer that wraps gachagt's public functions from outside.

Nothing under src/ knows about it.  `Tracer.installed()` replaces each
traced function or method with a wrapper that records a span (name, start,
end, parent span, trial id) and restores the originals on exit, so untraced
passes run the unmodified program.  Module-level functions are replaced in
every gachagt module that imported them by name, so callers that bound the
name at import time are traced too.

A span's self time is its duration minus the durations of its child spans.
Spans nest, so the self times of a trial's spans add up to the duration of
the trial's root span (`sim_cli.run_trial`).
"""

from __future__ import annotations

import dataclasses
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

ROOT = "sim_cli.run_trial"

# (module, owner attribute or None, function name, span name); owner None
# means a module-level function.
TRACED = (
    ("gf2e", "FieldSpec", "poly_eval", "gf2e.poly_eval"),
    ("gf2e", "FieldSpec", "interpolate", "gf2e.interpolate"),
    ("gf2e", "FieldSpec", "__post_init__", "gf2e.field_build"),
    ("inner_code", "ConstantWeightCode", "encode", "inner_code.cw_encode"),
    ("inner_code", "ConstantWeightCode", "classify_noiseless", "inner_code.cw_classify"),
    ("inner_code", "BinaryLinearCode", "__post_init__", "inner_code.linear_code_build"),
    ("inner_code", "BinaryLinearCode", "encode", "inner_code.lin_encode"),
    ("inner_code", "BinaryLinearCode", "decode_many", "inner_code.decode_many"),
    ("channels", "DiscreteChannel", "transmit_many", "channels.transmit_many"),
    ("channels", None, "apply_plan_many", "channels.apply_plan_many"),
    ("channels", None, "plan_symmetrize", "channels.plan_symmetrize"),
    ("gacha_core", None, "column_symbols", "gacha_core.column_symbols"),
    ("gacha_core", None, "build_column", "gacha_core.build_column"),
    ("scheme", "SchemeHandle", "observed_bits", "scheme.observed_bits"),
    ("gacha_core", None, "bits_to_blocks", "gacha_core.bits_to_blocks"),
    ("gacha_core", None, "synthesize_blocks", "gacha_core.synthesize_blocks"),
    ("gacha_core", None, "list_decode", "gacha_core.list_decode"),
    ("core_model", "ConfigMatrix", "__init__", "core_model.config_matrix"),
    ("core_model", None, "sample_instance", "core_model.sample_instance"),
    ("core_model", None, "score", "core_model.score"),
    ("baselines", None, "comp_decode", "baselines.comp_decode"),
    ("sim_cli", None, "build_scheme", "sim_cli.build_scheme"),
    ("sim_cli", None, "run_trial", ROOT),
    ("sim_cli", None, "run", "sim_cli.run"),
)
# Spans made by wrapping the handle expander_build returns.
EXPANDER_SPANS = ("gadgets.expander_decode", "gadgets.expander_column")


class Tracer:
    def __init__(self, package):
        self.package = package
        self.names = [n for _, _, _, n in TRACED] + list(EXPANDER_SPANS)
        self._id = {n: i for i, n in enumerate(self.names)}
        self.name = array("i")
        self.parent = array("q")
        self.trial = array("q")
        self.start = array("q")
        self.end = array("q")
        self.stack = []
        self.trial_base = 0     # trial id of trial 0 of the next sim_cli.run call
        self.current_trial = -1  # -1: outside any trial (set-up, run's own work)
        self.counts = defaultdict(int)  # (trial id, counter) -> total

    # ----- recording -----

    def count(self, key: str, value: int) -> None:
        self.counts[(self.current_trial, key)] += value

    def wrap(self, span: str, fn, after=None):
        """fn wrapped in a span; after(tracer, args, result) runs once it closes."""
        nid = self._id[span]
        clock = time.perf_counter_ns
        name, parent, trial, start, end, stack = (
            self.name, self.parent, self.trial, self.start, self.end, self.stack)

        def traced(*args, **kwargs):
            idx = len(name)
            name.append(nid)
            parent.append(stack[-1] if stack else -1)
            trial.append(self.current_trial)
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if after is not None:
                after(self, args, result)
            return result

        return traced

    # ----- installing -----

    def _wrappers(self):
        """(owner, attribute, original, wrapper) for every traced callable."""
        pkg = self.package
        out = []
        for mod_name, owner_name, attr, span in TRACED:
            mod = getattr(pkg, mod_name)
            original = getattr(getattr(mod, owner_name) if owner_name else mod, attr)
            wrapper = self.wrap(span, original, _AFTER.get(span))
            if span == ROOT:
                wrapper = self._trial_root(wrapper)
            if owner_name:
                out.append((getattr(mod, owner_name), attr, original, wrapper))
                continue
            for other in _modules(pkg):
                if getattr(other, attr, None) is original:
                    out.append((other, attr, original, wrapper))
        gc = pkg.gacha_core
        out.append((gc, "recover_from_groups", gc.recover_from_groups,
                    self._count_groups(gc.recover_from_groups)))
        gd = pkg.gadgets
        out.append((gd, "expander_build", gd.expander_build,
                    self._expander(gd.expander_build)))
        return out

    def _trial_root(self, traced_run_trial):
        def run_trial(config, trial):
            self.current_trial = self.trial_base + trial
            try:
                return traced_run_trial(config, trial)
            finally:
                self.current_trial = -1
        return run_trial

    def _count_groups(self, recover):
        """Counts for list_decode's birthday grouping; adds no span."""
        def recover_from_groups(fld, d, b0, groups, point_of_slot, n):
            found = recover(fld, d, b0, groups, point_of_slot, n)
            self.count("birthday_groups", len(groups))
            self.count("groups_ready", sum(1 for pts in groups.values() if len(pts) >= d))
            self.count("emitted", len(found))
            return found
        return recover_from_groups

    def _expander(self, build):
        """Spans for the expander handle's decode and column, counts inner decodes."""
        def expander_build(inner, *args, **kwargs):
            inner_decode = inner.decode

            def counted_decode(bits):
                self.count("inner_decode_calls", 1)
                return inner_decode(bits)

            handle = build(dataclasses.replace(inner, decode=counted_decode), *args, **kwargs)
            return dataclasses.replace(
                handle,
                decode=self.wrap("gadgets.expander_decode", handle.decode),
                column=self.wrap("gadgets.expander_column", handle.column),
            )
        return expander_build

    @contextmanager
    def installed(self):
        patches = self._wrappers()
        for owner, attr, _, wrapper in patches:
            setattr(owner, attr, wrapper)
        try:
            yield self
        finally:
            for owner, attr, original, _ in reversed(patches):
                setattr(owner, attr, original)

    def spans(self) -> "Spans":
        """A snapshot of the spans recorded so far, for analysis."""
        if self.stack:
            raise RuntimeError(f"{len(self.stack)} spans still open")
        return Spans(self.names, self.name, self.parent, self.trial, self.start, self.end)


class Spans:
    """Recorded spans as arrays, with their self times."""

    def __init__(self, names, name, parent, trial, start, end):
        self.names = names
        self.name = np.array(name, dtype=np.int32)
        self.parent = np.array(parent, dtype=np.int64)
        self.trial = np.array(trial, dtype=np.int64)
        self.start = np.array(start, dtype=np.int64)
        self.end = np.array(end, dtype=np.int64)
        self.dur = self.end - self.start
        nested = self.parent >= 0
        child = np.bincount(self.parent[nested], weights=self.dur[nested],
                            minlength=len(self.dur))  # exact below 2^53 ns
        self.self_ns = self.dur - child.astype(np.int64)
        self.root = self.name == names.index(ROOT)

    def __len__(self):
        return len(self.name)

    def check(self) -> list:
        """Problems with the spans; empty when every trial's spans form one
        properly nested tree whose self times add up to its root's duration."""
        problems = []
        parent, trial, root = self.parent, self.trial, self.root
        if (self.dur < 0).any() or (self.self_ns < 0).any():
            problems.append("a span ends before it starts or its children outlast it")
        nested = parent >= 0
        p = parent[nested]
        if ((self.start[nested] < self.start[p]) | (self.end[nested] > self.end[p])).any():
            problems.append("a child span lies outside its parent")
        if (trial[root] < 0).any() or (nested & root & (trial[np.maximum(parent, 0)] >= 0)).any():
            problems.append("a trial root is nested in another trial")
        inner = (trial >= 0) & ~root
        if (~nested[inner]).any() or (trial[parent[inner]] != trial[inner]).any():
            problems.append("a span of a trial has a parent outside that trial")
        ids = trial[root]
        if len(np.unique(ids)) != len(ids):
            problems.append("a trial id has several root spans")
        elif len(ids):
            in_trial = trial >= 0
            sums = np.zeros(ids.max() + 1, dtype=np.int64)
            np.add.at(sums, trial[in_trial], self.self_ns[in_trial])
            if not np.array_equal(sums[ids], self.dur[root]):
                problems.append("a trial's self times do not add up to its root span")
        return problems

    def per_trial(self):
        """(trial ids, self ns [trials x names], calls [trials x names])."""
        ids = np.sort(self.trial[self.root])
        row = np.full(ids.max() + 1 if len(ids) else 0, -1, dtype=np.int64)
        row[ids] = np.arange(len(ids))
        in_trial = self.trial >= 0
        cell = row[self.trial[in_trial]] * len(self.names) + self.name[in_trial]
        size = len(ids) * len(self.names)
        sums = np.bincount(cell, weights=self.self_ns[in_trial], minlength=size)
        calls = np.bincount(cell, minlength=size)
        shape = (len(ids), len(self.names))
        return ids, sums.astype(np.int64).reshape(shape), calls.reshape(shape)

    def outside_trials(self, span: str):
        """(self ns, duration ns) of a span summed over its spans outside any trial."""
        mask = (self.trial < 0) & (self.name == self.names.index(span))
        return int(self.self_ns[mask].sum()), int(self.dur[mask].sum())

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), name=self.name,
                            parent=self.parent, trial=self.trial,
                            start=self.start, end=self.end)


def _modules(pkg):
    return [getattr(pkg, m) for m in (
        "baselines", "channels", "core_model", "gacha_core", "gadgets",
        "gf2e", "inner_code", "scheme", "sim_cli")] + [pkg]


def _count_one_writer(tracer, args, word):
    tracer.count("one_writer_batches", sum(1 for s in word.symbols if type(s) is tuple))
    tracer.count("batches", len(word.symbols))


def _count_words(tracer, args, payloads):
    tracer.count("decode_many_words", len(payloads))


_AFTER = {
    "gacha_core.synthesize_blocks": _count_one_writer,
    "inner_code.decode_many": _count_words,
}
