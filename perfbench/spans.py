"""Span tracer that times mwrelay modules from outside the package.

Each traced function is replaced, for the duration of a ``with Tracer(...)``
block, by a wrapper installed at every name the package looks it up under:
module globals bound by ``from .x import f``, and class attributes for
methods and properties. Nothing under ``src/`` changes, and leaving the block
restores the original objects, so untraced passes run the unmodified code.

A wrapper records one span (id, parent id, name, start, end, thread) per
call, kept in memory. Functions listed as ``accumulate`` are called too
often for one span each (10^4 to 10^5 per pass); they are summed per
(name, parent name) instead. Self time is a call's duration minus the
durations of the wrapped calls it made, so the self times of all functions
add up to the time spent inside outermost wrapped calls.
"""

import functools
import itertools
import json
import threading
import time
from collections import Counter


class Tracer:
    """Wraps ``targets`` while active and records spans, self times and call counts.

    ``targets`` maps a metric name such as ``"channel.substream"`` to an
    ``(owner, attribute)`` pair: a module whose global, or a class whose
    attribute, holds the function. ``aliases`` lists further modules whose
    globals are rebound wherever they hold the same function object.
    ``hooks`` maps a metric name to a callable run with the call's
    arguments before each call, for counters that need them.
    """

    def __init__(self, targets, aliases, accumulate=(), hooks=None):
        self.targets = targets
        self.aliases = aliases
        self.accumulate = frozenset(accumulate)
        self.hooks = dict(hooks or {})
        self.spans = []
        self.leaves = {}
        self.calls = Counter()
        self.self_ns = Counter()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._restore = []

    def __enter__(self):
        for name, (owner, attr) in self.targets.items():
            original = owner.__dict__[attr]
            if isinstance(original, property):
                self._rebind(owner, attr, property(self._wrap(name, original.fget)))
                continue
            wrapped = self._wrap(name, original)
            self._rebind(owner, attr, wrapped)
            if not isinstance(owner, type):
                for module in self.aliases:
                    for alias, value in list(vars(module).items()):
                        if value is original:
                            self._rebind(module, alias, wrapped)
        return self

    def __exit__(self, *exc):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)
        return False

    def _rebind(self, owner, attr, value):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn):
        leaf = name in self.accumulate
        hook = self.hooks.get(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else None
            if leaf and parent is not None and parent[2] in self.accumulate:
                # Nested inside another accumulated call: counted, and its
                # time left to the caller, which keeps the wrapper cost low.
                self.calls[name] += 1
                return fn(*args, **kwargs)
            if hook is not None:
                hook(*args, **kwargs)
            frame = [next(self._ids), 0, name]  # span id, child ns, name
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[1] += duration
                self.calls[name] += 1
                self.self_ns[name] += duration - frame[1]
                if leaf:
                    key = (name, parent[2] if parent else None)
                    acc = self.leaves.setdefault(key, [0, 0])
                    acc[0] += 1
                    acc[1] += duration
                else:
                    self.spans.append((frame[0], parent[0] if parent else None, name,
                                       start, end, threading.get_ident()))

        return traced

    def dump(self, path):
        """Write the spans and accumulated leaf calls as JSON."""
        with open(path, "w") as fh:
            json.dump({
                "span_fields": ["id", "parent", "name", "start_ns", "end_ns", "thread"],
                "spans": self.spans,
                "leaf_fields": ["name", "parent_name", "calls", "total_ns"],
                "leaves": [[n, p, c, t] for (n, p), (c, t) in sorted(
                    self.leaves.items(), key=lambda item: (item[0][0], str(item[0][1])))],
            }, fh)
