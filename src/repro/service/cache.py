"""The serving layer's structural result cache.

A :class:`ResultCache` memoizes finished ``τ_s`` answers keyed by
``(graph, source, TimesKey)``:

* the **graph** component is the immutable :class:`~repro.graphs.base.Graph`
  object itself — graphs hash by their CSR arrays, so *structural equality
  is cache identity*.  This is the same contract every other cache in the
  library rides on: a :class:`~repro.dynamic.DynamicGraph` whose
  ``snapshot()`` revisits a topology returns the very same ``Graph`` object
  (structural memoization), so a flapping bridge or an add/remove round
  trip hits this cache without recomputation;
* the **knob** component is the engine's canonical
  :class:`~repro.engine.batch.TimesKey` — two spellings of the same
  semantics share one line, and execution-only knobs never fragment it.

Entries are exact: a hit returns the very object an identical direct
:func:`~repro.engine.batch.batched_local_mixing_times` call produced, so
serving answers stay bitwise identical to the engine (and to the
per-source loop) regardless of cache state.

Beyond plain LRU lookup the cache supports **locality carry-forward**
(:meth:`ResultCache.carry_forward`): after a dynamic-graph mutation, the
entries of the previous snapshot whose sources are provably unaffected —
``τ_s`` at most the source's
:func:`~repro.dynamic.tracker.edit_distance_bounds` radius, i.e. every
edit sits at distance ``≥ τ_s`` in both snapshots — are re-keyed onto the
new snapshot, so only *dirty* sources (those the edit could actually
reach) miss and get recomputed.

Observability: the counters live on a
:class:`~repro.obs.metrics.MetricsRegistry` (``repro_cache_*_total``
counters plus ``repro_cache_size`` / ``repro_cache_maxsize`` gauges) —
by default a private one per cache, or a shared registry passed by the
owning service so one ``render()`` covers every component.  The
documented :meth:`ResultCache.stats` dict shape is unchanged.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

import numpy as np

from repro.engine.batch import TimesKey
from repro.graphs.base import Graph
from repro.obs import MetricsRegistry

__all__ = ["ResultCache"]


class ResultCache:
    """Bounded LRU of exact per-source results with structural keys.

    Parameters
    ----------
    maxsize:
        Entry bound; least recently used entries beyond it are evicted
        (``0`` disables caching — every lookup misses, nothing is stored).
    registry:
        Optional :class:`~repro.obs.metrics.MetricsRegistry` to record
        the cache counters on (the owning service passes its own so all
        component metrics share one exposition); a private registry is
        created when omitted and exposed as :attr:`metrics`.

    Counters (exposed by :meth:`stats`): ``hits`` / ``misses`` (lookup
    outcomes), ``inflight_hits`` (queries answered by awaiting an already
    in-flight identical computation instead of a new solve — counted here
    by the service via :meth:`count_inflight_hit`), ``carried_forward``
    (entries re-keyed onto a mutated snapshot by locality pruning),
    ``evictions``.  All methods are thread-safe; the service calls them
    from the event loop while benchmarks may inspect them from anywhere.
    """

    def __init__(
        self, maxsize: int = 4096, *, registry: MetricsRegistry | None = None
    ):
        if maxsize < 0:
            raise ValueError("maxsize must be >= 0")
        self.maxsize = int(maxsize)
        self.metrics = registry if registry is not None else MetricsRegistry()
        self._entries: OrderedDict[tuple, object] = OrderedDict()
        self._lock = threading.Lock()
        self._hits = self.metrics.counter(
            "repro_cache_hits_total", "Result-cache lookup hits."
        )
        self._misses = self.metrics.counter(
            "repro_cache_misses_total", "Result-cache lookup misses."
        )
        self._inflight_hits = self.metrics.counter(
            "repro_cache_inflight_hits_total",
            "Queries deduplicated against an in-flight identical solve.",
        )
        self._carried = self.metrics.counter(
            "repro_cache_carried_forward_total",
            "Entries re-keyed onto a mutated snapshot by locality pruning.",
        )
        self._evictions = self.metrics.counter(
            "repro_cache_evictions_total", "LRU evictions past the bound."
        )
        self._size_gauge = self.metrics.gauge(
            "repro_cache_size", "Entries currently cached."
        )
        self.metrics.gauge(
            "repro_cache_maxsize", "Configured result-cache entry bound."
        ).set(self.maxsize)

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, g: Graph, source: int, key: TimesKey):
        """The cached result for ``(g, source, key)`` or ``None`` (counted
        as a hit or miss respectively)."""
        k = (g, int(source), key)
        with self._lock:
            res = self._entries.get(k)
            if res is None:
                self._misses.inc()
                return None
            self._hits.inc()
            self._entries.move_to_end(k)
            return res

    def put(self, g: Graph, source: int, key: TimesKey, result) -> None:
        """Store one finished result (evicting LRU entries past the bound)."""
        if self.maxsize == 0:
            return
        k = (g, int(source), key)
        with self._lock:
            self._entries[k] = result
            self._entries.move_to_end(k)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
                self._evictions.inc()
            self._size_gauge.set(len(self._entries))

    def count_inflight_hit(self) -> None:
        """Record one query deduplicated against an in-flight computation."""
        self._inflight_hits.inc()

    # ------------------------------------------------------------------ #
    # Dynamic-graph integration
    # ------------------------------------------------------------------ #

    def carry_forward(
        self,
        prev_g: Graph,
        new_g: Graph,
        dmin: np.ndarray,
    ) -> int:
        """Re-key ``prev_g``'s provably-unaffected entries onto ``new_g``.

        ``dmin`` is :func:`~repro.dynamic.tracker.edit_distance_bounds` of
        the two snapshots: an entry for source ``s`` is carried iff its
        result's ``time <= dmin[s]`` (the locality-pruning soundness
        argument — the source's whole decision transcript is bitwise
        unchanged).  Existing ``new_g`` entries are never overwritten —
        they are already exact.  ``prev_g``'s own entries stay cached: the
        old structure may be revisited (structural memoization will then
        return the same object) and the LRU ages them out naturally.

        Returns the number of entries carried.
        """
        if self.maxsize == 0:
            return 0
        carried = 0
        prev_hash = hash(prev_g)
        with self._lock:
            # Materialize first: we mutate the dict while scanning.  Match
            # structurally (identity shortcut, then memoized hash, then
            # equality) — entries inserted under a distinct but equal
            # Graph object must carry too.
            old = [
                (k, res)
                for k, res in self._entries.items()
                if k[0] is prev_g
                or (hash(k[0]) == prev_hash and k[0] == prev_g)
            ]
            for (_, source, key), res in old:
                if res.time > dmin[source]:
                    continue  # a dirty source: the edit is inside its radius
                new_key = (new_g, source, key)
                if new_key in self._entries:
                    continue
                self._entries[new_key] = res
                self._entries.move_to_end(new_key)
                carried += 1
                self._carried.inc()
                while len(self._entries) > self.maxsize:
                    self._entries.popitem(last=False)
                    self._evictions.inc()
            self._size_gauge.set(len(self._entries))
        return carried

    def invalidate_graph(self, g: Graph) -> int:
        """Drop every entry keyed to (a structural equal of) ``g``; returns
        how many were dropped.  Purely a memory-management hook: structural
        keying means entries can never become *wrong*, only stale in the
        LRU sense, so nothing in the serving path requires this."""
        with self._lock:
            stale = [k for k in self._entries if k[0] == g]
            for k in stale:
                del self._entries[k]
            self._size_gauge.set(len(self._entries))
        return len(stale)

    def clear(self) -> None:
        """Drop every entry (counters are kept)."""
        with self._lock:
            self._entries.clear()
            self._size_gauge.set(0)

    def stats(self) -> dict:
        """A snapshot of the counters plus the current size (the same
        dict shape as before the registry migration — a thin view over
        the ``repro_cache_*`` metrics)."""
        with self._lock:
            return {
                "hits": self._hits.value,
                "misses": self._misses.value,
                "inflight_hits": self._inflight_hits.value,
                "carried_forward": self._carried.value,
                "evictions": self._evictions.value,
                "size": len(self._entries),
                "maxsize": self.maxsize,
            }
