"""Zero-copy array sharing across worker processes.

A :class:`SharedArrays` places a tuple of arrays in **one**
:class:`multiprocessing.shared_memory.SharedMemory` segment, written once
by the publishing process.  Workers receive only a tiny picklable
:class:`SharedHandle` (segment name, each array's dtype, shape and memory
order, plus the graph name and ``lazy`` flag) and map the segment into
their own address space — :meth:`SharedArrays.arrays` returns views of the
shared buffer, so no worker ever copies the data.  This is the same
shared-memory design production graph systems use to fan sampling out
across cores (e.g. DGL's ``shared_memory``-backed graph store).

Two formats ride on it:

* :class:`SharedCSR` — a graph's ``indptr``/``indices``.  Workers rebuild
  the :class:`~repro.graphs.base.Graph` with
  :meth:`~repro.graphs.base.Graph.from_csr` on the views, without
  re-validation.  Because :class:`Graph` hashes by its CSR bytes, the
  worker-side graph is ``==`` to the publisher's, so every structure-keyed
  cache downstream behaves identically in workers and parent.
* :class:`SharedEigenbasis` — a
  :class:`~repro.walks.distribution.SpectralPropagator`'s ``sqrt_deg``,
  ``eigvals`` and ``eigvecs``.  Workers rebuild the propagator with
  :meth:`~repro.walks.distribution.SpectralPropagator.from_arrays`, so no
  worker pays the ``O(n³)`` eigendecomposition the parent already paid.

Bitwise contract
----------------
BLAS results can differ bitwise between C- and F-contiguous operands
(``numpy.linalg.eigh`` returns an F-contiguous eigenvector matrix).  The
handle therefore records each array's memory order and attachers rebuild
it **in that order**, so a worker's spectral evaluations are exactly the
parent's arithmetic.

Lifecycle contract
------------------
The **publisher** owns the segment: it must eventually call
:meth:`SharedArrays.unlink` (or use the instance as a context manager, or
let :class:`~repro.parallel.executor.ShardExecutor` manage it) to remove
the segment from the OS namespace.  **Attachers** only :meth:`close` their
mapping (see :meth:`SharedArrays.attach` for the resource-tracker rule).
Unlinking while a worker still holds a mapping is safe on POSIX (the
memory lives until the last mapping closes) and a no-op on Windows.
"""

from __future__ import annotations

from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np

from repro.graphs.base import Graph
from repro.walks.distribution import SpectralPropagator

__all__ = ["SharedArrays", "SharedCSR", "SharedEigenbasis", "SharedHandle"]


@dataclass(frozen=True)
class SharedHandle:
    """Picklable pointer to a published segment.

    Attributes
    ----------
    shm_name:
        OS name of the shared-memory segment.
    specs:
        ``(dtype, shape, order)`` per array, in segment order; the arrays
        are packed back to back.
    graph_name:
        The graph's human-readable name, forwarded so worker-side reprs
        and error messages match the parent's.
    lazy:
        Whether a published eigenbasis decomposes the lazy walk
        ``(I + N)/2`` (part of the propagator-cache key workers seed);
        ``False`` for a CSR segment.
    """

    shm_name: str
    specs: tuple[tuple[str, tuple[int, ...], str], ...]
    graph_name: str
    lazy: bool = False


class SharedArrays:
    """A tuple of arrays in one shared-memory segment.

    Construct via a format's ``publish`` (in the owning process) or
    :meth:`attach` (in a worker); the raw constructor is internal.
    """

    def __init__(
        self,
        shm: shared_memory.SharedMemory,
        handle: SharedHandle,
        *,
        owner: bool,
    ):
        self._shm = shm
        self.handle = handle
        self.owner = owner
        self._unlinked = False

    @classmethod
    def _create(cls, arrays, *, graph_name: str, lazy: bool = False):
        """Copy ``arrays`` into a fresh segment, each in its own memory
        order (recorded on the handle)."""
        arrays = [np.asarray(a) for a in arrays]
        size = max(sum(a.nbytes for a in arrays), 1)
        shm = shared_memory.SharedMemory(create=True, size=size)
        specs = tuple(
            (a.dtype.str, a.shape, "C" if a.flags.c_contiguous else "F")
            for a in arrays
        )
        shared = cls(
            shm, SharedHandle(shm.name, specs, graph_name, lazy), owner=True
        )
        for view, a in zip(shared.arrays(), arrays):
            view[...] = a
        return shared

    @classmethod
    def attach(cls, handle: SharedHandle, *, untrack: bool = False):
        """Map an already-published segment (worker side, zero-copy).

        ``untrack=True`` removes the segment from this process's
        :mod:`multiprocessing` resource tracker after attaching.  Pass it
        only from a process *unrelated* to the publisher (whose private
        tracker would otherwise unlink the publisher's segment on exit,
        bpo-38119).  Pool workers must leave it ``False``: they inherit
        the publisher's tracker under every start method, so the attach
        registration dedups against the publisher's entry and the
        publisher's unlink is the single deregistration."""
        shm = shared_memory.SharedMemory(name=handle.shm_name)
        if untrack:
            try:  # pragma: no cover - tracker internals vary across versions
                from multiprocessing import resource_tracker

                resource_tracker.unregister(shm._name, "shared_memory")
            except Exception:
                pass
        return cls(shm, handle, owner=False)

    def arrays(self) -> tuple[np.ndarray, ...]:
        """The published arrays as views of the shared buffer, each in
        the publisher's recorded memory order."""
        out = []
        offset = 0
        for dtype, shape, order in self.handle.specs:
            view = np.ndarray(
                shape, dtype=dtype, buffer=self._shm.buf, offset=offset,
                order=order,
            )
            out.append(view)
            offset += view.nbytes
        return tuple(out)

    def close(self) -> None:
        """Unmap this process's view of the segment (keeps the segment
        itself alive for other processes)."""
        try:
            self._shm.close()
        except BufferError:  # pragma: no cover - exported numpy views
            # A live numpy view still points into the mapping; the OS
            # reclaims it with the process instead.
            pass

    def unlink(self) -> None:
        """Remove the segment from the OS namespace (publisher only;
        idempotent).  Existing mappings stay valid until closed."""
        if not self.owner or self._unlinked:
            return
        self._unlinked = True
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already removed
            pass

    def dispose(self) -> None:
        """:meth:`unlink` (publisher only), then :meth:`close`."""
        self.unlink()
        self.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.dispose()

    def __del__(self):  # pragma: no cover - GC timing dependent
        try:
            self.dispose()
        except Exception:
            pass

    def __repr__(self) -> str:
        role = "owner" if self.owner else "attached"
        shapes = [shape for _, shape, _ in self.handle.specs]
        return (
            f"{type(self).__name__}({self.handle.graph_name!r}, "
            f"shapes={shapes}, shm={self.handle.shm_name!r}, {role})"
        )


class SharedCSR(SharedArrays):
    """A graph's CSR arrays (``indptr``, ``indices``) in shared memory."""

    _graph: Graph | None = None

    @classmethod
    def publish(cls, g: Graph) -> "SharedCSR":
        """Copy ``g``'s CSR arrays into a fresh shared segment (done once;
        every worker maps the same physical pages afterwards)."""
        return cls._create((g.indptr, g.indices), graph_name=g.name)

    @property
    def graph(self) -> Graph:
        """The :class:`Graph` whose CSR arrays are *views* of the shared
        buffer (built lazily, cached so per-graph ``cached_property``
        state — degrees, connectivity — stays warm across tasks)."""
        if self._graph is None:
            indptr, indices = self.arrays()
            # The publisher validated the graph when it was first built;
            # re-validating 2m entries per worker would defeat the point.
            self._graph = Graph.from_csr(
                indptr, indices, name=self.handle.graph_name, validate=False
            )
        return self._graph

    def close(self) -> None:
        """Drop the cached graph, then unmap (see
        :meth:`SharedArrays.close`)."""
        self._graph = None
        super().close()


class SharedEigenbasis(SharedArrays):
    """A spectral propagator's ``(sqrt_deg, eigvals, eigvecs)`` in shared
    memory."""

    @classmethod
    def publish(cls, prop: SpectralPropagator) -> "SharedEigenbasis":
        """Copy ``prop``'s decomposition into a fresh shared segment
        (``eigvecs`` keeps its own memory order — see the module
        docstring)."""
        return cls._create(
            (prop._sqrt_deg, prop._eigvals, prop._eigvecs),
            graph_name=prop.graph.name,
            lazy=prop.lazy,
        )

    def propagator(self, g: Graph) -> SpectralPropagator:
        """Rebuild the publisher's propagator for ``g`` on zero-copy views
        (no ``eigh``; bitwise the parent's evaluations).  ``g`` must be
        the published graph (workers resolve it from the companion
        :class:`SharedCSR` segment; :class:`Graph` equality is structural,
        so the worker-side view graph keys the same caches)."""
        (n,) = self.handle.specs[0][1]  # checked before any view exists
        if g.n != n:
            raise ValueError(
                f"graph has n={g.n} but the published eigenbasis has n={n}"
            )
        sqrt_deg, eigvals, eigvecs = self.arrays()
        return SpectralPropagator.from_arrays(
            g, lazy=self.handle.lazy, sqrt_deg=sqrt_deg, eigvals=eigvals,
            eigvecs=eigvecs,
        )
