"""Zero-copy graph sharing across worker processes.

A :class:`SharedCSR` places a graph's CSR arrays (``indptr``, ``indices``)
in **one** :class:`multiprocessing.shared_memory.SharedMemory` segment,
written once by the publishing process.  Workers receive only a tiny
picklable :class:`SharedHandle` (segment name, each array's dtype and
shape, plus the graph name) and map the segment into their own address
space, so no worker ever copies the topology.  This is the same
shared-memory design production graph systems use to fan sampling out
across cores (e.g. DGL's ``shared_memory``-backed graph store).

Workers rebuild the :class:`~repro.graphs.base.Graph` with
:meth:`~repro.graphs.base.Graph.from_csr` on views of the shared buffer,
without re-validation.  Because :class:`Graph` hashes by its CSR bytes,
the worker-side graph is ``==`` to the publisher's, so every
structure-keyed cache downstream behaves identically in workers and
parent.

Lifecycle contract
------------------
The **publisher** owns the segment: it must eventually call
:meth:`SharedCSR.unlink` (or use the instance as a context manager, or
let :class:`~repro.parallel.executor.ShardExecutor` manage it) to remove
the segment from the OS namespace.  **Attachers** only :meth:`close` their
mapping (see :meth:`SharedCSR.attach` for the resource-tracker rule).
Unlinking while a worker still holds a mapping is safe on POSIX (the
memory lives until the last mapping closes) and a no-op on Windows.
"""

from __future__ import annotations

import errno
import os
from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np

from repro.graphs.base import Graph

__all__ = ["SharedCSR", "SharedHandle"]


@dataclass(frozen=True)
class SharedHandle:
    """Picklable pointer to a published segment.

    Attributes
    ----------
    shm_name:
        OS name of the shared-memory segment.
    specs:
        ``(dtype, shape)`` per array, in segment order; the arrays are
        packed back to back.
    graph_name:
        The graph's human-readable name, forwarded so worker-side reprs
        and error messages match the parent's.
    """

    shm_name: str
    specs: tuple[tuple[str, tuple[int, ...]], ...]
    graph_name: str


class SharedCSR:
    """A graph's CSR arrays (``indptr``, ``indices``) in shared memory.

    Construct via :meth:`publish` (in the owning process) or
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
        self._pid = os.getpid()  # a fork of the publisher never unlinks
        self._unlinked = False
        self._graph: Graph | None = None

    @classmethod
    def publish(cls, g: Graph) -> "SharedCSR":
        """Copy ``g``'s CSR arrays into a fresh shared segment (done once;
        every worker maps the same physical pages afterwards).  Raises
        ``OSError`` (``ENOSPC``) when the shared-memory filesystem has
        less room than the segment needs."""
        arrays = (g.indptr, g.indices)
        size = max(sum(a.nbytes for a in arrays), 1)
        if os.path.isdir("/dev/shm"):  # Linux; a copy past a full one: SIGBUS
            fs = os.statvfs("/dev/shm")
            if fs.f_bavail * fs.f_frsize < size:
                raise OSError(errno.ENOSPC, "/dev/shm has no room for it")
        shm = shared_memory.SharedMemory(create=True, size=size)
        specs = tuple((a.dtype.str, a.shape) for a in arrays)
        shared = cls(shm, SharedHandle(shm.name, specs, g.name), owner=True)
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
        """The published arrays as views of the shared buffer."""
        out = []
        offset = 0
        for dtype, shape in self.handle.specs:
            view = np.ndarray(
                shape, dtype=dtype, buffer=self._shm.buf, offset=offset
            )
            out.append(view)
            offset += view.nbytes
        return tuple(out)

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
        """Drop the cached graph and unmap this process's view of the
        segment (keeps the segment itself alive for other processes)."""
        self._graph = None
        try:
            self._shm.close()
        except BufferError:  # pragma: no cover - exported numpy views
            # A live numpy view still points into the mapping; the OS
            # reclaims it with the process instead.
            pass

    def unlink(self) -> None:
        """Remove the segment from the OS namespace (publisher only;
        idempotent).  Existing mappings stay valid until closed."""
        if not self.owner or self._unlinked or self._pid != os.getpid():
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
        shapes = [shape for _, shape in self.handle.specs]
        return (
            f"{type(self).__name__}({self.handle.graph_name!r}, "
            f"shapes={shapes}, shm={self.handle.shm_name!r}, {role})"
        )
