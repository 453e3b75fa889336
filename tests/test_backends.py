"""The seams shared by every solve path: the engine's scan kernel, the
propagator-cache front door, and the shared-memory eigenbasis that
spectral shards attach instead of re-decomposing.

The drivers call the float64 kernels of :mod:`repro.engine.oracle`
directly; these tests pin that what they read is exactly what the
oracle holds, that cache sizes are validated before they can change the
eviction arithmetic, and that a published eigenbasis round-trips bitwise.
"""

import numpy as np
import pytest

from repro.engine import (
    batched_local_mixing_times,
    clear_propagator_cache,
    propagator_cache_info,
    seed_shared_propagator,
    set_propagator_cache_maxsize,
    shared_spectral_propagator,
)
from repro.engine.oracle import (
    BatchedUniformDeviationOracle,
    sorted_scan_arrays,
)
from repro.graphs import generators as gen
from repro.parallel import (
    ShardExecutor,
    SharedEigenbasis,
    parallel_local_mixing_times,
)

# --------------------------------------------------------------------- #
# Cache-maxsize front-door hardening
# --------------------------------------------------------------------- #


class TestCacheMaxsizeValidation:
    def teardown_method(self):
        set_propagator_cache_maxsize(8)

    @pytest.mark.parametrize("bad", [True, False, 2.5, "8", -1, -100, None])
    def test_bad_sizes_rejected(self, bad):
        with pytest.raises(ValueError, match="maxsize must be"):
            set_propagator_cache_maxsize(bad)

    def test_zero_still_disables_caching(self):
        # maxsize=0 is a documented feature, not an invalid value.
        set_propagator_cache_maxsize(0)
        assert propagator_cache_info().maxsize == 0

    def test_numpy_integer_accepted(self):
        set_propagator_cache_maxsize(np.int64(4))
        assert propagator_cache_info().maxsize == 4

    @pytest.mark.parametrize("bad", [-3, 1.5, True])
    def test_executor_rejects_bad_cache_maxsize(self, bad):
        with pytest.raises(ValueError, match="cache_maxsize must be"):
            ShardExecutor(1, cache_maxsize=bad)


# --------------------------------------------------------------------- #
# Kernel interface the drivers call
# --------------------------------------------------------------------- #


class TestKernelBackendInterface:
    def test_sorted_scan_matches_oracle(self):
        rng = np.random.default_rng(1)
        P = rng.random((30, 4))
        P /= P.sum(axis=0)
        S, prefix = sorted_scan_arrays(P)
        oracle = BatchedUniformDeviationOracle(P)
        assert np.array_equal(S, oracle.sorted)
        assert np.array_equal(prefix, oracle.prefix)


# --------------------------------------------------------------------- #
# Shared-memory eigenbasis for spectral shards
# --------------------------------------------------------------------- #


class TestSharedEigenbasis:
    def test_publish_attach_bitwise_roundtrip(self):
        g = gen.random_regular(20, 4, seed=9)
        prop = shared_spectral_propagator(g, False)
        with SharedEigenbasis.publish(prop) as se:
            att = SharedEigenbasis.attach(se.handle)
            try:
                sd, ev, vecs = att.arrays()
                assert np.array_equal(sd, prop._sqrt_deg)
                assert np.array_equal(ev, prop._eigvals)
                assert np.array_equal(vecs, prop._eigvecs)
                # eigh returns an F-contiguous basis; the rebuilt operand
                # must preserve that layout (BLAS bitwise contract).
                assert (
                    vecs.flags.f_contiguous
                    == prop._eigvecs.flags.f_contiguous
                )
                rebuilt = att.propagator(g)
                assert np.array_equal(
                    prop.from_source(3, 17), rebuilt.from_source(3, 17)
                )
            finally:
                att.close()

    def test_propagator_rejects_mismatched_graph(self):
        g = gen.random_regular(20, 4, seed=9)
        with SharedEigenbasis.publish(
            shared_spectral_propagator(g, False)
        ) as se:
            with pytest.raises(ValueError, match="n=9"):
                se.propagator(gen.cycle_graph(9))

    def test_seed_skips_eigendecomposition(self):
        g = gen.random_regular(20, 4, seed=11)
        prop = shared_spectral_propagator(g, False)
        with SharedEigenbasis.publish(prop) as se:
            att = SharedEigenbasis.attach(se.handle)
            try:
                clear_propagator_cache()
                seeded = seed_shared_propagator(att.propagator(g))
                info = propagator_cache_info()
                assert info.misses == 0  # seeding is not a lookup
                assert shared_spectral_propagator(g, False) is seeded
                assert propagator_cache_info().hits == info.hits + 1
            finally:
                clear_propagator_cache()
                att.close()

    def test_unlink_removes_segment(self):
        g = gen.cycle_graph(12)
        se = SharedEigenbasis.publish(shared_spectral_propagator(g, False))
        handle = se.handle
        se.unlink()
        se.close()
        with pytest.raises(FileNotFoundError):
            SharedEigenbasis.attach(handle)

    def test_executor_publishes_eigenbasis_for_spectral(self):
        g = gen.random_regular(24, 4, seed=5)
        with ShardExecutor(2) as ex:
            ser = batched_local_mixing_times(g, 3.0, method="spectral")
            out = parallel_local_mixing_times(
                g, 3.0, method="spectral", executor=ex, n_workers=2
            )
            assert [r.time for r in out] == [r.time for r in ser]
            stats = ex.stats()
            assert stats["published_eigenbases"] == 1
            # iterative solves do not publish an eigenbasis
            parallel_local_mixing_times(g, 3.0, executor=ex, n_workers=2)
            assert ex.stats()["published_eigenbases"] == 1

