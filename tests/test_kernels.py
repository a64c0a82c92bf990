import concurrent.futures
import math
import mmap
import os
import resource
import subprocess
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg.blas import ssyrk
from scipy.special import roots_gegenbauer

from marginlab import harness, kernels, learners, orthopoly, sphere
from marginlab.orthopoly import PolyCoeffs, legendre_table
from marginlab.sphere import RngStream

SHIPPED = [("linear", {}), ("sss", {}), ("rbf", {"sigma": 1.0}),
           ("rbf", {"sigma": 0.5}), ("rbf", {"sigma": 2.0}),
           ("poly", {"degree": 3})]
GRID = np.linspace(-1.0, 1.0, 401)


def sphere_points(d, n, seed=0):
    rng = RngStream(seed, 0)
    return np.array([sphere.sample_unit_sphere(d, rng) for _ in range(n)])


def test_kernel_spec_exactly_one_form():
    with pytest.raises(kernels.KernelError):
        kernels.KernelSpec(profile=lambda s: s, feature_map=lambda X: X)
    with pytest.raises(kernels.KernelError):
        kernels.KernelSpec()


def test_shipped_kernel_values():
    assert kernels.standard_kernel("linear").profile_value(0.3) == pytest.approx(0.3)
    sss = kernels.standard_kernel("sss")
    # 1/(2 - s), the profile 1/(1 - s/2) over its value 2 at s=1
    assert sss.profile_value(1.0) == pytest.approx(1.0)
    assert sss.profile_value(0.0) == pytest.approx(0.5)
    rbf = kernels.standard_kernel("rbf", sigma=2.0)
    assert rbf.profile_value(1.0) == pytest.approx(1.0)
    assert rbf.profile_value(-1.0) == pytest.approx(math.exp(-0.5))
    poly = kernels.standard_kernel("poly", degree=3)
    assert poly.profile_value(0.0) == pytest.approx(0.125)
    with pytest.raises(kernels.KernelError):
        kernels.standard_kernel("nope")
    # a parameter the kernel does not read is refused, not dropped
    for name, params in (("rbf", {"sigm": 0.3}), ("linear", {"degree": 3}),
                         ("sss", {"sigma": 1.0}),
                         ("poly", {"degree": 2, "sigma": 1.0})):
        with pytest.raises(kernels.KernelError, match="takes no parameter"):
            kernels.standard_kernel(name, **params)


def test_sss_profile_matches_normalized_form():
    # 1/(2 - s) is bitwise (1/(1 - s/2)) / 2: scaling by 2 commutes with
    # rounding, so sss Gram matrices keep their bytes
    s = np.linspace(-1.0, 1.0, 4001)
    sss = kernels.standard_kernel("sss")
    assert np.array_equal(sss.profile_value(s), (1.0 / (1.0 - 0.5 * s)) / 2.0)


def test_taylor_coefficients_sum_to_profile():
    for name, params in SHIPPED:
        k = kernels.standard_kernel(name, **params)
        assert np.all(k.taylor >= 0.0)
        series = np.polynomial.polynomial.polyval(GRID, k.taylor)
        assert np.allclose(series, k.profile_value(GRID), rtol=0.0, atol=1e-14)


def test_gram_psd_shipped_kernels():
    shipped = [
        kernels.standard_kernel("linear"),
        kernels.standard_kernel("sss"),
        kernels.standard_kernel("rbf", sigma=1.0),
        kernels.standard_kernel("poly", degree=3),
    ]
    for seed in range(10):
        X = sphere_points(7, 15, seed)
        for k in shipped:
            G = kernels.gram(k, X)
            assert kernels.min_eigenvalue(G) >= -1e-8 * len(X)


def test_blocked_gram_matches_unblocked_product():
    # the lower triangle at this n spans three profile blocks, the last one
    # partial; kernels.gram defines the lower triangle only
    X = sphere_points(7, math.isqrt(3 * kernels.PROFILE_BLOCK) + 37)
    assert len(list(kernels._lower_blocks(len(X)))) == 3
    Y = sphere_points(7, 50, 1)
    shipped = [
        kernels.standard_kernel("linear"),
        kernels.standard_kernel("sss"),
        kernels.standard_kernel("rbf", sigma=1.0),
        kernels.standard_kernel("poly", degree=3),
    ]
    for k in shipped:
        P = k.profile_value(X @ X.T)
        G = kernels.gram(k, X)
        assert np.array_equal(np.tril(G), np.tril(P))
        K = kernels.cross_gram(k, X, X)
        assert np.array_equal(K, K.T)
        assert np.array_equal(kernels.cross_gram(k, X, Y),
                              k.profile_value(X @ Y.T))
    series = kernels.KernelSpec(
        name="series", profile=PolyCoeffs(7, np.array([0.4, 0.3, 0.2, 0.1])))
    A = np.random.default_rng(3).standard_normal((12, 7))
    feat = kernels.KernelSpec(
        name="feat", feature_map=lambda Z: np.tanh(np.atleast_2d(Z) @ A.T))
    unblocked = {
        "series": lambda U, V: series.profile_value(U @ V.T),
        "feat": lambda U, V: feat.feature_map(U) @ feat.feature_map(V).T,
    }
    for k in (series, feat):
        P = unblocked[k.name](X, X)
        G = kernels.gram(k, X)
        assert np.allclose(np.tril(G), np.tril(P), rtol=0.0, atol=1e-14)
        K = kernels.cross_gram(k, X, X)
        assert np.allclose(K, K.T, rtol=0.0, atol=1e-14)
        assert np.allclose(kernels.cross_gram(k, X, Y), unblocked[k.name](X, Y),
                           rtol=0.0, atol=1e-14)


def product_error(k, X, u):
    """||gram_product(gram(k, X), u) - cross_gram(k, X, X) u|| over the
    scale ||K|| ||u|| (Frobenius norm, an upper bound on the spectral one)."""
    K = kernels.cross_gram(k, X, X)
    got = kernels.gram_product(kernels.gram(k, X), u)
    return float(np.linalg.norm(got - K @ u)
                 / (np.linalg.norm(K) * np.linalg.norm(u)))


def product_kernels():
    A = np.random.default_rng(7).standard_normal((9, 6))
    return [
        kernels.standard_kernel("linear"),
        kernels.standard_kernel("sss"),
        kernels.standard_kernel("rbf", sigma=1.0),
        kernels.standard_kernel("poly", degree=3),
        kernels.KernelSpec(
            name="series",
            profile=PolyCoeffs(6, np.array([0.3, 0.4, 0.2, 0.1]))),
        kernels.KernelSpec(
            name="feat",
            feature_map=lambda Z: np.tanh(np.atleast_2d(Z) @ A.T)),
    ]


@settings(max_examples=12, deadline=None)
@given(st.integers(1, 1100), st.integers(0, 2**32 - 1))
def test_gram_product_matches_full_kernel_matrix(n, seed):
    # n = 1100 puts the lower triangle in four profile blocks, n <= 512 in one
    X = sphere_points(6, n, seed % 1000)
    u = np.random.default_rng(seed).standard_normal(n)
    for k in product_kernels():
        assert product_error(k, X, u) <= 1e-12, k.name


def test_mutated_upper_triangle_read_is_caught(monkeypatch):
    # a product that reads the undefined strict upper triangle
    dsymv = kernels.dsymv

    def upper_dsymv(alpha, a, x, lower=1):
        return dsymv(alpha, a, x, lower=0)

    monkeypatch.setattr(kernels, "dsymv", upper_dsymv)
    X = sphere_points(6, 300, 4)
    u = np.random.default_rng(4).standard_normal(300)
    for k in product_kernels():
        assert product_error(k, X, u) > 1e-3, k.name


def test_mutated_dropped_last_block_is_caught(monkeypatch):
    # a block loop that leaves the last partial block as raw inner products;
    # the linear profile is the identity there, so only the others can fail
    blocks = kernels._lower_blocks
    monkeypatch.setattr(kernels, "_lower_blocks",
                        lambda n: list(blocks(n))[:-1])
    X = sphere_points(6, 1100, 5)
    u = np.random.default_rng(5).standard_normal(1100)
    for k in product_kernels():
        if k.is_zonal and k.name != "linear":
            assert product_error(k, X, u) > 1e-6, k.name


def test_float32_gram_within_rounding():
    # from F32_MIN_N points on, gram stores a float32 triangle: within a few
    # float32 epsilons (rounding of the points, the inner products and the
    # profile) of the float64 kernel matrix, and its product likewise
    n = kernels.F32_MIN_N
    X = sphere_points(6, n, 8)
    u = np.random.default_rng(8).standard_normal(n)
    eps32 = float(np.finfo(np.float32).eps)
    for k in product_kernels():
        G = kernels.gram(k, X)
        assert G.dtype == np.float32 and G.flags.f_contiguous, k.name
        K = kernels.cross_gram(k, X, X)
        scale = np.max(np.abs(K))
        assert np.max(np.abs(np.tril(G) - np.tril(K))) <= 8 * eps32 * scale
        Gu = kernels.gram_product(G, u)
        assert Gu.dtype == np.float64
        assert (np.linalg.norm(Gu - K @ u)
                <= 8 * eps32 * np.linalg.norm(K) * np.linalg.norm(u)), k.name
    # one point fewer stays float64
    assert kernels.gram(k, X[1:]).dtype == np.float64


def test_mutated_float32_dropped_last_block_is_caught(monkeypatch):
    # a float32 build that never forms its last block leaves that corner of
    # the triangle as whatever the fresh buffer held: zeros, stale entries or
    # not even finite numbers, so the product is off by far more than the
    # 8 float32 epsilons that test_float32_gram_within_rounding allows, or
    # not finite; the linear profile fails too, as no raw inner products are
    # left behind
    blocks = kernels._lower_blocks
    monkeypatch.setattr(kernels, "_lower_blocks",
                        lambda n: list(blocks(n))[:-1])
    n = kernels.F32_MIN_N
    X = sphere_points(6, n, 12)
    u = np.random.default_rng(12).standard_normal(n)
    for k in product_kernels():
        if k.is_zonal:
            assert kernels.gram(k, X).dtype == np.float32
            assert not product_error(k, X, u) <= 1e-4, k.name


def exact_product_error(k, X, V):
    """||exact_gram_product(k, X, V) - cross_gram(k, X, X) V|| over the
    scale ||K|| ||V||."""
    K = kernels.cross_gram(k, X, X)
    got = kernels.exact_gram_product(k, X, V)
    assert got.dtype == np.float64 and got.shape == V.shape
    return float(np.linalg.norm(got - K @ V)
                 / (np.linalg.norm(K) * np.linalg.norm(V)))


def test_exact_gram_product_matches_cross_gram():
    # K V in float64 from strips of the points, at a size where gram stores
    # float32, for a vector and for the solver's two columns
    n = kernels.F32_MIN_N + 37
    X = sphere_points(6, n, 9)
    V = np.random.default_rng(9).standard_normal((n, 2))
    for k in product_kernels():
        for W in (V, V[:, 0]):
            assert exact_product_error(k, X, W) <= 1e-12, k.name


def test_mutated_exact_product_strip_is_caught(monkeypatch):
    # a strip loop that leaves out the last strip of rows and columns
    blocks = kernels._lower_blocks
    monkeypatch.setattr(kernels, "_lower_blocks",
                        lambda n: list(blocks(n))[:-1])
    X = sphere_points(6, 1100, 10)
    V = np.random.default_rng(10).standard_normal((1100, 2))
    for k in product_kernels():
        if k.is_zonal:
            assert exact_product_error(k, X, V) > 1e-3, k.name


def reference_gram32(k, X):
    """kernels.gram from F32_MIN_N points as it was before it formed the
    triangle block by block: one ssyrk, then the profile over the triangle
    from memory.  The shipped build must give its lower triangle's bits:
    blocked sgemm and whole-triangle ssyrk agreeing bit for bit is a
    property of the BLAS build (measured with scipy's OpenBLAS), which
    test_cached_blocks_match_references pins."""
    G = ssyrk(1.0, X, lower=1)
    GT = G.T
    for lo, hi in kernels._lower_blocks(len(G)):
        kernels._apply_profile(k.profile, GT[lo:hi, lo:])
    return G


def reference_exact_gram_product(k, X, V):
    """kernels.exact_gram_product for a zonal kernel as it was before it
    reused one buffer: a fresh strip for every block."""
    out = np.zeros(V.shape)
    for lo, hi in kernels._lower_blocks(len(X)):
        strip = X[lo:hi] @ X[lo:].T
        kernels._apply_profile(k.profile, strip)
        out[lo:hi] += strip @ V[lo:]
        out[hi:] += strip[:, hi - lo:].T @ V[lo:hi]
    return out


def reference_screened_scores(k, X, support, alpha):
    """The scores of kernels.screened_scores as they were before it cast X
    once and reused one buffer: X cast block by block, a fresh block of
    entries each time."""
    n, M = len(support), min(kernels.SCREEN_CHUNK, len(support))
    S32, a32 = support.astype(np.float32), alpha.astype(np.float32)
    full = n - n % M
    chunked = a32[:full].reshape(-1, 1, M)
    scores = np.empty(len(X))
    rows = max(2 * kernels.PROFILE_BLOCK // n, 1)
    for lo in range(0, len(X), rows):
        Kt = S32 @ X[lo:lo + rows].astype(np.float32).T
        kernels._apply_profile(k.profile, Kt)
        partial = np.matmul(chunked, Kt[:full].reshape(-1, M, Kt.shape[1]))
        out = partial.sum(axis=0, dtype=float)[0]
        if full < n:
            out += a32[full:] @ Kt[full:]
        scores[lo:lo + rows] = out
    return scores


def same_lower_triangle(A, B):
    """Whether two F-ordered Gram matrices hold the same lower-triangle
    bits, compared one _lower_blocks block at a time (no n x n copy)."""
    return all(np.array_equal(np.triu(A.T[lo:hi, lo:]), np.triu(B.T[lo:hi, lo:]))
               for lo, hi in kernels._lower_blocks(len(A)))


# every shipped zonal kernel, rbf at widths below, at and above 1
ZONAL = [("linear", {}), ("sss", {}), ("rbf", {"sigma": 0.3}),
         ("rbf", {"sigma": 1.0}), ("rbf", {"sigma": 2.0}),
         ("poly", {"degree": 3})]


@pytest.mark.parametrize("n", [kernels.F32_MIN_N, kernels.F32_MIN_N + 37,
                               4000])
@pytest.mark.parametrize("d", [3, 25])
def test_cached_blocks_match_references(n, d):
    # the float32 triangle, the exact pass and the screen give the bits of
    # the forms they replaced; the test points span two whole screen
    # blocks and a partial one
    X = sphere_points(d, n, n + d)
    rng = np.random.default_rng(n + d)
    V = rng.standard_normal((n, 2))
    rows = max(2 * kernels.PROFILE_BLOCK // n, 1)
    T = sphere_points(d, 2 * rows + 37, 1)
    alpha = rng.standard_normal(n)
    for name, params in ZONAL:
        k = kernels.standard_kernel(name, **params)
        G = kernels.gram(k, X)
        assert G.dtype == np.float32 and G.flags.f_contiguous
        assert same_lower_triangle(G, reference_gram32(k, X)), (name, params)
        del G
        for W in (V, V[:, 0]):
            assert np.array_equal(kernels.exact_gram_product(k, X, W),
                                  reference_exact_gram_product(k, X, W))
        assert np.array_equal(kernels.screened_scores(k, T, X, alpha)[0],
                              reference_screened_scores(k, T, X, alpha))


def test_one_row_blocks_match_references(monkeypatch):
    # with a tiny PROFILE_BLOCK the first strips and every screen block are
    # one row longer than a block, which the buffers must still hold
    monkeypatch.setattr(kernels, "PROFILE_BLOCK", 64)
    X = sphere_points(5, 150, 13)
    assert next(kernels._lower_blocks(len(X))) == (0, 1)
    rng = np.random.default_rng(13)
    V = rng.standard_normal((150, 2))
    T = sphere_points(5, 9, 14)
    alpha = rng.standard_normal(150)
    for name, params in ZONAL:
        k = kernels.standard_kernel(name, **params)
        for W in (V, V[:, 0]):
            assert np.array_equal(kernels.exact_gram_product(k, X, W),
                                  reference_exact_gram_product(k, X, W))
        assert np.array_equal(kernels.screened_scores(k, T, X, alpha)[0],
                              reference_screened_scores(k, T, X, alpha))


@pytest.mark.parametrize("block, n", [(64, 150), (2**12, 300)])
def test_worker_counts_match_references(monkeypatch, block, n):
    # the float32 passes give the bits of one worker's loop however many
    # workers share their blocks: one-row first blocks (64 entries, rows of
    # 150) and many blocks of many rows, with as many runs as workers.  One
    # worker's exact pass and screen are the references'; its triangle is
    # ssyrk's where no block is one row (a one-row sgemm is a BLAS gemv,
    # which rounds otherwise)
    monkeypatch.setattr(kernels, "PROFILE_BLOCK", block)
    monkeypatch.setattr(kernels, "F32_MIN_N", 100)
    X = sphere_points(5, n, n)
    rng = np.random.default_rng(n)
    V = rng.standard_normal((n, 2))
    rows = max(2 * block // n, 1)
    T = sphere_points(5, 5 * rows + 3, n + 1)
    alpha = rng.standard_normal(n)
    one_row = any(hi - lo == 1 for lo, hi in kernels._lower_blocks(n))
    for name, params in ZONAL:
        k = kernels.standard_kernel(name, **params)
        monkeypatch.setattr(kernels, "_WORKERS", 1)
        serial = kernels.gram(k, X)
        assert one_row or same_lower_triangle(serial, reference_gram32(k, X))
        for workers in (1, 2, 3):
            monkeypatch.setattr(kernels, "_WORKERS", workers)
            assert len(kernels._lower_runs(n)) == workers
            G = kernels.gram(k, X)
            assert G.dtype == np.float32
            assert same_lower_triangle(G, serial), (workers, name, params)
            for W in (V, V[:, 0]):
                assert np.array_equal(kernels.exact_gram_product(k, X, W),
                                      reference_exact_gram_product(k, X, W))
            assert np.array_equal(kernels.screened_scores(k, T, X, alpha)[0],
                                  reference_screened_scores(k, T, X, alpha))


def test_profile_error_on_one_block_is_raised_after_every_run(monkeypatch):
    # a profile that fails on one block, in the calling thread's run or in
    # a pool run, makes the pass raise that error once every run has ended:
    # no profile call is still running or starts afterwards
    monkeypatch.setattr(kernels, "PROFILE_BLOCK", 2**10)
    monkeypatch.setattr(kernels, "F32_MIN_N", 100)
    monkeypatch.setattr(kernels, "_WORKERS", 3)
    n = 200
    X = sphere_points(5, n, 16)
    T = sphere_points(5, 47, 17)  # screen blocks of 10 rows, the last of 7
    lock, state = threading.Lock(), {"running": 0, "calls": 0}

    class Planted(Exception):
        pass

    def planted(width):
        def profile(s):
            with lock:
                state["running"] += 1
                state["calls"] += 1
            try:
                time.sleep(0.002)
                if s.shape[-1] == width:
                    raise Planted(width)
                return np.exp(s - 1.0)
            finally:
                with lock:
                    state["running"] -= 1
        return kernels.KernelSpec(name="planted", profile=profile)

    first, last = kernels._lower_runs(n)[0][0], kernels._lower_runs(n)[-1][-1]
    passes = [(kernels.gram, (X,), n - first[0]),
              (kernels.gram, (X,), n - last[0]),
              (kernels.exact_gram_product, (X, np.ones(n)), n - first[0]),
              (kernels.exact_gram_product, (X, np.ones(n)), n - last[0]),
              (kernels.screened_scores, (T, X, np.ones(n)), 7)]
    for f, args, width in passes:
        with pytest.raises(Planted) as raised:
            f(planted(width), *args)
        assert raised.value.args == (width,)
        calls = state["calls"]
        assert state["running"] == 0
        time.sleep(0.05)
        assert state["calls"] == calls and state["running"] == 0


def test_concurrent_callers_share_one_pool(monkeypatch):
    # more callers than cores, with a short switch interval, start from no
    # pool at once: one pool is made, and every caller gets one worker's
    # bits
    monkeypatch.setattr(kernels, "PROFILE_BLOCK", 2**10)
    monkeypatch.setattr(kernels, "F32_MIN_N", 100)
    monkeypatch.setattr(kernels, "_WORKERS", 1)
    k = kernels.standard_kernel("rbf", sigma=0.5)
    X = sphere_points(5, 200, 18)
    V = np.random.default_rng(18).standard_normal((200, 2))
    serial = kernels.gram(k, X), kernels.exact_gram_product(k, X, V)
    monkeypatch.setattr(kernels, "_WORKERS", 3)
    monkeypatch.setattr(kernels, "_pool", None)
    made, got = [], []
    executor = concurrent.futures.ThreadPoolExecutor

    def counted(*args, **kwargs):
        time.sleep(0.01)  # widens the window between the check and the store
        made.append(executor(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", counted)
    start = threading.Barrier(12)

    def call():
        start.wait(timeout=60)
        got.append((kernels.gram(k, X), kernels.exact_gram_product(k, X, V)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=call) for _ in range(12)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert len(got) == 12 and made == [kernels._pool]
    for G, product in got:
        assert same_lower_triangle(G, serial[0])
        assert np.array_equal(product, serial[1])


FORK_CHILD = """
import os, signal, sys
import numpy as np
from marginlab import kernels
kernels.F32_MIN_N, kernels.PROFILE_BLOCK, kernels._WORKERS = 100, 2**10, 2
k = kernels.standard_kernel("rbf")
X = np.random.default_rng(0).standard_normal((200, 5))
G = np.tril(kernels.gram(k, X))
pid = os.fork()
if pid == 0:
    signal.alarm(30)  # a child that hangs is killed, and the parent told
    os._exit(0 if np.array_equal(np.tril(kernels.gram(k, X)), G) else 1)
sys.exit(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
"""


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork here")
def test_forked_child_makes_its_own_pool():
    # a child forked after the pool was made has none of its threads: it
    # makes a pool of its own, where the parent's would leave its runs
    # queued for ever
    src = os.path.dirname(os.path.dirname(os.path.abspath(kernels.__file__)))
    done = subprocess.run([sys.executable, "-c", FORK_CHILD], timeout=120,
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True)
    assert done.returncode == 0, done.stderr


def traced_peak(f, *args):
    """The peak of the bytes traced by tracemalloc while f(*args) runs,
    numpy's array data included, above what was traced before, and what f
    returned."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = f(*args)
        return tracemalloc.get_traced_memory()[1] - base, out
    finally:
        tracemalloc.stop()


def test_cached_blocks_memory_contract(monkeypatch):
    # the exact pass holds one float64 block buffer per worker, the strip
    # products that the runs after the first keep for the calling thread to
    # add in block order, its output and products of the output's size,
    # never K (n^2 8 bytes, 35 MB here); at one worker that is one buffer.
    # The float32 build's triangle is an anonymous mapping, which
    # tracemalloc does not see: the traced build holds less than a block
    # besides, at any worker count, and returns the n^2 4 bytes of its
    # mapping, and after a hand-back the next build of that size returns
    # the same mapping.  With that spare present, the exact pass, the
    # screen and a rescored block of test points borrow its head: each
    # holds less than one float64 block of its own
    monkeypatch.setattr(kernels, "_spare", None)
    n = kernels.F32_MIN_N + 37
    X = sphere_points(25, n, 15)
    V = np.random.default_rng(15).standard_normal((n, 2))
    T = sphere_points(25, 1000, 16)
    hinge = learners.make_loss("hinge")
    slack = 64 * 1024
    block = 8 * max(kernels.PROFILE_BLOCK, n)
    for workers in (kernels._WORKERS, 1):
        monkeypatch.setattr(kernels, "_WORKERS", workers)
        # a kept pair of a block [lo, hi) is V's rows lo.. in two parts
        kept = sum(8 * V.shape[1] * (n - lo)
                   for run in kernels._lower_runs(n)[1:] for lo, _ in run)
        assert (workers > 1) == (kept > 0)
        for name, params in ZONAL:
            k = kernels.standard_kernel(name, **params)
            peak, _ = traced_peak(kernels.exact_gram_product, k, X, V)
            assert peak <= workers * block + kept + 3 * V.nbytes + slack, \
                (workers, name, params)
            peak, G = traced_peak(kernels.gram, k, X)
            assert peak <= 4 * kernels.PROFILE_BLOCK + slack, \
                (workers, name, params)
            assert isinstance(G.base, mmap.mmap)
            assert len(G.base) == G.nbytes == 4 * n * n
            kernels.hand_back(G)
            peak, again = traced_peak(kernels.gram, k, X)
            assert peak <= 4 * kernels.PROFILE_BLOCK + slack
            assert again.base is G.base
            kernels.hand_back(again)
            model = learners.KernelModel(support=X, alpha=V[:, 0], b=0.0,
                                         C=1.0, kernel=k, loss=hinge)
            for f, args in ((kernels.exact_gram_product, (k, X, V)),
                            (kernels.screened_scores, (k, T, X, V[:, 0])),
                            (model.decision_function,
                             (T[:learners.TEST_BLOCK],))):
                peak, _ = traced_peak(f, *args)
                assert peak < 8 * kernels.PROFILE_BLOCK, \
                    (workers, name, params, f.__name__)
                assert kernels._spare is G.base
            del G, again


@pytest.mark.parametrize("block, n", [(2**12, 300),
                                      (kernels.PROFILE_BLOCK,
                                       kernels.F32_MIN_N + 37)])
def test_spare_full_of_nan_changes_no_bit(monkeypatch, block, n):
    # a build writes all of the lower triangle, so a spare whose every
    # entry is NaN, as stale as a spare can be, gives a fresh mapping's
    # bits, at one worker and at two
    monkeypatch.setattr(kernels, "_spare", None)
    monkeypatch.setattr(kernels, "PROFILE_BLOCK", block)
    monkeypatch.setattr(kernels, "F32_MIN_N", 100)
    X = sphere_points(5, n, n)
    for name, params in ZONAL:
        k = kernels.standard_kernel(name, **params)
        fresh = kernels.gram(k, X)
        for workers in (1, 2):
            monkeypatch.setattr(kernels, "_WORKERS", workers)
            spare = kernels.gram(k, X)
            spare.fill(np.nan)
            kernels.hand_back(spare)
            G = kernels.gram(k, X)
            assert G.base is spare.base and kernels._spare is None
            assert same_lower_triangle(G, fresh), (workers, name, params)
            assert not np.isnan(np.tril(G)).any()


def test_triangles_held_at_once_never_share_memory(monkeypatch):
    # a build takes the spare only where its caller handed one back, and
    # only once; the process keeps one spare, of the last triangle handed
    # back, and no array that is not all of a float32 triangle's mapping
    monkeypatch.setattr(kernels, "_spare", None)
    monkeypatch.setattr(kernels, "F32_MIN_N", 100)
    k = kernels.standard_kernel("rbf", sigma=0.5)
    X = sphere_points(5, 200, 20)
    first, second = kernels.gram(k, X), kernels.gram(k, X)
    assert not np.shares_memory(first, second)
    kernels.hand_back(first)
    third, fourth = kernels.gram(k, X), kernels.gram(k, X)
    assert third.base is first.base
    assert not any(np.shares_memory(fourth, G) for G in (first, second))
    kernels.hand_back(second)
    kernels.hand_back(fourth)
    assert kernels._spare is fourth.base
    other = kernels.gram(k, X[:150])  # another size leaves the spare
    assert kernels._spare is fourth.base
    assert not np.shares_memory(other, fourth)
    for not_a_triangle in (kernels.gram(k, X[:50]),  # float64, from dsyrk
                           kernels.gram(kernels.KernelSpec(
                               feature_map=lambda Z: Z[:, :3]), X),  # ssyrk's
                           other[:, :100],  # a part of a triangle
                           np.zeros((150, 150), np.float32, order="F")):
        kernels.hand_back(not_a_triangle)
        assert kernels._spare is fourth.base
    # a view of all of a triangle, as a tracer may wrap one, is kept
    kernels.hand_back(other.T)
    assert kernels._spare is other.base


def test_loans_never_share_memory_with_a_live_triangle(monkeypatch):
    # the spare is out of the module while it is lent: a build meanwhile
    # maps a fresh triangle, another loan gets fresh memory, and a
    # hand-back meanwhile replaces the lent spare; else the spare comes
    # back, raise or not.  A loan lends the head of the spare, its first
    # min(n, PAGESIZE / 4) columns, and nothing past it
    monkeypatch.setattr(kernels, "_spare", None)
    monkeypatch.setattr(kernels, "F32_MIN_N", 100)
    k = kernels.standard_kernel("rbf", sigma=0.5)
    X = sphere_points(5, 200, 22)
    with kernels._loan((10, 10)) as buffer:  # no spare: np.empty
        assert not isinstance(buffer.base, mmap.mmap)
    first = kernels.gram(k, X)
    kernels.hand_back(first)
    spare = kernels._spare
    with kernels._loan((200 * 200 + 1,), np.float32) as buffer:  # too big
        assert buffer.base is not spare and kernels._spare is spare
    with kernels._loan((200, 100)) as lent:  # all of the mapping
        assert lent.base is spare and kernels._spare is None
        with kernels._loan((10,)) as other:
            assert not np.shares_memory(other, lent)
        second = kernels.gram(k, X)
        assert not np.shares_memory(second, lent)
    assert kernels._spare is spare
    with pytest.raises(RuntimeError):
        with kernels._loan((5,)) as lent:
            raise RuntimeError
    assert kernels._spare is spare
    with kernels._loan((200, 100)) as lent:
        third = kernels.gram(k, X)
        kernels.hand_back(second)
        assert not np.shares_memory(third, lent)
    assert kernels._spare is second.base  # the later hand-back's
    fourth = kernels.gram(k, X)
    assert fourth.base is second.base
    with kernels._loan((10,)) as buffer:
        assert not any(np.shares_memory(buffer, G) for G in (third, fourth))
    n = 1100  # past PAGESIZE / 4 columns on 4 KB pages
    G = kernels.gram(k, sphere_points(5, n, 23))
    kernels.hand_back(G)
    head = 4 * n * min(n, mmap.PAGESIZE // 4)
    with kernels._loan((head + 1,), np.uint8) as buffer:
        assert buffer.base is not G.base
    with kernels._loan((head,), np.uint8) as buffer:
        assert buffer.base is G.base
        # the build made every page of the head resident
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        buffer.fill(1)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        assert faults < head // mmap.PAGESIZE // 10, faults


def test_no_one_row_block_before_the_last_up_to_2_17_points():
    # a one-row block goes to a BLAS gemv through numpy's matmul, which
    # rounds otherwise than the sgemm of a longer block.  A block's rows,
    # PROFILE_BLOCK // (n - lo), grow along the triangle, so the first
    # block has the fewest of all but the last: at the shipped
    # PROFILE_BLOCK it has two rows or more up to 2^17 points and one row
    # from 2^17 + 1 points on
    assert kernels.PROFILE_BLOCK == 2**18
    for n in range(1, 2**17 + 1):
        lo, hi = next(kernels._lower_blocks(n))
        assert hi - lo >= 2 or hi == n, n
    rng = np.random.default_rng(21)
    for n in [2**17 - 1, 2**17] + list(rng.integers(2, 2**17, 20)):
        blocks = list(kernels._lower_blocks(int(n)))
        assert all(hi - lo >= 2 for lo, hi in blocks[:-1]), n
    assert next(kernels._lower_blocks(2**17 + 1)) == (0, 1)


def test_kernel_matrices_leave_inputs_unchanged():
    X = sphere_points(6, 700, 6)
    X[0] *= 1.0 + 1e-12  # one inner product just past 1, which the clip fixes
    Y = sphere_points(6, 40, 7)
    s = np.linspace(-1.5, 1.5, 301)
    X0, Y0, s0 = X.copy(), Y.copy(), s.copy()
    for k in product_kernels():
        if k.is_zonal:
            k.profile_value(s)
        kernels.cross_gram(k, X, Y)
        kernels.gram(k, X)
        assert np.array_equal(X, X0) and np.array_equal(Y, Y0), k.name
        assert np.array_equal(s, s0), k.name


@pytest.mark.parametrize("name, params, closed", [
    ("linear", {}, lambda s: s),
    ("sss", {}, lambda s: 1.0 / (2.0 - s)),
    ("rbf", {"sigma": 1.0}, lambda s: np.exp((s - 1.0) / 1.0**2)),
    ("rbf", {"sigma": 0.3}, lambda s: np.exp((s - 1.0) / 0.3**2)),
    ("poly", {"degree": 2}, lambda s: ((1.0 + s) / 2.0) ** 2),
    ("poly", {"degree": 3}, lambda s: ((1.0 + s) / 2.0) ** 3),
    ("poly", {"degree": 5}, lambda s: ((1.0 + s) / 2.0) ** 5),
    ("rbf", {"sigma": 0.5}, lambda s: np.exp((s - 1.0) / 0.5**2)),
    ("rbf", {"sigma": 1.5}, lambda s: np.exp((s - 1.0) / 1.5**2)),
    ("rbf", {"sigma": 2.0}, lambda s: np.exp((s - 1.0) / 2.0**2)),
])
def test_in_place_profiles_match_closed_forms(name, params, closed):
    # the grid reaches just past [-1, 1], where the clip brings s back
    tiny = np.finfo(float).eps
    s = np.concatenate([[-1.0 - 1e-9, -1.0 - tiny, 1.0 + tiny, 1.0 + 1e-9],
                        np.linspace(-1.0, 1.0, 4001)])
    expected = closed(np.clip(s, -1.0, 1.0))
    k = kernels.standard_kernel(name, **params)
    assert np.array_equal(k.profile_value(s), expected)
    t = np.clip(s, -1.0, 1.0)
    assert k.profile(t) is t  # written in place
    assert np.array_equal(t, expected)
    K = kernels.cross_gram(k, s[:, None], np.ones((1, 1)))
    assert np.array_equal(K[:, 0], expected)


def test_decision_function_matches_one_cross_gram():
    # n_test is not a multiple of the test-point block, so the last is partial
    X = sphere_points(7, 2 * learners.TEST_BLOCK + 37, 2)
    support = sphere_points(7, 600, 3)
    alpha = np.random.default_rng(4).standard_normal(len(support))
    mapped = []

    def features(Z):
        mapped.append(len(Z))
        return np.hstack([Z, Z[:, :3] ** 2])

    fmap = kernels.KernelSpec(name="features", feature_map=features)
    for k in [kernels.standard_kernel(name, **params)
              for name, params in SHIPPED] + [fmap]:
        model = learners.KernelModel(support=support, alpha=alpha, b=0.25,
                                     C=1.0, kernel=k,
                                     loss=learners.make_loss("hinge"))
        mapped.clear()
        scores = model.decision_function(X)
        if not k.is_zonal:
            # the support is mapped once, each of the three blocks once
            assert sorted(mapped) == [37] + [learners.TEST_BLOCK] * 2 + [600]
        assert np.array_equal(scores,
                              kernels.cross_gram(k, X, support) @ alpha + 0.25)


# the shipped kernels over the ranges the screen is claimed for
SCREENED = st.one_of(
    st.builds(lambda s: ("rbf", {"sigma": s}), st.floats(0.3, 3.0)),
    st.builds(lambda g: ("poly", {"degree": g}), st.integers(1, 8)),
    st.sampled_from([("sss", {}), ("linear", {})]),
)


def test_profile_rounding_holds():
    # each shipped profile in float32 lies within rounding u kappa(1) of its
    # float64 value at the same float32 arguments (whose own error is
    # ~1e-16), on a dense grid and near 1, where rbf and poly are steepest
    t = np.concatenate([np.linspace(-1.0, 1.0, 2**18),
                        1.0 - np.logspace(-8, 0, 4000)]).astype(np.float32)
    shipped = ([("linear", {}), ("sss", {})]
               + [("rbf", {"sigma": s}) for s in (0.3, 1.0, 3.0)]
               + [("poly", {"degree": g}) for g in range(1, 9)])
    for name, params in shipped:
        k = kernels.standard_kernel(name, **params)
        got = k.profile(t.copy()).astype(float)
        assert got.dtype == np.float64
        want = k.profile(t.astype(float))
        kappa = float(np.sum(k.taylor))
        allowed = k.rounding * kernels.U32 * kappa + kernels.TINY32
        assert np.max(np.abs(got - want)) <= allowed, (name, params)


def screen_error(k, X, support, alpha):
    """Largest |screened - float64 score| over the bound, and the bound."""
    scores, bound = kernels.screened_scores(k, X, support, alpha)
    exact = kernels.cross_gram(k, X, support) @ alpha
    return float(np.max(np.abs(scores - exact) / bound)), bound


@settings(max_examples=30, deadline=None)
@given(SCREENED, st.integers(2, 30), st.integers(0, 600),
       st.floats(-3.0, 3.0), st.booleans(), st.integers(0, 2**32 - 1))
def test_screened_scores_within_bound(kernel, d, extra, log_scale,
                                      positive, seed):
    # support sizes from F32_MIN_N, alpha of any scale, of one sign (whose
    # roundings cannot cancel) or of both, and points off the sphere
    rng = np.random.default_rng(seed)
    support = rng.standard_normal((kernels.F32_MIN_N + extra, d))
    support *= rng.uniform(0.25, 1.0, (len(support), 1)) / np.linalg.norm(
        support, axis=1, keepdims=True)
    X = rng.standard_normal((40, d))
    X *= rng.uniform(0.25, 2.0, (40, 1)) / np.linalg.norm(X, axis=1,
                                                          keepdims=True)
    alpha = 10.0**log_scale * rng.standard_normal(len(support))
    if positive:
        alpha = np.abs(alpha)
    k = kernels.standard_kernel(kernel[0], **kernel[1])
    ratio, bound = screen_error(k, X, support, alpha)
    assert ratio <= 1.0 and np.all(np.isfinite(bound)), kernel


def test_screen_applies_from_f32_min_n_to_rounded_zonal_kernels():
    rbf = kernels.standard_kernel("rbf")
    assert kernels.screens(rbf, kernels.F32_MIN_N)
    assert not kernels.screens(rbf, kernels.F32_MIN_N - 1)
    no_taylor = kernels.symmetrize_mc(rbf, 5, 16, RngStream(0, 0))
    no_rounding = kernels.KernelSpec(profile=rbf.profile, taylor=rbf.taylor)
    features = kernels.KernelSpec(feature_map=lambda Z: Z)
    for k in (no_taylor, no_rounding, features):
        assert not kernels.screens(k, kernels.F32_MIN_N)


def test_gram_rejects_non_kernel():
    # the PSD check the suites make, min_eigenvalue on a float64 Gram
    # matrix, flags a profile that is no kernel and passes a shipped one
    bad = kernels.KernelSpec(name="bad", profile=lambda s: -np.abs(s) - 1.0)
    X = sphere_points(5, 10)
    G = kernels.gram(bad, X)
    assert G.dtype == np.float64
    assert kernels.min_eigenvalue(G) < -1e-8 * len(X)
    good = kernels.gram(kernels.standard_kernel("sss"), X)
    assert kernels.min_eigenvalue(good) >= -1e-8 * len(X)


def test_cross_gram_matches_pointwise():
    k = kernels.standard_kernel("rbf", sigma=1.5)
    X, Y = sphere_points(6, 4, 1), sphere_points(6, 3, 2)
    M = kernels.cross_gram(k, X, Y)
    for i in range(4):
        for j in range(3):
            assert M[i, j] == pytest.approx(float(k.profile_value(X[i] @ Y[j])))


def test_feature_map_kernel():
    A = np.arange(12.0).reshape(3, 4) / 10.0
    k = kernels.KernelSpec(name="feat", feature_map=lambda X: np.atleast_2d(X) @ A.T)
    x, y = np.ones(4), np.arange(4.0)
    M = kernels.cross_gram(k, x[None, :], y[None, :])
    assert M.shape == (1, 1)
    assert M[0, 0] == pytest.approx(float((A @ x) @ (A @ y)))
    assert not k.is_zonal


# ---------------------------------------------------------------------------
# Legendre decomposition.
# ---------------------------------------------------------------------------

def reproduction_error(k, b, d):
    return float(np.max(np.abs(PolyCoeffs(d, b)(GRID) - k.profile_value(GRID))))


def test_linear_profile_decomposition():
    b = kernels.RkhsProfile.from_kernel(kernels.standard_kernel("linear"), 7).b
    assert np.array_equal(b, [0.0, 1.0])


def test_decomposition_reconstructs_profile():
    # independent oracle: b_n = <kappa, P_{d,n}> / <P_{d,n}, P_{d,n}> under
    # the weight (1 - s^2)^((d-3)/2), by Gauss-Gegenbauer quadrature, which
    # is accurate at this small d
    k = kernels.standard_kernel("rbf", sigma=1.0)
    d = 8
    b = kernels.RkhsProfile.from_kernel(k, d).b
    nodes, weights = roots_gegenbauer(256, (d - 2) / 2.0)
    table = legendre_table(d, len(b) - 1, nodes)
    quad = (table @ (weights * k.profile_value(nodes))) / ((table**2) @ weights)
    assert np.allclose(b, quad, rtol=0.0, atol=1e-10)


def test_profile_coefficients_nonnegative_and_sum():
    # exact at every d, including the headline d=25
    for name, params in SHIPPED:
        k = kernels.standard_kernel(name, **params)
        k1 = float(k.profile_value(1.0))
        for d in (3, 6, 10, 25, 50):
            b = kernels.RkhsProfile.from_kernel(k, d).b
            assert np.all(b >= 0.0), (name, params, d)
            assert abs(float(np.sum(b)) - k1) <= 1e-14, (name, params, d)
            assert reproduction_error(k, b, d) <= 1e-13, (name, params, d)


def test_narrow_rbf_expansion_within_max_degree():
    # rbf sigma = 0.02 needs 2918 Taylor terms, inside MAX_DEGREE = 4096;
    # the reproduction error peaks at about 1.6e-12 there
    for sigma in (0.05, 0.03, 0.02):
        k = kernels.standard_kernel("rbf", sigma=sigma)
        assert len(k.taylor) <= orthopoly.MAX_DEGREE + 1
        b = kernels.RkhsProfile.from_kernel(k, 25).b
        assert reproduction_error(k, b, 25) <= 2e-12, sigma


def test_mutated_expansion_sign_is_caught():
    # flipping the sign of the m P_{d,m-1} term of s P_{d,m} must break the
    # reproduction check of the kernels suite
    def flipped(c, d):
        m = np.arange(len(c))
        up = (m + d - 2) / (2 * m + d - 2)
        down = m / (2 * m + d - 2)
        b = np.zeros(len(c))
        for ck in c[::-1]:
            sb = np.zeros(len(c))
            sb[1:] = up[:-1] * b[:-1]
            sb[:-1] -= down[1:] * b[1:]
            sb[0] += ck
            b = sb
        return b

    for name, params in SHIPPED[1:]:
        k = kernels.standard_kernel(name, **params)
        for d in (6, 10, 25):
            exact = kernels.RkhsProfile.from_kernel(k, d).b
            assert reproduction_error(k, exact, d) <= harness.REPRODUCTION_TOL
            mutant = flipped(k.taylor, d)
            assert reproduction_error(k, mutant, d) > harness.REPRODUCTION_TOL


def test_from_kernel_needs_taylor_coefficients():
    feat = kernels.KernelSpec(name="feat",
                              feature_map=lambda X: np.atleast_2d(X)[:, :2])
    tabulated = kernels.symmetrize_mc(kernels.standard_kernel("rbf"), 6, 16,
                                      RngStream(0, 0))
    for k in (feat, tabulated):
        with pytest.raises(kernels.KernelError):
            kernels.RkhsProfile.from_kernel(k, 6)


def test_rkhs_norm_and_reproducing_identity():
    k = kernels.standard_kernel("sss")
    for d in (6, 10, 25):
        prof = kernels.RkhsProfile.from_kernel(k, d)
        # ||k(., x0)||^2 = sum b_n = kappa(1) = 1
        nrm = kernels.rkhs_norm_symmetric(prof.b, prof)
        assert nrm == pytest.approx(1.0, abs=1e-12)


def test_rkhs_norm_infinite_outside_index_set():
    b = np.zeros(5)
    b[0], b[2] = 0.5, 0.5
    prof = kernels.RkhsProfile(6, b)
    alpha = np.zeros(5)
    alpha[1] = 1.0
    with pytest.raises(kernels.InfiniteNormError):
        kernels.rkhs_norm_symmetric(alpha, prof)
    with pytest.raises(kernels.InfiniteNormError):
        kernels.rkhs_norm_symmetric(np.append(b, 1e-3), prof)
    alpha = np.array([0.3, 0.0, 0.4])
    expect = math.sqrt(0.09 / 0.5 + 0.16 / 0.5)
    assert kernels.rkhs_norm_symmetric(alpha, prof) == pytest.approx(expect)
    assert kernels.rkhs_norm_symmetric(
        PolyCoeffs(6, alpha), prof) == pytest.approx(expect)
    with pytest.raises(kernels.KernelError):
        kernels.RkhsProfile(6, [0.5, -1e-300])


# ---------------------------------------------------------------------------
# Symmetrization and serialization.
# ---------------------------------------------------------------------------

def test_symmetrize_zonal_kernel_is_fixed_point():
    k = kernels.standard_kernel("rbf", sigma=1.0)
    ks = kernels.symmetrize_mc(k, 6, 64, RngStream(9, 0))
    s = ks.params["grid"]  # exact at tabulation nodes, interpolated between
    assert np.allclose(ks.profile_value(s), k.profile_value(s), atol=1e-9)
    assert np.max(ks.profile_std_err(s)) <= 1e-7  # rotation rounding only
    mid = np.linspace(-1, 1, 11)
    assert np.allclose(ks.profile_value(mid), k.profile_value(mid), atol=1e-3)


def test_symmetrize_rank_one_kernel():
    d = 6
    k1 = kernels.KernelSpec(name="rank1",
                            feature_map=lambda X: np.atleast_2d(X)[:, :1])
    ks = kernels.symmetrize_mc(k1, d, 4096, RngStream(10, 0))
    s = np.linspace(-1, 1, 9)
    err = np.abs(ks.profile_value(s) - s / d)
    assert np.all(err <= 3 * ks.profile_std_err(s) + 1e-3)


def test_symmetrize_rotation_count_floor():
    k = kernels.standard_kernel("linear")
    with pytest.raises(kernels.KernelError):
        kernels.symmetrize_mc(k, 5, 8, RngStream(0, 0))
