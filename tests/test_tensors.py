import itertools
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spiked_tensor import (
    MemoryCapError,
    RngSeed,
    SpikePrior,
    SymmetricTensor,
    contract,
    rank_one,
    rank_one_inner,
    sample_spike,
    sample_spiked,
    sample_wigner,
)
from spiked_tensor import tensors
from spiked_tensor.rng import NOISE_SUBSTREAM, SPIKE_SUBSTREAM
from spiked_tensor.tensors import (
    DimensionMismatchError,
    UnitVector,
    _orbit_table,
    check_memory_cap,
    round_half_up,
    sample_sign_draws,
    sample_spike_batch,
)


def test_single_entry_variance_is_two():
    # n=1, d=3: the lone entry is the precursor entry, N(0, 2/1)
    vals = np.array(
        [sample_wigner(1, 3, RngSeed(9, 2 + k)).entries[0, 0, 0] for k in range(100_000)]
    )
    assert abs(vals.var() - 2.0) < 0.05


class _BasisSeed:
    """Stands in for an RngSeed whose normal draw is the j-th unit vector."""

    def __init__(self, j):
        self.j = j

    def generator(self, substream):
        return self

    def standard_normal(self, size):
        e = np.zeros(size)
        e[self.j] = 1.0
        return e


def _permutation_average(n, d):
    """The average over the d! index permutations, as an n^d x n^d matrix."""
    flat = np.arange(n**d).reshape((n,) * d)
    avg = np.zeros((n**d, n**d))
    for perm in itertools.permutations(range(d)):
        avg[np.arange(n**d), np.transpose(flat, perm).ravel()] += 1.0
    return avg / math.factorial(d)


@pytest.mark.parametrize("n, d", [(3, 3), (4, 3), (3, 4), (2, 5), (5, 2)])
def test_noise_law_is_the_permutation_average(n, d):
    # W is linear in its standard normal draws, W = A z, so cov W = A A^T.  The
    # reference is the permutation average M of an iid N(0, 2/n) precursor,
    # cov (2/n) M M^T.  Its diagonal is each entry's variance 2/(n c); its
    # off-diagonal ties the entries of one orbit and zeroes the rest.
    draws = math.comb(n + d - 1, d)  # one per sorted index
    A = np.stack([sample_wigner(n, d, _BasisSeed(j)).entries.ravel() for j in range(draws)], 1)
    M = _permutation_average(n, d)
    assert np.max(np.abs(A @ A.T - 2.0 / n * M @ M.T)) <= 1e-15


def test_permutation_invariance_bit_exact():
    T = sample_wigner(6, 3, RngSeed(3)).entries
    for perm in itertools.permutations(range(3)):
        assert np.array_equal(T, np.transpose(T, perm))
    T4 = sample_wigner(4, 4, RngSeed(5)).entries
    for perm in itertools.permutations(range(4)):
        assert np.array_equal(T4, np.transpose(T4, perm))


def test_frame_variance_matches_noise_scale():
    # var <W, x^(x)3> = 2/n, checked at n=50 over 10^4 seeds
    n = 50
    x = sample_spike(SpikePrior.spherical(), n, RngSeed(123))
    vals = np.array(
        [rank_one_inner(sample_wigner(n, 3, RngSeed(11, 2 + k)), x) for k in range(10_000)]
    )
    assert abs(vals.var() / (2.0 / n) - 1.0) < 0.10


def test_d2_matrix_convention():
    # symmetrization at d=2 gives off-diagonal var 1/n, diagonal var 2/n
    n = 2
    offs, diags = [], []
    for k in range(20_000):
        W = sample_wigner(n, 2, RngSeed(77, 2 + k)).entries
        offs.append(W[0, 1])
        diags.append(W[0, 0])
    assert abs(np.var(offs) / (1.0 / n) - 1.0) < 0.05
    assert abs(np.var(diags) / (2.0 / n) - 1.0) < 0.05


def test_rademacher_spike_coordinates():
    x = sample_spike(SpikePrior.rademacher(), 4, RngSeed(0))
    assert np.allclose(np.abs(x.coords), 0.5)


def test_sparse_spike_support():
    x = sample_spike(SpikePrior.sparse(0.5), 8, RngSeed(1))
    nz = x.coords[x.coords != 0]
    assert len(nz) == 4
    assert np.allclose(np.abs(nz), 0.5)


def test_sparse_support_rounding_half_up():
    assert round_half_up(3.5) == 4
    x = sample_spike(SpikePrior.sparse(0.5), 7, RngSeed(1))
    assert np.count_nonzero(x.coords) == 4


def test_sparse_empty_support_rejected():
    with pytest.raises(ValueError, match="empty support"):
        sample_spike(SpikePrior.sparse(0.01), 10, RngSeed(0))


def test_spike_is_row_zero_of_the_batch_draw():
    for prior in (SpikePrior.spherical(), SpikePrior.rademacher(), SpikePrior.sparse(0.3)):
        for n, seed in ((2, RngSeed(0)), (7, RngSeed(3)), (40, RngSeed(9, 2))):
            row = sample_spike_batch(prior, n, 1, seed.generator(SPIKE_SUBSTREAM))[0]
            assert np.array_equal(sample_spike(prior, n, seed).coords, row)


def test_rademacher_is_the_sparse_prior_at_k_equals_n():
    # rho = 1 keeps every coordinate, so no support is drawn: the same stream
    # gives the Rademacher rows bit for bit
    for n, count, seed in ((1, 3, 0), (7, 5, 3), (40, 64, 9)):
        sparse = sample_spike_batch(SpikePrior.sparse(1.0), n, count, np.random.default_rng(seed))
        rade = sample_spike_batch(SpikePrior.rademacher(), n, count, np.random.default_rng(seed))
        assert np.array_equal(sparse, rade)
        assert SpikePrior.sparse(1.0).support_size(n) == 2**n


def test_discrete_rows_are_the_sign_draws_on_their_support():
    # the draws are random((count, n)) for the support (only when k < n), then
    # integers(0, 2, (count, k)); a row holds them as +-1/sqrt(k) on its support
    for prior in (SpikePrior.rademacher(), SpikePrior.sparse(0.3), SpikePrior.sparse(1.0)):
        for n, count, seed in ((4, 3, 0), (7, 5, 3), (40, 64, 9)):
            k = prior.nonzeros(n)
            stream = np.random.default_rng(seed)
            uniforms = stream.random((count, n)) if k < n else None
            signs = stream.integers(0, 2, size=(count, k))
            support, bits = sample_sign_draws(prior, n, count, np.random.default_rng(seed))
            assert bits.dtype == bool and np.array_equal(bits, signs)
            if uniforms is None:
                assert support is None
                support = np.broadcast_to(np.arange(n), (count, n))
            else:
                assert np.array_equal(support, np.argsort(uniforms, axis=1)[:, :k])
            rows = sample_spike_batch(prior, n, count, np.random.default_rng(seed))
            expected = np.zeros((count, n))
            np.put_along_axis(expected, support, (2.0 * bits - 1.0) / math.sqrt(k), axis=1)
            assert np.array_equal(rows, expected)


# (n, count) per prior with count * k = 1, 3, 4 and 1,900,000 (a tails chunk of
# 10,000 pairs at k = 95); the sparse rows all draw a support (k < n)
SIGN_DRAW_SHAPES = {
    SpikePrior.rademacher(): ((1, 1), (3, 1), (2, 2), (95, 20_000)),
    SpikePrior.sparse(0.5): ((2, 1), (2, 3), (4, 2), (190, 20_000)),
    SpikePrior.sparse(1.0): ((1, 1), (1, 3), (4, 1), (95, 20_000)),
}


@pytest.mark.parametrize("prior", list(SIGN_DRAW_SHAPES), ids=lambda p: p.label())
def test_sign_draws_are_integers_zero_one(prior):
    # the signs read the generator's raw words; they must stay integers(0, 2)
    # bit for bit and leave the same 128-bit state, so a numpy whose integers
    # changes fails here instead of moving seeded outputs
    for n, count in SIGN_DRAW_SHAPES[prior]:
        k = prior.nonzeros(n)
        for seed in (0, 7, 2**64 - 1):
            stream = np.random.default_rng(seed)
            if k < n:
                stream.random((count, n))
            signs = stream.integers(0, 2, size=(count, k))
            rng = np.random.default_rng(seed)
            _, bits = sample_sign_draws(prior, n, count, rng)
            assert bits.shape == (count, k) and np.array_equal(bits, signs), (n, count, seed)
            assert rng.bit_generator.state["state"] == stream.bit_generator.state["state"]


def test_spherical_spike_symmetry():
    n = 100
    coords = np.array(
        [sample_spike(SpikePrior.spherical(), n, RngSeed(5, 2 + k)).coords for k in range(10_000)]
    )
    assert np.max(np.abs(coords.mean(axis=0))) < 0.01
    assert np.allclose(np.linalg.norm(coords, axis=1), 1.0, atol=1e-12)


def test_spiked_with_zero_snr_is_pure_noise():
    seed = RngSeed(42)
    _, T = sample_spiked(SpikePrior.rademacher(), 6, 3, 0.0, seed)
    W = sample_wigner(6, 3, seed)
    assert np.array_equal(T.entries, W.entries)


def test_spiked_frame_statistics():
    # <T, x^(x)3> = snr + N(0, 2/n); mean and variance at n=50, 10^3 trials
    n, snr = 50, 3.0
    vals = []
    for k in range(1000):
        x, T = sample_spiked(SpikePrior.rademacher(), n, 3, snr, RngSeed(8, 2 + k))
        vals.append(rank_one_inner(T, x))
    vals = np.array(vals)
    assert abs(vals.mean() - snr) < 0.02
    assert abs(vals.var() / (2.0 / n) - 1.0) < 0.15


def test_d2_top_eigenvalue_pushout():
    # snr=5, n=500: top eigenvalue ~ snr + 1/snr
    _, T = sample_spiked(SpikePrior.spherical(), 500, 2, 5.0, RngSeed(3))
    top = np.linalg.eigvalsh(T.entries)[-1]
    assert abs(top - 5.2) < 0.1


def test_rank_one_inner_hand_example():
    T = SymmetricTensor(np.array([[1.0, 2.0], [2.0, 3.0]]))
    x = UnitVector(np.array([1.0, 1.0]) / math.sqrt(2))
    assert abs(rank_one_inner(T, x) - 4.0) < 1e-12


def test_rank_one_inner_disjoint_support():
    e1 = UnitVector(np.array([1.0, 0.0]))
    e2 = UnitVector(np.array([0.0, 1.0]))
    T = rank_one(e1, 3)
    assert rank_one_inner(T, e2) == 0.0
    assert abs(rank_one_inner(T, e1) - 1.0) < 1e-14


def test_noiseless_inner_recovers_snr():
    x, T = sample_spiked(SpikePrior.rademacher(), 10, 3, 7.5, RngSeed(2))
    noiseless = SymmetricTensor(7.5 * rank_one(x, 3).entries)
    assert abs(rank_one_inner(noiseless, x) - 7.5) < 1e-12


@given(st.integers(min_value=0, max_value=10**6), st.floats(-3, 3))
@settings(max_examples=20, deadline=None)
def test_rank_one_inner_scaling(seed, alpha):
    W = sample_wigner(5, 3, RngSeed(seed))
    x = sample_spike(SpikePrior.spherical(), 5, RngSeed(seed))
    scaled = SymmetricTensor(alpha * W.entries)
    assert abs(rank_one_inner(scaled, x) - alpha * rank_one_inner(W, x)) < 1e-10


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=20, deadline=None)
def test_contract_inner_identity(seed):
    W = sample_wigner(7, 3, RngSeed(seed))
    x = sample_spike(SpikePrior.spherical(), 7, RngSeed(seed, 1))
    assert abs(float(contract(W, x.coords) @ x.coords) - rank_one_inner(W, x)) < 1e-10


def test_contract_d2_is_matvec():
    W = sample_wigner(9, 2, RngSeed(4))
    x = sample_spike(SpikePrior.spherical(), 9, RngSeed(4))
    assert np.allclose(contract(W, x.coords), W.entries @ x.coords, atol=1e-14)


def test_contract_rank_one_returns_spike():
    x = sample_spike(SpikePrior.spherical(), 6, RngSeed(6))
    T = rank_one(x, 4)
    assert np.allclose(contract(T, x.coords), x.coords, atol=1e-12)


@pytest.mark.parametrize("d, n", [(2, 9), (3, 7), (4, 5), (5, 4), (6, 3)])
def test_contract_block_matches_rows_and_brute_force(d, n):
    T = sample_wigner(n, d, RngSeed(d))
    X = np.random.default_rng(d).standard_normal((7, n))
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    block = contract(T, X)
    assert block.shape == X.shape
    # BLAS picks its kernel by shape, so a block row and its own call may
    # differ in the last bits
    rows = np.array([contract(T, x) for x in X])
    assert np.max(np.abs(block - rows)) <= 1e-15
    axes = "abcdefg"[:d]
    spec = f"{axes},{','.join(axes[:-1])}->{axes[-1]}"
    for x, row in zip(X, block):
        assert np.max(np.abs(row - np.einsum(spec, T.entries, *[x] * (d - 1)))) <= 1e-13


@pytest.mark.parametrize("d, n", [(3, 7), (5, 4)])
def test_contract_odd_order_ignores_sign(d, n):
    # the ascent flips x to -x for odd d and keeps its contraction
    T = sample_wigner(n, d, RngSeed(d))
    X = np.random.default_rng(d).standard_normal((5, n))
    assert np.array_equal(contract(T, -X), contract(T, X))
    assert np.array_equal(contract(T, -X[0]), contract(T, X[0]))


def test_contract_rejects_wrong_dimension():
    T = sample_wigner(4, 3, RngSeed(0))
    for x in (np.ones(5), np.ones((2, 3))):
        with pytest.raises(DimensionMismatchError):
            contract(T, x)


def test_seed_determinism():
    a = sample_wigner(5, 3, RngSeed(10, 3))
    b = sample_wigner(5, 3, RngSeed(10, 3))
    c = sample_wigner(5, 3, RngSeed(10, 4))
    assert np.array_equal(a.entries, b.entries)
    assert not np.array_equal(a.entries, c.entries)


def test_orbit_table_cache_keeps_draws():
    # a cold and a warm orbit table give the same draw bit for bit, and both
    # equal the draw built from the orbit sizes on the spot
    n, d, seed = 6, 3, RngSeed(21)
    _orbit_table.cache_clear()
    cold = sample_wigner(n, d, seed).entries
    warm = sample_wigner(n, d, seed).entries
    assert np.array_equal(cold, warm)
    gather = np.ravel_multi_index(tuple(np.sort(np.indices((n,) * d).reshape(d, -1), axis=0)), (n,) * d)
    orbit = np.bincount(gather)
    reps = np.flatnonzero(orbit)
    draws = np.zeros(orbit.size)
    normals = seed.generator(NOISE_SUBSTREAM).standard_normal(reps.size)
    draws[reps] = normals * np.sqrt(2.0 / (n * orbit[reps]))
    assert np.array_equal(cold, draws[gather].reshape((n,) * d))
    with pytest.raises(ValueError):  # the cached table is shared, so it is read-only
        _orbit_table(n, d)[2][0] = 0.0


@pytest.mark.parametrize("n, d", [(1, 2), (1, 7), (2, 16), (3, 12), (5, 9), (8, 6), (30, 3),
                                  (255, 2), (256, 2)])
def test_orbit_table_matches_the_sorted_reference(n, d):
    # the min/max network sorts each column as np.sort does; 255 and 256 sit
    # either side of the index dtype's switch from uint8 to uint16
    idx = np.sort(np.indices((n,) * d, dtype=np.min_scalar_type(n)).reshape(d, -1), axis=0)
    flat = np.ravel_multi_index(tuple(idx), (n,) * d)
    size = np.bincount(flat)
    first = size > 0
    orbit = (np.cumsum(first) - 1)[flat]
    expected = (orbit, idx[:, first], np.sqrt(2.0 / (n * size[first])))
    _orbit_table.cache_clear()
    for table, want in zip(_orbit_table(n, d), expected):
        assert table.dtype == want.dtype and np.array_equal(table, want)


def _dense_reference(n, d, x, seed):
    """The dense construction, written out: the outer-product chain of x and a
    zero buffer holding one scaled draw per sorted index, each read through the
    sorted-index flat map.  Returns the rank-one and the noise tensor."""
    idx = np.sort(np.indices((n,) * d, dtype=np.int16).reshape(d, -1), axis=0)
    gather = np.ravel_multi_index(tuple(idx), (n,) * d)
    size = np.bincount(gather)
    reps = np.flatnonzero(size)
    outer = x
    for _ in range(d - 1):
        outer = np.multiply.outer(outer, x)
    noise = np.zeros(n**d)
    normals = seed.generator(NOISE_SUBSTREAM).standard_normal(reps.size)
    noise[reps] = normals * np.sqrt(2.0 / (n * size[reps]))
    return outer.reshape(-1)[gather].reshape((n,) * d), noise[gather].reshape((n,) * d)


def _same_bits(tensor, expected):
    """Equal bit patterns, so -0.0 and 0.0 differ."""
    return np.array_equal(tensor.entries.view(np.uint64), expected.view(np.uint64))


@pytest.mark.parametrize("n, d", [(1, 2), (1, 5), (7, 2), (8, 6), (12, 4), (3, 12), (400, 2)])
def test_constructions_match_the_dense_reference_bit_for_bit(n, d):
    # rank_one, sample_wigner and sample_spiked build one value per orbit and
    # gather it; the dense reference scales and sums whole tensors
    seed = RngSeed(31, n + d)
    for prior in (SpikePrior.spherical(), SpikePrior.rademacher(), SpikePrior.sparse(0.3)):
        if prior.kind == "sparse_rademacher" and n == 1:  # round(0.3) = 0 nonzeros
            with pytest.raises(ValueError, match="empty support"):
                sample_spiked(prior, n, d, 2.5, seed)
            continue
        x = sample_spike(prior, n, seed)
        outer, noise = _dense_reference(n, d, x.coords, seed)
        assert _same_bits(rank_one(x, d), outer)
        assert _same_bits(sample_wigner(n, d, seed), noise)
        for snr in (0.0, 2.5, 1e6):
            spike, T = sample_spiked(prior, n, d, snr, seed)
            assert np.array_equal(spike.coords, x.coords)
            assert _same_bits(T, noise if snr == 0.0 else snr * outer + noise)


def test_spiked_sample_peak_memory_per_entry():
    # one value per orbit and one gather: a cold-table sample peaks below
    # 40 B an entry, where summing a dense rank-one and a dense noise tensor
    # peaked at 44.5 (d = 2), 48 (d = 3) and 64 (d = 4)
    for n, d in ((400, 2), (50, 3), (20, 4)):
        _orbit_table.cache_clear()
        tracemalloc.start()
        try:
            sample_spiked(SpikePrior.spherical(), n, d, 2.5, RngSeed(1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / n**d <= 40.0, (n, d, peak / n**d)


def test_memory_cap_enforced():
    with pytest.raises(MemoryCapError):
        sample_wigner(1000, 3, RngSeed(0))  # 3 * 10^9 index entries > cap
    # 4 * 101^4 > 10^8: rejected before any n^d array is allocated
    tracemalloc.start()
    try:
        with pytest.raises(MemoryCapError):
            sample_wigner(101, 4, RngSeed(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_rank_one_checks_the_memory_cap(monkeypatch):
    # rank_one builds the orbit table itself, so it checks the cap as the samplers do
    monkeypatch.setattr(tensors, "MEMORY_CAP", 100)
    x = UnitVector(np.eye(10)[0])
    with pytest.raises(MemoryCapError):
        rank_one(x, 3)  # 3 * 10^3 index entries > 100


def test_sampling_work_budget():
    # sampling costs the orbit table's d index arrays of n^d entries and one
    # gather: orders within the memory cap sample at once, orders past it or
    # past numpy's array dimensions raise at once (n^d is never formed)
    for n, d in ((3, 12), (1, 12)):
        start = time.perf_counter()
        sample_wigner(n, d, RngSeed(0))
        assert time.perf_counter() - start < 1.0
    for n, d, match in ((2, 26, "memory cap"), (10**9, 10**6, "memory cap"),
                        (1, 100, "array dimensions")):
        start = time.perf_counter()
        with pytest.raises(ValueError, match=match):
            sample_wigner(n, d, RngSeed(0))
        assert time.perf_counter() - start < 1.0
    check_memory_cap(8, 6)  # the largest order sampled by the benchmark and tests
    check_memory_cap(10, 6)


def test_prior_validation():
    with pytest.raises(ValueError):
        SpikePrior("gaussian")
    with pytest.raises(ValueError):
        SpikePrior.sparse(0.0)
    with pytest.raises(ValueError):
        SpikePrior("rademacher", rho=0.5)
    assert SpikePrior.sparse(0.25).support_size(8) == math.comb(8, 2) * 4
    with pytest.raises(ValueError, match="no finite support"):
        SpikePrior.spherical().support_size(8)
