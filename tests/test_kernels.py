"""The split of each public array function into its checks and a private
kernel: the protocol campaigns call the kernels on arrays the package
built from checked inputs, so each kernel must give its public wrapper's
result bit for bit, and the arrays the kernels and linalg._tables build in
one piece must be those the stacked forms gave.  apply_matrix and
measure_branch hold their kernels in their stack path, which must give
each row's lone-vector result bit for bit."""
import numpy as np
import pytest

from adqcsim import linalg, qcore


def _same(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _vectors(rng, rows, dim):
    vecs = rng.standard_normal((rows, dim)) + 1j * rng.standard_normal((rows, dim))
    return vecs / np.linalg.norm(vecs, axis=1, keepdims=True)


def _ops(rng, rows, k):
    return rng.standard_normal((rows, 2**k, 2**k)) + 1j * rng.standard_normal((rows, 2**k, 2**k))


def _targets(rng, rows, n, k, same):
    first = tuple(int(q) for q in rng.choice(n, size=k, replace=False))
    return [first if same else tuple(int(q) for q in rng.choice(n, size=k, replace=False))
            for _ in range(rows)]


# register size, rows, qubits per target list, one list for every row
_STACKS = [(1, 1, 1, True), (3, 1, 2, True), (3, 6, 1, False), (4, 9, 2, False),
           (5, 4, 2, True), (7, 12, 1, False), (7, 12, 2, False)]


@pytest.mark.parametrize("n, rows, k, same", _STACKS)
def test_apply_kernel_is_apply_matrix_bit_for_bit(n, rows, k, same):
    rng = np.random.default_rng([91, n, rows, k])
    vecs, ops = _vectors(rng, rows, 2**n), _ops(rng, rows, k)
    targets = _targets(rng, rows, n, k, same)
    for op in (ops, ops[0]):  # one matrix per row, or one for all rows
        got = qcore.apply_matrix(vecs, op, targets)
        for b in range(rows):
            row_op = op if op.ndim == 2 else op[b]
            assert _same(got[b], qcore.apply_matrix(vecs[b], row_op, targets[b]))
    # a lone vector is a stack of one row
    assert _same(qcore.apply_matrix(vecs[:1], ops[0], targets[:1])[0],
                 qcore.apply_matrix(vecs[0], ops[0], targets[0]))


@pytest.mark.parametrize("n, rows", [(n, rows) for n, rows, _, _ in _STACKS if n > 1])
def test_measure_kernel_is_measure_branch_bit_for_bit(n, rows):
    rng = np.random.default_rng([92, n, rows])
    vecs = _vectors(rng, rows, 2**n)
    angles = rng.uniform(0.0, 2.0 * np.pi, size=(3, rows))
    # the tilted then the ideal vectors, as the protocols measure them
    bases = qcore.tilted_vectors(qcore.equatorial_pair(angles[0])[:, None],
                                 np.stack([angles[1], 0.0 * angles[1]], 1),
                                 angles[2].repeat(2).reshape(-1, 2)).reshape(rows, 4, 2)
    for qubit in range(n):
        for basis in (bases, bases[:, :2]):
            got = qcore.measure_branch(vecs, qubit, basis)
            for b in range(rows):
                assert _same(got[b], qcore.measure_branch(vecs[b], qubit, basis[b]))
        want = qcore.measure_branch(vecs[0], qubit, bases[0])
        assert _same(qcore.measure_branch(vecs[:1], qubit, bases[:1])[0], want)


@pytest.mark.parametrize("n, rows, k, same", _STACKS)
def test_reduce_kernel_is_partial_trace_bit_for_bit(n, rows, k, same):
    rng = np.random.default_rng([93, n, rows, k])
    vecs, keeps = _vectors(rng, rows, 2**n), _targets(rng, rows, n, k, same)
    assert _same(linalg._reduce(vecs, keeps), linalg.partial_trace(vecs, keeps))
    assert _same(linalg._reduce(vecs[:1], keeps[:1])[0], linalg.partial_trace(vecs[0], keeps[0]))


def _equatorial_stacked(u):
    # equatorial_pair as np.stack and np.concatenate built it
    e = np.exp(1j * u)[..., None]
    return np.stack([np.concatenate([np.ones_like(e), e], -1),
                     np.concatenate([np.ones_like(e), -e], -1)], -2) * (1.0 / np.sqrt(2.0))


def _tilted_stacked(reference, epsilon, delta):
    # tilted_vectors as np.stack built it
    epsilon = epsilon / 2.0
    ce, se = np.cos(epsilon)[..., None], np.sin(epsilon)[..., None]
    ph = np.exp(-1j * delta)[..., None]
    r0, r1 = reference[..., 0, :], reference[..., 1, :]
    return np.stack([ce * r0 + ph * se * r1, se * r0 - ph * ce * r1], axis=-2)


@pytest.mark.parametrize("rows", [1, 2, 7, 40])
def test_basis_kernels_are_the_public_builders_bit_for_bit(rows):
    rng = np.random.default_rng([94, rows])
    u, eps, delta = rng.uniform(-7.0, 7.0, size=(3, rows))
    pairs = qcore._equatorial(u)
    assert _same(pairs, qcore.equatorial_pair(u))
    assert _same(pairs, _equatorial_stacked(u))
    assert _same(qcore._equatorial(u[0]), qcore.equatorial_pair(float(u[0])))
    # mixed kinds, as protocols._bases builds them: an equatorial pair or
    # Z_PAIR per row, then the tilted and the ideal vectors of each row
    rotation = rng.integers(2, size=rows).astype(bool)[:, None, None]
    reference = np.where(rotation, pairs, qcore.Z_PAIR)[:, None]
    epsilon = np.zeros((rows, 2))
    epsilon[:, 0] = eps
    deltas = delta.repeat(2).reshape(-1, 2)
    got = qcore._tilted(reference, epsilon, deltas)
    assert _same(got, qcore.tilted_vectors(reference, epsilon, deltas))
    assert _same(got, _tilted_stacked(reference, epsilon, deltas))
    # one pair, one angle each
    one = qcore._tilted(pairs[0], eps[:1][0], delta[:1][0])
    assert _same(one, qcore.tilted_vectors(pairs[0], float(eps[0]), float(delta[0])))
    assert _same(one, _tilted_stacked(pairs[0], eps[0], delta[0]))


@pytest.mark.parametrize("shape", [(8,), (1, 8), (3, 5, 2, 4), (6, 2, 16)])
def test_aligned_diff_kernel_is_phase_aligned_max_diff_bit_for_bit(shape):
    rng = np.random.default_rng([95, *shape])
    a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    b = np.exp(1j * rng.uniform(0.0, 6.0, size=shape[:-1] + (1,))) * a
    b += 1e-9 * rng.standard_normal(shape)
    got, want = qcore._aligned_diff(a, b), qcore.phase_aligned_max_diff(a, b)
    if len(shape) == 1:
        assert float(got).hex() == want.hex()
    else:
        assert _same(got, want)


@pytest.mark.parametrize("n, rows, k", [(3, 5, 1), (5, 9, 2), (7, 16, 3)])
def test_tables_of_per_row_keys_are_the_offset_index_tables(n, rows, k):
    rng = np.random.default_rng([96, n, rows, k])
    keys = _targets(rng, rows, n, k, same=False)
    keys[1] = keys[0]  # a repeated key among distinct ones
    offsets = np.arange(rows)[:, None] << n
    want = np.stack([linalg._index_table(n, key) for key in keys]) + offsets
    assert _same(linalg._tables(n, keys), want)
    # one key for every row: its table alone
    assert linalg._tables(n, keys[:1] * rows) is linalg._index_table(n, keys[0])


def _state(stream):
    return stream.state, stream.inc, stream.half


def test_streams_of_mixed_lengths_are_the_one_key_streams():
    # keys of 1 to 5 words, and of more, with entries of 2^32 and above
    # that take two or more words each, mixed in one call
    keys = [7, [42, 5], [42, 5, 1], [1, 2, 3, 4], [1, 2, 3, 4, 5], 2**32, [2**32, 3],
            [2**40, 5, 1], [2**64 + 1, 2, 3], [2**32 - 1, 2**32, 9], [], [42, 6],
            [1, 2, 3, 4, 5, 6, 7], [42, 7, 1], 2**200, [2**32 - 1] * 5, [0]]
    got = qcore.streams(keys)
    assert [_state(s) for s in got] == [_state(qcore.streams([key])[0]) for key in keys]
    for key, stream in zip(keys, got):
        state = np.random.default_rng(key).bit_generator.state["state"]
        assert (stream.state, stream.inc) == (state["state"], state["inc"]), key


# index runs of a chunk: from 0, a lone 0, out of order, one that crosses
# 2^32 (one-word and two-word indices in one call), and one that mixes
# one, two and three words
_INDEX_RUNS = [range(0, 130), [0], [9, 0, 3], range(2**32 - 3, 2**32 + 3),
               [5, 2**64 + 1, 0, 2**32]]


@pytest.mark.parametrize("tags", [(), (1,), (7,), (1, 7)])
@pytest.mark.parametrize("seed", [0, 42, 2**32 - 1, 2**32, 2**64 + 5])
def test_a_chunks_laid_out_keys_give_the_streams_of_its_keys(seed, tags):
    # qcore._item_streams lays out the words of [seed, i] and [seed, i, tag]
    # with no pass per key; each Stream must be the one qcore.streams gives
    # for the same key, bit for bit
    for indices in _INDEX_RUNS:
        keys = [[seed, i] for i in indices] + [[seed, i, tag] for tag in tags for i in indices]
        got = qcore._item_streams(seed, indices, tags)
        assert [_state(s) for s in got] == [_state(s) for s in qcore.streams(keys)], indices
    assert qcore._item_streams(seed, range(0), tags) == []
