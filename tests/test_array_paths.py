"""The one-pass readers and the one-copy class tests against their loop and copy oracles.

The sparse and dense JSON readers convert a regular file by whole-array operations and
fall back to their entry-by-entry loops, which word every fault, on any doubt. The EB
test and the CBC/DIO maxima read the transfer matrix through index permutations and
views. Each is checked bit for bit against the form it replaced, and for its memory.
"""

import gc
import json
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohbreak import cli
from cohbreak.channels import (
    _coherent_rows,
    _dense_kraus,
    _kraus_stack,
    _pt_choi,
    _reshuffle,
    _sparse_array,
    _sparse_kraus,
    _unit_image_maxima,
    channel_from_json,
    channel_to_json,
    haar_unitary,
    random_channel,
    random_incoherent_channel,
)
from cohbreak.classifiers import _second_largest, is_entanglement_breaking
from cohbreak.linalg import partial_transpose
from cohbreak.states import complex_matrix_from_json, complex_matrix_to_json
from test_channels import loop_sparse_kraus, parse_outcome


def physical_memory() -> int:
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


# --- sparse reader ---------------------------------------------------------------

# One fault, or none, put into a valid file; the last three keep the file valid but
# send it to the scan (a value that is no float) or keep it on the array path.
FAULTS = ["none", "bool-index", "float-index", "negative-index", "index-past-dim",
          "index-past-int64", "repeat", "missing-column", "short-entry", "long-entry",
          "entry-not-a-list", "str-value", "none-value", "operator-not-a-list",
          "int-value", "bool-value", "negative-zero"]


@st.composite
def valid_sparse_forms(draw):
    """A valid sparse file: up to d = 12 and about 150 operators of float entries, every
    column covered by operator 0, and at most one fault put in at a drawn entry."""
    d = draw(st.integers(1, 12))
    n_ops = draw(st.integers(1, 150))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ops = []
    for n in range(n_ops):
        count = d if n == 0 else int(rng.integers(0, 2 * d + 1))
        flat = rng.choice(d * d, size=min(count, d * d), replace=False)
        if n == 0:  # one entry per column, in a drawn row
            flat = rng.integers(0, d, size=d) * d + np.arange(d)
        ops.append([[int(k) // d, int(k) % d, *rng.normal(size=2).tolist()] for k in flat])
    fault = draw(st.sampled_from(FAULTS))
    n = draw(st.integers(0, n_ops - 1))
    op = ops[n] if ops[n] else ops[0]
    k = draw(st.integers(0, len(op) - 1))
    entry = op[k]
    if fault == "bool-index":
        entry[0] = bool(entry[0] < 2 and entry[0])
    elif fault == "float-index":
        entry[1] = float(entry[1])
    elif fault == "negative-index":
        entry[0] = -1
    elif fault == "index-past-dim":
        entry[1] = d
    elif fault == "index-past-int64":
        entry[0] = 2**63
    elif fault == "repeat":
        op.insert(draw(st.integers(0, len(op))), list(entry))
    elif fault == "missing-column":
        for o in ops:
            o[:] = [e for e in o if e[1] != entry[1]]
    elif fault == "short-entry":
        del entry[3]
    elif fault == "long-entry":
        entry.append(0.0)
    elif fault == "entry-not-a-list":
        op[k] = tuple(entry)
    elif fault in ("str-value", "none-value", "int-value", "bool-value", "negative-zero"):
        entry[2] = {"str-value": "0.5", "none-value": None, "int-value": 1,
                    "bool-value": True, "negative-zero": -0.0}[fault]
    elif fault == "operator-not-a-list":
        ops[n] = tuple(op)
    return d, ops, fault


@settings(max_examples=80, deadline=None)
@given(form=valid_sparse_forms())
def test_sparse_reader_matches_the_scan_on_valid_files_and_one_fault(form):
    d, ops, fault = form
    assert parse_outcome(_sparse_kraus, d, ops) == parse_outcome(loop_sparse_kraus, d, ops)
    stack = _sparse_array(d, ops)
    if fault in ("none", "negative-zero") and sum(map(len, ops)) >= 32:  # the array path
        assert stack.tobytes() == loop_sparse_kraus(d, ops).tobytes()
    else:  # a fault, a value that is no float, or few entries: the scan
        assert stack is None


def test_sparse_array_path_reads_the_benchmark_shape():
    # A 146-operator incoherent channel at d = 12, written and read back: the array path
    # reads it, bit for bit, as the scan does.
    rng = np.random.default_rng(12)
    channel = next(ch for ch in iter(lambda: random_incoherent_channel(12, rng), None)
                   if ch.n_ops > 100)
    obj = json.loads(json.dumps(channel_to_json(channel)))
    stack = _sparse_array(obj["dim"], obj["sparse"])
    assert stack is not None
    assert stack.tobytes() == loop_sparse_kraus(obj["dim"], obj["sparse"]).tobytes()
    assert stack.tobytes() == channel.kraus_ops.tobytes()


def test_a_sparse_stack_past_physical_memory_is_refused_before_allocating():
    # d = 4096 with 200 operators is 54 GB; more operators where the machine has more.
    d = 4096
    n_ops = max(200, physical_memory() // (16 * d * d) + 1)
    obj = {"dim": d, "sparse": [[[k, k, 1.0, 0.0] for k in range(d)]] + [[]] * (n_ops - 1)}
    tracemalloc.start()
    try:
        with pytest.raises(MemoryError, match=f"{n_ops} Kraus operators of dimension {d}"):
            channel_from_json(obj)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, f"tracemalloc peak {peak / 2**20:.1f} MiB"


def test_a_dense_stack_past_physical_memory_is_refused_before_allocating():
    # The first operator fixes d = 256; the operator count alone exceeds memory.
    d = 256
    n_ops = physical_memory() // (16 * d * d) + 1
    ops = [complex_matrix_to_json(np.eye(d))] + [[]] * (n_ops - 1)
    with pytest.raises(MemoryError, match=f"{n_ops} Kraus operators of dimension {d}"):
        _dense_kraus(ops)


def test_kraus_stack_compares_the_bytes_with_physical_memory():
    d = 1024
    fits = physical_memory() // (16 * d * d)
    assert _kraus_stack(3, 4).shape == (3, 4, 4) and not _kraus_stack(3, 4).any()
    with pytest.raises(MemoryError):
        _kraus_stack(fits + 1, d)


def test_cli_names_the_file_whose_stack_exceeds_memory(tmp_path, capsys):
    d = 4096
    n_ops = max(200, physical_memory() // (16 * d * d) + 1)
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"dim": d, "sparse": [[[k, k, 1.0, 0.0] for k in range(d)]]
                                + [[]] * (n_ops - 1)}))
    with pytest.raises(SystemExit) as exc:
        cli.main(["classify", "--channel", str(path)])
    assert exc.value.code == 3
    assert capsys.readouterr().err == f"error: out of memory in classify at d = {d} loading {path}\n"


# --- dense reader ----------------------------------------------------------------


def loop_complex_matrix(data):
    """The entry-by-entry reading of a matrix of [re, im] pairs."""
    return np.array([[complex(re, im) for re, im in row] for row in data], dtype=complex)


NUMBERS = st.one_of(st.floats(), st.integers(-2**60, 2**60), st.booleans(),
                    st.sampled_from([-0.0, 0.0, 2**70, 1e308]))


@settings(max_examples=100, deadline=None)
@given(numbers=st.lists(NUMBERS, min_size=1, max_size=6), rows=st.integers(1, 24),
       cols=st.integers(1, 24), seed=st.integers(0, 2**32 - 1))
def test_dense_matrix_reader_is_the_entry_by_entry_reading_bit_for_bit(numbers, rows, cols, seed):
    picks = np.random.default_rng(seed).integers(0, len(numbers), size=(rows, cols, 2))
    data = [[[numbers[a], numbers[b]] for a, b in row] for row in picks.tolist()]
    got = complex_matrix_from_json(data)
    assert got.dtype == complex and got.tobytes() == loop_complex_matrix(data).tobytes()
    assert got.base is not None  # a view of the one conversion: the array path


def test_dense_matrix_reader_holds_one_copy_of_the_matrix():
    data = json.loads(json.dumps(complex_matrix_to_json(haar_unitary(64, np.random.default_rng(3)))))
    tracemalloc.start()
    try:
        matrix = complex_matrix_from_json(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * matrix.nbytes, f"tracemalloc peak {peak / matrix.nbytes:.2f} stacks"
    assert matrix.tobytes() == loop_complex_matrix(data).tobytes()


# --- class tests on T ------------------------------------------------------------


@pytest.mark.parametrize("d", range(1, 7))
def test_eb_witness_is_the_reshuffle_then_partial_transpose_bit_for_bit(d):
    rng = np.random.default_rng(40 + d)
    for channel in (random_channel(d, 2, rng), random_incoherent_channel(d, rng)):
        t = channel.transfer
        expected = np.linalg.eigvalsh(partial_transpose(_reshuffle(t, d), d) / d).min()
        assert is_entanglement_breaking(channel)[1]["min_pt_eigenvalue"] == float(expected)
        pt = _pt_choi(t, d)
        assert pt.tobytes() == (partial_transpose(_reshuffle(t, d), d) / d).tobytes()
        assert pt.flags.c_contiguous and pt.flags.writeable and not np.shares_memory(pt, t)


def test_eb_test_makes_one_d4_copy_beside_t():
    # The partial transpose is the one traced d^4 array (LAPACK's work copy is untraced);
    # the reshuffle, partial transpose and division each made one before.
    d = 24
    channel = random_channel(d, 3, np.random.default_rng(24))
    t = channel.transfer
    tracemalloc.start()
    try:
        is_entanglement_breaking(channel)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * t.nbytes, f"tracemalloc peak {peak / t.nbytes:.2f} d^4 arrays"


@pytest.mark.parametrize("d", range(1, 7))
def test_unit_maxima_are_the_masked_row_maxima_bit_for_bit(d):
    channel = random_channel(d, 2, np.random.default_rng(50 + d))
    mags, coherent = np.abs(channel.transfer), _coherent_rows(d)
    off = mags[coherent].max(axis=0, initial=0.0).reshape(d, d)
    on = mags[~coherent].max(axis=0).reshape(d, d)
    np.fill_diagonal(on, off.diagonal())
    got = _unit_image_maxima(channel.transfer, d)
    assert got[0].tobytes() == np.maximum(off, off.T).tobytes()
    assert got[1].tobytes() == np.maximum(on, on.T).tobytes()


@settings(max_examples=50, deadline=None)
@given(shape=st.tuples(st.integers(1, 5), st.integers(1, 6), st.integers(1, 6)),
       axis=st.sampled_from([1, 2]), seed=st.integers(0, 2**32 - 1))
def test_second_largest_is_the_sorted_second_entry(shape, axis, seed):
    mags = np.random.default_rng(seed).integers(0, 3, size=shape) / 2.0  # ties are common
    expected = (np.take(np.sort(mags, axis=axis), -2, axis=axis) if shape[axis] > 1
                else np.zeros(np.delete(shape, axis)))
    assert _second_largest(mags, axis).tobytes() == expected.tobytes()


# --- the CLI's load ----------------------------------------------------------------


def count_collections():
    starts = []

    def callback(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    return starts, callback


def test_no_collection_runs_while_the_cli_loads_a_channel(tmp_path):
    # The file holds more JSON lists than the first generation's threshold, so parsing
    # it with the collector on would start a collection.
    d, n_ops = 8, 2 * gc.get_threshold()[0] // 8 + 2
    ops = [[[k, k, 1.0 if n == 0 else 0.0, 0.0] for k in range(d)] for n in range(n_ops)]
    path = tmp_path / "many-lists.json"
    path.write_text(json.dumps({"dim": d, "sparse": ops}))
    # Parse the flags outside the watched window: argparse allocates with the collector on.
    args = cli.PARSER.parse_args(["classify", "--channel", str(path)])
    starts, callback = count_collections()
    gc.callbacks.append(callback)
    try:
        channel, = cli._load(args)
    finally:
        gc.callbacks.remove(callback)
    assert starts == [] and gc.isenabled()
    assert channel.n_ops == n_ops


@pytest.mark.parametrize("enabled", [True, False])
def test_the_cli_leaves_the_collector_as_it_found_it(tmp_path, enabled):
    path = tmp_path / "bad.json"
    path.write_text("{")
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        assert cli.main(["classify", "--channel", "identity", "--dim", "2",
                         "--out", str(tmp_path / "out.json")]) == 0
        assert gc.isenabled() is enabled
        with pytest.raises(SystemExit):
            cli.main(["classify", "--channel", str(path)])
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
