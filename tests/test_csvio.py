"""CSV emission: write_csv's bytes against the plain csv.writer + fmt writer,
and ledger_rows' blocks against whole-ledger columns."""
import csv
import math
import os
import stat
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poolsim.csvio import ROW_BLOCK, atomic_write, fmt, ledger_header, ledger_rows, write_csv
from poolsim.engine import SimulationLedger


def _write_csv_reference(path, header, rows):
    """The writer every CSV cell is defined by: csv.writer over fmt's text."""

    def write(fh):
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([fmt(v) for v in row])

    atomic_write(path, write)


_floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([
        -0.0, 0.0, math.inf, -math.inf, math.nan, 5e-324, sys.float_info.min / 3,
        1e308, -1e308, 0.1, 1 / 3,
    ]),
)
_ints = st.one_of(st.integers(), st.integers(2**64, 2**200), st.integers(-(2**200), -(2**64)))
_numpy = st.one_of(
    _floats.map(np.float64),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
)
_text = st.one_of(st.text(), st.sampled_from(["a,b", 'say "hi"', "two\nlines", "", " x "]))
_cell = st.one_of(st.booleans(), _ints, _floats, _numpy, _text)


@st.composite
def _tables(draw):
    """Rows of mixed width and type: all-numeric rows of a few fixed layouts
    (each column switches between int, bool and float from row to row, so a
    cached layout cannot truncate a float through %d), rows holding numpy
    scalars or text, and empty rows."""
    width = draw(st.integers(1, 6))
    numeric = st.lists(st.one_of(st.booleans(), _ints, _floats), min_size=width, max_size=width)
    row = st.one_of(
        numeric.map(tuple),
        numeric,
        st.lists(_cell, max_size=width + 2),
        st.just(()),
    )
    return draw(st.lists(row, max_size=25))


class TestWriteCsv:
    @given(rows=_tables())
    @settings(max_examples=300, deadline=None)
    def test_bytes_equal_reference_writer(self, rows, tmp_path_factory):
        out = tmp_path_factory.mktemp("csv")
        header = ["round", "x,y", 'q"']
        write_csv(str(out / "fast.csv"), header, rows)
        _write_csv_reference(str(out / "ref.csv"), header, rows)
        assert (out / "fast.csv").read_bytes() == (out / "ref.csv").read_bytes()

    def test_column_switching_int_to_float_keeps_the_fraction(self, tmp_path):
        rows = [(1, 2), (1, 2.5), (True, 1e308), (3.0, -0.0)]
        write_csv(str(tmp_path / "t.csv"), ["a", "b"], rows)
        assert (tmp_path / "t.csv").read_text() == "a,b\n1,2\n1,2.5\n1,1e+308\n3,-0\n"

    def test_rows_are_streamed_from_an_iterator(self, tmp_path):
        rows = iter([(i, i / 4) for i in range(3)])
        write_csv(str(tmp_path / "t.csv"), ["i", "q"], rows)
        assert (tmp_path / "t.csv").read_text() == "i,q\n0,0\n1,0.25\n2,0.5\n"


@pytest.mark.skipif(os.name != "posix", reason="file modes and the umask are POSIX")
@pytest.mark.parametrize("umask", [0o022, 0o077], ids=["umask-022", "umask-077"])
def test_files_get_the_mode_open_gives(umask, tmp_path):
    # 0o666 less the umask, as open() would create the file, not the 0o600
    # of a temp file made by tempfile.mkstemp
    old = os.umask(umask)
    try:
        write_csv(str(tmp_path / "t.csv"), ["a"], [(1,)])
        atomic_write(str(tmp_path / "new" / "t.svg"), lambda fh: fh.write("<svg/>"))
    finally:
        os.umask(old)
    for path in (tmp_path / "t.csv", tmp_path / "new" / "t.svg"):
        assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~umask


def test_failed_write_leaves_the_file_and_no_temp_file(tmp_path):
    write_csv(str(tmp_path / "t.csv"), ["a"], [(1,)])

    def fail(fh):
        fh.write("partial")
        raise RuntimeError("interrupted")

    with pytest.raises(RuntimeError, match="interrupted"):
        atomic_write(str(tmp_path / "t.csv"), fail)
    assert os.listdir(tmp_path) == ["t.csv"]
    assert (tmp_path / "t.csv").read_text() == "a\n1\n"


def _random_ledger(rounds, n, seed=0, wide=True):
    """A ledger of random values: of any sign and magnitude (`wide`), or in
    [0, 1), which are quicker to format."""
    rng = np.random.default_rng(seed)
    led = SimulationLedger(
        M=np.zeros(rounds), a=np.zeros((rounds, n)), D=np.zeros((rounds, n)),
        delta=np.zeros(rounds), rewards=np.zeros((rounds, n)),
        flags=np.zeros((rounds, n), dtype=bool), budget_ratio=np.zeros(rounds),
    )
    for col in (led.M, led.a, led.D, led.rewards, led.delta, led.budget_ratio):
        if wide:
            col[...] = rng.standard_normal(col.shape) * 10.0 ** rng.integers(-300, 300, col.shape)
        else:
            col[...] = rng.random(col.shape)
    led.flags[...] = rng.random(led.flags.shape) < 0.5
    return led


def _whole_ledger_rows(led):
    """ledger_rows as one zip of whole-ledger .tolist() columns."""
    cols = [range(1, led.rounds + 1), led.M.tolist()]
    for i in range(led.a.shape[1]):
        cols += [led.a[:, i].tolist(), led.D[:, i].tolist(),
                 led.rewards[:, i].tolist(), led.flags[:, i].tolist()]
    cols += [led.delta.tolist(), led.budget_ratio.tolist()]
    return zip(*cols)


class TestLedgerRows:
    @pytest.mark.parametrize("rounds", [1, ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1, 2 * ROW_BLOCK + 3])
    def test_blocks_equal_whole_ledger_columns(self, rounds, tmp_path):
        led = _random_ledger(rounds, 3, seed=rounds)
        rows = list(ledger_rows(led))
        whole = list(_whole_ledger_rows(led))
        assert rows == whole
        assert [tuple(map(type, r)) for r in rows] == [tuple(map(type, r)) for r in whole]
        header = ledger_header(3)
        write_csv(str(tmp_path / "fast.csv"), header, ledger_rows(led))
        _write_csv_reference(str(tmp_path / "ref.csv"), header, _whole_ledger_rows(led))
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_empty_ledger_writes_the_header(self, tmp_path):
        write_csv(str(tmp_path / "t.csv"), ledger_header(2), ledger_rows(_random_ledger(0, 2)))
        assert (tmp_path / "t.csv").read_text() == ",".join(ledger_header(2)) + "\n"

    def test_writing_holds_one_block_not_the_ledger(self, tmp_path):
        # 40 000 rounds of 4 miners: a 5 MB ledger, whose Python copy would
        # take about 20 MB
        led = _random_ledger(40_000, 4, wide=False)
        tracemalloc.start()
        try:
            write_csv(str(tmp_path / "ledger.csv"), ledger_header(4), ledger_rows(led))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20
