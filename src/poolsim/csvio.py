"""CSV emission with round-trip-exact floats and atomic writes."""
from __future__ import annotations

import csv
import itertools
import os

# Rounds (array rows) converted to Python objects at a time by ledger_rows
# and montecarlo.exact_sum, so neither holds a Python copy of a whole ledger.
# A few hundred: 4 096 already shows in a simulate run's peak RSS.
ROW_BLOCK = 256


def fmt(value) -> str:
    """Serialize one cell; floats use 17 significant digits."""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def atomic_write(path: str, write) -> None:
    """Call write(fh) on a temp file beside `path`, then rename it to `path`,
    creating the directory if needed. Text is written without newline
    translation. The file's mode is what open() gives a new file, 0o666
    less the umask: the temp file is created with it (tempfile.mkstemp's
    would be 0o600), under a fresh random name that O_EXCL keeps from
    opening an existing file."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp = os.path.join(directory, f"tmp{os.urandom(8).hex()}.tmp")
    flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0)
    fd = os.open(tmp, flags, 0o666)
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# %-conversions that give exactly fmt's text for cells of these exact types
_NUMERIC_CONVERSIONS = {bool: "%d", int: "%d", float: "%.17g"}


def _row_template(cell_types: tuple) -> str | None:
    """One %-format line for a row of these exact cell types, or None when a
    cell is not a plain bool, int or float. Numeric text never needs csv
    quoting, so the line is what csv.writer would write for fmt's cells."""
    try:
        return ",".join(_NUMERIC_CONVERSIONS[t] for t in cell_types) + "\n"
    except KeyError:
        return None


def write_csv(path: str, header: list[str], rows) -> None:
    """Write header + rows atomically (temp file, then rename).

    Every cell is fmt's text under csv.writer's quoting; a row of plain
    numbers is written with one %-format per row, which gives the same bytes.
    """

    def write(fh):
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        templates: dict[tuple, str | None] = {}
        for row in rows:
            row = tuple(row)
            cell_types = tuple(map(type, row))
            try:
                line = templates[cell_types]
            except KeyError:
                line = templates[cell_types] = _row_template(cell_types)
            if line is None:
                writer.writerow([fmt(v) for v in row])
            else:
                fh.write(line % row)

    atomic_write(path, write)


def ledger_header(n_miners: int) -> list[str]:
    cols = ["round", "M"]
    for i in range(1, n_miners + 1):
        cols += [f"a_{i}", f"D_{i}", f"reward_{i}", f"subsidy_flag_{i}"]
    cols += ["delta", "budget_ratio"]
    return cols


def _ledger_block(ledger, lo: int, hi: int):
    cols = [range(lo + 1, hi + 1), ledger.M[lo:hi].tolist()]
    per_miner = [x[lo:hi].T.tolist() for x in (ledger.a, ledger.D, ledger.rewards, ledger.flags)]
    for a, d, reward, flag in zip(*per_miner):
        cols += [a, d, reward, flag]
    cols += [ledger.delta[lo:hi].tolist(), ledger.budget_ratio[lo:hi].tolist()]
    return zip(*cols)


def ledger_rows(ledger):
    """One row per round, in ledger_header's column order, as an iterator.
    The columns are converted to Python objects ROW_BLOCK rounds at a time,
    when the rows are read: the rows in memory are one block's, not a copy
    of the ledger."""
    rounds = ledger.rounds
    return itertools.chain.from_iterable(
        _ledger_block(ledger, lo, min(lo + ROW_BLOCK, rounds))
        for lo in range(0, rounds, ROW_BLOCK)
    )
