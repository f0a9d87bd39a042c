"""CSV emission with round-trip-exact floats and atomic writes."""
from __future__ import annotations

import csv
import os
import tempfile


def fmt(value) -> str:
    """Serialize one cell; floats use 17 significant digits."""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def write_csv(path: str, header: list[str], rows) -> None:
    """Write header + rows atomically (temp file, then rename)."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            for row in rows:
                writer.writerow([fmt(v) for v in row])
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def ledger_header(n_miners: int) -> list[str]:
    cols = ["round", "M"]
    for i in range(1, n_miners + 1):
        cols += [f"a_{i}", f"D_{i}", f"reward_{i}", f"subsidy_flag_{i}"]
    cols += ["delta", "budget_ratio"]
    return cols


def ledger_rows(ledger):
    """One row per round, in ledger_header's column order."""
    cols = [range(1, ledger.rounds + 1), ledger.M.tolist()]
    for i in range(ledger.a.shape[1]):
        cols += [ledger.a[:, i].tolist(), ledger.D[:, i].tolist(),
                 ledger.rewards[:, i].tolist(), ledger.flags[:, i].tolist()]
    cols += [ledger.delta.tolist(), ledger.budget_ratio.tolist()]
    return zip(*cols)
