"""Short CLI runs reproduce their committed output records (see
``output_records``): a change that moves any output beyond 1e-9 fails
here, in both forms, and names the first row and column that moved."""

import pytest

from output_records import RECORDED, compare, read_record, simulate


@pytest.mark.parametrize("name, kernel", RECORDED)
def test_outputs_match_their_record(name, kernel, tmp_path):
    problems = compare(simulate(name, kernel, tmp_path), read_record(name, kernel))
    assert not problems, "\n".join(problems)


def test_compare_reports_the_first_differing_row_and_column(tmp_path):
    record = read_record("pentagon_flock", "numpy")
    header, rows = record["trajectory.csv"]
    moved = rows.copy()
    moved[2, 3] += 2e-9
    moved[4, 1] += 1.0
    got = dict(record, **{"trajectory.csv": (header, moved),
                          "summary.json": dict(record["summary.json"], agents=6)})
    assert compare(got, record) == [
        f"trajectory.csv: first difference at row 100, column {header[3]}: "
        f"{float(moved[2, 3])!r} against {float(rows[2, 3])!r} in the record",
        "summary.json: first difference at agents: 6 against 5 in the record"]
