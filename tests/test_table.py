"""Tests for the workspace table codec."""

import math
from pathlib import Path

import numpy as np
import pytest

from seisfrag.table import read_table, write_table


class TestTable:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "t.csv"
        rows = [
            ["pga", 3, -1, 0.1, None],
            ["lin_disp", np.int64(12), 1, np.float64(1 / 3), math.nan],
        ]
        write_table(path, ["name", "id", "label", "value", "prbp"], rows,
                    meta={"kernel": "rbf", "gamma": 0.25, "cost": 10.0, "empty": None})
        assert path.read_text().splitlines() == [
            "# kernel=rbf",
            "# gamma=0.25",
            "# cost=10",
            "# empty=",
            "name,id,label,value,prbp",
            "pga,3,-1,0.10000000000000001,",
            "lin_disp,12,1,0.33333333333333331,nan",
        ]
        table = read_table(path)
        assert table.meta == {"kernel": "rbf", "gamma": "0.25", "cost": "10", "empty": ""}
        assert table.columns == ["name", "id", "label", "value", "prbp"]
        assert table.rows[0] == ["pga", "3", "-1", "0.10000000000000001", ""]
        values = table._replace(columns=table.columns[1:], rows=[r[1:] for r in table.rows]).floats()
        assert values[:, :3].tolist() == [[3.0, -1.0, 0.1], [12.0, 1.0, 1 / 3]]
        assert np.isnan(values[:, 3]).all()

    def test_floats_are_bit_exact(self, tmp_path):
        scales = 10.0 ** np.array([-150, -50, 50])
        values = np.random.default_rng(0).standard_normal((5, 3)) * scales
        path = tmp_path / "f.csv"
        write_table(path, ["a", "b", "c"], values)
        back = read_table(path).floats()
        assert back.shape == (5, 3)
        assert np.array_equal(back, values)

    def test_header_only_table_has_no_rows(self, tmp_path):
        path = tmp_path / "e.csv"
        write_table(path, ["a", "b"], [])
        assert read_table(path).floats().shape == (0, 2)

    def test_failed_write_leaves_no_file(self, tmp_path):
        def rows():
            yield [1, 2.0]
            raise RuntimeError("interrupted")

        path = tmp_path / "broken.csv"
        with pytest.raises(RuntimeError):
            write_table(path, ["a", "b"], rows())
        assert list(tmp_path.iterdir()) == []

    def test_write_cut_short_keeps_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "kept.csv"
        write_table(path, ["a"], [[1]])
        before = path.read_bytes()

        def half_then_fail(self, data):
            with open(self, "wb") as fh:
                fh.write(data[: len(data) // 2])
            raise OSError("no space left on device")

        monkeypatch.setattr(Path, "write_bytes", half_then_fail)
        with pytest.raises(OSError):
            write_table(path, ["a"], [[2.5], [3.5]])
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]
