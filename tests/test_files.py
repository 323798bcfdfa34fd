"""Output files are replaced whole or not at all."""

import csv

import numpy as np
import pytest

from surrokit.bee_colony import write_trace_csv
from surrokit.mofa import ParetoArchive
from surrokit.oracles import save_csv
from surrokit.training import SampleSet

WRITERS = {
    "save_csv": lambda path: save_csv(
        SampleSet(np.ones((3, 2)), {"y": np.arange(3.0)}, ["a", "b"]), path),
    "write_csv": lambda path: ParetoArchive(
        np.ones((2, 2)), np.ones((2, 2)), np.ones((2, 1)), ["f", "g"], ["c"],
        ["a", "b"]).write_csv(path),
    "write_trace_csv": lambda path: write_trace_csv([3.0, 2.0], path),
}


@pytest.mark.parametrize("writer", WRITERS)
def test_failed_write_keeps_existing_file(tmp_path, monkeypatch, writer):
    path = tmp_path / "out.csv"
    WRITERS[writer](path)
    before = path.read_bytes()

    def broken_writer(fh, *args, **kwargs):
        class Writer:
            def writerow(self, row):
                fh.write("partial,")
                raise OSError("disk full")
            writerows = writerow
        return Writer()

    monkeypatch.setattr(csv, "writer", broken_writer)
    with pytest.raises(OSError, match="disk full"):
        WRITERS[writer](path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


@pytest.mark.parametrize("writer", WRITERS)
@pytest.mark.parametrize("target", ["taken", "nodir/out.csv"])
def test_failed_write_names_the_path(tmp_path, writer, target):
    """A path that cannot take the file is named in the error, not the
    temporary file the write goes through."""
    (tmp_path / "taken").mkdir()
    path = tmp_path / target
    with pytest.raises(OSError) as info:
        WRITERS[writer](path)
    assert info.value.filename == str(path)
    assert ".tmp" not in str(info.value)
    assert [p.name for p in tmp_path.iterdir()] == ["taken"]
