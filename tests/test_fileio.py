"""Tests for atomic output writes."""

import pytest

from poseconf.fileio import atomic_open


def test_interrupted_write_leaves_no_file(tmp_path):
    path = tmp_path / "map.pgm"
    with pytest.raises(KeyboardInterrupt):
        with atomic_open(path, "wb") as fh:
            fh.write(b"P5\n")
            raise KeyboardInterrupt
    assert list(tmp_path.iterdir()) == []


def test_completed_write_replaces_the_file(tmp_path):
    path = tmp_path / "report.json"
    path.write_text("old\n")
    with atomic_open(path, "w", encoding="utf-8") as fh:
        fh.write("new\n")
    assert path.read_text() == "new\n"
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]


def test_unwritable_target_is_named_in_the_error(tmp_path):
    path = tmp_path / "missing" / "model.json"
    with pytest.raises(FileNotFoundError) as info:
        with atomic_open(path, "w", encoding="utf-8"):
            pass
    assert info.value.filename == str(path)


def test_failed_rename_names_the_target(tmp_path):
    path = tmp_path / "scored"
    path.mkdir()
    with pytest.raises(IsADirectoryError) as info:
        with atomic_open(path, "w", encoding="utf-8") as fh:
            fh.write("line\n")
    assert (info.value.filename, info.value.filename2) == (str(path), None)
    assert str(info.value).endswith(f"'{path}'")
    assert [p.name for p in tmp_path.iterdir()] == ["scored"]
