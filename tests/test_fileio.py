"""Tests for atomic output writes."""

import os

import pytest

from poseconf.fileio import atomic_open, check_writable


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


@pytest.mark.parametrize(
    "name, error",
    [("missing/out.json", NotADirectoryError), ("plain/out.json", NotADirectoryError),
     ("folder", IsADirectoryError), ("out.json", None)],
    ids=["missing-directory", "file-as-directory", "directory", "writable"],
)
def test_check_writable_refuses_what_atomic_open_would(tmp_path, name, error):
    (tmp_path / "plain").write_text("")
    (tmp_path / "folder").mkdir()
    before = sorted(p.name for p in tmp_path.iterdir())
    if error is None:
        check_writable(tmp_path / name)
    else:
        with pytest.raises(error):
            check_writable(tmp_path / "out.json", tmp_path / name)
        with pytest.raises(OSError):
            with atomic_open(tmp_path / name, "w", encoding="utf-8") as fh:
                fh.write("line\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == before


@pytest.mark.parametrize(
    "name, error",
    [("new/deeper/out.json", None), ("folder/new/out.json", None),
     ("plain/new/out.json", NotADirectoryError), ("folder", IsADirectoryError)],
    ids=["missing-directories", "missing-below-a-directory", "file-in-the-way", "directory"],
)
def test_check_writable_with_make_dirs_takes_directories_makedirs_makes(tmp_path, name, error):
    (tmp_path / "plain").write_text("")
    (tmp_path / "folder").mkdir()
    before = sorted(p.name for p in tmp_path.rglob("*"))
    if error is None:
        check_writable(tmp_path / name, make_dirs=True)
        with pytest.raises(NotADirectoryError):
            check_writable(tmp_path / name)
    else:
        with pytest.raises(error):
            check_writable(tmp_path / name, make_dirs=True)
        with pytest.raises(OSError):
            os.makedirs((tmp_path / name).parent, exist_ok=True)
            with atomic_open(tmp_path / name, "w", encoding="utf-8") as fh:
                fh.write("line\n")
    assert sorted(p.name for p in tmp_path.rglob("*")) == before
