import os
import stat

import pytest

from respscreen.util import csv_text, write_bytes_atomic


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["022", "077"])
def test_new_artifact_mode_follows_umask(tmp_path, umask, mode):
    # the mode `open(path, "wb")` would give a new file
    path = tmp_path / "out" / "a.bin"
    old = os.umask(umask)
    try:
        write_bytes_atomic(path, b"abc")
    finally:
        os.umask(old)
    assert stat.S_IMODE(path.stat().st_mode) == mode
    assert path.read_bytes() == b"abc"
    assert os.listdir(path.parent) == ["a.bin"]


def test_failed_write_leaves_nothing(tmp_path):
    path = tmp_path / "a.bin"
    with pytest.raises(TypeError):
        write_bytes_atomic(path, "not bytes")
    assert os.listdir(tmp_path) == []


def test_replaces_an_existing_artifact(tmp_path):
    path = tmp_path / "a.bin"
    write_bytes_atomic(path, b"old")
    write_bytes_atomic(path, b"new")
    assert path.read_bytes() == b"new"
    assert os.listdir(tmp_path) == ["a.bin"]


def test_csv_text_writes_floats_by_repr_and_none_empty():
    text = csv_text(("a", "b", "c"), [(0.1, None, "x,y"), (1e-300, 2, "")])
    assert text == 'a,b,c\r\n0.1,,"x,y"\r\n1e-300,2,\r\n'
