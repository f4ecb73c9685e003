"""The atomic-write helper: a reader never observes a torn file."""

import json
import os
import threading

import pytest

from repro.io.atomic import atomic_write_json, atomic_write_text


def test_writes_text(tmp_path):
    target = tmp_path / "out.txt"
    atomic_write_text("hello", target)
    assert target.read_text() == "hello"


def test_overwrites_existing(tmp_path):
    target = tmp_path / "out.txt"
    target.write_text("old")
    atomic_write_text("new", target)
    assert target.read_text() == "new"


def test_json_sorted_and_stable(tmp_path):
    target = tmp_path / "out.json"
    atomic_write_json({"b": 2, "a": 1}, target)
    first = target.read_bytes()
    atomic_write_json({"a": 1, "b": 2}, target)
    assert target.read_bytes() == first
    assert json.loads(first) == {"a": 1, "b": 2}


def test_json_is_compact(tmp_path):
    # Compact output keeps json.dumps on its C encoder; tuples encode as
    # lists, so callers may pass stored tuples without copying them.
    target = tmp_path / "out.json"
    atomic_write_json({"b": [(1, 2), (3, 4)], "a": {"c": 1.5}}, target)
    assert target.read_text() == '{"a":{"c":1.5},"b":[[1,2],[3,4]]}'


def test_no_temp_file_left_behind(tmp_path):
    target = tmp_path / "out.json"
    atomic_write_json({"k": "v"}, target)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.json"]


def test_failure_leaves_destination_untouched(tmp_path):
    target = tmp_path / "out.json"
    atomic_write_text("intact", target)

    class Unserializable:
        pass

    with pytest.raises(TypeError):
        atomic_write_json({"bad": Unserializable()}, target)
    assert target.read_text() == "intact"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.json"]


def test_reader_never_sees_torn_file(tmp_path):
    """Hammer the file with rewrites while a reader polls it.

    Every observed content must be one of the complete payloads -- a
    prefix/suffix mix of two writes (a torn read) fails the test.  This is
    the contract the live-state store and checkpoint writer rely on.
    """
    target = tmp_path / "state.json"
    payloads = [json.dumps({"gen": gen, "fill": "x" * 4096}) for gen in range(50)]
    atomic_write_text(payloads[0], target)
    complete = set(payloads)
    torn = []
    stop = threading.Event()

    def reader():
        while not stop.is_set():
            try:
                content = target.read_text()
            except FileNotFoundError:  # pragma: no cover - rename is atomic
                torn.append("<missing>")
                continue
            if content not in complete:
                torn.append(content[:80])

    thread = threading.Thread(target=reader)
    thread.start()
    try:
        for payload in payloads[1:]:
            atomic_write_text(payload, target)
    finally:
        stop.set()
        thread.join()
    assert torn == []
    assert target.read_text() == payloads[-1]


def test_relative_path_without_directory(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    atomic_write_text("cwd write", "plain.txt")
    assert (tmp_path / "plain.txt").read_text() == "cwd write"
    assert os.listdir(tmp_path) == ["plain.txt"]
