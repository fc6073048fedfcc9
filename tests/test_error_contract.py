"""Fuzz tests for the error contract.

Valid record lines and model documents are mutated (keys deleted, values
swapped for other types, huge integers, NaN or infinity, lists grown or
shortened).  A mutated input may still be valid; otherwise the library
must raise a PoseconfError subclass, and the CLI must exit 1 or 2 with
exactly one line on stderr, never a traceback.
"""

import contextlib
import copy
import io
import json
import os
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poseconf.cli import main
from poseconf.confidence_model import from_json_dict, score_records, to_json_dict, train
from poseconf.dataset_io import (
    SynthConfig,
    build_extended,
    label_records,
    labels_only,
    parse_record,
    serialize_record,
    synth_generate,
)
from poseconf.errors import PoseconfError

HUGE_INTS = [2**31, 2**53 + 1, 2**63 - 1, 2**63, 2**64, 2**70, -(2**63) - 1, 2**2000, -(2**2000)]

SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.sampled_from(HUGE_INTS),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([float("nan"), float("inf"), -float("inf"), 1e308, -0.0, 0.5]),
    st.text(max_size=4),
)
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.dictionaries(st.text(max_size=4), inner, max_size=3)
    ),
    max_leaves=8,
)


def _paths(doc, prefix=()):
    """Every key path inside a JSON document, the root excluded."""
    if isinstance(doc, dict):
        items = list(doc.items())
    elif isinstance(doc, list):
        items = list(enumerate(doc))
    else:
        return
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


def mutate(doc, data):
    """Apply one to three random edits to a copy of a JSON document."""
    doc = copy.deepcopy(doc)
    for _ in range(data.draw(st.integers(1, 3), label="edits")):
        paths = list(_paths(doc))
        if not paths:
            break
        path = data.draw(st.sampled_from(paths), label="path")
        parent = reduce(lambda node, key: node[key], path[:-1], doc)
        key = path[-1]
        action = data.draw(st.sampled_from(["delete", "replace", "grow"]), label="action")
        if action == "delete":
            del parent[key]
        elif action == "replace":
            parent[key] = data.draw(VALUES, label="value")
        elif isinstance(parent[key], list):
            parent[key].append(copy.deepcopy(parent[key][0]) if parent[key] else 0)
        else:
            parent[key] = [parent[key], parent[key]]
    return doc


def _record_docs():
    config = SynthConfig(queries=4, candidates_per_query=3, width=64, height=48, include_pv=True)
    return [serialize_record(r) for r in synth_generate(config, 5)]


RECORD_DOCS = _record_docs()


def _model_doc():
    records = build_extended(synth_generate(SynthConfig(queries=8, width=64, height=48), 6))
    labels = labels_only(label_records(records))
    return to_json_dict(train(records, labels).model)


MODEL_DOC = _model_doc()


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_parse_record_raises_only_package_errors(data):
    doc = mutate(data.draw(st.sampled_from(RECORD_DOCS), label="record"), data)
    # through JSON text, as the reader sees it: NaN and Infinity survive
    obj = json.loads(json.dumps(doc))
    try:
        parse_record(obj, 1)
    except PoseconfError:
        pass


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_model_documents_raise_only_package_errors(data):
    doc = json.loads(json.dumps(mutate(MODEL_DOC, data)))
    records = [parse_record(d) for d in RECORD_DOCS[:3]]
    try:
        score_records(from_json_dict(doc), records)
    except PoseconfError:
        pass


@pytest.fixture(scope="module")
def score_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("score"))


def _run_score(root, record_lines, model_doc):
    data, model, out = (os.path.join(root, n) for n in ("data.jsonl", "model.json", "out.jsonl"))
    with open(data, "w", encoding="utf-8") as fh:
        fh.write("".join(line + "\n" for line in record_lines))
    with open(model, "w", encoding="utf-8") as fh:
        json.dump(model_doc, fh)
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(["score", "--data", data, "--model", model, "--out", out])
    return code, err.getvalue().splitlines()


def _assert_contract(code, err):
    if code == 0:
        assert err == []
    else:
        assert code in (1, 2)
        assert len(err) == 1 and err[0].startswith("error: ")


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_score_on_a_mutated_record_file_fails_on_one_line(score_dir, data):
    index = data.draw(st.integers(0, len(RECORD_DOCS) - 1), label="line")
    lines = [json.dumps(d) for d in RECORD_DOCS]
    lines[index] = json.dumps(mutate(RECORD_DOCS[index], data))
    _assert_contract(*_run_score(score_dir, lines, MODEL_DOC))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_score_with_a_mutated_model_fails_on_one_line(score_dir, data):
    lines = [json.dumps(d) for d in RECORD_DOCS]
    _assert_contract(*_run_score(score_dir, lines, mutate(MODEL_DOC, data)))


LONG_INT = "1" * 5000  # beyond the digits Python's json converts to int
RECORD_TEXT = json.dumps(RECORD_DOCS[0])
MODEL_TEXT = json.dumps(MODEL_DOC)


@pytest.mark.parametrize(
    "target, text",
    [
        ("data", RECORD_TEXT.replace('"candidate_rank": 1', f'"candidate_rank": {LONG_INT}')),
        ("data", b"\xff\xfe{}"),
        ("model", "not json"),
        ("model", MODEL_TEXT.replace('"format_version": 1', f'"format_version": {LONG_INT}')),
        ("model", b"\xff\xfe{}"),
    ],
    ids=["long-int-record", "non-utf8-data", "model-not-json", "long-int-model", "non-utf8-model"],
)
def test_unreadable_text_fails_on_one_line(tmp_path, capsys, target, text):
    paths = {"data": tmp_path / "data.jsonl", "model": tmp_path / "model.json"}
    paths["data"].write_text("".join(json.dumps(d) + "\n" for d in RECORD_DOCS))
    paths["model"].write_text(MODEL_TEXT)
    if isinstance(text, bytes):
        paths[target].write_bytes(text)
    else:
        paths[target].write_text(text + "\n")
    code = main(["score", "--data", str(paths["data"]), "--model", str(paths["model"]),
                 "--out", str(tmp_path / "out.jsonl")])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: SchemaError")
