"""Fuzz tests for the error contract.

Valid record lines and model documents are mutated (keys deleted, values
swapped for other types, huge integers, NaN or infinity, lists grown or
shortened).  A mutated input may still be valid; otherwise the library
must raise a PoseconfError subclass, and the CLI must exit 1 or 2 with
exactly one line on stderr, never a traceback.  Every subcommand also runs
with bad flag values and damaged input text (CRLF line ends excepted, which
must be read); it must fail the same way and leave every file as it was.
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
    parse_record,
    record_lines,
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
    labels = label_records(records)
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


# JSON that decodes, but holds no number or object where the model needs one
@pytest.mark.parametrize("field, value", [
    ("feature_set", "inlier_count"),
    ("weights", "2.5"),
    ("bias", "0.5"),
    ("standardizer.means", ["3"]),
    ("standardizer.stds", [True]),
    ("training_meta", [["n_train", 4]]),
])
def test_score_with_a_model_of_non_numbers_names_the_field(score_dir, field, value):
    doc = copy.deepcopy(MODEL_DOC)
    *parents, key = field.split(".")
    reduce(lambda node, name: node[name], parents, doc)[key] = value
    code, err = _run_score(score_dir, [json.dumps(d) for d in RECORD_DOCS], doc)
    assert code == 1
    assert len(err) == 1 and err[0].startswith(f"error: SchemaError: field '{field}': ")


LONG_INT = "1" * 5000  # beyond the digits Python's json converts to int
DEEP = "[" * 1000 + "]" * 1000  # beyond the nesting Python's json decodes at the default recursion limit
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
        ("data", RECORD_TEXT[:-1] + f', "deep": {DEEP}}}'),
        ("model", MODEL_TEXT[:-1] + f', "deep": {DEEP}}}'),
        ("model", MODEL_TEXT.replace('"training_meta": {', f'"training_meta": {{"deep": {DEEP}, ', 1)),
    ],
    ids=["long-int-record", "non-utf8-data", "model-not-json", "long-int-model", "non-utf8-model",
         "deep-record", "deep-model", "deep-training-meta"],
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


# ---------------------------------------------------------------------------
# every subcommand, driven through mutated flags and damaged input text

RUN_RECORDS = synth_generate(SynthConfig(queries=8, width=64, height=48), 6)
RUN_DATA = "".join(line + "\n" for line in record_lines(RUN_RECORDS)).encode()
RUN_MODEL = (json.dumps(MODEL_DOC, indent=2, sort_keys=True) + "\n").encode()

COMMANDS = {
    "synth": ["synth", "--queries", "2", "--candidates", "2", "--width", "64",
              "--height", "48", "--out", "{root}/out/synth.jsonl"],
    "train": ["train", "--data", "{root}/in/data.jsonl", "--out", "{root}/out/model.json",
              "--test-out", "{root}/out/test.jsonl", "--train-out", "{root}/out/train.jsonl"],
    "score": ["score", "--data", "{root}/in/data.jsonl", "--model", "{root}/in/model.json",
              "--out", "{root}/out/scored.jsonl"],
    "eval": ["eval", "--data", "{root}/in/data.jsonl", "--model", "{root}/in/model.json",
             "--out-dir", "{root}/out/eval", "--ablate", "--train-data", "{root}/in/train.jsonl"],
    "rerank": ["rerank", "--data", "{root}/in/data.jsonl", "--model", "{root}/in/model.json",
               "--out-dir", "{root}/out/rerank"],
}

A_FILE = "{root}/in/notes.txt"
A_DIR = "{root}/in"
MISSING = "{root}/missing/x.jsonl"
UNDER_A_FILE = "{root}/in/notes.txt/x.jsonl"
MANIFEST_BLOCKED = "{root}/in/blocked.jsonl"  # its manifest's name is a directory
DIGITS_4301 = "1" * 4301  # one past the digits Python converts to int


def _workspace(root):
    (root / "in").mkdir()
    (root / "out").mkdir()
    (root / "in" / "notes.txt").write_text("not a record\n")
    (root / "in" / "blocked.jsonl.manifest.json").mkdir()
    (root / "in" / "data.jsonl").write_bytes(RUN_DATA)
    (root / "in" / "train.jsonl").write_bytes(RUN_DATA)
    (root / "in" / "model.json").write_bytes(RUN_MODEL)
    os.link(root / "in" / "data.jsonl", root / "in" / "data-link.jsonl")


def _argv(command, root, flag=None, value=None):
    argv = list(COMMANDS[command])
    if flag in argv and value is None:  # a switch, dropped
        argv.remove(flag)
    elif flag in argv:
        argv[argv.index(flag) + 1] = value
    elif flag is not None:
        argv += [flag, value]
    return [arg.replace("{root}", str(root)) for arg in argv]


def _tree(root):
    """Every path under `root`, with the bytes of each file."""
    return {str(p.relative_to(root)): p.read_bytes() if p.is_file() else None
            for p in root.rglob("*")}


def _fails_on_one_line(argv, root, capsys):
    """Run a command that must fail and return its exit code and one stderr line."""
    before = _tree(root)
    code = main(argv)
    err = capsys.readouterr().err.splitlines()
    assert code in (1, 2)
    assert len(err) == 1 and err[0].startswith("error: "), err
    assert _tree(root) == before  # no new, changed or truncated file
    return code, err[0]


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_unmutated_commands_succeed(tmp_path, capsys, command):
    _workspace(tmp_path)
    before = _tree(tmp_path)
    assert main(_argv(command, tmp_path)) == 0
    assert capsys.readouterr().err == ""
    assert set(_tree(tmp_path)) > set(before)  # new output files


# an output naming the same file as another output or an input: a usage
# error, found before any input is read (synth reads none)
SAME_FILE_CASES = [
    ("train", "--test-out", "{root}/out/model.json"),
    ("train", "--train-out", "{root}/out/test.jsonl"),
    ("train", "--out", "{root}/out/../out/train.jsonl"),
    ("train", "--test-out", "{root}/out/model.json.manifest.json"),
    ("train", "--out", "{root}/in/data.jsonl"),
    ("train", "--test-out", "{root}/in/../in/data.jsonl"),
    ("score", "--out", "{root}/in/model.json"),
    ("score", "--out", "{root}/in/data.jsonl"),
    ("score", "--out", "{root}/in/data-link.jsonl"),  # a hard link to --data
    ("eval", "--train-data", "{root}/out/eval/report.json"),
    ("eval", "--data", "{root}/out/eval/manifest.json"),
    ("rerank", "--data", "{root}/out/rerank/selections.jsonl"),
]

# --train-data is read only for --ablate: without it, the pair is a usage error
WITHOUT_ABLATE = ("eval", "--ablate", None)

FLAG_CASES = [
    ("synth", "--queries", "-1"),
    ("synth", "--queries", "nan"),
    ("synth", "--queries", str(10**30)),
    ("synth", "--candidates", "0"),
    ("synth", "--candidates", str(10**20)),
    ("synth", "--width", str(10**20)),
    ("synth", "--width", str(2**62)),  # fits int64, but not times the height
    ("synth", "--height", "-48"),
    ("synth", "--adversarial-fraction", "nan"),
    ("synth", "--junk-fraction", "1e308"),
    ("synth", "--seed", "-1"),
    ("synth", "--seed", DIGITS_4301),
    ("synth", "--out", A_DIR),
    ("synth", "--out", MISSING),
    ("synth", "--out", UNDER_A_FILE),
    ("synth", "--out", MANIFEST_BLOCKED),
    ("score", "--out", A_DIR),
    ("score", "--out", MISSING),
    ("score", "--out", MANIFEST_BLOCKED),
    ("train", "--seed", "-1"),
    ("train", "--seed", "nan"),
    ("train", "--split", "nan"),
    ("train", "--split", "-0.5"),
    ("train", "--split", "1e308"),
    ("train", "--threshold-m", "nan"),
    ("train", "--threshold-m", "-1"),
    ("train", "--threshold-deg", "1e308"),
    ("train", "--features", ""),
    ("train", "--data", A_FILE),
    ("train", "--data", A_DIR),
    ("train", "--data", MISSING),
    ("train", "--out", A_DIR),
    ("train", "--out", MISSING),
    ("train", "--test-out", MISSING),
    ("train", "--test-out", A_DIR),
    ("train", "--train-out", UNDER_A_FILE),
    ("train", "--out", MANIFEST_BLOCKED),
    *SAME_FILE_CASES,
    ("eval", "--thresholds", ""),
    ("eval", "--thresholds", "nan,10"),
    ("eval", "--thresholds", "-1,10"),
    ("eval", "--thresholds", "1e999,10"),
    ("eval", "--thresholds", "1,-10"),
    ("eval", "--data", A_FILE),
    ("eval", "--data", A_DIR),
    ("eval", "--model", A_FILE),
    ("eval", "--model", MISSING),
    ("eval", "--train-data", A_DIR),
    ("eval", "--out-dir", A_FILE),
    ("eval", "--out-dir", UNDER_A_FILE),
    WITHOUT_ABLATE,
    ("rerank", "--thresholds-m", ""),
    ("rerank", "--thresholds-m", "nan"),
    ("rerank", "--thresholds-m", "-1"),
    ("rerank", "--thresholds-m", "1e999"),
    ("rerank", "--threshold-deg", "nan"),
    ("rerank", "--threshold-deg", "-5"),
    ("rerank", "--threshold-deg", "1e308"),
    ("rerank", "--data", MISSING),
    ("rerank", "--model", A_DIR),
    ("rerank", "--out-dir", A_FILE),
]


def _case_id(case):
    command, flag, value = case
    for name, path in (("file", A_FILE), ("dir", A_DIR), ("missing", MISSING),
                       ("under-file", UNDER_A_FILE), ("manifest-blocked", MANIFEST_BLOCKED),
                       ("4301-digits", DIGITS_4301)):
        if value == path:
            value = name
    if value is None:
        return f"{command}-without{flag}"
    return f"{command}{flag}={value.replace('{root}/', '') or 'empty'}"


@pytest.mark.parametrize("case", FLAG_CASES, ids=map(_case_id, FLAG_CASES))
def test_bad_flag_fails_on_one_line(tmp_path, capsys, case):
    command, flag, value = case
    _workspace(tmp_path)
    code, _ = _fails_on_one_line(_argv(command, tmp_path, flag, value), tmp_path, capsys)
    if case in SAME_FILE_CASES or case == WITHOUT_ABLATE:
        assert code == 2


# an earlier run's output, named as an input of the next run into that --out-dir
@pytest.mark.parametrize("command, flag, name", [
    ("eval", "--train-data", "report.json"),
    ("rerank", "--data", "selections.jsonl"),
])
def test_an_earlier_output_is_not_an_input(tmp_path, capsys, command, flag, name):
    _workspace(tmp_path)
    assert main(_argv(command, tmp_path)) == 0
    capsys.readouterr()
    argv = _argv(command, tmp_path, flag, f"{tmp_path}/out/{command}/{name}")
    code, _ = _fails_on_one_line(argv, tmp_path, capsys)
    assert code == 2


def _on_line_3(text):
    lines = text.split(b"\n")
    lines[2] = lines[2][:6] + b"\xff" + lines[2][6:]
    return b"\n".join(lines)


def _long_int(text):
    digits = DIGITS_4301.encode()
    text = text.replace(b'"candidate_rank":1', b'"candidate_rank":' + digits, 1)
    return text.replace(b'"format_version": 1', b'"format_version": ' + digits, 1)


DAMAGE = {
    "truncated": lambda text: text[:-20],
    "bom": lambda text: b"\xef\xbb\xbf" + text,
    "crlf": lambda text: text.replace(b"\n", b"\r\n"),
    "non-utf8": _on_line_3,
    "4301-digits": _long_int,
}
INPUTS = [("train", "--data"), ("score", "--data"), ("score", "--model"), ("eval", "--data"),
          ("eval", "--model"), ("eval", "--train-data"), ("rerank", "--data"),
          ("rerank", "--model")]


@pytest.mark.parametrize("damage", sorted(DAMAGE))
@pytest.mark.parametrize("command, flag", INPUTS, ids=[c + f for c, f in INPUTS])
def test_damaged_input_text_fails_on_one_line(tmp_path, capsys, command, flag, damage):
    _workspace(tmp_path)
    source = RUN_MODEL if flag == "--model" else RUN_DATA
    damaged = tmp_path / "in" / "damaged"
    damaged.write_bytes(DAMAGE[damage](source))
    assert damaged.read_bytes() != source
    argv = _argv(command, tmp_path, flag, str(damaged))
    if damage == "crlf":  # JSON whitespace, and a line end the reader accepts
        assert main(argv) == 0
        assert capsys.readouterr().err == ""
        return
    _, err = _fails_on_one_line(argv, tmp_path, capsys)
    if damage == "non-utf8" and flag != "--model":
        assert err.startswith("error: SchemaError: line 3: not UTF-8 text")
