"""Property tests for the text inputs: config, typicality spec, class map,
selection and label files.

Any bytes either parse or end in a typed SentinelError whose message names
the path and the line at fault. The one error that no line is at fault for,
a spec with an empty list, names the path alone.
"""

import dataclasses
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from skel_sentinel.cli import _read_selection
from skel_sentinel.config import RunConfig
from skel_sentinel.errors import LabelConflictError, SchemaError, SentinelError
from skel_sentinel.evaluation import read_labels
from skel_sentinel.synth import read_class_map
from skel_sentinel.typicality import load_typicality_spec

READERS = {
    "config": RunConfig.from_file,
    "spec": load_typicality_spec,
    "classes": read_class_map,
    "selection": _read_selection,
    "labels": read_labels,
}

NUMBERS = st.one_of(
    st.integers(-(10**30), 10**30).map(str),
    st.floats().map(repr),
    st.sampled_from(["1e400", "-1e400", "nan", "-0", "+3", "1_0", "0x10", "9" * 5000, ""]),
)
WORDS = st.one_of(
    st.text(max_size=6),
    st.sampled_from([
        "v", "v1", "walk", "run", "prompt", "[normal]", "[abnormal]", "[other]", "#",
        "seed", "alpha", "epsilon", "feature_dim", "beta_normal", "window_length",
    ]),
)
SEPARATORS = st.sampled_from(["\t", "\t\t", "=", " = ", ":", " ", "\r", "\x0c", " "])
TEXT_LINES = st.lists(st.one_of(NUMBERS, WORDS, SEPARATORS), max_size=7).map(
    lambda parts: "".join(parts).replace("\n", "").encode("utf-8")
)
LINES = st.one_of(TEXT_LINES, st.binary(max_size=12).map(lambda b: b.replace(b"\n", b"")))
FILES = st.lists(LINES, max_size=8).map(lambda lines: b"\n".join(lines))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("text-inputs")


def assert_parses_or_names_line(reader, path, content: bytes):
    path.write_bytes(content)
    try:
        reader(path)
    except SentinelError as exc:
        match = re.match(re.escape(str(path)) + r"(?:, line (\d+))?: ", str(exc))
        assert match, str(exc)
        if match.group(1) is None:
            assert re.fullmatch(r".*: no (normal|abnormal) label", str(exc)), str(exc)
        else:
            assert 1 <= int(match.group(1)) <= content.count(b"\n") + 1, str(exc)


@pytest.mark.parametrize("kind", sorted(READERS))
@settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(content=FILES)
def test_any_bytes_parse_or_name_the_line(workdir, kind, content):
    assert_parses_or_names_line(READERS[kind], workdir / f"{kind}.txt", content)


def valid_line(kind: str):
    """Lines that are well formed for `kind`, with huge and negative numbers."""
    number = st.one_of(st.integers(-(10**20), 10**20), st.integers(0, 3)).map(str)
    video = st.sampled_from(["v1", "v2", "a:b"])
    if kind == "config":
        keys = st.sampled_from(sorted(f.name for f in dataclasses.fields(RunConfig)))
        return st.tuples(keys, st.one_of(number, NUMBERS)).map(lambda kv: f"{kv[0]} = {kv[1]}")
    if kind == "spec":
        return st.one_of(
            st.sampled_from(["[normal]", "[abnormal]", "prompt = p"]),
            st.sampled_from(["walk", "run", "sit"]),
        )
    if kind == "classes":
        return st.tuples(video, st.sampled_from(["walk", "run"])).map("\t".join)
    if kind == "selection":
        return st.tuples(video, number, number, number).map(
            lambda t: f"{t[0]}:{t[1]}:{t[2]}\t{t[3]}"
        )
    return st.tuples(video, number, number).map("\t".join)


@pytest.mark.parametrize("kind", sorted(READERS))
@settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(data=st.data())
def test_near_valid_files_parse_or_name_the_line(workdir, kind, data):
    lines = data.draw(
        st.lists(st.one_of(valid_line(kind), TEXT_LINES.map(bytes.decode)), max_size=10)
    )
    content = "\n".join(lines).encode("utf-8")
    assert_parses_or_names_line(READERS[kind], workdir / f"{kind}-near.txt", content)


@pytest.mark.parametrize(
    "kind, text, error, message",
    [
        ("config", "seed = 1\nalpha = 1e400\n", SchemaError,
         "line 2: alpha must be finite, got inf"),
        ("config", "window_length = -7\n", SchemaError,
         "line 1: window_length must be >= 2, got -7"),
        ("spec", "[normal]\nwalk\nwalk\n[abnormal]\nrun\n", SchemaError,
         "line 3: repeated normal label 'walk'"),
        ("spec", "[normal]\nwalk\n[abnormal]\nwalk\n", LabelConflictError,
         "line 4: label 'walk' is in both lists"),
        ("spec", "prompt = a\nprompt = b\n", SchemaError, "line 2: repeated prompt"),
        ("classes", "v1\twalk\n\trun\n", SchemaError, "line 2: expected video_id<TAB>class"),
        ("selection", "v1:0:0\t0.9\n\t0.5\n\n", SchemaError, "line 2: bad snippet ref ''"),
        ("selection", "v1:0:+0\t0.9\n", SchemaError, "line 1: bad snippet ref 'v1:0:+0'"),
        ("labels", "v\t0\t0\nv\t7\t1\nv\t1\t1\n", SchemaError,
         "line 2: v has gaps in its labels before frame 7"),
    ],
)
def test_bad_line_is_named(tmp_path, kind, text, error, message):
    path = tmp_path / "input.txt"
    path.write_text(text)
    with pytest.raises(error) as exc:
        READERS[kind](path)
    assert str(exc.value) == f"{path}, {message}"
