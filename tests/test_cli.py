"""End-to-end command-line behavior: exit codes, payloads, determinism."""

import hashlib
import io
import json
import os
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

jsonschema = pytest.importorskip("jsonschema")

from hkquot import WeightSystem, cli, exactlin, git_stability
from hkquot.cli import CliError, RunConfig, _numeric_scalar, cmd_analyze, cmd_hirzebruch, main, render
from hkquot.rep_core import point_to_json, weight_system_to_json
from hkquot.scalars import parse_rational
from hkquot.strata_examples import (
    HKStratumCandidate,
    _sample_on_hol_zero,
    certify_stratum,
    hirzebruch_weight_system,
    hk_candidate_strata,
)

from oracles import random_weight_system

HIRZEBRUCH1 = json.dumps(
    {"rank": 2, "weights": [[1, 0], [1, 0], [0, 1], [-1, 1]], "theta": ["1/2", "1/2"]}
)
DIAG2 = json.dumps({"rank": 1, "weights": [[1], [1]], "theta": ["1/2"]})
SSS = json.dumps({"rank": 1, "weights": [[1], [1]], "theta": ["0"]})


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def load_schema(name: str) -> dict:
    text = resources.files("hkquot").joinpath(f"schemas/{name}.json").read_text()
    return json.loads(text)


def test_analyze_payload_and_schema(capsys):
    code, out, err = run(capsys, "analyze", HIRZEBRUCH1)
    assert code == 0 and err == ""
    payload = json.loads(out)
    jsonschema.validate(payload, load_schema("analyze"))
    assert payload["schema"] == 1
    assert sorted(map(sorted, payload["unstable_maximal_supports"])) == [
        [0, 1],
        [2, 3],
        [3],
    ]
    assert len(payload["unstable_maximal_supports_cotangent"]) == 7
    assert payload["compact"] is True
    assert payload["smooth"]["smooth"] is True
    assert payload["kahler_strata"][0]["open"] is True


def test_classify_schema_and_verdict(capsys):
    code, out, _ = run(capsys, "classify", DIAG2, "[1, 0]")
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, load_schema("classify"))
    assert payload["verdict"]["status"] == "stable"
    # a cotangent point routes through the doubled system
    code, out, _ = run(capsys, "classify", HIRZEBRUCH1, '{"x": [1, 1, 1, 0], "z": [0, 0, 0, 1]}')
    assert code == 0
    assert json.loads(out)["verdict"]["status"] == "stable"


def test_classify_unstable_certificate(capsys):
    code, out, _ = run(capsys, "classify", DIAG2, "[0, 0]")
    assert code == 0
    verdict = json.loads(out)["verdict"]
    assert verdict["status"] == "unstable"
    assert verdict["certificate"] is not None


def test_kn_converges_and_validates(capsys):
    code, out, _ = run(capsys, "kn", DIAG2, "[1, 1]")
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, load_schema("kn"))
    assert payload["outcome"]["status"] == "converged"
    assert payload["outcome"]["residual"] < 1e-10


def test_kn_undecided_exits_4(capsys):
    code, _, err = run(capsys, "kn", SSS, "[1, 0]")
    assert code == 4
    assert "undecided" in err


def test_kn_trace_serializes_infinities(capsys):
    code, out, _ = run(capsys, "--trace", "kn", DIAG2, "[0, 0]")
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, load_schema("kn"))
    assert payload["outcome"]["status"] == "diverged"
    trace = payload["trace"]
    assert len(trace["t"]) == len(trace["value"]) == 31
    assert all(isinstance(v, (int, float)) or v == "inf" for v in trace["value"])


def test_kn_hyperkahler_roundtrip(capsys):
    point = json.dumps({"x": [0, 0, 1, 0], "z": [[0.7, 0.2], [0.3, -0.5], 0, 1]})
    code, out, _ = run(capsys, "--mode", "numeric", "kn", HIRZEBRUCH1, point, "--hyperkahler")
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, load_schema("kn"))
    assert payload["outcome"]["status"] == "converged"


def test_metric_report_validates(capsys):
    code, out, _ = run(capsys, "metric", DIAG2, "[1, 0]")
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, load_schema("metric"))
    assert payload["horizontal_dim"] == 4
    assert payload["quaternion_deviation"] < 1e-10


def test_metric_precondition_exits_2(capsys):
    code, _, err = run(capsys, "metric", DIAG2, "[2, 0]")
    assert code == 2
    assert "precondition" in err


def test_hirzebruch_suite_validates(capsys):
    code, out, _ = run(capsys, "hirzebruch", "2")
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, load_schema("hirzebruch"))
    assert payload["passed"] is True
    assert len(payload["assertions"]) == 8


def test_hirzebruch_table_format(capsys):
    code, out, _ = run(capsys, "--format", "table", "hirzebruch", "1")
    assert code == 0
    assert "[PASS]" in out and "result: PASS" in out


def test_hirzebruch_rejects_bad_parameters(capsys):
    code, _, err = run(capsys, "hirzebruch", "0")
    assert code == 2
    code, _, err = run(capsys, "hirzebruch", "1", "0")
    assert code == 2
    code, _, err = run(capsys, "hirzebruch", "1", "1/0")
    assert code == 2
    assert "rational" in err


#: sha256 of `render(cmd_hirzebruch(RunConfig(), n, "1", "1"), fmt)`
HIRZEBRUCH_DIGESTS = {
    (1, "json"): "2f8612281b7916f1c8de74b60c655cdc3332c9486ed097c4ce8ad2f250d30b5e",
    (1, "table"): "f428694538ae60494b104f4f8f3cb938e41d263d55eff6c543bad39b835bc6a0",
    (2, "json"): "8107b092d68fff9049e84cff20f6dbe5370591821b16b2c2ed8ab35a03541f50",
    (2, "table"): "648a12d72c1f1875e4d35fe2b8adafcf57299a2e1592b4cfefc165723522e304",
    (3, "json"): "0b19b60398ebea15f011ca4ee1bdd7204c172987cf1c0851ec389c9905004eb6",
    (3, "table"): "0181d40b21ae7f83edd2b1867f982ef8f3ca75fb785aa900e5f68a901dfd060c",
    (5, "json"): "33a17a5e90db060b0b84efd4121b7f316d7bf2189652f318169916f9762940fe",
    (5, "table"): "d5f728ba65e9317b145d9046a28fbbc5762ca787ab7fa619041c5f3bd7f1ead6",
    (8, "json"): "85fc9105ecbb632d3a27d21a73f6a5a38a62171bf2a95bb36fb0de6c6fe2468e",
    (8, "table"): "624b9bb1b58d6542e1d38816e9ab29429136a4b0bb1a42e53f66d4a5407ec179",
}


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_hirzebruch_bytes_are_pinned(n):
    # the whole report, not only its schema: the semistability assertions,
    # the mu-weights of the certificates and the printed witness residuals
    payload = cmd_hirzebruch(RunConfig(), n, "1", "1")
    for fmt in ("json", "table"):
        digest = hashlib.sha256(render(payload, fmt).encode()).hexdigest()
        assert digest == HIRZEBRUCH_DIGESTS[n, fmt], (n, fmt)


def test_malformed_json_reports_position(capsys):
    code, _, err = run(capsys, "analyze", '{"rank": 1, "weights": [[1]], "theta": [')
    assert code == 2
    assert "line" in err and "column" in err


def test_missing_file_exits_2(capsys):
    code, _, err = run(capsys, "analyze", "no-such-file.json")
    assert code == 2
    assert "no such file" in err


def test_weight_text_is_parsed_once_and_files_are_read_each_time(tmp_path):
    # equal inline texts give one system; a malformed text raises on every
    # call and leaves nothing in the memo; a weights file is read again by
    # each command, so a rewritten file is seen
    text = HIRZEBRUCH1[:10] + HIRZEBRUCH1[10:]
    assert text is not HIRZEBRUCH1 and cli._load_weights(text) is cli._load_weights(HIRZEBRUCH1)
    cached = cli._weights_from_text.cache_info().currsize
    for bad, message in (('{"rank": 1, "weights": [[1]], "theta": [', "parse error in weights"),
                         ('{"rank": 1, "weights": [[true]], "theta": ["1"]}', "invalid weight system")):
        for _ in range(2):
            with pytest.raises(CliError, match=message):
                cli._load_weights(bad)
    assert cli._weights_from_text.cache_info().currsize == cached
    path = tmp_path / "weights.json"
    path.write_text(DIAG2)
    assert cmd_analyze(RunConfig(), str(path))["weight_system"]["weights"] == [[1], [1]]
    path.write_text(HIRZEBRUCH1)
    assert cmd_analyze(RunConfig(), str(path))["weight_system"]["weights"] == [[1, 0], [1, 0], [0, 1], [-1, 1]]
    path.write_text("[")
    with pytest.raises(CliError, match="parse error in " + str(path)):
        cli._load_weights(str(path))


def test_parse_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["not-a-command"])
    capsys.readouterr()
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["--format", "xml", "analyze", DIAG2])
    capsys.readouterr()
    assert exc.value.code == 2


def _parsed_via_fraction(v) -> complex:
    re, im = v if isinstance(v, list) else (v, 0)
    return complex(float(parse_rational(re)), float(parse_rational(im)))


@pytest.mark.parametrize(
    "v",
    [
        2**53 + 1,
        -(2**53 + 1),
        10**400,
        -0.0,
        5e-324,
        1e308,
        "3/4",
        " -7/3 ",
        "0.1",
        [-0.0, -0.0],
        [2**53 + 1, 5e-324],
        [1, "1e-5"],
        float("inf"),
        float("nan"),
    ],
)
def test_numeric_scalar_matches_fraction_path(v):
    # exact ints and finite floats skip the Fraction but land on the same
    # complex number, down to the sign of zero; what fails on one path
    # fails with the same exception on the other
    try:
        want = _parsed_via_fraction(v)
    except Exception as exc:
        with pytest.raises(type(exc)):
            _numeric_scalar(v)
        return
    got = _numeric_scalar(v)
    assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex())


def test_numeric_point_rejects_bool_and_text(capsys):
    for coord in ("true", '"abc"', "[1, true]"):
        code, out, err = run(capsys, "--mode", "numeric", "classify", DIAG2, f"[{coord}, 1]")
        assert (code, out) == (2, "") and "invalid point" in err, coord


def test_weight_json_rejects_bool_and_fractional_integers(capsys):
    # JSON true and 1.7 as the rank or a weight entry are errors, as true
    # is for theta, not 1; an integral float such as 2.0 reads as 2
    for data in (
        '{"rank": 1, "weights": [[1.7], [1]], "theta": ["1/2"]}',
        '{"rank": 1.9, "weights": [[1], [1]], "theta": ["1/2"]}',
        '{"rank": 1, "weights": [[true], [1]], "theta": ["1/2"]}',
        '{"rank": true, "weights": [[1], [1]], "theta": ["1/2"]}',
        '{"rank": 1, "weights": [[1], [1e999]], "theta": ["1/2"]}',
    ):
        code, out, err = run(capsys, "analyze", data)
        assert (code, out) == (2, "") and err.startswith("invalid weight system: "), data
    code, out, _ = run(capsys, "analyze", '{"rank": 1.0, "weights": [[1.0], [2.0]], "theta": ["1/2"]}')
    assert code == 0
    assert json.loads(out)["weight_system"]["weights"] == [[1], [2]]


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--mode", "numeric", "classify", DIAG2, "[1e999, 1]"), "invalid point"),
        (("--mode", "numeric", "classify", DIAG2, f"[{10**400}, 1]"), "invalid point"),
        (("classify", DIAG2, "[1e999, 1]"), "invalid point"),
        (("--mode", "numeric", "kn", DIAG2.replace("1/2", "1e999"), "[1, 1]"), "precondition error"),
        (("kn", DIAG2, '["1e999", 1]'), "precondition error"),
    ],
)
def test_overflowing_input_exits_2(capsys, argv, message):
    # a coordinate or theta beyond float range is a bad input, as NaN is,
    # not a traceback
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "") and err.startswith(message)


def test_analyze_bound_errors(capsys):
    # --bound caps n in every enumeration of analyze: the base system's
    # first, then the cotangent walk's 2n coordinates
    code, full, _ = run(capsys, "analyze", HIRZEBRUCH1)
    assert code == 0
    for bound, n in ((-1, 4), (0, 4), (3, 4), (4, 8), (7, 8)):
        code, out, err = run(capsys, "--bound", str(bound), "analyze", HIRZEBRUCH1)
        assert (code, out) == (2, "")
        assert err == f"precondition error: n={n} exceeds enumeration bound {bound}\n"
    for bound in (8, 12, 20):
        assert run(capsys, "--bound", str(bound), "analyze", HIRZEBRUCH1) == (0, full, "")
    empty = json.dumps({"rank": 1, "weights": [], "theta": ["0"]})
    assert run(capsys, "--bound", "0", "analyze", empty)[0] == 0
    code, _, err = run(capsys, "--bound", "-1", "analyze", empty)
    assert code == 2 and "n=0 exceeds enumeration bound -1" in err


def test_analyze_checks_the_bound_before_any_enumeration(capsys, monkeypatch):
    # CP^10 passes the base bound (n = 11) and fails the cotangent one
    # (2n = 22) before the base enumerations take a cocircuit pass
    calls = []

    def counting(*args):
        calls.append(args)
        return exactlin.cocircuits(*args)

    monkeypatch.setattr(git_stability, "cocircuits", counting)
    git_stability._cells.cache_clear()
    git_stability.cocircuit_signs.cache_clear()
    cp10 = json.dumps({"rank": 1, "weights": [[1]] * 11, "theta": ["1"]})
    code, out, err = run(capsys, "analyze", cp10)
    assert (code, out) == (2, "")
    assert err == "precondition error: n=22 exceeds enumeration bound 20\n"
    assert calls == []


def test_output_is_byte_deterministic(capsys):
    # the metric report's frame basis comes from LAPACK, so pin it as well
    point = json.dumps({"x": [0, 0, 1, 0], "z": [[0.7, 0.2], [0.3, -0.5], 0, 1]})
    for argv in (
        ("analyze", HIRZEBRUCH1),
        ("--seed", "3", "hirzebruch", "1"),
        ("metric", DIAG2, "[1, 0]"),
        ("--mode", "numeric", "kn", HIRZEBRUCH1, point, "--hyperkahler"),
    ):
        runs = []
        for _ in range(2):
            code, out, _ = run(capsys, *argv)
            assert code == 0
            runs.append(out)
        assert runs[0] == runs[1]
    # the two-system memos (the cell table, the cocircuit signs) must not
    # let a different system in between change the first system's output
    hirzebruch2 = json.dumps(
        {"rank": 2, "weights": [[1, 0], [1, 0], [0, 1], [-2, 1]], "theta": ["1/2", "1/2"]}
    )
    outs = [run(capsys, "analyze", ws)[1] for ws in (HIRZEBRUCH1, hirzebruch2, HIRZEBRUCH1)]
    assert outs[0] == outs[2] != outs[1]


def test_json_render_matches_json_dumps():
    # the batched encoder writes exactly what json.dumps writes
    payloads = [
        {},
        {"a": [], "b": {}, "c": [[], {}], "d": None, "e": True},
        {"x": float("nan"), "y": [float("inf"), -float("inf"), -0.0, 1e-320, 2.5]},
        {"naïve": "θ → ∞, 日本", "nested": {"z": [1, {"y": "\u00e9\n\"q\""}], "a": 0}},
        {"big": [{"i": i, "v": [i / 7, str(i)]} for i in range(3000)]},
    ]
    for p in payloads:
        assert render(p, "json") == json.dumps(p, sort_keys=True, indent=2)


#: floats json spells specially, signed zeros, subnormals, and either side
#: of repr's switch to exponent notation (at 1e16 and below 1e-4)
EDGE_FLOATS = (
    float("nan"), float("inf"), -float("inf"), -0.0, 0.0, 5e-324, 2.2250738585072014e-308,
    1e16, 9999999999999998.0, 1e-5, 1e-4, 9.999999999999999e-05, 1.5, -2.75e300,
)
floats = st.one_of(st.floats(), st.sampled_from(EDGE_FLOATS))
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(-(10**40), 10**40),
    floats,
    floats.map(np.float64),
    st.text(),
    st.sampled_from(["", "\u00e9\n\"q\"\\", "\x00\x1f\u2028", "θ → ∞, 日本", "\U0001f600"]),
)
# lists of exact ints and of exact floats take the writer's one-join path,
# floats mixed with np.float64 the per-member path
leaves = st.one_of(
    scalars,
    st.lists(st.integers(), max_size=6),
    st.lists(floats, max_size=6),
    st.lists(st.one_of(floats, floats.map(np.float64)), max_size=4),
)
json_trees = st.recursive(
    leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(st.text(max_size=6), children, max_size=5),
        st.dictionaries(st.integers(-3, 3), children, max_size=3),
        st.dictionaries(floats, children, max_size=3),
    ),
    max_leaves=40,
)


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(json_trees)
@example([1, True])
@example({"a": [1, True], "b": [1.0, 2], "c": [float("nan"), 1.0], "d": (), "e": {}})
@example([[], {}, [[]], {"k": {}}])
@example({True: 1, False: 2})
@example({None: [np.float64("nan"), np.float64(-0.0), np.float64(1e16)]})
@example(10**100)
def test_json_render_matches_json_dumps_on_random_trees(tree):
    assert render(tree, "json") == json.dumps(tree, sort_keys=True, indent=2)


def test_json_render_rejects_what_json_rejects():
    bad = [
        np.int64(3),
        {1, 2},
        [1, np.int64(2)],
        [np.int64(1)],
        {"a": {"b": [np.int64(1)]}},
        {"s": {0.5}},
        {(1, 2): 0},
        [object()],
    ]
    for payload in bad:
        with pytest.raises(TypeError):
            json.dumps(payload, sort_keys=True, indent=2)
        with pytest.raises(TypeError):
            render(payload, "json")


def _degenerate_systems():
    """Seeded random systems, each with a zero weight, a repeated line or
    theta = 0."""
    rng = np.random.default_rng(16)
    for i in range(24):
        ws = random_weight_system(rng, nmax=5, kmax=3)
        weights, theta = list(ws.weights), ws.theta
        j = int(rng.integers(len(weights)))
        if i % 3 == 0:
            weights[j] = (0,) * ws.rank
        elif i % 3 == 1:
            weights.append(tuple(-2 * v for v in weights[j]))
        else:
            theta = (Fraction(0),) * ws.rank
        yield WeightSystem(ws.rank, tuple(weights), theta)


def test_analyze_renders_as_its_plain_payload():
    # the payload holds the HK candidates themselves, bare ones written from
    # shared text pieces; every format must read as the same payload made
    # of plain dicts and lists, the candidates as their to_json()
    shapes = set()
    for ws in _degenerate_systems():
        payload = cmd_analyze(RunConfig(), json.dumps(weight_system_to_json(ws)))
        docs = [c.to_json() for c in payload["hk_candidates"]]
        plain = json.loads(json.dumps({**payload, "hk_candidates": docs}))
        for fmt in ("json", "table", "csv"):
            assert render(payload, fmt) == render(plain, fmt)
        assert render(payload, "json") == json.dumps(plain, sort_keys=True, indent=2)
        for c in payload["hk_candidates"]:
            assert type(c) is HKStratumCandidate
            stab = c.stabilizer
            shapes.add("finite" if stab.finite_invariants else "trivial")
            shapes.add("subtorus" if stab.order is None else "finite order")
    assert shapes == {"finite", "trivial", "subtorus", "finite order"}


def test_json_render_of_certified_and_replaced_candidates(hirzebruch1, monkeypatch):
    cands = hk_candidate_strata(hirzebruch1)
    bare = next(c for c in cands if c.support_x == {0, 1, 2} and 3 in c.support_z)
    done = certify_stratum(hirzebruch1, bare, seed=1)
    assert done.witness is not None
    theta0 = WeightSystem(1, ((1,), (1,)), (Fraction(0),))
    cands0 = hk_candidate_strata(theta0)
    unbalanced = next(c for c in cands0 if c.support_x == {0} and not c.support_z)
    failed = certify_stratum(theta0, unbalanced, seed=5)
    assert failed.witness is None and failed.log
    moved = replace(
        bare,
        support_x=frozenset({3}),
        support_z=frozenset(),
        stabilizer=hk_candidate_strata(hirzebruch_weight_system(2))[-1].stabilizer,
        status="moved \"x\"",
    )
    candidates = [
        bare,
        done,
        replace(done, log=("first try missed",)),
        failed,
        moved,
        replace(moved, support_x=moved.support_z, support_z=moved.support_x),
    ]
    docs = [c.to_json() for c in candidates]
    assert {type(d) for d in docs} == {dict}
    # only a candidate with a witness, a residual or a log is written from
    # its to_json(); the bare ones are joined from their fields' texts
    with_dict = []
    to_json = HKStratumCandidate.to_json
    monkeypatch.setattr(HKStratumCandidate, "to_json", lambda c: with_dict.append(c) or to_json(c))
    texts = [render(c, "json") for c in candidates]
    assert [any(d is c for d in with_dict) for c in candidates] == [False, True, True, True, False, False]
    for doc, text in zip(docs, texts):
        assert text == json.dumps(doc, sort_keys=True, indent=2)
    nested = [
        (candidates[0], docs[0]),
        (candidates, docs),
        ({"a": {"b": candidates, "c": [[candidates[-1]]]}}, {"a": {"b": docs, "c": [[docs[-1]]]}}),
    ]
    for payload, doc in nested:
        plain = json.loads(json.dumps(doc))
        assert render(payload, "json") == json.dumps(plain, sort_keys=True, indent=2)


def test_json_render_of_analyze_builds_no_candidate_dicts(monkeypatch):
    # every HK candidate of Sigma_1 is bare: neither cmd_analyze nor the
    # JSON writer calls its to_json(); the csv path reads one per candidate
    calls = []
    to_json = HKStratumCandidate.to_json
    monkeypatch.setattr(HKStratumCandidate, "to_json", lambda c: calls.append(c) or to_json(c))
    payload = cmd_analyze(RunConfig(), HIRZEBRUCH1)
    text = render(payload, "json")
    assert payload["hk_candidates"] and calls == []
    assert json.loads(text)["hk_candidates"] == [to_json(c) for c in payload["hk_candidates"]]
    render(payload, "csv")
    assert calls == payload["hk_candidates"]


def _draw_8_2() -> str:
    """A random (8, 2) system: default_rng(0), weights in [-3, 3], theta
    in +-{1/2, 1, 3/2}."""
    rng = np.random.default_rng(0)
    weights = rng.integers(-3, 4, size=(8, 2)).tolist()
    theta = [f"{int(s)}/2" for s in rng.choice([-3, -2, -1, 1, 2, 3], size=2)]
    return json.dumps({"rank": 2, "weights": weights, "theta": theta})


#: sha256 of `hkquot --format <fmt> analyze` on the (8, 2) draw
DRAW_8_2_DIGESTS = {
    "json": "aa915591d5fdf2f47d1054aaf83ac215ebd66e4ca1ff1444e91c7616ab3917b3",
    "csv": "6f2cf5e6b69bcc6192d46e1e7fb690492579a003ad49dc43971c571b53485327",
    "table": "bfab4a38f433bdd1126ede20c904e2679107cbe2a9e0611551fc53c6667a8a15",
}


def test_main_streams_every_format_without_render(capsys, monkeypatch):
    # main writes every format as it is made, never holding the whole
    # text, and prints what render gives, plus a newline; the (8, 2)
    # draw's bytes are pinned
    draw = _draw_8_2()
    systems = [
        json.dumps({"rank": 2, "weights": [[1, 0], [1, 0], [0, 1], [-n, 1]], "theta": ["1/2", "1/2"]})
        for n in (1, 2, 3)
    ] + [draw]
    real_render = render

    def no_render(payload, fmt):
        raise AssertionError(f"main rendered the whole {fmt} text")

    monkeypatch.setattr(cli, "render", no_render)
    for weights in systems:
        payload = cmd_analyze(RunConfig(), weights)
        for fmt in ("json", "table", "csv"):
            code, out, err = run(capsys, "--format", fmt, "analyze", weights)
            assert (code, err) == (0, "")
            assert out == real_render(payload, fmt) + "\n", fmt
            if weights == draw:
                assert hashlib.sha256(out.encode()).hexdigest() == DRAW_8_2_DIGESTS[fmt], fmt


class CountingStdout(io.StringIO):
    """A stdout that counts its write calls."""

    writes = 0

    def write(self, text: str) -> int:
        self.writes += 1
        return super().write(text)


def test_main_writes_stdout_in_64_kib_chunks(monkeypatch):
    # main collects the writer's pieces and writes stdout once per 64 KiB
    # or so, not once per piece: unbuffered, each write is a write(2)
    draw = _draw_8_2()
    for fmt in ("json", "table"):
        out = CountingStdout()
        monkeypatch.setattr(sys, "stdout", out)
        assert main(["--format", fmt, "analyze", draw]) == 0
        text = out.getvalue()
        assert hashlib.sha256(text.encode()).hexdigest() == DRAW_8_2_DIGESTS[fmt]
        assert 2 < out.writes <= len(text) // (1 << 16) + 2, fmt


#: `hkquot` in a fresh interpreter; `_child_env` makes it import this checkout
MAIN = "import sys; from hkquot.cli import main; sys.exit(main(sys.argv[1:]))"


def _child_env() -> dict:
    src = str(Path(__file__).resolve().parent.parent / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


@pytest.mark.parametrize("fmt", ["json", "csv", "table"])
def test_closed_stdout_exits_141_quietly(fmt):
    # the reader takes 100 bytes of about 10 MB and leaves, as `| head` does
    argv = [sys.executable, "-c", MAIN, "--format", fmt, "analyze", _draw_8_2()]
    proc = subprocess.Popen(argv, env=_child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert len(proc.stdout.read(100)) == 100
    proc.stdout.close()
    _, err = proc.communicate(timeout=300)
    assert (proc.returncode, err) == (141, b"")


#: runs argv and prints its peak RSS in KiB; a forked child's ru_maxrss
#: counts the RSS of the process it was forked from, so the run is started
#: from this small interpreter, not from the test process
PEAK_RSS = (
    "import resource, subprocess, sys; subprocess.run(sys.argv[1:], stdout=subprocess.DEVNULL, check=True); "
    "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)"
)


def test_csv_and_table_peak_memory_is_the_json_peak():
    # no format holds its text or its rows: the peak RSS of csv and of
    # table is within 30 MB of the streamed JSON's
    peak = {}
    for fmt in ("json", "csv", "table"):
        argv = [sys.executable, "-c", PEAK_RSS, sys.executable, "-c", MAIN, "--format", fmt, "analyze", _draw_8_2()]
        out = subprocess.run(argv, env=_child_env(), capture_output=True, text=True, check=True, timeout=300).stdout
        peak[fmt] = int(out) / 1024  # KiB on Linux
    assert max(peak["csv"], peak["table"]) <= peak["json"] + 30, peak


def test_kn_is_quiet_where_a_zero_coordinate_overflows():
    # the line search flows the zero coordinates far enough that their
    # factors overflow; they stay 0, so kn exits 0 with nothing on stderr,
    # warnings made errors
    ws = WeightSystem(3, ((2, 1, -3), (2, -1, 2), (2, 3, -3), (3, 1, 0)), (Fraction(3, 4), Fraction(0), Fraction(2)))
    p = _sample_on_hol_zero(np.random.default_rng(0), ws, frozenset({0, 3}), frozenset({1, 2}))
    argv = [sys.executable, "-W", "error", "-c", MAIN, "--mode", "numeric", "kn", "--hyperkahler",
            json.dumps(weight_system_to_json(ws)), json.dumps(point_to_json(p))]
    proc = subprocess.run(argv, env=_child_env(), capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")


@pytest.mark.parametrize("pairs", ["[1]", "[[1]]", '{"a": [[1], [2]]}', "[[1, 2]]", "[[[1], [2], [3]]]", "[[[1], [2]], 7]"])
def test_metric_rejects_malformed_pairs(capsys, pairs):
    code, out, err = run(capsys, "--mode", "numeric", "metric", DIAG2, "[1, 0]", "--pairs", pairs)
    assert code == 2 and out == ""
    assert err.startswith("invalid tangent pairs: ")


def test_csv_and_table_render(capsys):
    code, out, _ = run(capsys, "--format", "csv", "classify", DIAG2, "[1, 0]")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "key,value"
    assert any(line.startswith("verdict.status,") for line in lines)
    code, out, _ = run(capsys, "--format", "table", "classify", DIAG2, "[1, 0]")
    assert code == 0
    assert "verdict.status" in out


def test_metric_pairs_rows(capsys):
    pairs = json.dumps(
        [
            [[1, 0, 0, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0, 0, 0]],
            [[0, 0, 1, 0, 0, 0, 0, 0], [0, 0, 0, 1, 0, 0, 0, 0]],
        ]
    )
    code, out, _ = run(capsys, "metric", DIAG2, "[1, 0]", "--pairs", pairs)
    assert code == 0
    payload = json.loads(out)
    assert len(payload["pairs"]) == 2
    for row in payload["pairs"]:
        assert set(row) == {"g", "omega_I", "omega_J", "omega_K"}


def test_version_metadata_is_imported_lazily():
    # importing the CLI must not load importlib.metadata (about 1.75 MB of
    # RSS); `hkquot.__version__` still resolves to a string on demand
    code = (
        "import sys, hkquot.cli\n"
        "assert 'importlib.metadata' not in sys.modules, 'eager metadata import'\n"
        "import hkquot\n"
        "assert isinstance(hkquot.__version__, str)\n"
        "assert 'importlib.metadata' in sys.modules\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=_child_env(), capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
