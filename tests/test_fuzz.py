"""Mutation fuzzing of device and circuit files against the exit-code contract.

Valid device and circuit JSON is mutated (a node replaced by arbitrary JSON
or removed, a key added to or renamed in an object, or, in the file's text,
a key of an object repeated) and run through `cli.main`. The run must exit
2 exactly when a QSelfTestError was raised, and no other exception may
escape.
"""

import contextlib
import io
import json
import math
import os
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qselftest import cli
from qselftest import devices as dv
from qselftest import hilbert as hb
from qselftest.errors import QSelfTestError


def _frames(side):
    return [
        {"side": side, "wire": 0, "angle": key,
         "matrix": dv.matrix_to_json(hb.projector_angle(a).matrix)}
        for key, a in dv.ANGLE_KEYS.items()
    ]


_H = dv.matrix_to_json(dv.builtin_gate("H"))
_PAIR = [[0.5 ** 0.5, 0], [0, 0], [0, 0], [0.5 ** 0.5, 0]]

DEVICES = (
    {
        "layout": {"n_wires": 1, "a_dims": [2], "b_dims": [2]},
        "source": {"kind": "epr"},
        "gates": [{"side": s, "label": "g1", "wires": [0], "matrix": _H} for s in "AB"],
        "frames": _frames("A") + _frames("B"),
    },
    {
        "layout": {"n_wires": 2, "a_dims": [2, 2], "b_dims": [2, 2], "c_dim": 1},
        "source": {"kind": "depolarized", "params": {"p": 0.1}},
    },
    {
        "layout": {"n_wires": 1, "a_dims": [2], "b_dims": [2], "e_dims": [1]},
        "source": {"kind": "matrix", "params": {"per_wire": [_PAIR]}},
    },
)

CIRCUIT = {
    "n": 2,
    "input": "00",
    "gates": [
        {"label": "g1", "wires": [0], "builtin": "H"},
        {"label": "g2", "wires": [0, 1], "builtin": "CNOT"},
        {"label": "g3", "wires": [1], "matrix": [[0, 1], [1, 0]]},
    ],
}

JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 9)
    | st.sampled_from([2**70, -(2**70), 1e300, math.nan, math.inf, -math.inf])
    | st.floats(-2, 2)
    | st.sampled_from(["", "A", "B", "g1", "epr", "matrix", "depolarized", "0", "pi/8", "H"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["kind", "p", "n", "x", "0"]), inner, max_size=2),
    max_leaves=5,
)


# every key a device or circuit file takes, and some near misses
KEYS = st.sampled_from([
    "layout", "source", "gates", "frames", "gate", "frame", "n_wires", "a_dims", "b_dims",
    "e_dims", "c_dim", "c_dims", "kind", "params", "p", "P", "per_wire", "side", "label",
    "wires", "wire", "angle", "matrix", "n", "input", "inputs", "builtin", "theta",
])


def _paths(node, path=()):
    """Every position in a parsed JSON document, the root first."""
    yield path
    if isinstance(node, dict):
        for k, v in node.items():
            yield from _paths(v, path + (k,))
    elif isinstance(node, list):
        for i, v in enumerate(node):
            yield from _paths(v, path + (i,))


def _node(doc, path):
    for key in path:
        doc = doc[key]
    return doc


# a string that no drawn document holds: where the object whose key
# repeats goes in the document's text
_REPEATED = "\0repeated\0"


def _with_repeated_key(doc, path, key, value) -> str:
    """doc's text with key repeated in the object at path, the second time
    with value: a text that no parsed document can give."""
    obj = _node(doc, path)
    pairs = [*obj.items(), (key, value)]
    text = "{" + ", ".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in pairs) + "}"
    if not path:
        return text
    _node(doc, path[:-1])[path[-1]] = _REPEATED
    return json.dumps(doc).replace(json.dumps(_REPEATED), text)


@st.composite
def mutated(draw, docs):
    """A mutated document's text."""
    doc = json.loads(json.dumps(draw(st.sampled_from(docs))))
    for _ in range(draw(st.integers(1, 2))):
        paths = list(_paths(doc))
        objects = [path for path in paths if isinstance(_node(doc, path), dict)]
        if objects and draw(st.integers(0, 2)) == 0:
            # a key added to an object, or one of its keys renamed
            obj = _node(doc, draw(st.sampled_from(objects)))
            key = draw(KEYS)
            if obj and draw(st.booleans()):
                obj[key] = obj.pop(draw(st.sampled_from(sorted(obj))))
            else:
                obj[key] = draw(JSON)
            continue
        path = draw(st.sampled_from(paths))
        if not path:
            doc = draw(JSON)
            continue
        parent = _node(doc, path[:-1])
        if draw(st.booleans()):
            parent[path[-1]] = draw(JSON)
        else:
            del parent[path[-1]]
    objects = [path for path in _paths(doc) if isinstance(_node(doc, path), dict)]
    objects = [path for path in objects if _node(doc, path)]
    if objects and draw(st.integers(0, 3)) == 0:
        # one key of an object repeated, with its own value or another
        path = draw(st.sampled_from(objects))
        key = draw(st.sampled_from(sorted(_node(doc, path))))
        value = draw(st.just(_node(doc, path)[key]) | JSON)
        return _with_repeated_key(doc, path, key, value)
    return json.dumps(doc)


def run_contract(argv, name, text):
    """cli.main on argv with text written to name; checks the exit-code contract."""
    raised = []
    runner = cli._RUNNERS[argv[0]]

    def spy(cfg):
        try:
            return runner(cfg)
        except QSelfTestError as exc:
            raised.append(exc)
            raise

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, name)
        with open(path, "w") as fh:
            fh.write(text)
        argv = [path if a == name else a for a in argv]
        cli._RUNNERS[argv[0]] = spy
        try:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                rc = cli.main(argv)
        finally:
            cli._RUNNERS[argv[0]] = runner
    assert rc in (0, 1, 2)
    assert (rc == 2) == bool(raised), (rc, raised)


# derandomized, so the suite runs the same examples every time
FUZZ = settings(max_examples=150, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.too_slow])


@FUZZ
@given(text=mutated(DEVICES))
def test_mutated_device_file(text):
    run_contract(["epr-test", "--device", "dev.json"], "dev.json", text)


@FUZZ
@given(text=mutated((CIRCUIT,)))
def test_mutated_circuit_file(text):
    run_contract(
        ["circuit-test", "--device", "builtin:honest", "--circuit", "c.json", "--x", "00"],
        "c.json",
        text,
    )
