"""The canonical JSON writer against ``json.dumps`` with its indent layout.

``reports.canonical_json`` writes the ``indent=2, sort_keys=True,
ensure_ascii=True`` layout itself so that json's C encoder does the work;
``json.dumps`` with that indent runs the pure-Python encoder and is the
oracle.  Random trees cover every JSON value and empty containers at every
depth.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from pblocks.reports import canonical_json


def oracle(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, ensure_ascii=True) + "\n"


TEXT = st.text(st.one_of(
    st.characters(),  # any code point but a lone surrogate
    st.sampled_from('"\\\n\r\t\x00\x1f\x7f%/é \U0001f600\ud800\udfff'),
))
LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=2**64, max_value=2**200),
    st.integers(min_value=-2**200, max_value=-2**63 - 1),
    st.floats(allow_nan=False),
    st.sampled_from([-0.0, 0.0, 1e300, 5e-324, float("inf"), float("-inf")]),
    TEXT,
)
EMPTY = st.sampled_from([[], {}, ()])


def _children(inner):
    return st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.dictionaries(TEXT, inner, max_size=5),
    )


TREES = st.recursive(st.one_of(LEAVES, EMPTY), _children, max_leaves=60)


@settings(derandomize=True, deadline=None, max_examples=200, database=None)
@given(obj=TREES)
def test_writer_matches_the_indent_encoder(obj):
    assert canonical_json(obj) == oracle(obj)


def test_every_depth_and_leaf_kind():
    leaves = [None, True, False, 0, -1, 2**64, -2**63 - 1, 2**200, -0.0, 0.5, 1e300,
              float("nan"), float("inf"), "", "café à \U0001f600",
              "\x00\x1f\"\\\n\t%s%%", [], {}, ()]
    deep = leaves
    for level in range(40):  # far deeper than any report
        deep = {"leaves": leaves, str(level): deep, "empty": [{}, [], ()],
                "rows": ([level, [level]], (level,))}
    assert canonical_json(deep) == oracle(deep)
    for leaf in leaves:
        assert canonical_json(leaf) == oracle(leaf)
