"""The one vectorised ranking kernel against the paper-surface scalar forms.

``Ordering.index_array`` parses a batch straight to canonical domain indices
and ranks them through ``rank_domain_indices``; the sum-based ordering's
first three stages come from the per-length multiset-offset table.  These
properties pin every piece against the scalar ``index`` (the oracle), and
the error classes of malformed input against the checked ``LabelPath``
parse.
"""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request
from math import comb

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine import EngineConfig
from repro.exceptions import (
    InvalidLabelPathError,
    PathError,
    UnknownLabelError,
)
from repro.graph.generators import zipf_labeled_graph
from repro.ordering.combinatorics import bounded_partitions
from repro.ordering.lexicographical import LexicographicalOrdering
from repro.ordering.numerical import NumericalOrdering
from repro.ordering.ranking import AlphabeticalRanking, CardinalityRanking
from repro.ordering.registry import make_ordering
from repro.ordering.sum_based import SumBasedOrdering, multiset_offset_table
from repro.paths.index import domain_indices_to_paths
from repro.paths.label_path import LabelPath
from repro.serving import API_PREFIX, SessionRegistry, make_server

ORDERING_CLASSES = (NumericalOrdering, LexicographicalOrdering, SumBasedOrdering)

#: Whole domains up to this size are ranked in full by the properties.
FULL_DOMAIN_LIMIT = 50_000


@st.composite
def orderings(draw):
    """A closed-form ordering over |L| in [1, 20], k in [1, 6].

    Labels are decimal strings, so the canonical (sorted) alphabet order
    ("10" < "2") differs from the numeric order, and the cardinality
    ranking draws its own order again.
    """
    label_count = draw(st.integers(1, 20))
    max_length = draw(st.integers(1, 6))
    labels = [str(value) for value in range(1, label_count + 1)]
    if draw(st.booleans()):
        ranking = AlphabeticalRanking(labels)
    else:
        counts = draw(
            st.lists(st.integers(0, 50), min_size=label_count, max_size=label_count)
        )
        ranking = CardinalityRanking(dict(zip(labels, counts)))
    return draw(st.sampled_from(ORDERING_CLASSES))(ranking, max_length)


@st.composite
def spelled_paths(draw, ordering):
    """One in-domain path as a padded string, a ``LabelPath`` or a sequence."""
    length = draw(st.integers(1, ordering.max_length))
    labels = draw(
        st.lists(st.sampled_from(ordering.labels), min_size=length, max_size=length)
    )
    form = draw(st.sampled_from(("string", "padded", "labelpath", "tuple", "list")))
    if form == "string":
        return "/".join(labels)
    if form == "padded":
        return draw(st.sampled_from((" ", "\t", "  "))) + "/".join(labels) + " \n"
    if form == "labelpath":
        return LabelPath(labels)
    return tuple(labels) if form == "tuple" else list(labels)


@st.composite
def batches(draw):
    ordering = draw(orderings())
    paths = draw(st.lists(spelled_paths(ordering), min_size=0, max_size=40))
    return ordering, paths


PROPERTY_SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


class TestKernelProperties:
    @PROPERTY_SETTINGS
    @given(batches())
    def test_index_array_equals_scalar_loop(self, case):
        ordering, paths = case
        ranked = ordering.index_array(paths)
        assert ranked.dtype == np.int64
        assert ranked.tolist() == [ordering.index(path) for path in paths]

    @PROPERTY_SETTINGS
    @given(orderings(), st.data())
    def test_rank_domain_indices_equals_index_array(self, ordering, data):
        indices = np.array(
            data.draw(
                st.lists(st.integers(0, ordering.size - 1), min_size=1, max_size=40)
            ),
            dtype=np.int64,
        )
        paths = domain_indices_to_paths(
            indices, sorted(ordering.labels), ordering.max_length
        )
        assert np.array_equal(
            ordering.rank_domain_indices(indices), ordering.index_array(paths)
        )

    @PROPERTY_SETTINGS
    @given(orderings())
    def test_whole_domain_is_a_permutation(self, ordering):
        if ordering.size > FULL_DOMAIN_LIMIT:
            return
        table = ordering.index_array()
        assert np.array_equal(np.sort(table), np.arange(ordering.size))


def _table_rows_match_scalar_offsets(label_count: int, max_length: int) -> None:
    ordering = SumBasedOrdering(
        AlphabeticalRanking([str(value) for value in range(label_count)]),
        max_length,
    )
    codes, offsets = multiset_offset_table(label_count, max_length)
    assert codes.size == sum(
        comb(label_count + length - 1, length) for length in range(1, max_length + 1)
    )
    assert np.all(np.diff(codes) > 0)
    for code, offset in zip(codes.tolist(), offsets.tolist()):
        multiset = []
        while code:
            code, rank = divmod(code, label_count + 1)
            multiset.append(rank)
        multiset.reverse()
        length, summed = len(multiset), sum(multiset)
        assert offset == (
            ordering._length_offset(length)
            + ordering._sum_offset(length, summed)
            + ordering._combination_offsets(length, summed)[tuple(multiset)]
        )


class TestMultisetOffsetTable:
    @pytest.mark.parametrize(
        "label_count,max_length", [(1, 3), (3, 5), (8, 4), (20, 4), (20, 6)]
    )
    def test_rows_equal_partition_walk_offsets(self, label_count, max_length):
        _table_rows_match_scalar_offsets(label_count, max_length)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 8), st.integers(1, 5))
    def test_ip_order_is_descending_tuple_order(self, label_count, length):
        # Within one (length, sum) group, Equation 4's ip order is ascending
        # lexicographic order of the descending rank tuples.
        for summed in range(length, length * label_count + 1):
            partitions = bounded_partitions(summed, length, label_count)
            descending = [tuple(reversed(partition)) for partition in partitions]
            assert descending == sorted(descending)

    def test_table_is_shared_and_read_only(self):
        codes, offsets = multiset_offset_table(5, 3)
        assert multiset_offset_table(5, 3)[0] is codes
        with pytest.raises(ValueError):
            offsets[0] = 1


ALPHABET = ["a", "b", "c"]

#: Malformed batches and the exception class the checked parse raises.
MALFORMED = [
    (["a", "zz"], UnknownLabelError),
    (["a//b"], InvalidLabelPathError),
    ([""], InvalidLabelPathError),
    (["  "], InvalidLabelPathError),
    (["a/b/c/a"], PathError),
    (["zz/a/b/c"], PathError),
    ([LabelPath(["a", "b", "c", "a"])], PathError),
    ([("a", 5)], InvalidLabelPathError),
    ([()], InvalidLabelPathError),
    ([5], TypeError),
]


@pytest.mark.parametrize("method", ["num-alph", "lex-card", "sum-based"])
@pytest.mark.parametrize(
    "paths,error", MALFORMED, ids=[repr(paths) for paths, _ in MALFORMED]
)
def test_malformed_paths_raise_the_checked_parse_error(method, paths, error):
    ordering = make_ordering(
        method,
        labels=ALPHABET,
        max_length=3,
        cardinalities={"a": 3, "b": 1, "c": 2},
    )
    with pytest.raises(error):
        ordering.index_array(["a/b"] + paths)


@pytest.fixture()
def sparse_server():
    # 16 labels, k=3: a 4,368-path domain, mostly zero, so the session
    # ranks every batch on demand instead of through a position table.
    registry = SessionRegistry(default_config=EngineConfig(max_length=3, bucket_count=8))
    registry.register("g", graph=zipf_labeled_graph(400, 300, 16, skew=1.2, seed=5, name="g"))
    assert registry.get("g").stats.extra.get("lazy_positions") is True
    server = make_server(registry, port=0, window_seconds=0.001)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        host, port = server.server_address[:2]
        yield f"http://{host}:{port}{API_PREFIX}/estimate"
    finally:
        server.shutdown()
        server.close()
        thread.join(timeout=10)


def test_sparse_estimate_rejects_malformed_paths_with_400(sparse_server):
    def post(paths):
        request = urllib.request.Request(
            sparse_server,
            data=json.dumps({"graph": "g", "paths": paths}).encode(),
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(request, timeout=30) as response:
                return response.status, json.loads(response.read())
        except urllib.error.HTTPError as exc:
            return exc.code, json.loads(exc.read())

    status, document = post(["1/2", " 2/3 "])
    assert status == 200 and len(document["estimates"]) == 2
    for paths in (["1/99"], ["1//2"], ["  "], ["1/2/3/1"]):
        status, envelope = post(["1"] + paths)
        assert status == 400, paths
        assert envelope["code"] == "bad_request", paths
