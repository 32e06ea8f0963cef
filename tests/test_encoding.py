from __future__ import annotations

import pytest

from lcr.caterpillar_dp import EncodingGraph

from .reference import adjacency, label_preserving_isomorphic, validate_encoding


def test_len_and_adjacency():
    eg = EncodingGraph(cols=(1, 2, 1), edges=((0, 1), (1, 2)), ini=0, tar=2)
    assert len(eg) == 3
    assert adjacency(eg) == [[1], [0, 2], [1]]


def test_validation_accepts_a_path_with_shared_cols():
    validate_encoding(
        EncodingGraph(cols=(1, 2, 1), edges=((0, 1), (1, 2)), ini=0, tar=2),
        spine_list=frozenset({1, 2}),
    )


def test_validation_accepts_missing_tar():
    validate_encoding(EncodingGraph(cols=(3,), edges=(), ini=0, tar=None))


@pytest.mark.parametrize(
    "eg",
    [
        EncodingGraph(cols=(1, 2), edges=((0, 1),), ini=None, tar=0),
        EncodingGraph(cols=(1, 2), edges=((0, 1),), ini=2, tar=0),
        EncodingGraph(cols=(1, 2), edges=((0, 1),), ini=0, tar=5),
        EncodingGraph(cols=(1, 2), edges=((0, 0),), ini=0, tar=None),
        EncodingGraph(cols=(1, 2), edges=((0, 2),), ini=0, tar=None),
        EncodingGraph(cols=(1, 2), edges=((0, 1), (1, 0)), ini=0, tar=None),
        EncodingGraph(cols=(1, 1), edges=((0, 1),), ini=0, tar=None),
        EncodingGraph(cols=(1, 2), edges=(), ini=0, tar=1),
    ],
)
def test_validation_rejects_broken_graphs(eg):
    with pytest.raises(ValueError):
        validate_encoding(eg)


def test_validation_checks_cols_against_the_spine_list():
    eg = EncodingGraph(cols=(1, 2), edges=((0, 1),), ini=0, tar=1)
    validate_encoding(eg, spine_list=frozenset({1, 2, 3}))
    with pytest.raises(ValueError):
        validate_encoding(eg, spine_list=frozenset({1, 3}))


def test_isomorphism_ignores_enode_numbering():
    a = EncodingGraph(cols=(1, 2, 3), edges=((0, 1), (1, 2)), ini=0, tar=2)
    b = EncodingGraph(cols=(3, 1, 2), edges=((1, 2), (2, 0)), ini=1, tar=0)
    assert label_preserving_isomorphic(a, b)
    assert label_preserving_isomorphic(b, a)


def test_isomorphism_requires_matching_cols():
    a = EncodingGraph(cols=(1, 2), edges=((0, 1),), ini=0, tar=1)
    b = EncodingGraph(cols=(1, 3), edges=((0, 1),), ini=0, tar=1)
    assert not label_preserving_isomorphic(a, b)


def test_isomorphism_requires_matching_endpoint_flags():
    a = EncodingGraph(cols=(1, 2), edges=((0, 1),), ini=0, tar=1)
    b = EncodingGraph(cols=(1, 2), edges=((0, 1),), ini=0, tar=None)
    c = EncodingGraph(cols=(1, 2), edges=((0, 1),), ini=1, tar=0)
    assert not label_preserving_isomorphic(a, b)
    assert not label_preserving_isomorphic(a, c)


def test_isomorphism_requires_matching_degrees():
    a = EncodingGraph(cols=(1, 2, 3), edges=((0, 1), (1, 2)), ini=0, tar=None)
    b = EncodingGraph(cols=(1, 2, 3), edges=((0, 1),), ini=0, tar=None)
    assert not label_preserving_isomorphic(a, b)


def test_isomorphism_sees_past_local_signatures():
    # one six-ring versus two triangles: identical label and degree
    # multisets, different connectivity
    ring = EncodingGraph(
        cols=(1, 2, 3, 1, 2, 3),
        edges=((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)),
        ini=0,
        tar=3,
    )
    twin_triangles = EncodingGraph(
        cols=(1, 2, 3, 1, 2, 3),
        edges=((0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)),
        ini=0,
        tar=3,
    )
    assert not label_preserving_isomorphic(ring, twin_triangles)


def test_isomorphism_rejects_different_sizes():
    a = EncodingGraph(cols=(1,), edges=(), ini=0, tar=0)
    b = EncodingGraph(cols=(1, 1), edges=(), ini=0, tar=0)
    assert not label_preserving_isomorphic(a, b)
