import json
import math

import pytest

from helpers import count_calls, seeded
from qsimp import intmat, presentation
from qsimp.errors import (
    DimensionMismatch,
    NonPositiveDiagonal,
    SingularMatrix,
    UnsupportedFormat,
)
from qsimp.intmat import IntMatrix, det
from qsimp.presentation import (
    Presentation,
    from_dict,
    index_set,
    present,
    render,
    to_dict,
)


def test_index_set_examples():
    assert index_set([2]) == [(0,), (1,)]
    assert index_set([2, 2]) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert index_set([1, 1, 1]) == [(0, 0, 0)]
    with pytest.raises(NonPositiveDiagonal):
        index_set([2, 0])


def test_present_2_3():
    p = present(IntMatrix([[2]]), IntMatrix([[3]]))
    assert p.diag == (2,)
    assert len(p.index_set) == 2
    kinds = [g.kind for g in p.relations]
    assert kinds == ["orthogonality", "monomial", "intertwine", "cover"]
    tex = render(p, "latex")
    assert "U^{2}S = SU^{3}" in tex


def test_present_loop_graph():
    p = present(IntMatrix([[1]]), IntMatrix([[1]]))
    assert len(p.index_set) == 1
    tex = render(p, "latex")
    assert "US = SU" in tex


def test_toeplitz_drops_cover():
    p = present(IntMatrix([[2]]), IntMatrix([[3]]), toeplitz=True)
    assert len(p.relations) == 3
    assert all(g.kind != "cover" for g in p.relations)


def test_present_normalizes_non_diagonal():
    f = IntMatrix([[2, 1], [0, 3]])
    g = IntMatrix([[1, 0], [0, 2]])
    p = present(f, g)
    assert math.prod(p.diag) == abs(det(f))
    assert all(a > 0 for a in p.diag)
    assert len(p.transform) == 2


def test_present_non_diagonal_inverts_nothing(monkeypatch):
    inverses = count_calls(monkeypatch, (intmat, presentation), "unimodular_inverse")
    dets = count_calls(monkeypatch, (intmat, presentation), "det")
    p = present(IntMatrix([[2, 1], [0, 3]]), IntMatrix([[-2, 3], [1, 4]]))
    assert p.diag == (1, 6)
    assert not inverses
    # present checks det(F) and det(G); snf finds a singular input itself
    assert dets == {"qsimp.presentation": 2}


def test_present_rejects_mismatched_sizes():
    with pytest.raises(DimensionMismatch):
        present(IntMatrix([[2]]), IntMatrix.identity(2))


def test_present_rejects_singular():
    with pytest.raises(SingularMatrix):
        present(IntMatrix([[0]]), IntMatrix([[1]]))


def test_relation_counts_and_roundtrip():
    rng = seeded(83)
    for _ in range(30):
        d = rng.randint(1, 3)
        diag = [rng.randint(1, 4) for _ in range(d)]
        f = IntMatrix.diagonal(diag)
        g = IntMatrix(
            [[rng.randint(-4, 4) for _ in range(d)] for _ in range(d)]
        )
        if det(g) == 0:
            continue
        toeplitz = rng.random() < 0.5
        p = present(f, g, toeplitz=toeplitz)
        assert len(p.index_set) == det(f)
        monomial = next(gr for gr in p.relations if gr.kind == "monomial")
        intertwine = next(gr for gr in p.relations if gr.kind == "intertwine")
        assert len(monomial.items) == len(p.index_set)
        assert len(intertwine.items) == d
        assert len(p.relations) == (3 if toeplitz else 4)
        assert from_dict(json.loads(render(p, "json"))) == p


def test_text_render_blocks():
    p = present(IntMatrix([[2]]), IntMatrix([[3]]))
    text = render(p, "text")
    assert text.count("(1)") == 1 and "(4)" in text
    p_t = present(IntMatrix([[2]]), IntMatrix([[3]]), toeplitz=True)
    assert "(4)" not in render(p_t, "text")


def test_render_unknown_format():
    p = present(IntMatrix([[2]]), IntMatrix([[3]]))
    with pytest.raises(UnsupportedFormat):
        render(p, "yaml")


def test_normalization_preserves_verdict():
    from qsimp.simplicity import UNKNOWN, decide

    rng = seeded(89)
    for _ in range(10):
        d = rng.randint(1, 2)
        while True:
            f = IntMatrix([[rng.randint(-3, 3) for _ in range(d)] for _ in range(d)])
            g = IntMatrix([[rng.randint(-3, 3) for _ in range(d)] for _ in range(d)])
            if det(f) != 0 and det(g) != 0:
                break
        p = present(f, g)
        base = decide(f, g).status
        normed = decide(
            IntMatrix.diagonal(list(p.diag)),
            IntMatrix([list(r) for r in p.g_rows]),
        ).status
        if UNKNOWN not in (base, normed):
            assert base == normed
