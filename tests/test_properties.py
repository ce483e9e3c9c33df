"""Property tests of the batched jet and curvature products.

Random band-limited immersions of the n-torus, n = 2..5, into R^N with
N <= 2n + 2: a Clifford torus with random radii in the first 2n coordinates,
plus up to three random Fourier modes on all N.  The batched products are
held to the plain forms in `helpers` (a loop over terms, one einsum per
contraction) and to the Gauss equation.  Example counts stay small and the
draws are derandomized, so the suite stays fast and repeatable.
"""

import numpy as np
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from paneitzlab.errors import DegenerateImmersionError
from paneitzlab.fourier import FourierImmersion, FourierTerm
from paneitzlab.geometry import curvature_point, gauss_identity_residual, induced_metric

from helpers import reference_curvature, reference_jet

PROPERTY = settings(max_examples=25, deadline=None, derandomize=True, database=None)


@st.composite
def immersions(draw):
    n = draw(st.integers(2, 5))
    ambient = draw(st.integers(2 * n, 2 * n + 2))
    coeff = st.floats(-0.2, 0.2, allow_nan=False)
    terms = []
    for i in range(n):
        r = draw(st.floats(0.5, 2.0))
        cos, sin = [0.0] * ambient, [0.0] * ambient
        cos[2 * i], sin[2 * i + 1] = r, r
        terms.append(FourierTerm(k=tuple(int(i == j) for j in range(n)),
                                 cos=tuple(cos), sin=tuple(sin)))
    for _ in range(draw(st.integers(0, 3))):
        k = draw(st.tuples(*[st.integers(-2, 2)] * n))
        cos = draw(st.tuples(*[coeff] * ambient))
        sin = draw(st.tuples(*[coeff] * ambient))
        terms.append(FourierTerm(k=k, cos=cos, sin=sin))
    points = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).uniform(
        0.0, 2 * np.pi, size=(7, 3, n))
    return FourierImmersion(n, terms), points


@PROPERTY
@given(immersions())
def test_jet_matches_the_term_by_term_sum(case):
    imm, points = case
    jet = imm.jet(points)
    for got, want in zip((jet.y, jet.dy, jet.d2y), reference_jet(imm, points)):
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
    assert np.array_equal(jet.d2y, np.swapaxes(jet.d2y, -1, -2))


@PROPERTY
@given(immersions())
def test_curvature_matches_the_plain_contractions(case):
    imm, points = case
    jet = imm.jet(points)
    try:
        metric = induced_metric(jet)
    except DegenerateImmersionError:
        reject()
    curv = curvature_point(jet, metric)
    reference = reference_curvature(jet, metric)
    # fields that vanish on flat tori are held to the scale of their terms:
    # Gam to that of g^{-1} <dy, d2y>, Ric and R to that of S
    size = {name: np.abs(value).max() for name, value in
            (("dy", jet.dy), ("d2y", jet.d2y), ("g_inv", metric.g_inv),
             ("s_norm", reference["s_norm"]))}
    floor = {"gamma": size["g_inv"] * size["dy"] * size["d2y"], "h": size["d2y"],
             "ric": size["s_norm"], "scalar": size["s_norm"],
             "ric_norm_sq": size["s_norm"] ** 2}
    for name, want in reference.items():
        got = getattr(curv, name)
        assert got.shape == want.shape, name
        scale = max(np.abs(want).max(), floor.get(name, 0.0))
        assert np.abs(got - want).max() <= 1e-13 * scale, name
    # the Gauss equation at roundoff, on the scale of its two sides
    scale = max(np.abs(curv.scalar).max(), np.abs(curv.s_norm).max(), 1.0)
    assert gauss_identity_residual(curv, jet.dim) <= 1e-13 * scale
