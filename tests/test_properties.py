"""Property tests of the batched jet and curvature products, of the
closed-form replay and of the spec parser.

Random band-limited immersions of the n-torus, n = 2..5, into R^N with
N <= 2n + 2: a Clifford torus with random radii in the first 2n coordinates,
plus up to three random Fourier modes on all N.  The batched products are
held to the plain forms in `helpers` (a loop over terms, one einsum per
contraction) and to the Gauss equation.  Catalog products of 1-3 round
spheres replay the proof chain in closed form, ending at their bound's own
sides.  Spec text is fuzzed by mutating one node of a valid spec per kind,
and by inserting a character YAML does not allow or a byte that is not
UTF-8; the spec parser's libyaml engine is held to PyYAML's pure-Python one
on those texts.  Example counts stay small and the draws are derandomized,
so the suite stays fast and repeatable.
"""

import math

import numpy as np
import pytest
import yaml
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from paneitzlab import specfile
from paneitzlab.bounds import evaluate, summarize_model, u1_from_lines
from paneitzlab.catalog import ModelManifold, SphereFactor, expand_lines, paneitz_spectrum
from paneitzlab.errors import DegenerateImmersionError, SpecFileError
from paneitzlab.fourier import FourierImmersion, FourierTerm
from paneitzlab.geometry import curvature_point, gauss_identity_residual, induced_metric
from paneitzlab.replay import replay_proof_analytic, replay_theorem
from paneitzlab.specfile import ManifoldSpec, load_manifold_spec, parse_manifold_spec

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


@st.composite
def catalog_models(draw):
    """1-3 round-sphere factors (circles included), n = 4..6, radii 0.3-3;
    a product may be rescaled onto the unit sphere, sum r^2 = 1."""
    n, count = draw(st.integers(4, 6)), draw(st.integers(1, 3))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), min_size=count - 1, max_size=count - 1)))
    dims = [b - a for a, b in zip([0, *cuts], [*cuts, n])]
    radii = [draw(st.floats(0.3, 3.0)) for _ in dims]
    if count > 1 and draw(st.booleans()):
        scale = math.sqrt(sum(r * r for r in radii))
        return ModelManifold(tuple(SphereFactor(p, r / scale) for p, r in zip(dims, radii)),
                             ambient="unit_sphere")
    return ModelManifold(tuple(SphereFactor(p, r) for p, r in zip(dims, radii)))


@PROPERTY
@given(catalog_models())
def test_closed_form_chain_ends_at_the_bound(model):
    theorem = replay_theorem(model.n)
    rep = replay_proof_analytic(theorem, model)
    assert rep.ok and rep.worst_slack >= -1e-12 * max(1.0, rep.final_rhs)
    lines = paneitz_spectrum(model, model.n + 2).lines
    geo = summarize_model(model)
    bound = evaluate(theorem, expand_lines(lines, model.n + 2), geo, u1_from_lines(geo, lines))
    assert rep.final_rhs == pytest.approx(bound.rhs, rel=1e-12)
    assert rep.final_lhs == pytest.approx(bound.lhs, rel=1e-9)


#: one valid spec per kind; no grid entry exceeds 16, nor may a mutation make it
VALID_SPECS = {
    "sphere": "kind: sphere\ndim: 4\nparams:\n  r: 1.0\nk: 5\nseed: 2\n",
    "sphere_product": "kind: sphere_product\ndim: 4\nambient: unit_sphere\nparams:\n"
                      "  factors:\n    - {p: 2, r: 0.7071067811865476}\n"
                      "    - {p: 2, r: 0.7071067811865476}\n",
    "flat_torus": "kind: flat_torus\ndim: 3\nparams:\n  radii: [1.0, 0.5, 1.0]\n"
                  "grid: [8, 10, 8]\nsolver: dense\n",
    "fourier_immersion": "kind: fourier_immersion\ndim: 3\nambient: unit_sphere\nparams:\n"
                         "  radii: [0.5773502691896257, 0.5773502691896257, 0.5773502691896257]\n"
                         "fourier:\n  - {k: [1, 1, 0], amp: [0, 0, 0, 0, 0, 0], trig: sin}\n"
                         "grid: 8\nk: 4\n",
}
TOKENS = ("0", "-1", "343", "1e308", "1e-320", ".nan", "[1]", "{}", "x", "0x10")


def _sites(node, tokens=TOKENS):
    """(container, i, tokens) of every mapping entry and scalar list item
    under node, with the tokens its scalar may take."""
    if isinstance(node, yaml.ScalarNode):
        return
    for i, item in enumerate(node.value):
        pool = tokens
        if isinstance(node, yaml.MappingNode):
            key, item = item
            if key.value == "grid":
                pool = tuple(t for t in tokens if t != "343")
        if isinstance(node, yaml.MappingNode) or isinstance(item, yaml.ScalarNode):
            yield node, i, pool
        yield from _sites(item, pool)


def _mutants(text: str, site: int) -> list[str]:
    """The texts made from text at its site-th site: its scalar set to each
    of the site's tokens, then, for a mapping entry, the entry deleted."""
    root = yaml.compose(text)
    node, i, tokens = list(_sites(root))[site]
    entry = isinstance(node, yaml.MappingNode)
    old = node.value[i]
    out = []
    if isinstance(old[1] if entry else old, yaml.ScalarNode):
        for token in tokens:
            new = yaml.compose(token)
            node.value[i] = (old[0], new) if entry else new
            out.append(yaml.serialize(root))
    if entry:
        del node.value[i]
        out.append(yaml.serialize(root))
    return out


@pytest.mark.parametrize("kind", VALID_SPECS)
@PROPERTY
@given(data=st.data())
def test_mutated_spec_parses_or_is_a_located_spec_error(kind, data):
    text = VALID_SPECS[kind]
    site = data.draw(st.integers(0, len(list(_sites(yaml.compose(text)))) - 1))
    for mutant in _mutants(text, site):
        try:
            spec = parse_manifold_spec(mutant)
        except SpecFileError as exc:
            assert exc.line is not None, exc
        else:
            assert isinstance(spec, ManifoldSpec)


#: characters YAML does not allow in a stream, and bytes that start no UTF-8
#: character before an ASCII one
UNACCEPTABLE = ("\x00", "\x07", "\x1b", "\x7f", "\ud800", b"\xff", b"\xc3", b"\x80")


@pytest.mark.parametrize("kind", VALID_SPECS)
@PROPERTY
@given(data=st.data())
def test_raw_mutant_is_a_spec_error_at_its_offset(kind, data, tmp_path_factory):
    text = VALID_SPECS[kind]    # ASCII: a byte offset is a character offset
    at = data.draw(st.integers(0, len(text)))
    bad = data.draw(st.sampled_from(UNACCEPTABLE))
    with pytest.raises(SpecFileError) as info:
        if isinstance(bad, bytes):
            path = tmp_path_factory.mktemp("raw") / "m.yaml"
            path.write_bytes(text[:at].encode() + bad + text[at:].encode())
            load_manifold_spec(path)
        else:
            parse_manifold_spec(text[:at] + bad + text[at:])
    line_start = text.rfind("\n", 0, at) + 1
    assert (info.value.line, info.value.column) == (text.count("\n", 0, at) + 1,
                                                     at - line_start + 1)


#: texts both engines refuse
MALFORMED = {
    "tab": "kind: sphere\ndim: 4\nparams:\n\tr: 1.0\n",
    "unclosed-flow-mapping": "kind: sphere\ndim: 4\nparams: {r: 1.0\n",
    "bad-indent": "kind: sphere\ndim: 4\nparams:\n  r: 1.0\n k: 5\n",
    "stray-colon": "kind: sphere\ndim: 4\nparams: {r: 1.0: 2}\n",
    "unclosed-quote": "kind: 'sphere\ndim: 4\n",
    "two-documents": "kind: sphere\n---\nkind: sphere\n",
    "undefined-alias": "kind: sphere\ndim: *four\n",
    "non-ascii-first": "kind: sphère\ndim: 4\nparams: {r: 1.0: 2}\n",
    "unclosed-list": "kind: sphere\ndim: 4\nparams:\n  radii: [1.0, 2.0\n",
    "key-in-a-value": "kind: sphere\ndim: 4 k: 5\n",
}
needs_libyaml = pytest.mark.skipif(not yaml.__with_libyaml__,
                                   reason="PyYAML was built without libyaml")


def _tree(node):
    """(class, tag, value or children, start line, start column) of node and
    of every node under it."""
    if isinstance(node, yaml.ScalarNode):
        value = node.value
    elif isinstance(node, yaml.MappingNode):
        value = [(_tree(key), _tree(item)) for key, item in node.value]
    else:
        value = [_tree(item) for item in node.value]
    return type(node), node.tag, value, node.start_mark.line, node.start_mark.column


def _composed(text: str, loader):
    """The node tree loader composes text to, or the class and problem mark
    of the error it refuses text with."""
    try:
        return _tree(yaml.compose(text, Loader=loader))
    except yaml.MarkedYAMLError as exc:
        return type(exc), exc.problem_mark.line, exc.problem_mark.column


@needs_libyaml
@pytest.mark.parametrize("kind", VALID_SPECS)
def test_engines_compose_every_mutant_to_the_same_nodes(kind):
    text = VALID_SPECS[kind]
    texts = [text] + [mutant for site in range(len(list(_sites(yaml.compose(text)))))
                      for mutant in _mutants(text, site)]
    for each in texts:
        assert _composed(each, specfile._LOADER) == _composed(each, yaml.SafeLoader), each


@needs_libyaml
@pytest.mark.parametrize("name", MALFORMED)
def test_engines_refuse_malformed_text_at_the_same_mark(name):
    text = MALFORMED[name]
    refused = _composed(text, yaml.SafeLoader)
    assert issubclass(refused[0], yaml.MarkedYAMLError)
    assert _composed(text, specfile._LOADER) == refused
