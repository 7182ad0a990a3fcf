"""The model-spec classes: one class per name on every import path."""

import re

import pytest

import gammkit
from gammkit import basis, fitting, terms
from gammkit.errors import DomainError
from gammkit.terms import SmoothTermSpec


def test_every_exported_name_resolves():
    for name in gammkit.__all__:
        assert getattr(gammkit, name) is not None, name


def test_spec_classes_are_one_class_on_every_import_path():
    assert gammkit.ModelSpec is fitting.ModelSpec is terms.ModelSpec
    assert gammkit.SmoothTermSpec is basis.SmoothTermSpec \
        is fitting.SmoothTermSpec is terms.SmoothTermSpec
    assert gammkit.ParametricTerm is fitting.ParametricTerm \
        is terms.ParametricTerm



@pytest.mark.parametrize("label, args, kw", [
    ("fs(x,z,g)", (("x", "z"), "cr"), {"k": 5, "fs_group": "g"}),
    ("fs(x,z,g)", (("x", "z"), "tp"), {"k": 5, "fs_group": "g"}),
    ("fs(x,z,g)", (("x", "z"), "tensor"), {"k": 4, "fs_group": "g"}),
    ("fs(x,z,g)", (("x", "z"), "ti"), {"k": 4, "fs_group": "g"}),
    ("fs(x,g)", (("x",), "poly"), {"k": 3, "fs_group": "g"}),
    ("re(g,x,z)", (("g", "x", "z"),), {"is_random_effect": True}),
    ("re(g)", (("g",),), {"is_random_effect": True, "by": "h"}),
    ("re(g)", (("g",),), {"is_random_effect": True, "fs_group": "h"}),
    ("re(g)", (("g",),), {"is_random_effect": True, "k": 7}),
    ("bogus(x)", (("x",), "bogus"), {}),
    ("s(x,z,w)", (("x", "z", "w"), "tp"), {}),
    ("te(x,z)", (("x", "z"), "tensor"), {"k": (4, 4, 4)}),
    ("cr(x):x", (("x",), "cr"), {"by": "x"}),
    # m, the penalty order, is read only by a tp basis
    ("cr(z)", (("z",), "cr"), {"k": 8, "m": 3}),
    ("poly(x)", (("x",), "poly"), {"k": 3, "m": 2}),
    ("te(x,z)", (("x", "z"), "tensor"), {"m": 2}),
    ("ti(x,z)", (("x", "z"), "ti"), {"m": 3}),
    ("fs(x,g)", (("x",), "cr"), {"fs_group": "g", "m": 3}),
    ("re(g)", (("g",),), {"is_random_effect": True, "m": 2}),
])
def test_a_term_outside_its_contract_is_refused_by_label(label, args, kw):
    """Each of these once fitted a different model or failed only at fit
    time; now construction refuses it, naming the term."""
    with pytest.raises(DomainError, match=re.escape(f"term {label!r}: ")):
        SmoothTermSpec(*args, **kw)


def test_columns_and_factors_state_what_a_term_reads():
    cases = [
        (SmoothTermSpec("x", "cr"), ("x",), ()),
        (SmoothTermSpec(("x", "z"), "tensor", by="f"), ("x", "z", "f"), ("f",)),
        (SmoothTermSpec("x", "tp", fs_group="g"), ("x", "g"), ("g",)),
        (SmoothTermSpec(("g", "x"), is_random_effect=True), ("g", "x"), ("g",)),
    ]
    for term, columns, factors in cases:
        assert (term.columns, term.factors) == (columns, factors), term.label


def test_m_is_the_tp_penalty_order_and_defaults_to_none():
    assert SmoothTermSpec("x", "cr").m is None
    assert SmoothTermSpec("x", "tp", m=3).m == 3
    assert SmoothTermSpec("x", "tp", k=5, fs_group="g", m=1).m == 1
    assert SmoothTermSpec(("x", "z"), "tp", by="f", m=3).m == 3
