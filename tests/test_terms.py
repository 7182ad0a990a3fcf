"""The model-spec classes: one class per name on every import path."""

import gammkit
from gammkit import basis, fitting, terms


def test_every_exported_name_resolves():
    for name in gammkit.__all__:
        assert getattr(gammkit, name) is not None, name


def test_spec_classes_are_one_class_on_every_import_path():
    assert gammkit.ModelSpec is fitting.ModelSpec is terms.ModelSpec
    assert gammkit.SmoothTermSpec is basis.SmoothTermSpec \
        is fitting.SmoothTermSpec is terms.SmoothTermSpec
    assert gammkit.ParametricTerm is fitting.ParametricTerm \
        is terms.ParametricTerm

