"""The package's public names are its layers' ``__all__`` lists."""

import importlib
import itertools

import nsfd

LAYERS = ("model", "models", "linalg", "integrator", "invariance", "analysis")


def _layer_lists():
    return [importlib.import_module(f"nsfd.{layer}").__all__ for layer in LAYERS]


def test_layer_lists_are_pairwise_disjoint():
    # so that no star import in the package shadows another layer's name
    for a, b in itertools.combinations(_layer_lists(), 2):
        assert not set(a) & set(b)


def test_package_exports_each_layer_list_in_order():
    assert nsfd.__all__ == ["__version__", *itertools.chain(*_layer_lists())]


def test_each_exported_name_is_its_layer_object():
    for layer in LAYERS:
        module = importlib.import_module(f"nsfd.{layer}")
        for name in module.__all__:
            assert getattr(nsfd, name) is getattr(module, name), (layer, name)
