"""The package exports each module's public names, and only those."""

import edgeauction
from edgeauction import auction, calibration, experiments, model

MODULES = (model, auction, calibration, experiments)


def test_the_package_exports_every_public_name_of_its_modules():
    names = [name for module in MODULES for name in module.__all__]
    assert edgeauction.__all__ == names
    assert len(names) == 45


def test_no_public_name_is_declared_twice():
    assert len(set(edgeauction.__all__)) == len(edgeauction.__all__)


def test_each_exported_name_is_its_modules_own_object():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(edgeauction, name) is getattr(module, name), name
