"""The public API: ``casimir`` exports exactly each module's ``__all__``."""

import types

import pytest

import casimir as cs
from casimir import constants, dispersion, errors, geometry, lifshitz, thermal

REPUBLISHED = (dispersion, errors, geometry, lifshitz, thermal)
CONSTANTS = ("C", "EV", "HBAR", "K_B")


@pytest.mark.parametrize("module", REPUBLISHED, ids=lambda m: m.__name__)
def test_all_is_exported_as_the_same_object(module):
    for name in module.__all__:
        assert getattr(cs, name) is getattr(module, name), name


def test_every_public_name_comes_from_an_all_list():
    declared = {name for module in REPUBLISHED for name in module.__all__}
    public = {name for name, value in vars(cs).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == declared | set(CONSTANTS)
    assert all(getattr(cs, name) is getattr(constants, name) for name in CONSTANTS)
    assert isinstance(cs.__version__, str)


def test_errors_exports_its_exception_and_warning_classes_only():
    classes = {name for name, value in vars(errors).items()
               if isinstance(value, type) and issubclass(value, (Exception, Warning))}
    assert set(errors.__all__) == classes  # the check_* helpers stay private

