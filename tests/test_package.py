"""The lazy package namespace: each exported name is imported from its home
module on first access, and is the same object as there."""

import importlib

import pytest

import cartan_invariants as ci


def test_every_export_is_its_home_modules_object():
    for module, names in ci._EXPORTS.items():
        home = importlib.import_module(f"cartan_invariants.{module}")
        for name in names:
            assert getattr(ci, name) is getattr(home, name), (module, name)
            assert vars(ci)[name] is getattr(home, name)  # bound once, as an eager import


def test_star_import_binds_every_export():
    ns = {}
    exec("from cartan_invariants import *", ns)
    assert set(ci.__all__) <= set(ns)
    assert all(ns[name] is getattr(ci, name) for name in ci.__all__)


def test_dir_lists_every_export():
    assert set(ci.__all__) <= set(dir(ci))


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="^module 'cartan_invariants' has no attribute 'nope'$"):
        ci.nope
    assert not hasattr(ci, "nope")


def test_no_name_is_exported_twice():
    names = [name for names in ci._EXPORTS.values() for name in names]
    assert len(names) == len(set(names)) == len(ci.__all__)

