import sys
from pathlib import Path

import pytest

import relabel

# every module of the package but its __init__ and the command-line front end
LIBRARY = sorted(p.stem for p in Path(relabel.__file__).parent.glob("*.py")
                 if p.stem not in ("__init__", "cli"))


def test_every_library_module_is_registered():
    assert len(LIBRARY) == 10
    for name in LIBRARY:
        assert getattr(relabel, name) is sys.modules[f"relabel.{name}"]
        assert name in dir(relabel)


def test_exported_names_are_the_objects_their_modules_define():
    assert relabel.__all__ == sorted(set(relabel.__all__))
    modules = [sys.modules[f"relabel.{name}"] for name in LIBRARY]
    for name in relabel.__all__:
        obj = getattr(relabel, name)
        home = getattr(obj, "__module__", None)
        if home is not None:  # a function or class: its defining module
            assert getattr(sys.modules[home], name) is obj, name
        else:  # a constant
            assert any(getattr(m, name, None) is obj for m in modules), name
        assert name in dir(relabel)
    from relabel import CapacityError, distance
    assert distance is relabel.transform.distance
    assert CapacityError is relabel.oracle.CapacityError
    namespace = {}
    exec("from relabel import *", namespace)
    assert set(relabel.__all__) <= set(namespace)


def test_all_is_the_exported_names():
    assert relabel.__all__ == sorted(name for names in relabel._EXPORTS.values()
                                     for name in names)
    assert len(relabel.__all__) == 69
    # names that had no caller are gone from the package and their modules
    for module, name in (("perm", "identity"), ("perm", "support"), ("perm", "transposition"),
                         ("exact_star", "star_exact_t_feasible"),
                         ("oracle", "ComponentSummary")):
        assert name not in relabel.__all__
        assert not hasattr(getattr(relabel, module), name), name


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        relabel.no_such_name
    assert not hasattr(relabel, "_legal_flips")
    with pytest.raises(ImportError):
        from relabel import no_such_name  # noqa: F401
