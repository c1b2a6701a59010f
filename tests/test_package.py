"""The package surface: every public name, resolved on first use."""

import importlib
import subprocess
import sys

import pytest

import divlog


@pytest.mark.parametrize("name", [n for n in divlog.__all__ if n != "__version__"])
def test_public_name_is_its_home_modules_object(name):
    home = importlib.import_module(f"divlog.{divlog._HOME[name]}")
    assert getattr(divlog, name) is getattr(home, name)


def test_each_public_name_is_listed_once():
    assert len(divlog.__all__) == len(set(divlog.__all__))


def test_star_import_and_dir_cover_all():
    namespace = {}
    exec("from divlog import *", namespace)
    assert set(divlog.__all__) <= set(namespace)
    assert set(divlog.__all__) <= set(dir(divlog))


def test_unknown_name_is_the_usual_attribute_error():
    with pytest.raises(AttributeError, match="^module 'divlog' has no attribute 'no_such_name'$"):
        divlog.no_such_name
    assert not hasattr(divlog, "no_such_name")


def test_import_loads_a_submodule_only_on_first_use():
    code = (
        "import sys, divlog\n"
        "print(sorted(m for m in sys.modules if m.startswith('divlog')))\n"
        "divlog.meet\n"
        "print(sorted(m for m in sys.modules if m.startswith('divlog')))\n"
        "print('meet' in vars(divlog))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.stdout.splitlines() == [
        "['divlog']",
        "['divlog', 'divlog.errors', 'divlog.factorization', 'divlog.lattice']",
        "True",
    ]
