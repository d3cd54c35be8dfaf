"""Ratchet on the number of settable values the package exposes.

A settable value is one of

* a defaulted parameter of a public function, or of a public or
  ``__init__`` method of a public class, found by ``inspect.signature``
  (dataclass fields with defaults count through ``__init__``);
* a ``(section, key)`` pair of the experiment config schemas;
* a command-line flag;
* a penalty kind.

Each one is a choice a caller can make, and each must be tested and kept
working.  The count may fall but not rise: a change that adds a setting
takes one away elsewhere, or raises ``BOUND`` and says why.
"""

import importlib
import inspect
import pkgutil
import re

import pytest

import tikdisc
from tikdisc.cli import main
from tikdisc.expconfig import _SCHEMAS
from tikdisc.penalties import PENALTY_KINDS

BOUND = 96  # 48 parameters + 43 config keys + 3 flags + 2 penalty kinds


def _defaulted(fn):
    return [p.name for p in inspect.signature(fn).parameters.values()
            if p.default is not inspect.Parameter.empty]


def defaulted_parameters():
    found = []
    for info in pkgutil.iter_modules(tikdisc.__path__):
        mod = importlib.import_module(f"tikdisc.{info.name}")
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                found += [f"{mod.__name__}.{name}({p}=)" for p in _defaulted(obj)]
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    if attr.startswith("_") and attr != "__init__":
                        continue
                    fn = getattr(member, "__func__", member)  # class/static methods
                    if inspect.isfunction(fn):
                        found += [f"{mod.__name__}.{name}.{attr}({p}=)" for p in _defaulted(fn)]
    return found


def config_keys():
    return {(section, key) for schema in _SCHEMAS.values()
            for section, keys in schema.items() for key in keys}


def cli_flags(capsys):
    flags = set()
    for verb in ("run", "rates", "oracle", "validate"):
        with pytest.raises(SystemExit):
            main([verb, "--help"])
        flags |= set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
    return flags - {"--help"}


def test_settable_value_count_does_not_grow(capsys):
    params, keys, flags = defaulted_parameters(), config_keys(), cli_flags(capsys)
    total = len(params) + len(keys) + len(flags) + len(PENALTY_KINDS)
    assert total <= BOUND, (
        f"{len(params)} parameters + {len(keys)} config keys + {len(flags)} flags + "
        f"{len(PENALTY_KINDS)} penalty kinds = {total} > {BOUND}: {params} {sorted(flags)}")
