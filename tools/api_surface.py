"""Count the settable values of the public `stmae` API.

    python3 tools/api_surface.py [--list]

A settable value is a keyword default of a public function or method (a
parameter a caller may leave out), or a field of a public dataclass. Public
means a name without a leading underscore, defined in a `stmae` module;
`__init__` counts as a method of its class, except a dataclass's, whose
parameters are its fields. The count is read from the signatures of the
imported modules. Prints `defaults + fields = total`; `--list` also prints
one qualified name per value.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import inspect
import pkgutil
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _public_modules():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    package = importlib.import_module("stmae")
    return [importlib.import_module(f"stmae.{info.name}")
            for info in pkgutil.iter_modules(package.__path__) if not info.name.startswith("_")]


def _defaults(qualname, func):
    return [f"{qualname}({p.name}=)" for p in inspect.signature(func).parameters.values()
            if p.default is not inspect.Parameter.empty]


def settable_values():
    """(keyword defaults, dataclass fields): lists of qualified names."""
    defaults, fields = [], []
    for module in _public_modules():
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            qualname = f"{module.__name__}.{name}"
            if inspect.isfunction(obj):
                defaults += _defaults(qualname, obj)
            elif inspect.isclass(obj):
                if dataclasses.is_dataclass(obj):
                    fields += [f"{qualname}.{f.name}" for f in dataclasses.fields(obj)]
                for attr, member in vars(obj).items():
                    if isinstance(member, (staticmethod, classmethod)):
                        member = member.__func__
                    public = not attr.startswith("_") or (
                        attr == "__init__" and not dataclasses.is_dataclass(obj))
                    if public and inspect.isfunction(member):
                        defaults += _defaults(f"{qualname}.{attr}", member)
    return defaults, fields


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--list", action="store_true", help="print each settable value")
    args = parser.parse_args(argv)
    defaults, fields = settable_values()
    if args.list:
        print("\n".join(defaults + fields))
    print(f"{len(defaults)} + {len(fields)} = {len(defaults) + len(fields)}")


if __name__ == "__main__":
    main()
