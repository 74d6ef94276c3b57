"""Frozen value classes without the dataclasses module: importing it (it
pulls in inspect) and processing the package's classes with it cost about
18 ms of every import of the package."""

from __future__ import annotations

import operator


def frozen(cls: type) -> type:
    """Give cls the __init__, ==, hash, repr and immutability of a
    @dataclass(frozen=True) over its annotated fields, in order.  A class
    attribute is its field's default; __post_init__, if any, runs last and
    writes with object.__setattr__.  == holds only within one class, on the
    fields, and hash is the hash of the fields' tuple."""
    names = tuple(cls.__dict__.get("__annotations__", ()))
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    required, allowed = set(names) - defaults.keys(), set(names)
    post_init = getattr(cls, "__post_init__", None)
    key = operator.attrgetter(*names)  # the fields' tuple, given two fields or more

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(names):
            given = dict(zip(names, args), **kwargs)
            if len(given) < len(args) + len(kwargs) or not required <= given.keys() <= allowed:
                raise TypeError(f"{cls.__name__}({', '.join(names)}) cannot take {len(args)} "
                                f"positional arguments and keywords {sorted(kwargs)}")
            args = map(given.get, names, map(defaults.get, names))
        self.__dict__.update(zip(names, args))
        if post_init is not None:
            post_init(self)

    def __eq__(self, other):
        return key(self) == key(other) if other.__class__ is self.__class__ else NotImplemented

    def __repr__(self):
        return f"{cls.__qualname__}({', '.join(f'{n}={getattr(self, n)!r}' for n in names)})"

    cls.__init__, cls.__eq__, cls.__repr__ = __init__, __eq__, __repr__
    cls.__hash__ = lambda self: hash(key(self))
    cls.__setattr__ = cls.__delattr__ = _refuse
    return cls


def _refuse(self, name: str, *value) -> None:
    raise AttributeError(f"{type(self).__name__} is frozen: cannot set or delete {name!r}")
