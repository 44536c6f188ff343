"""A small base class for the package's value records.

Every ``slopelab`` command runs in a fresh interpreter, so import time is
part of each query's cost.  The value classes used to be ``@dataclass``
classes.  Importing ``dataclasses`` pulls in ``inspect``, ``dis`` and
``tokenize``, and each of the 15 decorations compiles its methods with
``exec``.  Replacing them with this class took a cold
``python -c "import slopelab.cli"`` from 107 to 88 ms (medians of 40
alternating runs on a 2-vCPU x86-64 VM, CPython 3.11.7, no bytecode
cache; ``python -c pass`` takes 44 ms there).  ``Record`` keeps the
behaviour callers relied on, with plain methods and nothing compiled at
class creation.

A subclass declares its fields as class annotations, in order, with
optional class-level defaults::

    class Point(Record):
        x: int
        y: int = 0

Instances take positional or keyword arguments (``TypeError`` on a
missing, unknown or repeated one), compare field-wise with instances of
the same class only (never with a tuple), and repr as
``Point(x=1, y=0)``.  Records are frozen: assignment and deletion raise
``AttributeError``.  They hash by their fields, so a record holding a
list or a dict is unhashable, as a tuple holding one would be.
``replace(**changes)`` returns a copy with some fields changed.
"""


class Record:
    def __init_subclass__(cls):
        # a class's own annotations, also where the module lacks
        # "from __future__ import annotations" (Python 3.10 and later)
        names = tuple(cls.__annotations__)
        cls._fields = names
        cls._defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}

    def __init__(self, *args, **kwargs):
        cls = type(self)
        names = cls._fields
        if len(args) > len(names):
            raise TypeError(
                f"{cls.__name__}() takes {len(names)} positional arguments "
                f"but {len(args)} were given"
            )
        state = self.__dict__
        state.update(zip(names, args))
        for name in names[len(args):]:
            if name in kwargs:
                state[name] = kwargs.pop(name)
            elif name in cls._defaults:
                state[name] = cls._defaults[name]
            else:
                raise TypeError(f"{cls.__name__}() missing required argument {name!r}")
        for name in kwargs:
            problem = "multiple values for" if name in names else "an unexpected keyword"
            raise TypeError(f"{cls.__name__}() got {problem} argument {name!r}")

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    # __init__ stores exactly the fields, in field order, and a record
    # never changes them, so equality and hashing read __dict__
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.__dict__ == other.__dict__
        return NotImplemented

    def __hash__(self):
        return hash(tuple(self.__dict__.values()))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def replace(self, **changes):
        """A copy with the named fields changed."""
        values = {name: getattr(self, name) for name in self._fields}
        values.update(changes)
        return type(self)(**values)
