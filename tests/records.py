"""Test-side helper for geouio's record classes, which are plain classes
whose constructors take their attributes as parameters."""

import inspect


def rebuilt(record, **changes):
    """A new record of ``record``'s class, built through its constructor
    from ``record``'s attributes with ``changes`` in place of some."""
    cls = type(record)
    names = inspect.signature(cls).parameters
    unknown = set(changes) - set(names)
    if unknown:
        raise TypeError(f"{cls.__name__} has no parameters {sorted(unknown)}")
    return cls(**{name: changes[name] if name in changes else getattr(record, name)
                  for name in names})


def attributes(record) -> tuple:
    """``(name, value)`` of each constructor parameter of ``record``, for
    comparing records by value."""
    return tuple((name, getattr(record, name))
                 for name in inspect.signature(type(record)).parameters)
