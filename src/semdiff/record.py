"""Value classes without `dataclasses`, which was most of CLI start-up.

Every CLI run is a fresh process.  Importing `dataclasses` pulls in `inspect`,
and each `@dataclass` `exec`-compiles its generated methods: about 50 ms in
all for this package.  `record` gives the same methods, written once below,
so making a class only binds closures.  New value classes here use it.
"""

from operator import attrgetter, eq as _eq, ge, gt, le, lt


class FrozenRecordError(AttributeError):
    """Assignment to, or deletion of, an attribute of a frozen record."""


class field:
    """A field that gets a fresh `default_factory()` value per instance."""

    def __init__(self, *, default_factory) -> None:
        self.make = default_factory


def record(cls=None, /, *, frozen: bool = False, eq: bool = True, order: bool = False):
    """`dataclasses.dataclass` with these options, minus its introspection
    (`fields`, `replace`); a method the class body defines is kept."""
    build = lambda c: _build(c, frozen, eq, order)  # noqa: E731
    return build if cls is None else build(cls)


def _build(cls, frozen: bool, eq: bool, order: bool):
    own = dict(cls.__dict__)
    names = tuple(own.get("__annotations__", ()))
    n = len(names)
    # per defaulted field, a callable giving its value: a factory's is fresh
    fill = {f: own[f].make if isinstance(own[f], field) else (lambda v=own[f]: v)
            for f in names if f in own}
    for f in [f for f in fill if isinstance(own[f], field)]:
        delattr(cls, f)
    post_init = hasattr(cls, "__post_init__")

    def bind(args, kwargs):
        values = list(args)
        for f in names[len(args):]:
            if f in kwargs:
                values.append(kwargs.pop(f))
            elif f in fill:
                values.append(fill[f]())
            else:
                raise TypeError(f"{cls.__qualname__}() missing argument {f!r}")
        if kwargs or len(args) > n:
            raise TypeError(f"{cls.__qualname__}() takes only the fields {names}")
        return values

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != n:
            args = bind(args, kwargs)
        self.__dict__.update(zip(names, args))
        if post_init:
            self.__post_init__()

    def __repr__(self):
        inner = ", ".join(f"{f}={getattr(self, f)!r}" for f in names)
        return f"{self.__class__.__qualname__}({inner})"

    # the field tuple; one field still gives a 1-tuple, as dataclasses hash it
    get = attrgetter(*names)
    key = (lambda self: (get(self),)) if n == 1 else get

    def compare(op):
        return lambda self, other: (op(key(self), key(other))
                                    if other.__class__ is self.__class__ else NotImplemented)

    def refuse(self, name, *value):  # __setattr__ and __delattr__
        raise FrozenRecordError(f"{cls.__qualname__} is frozen: cannot change {name!r}")

    methods = {"__init__": __init__, "__repr__": __repr__}
    if eq:
        methods["__eq__"] = compare(_eq)
    if order:
        methods.update(__lt__=compare(lt), __le__=compare(le),
                       __gt__=compare(gt), __ge__=compare(ge))
    if frozen:
        methods.update(__setattr__=refuse, __delattr__=refuse)
    for name in methods.keys() - own.keys():
        setattr(cls, name, methods[name])
    # as for dataclasses, the implicit None of a body's own __eq__ is no hash
    if eq and own.get("__hash__") is None:
        cls.__hash__ = (lambda self: hash(key(self))) if frozen else None
    cls.__match_args__ = names
    return cls
