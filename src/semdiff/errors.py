"""The two failure kinds that are not the input's fault.

A LimitError means a configured bound was reached before an answer (the
CLI exits 4); an InternalError means the engine contradicted itself
(the CLI exits 5).  Concrete errors derive from one of them.
"""


class LimitError(Exception):
    """A budget ran out: the encoder's bit budget or an oracle's state budget."""


class InternalError(Exception):
    """An engine result failed one of the engine's own checks."""

    what = "self-check failed"  # names the failed check in the CLI's error line
