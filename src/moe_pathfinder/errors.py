"""Error types shared across the pipeline.

FormatError covers anything wrong with an input file, and its message names
the file: missing or unreadable, truncated, bad JSON, a missing key or a value
of the wrong type, trailing bytes or a non-finite entry in a `.tnsr` blob, or
shapes that disagree with a manifest, an index or the model.
InvariantError covers violations of runtime contracts (fully pruned layer,
unreachable sparsity target, failed selfcheck).  The CLI maps them to exit
codes 2 and 3.
"""


class FormatError(Exception):
    """A file is malformed or inconsistent with its manifest."""


class InvariantError(Exception):
    """A runtime invariant or precondition was violated."""
