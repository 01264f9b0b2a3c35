"""Resource limits: the most work one query may ask for, in one place.

The marked points are infinite, so every answer comes from a finite
presentation, and most queries cost the same on any input.  Where the work
itself grows without bound with an input, the query is refused above a
fixed limit before that work starts.  The refusal is a
:class:`ResourceLimitError` naming the size asked for and the limit; the
command line maps it to exit 2.  Each limit comes with its refusal message,
a template with ``{value}`` and ``{limit}`` fields.
"""


class ResourceLimitError(RuntimeError):
    pass


# enumeration: brute force lists every triangulation of the window polygon,
# and their number grows with the Catalan numbers of the point count
WINDOW_POINT_LIMIT = 12
WINDOW_POINTS = "window has {value} points, limit is {limit}"
# every generator pair is checked for duplicates and crossings in one pass
# (only a pair of families goes to the two-variable solver), so load time
# grows with the square of the count: a fountain of 199 generators
# (completed:99) takes 0.2-0.35 s to load, certified or not.  A flip checks
# only the new arc and the pairs of fixed arcs: on the 181-generator
# fountain (completed:90) it takes 5-8 ms, against 0.18-0.3 s to load it
GENERATOR_LIMIT = 200
GENERATORS = "triangulation has {value} generators, limit is {limit}"
# the solver's splinter search loops up to a family's stride, so load time
# grows linearly with it: 200 certified families with both ends moving, of
# strides 20 and 19, take 3.3-3.9 s to load (0.9-1.2 s at strides 2 and 1)
STRIDE_LIMIT = 20
STRIDE = "family stride {value} exceeds the limit {limit}"
# most arcs listed from one support run of a family with no fixed endpoint
FAN_WIDTH_LIMIT = 5000
SUPPORT_RUN = "support run has {value} arcs, limit is {limit}"
# placement: most points of a window that a triangulation is placed among,
# whether drawn or named by a file's window certificate; 606 are those of
# radius 100 on completed:3, under 2 px apart when drawn
POINT_LIMIT = 606
RENDER_POINTS = "render window has {value} points, limit is {limit}"


def require(value: int, limit: int, refusal: str) -> None:
    """Refuse work whose size, the magnitude of ``value``, exceeds ``limit``.

    ``refusal`` is formatted only to refuse, so a check that passes costs one
    comparison.
    """
    if abs(value) > limit:
        raise ResourceLimitError(refusal.format(value=value, limit=limit))
