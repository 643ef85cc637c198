"""The prefix walk of ``propagation._cores``, restated as a recursion.

:func:`walk` states what ``_cores`` yields and which prefixes it extends,
from nothing but a closure function, so one statement serves the walk on
an instance (closures by the round loop) and on a kernel's dual (closures
by the reference strip).  It shares no code with ``_cores``: each depth
is a ``for`` loop over the items left, a shadow is a set of vertices, and
each closure is computed from scratch.

Each prefix the walk reaches has a shadow: the shadow of the shorter
prefix, with the closure of each earlier sibling whose subtree held no
combination that could be a core.  An item whose vertex lies in the
shadow is not reached.  A subtree could hold a core when it yields, or
when, with ``minimal``, it passes over an item already in its prefix's
closure below the last depth, or at the last depth under a prefix whose
closure is everything.
"""


def walk(size, k, vertex, closure, whole, extended, minimal=False, shadows=True):
    """Yield what ``_cores`` yields over ``size`` items for ``k``, and
    append to ``extended`` the vertex each prefix is extended by, as the
    walk extends it.

    ``vertex(i)`` is item ``i``'s vertex and ``closure(prefix)`` the set of
    vertices active from the base extended by the vertices of the items in
    ``prefix``, a tuple of item indices; a closure of ``whole`` vertices is
    everything.  With ``shadows`` false no shadow is kept: the walk the
    shadows prune.
    """

    def below(prefix, shadow):
        """Walk the combinations under ``prefix``; return True when none
        of them could be a core."""
        d = len(prefix)
        shadow = set(shadow)
        free = True
        for x in range(prefix[-1] + 1 if prefix else 0, size - k + d + 1):
            v = vertex(x)
            if v in shadow:
                continue
            held = closure(prefix)
            if v not in held:
                extended.append(v)
            elif minimal:
                if d < k - 1 or len(held) == whole:
                    free = False
                continue
            child = prefix + (x,)
            if d < k - 1:
                if not (yield from below(child, shadow)):
                    free = False
                    continue
            elif len(closure(child)) == whole:
                free = False
                yield child
                continue
            if shadows:
                shadow |= closure(child)
        return free

    if not k:
        if len(closure(())) == whole:
            yield ()
    elif k > 0:
        yield from below((), set())
