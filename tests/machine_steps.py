"""One transition on a machine state, for tests that step by hand."""

from spacekam.kam import MachState, stack_cells, stack_tuple


def step(fire, s: MachState):
    """fire (kam_fire or skam_fire) on s's fields, as (label, next
    state), or None when s is final.  The fire functions take and
    return linked stack cells; the states keep tuples."""
    nxt = fire(s.code, s.env, stack_cells(s.stack))
    if nxt is None:
        return None
    label, code, env, stack = nxt
    return label, MachState(code, env, stack_tuple(stack))
