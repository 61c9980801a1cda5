"""One transition on a machine state, for tests that step by hand."""

from spacekam.kam import MachState


def step(fire, s: MachState):
    """fire (kam_fire or skam_fire) on s's fields, as (label, next
    state), or None when s is final.  A state holds its env and stack
    as the linked cells the fire functions take and return."""
    nxt = fire(s.code, s.env, s.stack)
    if nxt is None:
        return None
    label, code, env, stack = nxt
    return label, MachState(code, env, stack)
