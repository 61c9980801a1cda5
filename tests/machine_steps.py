"""One transition on a machine state, for tests that step by hand."""

from spacekam.kam import MachState


def step(fire, s: MachState):
    """fire (kam_fire or skam_fire) on s's fields, as (label, next
    state), or None when s is final."""
    nxt = fire(s.code, s.env, s.stack)
    return None if nxt is None else (nxt[0], MachState(*nxt[1:]))
