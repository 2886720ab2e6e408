"""Fixture async server: a handler table that forgot 'query' (WIRE401),
plus a compare-dispatched op that OPS never declared (WIRE402)."""


def _ping(req):
    return {"pong": True}


def _mystery(req):
    return {"spooky": True}


_HANDLERS = {
    "ping": _ping,
    "mystery": _mystery,
}


def dispatch(req):
    op = req["op"]
    if op == "extra":            # WIRE402: not in OPS
        return {"oops": True}
    return _HANDLERS[op](req)
