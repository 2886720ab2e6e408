"""Fixture async server: its handler table covers exactly the declared ops."""


def _ping(req):
    return {"pong": True}


def _query(req):
    return {"result": None}


_HANDLERS = {
    "ping": _ping,
    "query": _query,
}


def dispatch(req):
    return _HANDLERS[req["op"]](req)
