"""The farm's trace-record format.

Every engine adapter (:mod:`repro.engines`) turns one instant into a
plain-data record ``{"inputs", "emitted", "values"}`` that is directly
JSON-serializable — the currency of the
:class:`~repro.farm.ledger.TraceLedger`, of the property monitors and
of cross-engine equivalence comparison (:func:`compare_records`).
"""


def jsonable_value(value):
    """Trace values must survive JSON: bytes become hex strings."""
    if isinstance(value, (bytes, bytearray)):
        return "0x" + bytes(value).hex()
    return value


def make_record(instant, emitted, values):
    """Canonical per-instant trace record (sorted, JSON-clean)."""
    return {
        "inputs": {
            name: jsonable_value(value)
            for name, value in sorted(instant.items())
        },
        "emitted": sorted(emitted),
        "values": {
            name: jsonable_value(value)
            for name, value in sorted(values.items())
        },
    }


def compare_records(left, right):
    """None when two engine records agree observably, else a short
    human-readable description of the mismatch."""
    if (
        left["emitted"] != right["emitted"]
        or left["values"] != right["values"]
    ):
        return "emitted %s %r vs %s %r" % (
            left["emitted"],
            left["values"],
            right["emitted"],
            right["values"],
        )
    return None
