"""Helpers shared by the upper-layer payload codecs (SDP, OBEX)."""

from __future__ import annotations

_new_object = object.__new__
_set_attribute = object.__setattr__


def frozen_instance(cls, fields: dict):
    """An instance of the frozen dataclass *cls* holding *fields*.

    ``cls(**fields)`` without the generated ``__init__``, which writes
    each field through ``object.__setattr__``: the decoders build one
    object per data element, PDU or header they parse. *fields* must
    name every field of *cls*, and *cls* must not use ``slots``.
    """
    instance = _new_object(cls)
    _set_attribute(instance, "__dict__", fields)
    return instance
