"""Bluetooth 5.2 L2CAP protocol substrate.

Packet codec, the 19-state channel state machine, the 7-job clustering of
states, and the F/D/MC/MA field taxonomy that the core-field-mutating
technique is built on.
"""
