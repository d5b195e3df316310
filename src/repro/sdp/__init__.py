"""Service Discovery Protocol substrate.

Implements the SDP layer the paper's target-scanning phase depends on:
data elements, PDUs, an on-device server and a fuzzer-side client, so
service browsing happens over the air rather than through a testbed side
channel.
"""
