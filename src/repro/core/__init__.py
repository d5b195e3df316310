"""The paper's contribution: the L2Fuzz stateful fuzzer."""
