"""Virtual host-stack substrate: the fuzzing targets."""
