"""Communication-constrained distributed inference in the simultaneous message-passing model.

A library and CLI simulator for protocols in which each of n players holds one
i.i.d. sample from an unknown distribution over [k] and sends a single ell-bit
message to a referee.  Provides:

- a distributed simulation scheme that lets the referee reconstruct i.i.d.
  samples from the unknown distribution (`simulate`),
- simulate-and-infer pipelines built on it (`infer`),
- public-coin uniformity-testing protocols (`public_uniformity`),
- an identity-to-uniformity reduction (`identity`),
- brute-force verification oracles for the closed-form claims (`verify`),
- an experiment harness and CLI (`harness`, `cli`).
"""

__version__ = "0.1.0"
