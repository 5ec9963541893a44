"""Simulator and verification harness for self-testing quantum circuits.

A tester that trusts only classical interaction can check that an untrusted
pair of devices shares EPR pairs, implements the gates it claims, and runs a
given real-gate circuit: this package simulates such devices (honest,
adversarial, and noisy), evaluates the verification statistics, and extracts
explicit local unitaries certifying equivalence to the ideal computation.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
