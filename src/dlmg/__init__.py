"""Dissipative Lipkin-Meshkov-Glick collective-spin toolkit.

Subpackages cover the full pipeline: Dicke-basis operators, a generic
Lindblad engine, the three LMG master-equation builders with their effective
cavity-QED parameter map, semiclassical mean-field analysis,
Holstein-Primakoff linearization, probe-transmission spectra, and
entanglement / phase-space diagnostics, plus a sweep-oriented CLI.
"""

__version__ = "0.1.0"
