"""Two-photon impact-series interferometer: analytic predictors and a
deterministic Monte Carlo engine for the coincidence measurement.

Library names are imported from their modules, e.g.
``from impactseries.theories import predict``; the package re-exports none.
"""

__version__ = "0.1.0"

__all__: list[str] = []
