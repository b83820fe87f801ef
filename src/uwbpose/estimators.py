"""Dispatch from method identifiers to estimator entry points."""

from __future__ import annotations

from functools import partial
from typing import Callable

from .core import EstimateReport, Method
from .dac import estimate_dac
from .gnrefine import estimate_gn_uls
from .linstage import estimate_uls

ESTIMATORS: dict[Method, Callable[..., EstimateReport]] = {
    Method.ULS: estimate_uls,
    Method.GN_ULS: estimate_gn_uls,
    Method.DAC: partial(estimate_dac, refine=False),
    Method.GN_DAC: partial(estimate_dac, refine=True),
}

