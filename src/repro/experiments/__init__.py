"""Experiment harness: regenerates every table and figure of the paper."""

from repro.experiments import (
    cache_reality,
    channel,
    doublebank,
    figure7,
    figure8,
    figure9,
    fpm_heritage,
    headline,
    l2_tradeoff,
    refresh_ablation,
    report,
    tables,
    timelines,
)
from repro.experiments.rendering import ExperimentTable, render_all
from repro.experiments.registry import EXPERIMENTS, Experiment

__all__ = [
    "EXPERIMENTS",
    "Experiment",
    "cache_reality",
    "channel",
    "doublebank",
    "figure7",
    "figure8",
    "figure9",
    "fpm_heritage",
    "headline",
    "l2_tradeoff",
    "refresh_ablation",
    "report",
    "tables",
    "timelines",
    "ExperimentTable",
    "render_all",
]
