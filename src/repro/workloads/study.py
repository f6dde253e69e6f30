"""Measurement-study dataset generation (§2–3 substitute for production data).

The paper's Figures 1–5 and Table 1 are computed from seven months of SNMP
monitoring across 15 production DCNs.  We cannot have that data, so this
module synthesizes a dataset with the same *generating mechanisms*:

- corruption onsets from the fault models (Table-1 rates, stable-over-time
  series, shared-component co-location, asymmetry from unidirectional
  root causes);
- congestion from hotspot traffic through finite queues (utilization-driven,
  strongly local, mostly bidirectional);
- per-direction series at the 15-minute SNMP cadence.

Every analysis in :mod:`repro.analysis` consumes this dataset, so whether
the paper's *shapes* emerge is a genuine test of the mechanism models, not
a tautology.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.faults.injector import FaultInjector
from repro.topology.elements import Direction, LinkId
from repro.workloads.dcn_profiles import DCNProfile, study_profiles
from repro.workloads.rates import LOSSY_THRESHOLD, sample_corruption_rate

SAMPLES_PER_DAY = 96  # 15-minute cadence


@dataclass
class LinkStudyRecord:
    """Monitoring series of one link *direction* over the study window.

    Attributes:
        dcn: DCN name.
        link_id: Canonical link id.
        direction: "up" or "down".
        kind: "corruption" or "congestion" — which loss process dominates
            this direction (healthy directions are not materialized).
        stage: Stage of the link's lower endpoint (0 = ToR–agg tier).
        loss: Loss-rate series of this direction.
        rev_loss: Loss-rate series of the opposite direction (for the
            asymmetry analysis); None when the reverse is healthy.
        utilization: Utilization series of this direction.
    """

    dcn: str
    link_id: LinkId
    direction: str
    kind: str
    stage: int
    loss: np.ndarray
    utilization: np.ndarray
    rev_loss: Optional[np.ndarray] = None

    def mean_loss(self) -> float:
        return float(np.mean(self.loss))

    def is_bidirectional(self, threshold: float = LOSSY_THRESHOLD) -> bool:
        if self.rev_loss is None:
            return False
        return (
            float(np.mean(self.loss)) >= threshold
            and float(np.mean(self.rev_loss)) >= threshold
        )


@dataclass
class DcnStudy:
    """One DCN's worth of study data.

    Attributes:
        name: DCN name.
        num_links: Total links in the (scaled) topology.
        num_switches: Total switches.
        link_endpoints: ``link_id -> (lower, upper)`` for every link, so
            locality analyses can randomize placements.
        stage_of_switch: ``switch -> stage`` for stage-location analyses.
        records: Materialized lossy directions.
        capacity_pkts_per_interval: Line rate per direction per 15-minute
            interval, for converting rates to absolute loss counts.
    """

    name: str
    num_links: int
    num_switches: int
    link_endpoints: Dict[LinkId, Tuple[str, str]]
    stage_of_switch: Dict[str, int] = field(default_factory=dict)
    records: List[LinkStudyRecord] = field(default_factory=list)
    capacity_pkts_per_interval: float = 4.5e9  # 40G, 1000B packets, 900s

    def records_of_kind(self, kind: str) -> List[LinkStudyRecord]:
        return [r for r in self.records if r.kind == kind]


@dataclass
class StudyDataset:
    """The full multi-DCN study dataset."""

    dcns: List[DcnStudy]
    days: int
    interval_s: float = 900.0

    def all_records(self, kind: Optional[str] = None) -> List[LinkStudyRecord]:
        records = [r for dcn in self.dcns for r in dcn.records]
        if kind is not None:
            records = [r for r in records if r.kind == kind]
        return records


# --------------------------------------------------------------------- #
# Generation
# --------------------------------------------------------------------- #


def _ar1_noise(
    rng: np.random.Generator, shape: Tuple[int, int], rho: float, sigma: float
) -> np.ndarray:
    """Vectorized AR(1) noise: rows = series, columns = time."""
    innovations = rng.normal(0.0, sigma, size=shape)
    noise = np.empty(shape)
    noise[:, 0] = innovations[:, 0]
    for t in range(1, shape[1]):
        noise[:, t] = rho * noise[:, t - 1] + innovations[:, t]
    return noise


def _utilization_matrix(
    rng: np.random.Generator,
    num_series: int,
    num_samples: int,
    hot: bool,
    interval_s: float,
    means: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Diurnal + AR(1) utilization series for ``num_series`` directions.

    ``means`` overrides the per-series baseline utilization (used by the
    pod-heat congestion model); otherwise cool/hot defaults apply.
    """
    times = np.arange(num_samples) * interval_s
    if means is not None:
        means = means.reshape(num_series, 1)
        amps = rng.uniform(0.05, 0.15, size=(num_series, 1))
        burst_p = rng.uniform(0.005, 0.02, size=(num_series, 1))
        burst_boost = rng.uniform(0.05, 0.12, size=(num_series, 1))
    elif hot:
        # Matches repro.congestion.traffic.profile_parameters(hot=True).
        means = rng.uniform(0.5, 0.68, size=(num_series, 1))
        amps = rng.uniform(0.08, 0.16, size=(num_series, 1))
        burst_p = rng.uniform(0.01, 0.05, size=(num_series, 1))
        burst_boost = rng.uniform(0.12, 0.25, size=(num_series, 1))
    else:
        means = rng.uniform(0.15, 0.45, size=(num_series, 1))
        amps = rng.uniform(0.05, 0.2, size=(num_series, 1))
        burst_p = np.full((num_series, 1), 0.005)
        burst_boost = np.full((num_series, 1), 0.2)
    phases = rng.uniform(0, 86_400.0, size=(num_series, 1))
    diurnal = amps * np.sin(2 * np.pi * (times[None, :] - phases) / 86_400.0)
    noise = _ar1_noise(rng, (num_series, num_samples), rho=0.8, sigma=0.04)
    bursts = (
        rng.random((num_series, num_samples)) < burst_p
    ) * burst_boost
    return np.clip(means + diurnal + noise + bursts, 0.0, 1.0)


def _congestion_loss_matrix(utilization: np.ndarray) -> np.ndarray:
    """Vectorized M/M/1/K loss over a utilization matrix."""
    # congestion_loss_rate is scalar; vectorize via the closed form inline.
    rho = np.minimum(utilization, 1.0) / 0.92
    k = 120
    with np.errstate(divide="ignore", invalid="ignore"):
        num = (1.0 - rho) * rho**k
        den = 1.0 - rho ** (k + 1)
        loss = np.where(np.abs(rho - 1.0) < 1e-12, 1.0 / (k + 1), num / den)
    return np.clip(np.nan_to_num(loss), 0.0, 1.0)


def _corruption_series(
    rng: np.random.Generator,
    base_rate: float,
    num_samples: int,
    onset_probability: float = 0.3,
) -> np.ndarray:
    """A stable corruption series: constant rate with mild lognormal jitter.

    With probability ``onset_probability`` the corruption begins mid-window
    (Figure 7-style step), which is what puts mass in the upper CV range of
    Figure 2b while keeping most links' CV small.
    """
    jitter = rng.lognormal(mean=0.0, sigma=0.25, size=num_samples)
    series = base_rate * jitter
    if rng.random() < onset_probability:
        onset = rng.integers(low=num_samples // 8, high=7 * num_samples // 8)
        series[:onset] = 0.0
    return np.clip(series, 0.0, 0.3)


def generate_dcn_study(
    profile: DCNProfile,
    seed: int,
    days: int = 7,
    scale: float = 0.25,
    corrupting_fraction: float = 0.008,
    deep_buffer_spine: bool = False,
    interval_s: float = 900.0,
) -> DcnStudy:
    """Generate one DCN's study data.

    Args:
        profile: DCN shape.
        seed: RNG seed.
        days: Window length (paper's §3 uses one representative week).
        scale: Topology scale factor (1.0 = paper-size).
        corrupting_fraction: Fraction of links that develop corruption in
            the window (§3: corrupting links are 2–4% of congested ones).
        deep_buffer_spine: Mark spine switches deep-buffer (§3's stage
            effect on congestion).
        interval_s: Poll cadence.
    """
    topo = profile.build(scale=scale)
    if deep_buffer_spine:
        for name in topo.spines():
            topo.switch(name).deep_buffer = True

    py_rng = random.Random(seed)
    np_rng = np.random.default_rng(seed)
    num_samples = int(days * SAMPLES_PER_DAY * (900.0 / interval_s))

    stage_of = {sw.name: sw.stage for sw in topo.switches()}
    study = DcnStudy(
        name=profile.name,
        num_links=topo.num_links,
        num_switches=topo.num_switches,
        link_endpoints={
            lid: (topo.link(lid).lower, topo.link(lid).upper)
            for lid in topo.link_ids()
        },
        stage_of_switch=dict(stage_of),
    )

    # ---- Corruption: fault-model driven ------------------------------- #
    injector = FaultInjector(
        topo, seed=seed + 1, rate_sampler=sample_corruption_rate
    )
    target = max(6, int(topo.num_links * corrupting_fraction))
    corrupted: Dict[LinkId, Tuple[float, float]] = {}
    while len(corrupted) < target:
        event = injector.sample_fault()
        for lid, condition in zip(event.link_ids, event.conditions):
            if lid not in corrupted:
                corrupted[lid] = (condition.fwd_rate, condition.rev_rate)

    corr_links = sorted(corrupted)
    corr_util = _utilization_matrix(
        np_rng, len(corr_links), num_samples, hot=False, interval_s=interval_s
    )
    for row, lid in enumerate(corr_links):
        fwd_rate, rev_rate = corrupted[lid]
        fwd = _corruption_series(np_rng, fwd_rate, num_samples)
        rev = (
            _corruption_series(np_rng, rev_rate, num_samples)
            if rev_rate >= LOSSY_THRESHOLD
            else None
        )
        study.records.append(
            LinkStudyRecord(
                dcn=profile.name,
                link_id=lid,
                direction="up",
                kind="corruption",
                stage=stage_of[lid[0]],
                loss=fwd,
                utilization=corr_util[row],
                rev_loss=rev,
            )
        )

    # ---- Congestion: pod-heat traffic through finite queues ----------- #
    # Every pod runs warm, but heat is skewed (cube of a uniform) so a few
    # pods run near capacity.  Lossy links therefore concentrate in the
    # hottest pods — congestion's strong spatial locality (§3, Figure 4) —
    # while their count stays 25-50x the corrupting-link count.
    pods = sorted({sw.pod for sw in topo.switches() if sw.pod is not None})
    pod_heat = {pod: py_rng.random() ** 3 for pod in pods}

    hot_dirs: List = []
    dir_means: List[float] = []
    reverse_of: Dict[int, int] = {}  # reverse row -> forward row
    for link in topo.links():
        lower = topo.switch(link.lower)
        upper = topo.switch(link.upper)
        pod = lower.pod if lower.pod is not None else upper.pod
        heat = pod_heat.get(pod, 0.0)
        if upper.stage == 2:
            heat *= 0.6  # ECMP spreads load before the spine tier
        base = py_rng.uniform(0.26, 0.4) + 0.4 * heat
        # Skip directions that can never reach the loss knee (~0.78):
        # saves materializing thousands of all-zero series.
        if base + 0.12 + 0.13 + 0.12 < 0.78:
            continue
        both = py_rng.random() < 0.75
        forward = (
            Direction.UP if py_rng.random() < 0.5 else Direction.DOWN
        )
        fwd_row = len(hot_dirs)
        hot_dirs.append(link.direction_id(forward))
        dir_means.append(min(base + py_rng.uniform(-0.02, 0.02), 0.66))
        if both:
            # Bidirectional congestion tracks shared root causes (§3:
            # capacity loss hits both directions), so the reverse
            # direction's utilization follows the forward one.
            reverse_of[len(hot_dirs)] = fwd_row
            hot_dirs.append(link.direction_id(forward.reverse()))
            dir_means.append(dir_means[fwd_row])

    hot_util = _utilization_matrix(
        np_rng,
        len(hot_dirs),
        num_samples,
        hot=True,
        interval_s=interval_s,
        means=np.array(dir_means) if hot_dirs else np.zeros(0),
    )
    for rev_row, fwd_row in reverse_of.items():
        wobble = np_rng.normal(0.0, 0.015, size=num_samples)
        hot_util[rev_row] = np.clip(hot_util[fwd_row] + wobble, 0.0, 1.0)
    hot_loss = _congestion_loss_matrix(hot_util)
    # Deep-buffer egress switches lose essentially nothing.
    for row, did in enumerate(hot_dirs):
        src = did[0]
        if topo.switch(src).deep_buffer:
            hot_loss[row] = 0.0

    loss_of_dir = {did: row for row, did in enumerate(hot_dirs)}
    seen = set()
    for did in hot_dirs:
        if did in seen:
            continue
        link = topo.find_link(*did)
        lid = link.link_id
        reverse = (did[1], did[0])
        seen.add(did)
        row = loss_of_dir[did]
        if float(np.mean(hot_loss[row])) < 1e-10:
            continue  # never materialized a loss; not a congested link
        rev_loss = None
        if reverse in loss_of_dir:
            seen.add(reverse)
            rev_loss = hot_loss[loss_of_dir[reverse]]
        direction = "up" if did == (link.lower, link.upper) else "down"
        study.records.append(
            LinkStudyRecord(
                dcn=profile.name,
                link_id=lid,
                direction=direction,
                kind="congestion",
                stage=stage_of[lid[0]],
                loss=hot_loss[row],
                utilization=hot_util[row],
                rev_loss=rev_loss,
            )
        )
    return study


def generate_study(
    seed: int = 0,
    num_dcns: int = 15,
    days: int = 7,
    scale: float = 0.2,
    **kwargs,
) -> StudyDataset:
    """Generate the full multi-DCN study dataset.

    Args:
        seed: Master seed; per-DCN seeds derive from it.
        num_dcns: How many of the 15 profiles to include.
        days: Window length.
        scale: Topology scale factor (0.2 keeps benches fast; 1.0 is
            paper-sized).
        **kwargs: Forwarded to :func:`generate_dcn_study`.
    """
    profiles = study_profiles()
    if not 1 <= num_dcns <= len(profiles):
        raise ValueError(
            f"study size must be in [1, {len(profiles)}], got {num_dcns}"
        )
    dcns = []
    for index, profile in enumerate(profiles[:num_dcns]):
        dcns.append(
            generate_dcn_study(
                profile,
                seed=seed * 1000 + index,
                days=days,
                scale=scale,
                # §3: deep buffers at specific stages in some DCNs.
                deep_buffer_spine=(index % 3 == 0),
                **kwargs,
            )
        )
    return StudyDataset(dcns=dcns, days=days)
