"""Synthetic exam sessions with known ground truth.

The generator lays sensor events on fixed grids (frames at the
configured cap, one audio window per second, an embedding every two
seconds) and injects cheating episodes on top: device detections,
extra persons, suppressed presence, impostor embeddings, voiced audio.
Because it knows exactly which events it wrote, it can state flag-level
ground truth without running the engine; the closed-loop tests then
hold the engine to it.

Ground-truth windows are exact for well-separated episodes (>= 2 s
apart). Overlapping episodes still generate deterministically, but the
per-episode windows may then merge under debouncing.

`plan_session` leaves each audio window a recipe, so `simulate` makes a
window's samples only as it writes them; `generate_session` inlines them all.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field, replace
from enum import Enum
from pathlib import Path

import numpy as np

from .audio.dsp import PcmWindow
from .config import EngineConfig
from .errors import EngineError, check_fields, decode_json, from_json, json_document, json_fields
from .events import (
    DEFAULT_SAMPLE_RATE,
    AudioWindowPayload,
    EventKind,
    FaceEmbeddingPayload,
    FrameDetections,
    SensorEvent,
    SessionLog,
    pcm_bytes,
    pcm_samples,
)
from .facematch import EMBEDDING_DIM, Embedding, ReferenceSet
from .objectgate import LAPTOP, PERSON, PHONE, BoundingBox, Detection, DeviceVerdict, gate_device_score
from .pipeline import DEVICE_FLAG_KINDS, FlagKind, SessionLabel, SessionReport

EMBEDDING_PERIOD_MS = 2000
AUDIO_WINDOW_MS = 1000
REFERENCE_SPREAD = 0.05
CANDIDATE_NOISE = (0.10, 0.20)
IMPOSTOR_DISTANCE = 1.2
BACKGROUND_NOISE_GAIN = 0.1
# Longest scenario accepted: well over a 1-2 h exam. `simulate` holds one audio
# window at a time, but its frames and embeddings grow with the session.
MAX_DURATION_MS = 4 * 3600 * 1000


class InvalidSpec(EngineError):
    """Scenario specification violates the generator's constraints."""


class LengthMismatch(EngineError):
    """Reports and ground truths are not aligned."""


class EpisodeKind(str, Enum):
    CLEAN = "clean"
    PHONE_USE = "phone_use"
    LAPTOP_USE = "laptop_use"
    IMPOSTOR_SWAP = "impostor_swap"
    ABSENCE = "absence"
    SECOND_PERSON = "second_person"
    BACKGROUND_SPEECH = "background_speech"


_DEVICE_EPISODES = {EpisodeKind.PHONE_USE: PHONE, EpisodeKind.LAPTOP_USE: LAPTOP}


@dataclass(frozen=True)
class Episode:
    kind: EpisodeKind
    start_ms: int
    length_ms: int
    intensity: float = 0.9

    @property
    def end_ms(self) -> int:
        return self.start_ms + self.length_ms

    def contains(self, t_ms: int) -> bool:
        return self.start_ms <= t_ms < self.end_ms

    to_dict = json_fields


@dataclass(frozen=True)
class ScenarioSpec:
    duration_ms: int
    episodes: tuple[Episode, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        check_fields(self, InvalidSpec)
        if not 0 < self.duration_ms <= MAX_DURATION_MS:
            raise InvalidSpec(
                f"duration_ms must be in (0, {MAX_DURATION_MS}], got {self.duration_ms}"
            )
        for ep in self.episodes:
            if ep.length_ms <= 0:
                raise InvalidSpec(f"{ep.kind.value} episode has non-positive length {ep.length_ms}")
            if ep.start_ms < 0 or ep.end_ms > self.duration_ms:
                raise InvalidSpec(
                    f"{ep.kind.value} episode [{ep.start_ms}, {ep.end_ms}) "
                    f"outside session of {self.duration_ms} ms"
                )
            if not 0.0 <= ep.intensity <= 1.0:
                raise InvalidSpec(f"intensity must be in [0, 1], got {ep.intensity}")
            if ep.kind in (EpisodeKind.ABSENCE, EpisodeKind.IMPOSTOR_SWAP):
                # The candidate must return before the log ends, else the
                # gap never closes and ground truth depends on the last
                # event of the whole session.
                if ep.end_ms > self.duration_ms - 1000:
                    raise InvalidSpec(
                        f"{ep.kind.value} episode must end at least 1000 ms "
                        f"before the session does"
                    )

    to_dict = json_fields


def scenario_from_dict(data: dict) -> ScenarioSpec:
    """The spec of a JSON scenario document, read through `errors.from_json`."""
    return from_json(ScenarioSpec, data, "scenario", InvalidSpec)


def load_scenario_file(path: str | Path) -> ScenarioSpec:
    try:
        data = decode_json(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:
        raise InvalidSpec(f"{path}: {exc}") from exc
    try:
        return scenario_from_dict(data)
    except InvalidSpec as exc:
        raise InvalidSpec(f"{path}: bad scenario document: {exc}") from exc


def save_scenario_file(spec: ScenarioSpec, path: str | Path) -> None:
    Path(path).write_bytes(json_document(spec.to_dict()))


@dataclass(frozen=True)
class FlagWindow:
    kind: FlagKind
    start_ms: int
    end_ms: int

    def contains(self, t_ms: int) -> bool:
        return self.start_ms <= t_ms <= self.end_ms


@dataclass(frozen=True)
class GroundTruth:
    final_label: SessionLabel
    windows: tuple[FlagWindow, ...]

    to_dict = json_fields


@dataclass(frozen=True)
class Metrics:
    """Flag-level precision/recall per kind plus session-label counts.

    A predicted flag matches when a same-kind ground-truth window of the
    same session contains its timestamp; every window wants at least one
    flag. Empty denominators score 1.0 so all-quiet runs read perfect.
    """

    precision: dict[str, float]
    recall: dict[str, float]
    overall_precision: float
    overall_recall: float
    confusion: dict[str, int] = field(default_factory=dict)

    to_dict = json_fields


# ---------------------------------------------------------------------------
# Audio synthesis

VOICED_F0_HZ = 120.0
VOICED_HARMONICS = 6
VOICED_AM_HZ = 4.0


def synth_audio(kind: str, seed: int, sample_rate: int = DEFAULT_SAMPLE_RATE) -> PcmWindow:
    """One second of synthetic audio, peak-normalized to 0.5.

    "voiced" stacks a 120 Hz fundamental with six harmonics under a
    4 Hz amplitude modulation; "unvoiced" is uniform white noise.
    """
    rng = np.random.default_rng(np.random.SeedSequence([0xA0D10, seed & 0xFFFFFFFF]))
    t = np.arange(sample_rate, dtype=np.float64) / sample_rate
    if kind == "voiced":
        x = np.zeros_like(t)
        for h in range(1, VOICED_HARMONICS + 2):
            phase = rng.uniform(0.0, 2.0 * np.pi)
            x += np.sin(2.0 * np.pi * VOICED_F0_HZ * h * t + phase) / h
        envelope = 0.6 + 0.4 * np.sin(2.0 * np.pi * VOICED_AM_HZ * t + rng.uniform(0.0, 2.0 * np.pi))
        x *= envelope
    elif kind == "unvoiced":
        x = rng.uniform(-1.0, 1.0, size=sample_rate)
    else:
        raise ValueError(f"kind must be 'voiced' or 'unvoiced', got {kind!r}")
    x *= 0.5 / np.max(np.abs(x))
    return PcmWindow(sample_rate=sample_rate, samples=x)


def _quantize(samples: np.ndarray) -> np.ndarray:
    """Snap to the signed-16-bit grid, so the log round-trips byte-exactly
    both inline and as PCM side files."""
    return pcm_samples(pcm_bytes(samples))


# ---------------------------------------------------------------------------
# Session generation


def _unit(rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(EMBEDDING_DIM)
    return v / np.linalg.norm(v)


def _person_box(rng: np.random.Generator, x0: float = 120.0) -> BoundingBox:
    jitter = rng.uniform(-3.0, 3.0, size=2)
    return BoundingBox(
        x=round(x0 + jitter[0], 2), y=round(40.0 + jitter[1], 2), w=80.0, h=160.0
    )


_DEVICE_BOXES = {
    PHONE: BoundingBox(x=250.0, y=150.0, w=40.0, h=30.0),
    LAPTOP: BoundingBox(x=60.0, y=120.0, w=120.0, h=80.0),
}


def _frame_grid(duration_ms: int, max_fps: float) -> list[int]:
    # ceil keeps each frame in its own rate-cap bucket, so the grid
    # survives resample_frames unchanged.
    times = []
    i = 0
    while True:
        t = math.ceil(i * 1000.0 / max_fps)
        if t >= duration_ms:
            return times
        times.append(t)
        i += 1


@dataclass(frozen=True)
class WindowRecipe:
    """An audio window of a planned session: its time, whether it is voiced, and its synthesis seed."""

    t_ms: int
    voiced: bool
    sub: int

    def pcm(self) -> bytes:
        """The window's samples as 16-bit PCM."""
        samples = synth_audio("voiced" if self.voiced else "unvoiced", self.sub).samples
        return pcm_bytes(samples if self.voiced else samples * BACKGROUND_NOISE_GAIN)


def generate_session(spec: ScenarioSpec, cfg: EngineConfig | None = None) -> tuple[SessionLog, GroundTruth]:
    """Build one synthetic session log plus its expected flags.

    Deterministic per (spec, config). Candidate embeddings sit within
    0.25 of the nearest reference, impostor embeddings beyond 1.1;
    device scores equal the episode intensity; absence and impostor
    episodes suppress person frames. Audio windows hold their samples
    inline, on the 16-bit grid.
    """
    plan, gt = plan_session(spec, cfg)
    events = tuple(ev if type(ev) is SensorEvent else _inline(ev) for ev in plan.events)
    return replace(plan, events=events), gt


def _inline(recipe: WindowRecipe) -> SensorEvent:
    return SensorEvent(recipe.t_ms, EventKind.AUDIO_WINDOW, AudioWindowPayload(samples=pcm_samples(recipe.pcm())))


def plan_session(spec: ScenarioSpec, cfg: EngineConfig | None = None) -> tuple[SessionLog, GroundTruth]:
    """`generate_session`'s log and ground truth, with each audio window still a `WindowRecipe`."""
    if cfg is None:
        cfg = EngineConfig()
    rng = np.random.default_rng(np.random.SeedSequence([0x51D, spec.seed & 0xFFFFFFFF]))

    centroid = _unit(rng)
    refs = ReferenceSet(
        np.stack([centroid + REFERENCE_SPREAD * _unit(rng) for _ in range(cfg.reference_count)])
    )

    impostor_gaps = {
        id(ep): min(7000, max(0, ep.length_ms - 1000))
        for ep in spec.episodes
        if ep.kind is EpisodeKind.IMPOSTOR_SWAP
    }

    def suppressed(t: int) -> bool:
        for ep in spec.episodes:
            if ep.kind is EpisodeKind.ABSENCE and ep.contains(t):
                return True
            if ep.kind is EpisodeKind.IMPOSTOR_SWAP and ep.start_ms <= t < ep.start_ms + impostor_gaps[id(ep)]:
                return True
        return False

    # Frame pass: one detections event per grid slot.
    frame_times = _frame_grid(spec.duration_ms, cfg.max_fps)
    frames: list[SensorEvent] = []
    present_times: list[int] = []
    device_hits: dict[int, int] = {}
    multi_hits: dict[int, int] = {}
    for t in frame_times:
        dets: list[Detection] = []
        if not suppressed(t):
            present_times.append(t)
            dets.append(
                Detection(label=PERSON, score=round(0.88 + 0.04 * rng.random(), 6), box=_person_box(rng))
            )
            for ep in spec.episodes:
                if ep.kind is EpisodeKind.SECOND_PERSON and ep.contains(t):
                    dets.append(
                        Detection(
                            label=PERSON,
                            score=round(0.85 + 0.05 * rng.random(), 6),
                            box=_person_box(rng, x0=260.0),
                        )
                    )
                    multi_hits[id(ep)] = multi_hits.get(id(ep), 0) + 1
                    break
        for ep in spec.episodes:
            label = _DEVICE_EPISODES.get(ep.kind)
            if label is not None and ep.contains(t):
                dets.append(Detection(label=label, score=ep.intensity, box=_DEVICE_BOXES[label]))
                device_hits[id(ep)] = device_hits.get(id(ep), 0) + 1
        frames.append(
            SensorEvent(t_ms=t, kind=EventKind.FRAME_DETECTIONS, payload=FrameDetections(detections=tuple(dets)))
        )

    def last_present_before(t: int) -> int | None:
        i = bisect.bisect_left(present_times, t)
        return present_times[i - 1] if i else None

    def first_present_at_or_after(t: int) -> int | None:
        i = bisect.bisect_left(present_times, t)
        return present_times[i] if i < len(present_times) else None

    def first_frame_at_or_after(t: int) -> int:
        return frame_times[bisect.bisect_left(frame_times, t)]

    def gap_for(ep: Episode, absent_from: int, return_hint: int) -> tuple[int | None, int]:
        """Observed absence duration and its closing frame time."""
        anchor = last_present_before(absent_from)
        if anchor is None:
            anchor = first_frame_at_or_after(absent_from)
        t_return = first_present_at_or_after(return_hint)
        if t_return is None:
            raise InvalidSpec(f"{ep.kind.value} episode never sees the candidate return")
        return t_return, t_return - anchor

    # Embedding pass: periodic candidate embeddings, plus one impostor
    # embedding at each swap's return frame. The periodic grid skips the
    # swap neighborhood so the impostor's is the first embedding the
    # recheck sees.
    def near_impostor(t: int) -> bool:
        return any(
            ep.start_ms <= t <= ep.end_ms + EMBEDDING_PERIOD_MS
            for ep in spec.episodes
            if ep.kind is EpisodeKind.IMPOSTOR_SWAP
        )

    def candidate_embedding() -> Embedding:
        radius = rng.uniform(*CANDIDATE_NOISE)
        return Embedding(values=centroid + radius * _unit(rng))

    embeddings: list[SensorEvent] = []
    for t in range(0, spec.duration_ms, EMBEDDING_PERIOD_MS):
        if suppressed(t) or near_impostor(t):
            continue
        embeddings.append(
            SensorEvent(t_ms=t, kind=EventKind.FACE_EMBEDDING, payload=FaceEmbeddingPayload(embedding=candidate_embedding()))
        )

    windows: list[FlagWindow] = []
    for ep in spec.episodes:
        if ep.kind in _DEVICE_EPISODES:
            if device_hits.get(id(ep)):
                verdict = gate_device_score(_DEVICE_EPISODES[ep.kind], ep.intensity, cfg.device_thresholds)
                if verdict is not DeviceVerdict.NO_FLAG:
                    windows.append(FlagWindow(kind=DEVICE_FLAG_KINDS[verdict], start_ms=ep.start_ms, end_ms=ep.end_ms))
        elif ep.kind is EpisodeKind.SECOND_PERSON:
            if multi_hits.get(id(ep)):
                windows.append(FlagWindow(kind=FlagKind.MULTIPLE_PERSONS, start_ms=ep.start_ms, end_ms=ep.end_ms))
        elif ep.kind is EpisodeKind.ABSENCE:
            t_return, gap = gap_for(ep, ep.start_ms, ep.end_ms)
            if gap > cfg.absence_long_ms:
                windows.append(FlagWindow(kind=FlagKind.CANDIDATE_ABSENCE, start_ms=ep.start_ms, end_ms=t_return))
        elif ep.kind is EpisodeKind.IMPOSTOR_SWAP:
            t_return, gap = gap_for(ep, ep.start_ms, ep.start_ms + impostor_gaps[id(ep)])
            impostor = Embedding(values=centroid + IMPOSTOR_DISTANCE * _unit(rng))
            embeddings.append(
                SensorEvent(t_ms=t_return, kind=EventKind.FACE_EMBEDDING, payload=FaceEmbeddingPayload(embedding=impostor))
            )
            if gap > cfg.absence_long_ms:
                windows.append(FlagWindow(kind=FlagKind.CANDIDATE_ABSENCE, start_ms=ep.start_ms, end_ms=t_return))
            rechecked = cfg.absence_recheck_min_ms < gap <= cfg.absence_long_ms or cfg.recheck_on_any_return
            if rechecked:
                windows.append(FlagWindow(kind=FlagKind.ANOTHER_PERSON, start_ms=ep.start_ms, end_ms=t_return))

    # Audio pass: one window per second; a window is voiced only when it
    # fits entirely inside a speech episode.
    audio: list[WindowRecipe] = []
    speech_eps = [ep for ep in spec.episodes if ep.kind is EpisodeKind.BACKGROUND_SPEECH]
    voiced_first: dict[int, int] = {}
    for w in range(0, spec.duration_ms - AUDIO_WINDOW_MS + 1, AUDIO_WINDOW_MS):
        voiced_ep = next(
            (ep for ep in speech_eps if w >= ep.start_ms and w + AUDIO_WINDOW_MS <= ep.end_ms), None
        )
        audio.append(WindowRecipe(w, voiced_ep is not None, int(rng.integers(0, 2**31 - 1))))
        if voiced_ep is not None:
            voiced_first.setdefault(id(voiced_ep), w)
    for ep in speech_eps:
        if id(ep) in voiced_first:
            windows.append(FlagWindow(kind=FlagKind.VOICE_DETECTION, start_ms=ep.start_ms, end_ms=ep.end_ms))

    events = sorted(frames + embeddings + audio, key=lambda ev: ev.t_ms)
    log = SessionLog(
        session_id=f"sim-{spec.seed}",
        config=cfg,
        reference_embeddings=refs,
        events=tuple(events),
    )
    windows.sort(key=lambda w: (w.start_ms, w.kind.value))
    label = SessionLabel.SUSPECT if windows else SessionLabel.CLEAN
    return log, GroundTruth(final_label=label, windows=tuple(windows))


# ---------------------------------------------------------------------------
# Scoring


def evaluate_reports(reports: list[SessionReport], gts: list[GroundTruth]) -> Metrics:
    """Score predicted flags against ground-truth windows, per kind."""
    if len(reports) != len(gts):
        raise LengthMismatch(f"{len(reports)} reports vs {len(gts)} ground truths")
    pred_total: dict[str, int] = {}
    pred_matched: dict[str, int] = {}
    win_total: dict[str, int] = {}
    win_matched: dict[str, int] = {}
    confusion = {"clean_clean": 0, "clean_suspect": 0, "suspect_clean": 0, "suspect_suspect": 0}
    for report, gt in zip(reports, gts):
        key = f"{gt.final_label.value.lower()}_{report.final_label.value.lower()}"
        confusion[key] += 1
        for flag in report.flags:
            k = flag.kind.value
            pred_total[k] = pred_total.get(k, 0) + 1
            if any(w.kind is flag.kind and w.contains(flag.t_ms) for w in gt.windows):
                pred_matched[k] = pred_matched.get(k, 0) + 1
        for window in gt.windows:
            k = window.kind.value
            win_total[k] = win_total.get(k, 0) + 1
            if any(f.kind is window.kind and window.contains(f.t_ms) for f in report.flags):
                win_matched[k] = win_matched.get(k, 0) + 1

    def ratio(num: dict[str, int], den: dict[str, int]) -> dict[str, float]:
        return {k: (num.get(k, 0) / n if n else 1.0) for k, n in den.items()}

    total_pred = sum(pred_total.values())
    total_win = sum(win_total.values())
    return Metrics(
        precision=ratio(pred_matched, pred_total),
        recall=ratio(win_matched, win_total),
        overall_precision=sum(pred_matched.values()) / total_pred if total_pred else 1.0,
        overall_recall=sum(win_matched.values()) / total_win if total_win else 1.0,
        confusion=confusion,
    )


# ---------------------------------------------------------------------------
# Stock scenarios


_EPISODE_LENGTHS: dict[EpisodeKind, tuple[int, int]] = {
    EpisodeKind.PHONE_USE: (3000, 6000),
    EpisodeKind.LAPTOP_USE: (3000, 6000),
    EpisodeKind.SECOND_PERSON: (3000, 6000),
    EpisodeKind.BACKGROUND_SPEECH: (3000, 6000),
    EpisodeKind.ABSENCE: (11500, 14000),
    EpisodeKind.IMPOSTOR_SWAP: (8500, 9500),
}


# Quiet time after each stock episode, so episodes stay well separated.
_EPISODE_GAP_MS = 2500


def random_scenario(seed: int, kinds: list[EpisodeKind] | None = None) -> ScenarioSpec:
    """A well-separated scenario with 2-4 injected episodes.

    Episode kinds, order, lengths, and gaps are drawn from the seed;
    lengths are sized so each episode reliably produces its flag.
    """
    rng = np.random.default_rng(np.random.SeedSequence([0x5CE4, seed & 0xFFFFFFFF]))
    if kinds is None:
        pool = [k for k in _EPISODE_LENGTHS]
        count = int(rng.integers(2, 5))
        kinds = [pool[i] for i in rng.choice(len(pool), size=count, replace=False)]
    cursor = 3000
    episodes = []
    for kind in kinds:
        lo, hi = _EPISODE_LENGTHS[kind]
        start = cursor + int(rng.integers(0, 1500))
        length = int(rng.integers(lo, hi + 1))
        if kind in _DEVICE_EPISODES and rng.random() < 0.5:
            # mid-band score: stays a GeneralSuspicious episode
            intensity = round(float(rng.uniform(0.45, 0.65)), 3)
        else:
            intensity = round(float(rng.uniform(0.75, 0.95)), 3)
        episodes.append(Episode(kind=kind, start_ms=start, length_ms=length, intensity=intensity))
        cursor = start + length + _EPISODE_GAP_MS
    return ScenarioSpec(duration_ms=cursor + 2000, episodes=tuple(episodes), seed=seed)
