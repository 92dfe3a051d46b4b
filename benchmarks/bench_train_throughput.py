"""Training/refresh-throughput benchmark.

Measures wall-clock of (1) :meth:`EMTrainer.fit` -- k-means-seeded
restarts stacked through one fused quadratic-form EM pass --
asserting per row that the stacked restarts are *identical* to each
restart fitted alone from its own child seed; and (2)
:meth:`ModelRefresher.build` (warm-started EM seeded from the
deployed mixture) against a from-scratch :meth:`EMTrainer.fit` on the
same 8,192-row subsample of the buffered traffic, on a drifted Zipf
stream, recording post-drift holdout likelihoods of the frozen,
retrained and refreshed mixtures so the speedup is visibly not bought
with adaptation quality.  Emits ``BENCH_train_throughput.json``.

Acceptance (enforced by ``--validate``): every fit row's
``restarts_identical``; on rows marked ``paper_geometry`` (the
simulator-default K = 64), refresh >= 2x faster than the retrain,
and the refresh recovers >= 90% of the holdout log-likelihood the
frozen engine loses against the retrain.

    PYTHONPATH=src python benchmarks/bench_train_throughput.py           # full
    PYTHONPATH=src python benchmarks/bench_train_throughput.py --smoke   # quick
    PYTHONPATH=src python benchmarks/bench_train_throughput.py --validate out.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.core.config import GmmEngineConfig
from repro.core.engine import EM_REG_COVAR, EM_TOL, GmmPolicyEngine
from repro.gmm.em import EMTrainer
from repro.serving.refresh import ModelRefresher
from repro.traces.preprocess import transform_timestamps
from repro.traces.synthetic import ZipfSampler

#: Schema of ``kind == "fit"`` rows.
FIT_SCHEMA = {
    "kind": str,
    "k": int,
    "n_init": int,
    "n_samples": int,
    "fit_s": float,
    "restarts_identical": bool,
    "paper_geometry": bool,
}

#: Schema of ``kind == "refresh"`` rows.
REFRESH_SCHEMA = {
    "kind": str,
    "k": int,
    "buffered_samples": int,
    "fit_samples": int,
    "retrain_s": float,
    "warm_s": float,
    "speedup": float,
    "frozen_holdout_ll": float,
    "retrain_holdout_ll": float,
    "warm_holdout_ll": float,
    "recovered_fraction": float,
    "paper_geometry": bool,
}

#: Acceptance gates on paper-geometry rows.
MIN_REFRESH_SPEEDUP = 2.0
MIN_RECOVERED_FRACTION = 0.9

#: Interleaved timing repeats per refresh row (median reported).
REFRESH_REPEATS = 3


def make_points(n: int, seed: int = 0) -> np.ndarray:
    """Standardised blob features shaped like trained (P, T) inputs."""
    rng = np.random.default_rng(seed)
    points = np.concatenate(
        [
            rng.normal(
                loc=(i % 7, i // 7), scale=0.3, size=(n // 8, 2)
            )
            for i in range(8)
        ]
    )
    return (points - points.mean(axis=0)) / points.std(axis=0)


def _results_identical(a, b) -> bool:
    return (
        np.array_equal(a.model.weights, b.model.weights)
        and np.array_equal(a.model.means, b.model.means)
        and np.array_equal(a.model.covariances, b.model.covariances)
        and a.n_iter == b.n_iter
        and a.log_likelihood == b.log_likelihood
    )


def bench_fit(k: int, n_init: int, points: np.ndarray, paper: bool):
    """One fit row: the timed fit, plus the restart-identity check.

    ``fit`` derives one child seed per restart from its rng; the check
    refits every restart alone from its seed and compares it with the
    same restart of a stacked pass, and the fit with the best of them.
    """
    trainer = EMTrainer(
        n_components=k, max_iter=40, tol=1e-3, n_init=n_init
    )
    started = time.perf_counter()
    fitted = trainer.fit(points, np.random.default_rng(1))
    fit_s = time.perf_counter() - started

    seeds = np.random.default_rng(1).integers(0, 2**63 - 1, size=n_init)
    alone = [trainer._fit_restarts(points, [seed])[0] for seed in seeds]
    stacked = trainer._fit_restarts(points, seeds)
    best = max(alone, key=lambda result: result.log_likelihood)
    identical = _results_identical(fitted, best) and all(
        _results_identical(a, b) for a, b in zip(stacked, alone)
    )

    row = {
        "kind": "fit",
        "k": int(k),
        "n_init": int(n_init),
        "n_samples": int(points.shape[0]),
        "fit_s": round(fit_s, 4),
        "restarts_identical": bool(identical),
        "paper_geometry": bool(paper),
    }
    print(
        f"fit     K={k:<3d} n_init={n_init}  fit {fit_s:6.2f}s"
        f"  identical={identical}"
    )
    return row


def _drift_features(base_page: int, n: int, rng) -> np.ndarray:
    pages, _ = ZipfSampler(
        base_page=base_page, n_pages=2000, alpha=1.2
    ).sample(n, rng)
    timestamps = transform_timestamps(n, mode="prose")
    return np.column_stack(
        [pages.astype(np.float64), timestamps.astype(np.float64)]
    )


def bench_refresh(
    k: int, n_train: int, n_buffered: int, paper: bool
):
    """One refresh row: warm-started EM vs a from-scratch retrain."""
    rng = np.random.default_rng(0)
    gmm = GmmEngineConfig(n_components=k, max_iter=30)
    engine = GmmPolicyEngine.train(
        _drift_features(0, n_train, rng), gmm, np.random.default_rng(1)
    )
    drifted = _drift_features(6000, n_buffered, rng)
    holdout = engine.scaler.transform(
        _drift_features(6000, 8000, rng)
    )
    chunk = max(1, n_buffered // 6)
    refresher = ModelRefresher(buffer_chunks=6)
    for start in range(0, n_buffered, chunk):
        refresher.ingest(drifted[start : start + chunk])

    # The retrain runs the offline engine's EM settings, from scratch
    # (seeding included), on the even-stride subsample the warm fold
    # fits.
    scaled = engine.scaler.transform(refresher.snapshot_features())
    fit_points = scaled[
        np.linspace(
            0,
            scaled.shape[0] - 1,
            min(refresher.max_fit_samples, scaled.shape[0]),
        ).astype(np.int64)
    ]
    trainer = EMTrainer(
        n_components=k,
        max_iter=gmm.max_iter,
        tol=EM_TOL,
        reg_covar=EM_REG_COVAR,
    )
    # Both fits are deterministic, so every repeat returns the same
    # models; only the timings vary.
    warm_times, retrain_times = [], []
    for _ in range(REFRESH_REPEATS):
        started = time.perf_counter()
        refreshed = refresher.build(engine)
        warm_times.append(time.perf_counter() - started)
        started = time.perf_counter()
        retrained = trainer.fit(
            fit_points, np.random.default_rng(1)
        ).model
        retrain_times.append(time.perf_counter() - started)
    warm_s = float(np.median(warm_times))
    retrain_s = float(np.median(retrain_times))

    frozen_ll, retrain_ll, warm_ll = (
        float(np.mean(model.log_score_samples(holdout)))
        for model in (engine.model, retrained, refreshed.model)
    )
    lost = retrain_ll - frozen_ll
    recovered = (warm_ll - frozen_ll) / lost if lost > 0 else 1.0
    row = {
        "kind": "refresh",
        "k": int(k),
        "buffered_samples": int(n_buffered),
        "fit_samples": int(fit_points.shape[0]),
        "retrain_s": round(retrain_s, 4),
        "warm_s": round(warm_s, 4),
        "speedup": round(retrain_s / warm_s, 2),
        "frozen_holdout_ll": round(frozen_ll, 4),
        "retrain_holdout_ll": round(retrain_ll, 4),
        "warm_holdout_ll": round(warm_ll, 4),
        "recovered_fraction": round(recovered, 4),
        "paper_geometry": bool(paper),
    }
    print(
        f"refresh K={k:<3d} buffered={n_buffered:>6d}"
        f"  retrain {retrain_s:6.3f}s"
        f"  warm {warm_s:6.3f}s"
        f"  speedup {row['speedup']:5.1f}x"
        f"  ll frozen {frozen_ll:.3f} retrain {retrain_ll:.3f}"
        f" warm {warm_ll:.3f} ({100 * recovered:.1f}% recovered)"
    )
    return row


def validate(payload: dict) -> list[str]:
    """Schema + acceptance check; returns a list of problems."""
    problems = []
    if "results" not in payload:
        return ["missing top-level 'results'"]
    rows = payload["results"]
    if not isinstance(rows, list) or not rows:
        return ["'results' must be a non-empty list"]
    paper_fit = paper_refresh = 0
    for i, row in enumerate(rows):
        schema = (
            FIT_SCHEMA if row.get("kind") == "fit" else REFRESH_SCHEMA
        )
        for field, kind in schema.items():
            if field not in row:
                problems.append(f"results[{i}]: missing {field!r}")
            elif kind is float:
                if not isinstance(row[field], (int, float)):
                    problems.append(
                        f"results[{i}].{field}: not numeric"
                    )
            elif not isinstance(row[field], kind):
                problems.append(
                    f"results[{i}].{field}: expected {kind.__name__}"
                )
        if row.get("kind") == "fit":
            if not row.get("restarts_identical", False):
                problems.append(
                    f"results[{i}]: stacked restarts diverged from"
                    " restarts fitted alone"
                )
            if row.get("paper_geometry"):
                paper_fit += 1
        elif row.get("paper_geometry"):
            paper_refresh += 1
            if row.get("speedup", 0.0) < MIN_REFRESH_SPEEDUP:
                problems.append(
                    f"results[{i}]: refresh speedup"
                    f" {row.get('speedup')} <"
                    f" {MIN_REFRESH_SPEEDUP}x vs retrain at paper"
                    " geometry"
                )
            if row.get("recovered_fraction", 0.0) < MIN_RECOVERED_FRACTION:
                problems.append(
                    f"results[{i}]: refresh recovered"
                    f" {row.get('recovered_fraction')} <"
                    f" {MIN_RECOVERED_FRACTION} of the holdout"
                    " likelihood the frozen engine loses"
                )
    if not payload.get("smoke") and (
        paper_fit == 0 or paper_refresh == 0
    ):
        problems.append(
            "full run must include paper-geometry fit and refresh rows"
        )
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small geometries, no paper-geometry gates (CI smoke)",
    )
    parser.add_argument(
        "--validate",
        metavar="JSON",
        help="validate an existing output file and exit",
    )
    parser.add_argument("--output", default=None)
    args = parser.parse_args(argv)

    if args.validate:
        path = Path(args.validate)
        if not path.is_file():
            print(f"INVALID: no such file: {path}", file=sys.stderr)
            return 1
        try:
            payload = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            print(f"INVALID: not JSON: {exc}", file=sys.stderr)
            return 1
        problems = validate(payload)
        if problems:
            for problem in problems:
                print(f"INVALID: {problem}", file=sys.stderr)
            return 1
        print(
            f"{args.validate}: valid"
            f" ({len(payload['results'])} result rows)"
        )
        return 0

    if args.smoke:
        fit_grid = [(8, 2, 8_000, False)]
        refresh_grid = [(8, 8_000, 12_000, False)]
        output = args.output or "BENCH_train_throughput.smoke.json"
    else:
        fit_grid = [
            (8, 4, 40_000, False),
            (16, 4, 40_000, False),
            (64, 4, 40_000, True),  # simulator-default K
        ]
        refresh_grid = [
            (8, 24_000, 49_152, False),
            (64, 24_000, 49_152, True),
        ]
        output = args.output or "BENCH_train_throughput.json"

    results = []
    for k, n_init, n, paper in fit_grid:
        results.append(bench_fit(k, n_init, make_points(n), paper))
    for k, n_train, n_buffered, paper in refresh_grid:
        results.append(bench_refresh(k, n_train, n_buffered, paper))

    payload = {
        "bench": "train_throughput",
        "smoke": bool(args.smoke),
        "refresh_repeats": REFRESH_REPEATS,
        "gates": {
            "min_refresh_speedup_paper": MIN_REFRESH_SPEEDUP,
            "min_recovered_fraction_paper": MIN_RECOVERED_FRACTION,
        },
        "results": results,
    }
    problems = validate(payload)
    Path(output).write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {output}")
    if problems:
        for problem in problems:
            print(f"INVALID: {problem}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
