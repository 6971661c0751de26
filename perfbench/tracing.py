"""Spans and counters around calls into opnav, recorded from outside.

Each target is a function looked up as a module attribute at the place
its caller finds it (``opnav.star_id.find_centroids`` is the binding
that ``identify_with_retry`` calls).  ``Tracer.install`` replaces those
attributes with timing wrappers and ``Tracer.restore`` puts the
originals back, so untraced runs execute the unmodified program.  A
target that a later version of opnav no longer has is skipped and its
metrics read 0.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import defaultdict
from time import perf_counter

ROOT_SPANS = ("frame", "batch")  # spans the benchmark itself opens
SETUP_SPANS = ("skysim.synthetic_catalog", "star_catalog.build_pair_database", "star_catalog.build_kvector")


def _rows(values, args, result):
    values["star_catalog.kvector_range_query.rows"] += len(result)


def _centroids(values, args, result):
    values["centroiding.centroids"] += len(result[0])


def _identified(values, args, result):
    if result is not None:
        values["star_id.identify_stars.successes"] += 1
        values["star_id.matched"] += len(result.matches)
        values["star_id.matched_of"] += len(args[0])


def _inliers(values, args, result):
    if result is not None:
        values["attitude_solver.inliers"] += len(result.inlier_centroids)
        values["attitude_solver.inliers_of"] += len(getattr(args[0], "matches", args[0]))


def _gated(values, args, result):
    values["beacon_detection.gate_accepts"] += result is not None


# (module under opnav, attribute, span name, result hook)
SPANS = (
    ("harness", "run_campaign", "harness.run_campaign", None),
    ("harness", "sample_scenarios", "harness.sample_scenarios", None),
    ("harness", "render", "renderer.render", None),
    ("renderer", "render_field", "renderer.render_field", None),
    ("harness", "solve_attitude", "harness.solve_attitude", None),
    ("harness", "identify_with_retry", "star_id.identify_with_retry", None),
    ("star_id", "find_centroids", "centroiding.find_centroids", _centroids),
    ("centroiding", "compute_threshold", "centroiding.compute_threshold", None),
    ("centroiding", "extract_rois", "centroiding.extract_rois", None),
    ("centroiding", "compute_centroid", "centroiding.compute_centroid", None),
    ("star_id", "identify_stars", "star_id.identify_stars", _identified),
    ("star_id", "kvector_range_query", "star_catalog.kvector_range_query", _rows),
    ("harness", "ransac_attitude", "attitude_solver.ransac_attitude", _inliers),
    ("attitude_solver", "wahba_svd", "attitude_solver.wahba_svd", None),
    ("attitude_solver", "principal_axis_angle", "attitude_solver.principal_axis_angle", None),
    ("attitude_solver", "consensus_scores", "attitude_solver.consensus_scores", None),
    ("harness", "detect_beacons", "harness.detect_beacons", None),
    ("harness", "predict_projection", "beacon_detection.predict_projection", None),
    ("beacon_detection", "projection_jacobian", "beacon_detection.projection_jacobian", None),
    ("harness", "detect_beacon", "beacon_detection.detect_beacon", _gated),
    ("harness", "classify_outcome", "harness.classify_outcome", None),
    ("harness", "aggregate", "harness.aggregate", None),
    ("harness", "write_scenarios_csv", "harness.write_outputs", None),
    ("harness", "write_pdf_errors_csv", "harness.write_outputs", None),
    ("harness", "write_report", "harness.write_outputs", None),
    ("skysim", "synthetic_catalog", "skysim.synthetic_catalog", None),
    ("star_catalog", "build_pair_database", "star_catalog.build_pair_database", None),
    ("star_catalog", "build_kvector", "star_catalog.build_kvector", None),
)

# Scalar helpers called hundreds of times per frame: counted, not timed.
COUNTS = (
    ("star_id", "angular_separation", "geometry.angular_separation.calls"),
    ("attitude_solver", "angular_separation", "geometry.angular_separation.calls"),
    ("star_id", "los_from_pixel", "geometry.los_from_pixel.calls"),
)


class Tracer:
    """In-memory span recorder.

    A span is ``[name, start, end, parent, frame, raised]``; ``parent``
    is the index of the enclosing span (-1 at top level) and ``frame``
    the id of the frame or campaign batch being processed (None during
    set-up).
    """

    def __init__(self):
        self.spans: list[list] = []
        self.values: dict[str, float] = defaultdict(float)
        self.frame = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def open(self, name: str) -> list:
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.frame, False]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        return rec

    def close(self, rec: list) -> None:
        rec[2] = perf_counter()
        self._stack.pop()

    def _span(self, fn, name, hook):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[5] = True
                raise
            finally:
                tracer.close(rec)
            if hook is not None:
                hook(tracer.values, args, result)
            return result

        return traced

    def _count(self, fn, name):
        values = self.values

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            values[name] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for mod_name, attr, name, hook in SPANS:
            self._patch(mod_name, attr, lambda fn: self._span(fn, name, hook))
        for mod_name, attr, name in COUNTS:
            self._patch(mod_name, attr, lambda fn: self._count(fn, name))

    def _patch(self, mod_name, attr, make):
        module = importlib.import_module(f"opnav.{mod_name}")
        fn = getattr(module, attr, None)
        if callable(fn):
            self._saved.append((module, attr, fn))
            setattr(module, attr, make(fn))

    def restore(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def totals(self) -> dict[tuple[str, bool], list[float]]:
        """Per (span name, inside a frame): [calls, inclusive s, self s, raised]."""
        covered = [0.0] * len(self.spans)
        for name, t0, t1, parent, frame, raised in self.spans:
            if parent >= 0:
                covered[parent] += t1 - t0
        out: dict[tuple[str, bool], list[float]] = defaultdict(lambda: [0, 0.0, 0.0, 0])
        for k, (name, t0, t1, parent, frame, raised) in enumerate(self.spans):
            acc = out[(name, frame is not None)]
            acc[0] += 1
            acc[1] += t1 - t0
            acc[2] += t1 - t0 - covered[k]
            acc[3] += raised
        return out

    def write(self, path, origin: float) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, t0, t1, parent, frame, raised in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "name": name,
                            "start_s": round(t0 - origin, 9),
                            "end_s": round(t1 - origin, 9),
                            "parent": parent,
                            "frame": frame,
                            "raised": raised,
                        }
                    )
                    + "\n"
                )
