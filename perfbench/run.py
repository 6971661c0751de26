"""opnav benchmark: the flight path and the Monte Carlo simulator.

Run from the repository root:

    python3 perfbench/run.py --workload flight --seed 1 --seconds 22 --trace 0

Workloads (one process, one caller, closed loop):

  campaign  default config; repeated 4-scenario ``harness.run_campaign``
            calls over sigma_r = 1e4, 1e5, 1e6, 1e7, each followed by the
            three output writers.  The only workload that renders inside
            the timed region; a "frame" is one scenario.
  flight    default config; frames rendered before timing, then
            ``harness.solve_attitude`` + ``harness.detect_beacons`` at
            sigma_r = 1e5 per frame, which is what ``opnav process`` does.
  crowded   the flight loop on a denser sky (9000 stars to magnitude 7.5,
            render cutoff 7.5, 800 ms exposure): more centroids per frame,
            where star identification dominates.

All inputs derive from ``--seed``.  Every frame (campaign batch) is
processed twice and must give the same output both times; every frame is
scored against its ground truth with ``harness.classify_outcome``.  With
``--trace 0`` the last line of stdout is the JSON result with the
end-to-end metrics of BENCHMARK.json; with ``--trace 1`` the second pass
is traced (see tracing.py) and the last line holds the per-layer metrics.
Spans are written to ``.bench_out/`` in the repository root.  METRICS.md
describes every metric.
"""

from __future__ import annotations

import os

# One worker thread: the numbers measure the program, not the scheduler.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import shutil
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"

WORKLOADS = ("campaign", "flight", "crowded")
CAMPAIGN_SIGMA_R = (1e4, 1e5, 1e6, 1e7)
FLIGHT_SIGMA_R = 1e5
CAMPAIGN_BATCH = 4  # scenarios per run_campaign call
MAX_BATCHES = 128
CHUNK = 8  # frames rendered at a time, outside the timed region
MAX_FRAMES = 512  # caps the untimed rendering a fast flight path would need
MIN_FRAMES = 200  # so that ten frames lie beyond frame_ms_p95
WARMUP = 2  # frames (or one small campaign) run untimed first
SETUP_REPEATS = 7
DIGEST_FRAMES = 64  # leading frames (scenarios on campaign) in the output digest
# A sane pipeline fails on a few percent of records at most (campaign at
# sigma_r = 1e7 is the worst case); far more means it is broken.
FAIL_CEILING = 0.25
REF_MS = 4.0  # yardstick time on the machine of the first baseline (METRICS.md)
LABELS = {
    "1.I", "1.II", "1.III.A", "1.III.B", "1.III.C", "1.III.D", "1.III.E", "1.III.F",
    "2.I", "2.II", "2.III", "ATT_WRONG", "ATT_NONE",
}
FAILURES = {"ATT_NONE", "ATT_WRONG", "1.II", "2.III"}


def is_failure(label: str) -> bool:
    return label in FAILURES or label.startswith("1.III") or label not in LABELS


def import_opnav():
    """Import opnav from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    if not (src / "opnav" / "__init__.py").is_file():
        raise ImportError(f"no opnav sources under {src}")
    sys.path.insert(0, str(src))
    import opnav

    if not Path(opnav.__file__).resolve().is_relative_to(src):
        raise ImportError(f"opnav imported from {opnav.__file__}, not from {src}")


@dataclass
class Bench:
    cfg: object
    camera: object
    catalog: object
    db: object
    index: object
    planets: tuple
    identify_cfg: object
    budget: object


@dataclass
class Frame:
    index: int
    image: object
    truth: object
    planets: tuple
    est_position_km: object
    ransac_cfg: object


class Yardstick:
    """Host speed, measured with a fixed computation between timed parts.

    On a shared host the same code runs 20-40 % slower for minutes at a
    time.  End-to-end timings are multiplied by REF_MS over the
    yardstick's time, taken as the mean scale measured just before and
    just after them, which cancels most of that drift; the raw timings are
    printed beside them.
    """

    def __init__(self):
        self._pixels = np.random.default_rng(0).integers(0, 256, (1024, 1024), dtype=np.uint8)
        self.times: list[float] = []

    def _once(self) -> float:
        t0 = perf_counter()
        acc = 0
        for i in range(30000):  # interpreter speed
            acc += i * i
        self._pixels.astype(np.float64).std()  # memory speed
        return perf_counter() - t0

    def scale(self) -> float:
        best = min(self._once() for _ in range(5))
        self.times.append(best)
        return REF_MS / (1e3 * best)


@dataclass
class Tally:
    """What the timed loop saw: per-frame times, labels, digests."""

    frame_s: list = field(default_factory=list)
    scales: list = field(default_factory=list)  # Yardstick.scale per frame
    traced_s: list = field(default_factory=list)  # same frames, traced
    chunks: list = field(default_factory=list)  # (frames, seconds, scale) per chunk or batch
    scored: int = 0
    failures: int = 0
    raised: int = 0
    mismatches: int = 0  # the second pass gave another output than the first
    check_errors: int = 0
    labels: dict = field(default_factory=dict)
    digest: object = field(default_factory=hashlib.sha256)
    digested: int = 0

    def add_time(self, first: float, second: float, traced: bool, scale: float, repeat: int = 1) -> None:
        """A frame's latency is the faster of its two passes, which drops
        short interference from other processes on a shared host.  A traced
        second pass is kept apart instead: it measures the tracing overhead."""
        self.scales.extend([scale] * repeat)
        if traced:
            self.frame_s.extend([first] * repeat)
            self.traced_s.extend([second] * repeat)
        else:
            self.frame_s.extend([min(first, second)] * repeat)

    def score(self, labels) -> None:
        for label in labels:
            self.scored += 1
            self.failures += is_failure(label)
            self.labels[label] = self.labels.get(label, 0) + 1


def workload_config(name: str):
    from opnav.config import PipelineConfig

    if name == "crowded":
        return PipelineConfig(
            sky_star_count=9000, sky_mag_faint=7.5, render_mag_cutoff=7.5, exposure_ms=800.0
        )
    return PipelineConfig()


def build_bench(cfg, tracer, yardstick: Yardstick) -> tuple[Bench, list[float], list[float]]:
    """Synthetic sky + pair database + k-vector, built SETUP_REPEATS
    times; returns the last build, the build times and their scales."""
    from opnav import skysim, star_catalog

    times = []
    scales = []
    if tracer:
        tracer.install()
    try:
        for _ in range(SETUP_REPEATS):
            scale = yardstick.scale()
            t0 = perf_counter()
            catalog = skysim.synthetic_catalog(
                cfg.sky_star_count, cfg.sky_seed, cfg.sky_mag_bright, cfg.sky_mag_faint, cfg.sky_mag_slope
            )
            db = star_catalog.build_pair_database(catalog, cfg.mag_limit, cfg.max_pair_angle_rad)
            index = star_catalog.build_kvector(db)
            times.append(perf_counter() - t0)
            scales.append((scale + yardstick.scale()) / 2)
    finally:
        if tracer:
            tracer.restore()
    bench = Bench(
        cfg=cfg,
        camera=cfg.camera(),
        catalog=catalog,
        db=db,
        index=index,
        planets=skysim.solar_system(),
        identify_cfg=cfg.identify_config(),
        budget=cfg.budget(FLIGHT_SIGMA_R),
    )
    return bench, times, scales


def timed(fn, *args):
    t0 = perf_counter()
    try:
        out = fn(*args)
    except Exception as exc:  # counted as a failed frame
        traceback.print_exc()
        out = exc
    return perf_counter() - t0, out


def traced_call(tracer, frame_id, root, fn, *args):
    tracer.install()
    tracer.frame = frame_id
    try:
        t0 = perf_counter()
        rec = tracer.open(root)
        try:
            out = fn(*args)
        except Exception as exc:
            traceback.print_exc()
            out = exc
        tracer.close(rec)
        return perf_counter() - t0, out
    finally:
        tracer.frame = None
        tracer.restore()


# ---------------------------------------------------------------------------
# flight and crowded


def render_frames(bench: Bench, seed: int, specs) -> list[Frame]:
    """Render scenarios exactly as run_campaign seeds them."""
    from opnav.renderer import SceneSpec, render

    cfg = bench.cfg
    frames = []
    for spec in specs:
        scene = SceneSpec(
            camera=bench.camera,
            true_attitude=spec.pointing,
            sc_position_km=spec.sc_position_km,
            star_catalog=bench.catalog,
            planets=spec.planets,
            render_mag_cutoff=cfg.render_mag_cutoff,
            background_mean_dn=cfg.background_mean_dn,
            background_sigma_dn=cfg.background_sigma_dn,
            photon_noise=cfg.photon_noise,
            seed=np.random.SeedSequence((seed, spec.index, 1)),
            anchor_mag=cfg.anchor_mag,
            anchor_peak_dn=cfg.anchor_peak_dn,
        )
        image, truth = render(scene)
        ransac_seed = int(np.random.SeedSequence((seed, spec.index, 2)).generate_state(1)[0])
        eta = np.random.default_rng(np.random.SeedSequence((seed, spec.index, 3))).standard_normal(3)
        frames.append(
            Frame(
                index=spec.index,
                image=image.data,
                truth=truth,
                planets=spec.planets,
                est_position_km=spec.sc_position_km + FLIGHT_SIGMA_R * eta,
                ransac_cfg=cfg.ransac_config(ransac_seed),
            )
        )
    return frames


def process_frame(bench: Bench, frame: Frame):
    from opnav import harness

    attitude_out = harness.solve_attitude(
        frame.image, bench.camera, bench.catalog, bench.db, bench.index,
        bench.identify_cfg, frame.ransac_cfg,
    )
    beacons = harness.detect_beacons(
        attitude_out, bench.camera, frame.est_position_km, frame.planets,
        bench.budget, bench.cfg.ellipse_floor_px,
    )
    return attitude_out, beacons


def frame_digest(out) -> bytes:
    """Matches, quaternion and selected spike of one processed frame."""
    attitude_out, beacons = out
    h = hashlib.sha256()
    if attitude_out.retry is not None:
        for m in attitude_out.retry.result.matches:
            h.update(f"{m.centroid_index}:{m.star_id};".encode())
    if attitude_out.solution is not None:
        h.update(np.asarray(attitude_out.solution.quaternion.q, dtype=float).tobytes())
    for name in sorted(beacons):
        obs = beacons[name]
        h.update(f"{name}:{obs.spike_index};".encode())
        if obs.selected_px is not None:
            h.update(np.asarray(obs.selected_px, dtype=float).tobytes())
    return h.digest()


def run_flight(bench: Bench, seed: int, seconds: float, tracer, yardstick: Yardstick) -> Tally:
    from opnav import harness

    specs = harness.sample_scenarios(WARMUP + MAX_FRAMES, seed, bench.cfg, bench.camera, bench.planets)
    for frame in render_frames(bench, seed, specs[:WARMUP]):
        process_frame(bench, frame)
    tally = Tally()
    elapsed = 0.0
    pos = WARMUP
    while (elapsed < seconds or len(tally.frame_s) < MIN_FRAMES) and pos < len(specs):
        chunk = render_frames(bench, seed, specs[pos : pos + CHUNK])
        pos += len(chunk)
        scale = yardstick.scale()
        first = [timed(process_frame, bench, frame) for frame in chunk]
        second = [
            traced_call(tracer, frame.index, "frame", process_frame, bench, frame)
            if tracer
            else timed(process_frame, bench, frame)
            for frame in chunk
        ]
        scale = (scale + yardstick.scale()) / 2
        for frame, (dt, out), (dt_b, out_b) in zip(chunk, first, second):
            tally.add_time(dt, dt_b, bool(tracer), scale)
            elapsed += dt + dt_b
            if isinstance(out, Exception):
                tally.raised += 1
                tally.score(["EXCEPTION"])
                continue
            if isinstance(out_b, Exception) or frame_digest(out) != frame_digest(out_b):
                tally.mismatches += 1
            outcome = harness.classify_outcome(frame.truth, *out, bench.camera, bench.cfg)
            tally.score([outcome.label])
            if tally.digested < DIGEST_FRAMES:
                tally.digest.update(frame_digest(out))
                tally.digested += 1
        tally.chunks.append((len(chunk), sum(tally.frame_s[-len(chunk) :]), scale))
    return tally


# ---------------------------------------------------------------------------
# campaign


def campaign_batch(bench: Bench, master_seed: int, out_dir: Path):
    """What ``opnav montecarlo`` does after set-up, for one small campaign."""
    from opnav import harness

    report = harness.run_campaign(
        CAMPAIGN_BATCH, CAMPAIGN_SIGMA_R, master_seed, bench.cfg,
        bench.catalog, bench.db, bench.index, bench.planets,
    )
    harness.write_scenarios_csv(report.records, out_dir / "scenarios.csv")
    harness.write_pdf_errors_csv(report.records, out_dir / "pdf_errors.csv")
    harness.write_report(report, out_dir / "report.txt")
    return report


def batch_seed(seed: int, batch: int) -> int:
    return int(np.random.SeedSequence((seed, batch)).generate_state(1)[0])


def read_outputs(report, out_dir: Path) -> bytes:
    """CSV bytes of one batch; raises if they disagree with the records."""
    scenarios = (out_dir / "scenarios.csv").read_bytes()
    pdf_errors = (out_dir / "pdf_errors.csv").read_bytes()
    rows = scenarios.decode().splitlines()[1:]
    labels = [row.split(",")[11] for row in rows]
    if labels != [r.outcome.label for r in report.records]:
        raise ValueError("scenarios.csv labels differ from the campaign records")
    if len(report.records) != CAMPAIGN_BATCH * len(CAMPAIGN_SIGMA_R):
        raise ValueError(f"expected {CAMPAIGN_BATCH * len(CAMPAIGN_SIGMA_R)} records, got {len(report.records)}")
    return scenarios + b"\0" + pdf_errors


def run_campaign_workload(
    bench: Bench, seed: int, seconds: float, tracer, yardstick: Yardstick, work_dir: Path
) -> Tally:
    dirs = (work_dir / "first", work_dir / "second")
    for d in dirs:
        d.mkdir(parents=True)
    campaign_batch(bench, batch_seed(seed, MAX_BATCHES), dirs[0])  # warm-up
    tally = Tally()
    per_batch = CAMPAIGN_BATCH * len(CAMPAIGN_SIGMA_R)
    elapsed = 0.0
    for batch in range(MAX_BATCHES):
        if elapsed >= seconds:
            break
        master = batch_seed(seed, batch)
        scale = yardstick.scale()
        dt, report = timed(campaign_batch, bench, master, dirs[0])
        if tracer:
            dt_b, report_b = traced_call(tracer, batch, "batch", campaign_batch, bench, master, dirs[1])
        else:
            dt_b, report_b = timed(campaign_batch, bench, master, dirs[1])
        scale = (scale + yardstick.scale()) / 2
        tally.add_time(dt / CAMPAIGN_BATCH, dt_b / CAMPAIGN_BATCH, bool(tracer), scale, CAMPAIGN_BATCH)
        tally.chunks.append((CAMPAIGN_BATCH, tally.frame_s[-1] * CAMPAIGN_BATCH, scale))
        elapsed += dt + dt_b
        if isinstance(report, Exception):
            tally.raised += per_batch
            tally.score(["EXCEPTION"] * per_batch)
            continue
        try:
            outputs = read_outputs(report, dirs[0])
            if isinstance(report_b, Exception) or read_outputs(report_b, dirs[1]) != outputs:
                tally.mismatches += 1
        except (OSError, ValueError, IndexError):
            tally.check_errors += 1
            outputs = b""
        tally.score([r.outcome.label for r in report.records])
        if tally.digested < DIGEST_FRAMES:
            tally.digest.update(outputs)
            tally.digested += CAMPAIGN_BATCH
    return tally


# ---------------------------------------------------------------------------
# metrics and provenance


def end_to_end_metrics(tally: Tally, setup_times, setup_scales, scaled: bool = True) -> dict:
    def k(scale):
        return scale if scaled else 1.0

    ms = [1e3 * t * k(scale) for t, scale in zip(tally.frame_s, tally.scales)]
    return {
        "setup_s": statistics.median(t * k(scale) for t, scale in zip(setup_times, setup_scales)),
        "frames_per_s": statistics.median(n / (t * k(scale)) for n, t, scale in tally.chunks),
        "frame_ms_p50": statistics.median(ms),
        "frame_ms_p95": statistics.quantiles(ms, n=20)[18],
        "ok_frac": 1.0 - tally.failures / tally.scored,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer_metrics(tracer, tally: Tally) -> dict:
    from tracing import ROOT_SPANS, SETUP_SPANS, SPANS

    frames = len(tally.traced_s)
    totals = tracer.totals()
    out = {}
    for name in {s[2] for s in SPANS} - set(SETUP_SPANS):
        calls, incl, self_s, raised = totals.get((name, True), [0, 0.0, 0.0, 0])
        out[f"{name}.ms"] = 1e3 * incl / frames
        out[f"{name}.self_ms"] = 1e3 * self_s / frames
        out[f"{name}.calls"] = calls / frames
        out[f"{name}.raised"] = raised / frames
    for name in SETUP_SPANS:  # per build, not per frame
        calls, incl = totals.get((name, False), [0, 0.0])[:2]
        out[f"{name}.ms"] = 1e3 * incl / calls if calls else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    v = tracer.values
    root = sum(totals.get((r, True), [0, 0.0])[1] for r in ROOT_SPANS)
    layer_self = sum(
        acc[2] for (name, in_frame), acc in totals.items() if in_frame and name not in ROOT_SPANS
    )
    out.update(
        {
            "renderer.noise_quantize.ms": out["renderer.render.self_ms"],
            "attitude_solver.wahba_svd.degenerate": out["attitude_solver.wahba_svd.raised"],
            "centroiding.centroids": ratio(v["centroiding.centroids"], out["centroiding.find_centroids.calls"] * frames),
            "star_catalog.kvector_range_query.rows": v["star_catalog.kvector_range_query.rows"] / frames,
            "star_id.identify_stars.success_ratio": ratio(
                v["star_id.identify_stars.successes"], out["star_id.identify_stars.calls"] * frames
            ),
            "star_id.match_ratio": ratio(v["star_id.matched"], v["star_id.matched_of"]),
            "attitude_solver.inlier_ratio": ratio(v["attitude_solver.inliers"], v["attitude_solver.inliers_of"]),
            "beacon_detection.gate_accept_ratio": ratio(
                v["beacon_detection.gate_accepts"], out["beacon_detection.detect_beacon.calls"] * frames
            ),
            "geometry.angular_separation.calls": v["geometry.angular_separation.calls"] / frames,
            "geometry.los_from_pixel.calls": v["geometry.los_from_pixel.calls"] / frames,
            "trace.frame_ms": 1e3 * sum(tally.traced_s) / frames,
            "trace.overhead_frac": sum(tally.traced_s) / sum(tally.frame_s) - 1.0,
            "trace.self_coverage": ratio(layer_self, root),
        }
    )
    return out


def machine_info(seed: int, workload: str, tally: Tally) -> dict:
    import scipy

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_revision": git_revision(),
        "source_sha256": source_digest(),
        "frames": len(tally.frame_s),
        "scored": tally.scored,
    }


def git_revision() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "opnav").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def declared_metrics(key: str) -> list[tuple[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in spec[key]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        import_opnav()
        declared = declared_metrics("per_layer" if args.trace else "end_to_end")
    except (ImportError, OSError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    from tracing import Tracer

    origin = perf_counter()
    tracer = Tracer() if args.trace else None
    yardstick = Yardstick()
    cfg = workload_config(args.workload)
    bench, setup_times, setup_scales = build_bench(cfg, tracer, yardstick)
    work_dir = OUT_DIR / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        if args.workload == "campaign":
            tally = run_campaign_workload(bench, args.seed, args.seconds, tracer, yardstick, work_dir)
        else:
            tally = run_flight(bench, args.seed, args.seconds, tracer, yardstick)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    fail_frac = tally.failures / tally.scored
    correct = (
        tally.raised == 0
        and tally.check_errors == 0
        and tally.mismatches == 0
        and fail_frac <= FAIL_CEILING
        and len(tally.frame_s) >= 2
    )
    detail = {
        "machine": machine_info(args.seed, args.workload, tally),
        "fail_frac": fail_frac,
        "labels": dict(sorted(tally.labels.items())),
        "output_sha256": tally.digest.hexdigest(),
        "digest_frames": tally.digested,
        "yardstick_ms": 1e3 * statistics.median(yardstick.times),
        "unscaled": end_to_end_metrics(tally, setup_times, setup_scales, scaled=False),
    }
    if tracer:
        OUT_DIR.mkdir(exist_ok=True)
        trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(trace_path, origin)
        detail["trace_file"] = str(trace_path.relative_to(ROOT))
        detail["spans"] = len(tracer.spans)
        values = per_layer_metrics(tracer, tally)
    else:
        values = end_to_end_metrics(tally, setup_times, setup_scales)
    print(json.dumps(detail, indent=1))
    metrics = {}
    for name, unit in declared:
        metrics[name] = {"value": values[name], "unit": unit}
        print(f"{name:48s} {values[name]:14.6g} {unit}")
    result = {"correct": correct, "attempted": tally.scored, "failed": tally.raised, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
