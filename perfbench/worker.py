"""One benchmark process: ``setup`` or ``run`` of one workload.

    python3 perfbench/worker.py setup --workload W --seed N --dir D
    python3 perfbench/worker.py run --workload W --seed N --dir D \\
        --seconds S --trace 0|1

Both print one JSON object as their last line of output. ``setup`` imports
``fastslow.cli``, parses the configs in ``D/configs`` and builds the models,
then exits. ``run`` does the same, runs one untimed pass whose outputs are
checked, then timed passes for ``S`` seconds. With ``--trace 1`` untraced and
traced passes alternate, followed by the kernel probes; the spans go to
``D/spans.json``. Run :mod:`run` rather than this file.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import configs  # noqa: E402  (standard library only)

MIN_PASSES = 3        # timed untraced passes per run
REFERENCE = HERE / "reference_digests.json"
# Seconds the reference kernel takes at the reference machine speed; set-up
# times and serial pass times are rescaled to that speed.
K_REF = 0.2


def reference_kernel() -> float:
    """Wall time of a fixed mix of the work fastslow spends its time on.

    Interpreter-bound steps on 4-element arrays, keyed Philox streams of 200
    normals and a vectorised scan, using numpy only; about 0.2 s. The speed
    of a shared machine drifts by tens of percent over minutes; timing this
    kernel next to every pass measures that drift, and a change to fastslow
    leaves it alone.
    """
    import numpy as np
    start = time.perf_counter()
    x, y = np.zeros(4), np.ones(4)
    for _ in range(16000):
        y = y + 0.01 * (0.5 * x - y) + 0.1
        x = x + 0.001 * (y - x ** 3)
    for i in range(1600):
        key = np.array([i, 7], dtype=np.uint64)
        np.random.Generator(np.random.Philox(key=key)).standard_normal(200)
    ramp = np.linspace(0.0, 1.0, 200_000)
    for _ in range(20):
        np.cumsum(ramp * 0.99)
    return time.perf_counter() - start


def _load(workload, seed, directory):
    start = time.perf_counter()
    import fastslow.cli  # noqa: F401  (the import users pay for)
    imported = time.perf_counter()
    import workloads
    paths = {p.stem: p for p in sorted((directory / "configs").glob("*.cfg"))}
    w = workloads.build(workload, paths, configs.generate(workload, seed)[1])
    return w, imported - start, time.perf_counter() - imported


def _timed_passes(w, out_dir, seconds, tracer=None):
    """Timed passes until ``seconds`` would be overrun, at least MIN_PASSES.

    The reference kernel runs before the first round and after every round.
    With a tracer, each round is one untraced pass and one traced pass, so
    drift in machine speed falls on both alike. Returns the (result, wall)
    lists of the untraced and the traced passes and the kernel times.
    """
    import workloads
    plain, traced, kernels = [], [], [reference_kernel()]

    def one(out, factory=None):
        t0 = time.perf_counter()
        res = workloads.run_pass(w, out_dir, factory)
        out.append((res, time.perf_counter() - t0))

    start = time.perf_counter()
    while len(plain) < MIN_PASSES or (
            time.perf_counter() - start
            + statistics.median(t for _, t in plain + traced) * (
                2 if tracer else 1) <= seconds):
        one(plain)
        if tracer is not None:
            import tracing
            with tracing.installed(tracer):
                one(traced, lambda n: tracing.TracedExecutor(n, tracer))
        kernels.append(reference_kernel())
    return plain, traced, kernels


def _failed_ops(res, reference, failed_checks):
    """Ops that raised, whose output differs from the checked pass, or that
    a failed check covers (an unchanged output repeats the failure)."""
    bad = set(res.failed_ops) | failed_checks
    for name, digest in reference.items():
        if res.digests.get(name) != digest:
            bad.update(res.output_ops.get(name, ()))
    return bad


def _outputs_changed(workload, seed, digests):
    """(outputs differing from the recorded reference, outputs compared)."""
    if not REFERENCE.exists():
        return 0, 0
    ref = json.loads(REFERENCE.read_text()).get(workload, {}).get(str(seed))
    if not ref:
        return 0, 0
    names = set(ref) | set(digests)
    return sum(ref.get(n) != digests.get(n) for n in names), len(names)


def cmd_setup(args):
    _, import_s, parse_s = _load(args.workload, args.seed, args.dir)
    print(json.dumps({"import_s": import_s, "parse_s": parse_s,
                      "speed_scale": K_REF / reference_kernel()}))


def cmd_run(args):
    w, import_s, parse_s = _load(args.workload, args.seed, args.dir)
    import workloads

    t0 = time.perf_counter()
    warm = workloads.run_pass(w, args.dir / "warmup")
    warm_wall = time.perf_counter() - t0
    checks = workloads.check(w, warm)
    failed_checks = {op for c in checks if not c.ok for op in c.ops}
    reference = warm.digests
    passes = [(warm, False)]

    out = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
           "import_s": import_s, "parse_s": parse_s, "warmup_wall": warm_wall}
    if args.trace:
        import probes
        import tracing
        tracer = tracing.Tracer()
        plain, traced, kernels = _timed_passes(w, args.dir / "pass",
                                               args.seconds, tracer)
        tracer.close()
        traced_walls = [t for _, t in traced]
        analyses = {name: cfg.analysis for name, cfg in w.configs.items()}
        layer = tracing.layer_metrics(tracer, analyses, len(traced),
                                      sum(traced_walls),
                                      w.params.get("workers", 1))
        layer["tracing.overhead_s"] = (
            statistics.median(traced_walls)
            - statistics.median(t for _, t in plain))
        layer["machine.kernel_s"] = statistics.median(kernels)
        layer.update(probes.run_probes(args.seed))
        (args.dir / "spans.json").write_text(json.dumps(tracer.dump()))
        out.update(traced_walls=traced_walls, layer=layer,
                   probe_repeats=probes.REPEATS,
                   tracing_missing=tracer.missing, spans=len(tracer.spans))
        passes += [(r, True) for r, _ in traced]
    else:
        plain, _, kernels = _timed_passes(w, args.dir / "pass", args.seconds)
    passes += [(r, False) for r, _ in plain]
    walls = [t for _, t in plain]
    # each pass at the reference speed, from the kernels on either side; a
    # serial kernel does not track passes that run on an executor's threads,
    # so those stay unscaled
    serial = w.params.get("workers", 1) == 1
    scaled = [t * 2 * K_REF / (k0 + k1) if serial else t
              for t, k0, k1 in zip(walls, kernels, kernels[1:])]
    out.update(walls=walls, kernels=kernels, scaled_walls=scaled)

    attempted = failed = 0
    mismatched = []
    for res, traced in passes:
        bad = _failed_ops(res, reference, failed_checks)
        attempted += len(res.ops)
        failed += len(bad)
        if res.digests != reference:
            mismatched.append("traced" if traced else "untraced")
    changed, compared = _outputs_changed(args.workload, args.seed, reference)
    rates = [r.items / t for (r, _), t in zip(plain, scaled)]
    out.update(
        attempted=attempted, failed=failed,
        checks=[{"name": c.name, "ok": c.ok, "detail": c.detail}
                for c in checks],
        errors=sorted({e for res, _ in passes for e in res.errors}),
        digest_mismatches=mismatched, digests=reference,
        outputs_changed=changed, outputs_compared=compared,
        items=warm.items, wall_s=statistics.median(scaled),
        raw_wall_s=statistics.median(walls),
        kernel_s=statistics.median(kernels),
        throughput=statistics.median(rates),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    print(json.dumps(out))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("--workload", required=True, choices=configs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", type=Path, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    (cmd_setup if args.mode == "setup" else cmd_run)(args)


if __name__ == "__main__":
    main()
