"""One fresh benchmark worker process.

    python3 perfbench/worker.py SPEC.json     # timed (and optionally traced) calls
    python3 perfbench/worker.py --probe SRC    # only time `import bipartite_ab`

The worker times `import bipartite_ab`, then calls `bipartite_ab.cli.main`
in a closed loop (one caller that waits for each call) until its time
budget is spent, and writes timings, its peak RSS and, when traced, the
span summary as JSON. It generates no inputs, so its RSS is the program's.
The calibration kernel runs before the first call, during every call and
after it, so each timing can be scaled by the host speed measured around it.
"""

from __future__ import annotations

import ctypes
import json
import sys
import time
from pathlib import Path

import calibrate
import tracing

BLAS_THREAD_SYMBOLS = (
    "openblas_get_num_threads",
    "scipy_openblas_get_num_threads64_",
    "openblas_get_num_threads64_",
)


def _import_package(src: str):
    sys.path.insert(0, src)
    start = time.perf_counter()
    import bipartite_ab

    elapsed = time.perf_counter() - start
    if not Path(bipartite_ab.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise SystemExit(f"imported {bipartite_ab.__file__}, not the package under {src}")
    return bipartite_ab, elapsed


def blas_facts() -> dict:
    """BLAS library as numpy reports it, and its thread pool size as the
    loaded library reports it (None when it cannot be asked)."""
    import numpy as np

    facts = {"blas": None, "blas_threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        facts["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        pass
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "blas" in line.lower()})
    except OSError:
        libs = []
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in BLAS_THREAD_SYMBOLS:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                facts["blas_threads"] = int(fn())
                return facts
    return facts


def _argv(template, out_dir: Path):
    return [str(out_dir) if a == "{out}" else a for a in template]


def run(spec: dict) -> dict:
    package, import_s = _import_package(spec["src"])
    from bipartite_ab.cli import main

    run_dir = Path(spec["run_dir"])
    seconds = spec["seconds"]
    tracer = tracing.Tracer() if spec["trace"] else None
    calls = []
    kernel = [calibrate.kernel_seconds() for _ in range(3)]
    import_scaled_s = calibrate.scale(import_s, kernel)
    start = time.perf_counter()
    while True:
        # a traced run alternates traced and untraced calls so that
        # trace.overhead_s compares like with like; the traced call goes
        # first so that its RSS spans see the fresh process's high-water mark
        for traced in ((True, False) if tracer else (False,)):
            out = run_dir / f"call-{len(calls)}"
            argv = _argv(spec["argv"], out)
            if traced:
                tracer.install()
            with calibrate.InCallSampler() as sampler:
                t0 = time.perf_counter()
                try:
                    code = tracer.root(main, argv) if traced else main(argv)
                finally:
                    wall = time.perf_counter() - t0 - sampler.paused_s
                    if traced:
                        tracer.uninstall()
            kernel.append(calibrate.kernel_seconds())
            around = [kernel[-2], *sampler.samples, kernel[-1]]
            calls.append({"out": str(out), "code": code, "wall_s": wall,
                          "scaled_s": calibrate.scale(wall, around),
                          "paused_s": sampler.paused_s, "kernel_s": around,
                          "traced": traced})
        elapsed = time.perf_counter() - start
        per_round = elapsed / (len(calls) // (2 if tracer else 1))
        if elapsed + per_round > seconds:
            break
    result = {
        "import_s": import_s,
        "import_scaled_s": import_scaled_s,
        "kernel_s": kernel,
        "calls": calls,
        "peak_rss_mb": tracing.peak_rss_mb(),
        "package_version": getattr(package, "__version__", None),
        **blas_facts(),
    }
    if tracer:
        (run_dir / "spans.json").write_text(json.dumps(
            {"columns": ["name", "start", "end", "parent"], "spans": tracer.spans}
        ), encoding="utf-8")
        result["span_summary"] = tracing.summarize(tracer.spans)
        result["counters"] = dict(tracer.counters)
        result["values"] = dict(tracer.values)
        result["missing"] = tracer.missing
    return result


def main():
    if sys.argv[1] == "--probe":
        _, import_s = _import_package(sys.argv[2])
        kernel = [calibrate.kernel_seconds() for _ in range(3)]
        print(json.dumps({"import_s": import_s, "kernel_s": kernel,
                          "import_scaled_s": calibrate.scale(import_s, kernel)}))
        return
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    result = run(spec)
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main()
