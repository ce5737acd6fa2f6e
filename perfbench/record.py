"""Record the expected outputs that the benchmark checks against.

    python3 perfbench/record.py

Writes ``perfbench/expected.json`` for each of the ``RECORDED_SEEDS``
input variants (a run with seed n uses variant n % RECORDED_SEEDS): the
SHA-256 of every preset's ``trace.csv`` (noise-free presets once, noise
presets per variant), a digest of the analysis summary of every member
of the sweep cycle, the digests of the ``check`` input traces and their
``run_metrics`` values, and the text of ``verify all``. The values
depend on the platform's libm (sin, cos, exp, log) and on numpy: on
another machine they can differ in the last bits without a defect, so
record them again there, from a commit whose traces are trusted. Takes
about 15 minutes on one core.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(HERE))
    import run
    import workloads as W

    W.import_gimbalsim()
    tmp = HERE / ".tmp" / "record"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    variants = range(W.RECORDED_SEEDS)
    try:
        def digests(variant, noisy):
            rp = W.RunPresets(variant, tmp / f"run-presets{variant}", recording=True)
            out = {}
            for i, p in enumerate(rp.presets):
                if rp.sim.preset(p).noise.enabled == noisy:
                    o = rp.op(i)
                    if rp.check(i, o):
                        raise RuntimeError(f"run-presets {p} variant {variant} fails its checks")
                    out[p] = o["sha256"]
            return out

        expected = {
            "note": (
                "Recorded by perfbench/record.py. Digests and values depend on libm "
                "(sin, cos, exp, log) and numpy of the machine in 'env'; rerun the "
                "recorder on another machine."
            ),
            "env": run.environment(),
            "run-presets": {
                "trace_sha256": digests(0, noisy=False),
                "seeded_trace_sha256": {str(v): digests(v, noisy=True) for v in variants},
            },
            "sweep": {"summaries_sha256": {}},
            "check": {"trace_sha256": {}, "run_metrics": {}},
        }
        for v in variants:
            sw = W.Sweep(v, tmp / f"sweep{v}", recording=True)
            expected["sweep"]["summaries_sha256"][str(v)] = " ".join(
                W.summary_digest(sw.run_member(sw.member(i))[1])
                for i in range(len(W.SWEEP_COMBOS)))
            ck = W.Check(v, tmp / f"check{v}", recording=True)
            expected["check"]["trace_sha256"][str(v)] = ck.input_sha256
            expected["check"]["run_metrics"][str(v)] = {
                d.name: W.metrics_hex(ck.cli.run_metrics(rec)) for d, rec in ck.inputs}
        rc, verify = ck._main(["verify", "all"])
        if rc != 0:
            raise RuntimeError("verify all fails")
        expected["check"]["verify_all"] = verify
    finally:
        shutil.rmtree(HERE / ".tmp", ignore_errors=True)
    (HERE / "expected.json").write_text(json.dumps(expected, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
