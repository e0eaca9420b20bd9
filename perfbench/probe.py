"""Child-process probes for measurements that need a fresh interpreter.

    probe.py setup problem FILE      import fodesolve, parse a problem file
    probe.py setup signal FILE       import fodesolve, read a t,value CSV
    probe.py import RUN PARENT       time `import fodesolve`
    probe.py weights RUN PARENT SPEC cold weight_table builds, SPEC a JSON
                                     list of [kind, order, n]
    probe.py stepper RUN PARENT FILE H T_END
                                     first and warm solve, then
                                     reconstruct_derivatives

Each prints one JSON object on stdout.  The traced modes return their
spans so the benchmark process can merge them under PARENT.
"""

from __future__ import annotations

import json
import sys


def _setup(kind: str, path: str) -> dict:
    import fodesolve
    if kind == "problem":
        with open(path) as fh:
            problem = fodesolve.parse_problem(fh.read())
        return {"terms": len(problem.terms)}
    import numpy as np
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    series = fodesolve.SampleSeries(float(data[1, 0] - data[0, 0]), data[:, 1])
    return {"samples": len(series)}


def _traced(mode: str, run_id: str, parent: str, args: list) -> dict:
    from tracing import Tracer, duration
    tr = Tracer(run_id, parent)
    out: dict = {}
    if mode == "import":
        with tr.span("fodesolve.import") as rec:
            import fodesolve  # noqa: F401
        out["import_s"] = duration(rec)
    elif mode == "weights":
        import fodesolve
        total = 0.0
        for kind, order, n in json.loads(args[0]):
            with tr.span("operators.weight_table") as rec:
                fodesolve.weight_table(kind, order, n)
            total += duration(rec)
        out["weights_s"] = total
    elif mode == "stepper":
        import numpy as np
        import fodesolve as fs
        path, h, t_end = args[0], float(args[1]), float(args[2])
        with open(path) as fh:
            problem = fs.parse_problem(fh.read())
        cfg = fs.SolverConfig(h=h, t_end=t_end)
        with tr.span("stepper.solve") as first:
            fs.solve(problem, cfg)
        with tr.span("stepper.solve") as warm:
            traj = fs.solve(problem, cfg)
        system = fs.build_system(problem)
        with tr.span("stepper.reconstruct_derivatives") as rec:
            derivs = fs.reconstruct_derivatives(
                traj.z1, system.initial_conditions, problem.leading_order, system.m1)
        out.update(
            nodes=len(traj.y),
            finite=bool(np.all(np.isfinite(traj.y.values))
                        and all(np.all(np.isfinite(d.values)) for d in derivs)),
            first_s=duration(first), warm_s=duration(warm),
            reconstruct_s=duration(rec))
    else:
        raise SystemExit(f"unknown probe mode {mode!r}")
    out["spans"] = tr.spans
    return out


def main(argv: list) -> int:
    if len(argv) < 1:
        raise SystemExit(__doc__)
    mode = argv[0]
    if mode == "setup":
        result = _setup(argv[1], argv[2])
    else:
        result = _traced(mode, argv[1], argv[2], argv[3:])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
