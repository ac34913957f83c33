"""Regenerate ``reference.json``: the seed-0 result digests of every workload.

Run from the repository root, only after an intentional change to the
program's results::

    python3 paperbench/make_reference.py

``paper_sweep`` passes its golden and serial re-checks before its digest is
recorded.  ``model_resweep`` draws a new heating model for every job, so it
records one digest per job index for the first :data:`MODEL_JOBS` jobs.
"""

import json
import sys

import run

MODEL_JOBS = 128


class JobFailed(RuntimeError):
    """A job failed its own checks, so its digest cannot be a reference."""


def reference_digests(model_jobs: int = MODEL_JOBS) -> dict:
    """Seed-0 digests: one per workload, one per job for ``model_resweep``."""

    run.import_program()
    reference = {}
    for cls, jobs in ((run.PaperSweep, 1), (run.ModelResweep, model_jobs),
                      (run.FleetSmall, 1)):
        workload = cls(0)
        digests = []
        try:
            workload.setup()
            for index in range(jobs):
                job, outcome = workload.run(index, run.HostProbe(enabled=False))
                workload.check(job, outcome, index)
                if job.failed:
                    raise JobFailed(f"{cls.name} job {index} failed: {job.notes}")
                digests.append(job.digest)
        finally:
            if hasattr(workload, "cleanup"):
                workload.cleanup()
        reference[cls.name] = digests if cls is run.ModelResweep else digests[0]
        print(f"{cls.name}: {len(digests)} digest(s)")
    return reference


def main() -> int:
    try:
        reference = reference_digests()
    except JobFailed as exc:
        print(exc, file=sys.stderr)
        return 1
    run.REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
