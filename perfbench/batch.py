"""The seeded farm batch of the ``farm-batch`` workload.

``repro.serve.demo_jobs`` gives every ``run`` job variant ``p`` and only
four apps, so the benchmark builds its own batch.  Its *shape* is fixed,
so that seeds change the inputs and not how much work a batch is or the
order it is served in:

* every app gets the same kinds (one ``run``, one ``compare``, two
  ``sweep`` and two ``chaos`` jobs: 48 jobs), in app order;
* the ``run`` jobs cycle through all four variants;
* a quarter of the ``run`` and ``compare`` jobs carry ``default_plan``
  faults (the same jobs for every seed);
* priorities cycle 0, 1, 2 by position, as in ``demo_jobs``.

The seed draws every job's data seed (index arrays, fault and chaos
random streams), every fault plan's seed and every tenant.
"""

from __future__ import annotations

import random

#: Kinds each app contributes to the default batch.
KINDS_PER_APP: tuple[str, ...] = ("run", "compare", "sweep", "sweep",
                                  "chaos", "chaos")
RUN_VARIANTS: tuple[str, ...] = ("o", "p", "nofilter", "adaptive")
TENANTS: tuple[str, ...] = ("acme", "globex", "initech")
#: Positions, among the run and compare jobs, that carry faults.
FAULTED: frozenset[int] = frozenset({1, 6, 9, 14})


def make_batch(seed: int, memory_pages: int, pages: int,
               tiny: bool = False) -> list:
    """The batch for ``seed`` (identical seed => identical specs).

    ``tiny`` gives each app a single job, cycling through the four
    kinds (the self-tests' batch).
    """
    from repro.apps.registry import ALL_APPS
    from repro.config import PlatformConfig
    from repro.faults.plan import default_plan
    from repro.serve import JobSpec

    rng = random.Random(seed)
    disks = PlatformConfig().num_disks
    if tiny:
        kinds = ("run", "compare", "sweep", "chaos")
        rows = [(a, spec.name, kinds[a % len(kinds)])
                for a, spec in enumerate(ALL_APPS)]
    else:
        rows = [(a, spec.name, kind) for a, spec in enumerate(ALL_APPS)
                for kind in KINDS_PER_APP]
    jobs = []
    faultable = 0
    for k, (a, app, kind) in enumerate(rows):
        job_seed = rng.randrange(1, 1 << 30)
        fields = dict(kind=kind, app=app, memory_pages=memory_pages,
                      pages=pages, seed=job_seed, priority=k % 3,
                      tenant=rng.choice(TENANTS))
        if kind == "run":
            fields["variant"] = RUN_VARIANTS[a % len(RUN_VARIANTS)]
        elif kind == "sweep":
            fields["multiples"] = (0.5, 1.25)
        elif kind == "chaos":
            fields["intensities"] = (0.5,)
            fields["variant"] = ("p", "o")[a % 2]
        if kind in ("run", "compare"):
            if faultable in FAULTED:
                fields["faults"] = default_plan(disks, job_seed).to_dict()
            faultable += 1
        jobs.append(JobSpec(job_id=f"job-{k:02d}", **fields))
    return jobs
