"""The 12-entry synthetic benchmark roster (Table I stand-in).

The paper selected 12 SPEC CPU2006 benchmarks that "approximately
uniformly cover the space of low- to high-interference benchmarks"
(Table I).  This module defines synthetic job types with the same names
and the published qualitative character of each benchmark:

* ``hmmer``, ``h264ref``, ``calculix`` — high-IPC compute jobs with
  modest cache footprints (mildly sensitive on the multicore,
  width-hungry on SMT: they form the paper's *linear bottleneck*
  workloads);
* ``mcf``, ``xalancbmk`` — cache-sensitive memory-bound jobs with low
  MLP and small useful windows (pointer chasing);
* ``libquantum`` — a streaming bandwidth hog whose misses barely react
  to cache capacity;
* ``gcc`` (two inputs) — large-footprint integer codes of intermediate
  intensity;
* ``bzip2``, ``perlbench``, ``sjeng``, ``tonto`` — balanced / branchy
  mid-range jobs.

Parameter values are calibrated so that alone-IPCs span roughly 0.2–3.0
on the 4-wide reference core, matching the wide per-job performance
differences the paper leans on in Section V.C.2.
"""

from __future__ import annotations

from repro.microarch.params import JobTypeParams

__all__ = ["default_roster", "BENCHMARK_NAMES"]


_ROSTER: tuple[JobTypeParams, ...] = (
    JobTypeParams(
        name="bzip2",
        category="balanced",
        cpi_base=0.42,
        ilp_sens=0.30,
        w_need=96,
        br_mpki=4.0,
        cpi_short=0.08,
        mpki_inf=1.2,
        mpki_amp=6.0,
        c_half_mb=1.0,
        gamma=1.2,
        mlp=2.5,
    ),
    JobTypeParams(
        name="calculix",
        category="compute",
        cpi_base=0.30,
        ilp_sens=0.50,
        w_need=160,
        br_mpki=0.8,
        cpi_short=0.10,
        mpki_inf=0.3,
        mpki_amp=2.5,
        c_half_mb=1.2,
        gamma=1.5,
        mlp=2.0,
    ),
    JobTypeParams(
        name="gcc.cp-decl",
        category="balanced",
        cpi_base=0.45,
        ilp_sens=0.35,
        w_need=112,
        br_mpki=5.5,
        cpi_short=0.12,
        mpki_inf=1.0,
        mpki_amp=9.0,
        c_half_mb=2.0,
        gamma=1.0,
        mlp=3.0,
    ),
    JobTypeParams(
        name="gcc.g23",
        category="balanced",
        cpi_base=0.48,
        ilp_sens=0.35,
        w_need=112,
        br_mpki=6.0,
        cpi_short=0.12,
        mpki_inf=1.5,
        mpki_amp=15.0,
        c_half_mb=2.5,
        gamma=1.0,
        mlp=3.0,
    ),
    JobTypeParams(
        name="h264ref",
        category="compute",
        cpi_base=0.28,
        ilp_sens=0.60,
        w_need=192,
        br_mpki=2.5,
        cpi_short=0.06,
        mpki_inf=0.4,
        mpki_amp=3.0,
        c_half_mb=1.0,
        gamma=1.5,
        mlp=2.0,
    ),
    JobTypeParams(
        name="hmmer",
        category="compute",
        cpi_base=0.26,
        ilp_sens=0.55,
        w_need=160,
        br_mpki=1.2,
        cpi_short=0.04,
        mpki_inf=0.1,
        mpki_amp=1.5,
        c_half_mb=0.8,
        gamma=1.5,
        mlp=1.5,
    ),
    JobTypeParams(
        name="libquantum",
        category="memory",
        cpi_base=0.40,
        ilp_sens=0.20,
        w_need=64,
        br_mpki=0.3,
        cpi_short=0.05,
        mpki_inf=28.0,
        mpki_amp=2.0,
        c_half_mb=1.0,
        gamma=1.0,
        mlp=6.0,
    ),
    JobTypeParams(
        name="mcf",
        category="memory",
        cpi_base=0.55,
        ilp_sens=0.25,
        w_need=40,
        br_mpki=7.0,
        cpi_short=0.15,
        mpki_inf=12.0,
        mpki_amp=32.0,
        c_half_mb=3.0,
        gamma=0.8,
        mlp=1.6,
    ),
    JobTypeParams(
        name="perlbench",
        category="branch",
        cpi_base=0.38,
        ilp_sens=0.40,
        w_need=128,
        br_mpki=5.0,
        cpi_short=0.10,
        mpki_inf=0.8,
        mpki_amp=4.0,
        c_half_mb=1.2,
        gamma=1.2,
        mlp=2.0,
    ),
    JobTypeParams(
        name="sjeng",
        category="branch",
        cpi_base=0.40,
        ilp_sens=0.30,
        w_need=96,
        br_mpki=9.0,
        cpi_short=0.08,
        mpki_inf=0.5,
        mpki_amp=2.5,
        c_half_mb=0.8,
        gamma=1.2,
        mlp=1.8,
    ),
    JobTypeParams(
        name="tonto",
        category="compute",
        cpi_base=0.33,
        ilp_sens=0.45,
        w_need=144,
        br_mpki=1.5,
        cpi_short=0.09,
        mpki_inf=0.6,
        mpki_amp=4.0,
        c_half_mb=1.2,
        gamma=1.3,
        mlp=2.2,
    ),
    JobTypeParams(
        name="xalancbmk",
        category="memory",
        cpi_base=0.46,
        ilp_sens=0.30,
        w_need=56,
        br_mpki=6.5,
        cpi_short=0.12,
        mpki_inf=3.0,
        mpki_amp=24.0,
        c_half_mb=2.0,
        gamma=1.1,
        mlp=2.2,
    ),
)

BENCHMARK_NAMES: tuple[str, ...] = tuple(job.name for job in _ROSTER)


def default_roster() -> dict[str, JobTypeParams]:
    """The 12 synthetic job types, keyed by name, in Table-I order."""
    return {job.name: job for job in _ROSTER}

