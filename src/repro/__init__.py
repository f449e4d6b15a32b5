"""repro: Energy-Efficient SAR Processing on a Manycore Architecture.

A from-scratch reproduction of Zain-ul-Abdin, Åhlander & Svensson,
"Energy-Efficient Synthetic-Aperture Radar Processing on a Manycore
Architecture" (ICPP 2013): fast factorized back-projection (FFBP) and
autofocus criterion calculation for stripmap SAR, evaluated on a
discrete-event model of a 16-core Epiphany-like manycore against an
i7-like sequential reference.

Layers (bottom up):

- :mod:`repro.geometry`, :mod:`repro.signal` -- SAR/DSP substrates,
- :mod:`repro.sar` -- the algorithms (GBP, FFBP, autofocus, quality),
- :mod:`repro.machine` -- the architecture simulator (the hardware
  substitute; see DESIGN.md),
- :mod:`repro.runtime` -- SPMD / MPMD programming models,
- :mod:`repro.kernels` -- the paper's implementations on the machines,
- :mod:`repro.eval` -- the Table I / figure reproduction harness.

Quickstart::

    import repro

    cfg = repro.RadarConfig.small()
    scene = repro.Scene.single(*cfg.scene_center())
    data = repro.simulate_compressed(cfg, scene)
    image = repro.ffbp(data, cfg)
    print(image.peak_pixel())
"""

from importlib import import_module

_EXPORTS: dict[str, str] = {
    "autofocus_table": "repro.eval.table1",
    "ffbp_table": "repro.eval.table1",
    "full_table1": "repro.eval.table1",
    "IsotropicAntenna": "repro.geometry.antenna",
    "SpotlightAntenna": "repro.geometry.antenna",
    "StripmapAntenna": "repro.geometry.antenna",
    "PointTarget": "repro.geometry.scene",
    "Scene": "repro.geometry.scene",
    "LinearTrajectory": "repro.geometry.trajectory",
    "PerturbedTrajectory": "repro.geometry.trajectory",
    "EpiphanyChip": "repro.machine.chip",
    "CpuMachine": "repro.machine.cpu",
    "profile_run": "repro.machine.profile",
    "CpuSpec": "repro.machine.specs",
    "EpiphanySpec": "repro.machine.specs",
    "ActivityRecorder": "repro.machine.tracing",
    "DataflowGraph": "repro.runtime.dataflow",
    "impulse_response": "repro.sar.analysis",
    "autofocus_search": "repro.sar.autofocus",
    "ffbp_with_autofocus": "repro.sar.autofocus",
    "ProcessingChain": "repro.sar.chain",
    "RadarConfig": "repro.sar.config",
    "FfbpOptions": "repro.sar.ffbp",
    "ffbp": "repro.sar.ffbp",
    "gbp_cartesian": "repro.sar.gbp",
    "gbp_polar": "repro.sar.gbp",
    "CartesianGrid": "repro.sar.grids",
    "PolarGrid": "repro.sar.grids",
    "range_doppler_image": "repro.sar.rda",
    "simulate_compressed": "repro.sar.simulate",
    "simulate_raw": "repro.sar.simulate",
}
"""Public name -> the module that defines it.  Names load on first
access (PEP 562), so ``import repro.serve.service`` -- or any other
entry point -- imports only the layers it uses."""


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    value = getattr(import_module(module), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))


__version__ = "1.0.0"

__all__ = [
    "autofocus_table",
    "ffbp_table",
    "full_table1",
    "IsotropicAntenna",
    "SpotlightAntenna",
    "StripmapAntenna",
    "profile_run",
    "ActivityRecorder",
    "DataflowGraph",
    "impulse_response",
    "ProcessingChain",
    "range_doppler_image",
    "PointTarget",
    "Scene",
    "LinearTrajectory",
    "PerturbedTrajectory",
    "EpiphanyChip",
    "CpuMachine",
    "CpuSpec",
    "EpiphanySpec",
    "autofocus_search",
    "ffbp_with_autofocus",
    "RadarConfig",
    "FfbpOptions",
    "ffbp",
    "gbp_cartesian",
    "gbp_polar",
    "CartesianGrid",
    "PolarGrid",
    "simulate_compressed",
    "simulate_raw",
    "__version__",
]
