"""Plan values are pinned: every ``StagePlan`` array hashes to a fixed digest.

Each case is a cold :func:`repro.kernels.ffbp_common.plan_ffbp` of a
paper-derived geometry at one prefetch window.  The digest covers every
stage's scalar fields and its four per-row arrays, each cast to int64 or
float64 first, so it pins the plan's *values* whatever dtype the plan
stores them in.  A planner rewrite must leave every digest unchanged.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.kernels.ffbp_common import plan_ffbp
from repro.perf import memo_disabled
from repro.sar.config import RadarConfig

PAPER = (1024, 1001)
WINDOWS = (0, 8008, 16016, 32032)
# (n_pulses, n_ranges, window_bytes): the paper config, then 256, 512
# and 1024 pulses at an even and an odd range count.
CASES = [PAPER + (w,) for w in WINDOWS] + [
    (pulses, ranges, w)
    for pulses in (256, 512, 1024)
    for ranges in (400, 677)
    for w in WINDOWS
]


def plan_digest(n_pulses: int, n_ranges: int, window_bytes: int) -> str:
    cfg = RadarConfig.paper().with_(n_pulses=n_pulses, n_ranges=n_ranges)
    with memo_disabled():
        plan = plan_ffbp(cfg, window_bytes)
    h = hashlib.sha256()
    for s in plan.stages:
        h.update(
            repr(
                (s.level, s.n_parents, s.beams, s.n_ranges, s.window_rows, s.child_beams)
            ).encode()
        )
        h.update(s.valid_frac.astype(np.float64).tobytes())
        for a in (s.reads_row_total, s.reads_row_ext, s.med_row):
            h.update(a.astype(np.int64).tobytes())
    return h.hexdigest()


DIGESTS = {
    (1024, 1001, 0): "6959eb4eb74d95f65674eb833656c12330cc80b8387c9499e334dcc3976beb7f",
    (1024, 1001, 8008): "6959eb4eb74d95f65674eb833656c12330cc80b8387c9499e334dcc3976beb7f",
    (1024, 1001, 16016): "5a436f8aac1b135916241a82fea0d235d2db64ff31294bc30a05acff3cfd1b39",
    (1024, 1001, 32032): "30d94bcf11584912d2c4d1d30aaaeabc91c76ff837305cb36464cf514dbd75c1",
    (256, 400, 0): "633a32979a4f02c547bb1ea8924c68dd1f7980b2831bf02f942682223e066cb1",
    (256, 400, 8008): "fc8e78ad6c25aac3d769ed2d921c833e9a32a799daf4e404d1fd8f39971b7a3e",
    (256, 400, 16016): "8309434a5b69b9272211b217355c981c27bf7fa013d505ee75b0092ee7246863",
    (256, 400, 32032): "bc8d4fa57d757f4c42b67714f0cf3d15bd9a90d3f4b7242f37838fdb7cd00e1e",
    (256, 677, 0): "e26b8d460dbd9deaecbab692cae4a4b835415d77c55ed65df7546f335e90b2b3",
    (256, 677, 8008): "e26b8d460dbd9deaecbab692cae4a4b835415d77c55ed65df7546f335e90b2b3",
    (256, 677, 16016): "54cf0df7752888a9eefc1e901beb48b4f218c97e14c1405054be5805498a32a2",
    (256, 677, 32032): "c31c0cb1461d9967a99dc32a61cf453343320ee0433fd523cddca5bc2de17524",
    (512, 400, 0): "d32f128d62652464129cc62e8a189f0a24677dc64c93f2347d208507babf17a2",
    (512, 400, 8008): "d3d4638644495054a0423276c2c3cf3de40df6e3315e2d2101d9d95fcde335c1",
    (512, 400, 16016): "bffd2bff11db32480061f46f075820359c6a15f9cc97e3ab018d5696473393c0",
    (512, 400, 32032): "a88e249e4231fe3bcf5bdd3b6ba50581b8fc951810d66f4174cc6f8ea444d7ff",
    (512, 677, 0): "966044e322e5ab47a30e6f2a324c99fe63502c89dbfed0d290a0a70d9e8a5e77",
    (512, 677, 8008): "966044e322e5ab47a30e6f2a324c99fe63502c89dbfed0d290a0a70d9e8a5e77",
    (512, 677, 16016): "60ba2e6f2480a6c0d68deb8b48e37bf78940319bcdc4b0170d1afac11c9217b3",
    (512, 677, 32032): "9da496ce9e074978d7276a1c6a13d3a514002e7f04ba4a1fdeae0a1559532c34",
    (1024, 400, 0): "cbadccc6690fb0c368c98e9220b7b5a33fa3753711e0e236fd5c999418f65623",
    (1024, 400, 8008): "0e53cf3e40cda92ee14f0c075ded7bef205e586700370f821029cccbe7e911f4",
    (1024, 400, 16016): "509d9fc7d6d483529d9e4b91b61e96fcdd90a4d26a0861862c6a28d64dcefb53",
    (1024, 400, 32032): "e1483bd5101479514b9d80ad0244e8d5e6e28f0f99f2487bbac740f1d207f15f",
    (1024, 677, 0): "338a1c11163af5c77825212335960d5491fa9b5d75b6ec4b9b77c81938fd8be8",
    (1024, 677, 8008): "338a1c11163af5c77825212335960d5491fa9b5d75b6ec4b9b77c81938fd8be8",
    (1024, 677, 16016): "246361c130475b670f4aefe8d05cfc32d8074391f0eabc4ed2e981473b49046a",
    (1024, 677, 32032): "e1e3fce76d9b31a5d8fbba552940884808bf2896092e40c78200ae41454ffa3e",
}


@pytest.mark.parametrize("case", CASES, ids=lambda c: "x".join(map(str, c)))
def test_plan_values_match_pinned_digest(case):
    assert plan_digest(*case) == DIGESTS[case]
