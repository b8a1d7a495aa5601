"""Golden digest of the paper artifacts that ``python -m repro.analysis`` prints.

Each experiment in ``build_registry(quick=True)`` that trains nothing
returns its table or figure as text; the SHA-256 of each text is pinned
here.  The six that train a model (``TRAINING``) are left to the accuracy
tests.  The digests were recorded before the serving and ``nn`` options
that no workload runs were deleted, so a moved digit in any table, figure
or study fails here and names the experiment.
"""

import hashlib

import pytest

from repro.analysis.__main__ import build_registry

TRAINING = frozenset(
    {
        "fig5a",
        "table1",
        "ablation-rounding",
        "ablation-qat",
        "ablation-master-weights",
        "pure-rns",
    }
)
GOLDEN_SHA256 = {
    "fig1b": "93df140d3e26c098fdbcbc3347658fc97d3b05cef59b2fd2ce9a4fce0975ce9f",
    "fig5b": "650ad6de21f62582508562082b1cb89dd6189aafcdf60568e751453e159b78ec",
    "fig6a": "d8252e6bc251dcf50b9c82aac1d595c62af2041e61240d923c2b5f518230a633",
    "fig6b": "5a326f4ad5254f7a6f03613f8cb6b76e0074133e4062aace54287f8d600589d7",
    "fig7a": "2bad007836a8af6ba6092fd5536881588e9a3a8406251a6fcfc78a9fe1a404f0",
    "fig7b": "bab12a57f88c0a3146dc42d24d2d3c3e5101cb97f3a76692f9259558a2874baf",
    "fig8": "80ad5428e0519394885745dede6e649205aaed9fd23a90fc746be4c7a2f9891d",
    "fig9": "10441e26524fba428d35a3e92be619da4fbfa66975946d588fe48fea19799897",
    "table2": "92f8dc14ed09d69d5a1b552b404af12ba27ff8cab91d340eeee0b0e53763190e",
    "table3": "4188d57b2f97fe783ab38bbb563fd9401f03d03a846dae4538150800aa18c04b",
    "noise": "ed7f71d4766d4bcbfd2b6bd8cc98180f03e792adf321476e698bd20cead4378f",
    "ablation-moduli": "acd70a426f8802f8ab43d66d1f0f5b872bfa373d0779bf245c2a8e7a1b978189",
    "ablation-dac": "d6d3ae88dd056a408e92c4a00d448bad141fe628ee951e28f85878628d5537c1",
    "ablation-adc": "46b5a54cd31ef9a5062187dd32ea27cd9f97dbdb3a9716c01e1bb416813aaa10",
    "ablation-dataflow": "b481861013ab6775eaa1962fa2b73d00c1b106875e8bd1cc6b412fe92ea61b74",
    "ablation-interleave": "21a3acd96f245117fb14336ec3839571a749b1298b34e82a9129c5c5fdb8ed65",
    "ablation-batch": "b27ff9ccbb99098584731e0b2359df2d54ad0e7168bc87a1b27e5a6b57eeb3c0",
    "sweep": "5d0c217a1b7457e27eceea8a9a80e1e737f7dbc42499cb9505b31a14b74ac9f4",
    "dnnara": "e70e1255f9ac0845c0b6734bfdd2e5f63192531cc86d38ef86bc74d381f9ea95",
    "pim": "77e0cc2ed3f694e98edfed2396263dec90c25a0414afdfe203f82da35e92149c",
    "base-extension": "0c5d15369197a1bd7740978032347c2548069de81375ebb91a343d0dbd943a44",
    "calibration": "411efa73ee56f153288286d76127e15e4a4c7fef6df2cb53ce7e5bc14bd7c0ca",
    "technology": "dd298420b22c29e6a90c861d2c01a674b5d9d58a1198feb8e2414c3ca322ac58",
    "roofline": "54926bc1a3f38505d3ecdd580bfacf3e74eef756ab4397311682ba8c9dcf9526",
    "rrns-cost": "39a16d9641b604d941f73679917dcde937c38037d0f4170575a64ef1d776c3ff",
    "pipeline-sim": "e4a7cec72ac393f39ecbd3d957a4fcbc4367033351b25e6ab6da3ee9d599c9db",
    "moduli-search": "e6eedc5c0d54f24847dc39340e28c04dfc42e7f90f0dd1b7eb4ede989b07ccca",
    "inference-mode": "e59db4a309aa48c540d05aaeee886a57db63df2cd3333d9e43f941f5224feef4",
}


@pytest.fixture(scope="module")
def registry():
    return build_registry(quick=True)


def test_registry_splits_into_golden_and_training(registry):
    assert TRAINING <= set(registry)
    assert list(GOLDEN_SHA256) == [n for n in registry if n not in TRAINING]


@pytest.mark.parametrize("name", sorted(GOLDEN_SHA256))
def test_paper_artifact_digest(registry, name):
    text = registry[name]()
    assert isinstance(text, str) and text
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_SHA256[name]
