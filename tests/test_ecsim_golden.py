"""Golden hashes of what the built-in corrector feeds into ``tune`` and ``sweep``.

The scenario is small and seeded: a 6 kb genome read 3 000 times at 50 bp,
plus reads holding one or two N, with substitutions injected at the low rate.
``tune`` runs at its defaults on a 600-read sample; ``sweep --truth`` covers
odd and even k up to the packing limit.  The hashes were recorded with the
corrector that searched every single-base replacement of a weak window; they
pin later search strategies to the same bytes.

``correct`` is pinned on its own too, at each k of ``CORRECT_KS`` and two
solid thresholds, and so is a 600-read sample corrected against the whole
set's spectrum, so the corrector stays pinned when ``tune`` or ``sweep``
change what they feed it.
"""

from __future__ import annotations

import hashlib

import pytest

from ectuner.cli import main
from ectuner.ecsim import KSpectrumConfig, kmer_spectrum, kspectrum_correct
from ectuner.injector import generate_genome, sample_clean_reads
from ectuner.seqio import Read, load_reads, sample_reads, write_fastq

SHA256 = {
    "tune/corrected.fastq": "f346c7a79b1f88c5533d05a47299a1decf563dc6508ce239622f10a1bbfcb9bc",
    "tune/search.json": "5d7c8b9b72bb7e95023ad9c5ba57a4f0dcf35cb56f5cef9b23abe83288debdbe",
    "sweep.json": "1e8c5102d41dae65eddcfbea090de6707dbb803e45923fffcdad3340ee812946",
}


@pytest.fixture(scope="module")
def scenario(tmp_path_factory):
    base = tmp_path_factory.mktemp("ecsim-golden")
    genome = generate_genome(6_000, seed=91)
    clean = list(sample_clean_reads(genome, 3_000, 50, seed=92))
    for i in range(60):
        seq = genome[97 * i : 97 * i + 50]
        at = (13 * i) % 50
        seq = seq[:at] + "N" * (1 + i % 2) + seq[at + 1 + i % 2 :]
        clean.append(Read(f"n{i}", seq[:50]))
    truth, noisy = str(base / "clean.fastq"), str(base / "noisy.fastq")
    write_fastq(clean, truth)
    assert main(["inject", "--reads", truth, "--out", noisy, "--seed", "93"]) == 0
    return base, truth, noisy


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_tune_bytes_are_pinned(scenario, capsys):
    base, _, noisy = scenario
    out = base / "tune"
    rc = main(["tune", "--reads", noisy, "--out-dir", str(out),
               "--sample-n", "600", "--seed", "94"])
    assert rc == 0
    capsys.readouterr()
    for name in ("corrected.fastq", "search.json"):
        assert _sha256(out / name) == SHA256[f"tune/{name}"], name


def test_sweep_bytes_are_pinned(scenario, capsys):
    base, truth, noisy = scenario
    out = base / "sweep.json"
    rc = main(["sweep", "--reads", noisy, "--truth", truth,
               "--values", "2,9,16,17,25,32", "--json-out", str(out)])
    assert rc == 0
    capsys.readouterr()
    assert _sha256(out) == SHA256["sweep.json"]


CORRECT_KS = (1, 2, 9, 11, 13, 15, 17, 19, 21, 23, 25, 31, 32)

# (k, solid_min) -> sha256 of `correct --k k --solid-min solid_min`'s FASTQ
CORRECT_SHA256 = {
    (1, 2): "3b70f413a006060a804d00a013ecea14e26d4e78b6922b8edfb63bb3e83e50ca",
    (1, 3): "3b70f413a006060a804d00a013ecea14e26d4e78b6922b8edfb63bb3e83e50ca",
    (2, 2): "b9594447ab4ea9be50ab2ae7fc5afa459271d04ebd5366ca5ed792b68e9f9404",
    (2, 3): "b9594447ab4ea9be50ab2ae7fc5afa459271d04ebd5366ca5ed792b68e9f9404",
    (9, 2): "0195b667c8783cca8f325d73d8662dde31c136ae6cadafa19d8ed1108346c401",
    (9, 3): "9f1c900bab3bbe5265095b7ed7ad1672ff975aa40ca410f7d4d599377d7109c8",
    (11, 2): "8525e1de02576db4e8922e9d5c0ecf93d429739175b59a5453b08b7dc2ff030d",
    (11, 3): "81a1e34371fbd14cd9655f7c429627a7ab250d12c4309f6c8a5ee601119c3630",
    (13, 2): "c90a011b266ddea5d080bc8d79ea0a29da69d829a2a838cd64fe4fc292b40c0b",
    (13, 3): "2d6699db57d381f7dd82ccc74fcdbb8c5077c6a1b06fad427347f770daaa1cf5",
    (15, 2): "e79718f0839a117621fe0815210c046de062d91a05de13f7afaee31a7044e55a",
    (15, 3): "f4d69ef371d25234d6303139064d506b02797c422bbbe84087832b43e6096620",
    (17, 2): "b66eb1433e824ce07f7716347c9521e256e20394b5cb2189cdee84d10c628dfc",
    (17, 3): "b216f88c4fce31219c4af51b0d1e8e43f8b308e5ac5e17dfcef831177626f664",
    (19, 2): "f88211882ef25e89fa286921d2bf3df5eedb60e35a56f523aa228d69b854e8fc",
    (19, 3): "a9978dcb53ac851d658200f64fbcc0356d06981f1ec6242fb5f5c48bcc2af5da",
    (21, 2): "68edd928a14f9971c7cc77a7d0a91c57a2f7d2f0f93ddf835c3c869c383a614b",
    (21, 3): "d773b3796c9fe88c2565426b4a4b3d279ceb9ec360d01088e6fc40b12dc70730",
    (23, 2): "6046216fc0935cd894de4206b9f64af5eebc0fddb0da6a78826aedb05ac83f10",
    (23, 3): "a0b2b0301487f80b6d5b825e97b5009c17ba94738165f5920af79a82d8575b51",
    (25, 2): "3fe92e2a85614f01294a3094969b3267d105479ad83dec63373d2e03ec3841cb",
    (25, 3): "f346c7a79b1f88c5533d05a47299a1decf563dc6508ce239622f10a1bbfcb9bc",
    (31, 2): "815b3e9671baba470ec8c219b5f9f46e91232658e73d9b9b1d9145f8e0f8a10a",
    (31, 3): "7bc5c1e3a6394800f0f9815c92cab09622d3b179fccceaecead1d816f9797494",
    (32, 2): "602a6d7ba4b4dff7c6fb6d43558b904a0b07b54bd4f7dbb70babc2fdfa59ff9d",
    (32, 3): "0eb556e0d49c623b70f2e83018f4a888fbaf875788861b5839ad9b9a9c5a03e6",
}

# k -> sha256 of the sample corrected against the whole set's k-spectrum
SAMPLE_SHA256 = {
    1: "468c8dcecc11037c3ccc1610f58f55c4ee01b4284d72dbe8be992b078980e479",
    2: "20b1418a3f54fb52b8f1c749b1be8d2addedd76b70e5cc18b4f74a4dff0679d8",
    9: "842af8e55502e4b9b41c4ded0691760378dc001a94be51eaffdda37529d4bf2e",
    11: "83b77ae7dd7330566bbf0df192843cbe1def2c8481a4c7feaba83f6f5544cfe6",
    13: "95259ebf28e16b3fe3845fe899a7c65dd71461628e59d6ba9d1adf27beae9deb",
    15: "9a57e83e6614a49721af72ed11873d6575b55e2ea7965756c8a5f6f7cc8a69fa",
    17: "83460a5f312f9c19711fb1beb1c0ac1416bde757cb21873385dfa65149675bf0",
    19: "bdccf35fceb455af9cd4008a6eec5d659f97d5be5bef094e5b6d417586afadb7",
    21: "977fc19c2a0691c01e1ff4b18d733adde8efb52ce1233765562e26fff083199c",
    23: "9d072a981cc43e1ace8e7f3e703944a857b8c123eb08fa669983c7b274b86292",
    25: "044e807dfe08222b8afd71a044bf51bac1837b404fa2eda57e58ddf5c0cca3d3",
    31: "05372328241dfca0dd28f5094bac6a74ec2351964e1f0a045b8f69e9b5771941",
    32: "a2314bb367752e9da9cf7ef17fcdcfb41eca6ae8d927e0f3db6334b191814345",
}


@pytest.mark.parametrize("solid_min", [2, 3])
@pytest.mark.parametrize("k", CORRECT_KS)
def test_correct_bytes_are_pinned(scenario, capsys, k, solid_min):
    base, _, noisy = scenario
    out = base / f"correct-{k}-{solid_min}.fastq"
    rc = main(["correct", "--reads", noisy, "--out", str(out),
               "--k", str(k), "--solid-min", str(solid_min)])
    assert rc == 0
    capsys.readouterr()
    assert _sha256(out) == CORRECT_SHA256[k, solid_min]


@pytest.mark.parametrize("k", CORRECT_KS)
def test_sample_corrected_against_the_full_spectrum_is_pinned(scenario, k):
    base, _, noisy = scenario
    reads = load_reads(noisy)
    sample = sample_reads(reads, 600, seed=95)
    fixed = kspectrum_correct(sample, KSpectrumConfig(k), kmer_spectrum(reads, k))
    out = base / f"sample-{k}.fastq"
    write_fastq(fixed, str(out))
    assert _sha256(out) == SAMPLE_SHA256[k]
