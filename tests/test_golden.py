"""Golden outputs: every preset CSV, seeded extraction files (one of them
over digits too wide for a byte) and single-walk readouts, byte for byte.

The digests pin what the program wrote before its walk, sweep and hash
code were last simplified.  Changing one is a deliberate output change:
CHANGES.md records the old digest, the new one and why.

The preset digests hold under every OpenBLAS kernel, because the sweep
makes no BLAS call, and under every numpy SIMD level tried.  The
`evolve` and `extract -T` digests do not: `evolve` steps with a complex
matmul, which a DYNAMIC_ARCH OpenBLAS runs on a kernel it picks per CPU
at run time.  They were taken on its SkylakeX kernel.  Under
`OPENBLAS_CORETYPE=Sandybridge`, 9 of this file's 27 tests fail: every
`evolve` digest and every `extract -T` digest but the `wide` run's,
which passes.  Under Haswell the general-coin flip-Y `evolve` digest
differs (ROADMAP item 2).  That
digest also differs under numpy's X86_V2 baseline loops, whose complex
`np.abs` rounds some values apart from the AVX2 and AVX-512 loops.
"""

import hashlib
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

from qwrng.cli import main
from qwrng.experiments import PRESET_NAMES

PRESET_TMAX = "20"

PRESET_DIGESTS = {
    "table1": "22aa88fef025b05e4b132f174ce44b8b77dbb471055c7fc0773f76f4872df39b",
    "table2": "4f84cfe289bed4ecff5aea40ac88f2df51457364b472c29ffa7bd3552c053b5f",
    "table3": "b4af1344711da05769a81dd5100760aac4aa4a740442515237c4e5008cef56f6",
    "table4": "30088988534cf74cbd9c2333d697b90aa77ae8686fd7e0a136ba1914ba18b1ba",
    "table5": "8e1ae740f080e1546c3f0cc2df371a11c87c8a7f088eaf48de315e1928ce2832",
    "table6": "8ef070eac0839be7cb74627b1d2525be8b90c5070bd8449cb5d06b43dd9fab68",
    "kappa1": "03358b345b70dd1f0b11d53e9da77c84ed7458b0d8dd163d1853fb9ac61369d6",
    "fig1": "f66614ae501bbdac343d582bb9e29d9b5f32cdc72e4ef5ca9e5cb5a56c82545f",
    "fig2": "aa2f0b03d558e3fae52a3b11e8df34a2863a79eca45ed9ef24ac97de2ab9b284",
    "fig3": "a04bd0a4eff28f9fcedb372bfb6e13afd305b21a1351d1f7216dd9522310ea28",
    "fig4": "34f46e3f57ecf646bfb22469c37693b52a87e63c7605e4d4c0e3ea7168f2fbeb",
    "fig5": "a9b14364400b47bcdc291ed3bcee8e8ad1a5fa4471ea614c8bd6c01f06b3ec6f",
    "fig6": "993cd92214f372bf721822516a2571f42b92254ba74fd4ea6b9f5c4aaa5867d4",
    "fig7": "5fd2b5b69711e5a8b0ab470736a4070c0c3e8dbe9594723a1ad3ad787db10d66",
}

# seeded extraction runs: the three readouts at one fixed walk, a kappa = 3
# position readout (its marginal sums eight coin weights), one run
# without -T, whose walk and gamma come from a sweep, one whose source
# depolarizes signals, so that every sampling stream is drawn, and one
# over 336 outcomes, whose digits are too wide for a byte: uint16 digits,
# found by np.searchsorted and encoded in 9 bits
EXTRACT_RUNS = {
    "all": ("-P", "5", "-k", "2", "-T", "636", "--mode", "all", "--seed", "7"),
    "memory": ("-P", "5", "-k", "2", "-T", "636", "--mode", "memory", "--seed", "7"),
    "position": ("-P", "5", "-k", "2", "-T", "636", "--mode", "position", "--seed", "7"),
    "kappa3-position": ("-P", "5", "-k", "3", "-T", "137", "--mode", "position", "--seed", "3"),
    "swept": ("-P", "3", "-k", "2", "--coin", "general", "--R", "2", "--tmax", "10",
              "--mode", "memory", "--seed", "1"),
    "depolarized": ("-P", "5", "-k", "2", "-T", "636", "--mode", "position", "-Q", "0.05",
                    "--seed", "7"),
    "wide": ("-P", "21", "-k", "4", "-T", "60", "--mode", "all", "--seed", "7"),
}
# a tenth of the signals tested keeps the finite-size penalty small enough
# that every run outputs bits
EXTRACT_SIZE = ("-N", "100000", "-m", "10000")

EXTRACT_DIGESTS = {
    "all": (
        "3ae138af8ca7a8c3f05f088e952c88553bb7d5c956ce552a7886338e413c968e",
        "7bfcd4e799dc9b0f0d59b4b2dd2409ee2de305074d61da680a43e47538c8988f",
    ),
    "memory": (
        "3fb2da751b92a15e5f3ae3f6feabb58697011b1d8780935829cbfd6b3f0972fa",
        "a483c7df5857a592b67aacdf079b1f2948de6c53a197732309248dc28eef83a7",
    ),
    "position": (
        "e8c4bbb27ba27af85c7742c6dce3aa5bb11ced22b2e9ef0b87ac145398200f86",
        "ab68988959274c6d43e0fabc922a4608d8e77744550611d8e5bdf350b56b1db3",
    ),
    "kappa3-position": (
        "bad89b674c910d346159030c1e653c1b733d0f9bd81efb8f469efd454166b36e",
        "c005935188125562fac81c3f1976605e73a9c477e23f54280b38211e20edea71",
    ),
    "swept": (
        "564211938b0353f4ab5205bd9ae83675381a8951e67bc33c30d512ecea3d8145",
        "00d027e36fbe3339d780ee5b8c3e381097f6284d741049816c6a9f89d4d9b763",
    ),
    "depolarized": (
        "edd73affe34bbe406a6e130626b96e191624b91890e8f891b81116e1bde7d154",
        "55721449bb72fe87e21bf90775905426fc8ab937208ce12effedad655ff2c10b",
    ),
    "wide": (
        "b9c0682d23cc91fee25f335b42600158ffad36eebacea0cc635b11ae888b6c22",
        "100a4290c81f5592e4ce0b6f51ed2963baf0f04a28ac465a5648d19b7c37b8c5",
    ),
}


# `evolve --json` at kappa = 3, where the position marginal adds eight coin
# weights, in every readout, plus a general-coin walk after a Y flip
EVOLVE_RUNS = {
    "all": ("-P", "5", "-k", "3", "-T", "137", "--mode", "all"),
    "memory": ("-P", "5", "-k", "3", "-T", "137", "--mode", "memory"),
    "position": ("-P", "5", "-k", "3", "-T", "137", "--mode", "position"),
    "general-y-position": ("-P", "21", "-k", "3", "-T", "60", "--coin", "general",
                           "--theta", "0.3", "--phi", "1.0", "--flip", "y",
                           "--mode", "position"),
}

EVOLVE_DIGESTS = {
    "all": "cd86838e860666ef6d497c1f0dd83b0358b20ccd9faf2f73801571599eb9080b",
    "memory": "9743818bf11009b953aaa6d3e078972c13860a72c9c339a1c858adbedda52a72",
    "position": "f007ebfc12d3df3f480c9e9bf4d9ba3e2bd95e5bf6411513e6ed6e8a7a0ea4d2",
    "general-y-position": "50e9c3be9b335741bfc88356f990b5939da29ddbfe2048f7778e1ea7b21a029b",
}


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def preset_csvs(out: Path) -> dict[str, str]:
    """Digest of each preset's CSV at the short sweep window."""
    for name in PRESET_NAMES:
        command = "curve" if name.startswith("fig") else "table"
        rc = main([command, name, "--tmax", PRESET_TMAX, "--no-timestamp", "-o", str(out)])
        assert rc == 0, name
    return {name: sha256(out / f"{name}.csv") for name in PRESET_NAMES}


def extract_files(name: str, out: Path) -> tuple[str, str]:
    """Digests of one seeded run's record and its non-empty bits."""
    stem = out / name
    assert main(["extract", *EXTRACT_RUNS[name], *EXTRACT_SIZE, "-o", str(stem)]) == 0
    bits = stem.with_name(name + ".bits")
    assert bits.stat().st_size > 0, f"{name} aborted"
    return sha256(stem.with_name(name + ".record.txt")), sha256(bits)


@pytest.fixture(scope="module")
def preset_digests(tmp_path_factory):
    return preset_csvs(tmp_path_factory.mktemp("presets"))


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_preset_csv_is_golden(preset_digests, name):
    assert preset_digests[name] == PRESET_DIGESTS[name]


@pytest.mark.parametrize("name", EXTRACT_RUNS)
def test_extract_files_are_golden(tmp_path, name):
    assert extract_files(name, tmp_path) == EXTRACT_DIGESTS[name]


@pytest.mark.parametrize("name", EVOLVE_RUNS)
def test_evolve_json_is_golden(capsys, name):
    assert main(["evolve", *EVOLVE_RUNS[name], "--json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == EVOLVE_DIGESTS[name]


def run_tables_under(tmp_path: Path, **env_vars: str) -> None:
    """Run table2, table4, table5 and table6 in a fresh interpreter under `env_vars`.

    Their digests are checked: every mode's readout, general and Hadamard.
    """
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, **env_vars, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    names = ("table2", "table4", "table5", "table6")
    script = ("import sys; from qwrng.cli import main; "
              "sys.exit(max(main(['table', name, '--tmax', sys.argv[1], '--no-timestamp', "
              "'-o', sys.argv[2]]) for name in sys.argv[3:]))")
    done = subprocess.run([sys.executable, "-c", script, PRESET_TMAX, str(tmp_path), *names],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    for name in names:
        assert sha256(tmp_path / f"{name}.csv") == PRESET_DIGESTS[name], name


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                    reason="OpenBLAS core names are x86-64 ones")
def test_table_csvs_do_not_depend_on_the_blas_kernel(tmp_path):
    # Prescott is OpenBLAS's oldest x86-64 core, so every x86-64 CPU runs it;
    # a core newer than the CPU could stop the run with SIGILL
    run_tables_under(tmp_path, OPENBLAS_CORETYPE="Prescott")


def test_table_csvs_do_not_depend_on_numpy_simd_dispatch(tmp_path):
    # the sweep's ufuncs run numpy's SIMD loops, chosen per CPU at run time;
    # disabling every dispatch target leaves the build's baseline loops
    targets = pytest.importorskip("numpy._core._multiarray_umath").__cpu_dispatch__
    if not targets:
        pytest.skip("this numpy build has no SIMD dispatch targets")
    run_tables_under(tmp_path, NPY_DISABLE_CPU_FEATURES=" ".join(targets))
