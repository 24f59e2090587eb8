"""CLI tests: config round trips, artifact layout, determinism, error paths.

Every invocation goes through ``main(argv)`` with outputs under tmp_path, so
these tests exercise exactly what a shell user gets, including exit codes and
the JSON error records on stderr.
"""

import argparse
import csv
import hashlib
import json
import platform
import re
import shlex
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from genlat.cli import (
    ConfigError,
    ExperimentConfig,
    build_parser,
    config_from_dict,
    main,
    parse_config,
    serialize_config,
)
from genlat.core import (
    ApproxFunction,
    CoordinateProduct,
    DyadicSchedule,
    MaxPower,
    PointClass,
    SignedPowerForm,
    VectorOf,
    block_norm,
    lp_norm,
    max_norm,
    mix_seed,
    power_law,
)
from genlat.counting import CountQuery, count_solutions
from genlat.experiments import kg_system_experiment
from genlat.haar import sample_asl
from genlat.volume import verification_matrix


def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def _norms(draw, n):
    kind = draw(st.sampled_from(("max", "lp", "block")))
    if kind == "max":
        return max_norm(n)
    if kind == "lp":
        return lp_norm(n, draw(_floats(1.0, 6.0)))
    if n == 2 or draw(st.booleans()):
        return block_norm(((n, draw(_floats(1.0, 4.0))),))
    k = draw(st.integers(1, n - 1))
    return block_norm(((k, draw(_floats(1.0, 4.0))), (n - k, draw(_floats(1.0, 4.0)))))


@st.composite
def _targets(draw, n):
    kind = draw(st.sampled_from(("spf", "prod", "maxpow", "vec")))
    if kind == "spf":
        p = draw(st.integers(1, n))
        return SignedPowerForm(p, n - p, draw(_floats(1.0, 8.0)))
    if kind == "prod":
        return CoordinateProduct(n)
    coords = tuple(draw(st.permutations(range(n))))
    if kind == "maxpow":
        l = draw(st.integers(1, n - 1))
        exps = tuple(draw(_floats(1.0, 4.0)) for _ in range(l))
        explicit = draw(st.booleans())
        return MaxPower(exps, n, coords[:l] if explicit else None)
    parts = tuple(
        MaxPower((draw(_floats(1.0, 3.0)),), n, (coords[i],))
        for i in range(draw(st.integers(1, n - 1)))
    )
    return VectorOf(parts)


@st.composite
def _configs(draw):
    """Resolved configs: whenever f is set, norm is set too (the parser
    fills the canonical norm in, so unresolved pairs never round-trip)."""
    n = draw(st.integers(2, 4))
    f = draw(st.none() | _targets(n))
    comp = f.component_count if f is not None else draw(st.integers(1, 3))
    psi = draw(
        st.none()
        | st.just(comp).flatmap(
            lambda m: st.tuples(
                *(
                    st.tuples(_floats(0.05, 10.0), _floats(0.0, 3.0), st.integers(0, 3))
                    for _ in range(m)
                )
            ).map(ApproxFunction)
        )
    )
    if f is not None:
        norm = f.canonical_norm() if draw(st.booleans()) else draw(_norms(n))
    else:
        norm = draw(st.none() | _norms(n))
    k0 = draw(st.integers(0, 3))
    schedule = draw(
        st.none()
        | st.builds(
            DyadicSchedule,
            t0=_floats(0.25, 8.0),
            ratio=_floats(1.1, 4.0),
            k0=st.just(k0),
            kmax=st.integers(k0, k0 + 5),
        )
    )
    return ExperimentConfig(
        n=n,
        f=f,
        psi=psi,
        norm=norm,
        point_class=draw(st.sampled_from(PointClass)),
        group=draw(st.sampled_from(("SL", "ASL"))),
        shift_bound=draw(_floats(0.0, 2.0)),
        schedule=schedule,
        sample_count=draw(st.integers(1, 10**6)),
        master_seed=draw(st.integers(0, 2**32 - 1)),
    )


# --------------------------------------------------------------------------
# config round trip


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_configs())
def test_config_roundtrip(cfg):
    data = serialize_config(cfg)
    json.dumps(data)  # must be JSON-ready as is
    assert config_from_dict(data) == cfg


def test_config_roundtrip_fills_canonical_norm():
    cfg = config_from_dict({"n": 3, "f": "spf:p=2,q=1,d=2"})
    assert cfg.norm == SignedPowerForm(2, 1, 2).canonical_norm()
    assert config_from_dict(serialize_config(cfg)) == cfg


def test_config_unknown_key_named():
    with pytest.raises(ConfigError) as err:
        config_from_dict({"n": 2, "bogus": 1})
    assert err.value.key == "bogus"


def test_config_bad_psi_named():
    with pytest.raises(ConfigError) as err:
        config_from_dict({"n": 2, "psi": "pl:C=-1,s=0,j=0"})
    assert err.value.key == "psi"


def test_config_dimension_mismatch_named():
    with pytest.raises(ConfigError) as err:
        config_from_dict({"n": 3, "f": "prod:n=2"})
    assert err.value.key == "f"


def test_config_zero_n_named():
    with pytest.raises(ConfigError) as err:
        config_from_dict({"n": 0})
    assert err.value.key == "n"


def test_config_norm_dimension_mismatch_named():
    with pytest.raises(ConfigError) as err:
        config_from_dict({"n": 3, "norm": "block:1:inf,1:inf"})
    assert err.value.key == "norm"


def test_config_integer_keys_take_integral_numbers_and_digit_strings():
    cfg = config_from_dict({"n": 2.0, "sampleCount": "3", "masterSeed": 4.0})
    assert (cfg.n, cfg.sample_count, cfg.master_seed) == (2, 3, 4)
    assert all(type(x) is int for x in (cfg.n, cfg.sample_count, cfg.master_seed))


def test_config_schedule_object_takes_integral_numbers_and_digit_strings():
    cfg = config_from_dict({"n": 2, "schedule": {"t0": 1, "ratio": "3", "k0": 1.0, "kmax": "3"},
                            "shiftBound": "0.5"})
    assert cfg.schedule == DyadicSchedule(1.0, 3.0, 1, 3)
    assert type(cfg.schedule.k0) is int and type(cfg.schedule.kmax) is int
    assert cfg.shift_bound == 0.5


class TestConfig:
    def test_valid_config(self):
        cfg = ExperimentConfig(
            n=3,
            f=SignedPowerForm(2, 1, 2),
            psi=power_law(1.0, 0.5, 0),
            norm=block_norm(((2, 2), (1, 2))),
            sample_count=10,
        )
        assert cfg.group == "SL"

    def test_bad_sample_count(self):
        with pytest.raises(ValueError, match="sampleCount"):
            ExperimentConfig(n=2, sample_count=0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="does not match"):
            ExperimentConfig(n=3, f=SignedPowerForm(1, 1, 2))

    def test_bad_group(self):
        with pytest.raises(ValueError, match="group"):
            ExperimentConfig(n=2, group="GL")


# --------------------------------------------------------------------------
# shared runners


def _run(argv):
    return main([str(a) for a in argv])


def _stderr_record(capsys):
    err = capsys.readouterr().err.strip().splitlines()
    assert err, "expected a JSON error record on stderr"
    return json.loads(err[-1])


def _read_jsonl(prefix):
    return [json.loads(line) for line in Path(f"{prefix}.jsonl").read_text().splitlines()]


def _read_manifest(prefix):
    return json.loads(Path(f"{prefix}.manifest.json").read_text())


# --------------------------------------------------------------------------
# artifacts


def test_volume_default_matrix(tmp_path):
    out = tmp_path / "vol"
    assert _run(["volume", "--out", out]) == 0
    with open(f"{out}.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 1 + len(verification_matrix())
    assert rows[0][0] == "case"
    records = _read_jsonl(out)
    assert len(records) == len(verification_matrix())
    assert {r["case"] for r in records} == {c[0] for c in verification_matrix()}


def test_manifest_digests_match_outputs(tmp_path):
    out = tmp_path / "vol"
    assert _run(["volume", "--out", out]) == 0
    manifest = _read_manifest(out)
    assert manifest["schema"] == 1
    assert manifest["command"] == "volume"
    for name, digest in manifest["outputs"].items():
        blob = (tmp_path / name).read_bytes()
        assert hashlib.sha256(blob).hexdigest() == digest
    assert set(manifest["outputs"]) == {"vol.jsonl", "vol.csv"}


def test_manifest_records_environment(tmp_path):
    out = tmp_path / "env"
    assert _run(["volume", "--out", out]) == 0
    env = _read_manifest(out)["environment"]
    assert set(env) == {"python", "numpy", "platform", "nproc"}
    assert env["numpy"] == np.__version__
    assert env["python"] == platform.python_version()


def test_format_flag_selects_outputs(tmp_path):
    out = tmp_path / "only_csv"
    assert _run(["volume", "--format", "csv", "--out", out]) == 0
    assert Path(f"{out}.csv").exists()
    assert not Path(f"{out}.jsonl").exists()
    assert set(_read_manifest(out)["outputs"]) == {"only_csv.csv"}


def test_dotted_prefix_is_used_verbatim(tmp_path):
    # a dot in the prefix is part of the name, not a suffix to replace, so
    # prefixes that differ only after it write separate files
    cases = {"cl_s_0.0": "diverges", "cl_s_0.5": "converges"}
    for name in cases:
        psi = f"pl:C=1,s={name[5:]},j=0"
        assert _run(["classify", "--f", "prod:n=2", "--psi", psi, "--out", tmp_path / name]) == 0
    for name, verdict in cases.items():
        manifest = _read_manifest(tmp_path / name)
        assert manifest["result"]["verdict"] == verdict
        assert set(manifest["outputs"]) == {f"{name}.jsonl", f"{name}.csv"}
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        name + ext for name in cases for ext in (".jsonl", ".csv", ".manifest.json")
    )


def test_records_carry_seed_and_unique_samples(tmp_path):
    out = tmp_path / "sg"
    argv = ["siegel", "--n", 2, "--volume", 8, "--samples", 40, "--seed", 7, "--out", out]
    assert _run(argv) == 0
    records = _read_jsonl(out)
    assert len(records) == 40
    keys = set()
    for rec in records:
        assert rec["masterSeed"] == 7
        key = (rec["sample"], rec.get("volume"), rec.get("t"), rec.get("case"))
        assert key not in keys
        keys.add(key)
    manifest = _read_manifest(out)
    assert manifest["masterSeed"] == 7
    assert manifest["config"]["sampleCount"] == 40


def test_count_reports_witness(tmp_path):
    out = tmp_path / "ct"
    argv = [
        "count", "--f", "spf:p=1,q=1,d=2", "--eps", 0.5, "--t", 4,
        "--identity", "--seed", 0, "--out", out,
    ]
    assert _run(argv) == 0
    (rec,) = _read_jsonl(out)
    assert rec["count"] >= 1
    assert isinstance(rec["witness"], list) and len(rec["witness"]) == 2


def test_classify_verdict(tmp_path):
    out = tmp_path / "cl"
    argv = ["classify", "--f", "prod:n=2", "--psi", "pl:C=1,s=2,j=0", "--out", out]
    assert _run(argv) == 0
    assert _read_manifest(out)["result"]["verdict"] == "converges"


def test_definite_form_is_bounded(tmp_path, capsys):
    # q = 0: the region is bounded, so finite measure and empty checkpoint shells
    spec = ["--f", "spf:p=3,d=2", "--psi", "pl:C=1,s=0.5,j=0"]
    for criterion, verdict in (("asymptotic", "converges"), ("uniform", "diverges")):
        out = tmp_path / criterion
        assert _run(["classify", *spec, "--criterion", criterion, "--out", out]) == 0
        assert _read_manifest(out)["result"]["verdict"] == verdict
    argv = ["ratio", *spec, "--samples", 2, "--schedule", "t0=4,ratio=2,k0=0,kmax=2"]
    assert _run([*argv, "--out", tmp_path / "ra"]) == 2
    assert "divergent" in _stderr_record(capsys)["message"]


def test_selftest_passes(tmp_path):
    out = tmp_path / "st"
    assert _run(["selftest", "--out", out]) == 0
    result = _read_manifest(out)["result"]
    assert result["failed"] == 0
    assert result["checks"] == 5


# --------------------------------------------------------------------------
# determinism


def test_rerun_is_byte_identical(tmp_path):
    argv = ["siegel", "--n", 2, "--volume", 8, "--samples", 60, "--seed", 11]
    assert _run(argv + ["--out", tmp_path / "a"]) == 0
    assert _run(argv + ["--out", tmp_path / "b"]) == 0
    a = Path(f"{tmp_path / 'a'}.jsonl").read_bytes()
    b = Path(f"{tmp_path / 'b'}.jsonl").read_bytes()
    assert a == b


# one small run of each command that samples maps and counts on them
_SPF = "spf:p=1,q=1,d=2"
_SAMPLED_MAP_RUNS = {
    "ratio": [
        "ratio", "--f", "spf:p=2,q=1,d=2", "--psi", "pl:C=1,s=0.5,j=0",
        "--schedule", "t0=1,ratio=2,k0=2,kmax=3", "--samples", 2, "--seed", 3,
    ],
    "zerofull": [
        "zerofull", "--f", _SPF, "--psi", "pl:C=1,s=0.5,j=0", "--t-split", 4, "--t-max", 32,
        "--samples", 3, "--seed", 5,
    ],
    "uniform": [
        "uniform", "--f", _SPF, "--psi", "pl:C=1,s=1,j=0", "--schedule", "t0=1,ratio=2,k0=1,kmax=4",
        "--samples", 3, "--seed", 5,
    ],
    "kgsystem": [
        "kgsystem", "--n", 2, "--psi", "pl:C=1,s=1,j=0", "--schedule", "t0=1,ratio=2,k0=1,kmax=4",
        "--samples", 3, "--seed", 5,
    ],
}


@pytest.mark.parametrize("command", list(_SAMPLED_MAP_RUNS))
def test_worker_count_does_not_change_bytes(tmp_path, command):
    argv = _SAMPLED_MAP_RUNS[command]
    assert _run(argv + ["--workers", 1, "--out", tmp_path / "w1"]) == 0
    assert _run(argv + ["--workers", 2, "--out", tmp_path / "w2"]) == 0
    a = Path(f"{tmp_path / 'w1'}.jsonl").read_bytes()
    b = Path(f"{tmp_path / 'w2'}.jsonl").read_bytes()
    assert a == b


def test_affine_group_shifts_the_sampled_maps(tmp_path):
    # map i is sample_asl(n, default_rng(mix_seed(5, i)), 1, norm); each record
    # is recounted on it directly
    f, ts = SignedPowerForm(1, 1, 2), (2.0, 4.0, 8.0, 16.0)
    band = VectorOf((MaxPower((1.0,), 2, (0,)),))

    def count(g, target, bound, norm, t0, t, early):
        return count_solutions(CountQuery(g, target, bound, norm, PointClass.ALL_NONZERO, t0, t,
                                          stop_after_first=early))

    def expected(command, i):
        norm = max_norm(2) if command == "kgsystem" else f.canonical_norm()
        g = sample_asl(2, np.random.default_rng(mix_seed(5, i)), 1.0, norm)
        if command == "zerofull":
            res = count(g, f, power_law(1.0, 0.5, 0), norm, 4.0, 32.0, True)
            return {"hit": res.count > 0, "witness": list(res.first_witness) if res.count else None}
        if command == "uniform":
            hits = [count(g, f, tuple(power_law()(t)), norm, 0.0, t, True).count > 0 for t in ts]
            return {"successes": hits}
        return {"counts": [count(g, band, power_law(), norm, 0.0, t, False).count for t in ts]}

    for command in ("zerofull", "uniform", "kgsystem"):
        argv = _SAMPLED_MAP_RUNS[command]
        assert _run(argv + ["--out", tmp_path / "sl"]) == 0
        assert _run(argv + ["--group", "ASL", "--shift-bound", 1, "--out", tmp_path / "asl"]) == 0
        records = _read_jsonl(tmp_path / "asl")
        assert records != _read_jsonl(tmp_path / "sl"), command
        for i, rec in enumerate(records):
            want = expected(command, i)
            assert {key: rec[key] for key in want} == want, (command, i)


def test_kgsystem_csv_carries_the_stderr(tmp_path):
    assert _run(_SAMPLED_MAP_RUNS["kgsystem"] + ["--out", tmp_path / "k"]) == 0
    with open(f"{tmp_path / 'k'}.csv", newline="") as fh:
        header, *rows = list(csv.reader(fh))
    assert header == ["t", "meanCount", "stderr", "verdict"]
    res = kg_system_experiment(power_law(1.0, 1.0, 0), 2, PointClass.ALL_NONZERO,
                               DyadicSchedule(1.0, 2.0, 1, 4), samples=3, seed=5)
    assert [float(row[2]) for row in rows] == [row["stderr"] for row in res.rows]
    assert any(row["stderr"] > 0 for row in res.rows)


# one tiny run of each command, and the CSV header it writes
_TINY_RUNS = {
    "volume": (["volume"], ["case", "f", "psi", "norm", "sLo", "tHi", "value", "quadError"]),
    "mc-volume": (["mc-volume", "--f", _SPF, "--psi", "pl:C=1,s=0.5,j=0", "--outer", 8, "--samples", 1000],
                  ["value", "stderr", "hits", "samples", "degenerate"]),
    "count": (["count", "--f", _SPF, "--eps", 0.5, "--t", 4, "--identity"],
              ["count", "visited", "fullScan", "witness"]),
    "classify": (["classify", "--f", "prod:n=2", "--psi", "pl:C=1,s=2,j=0"], ["criterion", "r", "verdict"]),
    "siegel": (["siegel", "--n", 2, "--volume", 8, "--samples", 20],
               ["pointClass", "mean", "stderr", "reference", "gapInStderr", "ess"]),
    "rogers": (["rogers", "--n", 2, "--volumes", "4,8", "--samples", 20],
               ["volume", "mean", "variance", "ratio", "flagged"]),
    "emptyprob": (["emptyprob", "--n", 2, "--volumes", "1,4", "--samples", 20],
                  ["volume", "emptyFrequency", "wilsonLow", "wilsonHigh", "slope", "slopeBound"]),
    "ratio": (_SAMPLED_MAP_RUNS["ratio"], ["sample", "t", "count", "reference", "ratio", "threshold", "constant"]),
    "zerofull": (_SAMPLED_MAP_RUNS["zerofull"], ["fraction", "verdict", "samples"]),
    "uniform": (_SAMPLED_MAP_RUNS["uniform"], ["t", "successFraction", "samples", "passFraction"]),
    "kgsystem": (_SAMPLED_MAP_RUNS["kgsystem"], ["t", "meanCount", "stderr", "verdict"]),
    "normcheck": (["normcheck", "--f", _SPF, "--psi", "pl:C=1,s=0.5,j=0", "--norm-b", "ld:2", "--samples", 1000],
                  ["scale", "volumeA", "stderrA", "volumeB", "stderrB", "trendA", "trendB", "agree"]),
    "selftest": (["selftest"], ["check", "status", "detail"]),
}


def _read_csv(prefix):
    with open(f"{prefix}.csv", newline="") as fh:
        header, *rows = list(csv.reader(fh))
    return header, rows


@pytest.mark.parametrize("command", list(_TINY_RUNS))
def test_csv_header_is_pinned(tmp_path, command):
    argv, columns = _TINY_RUNS[command]
    assert _run(argv + ["--out", tmp_path / "x"]) == 0
    header, rows = _read_csv(tmp_path / "x")
    assert header == columns
    assert rows and all(len(row) == len(header) for row in rows)


@pytest.mark.parametrize("command", ["volume", "mc-volume", "classify", "count"])
def test_csv_rows_are_the_jsonl_records(tmp_path, command):
    # each CSV row holds its record's fields as the csv module writes them;
    # count's witness is JSON encoded there
    assert _run(_TINY_RUNS[command][0] + ["--out", tmp_path / "x"]) == 0
    header, rows = _read_csv(tmp_path / "x")
    records = _read_jsonl(tmp_path / "x")
    assert len(rows) == len(records)
    unwritten = {"masterSeed", "sample"} | ({"identity"} if command == "count" else set())
    for row, rec in zip(rows, records):
        assert set(rec) == set(header) | unwritten
        if command == "count":
            rec["witness"] = json.dumps(rec["witness"])
        assert row == ["" if rec[key] is None else str(rec[key]) for key in header]


@pytest.mark.parametrize("command", ["siegel", "rogers"])
def test_group_selects_lattices_or_grids(tmp_path, command):
    volume = "--volume" if command == "siegel" else "--volumes"
    argv = [command, "--n", 2, volume, 9, "--samples", 5, "--seed", 4]
    assert _run(argv + ["--out", tmp_path / "sl"]) == 0
    assert _run(argv + ["--group", "ASL", "--out", tmp_path / "asl"]) == 0
    assert all("nonzero" in rec and "all" not in rec for rec in _read_jsonl(tmp_path / "sl"))
    assert all("all" in rec and "nonzero" not in rec for rec in _read_jsonl(tmp_path / "asl"))


# --------------------------------------------------------------------------
# error paths: exit code 2 plus a JSON record naming the offending key


def test_missing_n_names_key(tmp_path, capsys):
    rc = _run(["siegel", "--volume", 4, "--samples", 10, "--out", tmp_path / "x"])
    assert rc == 2
    rec = _stderr_record(capsys)
    assert rec["error"] == "config"
    assert rec["key"] == "n"


def test_bad_degree_names_f(tmp_path, capsys):
    argv = ["classify", "--f", "spf:p=1,q=1,d=0.5", "--psi", "pl:C=1,s=1,j=0"]
    rc = _run(argv + ["--out", tmp_path / "x"])
    assert rc == 2
    rec = _stderr_record(capsys)
    assert rec["key"] == "f"
    assert "d must be >= 1" in rec["message"]


def test_zero_samples_names_sample_count(tmp_path, capsys):
    argv = ["siegel", "--n", 2, "--volume", 4, "--samples", 0]
    rc = _run(argv + ["--out", tmp_path / "x"])
    assert rc == 2
    assert _stderr_record(capsys)["key"] == "sampleCount"


def test_negative_shift_bound_names_key(tmp_path, capsys):
    argv = ["zerofull", "--n", 2, "--shift-bound", -1]
    rc = _run(argv + ["--out", tmp_path / "x"])
    assert rc == 2
    assert _stderr_record(capsys)["key"] == "shiftBound"


@pytest.mark.parametrize(
    "argv, key",
    [
        (["siegel", "--n", 3, "--volume", "nan"], "volume"),
        (["siegel", "--n", 2, "--volume", "inf"], "volume"),
        (["emptyprob", "--n", 2, "--volumes", "1,nan"], "volumes"),
        (["rogers", "--n", 2, "--volumes", "4,-inf"], "volumes"),
    ],
)
def test_non_finite_volume_names_key(tmp_path, capsys, argv, key):
    rc = _run(argv + ["--samples", 3, "--out", tmp_path / "x"])
    assert rc == 2
    assert _stderr_record(capsys)["key"] == key
    assert not list(tmp_path.iterdir())


def test_enormous_volume_fails_before_enumerating(tmp_path, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = _run(["siegel", "--n", 3, "--volume", 1e70, "--samples", 2, "--out", tmp_path / "x"])
    assert rc == 2
    assert "too large" in _stderr_record(capsys)["message"]


def test_oversized_exhaustive_count_exits_at_once(tmp_path, capsys):
    # n = 5 at T = 512 is 1025^4 prefixes; the cap check runs before any block
    argv = ["count", "--n", 5, "--f", "spf:p=3,q=2,d=2", "--psi", "pl:C=1,s=0.5,j=0", "--t", 512]
    start = time.perf_counter()
    rc = _run(argv + ["--out", tmp_path / "x"])
    assert time.perf_counter() - start < 1.0
    assert rc == 2
    assert re.search(r"1\.104e\+12 prefixes exceeds the cap", _stderr_record(capsys)["message"])
    assert not list(tmp_path.iterdir())


def test_nested_shells_over_the_cap_exit_at_once(tmp_path, capsys, monkeypatch):
    # kgsystem counts each map once, at its largest checkpoint, so the cap
    # names that count's box: 2 * 64 + 1 = 129 squared prefixes at T = 64
    from genlat import counting

    monkeypatch.setattr(counting, "_MAX_PREFIXES", 1000.0)
    argv = ["kgsystem", "--n", 3, "--psi", "pl:C=1,s=0.6,j=0;C=1,s=0.6,j=0", "--schedule",
            "t0=1,ratio=2,k0=2,kmax=6", "--samples", 2]
    rc = _run(argv + ["--out", tmp_path / "x"])
    assert rc == 2
    assert _stderr_record(capsys)["message"] == (
        "an exhaustive count over 1.664e+04 prefixes exceeds the cap of 1000"
    )
    assert not list(tmp_path.iterdir())


def test_emptyprob_rejects_affine_group(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"group": "ASL"}))
    argv = ["emptyprob", "--n", 2, "--volumes", "1,4", "--samples", 3, "--config", cfg]
    assert _run(argv + ["--out", tmp_path / "x"]) == 2
    assert _stderr_record(capsys)["key"] == "group"
    assert list(tmp_path.iterdir()) == [cfg]


def test_volume_custom_row_uses_norm(tmp_path, capsys):
    argv = ["volume", "--f", "prod:n=2", "--psi", "pl:C=1,s=1,j=0", "--t0", 2, "--t", 8]
    assert _run(argv + ["--norm", "ld:2", "--out", tmp_path / "x"]) == 2
    assert "family norm" in _stderr_record(capsys)["message"]
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("key", ["n", "psi", "norm"])
def test_volume_matrix_rejects_model_keys(tmp_path, capsys, key):
    # without --f, volume runs its built-in matrix, which reads none of them
    flag, text, value = _MODEL_FLAGS[key]
    assert _run(["volume", flag, text, "--out", tmp_path / "x"]) == 2
    assert _stderr_record(capsys)["key"] == key
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    assert _run(["volume", "--config", cfg, "--out", tmp_path / "x"]) == 2
    assert _stderr_record(capsys)["key"] == key
    assert list(tmp_path.iterdir()) == [cfg]


def test_bad_group_in_config_file_named(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 2, "group": "GL"}))
    rc = _run(["volume", "--config", cfg, "--out", tmp_path / "x"])
    assert rc == 2
    assert _stderr_record(capsys)["key"] == "group"


def test_bad_group_value_named(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 2, "group": "GL"}))
    rc = _run(["siegel", "--volume", 4, "--config", cfg, "--out", tmp_path / "x"])
    assert rc == 2
    assert _stderr_record(capsys)["key"] == "group"


def test_count_rejects_eps_with_psi(tmp_path, capsys):
    argv = ["count", "--f", "spf:p=1,q=1,d=2", "--eps", 0.5, "--t", 4]
    assert _run(argv + ["--psi", "pl:C=1,s=0.5,j=0", "--out", tmp_path / "x"]) == 2
    assert _stderr_record(capsys)["key"] == "psi"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"psi": "pl:C=1,s=0.5,j=0"}))
    assert _run(argv + ["--config", cfg, "--out", tmp_path / "x"]) == 2
    assert _stderr_record(capsys)["key"] == "psi"
    assert list(tmp_path.iterdir()) == [cfg]


_IDENTITY_RUNS = {
    "count": ["count", "--f", "spf:p=1,q=1,d=2", "--eps", 0.5, "--t", 4, "--identity"],
    "ratio": ["ratio", "--f", "spf:p=2,q=1,d=2", "--psi", "pl:C=1,s=0.5,j=0",
              "--schedule", "t0=1,ratio=2,k0=2,kmax=3", "--identity"],
}


@pytest.mark.parametrize(
    "command, model, key",
    [(command, model, key) for command in ("count", "ratio")
     for model, key in ((["--group", "ASL"], "group"), (["--shift-bound", 1], "shiftBound"),
                        (["--group", "ASL", "--shift-bound", 1], "group"))]
    + [("ratio", ["--samples", 2], "sampleCount")],
)
def test_identity_rejects_affine_group_shift_or_samples(tmp_path, capsys, command, model, key):
    assert _run(_IDENTITY_RUNS[command] + [*model, "--out", tmp_path / "x"]) == 2
    assert _stderr_record(capsys)["key"] == key
    assert not list(tmp_path.iterdir())


def test_unknown_config_file_key_named(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 2, "bogus": 1}))
    rc = _run(["volume", "--config", cfg, "--out", tmp_path / "x"])
    assert rc == 2
    assert _stderr_record(capsys)["key"] == "bogus"


def test_window_config_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 2, "window": {"opNormBound": 4}}))
    rc = _run(["volume", "--config", cfg, "--out", tmp_path / "x"])
    assert rc == 2
    assert _stderr_record(capsys)["key"] == "window"


@pytest.mark.parametrize(
    "bad",
    [{"n": 2.5}, {"sampleCount": 2.7}, {"sampleCount": True}, {"masterSeed": 1.9},
     {"sampleCount": "x"}, {"shiftBound": "abc"}],
    ids=json.dumps,
)
def test_bad_config_file_value_names_its_key(tmp_path, capsys, bad):
    # the integer keys take no bool and no non-integral number
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 2, "f": _SPF, "psi": "pl:C=1,s=0.5,j=0", **bad}))
    argv = ["zerofull", "--t-split", 4, "--t-max", 32, "--config", cfg]
    assert _run(argv + ["--out", tmp_path / "out" / "x"]) == 2
    (key,) = bad
    assert _stderr_record(capsys)["key"] == key
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "bad",
    [{"schedule": {"k0": 1.5}}, {"schedule": {"kmax": 3.9}}, {"schedule": {"t0": True}},
     {"shiftBound": True}],
    ids=json.dumps,
)
def test_bad_schedule_or_shift_bound_in_config_file_names_its_key(tmp_path, capsys, bad):
    # the schedule's k0 and kmax are integers; t0 and shiftBound take no bool
    good = {"n": 2, "f": _SPF, "psi": "pl:C=1,s=0.5,j=0", "schedule": {"t0": 1, "k0": 1, "kmax": 3}}
    (key,) = bad
    value = {**good[key], **bad[key]} if key == "schedule" else bad[key]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**good, key: value}))
    assert _run(["ratio", "--config", cfg, "--out", tmp_path / "out" / "x"]) == 2
    assert _stderr_record(capsys)["key"] == key
    assert not (tmp_path / "out").exists()


def test_bad_schedule_names_key(tmp_path, capsys):
    argv = [
        "ratio", "--f", "prod:n=2", "--psi", "pl:C=1,s=0,j=0",
        "--schedule", "t0=1,junk",
    ]
    rc = _run(argv + ["--out", tmp_path / "x"])
    assert rc == 2
    assert _stderr_record(capsys)["key"] == "schedule"


def test_missing_config_file(tmp_path, capsys):
    rc = _run(["volume", "--config", tmp_path / "absent.json", "--out", tmp_path / "x"])
    assert rc == 2
    assert _stderr_record(capsys)["key"] == "config"


def test_flags_override_config_file(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "n": 2,
                "f": "prod:n=2",
                "psi": "pl:C=1,s=2,j=0",
                "masterSeed": 1,
            }
        )
    )
    out = tmp_path / "ov"
    assert _run(["classify", "--config", cfg, "--seed", 9, "--out", out]) == 0
    manifest = _read_manifest(out)
    assert manifest["masterSeed"] == 9
    assert manifest["config"]["masterSeed"] == 9
    assert manifest["config"]["f"] == "prod:n=2"


# --------------------------------------------------------------------------
# each subcommand takes exactly the model keys it reads


_ALL_MODEL_KEYS = {"n", "f", "psi", "norm", "pointClass", "group", "shiftBound", "schedule", "sampleCount"}
_READS = {
    "volume": {"n", "f", "psi", "norm"},
    "mc-volume": {"n", "f", "psi", "norm", "sampleCount"},
    "count": {"n", "f", "psi", "norm", "pointClass", "group", "shiftBound"},
    "classify": {"n", "f", "psi"},
    "siegel": {"n", "group", "sampleCount"},
    "rogers": {"n", "group", "sampleCount"},
    "emptyprob": {"n", "sampleCount"},
    "ratio": _ALL_MODEL_KEYS,
    "zerofull": _ALL_MODEL_KEYS - {"schedule"},
    "uniform": _ALL_MODEL_KEYS,
    "kgsystem": {"n", "psi", "pointClass", "group", "shiftBound", "schedule", "sampleCount"},
    "normcheck": {"n", "f", "psi", "norm", "sampleCount"},
    "selftest": set(),
}
# model key -> (flag, flag value, config-file value)
_MODEL_FLAGS = {
    "n": ("--n", "2", 2),
    "f": ("--f", "prod:n=2", "prod:n=2"),
    "psi": ("--psi", "pl:C=1,s=1,j=0", "pl:C=1,s=1,j=0"),
    "norm": ("--norm", "max", "max"),
    "pointClass": ("--class", "primitive", "primitive"),
    "group": ("--group", "ASL", "ASL"),
    "shiftBound": ("--shift-bound", "1", 1),
    "schedule": ("--schedule", "t0=1,ratio=2,k0=0,kmax=1", "t0=1,ratio=2,k0=0,kmax=1"),
    "sampleCount": ("--samples", "3", 3),
}
# volume reads its model keys only for the custom row that --f selects
_REQUIRED = {"mc-volume": ["--outer", "4"], "volume": ["--f", "prod:n=2"]}


def _subparsers() -> dict:
    parser = build_parser()
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def test_model_key_table():
    assert set(_subparsers()) == set(_READS)
    assert sum(map(len, _READS.values())) == 65


def test_every_command_has_a_tiny_run():
    assert set(_TINY_RUNS) == set(_READS)


@pytest.mark.parametrize("key", sorted(_MODEL_FLAGS))
@pytest.mark.parametrize("command", sorted(_READS))
def test_command_takes_only_the_model_keys_it_reads(tmp_path, capsys, command, key):
    flag, text, value = _MODEL_FLAGS[key]
    argv = [command, *_REQUIRED.get(command, [])]
    cfg = tmp_path / "cfg.json"
    assert (flag in _subparsers()[command]._option_string_actions) == (key in _READS[command])
    if key in _READS[command]:
        # the flag and the config-file key resolve to the same config
        cfg.write_text(json.dumps({"n": 2, key: value}))
        from_file = parse_config(build_parser().parse_args(argv + ["--config", str(cfg)]))
        assert from_file == parse_config(build_parser().parse_args(argv + ["--n", "2", flag, text]))
        return
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv + [flag, text])
    assert exc.value.code == 2
    cfg.write_text(json.dumps({key: value}))
    assert _run(argv + ["--config", cfg, "--out", tmp_path / "out" / "x"]) == 2
    assert _stderr_record(capsys)["key"] == key
    assert not (tmp_path / "out").exists()


def test_unread_model_flag_is_not_taken_as_a_prefix(capsys):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["siegel", "--n", "2", "--f", "csv"])  # --format csv by prefix
    assert exc.value.code == 2


def test_manifest_records_only_the_keys_read(tmp_path):
    assert _run(["siegel", "--n", 2, "--volume", 4, "--samples", 3, "--seed", 2, "--out", tmp_path / "s"]) == 0
    assert _read_manifest(tmp_path / "s")["config"] == {"n": 2, "group": "SL", "sampleCount": 3, "masterSeed": 2}


def test_volume_matrix_manifest_records_no_model_key(tmp_path):
    assert _run(["volume", "--seed", 4, "--out", tmp_path / "m"]) == 0
    assert _read_manifest(tmp_path / "m")["config"] == {"masterSeed": 4}
    custom = ["volume", "--f", "prod:n=2", "--psi", "pl:C=1,s=1,j=1", "--t0", 2, "--t", 8]
    assert _run([*custom, "--out", tmp_path / "c"]) == 0
    assert _read_manifest(tmp_path / "c")["config"]["n"] == 2


# --------------------------------------------------------------------------
# every documented command line parses


_REPO = Path(__file__).resolve().parents[1]


def _documented_command_lines() -> dict:
    """``genlat ...`` lines of scripts/*.sh and README's sh blocks, by file;
    continuation lines joined, shell variables replaced by a placeholder."""
    readme = (_REPO / "README.md").read_text()
    sources = {path.name: path.read_text() for path in sorted((_REPO / "scripts").glob("*.sh"))}
    sources["README.md"] = "\n".join(re.findall(r"```sh\n(.*?)```", readme, re.S))
    return {
        name: [re.sub(r"\$\{?\w+\}?", "1", line.strip())
               for line in text.replace("\\\n", " ").splitlines() if line.strip().startswith("genlat ")]
        for name, text in sources.items()
    }


def test_documented_command_lines_found():
    lines = _documented_command_lines()
    assert set(lines) == {"README.md", "run_dichotomy_experiments.sh", "run_lattice_statistics.sh"}
    assert all(lines.values())


@pytest.mark.parametrize(
    "line", [pytest.param(line, id=f"{name}:{i}")
             for name, lines in _documented_command_lines().items() for i, line in enumerate(lines)]
)
def test_documented_command_line_parses(line):
    build_parser().parse_args(shlex.split(line)[1:])
