"""Config grammar, runners, CSV schema, determinism, exit codes."""

import hashlib
import warnings

import numpy as np
import pytest

import homoflow as hf
from homoflow.cli import (CSV_VERSION_LINE, ConfigError, build_coefficients,
                          build_system, main, parse_config, run_check,
                          run_homogenize, run_simulate, run_sweep,
                          serialize_config)

FAST_SWEEP = """
family.name = deltagamma
family.delta = 0.3
family.gamma = 0.3
eps = 0.2
sweep.eps = 0.4,0.2
dictionary.count = 2
quadrature.m = 24
quadrature.time_nodes = 16
quadrature.nodes_per_eps = 4.0
quadrature.lp_m = 48
integrator.h = 0.01
"""


def test_defaults_parse():
    cfg = parse_config("")
    assert cfg.family == "identity"
    assert cfg.eps == 0.1
    assert cfg.sweep_eps == (0.4, 0.2, 0.1, 0.05)
    assert cfg.h == 1e-3


def test_round_trip_is_identity():
    cfg = parse_config(FAST_SWEEP)
    assert parse_config(serialize_config(cfg)) == cfg


def test_config_text_is_pinned():
    # key order, default text and the --help listing, byte for byte
    from homoflow.cli import _CONFIG_HELP
    digests = [hashlib.sha256(text.encode()).hexdigest()
               for text in (serialize_config(parse_config("")), _CONFIG_HELP)]
    assert digests == [
        "325066459a4e7e79cfc987ac42abf96705265c2a15114f6f7915f8dba16a20f0",
        "72a42d7bfbfc339c4a85b1c0cbf475c7e536a12e3638d442ad05e87b63059683"]


@pytest.mark.parametrize("line,fragment", [
    ("nonsense", "expected 'key = value'"),
    ("family.name = martian", "one of"),
    ("unknown.key = 1", "unknown key"),
    ("eps = -0.1", "positive"),
    ("eps = zebra", "not a number"),
    ("integrator.h = 0", "positive"),
    ("sweep.eps = 0.1,0.2", "strictly decreasing"),
    ("dim = 3", "two-dimensional"),
    ("dictionary.count = 11", "between 1 and 8"),
])
def test_config_errors_carry_context(line, fragment):
    with pytest.raises(ConfigError) as err:
        parse_config(line)
    assert fragment in str(err.value)


@pytest.mark.parametrize("line", ["sweep.strong_t = -0.5,0.5", "sweep.strong_t = 3",
                                  "T = 0.5"])
def test_strong_times_checked_when_a_sweep_starts(line, tmp_path, capsys):
    # only the sweep reads sweep.strong_t; the default times 0.52 and 0.93
    # lie beyond T = 0.5
    cfg = parse_config(line)
    path = tmp_path / "strong.cfg"
    path.write_text(line + "\ncheck.samples = 20\nsimulate.m = 3\n")
    assert main(["sweep", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "'sweep.strong_t': times must all lie in" in err
    assert f"T = {cfg.T:g}" in err
    for command in ("check", "simulate"):
        assert main([command, "--config", str(path)]) == 0


@pytest.mark.parametrize("key", ["simulate.t", "sweep.strong_t", "sweep.eps"])
def test_empty_time_and_eps_lists_rejected(key, tmp_path, capsys):
    with pytest.raises(ConfigError, match=key):
        parse_config(f"{key} =")
    cfg = tmp_path / "empty.cfg"
    cfg.write_text(f"{key} =\n")
    command = "simulate" if key.startswith("simulate") else "sweep"
    assert main([command, "--config", str(cfg)]) == 2
    assert key in capsys.readouterr().err


PERTURBED = "family.name = example31\nfamily.alpha_form = perturbed\nfamily.alpha_amp = "


def test_perturbed_alpha_amplitude_checked_against_the_eps_it_meets(tmp_path, capsys):
    # eps is checked when check or simulate starts, sweep.eps when a sweep does
    cfg = parse_config(PERTURBED + "2\neps = 0.5\nsweep.eps = 0.4,0.2")
    for runner in (run_check, run_simulate):
        with pytest.raises(ConfigError) as err:
            runner(cfg)
        assert "family.alpha_amp" in str(err.value) and "eps = 0.5" in str(err.value)
    cfg = parse_config(PERTURBED + "2\nsweep.eps = 0.6,0.2")
    with pytest.raises(ConfigError) as err:
        run_sweep(cfg)
    assert "family.alpha_amp" in str(err.value) and "sweep.eps = 0.6" in str(err.value)
    path = tmp_path / "amp.cfg"
    path.write_text(PERTURBED + "2\nsweep.eps = 0.6,0.2\n")
    assert main(["sweep", "--config", str(path)]) == 2
    assert "sweep.eps = 0.6" in capsys.readouterr().err
    # an identity alpha ignores the amplitude
    assert run_check(parse_config(PERTURBED.replace("perturbed", "identity")
                                  + "2\neps = 0.5\ncheck.samples = 20"))[0] == 0


def test_perturbed_alpha_sweep_eps_does_not_block_other_commands(tmp_path):
    # 3 * 0.1 < 1 at the eps check builds; the default sweep.eps (0.4 first)
    # is not used by check
    path = tmp_path / "amp.cfg"
    path.write_text(PERTURBED + "3\neps = 0.1\ncheck.samples = 50\n")
    assert main(["check", "--config", str(path)]) == 0


def test_perturbed_alpha_eps_does_not_block_homogenize(tmp_path, capsys):
    # homogenize builds no eps system: 12 * 0.1 >= 1 is refused only by the
    # commands that build one
    text = PERTURBED + "12\nsweep.eps = 0.05,0.02\nsimulate.m = 3\ncheck.samples = 20\n"
    parse_config(text + "eps = 0.1")
    csvs = []
    for eps in ("0.1", "0.05"):
        path = tmp_path / f"amp{eps}.cfg"
        path.write_text(text + f"eps = {eps}\n")
        out = tmp_path / f"amp{eps}.csv"
        assert main(["homogenize", "--config", str(path), "--out", str(out)]) == 0
        csvs.append(out.read_text())
    assert csvs[0] == csvs[1]
    for command in ("check", "simulate"):
        assert main([command, "--config", str(tmp_path / "amp0.1.cfg")]) == 2
        err = capsys.readouterr().err
        assert "family.alpha_amp" in err and "eps = 0.1" in err


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError) as err:
        parse_config("eps = 0.1\neps = 0.2")
    assert "duplicate" in str(err.value)


def test_near_degenerate_cell_accepted_but_unit_product_rejected():
    cfg = parse_config("family.name = deltagamma\nfamily.delta = 0.99\nfamily.gamma = 0.99")
    lo, hi = build_system(cfg, cfg.eps).sigma_bounds
    assert lo < 0.03 and hi > 1.9  # documented larger spread near degeneracy
    with pytest.raises(ConfigError):
        parse_config("family.name = deltagamma\nfamily.delta = 1.1\nfamily.gamma = 1.0")


def test_explicit_dictionary_centers():
    cfg = parse_config("dictionary.centers = 0.5:-0.4:0.1;0.3:-0.2:-0.1")
    from homoflow.cli import _dictionary
    dico = _dictionary(cfg)
    assert len(dico) == 2
    assert dico[0].t_center == 0.5
    assert np.allclose(dico[1].x_center, [-0.2, -0.1])


def test_build_system_families(rng):
    x = rng.uniform(-1, 1, (50, 2))
    for name in ("identity", "shear", "deltagamma", "example31", "periodic"):
        cfg = parse_config(f"family.name = {name}")
        system = build_system(cfg, 0.2)
        assert system.label == name
        assert np.abs(hf.rectification_residual(system, x)).max() < 1e-10


def test_build_coefficients_twist_detects_constants(monkeypatch):
    # the identity limit map fixes them at every eps: no eps system is built
    import homoflow.cli as cli_mod

    def refuse(cfg, eps):
        raise AssertionError("the twist limit coefficients need no eps system")

    monkeypatch.setattr(cli_mod, "build_system", refuse)
    for alpha in ("identity", "perturbed"):
        cfg = parse_config(f"family.name = example31\nfamily.alpha_form = {alpha}")
        coeffs = build_coefficients(cfg)
        assert coeffs.is_constant
        assert np.asarray(coeffs.xi0).tobytes() == np.array([1.0, 0.0]).tobytes()
        assert coeffs.sigma0 == 1.0


def test_run_check_identity_passes():
    cfg = parse_config("family.name = identity\ncheck.samples = 200")
    code, csv = run_check(cfg)
    assert code == 0
    lines = csv.strip().split("\n")
    assert lines[0] == CSV_VERSION_LINE
    assert lines[1].split(",")[:3] == ["family", "eps", "invariant_id"]
    assert all(row.endswith("true") for row in lines[2:])


def test_run_check_deltagamma_near_degenerate_passes():
    cfg = parse_config("family.name = deltagamma\nfamily.delta = 0.99\n"
                       "family.gamma = 0.99\ncheck.samples = 200")
    code, _ = run_check(cfg)
    assert code == 0


def test_run_simulate_translates_datum(tmp_path):
    cfg = parse_config("family.name = identity\nsimulate.m = 5\n"
                       "simulate.t = 0,0.5\nintegrator.h = 0.05")
    code, csv = run_simulate(cfg)
    assert code == 0
    rows = [r.split(",") for r in csv.strip().split("\n")[2:]]
    u0 = hf.bump_datum(2, [0.0, 0.0], 1.0, 1.0)
    for row in rows:
        t, x1, x2, ue, sig, ve = map(float, row)
        expected = u0.eval(np.array([x1 + t, x2]))
        assert abs(ue - expected) < 1e-10
        assert sig == 1.0 and abs(ve - ue) < 1e-15


def test_run_simulate_box_covers_backward_times():
    # the box is sized by max |t|: the t = -1 solution must not be clipped
    cfg = parse_config("family.name = identity\nsimulate.m = 41\n"
                       "simulate.t = -1.0,-0.5")
    code, csv = run_simulate(cfg)
    assert code == 0
    rows = np.array([[float(v) for v in r.split(",")]
                     for r in csv.strip().split("\n")[2:]])
    x1, x2, ue = rows[:, 1], rows[:, 2], rows[:, 3]
    edge = (np.abs(x1) == np.abs(x1).max()) | (np.abs(x2) == np.abs(x2).max())
    assert np.abs(x1).max() > 2.0
    assert np.all(ue[edge] == 0.0)
    assert ue[rows[:, 0] == -1.0].max() > 0.9


def test_run_simulate_times_on_both_sides_of_zero():
    both = parse_config("family.name = identity\nsimulate.m = 9\n"
                        "simulate.t = -0.5,0,0.5\nintegrator.h = 0.05")
    code, csv = run_simulate(both)
    assert code == 0
    rows = [r.split(",") for r in csv.strip().split("\n")[2:]]
    assert [float(r[0]) for r in rows[::81]] == [-0.5, 0.0, 0.5]
    u0 = hf.bump_datum(2, [0.0, 0.0], 1.0, 1.0)
    for row in rows:
        t, x1, x2, ue = map(float, row[:4])
        assert abs(ue - u0.eval(np.array([x1 + t, x2]))) < 1e-10


def test_run_simulate_step_halving_is_tame():
    base = "family.name = deltagamma\nsimulate.m = 5\nsimulate.t = 0.5\n"
    a = run_simulate(parse_config(base + "integrator.h = 0.002"))[1]
    b = run_simulate(parse_config(base + "integrator.h = 0.001"))[1]
    va = [float(r.split(",")[3]) for r in a.strip().split("\n")[2:]]
    vb = [float(r.split(",")[3]) for r in b.strip().split("\n")[2:]]
    assert max(abs(x - y) for x, y in zip(va, vb)) < 1e-8


def test_run_homogenize_deltagamma():
    cfg = parse_config("family.name = deltagamma")
    code, csv = run_homogenize(cfg)
    assert code == 0
    row = csv.strip().split("\n")[2].split(",")
    assert row[0] == "deltagamma" and row[1] == "cell-average"
    assert abs(float(row[2]) - 1.0) < 1e-10  # sigma0
    assert abs(float(row[3]) - 1.0) < 1e-10  # xi0_1
    assert abs(float(row[4])) < 1e-10        # xi0_2
    assert abs(float(row[5]) - 1.0) < 1e-14  # det of the affine part


def test_run_homogenize_twist_family_constants():
    cfg = parse_config("family.name = example31")
    code, csv = run_homogenize(cfg)
    assert code == 0
    row = csv.strip().split("\n")[2].split(",")
    assert row[1] == "cell-average"  # constants detected from the identity limit
    assert abs(float(row[2]) - 1.0) < 1e-12
    assert abs(float(row[3]) - 1.0) < 1e-12


def test_run_homogenize_anisotropic_affine_part():
    cfg = parse_config("family.name = periodic\nfamily.m = 1,0,0,2")
    code, csv = run_homogenize(cfg)
    row = csv.strip().split("\n")[2].split(",")
    assert abs(float(row[2]) - 2.0) < 1e-10
    assert abs(float(row[5]) - 2.0) < 1e-14
    assert float(row[6]) < 1e-10  # quasi-affinity residual


def test_run_sweep_fast_config_decreases():
    code, csv = run_sweep(parse_config(FAST_SWEEP))
    assert code == 0
    lines = csv.strip().split("\n")
    assert lines[0] == CSV_VERSION_LINE
    header = lines[1].split(",")
    assert header == ["family", "eps", "phi_id", "pairing_eps", "pairing_limit",
                      "weak_error", "strong_l2_error", "fitted_rate"]
    rows = [r.split(",") for r in lines[2:]]
    assert len(rows) == 4  # 2 eps x 2 phis
    by_phi = {}
    for r in rows:
        by_phi.setdefault(r[2], []).append(float(r[5]))
    for errs in by_phi.values():
        assert errs[1] < errs[0]


def test_sweep_is_byte_deterministic():
    a = run_sweep(parse_config(FAST_SWEEP))[1]
    b = run_sweep(parse_config(FAST_SWEEP))[1]
    assert a == b


def test_one_eps_sweep_writes_no_rate(tmp_path):
    # a rate is a slope through two or more eps; one eps has none, and
    # fitting a line through one point would warn and make one up
    cfg = tmp_path / "one.cfg"
    cfg.write_text(FAST_SWEEP.replace("deltagamma", "shear")
                   .replace("sweep.eps = 0.4,0.2", "sweep.eps = 0.4"))
    out = tmp_path / "sweep.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    assert not [w for w in caught if issubclass(w.category, np.exceptions.RankWarning)]
    rows = [r.split(",") for r in out.read_text().strip().split("\n")[2:]]
    assert len(rows) == 2  # 1 eps x 2 phis
    assert all(r[7] == "nan" for r in rows)


# the acceptance criterion-11 sweep size
SMOKE_SWEEP = """
sweep.eps = 0.4,0.2
dictionary.count = 3
quadrature.m = 24
quadrature.time_nodes = 16
quadrature.nodes_per_eps = 4.0
quadrature.lp_m = 64
integrator.h = 0.005
"""


@pytest.mark.parametrize("family,digest,command", [
    ("family.name = deltagamma",
     "80ee55b73ee9506d1a4efd6ff4d4e091fde74a15696c80c6fb8e5bc1988a5324", run_sweep),
    # a non-identity affine part exercises the M + periodic-part Jacobian
    ("family.name = periodic\nfamily.m = 1.2,0.3,-0.1,0.9",
     "19f626f022511e5d5cc77f5ab22d0d7ecddf01e277641a70d5e9bcc1bed93237", run_sweep),
    # the twist drift: identity alpha, a perturbed alpha with a second beta
    # amplitude, and beta = 0 (the zero curve, no sin or cos)
    ("family.name = example31",
     "2b40d6dd829090528bd5e66379a73e4081aced25bcf447f073c2a66df93de10f", run_sweep),
    ("family.name = example31\nfamily.alpha_form = perturbed\n"
     "family.alpha_amp = 0.5\nfamily.beta_amp = 0.7",
     "d778242812e5cca8ee70be52856929a1bea87bb0ea62dc3445972c7637f4cb87", run_sweep),
    ("family.name = example31\nfamily.beta_amp = 0",
     "37c3d72bc5f1ab3f8e91470c17c4bd11965f62c20181f1a9aba415beeba0e704", run_sweep),
    # check is the one output that reads b.jacobian and sigma.grad
    ("family.name = identity",
     "e849f5b632f5bdb82d5c12229a68429f3297b5f0870118f88cf7a51cc99ad24f", run_check),
    ("family.name = shear",
     "d6e945999bf61ef1437175440494bcc70ed32cb5a984a60b4c4e111b42db27f8", run_check),
    ("family.name = deltagamma\nfamily.delta = 0.5\nfamily.gamma = 0.7",
     "57b40cea5d5bfbe675822463aced2d7cc75b89d918628d5fa401065f75ba3326", run_check),
    ("family.name = periodic\nfamily.m = 1.2,0.3,-0.1,0.9",
     "739a74e006ca5409fc40a1d969466a3f9457cfd6d77434bbe0bfd4aaddd1af4a", run_check),
    ("family.name = example31",
     "c218509fcfd6f439eb870b1cee7eec621877fe3058c867d8b6160618cfb6c239", run_check),
    ("family.name = example31\nfamily.alpha_form = perturbed\n"
     "family.alpha_amp = 0.5\nfamily.beta_amp = 0.7",
     "d362279f4bfc45ecf243d017bfbca9748770f1afb40a30a225da6915bf01907b", run_check),
    ("family.name = identity",
     "6407dec6133aa7e80ef1a43d802b0e2afc6427b3958da9c97776b1454347ace9", run_homogenize),
    ("family.name = shear",
     "c3dd8728200ba63d35137e7296a667270fec0e8d5064d071dc96f56b6828eecb", run_homogenize),
    ("family.name = deltagamma\nfamily.delta = 0.5\nfamily.gamma = 0.7",
     "bc7e8712508ab69d4f35ccf7f36bcbee800e090298bb4dbce65ffbccfd8ef311", run_homogenize),
    ("family.name = periodic\nfamily.m = 1.2,0.3,-0.1,0.9",
     "7e839890bde264fc4680a51811c44f8b6e2d664d1be580bf6672a7f94c332028", run_homogenize),
    ("family.name = example31",
     "2d9ac2d1c8dc051bdf2f909e8bb51a8a630229528b9c0fcae31b9ed4f8337f5a", run_homogenize),
    ("family.name = example31\nfamily.alpha_form = perturbed\n"
     "family.alpha_amp = 0.5\nfamily.beta_amp = 0.7",
     "2d9ac2d1c8dc051bdf2f909e8bb51a8a630229528b9c0fcae31b9ed4f8337f5a", run_homogenize),
])
def test_sweep_csv_bytes_are_pinned(family, digest, command):
    # Digests of the CSV of each command (x86-64 Linux, glibc libm, numpy
    # 2.4): fast paths and refactors must keep every bit.
    code, csv = command(parse_config(family + SMOKE_SWEEP))
    assert code == 0
    if command is run_homogenize and "example31" in family:
        # the limit flux is rot_perp of the identity map's second row, whose
        # xi0_2 is +0.0 (a determinant of the 1x1 minor gave -0.0)
        assert csv.splitlines()[-1] == "example31,cell-average,1,1,0,nan,nan,0"
    assert hashlib.sha256(csv.encode()).hexdigest() == digest


def test_main_exit_codes(tmp_path, capsys):
    good = tmp_path / "good.cfg"
    good.write_text("family.name = identity\ncheck.samples = 50\n")
    out = tmp_path / "out.csv"
    assert main(["check", "--config", str(good), "--out", str(out)]) == 0
    assert out.read_text().startswith(CSV_VERSION_LINE)

    bad = tmp_path / "bad.cfg"
    bad.write_text("eps = -1\n")
    assert main(["check", "--config", str(bad)]) == 2
    assert main(["check", "--config", str(tmp_path / "missing.cfg")]) == 2

    degenerate = tmp_path / "degenerate.cfg"
    degenerate.write_text("family.name = periodic\nfamily.m = 0.05,0,0,0.05\n")
    assert main(["check", "--config", str(degenerate)]) == 2  # cell rejected


def test_numeric_error_exit_code(tmp_path):
    # Richardson guard trips on a grossly coarse step for a fast oscillation
    cfg = tmp_path / "coarse.cfg"
    cfg.write_text("family.name = deltagamma\neps = 0.05\n"
                   "integrator.h = 0.5\nintegrator.richardson = true\n"
                   "simulate.m = 3\nsimulate.t = 1\n")
    assert main(["simulate", "--config", str(cfg)]) == 3


def test_main_writes_to_stdout_without_out(tmp_path, capsys):
    cfgfile = tmp_path / "c.cfg"
    cfgfile.write_text("family.name = identity\ncheck.samples = 20\n")
    code = main(["check", "--config", str(cfgfile)])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.startswith(CSV_VERSION_LINE)


def test_invariant_failure_exit_code(monkeypatch):
    # exit 1 is reserved for a failing invariant, not an infrastructure error
    cfg = parse_config("family.name = deltagamma\ncheck.samples = 100")
    import homoflow.diagnostics as diag
    real = diag.invariant_suite

    def strict(system, box, n_samples, seed):
        report = real(system, box, n_samples=n_samples, seed=seed)
        checks = tuple(
            diag.InvariantCheck(c.invariant_id, c.max_residual, 0.0, False)
            for c in report.checks)
        return diag.InvariantReport(report.label, report.eps, checks)

    import homoflow.cli as cli_mod
    monkeypatch.setattr(cli_mod, "invariant_suite", strict)
    code, csv = run_check(cfg)
    assert code == 1
    assert all(row.endswith("false") for row in csv.strip().split("\n")[2:])
