"""Config grammar, runners, CSV schema, determinism, exit codes."""

import hashlib
import os
import re
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import homoflow as hf
from homoflow.cli import (_KEYS, CSV_VERSION_LINE, FAMILY_NAMES, ConfigError,
                          build_coefficients, build_system, main, parse_config, run_check,
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
    assert cfg.dim == 2


def test_round_trip_is_identity():
    cfg = parse_config(FAST_SWEEP)
    assert parse_config(serialize_config(cfg)) == cfg


def test_config_text_is_pinned():
    # key order, default text and the --help listing, byte for byte
    from homoflow.cli import _CONFIG_HELP
    digests = [hashlib.sha256(text.encode()).hexdigest()
               for text in (serialize_config(parse_config("")), _CONFIG_HELP)]
    assert digests == [
        "8a66a73c066da11d1db60c3c60f22f1c5cdffdcefa4be46a797d2f1cd2f71d3c",
        "70448e3a213d6887a4d3c0ebdb275580008230e6967f08c8e0f142caaae18abf"]


@pytest.mark.parametrize("line,fragment", [
    ("nonsense", "expected 'key = value'"),
    ("family.name = martian", "one of"),
    ("unknown.key = 1", "unknown key"),
    ("eps = -0.1", "positive"),
    ("eps = zebra", "not a number"),
    ("integrator.h = 0", "positive"),
    ("sweep.eps = 0.1,0.2", "strictly decreasing"),
    ("dim = 2", "unknown key"),
    ("family.alpha_form = perturbed", "unknown key"),
    ("quadrature.cell_m = 64", "unknown key"),
    ("u0.amplitude = 1.0", "unknown key"),
    ("output = out.csv", "unknown key"),
    ("dictionary.count = 11", "between 1 and 8"),
    ("T = inf", "'T': must be finite"),
    ("eps = nan", "'eps': must be finite"),
    ("sweep.eps = inf,0.2", "'sweep.eps': must be finite"),
    ("dictionary.radius = inf", "'dictionary.radius': must be finite"),
    ("u0.center = 0,-inf", "'u0.center': must be finite"),
    ("dictionary.centers = 0.5:nan:0", "'dictionary.centers': must be finite"),
    ("family.name = periodic\nfamily.m = 0.5,0,0,0.5\nfamily.delta = 0.9\n"
     "family.gamma = 0.9", "'family.delta': the cell determinant"),
    ("family.name = periodic\nfamily.m = 1,0,0,0", "'family.m': the cell determinant"),
])
def test_config_errors_carry_context(line, fragment):
    with pytest.raises(ConfigError) as err:
        parse_config(line)
    assert fragment in str(err.value)


@pytest.mark.parametrize("line", ["sweep.strong_t = 3", "T = 0.5"])
def test_strong_times_checked_when_a_sweep_starts(line, tmp_path, capsys):
    # only the sweep reads sweep.strong_t; the default times 0.52 and 0.93
    # lie beyond T = 0.5
    cfg = parse_config(line)
    path = tmp_path / "strong.cfg"
    path.write_text(line + "\ncheck.samples = 20\nsimulate.m = 3\n")
    assert main(["sweep", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "'sweep.strong_t': times must all lie in [-T, T]" in err
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


PERTURBED = "family.name = example31\nfamily.alpha_amp = "


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
    # amplitude 0 is the identity alpha, which meets no bound
    assert run_check(parse_config(PERTURBED + "0\neps = 0.5\ncheck.samples = 20"))[0] == 0


def test_beta_amplitude_checked_against_the_eps_it_meets(tmp_path, capsys):
    # exp(+-beta) overflows once |beta_amp| * eps reaches log(float max),
    # 709.78; at 7000 * 0.1 it stays finite, but the drift's beta' x exp(beta)
    # factors overflow where check and simulate sample it (simulate's sampled
    # sup was inf, exit 3); each command checks the eps it builds, homogenize
    # builds none
    path = tmp_path / "beta.cfg"
    for amp in ("1e300", "7000"):
        path.write_text(f"family.name = example31\nfamily.beta_amp = {amp}\nsimulate.m = 3\n")
        for command, key in (("check", "eps = 0.1"), ("simulate", "eps = 0.1"),
                             ("sweep", "sweep.eps = 0.4")):
            assert main([command, "--config", str(path)]) == 2
            err = capsys.readouterr().err
            assert "key 'family.beta_amp':" in err and f"({key})" in err
        assert main(["homogenize", "--config", str(path)]) == 0


def test_beta_amplitude_checked_against_the_step(tmp_path, capsys):
    # h times the twist drift bound on the square simulate and sweep check:
    # 1.2 at beta_amp 15 (eps 0.1, h 1e-3, radius 3) and beyond 1e140 at
    # 3300, where simulate stepped to a non-finite state (exit 3); check
    # steps nothing and reports, failing its invariants at 3300
    path = tmp_path / "beta.cfg"
    for amp, check_code in (("15", 0), ("3300", 1)):
        path.write_text(f"family.name = example31\nfamily.beta_amp = {amp}\n"
                        "simulate.m = 3\ncheck.samples = 50\nsweep.eps = 0.1\n")
        for command, key in (("simulate", "eps = 0.1"), ("sweep", "sweep.eps = 0.1")):
            assert main([command, "--config", str(path)]) == 2
            err = capsys.readouterr().err
            assert "key 'family.beta_amp':" in err and "'integrator.h' = 0.001" in err
            assert f"({key})" in err
        assert main(["check", "--config", str(path)]) == check_code
        capsys.readouterr()


@pytest.mark.parametrize("amp,digest", [
    ("4", None), ("9", None),
    ("5", "c00f12d135a1df925b074a8c8c0915d4af7def07a9150cebf74ee186da9ce160"),
    (None, "f615aee314bea56128641a7f6edc4e865f24930334d3e5c8568a70564012085e")])
def test_twist_simulate_integrates_only_what_reaches_the_datum(amp, digest, tmp_path):
    # simulate at eps 0.1, h 1e-3 passes the step rule on |x1|, |x2| <= 3 but
    # samples dependence_box, whose corners reach 37 (beta_amp 4) and 103
    # (beta_amp 9); RK4 stepped them to a non-finite state (exit 3).  Their
    # exact positions stay far from the support, so they are no longer
    # integrated: u_eps is 0 there.  Where RK4 ran (beta_amp 5, and the
    # default simulate, m = 9), the digests are those of the full integration
    # (x86-64 Linux, glibc libm, numpy 2.4).
    text = "family.name = example31\n"
    if amp is not None:
        text += f"family.beta_amp = {amp}\nsimulate.m = 3\n"
    path = tmp_path / "twist.cfg"
    path.write_text(text)
    out = tmp_path / "out.csv"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
    csv = out.read_text()
    if digest is not None:
        assert hashlib.sha256(csv.encode()).hexdigest() == digest
        return
    rows = [[float(v) for v in line.split(",")] for line in csv.splitlines()[2:]]
    assert len(rows) == 27
    for t, x1, x2, u, _, _ in rows:
        if x1 != 0.0 or x2 != 0.0:
            assert u == 0.0 and abs(x1) + abs(x2) > 30.0
        elif t == 0.0:
            assert u == 1.0


def test_pairing_grid_checked_before_a_sweep_starts(tmp_path, capsys):
    # 2 * 0.4 * 1e6 / 0.4 nodes per axis: a 64 x 2,000,000^2 pairing grid
    path = tmp_path / "grid.cfg"
    path.write_text("family.name = deltagamma\nsweep.eps = 0.4\ndictionary.count = 1\n"
                    "quadrature.nodes_per_eps = 1e6\ncheck.samples = 20\nsimulate.m = 3\n")
    assert main(["sweep", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "key 'quadrature.nodes_per_eps':" in err and "n = 2000000" in err
    for command in ("check", "simulate"):
        assert main([command, "--config", str(path)]) == 0


def test_readme_names_only_config_keys():
    # the README's example config parses, and every dotted key it names
    # in backticks is a config key
    from homoflow.cli import _KEYS
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    parse_config(readme.split("Example config:\n\n```\n", 1)[1].split("```", 1)[0])
    sections = {key.split(".")[0] for key in _KEYS if "." in key}
    named = {word for word in (tok.split()[0] for tok in re.findall(r"`([^`\s][^`]*)`", readme))
             if "." in word and word.split(".")[0] in sections}
    assert "sweep.eps" in named
    assert named <= set(_KEYS), named - set(_KEYS)


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


@pytest.mark.parametrize("name", FAMILY_NAMES)
def test_every_family_is_analytic(name):
    # the invariant suite holds analytic systems to 1e-10, flow-built ones
    # to 1e-6: a family whose derivatives stop being exact fails here
    system = build_system(parse_config(f"family.name = {name}"), 0.2)
    assert system.analytic
    report = hf.invariant_suite(system, n_samples=200)
    assert report.check("rectification").tolerance == 1e-10
    assert report.all_passed, report.checks


def test_build_coefficients_twist_detects_constants(monkeypatch):
    # the identity limit map fixes them at every eps: no eps system is built
    import homoflow.cli as cli_mod

    def refuse(cfg, eps):
        raise AssertionError("the twist limit coefficients need no eps system")

    monkeypatch.setattr(cli_mod, "build_system", refuse)
    for amp in (0, 0.5):
        cfg = parse_config(f"family.name = example31\nfamily.alpha_amp = {amp}")
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


def test_run_sweep_builds_and_solves_each_eps_once(monkeypatch):
    # and hands the solved systems to convergence_sweep as data, with the
    # limit datum v0 = sigma0 * u0
    import homoflow.cli as cli_mod
    built, solved, handed, limit_data = [], [], [], []

    def build(cfg, eps):
        built.append((eps, build_system(cfg, eps)))
        return built[-1][1]

    def solve(b, u0, integ):
        solved.append(hf.solve_transport(b, u0, integ))
        return solved[-1]

    def sweep(systems, coeffs, v0, *args, **kwargs):
        handed.extend(systems)
        limit_data.append((coeffs, v0))
        return hf.convergence_sweep(systems, coeffs, v0, *args, **kwargs)

    monkeypatch.setattr(cli_mod, "build_system", build)
    monkeypatch.setattr(cli_mod, "solve_transport", solve)
    monkeypatch.setattr(cli_mod, "convergence_sweep", sweep)
    cfg = parse_config(FAST_SWEEP.replace("sweep.eps = 0.4,0.2", "sweep.eps = 0.4,0.2,0.1"))
    assert run_sweep(cfg)[0] == 0
    assert [eps for eps, _ in built] == [0.4, 0.2, 0.1] and len(solved) == 3
    assert [(eps, id(system), id(sol)) for eps, system, sol in handed] == [
        (eps, id(system), id(sol)) for (eps, system), sol in zip(built, solved)]
    [(coeffs, v0)] = limit_data
    u0 = cli_mod._datum(cfg)
    pts = np.random.default_rng(0).uniform(-1.5, 1.5, (200, 2))
    assert np.array_equal(v0.eval(pts), u0.eval(pts) * coeffs.sigma0_at(pts))


def test_strong_box_is_sized_from_the_first_eps(monkeypatch):
    # the strong wrapper records inside the cells: one CPU keeps them here
    import homoflow.cli as cli_mod
    monkeypatch.setattr(hf.diagnostics, "_usable_cpus", lambda: 1)
    sized, boxes = [], []
    real_sup, real_strong = cli_mod._estimated_sup, cli_mod.strong_l2_error

    def sup(system, radius):
        sized.append(system.eps)
        return real_sup(system, radius)

    def strong(sol_eps, sol_limit, system, box, *args, **kwargs):
        boxes.append((system.eps, box))
        return real_strong(sol_eps, sol_limit, system, box, *args, **kwargs)

    monkeypatch.setattr(cli_mod, "_estimated_sup", sup)
    monkeypatch.setattr(cli_mod, "strong_l2_error", strong)
    cfg = parse_config(FAST_SWEEP)
    assert run_sweep(cfg)[0] == 0
    assert sized == [0.4]
    expect = hf.dependence_box(cli_mod._datum(cfg),
                               real_sup(build_system(cfg, 0.4), cfg.u0_radius + cfg.T + 1.0),
                               cfg.T, margin=0.2)
    assert [eps for eps, _ in boxes] == [0.4, 0.2]
    for _, box in boxes:
        assert np.array_equal(box.lo, expect.lo) and np.array_equal(box.hi, expect.hi)


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


_PINNED_OUTPUTS = [
    ("family.name = deltagamma",
     "80ee55b73ee9506d1a4efd6ff4d4e091fde74a15696c80c6fb8e5bc1988a5324", run_sweep),
    # a non-identity affine part exercises the M + periodic-part Jacobian
    ("family.name = periodic\nfamily.m = 1.2,0.3,-0.1,0.9",
     "19f626f022511e5d5cc77f5ab22d0d7ecddf01e277641a70d5e9bcc1bed93237", run_sweep),
    # the twist drift: identity alpha, a perturbed alpha with a second beta
    # amplitude, and beta = 0 (the zero curve, no sin or cos)
    ("family.name = example31",
     "2b40d6dd829090528bd5e66379a73e4081aced25bcf447f073c2a66df93de10f", run_sweep),
    ("family.name = example31\nfamily.alpha_amp = 0.5\nfamily.beta_amp = 0.7",
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
     "c93cd905f80082dee3ce92c8822e53e2c1359049879fa2e100a284da6ce93c0d", run_check),
    ("family.name = example31",
     "c218509fcfd6f439eb870b1cee7eec621877fe3058c867d8b6160618cfb6c239", run_check),
    ("family.name = example31\nfamily.alpha_amp = 0.5\nfamily.beta_amp = 0.7",
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
    ("family.name = example31\nfamily.alpha_amp = 0.5\nfamily.beta_amp = 0.7",
     "2d9ac2d1c8dc051bdf2f909e8bb51a8a630229528b9c0fcae31b9ed4f8337f5a", run_homogenize),
]


@pytest.mark.parametrize("family,digest,command", _PINNED_OUTPUTS)
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


@pytest.mark.parametrize("family,digest", [
    (family, digest) for family, digest, command in _PINNED_OUTPUTS
    if command is run_sweep and family in (
        "family.name = deltagamma", "family.name = example31",
        "family.name = example31\nfamily.alpha_amp = 0.5\nfamily.beta_amp = 0.7")])
def test_sweep_bytes_hold_on_one_cpu_and_on_every_cpu(family, digest, monkeypatch):
    # the weak and strong cells run on every usable CPU (three workers here,
    # whatever the machine has) or in this process alone, to the same bytes
    cfg = parse_config(family + SMOKE_SWEEP)
    for cpus in (None, 3, 1):
        if cpus is not None:
            monkeypatch.setattr(hf.diagnostics, "_usable_cpus", lambda: cpus)
        csv = run_sweep(cfg)[1]
        assert hashlib.sha256(csv.encode()).hexdigest() == digest, cpus
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_failing_cells_end_as_in_one_process(tmp_path, capfd, monkeypatch):
    # the perturbed-alpha sweep at beta_amp 1.5 steps RK4 to a non-finite
    # state (ROADMAP: FOUND 41 and 46); its cells fail in a forked worker,
    # run again here, and exit 3 with the one-process message and warnings
    path = tmp_path / "blowup.cfg"
    path.write_text("family.name = example31\nfamily.alpha_amp = 0.5\n"
                    "family.beta_amp = 1.5" + SMOKE_SWEEP)
    outputs = []
    for cpus in (3, 1):
        monkeypatch.setattr(hf.diagnostics, "_usable_cpus", lambda: cpus)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", RuntimeWarning)
            assert main(["sweep", "--config", str(path)]) == 3
        seen = [(w.category, str(w.message), w.filename, w.lineno) for w in caught]
        outputs.append((capfd.readouterr(), seen))
    assert outputs[0] == outputs[1]
    (out, err), seen = outputs[0]
    assert out == "" and err == "numeric error: non-finite state at t = 0.28\n"
    assert seen and {category for category, *_ in seen} == {RuntimeWarning}
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_sweep_refuses_a_bump_whose_time_window_holds_no_node(tmp_path, capsys):
    # radius 0.01 at 16 time nodes: no midpoint time lies within 0.01 of
    # bump 0's t = 0.45, and every pairing of it read exactly 0 (exit 0)
    path = tmp_path / "narrow.cfg"
    path.write_text("family.name = deltagamma\ndictionary.radius = 0.01\n"
                    "quadrature.time_nodes = 16\nT = 1\n")
    assert main(["sweep", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "key 'quadrature.time_nodes'" in err
    assert "time window 0.45 +- 0.01 of dictionary bump 0" in err
    # a node inside every window passes: t = 0.46875 lies within 0.02 of 0.45
    path.write_text("family.name = deltagamma\ndictionary.radius = 0.02\n"
                    "quadrature.time_nodes = 16\nsweep.eps = 0.4\n"
                    "dictionary.count = 1\nquadrature.lp_m = 8\n")
    assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "o.csv")]) == 0


@pytest.mark.parametrize("family", ["deltagamma", "example31"])
def test_sweep_takes_strong_times_of_either_sign(family):
    # each sampler integrates both signs in one call; the strong column is
    # the max over the strong times of the one-sign sweeps' errors (an
    # off-center datum, so that the twist's odd symmetry does not make the
    # two signs' errors equal)
    def sweep(times):
        code, csv = run_sweep(parse_config(f"family.name = {family}\nu0.center = 0.2,0.1\n"
                                           f"sweep.strong_t = {times}" + SMOKE_SWEEP))
        assert code == 0
        return [line.split(",") for line in csv.splitlines()]

    mixed, ahead, back = sweep("-0.52,0.52"), sweep("0.52"), sweep("-0.52")
    assert any(a[6] != b[6] for a, b in zip(ahead[2:], back[2:]))
    for a, b in zip(ahead[2:], back[2:]):
        a[6] = max(a[6], b[6], key=float)
    assert mixed == ahead


def test_twist_sweep_leaves_far_strong_nodes_unintegrated():
    # the smoke sweep at beta_amp 1.5 passes the step rule on |x1|, |x2| <= 3,
    # but its strong box has half-width 20, whose corners RK4 stepped to a
    # non-finite state (exit 3); with the identity alpha they are not
    # integrated, and the run gives finite errors
    code, csv = run_sweep(parse_config("family.name = example31\nfamily.beta_amp = 1.5"
                                       + SMOKE_SWEEP))
    assert code == 0
    rows = [line.split(",") for line in csv.splitlines()[2:]]
    assert len(rows) == 6
    assert all(np.isfinite(float(v)) for row in rows for v in row[1:])


_NUMBER_KEYS = [key for key, (_, _, kind) in _KEYS.items() if kind in ("int", "float")]


@pytest.mark.parametrize("key", _NUMBER_KEYS)
def test_every_number_key_at_minus_one_ends_in_an_exit_code(key, tmp_path, capsys):
    # a negative seed ended in a numpy ValueError traceback; an out-of-range
    # value exits 2 naming its key, any other run exits 0 or 1
    path = tmp_path / "minus.cfg"
    for family in FAMILY_NAMES:
        path.write_text(f"family.name = {family}\n{key} = -1\n"
                        + ("" if key == "check.samples" else "check.samples = 20\n"))
        code = main(["check", "--config", str(path)])
        assert code in (0, 1, 2)
        if code == 2:
            assert f"key {key!r}:" in capsys.readouterr().err


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


@pytest.mark.parametrize("text,key", [
    ("T = inf", "T"),
    ("sweep.eps = inf,0.2", "sweep.eps"),
    ("dictionary.radius = inf", "dictionary.radius"),
    ("family.name = periodic\nfamily.m = 0.5,0,0,0.5\nfamily.delta = 0.9\n"
     "family.gamma = 0.9", "family.delta"),
    ("family.name = periodic\nfamily.m = 1,0,0,0", "family.m"),
    ("family.name = periodic\nfamily.m = 0,1,1,0\nfamily.delta = 0\nfamily.gamma = 0",
     "family.m"),
])
def test_out_of_range_numbers_exit_2_naming_the_key(text, key, tmp_path, capsys):
    # non-finite numbers crashed (T), broke the SVD (sweep.eps) or zeroed every
    # weak error (dictionary.radius); the 0.5 I cell's determinant reaches
    # 0.25 - 0.81 < 0, which only the cell scan refused, naming no key; a
    # singular or orientation-reversing M fails at every delta and gamma
    path = tmp_path / "bad.cfg"
    path.write_text(text + "\n")
    assert main(["sweep", "--config", str(path)]) == 2
    assert f"key {key!r}:" in capsys.readouterr().err


def test_periodic_cell_rule_is_the_corner_determinant(tmp_path):
    # M = 3 I with delta = gamma = 1.5: the determinant lies in [6.75, 11.25],
    # though |delta * gamma| > 1
    path = tmp_path / "wide.cfg"
    path.write_text("family.name = periodic\nfamily.m = 3,0,0,3\nfamily.delta = 1.5\n"
                    "family.gamma = 1.5\ncheck.samples = 50\n")
    assert main(["check", "--config", str(path), "--out", str(tmp_path / "o.csv")]) == 0


def test_numeric_error_exit_code(tmp_path):
    # Richardson guard trips on a grossly coarse step for a fast oscillation
    cfg = tmp_path / "coarse.cfg"
    cfg.write_text("family.name = deltagamma\neps = 0.05\n"
                   "integrator.h = 0.5\nintegrator.richardson = true\n"
                   "simulate.m = 3\nsimulate.t = 1\n")
    assert main(["simulate", "--config", str(cfg)]) == 3


def test_sample_grids_checked_before_work(tmp_path, capsys):
    # a 2,000,000^2 grid used to end in "Unable to allocate 29.1 TiB";
    # each grid key refuses only the command that reads it
    path = tmp_path / "grid.cfg"
    path.write_text("simulate.m = 2000000\nquadrature.lp_m = 2000000\n"
                    "check.samples = 20\n")
    for command, key in (("simulate", "simulate.m"), ("sweep", "quadrature.lp_m")):
        assert main([command, "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"key {key!r}:" in err and "n = 2000000" in err
    assert main(["check", "--config", str(path)]) == 0


def test_numeric_failures_exit_3(tmp_path, capsys, monkeypatch):
    # failures no config rule foresees: a drift whose sampled sup is not
    # finite, and an array that cannot be allocated
    import homoflow.cli as cli_mod
    path = tmp_path / "c.cfg"
    path.write_text("family.name = example31\nsimulate.m = 3\n")
    system = build_system(parse_config(path.read_text()), 0.1)
    inf_drift = replace(system, b=replace(system.b, eval=lambda x: np.full(x.shape, np.inf)))
    monkeypatch.setattr(cli_mod, "build_system", lambda cfg, eps: inf_drift)
    assert main(["simulate", "--config", str(path)]) == 3
    assert capsys.readouterr().err.startswith("numeric error: the drift's sampled sup is inf")

    def unallocatable(cfg):
        raise MemoryError("Unable to allocate 29.1 TiB")

    monkeypatch.setitem(cli_mod._COMMANDS, "simulate", (unallocatable, ""))
    assert main(["simulate", "--config", str(path)]) == 3
    assert capsys.readouterr().err == "numeric error: Unable to allocate 29.1 TiB\n"


def test_check_samples_are_capped_before_work(tmp_path, capsys):
    # 10^12 samples used to end in "numeric error: Unable to allocate 14.6 TiB";
    # the cap is what a check holds in under 1 GB
    assert parse_config(f"check.samples = {2 ** 21}").check_samples == 2 ** 21
    with pytest.raises(ConfigError, match="'check.samples'"):
        parse_config(f"check.samples = {2 ** 21 + 1}")
    for n in (2 ** 21 + 1, 10 ** 12):
        path = tmp_path / "huge.cfg"
        path.write_text(f"family.name = deltagamma\ncheck.samples = {n}\n")
        assert main(["check", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith("config error: key 'check.samples':")


def test_unwritable_out_exits_2_before_the_command_runs(tmp_path, capsys, monkeypatch):
    import homoflow.cli as cli_mod

    def never(cfg):
        raise AssertionError("the command ran")

    monkeypatch.setitem(cli_mod._COMMANDS, "check", (never, ""))
    cfgfile = tmp_path / "c.cfg"
    cfgfile.write_text("family.name = identity\ncheck.samples = 20\n")
    for out in (tmp_path / "missing" / "x.csv", tmp_path):
        assert main(["check", "--config", str(cfgfile), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("config error: cannot write output file")
    assert not (tmp_path / "missing").exists()


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
def test_failed_out_write_exits_2(tmp_path, capsys):
    # a write that fails after the run (no space left) is reported, not raised
    cfgfile = tmp_path / "c.cfg"
    cfgfile.write_text("family.name = identity\ncheck.samples = 20\n")
    assert main(["check", "--config", str(cfgfile), "--out", "/dev/full"]) == 2
    assert capsys.readouterr().err.startswith(
        "config error: cannot write output file '/dev/full': [Errno")


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
