"""The ten acceptance criteria, one assertion per criterion.

Each test prints the criterion's pass/fail line and asserts it.  The
same checks run end-to-end via `fracwave acceptance --assert`.
"""

from fracwave import acceptance


def _check(index):
    result = acceptance.run_all([index])[0]
    print(result.line())
    assert result.passed, result.detail


def test_criterion_1_corrected_cq_exactness():
    _check(1)


def test_criterion_2_monomial_rate_tables():
    _check(2)


def test_criterion_2_builds_each_scheme_once(monkeypatch):
    # 4 orders x 7 step sizes, shared by the four operators and four powers
    from fracwave.cq import CQScheme

    builds = []
    build = CQScheme.build.__func__

    def counting_build(cls, *args):
        builds.append(args)
        return build(cls, *args)

    monkeypatch.setattr(CQScheme, "build", classmethod(counting_build))
    assert acceptance.criterion_2().passed
    assert len(builds) == len(set(builds)) == 28


def test_criterion_3_discrete_positivity():
    _check(3)


def test_criterion_4_positivity_constants():
    _check(4)


def test_criterion_5_smooth_1d_convergence():
    _check(5)


def test_criterion_5_builds_one_system_per_mesh(monkeypatch, fresh_systems):
    # 7 sub-cases x 4 levels share the 4 meshes: one assembly and one
    # lambda_max of the CFL guard each
    from fracwave import fem, harness

    assembled, solved = [], []
    assemble, eigenvalue = harness.assemble, fem.max_generalized_eigenvalue
    monkeypatch.setattr(harness, "assemble",
                        lambda mesh: assembled.append(len(mesh.interior)) or assemble(mesh))
    monkeypatch.setattr(fem, "max_generalized_eigenvalue",
                        lambda system: solved.append(system.ndof) or eigenvalue(system))
    acceptance.criterion_5()
    assert assembled == solved == [10, 20, 42, 84]


def test_criterion_6_nonsmooth_1d_convergence():
    _check(6)


def test_criterion_7_smooth_2d_convergence():
    _check(7)


def test_criterion_8_energy_conservation_dissipation():
    _check(8)


def test_criterion_9_oracle_startup_asymptotics():
    _check(9)


def test_criterion_10_oracle_solver_equivalence():
    _check(10)


def test_criterion_10_traces_the_probe_of_every_row(monkeypatch):
    # the probe's values, kept alone, are the probe column of the rows
    # u_0..u_N of the same run
    import numpy as np

    from fracwave.solver import KeptRows

    calls = []
    run = acceptance.run

    def recording_run(config, observe=None):
        calls.append((config, observe))
        return run(config, observe)

    monkeypatch.setattr(acceptance, "run", recording_run)
    assert acceptance.criterion_10().passed
    [(config, probe)] = calls
    rows = KeptRows()
    run(config, observe=rows)
    assert probe.us.shape == (config.n_steps + 1,)
    np.testing.assert_array_equal(probe.us, rows.us[:, probe.column])


def test_smooth2d_skip_guard_reads_the_graded_norm(monkeypatch):
    # smooth2d is graded on max-L2: clean energy rates must not hide
    # pre-asymptotic L2 rates
    from fracwave.harness import GEOMETRY, ConvergenceReport

    def fake_run_convergence(case, corrected, levels, check_rhs):
        kappa0 = GEOMETRY[case.dimension].kappa0
        energy = [4.0**-lev for lev in range(levels)]
        l2 = [1.0, 0.25, 0.0625, 0.05]
        rows = [(10 * kappa0 / 2**lev, kappa0 / 2**lev, energy[lev], l2[lev])
                for lev in range(levels)]
        report = ConvergenceReport(case=case.name, gamma=case.frac.gamma,
                                   alpha0=case.frac.alpha0, corrected=corrected,
                                   coupling=case.coupling, levels=rows)
        report.fit()
        return report

    monkeypatch.setattr(acceptance, "run_convergence", fake_run_convergence)
    ok, text = acceptance._fit_subcase("smooth2d", 0.7, 1.0, True, 2.0, 0.2)
    assert ok is None
    assert text.endswith("skipped(pre-asymptotic)")
