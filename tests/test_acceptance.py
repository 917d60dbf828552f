"""Acceptance suite: every shipped guarantee checked at its stated tolerance.

Each test prints one `ACCEPTANCE <nn> <name>: PASS/FAIL` line; tolerances are
pinned in the assertions, nothing is deferred to runtime calibration.
"""

import contextlib
import os
import subprocess
import sys

import numpy as np

from anisoq import approx as ap
from anisoq import construction as con
from anisoq import currents, energy, exterior
from anisoq import gmeasures as gm
from anisoq import multipoint as mp
from anisoq.energy import PsiConfig
from tests.conftest import cli_env, g_metric_hungarian, projected_mass_h

EPS_GRID = (0.02, 0.05, 0.1, 0.15, 0.2)
E12 = np.array([1.0, 0, 0, 0, 0, 0])


@contextlib.contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:02d} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {num:02d} {name}: PASS")


def unit_mesh(n):
    return currents.Mesh(x0=(0.0, 0.0), r=1.0, n=n)


def test_c01_delta_limit_and_residuals():
    with criterion(1, "delta limit and quadratic residual"):
        assert 0.5 - 1e-6 <= con.delta_of_eps(1e-6) <= 0.5 + 1e-6
        for eps in EPS_GRID:
            t = con.delta_of_eps(eps) ** 2
            A, B, C = con.delta_quadratic_coeffs(eps)
            assert abs(A * t * t + B * t + C) <= 1e-12


def test_c02_construction_identities():
    with criterion(2, "construction identities on the eps grid"):
        for eps in EPS_GRID:
            b = con.build(eps)
            cf = con.closed_forms(eps, b.delta)
            nrm = np.linalg.norm(b.v, axis=1)
            assert abs(nrm[0] - nrm[2]) <= 1e-12
            assert np.linalg.norm(b.v.sum(axis=0) - 2 * b.delta**2 * E12) <= 1e-12
            for i in range(3):
                assert abs(exterior.plucker(b.v[i])) <= 1e-12
            # lift identity; the derived constant is c1 = delta^2 (4 - eps^4)/4,
            # equivalently LambdaM(X1) = (4 / (delta^2 (4 - eps^4))) v1
            c1 = b.delta**2 * (4 - eps**4) / 4.0
            assert np.linalg.norm(b.v[0] - c1 * exterior.lambda_m_batch(b.X)[0]) <= 1e-10
            k1 = 4.0 / (b.delta**2 * (4 - eps**4))
            assert np.linalg.norm(k1 * b.v[0] - exterior.lambda_m_batch(b.X)[0]) <= 1e-10
            assert abs(nrm[0] ** 2 - cf["norm_v1_sq"]) <= 1e-12
            assert abs(nrm[2] ** 2 - cf["norm_v3_sq"]) <= 1e-12
            assert abs(b.w[0, 0] - cf["w1_dot_e12"]) <= 1e-12
            assert abs(b.w[2, 5] - cf["w3_dot_e34"]) <= 1e-12
            assert abs(b.w[2] @ b.w[2] - cf["norm_w3_sq"]) <= 1e-12


def test_c03_classification():
    with criterion(3, "classification of the squeezed planes"):
        for eps in EPS_GRID:
            b = con.build(eps)
            assert exterior.classify_bivector(b.w[0], eps) == exterior.HORIZONTAL
            assert exterior.classify_bivector(b.w[1], eps) == exterior.HORIZONTAL
            assert exterior.classify_bivector(b.w[2], eps) == exterior.VERTICAL
        rng = np.random.default_rng(1234)
        E = np.eye(4)
        n_hit = 0
        for i in range(10_000):
            if i % 2 == 0:
                u, v = rng.normal(size=(2, 4))
            else:
                base = (E[0], E[1]) if i % 4 == 1 else (E[3], E[2])
                u = base[0] + 0.2 * rng.normal(size=4)
                v = base[1] + 0.2 * rng.normal(size=4)
            w = exterior.wedge(u, v)
            if np.linalg.norm(w) < 1e-9:
                continue
            if exterior.scalar_horizontal_test(w, 0.1):
                assert exterior.classify_bivector(w, 0.1) == exterior.HORIZONTAL
                n_hit += 1
            if exterior.scalar_vertical_test(w, 0.1):
                assert exterior.classify_bivector(w, 0.1) == exterior.VERTICAL
                n_hit += 1
        assert n_hit > 100


def test_c04_current_engine():
    with criterion(4, "current engine identities"):
        rng = np.random.default_rng(77)
        count = 0
        for trial in range(100):
            q = int(rng.integers(1, 4))
            g = currents.random_lipschitz_graph(int(rng.integers(2**31)), 2.0, q, unit_mesh(5))
            T = currents.triangulate(g)
            bary = T.gaussian_image().barycenter()
            assert np.linalg.norm(bary - q * E12) <= 1e-8
            pm, parts = T.partition(0.1)
            assert abs(pm.mH + pm.mV + pm.mM - T.mass()) <= 1e-10
            assert projected_mass_h(parts[exterior.HORIZONTAL]) <= q + 1e-8
            count += 1
        assert count == 100
        # tangential Jacobian identity for the squeeze on the three planes
        b = con.build(0.1)
        R = np.diag([1.0, 1.0, 0.1, 0.1])
        for i in range(3):
            tri = np.array([np.zeros(4), b.u[i, 0], b.u[i, 0] + b.u[i, 1]])
            T = currents.TriangulatedCurrent(tri[None, :, :], [1])
            ratio = T.pushforward(R).mass() / T.mass()
            assert abs(ratio - np.linalg.norm(b.w[i]) / np.linalg.norm(b.v[i])) <= 1e-12
        # coarea inequality with <= 2% discretisation slack
        r = 0.25
        for T in (
            currents.flat_disk_current(n_r=16, n_theta=48),
            currents.branched_graph(2, 1.0, 1.0, n_r=16, n_theta=48),
        ):
            rhos = np.linspace(r, 2 * r, 41)
            vals = [T.slice_mass(np.zeros(4), rho) for rho in rhos]
            assert np.trapezoid(vals, rhos) <= T.mass_in_ball(np.zeros(4), 2 * r, subdiv=24) * 1.02


def test_c05_chain_inequalities_and_ratio():
    with criterion(5, "chain inequalities and mixed/vertical ratio"):
        eps = 0.1
        b = con.build(eps)
        suite = []
        for q in (1, 2, 3):
            for i in range(4):
                T = currents.triangulate(
                    currents.random_lipschitz_graph(1000 * q + i, 2.0, q, unit_mesh(6))
                )
                suite.append((q, T, 1.0))
        for t_slope in (3.0, 4.0, 6.0):
            suite.append(
                (1, currents.triangulate(
                    currents.steep_plateau_graph(t_slope, 1, unit_mesh(12))), 1.0)
            )
        for i in range(3):
            suite.append(
                (2, currents.triangulate(
                    currents.ray_plateau_graph(b.X[i], 2, unit_mesh(12))), 1.0)
            )
        area = currents.polygon_disk_area(24)
        for amp in (1.0, 8.0):
            suite.append((2, currents.branched_graph(2, amp, 1.0, n_r=10, n_theta=24), area))
        for q, T, dom_area in suite:
            rep = currents.chain_report(T, q, eps, domain_area=dom_area)
            assert rep["est0_value"] >= -1e-8
            assert rep["est0_exact_atoms"] >= -1e-8
            assert rep["est1_slack"] >= -1e-8
            pm, _ = T.partition(eps)
            if pm.mV > 0:
                assert pm.mM / pm.mV >= 1.0 / 200.0 - 1e-8


def test_c06_envelope_bracket():
    with criterion(6, "envelope bracket"):
        b = con.build(0.1)
        cfg = PsiConfig.for_eps(0.1)
        for q in (1, 2):
            for X in b.X:
                val, _, _ = energy.envelope_upper((q, X), cfg)
                assert val == 0.0
            upper, _, _ = energy.envelope_upper((q, np.zeros((2, 2))), cfg)
            assert upper <= q + 1e-12
            lower, trace = energy.envelope_lower_at_zero(b, q)
            assert lower > 0.0
            assert abs(trace["norm_w1"] - trace["norm_w1_closed_form"]) <= 1e-12
            assert abs(trace["norm_w3"] - trace["norm_w3_closed_form"]) <= 1e-12
            assert lower <= upper + 1e-9


def test_c07_certificate():
    with criterion(7, "non-convexity certificate"):
        cfg = PsiConfig.for_eps(0.1)
        b = con.build(0.1)
        for q in (1, 2):
            uppers = [energy.envelope_upper((q, X), cfg)[0] for X in b.X]
            lower, _ = energy.envelope_lower_at_zero(b, q)
            cert = con.certificate(b, uppers, lower)
            assert np.all(np.asarray(cert["lambda"]) > 0)
            assert cert["residual_sum"] <= 1e-12
            assert cert["residual_affine"] <= 1e-10
            assert cert["gap"] > 0.0
            assert cert["valid"]


def test_c08_interpolation():
    # g_k's collar blend, the lab's one annulus interpolation: on every kept
    # cube its trace is the affine model on the shrunken square and f on the
    # full square, and g_k's sampled Lipschitz constant stays within
    # 10 (L_f + max |X| + gap / w), gap the largest 𝒢(f, model) on the full
    # squares and w the collar width
    with criterion(8, "annulus interpolation"):
        cfg = PsiConfig.for_eps(0.1)
        taus = np.arange(32) / 32
        for f in (ap.smooth_profile(), ap.twosheet_profile()):
            e_ref = ap.energy_of_map(f, cfg)
            for k in (4, 8):
                g, rep = ap.piecewise_affine_sequence(f, k, cfg, e_ref)
                sub = g.sub
                z = sub.centers[:, None]  # (n_cubes, 1, 2)
                s_in, s_out = 0.5 * g.shrink * sub.r, 0.5 * sub.r
                # one ring (n_cubes, 32, 2) per square, all cubes at once
                x_in, x_out = (ap._square_perimeter(z, s, taus) for s in (s_in, s_out))
                # the cubes' models there, (n_cubes, 32, J, 2)
                a, X = sub.part_a[:, None], sub.part_X[:, None]
                m_in, m_out = (a + (X @ (x - z)[..., None, :, None])[..., 0] for x in (x_in, x_out))
                assert np.max(np.abs(g.part_values(x_in) - m_in)) <= 1e-12
                f_out = f.part_values(x_out)
                assert np.max(np.abs(g.part_values(x_out) - f_out)) <= 1e-12
                gap = np.max(mp.g_metric(np.repeat(f_out, f.mults, axis=-2),
                                         np.repeat(m_out, f.mults, axis=-2)))
                lx = np.max(np.linalg.norm(sub.part_X, axis=(-2, -1)))
                assert rep["lipschitz"] <= 10.0 * (f.lipschitz + lx + gap / (s_out - s_in))


def test_c09_approx_pipeline():
    with criterion(9, "piecewise-affine approximation pipeline"):
        cfg = PsiConfig.for_eps(0.1)
        f = ap.smooth_profile()
        e_ref = ap.energy_of_map(f, cfg)
        errs = []
        for k in (4, 8, 16, 32):
            _g, rep = ap.piecewise_affine_sequence(f, k, cfg, e_ref)
            assert rep["bad_set_full"] <= 2.0 / k
            assert rep["bad_set_shrunk"] <= 3.0 / k
            errs.append(abs(rep["energy_psi_bar"] - e_ref))
        assert all(errs[i + 1] < errs[i] for i in range(len(errs) - 1)), errs


def test_c10_metric_suites():
    with criterion(10, "matching and transport metric suites"):
        rng = np.random.default_rng(555)
        for _ in range(500):
            q = int(rng.integers(2, 7))
            xs, ys = rng.normal(size=(2, q, 2))
            d1 = mp.g_metric(xs, ys)
            d2 = g_metric_hungarian(xs, ys)
            assert abs(d1 - d2) <= 1e-10
        for _ in range(100):
            q = int(rng.integers(1, 5))
            a, b_, c = (rng.normal(size=(q, 2)) for _ in range(3))
            assert mp.g_metric(a, b_) <= mp.g_metric(a, c) + mp.g_metric(c, b_) + 1e-10
            assert abs(mp.g_metric(a, b_) - mp.g_metric(b_, a)) <= 1e-10

        import itertools

        def oracle(apts, bpts, w):
            best = np.inf
            for perm in itertools.permutations(range(apts.shape[0])):
                best = min(
                    best,
                    sum(w * np.linalg.norm(apts[i] - bpts[p]) for i, p in enumerate(perm)),
                )
            return best

        def rand_unit_simple():
            while True:
                wdg = exterior.wedge(rng.normal(size=4), rng.normal(size=4))
                n = np.linalg.norm(wdg)
                if n > 1e-6:
                    return wdg / n

        for _ in range(10):
            n = int(rng.integers(2, 7))
            a = np.stack([rand_unit_simple() for _ in range(n)])
            b_ = np.stack([rand_unit_simple() for _ in range(n)])
            mu = gm.GrassmannMeasure(a, [1.0] * n)
            nu = gm.GrassmannMeasure(b_, [1.0] * n)
            assert abs(gm.transport_distance(mu, nu) - oracle(a, b_, 1.0)) <= 1e-10
        for _ in range(10):
            pts = [np.stack([rand_unit_simple() for _ in range(3)]) for _ in range(3)]
            ms = [gm.GrassmannMeasure(p, [1.0] * 3) for p in pts]
            d01 = gm.transport_distance(ms[0], ms[1])
            assert abs(d01 - gm.transport_distance(ms[1], ms[0])) <= 1e-10
            assert d01 <= gm.transport_distance(ms[0], ms[2]) + gm.transport_distance(
                ms[2], ms[1]
            ) + 1e-8


def test_c11_cli_determinism(tmp_path):
    with criterion(11, "CLI determinism"):
        cases = [
            ["construct", "--eps", "0.1"],
            ["envelope", "--eps", "0.1", "--q", "1", "--target", "ray1",
             "--mesh", "4", "--starts", "1", "--seed", "0"],
            ["obstruction", "--eps", "0.1", "--q", "1", "--samples", "2",
             "--seed", "3", "--family", "random", "--mesh", "6"],
            ["approx", "--profile", "smooth", "--k", "4"],
            ["certificate", "--eps", "0.1", "--q", "1", "--mesh", "4",
             "--starts", "1", "--seed", "0"],
        ]
        for idx, args in enumerate(cases):
            outs = []
            for run in range(2):
                d = tmp_path / f"case{idx}_run{run}"
                d.mkdir()
                res = subprocess.run(
                    [sys.executable, "-m", "anisoq.cli"] + args,
                    capture_output=True, text=True, env=cli_env(d), timeout=600,
                )
                assert res.returncode == 0, (args, res.stderr)
                blob = {}
                for name in sorted(os.listdir(d)):
                    with open(os.path.join(d, name), "rb") as fh:
                        blob[name] = fh.read()
                blob["__stdout__"] = res.stdout.replace(str(d), "<out>").encode()
                outs.append(blob)
            assert outs[0] == outs[1], f"non-deterministic outputs for {args}"
