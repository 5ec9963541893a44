"""End-to-end acceptance battery.

Each test covers one numbered criterion (A1..A9) and prints a single
verdict line through ``capsys.disabled()`` so the pass/fail summary is
visible on the terminal regardless of capture settings.  Tolerances and
seed choices are frozen here; treat any change as a contract change.
"""

from __future__ import annotations

import math
import time

import numpy as np

import qselftest.devices as dv
import qselftest.extraction as ex
import qselftest.protocol as pr


def report(capsys, label: str, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"\n[{label}] {'PASS' if ok else 'FAIL'} {detail}", flush=True)
    assert ok, f"{label}: {detail}"


def fig1_circuit() -> dv.IdealCircuit:
    return dv.IdealCircuit(
        2,
        (
            dv.CircuitGate("g1", (0,), dv.builtin_gate("H")),
            dv.CircuitGate("g2", (0, 1), dv.builtin_gate("CNOT")),
            dv.CircuitGate("g3", (1,), dv.builtin_gate("X")),
        ),
        "00",
    )


def bell_circuit() -> dv.IdealCircuit:
    return dv.IdealCircuit(
        2,
        (
            dv.CircuitGate("g1", (0,), dv.builtin_gate("H")),
            dv.CircuitGate("g2", (0, 1), dv.builtin_gate("CNOT")),
        ),
        "00",
    )


def single_gate_circuit(name_or_matrix, wires=(0,), n=1) -> dv.IdealCircuit:
    mat = (
        dv.builtin_gate(name_or_matrix)
        if isinstance(name_or_matrix, str)
        else name_or_matrix
    )
    return dv.IdealCircuit(n, (dv.CircuitGate("g1", wires, mat),), "0" * n)


def random_real_state(rng, n: int) -> np.ndarray:
    v = rng.standard_normal(1 << n)
    return v / np.linalg.norm(v)


def exact_tomo_stats(vec: np.ndarray, n: int) -> dict:
    out = {}
    for key in ex.tomo_settings(n):
        proj = np.array([[1.0]], dtype=np.complex128)
        for a in key:
            d = np.array([math.cos(a), math.sin(a)])
            proj = np.kron(proj, np.outer(d, d))
        out[key] = float(np.real(vec.conj() @ proj @ vec))
    return out


def haar_unitary(rng, dim: int) -> np.ndarray:
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def unitary_exp(h: np.ndarray) -> np.ndarray:
    """exp(iH) for Hermitian H via its eigendecomposition."""
    w, v = np.linalg.eigh(h)
    return (v * np.exp(1j * w)) @ v.conj().T


def test_a1_ideal_epr_statistics(capsys):
    dev = dv.honest_device()
    t0 = time.monotonic()
    verdict = pr.epr_test(dev, mode="exact")
    elapsed = time.monotonic() - t0
    worst = 0.0
    recs = verdict.records
    (exp,) = recs.experiments
    for ((_, _, a), (_, _, b)), est, ideal_p in zip(exp.branches, recs.est_p, recs.ideal_p):
        ideal = 0.5 * math.cos(a - b) ** 2
        worst = max(worst, abs(est - ideal), abs(ideal_p - ideal))
    ok = (
        verdict.accepted
        and len(verdict.records) == 36
        and worst <= 1e-12
        and elapsed < 1.0
    )
    report(
        capsys,
        "A1",
        ok,
        f"36 settings vs cos^2 law, worst dev {worst:.2e}, {elapsed * 1e3:.0f} ms",
    )


def test_a2_honest_circuit_acceptance(capsys):
    t0 = time.monotonic()
    exact_devs = []
    for circ in (fig1_circuit(), bell_circuit()):
        v = pr.circuit_test(dv.honest_device(circ), circ, "00", mode="exact")
        exact_devs.append(v.max_deviation)
        assert v.accepted
    fig1 = fig1_circuit()
    dev = dv.honest_device(fig1)
    accepts = 0
    max_tv = 0.0
    for seed in range(100):
        v = pr.circuit_test(
            dev, fig1, "00", eps=0.1, gamma=0.05, seed=seed, mode="sampled"
        )
        accepts += v.accepted
        max_tv = max(max_tv, v.tv_distance)
    elapsed = time.monotonic() - t0
    # an honest device's empirical total variation stays well under 3*eps
    ok = (
        max(exact_devs) <= 1e-12
        and accepts >= 95
        and max_tv <= 0.3
        and elapsed < 120.0
    )
    report(
        capsys,
        "A2",
        ok,
        f"exact dev {max(exact_devs):.1e}, sampled {accepts}/100, "
        f"max tv {max_tv:.3f}, {elapsed:.1f} s",
    )


def test_a3_conspiracy_detection(capsys):
    vd = dv.van_dam_device()
    comp = vd.frames[("A", 0)].projector(0.0)
    had = vd.gates[("A", "g1")].matrix
    zero = np.eye(4)[0]  # the encoded 0, |00>
    one_h = float(np.linalg.norm(comp @ had @ zero) ** 2)
    two_h = float(np.linalg.norm(comp @ had @ had @ zero) ** 2)
    legacy_ok = abs(one_h - 0.5) <= 1e-12 and abs(two_h - 1.0) <= 1e-12

    circ = single_gate_circuit("H")
    verdict = pr.circuit_test(vd, circ, "0", eps=0.05, mode="exact")
    fails = verdict.records.deviation[verdict.failing].tolist()
    # frozen rejection fingerprint: every failing deviation sits on one of
    # three exact levels, with 15 records at the worst level
    levels = (0.125, math.sqrt(2) / 8, 0.25)
    on_level = all(
        min(abs(d - lv) for lv in levels) <= 1e-9 for d in fails
    )
    worst_count = sum(1 for d in fails if abs(d - 0.25) <= 1e-9)
    reject_ok = (
        not verdict.accepted
        and abs(verdict.max_deviation - 0.25) <= 1e-12
        and len(verdict.records) == 126
        and len(fails) == 66
        and on_level
        and worst_count == 15
        and verdict.tv_distance <= 1e-12
    )
    ok = legacy_ok and reject_ok
    report(
        capsys,
        "A3",
        ok,
        f"legacy check p={one_h:.3f}/{two_h:.3f}, rejection "
        f"max dev {verdict.max_deviation:.3f} with {len(fails)}/126 failing",
    )


def test_a4_state_extraction_exponent(capsys):
    t0 = time.monotonic()
    ps = (1e-4, 1e-3, 1e-2)
    eps = [p / 4 for p in ps]
    residuals = [
        ex.certify_state_equivalence(dv.noisy_source_device(p=p)).state_residual
        for p in ps
    ]
    elapsed = time.monotonic() - t0
    # calibrate at the largest p, where the quarter-root envelope is tightest
    # relative to the measured decay; anchoring at the smallest p would demand
    # the large-p residual beat an envelope the promised exponent cannot give
    c = residuals[-1] / eps[-1] ** 0.25
    bound_ok = all(
        r <= c * e**0.25 * (1 + 1e-9) for r, e in zip(residuals, eps)
    )
    slope = np.polyfit(np.log(eps), np.log(residuals), 1)[0]
    ok = bound_ok and slope >= 0.25 and elapsed < 60.0
    report(
        capsys,
        "A4",
        ok,
        f"residuals {residuals[0]:.2e}/{residuals[1]:.2e}/{residuals[2]:.2e}, "
        f"decay exponent {slope:.2f} >= 0.25, {elapsed:.1f} s",
    )


def test_a5_tomography_reconstruction(capsys):
    rng = np.random.default_rng(11)
    worst_exact = 0.0
    for k in range(50):
        n = 1 + k % 2
        vec = random_real_state(rng, n)
        rho = ex.tomo_reconstruct(exact_tomo_stats(vec, n), n)
        worst_exact = max(
            worst_exact, float(np.linalg.norm(rho - np.outer(vec, vec)))
        )

    noise_eps = (1e-6, 1e-4)
    mean_err = []
    for e in noise_eps:
        errs = []
        for k in range(20):
            n = 1 + k % 2
            vec = random_real_state(rng, n)
            stats = {
                key: p + rng.uniform(-e, e)
                for key, p in exact_tomo_stats(vec, n).items()
            }
            rho = ex.tomo_reconstruct(stats, n)
            errs.append(float(np.linalg.norm(rho - np.outer(vec, vec))))
        mean_err.append(float(np.mean(errs)))
    # same calibration direction as A4: fix C at the largest noise level,
    # then the sqrt envelope must cover the smaller one and the measured
    # decay must be at least as steep as the promised square root
    c = mean_err[-1] / math.sqrt(noise_eps[-1])
    bound_ok = mean_err[0] <= c * math.sqrt(noise_eps[0]) * (1 + 1e-9)
    slope = (math.log(mean_err[1]) - math.log(mean_err[0])) / (
        math.log(noise_eps[1]) - math.log(noise_eps[0])
    )
    ok = worst_exact <= 1e-10 and bound_ok and slope >= 0.5
    report(
        capsys,
        "A5",
        ok,
        f"50 exact worst {worst_exact:.2e}, noise errors "
        f"{mean_err[0]:.2e}@1e-6 {mean_err[1]:.2e}@1e-4, exponent {slope:.2f}",
    )


def test_a6_tensor_factor_recovery(capsys):
    rng = np.random.default_rng(23)
    worst_exact = 0.0
    shapes = ((1, 2), (1, 4), (2, 2))
    for k in range(50):
        n_id, wdim = shapes[k % 3]
        w = haar_unitary(rng, wdim)
        u = np.kron(np.eye(1 << n_id), w)
        got, res = ex.commutant_factor(u, n_id)
        worst_exact = max(worst_exact, res)
        assert got is not None
        assert np.linalg.norm(u - np.kron(np.eye(1 << n_id), got), 2) <= 1e-12

    worst_ratio = 0.0
    for e in (1e-4, 1e-3):
        for trial in range(5):
            w = haar_unitary(rng, 2)
            z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            k_mat = (z + z.conj().T) / 2
            k_mat /= np.linalg.norm(k_mat, 2)
            u = unitary_exp(e * k_mat) @ np.kron(np.eye(2), w)
            _, res = ex.commutant_factor(u, 1)
            worst_ratio = max(worst_ratio, res / e)
    ok = worst_exact <= 1e-12 and worst_ratio <= 10.0
    report(
        capsys,
        "A6",
        ok,
        f"50 exact products worst {worst_exact:.2e}, "
        f"perturbed residual <= {worst_ratio:.2f} eps",
    )


def test_a7_gate_equivalence(capsys):
    cases = [
        ("H", single_gate_circuit("H")),
        ("X", single_gate_circuit("X")),
        ("R(pi/5)", single_gate_circuit(dv.rotation(math.pi / 5))),
        ("CNOT", single_gate_circuit("CNOT", wires=(0, 1), n=2)),
    ]
    worst_honest = 0.0
    for _, circ in cases:
        for make in (dv.honest_device, lambda c: dv.rotated_device(c, theta=0.7)):
            rep = ex.certify_gate_equivalence(make(circ), circ, 1)
            worst_honest = max(worst_honest, rep.gate_residual)

    wrongs = []
    for circ, bad_mat in (
        (single_gate_circuit("H"), dv.rotation(math.pi / 8)),
        (single_gate_circuit("X"), dv.rotation(0.0)),
    ):
        ideal = circ.gates[0].matrix
        assert np.linalg.norm(ideal - bad_mat, 2) >= 0.3
        base = dv.honest_device(circ)
        gates = dict(base.gates)
        gates[("A", "g1")] = dv.DeviceGate("A", (0,), bad_mat)
        bad = dv.DeviceModel(base.layout, base.source, gates, dict(base.frames))
        wrongs.append(ex.certify_gate_equivalence(bad, circ, 1).gate_residual)
    ok = worst_honest <= 1e-9 and min(wrongs) >= 0.1
    report(
        capsys,
        "A7",
        ok,
        f"honest/rotated worst {worst_honest:.2e}, "
        f"wrong-gate residuals {wrongs[0]:.2f}/{wrongs[1]:.2f}",
    )


def test_a8_frame_blindness(capsys):
    fig1 = fig1_circuit()
    honest_epr = pr.epr_test(dv.honest_device(), mode="exact")
    honest_sampled = pr.epr_test(dv.honest_device(), mode="sampled", seed=3)
    honest_circ = pr.circuit_test(
        dv.honest_device(fig1), fig1, "00", mode="exact"
    )
    honest_state = ex.certify_state_equivalence(dv.honest_device())
    honest_gate = ex.certify_gate_equivalence(dv.honest_device(fig1), fig1, 1)

    worst = 0.0
    for theta in (0.3, 1.0, 2.2):
        epr = pr.epr_test(dv.rotated_device(theta=theta), mode="exact")
        assert epr.accepted == honest_epr.accepted
        worst = max(worst, abs(epr.max_deviation - honest_epr.max_deviation))

        sam = pr.epr_test(dv.rotated_device(theta=theta), mode="sampled", seed=3)
        assert sam.accepted == honest_sampled.accepted
        worst = max(
            worst, abs(sam.max_deviation - honest_sampled.max_deviation)
        )

        circ = pr.circuit_test(
            dv.rotated_device(fig1, theta=theta), fig1, "00", mode="exact"
        )
        assert circ.accepted == honest_circ.accepted
        assert circ.y == honest_circ.y
        worst = max(worst, abs(circ.max_deviation - honest_circ.max_deviation))
        worst = max(worst, abs(circ.tv_distance - honest_circ.tv_distance))

        state = ex.certify_state_equivalence(dv.rotated_device(theta=theta))
        worst = max(worst, abs(state.state_residual - honest_state.state_residual))
        worst = max(
            worst,
            abs(
                max(state.projector_residuals.values())
                - max(honest_state.projector_residuals.values())
            ),
        )

        gate = ex.certify_gate_equivalence(
            dv.rotated_device(fig1, theta=theta), fig1, 1
        )
        worst = max(worst, abs(gate.gate_residual - honest_gate.gate_residual))
    ok = worst <= 1e-8
    report(
        capsys,
        "A8",
        ok,
        f"verdicts and residuals across theta in (0.3, 1.0, 2.2) "
        f"match honest within {worst:.1e}",
    )


def test_a9_schedule_complexity(capsys):
    rng = np.random.default_rng(7)

    def rand_circuit(t: int, n: int) -> dv.IdealCircuit:
        gates = []
        for k in range(t):
            if k % 2 == 0 or n == 1:
                wire = int(rng.integers(n))
                mat = dv.rotation(float(rng.uniform(0, math.pi)))
                gates.append(dv.CircuitGate(f"g{k + 1}", (wire,), mat))
            else:
                a = int(rng.integers(n))
                gates.append(
                    dv.CircuitGate(
                        f"g{k + 1}", (a, (a + 1) % n), dv.builtin_gate("CNOT")
                    )
                )
        return dv.IdealCircuit(n, tuple(gates), "0" * n)

    # the schedule's settings are exactly the records a run would produce
    probe = single_gate_circuit("H")
    run = pr.circuit_test(dv.honest_device(probe), probe, "0", eps=0.05)
    sched = pr.build_schedule(probe, "0", run.y, eps=0.05)
    assert len(run.records) == sum(len(e.settings) for e in sched.experiments)

    bounds_ok = True
    slope_spread = 0.0
    for n in (2, 4):
        counts = []
        for t in (5, 20, 50):
            circ = rand_circuit(t, n)
            sched = pr.build_schedule(circ, "0" * n, "0" * n)
            distinct = len({(e.kind, e.j) for e in sched.experiments})
            bounds_ok = bounds_ok and distinct <= 2 * (t + n) + 1
            counts.append(sum(len(e.settings) for e in sched.experiments))
        s1 = (counts[1] - counts[0]) / 15.0
        s2 = (counts[2] - counts[1]) / 30.0
        slope_spread = max(slope_spread, max(s1, s2) / min(s1, s2) - 1.0)

    # a fully flipped target y saturates the experiment bound exactly
    circ = rand_circuit(5, 2)
    sched = pr.build_schedule(circ, "00", "11")
    saturated = len({(e.kind, e.j) for e in sched.experiments}) == 2 * (5 + 2) + 1

    ok = bounds_ok and slope_spread <= 0.2 and saturated
    report(
        capsys,
        "A9",
        ok,
        f"experiments within 2(t+n)+1 (saturated by flipped y), record "
        f"slope spread {slope_spread * 100:.1f}% <= 20%",
    )
