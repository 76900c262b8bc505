"""wronskian-check's CSV, pinned byte for byte.

Each case is a config, its exit code and its stdout: the four
potential families in a coarse h band (0.0075 to 0.02) and a fine one
(0.0025 to 0.0075), the radii that must also fit the second cutoff of
the independence check, and the 1e300 radius whose transition never
meets the grid.  A change that only reorganises the arithmetic of the
branches or the commutators must leave every byte in place.  The bytes
were recorded with numpy 2.4 on x86-64; another libm or numpy build may
move last digits.
"""

import pytest

from semibs.cli import EXIT_NONCONVERGENCE, EXIT_OK, main

GOLDEN = {
    "morse/fine": (
        "[problem]\n"
        'potential = "0.982*(1 - exp(-1.024*x))^2"\n'
        'p1 = "0"\n'
        'p2 = "0"\n'
        "hbar = 0.00251\n"
        "energy_min = 0.2712\n"
        "energy_max = 0.3712\n"
        "[solver]\n"
        "order = 0\n",
        EXIT_OK,
        "check,value,bound,pass\n"
        "flux_norm_a,3.2052957361639045e-06,0.1,1\n"
        "flux_norm_a_prime,1.8194260102966098e-06,0.1,1\n"
        "mixed_term,4.947678723986654e-16,0.00011780888695150553,1\n"
        "chi_independence,1.9471277268312548e-07,0.000137221776868318,1\n"
        "sum_identity,6.145257913647839e-15,0.00011780888695150553,1\n"
        "gram_det_vs_analytic,2.0606255902722026e-06,0.05,1\n"
        "gram_off_diagonal,1.3974116392923008e-06,0.05,1\n"
        "wronskian_identity,6.297184995673888e-12,1e-08,1\n"),
    "morse/coarse": (
        "[problem]\n"
        'potential = "1.016*(1 - exp(-1.045*x))^2"\n'
        'p1 = "0"\n'
        'p2 = "0"\n'
        "hbar = 0.01363\n"
        "energy_min = 0.3153\n"
        "energy_max = 0.4153\n"
        "[solver]\n"
        "order = 0\n",
        EXIT_OK,
        "check,value,bound,pass\n"
        "flux_norm_a,3.221619553017696e-06,0.1,1\n"
        "flux_norm_a_prime,2.327532153900691e-06,0.1,1\n"
        "mixed_term,1.3316285691161858e-15,0.0001,1\n"
        "chi_independence,1.037166957873481e-07,0.0030635344902821956,1\n"
        "sum_identity,2.537019954605398e-15,0.0001,1\n"
        "gram_det_vs_analytic,4.628884078261564e-06,0.05,1\n"
        "gram_off_diagonal,9.478464439438561e-07,0.05,1\n"
        "wronskian_identity,6.638689598048586e-12,1e-08,1\n"),
    "harmonic/fine": (
        "[problem]\n"
        'potential = "x^2"\n'
        'p1 = "0"\n'
        'p2 = "0"\n'
        "hbar = 0.00638\n"
        "energy_min = 0.3901\n"
        "energy_max = 0.4901\n"
        "[solver]\n"
        "order = 0\n",
        EXIT_OK,
        "check,value,bound,pass\n"
        "flux_norm_a,2.911812864492269e-06,0.1,1\n"
        "flux_norm_a_prime,2.9118128672678267e-06,0.1,1\n"
        "mixed_term,3.2792396571901213e-15,0.0001,1\n"
        "chi_independence,1.171698171820168e-08,0.0007594657496066766,1\n"
        "sum_identity,6.522560269672795e-16,0.0001,1\n"
        "gram_det_vs_analytic,5.081913804810996e-09,0.05,1\n"
        "gram_off_diagonal,2.910542109768599e-06,0.05,1\n"
        "wronskian_identity,2.8828051057416815e-12,1e-08,1\n"),
    "harmonic/coarse": (
        "[problem]\n"
        'potential = "x^2"\n'
        'p1 = "0"\n'
        'p2 = "0"\n'
        "hbar = 0.0166\n"
        "energy_min = 0.4239\n"
        "energy_max = 0.5239\n"
        "[solver]\n"
        "order = 0\n",
        EXIT_OK,
        "check,value,bound,pass\n"
        "flux_norm_a,3.0518736366946797e-06,0.1,1\n"
        "flux_norm_a_prime,3.0518736340301444e-06,0.1,1\n"
        "mixed_term,8.097321026485356e-16,0.0001,1\n"
        "chi_independence,9.46287315173322e-09,0.004420335803450946,1\n"
        "sum_identity,6.52092973124933e-16,0.0001,1\n"
        "gram_det_vs_analytic,2.591572979826484e-06,0.05,1\n"
        "gram_off_diagonal,2.315027003541026e-06,0.05,1\n"
        "wronskian_identity,6.484590642230614e-12,1e-08,1\n"),
    "quartic/fine": (
        "[problem]\n"
        'potential = "x^4"\n'
        'p1 = "0"\n'
        'p2 = "0"\n'
        "hbar = 0.00741\n"
        "energy_min = 0.3566\n"
        "energy_max = 0.4566\n"
        "[solver]\n"
        "order = 0\n",
        EXIT_OK,
        "check,value,bound,pass\n"
        "flux_norm_a,3.2400323388692698e-06,0.1,1\n"
        "flux_norm_a_prime,3.240032334983489e-06,0.1,1\n"
        "mixed_term,2.534211367910436e-15,0.00010685907758488158,1\n"
        "chi_independence,2.85403635169601e-08,0.0011358238917938436,1\n"
        "sum_identity,2.366162821232365e-15,0.00010685907758488158,1\n"
        "gram_det_vs_analytic,3.5497280602703185e-06,0.05,1\n"
        "gram_off_diagonal,2.1788032013025926e-06,0.05,1\n"
        "wronskian_identity,9.270362255620057e-13,1e-08,1\n"),
    "quartic/coarse": (
        "[problem]\n"
        'potential = "x^4"\n'
        'p1 = "0"\n'
        'p2 = "0"\n'
        "hbar = 0.00779\n"
        "energy_min = 0.3953\n"
        "energy_max = 0.4953\n"
        "[solver]\n"
        "order = 0\n",
        EXIT_OK,
        "check,value,bound,pass\n"
        "flux_norm_a,3.2476916562718117e-06,0.1,1\n"
        "flux_norm_a_prime,3.2476916584922577e-06,0.1,1\n"
        "mixed_term,2.5546899092053095e-15,0.00010549552904489411,1\n"
        "chi_independence,2.8917513494874925e-08,0.0012470311234113259,1\n"
        "sum_identity,3.92420286809716e-15,0.00010549552904489411,1\n"
        "gram_det_vs_analytic,6.2376116168882945e-06,0.05,1\n"
        "gram_off_diagonal,6.469660238372921e-07,0.05,1\n"
        "wronskian_identity,8.08242361927114e-14,1e-08,1\n"),
    "anharmonic/fine": (
        "[problem]\n"
        'potential = "x^2 + 0.133*x^4"\n'
        'p1 = "0"\n'
        'p2 = "0"\n'
        "hbar = 0.00636\n"
        "energy_min = 0.4015\n"
        "energy_max = 0.5015\n"
        "[solver]\n"
        "order = 0\n",
        EXIT_OK,
        "check,value,bound,pass\n"
        "flux_norm_a,2.9260774104811205e-06,0.1,1\n"
        "flux_norm_a_prime,2.9260774100370313e-06,0.1,1\n"
        "mixed_term,4.262284771163165e-15,0.0001,1\n"
        "chi_independence,1.2630057333318234e-08,0.000750239124972731,1\n"
        "sum_identity,2.0115636586992558e-14,0.0001,1\n"
        "gram_det_vs_analytic,3.0804644933768444e-06,0.05,1\n"
        "gram_off_diagonal,2.0137238158079995e-06,0.05,1\n"
        "wronskian_identity,4.054534485931072e-12,1e-08,1\n"),
    "anharmonic/coarse": (
        "[problem]\n"
        'potential = "x^2 + 0.104*x^4"\n'
        'p1 = "0"\n'
        'p2 = "0"\n'
        "hbar = 0.00963\n"
        "energy_min = 0.3979\n"
        "energy_max = 0.4979\n"
        "[solver]\n"
        "order = 0\n",
        EXIT_OK,
        "check,value,bound,pass\n"
        "flux_norm_a,2.979624861509933e-06,0.1,1\n"
        "flux_norm_a_prime,2.9796248577351747e-06,0.1,1\n"
        "mixed_term,1.8676637850227004e-15,0.0001,1\n"
        "chi_independence,1.1682453116002023e-08,0.0016262948750176743,1\n"
        "sum_identity,2.379473923353282e-15,0.0001,1\n"
        "gram_det_vs_analytic,5.079042039501935e-06,0.05,1\n"
        "gram_off_diagonal,1.1451345253155054e-06,0.05,1\n"
        "wronskian_identity,4.014566457044566e-13,1e-08,1\n"),
    "fit-radii": (
        "[problem]\n"
        'potential = "x^2"\n'
        "hbar = 0.05\n"
        "[wronlab]\n"
        "cutoff_r1 = 0.62\n"
        "cutoff_r2 = 0.82\n",
        EXIT_OK,
        "check,value,bound,pass\n"
        "flux_norm_a,3.082534116849445e-08,0.1,1\n"
        "flux_norm_a_prime,3.082534616449806e-08,0.1,1\n"
        "mixed_term,8.285271776761448e-15,0.0001,1\n"
        "chi_independence,1.3875789406370131e-11,0.029727054082078264,1\n"
        "sum_identity,2.463307335887066e-14,0.0001,1\n"
        "gram_det_vs_analytic,3.082534999476749e-08,0.05,1\n"
        "gram_off_diagonal,2.179680091973779e-08,0.05,1\n"
        "wronskian_identity,3.4519054281645367e-12,1e-08,1\n"),
    "huge-radii": (
        "[problem]\n"
        'potential = "x^2"\n'
        "hbar = 0.05\n"
        "[wronlab]\n"
        "cutoff_r1 = 0.1\n"
        "cutoff_r2 = 1e300\n",
        EXIT_NONCONVERGENCE,
        "check,value,bound,pass\n"
        "flux_norm_a,1.0,0.1,0\n"
        "flux_norm_a_prime,1.0,0.1,0\n"
        "mixed_term,0.0,0.0001,1\n"
        "chi_independence,0.9999999691885346,0.029727054082078264,0\n"
        "sum_identity,0.0,0.0001,1\n"
        "gram_det_vs_analytic,0.5000000000000033,0.05,0\n"
        "gram_off_diagonal,0.7071067811865452,0.05,0\n"
        "wronskian_identity,3.4519054281645367e-12,1e-08,1\n"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_wronskian_check_csv_is_unchanged(name, tmp_path, capsys):
    config, code, stdout = GOLDEN[name]
    path = tmp_path / "run.ini"
    path.write_text(config)
    assert main(["wronskian-check", "--config", str(path)]) == code
    assert capsys.readouterr().out == stdout
