"""Golden-output guard: sha256 of the CSV/JSON/SVG bytes the CLI emits.

Refactors must leave these bytes alone.  A change that alters an output on
purpose (a corrected digit, a renamed label) updates the hash here and says
so in CHANGES.md.
"""

import hashlib
import json

import mpmath as mp
import pytest

from posterior_dynamics import cli, figures, scenario

FIGURE1_PRIOR = {"type": "atoms", "atoms": [
    {"theta": "1/2", "weight": "4100/5001"},
    {"theta": "13/20", "weight": "1/5001"},
    {"theta": "17/20", "weight": "900/5001"},
]}

LONG_H = 5000
EXPONENTIAL, EXP1 = {"kind": "exponential"}, {"type": "exp", "lambda": 1}
BERNOULLI, UNIFORM, FLOAT = {"kind": "bernoulli"}, {"type": "uniform01"}, {"numeric_mode": "float"}

SCENARIOS = {
    "atoms_float": {
        "family": {"kind": "bernoulli"}, "prior": FIGURE1_PRIOR,
        "theta0": "1/2", "theta1": "13/20", "horizon": 60, "numeric_mode": "float",
    },
    "beta_float": {
        "family": {"kind": "bernoulli"}, "prior": {"type": "beta", "a": 7, "b": 1},
        "theta0": "3/4", "theta1": "9/10", "horizon": 60, "numeric_mode": "float",
    },
    # theta1 = 1/3 puts the atoms, over 4, on the larger denominator 12
    "atoms_rescaled": {
        "family": {"kind": "bernoulli"}, "prior": {"type": "atoms", "atoms": [
            {"theta": "1/4", "weight": "459/997"},
            {"theta": "1/2", "weight": "63/997"},
            {"theta": "3/4", "weight": "475/997"},
        ]},
        "theta0": "1/4", "theta1": "1/3", "horizon": 200, "numeric_mode": "exact",
    },
    "beta_exact": {
        "family": {"kind": "bernoulli"}, "prior": {"type": "beta", "a": 7, "b": 1},
        "theta0": "3/4", "theta1": "9/10", "horizon": 120, "numeric_mode": "exact",
    },
    # the Bessel route and the float Legendre route past two row blocks; off
    # the diagonal, psi underflows to 0.0 while log_psi stays finite
    **{
        name: {
            "family": family, "prior": prior, "theta0": theta0, "theta1": theta1,
            "horizon": LONG_H, "outputs": ["csv", "json", "svg"], **mode,
        }
        for name, family, prior, theta0, theta1, mode in (
            ("exp_diagonal", EXPONENTIAL, EXP1, "3/2", "3/2", {}),
            ("exp_offdiag", EXPONENTIAL, EXP1, "1", "4", {}),
            ("uniform_diagonal", BERNOULLI, UNIFORM, "3/5", "3/5", FLOAT),
            ("uniform_offdiag", BERNOULLI, UNIFORM, "1/2", "3/4", FLOAT),
        )
    },
}

GOLDEN = {
    "figure1.csv": "301d03d6ee45553f7772a641c1cda133ec3335afe46bcaa5474b4b7664209a1d",
    "figure1.json": "eb15da3bfd02dcf978e38170a096506fd0f12108ba8b8a7c106a5775b5f54846",
    "figure1.svg": "9535986e3ae22675a384f69ffb95c0542ccd612cd01f349e3f4c6d40171969f0",
    "figure2.csv": "307ea6ff9f50fa338dcdd2205add61809d5e0ef221e4229be1560a66307f1f73",
    "figure2.json": "bfa953cac07b64b1849e4d098d054c9650f1562637b3889115f3bb264f34a3d0",
    "figure2.svg": "d02f4296a4e6642a11b933192c0e077034886ee8e70630240275798ba3f44657",
    "figure3.csv": "53d819a209ed7bf532c9e197427f4239c6ff663ab4205cbdc13598f91bee4c54",
    "figure3.json": "0625f55a71d9d9c7cc4bdbf0e07eb93a2a6367d2bd3b543fb6b45ea2b3b109f6",
    "figure3.svg": "71f9dfd80698be0a71ce295fb9c8c312bebacad0d628a5a86df9114c3285b92a",
    "beta71.csv": "3f7ad6e5aa03a789aaa370835e9a10120a369ae79422ab96c2acec15cedea199",
    "beta71.json": "70d1578d2241f06204a848b69b99db13d1a3d6486c57278db46c8e329d5618f0",
    "atoms_float.csv": "478244a83c80e4ca8caa39abe6ad462d9a1158bd84bce942b250ad5d8de797dd",
    "atoms_float.json": "43731509a729261c8616593ad3a016a2d85ac9f21a51a479e37367927b7d88c7",
    "atoms_rescaled.csv": "2c3a16657bfa6427049249d550a2d4f40560ced37cde571e58f420ba2ab26990",
    "atoms_rescaled.json": "363ee97a3a9097085515d7fdbc359efae06bd3464b41ce9c1caa10717b616aa8",
    "beta_float.csv": "50794bab79b9fe80e5b9a0f9e30d0173e5e353e17588bf954d5bf2f58dbf995e",
    "beta_float.json": "d45c7a1dfead682b6b2c2cd371f1372a87340384f7d0c345dea8369315dd99fc",
    "beta_exact.csv": "de6589d7fdeeec37c170a78f32086c46b8dba81a8f8c45adae55d1fefa4bb33c",
    "beta_exact.json": "ba18506e1d2cd32b9953c1e121689ab94e665c7e943e6d8b9702514f06951bbe",
    "exp_diagonal.csv": "0281fe29bbdef1e9c194d10eea17cbda45dd82f7368dbc7a34aeb147ac0fa372",
    "exp_diagonal.json": "f6f845574276dc6c476fb9a3ca4d784f7f9064b331360f8944150f44ffbf1e3f",
    "exp_diagonal.svg": "cc61a308cf9da4b39c8070551b2400828cf7e819d1d87d3d47e42ae1860c5bd5",
    "exp_offdiag.csv": "17d0c67db81c976e9ec5ebd46034a7ba7db117ed708933f31c85a0006d2a5036",
    "exp_offdiag.json": "a1ad7d0e0423c79c353e8d10efc586e1b2bf83be09d8da4834f584820274b377",
    "exp_offdiag.svg": "7451006a85b440e7e854828c442d89075da036ba288aaa4fa0f987a78f86b163",
    "uniform_diagonal.csv": "cd9dc64d525de8637aba25e49069e7cb510ffb7b30b53570ddc3190a592191e2",
    "uniform_diagonal.json": "8a9c61cc05bb490b9efe43e2796008d6239b8cdefa7406f0b2cd3851faf350c8",
    "uniform_diagonal.svg": "d2dc447610b2c1ca0960a313e73484c0dc8a899bef080b043ac9c86b35ab05a4",
    "uniform_offdiag.csv": "ebfa0c9359edc1c21db279fa4bda6a1821e384b6cab777ea48a19c0316d00832",
    "uniform_offdiag.json": "82fff31c249c69e3f3885cd221b94f513141519dbc7ef1de6b2e2509c07e3b75",
    "uniform_offdiag.svg": "5ff6a3c1bcb8424514fa4b28872c63be9921affe67bedcee4cdbbb06f49b1d2b",
    "audit_all.json": "f5336088cbc2fc8110ba6806a02db339ed4d4d1dbc58e1fc131f22f7d429f118",
    "seed7/audit_all.json": "393cd3039d18bfa8b32a12685e8f3c506086c05544db49287015aa76ab977896",
    "seed1/audit_orders.json": "6fe75ecc5bdf35a65ba58910d9b42925d13a39a0eba0582e28bd1205f244f10b",
    "seed7/audit_orders.json": "9d5246ae6fed0b386b3b6d9ffaa65c97624a06bb459f48a810f55dbc40c4cc6c",
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def emitted(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden")
    scenarios = tmp_path_factory.mktemp("scenarios")
    tokens = ["figure1", "figure2", "figure3", "beta71"]
    for name, body in SCENARIOS.items():
        path = scenarios / f"{name}.json"
        path.write_text(json.dumps({"schema": 1, "outputs": ["csv", "json"], **body}))
        tokens.append(str(path))
    for token in tokens:
        assert cli.main(["psi", token, "--out", str(out)]) == cli.EXIT_OK
    assert cli.main(["audit", "all", "--seed", "42", "--out", str(out)]) == cli.EXIT_OK
    for seed in ("1", "7"):
        argv = ["audit", "orders", "--seed", seed, "--out", str(out / f"seed{seed}")]
        assert cli.main(argv) == cli.EXIT_OK
    assert cli.main(["audit", "all", "--seed", "7", "--out", str(out / "seed7")]) == cli.EXIT_OK
    return out


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_bytes_match_golden(emitted, name):
    assert _sha256(emitted / name) == GOLDEN[name]


def test_figure1_digits_are_correct(emitted):
    """Every psi printed for figure1 is within 2^-52 of the exact value and
    every log_psi within 1e-15 of a 50-digit log of it."""
    seq = scenario.run_scenario(figures.bundled_scenario("figure1"))
    rows = (emitted / "figure1.csv").read_text().splitlines()[1:]
    assert len(rows) == seq.horizon
    with mp.workdps(50):
        for row, value in zip(rows, seq.values):
            exact = value.as_fraction()
            psi, log_psi = (float(x) for x in row.split(",")[1:3])
            assert abs(psi - float(exact)) <= 2**-52 * float(exact)
            want = mp.log(mp.mpf(exact.numerator) / exact.denominator)
            assert abs(log_psi - want) <= 1e-15
