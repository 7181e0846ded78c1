"""Golden CLI corpus: the sha256 of each in-process `cli.main` run's exit
code, standard output and standard error, against digests recorded once.

The corpus runs `coeffs`, `figure`, `matrix` and `convolve` over the nine
default families, at the rational backend and at float:128, with both
`--format` values where a command takes one; `matrix` and `convolve` over
each malformed series file of `MALFORMED`, whose error names the file (the
run's directory is replaced by a fixed token before hashing); and
`verify` at degree 2.  A refactor that moves one output byte, or one exit
code, fails here with the run's argv named.  No run is a usage error, so
no digest holds argparse's usage text, which differs between Python
versions.

To re-record after a deliberate change of output, print the new table:

    PYTHONPATH=src python -c "import sys; sys.path.insert(0, 'tests'); \\
        import test_golden_cli as g; g.record()"
"""

import contextlib
import hashlib
import io

import pytest

from polyconv import cli

# (name, the CLI's family options, the series files' header)
FAMILIES = [
    ("jacobi", ["--alpha", "5/2", "--beta", "3/2"],
     "family=jacobi alpha=5/2 beta=3/2"),
    ("jacobi00", ["--alpha", "0", "--beta", "0"],
     "family=jacobi alpha=0 beta=0"),
    ("symmetric_jacobi", ["--alpha", "5/2"],
     "family=symmetric_jacobi alpha=5/2"),
    ("gegenbauer", ["--lambda", "3/2"], "family=gegenbauer lambda=3/2"),
    ("legendre", [], "family=legendre"),
    ("chebyshev", [], "family=chebyshev"),
    ("laguerre0", ["--alpha", "0"], "family=laguerre alpha=0"),
    ("laguerre1", ["--alpha", "1"], "family=laguerre alpha=1"),
    ("laguerre", ["--alpha", "5/2"], "family=laguerre alpha=5/2"),
]
FAMILY_NAME = {"jacobi00": "jacobi", "laguerre0": "laguerre",
               "laguerre1": "laguerre"}

# the series files, each written under its family's header
SERIES = {
    "f": "0,1/3\n1,-2\n3,7/5\n4,1/6\n",
    "g": "".join(f"{i},{(-1) ** i}/{i + 2}\n" for i in range(6)),
    "p3": "3,7/3\n",
    "p40": "38,1/3\n40,-2/5\n",
}
# malformed series files, by name: each is the `--f` of a `matrix` run and
# the `--g` of a `convolve` run (exit 1, the error on stderr).  None is a
# file never written
MALFORMED = {
    "missing_file": None,
    "no_header": b"0,1\n1,2\n",
    "no_rows": b"# family=legendre\n",
    "bad_index": b"# family=legendre\n0,1\nx,1\n",
    "zero_denominator": b"# family=legendre\n0,1\n1,1/0\n",
    "negative_index": b"# family=legendre\n0,1\n-1,2\n",
    "repeated_index": b"# family=legendre\n0,1\n1,2\n0,3\n",
    "not_utf8": b"# family=legendre\n0,1\n1,1/\xff\n",
    "generic_monic": b"# family=generic_monic\n0,1\n",
    "foreign_parameter": b"# family=legendre alpha=1\n0,1\n",
    "zero_denominator_parameter":
        b"# family=jacobi alpha=1/0 beta=0\n0,1\n",
}
# the token the run's directory is replaced by in its output
WORKDIR = "<workdir>"

# (backend, format) pairs, stepped through family by family so that every
# command meets all four
MODES = [("rational", "csv"), ("float:128", "triplet"),
         ("rational", "triplet"), ("float:128", "csv")]


def corpus() -> list:
    """(run id, argv with series names as '{name}') for every run."""
    runs = []
    for i, (name, options, _) in enumerate(FAMILIES):
        family = ["--family", FAMILY_NAME.get(name, name), *options]
        backend, fmt = MODES[i % 4]
        m = 1 + i % 3
        runs.append((f"coeffs-{name}", [
            "coeffs", *family, "--m", str(m), "--jmax", "9", "--nmax", "8",
            "--format", fmt, "--backend", backend]))
        runs.append((f"figure-{name}", [
            "figure", *family, "--m", str(m + 1), "--jmax", "12",
            "--nmax", "10", "--backend", backend]))
        backend, fmt = MODES[(i + 1) % 4]
        runs.append((f"matrix-{name}", [
            "matrix", "--f", "{f}", "--N", "6", "--format", fmt,
            "--backend", backend]))
        runs.append((f"convolve-{name}", [
            "convolve", "--f", "{f}", "--g", "{g}", "--backend", backend]))
    for name, backend in (("jacobi", "rational"), ("gegenbauer", "float:128"),
                          ("laguerre", "rational")):
        runs.append((f"convolve-sparse-{name}", [
            "convolve", "--f", "{p3}", "--g", "{p40}", "--backend", backend]))
    runs.append(("coeffs-band-legendre", [
        "coeffs", "--family", "legendre", "--m", "2", "--jmax", "14",
        "--nmax", "12", "--format", "triplet"]))
    for case in MALFORMED:
        runs.append((f"matrix-{case}", [
            "matrix", "--f", f"{{{case}}}", "--N", "2"]))
        runs.append((f"convolve-{case}", [
            "convolve", "--f", "{f}", "--g", f"{{{case}}}"]))
    runs.append(("verify-2", ["verify", "--max-degree", "2"]))
    return runs


def run(argv: list, header: str, workdir) -> str:
    """The sha256 of one in-process run: its exit code, standard output and
    standard error, the series files written under `header` and the
    malformed ones as they are, in `workdir`, whose path is replaced by
    `WORKDIR` in the text hashed."""
    paths = {}
    for key, rows in SERIES.items():
        path = workdir / f"{key}.csv"
        path.write_text(f"# {header}\n{rows}", encoding="utf-8")
        paths[key] = str(path)
    for key, data in MALFORMED.items():
        path = workdir / f"{key}.csv"
        if data is not None:
            path.write_bytes(data)
        paths[key] = str(path)
    argv = [a.format(**paths) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    text = f"exit={code}\n{out.getvalue()}\x00{err.getvalue()}"
    text = text.replace(str(workdir), WORKDIR)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _header(run_id: str) -> str:
    """The series header of the family a run id ends in; Legendre's for a
    run that names none."""
    name = run_id.rsplit("-", 1)[1]
    return next((h for n, _, h in FAMILIES if n == name), "family=legendre")


def record() -> None:
    """Print the DIGESTS table for the current code."""
    import pathlib
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        print("DIGESTS = {")
        for run_id, argv in corpus():
            digest = run(argv, _header(run_id), pathlib.Path(tmp))
            print(f'    "{run_id}":\n        "{digest}",')
        print("}")


DIGESTS = {
    "coeffs-jacobi":
        "c34ca183417a1c117315b21aab3b613b354e666518207f67b1133558eba292a4",
    "figure-jacobi":
        "1786b9e3bbc1208f0a41c155ddb1e5da67f52429b87e5ba1acab687e8cd0ef16",
    "matrix-jacobi":
        "1aed701701b9983ae19c02e85cfa9a12de9ad70047a1068b24260cba3ddf4462",
    "convolve-jacobi":
        "e632b60bfece4add285064c76dfaa01038ea159df7328d71625f2db7dc33bb2f",
    "coeffs-jacobi00":
        "ce54c52faea67b938b71aa274d93edc47fdeb5eb063d6e8518adfed69c93bd29",
    "figure-jacobi00":
        "c427c341297ae9d4f350c1a7da24bc04f0b8e933241b0db27251fc9bc53c4ad8",
    "matrix-jacobi00":
        "6fe4adaa6f229abd976d4460ba90de1b10d6837306b393fb2db289ae0ee58bd4",
    "convolve-jacobi00":
        "15c80e8263f572328946d1a624995622de4780bf7409ba4889e779ddf1639df4",
    "coeffs-symmetric_jacobi":
        "3c8d924db6de9d25b9964cfeccadcbb02a4e19ed39efb97bea13ce51513e8e86",
    "figure-symmetric_jacobi":
        "a1fe56eb08308f316692402b5556d595bf4f30a2e6d5fe8644c13c59dd6a4ab3",
    "matrix-symmetric_jacobi":
        "45dda3022d7c4caa4c72bb8fc2df9dc40de819804978a2c682475f6712a801b1",
    "convolve-symmetric_jacobi":
        "e006649139d9d0a8b261b5dcc224e2fc9ad6058e132b851fb06a3ba3530e3baf",
    "coeffs-gegenbauer":
        "d2fb77a5f50b6c0ab68a7e492f22801a367e9360eb7cb73a56c452b0abecc2e2",
    "figure-gegenbauer":
        "dae4e6e45f8be72d68fa5702556ee41f7291c5b055669bd237cb556961d0e810",
    "matrix-gegenbauer":
        "75372ab17cf5142b476d183fd0422062eac8e6b18baa4ad92f1372f41ac1611b",
    "convolve-gegenbauer":
        "c1188ae483141d8e6564c8ae0072d83a3bee79dc0c648e1fff4ae48486d07fd7",
    "coeffs-legendre":
        "3cced0fbb532b0e6f661c66b7e340672b6ea56894cd1e690677f688b613fe4f5",
    "figure-legendre":
        "c427c341297ae9d4f350c1a7da24bc04f0b8e933241b0db27251fc9bc53c4ad8",
    "matrix-legendre":
        "70b8251344c4c01616a023d3e762fa0a4ff1bb5c0372f7acb73364bfb69601ae",
    "convolve-legendre":
        "8f134a79368f9c789b091fb615c2f9c1b3d009e378d9c18546c8fd8183f8eaad",
    "coeffs-chebyshev":
        "8e6bd72d7107e5ca316e020244f22bc77f6921d67f47ceee8b2f072cdd18a96f",
    "figure-chebyshev":
        "bbaa2163c4198764d820e1641102a0c429a4ed942e7e1d72f9d8b14fe19c586f",
    "matrix-chebyshev":
        "5f74bc7e11049ed6502f1b7cff6969db455dc69e3404325943057be06a1513c2",
    "convolve-chebyshev":
        "8c4af611414d5b60cb458929cc25372256dd4981b2a7ea513f2ffdfc1615e061",
    "coeffs-laguerre0":
        "47966155d7592dd4f93eafd9411bb50175f2222a785a69ecc9a9228b2b7dde84",
    "figure-laguerre0":
        "83528fc11c4e11345296234f641f5fbee95ad75b544f55409d6dbeeb6ed09f73",
    "matrix-laguerre0":
        "1f593c9bdd89cac988e142a5efacb79487490a06a9cb8db4a79de6484be8cf4e",
    "convolve-laguerre0":
        "ed108546582c9cb0a3d319a4462716708083f3aec98c25015f96ab3ed2c96eab",
    "coeffs-laguerre1":
        "dd629dde6637a6411855b3365cc63bb0cd7747584462347c78b8fc3e5884c017",
    "figure-laguerre1":
        "d3871f80a24646b4aee808250de248c4b89f2d082359d1d204c3d683c1014e7d",
    "matrix-laguerre1":
        "bc83522a1c1a5d691ed3714fbca9c86711217e13954ba065f9a7d2d7c62f4c62",
    "convolve-laguerre1":
        "90ca831d34313061c3fac7fc06f360e2a4a87ba26a8d7e6ea345775d86c722fc",
    "coeffs-laguerre":
        "fc3256ce1526cb712476b717e345eec08c63ee02fd78a566275d02e638a54c46",
    "figure-laguerre":
        "55ed518161cd46f1525579a821bfc0e3d8be89ac06c5ee31720a1b569e2a9208",
    "matrix-laguerre":
        "e8fe508f0b3a3a95f226757ee9f11147b992095ac3288f45b398950b22437045",
    "convolve-laguerre":
        "8bc68a0b19100f21edfcf226b0c726d84466f677caddc7dc81052bb17996887d",
    "convolve-sparse-jacobi":
        "d6b4e179babe3aba3dccd2f281582213adba70b2e700f2e0d8d9abf429403e63",
    "convolve-sparse-gegenbauer":
        "f0f0c46dbbc8018045db29bdd84130ef57229c2f8dcc783164e27ac266c4a7f4",
    "convolve-sparse-laguerre":
        "5604e8b9b16b11c57376402804f94c1bc51864dd70e8388b3f1ab0bbeae60ba1",
    "coeffs-band-legendre":
        "1d5bb4814c701e4595543c730d552f39e1236a323d5733d6e8ad22c47ab1a59d",
    "matrix-missing_file":
        "6070b47a5ddf32afb3289c4ee0a593343fad74cc3704693d65c3199ca33dbde0",
    "convolve-missing_file":
        "6070b47a5ddf32afb3289c4ee0a593343fad74cc3704693d65c3199ca33dbde0",
    "matrix-no_header":
        "6cc3399414b114f7d1e76d34bf014aad7ae97dd6cc139279bae3fa7ae2228e61",
    "convolve-no_header":
        "6cc3399414b114f7d1e76d34bf014aad7ae97dd6cc139279bae3fa7ae2228e61",
    "matrix-no_rows":
        "2f3588d23adc14d16c0eb61565ebf1785af4b3713aba6c059747dadbf0d8b998",
    "convolve-no_rows":
        "2f3588d23adc14d16c0eb61565ebf1785af4b3713aba6c059747dadbf0d8b998",
    "matrix-bad_index":
        "fd179dbe6c12c8966dca5ddd2d8255479eab1aa9f37b5cc940f86d870d42971a",
    "convolve-bad_index":
        "fd179dbe6c12c8966dca5ddd2d8255479eab1aa9f37b5cc940f86d870d42971a",
    "matrix-zero_denominator":
        "250b5dcfd5db84c0706f9138961dc1a253c9fbeb68767434f78ebaed2cc4df38",
    "convolve-zero_denominator":
        "250b5dcfd5db84c0706f9138961dc1a253c9fbeb68767434f78ebaed2cc4df38",
    "matrix-negative_index":
        "2ce72f59fd23e3fb98a4b28dda320592494731342789c1df7beaf21b1070c292",
    "convolve-negative_index":
        "2ce72f59fd23e3fb98a4b28dda320592494731342789c1df7beaf21b1070c292",
    "matrix-repeated_index":
        "6898f156d1a5fdb498d4e6c362ad7fa64e0e61c57642f4d7223613b50ec5f601",
    "convolve-repeated_index":
        "6898f156d1a5fdb498d4e6c362ad7fa64e0e61c57642f4d7223613b50ec5f601",
    "matrix-not_utf8":
        "75aa4c723f995705a873f12920f5a382d98d70bc7b0570a6d8fb4773cc9effc7",
    "convolve-not_utf8":
        "75aa4c723f995705a873f12920f5a382d98d70bc7b0570a6d8fb4773cc9effc7",
    "matrix-generic_monic":
        "3be3db78a4019f00fc1e679a717d2f77e202e6da1821c868d1feb62ef6378d2e",
    "convolve-generic_monic":
        "3be3db78a4019f00fc1e679a717d2f77e202e6da1821c868d1feb62ef6378d2e",
    "matrix-foreign_parameter":
        "6473d14ed0e60429178072340ad6752f2162cd55c62b6078f9b80b3b26d0597e",
    "convolve-foreign_parameter":
        "6473d14ed0e60429178072340ad6752f2162cd55c62b6078f9b80b3b26d0597e",
    "matrix-zero_denominator_parameter":
        "2aee59b00930dea504f249bc54e6d2c87f97203092a5fc2c9b57c4dac39af60a",
    "convolve-zero_denominator_parameter":
        "2aee59b00930dea504f249bc54e6d2c87f97203092a5fc2c9b57c4dac39af60a",
    "verify-2":
        "7c2910fc2c1a003c4f89c683f6758ab593229051c3aa1ecf64104d5d81aa906c",
}


def test_corpus_matches_the_recorded_runs():
    assert sorted(DIGESTS) == sorted(run_id for run_id, _ in corpus())


@pytest.mark.parametrize("run_id,argv", corpus(), ids=lambda v: (
    v if isinstance(v, str) else None))
def test_run_is_byte_identical(run_id, argv, tmp_path):
    assert run(argv, _header(run_id), tmp_path) == DIGESTS[run_id], argv
