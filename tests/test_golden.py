"""Golden report hashes for a small CLI matrix.

Every report file a run writes is pinned by its SHA-256, so a change that
claims to keep outputs byte-identical (a faster tree, a new data layout)
is checked against the exact bytes, not a tolerance.  Inputs are ~120-row
``synth`` files generated with fixed seeds, plus two tie-heavy scanner
files: one whose readings take three coarse levels, and one of whole-dBm
readings over ten fingerprints, each repeated far more than k times.  Their
labels disagree on identical readings, so the k-NN tie rule decides their
predictions.  The ``synth`` input files are pinned too.  A change that
alters these hashes on purpose must name and justify the new values in
CHANGES.md.
"""

import csv
import hashlib

import numpy as np
import pytest

from locbench import data
from locbench.cli import run_cli
from locbench.data import SCHEMAS, ZONES
from locbench.learners import neighbors

FAMILIES = "knn,decision_tree,random_forest,gbt,linear_regression,svr,ann,deep_learning"

CASES = {
    "zone-imu-forest": (
        ["zone-imu", "--data", "{imu}"],
        {
            "confusion.md": "3719f071d30d5d8857578567a1a698a20f02298ec8a7a34d313c3521aed79148",
            "predictions.csv": "0111659fc137f2602853c03151aee458415ef8a5e610104bc6faaf9b4a147fe9",
            "report.json": "cfeda3de209726b9f66b2dd609e82fe07f879864cb52fb3c4e5b29b277f74571",
        },
    ),
    "zone-imu-window": (
        ["zone-imu", "--data", "{imu}", "--window", "3"],
        {
            "confusion.md": "0d56e4f7c93d6ca85a8cab4ba2c5da34630924d873402ff29ce16826a9bebe2c",
            "predictions.csv": "d95eaad79806ca206a484e8073de97612f633a6ad74120579aa5bfcfc2753c97",
            "report.json": "7459ce28b149dc7f3d04ec2c5895e5b698784b5cca24fde5e66786ba2419848a",
        },
    ),
    "zone-imu-tree": (
        ["zone-imu", "--data", "{imu}", "--model", "decision_tree"],
        {
            "confusion.md": "700e0942f43f7010b3ebd7e62faf82805f100a31fa22588f20acf435439ddc85",
            "predictions.csv": "10980b7d2935317daf634774c2b3405d5602cae8ce1ab280312634cadc777d1a",
            "report.json": "d950e6547baa16be7cb33bc7bb996d0a8e0a14c063d6ea5595cafe41330dffec",
        },
    ),
    "zone-rssi-forest": (
        ["zone-rssi", "--data", "{rssi}", "--model", "random_forest"],
        {
            "confusion.md": "92a6328e6d61dd22b185ef658dc35e54612e71966152ae6025cf07dfd8de95ef",
            "predictions.csv": "4b723c8f9a5e5dff91a3f1c9814c0b36444a86191fcb37c9d207e9368efc36d6",
            "report.json": "3d8633d0b0fe59ae461f8aea2940fd8c642b1b0c50dcadad985726ea2cfe0755",
        },
    ),
    "zone-rssi-knn": (
        ["zone-rssi", "--data", "{rssi}"],
        {
            "confusion.md": "92a6328e6d61dd22b185ef658dc35e54612e71966152ae6025cf07dfd8de95ef",
            "predictions.csv": "4b723c8f9a5e5dff91a3f1c9814c0b36444a86191fcb37c9d207e9368efc36d6",
            "report.json": "6af2dae5ac3f6bba3a30e43076d4c675b0f05335b7d99dac95b0030dc233402d",
        },
    ),
    "zone-imu-ann": (
        ["zone-imu", "--data", "{imu}", "--model", "ann"],
        {
            "confusion.md": "0dc75211c6189336245b70e1ac25d925accf3ff7d89e9bc3aa608c5c0917b1f2",
            "predictions.csv": "0e13b6f41f9d6d402e1953249b7e270701da75de82a792c18774c2abd07a1163",
            "report.json": "4258faa998ca288a7ba396a4066cbe1cb5662532ac09913df599fd05f24c3429",
        },
    ),
    "zone-rssi-deep-learning": (
        ["zone-rssi", "--data", "{rssi}", "--model", "deep_learning"],
        {
            "confusion.md": "92a6328e6d61dd22b185ef658dc35e54612e71966152ae6025cf07dfd8de95ef",
            "predictions.csv": "c6ac6aed56fc676f3ddf98af358228425a26ac6d448ca584cd14ef9463a3184e",
            "report.json": "b09acedde7be57bc206f9773889f03355eb119fbf84c9e0af017b2ccd15547d8",
        },
    ),
    "coords-forest": (
        ["coords", "--data", "{beacon}"],
        {
            "predictions_x.csv": "55b0774a73f662793e42c934e7c7579c9000d768dc2dc6bb429a81bf967897e8",
            "predictions_y.csv": "6d56bff5c4b5e3251f2a7aea274d97c97eb7e384295e59a21dc7cf79d13139d7",
            "report.json": "ab97b51be63df9babc2bae27c8217d263836423da77445300e8fc24349083379",
        },
    ),
    "coords-gbt": (
        ["coords", "--data", "{beacon}", "--model", "gbt"],
        {
            "predictions_x.csv": "a77b96826e43a5001bca94b9945ce251aa1b076e7c8e925c9215498bb92b5e67",
            "predictions_y.csv": "b77924eb180775589c2ea6e646927d04f2a5f328ceaf0e4df336fd3fae9ff75f",
            "report.json": "e2e8d9933e5e5810e368dc0082a91d50aa7fb544a0d1fe359da3076fb27eae7e",
        },
    ),
    "coords-knn": (
        ["coords", "--data", "{beacon}", "--model", "knn"],
        {
            "predictions_x.csv": "26ac0bfe9b979a8ec1ddce5ee1a679805853a1be116006a1ef65fd32d50c8fdc",
            "predictions_y.csv": "0c4249947a49802061d9f8c7a7649b970469f2bdf222f1339847dcc7ae44122f",
            "report.json": "4cd8bfadd3e73776be41210f4690f03155ac3d6610969a136d9fb9b9e782c55e",
        },
    ),
    "zone-rssi-k3": (
        ["zone-rssi", "--data", "{rssi}", "--k", "3"],
        {
            "confusion.md": "92a6328e6d61dd22b185ef658dc35e54612e71966152ae6025cf07dfd8de95ef",
            "predictions.csv": "4b723c8f9a5e5dff91a3f1c9814c0b36444a86191fcb37c9d207e9368efc36d6",
            "report.json": "ded8faa2ecd94cfa6ac3447538b9d0139867caecde9ea4c40e0855374880b628",
        },
    ),
    "zone-rssi-ties": (
        ["zone-rssi", "--data", "{ties}"],
        {
            "confusion.md": "145d251a42728ac8f4d1be72d08d2caae6b0bc0c179b369a5f722921c2e98cac",
            "predictions.csv": "9ef3bf17fc8e8e457f38c777890f9169cde9364392112041f77b9335dfa7f1a5",
            "report.json": "39fce86c320fa741974df0aa4f15c04823afdae8660173afdfce333a8ba4c980",
        },
    ),
    "zone-rssi-repeats": (
        ["zone-rssi", "--data", "{repeats}"],
        {
            "confusion.md": "a0d973c291ee0a560ecd40267b431e23d33c29753ff864900fc83ba8331037f7",
            "predictions.csv": "b5a99cdcf12eba11eba562b57e79cb351d4bacc992b90fa02375e9aef09c6682",
            "report.json": "f5fd859112a486a8859c69155898e2322c6cb1cd3a4a0525f97f98bac607ab10",
        },
    ),
    "zone-imu-tree-depth": (
        ["zone-imu", "--data", "{imu}", "--model", "decision_tree", "--depth", "4"],
        {
            "confusion.md": "8c66997c5d7b1d969543acbb8374b3110d5417a39a79cc3d7e662ec129cb3235",
            "predictions.csv": "91d2d9daae81c82f23edcf7a1db93c6c6714e2b005ce44435369213ebdda92f5",
            "report.json": "9cdb5e15dbc2e21409f73af9648f37a874e2a9836b68c2b99f4fd4b6441aa0bb",
        },
    ),
    "coords-gbt-flags": (
        ["coords", "--data", "{beacon}", "--model", "gbt"]
        + ["--trees", "20", "--depth", "3", "--rate", "0.3"],
        {
            "predictions_x.csv": "e451243e615ed0d6a0007df1b9d8b78bb933571d260a432d529fb67604a33419",
            "predictions_y.csv": "2c9fc6c1bd25e9254c7e24edb6790a23a7bfb6d984d7e7df1d289da79680cfcc",
            "report.json": "bc0a4b804aa82e9711d4d1b14cc180767bda1a1e18878b4b6962798c6f34f1b2",
        },
    ),
    "coords-ann-flags": (
        ["coords", "--data", "{beacon}", "--model", "ann", "--layers", "7,3", "--rate", "0.05"],
        {
            "predictions_x.csv": "f9ee9bfb493145ede83fe936658ed255aa38521d069d0c268a31af997cf77ede",
            "predictions_y.csv": "8f3dca50bb1328cf5f5edc8f4ba80440a245ea84db4249cce89ce8c998dd6ede",
            "report.json": "e5c46ad8dfd8454a64a18f3bc55764a3b01d3f11d8bed7bbb6976a6dcc6b5720",
        },
    ),
    "coords-svr-flags": (
        ["coords", "--data", "{beacon}", "--model", "svr"]
        + ["--c", "2", "--epsilon", "0.2", "--gamma", "0.5"],
        {
            "predictions_x.csv": "716f47454d200c4bc135bc18843636d7ede89a9550f0b41535310b3f5d05a647",
            "predictions_y.csv": "aa563e5d4db1ba28e31f78d51733895566574ffe7ee8626cfdcaae174b0a8a1e",
            "report.json": "759662c87b1a6fa3542e9e9de10a9a0384948871235c298335fa935145938125",
        },
    ),
    "compare-all": (
        ["compare", "--data", "{beacon}", "--seeds", "42", "--families", FAMILIES],
        {
            "comparison.csv": "fd07b50d4ed3c0368f66e71598df42f2cb7eea881c7baa861e6118be8359b384",
            "comparison.md": "a37ee6c72bbfb831ac392c6e7b961b7144ff0fae971f259fa976e030a4f6f0cf",
            "report.json": "30678b60b96abe69f53c7ff3ba0a3bae2daace22c2a033b606540335883d4c65",
        },
    ),
}


#: SHA-256 of the ``synth`` CSVs the fixture writes: the writer's float
#: formatting, the imu ``activity`` column and every generated row.
SYNTH_HASHES = {
    "beacon": "a1b888b8a8a74723064edd2bb5d92133d4cad96019fd6ab1fbbdaa8f85114e17",
    "imu": "8342d881675038aaa199d028d8ad0831234324bcf9b8430b034703ff9713b881",
    "rssi": "5ac31cbef29e2b0bd51e0d67ef671cf4297f6bbf4f6b51e965acde6880be4c3d",
}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden-inputs")
    paths = {}
    for kind, seed in (("beacon", 11), ("imu", 12), ("rssi", 13)):
        path = root / f"{kind}.csv"
        argv = ["synth", "--kind", kind, "--rows", "120", "--seed", str(seed), "--out", str(path)]
        assert run_cli(argv) == 0
        paths[kind] = str(path)
    rng = np.random.default_rng(14)
    readings = rng.choice([-120, -90, -60], size=(120, len(ZONES)))
    labels = rng.choice(ZONES, size=120)
    lines = [",".join(SCHEMAS["rssi"].required)]
    lines += [",".join(map(str, r)) + f",{z}" for r, z in zip(readings.tolist(), labels)]
    (root / "ties.csv").write_text("\n".join(lines) + "\n")
    paths["ties"] = str(root / "ties.csv")
    # Whole-dBm readings that repeat: 400 rows over 10 fingerprints, so each
    # fingerprint's group holds far more than k training rows; half the
    # labels follow the fingerprint, the rest are drawn at random.
    rng = np.random.default_rng(15)
    fingerprints = rng.integers(-100, -40, size=(10, len(ZONES)))
    which = rng.integers(0, 10, size=400)
    zones = np.where(rng.random(400) < 0.5, which % len(ZONES), rng.integers(0, len(ZONES), 400))
    lines = [",".join(SCHEMAS["rssi"].required)]
    lines += [",".join(map(str, r)) + f",{ZONES[z]}" for r, z in zip(fingerprints[which].tolist(), zones)]
    (root / "repeats.csv").write_text("\n".join(lines) + "\n")
    paths["repeats"] = str(root / "repeats.csv")
    return paths


def report_hashes(case, inputs, out, capsys):
    template, _ = CASES[case]
    argv = [arg.format(**inputs) for arg in template] + ["--out-dir", str(out)]
    assert run_cli(argv) == 0, capsys.readouterr().err
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.iterdir())
    }


@pytest.mark.parametrize("kind", sorted(SYNTH_HASHES))
def test_synth_csv_hashes(kind, inputs):
    with open(inputs[kind], "rb") as handle:
        assert hashlib.sha256(handle.read()).hexdigest() == SYNTH_HASHES[kind]


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_hashes(case, inputs, tmp_path, capsys):
    assert report_hashes(case, inputs, tmp_path / "out", capsys) == CASES[case][1]


@pytest.mark.parametrize(
    "case",
    ["coords-knn", "compare-all", "zone-rssi-knn", "zone-rssi-k3", "zone-rssi-ties", "zone-rssi-repeats"],
)
def test_knn_hashes_with_one_query_per_block(case, inputs, tmp_path, capsys, monkeypatch):
    # A one-element budget makes every query row its own distance block.
    monkeypatch.setattr(neighbors, "_BLOCK_ELEMENTS", 1)
    assert report_hashes(case, inputs, tmp_path / "out", capsys) == CASES[case][1]


def test_quoted_time_cells_give_the_same_reports(inputs, tmp_path, capsys, monkeypatch):
    # numpy's reader takes the quoted cells; the row walker must not run.
    monkeypatch.setattr(data, "_checked_rows", None)
    with open(inputs["beacon"], newline="", encoding="utf-8") as handle:
        header, *rows = csv.reader(handle)
    time = header.index("time")
    lines = [",".join(header)]
    lines += [",".join(f'"{c}"' if i == time else c for i, c in enumerate(row)) for row in rows]
    quoted = tmp_path / "quoted.csv"
    quoted.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert quoted.read_text(encoding="utf-8").count('"') == 2 * len(rows)
    paths = {**inputs, "beacon": str(quoted)}
    assert report_hashes("coords-forest", paths, tmp_path / "out", capsys) == CASES["coords-forest"][1]
