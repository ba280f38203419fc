"""Golden outputs: the SHA-256 of trace.csv and of summary.json without its
metadata field, for every gallery system and run kind.

The determinism contract says both files are byte-identical for the same
config (the metadata field excepted). The digests below were recorded from
the library's output and must not change: a refactor of the orbit, trace or
certification code that alters a single byte of either file fails here.
Iterations 1 gives the shortest orbit (3m steps) and iterations 257 a longer
one whose length is not a multiple of m.
"""

import hashlib
import json

import pytest

import proxcycle.cli as cli

# label -> (system id, parameters, p)
SYSTEMS = {
    "kirk": ("kirk_interval", {"alpha": 0.25}, 1),
    "strip": ("affine_strip", {"alpha": 0.5, "h": 1.5}, 2),
    "lq2": ("paper_lq_family", {}, "inf"),
    "pair": ("scaled_pair", {"alpha": 0.3, "separation": 1.0}, 3.5),
    "lq3": ("paper_lq_family", {"m": 3}, 2),
    "lq4": ("paper_lq_family", {"m": 4, "q": 3}, 1.5),
}
ITERATIONS = (1, 257)

# "<label>-<run>-<iterations>" -> (sha256 of trace.csv, sha256 of summary.json
# without metadata, dumped with sorted keys and indent 2)
DIGESTS = {
    "kirk-certify-1": (
        "a37044e437ec859a181632109071a77895e7cda0da64107798601c95725e1d27",
        "128715002c4f61c9eca0a15a3c899e7de00d6b42b3412f04416a42f99a81693f",
    ),
    "kirk-certify-257": (
        "6139f22945088c31caae3b116ece83d7901c9fc3ec77c348678772617093fe85",
        "27ae72510920837fd71f3d6c8f5ebfd49a1a3957535207b1185066119d1484cb",
    ),
    "kirk-banach-1": (
        "a37044e437ec859a181632109071a77895e7cda0da64107798601c95725e1d27",
        "4976172f48bb5a79a3bfa74f30455951adc92167350696112a851458fe2df194",
    ),
    "kirk-banach-257": (
        "6139f22945088c31caae3b116ece83d7901c9fc3ec77c348678772617093fe85",
        "03b2b8ee15257786122599e72034c5054f9280606fdf90581fc10775a3b49246",
    ),
    "kirk-periodic-1": (
        "a37044e437ec859a181632109071a77895e7cda0da64107798601c95725e1d27",
        "4e50f084b72fd77cef0a6d450be83833d79980ba7e3e5a1c1b832ad41d74a5e6",
    ),
    "kirk-periodic-257": (
        "6139f22945088c31caae3b116ece83d7901c9fc3ec77c348678772617093fe85",
        "2695e25885173f1da71f8b99fc06ccae386259b628b0f05fb7024aba6cf0adf9",
    ),
    "kirk-proximity-1": (
        "a37044e437ec859a181632109071a77895e7cda0da64107798601c95725e1d27",
        "cdd7034b3eecbbf9df4aba42a1fa916510d9fb9d40d1ecef962dc572ef637db2",
    ),
    "kirk-proximity-257": (
        "6139f22945088c31caae3b116ece83d7901c9fc3ec77c348678772617093fe85",
        "b3e2dd1b89c3840a3351d70573d0c4d3d69c109b9aa5dc1b888af1a561bffec4",
    ),
    "kirk-trace-1": (
        "a37044e437ec859a181632109071a77895e7cda0da64107798601c95725e1d27",
        "d7aefbd97bae897bad9f0897a0abcee75cc7663fcde52123633da7c8435bdd67",
    ),
    "kirk-trace-257": (
        "6139f22945088c31caae3b116ece83d7901c9fc3ec77c348678772617093fe85",
        "562710fc5a5eb03712cc314280b8b9bc3cb30f838c87a3887c1ef17bef38d283",
    ),
    "strip-certify-1": (
        "b35c9ce787846bab36844f2abc196d315b36271c8066a84ef446b0a6b2f2c2f3",
        "a11d1481925a5dfb7a5d1b5fb5d46da42bd08c84ca8d4fcd4f58ea3a58a314c4",
    ),
    "strip-certify-257": (
        "4751465722cc39cf9d8acadf5fd682507a58a8165378d4a5d710c6aef49d4ca0",
        "1de095e4f43da5fb699b674403601ffc3a21fc5caebfc1eb5c5b911c4c1964ec",
    ),
    "strip-banach-1": (
        "b35c9ce787846bab36844f2abc196d315b36271c8066a84ef446b0a6b2f2c2f3",
        "b06c52bfccc905d55f9c076afeb2124b80abf710d34ff4c861b8e793556e4899",
    ),
    "strip-banach-257": (
        "4751465722cc39cf9d8acadf5fd682507a58a8165378d4a5d710c6aef49d4ca0",
        "a43605bffab83733afb06178e9bda7632989b019e38ce47fe67de408f9faf497",
    ),
    "strip-periodic-1": (
        "b35c9ce787846bab36844f2abc196d315b36271c8066a84ef446b0a6b2f2c2f3",
        "d5dc541b768f363538667f62bdab76c7174038d7fc67b519503014e2b61516e6",
    ),
    "strip-periodic-257": (
        "4751465722cc39cf9d8acadf5fd682507a58a8165378d4a5d710c6aef49d4ca0",
        "591a1935e67a5e28f64aa54c69fed6c8a4b119c267cb609ed66733bd15c4075f",
    ),
    "strip-proximity-1": (
        "b35c9ce787846bab36844f2abc196d315b36271c8066a84ef446b0a6b2f2c2f3",
        "477bc54969a17a149ff2515ecc4569428e50630beaa8ec7272588d03a4dddd75",
    ),
    "strip-proximity-257": (
        "4751465722cc39cf9d8acadf5fd682507a58a8165378d4a5d710c6aef49d4ca0",
        "8fc52852f965cbd2a8e9da1a66b1caa21cd8003f9dca64e278cca9daabe58369",
    ),
    "strip-trace-1": (
        "b35c9ce787846bab36844f2abc196d315b36271c8066a84ef446b0a6b2f2c2f3",
        "9d2116f8df511799512ac903563db112cc5a68bf6da16ce856d46202544d1c80",
    ),
    "strip-trace-257": (
        "4751465722cc39cf9d8acadf5fd682507a58a8165378d4a5d710c6aef49d4ca0",
        "e4f8f0b0227cbfd641d99ea0168c990044186aeecc7db23225ed5f2dfef27f35",
    ),
    "lq2-certify-1": (
        "a12b88cad631731533d87334a3051b266a0ed6cef5247936bbf24684419bc835",
        "8e72a53382c15feb5b10c45cee08c733ab298141684ccc806a86385dceff6234",
    ),
    "lq2-certify-257": (
        "a06edabf9ec17cd42dc4fc9187545a8e9c3e9b35d05d958f50c737ca3400d72b",
        "b1ffe15becbaae1836ea1c3971c41ecb7b9670654045f2bd6a4c59d3d72b1a13",
    ),
    "lq2-banach-1": (
        "a12b88cad631731533d87334a3051b266a0ed6cef5247936bbf24684419bc835",
        "f32faadf62ed20fb947387adeb1ee67c64b76926dd5ec320d368b42b6cb33e92",
    ),
    "lq2-banach-257": (
        "a06edabf9ec17cd42dc4fc9187545a8e9c3e9b35d05d958f50c737ca3400d72b",
        "7d193332157ca2e0508f56b20102f265eb3442a41103ca48d2e448c5a24d5213",
    ),
    "lq2-periodic-1": (
        "a12b88cad631731533d87334a3051b266a0ed6cef5247936bbf24684419bc835",
        "8dc852bde60a2f57129bc8162722bb9ce54c1da14e1bc4a130d937ce1e18d6f7",
    ),
    "lq2-periodic-257": (
        "a06edabf9ec17cd42dc4fc9187545a8e9c3e9b35d05d958f50c737ca3400d72b",
        "2ee2d31c1cff9a2f7151c164326094c930edfabae160080e8bd5a54ca303ee55",
    ),
    "lq2-proximity-1": (
        "a12b88cad631731533d87334a3051b266a0ed6cef5247936bbf24684419bc835",
        "acca774e981531ecc4e34b4a56e2e7dc5892d0b5754989644a560da16a3b617b",
    ),
    "lq2-proximity-257": (
        "a06edabf9ec17cd42dc4fc9187545a8e9c3e9b35d05d958f50c737ca3400d72b",
        "0a5c99d4c2ce4c097fcf05e160e9805c6a47f3651042cd094984ebe2f546d781",
    ),
    "lq2-trace-1": (
        "a12b88cad631731533d87334a3051b266a0ed6cef5247936bbf24684419bc835",
        "7d68c2c8b3e954df3af6b620d4a6ff4fa4cbd0b7e52e85c10a88afb989599534",
    ),
    "lq2-trace-257": (
        "a06edabf9ec17cd42dc4fc9187545a8e9c3e9b35d05d958f50c737ca3400d72b",
        "4f94988ada7d166894e105866f4f31313b392690934528a7921bca22beeed420",
    ),
    "pair-certify-1": (
        "970a1e416461e4a475021fe375c9d247ff55fde27da77fe8e9a33cf79a534901",
        "a1b18b52b224403a6b36d9ee1d16448e826d21f7688840c7d8aa0f9a83d5c589",
    ),
    "pair-certify-257": (
        "791c161281a236c7c627e31e1d7303f7df853de3ad10ba41b6b09a45884d20b9",
        "04e32f1998682580b21dac60df3718f77578fb39a29073c4deac518996a88b7b",
    ),
    "pair-banach-1": (
        "970a1e416461e4a475021fe375c9d247ff55fde27da77fe8e9a33cf79a534901",
        "6793be3fb0786b94ece3d7e52e67cce00359650eedc104185f99313d9ea997d7",
    ),
    "pair-banach-257": (
        "791c161281a236c7c627e31e1d7303f7df853de3ad10ba41b6b09a45884d20b9",
        "702db7f22dc7805efdb5eb58c626122cf5a91e280751bb503c4c5e2c6c494ab3",
    ),
    "pair-periodic-1": (
        "970a1e416461e4a475021fe375c9d247ff55fde27da77fe8e9a33cf79a534901",
        "30a8aeb6932c1e839e6ea8c9355b9a1a15dfb28a0cfc25857d85570753946f05",
    ),
    "pair-periodic-257": (
        "791c161281a236c7c627e31e1d7303f7df853de3ad10ba41b6b09a45884d20b9",
        "fca4d5393cd7bc98ef8ce6f61836fa50e60c31c5f2b0be9e5bc284958f1f1d40",
    ),
    "pair-proximity-1": (
        "970a1e416461e4a475021fe375c9d247ff55fde27da77fe8e9a33cf79a534901",
        "984363322d92c56d51eaa616270c179d5351e07b59e2380591e6e593b0e46123",
    ),
    "pair-proximity-257": (
        "791c161281a236c7c627e31e1d7303f7df853de3ad10ba41b6b09a45884d20b9",
        "d04346ba379c3d37c62c5b45e129d1fd66f9bce2ccc7bbad9463b718391a1dc2",
    ),
    "pair-trace-1": (
        "970a1e416461e4a475021fe375c9d247ff55fde27da77fe8e9a33cf79a534901",
        "dcd4cad9d89fa9604d7631f68e249e70037b5e61c8eb2357fb00e87ce0c70241",
    ),
    "pair-trace-257": (
        "791c161281a236c7c627e31e1d7303f7df853de3ad10ba41b6b09a45884d20b9",
        "5e9f843ac091ebaef1ec31edeb14d7954c0b42763ffa5fb7e9f9dd736c8bb0fd",
    ),
    "lq3-certify-1": (
        "a1997aff4067b99d5ef0f94022383f0e9e1f67c5f015ef177c34304b9da85677",
        "7eb0e6ce94839d83b6848c7dbe273098ff51ff8449bf22d4a436cc2914711382",
    ),
    "lq3-certify-257": (
        "9b008f57dcdd60ef75f7908046ca9ead328a096ae8fa38716aa5dfe9b6bf0c78",
        "2ac0f14c597db464dc59238dbc53fce95e2f436388a46c4cb46470b0ced61657",
    ),
    "lq3-banach-1": (
        "a1997aff4067b99d5ef0f94022383f0e9e1f67c5f015ef177c34304b9da85677",
        "3a408d3f0c7f64cf54a8cac141a0d4e4d032b973a5a4c4a96070f16dbfb2fe97",
    ),
    "lq3-banach-257": (
        "9b008f57dcdd60ef75f7908046ca9ead328a096ae8fa38716aa5dfe9b6bf0c78",
        "d26762b8269ee3023719bee16b746bbaaf011b9b28b903d887cf1f8187fccfe8",
    ),
    "lq3-periodic-1": (
        "a1997aff4067b99d5ef0f94022383f0e9e1f67c5f015ef177c34304b9da85677",
        "3be24e4dfb99e82d58031bcf94c63e24ee6d8e8952b680fac477ac590501e414",
    ),
    "lq3-periodic-257": (
        "9b008f57dcdd60ef75f7908046ca9ead328a096ae8fa38716aa5dfe9b6bf0c78",
        "0a7d0bf2c36ae9d934f3ad69acb0e47210be0867f19cddca8a1f74a1f63accf4",
    ),
    "lq3-proximity-1": (
        "a1997aff4067b99d5ef0f94022383f0e9e1f67c5f015ef177c34304b9da85677",
        "5b337c48bb929054f65f1702be868cb700f807001ed53b35b6d5922e90bec0b1",
    ),
    "lq3-proximity-257": (
        "9b008f57dcdd60ef75f7908046ca9ead328a096ae8fa38716aa5dfe9b6bf0c78",
        "2936941a49097705570d192be36e5dab1417a357dbc6caab1c6fe5660d7f31cc",
    ),
    "lq3-trace-1": (
        "a1997aff4067b99d5ef0f94022383f0e9e1f67c5f015ef177c34304b9da85677",
        "e0e72728dfbab984d382d75cfdd7e85ba0e917040ddb5d04c558ad5911ed1539",
    ),
    "lq3-trace-257": (
        "9b008f57dcdd60ef75f7908046ca9ead328a096ae8fa38716aa5dfe9b6bf0c78",
        "cc6784c48d5a7ae20ac67403552d7ededfefe4002409b5ca500739883522b963",
    ),
    "lq4-certify-1": (
        "472385066d2f18626107339c8ac412f983865eeebe48c71fe442dbb6c4009ff5",
        "01a2a355c41e2baae4f11d26a15d4274c10615fbfc91cf6328ba880da2d788a7",
    ),
    "lq4-certify-257": (
        "bc4822c2ba73d5b37cd2fe49ca8a92a067dd56bc84bb1b97810ebb10a86d5dc5",
        "649d2257e61f186289fa10ebfa42c6fe2de7b224d14d56c506066fc54ef2f417",
    ),
    "lq4-banach-1": (
        "472385066d2f18626107339c8ac412f983865eeebe48c71fe442dbb6c4009ff5",
        "f39a710300b41ccc3993a82939cf582d5f39cb2ab7b24eda732a104ccd4cb5ec",
    ),
    "lq4-banach-257": (
        "bc4822c2ba73d5b37cd2fe49ca8a92a067dd56bc84bb1b97810ebb10a86d5dc5",
        "cdfa170e618302c71392ad173b4d9dd99d79fd34397fca370dbafa1819bc2996",
    ),
    "lq4-periodic-1": (
        "472385066d2f18626107339c8ac412f983865eeebe48c71fe442dbb6c4009ff5",
        "2fa37b1deef76f40eac7ac40f0f1335de4b5d3d81b45073751f47f427f81a4ce",
    ),
    "lq4-periodic-257": (
        "bc4822c2ba73d5b37cd2fe49ca8a92a067dd56bc84bb1b97810ebb10a86d5dc5",
        "3fb06a439bb7614af0d2b081022f7229e6fd9df6fdab5d40e6774a9afd2b2895",
    ),
    "lq4-proximity-1": (
        "472385066d2f18626107339c8ac412f983865eeebe48c71fe442dbb6c4009ff5",
        "776ecf14717dbd28c04e556a18fd96e9f698e46090f5d9d7780de35719068649",
    ),
    "lq4-proximity-257": (
        "bc4822c2ba73d5b37cd2fe49ca8a92a067dd56bc84bb1b97810ebb10a86d5dc5",
        "cdccbc8aa6663682c0436021e892e1f5f038cd9c506e77e990aa021d1080cbba",
    ),
    "lq4-trace-1": (
        "472385066d2f18626107339c8ac412f983865eeebe48c71fe442dbb6c4009ff5",
        "799387489fc5b1b6b7b253405f642d526d5b1f5c24f0962fe21940fb81781748",
    ),
    "lq4-trace-257": (
        "bc4822c2ba73d5b37cd2fe49ca8a92a067dd56bc84bb1b97810ebb10a86d5dc5",
        "ff10d62ce1d1125376026e4aa087afe4d629423210998e853155436af2f799ec",
    ),
}


def _config(label, run, iterations):
    system_id, parameters, p = SYSTEMS[label]
    return {
        "system": {"id": system_id, "parameters": parameters},
        "p": p,
        "phi": {"kind": "linear", "alpha": 0.25},
        "run": run,
        "iterations": iterations,
        "tolerance": 1e-10,
        "seed": 11,
    }


def golden_digests(out_dir, label, run, iterations):
    """Run one golden config into out_dir; return its two digests."""
    cli.run_experiment(cli.parse_config(_config(label, run, iterations)), out_dir)
    trace = (out_dir / "trace.csv").read_bytes()
    summary = json.loads((out_dir / "summary.json").read_text())
    summary.pop("metadata")
    text = json.dumps(summary, sort_keys=True, indent=2, allow_nan=False)
    return (
        hashlib.sha256(trace).hexdigest(),
        hashlib.sha256(text.encode("utf-8")).hexdigest(),
    )


CASES = [
    (label, run, iterations)
    for label in SYSTEMS
    for run in cli.RUNS
    for iterations in ITERATIONS
]


@pytest.mark.parametrize("label, run, iterations", CASES)
def test_golden_outputs(tmp_path, label, run, iterations):
    key = f"{label}-{run}-{iterations}"
    trace_sha, summary_sha = golden_digests(tmp_path, label, run, iterations)
    assert trace_sha == DIGESTS[key][0], f"trace.csv of {key} changed"
    assert summary_sha == DIGESTS[key][1], f"summary.json of {key} changed"
