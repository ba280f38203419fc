"""Golden runs: every gallery system and run kind through
``cli.run_experiment``, and the one home of the facts a run reports.

Each case reads its ``summary.json`` with ``reference.read_summary``
(strict JSON, validated against the packaged schema), checks ``d_p_sets``
against the gallery's ``expected_chain_distance(p)`` (null where that is
not finite), and holds its ``FACTS`` row, if it has one. Then it hashes
``trace.csv`` and the summary without its metadata field. ``DIGESTS`` guard
the bytes: the determinism contract says both files are byte-identical for
the same config (the metadata field excepted), and a refactor that alters
one byte fails here. ``FACTS`` guard what the bytes mean (converged,
passed, counts, nulls), so a change that has to re-record the digests
cannot change the meaning with them. A new end-to-end fact of a run is a
``FACTS`` entry, and a new gallery system gets its cases here: a test fails
while a system and run kind has no case.
Each check is seen to fail: ``BROKEN_SUMMARIES`` rewrite a case's summary
into one that strict JSON, the schema or the gallery refuses, and
``WRONG_FACTS`` give a case a row of each kind of fact that does not hold.

Iterations 1 gives the shortest orbit (3m steps) and iterations 257 a
longer one whose length is not a multiple of m.

The solver tail has digests of its own: the three solvers on slow systems
(step factor 0.9995) at tolerance 1e-12, whose orbits run past the
10 000-step trace prefix. With iterations 100 000 the runs stop between
steps 4 x 10^4 and 6 x 10^4, or exhaust the budget where no fixed point
exists (banach on affine_strip and scaled_pair). Iterations 10 001,
11 025 and 23 456 exhaust the budget one step, one chunk plus one step
(the chunk being 1 024 steps) and many chunks past the prefix.

Two cases reach past the float range: the strip's edges at distance
h = 1.2e308, whose d_1 set chain distance 2h is inf, and balls 1e308 apart
on the line, whose margins are inf - inf = nan. Both write null.
"""

import hashlib
import json
import math

import jsonschema
import pytest
from pytest import approx

import proxcycle.cli as cli
from proxcycle import gallery
from reference import check_facts, read_summary

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

# The solver tail: label -> (system id, parameters, p), at tolerance 1e-12.
TAIL_SYSTEMS = {
    "slow-kirk": ("kirk_interval", {"alpha": 0.0005}, 2),
    "slow-strip": ("affine_strip", {"alpha": 0.9995, "h": 1.5}, "inf"),
    "slow-pair": ("scaled_pair", {"alpha": 0.0005, "separation": 2.0, "dimension": 3}, 1),
}
SOLVER_RUNS = ("banach", "periodic", "proximity")
TAIL_ITERATIONS = (100_000, 10_001, 11_025, 23_456)
TAIL_TOLERANCE = 1e-12

# Past the float range, each run once: label -> (system id, parameters, p).
FAR_SYSTEMS = {
    "far-strip": ("affine_strip", {"h": 1.2e308}, 1),
    "far-pair": ("scaled_pair", {"alpha": 0.4, "separation": 1e308, "dimension": 1}, 1),
}
FAR_CASES = [("far-strip", "trace", 1), ("far-pair", "certify", 50)]

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
    "slow-kirk-banach-100000": (
        "2f78d8179bb1148be84bd6135996f1f6d8393ce6da67da9bb2e40298c385044d",
        "dee03ae07bd351934c5d6e722dc68791171d642e532567856aee410102f7d2f2",
    ),
    "slow-kirk-banach-10001": (
        "2f78d8179bb1148be84bd6135996f1f6d8393ce6da67da9bb2e40298c385044d",
        "5f17eca865ab139d42d5a6b2543d84aa25d298ccc7f45661c5e3173d590ede44",
    ),
    "slow-kirk-banach-11025": (
        "2f78d8179bb1148be84bd6135996f1f6d8393ce6da67da9bb2e40298c385044d",
        "e03d113b7e5bf69bf02c6874ef526d775b3be39ead24ea42ec2665c78a001efb",
    ),
    "slow-kirk-banach-23456": (
        "2f78d8179bb1148be84bd6135996f1f6d8393ce6da67da9bb2e40298c385044d",
        "3cc2c33def08b19e6963ec20d29a94e7c1fe78b963e2bb694fcd7cb44a836e20",
    ),
    "slow-kirk-periodic-100000": (
        "2f78d8179bb1148be84bd6135996f1f6d8393ce6da67da9bb2e40298c385044d",
        "4c045626e5ffe40424faa9f77153520365bd96e69c9a93437cc14d3ccc4c612e",
    ),
    "slow-kirk-periodic-10001": (
        "2f78d8179bb1148be84bd6135996f1f6d8393ce6da67da9bb2e40298c385044d",
        "8395bce90327031b4f69236154b5e7070b6138449bb3adfec38e2c6d2e861471",
    ),
    "slow-kirk-periodic-11025": (
        "2f78d8179bb1148be84bd6135996f1f6d8393ce6da67da9bb2e40298c385044d",
        "c0b89e69fe5c9dbd7360ed92b82d06841b3a933e777395f632adbd23dfe301b2",
    ),
    "slow-kirk-periodic-23456": (
        "2f78d8179bb1148be84bd6135996f1f6d8393ce6da67da9bb2e40298c385044d",
        "522efa64da39a4d97747a4ff1ded675589bcf36d959cbb375b5eb4a0a0524213",
    ),
    "slow-kirk-proximity-100000": (
        "2f78d8179bb1148be84bd6135996f1f6d8393ce6da67da9bb2e40298c385044d",
        "fecb6396ea67222b65b7c716a391385b81f0c5f122a4054ecc79c5055b5f1eb2",
    ),
    "slow-kirk-proximity-10001": (
        "2f78d8179bb1148be84bd6135996f1f6d8393ce6da67da9bb2e40298c385044d",
        "3f5e5b981290fcd4345cc6ff5b13699fee0ca72950828f7dca289db4e4e07816",
    ),
    "slow-kirk-proximity-11025": (
        "2f78d8179bb1148be84bd6135996f1f6d8393ce6da67da9bb2e40298c385044d",
        "0923e3c7c3dbc5f7dd7a51761a9ffa56c29bf4dd75aed2b8dd99e8c70f7ce2ac",
    ),
    "slow-kirk-proximity-23456": (
        "2f78d8179bb1148be84bd6135996f1f6d8393ce6da67da9bb2e40298c385044d",
        "d9432a4fc463ab15fae4eef67365d65b450b4d35847519d2dad9a98a12c6dca7",
    ),
    "slow-strip-banach-100000": (
        "f60af5a0774cb538875143197e66b2550e62770f2162729e1c08a19f6e34d204",
        "ba77f76a472df30f19fa393161e41421604ae07169b41f758bb382564d96a70c",
    ),
    "slow-strip-banach-10001": (
        "f60af5a0774cb538875143197e66b2550e62770f2162729e1c08a19f6e34d204",
        "104800ad0963dbc7a156f7c12f525cc6e80d4b909a60d85484afa2fef4ef44ab",
    ),
    "slow-strip-banach-11025": (
        "f60af5a0774cb538875143197e66b2550e62770f2162729e1c08a19f6e34d204",
        "44da80eb95ec324e4b633767559d56114d7d5c441781f1891ddffae0d6b318e9",
    ),
    "slow-strip-banach-23456": (
        "f60af5a0774cb538875143197e66b2550e62770f2162729e1c08a19f6e34d204",
        "b90861ac71b70de555584b22cfe0962d8a0c04e8acf4ea1a8a666c4015fe5c85",
    ),
    "slow-strip-periodic-100000": (
        "f60af5a0774cb538875143197e66b2550e62770f2162729e1c08a19f6e34d204",
        "41d380d5ffd9d1cff2007afafb6f53cdf497a4403e6fdf00fcf9e49746956478",
    ),
    "slow-strip-periodic-10001": (
        "f60af5a0774cb538875143197e66b2550e62770f2162729e1c08a19f6e34d204",
        "189fc2dd25d1ce7ee3080940c4555850a4377642ba8086319fb2f070e06bbd06",
    ),
    "slow-strip-periodic-11025": (
        "f60af5a0774cb538875143197e66b2550e62770f2162729e1c08a19f6e34d204",
        "3d5859080c3631e1effa71dfb314a96480a155a59690e5c1f1995fa4081c878d",
    ),
    "slow-strip-periodic-23456": (
        "f60af5a0774cb538875143197e66b2550e62770f2162729e1c08a19f6e34d204",
        "4fd37244f15032e05be5071ec919d16983cec61ef524e79788a76cfc5daad780",
    ),
    "slow-strip-proximity-100000": (
        "f60af5a0774cb538875143197e66b2550e62770f2162729e1c08a19f6e34d204",
        "9df6f9215ff154ff457f4a522685834a9101728c299cfa12ba75dba99ab03de3",
    ),
    "slow-strip-proximity-10001": (
        "f60af5a0774cb538875143197e66b2550e62770f2162729e1c08a19f6e34d204",
        "0d4d997f35ad46e9d81b63d9e2f20c62fc3921ef7da826d84f47510333c5de57",
    ),
    "slow-strip-proximity-11025": (
        "f60af5a0774cb538875143197e66b2550e62770f2162729e1c08a19f6e34d204",
        "721c92d5681ba05ce85b4e47d9f210bc9bca58d974515292f57a1c3df1c0fcd8",
    ),
    "slow-strip-proximity-23456": (
        "f60af5a0774cb538875143197e66b2550e62770f2162729e1c08a19f6e34d204",
        "7c71feeed35746ff5b801e992e34b11fdb985ad0b3aa44bb11fe0b705b994e20",
    ),
    "slow-pair-banach-100000": (
        "606d430e1d1e4157188ebcd772ca4fcd6899e6236082ba0041a9e02adfffc283",
        "26b481ed74c3db20823a3b4d8ca42913acbeefbbf411d7d5dd542ade2ba987ff",
    ),
    "slow-pair-banach-10001": (
        "606d430e1d1e4157188ebcd772ca4fcd6899e6236082ba0041a9e02adfffc283",
        "5fcf19910067a60231c9dc62fe8f5d03047cd0eb0c609bc6a12aca9d9a2e843b",
    ),
    "slow-pair-banach-11025": (
        "606d430e1d1e4157188ebcd772ca4fcd6899e6236082ba0041a9e02adfffc283",
        "c8b66d2cec2bc268d2cb1b3e109745f0574bfd71beed701c9bc704b744c4bd49",
    ),
    "slow-pair-banach-23456": (
        "606d430e1d1e4157188ebcd772ca4fcd6899e6236082ba0041a9e02adfffc283",
        "1df3a1467ba0b7395496afaee4815e2ceb9422b56245096bc4bbd33bdef86b82",
    ),
    "slow-pair-periodic-100000": (
        "606d430e1d1e4157188ebcd772ca4fcd6899e6236082ba0041a9e02adfffc283",
        "3e6232274f97d5b52d393b7703aa717662d1374fd47e170d201210882d0fb13e",
    ),
    "slow-pair-periodic-10001": (
        "606d430e1d1e4157188ebcd772ca4fcd6899e6236082ba0041a9e02adfffc283",
        "aacfefa81bd142c148241c7ceec2a8222836dd07a728ed7ae0471dbba59a1925",
    ),
    "slow-pair-periodic-11025": (
        "606d430e1d1e4157188ebcd772ca4fcd6899e6236082ba0041a9e02adfffc283",
        "193b835fc43ce3bc500b18df9e86ff32012ce05f2aff120c1ce535e7cc0479f6",
    ),
    "slow-pair-periodic-23456": (
        "606d430e1d1e4157188ebcd772ca4fcd6899e6236082ba0041a9e02adfffc283",
        "76891fe15018c9dfc43851b2874f7f77668c88b4e92fc0bd1b38fbcc398cc37c",
    ),
    "slow-pair-proximity-100000": (
        "606d430e1d1e4157188ebcd772ca4fcd6899e6236082ba0041a9e02adfffc283",
        "db48c590083a61865c7d2a8dfa210de031b7be15135cd0f52e078f2d013a99b3",
    ),
    "slow-pair-proximity-10001": (
        "606d430e1d1e4157188ebcd772ca4fcd6899e6236082ba0041a9e02adfffc283",
        "07eef2ff4c77f5a9b2d9c61544d5f57d7e954f63e987ec3a07d1fcbf7f91756d",
    ),
    "slow-pair-proximity-11025": (
        "606d430e1d1e4157188ebcd772ca4fcd6899e6236082ba0041a9e02adfffc283",
        "f8d48268b6646a662ce71d18b439a283714fe61769140f1012515815ae69e6ea",
    ),
    "slow-pair-proximity-23456": (
        "606d430e1d1e4157188ebcd772ca4fcd6899e6236082ba0041a9e02adfffc283",
        "82b975a6846bdbbfe01f93d873058587f45cd0ee292a5486cf38fad6b708acd5",
    ),
    "far-strip-trace-1": (
        "400900a297e8a60dcf56eb2e3191af779efacaf8560cdc671c0581aecb77d94d",
        "582f634c73c69f21dc612cad0f6ead5e66e0dc4a30ec0fd9e2be6377ecb33816",
    ),
    "far-pair-certify-50": (
        "e4e64faa4e607eeec6c2e0b8436be662434c984a44143b9ec9cff2b30bee58d5",
        "af94bc2666a6e2f42bc4142ea8dde25a3f2bf136a5248a48857f66a71a5a6336",
    ),
}


# "<label>-<run>-<iterations>" -> {fact: value}. A fact is a dotted path
# into summary.json, or trace.lines (lines of trace.csv, the header
# included) or trace.last.<column> (the last row's value); the value is
# compared with ==, or is a predicate it must satisfy (``check_facts``, the
# checker ``FINDINGS`` in test_findings shares).
FACTS = {
    "kirk-banach-257": {
        "result.converged": True, "result.iterations": 83, "result.point": approx([0.0], abs=1e-10),
    },
    # The periodic pair is ((0, 0), (0, h)): the edge settles at h = 1.5.
    "strip-periodic-257": {
        "result.converged": True, "result.proximity_residual": 0.0, "trace.last.edge_1": 1.5,
    },
    "lq2-proximity-257": {
        "result.converged": False,
        "result.note": lambda note: note.endswith("; set chain distance is not attained"),
    },
    # One iteration leaves the m = 3 proximity residual undefined (nan).
    "lq3-proximity-1": {"result.converged": False, "result.proximity_residual": None},
    # At phi's alpha = the interval's certificate_alpha, 0.25, the margin is 0.
    "kirk-certify-257": {
        "certificate.passed": True, "certificate.cyclicity_ok": True, "certificate.phi_ok": True,
        "certificate.min_margin": approx(0.0, abs=1e-15),
    },
    "lq3-certify-257": {
        "certificate.passed": True, "certificate.exhaustive": True,
        "certificate.cyclicity_ok": True, "certificate.evaluated": 86_436,
    },
    "pair-certify-257": {
        "certificate.passed": True, "certificate.exhaustive": False,
        "certificate.cyclicity_ok": True, "certificate.evaluated": 257,
    },
    # The solves stop past the 10 000-step trace prefix, whose trace.csv is
    # the header and a row per block of 2 steps but the last.
    "slow-pair-periodic-100000": {
        "result.converged": True, "result.iterations": 41_438, "trace.lines": 5000,
    },
    "slow-strip-proximity-100000": {
        "result.converged": True, "result.iterations": 41_439, "trace.lines": 5000,
    },
    "far-strip-trace-1": {"d_p_sets": None, "trace.lines": 3},
    "far-pair-certify-50": {
        "certificate.passed": False, "certificate.min_margin": None, "certificate.evaluated": 50,
        "certificate.witness_x": lambda xs: len(xs) == 2,
        "certificate.witness_y": lambda ys: len(ys) == 2,
    },
}


def _config(label, run, iterations):
    system_id, parameters, p = {**SYSTEMS, **TAIL_SYSTEMS, **FAR_SYSTEMS}[label]
    tolerance = TAIL_TOLERANCE if label in TAIL_SYSTEMS else 1e-10
    return {
        "system": {"id": system_id, "parameters": parameters},
        "p": p,
        "phi": {"kind": "linear", "alpha": 0.25},
        "run": run,
        "iterations": iterations,
        "tolerance": tolerance,
        "seed": 11,
    }


def golden_digests(out_dir, label, run, iterations):
    """Run one golden config into out_dir, check its summary and its
    ``FACTS`` row; return its two digests."""
    key = f"{label}-{run}-{iterations}"
    config = cli.parse_config(_config(label, run, iterations))
    cli.run_experiment(config, out_dir)
    trace = (out_dir / "trace.csv").read_bytes()
    summary = read_summary(out_dir)
    built = gallery.build(config.system_id, config.parameters)
    expected = built.expected_chain_distance(config.p)
    if math.isfinite(expected):
        assert summary["d_p_sets"] == approx(expected, abs=1e-12), key
    else:
        assert summary["d_p_sets"] is None, key
    header, *rows = trace.decode("utf-8").splitlines()
    last = dict(zip(header.split(","), map(float, rows[-1].split(","))))
    check_facts(key, {**summary, "trace": {"lines": 1 + len(rows), "last": last}},
                FACTS.get(key, {}))
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
] + [
    (label, run, iterations)
    for label in TAIL_SYSTEMS
    for run in SOLVER_RUNS
    for iterations in TAIL_ITERATIONS
] + FAR_CASES


@pytest.mark.parametrize("label, run, iterations", CASES)
def test_golden_outputs(tmp_path, label, run, iterations):
    key = f"{label}-{run}-{iterations}"
    trace_sha, summary_sha = golden_digests(tmp_path, label, run, iterations)
    assert trace_sha == DIGESTS[key][0], f"trace.csv of {key} changed"
    assert summary_sha == DIGESTS[key][1], f"summary.json of {key} changed"


def test_every_system_and_run_kind_has_a_case_and_every_fact_a_digest():
    covered = {(_config(*case)["system"]["id"], case[1]) for case in CASES}
    assert covered == {(system_id, run) for system_id in gallery.GALLERY for run in cli.RUNS}
    assert {"-".join(map(str, case)) for case in CASES} == set(DIGESTS)
    assert set(FACTS) <= set(DIGESTS)


def _edited(edit):
    """``cli.run_experiment`` that runs, then rewrites its summary by ``edit``."""
    run_experiment = cli.run_experiment

    def run(config, out_dir):
        run_experiment(config, out_dir)
        path = out_dir / "summary.json"
        summary = json.loads(path.read_text(encoding="utf-8"))
        edit(summary)
        path.write_text(json.dumps(summary, indent=2), encoding="utf-8")

    return run


# A fault in a written summary -> the error the runner stops on, and what
# it says.
BROKEN_SUMMARIES = {
    "NaN residual": (
        lambda s: s["result"].update(residual=math.nan), ValueError, "constant NaN",
    ),
    "Infinity d_p_sets": (
        lambda s: s.update(d_p_sets=math.inf), ValueError, "constant Infinity",
    ),
    "-Infinity point": (
        lambda s: s["result"].update(point=[-math.inf]), ValueError, "constant -Infinity",
    ),
    "no d_p_sets": (
        lambda s: s.pop("d_p_sets"), jsonschema.ValidationError, "'d_p_sets' is a required",
    ),
    "a key the schema lacks": (
        lambda s: s.update(extra=0), jsonschema.ValidationError, "'extra' was unexpected",
    ),
    "d_p_sets off by 1e-9": (
        lambda s: s.update(d_p_sets=1e-9), AssertionError, "kirk-banach-1",
    ),
}


@pytest.mark.parametrize("fault", BROKEN_SUMMARIES)
def test_the_runner_refuses_a_summary_out_of_strict_json_the_schema_or_the_gallery(
    tmp_path, monkeypatch, fault
):
    edit, error, says = BROKEN_SUMMARIES[fault]
    golden_digests(tmp_path / "clean", "kirk", "banach", 1)
    monkeypatch.setattr(cli, "run_experiment", _edited(edit))
    with pytest.raises(error, match=says):
        golden_digests(tmp_path / "broken", "kirk", "banach", 1)


# A FACTS row that does not hold of kirk-banach-1 (one iteration: not
# converged, point [0.75], no note, 3 lines), one per kind of fact.
WRONG_FACTS = {
    "equal": ("result.converged", True),
    "approx": ("result.point", approx([0.0], abs=1e-10)),
    "predicate": ("result.note", lambda note: note is not None),
    "trace": ("trace.lines", 5),
}


@pytest.mark.parametrize("kind", WRONG_FACTS)
def test_a_fact_that_does_not_hold_fails_its_case(tmp_path, monkeypatch, kind):
    path, want = WRONG_FACTS[kind]
    golden_digests(tmp_path / "clean", "kirk", "banach", 1)
    monkeypatch.setitem(FACTS, "kirk-banach-1", {path: want})
    with pytest.raises(AssertionError, match=f"kirk-banach-1: {path} is "):
        golden_digests(tmp_path / "wrong", "kirk", "banach", 1)
