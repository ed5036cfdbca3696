"""Golden outputs: SHA-256 digests of every file the pipeline writes per figure.

The digests pin ``figure.csv``, ``report.json`` and ``figure_annotated.svg``
byte for byte on a fixed set of seeded figures, so any change that claims
to keep outputs identical (an optimisation, a refactor) is checked here.
A digest may only change together with a deliberate behaviour change.
"""

from __future__ import annotations

import hashlib
import itertools
import random
import re

from vecfig.config import DEFAULT_CONFIG
from vecfig.pipeline import DEFAULT_FIGURE_FILTER, run_project, scan_project
from vecfig.synth import AxisStyle, SyntheticSpec, generate_scatter_svg

OUTPUTS = ("figure.csv", "report.json", "figure_annotated.svg")


def _spec(rng: random.Random, seed: int, style: AxisStyle, n_points: int) -> SyntheticSpec:
    def nice_range(n_ticks: int) -> tuple[float, float]:
        step = rng.choice([1.0, 2.0, 5.0]) * 10.0 ** rng.randint(-2, 3)
        lo = rng.randint(-20, 20) * step
        return (lo, lo + step * (n_ticks - 1))

    n_ticks_x, n_ticks_y = rng.randint(3, 8), rng.randint(3, 8)
    return SyntheticSpec(n_points=n_points, x_range=nice_range(n_ticks_x),
                         y_range=nice_range(n_ticks_y), n_ticks_x=n_ticks_x,
                         n_ticks_y=n_ticks_y,
                         marker_radius=rng.choice([2.0, 3.0, 4.0]),
                         axis_style=style, seed=seed)


def _wrapped(svg: bytes, transform: str) -> bytes:
    """The figure's content inside one ``<g transform>`` under the root."""
    head_end = svg.index(b">", svg.index(b"<svg")) + 1
    return (svg[:head_end] + f'<g transform="{transform}">'.encode()
            + svg[head_end:].replace(b"</svg>", b"</g></svg>"))


def _per_circle_transforms(svg: bytes, rng: random.Random) -> bytes:
    """Each marker rotated, skewed and scaled about its own centre.

    Every 40th marker is skewed past the roundness gate, so the report
    carries non-circular ellipse warnings.
    """
    def repl(m: re.Match) -> bytes:
        i = int(m.group(2))
        x, y, r = (float(v) for v in m.group(3, 4, 5))
        s = rng.uniform(0.5, 2.0)
        skew = rng.uniform(-1.5, 1.5) if i % 40 else 35.0
        t = (f"rotate({rng.uniform(-180, 180):.3f} {x} {y}) translate({x} {y}) "
             f"skewX({skew:.3f}) scale({s:.4f}) translate({-x} {-y})")
        return (m.group(1) + f'transform="{t}" cx="{x}" cy="{y}" r="{r / s:.6g}"'
                .encode())
    return re.sub(rb'(<circle id="pt(\d+)" )cx="([^"]+)" cy="([^"]+)" r="([^"]+)"',
                  repl, svg)


_LINE_RE = re.compile(rb'<line x1="([^"]+)" y1="([^"]+)" x2="([^"]+)" y2="([^"]+)"[^>]*/>')


def _as_paths(svg: bytes, path_data) -> bytes:
    """Each ``<line>`` redrawn as a ``<path>``; ``path_data(k, x1, y1, x2, y2)``
    gives the path data of the k-th line."""
    count = itertools.count()

    def repl(m: re.Match) -> bytes:
        x1, y1, x2, y2 = (float(v) for v in m.groups())
        return (f'<path d="{path_data(next(count), x1, y1, x2, y2)}" stroke="black"/>'
                .encode())
    return _LINE_RE.sub(repl, svg)


def _mixed_commands(k: int, x1: float, y1: float, x2: float, y2: float) -> str:
    """Absolute, relative, H/V, h/v and implicit-lineto forms in turn."""
    dx, dy = x2 - x1, y2 - y1
    form = k % 5
    if form == 0:
        return f"M {x1!r} {y1!r} L {x2!r} {y2!r}"
    if form == 1:
        return f"m{x1!r},{y1!r} l{dx!r},{dy!r}"
    if form == 2:
        return f"M{x1!r} {y1!r}H{x2!r}" if dy == 0 else f"M{x1!r} {y1!r}V{y2!r}"
    if form == 3:
        return f"M {x1!r} {y1!r} h {dx!r}" if dy == 0 else f"M {x1!r} {y1!r} v {dy!r}"
    return f"M {x1!r} {y1!r} {x2!r} {y2!r}"


def _shallow_left_axis(k: int, x1: float, y1: float, x2: float, y2: float) -> str:
    """The first line (the left axis) as a cubic bowed 0.1 off its chord."""
    if k:
        return f"M {x1!r} {y1!r} L {x2!r} {y2!r}"
    dy = y2 - y1
    return (f"M {x1!r} {y1!r} C {x1 + 0.1!r} {y1 + dy / 3!r} "
            f"{x1 + 0.1!r} {y1 + 2 * dy / 3!r} {x2!r} {y2!r}")


# Decorations around a figure whose axes run (60, 400)-(60, 25)-(575, 400):
# a Z mid-path and an implicit lineto after L; a deep cubic and an arc, both
# skipped; a top frame whose S piece is curved only through the reflected
# control point (0.45 off each side: skipped, while an unreflected one would
# pass), the same for Q/T down the right side, and S and T with no curve
# before them, which reflect nothing.
_STRAIGHT_DECORATIONS = ('<path d="M 480 40 h 60 v 20 h -60 Z m 10 10 l 20 0" stroke="black"/>'
                         '<path d="M 100 432 L 140 432 160 436 l 20 0" stroke="black"/>')
_CURVED_DECORATIONS = ('<path d="M 100 60 C 150 20 200 100 250 60" stroke="black"/>'
                       '<path d="M 300 60 A 20 20 0 0 1 340 60 l 0 10" stroke="black"/>'
                       '<path d="M 60 25 C 150 25 240 24.55 330 25 S 510 25.45 575 25"'
                       ' stroke="black"/>'
                       '<path d="M 575 400 Q 575.6 300 575 200 T 575 25" stroke="black"/>'
                       '<path d="M 100 440 S 200 440 300 440 T 400 440 t 50 0"'
                       ' stroke="black"/>')


def _decorated(svg: bytes, decorations: str) -> bytes:
    return svg.replace(b"</svg>", decorations.encode() + b"</svg>")


def _rect_frame(svg: bytes) -> bytes:
    """The two axis lines replaced by one ``<rect>`` frame, with an
    ``<image>`` over less than half of the box."""
    axes = _LINE_RE.finditer(svg)
    left, bottom = next(axes), next(axes)
    x0, y0, _, y1 = (float(v) for v in left.groups())
    x1 = float(bottom.group(3))
    frame = (f'<rect x="{x0!r}" y="{y1!r}" width="{x1 - x0!r}" height="{y0 - y1!r}" '
             f'fill="none" stroke="black"/>'
             f'<image x="{x0 + 40!r}" y="{y1 + 25!r}" width="200" height="150" '
             f'xlink:href="data:image/png;base64,AAAA"/>')
    return (svg[:left.start()] + frame.encode() + svg[left.end():bottom.start()]
            + svg[bottom.end():])


_TEXT_RE = re.compile(rb"<text [^>]*>[^<]*</text>")
_CX_RE = re.compile(rb'(<circle id="pt\d+" )cx="[^"]+"')


def _failures(svg: bytes) -> dict[str, bytes]:
    """One figure per failure ``extract_figure`` reaches, each made from ``svg``."""
    return {
        "fail-not-svg": svg.replace(b"<svg", b"<html").replace(b"</svg>", b"</html>"),
        "fail-malformed-xml": svg[:len(svg) // 2],
        "fail-zero-determinant": _wrapped(svg, "translate(5 5) scale(0)"),
        "fail-path-syntax": _decorated(svg, '<path d="M 100 440 L 120" stroke="black"/>'),
        "fail-no-axes": _LINE_RE.sub(b"", svg),
        "fail-too-few-ticks": _TEXT_RE.sub(b"", svg),
        # every marker left of the plot box, inside the canvas
        "fail-no-glyphs-in-box": _CX_RE.sub(rb'\1cx="20"', svg),
    }


def golden_figures() -> dict[str, bytes]:
    figures = {}
    for style in AxisStyle:
        for k in range(3):
            rng = random.Random(f"golden:{style.value}:{k}")
            spec = _spec(rng, 100 + k, style, rng.randint(4, 200))
            figures[f"{style.value}-{k}"], _ = generate_scatter_svg(spec)
    rng = random.Random("golden:dense")
    figures["dense-2k"], _ = generate_scatter_svg(
        _spec(rng, 7, AxisStyle.STANDARD, 2000))
    rng = random.Random("golden:wrapped")
    svg, _ = generate_scatter_svg(_spec(rng, 8, AxisStyle.STANDARD, 150))
    figures["wrapped-rotate-scale"] = _wrapped(
        svg, "translate(12 -9) rotate(0.7 300 225) scale(1.15)")
    rng = random.Random("golden:per-circle")
    svg, _ = generate_scatter_svg(_spec(rng, 9, AxisStyle.STANDARD, 150))
    figures["per-circle-transforms"] = _per_circle_transforms(svg, rng)
    rng = random.Random("golden:paths")
    svg, _ = generate_scatter_svg(_spec(rng, 10, AxisStyle.STANDARD, 60))
    figures["path-commands"] = _decorated(_as_paths(svg, _mixed_commands),
                                          _STRAIGHT_DECORATIONS)
    rng = random.Random("golden:curves")
    svg, _ = generate_scatter_svg(_spec(rng, 11, AxisStyle.STANDARD, 60))
    figures["path-curves"] = _decorated(_as_paths(svg, _shallow_left_axis),
                                        _CURVED_DECORATIONS)
    rng = random.Random("golden:rect")
    svg, _ = generate_scatter_svg(_spec(rng, 12, AxisStyle.STANDARD, 60))
    figures["rect-frame-image"] = _rect_frame(svg)
    rng = random.Random("golden:failures")
    svg, _ = generate_scatter_svg(_spec(rng, 13, AxisStyle.STANDARD, 40))
    figures.update(_failures(svg))
    return figures


def _digests(tmp_path) -> dict[str, dict[str, str]]:
    root, out = tmp_path / "proj", tmp_path / "out"
    figures = golden_figures()
    for name, svg in figures.items():
        fig_dir = root / name / "figures" / "figure1"
        fig_dir.mkdir(parents=True)
        (fig_dir / "figure.svg").write_bytes(svg)
    run_project(scan_project(root), DEFAULT_FIGURE_FILTER, DEFAULT_CONFIG, out)
    return {name: {f: hashlib.sha256(
                (out / name / "figures" / "figure1" / f).read_bytes()).hexdigest()
                   for f in OUTPUTS}
            for name in figures}


GOLDEN: dict[str, dict[str, str]] = {
    "standard-0": {
        "figure.csv": "b42874b5620eb5255efb7ba4af4f3fc543cdce56a139ff67135699d3e4fd8051",
        "report.json": "5205b6eaa068923e910a3140127fe72b4ec49e191e4b3feabdeec228fe96b851",
        "figure_annotated.svg": "f1075005b6954654e71c010df5fb26382938ff9deb0a706c2f342889c560f0d5",
    },
    "standard-1": {
        "figure.csv": "7673194bc2fa6202e788ce99cf9358a6ef3f35f819d7e82704273baf8b18ea44",
        "report.json": "0dd93760f27e6f553e0ff71539faa35a085717ce15d59bbd325ff99479f2418d",
        "figure_annotated.svg": "251b42e1dd2c67e8a5b622f0dabff8a21cc4a36e74eae912890d51a419eb5079",
    },
    "standard-2": {
        "figure.csv": "a648465fca74f298b66d99260ecc4ea7fd6936f2da37db30f075568c50452393",
        "report.json": "69e5dbda63f52d188621d0287daadf6ce5d614453f4d9545062dffebb538ce01",
        "figure_annotated.svg": "f8e47ba4a399f03c39587bc365d5e124ebcc3ff4c0dd81e0e1fb35467e43f1fb",
    },
    "reversed_x-0": {
        "figure.csv": "9a7909b1616ee3a11f58edd87e3093cb99e03bf578da62ef69c09c68ef318294",
        "report.json": "0891d7024b04d8e9b3b6a89e0bc90ebfcc65a7041fb91239b111af656da36afd",
        "figure_annotated.svg": "59a70bd4c06e1093d224daf2078ff0a00ade2a55e9caa5e5ee0b9d97bc7273df",
    },
    "reversed_x-1": {
        "figure.csv": "035fd9bd38ebbfd16c8c8c278157666a58c3f9a874cea31ff4a7cae84dc321c5",
        "report.json": "f9a89f8048b4b5cf0c2f199089ff4d22116b458feba9a375fc89d94c57cb2d52",
        "figure_annotated.svg": "0c8b651dbbab6f41cd3c1c0d91607967621b15c89e2ba0d8c35fb371ed6ad02c",
    },
    "reversed_x-2": {
        "figure.csv": "efa630107ed1c6140988ab2dec606ab600816f7a29eee7295960d7ddba58d582",
        "report.json": "ec459110521384323934a580a3baee19e580a3dc0f7c4f492bd2b0d1b64f046d",
        "figure_annotated.svg": "7ee4d7cb3671fa333dce9f4b0c38e232bd1fecfb3eb1a15d3327a457e1f42c75",
    },
    "reversed_y-0": {
        "figure.csv": "f7d92f0f5e51d5c0f88ec839b1cc15204d89d279eada1dfb5603df7e556fa2d9",
        "report.json": "0e0efe96bd6ac33d6a088c83e58fc6f543a88f504ab511c5db60b153fdabdf90",
        "figure_annotated.svg": "02c8f2f0f2644bd6746549af8c4672cd85931b4addc262fb99662036392c2dc3",
    },
    "reversed_y-1": {
        "figure.csv": "52aff172ffe2b16524594c90e73f837878ac971783742a8ce9b1ff21be41b614",
        "report.json": "73c9ad9d6ead65781c79036bb9afec693ae4bc5ea9c1f77a5171aa4f4c1d38ce",
        "figure_annotated.svg": "de28811c6f333268fdb0fcdea6075abb021dbedc42634d43b5c7c5484f913f77",
    },
    "reversed_y-2": {
        "figure.csv": "51f29529f579958dbf1777f18dc22d10d4a1b3f91896deeb68b0474efc0192c5",
        "report.json": "38d1e42d40c8742307d1b7c804cbe48e67fe67dca3cdc02d4e16228c0e745913",
        "figure_annotated.svg": "a6afb8bc06b0da362db36149a28ed64307cc793eb7d9688f92cfb0617025dce1",
    },
    "log_x-0": {
        "figure.csv": "4f81826721f4b20074c8664b4fca1f6e16dbf83ff568e6dd856df647a4089127",
        "report.json": "497bc35240dea6b67d59dfbe1d10cfcf25e10a9fe0e9caecf9c3230a64c5ad79",
        "figure_annotated.svg": "b4f00ea3a7569a513f6769fb3b29db6c506c3909b26a79d18bf8831e31851f9e",
    },
    "log_x-1": {
        "figure.csv": "4f81826721f4b20074c8664b4fca1f6e16dbf83ff568e6dd856df647a4089127",
        "report.json": "c0ffa8eb22871fa1835c861e447a6283f7bc25db033187233ca1955e1d3296c4",
        "figure_annotated.svg": "5f5e3ca9ae3e4eda91e96faced5649ec1d61f8d2df618f0ad12be494668895d7",
    },
    "log_x-2": {
        "figure.csv": "4f81826721f4b20074c8664b4fca1f6e16dbf83ff568e6dd856df647a4089127",
        "report.json": "07c2b1c530125eeaf46a0c54710ea19af3283ce8182824e668be9b7d771584b8",
        "figure_annotated.svg": "d4391809335eb14991224a2c0e83f149686fcaca3a2f7152715edf8705dba4e2",
    },
    "raster_body-0": {
        "figure.csv": "4f81826721f4b20074c8664b4fca1f6e16dbf83ff568e6dd856df647a4089127",
        "report.json": "27048ded8cfb55b35f544a2f0fde54ffb22e9deccf701ea30244d1f940bb1295",
        "figure_annotated.svg": "d1def8b27796e95fde13f635afc1b8bd715041a21f7dfd140f076e42034ac02e",
    },
    "raster_body-1": {
        "figure.csv": "4f81826721f4b20074c8664b4fca1f6e16dbf83ff568e6dd856df647a4089127",
        "report.json": "7b1fb2b1859a045d2b9787cb5da534579226cdaa455912e042e0f2bfb02f59dc",
        "figure_annotated.svg": "a1598cb8b64cbfb8ba2f5fb552577a95180f9a3c32b35e1878a6347d654e1953",
    },
    "raster_body-2": {
        "figure.csv": "4f81826721f4b20074c8664b4fca1f6e16dbf83ff568e6dd856df647a4089127",
        "report.json": "d71f124e1ee76878f27e94b4c7fe736986e4124ab0d3b671b088940e8570a7ee",
        "figure_annotated.svg": "463c1b24f004dc36e848b943ae41f786bf4bbb00d2f076812d6b8557add49042",
    },
    "dense-2k": {
        "figure.csv": "f68962623214850dc388a99839e28dd4f437514d43f7c5965d1531411cd91d37",
        "report.json": "d7f8b41468d705867a2d075912cb09ec5bc72fd3ab8836e3c26d44cfca0c960c",
        "figure_annotated.svg": "f54edd211d76dc776cd7f38e37d283864df71d9e35fac3868f36c65118ac865b",
    },
    "wrapped-rotate-scale": {
        "figure.csv": "d1c7ac3ea02fc383d94a2be9c708c65f85302b5a942acac7ee990c5b7a8ae61a",
        "report.json": "e98206b7594fc190a3c245ab133ae680813f692742219d884394289b806c8cf5",
        "figure_annotated.svg": "cd39b96c918c017b330ad497d946098e940a9c5e20c04f836eb46c0d8062bf0f",
    },
    "per-circle-transforms": {
        "figure.csv": "51d0aae8e92343764abfaf93f8cb07e4ad1bc04dbed85c38aea6a0bffe3ffd2b",
        "report.json": "0fcf32ec1dc87bd284b0520e076d8949627a44d869673797bde6b41ad55fa7b9",
        "figure_annotated.svg": "c25864a15d341bf320c1d3f9a25561a7a4f0e5cc26a5b4966e3f0f49db3197e0",
    },
    "path-commands": {
        "figure.csv": "e65539d90ad06c845b653e5fe6c8af4a8d0e1d80bc6e06dd77108303a7927c1a",
        "report.json": "6102f3d6981e0cd652aea069517a08cc5646bfa16a912da9bcda7ff51b63c9b8",
        "figure_annotated.svg": "bd2dd3f84f62c76871d39557e9b6bfa15c8fc34f0548c90f1017db61f909f6b1",
    },
    "path-curves": {
        "figure.csv": "1f0d2c61ca6bc99f12bd66c9c3f019a858821e68ac02b5274eb67e73bb813a0c",
        "report.json": "ea77364f3cca4b759f1d113a4a9400c709a36830eba8ffbd4744e9c4ce12f101",
        "figure_annotated.svg": "a5265c2a5fd64867273dfc5706f70ad7274d23e8fa5daf6ce468fe685f65fe26",
    },
    "rect-frame-image": {
        "figure.csv": "4456aec1bf90a9973165abe88eacd9443bbacf6b6d1d003026ac9e272df3c02c",
        "report.json": "d3594750de4806703dc2957068e48678b9970859a7630e888618b5888e8ffa58",
        "figure_annotated.svg": "b3383ed015574aa5afc7113e0a0d9d2218f11947b92788048b29939975191571",
    },
    "fail-not-svg": {
        "figure.csv": "4f81826721f4b20074c8664b4fca1f6e16dbf83ff568e6dd856df647a4089127",
        "report.json": "40f59546e9041500765f3f3810878b8a926b9e9e84c43c44211bd76edeb85278",
        "figure_annotated.svg": "6f84c60dd6551670cb7071c790479c17b2eb0fb82141023b964e77c278894e47",
    },
    "fail-malformed-xml": {
        "figure.csv": "4f81826721f4b20074c8664b4fca1f6e16dbf83ff568e6dd856df647a4089127",
        "report.json": "4e24e2360cbac2033b0ac6d33f37d33b96a251f32e4d88468314eb473238a238",
        "figure_annotated.svg": "cacc968dcdfb8c8d95a1299c3aad796dde3bf01bee28acf2385a4a57e9d4a077",
    },
    "fail-zero-determinant": {
        "figure.csv": "4f81826721f4b20074c8664b4fca1f6e16dbf83ff568e6dd856df647a4089127",
        "report.json": "40630bca7b06c71f47acc013a24283ae01ee2641dc21dcc82aa8d749f2765612",
        "figure_annotated.svg": "c337fc0a719cb46fa7a410b94dead0ffe6634504235baa922dec7b76a03b9d79",
    },
    "fail-path-syntax": {
        "figure.csv": "4f81826721f4b20074c8664b4fca1f6e16dbf83ff568e6dd856df647a4089127",
        "report.json": "c6b598f3e961a1155477da442d96c6792f0663a080fca50b0906c6f60927cd43",
        "figure_annotated.svg": "e8eb8e2d92dbf5fc3d76053fe2fae2f355c5400a2a0d05fe3edaca06b94970e3",
    },
    "fail-no-axes": {
        "figure.csv": "4f81826721f4b20074c8664b4fca1f6e16dbf83ff568e6dd856df647a4089127",
        "report.json": "e918cfb13c6632d4641be835c59097f98cd06dac48707bc4cba9810b0d997873",
        "figure_annotated.svg": "acafb7ca922919047a204f4ec84df2588143a3d79d00a9968f2cbe3b124dd368",
    },
    "fail-too-few-ticks": {
        "figure.csv": "4f81826721f4b20074c8664b4fca1f6e16dbf83ff568e6dd856df647a4089127",
        "report.json": "fc8c15f83e4c329466a6a7df61d8d5c8c68f07f5a16febf4599322f81223495b",
        "figure_annotated.svg": "8f52edd8724017ded4337a1753a8ce99e9c19b5dfef1d98d9236841a1682166a",
    },
    "fail-no-glyphs-in-box": {
        "figure.csv": "4f81826721f4b20074c8664b4fca1f6e16dbf83ff568e6dd856df647a4089127",
        "report.json": "fb4447fc02dbf5833311ffd27d87b5f16ed48526e33e672b1d6edfb29b1b21b2",
        "figure_annotated.svg": "1252bb3d0c551e46372c2d0dea826d90c6782f8da19d472548bdca4f3851fd09",
    },
}


def test_outputs_match_golden_digests(tmp_path):
    got = _digests(tmp_path)
    changed = sorted(f"{name}/{f}" for name, files in GOLDEN.items()
                     for f, digest in files.items() if got[name][f] != digest)
    assert not changed, f"outputs changed: {changed}"
    assert got.keys() == GOLDEN.keys()
