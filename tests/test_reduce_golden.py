"""Byte identity of `hkquot kn --hyperkahler` and `hkquot metric` on the
benchmark's first 60 seed-0 reduce jobs.

Each job is replayed as `bench/workloads.py`'s runner makes it: `cmd_kn` on
the job's weights and point, then, for a hyperkahler pair whose solve
converged, `cmd_metric` at the representative.  The digests pin the
rendered JSON of both, and the csv and table text of five metric payloads;
the bench's own check reads only tolerances.  This test only reads `bench/`.
"""

import hashlib
import itertools
import json

from hkquot.cli import CliError, RunConfig, cmd_kn, cmd_metric, render
from hkquot.errors import BoundExceededError, PreconditionError, UndecidedError

from test_analyze_golden import load_workloads

NUMERIC = RunConfig(mode="numeric")

#: per job, the first 16 hex digits of the sha256 of the rendered kn JSON
#: (or the name of the error it raised) and of the metric JSON, if any
REDUCE_DIGESTS = [
    ("edcd08b7620c961c", "fc689d904eada971"),
    ("7df8a19ded7504e7", "aef1e2cf180ec2b3"),
    ("2ba161739aaa50b0", "25b4bb731660d167"),
    ("69a3bd86650c5412", "996f6e3f67709458"),
    ("b8f9406bd890791a", "0d3bb57390ed2053"),
    ("a631f2054afc2da9", "630fa2450f4f7ed2"),
    ("9925dc82c95c6521", "0d5139cb9ec57cf0"),
    ("e614bbf79ca12927", "2edd593124423019"),
    ("ca402bed3a589ef7", "4f89849fc9dcb848"),
    ("d46a817dd8239f9a", "eed170cd5d68205e"),
    ("2796a22964533efa", "6a9e6a86a9d9a6a8"),
    ("b9608f26e3ab77d6", "90445c39fe6233a1"),
    ("9374dbb84a935398", "87af113c1239d501"),
    ("b744bd49313d7735", "cd00010061851ed2"),
    ("abf75fa3c124a82f", "42bbe4be78f27286"),
    ("UndecidedError", None),
    ("e40ca269a673bd21", "d777ed111e5fb4d1"),
    ("1112306702bb42f3", "15f511b77c58b813"),
    ("5c483fdf6f25c1f8", "c0f56758ad2572b9"),
    ("90098ceae52c807b", "a8ecbaf9b8423a3c"),
    ("6c26bbc90cd6d89c", None),
    ("34d2470402311d96", "2aa82d69f9013f68"),
    ("f6e6deabee883846", "4442ea42e2e51773"),
    ("7a3ffb3d64cb25bc", "d47fcf628ffd36ac"),
    ("74ae762b5855552f", "70e7f0a49412b739"),
    ("18ce58c9a2d90e70", None),
    ("e270f57033737253", "57c84e95210d1f6b"),
    ("aeb671184dc8bb85", "e6bd447ce9528965"),
    ("999a830b923d1fcf", "b5952c8ba4e737c4"),
    ("ea25ceb31c3569bd", "9b071011ca1a4553"),
    ("6c26bbc90cd6d89c", None),
    ("8e1d279debea1aa8", "cee78554e419e273"),
    ("0a8e68424e68b351", "4a63e876eff63098"),
    ("56131df2ee03b27f", "82e544a0f1e18c99"),
    ("2f2b548297f5bce3", "b05d66d721b92da8"),
    ("dba70b67bb8b1d7c", "3f6aa94393b2e1a7"),
    ("43bcbfd7bb5c7059", "78baf9d6118068b0"),
    ("56635d56aa561835", "09048abdeab36b96"),
    ("5e04be728a838b15", "b3a61f8bc266e186"),
    ("d96892087cf4d8b8", "5779cf0a32ccb410"),
    ("b56a0afe1bdb2a69", "0542487a6556789a"),
    ("c3f953ae0da90e72", "af8db74cc911a39e"),
    ("e2aabe2bb1a36806", "4be3617fe9965c57"),
    ("3bc5177a40a1cd0e", "a47e5ab1e74d348c"),
    ("5e602076463eeeb7", "7d730718b067201e"),
    ("b97b7393cbcf2678", "2fec0b08fbda8eee"),
    ("d894177b14e40357", "79990216fd7fe1c7"),
    ("6c26bbc90cd6d89c", None),
    ("c5cfade161284335", "64926a5cbc2db6af"),
    ("8685cb9f2b507be0", "e2cda125fcb1f0cb"),
    ("c8cef584c1bb4208", "4fb307cedf230185"),
    ("4e478ab87802e5a4", "a7ea6c73c8d761a3"),
    ("94d4bae329b55828", "3f257b458e94541f"),
    ("978971d48132c74f", "7d56047f08b5fbf9"),
    ("UndecidedError", None),
    ("10ca367538e86295", "55435b26a3c29ac8"),
    ("d4ea28ea8edd1bfc", "b4dc22da9c9db800"),
    ("c65509ab8fff01c4", "1d2a6d1e83e09c53"),
    ("f4287c7187f7325d", "dccc7b2b550f7727"),
    ("1551513c12d8ca3c", "1ee499002984d81d"),
]

#: sha256 of the csv and table text of the metric payloads of these jobs
METRIC_TEXT_DIGESTS = {
    0: ("05757867e74bd23b8e94f2edb8a7a23b6ff242dcba872e1c767ea87e614ca6d9",
        "99ee16a558e5a00e4c0618ff8f37b01b1fcb72455d4f4af5d0c05f6fab18718d"),
    2: ("e053e9b2a1484c841c54a5063dbb184a9275b0b783d3924793b8d207e2a7c313",
        "d8738565e1a94b77ebd699cb1bf8e295ae0adc80d824a1cd04d49f7b9608e95f"),
    5: ("9667c6572db9f8b116f8733d9ad1fe6e67a1670aa1fbe92d6063feb652e6b351",
        "3521d6990d150d28e70af8bf2b664462e94579b7c02e6db37386f14816f0a647"),
    14: ("11452164662aefc60b5b0cdb7e84c427eddbf205895c6344cdc6f6352a83bfae",
        "7837f94ce1b524149eddbf8d5f2f9cfa454cb2489d779ed6d36aa778f52a0aee"),
    17: ("48d236387ba527b9313be1ebf78d642a49dc2645a5338b4050982b26e5eadd12",
        "60aa74696eaab462ce81b137a32910122c409db8b89480b18f8a8158f6c6e618"),
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _replay(job):
    """The kn outcome's text, or its error's name, and the metric payload."""
    hyper = job.meta["pair"]["kind"] == "hyperkahler"
    try:
        kn = cmd_kn(NUMERIC, job.weights, job.point, hyper)
    except (CliError, PreconditionError, BoundExceededError, UndecidedError, ValueError) as exc:
        return type(exc).__name__, None
    text = render(kn, "json")
    outcome = kn["outcome"]
    if not hyper or outcome["status"] != "converged":
        return text, None
    rep = json.dumps(json.loads(text)["outcome"]["representative"])
    return text, cmd_metric(NUMERIC, job.weights, rep, None)


def test_reduce_seed0_matches_pinned_digests():
    wl = load_workloads()
    jobs = list(itertools.islice(wl.reduce_stream(wl.DEFAULT_SEED), len(REDUCE_DIGESTS)))
    got, texts = [], {}
    for job in jobs:
        kn, metric = _replay(job)
        kn_digest = _sha(kn)[:16] if kn.startswith("{") else kn
        got.append((kn_digest, None if metric is None else _sha(render(metric, "json"))[:16]))
        if job.index in METRIC_TEXT_DIGESTS:
            texts[job.index] = tuple(_sha(render(metric, fmt)) for fmt in ("csv", "table"))
    mismatched = [i for i, (g, w) in enumerate(zip(got, REDUCE_DIGESTS)) if g != w]
    assert mismatched == []
    assert texts == METRIC_TEXT_DIGESTS
