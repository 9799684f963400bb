"""A committed byte corpus of CLI output.

Each command below prints through code that calls neither BLAS nor LAPACK
and draws no random samples: small models stepped in Python floats by the
generated kernels and the schedule's elimination, the explicit schemes on
the generated field, and the interval bound.  So its stdout is the same
bytes on every machine and every supported numpy, and a change that
claims the same output is checked against these sha256 digests, across
commits, rather than against a run of the old code beside the new.
``reversibility``, ``stability``, ``validate`` and ``invariance`` are
left out: their bytes depend on LAPACK or on the random generator.
"""

import hashlib

import pytest

from nsfd.cli import main

CORPUS = {
    "simulate --builtin logistic --x0 0.5 --h 0.5 --steps 200 --scheme nsfd --precision 17":
        "44a0473cd8e427d94fc7bfec93b45a632051e58b8c092e06240de3093eaebd3c",
    "simulate --builtin logistic --x0 0.5 --h 0.5 --steps 200 --scheme euler --precision 17":
        "8d7802d8d8cbd0a35f78766caeb2459763f4134934a53b9cd16b945bebd1d759",
    "simulate --builtin logistic --x0 0.5 --h 0.5 --steps 200 --scheme rk4 --precision 17":
        "c953998fb45b4cc522fb83ec70f2642f7d076d870e15de72e13d4e22238f8062",
    "simulate --builtin si --x0 0.9,0.1 --h 0.5 --steps 200 --scheme nsfd --precision 17":
        "3b92cc88b5e9cfe31e786a7c045882b8137ba558c9265b498f8a42ca49b5799d",
    "simulate --builtin si --x0 0.9,0.1 --h 0.5 --steps 200 --scheme euler --precision 17":
        "72bc1fa5b55ce41ed2c4b0d0814402e465738e00d34cb359434808be5c2b688b",
    "simulate --builtin si --x0 0.9,0.1 --h 0.5 --steps 200 --scheme rk4 --precision 17":
        "8300a9eb9ad196ee45f522e7102a7b7331dc35aad94bfa48cbd7f5f7dd11a3ee",
    "simulate --builtin host-vector --x0 4,2,3,1,1 --h 0.5 --steps 200 --scheme nsfd --precision 17":
        "d67e2d11414ce75b87b4f6e30d281a3f92ad28ce721d7953c5fc0e334fd9f127",
    "simulate --builtin host-vector --x0 4,2,3,1,1 --h 0.5 --steps 200 --scheme euler --precision 17":
        "1c8ce15c2f7a7ec016c78d8c0cfb904e922067a8c446c21f5ad55f50680add62",
    "simulate --builtin host-vector --x0 4,2,3,1,1 --h 0.5 --steps 200 --scheme rk4 --precision 17":
        "58bfdc06bd03cd1816e5f0fb7a336a0553ae63f188e225f0b1ebf19e76243364",
    "order --builtin host-vector --x0 4,2,3,1,1 --t-final 5 --h 0.5 --scheme nsfd":
        "bd4c5e63484d90ca5ea1ec4f0d986f3852d035d5f367c03a01b8a87c5d62d89f",
    "order --builtin host-vector --x0 4,2,3,1,1 --t-final 5 --h 0.5 --scheme rk4":
        "506bcbeb9e70d8df83c4460b93282b731b49c64a981242c83a690a3b93b45371",
    "step-bound --builtin logistic": "41e8282cc84e4e41b214467ad856bff63a1dedfec1692504e1bf15a98cbce98e",
    "step-bound --builtin si": "204ea3f5751e793d5a8af5d667acc622f4aecfec4020e64bfe0354b501e5618f",
    "step-bound --builtin host-vector": "6120a525aa52886ff6f6cd59596b3fb932285e50ffff13585aef63dc12436ffb",
}


@pytest.mark.parametrize("command", list(CORPUS))
def test_a_corpus_command_prints_its_pinned_bytes(capsys, command):
    code = main(command.split())
    captured = capsys.readouterr()
    assert (code, captured.err, hashlib.sha256(captured.out.encode()).hexdigest()) == (0, "", CORPUS[command])
