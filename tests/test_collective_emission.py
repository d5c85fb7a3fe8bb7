"""Collective emission pinned byte for byte.

Every decomposition the schedule generators substitute for a collective is
emitted over a grid of communicator sizes, message sizes, entry
dependencies, reduction pricing, roots and locality groupings, each case
twice in a row on one context (so tags, streams and exit maps chain), and
hashed: ``encode_goal`` bytes of the schedule plus the two exit
``DepMap`` s in their insertion order.  The digests are literals recorded
before the emitters were rewritten on the shared ``CollectiveContext``
primitives (``entry`` / ``exchange`` / ``transfer`` / ``exits``); any change
to an op, its position on its rank, a size, a tag, a stream, a dependency or
an exit handle changes one of them.

The communicator lists its global ranks in reverse order, so a confusion of
communicator and global rank ids cannot hide.  The generator cases run six
HPC skeletons through ``mpi_trace_to_goal`` (defaults, and the autotuner
over a four-node grouping with priced reductions) and HPCG at half compute
scale; one Llama trace through ``nccl_trace_to_goal`` with each kind of
``collective_algorithm``, the Mistral expert-parallel report (AllToAll) and
the Llama data-parallel report at four GPUs per node.  Those generator
digests were recorded before both front ends were rewritten on the one trace
walk (``repro.schedgen.walk``), which the last tests here hold to one
mismatch error and to giving the same bytes on every ``generate()``.
"""
from __future__ import annotations

import hashlib
import pathlib

import pytest

import repro
from repro.apps.ai import LlmTrainer, ParallelismConfig, llama_7b, mistral_8x7b
from repro.apps.hpc import HPC_APPLICATIONS, HpcRunConfig
from repro.collectives import (
    COLLECTIVE_ALGORITHMS,
    CollectiveContext,
    contiguous_groups,
    mpi,
    nccl,
)
from repro.goal import GoalBuilder, encode_goal
from repro.schedgen import (
    MpiScheduleGenerator,
    NcclScheduleGenerator,
    mpi_trace_to_goal,
    nccl_trace_to_goal,
)
from repro.schedgen.walk import TraceMismatchError
from repro.tracers.mpi import MpiTracer
from repro.tracers.nccl import NcclTracer

RANK_COUNTS = (1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 17)
DEPS_MODES = ("none", "all", "even")


def _entry_deps(builder, ranks, mode):
    """Entry handles: none, one calc per rank, or one on every other rank."""
    if mode == "none":
        return None
    return {
        g: builder.rank(g).calc(10 + i)
        for i, g in enumerate(ranks)
        if mode == "all" or i % 2 == 0
    }


def _emit_twice(h, n, emit, mode, reduce=0.0, groups=None, cpu=0):
    ranks = list(reversed(range(n)))
    builder = GoalBuilder(n)
    ctx = CollectiveContext(
        builder, ranks, reduce_ns_per_byte=reduce, cpu=cpu, groups=groups
    )
    first = emit(ctx, _entry_deps(builder, ranks, mode))
    second = emit(ctx, first)
    h.update(encode_goal(builder.build()))
    h.update(repr((list(first.items()), list(second.items()))).encode())


def _groupings(n, hierarchical):
    if not hierarchical:
        return [None]
    return [contiguous_groups(n, 2), contiguous_groups(n, 3)]


def _registered(kind, name):
    alg = COLLECTIVE_ALGORITHMS[kind][name]
    h = hashlib.sha256()
    for n in RANK_COUNTS:
        roots = sorted({0, n - 1}) if kind == "bcast" else [None]
        for groups in _groupings(n, alg.hierarchical):
            for size in (0, 100_003):
                for reduce in (0.0, 0.25):
                    for mode in DEPS_MODES:
                        for root in roots:
                            kw = {} if root is None else {"root": root}
                            _emit_twice(
                                h, n,
                                lambda ctx, deps: alg.emit(ctx, size, deps, **kw),
                                mode, reduce, groups, cpu=n % 3,
                            )
    return h.hexdigest()


def _single(fn):
    """The rooted decompositions the MPI generator calls outside the registry."""
    h = hashlib.sha256()
    for n in RANK_COUNTS:
        for size in (0, 100_003):
            for reduce in (0.0, 0.25):
                for mode in DEPS_MODES:
                    for root in sorted({0, n - 1}):
                        _emit_twice(
                            h, n,
                            lambda ctx, deps: fn(ctx, size, root=root, deps=deps),
                            mode, reduce, cpu=n % 3,
                        )
    return h.hexdigest()


NCCL_ENTRY_POINTS = ("allreduce", "reduce_scatter", "allgather", "broadcast", "alltoall")


def _nccl(entry, algorithm, protocol):
    fn = getattr(nccl, entry)
    h = hashlib.sha256()
    for n in (1, 2, 3, 5, 8):
        for size in (0, 3, (3 << 20) + 7):
            for channels, chunk in ((1, None), (3, 1 << 18)):
                cfg = nccl.NcclConfig(
                    algorithm=algorithm, protocol=protocol, nchannels=channels,
                    chunk_bytes=chunk,
                )
                for reduce in (0.0, 0.25):
                    for mode in ("none", "even"):
                        roots = sorted({0, n - 1}) if entry == "broadcast" else [None]
                        for root in roots:
                            kw = {} if root is None else {"root": root}
                            _emit_twice(
                                h, n,
                                lambda ctx, deps: fn(ctx, size, cfg, deps=deps, **kw),
                                mode, reduce, cpu=n % 2,
                            )
    return h.hexdigest()


def _digest(goal):
    return hashlib.sha256(encode_goal(goal)).hexdigest()


def _hpc_trace(app):
    return HPC_APPLICATIONS[app].trace(HpcRunConfig(num_ranks=16, iterations=3, seed=0))


def _hpc(app, tuned):
    trace = _hpc_trace(app)
    if not tuned:
        return _digest(mpi_trace_to_goal(trace))
    auto = {
        call: "auto"
        for call in ("MPI_Allreduce", "MPI_Bcast", "MPI_Barrier", "MPI_Allgather",
                     "MPI_Alltoall", "MPI_Reduce_scatter")
    }
    goal = mpi_trace_to_goal(
        trace, algorithms=auto, reduce_ns_per_byte=0.125,
        groups=contiguous_groups(16, 4),
    )
    return _digest(goal)


def _report(model, par, gpus_per_node):
    return LlmTrainer(model, par, gpus_per_node=gpus_per_node, iterations=1, seed=0).trace()


def _llama_report():
    par = ParallelismConfig(tp=2, pp=2, dp=2, microbatches=2, global_batch=8)
    return _report(llama_7b().scaled(0.05), par, 4)


def _llama(collective_algorithm):
    return _digest(nccl_trace_to_goal(_llama_report(), collective_algorithm=collective_algorithm))


def _mistral_ep2():
    par = ParallelismConfig(tp=1, pp=2, dp=4, ep=2, microbatches=2, global_batch=16)
    return _digest(nccl_trace_to_goal(_report(mistral_8x7b().scaled(0.05), par, 2)))


def _llama_dp16():
    # the shape of the benchmark's ai_train_htsim workload, at its smoke scale
    par = ParallelismConfig(tp=1, pp=1, dp=16, microbatches=2, global_batch=32)
    return _digest(nccl_trace_to_goal(_report(llama_7b().scaled(0.02), par, 4), gpus_per_node=4))


def _cases():
    cases = {}
    for kind, algs in COLLECTIVE_ALGORITHMS.items():
        for name in algs:
            cases[f"{kind}/{name}"] = lambda k=kind, a=name: _registered(k, a)
    for fn in (mpi.binomial_reduce, mpi.linear_gather, mpi.linear_scatter):
        cases[f"mpi/{fn.__name__}"] = lambda f=fn: _single(f)
    for entry in NCCL_ENTRY_POINTS:
        for algorithm in ("ring", "tree"):
            for protocol in ("Simple", "LL", "LL128"):
                cases[f"nccl/{entry}/{algorithm}/{protocol}"] = (
                    lambda e=entry, a=algorithm, p=protocol: _nccl(e, a, p)
                )
    for app in sorted(HPC_APPLICATIONS):
        cases[f"mpi_trace/{app}"] = lambda a=app: _hpc(a, tuned=False)
        cases[f"mpi_trace/{app}/auto"] = lambda a=app: _hpc(a, tuned=True)
    cases["mpi_trace/hpcg/compute_scale"] = lambda: _digest(
        mpi_trace_to_goal(_hpc_trace("hpcg"), compute_scale=0.5)
    )
    for override in (None, "auto", "hier_rs"):
        cases[f"nccl_trace/llama/{override}"] = lambda o=override: _llama(o)
    cases["nccl_trace/mistral_ep2"] = _mistral_ep2
    cases["nccl_trace/llama_dp16/gpn4"] = _llama_dp16
    return cases


CASES = _cases()

DIGESTS = {
    "allgather/bruck":
        "fb08960587162bc99417d6a61c39a7e410894f734fe5b348db77891417c7be81",
    "allgather/ring":
        "92454d242e7854aeb48c4c01951ba81d8fcb770b3712416672f153a389fd780b",
    "allreduce/bucket":
        "273ae5986a967147adfc9a777f1354953c49a4fc381eda66b264b7f8150abf1f",
    "allreduce/hier_leader":
        "07d400a081d930bf2a900b42a89bb43b072dfb883852389f5ab0878fdbe7aacc",
    "allreduce/hier_rs":
        "261006a01fa245780f0e1a49d89cef216c4c68213b72a87c21a15116a91f7e75",
    "allreduce/recursive_doubling":
        "c55753d6e76ce296fc71baf18e4f52b027d854b5591b9b971401c8c181fdb742",
    "allreduce/recursive_halving_doubling":
        "8e0063070dd475a20730d1a0845e7111b3bb443147251b2f71283d833f4e7475",
    "allreduce/reduce_bcast":
        "823493f6a6fbce6c0be8acb3550258b6840b8f4edfe4b04dae1101ec42172c0e",
    "allreduce/ring":
        "f3b94899695cce813051f63ce94621bd4dfa2118dd8c2598510d1993118ff96c",
    "alltoall/pairwise":
        "199feb39b0de8671ddf92fa7ec186f35d602037c1229df2c20dedfed2b4a131f",
    "barrier/dissemination":
        "8b833b0812bf72d426830ad397ca85e30cb992a80e2bc9c6302844d0977ce76d",
    "bcast/binomial":
        "5d1abcb0747ecb8ff97a782a515344a7b165c9ea237bc44421ea56d07e6c757a",
    "bcast/scatter_allgather":
        "ec465573ce5164e46b6871a6d4618e6c8a339e8f393a4771729959998de4169d",
    "mpi/binomial_reduce":
        "30226c307efdebb68f1d4c3082053a18e5617b91f15a57305d16751675366200",
    "mpi/linear_gather":
        "bec1c1818030f58aa834552c91faa5341d0db17cc5c81d75c0eb483903d495c6",
    "mpi/linear_scatter":
        "2d74b5e19d177f0de148ec77c2457c853c380d562dcf7499a6153bc849e89263",
    "mpi_trace/cloverleaf":
        "3c8c6d3d7add4d9bf5f0a9f144542bf56ba46095098554755d2899d52f7db21e",
    "mpi_trace/cloverleaf/auto":
        "935e0d8f7ea98593dcb4a1dd900e48f1fb4d29115ce9defbcf3524401002f5cc",
    "mpi_trace/hpcg":
        "d0b3deb8de4d6ed61c63dc950776124a0905b60deff34f43c9b90c71f81e092e",
    "mpi_trace/hpcg/compute_scale":
        "a6785e244615249dbb64272408c2d6f99a31d26c6fd4105359f65ead1bfd5539",
    "mpi_trace/hpcg/auto":
        "cfc006ca1215d90a1c0df5613aca360981e5e84ced85e80043ee469b6c706841",
    "mpi_trace/icon":
        "3b8f7816a5050f038304c3d0a619e5d7b53c34ddfda5873bd5eb57a9fbd22ce2",
    "mpi_trace/icon/auto":
        "aaaa0d7a74301085f619bdc0305a118d1a954982cfb2dcf69744aec5958d23f0",
    "mpi_trace/lammps":
        "d760470953d4d1b81789cecbb55c5b8af545d61e1630f9c2cbc3c1979991ddda",
    "mpi_trace/lammps/auto":
        "b8412d48779011685f806d89efa5f80ad9f5497278817085b06edb6be75e9fd9",
    "mpi_trace/lulesh":
        "3ab38897da5ac96cb56fa164e82cccd7a3d81450e5da22cc3bedda699d3a940d",
    "mpi_trace/lulesh/auto":
        "707d2bf81ba2d1745b1e3ca69d85b9609a517ba68e1ff06376bb63fee5643c4a",
    "mpi_trace/openmx":
        "cca304cbbc1eb2e1cc8b663151126ecd8f1ef883167faae9353af80c39b45a27",
    "mpi_trace/openmx/auto":
        "fffb3fe3ed4e96128f6aaad359f3718c83e015245f80905776b6329ac540d4a3",
    "nccl/allgather/ring/LL":
        "e18818c889786e98cedfb43d8e3c486449f4cf7cc02c46e4c8c054725aa00b75",
    "nccl/allgather/ring/LL128":
        "b2809fff8af83be255c940f3d6abc4ac789ff55e704511b97738d38714b8104f",
    "nccl/allgather/ring/Simple":
        "8d6c0be995249b3c76137287568abd5ac22b8885ad52e890068d90c94313def5",
    "nccl/allgather/tree/LL":
        "e18818c889786e98cedfb43d8e3c486449f4cf7cc02c46e4c8c054725aa00b75",
    "nccl/allgather/tree/LL128":
        "b2809fff8af83be255c940f3d6abc4ac789ff55e704511b97738d38714b8104f",
    "nccl/allgather/tree/Simple":
        "8d6c0be995249b3c76137287568abd5ac22b8885ad52e890068d90c94313def5",
    "nccl/allreduce/ring/LL":
        "bca1327fcd1276a37ba228491faa2cc4fb1803d15d5fee1e41d015508d57d01e",
    "nccl/allreduce/ring/LL128":
        "54be2adef832792cd844d729ee879bc6642874aefeb7135a4605186ebc74816f",
    "nccl/allreduce/ring/Simple":
        "67d4dba69c32e56d36f2d98d7fe60e02f052398752cabe2a30412eff712da595",
    "nccl/allreduce/tree/LL":
        "4f5fab3d012087ee1bcf08fca7dfaf18a156bf0bd0b36cba75e29d9bbedb83df",
    "nccl/allreduce/tree/LL128":
        "6acc441b69abbc17560f49da7115ff6ed2109b2253ccd6a06b49b389f22a5067",
    "nccl/allreduce/tree/Simple":
        "244a20b0c8274eda828e0bab7f702d369a7f3038a2772bd4e2560e9f94aef303",
    "nccl/alltoall/ring/LL":
        "52e69fbbacaf0a5bd275f309e46cdaa7417eac7cb7605adf607d37542d0b3055",
    "nccl/alltoall/ring/LL128":
        "8a69d5905f38e30bf364673173eac559ce5754df0d2e46aa7220aa3c2a60c32b",
    "nccl/alltoall/ring/Simple":
        "38af2e9b423585027b87fdc4f50f2148d08f8b3a2efc3432b6c4598c6c4337f2",
    "nccl/alltoall/tree/LL":
        "52e69fbbacaf0a5bd275f309e46cdaa7417eac7cb7605adf607d37542d0b3055",
    "nccl/alltoall/tree/LL128":
        "8a69d5905f38e30bf364673173eac559ce5754df0d2e46aa7220aa3c2a60c32b",
    "nccl/alltoall/tree/Simple":
        "38af2e9b423585027b87fdc4f50f2148d08f8b3a2efc3432b6c4598c6c4337f2",
    "nccl/broadcast/ring/LL":
        "30a46b1f4e6a91561bd52a55e977d9dda69639ec8c6265ea42373358f92f6bd0",
    "nccl/broadcast/ring/LL128":
        "35a7c9b068ff709f450f288ed5372413d2aadc6bf236225e0c781a3a96302629",
    "nccl/broadcast/ring/Simple":
        "ca17c8a6d0f3d6a2c84744e3b7d3360e7341a54d002e3075853cf91fe2807b1e",
    "nccl/broadcast/tree/LL":
        "30a46b1f4e6a91561bd52a55e977d9dda69639ec8c6265ea42373358f92f6bd0",
    "nccl/broadcast/tree/LL128":
        "35a7c9b068ff709f450f288ed5372413d2aadc6bf236225e0c781a3a96302629",
    "nccl/broadcast/tree/Simple":
        "ca17c8a6d0f3d6a2c84744e3b7d3360e7341a54d002e3075853cf91fe2807b1e",
    "nccl/reduce_scatter/ring/LL":
        "6b6b41d686b41a3e07face836e464f91cd35d3aeb7d7f8a554b2591797320f13",
    "nccl/reduce_scatter/ring/LL128":
        "4852db741742e5e89b9653f4bbff5986021e008e8b4e69c793bedfa2fb56af26",
    "nccl/reduce_scatter/ring/Simple":
        "aad645961ad4c7491ea51454077d31c70a057c40d39c06fa4edf9b1c7086299f",
    "nccl/reduce_scatter/tree/LL":
        "6b6b41d686b41a3e07face836e464f91cd35d3aeb7d7f8a554b2591797320f13",
    "nccl/reduce_scatter/tree/LL128":
        "4852db741742e5e89b9653f4bbff5986021e008e8b4e69c793bedfa2fb56af26",
    "nccl/reduce_scatter/tree/Simple":
        "aad645961ad4c7491ea51454077d31c70a057c40d39c06fa4edf9b1c7086299f",
    "nccl_trace/llama/None":
        "502bc152d49e269bb9757259f9fef04b0a54550bab02a0a702eb49ff894bc747",
    "nccl_trace/llama/auto":
        "b1a718deada8f1630843e2f2433fc1920a567aa06a4f1fd248101854876cd013",
    "nccl_trace/llama/hier_rs":
        "b37e4d60498257cafd9c917a0ca6b5a9cf2386025c0df467da5a85622100f0e7",
    "nccl_trace/llama_dp16/gpn4":
        "c129191f9a095c092540b7022bf0036b9e777167b234ff53473e78942f448156",
    "nccl_trace/mistral_ep2":
        "d2b399503363082056740be410ee9c49deca566ea272dc6c9aea3779665d1f39",
    "reduce_scatter/ring":
        "dc43317f02cceba323f62a9c18b87cbc812db4618c3b13f365a6fc677a074e87",
}


def test_every_case_is_pinned():
    assert sorted(CASES) == sorted(DIGESTS)


@pytest.mark.parametrize("case", sorted(CASES))
def test_emission_is_byte_identical(case):
    assert CASES[case]() == DIGESTS[case]


def _crossed_mpi():
    t = MpiTracer(2)
    t.record(0, "MPI_Allreduce", size=64)
    t.record(0, "MPI_Bcast", size=64)
    t.record(1, "MPI_Bcast", size=64)
    t.record(1, "MPI_Allreduce", size=64)
    return MpiScheduleGenerator(t.finish())


def _crossed_nccl():
    t = NcclTracer(2)
    t.nccl(0, 0, "AllReduce", 4096)
    t.nccl(0, 0, "AllGather", 4096)
    t.nccl(1, 0, "AllGather", 4096)
    t.nccl(1, 0, "AllReduce", 4096)
    return NcclScheduleGenerator(t.finish(), gpus_per_node=1)


@pytest.mark.parametrize("crossed", [_crossed_mpi, _crossed_nccl], ids=["mpi", "nccl"])
def test_crossed_collectives_raise_the_one_mismatch_error(crossed):
    # each rank waits in the other's first collective: a real run deadlocks
    with pytest.raises(
        TraceMismatchError,
        match=r"do not line up across ranks: (\w+ \(comm 0, seq 0\) reached by ranks \[[01]\] of \[0, 1\](; )?){2}$",
    ):
        crossed().generate()


@pytest.mark.parametrize(
    "generator",
    [
        lambda: MpiScheduleGenerator(_hpc_trace("hpcg")),
        lambda: NcclScheduleGenerator(_llama_report()),
    ],
    ids=["mpi", "nccl"],
)
def test_a_generator_gives_the_same_bytes_every_run(generator):
    gen = generator()
    assert encode_goal(gen.generate()) == encode_goal(gen.generate())


def test_one_trace_walk():
    retired = ("_RankCursor", "_StreamCursor", "_emit_ready_collectives", "NcclTraceMismatchError")
    found = [
        (path.name, name)
        for path in sorted(pathlib.Path(repro.__file__).parent.rglob("*.py"))
        for name in retired
        if name in path.read_text()
    ]
    assert found == []
