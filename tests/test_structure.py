"""Structural guards over the source of conekit: each spectral decision has
one home, so a second copy of it fails here rather than in review."""

import ast
import dataclasses
import re
from pathlib import Path

import conekit

SOURCES = sorted(Path(conekit.__file__).parent.glob("*.py"))

# Where a Hermitian part may be written as 0.5 * (X + X^dag): nowhere. The
# see-saw's half-step hands its effective matrix to eigh, which reads one
# triangle; every other Hermitian part is linalg._hermitian_part.
HERMITIAN_PART_SITES = set()

# The functions that may call np.linalg.eigh or eigvalsh: linalg's guarded
# _eigh (behind hermitian_eig and the map-layer factorizations), the see-saw
# kernel's helpers, the Douglas-Rachford projections, and the fuzz check of
# a composite's detector image.
EIGEN_SITES = {
    "linalg._eigh",
    "_seesaw._bottom", "_seesaw._reduced",
    "certify._clip_psd", "certify._ppt_witness",
    "fuzz.fuzz_composition",
}

# The functions that may call np.linalg.svd: the Schmidt decomposition, the
# numerical ranks of a matrix and of a Kraus set, and the factorization of
# the conjugated operator in compose_certified. The see-saw takes every frame,
# its starts' included, by one qr rule and runs none.
SVD_SITES = {
    "linalg.schmidt_decompose", "linalg.numerical_rank",
    "maps.rank", "maps.compose_certified",
}

# The functions that may draw normal deviates: linalg._gaussian_products,
# the one draw behind every random rank <= k object (see-saw starts, Kraus
# operators, pure terms of a Schmidt-bounded state), and
# linalg._complex_gaussian, the one draw of every full-rank complex Gaussian
# matrix (a random HP map's Choi matrix, the bijection and adjoint suites'
# inputs).
NORMAL_SITES = {"linalg._gaussian_products", "linalg._complex_gaussian"}

# The one rank count: linalg._rank, which counts one row of values or each
# row of a stack (a Kraus set's operators) against its own largest value.
COUNT_SITES = {"linalg._rank"}

# The integer rule of every count, level, seed and dimension is
# linalg._is_int, read by linalg's count, level and dims checks and by the
# maps' dimension check; no other function restates it.
IS_INT_SITES = {"linalg._check_count", "linalg._check_level", "linalg._split",
                "maps._check_dim"}

# The functions that raise BadK: linalg._check_level, the one range rule of
# a Schmidt level (every generator, certifier, scan and fuzz suite calls
# it), and the two fuzz refusals of a run with no level to check: a duality
# run at no level, and a level given to a suite that reads none.
BAD_K_SITES = {"linalg._check_level", "fuzz.fuzz_duality", "fuzz.run_suite"}

# Names gone from the source: each rule they restated has its one home above
# (_check_level for BadRank and fuzz._check_levels, SeesawOpts for the
# see-saw's _check_search, MatrixOp.eig for the eigendecompositions handed
# around as an eig parameter, checked by _checked_eig or trusted as _OwnEig,
# the self-proving Witness for the Detector whose level was a label, and a
# detection's evidence vector for its detector_id).
RETIRED_NAMES = {"BadRank", "_check_levels", "_check_search",
                 "_OwnEig", "_checked_eig", "_EIG_TOL", "Detector", "detector_id"}

# The places that tell a MatrixOp from a raw array: linalg._matrix, which
# also applies the entry rule (no NaN or infinite entry) to the raw array,
# and linalg._dims, which refuses a raw array where bipartite dims are needed.
MATRIXOP_TEST_SITES = {"linalg._matrix", "linalg._dims"}

# The functions a functools memo may decorate: the see-saw's start frames
# (one draw per configuration), the CLI's parser and a MatrixOp's spectrum
# (its matrix is read-only). Everything else is computed per call; in
# particular the reduction detectors' images have a closed form and need no
# memoized bank.
MEMO_SITES = {"_seesaw._start_frames", "cli._build_parser", "linalg.eig"}

# The one home of a square side d with d * d = n: linalg._square_side, by
# math.isqrt. No other function takes an integer square root of a size or
# rounds a floating one.
SQUARE_SIDE_SITES = {"linalg._square_side"}

# The functions of serialize that build a MatrixOp: the matrix reader alone.
# Every writer formats its array through _to_json, with no copy or check.
SERIALIZE_MATRIXOP_SITES = {"serialize.matrix_from_json"}

# The functions that may call np.einsum: the index permutations between the
# superoperator and the Choi matrix, the Hilbert-Schmidt pairing, the
# see-saw's effective matrix and the PPT witness's value. A map acts on a
# matrix only through maps._right_action, one gemm, so a second map
# contraction fails here.
EINSUM_SITES = {
    "linalg.reshuffle", "linalg.unreshuffle", "linalg.hs_inner",
    "_seesaw._bottom", "certify._ppt_witness",
}

# Names the CLI never uses: it hands classify the operator as loaded, so no
# Choi -> map -> Choi round trip (or Kraus -> map detour) decides what is
# classified outside certify.
CLI_UNNAMED = {"map_from_choi", "to_map"}

# The one decision of a chain level: every chain detail ("choi-psd",
# "min-eigenvector*", "seesaw*", with or without a prefix) is written in
# k_block_positive_certify, which is also is_cp and is_ccp, and the see-saw
# is run only there and by the reduction scan's one search.
CHAIN_DETAIL_SITES = {"certify.k_block_positive_certify"}
SEESAW_SITES = {"certify.k_block_positive_certify", "witness.threshold_scan"}

# The one other writer of such a string: a Witness's proof "choi-psd", the
# same evidence read off the witness's own spectrum in maps._witness_proof.
WITNESS_PROOF_SITES = {"maps._witness_proof"}

# The eigendecompositions certify takes itself: none. A chain matrix's
# spectrum is its MatrixOp.eig, and the stack of detector images is decided
# by maps._fire.
CERTIFY_EIG_CALLS = []

# The one firing rule of a Schmidt-number detector: maps._fire decides a
# stack of detector images, each against PSD_TOL * max|image|, for the lower
# bound of schmidt_number_bounds and for detect_schmidt_number alike.
FIRE_CALLERS = {"certify._schmidt_bounds", "witness.detect_schmidt_number"}

# The functions that read PSD_TOL: the map layer's CP and block floors, a
# witness's proof, the firing rule, and schmidt_number_bounds' PSD gate and
# construction check. _fire is the only one that judges a detector image.
PSD_TOL_SITES = {"maps.kraus_decompose", "maps.compose_certified", "maps._witness_proof",
                 "maps._fire", "certify.schmidt_number_bounds"}

# STATE_TOL gates a state (its trace and its bottom eigenvalue) and decides
# nothing else: detections fire by _fire's relative rule.
STATE_TOL_SITES = {"witness._validate_state"}

# The search options and the one CLI flag that sets each. The see-saw's
# iteration cap and stop threshold are _seesaw constants, read only by
# seesaw_minimize, which hands them to the kernel.
OPTION_FLAGS = {"restarts": "--restarts", "eps_neg": "--tol", "seed": "--seed"}


def _top_level_functions(path):
    """(qualified name, node) of each module-level function, class bodies
    included, so that nested helpers count toward the function around them."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in tree.body:
        defs = node.body if isinstance(node, ast.ClassDef) else [node]
        for fn in defs:
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield f"{path.stem}.{fn.name}", fn


def _sites(is_match):
    found = set()
    for path in SOURCES:
        for name, fn in _top_level_functions(path):
            if any(is_match(node) for node in ast.walk(fn)):
                found.add(name)
    return found


def _mentions_conj(node):
    return any(isinstance(n, ast.Attribute) and n.attr == "conj" for n in ast.walk(node))


def _is_hand_rolled_hermitian_part(node):
    """0.5 * (X + <expression with .conj()>), in either factor order."""
    if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)):
        return False
    for half, other in ((node.left, node.right), (node.right, node.left)):
        if (isinstance(half, ast.Constant) and half.value == 0.5
                and isinstance(other, ast.BinOp) and isinstance(other.op, ast.Add)
                and _mentions_conj(other)):
            return True
    return False


def _calls(*names):
    """A matcher of the calls to a function or method with one of these names."""
    def is_match(node):
        if not isinstance(node, ast.Call):
            return False
        func = node.func
        return (func.attr if isinstance(func, ast.Attribute)
                else getattr(func, "id", None)) in names
    return is_match


def _is_matrixop_test(node):
    """isinstance(x, MatrixOp), also with MatrixOp inside a tuple of types."""
    if not (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"
            and len(node.args) == 2):
        return False
    return any(isinstance(n, ast.Name) and n.id == "MatrixOp"
               or isinstance(n, ast.Attribute) and n.attr == "MatrixOp"
               for n in ast.walk(node.args[1]))


def _is_square_root(node):
    """math.isqrt(...), or round(...) around a sqrt(...) call."""
    if _calls("isqrt")(node):
        return True
    return (_calls("round")(node)
            and any(_calls("sqrt")(n) for n in ast.walk(node)))


def _is_memo(decorator):
    """functools.lru_cache, functools.cache or functools.cached_property,
    called or not, also through a name imported from functools."""
    node = decorator.func if isinstance(decorator, ast.Call) else decorator
    name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
    return name in ("lru_cache", "cache", "cached_property")


def _is_chain_detail(node):
    """A one-word string constant naming a chain level's evidence."""
    return (isinstance(node, ast.Constant) and isinstance(node.value, str)
            and re.fullmatch(r"[\w+-]*(choi-psd|min-eigenvector|seesaw)[\w+-]*",
                             node.value) is not None)


def _names(path):
    """Every name, attribute and imported name used in one module."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update((node.name, node.asname))
    return names


def _json_writer_calls(path):
    """The calls in one module to json.dump or json.dumps, also through a
    name imported from json."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {alias.asname or alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module == "json"
                for alias in node.names if alias.name in ("dump", "dumps")}
    calls = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if (isinstance(func, ast.Attribute) and func.attr in ("dump", "dumps")
                and isinstance(func.value, ast.Name) and func.value.id == "json"):
            calls.append(node)
        elif isinstance(func, ast.Name) and func.id in imported:
            calls.append(node)
    return calls


def test_the_guard_reads_every_module():
    assert {p.stem for p in SOURCES} >= {"linalg", "maps", "_seesaw", "certify", "fuzz"}


def test_hermitian_part_is_hand_rolled_only_in_the_seesaw_half_steps():
    assert _sites(_is_hand_rolled_hermitian_part) == HERMITIAN_PART_SITES


def test_eigensolves_sit_in_allow_listed_functions():
    assert _sites(_calls("eigh", "eigvalsh")) == EIGEN_SITES


def test_svds_sit_in_allow_listed_functions():
    assert _sites(_calls("svd")) == SVD_SITES


def test_normal_draws_sit_in_allow_listed_functions():
    assert _sites(_calls("normal")) == NORMAL_SITES


def test_rank_counts_sit_in_the_one_rank_rule():
    assert _sites(_calls("count_nonzero")) == COUNT_SITES


def test_the_integer_rule_is_read_only_by_the_checks():
    assert _sites(_calls("_is_int")) == IS_INT_SITES


def test_bad_levels_are_raised_only_by_the_level_rule_and_the_fuzz_refusals():
    assert _sites(_calls("BadK")) == BAD_K_SITES


def test_retired_rules_are_gone():
    assert not set().union(*(_names(path) for path in SOURCES)) & RETIRED_NAMES


def test_search_options_live_beside_the_search():
    """SeesawOpts and DEFAULT_OPTS are defined in _seesaw, re-exported by
    certify and the package; seesaw_minimize's two defaults read
    DEFAULT_OPTS, its iteration cap and stop threshold are _seesaw's
    constants, and witness takes both from _seesaw, not from certify."""
    from conekit import _seesaw, certify

    assert conekit.SeesawOpts is certify.SeesawOpts is _seesaw.SeesawOpts
    assert certify.DEFAULT_OPTS is _seesaw.DEFAULT_OPTS
    assert (_seesaw._MAX_ITERS, _seesaw._EPS_CONV) == (500, 1e-10)
    seesaw = next(path for path in SOURCES if path.stem == "_seesaw")
    fn = dict(_top_level_functions(seesaw))["_seesaw.seesaw_minimize"]
    named = fn.args.args[-len(fn.args.defaults):]
    assert [(arg.arg, ast.unparse(default)) for arg, default in zip(named, fn.args.defaults)] == [
        (name, f"DEFAULT_OPTS.{name}") for name in ("restarts", "seed")]
    witness = next(path for path in SOURCES if path.stem == "witness")
    modules = {node.module for node in ast.walk(ast.parse(witness.read_text(encoding="utf-8")))
               if isinstance(node, ast.ImportFrom)}
    assert "certify" not in modules | _names(witness)


def test_search_options_are_the_three_flags():
    """SeesawOpts holds restarts, eps_neg and seed, each set by one CLI flag
    (--restarts, --tol, --seed) with no options file beside them, and only
    seesaw_minimize reads the iteration cap and the stop threshold."""
    assert [f.name for f in dataclasses.fields(conekit.SeesawOpts)] == list(OPTION_FLAGS)
    source = next(path for path in SOURCES if path.stem == "cli")
    flags = {arg.value for node in ast.walk(ast.parse(source.read_text(encoding="utf-8")))
             if _calls("add_argument")(node) for arg in node.args}
    assert flags >= set(OPTION_FLAGS.values()) and "--config" not in flags
    fn = dict(_top_level_functions(source))["cli._opts_from"]
    (call,) = [node for node in ast.walk(fn) if _calls("SeesawOpts")(node)]
    assert {kw.arg: ast.unparse(kw.value) for kw in call.keywords} == {
        field: f"args.{flag[2:]}" for field, flag in OPTION_FLAGS.items()}
    assert _sites(lambda node: isinstance(node, ast.Name)
                  and node.id in ("_MAX_ITERS", "_EPS_CONV")) == {"_seesaw.seesaw_minimize"}


def test_einsums_sit_in_allow_listed_functions():
    assert _sites(_calls("einsum")) == EINSUM_SITES


def test_matrixop_is_unwrapped_only_by_the_entry_rule():
    assert _sites(_is_matrixop_test) == MATRIXOP_TEST_SITES


def test_square_sides_are_taken_only_by_the_square_side_rule():
    assert _sites(_is_square_root) == SQUARE_SIDE_SITES


def test_serialize_builds_a_matrixop_only_in_the_matrix_reader():
    serialize = next(path for path in SOURCES if path.stem == "serialize")
    builders = {name for name, fn in _top_level_functions(serialize)
                if any(_calls("MatrixOp")(node) for node in ast.walk(fn))}
    assert builders == SERIALIZE_MATRIXOP_SITES


def test_memos_sit_in_allow_listed_functions():
    memoized = {name for path in SOURCES for name, fn in _top_level_functions(path)
                if any(_is_memo(dec) for dec in fn.decorator_list)}
    assert memoized == MEMO_SITES


def test_json_is_written_only_in_serialize():
    """One JSON writer: json.dump and json.dumps are called only in the
    serialize module, whose dumps every command prints through."""
    writers = {path.stem for path in SOURCES if _json_writer_calls(path)}
    assert writers == {"serialize"}


def test_cli_hands_classify_the_operator_as_loaded():
    cli_source = next(path for path in SOURCES if path.stem == "cli")
    assert not _names(cli_source) & CLI_UNNAMED


def test_chain_details_are_written_only_in_the_level_decision():
    sites = CHAIN_DETAIL_SITES | WITNESS_PROOF_SITES
    assert _sites(_is_chain_detail) == sites
    # and no other module holds one, not even outside its functions
    modules = {path.stem for path in SOURCES
               if any(_is_chain_detail(node)
                      for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))))}
    assert modules == {site.split(".")[0] for site in sites}


def test_seesaw_runs_only_in_the_level_decision_and_the_reduction_scan():
    assert _sites(_calls("seesaw_minimize")) == SEESAW_SITES


def test_no_function_takes_an_eig_parameter():
    """A matrix's spectrum is read from its MatrixOp, never handed in beside it."""
    takers = {name for path in SOURCES for name, fn in _top_level_functions(path)
              for node in ast.walk(fn) if isinstance(node, (ast.FunctionDef, ast.Lambda))
              for arg in node.args.posonlyargs + node.args.args + node.args.kwonlyargs
              if arg.arg == "eig"}
    assert not takers


def _reads(name):
    return lambda node: isinstance(node, ast.Name) and node.id == name


def test_detectors_fire_by_one_rule():
    assert _sites(_calls("_fire")) == FIRE_CALLERS
    assert _sites(_reads("PSD_TOL")) == PSD_TOL_SITES


def test_state_tol_only_gates_states():
    assert _sites(_reads("STATE_TOL")) == STATE_TOL_SITES


def test_certify_decomposes_only_the_detector_stack():
    """certify calls hermitian_eig nowhere: chain spectra are MatrixOp.eig,
    and its one stack, the detector images, is decomposed in maps._fire."""
    certify = next(path for path in SOURCES if path.stem == "certify")
    calls = [(name, ast.unparse(node.args[0]))
             for name, fn in _top_level_functions(certify)
             for node in ast.walk(fn) if _calls("hermitian_eig")(node)]
    assert calls == CERTIFY_EIG_CALLS
