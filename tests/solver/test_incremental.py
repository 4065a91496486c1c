"""Assumption-stack incremental solving: alignment, retention, learning.

The stack's contract: solving a query sequence *with* retained state
returns the same verdicts and models as solving every query from
scratch (given the same cache configuration) — the retained unit
assignments, satisfied constraints, and learned conflicts only remove
provably-dead work.  Alignment is the implicit push/pop protocol: facts
survive exactly as long as every constraint their derivation read.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.errors import SolverTimeout, UnsatError
from repro.solver import AssumptionStack, Retained, Solver, SolverCache
from repro.solver import terms as T
from repro.solver.model import input_var_name


@pytest.fixture(autouse=True)
def fresh_terms():
    with T.term_scope():
        yield


@pytest.fixture
def tel():
    registry = telemetry.Telemetry()
    with telemetry.scoped(registry):
        yield registry


def _v(i):
    return T.var(input_var_name("stdin", i), 8)


def _eq(term, value, width=8):
    return T.cmp("eq", term, T.const(value, width), width)


class TestStackAlignment:
    def test_empty_stack_aligns_to_zero(self):
        stack = AssumptionStack()
        assert stack.align([_eq(_v(0), 1)]) == 0
        assert len(stack) == 0

    def test_extend_then_full_realign_retains_all(self):
        stack = AssumptionStack()
        terms = [_eq(_v(0), 1), _eq(_v(1), 2)]
        stack.extend(terms, {"a": 1}, {"a": 1}, {})
        assert stack.align(terms + [_eq(_v(2), 3)]) == 2
        assert stack.retained().env == {"a": 1}

    def test_divergence_drops_dependent_facts_only(self):
        stack = AssumptionStack()
        terms = [_eq(_v(0), 1), _eq(_v(1), 2), _eq(_v(2), 3)]
        stack.extend(terms, {"early": 7, "late": 9},
                     {"early": 0, "late": 2}, {terms[1]: 1})
        # replace the last constraint: facts depending on index 2 die,
        # everything anchored earlier survives
        assert stack.align(terms[:2] + [_eq(_v(2), 99)]) == 2
        retained = stack.retained()
        assert retained.env == {"early": 7}
        assert terms[1] in retained.satisfied
        assert retained.env_deps == {"early": 0}

    def test_conflicts_pop_with_their_dependency(self):
        stack = AssumptionStack()
        terms = [_eq(_v(0), 1), _eq(_v(1), 2)]
        stack.extend(terms, {}, {}, {},
                     learned={"x": {5: 0, 6: 1}})
        assert stack.retained().excluded == {"x": {5: 0, 6: 1}}
        stack.align([terms[0], _eq(_v(1), 99)])
        # the dep-1 conflict read the replaced constraint; the dep-0
        # conflict did not
        assert stack.retained().excluded == {"x": {5: 0}}
        assert stack.conflicts_dropped == 1

    def test_total_divergence_clears_everything(self):
        stack = AssumptionStack()
        stack.extend([_eq(_v(0), 1)], {"a": 1}, {"a": 0},
                     {}, learned={"x": {5: 0}})
        stack.align([_eq(_v(0), 2)])
        retained = stack.retained()
        assert retained.env == {}
        assert retained.excluded == {}
        assert len(stack) == 0

    def test_deps_clamped_to_list_end(self):
        stack = AssumptionStack()
        terms = [_eq(_v(0), 1)]
        # a missing or overlong dep anchors at the list end, so the
        # fact dies at the first divergence instead of surviving it
        stack.extend(terms, {"a": 1}, {}, {}, learned={"x": {5: 99}})
        assert stack.retained().excluded == {"x": {5: 0}}
        assert stack.retained().env_deps == {"a": 0}


class TestSolverLearning:
    def test_unsat_proof_retains_conflicts(self, tel):
        cache = SolverCache()
        cache.assumptions = AssumptionStack()
        solver = Solver(work_limit=200_000, cache=cache)
        prefix = [T.cmp("ugt", _v(0), T.const(250, 8), 8)]
        # v0 in 251..255, and v0+v1 == 0 with v1 < 250: only v1 in
        # 1..5 could work, each refuted byte-by-byte -> conflicts learned
        with pytest.raises(UnsatError):
            solver.solve(prefix + [
                _eq(T.binop("add", _v(0), _v(1), 8), 0),
                T.cmp("ugt", _v(1), T.const(250, 8), 8)])
        assert cache.assumptions.conflicts_learned > 0
        counters = tel.snapshot()["counters"]
        assert counters["solver.incremental.conflicts_learned"] > 0

    def test_sibling_query_skips_learned_candidates(self, tel):
        cache = SolverCache()
        cache.assumptions = AssumptionStack()
        solver = Solver(work_limit=200_000, cache=cache)
        prefix = [T.cmp("ugt", _v(0), T.const(250, 8), 8)]
        suffix = [_eq(T.binop("add", _v(0), _v(1), 8), 0),
                  T.cmp("ugt", _v(1), T.const(250, 8), 8)]
        with pytest.raises(UnsatError):
            solver.solve(prefix + suffix)
        # sibling: same prefix, different (still unsat) tail — the
        # retained prefix conflicts prune its search
        with pytest.raises(UnsatError):
            solver.solve(prefix + suffix[:1] +
                         [T.cmp("ugt", _v(1), T.const(251, 8), 8)])
        counters = tel.snapshot()["counters"]
        assert counters.get("solver.incremental.skipped_candidates", 0) > 0
        assert counters["solver.incremental.queries"] == 2


def _refuted_pair():
    """v0 in 251..255 and v0 + v1 == 0 with v1 > 250: unsat, refuted
    candidate by candidate."""
    return [T.cmp("ugt", _v(0), T.const(250, 8), 8),
            _eq(T.binop("add", _v(0), _v(1), 8), 0),
            T.cmp("ugt", _v(1), T.const(250, 8), 8)]


def _stacked_solver(work_limit):
    cache = SolverCache()
    cache.assumptions = AssumptionStack()
    return Solver(work_limit=work_limit, cache=cache), cache.assumptions


class TestHarvestOnEveryVerdict:
    """Every search's harvest reaches the stack: a model, an unsat
    proof and a timed-out search alike."""

    def test_sat_harvest_pushed(self):
        solver, stack = _stacked_solver(200_000)
        cs = [T.cmp("ugt", _v(0), T.const(200, 8), 8),
              _eq(T.binop("xor", _v(0), _v(1), 8), 0xFF)]
        solver.solve(cs)
        assert len(stack) == len(cs)
        assert stack.pushes == 1

    def test_timeout_harvest_pushed(self):
        solver, stack = _stacked_solver(1_000)
        cs = _refuted_pair()
        with pytest.raises(SolverTimeout):
            solver.solve(cs)
        assert len(stack) == len(cs)
        assert stack.conflicts_learned > 0

    def test_retry_after_timeout_skips_refuted_candidates(self, tel):
        cs = _refuted_pair()
        solver, stack = _stacked_solver(3_000)
        with pytest.raises(SolverTimeout):
            solver.solve(cs)
        retry = Solver(work_limit=200_000, cache=solver.cache)
        with pytest.raises(UnsatError):
            retry.solve(cs)
        counters = tel.snapshot()["counters"]
        assert counters["solver.incremental.reused_terms"] == len(cs)
        assert counters.get("solver.incremental.skipped_candidates", 0) > 0

    @pytest.mark.parametrize("work_limit, verdict, counter, other", [
        (200_000, UnsatError, "solver.unsat", "solver.timeouts"),
        (1_000, SolverTimeout, "solver.timeouts", "solver.unsat"),
    ], ids=["unsat", "timeout"])
    def test_failed_query_metered_once(self, tel, work_limit, verdict,
                                       counter, other):
        solver, _ = _stacked_solver(work_limit)
        with pytest.raises(verdict):
            solver.solve(_refuted_pair())
        counters = tel.snapshot()["counters"]
        assert counters["solver.queries.solve"] == 1
        assert counters["solver.incremental.queries"] == 1
        assert counters["solver.cache.misses"] == 1
        assert counters[counter] == 1
        assert other not in counters

    def test_sat_query_metered_once(self, tel):
        solver, _ = _stacked_solver(200_000)
        solver.solve([_eq(_v(0), 9)])
        counters = tel.snapshot()["counters"]
        assert counters["solver.queries.solve"] == 1
        assert counters["solver.incremental.queries"] == 1
        assert "solver.unsat" not in counters
        assert "solver.timeouts" not in counters


# -- the equivalence property -------------------------------------------

_byte = st.integers(0, 255)


@st.composite
def query_sequences(draw):
    """Short sequences of sibling queries over a shared prefix."""
    v0, v1 = _v(0), _v(1)
    prefix = [T.cmp(draw(st.sampled_from(["ugt", "ult", "ne"])),
                    v0, T.const(draw(_byte), 8), 8)]
    queries = []
    for _ in range(draw(st.integers(1, 4))):
        tail = []
        for _ in range(draw(st.integers(0, 2))):
            op = draw(st.sampled_from(["eq", "ne", "ult", "ugt"]))
            shape = draw(st.integers(0, 1))
            lhs = (v1 if shape == 0
                   else T.binop(draw(st.sampled_from(["add", "xor"])),
                                v0, v1, 8))
            tail.append(T.cmp(op, lhs, T.const(draw(_byte), 8), 8))
        queries.append(prefix + tail)
    return queries


def _run(queries, incremental):
    cache = SolverCache()
    if incremental:
        cache.assumptions = AssumptionStack()
    # two byte-wide vars are exhaustively searchable, so a generous
    # limit keeps both legs definitive — learning only shifts *timeout*
    # boundaries, which this property deliberately keeps unreachable
    solver = Solver(work_limit=20_000_000, cache=cache)
    out = []
    for q in queries:
        try:
            out.append(("sat", solver.solve(q).assignment))
        except UnsatError:
            out.append(("unsat", None))
    return out


class TestEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(query_sequences())
    def test_incremental_matches_scratch(self, queries):
        T.clear_term_cache()
        assert _run(queries, True) == _run(queries, False)

    def test_retained_seed_is_isolated_per_search(self):
        # the Retained view aliases the stack's live conflict table;
        # searches must treat it as read-only
        stack = AssumptionStack()
        stack.extend([_eq(_v(0), 1)], {}, {}, {}, learned={"x": {5: 0}})
        retained = stack.retained()
        assert isinstance(retained, Retained)
        before = {k: dict(v) for k, v in stack.excluded.items()}
        cache = SolverCache()
        cache.assumptions = stack
        solver = Solver(work_limit=50_000, cache=cache)
        solver.solve([_eq(_v(0), 1), _eq(_v(1), 7)])
        assert {k: dict(v) for k, v in stack.excluded.items()
                if k in before} == before
