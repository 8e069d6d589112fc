"""Property tests for the happens-before model: random schedules vs a
brute-force interleaving oracle.

The oracle executes command schedules over an *abstract* machine —
last-writer tokens per alias class for device state, (reader, value-
read) tokens for guest state, and type-level handle liveness — and
brute-forces every legal permutation of each unflushed async region
(sync commands are barriers and never move).  The soundness claim under
test: whenever any permutation changes the observable outcome, the
static model must already call some reordered pair non-commuting.  In
other words ``HBModel.commutes`` has **no false negatives** against the
oracle.

The companion seeded test measures the false-positive side: for every
statically flagged pair it searches for a divergence witness and
reports the fraction with none.  Conservative alias reasoning may keep
that above zero for future specs; today's shipped specs witness every
flagged pair.
"""

import itertools
import os
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import build_hb_model
from repro.apis import APIS
from repro.spec.parser import parse_spec_file
from repro.stack import default_specs_dir

BAD_DIR = os.path.join(os.path.dirname(__file__), "specs_bad")
#: the registered APIs whose spec is a shipped ``.cava`` file
SHIPPED = tuple(name for name, plugin in APIS.items()
                if isinstance(plugin.spec, str))

_MODELS = {}


def model_for(api):
    if api not in _MODELS:
        if api in SHIPPED:
            path = os.path.join(default_specs_dir(), f"{api}.cava")
        else:
            path = os.path.join(BAD_DIR, f"{api}.cava")
        _MODELS[api] = build_hb_model(parse_spec_file(path))
    return _MODELS[api]


# ---------------------------------------------------------------------------
# the abstract interleaving oracle
# ---------------------------------------------------------------------------


def execute(model, schedule, initial_device=None):
    """Run ``schedule`` — a sequence of (token, function-name) pairs —
    over the abstract machine and return its observable outcome.

    * ``device``: alias class -> token of the last in-direction writer,
    * ``guest``: (alias class, reader token) -> device token pulled.
      Each out parameter lands in the caller's own destination box (the
      runtime applies a reply to the pointer captured at submission),
      so distinct invocations never clobber each other's guest cell —
      but *which device state* a reader observes is order-dependent,
    * ``faults``: frozenset of (token, handle type) use/release-after-
      release events.

    Tokens name invocations independently of their position, so the
    outcome of two permutations of the same multiset of invocations is
    directly comparable.
    """
    device = dict(initial_device or {})
    guest = {}
    dead = set()
    faults = set()
    for token, fname in schedule:
        func = model.functions[fname]
        for type_name in sorted(func.handle_uses | func.handle_releases):
            if type_name in dead:
                faults.add((token, type_name))
        dead |= func.handle_releases
        # out-direction accesses observe device state *before* this
        # invocation's own in-direction writes land
        for access in func.accesses:
            if access.writes_guest:
                guest[(access.alias_class, token)] = \
                    device.get(access.alias_class)
        for access in func.accesses:
            if access.writes_device:
                device[access.alias_class] = token
    return device, guest, frozenset(faults)


def region_permutations(schedule, modes, limit=720):
    """Every legal reordering of ``schedule``: maximal runs of commands
    dispatched async may permute freely; a sync dispatch is a barrier
    (the guest flushes the queue before it crosses the channel)."""
    runs = []
    current = []
    for entry, mode in zip(schedule, modes):
        if mode == "async":
            current.append(entry)
        else:
            if current:
                runs.append(current)
                current = []
            runs.append([entry])
    if current:
        runs.append(current)
    pools = []
    for run in runs:
        perms = list(itertools.permutations(run))
        assert len(perms) <= limit, "region too large to brute-force"
        pools.append(perms)
    for choice in itertools.product(*pools):
        yield [entry for run in choice for entry in run]


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------


def schedule_strategy(api):
    """Random schedules over ``api``'s functions: each invocation picks
    a legal dispatch mode for its function; async runs are capped at 5
    so brute-forcing permutations stays cheap (<= 120 per region)."""
    model = model_for(api)
    names = sorted(model.functions)

    def annotate(picks):
        schedule, modes = [], []
        run = 0
        for occurrence, (fname, want_async) in enumerate(picks):
            func = model.functions[fname]
            if func.can_async and (want_async or not func.can_sync):
                if run < 5:
                    mode = "async"
                elif func.can_sync:
                    mode = "sync"
                else:
                    break  # async-only past the cap: truncate schedule
            else:
                mode = "sync"
            run = run + 1 if mode == "async" else 0
            schedule.append(((fname, occurrence), fname))
            modes.append(mode)
        return schedule, modes

    picks = st.lists(
        st.tuples(st.sampled_from(names), st.booleans()),
        min_size=2, max_size=8)
    return picks.map(annotate)


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------


class TestPairwiseSoundness:
    """Divergence under a pairwise swap implies the model flags the
    pair — ``commutes`` never green-lights an observable reorder."""

    @pytest.mark.parametrize("api", sorted(
        SHIPPED + ("ordering_noncommuting", "ordering_async_release_batch",
                   "ordering_stale_elision")))
    def test_no_false_negatives_over_all_pairs(self, api):
        model = model_for(api)
        names = sorted(model.functions)
        for first, second in itertools.product(names, names):
            a, b = ((first, 0), first), ((second, 1), second)
            forward = execute(model, [a, b])
            swapped = execute(model, [b, a])
            if forward != swapped:
                assert not model.commutes(first, second), (
                    f"oracle diverges for {first}/{second} but the "
                    f"model claims they commute")


class TestScheduleSoundness:
    @pytest.mark.parametrize("api", sorted(
        SHIPPED + ("ordering_noncommuting",
                   "ordering_async_release_batch")))
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_divergent_schedule_has_flagged_pair(self, api, data):
        model = model_for(api)
        schedule, modes = data.draw(schedule_strategy(api))
        baseline = execute(model, schedule)
        diverged = any(
            execute(model, perm) != baseline
            for perm in region_permutations(schedule, modes))
        if not diverged:
            return
        # some async pair sharing a region must be statically flagged
        flagged = False
        region = []
        for (token, fname), mode in zip(schedule, modes):
            if mode != "async":
                region = []
                continue
            flagged = flagged or any(
                not model.commutes(prior, fname) for prior in region)
            region.append(fname)
        assert flagged, (
            f"schedule {schedule!r} diverges under reordering but no "
            f"in-region pair is non-commuting")

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_sync_only_schedules_never_diverge(self, data):
        """With every dispatch sync there is exactly one legal order."""
        model = model_for("opencl")
        schedule, _modes = data.draw(schedule_strategy("opencl"))
        all_sync = ["sync"] * len(schedule)
        outcomes = {
            tuple(perm)
            for perm in region_permutations(schedule, all_sync)
        }
        assert outcomes == {tuple(schedule)}


class TestFalsePositiveRate:
    """The flip side, reported not gated: how many statically flagged
    pairs have *no* divergence witness under the oracle?"""

    def _witnessed(self, model, first, second, rng, attempts=32):
        a, b = ((first, 0), first), ((second, 1), second)
        classes = sorted({
            access.alias_class
            for func in model.functions.values()
            for access in func.accesses
        })
        for attempt in range(attempts):
            initial = {}
            if attempt:  # attempt 0 probes the empty machine
                for alias in classes:
                    if rng.random() < 0.5:
                        initial[alias] = ("ambient", rng.randrange(4))
            if execute(model, [a, b], initial) \
                    != execute(model, [b, a], initial):
                return True
        return False

    @pytest.mark.parametrize("api", sorted(SHIPPED))
    def test_fp_rate_reported(self, api, capsys):
        model = model_for(api)
        rng = random.Random(0xCA7A)
        pairs = sorted(model.noncommuting_pairs())
        if not pairs:
            pytest.skip(f"{api}: no non-commuting pairs to audit")
        unwitnessed = [
            (f, g) for f, g in pairs
            if not self._witnessed(model, f, g, rng)
        ]
        rate = len(unwitnessed) / len(pairs)
        with capsys.disabled():
            print(f"[cava race] {api}: {len(pairs)} flagged pairs, "
                  f"FP rate {rate:.0%} {unwitnessed or ''}")
        # every flagged pair in today's shipped specs has a witness;
        # loosen (and keep reporting) if a future spec's conservative
        # alias approximation introduces a genuine false positive
        assert rate == 0.0
