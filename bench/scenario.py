"""Seeded inputs for the generated benchmark workloads.

``build_loop_scenario`` writes train/val datasets and a scripted fixture file
for a long optimization run, together with the per-step plan the output check
compares the decision trace against. ``build_http_scenario`` writes a question
set and the answer table the loopback stub serves, with the expected
extraction of every sample.

The seed picks which steps reject, which rules recur, every generated word and
every answer wording. The quotas below are fixed, so every seed makes the same
number of calls per role and the run-to-run spread of a metric is not a
difference in scenario shape. This module imports nothing from promptreg: the
expected decisions are derived here independently of the code under test.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

# Plain words that form none of the fixture match substrings, no answer
# marker and no digits.
VOCAB = (
    "check each stated constraint before committing keep units aligned "
    "compare candidate values against givens restate goal briefly track "
    "intermediate totals carefully avoid skipping steps verify final result "
    "list known facts first separate cases when needed prefer general "
    "procedures note every assumption explicitly reread question wording "
    "confirm option letters match order eliminate impossible choices early "
    "summarize reasoning concisely ensure consistency across parts"
).split()

STEPS = 200
BATCH_SIZE = 4
TRAIN_SIZE = 48
VAL_SIZE = 20
VAL_A_ANSWERS = 12  # a model that always says A scores 0.6, B scores 0.4
TAU_C = 0.2
INITIAL_PROMPT_TOKENS = 40

# Exact quotas: 25% purifier rejects (a fifth of them unparseable), 10% of
# candidates rejected at the gate, 83 rules in the final bank, and every
# regularization mode.
PURIFIER_REJECTS = 40
PURIFIER_MALFORMED = 10
GATE_REJECTS = 15
INSERTS = 83
CANON_REASKS = 8
TAG_REASKS = 8
CAPACITY_DIAG_STEPS = 40  # diagnoses of transitions that grew past tau_c
STRONG_DIAG_STEPS = 15  # of those, also narrowing -> STRONG_REGULARIZATION
GENERALIZE_DIAG_STEPS = 20  # narrowing only -> GENERALIZE_ONLY

JSON_REASK = "Your previous reply was not parseable"
TAG_REASK = "did not contain the improved variable"
START_TAG = "<IMPROVED_VARIABLE>"
END_TAG = "</IMPROVED_VARIABLE>"
MALFORMED_REPLY = "I cannot produce structured output for this request."

MODE_BY_FLAGS = {
    (False, False): None,
    (True, False): "COMPRESSION_ONLY",
    (False, True): "GENERALIZE_ONLY",
    (True, True): "STRONG_REGULARIZATION",
}

A_REPLIES = ("Answer: A", "Checked each constraint; the final answer: A", "A")
B_REPLIES = ("Answer: B", "Checked each constraint; the final answer: B", "B")


def words(rng: random.Random, count: int) -> str:
    return " ".join(rng.choice(VOCAB) for _ in range(count))


def _write_jsonl(path: Path, rows: list[dict]) -> None:
    path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")


def _candidate_tokens(rng: random.Random, current: int, grows: bool) -> int:
    """Token count of an accepted candidate; grows iff rho_c > TAU_C."""
    if grows:
        return math.floor(current * (1 + TAU_C)) + rng.randint(1, 4)
    if current > 50:
        return rng.randint(math.ceil(current * 0.7), math.floor(current * 0.95))
    return rng.randint(current, math.floor(current * 1.15))


def _shape(rng: random.Random) -> tuple[dict[int, str], set[int]]:
    """Purifier outcome per step and the steps whose candidate the gate rejects.

    Purifier rejects never fall on the first or last step, and a gate reject
    always follows an accepted rewrite, so only the step after a purifier
    reject sees an identity transition and every seed diagnoses the same
    number of transitions.
    """
    inner = rng.sample(range(1, STEPS - 1), PURIFIER_REJECTS + PURIFIER_MALFORMED)
    purifier = {s: "accept" for s in range(STEPS)}
    for s in inner[:PURIFIER_REJECTS]:
        purifier[s] = "reject"
    for s in inner[PURIFIER_REJECTS:]:
        purifier[s] = "malformed"
    eligible = [s for s in range(2, STEPS)
                if purifier[s] == purifier[s - 1] == "accept"]
    rng.shuffle(eligible)
    gate_rejects: set[int] = set()
    for s in eligible:
        if len(gate_rejects) < GATE_REJECTS and not {s - 1, s + 1} & gate_rejects:
            gate_rejects.add(s)
    return purifier, gate_rejects


def _diagnosed_transitions(
    purifier: dict[int, str], gate_rejects: set[int]
) -> dict[int, list[int]]:
    """Accepted-candidate step -> the later steps that diagnose its transition."""
    seen: dict[int, list[int]] = {}
    last = None  # None, "identity", or the step whose candidate was accepted
    for s in range(STEPS):
        if isinstance(last, int):
            seen[last].append(s)
        if purifier[s] != "accept":
            last = "identity"
        elif s not in gate_rejects:
            last = s
            seen[s] = []
    return seen


def _capacity_transitions(
    rng: random.Random, seen: dict[int, list[int]]
) -> set[int]:
    """Transitions that grow past tau_c, diagnosed exactly CAPACITY_DIAG_STEPS times."""
    order = [s for s in seen if seen[s]]
    rng.shuffle(order)
    # fill with the multi-diagnosis transitions first, then top up with ones
    # diagnosed once, so the quota is met exactly
    order.sort(key=lambda s: len(seen[s]) == 1)
    chosen: set[int] = set()
    remaining = CAPACITY_DIAG_STEPS
    for s in order:
        if len(seen[s]) <= remaining:
            chosen.add(s)
            remaining -= len(seen[s])
    if remaining:
        raise ValueError("capacity quota cannot be met")
    return chosen


def build_loop_scenario(seed: int, out_dir: Path) -> dict:
    """Write train.jsonl, val.jsonl and fixtures.jsonl; return the plan.

    The plan holds the run settings, the expected trace decisions per step
    and the scenario's measured shares.
    """
    rng = random.Random(seed)
    out_dir.mkdir(parents=True, exist_ok=True)

    train = [
        {"question": f"Train card T{i:03d}: {words(rng, 10)}; which letter?",
         "answer": rng.choice("AB")}
        for i in range(TRAIN_SIZE)
    ]
    val = [
        {"question": f"Validation card V{i:03d}: {words(rng, 10)}; which letter?",
         "answer": "A" if i < VAL_A_ANSWERS else "B"}
        for i in range(VAL_SIZE)
    ]
    _write_jsonl(out_dir / "train.jsonl", train)
    _write_jsonl(out_dir / "val.jsonl", val)
    initial_prompt = "(s-init) " + words(rng, INITIAL_PROMPT_TOKENS - 1)

    purifier, gate_rejects = _shape(rng)
    seen = _diagnosed_transitions(purifier, gate_rejects)
    grows = _capacity_transitions(rng, seen)
    accepted_steps = [s for s in range(STEPS) if purifier[s] == "accept"]
    inserts = {accepted_steps[0]} | set(
        rng.sample(accepted_steps[1:], INSERTS - 1)
    )
    canon_reasks = set(rng.sample(accepted_steps, CANON_REASKS))
    tag_reasks = set(rng.sample(accepted_steps, TAG_REASKS))
    diag_steps = sorted(d for s in seen for d in seen[s])
    capacity_steps = sorted(d for s in grows for d in seen[s])
    plain_steps = sorted(set(diag_steps) - set(capacity_steps))
    narrowing = set(rng.sample(capacity_steps, STRONG_DIAG_STEPS)) | set(
        rng.sample(plain_steps, GENERALIZE_DIAG_STEPS)
    )

    # JSON and tag re-ask fixtures go first: a re-ask matches its original
    # fixture too, at the same specificity, and ties resolve to file order.
    reask_fixtures: list[dict] = []
    fixtures: list[dict] = []

    def add(role, response, step, substring=None, first=False):
        entry = {"role": role, "step": step, "response": response}
        if substring is not None:
            entry["match_substring"] = substring
        (reask_fixtures if first else fixtures).append(entry)

    steps: list[dict] = []
    current_tokens = max_tokens = INITIAL_PROMPT_TOKENS
    version = 0
    transition = None  # None, "identity", or (prev_tokens, curr_tokens)
    bank = 0
    for s in range(STEPS):
        expect: dict = {"step": s}
        if transition is None:
            expect["ser"] = {"status": "skipped_no_transition"}
        elif transition == "identity":
            expect["ser"] = {"status": "identity_transition", "active": [],
                             "mode": None, "rho_c": 0.0}
        else:
            prev, curr = transition
            rho_c = (curr - prev) / prev
            b_c, b_w = rho_c > TAU_C, s in narrowing
            mode = MODE_BY_FLAGS[(b_c, b_w)]
            direction = "increase" if b_w else rng.choice(("neutral", "decrease"))
            kind = "CASE_PATCH" if b_w else rng.choice(
                ("GENERALIZED_RULE", "STYLE_ONLY"))
            add("REGULARIZATION", json.dumps({
                "rules_changed": [{"description": words(rng, 6), "type": kind}],
                "specificity_direction": direction,
            }), s, "Semantic Delta Analyzer")
            if mode is not None:
                add("REGULARIZATION", json.dumps({"guidance": words(rng, 12)}),
                    s, "structural regularization controller")
            expect["ser"] = {
                "status": "diagnosed",
                "active": sorted(name for name, on in
                                 (("CAPACITY", b_c), ("SCOPE", b_w)) if on),
                "mode": mode, "rho_c": rho_c,
            }

        gate_rejected = s in gate_rejects
        reply = rng.choice(B_REPLIES if gate_rejected else A_REPLIES)
        add("FORWARD", reply, s)
        add("GRADIENT", "The prompt " + words(rng, 22), s, "prompt critic")

        outcome = purifier[s]
        expect["gradient_accepted"] = outcome == "accept"
        if outcome == "reject":
            add("GRADIENT", json.dumps({"purified_gradient": ""}), s,
                "Gradient Purifier")
        elif outcome == "malformed":
            add("GRADIENT", MALFORMED_REPLY, s, "Gradient Purifier")
            add("GRADIENT", MALFORMED_REPLY, s, JSON_REASK, first=True)
        else:
            add("GRADIENT", json.dumps({"purified_gradient": words(rng, 16)}),
                s, "Gradient Purifier")

        if outcome != "accept":
            expect.update(bank_ops=[], update="skipped_empty_gradient",
                          accepted=None, candidate_version=None)
            transition = "identity"
        else:
            if s in inserts:
                description = words(rng, 8)
                op = {"type": "insert", "canonical_description": description,
                      "value": 1}
                expect["bank_ops"] = [{"kind": "INSERT", "rule_id": None,
                                       "canonical_description": description}]
                bank += 1
            else:
                rule_id = f"R{rng.randint(1, bank)}"
                op = {"type": "increment", "rule_id": rule_id, "value": 1}
                expect["bank_ops"] = [{"kind": "INCREMENT", "rule_id": rule_id,
                                       "canonical_description": None}]
            ops = json.dumps({"operations": [op]})
            if s in canon_reasks:
                add("GRADIENT", MALFORMED_REPLY, s, "rule canonicalization")
                add("GRADIENT", ops, s, JSON_REASK, first=True)
            else:
                add("GRADIENT", ops, s, "rule canonicalization")

            if gate_rejected:
                tokens = rng.randint(math.ceil(current_tokens * 0.8),
                                     math.floor(current_tokens * 1.3))
            else:
                tokens = _candidate_tokens(rng, current_tokens, s in grows)
            text = f"(s{s})" + " " + words(rng, tokens - 1)
            tagged = f"{START_TAG}\n{text}\n{END_TAG}"
            if s in tag_reasks:
                add("OPTIMIZER", "Here is my rewrite: " + text, s)
                add("OPTIMIZER", tagged, s, TAG_REASK, first=True)
            else:
                add("OPTIMIZER", tagged, s)
            expect.update(update="applied", accepted=not gate_rejected,
                          candidate_version=version + 1)
            if not gate_rejected:
                transition = (current_tokens, tokens)
                current_tokens = tokens
                max_tokens = max(max_tokens, tokens)
                version += 1
        expect["version_after"] = version
        steps.append(expect)

    all_fixtures = reask_fixtures + fixtures
    _write_jsonl(out_dir / "fixtures.jsonl", all_fixtures)
    calls = {
        "FORWARD": VAL_SIZE + STEPS * BATCH_SIZE + VAL_SIZE * len(accepted_steps),
        "GRADIENT": 2 * STEPS + PURIFIER_MALFORMED + len(accepted_steps)
        + CANON_REASKS,
        "REGULARIZATION": len(diag_steps) + len(capacity_steps)
        + GENERALIZE_DIAG_STEPS,
        "OPTIMIZER": len(accepted_steps) + TAG_REASKS,
    }
    return {
        "initial_prompt": initial_prompt,
        "iterations": STEPS,
        "batch_size": BATCH_SIZE,
        "tau_c": TAU_C,
        "val_size": VAL_SIZE,
        "steps": steps,
        "final_rules": bank,
        "calls": calls,
        "shares": {
            "purifier_reject_rate": (PURIFIER_REJECTS + PURIFIER_MALFORMED) / STEPS,
            "gate_reject_rate": GATE_REJECTS / len(accepted_steps),
            "final_bank_size": bank,
            "fixtures": len(all_fixtures),
            "prompt_tokens_max": max_tokens,
        },
    }


# evaluate-http: a third of the questions per extraction tier, a fifth wrong.
HTTP_QUESTIONS = 240
HTTP_WRONG = 48
COLOURS = ("red", "blue", "green", "amber", "violet", "teal", "ochre", "grey")


def build_http_scenario(seed: int, out_dir: Path) -> dict:
    """Write questions.jsonl and stub_answers.json; return the plan.

    Tier ``marker`` answers after ``Answer:``, tier ``number`` ends on the
    number, and tier ``text`` is the bare answer word.
    """
    rng = random.Random(seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    tiers = ["marker", "number", "text"] * (HTTP_QUESTIONS // 3)
    rng.shuffle(tiers)
    wrong = set(rng.sample(range(HTTP_QUESTIONS), HTTP_WRONG))
    questions, answers, expected = [], {}, []
    for i, tier in enumerate(tiers):
        context = words(rng, 8)
        if tier == "text":
            gold = rng.choice(COLOURS)
            given = rng.choice([c for c in COLOURS if c != gold]) if i in wrong else gold
            question = f"Item {i:03d}: {context}; which colour is on the card?"
            reply = f"{given}."
        else:
            a, b = rng.randint(10, 499), rng.randint(10, 499)
            gold = str(a + b)
            given = str(a + b + rng.randint(1, 9)) if i in wrong else gold
            question = f"Item {i:03d}: {context}; what is {a} plus {b}?"
            reply = (f"Adding the two values. Answer: {given}" if tier == "marker"
                     else f"Adding {a} and {b} gives {given}")
        questions.append({"question": question, "answer": gold})
        answers[question] = reply
        expected.append({"extracted": given, "correct": i not in wrong})
    _write_jsonl(out_dir / "questions.jsonl", questions)
    (out_dir / "stub_answers.json").write_text(json.dumps(answers), encoding="utf-8")
    return {
        "prompt": "(http) " + words(rng, 30),
        "expected": expected,
        "accuracy": (HTTP_QUESTIONS - HTTP_WRONG) / HTTP_QUESTIONS,
    }
