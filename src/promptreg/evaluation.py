"""Dataset loading, answer extraction, and strict exact-match scoring.

Extraction is a three-tier rule: text after the last ``answer:`` marker,
matched in any ASCII letter case (``Answer:``, ``ANSWER:``), else the last
number-like token, else the whole trimmed output. Both sides of a match pass
through the same normalizer, which trims, collapses each whitespace run to one
space, strips any trailing mix of spaces and ``.,;:!?``, and canonicalizes
plain numeric strings (``007`` and ``7.0`` are ``7``).
"""

from __future__ import annotations

import math
import re
from concurrent.futures import Executor, Future, ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Callable, Optional

from .errors import ConfigError, DatasetError
from .gateway import ChatRequest, Gateway, Role
from .jsonl import iter_jsonl
from .metrics import PromptVersion

# Through the last ``answer:`` in any ASCII letter case.
_THROUGH_MARKER = re.compile(r".*answer:", re.I | re.A | re.S).match
_NUMBER_RE = re.compile(r"[-+]?\d+(?:\.\d+)?")
_PLAIN_NUMBER_RE = re.compile(r"[-+]?\d+(?:\.\d+)?$")
_TRAILING_PUNCT = ".,;:!?"


@dataclass(frozen=True)
class Sample:
    question: str
    answer: str

    # Not a field, so asdict and equality ignore it.
    @cached_property
    def normalized_answer(self) -> str:
        return normalize_answer(self.answer)


@dataclass(frozen=True)
class SampleResult:
    correct: bool
    extracted: str
    raw_output: str


@dataclass(frozen=True)
class EvalReport:
    dataset: str
    engine: str
    prompt_version: int
    accuracy: float
    per_sample: tuple[SampleResult, ...]


def load_dataset(path: str | Path, data: Optional[bytes] = None) -> list[Sample]:
    """Parse a JSONL file of {"question", "answer"} records, order-preserving;
    from ``data``, if given, the file's bytes already read."""
    samples: list[Sample] = []
    for number, record in iter_jsonl(path, "dataset", DatasetError, data):
        for fieldname in ("question", "answer"):
            if fieldname not in record:
                raise DatasetError(
                    f"dataset {path}: line {number}: missing field {fieldname}"
                )
            value = record[fieldname]
            if (type(value) not in (str, int, float)
                    or type(value) is float and not math.isfinite(value)):
                raise DatasetError(
                    f"dataset {path}: line {number}: field {fieldname} is "
                    f"{value!r}, not text or a number"
                )
            if not str(value):
                raise DatasetError(
                    f"dataset {path}: line {number}: empty field {fieldname}"
                )
        samples.append(
            Sample(question=str(record["question"]), answer=str(record["answer"]))
        )
    if not samples:
        raise DatasetError(f"dataset is empty: {path}")
    return samples


def _canonical_number(text: str) -> str:
    sign = ""
    body = text
    if body and body[0] in "+-":
        sign = "-" if body[0] == "-" else ""
        body = body[1:]
    if "." in body:
        integer, fraction = body.split(".", 1)
        fraction = fraction.rstrip("0")
    else:
        integer, fraction = body, ""
    integer = integer.lstrip("0") or "0"
    result = integer + ("." + fraction if fraction else "")
    if sign and result != "0":
        result = sign + result
    return result


def normalize_answer(text: str) -> str:
    """Trim, collapse whitespace, strip trailing punctuation, canonicalize numbers."""
    # Stripped and collapsed, so the only whitespace left is single spaces,
    # and one strip of both sets reaches what alternating strips would.
    out = re.sub(r"\s+", " ", text.strip()).rstrip(_TRAILING_PUNCT + " ")
    if _PLAIN_NUMBER_RE.fullmatch(out):
        out = _canonical_number(out)
    return out


def extract_answer(raw_output: str) -> str:
    """Apply the marker / last-number / full-text extraction rule."""
    marked = _THROUGH_MARKER(raw_output)
    if marked:
        return normalize_answer(raw_output[marked.end():])
    numbers = _NUMBER_RE.findall(raw_output)
    if numbers:
        return normalize_answer(numbers[-1])
    return normalize_answer(raw_output)


class InlineExecutor(Executor):
    """Runs every task at once in the calling thread, in submission order.

    ``submit`` raises a task's exception itself instead of storing it in the
    future, so a failure stops the caller where it would without a pool.
    """

    map = map  # the builtin: no Future per call on the forward path

    def submit(self, fn, /, *args, **kwargs) -> Future:
        future: Future = Future()
        future.set_result(fn(*args, **kwargs))
        return future


def call_pool(cap: int) -> Executor:
    """The executor that LLM calls run on, used as a context manager.

    Above cap 1 it is a pool of ``cap`` threads, so at most ``cap`` tasks run
    at once; at cap 1 every task runs inline and in order. A cap below 1 is
    refused.
    """
    if cap < 1:
        raise ConfigError("concurrency_cap must be at least 1")
    return ThreadPoolExecutor(max_workers=cap) if cap > 1 else InlineExecutor()


def evaluate(
    prompt: PromptVersion,
    samples: list[Sample],
    gateway: Gateway,
    step: int = 0,
    concurrency_cap: int = 1,
    dataset_name: str = "",
    engine_name: str = "",
    pool: Optional[Executor] = None,
    on_queued: Optional[Callable[[], object]] = None,
) -> EvalReport:
    """Run one forward call per sample; results stay in dataset order.

    The calls run on ``pool`` when given, else on a ``call_pool`` of
    ``concurrency_cap`` opened for this evaluation. ``on_queued`` is called
    once the calls are queued, before their results are awaited; at cap 1
    nothing is queued ahead, so it runs before the first call.
    """
    if not samples:
        raise ValueError("dataset must be nonempty")

    def run_one(sample: Sample) -> SampleResult:
        request = ChatRequest(
            role=Role.FORWARD, system=prompt.text, user=sample.question, step=step
        )
        output = gateway.complete(request)
        # extract_answer normalizes, and normalizing twice changes nothing.
        extracted = extract_answer(output)
        return SampleResult(
            correct=extracted == sample.normalized_answer,
            extracted=extracted,
            raw_output=output,
        )

    opened = call_pool(concurrency_cap) if pool is None else nullcontext(pool)
    with opened as executor:
        results = executor.map(run_one, samples)
        if on_queued is not None:
            on_queued()
        results = list(results)
    accuracy = sum(r.correct for r in results) / len(results)
    return EvalReport(
        dataset=dataset_name,
        engine=engine_name,
        prompt_version=prompt.version,
        accuracy=accuracy,
        per_sample=tuple(results),
    )


def generalization_gap(report_ood: EvalReport, report_train: EvalReport) -> float:
    """Training-distribution accuracy minus OOD accuracy; positive is degradation."""
    if report_ood.prompt_version != report_train.prompt_version:
        raise ValueError(
            "generalization gap requires reports for the same prompt version"
        )
    return report_train.accuracy - report_ood.accuracy

