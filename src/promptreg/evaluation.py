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
import threading
from collections import deque
from concurrent.futures import Executor, Future, as_completed
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Callable, Iterator, Optional, TypeVar

from .errors import ConfigError, DatasetError
from .gateway import ChatRequest, Gateway, Role
from .jsonl import iter_jsonl
from .metrics import PromptVersion

# Through the last ``answer:`` in any ASCII letter case.
_THROUGH_MARKER = re.compile(r".*answer:", re.I | re.A | re.S).match
_NUMBER_RE = re.compile(r"[-+]?\d+(?:\.\d+)?")
_PLAIN_NUMBER_RE = re.compile(r"[-+]?\d+(?:\.\d+)?$")
_TRAILING_PUNCT = ".,;:!?"

T = TypeVar("T")


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
    prompt: str
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

    def slot(self, first: Callable[[], T]) -> nullcontext:
        """Calls made on the calling thread after ``first()``, whose result
        the block gets; inline, nothing runs beside them."""
        return nullcontext(first())

    def hold(self, held: bool = True) -> None:
        """Inline, no task waits in the background, so none is held."""


class CallPool(Executor):
    """At most ``cap`` tasks at once, on up to ``cap`` threads that share
    ``cap`` slots with the calling threads' ``slot`` blocks.

    A task queued with ``submit`` takes a free slot in submission order. One
    queued with ``submit_background`` takes a slot only when no other task
    waits and a free slot is left for each ``slot`` request, so it fills a
    slot that would otherwise stand idle, and none while ``hold`` is set.
    A thread is started per task submitted until there are ``cap``; at
    shutdown the hold is released and every task queued still runs.
    """

    def __init__(self, cap: int) -> None:
        self._cap = cap
        self._free = cap
        self._waiting = 0  # slot requests not yet served
        self._queues: tuple[deque, deque] = (deque(), deque())  # tasks, background
        self._threads: list[threading.Thread] = []
        self._closed = False
        self._held = False
        self._cond = threading.Condition()

    def submit(self, fn, /, *args, **kwargs) -> Future:
        return self._queue(0, fn, args, kwargs)

    def submit_background(self, fn, /, *args, **kwargs) -> Future:
        return self._queue(1, fn, args, kwargs)

    def _queue(self, queue: int, fn, args, kwargs) -> Future:
        future: Future = Future()
        with self._cond:
            if self._closed:
                raise RuntimeError("cannot schedule new futures after shutdown")
            self._queues[queue].append((future, fn, args, kwargs))
            if len(self._threads) < self._cap:
                thread = threading.Thread(target=self._work, daemon=True)
                thread.start()
                self._threads.append(thread)
            self._cond.notify_all()
        return future

    def _work(self) -> None:
        cond, (tasks, background) = self._cond, self._queues
        while True:
            with cond:
                while not (self._free and (tasks or background
                        and not self._held and self._free > self._waiting)):
                    if self._closed and not (tasks or background):
                        return
                    cond.wait()
                future, fn, args, kwargs = (tasks or background).popleft()
                self._free -= 1
            if future.set_running_or_notify_cancel():
                try:
                    result = fn(*args, **kwargs)
                except BaseException as exc:
                    future.set_exception(exc)
                else:
                    future.set_result(result)
            del future, fn, args, kwargs
            with cond:
                self._free += 1
                cond.notify_all()

    @contextmanager
    def slot(self, first: Callable[[], T]) -> Iterator[T]:
        """Hold a slot while the calling thread makes the block's calls,
        taken after ``first()``, a wait on earlier work, whose result the
        block gets. The slot is asked for before ``first`` runs, and a
        request is served before any background task, so none takes the
        slot that work frees."""
        cond = self._cond
        with cond:
            self._waiting += 1
        try:
            value = first()
            with cond:
                while not self._free:
                    cond.wait()
                self._free -= 1
        finally:
            with cond:
                self._waiting -= 1
                cond.notify_all()
        try:
            yield value
        finally:
            with cond:
                self._free += 1
                cond.notify_all()

    def hold(self, held: bool = True) -> None:
        """Start no background task until ``hold(False)`` or shutdown; other
        tasks and ``slot`` requests are served as before."""
        with self._cond:
            self._held = held and not self._closed
            self._cond.notify_all()

    def shutdown(self, wait: bool = True) -> None:
        with self._cond:
            self._closed = True
            self._held = False
            self._cond.notify_all()
        if wait:
            for thread in self._threads:
                thread.join()


def call_pool(cap: int) -> Executor:
    """The executor that LLM calls run on, used as a context manager.

    Above cap 1 it is a ``CallPool`` of ``cap`` slots; at cap 1 every task
    runs inline and in order. A cap below 1 is refused.
    """
    if cap < 1:
        raise ConfigError("concurrency_cap must be at least 1")
    return CallPool(cap) if cap > 1 else InlineExecutor()


class Decided:
    """A forward evaluation on a ``CallPool`` that is waited for only until
    ``decide(correct, remaining)`` gives its outcome, a bool: ``correct`` of
    the results landed so far are right, and ``remaining`` are yet to land.
    ``decide`` is first asked once every call is queued and ``on_queued``,
    if given, has returned, so it may read what ``on_queued`` sets; the
    results landed meanwhile are counted then. After that each result that
    lands asks it again until it gives an outcome.

    Its calls are queued as background work, behind any background calls
    queued before them. The pool task or the thread that decides puts the
    pool's background work on hold (``CallPool.hold``) before it publishes
    the outcome, so the unsent calls wait until the caller releases it.
    ``report`` waits for every call and gives the full report.
    """

    def __init__(self, pool: CallPool, run_one, samples: list[Sample],
                 decide: Callable[[int, int], Optional[bool]],
                 build: Callable[[list], EvalReport],
                 on_queued: Optional[Callable[[], object]] = None) -> None:
        self.outcome: Optional[bool] = None
        self._build = build
        tally = [0, len(samples)]  # correct, remaining
        lock = threading.Lock()
        asking = False

        def ask() -> None:  # under lock
            outcome = decide(*tally)
            if outcome is not None:
                pool.hold()
                self.outcome = outcome

        def gated(sample: Sample) -> SampleResult:
            result = run_one(sample)
            with lock:
                tally[0] += result.correct
                tally[1] -= 1
                if asking and self.outcome is None:
                    ask()
            return result

        self._futures = [pool.submit_background(gated, sample)
                         for sample in samples]
        try:
            if on_queued is not None:
                on_queued()
            with lock:
                asking = True
                ask()
            landing = as_completed(self._futures)
            while self.outcome is None:
                next(landing).result()
        except BaseException:
            for future in self._futures:
                future.cancel()
            raise

    def landed(self) -> bool:
        """Whether every call has landed."""
        return all(future.done() for future in self._futures)

    def report(self) -> EvalReport:
        """The full report, once every call has landed; a call's error
        raises."""
        return self._build([future.result() for future in self._futures])


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
    decide: Optional[Callable[[int, int], Optional[bool]]] = None,
) -> EvalReport | Decided:
    """Run one forward call per sample; results stay in dataset order.

    The calls run on ``pool`` when given, else on a ``call_pool`` of
    ``concurrency_cap`` opened for this evaluation. ``on_queued`` is called
    once the calls are queued, before their results are awaited; at cap 1
    nothing is queued ahead, so it runs before the first call. With
    ``decide``, ``pool`` must be a ``CallPool``, and the result is the
    ``Decided`` evaluation, returned once its outcome is known, with the
    pool's background work on hold for the caller to release; ``decide`` is
    first asked once every call is queued and ``on_queued`` has returned.
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

    def build(results: list[SampleResult]) -> EvalReport:
        return EvalReport(
            dataset=dataset_name,
            engine=engine_name,
            prompt=prompt.text,
            accuracy=sum(r.correct for r in results) / len(results),
            per_sample=tuple(results),
        )

    if decide is not None:
        return Decided(pool, run_one, samples, decide, build, on_queued)
    opened = call_pool(concurrency_cap) if pool is None else nullcontext(pool)
    with opened as executor:
        results = executor.map(run_one, samples)
        if on_queued is not None:
            on_queued()
        results = list(results)
    return build(results)


def generalization_gap(report_ood: EvalReport, report_train: EvalReport) -> float:
    """Training-distribution accuracy minus OOD accuracy; positive is degradation."""
    if report_ood.prompt != report_train.prompt:
        raise ValueError("generalization gap requires reports for the same prompt")
    return report_train.accuracy - report_ood.accuracy

