"""Output stages and the one-worker lane.

An ``OutputStage`` collects a command's output files in a temporary
directory and promotes them, with the manifest, atomically. ``fork_job``
is the package's one way to run work in another process: it forks a
worker that runs one job and sends back one report once the job has
finished, which ``Job.result()`` reads. Two callers use it: the stage's
``submit``, which overlaps a job with the parent's own computation, and
``embedstore``'s split reads, which decode the second half of a large
JSONL input while the parent decodes the first. ``StageLog`` logs the
seconds of each pipeline stage.

``pickle`` and ``signal`` are imported where they are used: the import
time of this module counts in every command.
"""

from __future__ import annotations

import json
import logging
import os
import shutil
import tempfile
import time
from pathlib import Path

from . import __version__
from .embedstore import parse_json_object, read_input
from .errors import WriterError

logger = logging.getLogger(__name__)


class OutputStage:
    """Collects output files in a temp dir and promotes them atomically.

    Used as a context manager: the stage is promoted when the block
    completes and discarded when it raises, so a failed command leaves no
    stage directory behind.

    ``submit(job)`` is the stage's worker lane. With ``overlap`` it runs
    ``job()`` through ``fork_job``, one job at a time, so the job overlaps
    the parent's own computation; ``result()`` on the returned handle waits
    for the job's report and re-raises its exception. ``promote`` and the
    next ``submit`` wait for a job whose result was not read; ``discard``
    kills a worker that is still running before it removes the stage.
    Without overlap, without ``os.fork`` (Windows), or when no worker can be
    forked, a job runs inline.
    """

    def __init__(self, out_dir: Path, overlap: bool = False):
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self._tmp = tempfile.mkdtemp(prefix=".stage-", dir=self.out_dir)
        self.manifest: dict[str, dict] = {}
        self._overlap = overlap and hasattr(os, "fork")
        self._job: Job | None = None  # the forked job that may still run

    def path(self, name: str) -> Path:
        return Path(self._tmp) / name

    def record(self, name: str, config_hash: str, seed: int,
               seeds: dict[str, int] | None = None) -> Path:
        """The stage path of ``name``, listed in the manifest with the seed
        that made it and, for an artifact that more than one seed shaped,
        ``seeds``: each of those config fields and its value."""
        entry = {"config_hash": config_hash, "seed": seed, "version": __version__}
        if seeds:
            entry["seeds"] = seeds
        self.manifest[name] = entry
        return self.path(name)

    def submit(self, job, name: str = "job") -> "Job":
        """Run ``job()``: in a worker once the previous job has finished, or
        inline without overlap or a worker. ``name`` labels the worker's log
        line."""
        if not self._overlap:
            return Job(name, job())
        self._wait()
        try:
            self._job = fork_job(job, name)
        except OSError:  # no process or memory to fork: the job runs inline
            return Job(name, job())
        return self._job

    def _wait(self) -> None:
        """Wait for the job, if any, and re-raise the exception it sent."""
        job, self._job = self._job, None
        if job is not None:
            job.result()

    def promote(self) -> None:
        self._wait()
        manifest_path = self.out_dir / "manifest.json"
        existing = {}
        if manifest_path.exists():
            existing = parse_json_object(read_input(manifest_path), f"{manifest_path}: manifest")
        existing.update(self.manifest)
        for name in self.manifest:
            os.replace(self.path(name), self.out_dir / name)
        tmp_manifest = Path(self._tmp) / "manifest.json"
        tmp_manifest.write_text(
            json.dumps(existing, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        os.replace(tmp_manifest, manifest_path)
        os.rmdir(self._tmp)

    def discard(self) -> None:
        job, self._job = self._job, None
        if job is not None:
            job.kill()
        shutil.rmtree(self._tmp, ignore_errors=True)

    def __enter__(self) -> "OutputStage":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            try:
                self.promote()
            except BaseException:
                self.discard()
                raise
        else:
            self.discard()


def fork_job(job, name: str) -> "Job":
    """Run ``job()`` in a forked worker process and return its handle.

    A fork shares the parent's memory copy-on-write and needs nothing
    pickled but the report, so a job may be any callable. Numpy's OpenBLAS
    is fork-safe, so a job may compute with numpy; a job must not depend on
    anything the parent does after the fork. An OSError of ``os.pipe`` or
    ``os.fork`` (no process or memory left) is raised with no pipe left
    open."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        os.close(read_fd)
        _work(write_fd, job)  # never returns
    os.close(write_fd)
    return Job(name, pid=pid, pipe=os.fdopen(read_fd, "rb"))


class Job:
    """The handle of a job: ``OutputStage.submit`` and ``fork_job`` return it.

    An inline job holds its value. A forked job holds the worker's pid and
    the read end of its pipe, on which the worker sends one pickled ``(ok,
    value or exception, seconds)`` report once the job has finished;
    ``seconds`` is the time the job took.
    """

    def __init__(self, name: str, value=None, pid: int | None = None, pipe=None):
        self.name = name
        self._value = value
        self._error: BaseException | None = None
        self._pid = pid
        self._pipe = pipe

    def result(self):
        """The job's value, or its exception re-raised, on every call. The
        first call on a forked job waits for the report and reaps the
        worker; a worker that died before it reported raises WriterError."""
        if self._pid is not None:
            report = self._receive()
            if report is None:
                self._error = self._died()
            else:
                self._reap()
                ok, payload, seconds = report
                if ok:
                    self._value = payload
                    logger.info("worker: %s took %.2f s", self.name, seconds)
                else:
                    self._error = payload
        if self._error is not None:
            raise self._error
        return self._value

    def kill(self) -> None:
        """Kill and reap the worker if it may still run."""
        if self._pid is not None:
            import signal

            os.kill(self._pid, signal.SIGKILL)
            self._reap()

    def _receive(self) -> tuple | None:
        """The worker's report, or None if it died before sending it."""
        import pickle

        try:
            return pickle.load(self._pipe)
        except Exception:  # end of pipe or a truncated report
            return None

    def _died(self) -> WriterError:
        pid = self._pid
        status = self._reap()
        return WriterError(f"worker process {pid} died before it finished "
                           f"(wait status {status})")

    def _reap(self) -> int:
        self._pipe.close()
        _, status = os.waitpid(self._pid, 0)
        self._pid = None
        return status


def _work(fd: int, job) -> None:
    """The body of a forked worker: runs the job, sends its one report
    through the pipe ``fd``, and exits without returning or flushing
    anything of the parent's."""
    import pickle

    status = 1  # 0 once the report is sent
    try:
        start = time.perf_counter()
        try:
            report = pickle.dumps((True, job(), time.perf_counter() - start))
        except BaseException as exc:
            report = _failure(exc, time.perf_counter() - start)
        with os.fdopen(fd, "wb") as pipe:
            pipe.write(report)
        status = 0
    finally:
        os._exit(status)


def _failure(exc: BaseException, seconds: float) -> bytes:
    """The report of a failed job. An exception that does not survive a
    pickle round trip goes as a ``RuntimeError`` carrying its text."""
    import pickle

    try:
        data = pickle.dumps((False, exc, seconds))
        pickle.loads(data)
    except Exception:
        data = pickle.dumps((False, RuntimeError(f"{type(exc).__name__}: {exc}"), seconds))
    return data


class StageLog:
    """Logs each pipeline stage as it starts, with the seconds the previous
    stage took. Logs go to stderr and never into an artifact."""

    def __init__(self):
        self._stage: str | None = None
        self._started = 0.0

    def next(self, stage: str) -> None:
        now = time.perf_counter()
        if self._stage is None:
            logger.info("pipeline: %s", stage)
        else:
            logger.info(
                "pipeline: %s (%s took %.2f s)", stage, self._stage, now - self._started
            )
        self._stage, self._started = stage, now
