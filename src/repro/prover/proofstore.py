"""Persistent, content-addressed storage of checked derivations.

Every proof obligation of the pipeline carries a stable key: the SHA-256
of a canonical rendering of (program AST, property, derivation-relevant
:class:`~repro.prover.engine.ProverOptions`, obligation part).  The store
is a directory of pickled :class:`StoreEntry` files, one per key, so
repeated ``verify``/``bench`` runs — and the incremental harness — reuse
checked subproofs across processes.

Canonicalization matters: ``repr`` of a ``frozenset`` (e.g. an NI
property's ``high_vars``) depends on ``PYTHONHASHSEED``, so
:func:`fingerprint` renders sets and dict keys in sorted order.  Two
processes therefore always agree on the key of the same obligation.

This module owns the key format.  :func:`render_program` renders each
AST subtree of a program once; the program digest
(:meth:`ProgramRender.digest`) and every fragment slice digest
(:func:`fragment_digests`) are composed from those renders, byte for
byte equal to :func:`digest` of the program and
:func:`dependency_digest` of each slice.  A
:class:`~repro.prover.engine.Verifier` holds one submission's render
and keys, so each is computed once.

Trust story (see DESIGN.md): the store is *outside* the trusted base.
Trace derivations loaded from the store are replayed through the
independent checker against the current abstraction before they are
accepted; NI records (whose search *is* the check) carry the checker
approval in-band (``StoreEntry.checked``) and are re-validated for
coverage by :func:`repro.prover.checker.ni_proof_complaints`.  A corrupt
or truncated entry is treated as a miss and re-proved, never trusted.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import pickle
import tempfile
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from .. import obs

#: Bump to invalidate every stored entry on a format change.
FORMAT_VERSION = 1


# ---------------------------------------------------------------------------
# Canonical fingerprints
# ---------------------------------------------------------------------------


def fingerprint(value: object) -> str:
    """A canonical, process-stable rendering of a value tree.

    Dataclasses render as ``Name(field=...)`` over their declared fields;
    dict items and set/frozenset members are emitted in sorted order so
    the result never depends on ``PYTHONHASHSEED`` or insertion order.
    """
    parts: List[str] = []
    _render(value, parts.append)
    return "".join(parts)


def _render(value: object, emit: Callable[[str], None]) -> None:
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        emit(type(value).__name__)
        emit("(")
        for field_ in dataclasses.fields(value):
            emit(field_.name)
            emit("=")
            _render(getattr(value, field_.name), emit)
            emit(",")
        emit(")")
    elif isinstance(value, dict):
        emit("{")
        for key in sorted(value, key=fingerprint):
            _render(key, emit)
            emit(":")
            _render(value[key], emit)
            emit(",")
        emit("}")
    elif isinstance(value, (set, frozenset)):
        emit("{")
        for item in sorted(fingerprint(member) for member in value):
            emit(item)
            emit(",")
        emit("}")
    elif isinstance(value, tuple):
        emit("(")
        for item in value:
            _render(item, emit)
            emit(",")
        emit(")")
    elif isinstance(value, list):
        emit("[")
        for item in value:
            _render(item, emit)
            emit(",")
        emit("]")
    else:
        emit(repr(value))


def _sha256(material: str) -> str:
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


def digest(value: object) -> str:
    """SHA-256 hex digest of :func:`fingerprint` of ``value``."""
    return _sha256(fingerprint(value))


def obligation_key(program_digest: str, prop: object, options: object,
                   part: Optional[Tuple[str, str]] = None) -> str:
    """The content address of one proof obligation.

    ``program_digest`` is :func:`digest` of the program AST (computed
    once per program and shared by every obligation); ``part`` names a
    sub-obligation within the property — ``None`` for a whole trace
    property or the NI base condition, an exchange key ``(ctype, msg)``
    for one NI exchange.  Only the derivation-relevant options
    (``syntactic_skip``, which changes the shape of the emitted proof)
    participate.
    """
    return rendered_key(program_digest, fingerprint(prop), options, part)


def rendered_key(scope_digest: str, prop_render: str, options: object,
                 part: object) -> str:
    """:func:`obligation_key` from the property's :func:`fingerprint`,
    so a caller keying many parts of one property renders it once."""
    return _sha256("\x1f".join([
        f"reflex-obligation-v{FORMAT_VERSION}",
        scope_digest,
        prop_render,
        f"syntactic_skip={getattr(options, 'syntactic_skip', True)}",
        f"part={part!r}",
    ]))


#: A fragment slice identifier: ``None`` for the base case (declarations
#: + Init), an exchange key ``(ctype, msg)`` for one handler's slice.
Part = Optional[Tuple[str, str]]


def dependency_digest(program: object, part: Part) -> str:
    """Digest of the program slice one trace-proof *fragment* depends on.

    Fragment keys (see ``Verifier.fragment_keys``) substitute this for
    the whole-program digest so that editing one handler only re-keys the
    fragments whose slice actually changed: the base case depends on the
    declarations and the Init block; an exchange's inductive case depends
    on those plus its own handler.

    This is the reference definition: :func:`fragment_digests` computes
    the same digests for every slice at once, from one render of each
    subtree.

    This is an *invalidation heuristic*, not a soundness boundary — a
    fragment may also lean on other handlers through secondary-induction
    invariants, which is why every fragment loaded from the store is
    replayed through the independent checker against the current
    abstraction before it is accepted (and re-proved when rejected).
    """
    components = getattr(program, "components", ())
    messages = getattr(program, "messages", ())
    init = getattr(program, "init", None)
    name = getattr(program, "name", "")
    if part is None:
        scope: Tuple[object, ...] = (
            "scope", "base", name, components, messages, init,
        )
    else:
        ctype, msg = part
        scope = (
            "scope", ctype, msg, name, components, messages, init,
            program.handler_for(ctype, msg),
        )
    return digest(scope)


@dataclasses.dataclass(frozen=True)
class ProgramRender:
    """Each AST subtree of one program rendered once by :func:`fingerprint`.

    The program digest and every slice digest are composed from these
    renders, so a submission renders its declarations, Init and each
    handler exactly once however many keys it needs.
    """

    #: the program's class name, which its render opens with
    kind: str
    #: ``(field name, render)`` in the program's declared field order
    fields: Tuple[Tuple[str, str], ...]
    #: every exchange key with its handler's render (``None`` unhandled)
    exchanges: Tuple[Tuple[Tuple[str, str], str], ...]

    def digest(self) -> str:
        """:func:`digest` of the program."""
        return _sha256(self.kind + "(" + "".join(
            f"{name}={value}," for name, value in self.fields
        ) + ")")


def render_program(program: object) -> ProgramRender:
    """Render ``program``'s name, declarations, Init and each handler."""
    handlers = [fingerprint(handler) for handler in program.handlers]
    dispatched: Dict[Tuple[str, str], str] = {}
    for handler, render in zip(program.handlers, handlers):
        # ``Program.handler_for`` dispatches to the first match.
        dispatched.setdefault((handler.ctype, handler.msg), render)
    rendered = {
        "name": repr(program.name),
        "components": fingerprint(program.components),
        "messages": fingerprint(program.messages),
        "init": fingerprint(program.init),
        "handlers": "(" + "".join(h + "," for h in handlers) + ")",
    }
    return ProgramRender(
        kind=type(program).__name__,
        fields=tuple((f.name, rendered[f.name])
                     for f in dataclasses.fields(program)),
        exchanges=tuple((part, dispatched.get(part, "None"))
                        for part in program.exchange_keys()),
    )


def fragment_digests(render: ProgramRender) -> Dict[Part, str]:
    """The :func:`dependency_digest` of every fragment slice of the
    rendered program, composed from its subtree renders.

    One entry for the base slice (``None`` → declarations + Init) plus
    one per exchange of the kernel.  Two submissions that differ in one
    handler differ exactly in that handler's entry, which is what lets a
    session — or the serve daemon — decide *what changed* without
    verifying anything.
    """
    fields = dict(render.fields)
    # The slice tuples' shared members, already rendered.
    shared = "".join(fields[name] + "," for name in
                     ("name", "components", "messages", "init"))
    out: Dict[Part, str] = {None: _sha256(f"('scope','base',{shared})")}
    for (ctype, msg), handler in render.exchanges:
        out[(ctype, msg)] = _sha256(
            f"('scope',{ctype!r},{msg!r},{shared}{handler},)"
        )
    return out


def trace_fragment_keys(slices: Dict[Part, str], prop_render: str,
                        options: object) -> Dict[Part, str]:
    """Every trace-proof fragment key of one property: its
    :func:`fingerprint` ``prop_render`` scoped by each slice digest.
    The ``trace-frag`` tag keeps them distinct from every
    whole-obligation key."""
    return {
        part: rendered_key(slice_digest, prop_render, options,
                           ("trace-frag",) + (part or ()))
        for part, slice_digest in slices.items()
    }


def derivation_key(proof: object) -> str:
    """The content address of a derivation (any proof object).

    Bitwise-identical derivations — across cold/warm-store runs — have
    identical keys; the differential tests assert exactly
    that.
    """
    return digest(proof)


# ---------------------------------------------------------------------------
# The on-disk store
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class StoreEntry:
    """One stored derivation: the keyed payload plus in-band approval.

    ``checked`` records whether the independent checker approved the
    payload when it was produced; loaders that skip re-validation (e.g.
    ``check_proofs=False``) only accept approved entries.
    """

    key: str
    kind: str  # "trace" | "ni-base" | "ni-exchange" | "trace-base" | "trace-step"
    payload: object
    checked: bool


class ProofStore:
    """A directory of pickled :class:`StoreEntry` files, one per key.

    Corruption tolerant: an unreadable, truncated or mismatched entry is
    counted (``store.corrupt``), unlinked best-effort, and reported as a
    miss — the obligation is simply re-proved.  Writes are atomic
    (temp file + ``os.replace``) so concurrent workers never observe a
    partial entry.
    """

    def __init__(self, root: object) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        #: keys this process has already persisted *checked* — repeat
        #: puts (coalesced daemon batches, hot-result replays) are
        #: idempotent no-ops instead of redundant temp-file churn
        self._seen: set = set()

    def path_for(self, key: str) -> Path:
        """The file backing ``key``."""
        return self.root / f"{key}.proof"

    def get(self, key: str) -> Optional[StoreEntry]:
        """Load the entry for ``key``; ``None`` on miss or corruption."""
        path = self.path_for(key)
        try:
            with open(path, "rb") as handle:
                stat = os.fstat(handle.fileno())
                raw = handle.read()
        except OSError:
            obs.incr("store.miss")
            return None
        try:
            entry = pickle.loads(raw)
            if not isinstance(entry, StoreEntry) or entry.key != key:
                raise ValueError("store entry does not match its key")
        except Exception:
            obs.incr("store.corrupt")
            self._unlink_if_same(path, stat)
            return None
        obs.incr("store.hit")
        return entry

    @staticmethod
    def _unlink_if_same(path: Path, stat: os.stat_result) -> None:
        """Remove ``path`` only while it is still the very file object we
        just read (matched by device + inode).

        A blind ``unlink`` here races with concurrent writers: between
        reading a truncated entry and removing it, another worker may
        have atomically replaced the file with a fresh *good* entry — a
        blind unlink would then destroy that worker's write and every
        later reader re-proves an obligation the store already held.
        """
        try:
            current = os.stat(path)
            if (current.st_dev, current.st_ino) == (stat.st_dev,
                                                    stat.st_ino):
                path.unlink()
        except OSError:
            pass

    def put(self, entry: StoreEntry) -> None:
        """Atomically persist ``entry``, idempotently under concurrency.

        Best effort: a full disk, permission error or unpicklable
        payload never fails the proof that produced it — the failed
        write is counted as ``store.write_error`` and the run continues
        without the cache entry.  The temp file and its descriptor are
        reclaimed on every failure path.

        Multi-writer discipline: a key this process already persisted
        checked is skipped outright, and an *unchecked* entry never
        lands on a key that already has a file — replacing a checked
        entry with an unchecked one would downgrade what
        ``check_proofs=False`` loaders may trust.  Both skips count as
        ``store.put_skipped``.
        """
        if entry.key in self._seen:
            obs.incr("store.put_skipped")
            return
        if not entry.checked and self.path_for(entry.key).exists():
            obs.incr("store.put_skipped")
            return
        try:
            if os.environ.get("REPRO_CHAOS_STORE_FULL"):
                # Chaos instrumentation (harness/chaos_serve.py): behave
                # exactly as a full disk would at the first write.
                raise OSError(28, "No space left on device (injected)")
            handle, tmp = tempfile.mkstemp(
                dir=str(self.root), suffix=".tmp"
            )
        except OSError:
            obs.incr("store.write_error")
            return
        try:
            stream = os.fdopen(handle, "wb")
        except Exception:  # noqa: BLE001 - the raw fd must not leak
            os.close(handle)
            obs.incr("store.write_error")
            self._discard(tmp)
            return
        try:
            with stream:
                pickle.dump(entry, stream)
            os.replace(tmp, self.path_for(entry.key))
        except Exception:  # noqa: BLE001 - pickle errors are not OSErrors
            obs.incr("store.write_error")
            self._discard(tmp)
            return
        obs.incr("store.put")
        if entry.checked:
            self._seen.add(entry.key)

    @staticmethod
    def _discard(tmp: str) -> None:
        """Best-effort removal of a failed write's temp file."""
        try:
            os.unlink(tmp)
        except OSError:
            pass

    def sweep_temps(self, older_than: float = 0.0) -> int:
        """Reclaim ``*.tmp`` files a crashed writer left behind.

        ``put`` discards its temp file on every failure path, but a
        process killed mid-write (SIGKILL, OOM, power loss) cannot —
        over a daemon's lifetime orphans would accumulate forever.
        Removes temp files last modified more than ``older_than``
        seconds ago; returns how many.  Deleting a *live* writer's temp
        is harmless (its ``os.replace`` fails and is counted as a
        ``store.write_error``; the proof itself is unaffected), so the
        default sweeps everything.
        """
        cutoff = time.time() - older_than
        swept = 0
        for path in self.root.glob("*.tmp"):
            try:
                if path.stat().st_mtime <= cutoff:
                    path.unlink()
                    swept += 1
            except OSError:
                pass
        if swept:
            obs.incr("store.temp_swept", swept)
        return swept

    def clear(self) -> None:
        """Remove every entry (and any orphaned temp files)."""
        for pattern in ("*.proof", "*.tmp"):
            for path in self.root.glob(pattern):
                try:
                    path.unlink()
                except OSError:
                    pass
        self._seen.clear()

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*.proof"))
