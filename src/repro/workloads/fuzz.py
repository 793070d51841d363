"""A seeded random MJ program generator for differential stress testing.

Generates small multithreaded programs with a controlled shape:

* one shared data class with several fields, several lock objects;
* 2–3 worker threads whose bodies mix plain field accesses, accesses
  under randomly chosen sync blocks, bounded loops, branches, local
  arithmetic, and thread-local allocations;
* ``main`` initializes everything, starts the workers, joins them, and
  reads the shared state afterwards.

Structural guarantees, so every generated program is usable in
property tests:

* **termination** — all loops are counter-bounded, there is no
  recursion;
* **deadlock freedom** — nested sync blocks always acquire locks in
  ascending lock-index order (a global lock order);
* **determinism** — no input, no time; a given (program seed, schedule
  seed) pair fully determines the execution.

With ``sync_vocab=True`` the generator additionally emits condition
synchronization in two deadlock-free shapes:

* **flag handshakes** — a setter worker runs ``sync (lockK) { s.gH =
  1; notifyall lockK; }`` and a waiter runs the guarded-wait idiom on
  the same dedicated flag field.  Every setter publishes its flags
  *before* executing any blocking statement of its own, so every
  guarded wait terminates (the guard re-check absorbs lost notifies);
* **cyclic barriers** — ``barrier lock0, n_workers;`` between the
  top-level phases of *every* worker, the same count per worker, never
  under a held monitor, so every generation trips.

``handoff_bias=True`` (implies ``sync_vocab``) additionally threads a
dedicated ``Token`` object through each handshake: the setter writes
``token.v`` unlocked right before the notify, the waiter makes its
first ``token.v`` access right after the wait, and the setter re-reads
``token.v`` at the end of its body.  Because nothing else touches the
token, its ownership travels exclusively along condition edges —
the first-access-handoff shape that makes the deferral-miss classes
(and the §7.2 ownership-timing territory) reachable by fuzzing.

``calls_vocab=True`` gives every worker class helper methods ``h0``,
``h1``, ... ``hK(s, acc)`` whose bodies mix the plain statements with
early ``return`` statements guarded by ``if``, placed inside loops,
branches and sync blocks, and end in a ``return``.  Call results feed
local assignments, the call-fold shape ``acc = acc + this.hK(s,
acc)``, expression statements and returned values (``return
this.hJ(s, acc)``).  Termination holds because a helper calls only
lower-numbered helpers; deadlock freedom because a call never sits
inside a sync block of its caller, so every helper starts with no
monitor held.

All new random draws are gated behind ``sync_vocab`` and
``calls_vocab`` so programs generated without them are byte-identical
to those of older revisions.

The generator is used by ``tests/property/test_fuzz.py`` to check, on
hundreds of programs: interpreter robustness, loop-peeling semantics
preservation, schedule determinism, and the Definition 1 reporting
guarantee against the FullRace oracle on live event streams.
"""

from __future__ import annotations

import random


class ProgramFuzzer:
    """Generates one random MJ program per seed."""

    def __init__(
        self,
        seed: int,
        n_workers: int = 2,
        n_fields: int = 3,
        n_locks: int = 2,
        max_stmts: int = 6,
        max_depth: int = 2,
        sync_vocab: bool = False,
        handoff_bias: bool = False,
        calls_vocab: bool = False,
    ):
        self._rng = random.Random(seed)
        self.n_workers = min(max(n_workers, 1), 4)
        self.n_fields = min(max(n_fields, 1), 5)
        self.n_locks = min(max(n_locks, 1), 4)
        self.max_stmts = max_stmts
        self.max_depth = max_depth
        self.handoff_bias = bool(handoff_bias)
        self.sync_vocab = bool(sync_vocab) or self.handoff_bias
        self._temp = 0
        self._handshakes: list = []
        self._n_barriers = 0
        self.calls_vocab = bool(calls_vocab)
        #: Helper methods of the worker being generated, and the index
        #: of the helper whose body is being generated (None in run()).
        self._n_helpers = 0
        self._helper = None

    # ------------------------------------------------------------------

    def generate(self) -> str:
        fields = [f"f{i}" for i in range(self.n_fields)]
        self._plan_sync(fields)
        parts = [self._main(), self._shared(fields), "class LockObj { }"]
        for worker in range(self.n_workers):
            parts.append(self._worker(worker, fields))
        parts.append("class Pad { field v; }")
        if self.handoff_bias:
            parts.append("class Token { field v; }")
        return "\n\n".join(parts)

    # ------------------------------------------------------------------

    def _plan_sync(self, fields) -> None:
        """Draw the program-wide condition-sync skeleton.

        Handshakes get dedicated flag fields (``g0``, ``g1``, ...) no
        other statement touches, so a flag set once stays set and every
        guarded wait is guaranteed to terminate.  The barrier count is
        global: every worker crosses the same barriers in the same
        order, or none would trip.
        """
        self._handshakes = []
        self._n_barriers = 0
        if not self.sync_vocab:
            return
        if self.n_workers >= 2:
            for index in range(self._rng.randint(1, 2)):
                setter = self._rng.randrange(self.n_workers)
                waiter = self._rng.choice(
                    [w for w in range(self.n_workers) if w != setter]
                )
                self._handshakes.append(
                    {
                        "flag": f"g{index}",
                        "token": f"t{index}",
                        "setter": setter,
                        "waiter": waiter,
                        "lock": self._rng.randrange(self.n_locks),
                    }
                )
        self._n_barriers = self._rng.randint(0, 2)

    def _main(self) -> str:
        lines = ["    var shared = new Shared();"]
        for i in range(self.n_fields):
            lines.append(f"    shared.f{i} = {self._rng.randint(0, 9)};")
        for handshake in self._handshakes:
            lines.append(f"    shared.{handshake['flag']} = 0;")
        if self.handoff_bias:
            for handshake in self._handshakes:
                lines.append(
                    f"    shared.{handshake['token']} = new Token();"
                )
        for i in range(self.n_locks):
            lines.append(f"    var lock{i} = new LockObj();")
        lock_args = ", ".join(f"lock{i}" for i in range(self.n_locks))
        for w in range(self.n_workers):
            lines.append(f"    var w{w} = new Worker{w}(shared, {lock_args});")
        for w in range(self.n_workers):
            lines.append(f"    start w{w};")
        for w in range(self.n_workers):
            lines.append(f"    join w{w};")
        for i in range(self.n_fields):
            lines.append(f"    print shared.f{i};")
        body = "\n".join(lines)
        return f"class Main {{\n  static def main() {{\n{body}\n  }}\n}}"

    def _shared(self, fields) -> str:
        names = list(fields) + [h["flag"] for h in self._handshakes]
        if self.handoff_bias:
            names += [h["token"] for h in self._handshakes]
        decls = "\n".join(f"  field {f};" for f in names)
        return f"class Shared {{\n{decls}\n}}"

    def _handshake_set(self, handshake, indent: str) -> str:
        lock, flag = handshake["lock"], handshake["flag"]
        lines = ""
        if self.handoff_bias:
            # Unlocked write right before the publish: the last owner
            # access the condition edge hands off.
            lines += f"{indent}s.{handshake['token']}.v = acc + 1;\n"
        lines += (
            f"{indent}sync (this.lock{lock}) {{\n"
            f"{indent}  s.{flag} = 1;\n"
            f"{indent}  notifyall this.lock{lock};\n"
            f"{indent}}}\n"
        )
        return lines

    def _handshake_wait(self, handshake, indent: str) -> str:
        lock, flag = handshake["lock"], handshake["flag"]
        lines = (
            f"{indent}sync (this.lock{lock}) {{\n"
            f"{indent}  while (s.{flag} != 1) {{\n"
            f"{indent}    wait this.lock{lock};\n"
            f"{indent}  }}\n"
            f"{indent}}}\n"
        )
        if self.handoff_bias:
            # Unlocked first access right after the wait returns.
            lines += (
                f"{indent}s.{handshake['token']}.v = "
                f"s.{handshake['token']}.v + 1;\n"
            )
        return lines

    def _worker(self, index: int, fields) -> str:
        lock_fields = "\n".join(
            f"  field lock{i};" for i in range(self.n_locks)
        )
        lock_params = ", ".join(f"l{i}" for i in range(self.n_locks))
        lock_inits = "\n".join(
            f"    this.lock{i} = l{i};" for i in range(self.n_locks)
        )
        self._temp = 0
        helpers = self._helpers(fields) if self.calls_vocab else ""
        body = self._worker_body(index, fields)
        return (
            f"class Worker{index} {{\n"
            f"  field s;\n{lock_fields}\n"
            f"  def init(shared, {lock_params}) {{\n"
            f"    this.s = shared;\n{lock_inits}\n  }}\n"
            f"{helpers}"
            f"  def run() {{\n"
            f"    var s = this.s;\n"
            f"    var acc = 0;\n"
            f"{body}"
            f"  }}\n}}"
        )

    def _helpers(self, fields) -> str:
        """The helper methods ``h0..hK`` of one worker class; helper
        ``K`` may call only ``h0..h(K-1)``."""
        self._n_helpers = self._rng.randint(1, 3)
        parts = []
        for helper in range(self._n_helpers):
            self._helper = helper
            body = self._block(fields, depth=1, min_lock=0, indent="    ")
            parts.append(
                f"  def h{helper}(s, acc) {{\n{body}"
                f"    return {self._return_value(fields)};\n  }}\n"
            )
        self._helper = None
        return "".join(parts)

    def _callee(self):
        """A helper the current method may call, or None."""
        limit = self._n_helpers if self._helper is None else self._helper
        if limit == 0:
            return None
        return f"this.h{self._rng.randrange(limit)}(s, acc)"

    def _return_value(self, fields) -> str:
        shape = self._rng.randrange(3)
        if shape == 1:
            return f"acc + s.{self._rng.choice(fields)}"
        callee = self._callee() if shape == 2 else None
        return callee if callee is not None else "acc"

    def _call(self, indent: str) -> str:
        callee = self._callee()
        shape = self._rng.randrange(3)
        if shape == 0:
            return f"{indent}var {self._fresh('c')} = {callee};\n"
        if shape == 1:
            return f"{indent}acc = acc + {callee};\n"
        return f"{indent}{callee};\n"

    def _worker_body(self, index: int, fields) -> str:
        """The run() body: handshake publishes first, then fuzzed
        phases separated by global barriers, with guarded waits at the
        head of a random phase.

        Ordering is the deadlock-freedom argument: a worker publishes
        every flag it owns before it can block on a wait or a barrier,
        so all flags are eventually set, all waits return, and every
        worker reaches every barrier.
        """
        if not self.sync_vocab:
            return self._block(fields, depth=0, min_lock=0, indent="    ")
        sets = [
            self._handshake_set(handshake, "    ")
            for handshake in self._handshakes
            if handshake["setter"] == index
        ]
        waits = [
            self._handshake_wait(handshake, "    ")
            for handshake in self._handshakes
            if handshake["waiter"] == index
        ]
        phases = [
            self._block(fields, depth=0, min_lock=0, indent="    ")
            for _ in range(self._n_barriers + 1)
        ]
        for wait in waits:
            slot = self._rng.randrange(len(phases))
            phases[slot] = wait + phases[slot]
        trailer = ""
        if self.handoff_bias:
            # The setter re-reads its token after everything else: when
            # the waiter's post-wait write is condition-ordered between
            # the setter's unlocked write and this read, the ownership
            # handoff chain closes and the deferral-miss shapes appear.
            trailer = "".join(
                f"    var d{handshake['flag'][1:]} = "
                f"s.{handshake['token']}.v;\n"
                for handshake in self._handshakes
                if handshake["setter"] == index
            )
        barrier = f"    barrier this.lock0, {self.n_workers};\n"
        return "".join(sets) + barrier.join(phases) + trailer

    # ------------------------------------------------------------------

    def _fresh(self, prefix: str) -> str:
        self._temp += 1
        return f"{prefix}{self._temp}"

    def _block(self, fields, depth: int, min_lock: int, indent: str) -> str:
        lines = []
        for _ in range(self._rng.randint(1, self.max_stmts)):
            lines.append(self._stmt(fields, depth, min_lock, indent))
        return "".join(lines)

    def _stmt(self, fields, depth: int, min_lock: int, indent: str) -> str:
        choices = ["read", "write", "rmw", "local", "pad"]
        if depth < self.max_depth:
            choices += ["sync", "loop", "branch"]
        if self.calls_vocab:
            # A call never sits under a monitor (see the module
            # docstring); inside a helper, only at its top level, so
            # one helper call costs a bounded number of nested calls.
            helper = self._helper
            if min_lock == 0 and (helper is None or (depth == 1 and helper > 0)):
                choices.append("call")
            if helper is not None:
                choices.append("early")
        kind = self._rng.choice(choices)
        field = self._rng.choice(fields)

        if kind == "read":
            temp = self._fresh("r")
            return f"{indent}var {temp} = s.{field};\n"
        if kind == "write":
            return f"{indent}s.{field} = acc + {self._rng.randint(0, 9)};\n"
        if kind == "rmw":
            return f"{indent}s.{field} = s.{field} + 1;\n"
        if kind == "local":
            return f"{indent}acc = acc * 2 + {self._rng.randint(0, 5)};\n"
        if kind == "pad":
            temp = self._fresh("p")
            return (
                f"{indent}var {temp} = new Pad();\n"
                f"{indent}{temp}.v = acc;\n"
                f"{indent}acc = acc + {temp}.v;\n"
            )
        if kind == "sync" and min_lock < self.n_locks:
            lock = self._rng.randint(min_lock, self.n_locks - 1)
            inner = self._block(fields, depth + 1, lock + 1, indent + "  ")
            return (
                f"{indent}sync (this.lock{lock}) {{\n{inner}{indent}}}\n"
            )
        if kind == "loop":
            counter = self._fresh("i")
            bound = self._rng.randint(1, 4)
            inner = self._block(fields, depth + 1, min_lock, indent + "  ")
            return (
                f"{indent}var {counter} = 0;\n"
                f"{indent}while ({counter} < {bound}) {{\n"
                f"{inner}"
                f"{indent}  {counter} = {counter} + 1;\n"
                f"{indent}}}\n"
            )
        if kind == "branch":
            then_block = self._block(fields, depth + 1, min_lock, indent + "  ")
            else_block = self._block(fields, depth + 1, min_lock, indent + "  ")
            return (
                f"{indent}if (acc % 2 == 0) {{\n{then_block}{indent}}} "
                f"else {{\n{else_block}{indent}}}\n"
            )
        if kind == "call":
            return self._call(indent)
        if kind == "early":
            value = self._return_value(fields)
            return (
                f"{indent}if (acc % 3 == {self._rng.randint(0, 2)}) {{\n"
                f"{indent}  return {value};\n{indent}}}\n"
            )
        # Fallback (e.g. sync with no locks left in the order).
        return f"{indent}acc = acc + 1;\n"


def generate_program(seed: int, **kwargs) -> str:
    """Generate one random MJ program (see :class:`ProgramFuzzer`)."""
    return ProgramFuzzer(seed, **kwargs).generate()
