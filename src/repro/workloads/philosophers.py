"""``philosophers`` — dining philosophers, a nested-lock workload.

Each philosopher takes two forks with nested ``sync`` blocks.  Two
variants:

* **naive** (``ordered=False``): every philosopher takes the left fork
  then the right — the classic circular lock order.  Most schedules
  complete anyway (quanta are long enough for a philosopher to grab
  both forks); a schedule that does deadlock ends in the scheduler's
  ``DeadlockError``;
* **ordered** (``ordered=True``): the standard fix — philosophers take
  the lower-numbered fork first, so no schedule deadlocks.

No dataraces either way: the eating counters are per-philosopher and
the forks are only ever used as monitors.  EXPERIMENTS.md (Section 10)
records what a lock-order deadlock analysis reported on both variants.
"""

from __future__ import annotations

from .base import WorkloadSpec


def source(scale: int = 3, ordered: bool = False) -> str:
    """``scale`` = number of philosophers (>= 2); meals fixed at 2."""
    n = max(2, scale)
    meals = 2
    if ordered:
        pick = """
    var first = this.left;
    var second = this.right;
    if (this.rightIndex < this.leftIndex) {
      first = this.right;
      second = this.left;
    }"""
    else:
        pick = """
    var first = this.left;
    var second = this.right;"""

    setup = []
    for i in range(n):
        setup.append(f"    var p{i} = new Philosopher("
                     f"forks[{i}], forks[{(i + 1) % n}], {i}, {(i + 1) % n});")
    starts = "\n".join(f"    start p{i};" for i in range(n))
    joins = "\n".join(f"    join p{i};" for i in range(n))
    meals_sum = " + ".join(f"p{i}.meals" for i in range(n))

    return f"""
// Dining philosophers ({'ordered forks' if ordered else 'naive'}).
class Main {{
  static def main() {{
    var forks = newarray({n});
    var i = 0;
    while (i < {n}) {{
      forks[i] = new Fork();
      i = i + 1;
    }}
{chr(10).join(setup)}
{starts}
{joins}
    print "meals=" + ({meals_sum});
  }}
}}

class Fork {{ }}

class Philosopher {{
  field left;
  field right;
  field leftIndex;
  field rightIndex;
  field meals;
  def init(left, right, leftIndex, rightIndex) {{
    this.left = left;
    this.right = right;
    this.leftIndex = leftIndex;
    this.rightIndex = rightIndex;
    this.meals = 0;
  }}
  def dine() {{{pick}
    sync (first) {{
      sync (second) {{
        this.meals = this.meals + 1;
      }}
    }}
  }}
  def run() {{
    var round = 0;
    while (round < {meals}) {{
      dine();
      round = round + 1;
    }}
  }}
}}
"""


SPEC = WorkloadSpec(
    name="philosophers",
    description="Dining philosophers (naive fork order: feasible deadlock)",
    source=lambda scale: source(scale, ordered=False),
    default_scale=3,
    threads=4,
    cpu_bound=False,
    expected_full_objects=0,
    expected_racy_fields=frozenset(),
)

SPEC_ORDERED = WorkloadSpec(
    name="philosophers-ordered",
    description="Dining philosophers with a global fork order (deadlock-free)",
    source=lambda scale: source(scale, ordered=True),
    default_scale=3,
    threads=4,
    cpu_bound=False,
    expected_full_objects=0,
    expected_racy_fields=frozenset(),
)
