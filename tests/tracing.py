"""One memory gate's measurement: what a call allocates, traced by ``tracemalloc``."""

import tracemalloc


def traced(call) -> tuple:
    """``call()``'s result, the memory it still holds when it returns and its peak, both above its start.

    Only allocations made during the call are traced, so memory held before
    it, such as the input it reads, counts in neither figure.
    """
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = call()
        held, peak = tracemalloc.get_traced_memory()
        return result, held - base, peak - base
    finally:
        tracemalloc.stop()
