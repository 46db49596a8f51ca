"""RPR011 fixture: what the reachability rule keeps and what it flags.

The test lints it with ``EXTERNAL_ROOTS`` set to ``called_by_example``
(an external root) and ``renamed_long_ago`` (a stale entry, flagged).
"""


def called_by_example():
    return run_with(callback=on_done)


def run_with(callback):
    return callback(1)


def on_done(result):  # only ever passed as a value: kept
    return result


def dead_helper():  # nothing references it: flagged
    return 0


class Walker:
    def visit_Call(self, node):  # dispatched by name at runtime: kept
        return describe_call(node)


def describe_call(node):  # reached only through visit_Call: kept
    return repr(node)
