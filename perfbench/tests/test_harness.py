"""Self-tests of the benchmark harness.

Run from the repository root:  python3 -m pytest perfbench/tests
"""

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import harness  # noqa: E402
from tracing import Tracer, fit_tally  # noqa: E402


def test_under_trained_checkpoint_crash_counts_as_failed_operation(tmp_path):
    """Known defect: after 40 training iterations the predicted heatmaps make
    `fitting._model_and_jacobian` overflow, and the OverflowError escapes the
    CLI as a traceback instead of exit code 1.  The benchmark must count that
    call as a failed operation and keep running."""
    checkpoint = harness.train_checkpoint(tmp_path / "ckpt", iterations=40)
    mix = harness.WORKLOADS["analyze"]
    inputs = harness.set_up(tmp_path / "inputs", mix, seed=1)
    runner = harness.CallRunner(inputs, checkpoint, mix, seed=1, out=tmp_path / "out")

    outcome = runner.call("eval")
    assert outcome.error is not None and "OverflowError" in outcome.error
    attempted, failed = harness.operations([outcome])
    assert failed >= 1 and attempted >= failed
    # the run goes on: the next subcommand is still called and checked
    assert runner.call("train").error is None


def test_self_times_add_up_to_the_root_span():
    namespace = {}

    def leaf():
        time.sleep(0.01)

    def middle():
        namespace["leaf"]()
        namespace["leaf"]()
        time.sleep(0.005)

    namespace.update(leaf=leaf, middle=middle)
    tracer = Tracer([("root", namespace, "middle", None), ("leaf", namespace, "leaf", None)])
    with tracer:
        namespace["middle"]()
    assert namespace == {"leaf": leaf, "middle": middle}  # originals restored
    (root,) = [s for s in tracer.spans if s.name == "root"]
    leaves = [s for s in tracer.spans if s.name == "leaf"]
    assert [s.parent for s in leaves] == [root, root]
    assert {s.call_id for s in tracer.spans} == {1}
    assert abs(sum(s.self_seconds for s in tracer.spans) - root.seconds) < 1e-9
    assert root.self_seconds >= 0.005
    assert fit_tally(tracer.spans) == (0, 0)
