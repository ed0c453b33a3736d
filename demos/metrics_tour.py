"""Walk through the five fairness metrics on tiny hand-made prediction logs.

Each record is (predicted, actual, group). acc is plain accuracy; ser is
the max/min ratio of per-group error rates; eo is the variance of
per-group recall averaged over classes; ba measures how lopsidedly each
predicted class is drawn from one group; dp is the variance of per-group
prediction rates averaged over classes.
"""
import numpy as np

from fedbias.metrics import full_report, tally


def show(title, records, num_classes, num_groups):
    predicted, actual, group = np.array(records).T
    report = full_report(tally(predicted, actual, group, num_classes, num_groups))
    print(title)
    for name in ("acc", "ser", "eo", "ba", "dp"):
        value = report.metric(name)
        print(f"  {name}: {'absent' if value is None else f'{value:.4f}'}")


# Perfectly accurate and perfectly balanced.
show(
    "perfect classifier, balanced groups",
    [(0, 0, 0), (1, 1, 0), (0, 0, 1), (1, 1, 1)],
    num_classes=2,
    num_groups=2,
)

# Same overall accuracy for both groups is not enough: here group 0 takes
# all its errors on class 0 and group 1 on class 1, so eo lights up.
show(
    "\nequal error rates, unequal recall per class",
    [(1, 0, 0), (0, 0, 0), (1, 1, 0), (1, 1, 0),
     (0, 0, 1), (0, 0, 1), (0, 1, 1), (1, 1, 1)],
    num_classes=2,
    num_groups=2,
)

# A group the model never fails on next to one it always fails on: the
# error ratio degenerates to infinity.
show(
    "\none group entirely wrong",
    [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)],
    num_classes=2,
    num_groups=2,
)

# All of class 1's predictions come from group 1: ba at its 2-group
# maximum of 0.5 even though accuracy is perfect. Each class's actual
# examples also live in a single group, so eo has nothing to compare.
show(
    "\npredicted classes sourced from single groups",
    [(0, 0, 0), (0, 0, 0), (1, 1, 1), (1, 1, 1)],
    num_classes=2,
    num_groups=2,
)

# With a single group the cross-group metrics have nothing to compare;
# the report marks them absent instead of inventing a number.
show(
    "\nsingle-group log (ser and eo are meaningless here)",
    [(0, 0, 0), (1, 1, 0), (1, 0, 0)],
    num_classes=2,
    num_groups=1,
)
