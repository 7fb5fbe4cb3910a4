"""One warm-up op in a fresh interpreter; run.py times this process for setup_s.

    python3 perfbench/warmup.py WORKLOAD ITEM_JSON

The item comes ready-made from the parent, so input generation is not
part of the measured set-up.
"""

import json
import sys

from workloads import WORKLOADS

wl = WORKLOADS[sys.argv[1]](0)
wl.do_op(wl.item_from_json(json.loads(sys.argv[2])))
