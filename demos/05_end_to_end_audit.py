"""
================================================================================
DEMO 5: END-TO-END RUN WITH INFORMATION-FLOW AUDIT AND SIGNAL TRACE
================================================================================

The engine simulates the nodes inside one process, but isolation is real:
every file read goes through a per-node gate that only admits the node's
placed files, and every signal lookup checks the delivered store. An
access outside the plan raises and ends the run, so a finished report had
none: decoding used nothing beyond placement plus broadcast. Audit mode
counts the file reads and signal lookups.

The signal trace is a JSON-lines stream (sender, group, bit length, payload
digest) suitable for diffing two implementations of the same exchange.
================================================================================
"""

import io
import json

from d3c import build_basic_scheme, make_params
from d3c.engine import default_suite, execute, generate_corpus

print("=" * 80)
print("STEP 1: RUN WITH AUDIT + TRACE")
print("=" * 80)

scheme = build_basic_scheme(make_params(3, 6, 2, 2, T=8))
corpus = generate_corpus(6, 64, 2026)
trace = io.StringIO()
report = execute(scheme, corpus, default_suite(8), audit=True, trace=trace)

print(f"""
  verification passed: {report.verification_passed}
  file reads:          {report.audit['file_reads']}
  signal reads:        {report.audit['signal_reads']}
  violations:          {len(report.audit['violations'])}
  payload bits:        {int(report.measured.communication_load * 6 * 3 * 8)}
  metadata bits:       {report.overhead_bits} (excluded from the load)
""")

print("=" * 80)
print("STEP 2: THE SIGNAL TRACE")
print("=" * 80)
for line in trace.getvalue().splitlines():
    print("  " + line)

print("\n" + "=" * 80)
print("STEP 3: THE REPORT AS JSON (stable across runs for a fixed seed)")
print("=" * 80)

doc = report.to_dict()
print(json.dumps({k: doc[k] for k in ("measured", "per_node", "verification")}, indent=2))
